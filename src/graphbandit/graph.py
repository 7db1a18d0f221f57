"""Feedback graphs, observability classification, and the combinatorial solvers.

Vertices are 1-indexed in the public API. A directed edge (u, v) means that
playing action u reveals the loss of action v; self-loops are allowed and
mean the player observes his own loss.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable

import numpy as np

ALPHA_EXACT_CAP = 40  # branch-and-bound independent-set solver refuses larger graphs
DELTA_EXACT_CAP = 20  # above this the dominating-set solver falls back to greedy


class GraphFormatError(ValueError):
    """Malformed graph text; ``line`` is the offending 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VertexClass(Enum):
    STRONG = "strong"
    WEAK = "weak"
    UNOBSERVABLE = "unobservable"


class GraphClass(Enum):
    STRONGLY_OBSERVABLE = "strongly_observable"
    WEAKLY_OBSERVABLE = "weakly_observable"
    NOT_OBSERVABLE = "not_observable"


def _integer(value, name: str) -> int:
    """An integer (numpy's included) as a Python int; a float, a string or a
    bool raises ValueError naming `name`, never truncated or read as 1."""
    try:
        if type(value) is bool:
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _vertex_count(num_vertices) -> int:
    """`num_vertices` by the `_integer` rule, refused below 1."""
    k = _integer(num_vertices, "num_vertices")
    if k < 1:
        raise ValueError(f"num_vertices must be >= 1, got {k}")
    return k


class FeedbackGraph:
    """Immutable directed graph over actions 1..K with self-loops allowed,
    kept as per-vertex bitmasks; `edges` rebuilds the edge set from the
    out-masks on each read."""

    __slots__ = ("_k", "_in", "_out", "_in_matrix", "_sym", "_tags")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]]):
        k = _vertex_count(num_vertices)
        bit = [0] + [1 << i for i in range(k)]  # bit[v]: vertex v's bit in a mask
        in_masks = [0] * (k + 1)  # 1-based: entry 0 stays unused
        out_masks = [0] * (k + 1)
        for u, v in edges:
            if type(u) is not int or type(v) is not int:  # a plain int skips the per-edge call
                try:
                    u, v = _integer(u, "u"), _integer(v, "v")
                except ValueError:
                    raise ValueError(
                        f"edge endpoints must be integers, got ({u!r}, {v!r})"
                    ) from None
            if not (1 <= u <= k and 1 <= v <= k):
                raise ValueError(f"edge ({u}, {v}) out of range for K={k}")
            out_masks[u] |= bit[v]
            in_masks[v] |= bit[u]
        self._k = k
        self._in = tuple(in_masks[1:])
        self._out = tuple(out_masks[1:])
        self._in_matrix = None
        self._sym = None
        self._tags = None

    @property
    def num_vertices(self) -> int:
        return self._k

    @property
    def edges(self) -> frozenset:
        """Every (u, v) pair, from one walk over each out-mask's set bits into
        one list, made a frozenset once."""
        out = []
        for u, mask in enumerate(self._out, start=1):
            while mask:
                b = mask & -mask
                out.append((u, b.bit_length()))
                mask ^= b
        return frozenset(out)

    def has_edge(self, u: int, v: int) -> bool:
        return 1 <= u <= self._k and 1 <= v <= self._k and bool(self._out[u - 1] >> (v - 1) & 1)

    def _check_vertex(self, i: int):
        if not 1 <= i <= self._k:
            raise ValueError(f"vertex {i} out of range 1..{self._k}")

    def out_neighbors(self, i: int) -> frozenset:
        self._check_vertex(i)
        return _mask_to_vertices(self._out[i - 1])

    def in_mask(self, i: int) -> int:
        """Bitmask of in-neighbors of vertex i (bit v-1 set for vertex v)."""
        self._check_vertex(i)
        return self._in[i - 1]

    def out_mask(self, i: int) -> int:
        self._check_vertex(i)
        return self._out[i - 1]

    @property
    def in_matrix(self) -> np.ndarray:
        """K x K float matrix M with M[i-1, j-1] = 1 iff (j, i) is an edge.

        Lets the in-neighborhood mass of every vertex be computed at once
        as M @ p.
        """
        if self._in_matrix is None:
            m = np.zeros((self._k, self._k))
            for i, in_mask in enumerate(self._in):
                m[i, _set_bits(in_mask)] = 1.0
            m.setflags(write=False)
            self._in_matrix = m
        return self._in_matrix

    @property
    def symmetric_masks(self) -> tuple:
        """Undirected adjacency: bit u-1 of entry v-1 set iff (u,v) or (v,u) is
        an edge and u != v. Self-loops are dropped; this is the graph whose
        independent sets match the directed definition."""
        if self._sym is None:
            self._sym = tuple((m | self._out[i]) & ~(1 << i) for i, m in enumerate(self._in))
        return self._sym

    def __eq__(self, other):
        if not isinstance(other, FeedbackGraph):
            return NotImplemented
        return self._k == other._k and self._out == other._out

    def __hash__(self):
        return hash((self._k, self._out))


def _set_bits(mask: int) -> list:
    """The 0-based positions of `mask`'s set bits, ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _mask_to_vertices(mask: int) -> frozenset:
    return frozenset(b + 1 for b in _set_bits(mask))


# ---------------------------------------------------------------------------
# observability classification


def _vertex_tags(g: FeedbackGraph) -> tuple:
    """Every vertex's tag, computed once per graph and kept on it: unobservable
    (no in-edges), strong (self-loop or in-edges from all other vertices),
    weak otherwise."""
    if g._tags is None:
        full = (1 << g.num_vertices) - 1
        g._tags = tuple(
            VertexClass.UNOBSERVABLE if in_mask == 0
            else VertexClass.STRONG if in_mask >> i & 1 or in_mask | 1 << i == full
            else VertexClass.WEAK
            for i, in_mask in enumerate(g._in)
        )
    return g._tags


def weakly_observable_set(g: FeedbackGraph) -> frozenset:
    """The set W of weakly observable vertices (excludes unobservable ones)."""
    return frozenset(i for i, t in enumerate(_vertex_tags(g), 1) if t is VertexClass.WEAK)


def classify_graph(g: FeedbackGraph) -> GraphClass:
    tags = _vertex_tags(g)
    if VertexClass.UNOBSERVABLE in tags:
        return GraphClass.NOT_OBSERVABLE
    if VertexClass.WEAK not in tags:
        return GraphClass.STRONGLY_OBSERVABLE
    return GraphClass.WEAKLY_OBSERVABLE


# ---------------------------------------------------------------------------
# independence number (exact branch and bound on the symmetrized graph)


def _clique_heads(adj, cand: int) -> int:
    """Greedy clique partition of `cand` grown from the highest vertex down:
    take the highest vertex left as a clique's head, then add the highest
    vertex adjacent to every member so far, until none is. Returns the mask
    of the heads. A vertex's clique depends only on the vertices above it,
    so the cliques that meet the candidates >= b are exactly those whose
    head is >= b, and an independent set inside them has at most
    `(heads >> b).bit_count()` members."""
    heads = 0
    rest = cand
    while rest:
        h = rest.bit_length() - 1
        heads |= 1 << h
        rest ^= 1 << h
        grow = rest & adj[h]
        while grow:
            u = grow.bit_length() - 1
            rest ^= 1 << u
            grow &= adj[u]
    return heads


def _mis_size(adj, cand: int) -> int:
    """Maximum independent set size within the vertex bitmask `cand`.

    Colour-ordered branching (Tomita and Seki's maximum-clique search, run
    on the complement): each node partitions its candidates greedily into
    cliques, numbered 1, 2, ... in the order they are built, and branches on
    the vertices from the last clique down. While a vertex of clique c is
    considered, the candidates left lie in cliques 1..c, and an independent
    set meets each clique at most once, so the node stops as soon as
    size + c cannot beat the best set found.

    Before it partitions, a node makes one pass over its candidates in
    index order and takes each vertex with at most one neighbour left
    among them. The rule only prunes: a vertex whose degree falls that low
    after the pass scanned it is left to the branching or to the child's
    own pass, so the size stays exact.
    """
    best = 0

    def visit(sub: int, size: int):
        nonlocal best
        # take every vertex with at most one neighbour inside `sub`: some
        # maximum independent set contains it (swap it for that neighbour)
        scan = sub
        while scan:
            b = scan & -scan
            scan ^= b
            nb = adj[b.bit_length() - 1] & sub
            if nb & (nb - 1) == 0:
                sub &= ~(b | nb)
                scan &= sub
                size += 1
        if size > best:
            best = size
        # greedy clique partition of `sub`, each vertex with its clique number
        order = []
        rest = sub
        c = 0
        while rest:
            c += 1
            grow = rest
            while grow:
                b = grow & -grow
                rest ^= b
                v = b.bit_length() - 1
                order.append((b, v, c))
                grow &= adj[v]
        for b, v, c in reversed(order):
            if size + c <= best:
                return
            visit(sub & ~adj[v] & ~b, size + 1)
            sub ^= b

    visit(cand, 0)
    return best


def _degree_ordered(adj) -> list:
    """The same undirected graph with its vertices renamed in ascending
    order of degree, ties broken by index: new vertex j is the j-th old
    vertex in that order. The degrees are the Python ints' popcounts
    (`np.bitwise_count` needs numpy 2). Each row is unpacked to bits
    through a uint8 view of its uint64 mask, its columns are permuted, and
    it is packed back, so every mask must fit in 64 bits."""
    k = len(adj)
    masks = np.array(adj, dtype="<u8")
    order = np.fromiter(map(int.bit_count, adj), np.intp, k).argsort(kind="stable")
    bits = np.unpackbits(masks.take(order).view(np.uint8), bitorder="little").reshape(k, 64)
    bits[:, :k] = bits.take(order, axis=1)
    return np.packbits(bits, bitorder="little").view("<u8").tolist()


def independence_number(g: FeedbackGraph):
    """Largest set of vertices with no directed edge between distinct members.

    Returns (alpha, witness) where the witness is the lexicographically
    smallest maximum independent set. Alpha comes from `_mis_size` on a
    copy of the graph whose vertices are renamed by ascending degree
    (`_degree_ordered`): the search returns only a size, so the names do
    not matter to it, and low-degree vertices first keep its clique
    partitions tight. The witness search runs on the caller's names: once
    alpha is known, a depth-first search takes vertices in index order,
    trying each one in before leaving it out, and prunes every branch that
    cannot reach alpha, so the first set of size alpha it reaches is the
    smallest one. Each node partitions its candidates into cliques once,
    from the highest vertex down (`_clique_heads`); after the vertices
    below b are left out, the candidates are those >= b, and the heads
    >= b count the cliques that can still contribute a member, so every
    leave-out step is bounded by a popcount. Graphs beyond `ALPHA_EXACT_CAP`
    vertices (read at each call), or beyond the 64 that a uint64 mask holds,
    are rejected rather than solved approximately.
    """
    k = g.num_vertices
    if k > ALPHA_EXACT_CAP:
        raise ValueError(f"K={k} exceeds the exact independence-solver cap {ALPHA_EXACT_CAP}")
    if k > 64:
        raise ValueError(f"K={k} exceeds 64, the most vertices the size search packs")
    adj = g.symmetric_masks
    alpha = _mis_size(_degree_ordered(adj), (1 << k) - 1)

    def first(cand: int, need: int):
        if not need:
            return 0
        heads = _clique_heads(adj, cand)
        while cand:
            b = cand & -cand
            v = b.bit_length() - 1
            if (heads >> v).bit_count() < need:
                return None
            cand ^= b
            rest = first(cand & ~adj[v], need - 1)
            if rest is not None:
                return rest | b
        return None

    return alpha, _mask_to_vertices(first((1 << k) - 1, alpha))


# ---------------------------------------------------------------------------
# weak domination number


def weak_domination_number(g: FeedbackGraph):
    """Size of the smallest set whose out-neighborhoods cover all weakly
    observable vertices.

    Returns (delta, witness, exact). When W is empty the answer is 0 with an
    empty witness. Up to `DELTA_EXACT_CAP` vertices (read at each call) the
    cover size grows one at a time, and at each size a depth-first search
    picks dominators in increasing index order, so the first cover it finds
    is the lexicographically smallest optimum. It branches only up to the
    last dominator of the lowest uncovered weak vertex, and prunes when more
    uncovered weak vertices have pairwise disjoint dominator sets than picks
    are left. The last pick is read, not searched: a single vertex that
    covers every uncovered weak vertex dominates the lowest of them, so it
    is the lowest such dominator at or above the next index, if any. Beyond
    the cap a greedy set cover runs and `exact` is False: each pick is the
    first vertex, in index order, whose out-mask covers the most weak
    vertices still uncovered (a popcount).
    """
    wmask = sum(1 << i for i, t in enumerate(_vertex_tags(g)) if t is VertexClass.WEAK)
    if not wmask:
        return 0, frozenset(), True
    k = g.num_vertices
    cover = [out & wmask for out in g._out]
    # a weak vertex has an in-neighbor and no self-loop, so `cand`'s covers hold W
    cand = [v for v in range(k) if cover[v]]
    if k <= DELTA_EXACT_CAP:
        dominators = g._in  # a weak vertex's in-neighbors are all candidates

        def packing(uncovered: int, allowed: int) -> int:
            """Picks that `uncovered` still needs from the vertices `allowed`."""
            used = need = 0
            while uncovered:
                b = uncovered & -uncovered
                uncovered ^= b
                doms = dominators[b.bit_length() - 1] & allowed
                if not doms:
                    return k + 1
                if not doms & used:
                    used |= doms
                    need += 1
            return need

        # sizes grow from a lower bound, so `uncovered` is never empty here:
        # a cover with picks to spare would be a smaller cover
        def first(uncovered: int, start: int, picks: int):
            allowed = -1 << start
            doms = dominators[(uncovered & -uncovered).bit_length() - 1] & allowed
            if picks == 1:
                while doms:
                    b = doms & -doms
                    if not uncovered & ~cover[b.bit_length() - 1]:
                        return b
                    doms ^= b
                return None
            if packing(uncovered, allowed) > picks:
                return None
            for v in range(start, doms.bit_length()):
                if cover[v]:
                    rest = first(uncovered & ~cover[v], v + 1, picks - 1)
                    if rest is not None:
                        return rest | 1 << v
            return None

        for size in range(max(1, packing(wmask, -1)), len(cand) + 1):
            found = first(wmask, 0, size)
            if found is not None:
                return size, _mask_to_vertices(found), True
        raise RuntimeError("unreachable: union of candidate covers equals W")
    remaining = wmask
    picked = []
    while remaining:
        best_v, best_gain = -1, 0
        for v in cand:
            gain = (cover[v] & remaining).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        picked.append(best_v + 1)
        remaining &= ~cover[best_v]
    return len(picked), frozenset(picked), False


# ---------------------------------------------------------------------------
# profiles and rate prediction


@dataclass(frozen=True)
class GraphProfile:
    """Observability class plus the combinatorial quantities that set the
    learning rate of the induced game."""

    graph_class: GraphClass
    num_vertices: int
    alpha: int
    alpha_witness: frozenset
    delta: int
    delta_witness: frozenset
    delta_exact: bool
    weak_set: frozenset


@lru_cache(maxsize=512)
def profile(g: FeedbackGraph) -> GraphProfile:
    cls = classify_graph(g)
    alpha, alpha_witness = independence_number(g)
    delta, delta_witness, exact = weak_domination_number(g)
    return GraphProfile(
        graph_class=cls,
        num_vertices=g.num_vertices,
        alpha=alpha,
        alpha_witness=alpha_witness,
        delta=delta,
        delta_witness=delta_witness,
        delta_exact=exact,
        weak_set=weakly_observable_set(g),
    )


@dataclass(frozen=True)
class RatePrediction:
    formula: str
    value: float


def predict_rate(prof: GraphProfile, horizon: int) -> RatePrediction:
    """Minimax regret growth implied by the observability class, up to
    constants and log factors."""
    if prof.num_vertices < 2:
        raise ValueError("rate prediction needs at least 2 actions")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    t = float(horizon)
    if prof.graph_class is GraphClass.STRONGLY_OBSERVABLE:
        return RatePrediction("sqrt(alpha*T)", math.sqrt(prof.alpha * t))
    if prof.graph_class is GraphClass.WEAKLY_OBSERVABLE:
        return RatePrediction("delta^(1/3)*T^(2/3)", prof.delta ** (1 / 3) * t ** (2 / 3))
    return RatePrediction("T", t)


# ---------------------------------------------------------------------------
# catalog of named graphs

CATALOG_NAMES = (
    "full",
    "bandit",
    "loopless_clique",
    "apple_tasting",
    "revealing_action",
    "clique_minus",
    "loopy_star",
)


def catalog(name: str, num_vertices: int) -> FeedbackGraph:
    """Named feedback graphs generalized to K vertices.

    full             -- directed clique with all self-loops
    bandit           -- self-loops only
    loopless_clique  -- directed clique minus the self-loops
    apple_tasting    -- K=2 only: {(1,1), (1,2)}
    revealing_action -- vertex 1 observes everything, no one else observes anything
    clique_minus     -- full clique minus vertex 1's self-loop and the edge (2,1)
    loopy_star       -- revealing action plus all self-loops
    """
    k = _vertex_count(num_vertices)
    if name == "full":
        edges = [(u, v) for u in range(1, k + 1) for v in range(1, k + 1)]
    elif name == "bandit":
        edges = [(u, u) for u in range(1, k + 1)]
    elif name == "loopless_clique":
        if k < 2:
            raise ValueError("loopless_clique needs K >= 2")
        edges = [(u, v) for u in range(1, k + 1) for v in range(1, k + 1) if u != v]
    elif name == "apple_tasting":
        if k != 2:
            raise ValueError("apple_tasting is a K=2 graph")
        edges = [(1, 1), (1, 2)]
    elif name == "revealing_action":
        edges = [(1, v) for v in range(1, k + 1)]
    elif name == "clique_minus":
        if k < 3:
            raise ValueError("clique_minus needs K >= 3")
        edges = [
            (u, v)
            for u in range(1, k + 1)
            for v in range(1, k + 1)
            if (u, v) != (1, 1) and (u, v) != (2, 1)
        ]
    elif name == "loopy_star":
        edges = [(1, v) for v in range(1, k + 1)] + [(u, u) for u in range(1, k + 1)]
    else:
        raise ValueError(f"unknown catalog graph {name!r}; choose from {CATALOG_NAMES}")
    return FeedbackGraph(k, edges)


# ---------------------------------------------------------------------------
# text format


def parse_graph(text: str) -> FeedbackGraph:
    """Parse the graph text format.

    First non-comment line is K; every further non-comment line is `u v`
    (a directed edge, 1-indexed). `#` starts a comment, blank lines are
    ignored, duplicate edges are tolerated and deduplicated.
    """
    k = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if k is None:
            if len(parts) != 1:
                raise GraphFormatError("expected a single vertex count", lineno)
            try:
                k = int(parts[0])
            except ValueError:
                raise GraphFormatError(f"vertex count {parts[0]!r} is not an integer", lineno)
            if k < 1:
                raise GraphFormatError(f"vertex count must be >= 1, got {k}", lineno)
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"expected an edge `u v`, got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"edge endpoints must be integers, got {line!r}", lineno)
        if not (1 <= u <= k and 1 <= v <= k):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for K={k}", lineno)
        edges.append((u, v))
    if k is None:
        raise GraphFormatError("no vertex count found")
    return FeedbackGraph(k, edges)


def load_graph(path) -> FeedbackGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
