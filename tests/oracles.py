"""Independent references used to check the package.

The solver references enumerate rather than search, and share no code with
the implementations under test. The analysis oracles evaluate the paper's
inequalities that criteria 02 and 09 check (the weighted in-neighborhood
ratio and Hedge's second-order regret bound), and `adversarial_tables` gives
criterion 06 its loss tables; nothing in the package calls them. The
protocol players at the end are the single-game form of the engine's
learners: one object per game, acting and updating one round at a time,
which the lockstep engine must reproduce.
"""

import math
from itertools import combinations
from typing import NamedTuple

import numpy as np

from graphbandit import learners
from graphbandit.environments import CappedIndependentSet, _draw
from graphbandit.graph import ALPHA_EXACT_CAP, DELTA_EXACT_CAP, FeedbackGraph, GraphClass
from graphbandit.graph import VertexClass, _vertex_tags
from graphbandit.graph import profile as graph_profile
from graphbandit.graph import weak_domination_number, weakly_observable_set
from graphbandit.partial_monitoring import Certificates, Witness


def is_independent(g: FeedbackGraph, vertices) -> bool:
    """Directed definition: no edge in either direction between distinct members."""
    vs = list(vertices)
    for a in range(len(vs)):
        for b in range(len(vs)):
            if a != b and g.has_edge(vs[a], vs[b]):
                return False
    return True


def _undirected_masks(g: FeedbackGraph):
    # an edge in either direction between distinct vertices kills independence
    adj = [0] * g.num_vertices
    for u, v in g.edges:
        if u != v:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
    return adj


def _mask_independent(adj, mask: int) -> bool:
    rest = mask
    while rest:
        b = rest & -rest
        if adj[b.bit_length() - 1] & mask:
            return False
        rest ^= b
    return True


def brute_force_alpha(g: FeedbackGraph) -> int:
    adj = _undirected_masks(g)
    best = 0
    for mask in range(1 << g.num_vertices):
        if bin(mask).count("1") > best and _mask_independent(adj, mask):
            best = bin(mask).count("1")
    return best


def all_maximum_independent_sets(g: FeedbackGraph):
    k = g.num_vertices
    best = brute_force_alpha(g)
    out = []
    for mask in range(1 << k):
        if bin(mask).count("1") != best:
            continue
        members = tuple(v + 1 for v in range(k) if (mask >> v) & 1)
        if is_independent(g, members):
            out.append(members)
    return best, out


def brute_force_delta_fast(g: FeedbackGraph) -> int:
    """Set-cover minimum by full subset enumeration with bitmasks."""
    w = weakly_observable_vertices(g)
    if not w:
        return 0
    k = g.num_vertices
    wmask = 0
    for v in w:
        wmask |= 1 << (v - 1)
    cover = [0] * k
    for u, v in g.edges:
        cover[u - 1] |= 1 << (v - 1)
    cover = [c & wmask for c in cover]
    best = k + 1
    for mask in range(1 << k):
        size = bin(mask).count("1")
        if size >= best:
            continue
        covered = 0
        rest = mask
        while rest:
            b = rest & -rest
            covered |= cover[b.bit_length() - 1]
            rest ^= b
        if covered == wmask:
            best = size
    return best


def weakly_observable_vertices(g: FeedbackGraph):
    """Recomputed from first principles: observable but neither self-aware
    nor watched by everyone else."""
    edges = g.edges
    out = []
    for i in range(1, g.num_vertices + 1):
        incoming = {u for u, v in edges if v == i}
        if not incoming:
            continue
        if i in incoming:
            continue
        others = set(range(1, g.num_vertices + 1)) - {i}
        if others <= incoming:
            continue
        out.append(i)
    return set(out)


def dominates(g: FeedbackGraph, dominators, targets) -> bool:
    edges = g.edges
    covered = set()
    for d in dominators:
        covered |= {v for u, v in edges if u == d}
    return set(targets) <= covered


def brute_force_delta(g: FeedbackGraph) -> int:
    w = weakly_observable_vertices(g)
    if not w:
        return 0
    k = g.num_vertices
    for size in range(1, k + 1):
        for combo in combinations(range(1, k + 1), size):
            if dominates(g, combo, w):
                return size
    raise AssertionError("some weakly observable vertex has no dominator")


def all_minimum_dominating_sets(g: FeedbackGraph):
    w = weakly_observable_vertices(g)
    if not w:
        return 0, [()]
    delta = brute_force_delta(g)
    out = [
        combo
        for combo in combinations(range(1, g.num_vertices + 1), delta)
        if dominates(g, combo, w)
    ]
    return delta, out


def domination_counts(g: FeedbackGraph, members):
    """Per vertex 1..K, how many of `members` its out-neighborhood covers."""
    members = set(members)
    edges = g.edges
    counts = []
    for v in range(1, g.num_vertices + 1):
        outs = {y for x, y in edges if x == v}
        counts.append(len(outs & members))
    return counts


def hedge_terms(num_actions: int) -> tuple:
    """The gamma = 0 exploration terms, with which
    `learners.exponential_weights` is Hedge's distribution bit for bit
    (1.0 * w + 0.0 is w). The term is a list, which both forms take."""
    return 1.0, [0.0] * num_actions


def hedge_distribution_highprec(losses, eta, upto):
    """Exponential-weights distribution after `upto` rounds, via mpmath."""
    import mpmath

    mpmath.mp.dps = 60
    k = len(losses[0])
    cum = [mpmath.mpf(0)] * k
    for t in range(upto):
        for i in range(k):
            cum[i] += mpmath.mpf(float(losses[t][i]))
    weights = [mpmath.e ** (-mpmath.mpf(float(eta)) * c) for c in cum]
    total = sum(weights)
    return np.array([float(w / total) for w in weights])


def random_graph(rng, num_vertices, edge_prob, self_loop_prob=None) -> FeedbackGraph:
    """Edge (u, v) with probability `edge_prob`, self-loop (v, v) with
    probability `self_loop_prob` (default: `edge_prob`).

    Stream contract: one `rng.random((K, K))` draw, compared row-major, so
    (u, v) reads the ((u-1)K + v)-th double. These are the same K^2 numbers,
    in the same order, as K^2 scalar `rng.random()` calls, and leave `rng`
    at the same position, so seeded callers keep their graphs."""
    if self_loop_prob is None:
        self_loop_prob = edge_prob
    bound = np.full((num_vertices, num_vertices), edge_prob, dtype=float)
    np.fill_diagonal(bound, self_loop_prob)
    tails, heads = np.nonzero(rng.random((num_vertices, num_vertices)) < bound)
    return FeedbackGraph(num_vertices, zip((tails + 1).tolist(), (heads + 1).tolist()))


def random_weakly_observable_graph(rng, max_vertices=14) -> FeedbackGraph:
    """Rejection-sample a weakly observable graph."""
    from graphbandit.graph import GraphClass, classify_graph

    while True:
        k = int(rng.integers(3, max_vertices + 1))
        g = random_graph(rng, k, float(rng.uniform(0.15, 0.6)), float(rng.uniform(0.0, 0.6)))
        if classify_graph(g) is GraphClass.WEAKLY_OBSERVABLE:
            return g


def random_distribution(rng, k):
    p = rng.random(k) + 1e-3
    return p / p.sum()


# ---------------------------------------------------------------------------
# the exact solvers as first written: one branch-and-bound size solve plus up
# to K feasibility solves for alpha, subsets by increasing size for delta


def _reference_clique_cover_bound(adj, cand: int) -> int:
    """Greedy clique partition of `cand`; its size bounds the independence
    number from above (an independent set meets each clique at most once)."""
    bound = 0
    rest = cand
    while rest:
        v = (rest & -rest).bit_length() - 1
        rest &= ~(1 << v)
        grow = rest & adj[v]
        while grow:
            u = (grow & -grow).bit_length() - 1
            rest &= ~(1 << u)
            grow &= adj[u]
        bound += 1
    return bound


def _reference_mis_size(adj, cand: int, target=None) -> int:
    """Maximum independent set size within the vertex bitmask `cand`.

    With `target` set, the search stops as soon as an independent set of
    that size is found (the return value is then only a lower bound, but
    always >= target when one exists).
    """
    best = 0

    def visit(sub: int, size: int):
        nonlocal best
        if target is not None and best >= target:
            return
        # strip vertices isolated inside `sub`: always taken
        while sub:
            iso = 0
            scan = sub
            while scan:
                b = scan & -scan
                v = b.bit_length() - 1
                if adj[v] & sub == 0:
                    iso |= b
                scan ^= b
            if not iso:
                break
            size += bin(iso).count("1")
            sub &= ~iso
        if sub == 0:
            if size > best:
                best = size
            return
        if size + _reference_clique_cover_bound(adj, sub) <= best:
            return
        # pivot on a maximum-degree vertex
        pivot, pivot_deg = -1, -1
        scan = sub
        while scan:
            b = scan & -scan
            v = b.bit_length() - 1
            d = bin(adj[v] & sub).count("1")
            if d > pivot_deg:
                pivot, pivot_deg = v, d
            scan ^= b
        visit(sub & ~adj[pivot] & ~(1 << pivot), size + 1)
        visit(sub & ~(1 << pivot), size)

    visit(cand, 0)
    return best


def reference_independence_number(g: FeedbackGraph, exact_cap: int = ALPHA_EXACT_CAP):
    """(alpha, lexicographically smallest maximum independent set): alpha
    from one solve, then the witness vertex by vertex, each vertex kept iff
    the rest can still be completed to alpha."""
    k = g.num_vertices
    if k > exact_cap:
        raise ValueError(f"K={k} exceeds the exact independence-solver cap {exact_cap}")
    adj = _undirected_masks(g)
    full = (1 << k) - 1
    alpha = _reference_mis_size(adj, full)
    chosen = []
    allowed = full
    for v in range(k):
        if not (allowed >> v) & 1:
            continue
        rest = allowed & ~adj[v] & ~((1 << (v + 1)) - 1)
        need = alpha - len(chosen) - 1
        if need <= _reference_mis_size(adj, rest, target=need):
            chosen.append(v + 1)
            allowed = rest
            if len(chosen) == alpha:
                break
        else:
            allowed &= ~(1 << v)
    return alpha, frozenset(chosen)


def reference_weak_domination_number(g: FeedbackGraph, exact_cap: int = DELTA_EXACT_CAP):
    """(delta, witness, exact): up to `exact_cap` vertices the candidate
    subsets are enumerated by increasing size in `combinations` order, so
    the witness is the lexicographically smallest optimum; beyond it a
    greedy set cover with `exact` False."""
    w = weakly_observable_vertices(g)
    if not w:
        return 0, frozenset(), True
    k = g.num_vertices
    wmask = 0
    for v in w:
        wmask |= 1 << (v - 1)
    cover = [0] * k
    for u, v in g.edges:
        cover[u - 1] |= 1 << (v - 1)
    cover = [c & wmask for c in cover]
    cand = [v for v in range(k) if cover[v]]
    union = 0
    for v in cand:
        union |= cover[v]
    if union != wmask:
        # cannot happen: every observable vertex has an in-neighbor
        raise RuntimeError("weakly observable vertex without a dominator")
    if k <= exact_cap:
        for size in range(1, len(cand) + 1):
            for combo in combinations(cand, size):
                m = 0
                for v in combo:
                    m |= cover[v]
                if m == wmask:
                    return size, frozenset(v + 1 for v in combo), True
        raise RuntimeError("unreachable: union of candidate covers equals W")
    remaining = wmask
    picked = []
    while remaining:
        best_v, best_gain = -1, 0
        for v in cand:
            gain = bin(cover[v] & remaining).count("1")
            if gain > best_gain:
                best_v, best_gain = v, gain
        picked.append(best_v + 1)
        remaining &= ~cover[best_v]
    return len(picked), frozenset(picked), False


# ---------------------------------------------------------------------------
# the domination-capped independent set as first written, on neighbor sets


def reference_capped_independent_set(
    g: FeedbackGraph, seed=0, max_attempts: int = 64
) -> CappedIndependentSet:
    """The construction of `environments.domination_capped_independent_set`
    with every count taken over `out_neighbors` frozensets: the same random
    draws, the same scan orders, the same result."""
    w = weakly_observable_set(g)
    if not w:
        raise ValueError("graph has no weakly observable vertices")
    n = g.num_vertices
    log_n = math.log(n)
    cap = max(1, math.ceil(log_n))
    k = weak_domination_number(g)[0]
    target = max(1, math.floor(k / (50.0 * log_n))) if log_n > 0 else 1

    if k >= 50.0 * log_n:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        rng = np.random.default_rng(seed)
        beta = 2.0 * log_n / k
        r = _reference_beta_shrink(g, w, beta)
        m = math.floor(1.0 / (10.0 * beta))
        r_list = sorted(r)
        for _ in range(max_attempts):
            if m < 1 or not r_list:
                break
            sample = sorted(set(rng.choice(r_list, size=m, replace=True).tolist()))
            if len(sample) * 10 < m:
                continue
            if any(_reference_dominated_count(g, v, sample) > log_n for v in range(1, n + 1)):
                continue
            induced = sum(_reference_dominated_count(g, v, sample) for v in sample)
            if induced * 2 > len(sample):
                continue
            independent = _reference_greedy_independent(g, sample)
            if len(independent) >= target and _reference_cap_ok(g, independent, cap):
                return CappedIndependentSet(
                    frozenset(independent), cap, True, False
                )
        fallback = _reference_greedy_capped(g, sorted(w), cap)
        return CappedIndependentSet(
            frozenset(fallback), cap, len(fallback) >= target, True
        )

    chosen = _reference_greedy_capped(g, sorted(w), cap)
    return CappedIndependentSet(frozenset(chosen), cap, len(chosen) >= target, False)


def _reference_beta_shrink(g: FeedbackGraph, w, beta: float):
    """Shrink W until no vertex dominates more than a beta fraction of it."""
    r = set(w)
    while r:
        offender = None
        for v in range(1, g.num_vertices + 1):
            hit = g.out_neighbors(v) & r
            if len(hit) > beta * len(r):
                offender = hit
                break
        if offender is None:
            return r
        r -= offender
    return r


def _reference_dominated_count(g: FeedbackGraph, v: int, members) -> int:
    out = g.out_neighbors(v)
    return sum(1 for u in members if u in out)


def _reference_cap_ok(g: FeedbackGraph, members, cap: int) -> bool:
    return all(
        _reference_dominated_count(g, v, members) <= cap
        for v in range(1, g.num_vertices + 1)
    )


def _reference_greedy_independent(g: FeedbackGraph, vertices):
    """Greedy independent subset: scan by ascending degree inside the sample."""
    pool = list(vertices)

    def degree(v):
        out = _reference_dominated_count(g, v, pool)
        inc = sum(1 for u in pool if v in g.out_neighbors(u))
        return out + inc

    pool.sort(key=lambda v: (degree(v), v))
    chosen = []
    for v in pool:
        if all(not g.has_edge(v, u) and not g.has_edge(u, v) for u in chosen):
            chosen.append(v)
    return chosen


def _reference_greedy_capped(g: FeedbackGraph, candidates, cap: int):
    """Greedy pass keeping independence and the per-vertex domination cap."""
    chosen = []
    counts = [0] * (g.num_vertices + 1)
    for v in candidates:
        if any(g.has_edge(v, u) or g.has_edge(u, v) for u in chosen):
            continue
        dominators = [d for d in range(1, g.num_vertices + 1) if v in g.out_neighbors(d)]
        if any(counts[d] + 1 > cap for d in dominators):
            continue
        chosen.append(v)
        for d in dominators:
            counts[d] += 1
    return chosen


# ---------------------------------------------------------------------------
# matrix-game encoding and observability, one column and one pair at a time


def reference_encode(g: FeedbackGraph):
    """(loss matrix, symbol matrix, signal matrices) of the binary-loss
    matrix game, by a dictionary of visible-loss signatures per vertex that
    numbers each new signature as it is first met along the columns."""
    k = g.num_vertices
    m = 1 << k
    columns = np.arange(m)
    shifts = (k - 1) - np.arange(k)
    loss = ((columns[None, :] >> shifts[:, None]) & 1).astype(np.int64)
    symbols = np.zeros((k, m), dtype=np.int64)
    signals = []
    edges = g.edges
    for i in range(k):
        out_idx = np.array(sorted(v - 1 for u, v in edges if u == i + 1), dtype=np.int64)
        seen = {}
        for y in range(m):
            signature = loss[out_idx, y].tobytes()
            symbol = seen.get(signature)
            if symbol is None:
                symbol = len(seen)
                seen[signature] = symbol
            symbols[i, y] = symbol
        s_i = np.zeros((len(seen), m), dtype=np.int64)
        s_i[symbols[i], columns] = 1
        signals.append(s_i)
    return loss, symbols, tuple(signals)


def reference_certificates(instance) -> Certificates:
    """The certificate table as first written: both certificates for every
    (source, vertex) pair, from one bincount of L over the K x K x 2^K
    (source, vertex, column) cells and one of the symbol class sizes; the
    membership certificate is the combination v . S_a evaluated at every
    column and compared with L_i."""
    loss, symbols = instance.loss_matrix, instance.symbol_matrix
    k, m = loss.shape
    n = int(symbols.max()) + 1
    # bins[a, i, y]: the flat index of (a, i, H[a, y]) in a K x K x n table
    bins = np.arange(k * k).reshape(k, k, 1) * n + symbols[:, None, :]
    hits = np.bincount(bins.ravel(), weights=np.broadcast_to(loss, (k, k, m)).ravel(),
                       minlength=k * k * n)
    sizes = np.bincount((np.arange(k)[:, None] * n + symbols).ravel(), minlength=k * n)
    # v[a, i, s] = 1 for the symbols s of a that occur where L_i is 1,
    # and v[bins] is the combination v . S_a evaluated at every column
    v = (hits > 0).astype(loss.dtype)
    member = (v[bins] == loss).all(axis=2)
    # np.bincount(H[a], weights=2 L_i - 1), by linearity
    z_sums = 2 * hits.reshape(k, k, n) - sizes.reshape(k, 1, n)
    orthogonal = (z_sums == 0).all(axis=2)
    return Certificates(member, orthogonal)


def _reference_first_failing_pair(seen: np.ndarray, blind: np.ndarray) -> Witness | None:
    """From K x K tables whose entry [v, w] says whether the sources of the
    pair {v, w} see vertex v (its membership certificate verifies against
    one of them) or none does (its non-membership certificate verifies
    against all of them): the first pair in lexicographic order with an
    unseen vertex. Raises if neither holds for a vertex of some pair."""
    pairs = ~np.eye(len(seen), dtype=bool)
    stuck = np.argwhere(~(seen | blind) & pairs)
    if len(stuck):
        v, w = stuck[0] + 1
        raise ValueError(
            f"neither certificate verifies for vertex {v} of pair ({min(v, w)}, {max(v, w)}): "
            "H does not encode a feedback graph"
        )
    failing = np.argwhere(np.triu(~(seen & seen.T), 1))
    if not len(failing):
        return None
    i, j = failing[0]
    return Witness(int(i) + 1, int(j) + 1, int(i if not seen[i, j] else j) + 1)


def reference_global_witness(instance) -> Witness | None:
    """The global verdict on K x K boolean tables: a pair whose loss
    difference is outside the combined row space of all signal matrices,
    or None if the game is globally observable."""
    member, orthogonal = instance.certificates
    return _reference_first_failing_pair(
        np.broadcast_to(member.any(axis=0)[:, None], member.shape),
        np.broadcast_to(orthogonal.all(axis=0)[:, None], member.shape),
    )


def reference_local_witness(instance) -> Witness | None:
    """The local verdict on K x K boolean tables: a pair whose loss
    difference is outside the row space of the pair's own two signal
    matrices, or None if the game is locally observable."""
    member, orthogonal = instance.certificates
    # vertex v of the pair {v, w} has the sources v and w
    return _reference_first_failing_pair(
        member.diagonal()[:, None] | member.T,
        orthogonal.diagonal()[:, None] & orthogonal.T,
    )


def _reference_in_row_space(stacked, target, tol) -> bool:
    a = stacked.T.astype(float)
    b = target.astype(float)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(np.linalg.norm(a @ x - b)) < tol


def reference_global_observability(loss, signals, tol=1e-8) -> bool:
    """One least-squares solve per action pair against all signal matrices
    stacked, stopping at the first pair that fails."""
    stacked = np.vstack(signals)
    for i in range(len(loss)):
        for j in range(i + 1, len(loss)):
            if not _reference_in_row_space(stacked, loss[i] - loss[j], tol):
                return False
    return True


def reference_local_observability(loss, signals, tol=1e-8) -> bool:
    """One least-squares solve per action pair against that pair's own two
    signal matrices, stopping at the first pair that fails."""
    for i in range(len(loss)):
        for j in range(i + 1, len(loss)):
            stacked = np.vstack((signals[i], signals[j]))
            if not _reference_in_row_space(stacked, loss[i] - loss[j], tol):
                return False
    return True


def signature_families(instance) -> tuple:
    """Per vertex, the partition of columns induced by its symbols; two
    graphs encode identically exactly when these partitions coincide."""
    families = []
    for i in range(len(instance.loss_matrix)):
        groups = {}
        for y, s in enumerate(instance.symbol_matrix[i]):
            groups.setdefault(int(s), []).append(y)
        families.append(frozenset(frozenset(v) for v in groups.values()))
    return tuple(families)


# ---------------------------------------------------------------------------
# graph reads and the text format's writer


def in_neighbors(g: FeedbackGraph, i: int) -> frozenset:
    """The vertices with an edge into i, read from the graph's in-mask."""
    mask = g.in_mask(i)
    return frozenset(v for v in range(1, g.num_vertices + 1) if mask >> (v - 1) & 1)


def classify_vertex(g: FeedbackGraph, i: int) -> VertexClass:
    """Vertex i's tag under the package's rule (`graph._vertex_tags`), after
    `in_mask` refuses a vertex out of range."""
    g.in_mask(i)
    return _vertex_tags(g)[i - 1]


def format_graph(g: FeedbackGraph) -> str:
    """The text `parse_graph` reads: K, then one sorted `u v` line per edge."""
    lines = [str(g.num_vertices)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the analysis inequalities the criteria check: the weighted
# in-neighborhood ratio with its independence bound, and Hedge's refined
# second-order regret bound


def weight_ratio_sum(g: FeedbackGraph, weights, eps: float) -> float:
    """Sum over vertices of w_i / (w_i + total weight of the in-neighborhood).

    Preconditions: all weights positive and >= eps, their sum <= 1, and
    0 < eps < 1/2. A self-loop puts a vertex inside its own in-neighborhood,
    so its weight then appears twice in the denominator.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (g.num_vertices,):
        raise ValueError(f"expected {g.num_vertices} weights, got shape {w.shape}")
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if np.any(w < eps):
        raise ValueError("every weight must be >= eps")
    if w.sum() > 1 + 1e-12:
        raise ValueError("weights must sum to at most 1")
    in_weight = g.in_matrix @ w
    return float(np.sum(w / (w + in_weight)))


def weight_ratio_bound(alpha: int, num_vertices: int, eps: float) -> float:
    """Companion bound 4 * alpha * ln(4K / (alpha * eps))."""
    return 4.0 * alpha * math.log(4.0 * num_vertices / (alpha * eps))


class SecondOrderBound(NamedTuple):
    lhs: float
    rhs: float


def hedge_second_order_bound(losses, eta: float, subsets=None, comparator=None) -> SecondOrderBound:
    """Play Hedge (exponential weights over cumulative losses) on a loss
    sequence and evaluate both sides of its refined second-order regret
    bound; the caller asserts lhs <= rhs.

    `losses` is a T x K array of nonnegative values. `subsets` gives, per
    round, the set of actions (1-indexed) granted the sharper q(1-q) variance
    factor; membership requires that round's loss to be at most 1/eta. With
    empty subsets the right-hand side is the standard second-order bound,
    which dominates any refined one pointwise. `comparator` is the fixed
    action on the left-hand side; by default the best action in hindsight.
    Hedge is played over all T rounds at once, as T rows of
    `learners.exponential_weights`.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2:
        raise ValueError("losses must be a T x K array")
    horizon, num_actions = losses.shape
    if np.any(losses < 0):
        raise ValueError("losses must be nonnegative")
    learners._check_rates(eta, None)
    if subsets is None:
        subsets = [()] * horizon
    if len(subsets) != horizon:
        raise ValueError("need one subset per round")

    masks = np.zeros((horizon, num_actions), dtype=bool)
    for t, subset in enumerate(subsets):
        for i in subset:
            if not 1 <= i <= num_actions:
                raise ValueError(f"subset member {i} out of range")
            if losses[t, i - 1] > 1.0 / eta + 1e-12:
                raise ValueError(
                    f"round {t + 1}: action {i} is in the subset but its loss "
                    f"{losses[t, i - 1]} exceeds 1/eta"
                )
            masks[t, i - 1] = True

    # round t plays exponential weights over the losses of rounds before t
    cumulative = np.zeros(losses.shape)
    np.cumsum(losses[:-1], axis=0, out=cumulative[1:])
    q = learners.exponential_weights(cumulative, eta, hedge_terms(num_actions))
    sq = q * losses * losses
    sq = np.where(masks, sq * (1.0 - q), sq)
    player = 0.0
    variance = 0.0
    for t in range(horizon):
        player += float(q[t] @ losses[t])
        variance += float(sq[t].sum())

    totals = losses.sum(axis=0)
    if comparator is None:
        comp_loss = float(totals.min())
    else:
        if not 1 <= comparator <= num_actions:
            raise ValueError(f"comparator {comparator} out of range")
        comp_loss = float(totals[comparator - 1])
    log_k = math.log(num_actions)
    return SecondOrderBound(player - comp_loss, log_k / eta + eta * variance)


# ---------------------------------------------------------------------------
# adversarial-style loss tables


def adversarial_tables(num_actions: int, horizon: int, count: int = 20, seed: int = 0):
    """Named deterministic and seeded loss tables that stress exponential
    weights: constants, alternation, single good arms, a mid-game switch,
    drifting phases, and random Bernoulli fills.

    Returns `count` (name, table) pairs; tables are T x K with entries in
    [0, 1] and are a pure function of (num_actions, horizon, count, seed).
    The Bernoulli fills are drawn by `environments._draw`, the package's
    own table draw.
    """
    k, t = num_actions, horizon
    rng = np.random.default_rng(seed)
    rounds = np.arange(t)
    named = []
    named.append(("const_half", np.full((t, k), 0.5)))
    ramp = np.broadcast_to(np.linspace(0.0, 1.0, k)[None, :], (t, k)).copy()
    named.append(("const_ramp", ramp))
    named.append(("alt_all", np.repeat((rounds % 2).astype(float)[:, None], k, axis=1)))
    named.append(("alt_phase", ((rounds[:, None] + np.arange(k)[None, :]) % 2).astype(float)))
    good_first = np.ones((t, k)); good_first[:, 0] = 0.0
    named.append(("single_good_first", good_first))
    good_last = np.ones((t, k)); good_last[:, -1] = 0.0
    named.append(("single_good_last", good_last))
    switch = np.ones((t, k))
    switch[: t // 2, 0] = 0.0
    switch[t // 2:, min(1, k - 1)] = 0.0
    named.append(("switch_half", switch))
    phases = 2.0 * np.pi * np.arange(k) / k
    wave = 0.5 * (1.0 + np.sin(2.0 * np.pi * rounds[:, None] / 64.0 + phases[None, :]))
    named.append(("sine_drift", wave))
    while len(named) < count:
        named.append((f"bernoulli_{len(named)}", _draw(rng, t, rng.uniform(0.0, 1.0, size=k))))
    return named[:count]


# ---------------------------------------------------------------------------
# single-game protocol players: act(rng) -> action,
# update(action, observed_actions, observed_losses, graph=None)


class Hedge:
    """Full-information exponential weights over cumulative losses, one round
    at a time: the per-round reference for `hedge_second_order_bound` and for
    the engine's hedge rows."""

    def __init__(self, num_actions: int, eta: float):
        if num_actions < 1:
            raise ValueError("need at least one action")
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.num_actions = num_actions
        self.eta = eta
        self.cumulative = np.zeros(num_actions)
        self.round = 1

    @property
    def distribution(self) -> np.ndarray:
        return learners.exponential_weights(self.cumulative, self.eta, hedge_terms(self.num_actions))

    def step(self, losses) -> np.ndarray:
        """Accumulate one round of losses and return the next distribution."""
        losses = np.asarray(losses, dtype=float)
        if losses.shape != (self.num_actions,):
            raise ValueError(f"expected {self.num_actions} losses, got {losses.shape}")
        if np.any(losses < 0):
            raise ValueError("losses must be nonnegative")
        self.cumulative = self.cumulative + losses
        self.round += 1
        return self.distribution


class HedgePlayer(Hedge):
    """Hedge as a protocol player; it needs full feedback."""

    def act(self, rng) -> int:
        return learners.sample_index(self.distribution.tolist(), rng.random()) + 1

    def update(self, action, observed_actions, observed_losses, graph=None):
        if len(observed_actions) != self.num_actions:
            raise ValueError(
                "Hedge needs full feedback; got "
                f"{len(observed_actions)} of {self.num_actions} losses"
            )
        losses = np.empty(self.num_actions)
        losses[np.asarray(observed_actions) - 1] = observed_losses
        self.step(losses)


class DoublingExp3G:
    """Informed Exp3G restarted on epochs of length 1, 2, 4, ... (the doubling
    trick). Each restart tunes gamma and eta from the average independence
    number of the graphs revealed so far or, when the round's graph is weakly
    observable, from the average weak domination number over the weakly
    observable rounds; regret accounting runs straight through the restarts.
    Each epoch's learner is built through `learners.Exp3G`, so a test that
    replaces that attribute sees every epoch.
    """

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self.round = 0
        self._alpha_sum = 0.0
        self._delta_sum = 0.0
        self._weak_rounds = 0
        self._learner = None

    def set_round_graph(self, g: FeedbackGraph):
        prof = graph_profile(g)
        weak = prof.graph_class is GraphClass.WEAKLY_OBSERVABLE
        self.round += 1
        self._alpha_sum += prof.alpha
        if weak:
            self._delta_sum += prof.delta
            self._weak_rounds += 1
        if self.round & (self.round - 1) == 0:  # a power of two starts an epoch
            eta, gamma = learners.doubling_rates(
                self.num_actions, self.round, self._alpha_sum, self._delta_sum,
                self._weak_rounds, weak,
            )
            self._learner = learners.Exp3G(
                self.num_actions, eta, gamma, mode=learners.MODE_INFORMED
            )
        self._learner.set_round_graph(g)

    def act(self, rng) -> int:
        return self._learner.act(rng)

    def update(self, action, observed_actions, observed_losses, graph=None):
        self._learner.update(action, observed_actions, observed_losses, graph)


class UniformRandom:
    """Plays uniformly at random and ignores all feedback."""

    def __init__(self, num_actions: int):
        self._dist = [1.0 / num_actions] * num_actions

    def act(self, rng) -> int:
        return learners.sample_index(self._dist, rng.random()) + 1

    def update(self, action, observed_actions, observed_losses, graph=None):
        pass


class ConstantAction:
    """Always plays the same action."""

    def __init__(self, action: int):
        self.action = action

    def act(self, rng) -> int:
        return self.action

    def update(self, action, observed_actions, observed_losses, graph=None):
        pass
