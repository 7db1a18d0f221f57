"""Encode a feedback graph with binary losses as a loss/feedback matrix pair
and check the matrix-game observability conditions on it.

The environment's actions are all 2^K binary loss assignments, one per
column, enumerated lexicographically by vertex index (vertex 1 is the most
significant bit). The feedback matrix H gives row i the same symbol in two
columns exactly when the losses visible from vertex i agree between them.

Global and local observability ask whether each pairwise loss difference
L_i - L_j lies in the row space of a set A of signal matrices: all of them
for the global check, the pair's own S_i and S_j for the local one (Bartók,
Foster, Pál, Rakhlin, Szepesvári, "Partial monitoring -- classification,
regret bounds, and algorithms", Math. of OR 2014). Loss row L_i is the
coordinate y_i of the cube {0,1}^K and the rows of S_a span the functions of
the losses a sees, so L_i - L_j is in the span iff L_i and L_j each are, and
L_i is iff some a in A has i among its out-neighbours. Both checks decide
this exactly, from integer certificates checked against H and L alone. Both
are the two extremes of one count per source a and vertex i, the sum over
a's symbol classes s of |2 hits - size| = ||S_a (2 L_i - 1)||_1, with hits
the columns of class s where L_i is 1 and size all its columns. Each term
is at most size, so the count lies in 0..2^K:

- membership: 2^K iff every class lies wholly inside or wholly outside
  L_i's support, which is when the claim-C1 combination v of S_a's rows
  (v[s] = 1 for the symbols s of a that occur where L_i is 1) reproduces L_i;
- non-membership: 0 iff z = 2 L_i - 1 is orthogonal to S_a's rows; if so
  for every a in A, <L_i - L_j, z> = 2^(K-1) != 0 rules the difference out.

So for K >= 2 the verdicts are the graph's class. Pair {i, j} is locally
observable iff i and j each have an in-neighbour among {i, j}. A vertex
with no self-loop that some j does not see fails its pair with j, which is
exactly where strong observability fails: local iff strongly observable.
The global check asks only that every vertex have some in-neighbour:
global iff observable. (At K = 1 there is no pair, and both checks pass
even for a loopless vertex.)

The K x K table of both certificates, per (source, vertex), is computed
once per instance, and so are its columns as one bitmask of sources per
vertex, which both checks read. A vertex for which neither certificate
verifies means H does not encode a feedback graph; the checks then raise
rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

ENCODE_CAP = 12  # 2^K columns; refuse anything bigger


class Certificates(NamedTuple):
    """Per source a (row) and vertex i (column): whether the membership and
    the non-membership certificate of L_i against S_a verify."""

    member: np.ndarray
    orthogonal: np.ndarray


class Witness(NamedTuple):
    """An action pair (i, j), 1-based, whose loss difference is outside the
    span of its source set's signal matrices, and a vertex of the pair that
    no source sees."""

    i: int
    j: int
    unseen: int


@dataclass(frozen=True, eq=False)
class PMInstance:
    """Loss matrix L (K x 2^K over {0,1}) and symbol matrix H (dense
    integers per row). Keeps the source graph for edge checks."""

    graph: object
    loss_matrix: np.ndarray
    symbol_matrix: np.ndarray

    @property
    def num_columns(self) -> int:
        return self.loss_matrix.shape[1]

    @cached_property
    def signal_matrices(self) -> tuple:
        """The per-vertex signal matrices S_i with S_i[s, y] = 1 iff
        H[i, y] = s, built on first use as read-only row blocks of one
        table: S_i holds 2^(|out(i)| + K) entries, 1.5 GB in all for the
        complete graph at K = 12, and no check reads them."""
        symbols = self.symbol_matrix
        ends = np.cumsum(symbols.max(axis=1) + 1)
        starts = np.concatenate(([0], ends[:-1]))
        table = np.zeros((int(ends[-1]), self.num_columns), dtype=np.int64)
        # S_i is rows starts[i] .. ends[i] - 1; its 1 in column y is row H[i, y]
        table[starts[:, None] + symbols, np.arange(self.num_columns)] = 1
        table.setflags(write=False)
        return tuple(np.split(table, ends[:-1]))

    @cached_property
    def certificates(self) -> Certificates:
        """Both certificates for every (source, vertex) pair, from one
        unweighted bincount over the support of each L_i, the (source,
        vertex, column) cells where L_i is 1, and one of the symbol class
        sizes.

        With hits[a, i, s] the number of columns of a's symbol class s
        where L_i is 1 and size[a, s] the class's size, the count
        sum_s |2 hits - size[a, s]| is ||S_a (2 L_i - 1)||_1: v . S_a
        reproduces L_i iff it is 2^K, and 2 L_i - 1 is orthogonal to S_a
        iff it is 0. Both are exact integer identities for any H and any
        0/1 loss matrix, so the combination v is never formed."""
        loss, symbols = self.loss_matrix, self.symbol_matrix
        k = len(loss)
        n = int(symbols.max()) + 1
        rows, cols = np.nonzero(loss)
        # bins[a, c]: the flat index of (a, i, H[a, y]) in a K x K x n table
        # for the c-th cell (i, y) where L_i is 1
        bins = np.arange(k)[:, None] * (k * n) + rows * n + symbols[:, cols]
        hits = np.bincount(bins.ravel(), minlength=k * k * n).reshape(k, k, n)
        sizes = np.bincount((np.arange(k)[:, None] * n + symbols).ravel(),
                            minlength=k * n).reshape(k, 1, n)
        counts = np.abs(2 * hits - sizes).sum(axis=2)
        return Certificates(counts == self.num_columns, counts == 0)

    @cached_property
    def vertex_masks(self) -> tuple:
        """Both certificate tables read by column, once for both checks: per
        vertex i, the bitmask of the sources a (bit a) whose membership,
        then whose non-membership, certificate of L_i verifies."""
        return tuple((table.T @ _BITS[:len(table)]).tolist() for table in self.certificates)


_BITS = 1 << np.arange(63, dtype=np.int64)  # bit a of a source mask


def _loss_table() -> np.ndarray:
    """L for K = ENCODE_CAP, read-only. Row i holds the bit of vertex i+1
    in each column y, vertex 1 most significant: bit b = ENCODE_CAP - i - 1
    of y, which is 1 on the upper half of every block of 2^(b+1) columns.
    Every process that imports the package holds it, so it is filled in
    place as uint8 (48 KB): wider temporaries left about 0.2 MB more in
    each process's peak resident set than the table itself."""
    table = np.zeros((ENCODE_CAP, 1 << ENCODE_CAP), dtype=np.uint8)
    for row, bit in zip(table, range(ENCODE_CAP - 1, -1, -1)):
        row.reshape(-1, 2 << bit)[:, 1 << bit:] = 1
    table.setflags(write=False)
    return table


_LOSS = _loss_table()


def encode(g) -> PMInstance:
    """Build the matrix-game pair for a feedback graph with binary losses.

    Row i's symbol in column y is the number whose bits are the losses of
    i's out-neighbors in y, read in vertex order. Its symbols are therefore
    numbered by first appearance along the columns: the first column that
    shows a given pattern of visible losses is the one with every other
    loss 0, and those columns come in the order of their patterns.

    L is rows of one table: vertex i's bit in y < 2^K is bit K - i of y,
    which is row ENCODE_CAP - K + i - 1 of the table for K = ENCODE_CAP,
    so L is that table's last K rows and first 2^K columns.
    """
    k = g.num_vertices
    if k > ENCODE_CAP:
        raise ValueError(f"K={k} exceeds the encoding cap {ENCODE_CAP}")
    loss = _LOSS[ENCODE_CAP - k:, :1 << k].astype(np.int64)

    # place[i, j] = 2^(number of i's out-neighbors after j) if i sees j, else 0
    sees = (g.in_matrix.T > 0).astype(np.int64)
    place = sees << (np.cumsum(sees[:, ::-1], axis=1)[:, ::-1] - sees)
    symbols = place @ loss
    loss.setflags(write=False)
    symbols.setflags(write=False)
    return PMInstance(g, loss, symbols)


def claim_c1_check(instance: PMInstance, i: int, j: int) -> bool:
    """For an edge (i, j): the symbols of vertex i's row that appear in the
    columns where j's loss is 1 must select rows of S_i that sum exactly to
    j's loss row, i.e. the membership certificate of L_j against S_i."""
    if not instance.graph.has_edge(i, j):
        raise ValueError(f"({i}, {j}) is not an edge")
    return bool(instance.certificates.member[i - 1, j - 1])


def _first_failing_pair(seen: list, blind: list) -> Witness | None:
    """From per-vertex bitmasks whose bit w of entry v says whether the
    sources of the pair {v, w} see vertex v (its membership certificate
    verifies against one of them) or none does (its non-membership
    certificate verifies against all of them): the first pair in
    lexicographic order with an unseen vertex, whose `unseen` is i when i
    is unseen. A vertex v's first such pair is the one with its lowest
    missing partner w, so the answer is the least of K candidates. Raises,
    naming the first (v, w) in row-major order, if neither holds for a
    vertex of some pair."""
    full = (1 << len(seen)) - 1
    candidates = []
    for v, (s, b) in enumerate(zip(seen, blind)):
        partners = full ^ 1 << v
        stuck = partners & ~(s | b)
        if stuck:
            w = (stuck & -stuck).bit_length()
            raise ValueError(
                f"neither certificate verifies for vertex {v + 1} of pair "
                f"({min(v + 1, w)}, {max(v + 1, w)}): H does not encode a feedback graph"
            )
        missing = partners & ~s
        if missing:
            w = (missing & -missing).bit_length()
            candidates.append((min(v + 1, w), max(v + 1, w), v + 1))
    return Witness(*min(candidates)) if candidates else None


def global_witness(instance: PMInstance) -> Witness | None:
    """A pair whose loss difference is outside the combined row space of all
    signal matrices, or None if the game is globally observable."""
    member, orthogonal = instance.vertex_masks
    full = (1 << len(member)) - 1
    # every pair has all K sources: a vertex is seen by the pair if any
    # source sees it, and blind if none does
    return _first_failing_pair(
        [full if m else 0 for m in member],
        [full if o == full else 0 for o in orthogonal],
    )


def local_witness(instance: PMInstance) -> Witness | None:
    """A pair whose loss difference is outside the row space of the pair's
    own two signal matrices, or None if the game is locally observable."""
    member, orthogonal = instance.vertex_masks
    full = (1 << len(member)) - 1
    # vertex v of the pair {v, w} has the sources v and w: seen if v sees
    # itself or w sees it, blind if neither does
    return _first_failing_pair(
        [full if m >> v & 1 else m for v, m in enumerate(member)],
        [o if o >> v & 1 else 0 for v, o in enumerate(orthogonal)],
    )


def check_global_observability(instance: PMInstance) -> bool:
    """Every pairwise loss difference lies in the combined row space of all
    signal matrices."""
    return global_witness(instance) is None


def check_local_observability(instance: PMInstance) -> bool:
    """Every pairwise loss difference lies in the row space spanned by that
    pair's own signal matrices."""
    return local_witness(instance) is None
