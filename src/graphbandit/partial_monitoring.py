"""Encode a feedback graph with binary losses as a loss/feedback matrix pair
and check the matrix-game observability conditions on it.

The environment's actions are all 2^K binary loss assignments, one per
column, enumerated lexicographically by vertex index (vertex 1 is the most
significant bit). The feedback matrix H gives row i the same symbol in two
columns exactly when the losses visible from vertex i agree between them.

Both checks are least-squares membership tests. The global check is one
solve: its matrix (all signal matrices stacked) is shared by every action
pair, so all K(K-1)/2 pairwise loss differences go in as the columns of one
right-hand side. The local check solves once per pair, because each pair
has its own matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

ENCODE_CAP = 12  # 2^K columns; refuse anything bigger
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PMInstance:
    """Loss matrix L (K x 2^K over {0,1}), symbol matrix H (dense integers
    per row), and the per-vertex signal matrices S_i with
    S_i[s, y] = 1 iff H[i, y] = s. Keeps the source graph for edge checks."""

    graph: object
    num_actions: int
    loss_matrix: np.ndarray
    symbol_matrix: np.ndarray
    signal_matrices: tuple

    @property
    def num_columns(self) -> int:
        return self.loss_matrix.shape[1]


def encode(g) -> PMInstance:
    """Build the matrix-game pair for a feedback graph with binary losses.

    Row i's symbol in column y is the number whose bits are the losses of
    i's out-neighbors in y, read in vertex order. Its symbols are therefore
    numbered by first appearance along the columns: the first column that
    shows a given pattern of visible losses is the one with every other
    loss 0, and those columns come in the order of their patterns.
    """
    k = g.num_vertices
    if k > ENCODE_CAP:
        raise ValueError(f"K={k} exceeds the encoding cap {ENCODE_CAP}")
    m = 1 << k
    columns = np.arange(m)
    # L[i, y]: bit of vertex i+1 in assignment y, vertex 1 most significant
    shifts = (k - 1) - np.arange(k)
    loss = ((columns[None, :] >> shifts[:, None]) & 1).astype(np.int64)

    symbols = np.zeros((k, m), dtype=np.int64)
    signals = []
    for i in range(k):
        out_idx = g.out_index[i] - 1
        place = 1 << np.arange(len(out_idx) - 1, -1, -1)
        symbols[i] = place @ loss[out_idx]
        s_i = np.zeros((1 << len(out_idx), m), dtype=np.int64)
        s_i[symbols[i], columns] = 1
        s_i.setflags(write=False)
        signals.append(s_i)
    loss.setflags(write=False)
    symbols.setflags(write=False)
    return PMInstance(g, k, loss, symbols, tuple(signals))


def claim_c1_check(instance: PMInstance, i: int, j: int) -> bool:
    """For an edge (i, j): the symbols of vertex i's row that appear in the
    columns where j's loss is 1 must sum, as signal-matrix rows, to exactly
    j's loss row."""
    if not instance.graph.has_edge(i, j):
        raise ValueError(f"({i}, {j}) is not an edge")
    s_i = instance.signal_matrices[i - 1]
    loss_j = instance.loss_matrix[j - 1]
    chosen = np.unique(instance.symbol_matrix[i - 1][loss_j == 1])
    total = s_i[chosen].sum(axis=0)
    return bool(np.array_equal(total, loss_j))


def _in_row_space(stacked: np.ndarray, targets: np.ndarray, tol: float) -> bool:
    """Least-squares membership test: every row of `targets` lies in the
    span of the rows of `stacked` iff its residual is negligible. One solve
    covers all targets, each a column of the right-hand side, and holds
    vacuously for none. All data are small integers, so the conditioning is
    benign."""
    a = stacked.T.astype(float)
    b = targets.T.astype(float)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return bool(np.linalg.norm(a @ x - b, axis=0).max(initial=0.0) < tol)


def check_global_observability(instance: PMInstance, tol: float = RESIDUAL_TOL) -> bool:
    """Every pairwise loss difference must lie in the combined row space of
    all signal matrices; one solve tests them all."""
    rows_i, rows_j = np.triu_indices(instance.num_actions, 1)
    loss = instance.loss_matrix
    return _in_row_space(np.vstack(instance.signal_matrices), loss[rows_i] - loss[rows_j], tol)


def check_local_observability(instance: PMInstance, tol: float = RESIDUAL_TOL) -> bool:
    """Every pairwise loss difference must lie in the row space spanned by
    that pair's own signal matrices."""
    loss, signals = instance.loss_matrix, instance.signal_matrices
    return all(
        _in_row_space(np.vstack((signals[i], signals[j])), (loss[i] - loss[j])[None], tol)
        for i, j in combinations(range(instance.num_actions), 2)
    )


def signature_families(instance: PMInstance) -> tuple:
    """Per vertex, the partition of columns induced by its symbols; two
    graphs encode identically exactly when these partitions coincide."""
    families = []
    for i in range(instance.num_actions):
        groups = {}
        for y, s in enumerate(instance.symbol_matrix[i]):
            groups.setdefault(int(s), []).append(y)
        families.append(frozenset(frozenset(v) for v in groups.values()))
    return tuple(families)
