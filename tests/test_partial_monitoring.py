from itertools import combinations, permutations

import numpy as np
import pytest

from graphbandit.graph import (
    FeedbackGraph,
    GraphClass,
    catalog,
    classify_graph,
    independence_number,
)
from graphbandit.partial_monitoring import (
    ENCODE_CAP,
    PMInstance,
    check_global_observability,
    check_local_observability,
    claim_c1_check,
    encode,
    global_witness,
    local_witness,
)

from oracles import (
    brute_force_alpha,
    random_graph,
    reference_certificates,
    reference_encode,
    reference_global_observability,
    reference_global_witness,
    reference_local_observability,
    reference_local_witness,
    signature_families,
)


def test_loss_columns_enumerate_all_assignments():
    inst = encode(catalog("bandit", 3))
    columns = {tuple(inst.loss_matrix[:, y]) for y in range(8)}
    assert columns == {tuple((y >> s) & 1 for s in (2, 1, 0)) for y in range(8)}
    assert len(columns) == 8
    # lexicographic by vertex index: vertex 1 is the most significant bit
    assert tuple(inst.loss_matrix[:, 0]) == (0, 0, 0)
    assert tuple(inst.loss_matrix[:, 1]) == (0, 0, 1)
    assert tuple(inst.loss_matrix[:, 4]) == (1, 0, 0)
    # at every K up to the cap, column y is y's bits, vertex 1 most significant
    for k in range(1, ENCODE_CAP + 1):
        loss = encode(catalog("bandit", k)).loss_matrix
        y = np.arange(1 << k)
        assert loss.dtype == np.int64 and not loss.flags.writeable
        assert np.array_equal(loss, (y >> np.arange(k - 1, -1, -1)[:, None]) & 1)


def test_symbol_rows_respect_signatures():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 6)), float(rng.uniform(0, 0.8)))
        inst = encode(g)
        m = inst.num_columns
        for i in range(1, g.num_vertices + 1):
            out = sorted(g.out_neighbors(i))
            for y in range(m):
                for y2 in range(m):
                    same_symbol = inst.symbol_matrix[i - 1, y] == inst.symbol_matrix[i - 1, y2]
                    same_signature = all(
                        inst.loss_matrix[k - 1, y] == inst.loss_matrix[k - 1, y2] for k in out
                    )
                    assert same_symbol == same_signature


def test_apple_tasting_row_two_is_constant():
    inst = encode(catalog("apple_tasting", 2))
    assert len(set(inst.symbol_matrix[1].tolist())) == 1
    assert inst.signal_matrices[1].shape == (1, 4)


def test_full_feedback_rows_have_all_distinct_symbols():
    inst = encode(catalog("full", 2))
    for i in range(2):
        assert len(set(inst.symbol_matrix[i].tolist())) == 4


def test_bandit_rows_have_two_symbols():
    inst = encode(catalog("bandit", 2))
    for i in range(2):
        assert len(set(inst.symbol_matrix[i].tolist())) == 2


def test_signal_matrix_columns_partition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 7)), float(rng.uniform(0, 0.8)))
        inst = encode(g)
        for s in inst.signal_matrices:
            assert np.all(s.sum(axis=0) == 1)


def test_encode_cap():
    with pytest.raises(ValueError):
        encode(catalog("bandit", 13))


# ---------------------------------------------------------------------------
# claim about reconstructing observed loss rows


def test_claim_holds_for_all_catalog_edges():
    for name in ("full", "bandit", "loopless_clique", "apple_tasting", "revealing_action", "clique_minus", "loopy_star"):
        k = 2 if name == "apple_tasting" else 5
        g = catalog(name, k)
        inst = encode(g)
        for u, v in sorted(g.edges):
            assert claim_c1_check(inst, u, v)


def test_claim_bandit_sum_structure():
    g = catalog("bandit", 2)
    inst = encode(g)
    assert claim_c1_check(inst, 1, 1)
    # the chosen symbols are exactly those of the columns where arm 1 loses
    s1 = inst.signal_matrices[0]
    loss1 = inst.loss_matrix[0]
    chosen = np.unique(inst.symbol_matrix[0][loss1 == 1])
    assert np.array_equal(s1[chosen].sum(axis=0), loss1)


def test_claim_requires_edge():
    inst = encode(catalog("bandit", 2))
    with pytest.raises(ValueError):
        claim_c1_check(inst, 1, 2)


def test_claim_fails_on_corrupted_symbols():
    g = catalog("bandit", 2)
    inst = encode(g)
    corrupted = inst.symbol_matrix.copy()
    corrupted[0, 0] = corrupted[0, 3]  # merge two signature classes
    bad = PMInstance(g, inst.loss_matrix, corrupted)
    assert not claim_c1_check(bad, 1, 1)


# ---------------------------------------------------------------------------
# observability checks


def test_full_feedback_globally_and_locally_observable():
    inst = encode(catalog("full", 3))
    assert check_global_observability(inst)
    assert check_local_observability(inst)


def test_unobservable_vertex_breaks_global():
    g = FeedbackGraph(2, [(2, 2)])  # vertex 1 unobservable
    inst = encode(g)
    assert not check_global_observability(inst)


def test_revealing_action_star_not_locally_observable():
    g = catalog("revealing_action", 3)
    inst = encode(g)
    assert check_global_observability(inst)
    assert not check_local_observability(inst)


def test_loopless_clique_locally_observable():
    inst = encode(catalog("loopless_clique", 3))
    assert check_local_observability(inst)


def test_forward_preservation_on_random_graphs():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 7)), float(rng.uniform(0.1, 0.9)))
        cls = classify_graph(g)
        inst = encode(g)
        if cls is GraphClass.STRONGLY_OBSERVABLE:
            assert check_local_observability(inst)
        if cls is not GraphClass.NOT_OBSERVABLE:
            assert check_global_observability(inst)


def _one_mask_per_class(k):
    """One edge-set mask per isomorphism class of digraphs on k vertices
    (loops allowed; bit (u-1)*k + (v-1) is the edge (u, v)): each mask not
    yet seen, after which its k! relabelled images count as seen."""
    masks = np.arange(1 << (k * k))
    images = []
    for perm in permutations(range(k)):
        image = np.zeros_like(masks)
        for u in range(k):
            for v in range(k):
                image |= (masks >> (u * k + v) & 1) << (perm[u] * k + perm[v])
        images.append(image)
    images = np.array(images)
    seen = np.zeros(len(masks), dtype=bool)
    out = []
    for mask in range(len(masks)):
        if not seen[mask]:
            out.append(mask)
            seen[images[:, mask]] = True
    return out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_verdicts_equal_the_class_on_every_small_graph(k):
    # all 2^(K^2) edge sets, self-loops included, at K = 2, 3 (16 + 512
    # graphs); at K = 4 one per isomorphism class (3,044 of 65,536, OEIS
    # A000595), since relabelling keeps the class, the verdicts and alpha.
    # At K = 1 there is no pair to check, so the loopless vertex is the one
    # exception
    want = {
        GraphClass.STRONGLY_OBSERVABLE: (True, True),
        GraphClass.WEAKLY_OBSERVABLE: (False, True),
        GraphClass.NOT_OBSERVABLE: (False, False),
    }
    cells = [(u, v) for u in range(1, k + 1) for v in range(1, k + 1)]
    if k < 4:
        masks = range(1 << len(cells))
    else:
        masks = _one_mask_per_class(k)
        assert len(masks) == 3044
    for mask in masks:
        g = FeedbackGraph(k, [cell for n, cell in enumerate(cells) if mask >> n & 1])
        inst = encode(g)
        verdicts = (check_local_observability(inst), check_global_observability(inst))
        assert verdicts == want[classify_graph(g)], sorted(g.edges)
        assert independence_number(g)[0] == brute_force_alpha(g), sorted(g.edges)


def test_identical_signature_families_encode_identically():
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        g1 = random_graph(rng, k, float(rng.uniform(0.2, 0.8)))
        g2 = random_graph(rng, k, float(rng.uniform(0.2, 0.8)))
        f1 = signature_families(encode(g1))
        f2 = signature_families(encode(g2))
        same_out = all(
            g1.out_neighbors(i) == g2.out_neighbors(i) for i in range(1, k + 1)
        )
        # identical out-neighborhoods force identical encodings; identical
        # encodings mean the graphs are observationally equivalent
        if same_out:
            assert f1 == f2
        if f1 != f2:
            assert not same_out


def test_observational_equivalence_recovers_out_neighborhoods():
    # within K <= 5, distinct out-neighborhoods are observationally distinct
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        g1 = random_graph(rng, k, 0.5)
        g2 = random_graph(rng, k, 0.5)
        f1 = signature_families(encode(g1))
        f2 = signature_families(encode(g2))
        for i in range(1, k + 1):
            if g1.out_neighbors(i) != g2.out_neighbors(i):
                assert f1[i - 1] != f2[i - 1]


# ---------------------------------------------------------------------------
# the vectorised encoding and the one-solve global check against the
# column-by-column, pair-by-pair references


def _criterion_08_graphs():
    """The graph set of acceptance criterion 08."""
    graphs = [
        catalog(name, 2 if name == "apple_tasting" else 5)
        for name in (
            "full", "bandit", "loopless_clique", "apple_tasting",
            "revealing_action", "clique_minus", "loopy_star",
        )
    ]
    rng = np.random.default_rng(808)
    while len(graphs) < 57:
        graphs.append(random_graph(rng, int(rng.integers(2, 7)), float(rng.uniform(0.1, 0.9))))
    return graphs


def _seeded_graphs():
    """210 random graphs, 30 for each K = 1..7, over the whole density range."""
    rng = np.random.default_rng(2015)
    return [
        random_graph(rng, 1 + n % 7, float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, 1.0)))
        for n in range(210)
    ]


def _k8_graph():
    return [random_graph(np.random.default_rng(8), 8, 0.4, 1.0)]


def _k9_graph():
    # every vertex sees itself, so the graph is strongly observable and both
    # checks run through all 36 pairs; sparse enough that the local solves
    # stay small
    return [random_graph(np.random.default_rng(9), 9, 0.4, 1.0)]


def _assert_certificates_equal(inst):
    # hits in {0, size} and 2 hits == size decide what the evaluated
    # combination v . S_a and the z-sums decide
    member, orthogonal = inst.certificates
    expected = reference_certificates(inst)
    assert member.dtype == orthogonal.dtype == bool
    assert np.array_equal(member, expected.member)
    assert np.array_equal(orthogonal, expected.orthogonal)


@pytest.mark.parametrize("graphs", [_criterion_08_graphs, _seeded_graphs, _k8_graph, _k9_graph],
                         ids=["criterion_08", "seeded_k1_to_7", "k8", "k9"])
def test_encoding_and_verdicts_match_reference(graphs):
    verdicts = []
    for g in graphs():
        inst = encode(g)
        loss, symbols, signals = reference_encode(g)
        assert np.array_equal(inst.loss_matrix, loss)
        assert np.array_equal(inst.symbol_matrix, symbols)
        _assert_certificates_equal(inst)
        assert len(inst.signal_matrices) == len(signals)
        for new, old in zip(inst.signal_matrices, signals):
            assert np.array_equal(new, old)
        verdict = (check_global_observability(inst), check_local_observability(inst))
        assert verdict == (
            reference_global_observability(loss, signals),
            reference_local_observability(loss, signals),
        )
        verdicts.append(verdict)
    if len(verdicts) > 1:
        # both verdicts of each check occur, so neither side is constant
        assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {True, False}
    else:
        assert verdicts == [(True, True)]


# ---------------------------------------------------------------------------
# the exact certificates behind both checks


def test_certificate_table_is_the_adjacency_matrix():
    # L_i is a combination of S_a's rows exactly when a sees i, and
    # 2 L_i - 1 is orthogonal to them exactly when it does not
    for g in _seeded_graphs():
        k = g.num_vertices
        member, orthogonal = encode(g).certificates
        adjacency = np.array([[g.has_edge(a, i) for i in range(1, k + 1)]
                              for a in range(1, k + 1)])
        assert np.array_equal(member, adjacency)
        assert np.array_equal(orthogonal, ~adjacency)


def test_certificate_counts_equal_the_reference_table_on_corrupted_symbols():
    # the identities hold for any H and any 0/1 L, not only for the encoding
    # of a graph: merge classes, split them, and overwrite cells with fresh
    # symbols; then also give L a row of zeros, a row of ones and random 0/1
    # cells, so a row's support is not the 2^(K-1) columns of the cube
    rng = np.random.default_rng(1313)
    for g in _seeded_graphs()[::3]:
        inst = encode(g)
        k, m = inst.symbol_matrix.shape
        for _ in range(4):
            corrupted = inst.symbol_matrix.copy()
            cells = rng.integers(0, k * m, size=int(rng.integers(1, k * m + 1)))
            corrupted.flat[cells] = rng.integers(0, int(corrupted.max()) + 3, size=len(cells))
            _assert_certificates_equal(
                PMInstance(g, inst.loss_matrix, corrupted))
            loss = inst.loss_matrix.copy()
            cells = rng.integers(0, k * m, size=int(rng.integers(1, k * m + 1)))
            loss.flat[cells] = rng.integers(0, 2, size=len(cells))
            zero, one = rng.permutation(k)[[0, -1]]
            loss[one] = 1
            loss[zero] = 0  # at K = 1 the same row, which ends with no ones
            _assert_certificates_equal(PMInstance(g, loss, corrupted))
    g = catalog("bandit", 2)
    inst = encode(g)
    corrupted = inst.symbol_matrix.copy()
    corrupted[0, 0] = corrupted[0, 3]  # the corruption of test_claim_fails_on_corrupted_symbols
    _assert_certificates_equal(PMInstance(g, inst.loss_matrix, corrupted))


def _first_pair_with_an_unseen_vertex(g, sources):
    for i, j in combinations(range(1, g.num_vertices + 1), 2):
        for v in (i, j):
            if not any(g.has_edge(a, v) for a in sources(i, j)):
                return (i, j, v)
    return None


def test_witness_is_the_first_pair_with_an_unseen_vertex():
    for g in _seeded_graphs():
        inst = encode(g)
        everyone = range(1, g.num_vertices + 1)
        assert global_witness(inst) == _first_pair_with_an_unseen_vertex(g, lambda i, j: everyone)
        assert local_witness(inst) == _first_pair_with_an_unseen_vertex(g, lambda i, j: (i, j))


def test_seed_313_graph_gets_the_verdicts_of_its_class():
    # the analysis benchmark's matrix-game corpus graph 264 with its vertices
    # renamed by seed 313: a least-squares solve on its stacked signal
    # matrices fails with LAPACK's "SVD did not converge"
    g = FeedbackGraph(7, [
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 1), (2, 5), (2, 6), (3, 1), (3, 2),
        (3, 4), (3, 5), (4, 1), (4, 2), (4, 5), (4, 7), (5, 1), (5, 2), (5, 3), (5, 4),
        (5, 6), (5, 7), (6, 1), (6, 2), (6, 6), (7, 1), (7, 4), (7, 6),
    ])
    inst = encode(g)
    cls = classify_graph(g)
    assert cls is GraphClass.WEAKLY_OBSERVABLE
    assert check_global_observability(inst) == (cls is not GraphClass.NOT_OBSERVABLE)
    assert check_local_observability(inst) == (cls is GraphClass.STRONGLY_OBSERVABLE)


def test_checks_raise_when_neither_certificate_verifies():
    g = catalog("bandit", 2)
    inst = encode(g)
    corrupted = inst.symbol_matrix.copy()
    corrupted[0, 0] = corrupted[0, 3]  # vertex 1's classes no longer fix or free y_1
    bad = PMInstance(g, inst.loss_matrix, corrupted)
    member, orthogonal = bad.certificates
    assert not member[:, 0].any() and not orthogonal[:, 0].all()
    with pytest.raises(ValueError, match="neither certificate verifies for vertex 1"):
        check_global_observability(bad)
    with pytest.raises(ValueError, match="neither certificate verifies for vertex 1"):
        check_local_observability(bad)


# ---------------------------------------------------------------------------
# the bitmask verdicts against the K x K table verdicts they replaced


def _verdict(witness, inst):
    """A check's witness, or the text of the error it raises."""
    try:
        return witness(inst)
    except ValueError as err:
        return str(err)


def test_bitmask_verdicts_equal_the_table_verdicts():
    rng = np.random.default_rng(1515)
    witnesses = set()
    for n in range(200):
        g = random_graph(rng, 1 + n % 7, float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, 1.0)))
        inst = encode(g)
        assert global_witness(inst) == reference_global_witness(inst)
        assert local_witness(inst) == reference_local_witness(inst)
        witnesses.add(global_witness(inst))
        witnesses.add(local_witness(inst))
    # None, witnesses whose unseen vertex is i and ones whose unseen is j
    assert None in witnesses
    assert {w.unseen == w.i for w in witnesses if w is not None} == {True, False}


def test_bitmask_verdicts_equal_the_table_verdicts_on_corrupted_symbols():
    # overwrite cells of H until some vertices get neither certificate: the
    # first stuck (v, w) in row-major order and the error text must agree
    rng = np.random.default_rng(1516)
    stuck_counts = []
    for n in range(200):
        g = random_graph(rng, 2 + n % 6, float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, 1.0)))
        inst = encode(g)
        k, m = inst.symbol_matrix.shape
        corrupted = inst.symbol_matrix.copy()
        cells = rng.integers(0, k * m, size=int(rng.integers(1, k * m // 2 + 2)))
        corrupted.flat[cells] = rng.integers(0, int(corrupted.max()) + 3, size=len(cells))
        bad = PMInstance(g, inst.loss_matrix, corrupted)
        for check, reference in ((global_witness, reference_global_witness),
                                 (local_witness, reference_local_witness)):
            assert _verdict(check, bad) == _verdict(reference, bad)
        member, orthogonal = bad.certificates
        stuck_counts.append(int((~member.any(axis=0) & ~orthogonal.all(axis=0)).sum()))
    assert max(stuck_counts) >= 3
    assert sum(c >= 2 for c in stuck_counts) >= 20
