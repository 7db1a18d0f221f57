import math

import numpy as np
import pytest

from graphbandit.graph import (
    FeedbackGraph,
    GraphClass,
    GraphFormatError,
    VertexClass,
    _clique_heads,
    _degree_ordered,
    _mis_size,
    catalog,
    classify_graph,
    independence_number,
    parse_graph,
    predict_rate,
    profile,
    weak_domination_number,
    weakly_observable_set,
)

from oracles import (
    all_maximum_independent_sets,
    all_minimum_dominating_sets,
    brute_force_alpha,
    brute_force_delta,
    classify_vertex,
    format_graph,
    in_neighbors,
    is_independent,
    random_graph,
    reference_independence_number,
    reference_weak_domination_number,
    weakly_observable_vertices,
    weight_ratio_bound,
    weight_ratio_sum,
)


# ---------------------------------------------------------------------------
# construction and neighborhoods


def test_edge_validation():
    with pytest.raises(ValueError):
        FeedbackGraph(3, [(0, 1)])
    with pytest.raises(ValueError):
        FeedbackGraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        FeedbackGraph(0, [])


@pytest.mark.parametrize("bad", [2.9, 3.0, "3", None, True])
def test_vertex_count_must_be_an_integer(bad):
    with pytest.raises(ValueError, match=f"num_vertices must be an integer, got {bad!r}"):
        FeedbackGraph(bad, [])
    # the catalog reads K by the same rule: 2.9 is not a K=2 graph
    with pytest.raises(ValueError, match=f"num_vertices must be an integer, got {bad!r}"):
        catalog("bandit", bad)


@pytest.mark.parametrize("edge", [
    (1.7, 2.9), (1, 2.0), ("1", 2), (1, np.float64(2.0)), (True, 3), (2, True),
])
def test_edge_endpoints_must_be_integers(edge):
    # a float is refused, not truncated to the vertex below it, and a bool
    # is not read as vertex 1
    with pytest.raises(ValueError, match="edge endpoints must be integers") as err:
        FeedbackGraph(3, [(2, 3), edge])
    assert repr(edge[0]) in str(err.value) and repr(edge[1]) in str(err.value)


def test_numpy_integers_are_integers():
    g = FeedbackGraph(np.int64(3), [(np.int32(1), np.uint8(2)), (np.int64(3), 3)])
    assert g.num_vertices == 3 and type(g.num_vertices) is int
    assert g.edges == frozenset({(1, 2), (3, 3)})
    assert g == FeedbackGraph(3, [(1, 2), (3, 3)])


def test_neighborhoods_are_consistent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_graph(rng, 8, 0.3)
        for i in range(1, 9):
            for j in range(1, 9):
                assert (j in g.out_neighbors(i)) == (i in in_neighbors(g, j))
                assert (j in g.out_neighbors(i)) == g.has_edge(i, j)


def _scalar_draw_graph(rng, num_vertices, edge_prob, self_loop_prob=None):
    # one rng.random() per vertex pair, row-major: the stream that seeded
    # tests and the bench corpus were drawn from
    if self_loop_prob is None:
        self_loop_prob = edge_prob
    edges = []
    for u in range(1, num_vertices + 1):
        for v in range(1, num_vertices + 1):
            if rng.random() < (self_loop_prob if u == v else edge_prob):
                edges.append((u, v))
    return FeedbackGraph(num_vertices, edges)


@pytest.mark.parametrize("k", range(1, 13))
def test_random_graph_equals_the_scalar_draw_reference(k):
    probs = (0.0, 0.05, 0.3, 0.5, 0.9, 1.0)
    for seed, (p, q) in enumerate([(p, q) for p in probs for q in probs + (None,)]):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_graph(new, k, p, q) == _scalar_draw_graph(old, k, p, q), (p, q)
        assert new.random() == old.random()  # the generator is left where it was


def test_duplicate_edges_collapse():
    g = FeedbackGraph(2, [(1, 2), (1, 2), (2, 2)])
    assert len(g.edges) == 2


def test_has_edge_and_in_matrix_agree_with_the_edge_set():
    # vertices just outside 1..K are not edges either
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        g = random_graph(rng, k, float(rng.uniform(0, 1)))
        edges = g.edges
        for u in range(-1, k + 3):
            for v in range(-1, k + 3):
                assert g.has_edge(u, v) == ((u, v) in edges)
        want = np.zeros((k, k))
        for u, v in edges:
            want[v - 1, u - 1] = 1.0
        assert np.array_equal(g.in_matrix, want)


# ---------------------------------------------------------------------------
# vertex and graph classification


def test_classify_vertex_full_clique_is_strong():
    g = catalog("full", 5)
    assert classify_vertex(g, 3) is VertexClass.STRONG


def test_classify_vertex_isolated_is_unobservable():
    g = FeedbackGraph(1, [])
    assert classify_vertex(g, 1) is VertexClass.UNOBSERVABLE


def test_classify_vertex_revealing_action_leaf_is_weak():
    g = catalog("revealing_action", 5)
    assert in_neighbors(g, 2) == frozenset({1})
    assert classify_vertex(g, 2) is VertexClass.WEAK


def test_classify_graph_apple_tasting():
    g = catalog("apple_tasting", 2)
    # vertex 1 has a self-loop; vertex 2 is watched by everyone else
    assert classify_graph(g) is GraphClass.STRONGLY_OBSERVABLE


def test_classify_graph_loopless_clique():
    assert classify_graph(catalog("loopless_clique", 5)) is GraphClass.STRONGLY_OBSERVABLE


def test_classify_graph_clique_minus():
    assert classify_graph(catalog("clique_minus", 5)) is GraphClass.WEAKLY_OBSERVABLE


def test_vertex_tags_partition_and_imply_in_edges():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(1, 10)), float(rng.uniform(0, 0.7)))
        for i in range(1, g.num_vertices + 1):
            tag = classify_vertex(g, i)
            if tag in (VertexClass.STRONG, VertexClass.WEAK):
                assert in_neighbors(g, i)
        assert weakly_observable_set(g) == weakly_observable_vertices(g)


def test_classify_vertex_range_check():
    g = catalog("bandit", 3)
    with pytest.raises(ValueError):
        classify_vertex(g, 4)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_bandit_edges():
    assert catalog("bandit", 3).edges == frozenset({(1, 1), (2, 2), (3, 3)})


def test_catalog_apple_tasting_edges():
    assert catalog("apple_tasting", 2).edges == frozenset({(1, 1), (1, 2)})


def test_catalog_refuses_a_loopless_clique_of_one_vertex():
    with pytest.raises(ValueError, match="loopless_clique needs K >= 2"):
        catalog("loopless_clique", 1)


def test_graph_never_equals_another_type():
    g = catalog("bandit", 3)
    assert g.__eq__(3) is NotImplemented
    assert (g == 3) is False and g != 3


def test_catalog_loopy_star_edges():
    g = catalog("loopy_star", 4)
    star = {(1, v) for v in range(1, 5)}
    loops = {(u, u) for u in range(1, 5)}
    assert g.edges == frozenset(star | loops)


def test_catalog_rejects_bad_inputs():
    with pytest.raises(ValueError):
        catalog("apple_tasting", 3)
    with pytest.raises(ValueError):
        catalog("unknown", 4)
    with pytest.raises(ValueError):
        catalog("clique_minus", 2)


CATALOG_CLASSES = {
    "full": GraphClass.STRONGLY_OBSERVABLE,
    "bandit": GraphClass.STRONGLY_OBSERVABLE,
    "loopless_clique": GraphClass.STRONGLY_OBSERVABLE,
    "apple_tasting": GraphClass.STRONGLY_OBSERVABLE,
    "revealing_action": GraphClass.WEAKLY_OBSERVABLE,
    "clique_minus": GraphClass.WEAKLY_OBSERVABLE,
    "loopy_star": GraphClass.STRONGLY_OBSERVABLE,
}


@pytest.mark.parametrize("name,expected", sorted(CATALOG_CLASSES.items()))
def test_catalog_classes(name, expected):
    k = 2 if name == "apple_tasting" else 5
    assert classify_graph(catalog(name, k)) is expected


# ---------------------------------------------------------------------------
# independence number


def test_alpha_bandit_graph():
    alpha, witness = independence_number(catalog("bandit", 5))
    assert alpha == 5 and witness == frozenset(range(1, 6))


def test_alpha_loopless_clique():
    alpha, witness = independence_number(catalog("loopless_clique", 5))
    assert alpha == 1 and witness == frozenset({1})


def test_alpha_loopy_star():
    alpha, witness = independence_number(catalog("loopy_star", 6))
    assert alpha == 5 and witness == frozenset(range(2, 7))


def test_alpha_cap():
    with pytest.raises(ValueError):
        independence_number(catalog("bandit", 41))
    assert independence_number(catalog("bandit", 40))[0] == 40


def _odd_cycle(m):
    n = 2 * m + 1
    return FeedbackGraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


@pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 19])
def test_alpha_of_odd_cycles(m):
    # every vertex has two neighbours and the greedy clique cover has m + 1
    # cliques, so the search has to branch to prove alpha = m
    g = _odd_cycle(m)
    assert _clique_heads(g.symmetric_masks, (1 << g.num_vertices) - 1).bit_count() == m + 1
    assert independence_number(g) == (m, frozenset(range(1, 2 * m, 2)))


@pytest.mark.parametrize("sizes", [(16,), (8, 8), (4,) * 4, (2,) * 8, (1,) * 16, (3, 1, 5, 2, 7)])
def test_alpha_of_disjoint_self_looped_cliques(sizes):
    edges, firsts, start = [], [], 1
    for size in sizes:
        block = range(start, start + size)
        edges += [(u, v) for u in block for v in block]
        firsts.append(start)
        start += size
    g = FeedbackGraph(start - 1, edges)
    assert independence_number(g) == (len(sizes), frozenset(firsts))


@pytest.mark.parametrize("g,alpha,witness", [
    (FeedbackGraph(1, []), 1, {1}),
    (FeedbackGraph(1, [(1, 1)]), 1, {1}),
    (FeedbackGraph(40, []), 40, set(range(1, 41))),
    (catalog("loopless_clique", 40), 1, {1}),
])
def test_alpha_at_the_extremes(g, alpha, witness):
    assert independence_number(g) == (alpha, frozenset(witness))


def _renamed(rng, g):
    """g with its vertices renamed by a seeded permutation."""
    perm = rng.permutation(g.num_vertices) + 1
    return FeedbackGraph(g.num_vertices, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


@pytest.mark.parametrize("g", [
    FeedbackGraph(1, []),
    FeedbackGraph(40, []),
    catalog("loopless_clique", 40),
    catalog("full", 40),
    *(_odd_cycle(m) for m in (1, 2, 5, 13, 19)),
], ids=["K1", "edgeless40", "complete40", "full40", *(f"C{2 * m + 1}" for m in (1, 2, 5, 13, 19))])
def test_size_search_on_the_degree_ordered_copy(g):
    adj = g.symmetric_masks
    ordered = _degree_ordered(adj)
    full = (1 << g.num_vertices) - 1
    assert _mis_size(ordered, full) == _mis_size(adj, full)
    assert sorted(m.bit_count() for m in ordered) == [m.bit_count() for m in ordered]


def test_degree_ordered_copy_is_a_renaming_by_ascending_degree():
    rng = np.random.default_rng(12)
    for k in (1, 2, 7, 12, 33, 40, 64):
        g = random_graph(rng, k, float(rng.uniform(0.05, 0.6)))
        adj = g.symmetric_masks
        order = sorted(range(k), key=lambda v: (adj[v].bit_count(), v))
        new = {v: j for j, v in enumerate(order)}
        expected = [sum(1 << new[u] for u in range(k) if adj[v] >> u & 1) for v in order]
        assert _degree_ordered(adj) == expected


def test_alpha_refuses_more_than_64_vertices(monkeypatch):
    # a perfect matching on 64 vertices uses every bit of the packed rows
    g = FeedbackGraph(64, [(2 * i + 1, 2 * i + 2) for i in range(32)])
    monkeypatch.setattr("graphbandit.graph.ALPHA_EXACT_CAP", 64)
    assert independence_number(g) == (32, frozenset(range(1, 64, 2)))
    monkeypatch.setattr("graphbandit.graph.ALPHA_EXACT_CAP", 100)
    with pytest.raises(ValueError, match="exceeds 64"):
        independence_number(FeedbackGraph(65, []))


@pytest.mark.parametrize("low,high", [(0.05, 0.15), (0.3, 0.6)], ids=["sparse", "dense"])
def test_alpha_equals_the_reference_solver_under_renamings(low, high):
    # the size search sees the vertices by degree whatever their names; the
    # witness is the smallest one in the caller's names
    rng = np.random.default_rng(13)
    for k in range(12, 41, 4):
        g = random_graph(rng, k, float(rng.uniform(low, high)), float(rng.uniform(0, 1)))
        alphas = set()
        for _ in range(3):
            renamed = _renamed(rng, g)
            result = independence_number(renamed)
            assert result == reference_independence_number(renamed)
            alphas.add(result[0])
        assert len(alphas) == 1


def test_alpha_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(1, 13)), float(rng.uniform(0, 0.8)))
        alpha, witness = independence_number(g)
        assert alpha == brute_force_alpha(g)
        assert len(witness) == alpha
        assert is_independent(g, witness)


def test_alpha_witness_is_lexicographically_smallest():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 9)), float(rng.uniform(0.1, 0.7)))
        _, witness = independence_number(g)
        _, optima = all_maximum_independent_sets(g)
        assert tuple(sorted(witness)) == min(optima)


# ---------------------------------------------------------------------------
# weak domination number


def test_delta_zero_when_strongly_observable():
    delta, witness, exact = weak_domination_number(catalog("loopy_star", 6))
    assert (delta, witness, exact) == (0, frozenset(), True)


def test_delta_revealing_action_star():
    delta, witness, exact = weak_domination_number(catalog("revealing_action", 5))
    assert delta == 1 and witness == frozenset({1}) and exact


def test_delta_clique_minus():
    delta, witness, _ = weak_domination_number(catalog("clique_minus", 5))
    assert delta == 1
    # vertex 1 is the only weakly observable vertex; 3 is its smallest dominator
    assert witness == frozenset({3})


def test_delta_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(1, 13)), float(rng.uniform(0, 0.7)))
        delta, witness, exact = weak_domination_number(g)
        assert exact
        assert delta == brute_force_delta(g)
        assert len(witness) == delta
        w = weakly_observable_set(g)
        for v in w:
            assert any(v in g.out_neighbors(d) for d in witness)


def test_delta_witness_is_lexicographically_smallest():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(3, 9)), float(rng.uniform(0.1, 0.6)))
        delta, witness, _ = weak_domination_number(g)
        expected_delta, optima = all_minimum_dominating_sets(g)
        assert delta == expected_delta
        if delta:
            assert tuple(sorted(witness)) == min(optima)


def test_delta_greedy_fallback_bounds(monkeypatch):
    rng = np.random.default_rng(6)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(3, 11)), float(rng.uniform(0.1, 0.6)))
        exact_delta, _, _ = weak_domination_number(g)
        with monkeypatch.context() as m:
            m.setattr("graphbandit.graph.DELTA_EXACT_CAP", 0)
            greedy_delta, greedy_witness, flag = weak_domination_number(g)
        w = weakly_observable_set(g)
        if not w:
            assert greedy_delta == 0
            continue
        assert not flag
        assert exact_delta <= greedy_delta <= exact_delta * (1 + math.log(len(w)))
        for v in w:
            assert any(v in g.out_neighbors(d) for d in greedy_witness)


def test_delta_greedy_cover_equals_the_reference_greedy_cover(monkeypatch):
    # whole tuples past the exact cap: the tie-break (the first max-gain
    # candidate in vertex order) is pinned, not just the size bounds
    rng = np.random.default_rng(11)
    greedy = 0
    for k in range(21, 61):
        for loops in (0.2, 0.8):
            g = random_graph(rng, k, float(rng.uniform(0.03, 0.3)), loops)
            result = weak_domination_number(g)
            assert result == reference_weak_domination_number(g)
            greedy += not result[2]
    assert greedy >= 60
    monkeypatch.setattr("graphbandit.graph.DELTA_EXACT_CAP", 0)
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(1, 13)), float(rng.uniform(0.05, 0.6)),
                         float(rng.uniform(0, 1)))
        result = weak_domination_number(g)
        assert result == reference_weak_domination_number(g, exact_cap=0)
        assert result[2] is not bool(weakly_observable_set(g))


def test_monotonicity_under_edge_addition():
    # adding edges can only shrink independent sets; with every vertex of the
    # smaller graph observable, the weakly observable set can only shrink too,
    # so domination also gets easier (an unobservable vertex gaining its first
    # in-edge would instead create new weak vertices and can raise delta)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        k = int(rng.integers(2, 10))
        g_small = random_graph(rng, k, 0.25)
        extra = [
            (u, v)
            for u in range(1, k + 1)
            for v in range(1, k + 1)
            if rng.random() < 0.2
        ]
        g_big = FeedbackGraph(k, set(g_small.edges) | set(extra))
        assert independence_number(g_big)[0] <= independence_number(g_small)[0]
        if classify_graph(g_small) is not GraphClass.NOT_OBSERVABLE:
            assert weak_domination_number(g_big)[0] <= weak_domination_number(g_small)[0]
            checked += 1


def test_solvers_equal_the_reference_solvers_on_random_graphs():
    # whole tuples, witnesses included, against the subset-enumerating solvers
    rng = np.random.default_rng(8)
    for _ in range(600):
        k = int(rng.integers(1, 19))
        g = random_graph(rng, k, float(rng.uniform(0, 0.9)), float(rng.uniform(0, 1)))
        assert independence_number(g) == reference_independence_number(g)
        assert weak_domination_number(g) == reference_weak_domination_number(g)


@pytest.mark.parametrize("low,high", [(0.05, 0.15), (0.3, 0.6)])
def test_alpha_equals_the_reference_solver_up_to_the_cap(low, high):
    rng = np.random.default_rng(9)
    for k in range(20, 41, 2):
        for _ in range(4):
            g = random_graph(rng, k, float(rng.uniform(low, high)), float(rng.uniform(0, 1)))
            assert independence_number(g) == reference_independence_number(g)


@pytest.mark.parametrize("high,loops", [(0.6, 1.0), (0.2, 0.3)])
def test_delta_equals_the_reference_solver_at_the_exact_cap(high, loops):
    # few self-loops and sparse edges give large weak sets and delta up to 9
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 24:
        g = random_graph(rng, 20, float(rng.uniform(0.05, high)), float(rng.uniform(0, loops)))
        if weakly_observable_set(g):
            assert weak_domination_number(g) == reference_weak_domination_number(g)
            checked += 1


# ---------------------------------------------------------------------------
# profile and rate prediction


def test_profile_fields_consistent():
    prof = profile(catalog("clique_minus", 5))
    assert prof.graph_class is GraphClass.WEAKLY_OBSERVABLE
    assert prof.weak_set == frozenset({1})
    assert prof.alpha == 1 and prof.delta == 1
    assert is_independent(catalog("clique_minus", 5), prof.alpha_witness)


def test_predict_rate_examples():
    strong = predict_rate(profile(catalog("loopless_clique", 5)), 10_000)
    assert strong.value == pytest.approx(100.0)
    weak = predict_rate(profile(catalog("revealing_action", 5)), 10**6)
    assert weak.value == pytest.approx(10**4)
    linear = predict_rate(profile(FeedbackGraph(3, [(2, 2), (3, 3), (2, 3), (3, 2)])), 1000)
    assert linear.formula == "T"
    assert linear.value == pytest.approx(1000.0)


def test_predict_rate_needs_two_actions():
    with pytest.raises(ValueError):
        predict_rate(profile(FeedbackGraph(1, [(1, 1)])), 100)


def test_predict_rate_refuses_horizon_zero():
    with pytest.raises(ValueError, match="horizon must be positive"):
        predict_rate(profile(catalog("bandit", 2)), 0)


# ---------------------------------------------------------------------------
# weighted ratio sum and its bound


def test_weight_ratio_loopless_pair():
    g = catalog("loopless_clique", 2)
    assert weight_ratio_sum(g, [0.5, 0.5], eps=0.25) == pytest.approx(1.0)


def test_weight_ratio_single_self_loop():
    g = FeedbackGraph(1, [(1, 1)])
    assert weight_ratio_sum(g, [0.4], eps=0.3) == pytest.approx(0.5)


def test_weight_ratio_bandit_three():
    g = catalog("bandit", 3)
    assert weight_ratio_sum(g, [1 / 3, 1 / 3, 1 / 3], eps=0.3) == pytest.approx(1.5)


def test_weight_ratio_validation():
    g = catalog("bandit", 2)
    with pytest.raises(ValueError):
        weight_ratio_sum(g, [0.6, 0.6], eps=0.1)  # sum > 1
    with pytest.raises(ValueError):
        weight_ratio_sum(g, [0.05, 0.5], eps=0.1)  # below eps
    with pytest.raises(ValueError):
        weight_ratio_sum(g, [0.4, 0.4], eps=0.6)  # eps out of range


def test_weight_ratio_bound_holds_on_random_instances():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        g = random_graph(rng, k, float(rng.uniform(0, 0.8)))
        eps = float(rng.uniform(0.01, min(0.49, 1.0 / (2 * k))))
        total = float(rng.uniform(k * eps, 1.0))
        extra = rng.dirichlet(np.ones(k)) * (total - k * eps)
        weights = eps + extra
        alpha, _ = independence_number(g)
        lhs = weight_ratio_sum(g, weights, eps=eps)
        assert lhs <= weight_ratio_bound(alpha, k, eps) + 1e-9


# ---------------------------------------------------------------------------
# text format


def test_parse_round_trip():
    g = catalog("clique_minus", 4)
    assert parse_graph(format_graph(g)) == g


def test_parse_comments_blanks_duplicates():
    text = """
    # a comment
    3

    1 2  # trailing note
    1 2
    2 2
    """
    g = parse_graph(text)
    assert g.num_vertices == 3
    assert g.edges == frozenset({(1, 2), (2, 2)})


def test_parse_out_of_range_reports_line():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("2\n1 2\n1 5\n")
    assert err.value.line == 3


def test_parse_malformed_edge_reports_line():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("2\n1 2 3\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text,line,message", [
    ("2 3\n1 2\n", 1, "expected a single vertex count"),
    ("two\n1 2\n", 1, "vertex count 'two' is not an integer"),
    ("# K\n0\n", 2, "vertex count must be >= 1, got 0"),
    ("2\n1 x\n", 2, "edge endpoints must be integers"),
], ids=["two_counts", "word_count", "zero_count", "word_endpoint"])
def test_parse_malformed_line_reports_line(text, line, message):
    with pytest.raises(GraphFormatError, match=f"line {line}: {message}") as err:
        parse_graph(text)
    assert err.value.line == line


def test_parse_empty_is_error():
    with pytest.raises(GraphFormatError):
        parse_graph("# nothing\n")
