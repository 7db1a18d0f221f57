import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphbandit
from graphbandit.graph import FeedbackGraph, GraphClass, catalog, profile
from graphbandit.learners import (
    Exp3G,
    doubling_rates,
    exploration_terms,
    exploration_vector,
    exponential_weights,
    importance_weighted_estimates,
    preset_loopless_clique,
    preset_strong,
    preset_uninformed,
    preset_weak,
    sample_index,
)

from oracles import (
    hedge_distribution_highprec,
    hedge_second_order_bound,
    hedge_terms,
    random_distribution,
    random_graph,
)


def full_feedback(g, action, row):
    """`Exp3G.update`'s arguments for a round on graph g: the action, its
    out-neighborhood and the losses there."""
    obs = sorted(g.out_neighbors(action))
    return action, obs, [row[v - 1] for v in obs]


# ---------------------------------------------------------------------------
# Hedge: exponential weights over cumulative losses


def test_hedge_first_step_example():
    q = exponential_weights(np.array([0.0, math.log(2.0)]), eta=1.0, terms=hedge_terms(2))
    assert np.allclose(q, [2 / 3, 1 / 3], atol=1e-12)


def test_hedge_equal_losses_stay_uniform():
    losses = np.repeat([[0.3], [1.0], [0.0], [2.5]], 5, axis=1)
    for q in exponential_weights(np.cumsum(losses, axis=0), 0.7, hedge_terms(5)):
        assert np.allclose(q, 0.2, atol=1e-12)


def test_hedge_rejects_negative_losses():
    with pytest.raises(ValueError, match="nonnegative"):
        hedge_second_order_bound([[0.1, -0.2, 0.3]], eta=1.0)


def test_hedge_matches_direct_recomputation():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(2, 8))
        eta = float(rng.uniform(0.05, 2.0))
        losses = rng.uniform(0, 3.0, size=(20, k))
        dists = exponential_weights(np.cumsum(losses, axis=0), eta, hedge_terms(k))
        for t in range(20):
            direct = np.exp(-eta * losses[: t + 1].sum(axis=0))
            direct /= direct.sum()
            assert np.allclose(dists[t], direct, atol=1e-10)


def test_hedge_matches_high_precision_reference():
    rng = np.random.default_rng(1)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        eta = float(rng.uniform(0.1, 1.5))
        losses = rng.uniform(0, 5.0, size=(15, k))
        q = exponential_weights(np.cumsum(losses, axis=0), eta, hedge_terms(k))[-1]
        expected = hedge_distribution_highprec(losses, eta, 15)
        assert np.allclose(q, expected, atol=1e-12)


def test_exponential_weights_shift_invariance():
    # adding a constant to the cumulative losses must not move the distribution
    rng = np.random.default_rng(2)
    cum = rng.uniform(0, 50, size=8)
    for c in (-3.0, 0.0, 17.5, 400.0):
        assert np.allclose(
            exponential_weights(cum, 0.3, hedge_terms(8)),
            exponential_weights(cum + c, 0.3, hedge_terms(8)),
            atol=1e-12,
        )


def test_exponential_weights_survives_huge_cumulatives():
    cum = np.array([0.0, 5_000.0, 10_000.0])
    q = exponential_weights(cum, 1.0, hedge_terms(3))
    assert q[0] == pytest.approx(1.0)
    assert np.isfinite(q).all() and q.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("k", [2, 5, 10, 40])
@pytest.mark.parametrize("rows", [1, 7, 64])
def test_buffered_row_functions_equal_allocating_calls(rows, k):
    # cumulative rows reach 1e9, the |U| T / gamma scale at T = 2^18; the
    # weights' out= calls (the engine's) give the allocating call's bits, and
    # so do rates spread to R x K arrays, as the engine passes them; the draw
    # and the estimate take only the engine's buffered form
    rng = np.random.default_rng(1000 * rows + k)
    cum = rng.random((rows, k)) * 10.0 ** rng.integers(0, 10, size=(rows, 1))
    eta = 10.0 ** rng.uniform(-6, 0, size=(rows, 1))
    gamma = rng.uniform(0.01, 0.5, size=(rows, 1))
    u = np.stack([
        exploration_vector(k, 1 + rng.choice(k, size=rng.integers(1, k + 1), replace=False))
        for _ in range(rows)
    ])
    eta_rows, gamma_rows = np.repeat(eta, k, axis=1), np.repeat(gamma, k, axis=1)

    def junk():
        return np.full((rows, k), 7.0)

    q = exponential_weights(cum, eta, hedge_terms(k))
    out = junk()
    assert exponential_weights(cum, eta_rows, hedge_terms(k), out=out) is out
    assert np.array_equal(out, q)

    p = exponential_weights(cum, eta, exploration_terms(gamma, u))
    out = junk()
    terms = exploration_terms(gamma_rows, u)
    assert exponential_weights(cum, eta_rows, terms, out=out) is out
    assert np.array_equal(out, p)
    assert np.isfinite(p).all() and (p >= 0).all()
    assert np.abs(np.add.reduce(p, axis=1) - 1.0).max() <= 1e-12

    drawn = np.full(rows, -1, dtype=np.intp)
    assert sample_index(p, rng.random((rows, 1)), out=drawn) is drawn
    assert ((drawn >= 0) & (drawn < k)).all()

    # self-loops, so each drawn action's observed set has positive probability
    in_matrix = random_graph(rng, k, 0.4, self_loop_prob=1.0).in_matrix
    observed = in_matrix.T[drawn] > 0
    losses = (rng.integers(0, 3, size=(rows, k)) / 2).astype(np.float16)
    est, updated = junk(), np.zeros((rows, k))  # est: zero-filled where not observed
    with np.errstate(divide="raise", invalid="raise"):
        assert importance_weighted_estimates(
            in_matrix, p, observed, losses, updated, out=est) is updated
    assert np.isfinite(est).all() and (est[~observed] == 0).all()
    assert np.array_equal(updated, est)


@pytest.mark.parametrize("loss", [0.3, 0.0])
def test_one_row_list_estimates_raise_the_same_error(loss):
    # Python raises ZeroDivisionError for x/0 and 0/0 alike; the list form
    # turns it into the array forms' RuntimeError, naming the vertex
    g = FeedbackGraph(2, [(1, 2), (2, 2)])
    with pytest.raises(RuntimeError, match=r"observed actions \[1\] have zero") as caught:
        importance_weighted_estimates(g.in_matrix, [0.5, 0.5], [0], [loss, 0.0], [0.0, 0.0])
    assert caught.value.__suppress_context__
    assert importance_weighted_estimates(
        g.in_matrix, [0.5, 0.5], [1], [loss, 0.5], [0.0, 0.0]) == [0.0, 0.5]


@pytest.mark.parametrize("loss", [0.3, 0.0])
def test_estimates_zero_probability_raises_without_a_warning(loss):
    # vertex 1 has no in-edges; a loss of 0 there would be 0/0. The one-row
    # form raises before any warning, under numpy's default errstate
    g = FeedbackGraph(2, [(1, 2), (2, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="zero observation probability"):
            importance_weighted_estimates(g.in_matrix, [0.5, 0.5], [0], [loss, 0.0], [0.0, 0.0])


def test_estimates_zero_probability_on_observed_set_raises():
    # rows with a graph each: only the row whose observed vertex has no
    # in-edges is named, by its 1-based vertex
    g = FeedbackGraph(2, [(1, 2), (2, 2)])  # vertex 1 has no in-edges
    full = FeedbackGraph(2, [(1, 1), (1, 2), (2, 1), (2, 2)])
    in_matrices = np.stack([full.in_matrix, g.in_matrix])
    with np.errstate(divide="raise", invalid="raise"):
        with pytest.raises(RuntimeError, match=r"observed actions \[1\] have zero"):
            importance_weighted_estimates(
                in_matrices, np.full((2, 2), 0.5), np.array([[True, True], [True, False]]),
                np.array([[0.3, 0.0], [0.3, 0.0]]), np.zeros((2, 2)), out=np.empty((2, 2)),
            )


def test_estimates_zero_probability_off_the_observed_set_is_no_error():
    # vertex 1 has no in-edges but is not observed: the masked divide never
    # touches it, so no flag is set even when numpy raises on every flag
    g = FeedbackGraph(2, [(1, 2), (2, 2)])
    p = np.array([[0.5, 0.5]])
    observed = np.array([[False, True]])
    losses = np.array([[0.3, 0.5]])
    expected = [0.0, 0.5 / (p @ g.in_matrix.T)[0, 1]]
    out = np.full((1, 2), 7.0)
    with np.errstate(all="raise"):
        importance_weighted_estimates(g.in_matrix, p, observed, losses, np.zeros((1, 2)), out=out)
    assert out.tolist() == [expected]


@pytest.mark.parametrize("loss", [0.3, 0.0])
def test_buffered_estimates_raise_from_the_divide_flags(loss):
    # the engine's form: buffers, under the errstate it enters once per
    # batch; vertex 1 has no in-edges, and a loss of 0 there would be 0/0
    g = FeedbackGraph(2, [(1, 2), (2, 2)])
    before = np.geterr()
    with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"observed actions \[1\] have zero"):
            importance_weighted_estimates(
                g.in_matrix, np.array([[0.5, 0.5]]), np.array([[True, False]]),
                np.array([[loss, 0.0]]), np.zeros((1, 2)), out=np.empty((1, 2)),
            )
    assert np.geterr() == before


def _hex(values) -> list:
    return [float(x).hex() for x in np.ravel(values)]


# vertex 3 has no in-edges, so P(3) = 0 under any p; vertices 1 and 2 have
# in-edges from vertex 1, so P > 0 on them under a p with p(1) > 0
UPDATE_GRAPH = FeedbackGraph(3, [(1, 1), (1, 2), (2, 2), (3, 1)])


def _update(cumulative, p, observed, losses):
    """One update in the form `cumulative` takes: a list is one row with
    0-based observed vertices, an array R x K rows with a boolean mask."""
    if isinstance(cumulative, list):
        return importance_weighted_estimates(
            UPDATE_GRAPH.in_matrix, p, observed, losses, cumulative)
    with np.errstate(divide="raise", invalid="raise"):
        return importance_weighted_estimates(
            UPDATE_GRAPH.in_matrix, p, observed, losses, cumulative,
            out=np.empty(cumulative.shape))


@pytest.mark.parametrize("form", ["list", "rows"])
def test_update_adds_into_the_cumulative_and_returns_it(form):
    # the update returns the cumulative it was given, with each observed
    # entry moved by its estimate and every other entry's bits kept
    rng = np.random.default_rng(31)
    cum = rng.random((4, 3)) * 100.0
    cum[0, 2] = 5e-324  # a subnormal keeps its bits too
    p = np.array([random_distribution(rng, 3) for _ in range(4)])
    losses = np.array([[0.5, 1.0, 0.25]] * 4)
    observed = np.array([[True, True, False], [False, True, False],
                         [True, False, False], [False, False, False]])
    est = np.divide(losses, p @ UPDATE_GRAPH.in_matrix.T, where=observed, out=np.zeros((4, 3)))
    if form == "list":
        for r in range(4):
            row = cum[r].tolist()
            seen = np.flatnonzero(observed[r]).tolist()
            assert _update(row, p[r].tolist(), seen, losses[r].tolist()) is row
            assert _hex([row[i] for i in range(3) if i not in seen]) == _hex(cum[r][~observed[r]])
            assert [row[i] - cum[r, i] for i in seen] == pytest.approx(est[r, seen].tolist())
        return
    updated = cum.copy()
    assert _update(updated, p, observed, losses) is updated
    assert _hex(updated[~observed]) == _hex(cum[~observed])
    assert (updated - cum)[observed].tolist() == pytest.approx(est[observed].tolist())


@pytest.mark.parametrize("loss", [0.3, 0.0])
@pytest.mark.parametrize("form", ["list", "rows"])
def test_update_raises_before_the_cumulative_changes(form, loss):
    # one row observes vertex 1 (P > 0) and then vertex 3 (P = 0): the
    # estimate of vertex 1 is computed first, yet no entry moves; R rows
    # raise on the row that observes vertex 3
    cum = [[0.75, 2.5, 1e9], [3.0, 0.125, 7.0]]
    p = [[0.25, 0.25, 0.5], [0.5, 0.25, 0.25]]
    losses = [[0.5, 1.0, loss], [0.5, 1.0, loss]]
    if form == "list":
        args = (cum[0], p[0], [0, 2], losses[0])
    else:
        cum = np.array(cum)
        args = (cum, np.array(p), np.array([[True, True, False], [True, False, True]]),
                np.array(losses))
    before = _hex(cum)
    with pytest.raises(RuntimeError, match=r"observed actions \[3\] have zero"):
        _update(*args)
    assert _hex(cum) == before


def _buffered_estimates(in_matrix, p, observed, losses, cumulative=None):
    """The update rows as the engine takes them: into a buffer, under the
    errstate it enters once per batch; added to zero, they are the
    estimates."""
    cumulative = np.zeros(p.shape) if cumulative is None else cumulative.copy()
    with np.errstate(divide="raise", invalid="raise"):
        return importance_weighted_estimates(
            in_matrix, p, observed, losses, cumulative, out=np.empty(p.shape))


# 32 rows is a sweep's width, at which a BLAS product over all rows rounded
# most fixed-graph estimate rows otherwise than their one-row calls
ROW_CASES = [(6, k) for k in (2, 5, 7, 8, 9, 10, 16, 40)] + [(32, k) for k in (5, 10, 40)]


@pytest.mark.parametrize("rows,k", ROW_CASES, ids=[
    str(k) if rows == 6 else f"R{rows}-{k}" for rows, k in ROW_CASES
])
def test_one_row_calls_equal_their_row_of_the_batch(rows, k):
    # one row reduces to scalars and draws by searchsorted; R rows reduce
    # along the action axis and draw by counting. K on both sides of numpy's
    # 8-way pairwise-sum unroll; cumulative rows up to 1e9 as in the engine
    rng = np.random.default_rng(k if rows == 6 else 1000 * rows + k)
    cum = rng.random((rows, k)) * 10.0 ** rng.integers(0, 10, size=(rows, 1))
    eta = np.repeat(10.0 ** rng.uniform(-6, 0, size=(rows, 1)), k, axis=1)
    gamma = np.repeat(rng.uniform(0.01, 0.5, size=(rows, 1)), k, axis=1)
    u = np.stack([
        exploration_vector(k, 1 + rng.choice(k, size=rng.integers(1, k + 1), replace=False))
        for _ in range(rows)
    ])
    uniforms = rng.random(rows)
    in_matrix = random_graph(rng, k, 0.4, self_loop_prob=1.0).in_matrix
    in_matrices = np.stack([
        random_graph(rng, k, 0.4, self_loop_prob=1.0).in_matrix for _ in range(rows)
    ])
    losses = (rng.integers(0, 3, size=(rows, k)) / 2).astype(np.float16)

    q = exponential_weights(cum, eta, hedge_terms(k))
    p = exponential_weights(cum, eta, exploration_terms(gamma, u))
    drawn = sample_index(p, uniforms[:, None], out=np.empty(rows, dtype=np.intp))
    observed = in_matrix.T[drawn] > 0
    observed_seq = np.transpose(in_matrices, (0, 2, 1))[np.arange(rows), drawn] > 0
    est = _buffered_estimates(in_matrix, p, observed, losses)
    est_seq = _buffered_estimates(in_matrices, p, observed_seq, losses)
    updated = _buffered_estimates(in_matrix, p, observed, losses, cum)
    for r in range(rows):
        one = slice(r, r + 1)
        assert _hex(exponential_weights(cum[one], eta[one], hedge_terms(k))) == _hex(q[r])
        assert _hex(exponential_weights(cum[r], eta[r], hedge_terms(k))) == _hex(q[r])
        out = np.empty((1, k))
        assert exponential_weights(cum[one], eta[one], hedge_terms(k), out=out) is out
        assert _hex(out) == _hex(q[r])
        terms = exploration_terms(gamma[one], u[one])
        assert _hex(exponential_weights(cum[one], eta[one], terms, out=out)) == _hex(p[r])
        idx = np.full(1, -1, dtype=np.intp)
        assert sample_index(p[one], uniforms[one, None], out=idx) is idx
        assert idx.tolist() == [drawn[r]]
        # a fixed graph's estimate row does not depend on the rows beside it,
        # nor on whether the graph comes as a one-entry sequence
        for mat in (in_matrix, in_matrix[None]):
            assert _hex(_buffered_estimates(
                mat, p[one], observed[one], losses[one])) == _hex(est[r])
        assert _hex(_buffered_estimates(
            in_matrices[one], p[one], observed_seq[one], losses[one])) == _hex(est_seq[r])
        # the list form: the row's state as Python floats, observed vertices
        # as 0-based indices
        cum_r, eta_r, row_losses = cum[r].tolist(), float(eta[r, 0]), losses[r].tolist()
        q_r = exponential_weights(cum_r, eta_r, hedge_terms(k))
        assert type(q_r) is list and _hex(q_r) == _hex(q[r])
        keep, explore = exploration_terms(float(gamma[r, 0]), u[r])
        p_r = exponential_weights(cum_r, eta_r, (keep, explore.tolist()))
        assert type(p_r) is list and _hex(p_r) == _hex(p[r])
        assert sample_index(p_r, float(uniforms[r])) == drawn[r]
        seen = np.flatnonzero(observed[r]).tolist()
        est_r = importance_weighted_estimates(in_matrix, p_r, seen, row_losses, [0.0] * k)
        assert type(est_r) is list and _hex(est_r) == _hex(est[r])
        assert _hex(importance_weighted_estimates(
            in_matrix, p_r, seen, row_losses, cum_r)) == _hex(updated[r])
        seen = np.flatnonzero(observed_seq[r]).tolist()
        assert _hex(importance_weighted_estimates(
            in_matrices[r], p_r, seen, row_losses, [0.0] * k)) == _hex(est_seq[r])

    # a CDF that rounds below 1, and a uniform above its last compared entry
    # and above its total: both forms put the draw on the last action
    dist = np.full((2, k), 1.0 / k) * (1.0 - 2.0**-40)
    cdf = np.cumsum(dist[0])
    top = np.nextafter(1.0, 0.0)
    assert cdf[-1] < top and cdf[-2] < top
    idx = np.empty(2, dtype=np.intp)
    assert sample_index(dist, np.full((2, 1), top), out=idx).tolist() == [k - 1, k - 1]
    assert sample_index(dist[:1], np.full((1, 1), top), out=idx[:1]).tolist() == [k - 1]
    assert sample_index(dist[0].tolist(), top) == k - 1


def _counted_draws(dist, u):
    """The multi-row draw as first written: per row, the number of CDF
    entries, the last one left out, at or below its uniform."""
    cdf = np.add.accumulate(dist, axis=-1)[:, :-1]
    return np.add.reduce(cdf <= u[:, None], axis=-1, dtype=np.intp)


@pytest.mark.parametrize("k", [1, 2, 5, 9, 40])
def test_multi_row_draw_equals_the_count(k):
    # the first CDF entry above the uniform, the last one set to +inf, is
    # the count of those at or below it on any nondecreasing CDF
    rng = np.random.default_rng(700 + k)
    for rows in range(2, 65):
        dist = rng.random((rows, k)) ** 4
        dist[rng.random((rows, k)) < 0.2] = 0.0  # repeated CDF entries
        dist[np.add.reduce(dist, axis=1) == 0, 0] = 1.0
        dist /= np.add.reduce(dist, axis=1, keepdims=True)
        dist[0] = np.full(k, 1.0 / k) * (1.0 - 2.0**-40)  # a CDF that rounds below 1
        cdf = np.add.accumulate(dist, axis=-1)
        u = rng.random(rows)
        ties = rng.random(rows) < 0.5  # uniforms exactly on a CDF entry
        u[ties] = cdf[ties, rng.integers(0, k, size=int(ties.sum()))]
        u[0] = np.nextafter(1.0, 0.0)
        u[1] = 0.0
        expected = _counted_draws(dist, u)
        out = np.full(rows, -1, dtype=np.intp)
        assert sample_index(dist, u[:, None], out=out) is out
        assert out.tolist() == expected.tolist()
        assert expected[0] == k - 1


@pytest.mark.parametrize("k", range(2, 41))
def test_one_row_draw_equals_accumulate_searchsorted(k):
    # a float uniform draws one row by bisecting Python's running sum: the
    # same index as searchsorted(side="right") over numpy's sequential sum
    # without its last entry, and as that row of an R-row draw
    rng = np.random.default_rng(900 + k)
    rows = 24
    dist = rng.random((rows, k)) ** 4
    dist[rng.random((rows, k)) < 0.2] = 0.0  # repeated CDF entries
    dist[np.add.reduce(dist, axis=1) == 0, 0] = 1.0
    dist /= np.add.reduce(dist, axis=1, keepdims=True)
    dist[0] = np.full(k, 1.0 / k) * (1.0 - 2.0**-40)  # a CDF that rounds below 1
    cdf = np.add.accumulate(dist, axis=-1)
    u = rng.random(rows)
    ties = np.arange(rows) % 2 == 1  # uniforms exactly on a partial sum
    u[ties] = cdf[ties, rng.integers(0, k - 1, size=int(ties.sum()))]
    u[0] = np.nextafter(1.0, 0.0)
    assert cdf[0, -1] < u[0]
    drawn = sample_index(dist, u[:, None], out=np.empty(rows, dtype=np.intp))
    for r in range(rows):
        x = float(u[r])
        expected = int(np.add.accumulate(dist[r])[:-1].searchsorted(x, side="right"))
        one = sample_index(dist[r].tolist(), x)
        assert type(one) is int and one == expected == drawn[r]
        out = np.full(1, -1, dtype=np.intp)
        assert sample_index(dist[r:r + 1], u[r:r + 1, None], out=out).tolist() == [expected]
    assert drawn[0] == k - 1


# ---------------------------------------------------------------------------
# second-order bound


def test_second_order_trivial_instance():
    lhs, rhs = hedge_second_order_bound(np.zeros((1, 2)), eta=1.0)
    assert lhs == pytest.approx(0.0)
    assert rhs == pytest.approx(math.log(2.0))


def test_second_order_bound_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 11))
        horizon = int(rng.integers(1, 51))
        eta = float(rng.uniform(0.05, 1.5))
        losses = rng.uniform(0, 2.0 / eta, size=(horizon, k))
        subsets = [
            tuple(i + 1 for i in range(k) if losses[t, i] <= 1.0 / eta and rng.random() < 0.7)
            for t in range(horizon)
        ]
        lhs, rhs = hedge_second_order_bound(losses, eta, subsets)
        assert lhs <= rhs + 1e-9


def test_second_order_bound_is_pinned():
    # criterion 02's second instance (K=9, T=45, losses up to 2/eta); the
    # values were recorded from a round-by-round Hedge loop
    rng = np.random.default_rng(202)
    for _ in range(2):
        k = int(rng.integers(2, 11))
        horizon = int(rng.integers(1, 51))
        eta = float(rng.uniform(0.05, 1.5))
        scale = float(rng.choice([0.5, 1.0, 2.0]))
        losses = rng.uniform(0.0, scale / eta, size=(horizon, k))
        subsets = [
            tuple(i + 1 for i in range(k) if losses[t, i] <= 1.0 / eta and rng.random() < 0.7)
            for t in range(horizon)
        ]
    assert (k, horizon) == (9, 45)
    assert hedge_second_order_bound(losses, eta, subsets) == (7.567938131766105, 75.18119151996784)


def test_second_order_refined_below_standard():
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        horizon = int(rng.integers(1, 30))
        eta = float(rng.uniform(0.1, 1.0))
        losses = rng.uniform(0, 1.0 / eta, size=(horizon, k))
        all_in = [tuple(range(1, k + 1))] * horizon
        lhs_r, rhs_refined = hedge_second_order_bound(losses, eta, all_in)
        lhs_s, rhs_standard = hedge_second_order_bound(losses, eta)
        assert lhs_r == pytest.approx(lhs_s)
        assert rhs_refined <= rhs_standard + 1e-12


def test_second_order_subset_precondition_enforced():
    losses = np.array([[0.5, 3.0]])
    with pytest.raises(ValueError):
        hedge_second_order_bound(losses, eta=1.0, subsets=[(2,)])


BOUND_REFUSALS = {
    "one_dim_losses": (dict(losses=[0.5, 0.5]), "T x K array"),
    "eta_zero": (dict(eta=0.0), "eta must be positive"),
    # NaN once passed `eta <= 0` and returned lhs = rhs = nan
    "eta_nan": (dict(eta=float("nan")), "eta must be positive"),
    "eta_inf": (dict(eta=float("inf")), "eta must be positive"),
    "one_subset_for_two_rounds": (dict(subsets=[()]), "one subset per round"),
    "subset_member_past_k": (dict(subsets=[(3,), ()]), "subset member 3 out of range"),
    "comparator_past_k": (dict(comparator=3), "comparator 3 out of range"),
}


@pytest.mark.parametrize("case", sorted(BOUND_REFUSALS))
def test_second_order_bound_refusals(case):
    args, match = BOUND_REFUSALS[case]
    with pytest.raises(ValueError, match=match):
        hedge_second_order_bound(**{"losses": [[0.5, 0.0], [0.0, 0.5]], "eta": 0.5, **args})


def test_second_order_comparator():
    losses = np.array([[1.0, 0.0], [1.0, 0.0]])
    lhs_best, _ = hedge_second_order_bound(losses, eta=0.5)
    lhs_worse, _ = hedge_second_order_bound(losses, eta=0.5, comparator=1)
    assert lhs_best > lhs_worse


# ---------------------------------------------------------------------------
# estimator


def test_estimates_full_feedback_are_exact():
    g = catalog("full", 4)
    row = [0.5, 0.1, 0.9, 0.0]
    est = importance_weighted_estimates(
        g.in_matrix, [0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3], row, [0.0] * 4)
    assert np.allclose(est, row, atol=1e-15)


def test_estimates_bandit_pair_example():
    g = catalog("bandit", 2)
    # only the observed entry of the loss row is read
    est = importance_weighted_estimates(g.in_matrix, [0.5, 0.5], [0], [0.5, 0.7], [0.0, 0.0])
    assert est == [1.0, 0.0]


def test_estimates_unbiased_by_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        g = random_graph(rng, k, float(rng.uniform(0.2, 0.8)))
        p = random_distribution(rng, k)
        row = rng.uniform(0, 1, size=k)
        expectation = np.zeros(k)
        for j in range(1, k + 1):
            observed = np.flatnonzero(g.in_matrix[:, j - 1]).tolist()  # j's out-neighborhood
            expectation += p[j - 1] * np.array(importance_weighted_estimates(
                g.in_matrix, p.tolist(), observed, row.tolist(), [0.0] * k))
        prob = g.in_matrix @ p
        for i in range(k):
            if prob[i] > 0:
                assert abs(expectation[i] - row[i]) < 1e-12


# ---------------------------------------------------------------------------
# Exp3G mechanics


def test_exp3g_point_mass_exploration():
    g = catalog("bandit", 3)
    learner = Exp3G(3, eta=0.1, gamma=1.0, exploration_set=(1,), graph=g)
    rng = np.random.default_rng(6)
    assert all(learner.act(rng) == 1 for _ in range(50))


def test_exp3g_zero_gamma_samples_q():
    g = catalog("full", 4)
    learner = Exp3G(4, eta=0.1, gamma=0.0, graph=g)
    rng = np.random.default_rng(7)
    n = 100_000
    counts = np.bincount([learner.act(rng) - 1 for _ in range(n)], minlength=4)
    # each arm has mean n/4 and std sqrt(n * 3/16)
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) <= 3 * sigma)


def test_exp3g_seeded_determinism():
    g = catalog("loopy_star", 5)
    rows = np.random.default_rng(1).uniform(0, 1, size=(40, 5))

    def play(seed):
        learner = Exp3G(5, eta=0.05, gamma=0.1, graph=g)
        rng = np.random.default_rng(seed)
        actions = []
        for t in range(40):
            a = learner.act(rng)
            actions.append(a)
            learner.update(*full_feedback(g, a, rows[t]))
        return actions

    assert play(123) == play(123)
    assert play(123) != play(124)


def test_exp3g_probability_invariants():
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 9))
        g = random_graph(rng, k, float(rng.uniform(0.3, 0.9)))
        gamma = float(rng.uniform(0.01, 0.9))
        u_set = tuple(
            sorted(rng.choice(np.arange(1, k + 1), size=int(rng.integers(1, k + 1)), replace=False))
        )
        learner = Exp3G(k, eta=0.2, gamma=gamma, exploration_set=u_set, graph=g)
        for t in range(30):
            p = np.array(learner.p)
            q = np.array(learner.q)
            assert abs(p.sum() - 1.0) < 1e-12
            assert abs(q.sum() - 1.0) < 1e-12
            assert np.all(p >= 0) and np.all(q >= 0)
            for v in u_set:
                assert p[v - 1] >= gamma / len(u_set) - 1e-15
            a = learner.act(rng)
            row = rng.uniform(0, 1, size=k)
            learner.update(*full_feedback(g, a, row))
            # estimator bounds: nonnegative, and capped for vertices with an
            # in-neighbor inside the exploration set
            assert min(learner.cumulative) >= -1e-15


def test_exp3g_estimator_cap_inside_exploration():
    rng = np.random.default_rng(9)
    g = catalog("loopy_star", 6)
    gamma = 0.3
    learner = Exp3G(6, eta=0.01, gamma=gamma, graph=g)
    prev = learner.cumulative.copy()
    for _ in range(200):
        a = learner.act(rng)
        row = rng.uniform(0, 1, size=6)
        learner.update(*full_feedback(g, a, row))
        step = np.subtract(learner.cumulative, prev)
        prev = learner.cumulative.copy()
        # every vertex has a self-loop, hence an in-neighbor in U = V
        assert np.all(step <= 6 / gamma + 1e-9)
        assert np.all(step >= 0)


def test_exp3g_update_requires_act():
    g = catalog("bandit", 2)
    learner = Exp3G(2, eta=0.1, gamma=0.1, graph=g)
    with pytest.raises(RuntimeError):
        learner.update(1, np.array([1]), np.array([0.5]))


def test_exp3g_rejects_inconsistent_observed_set():
    g = catalog("bandit", 3)
    learner = Exp3G(3, eta=0.1, gamma=0.1, graph=g)
    rng = np.random.default_rng(10)
    a = learner.act(rng)
    with pytest.raises(ValueError):
        learner.update(a, np.array([1, 2, 3]), np.array([0.1, 0.2, 0.3]))


@pytest.mark.parametrize("action", [0, 5])
def test_exp3g_update_refuses_an_action_out_of_range(action):
    # action 0 once read vertex K's out-neighborhood and was accepted;
    # action K + 1 died in an IndexError
    learner = Exp3G(4, eta=0.1, gamma=0.1, graph=catalog("loopy_star", 4))
    learner.act(np.random.default_rng(14))
    with pytest.raises(ValueError, match=rf"vertex {action} out of range 1\.\.4"):
        learner.update(action, [4], [1.0])
    assert learner.cumulative == [0.0] * 4


@pytest.mark.parametrize("losses,match", [
    ([0.5], "one loss per observed vertex"),
    ([0.5, float("nan"), 0.5], r"must lie in \[0, 1\]"),
    # a loss a hair past either end was once let through by a 1e-12 slack
    ([0.5, 1 + 1e-13, 0.5], r"must lie in \[0, 1\]"),
    ([0.5, -1e-13, 0.5], r"must lie in \[0, 1\]"),
], ids=["one_loss_for_three", "nan", "just_above_one", "just_below_zero"])
def test_exp3g_update_refuses_losses_that_do_not_fit(losses, match):
    learner = Exp3G(3, eta=0.1, gamma=0.1, graph=catalog("full", 3))
    learner.act(np.random.default_rng(15))
    with pytest.raises(ValueError, match=match):
        learner.update(1, [1, 2, 3], losses)
    assert learner.cumulative == [0.0] * 3


def test_no_float_tolerance_in_the_package():
    # every range check in the package is exact: a slack such as 1e-12 once
    # let a loss past 1 into `Exp3G.update`
    package = Path(graphbandit.__file__).parent
    tiny = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0 < abs(node.value) < 1e-3
    ]
    assert tiny == []


BANDIT3 = catalog("bandit", 3)
EXP3G_REFUSALS = {
    # the constructor
    "no_actions": (lambda: Exp3G(0, 0.1, 0.1, mode="uninformed"), "at least one action"),
    "eta_zero": (lambda: Exp3G(3, 0.0, 0.1, graph=BANDIT3), "eta must be positive"),
    # NaN once passed `eta <= 0` and played p = [nan, nan, nan]
    "eta_nan": (lambda: Exp3G(3, float("nan"), 0.1, graph=BANDIT3), "eta must be positive"),
    # infinity once passed `eta > 0` the same way
    "eta_inf": (lambda: Exp3G(3, float("inf"), 0.1, graph=BANDIT3), "eta must be positive"),
    "gamma_above_one": (lambda: Exp3G(3, 0.1, 1.5, graph=BANDIT3), r"gamma must lie in \[0, 1\]"),
    "gamma_nan": (lambda: Exp3G(3, 0.1, float("nan"), graph=BANDIT3),
                  r"gamma must lie in \[0, 1\]"),
    # None once passed, and the first act died multiplying None
    "eta_none": (lambda: Exp3G(3, None, 0.1, graph=BANDIT3), "eta must be set"),
    "gamma_none": (lambda: Exp3G(3, 0.1, None, graph=BANDIT3), "gamma must be set"),
    "unknown_mode": (lambda: Exp3G(3, 0.1, 0.1, graph=BANDIT3, mode="psychic"),
                     "mode must be one of"),
    "fixed_without_graph": (lambda: Exp3G(3, 0.1, 0.1), "fixed mode needs a graph"),
    "graph_of_another_size": (lambda: Exp3G(4, 0.1, 0.1, graph=BANDIT3),
                              "graph size does not match"),
    "empty_exploration_set": (lambda: Exp3G(3, 0.1, 0.1, exploration_set=(), graph=BANDIT3),
                              "exploration set must be nonempty"),
    "exploration_set_past_k": (lambda: Exp3G(3, 0.1, 0.1, exploration_set=(4,), graph=BANDIT3),
                               "exploration set out of range"),
    "round_graph_of_another_size": (
        lambda: Exp3G(4, 0.1, 0.1, mode="informed").set_round_graph(BANDIT3),
        "graph size does not match"),
}


@pytest.mark.parametrize("case", sorted(EXP3G_REFUSALS))
def test_exp3g_refusals(case):
    make, match = EXP3G_REFUSALS[case]
    with pytest.raises(ValueError, match=match):
        make()


def test_exp3g_uninformed_update_needs_the_round_graph():
    learner = Exp3G(3, eta=0.1, gamma=0.1, mode="uninformed")
    learner.act(np.random.default_rng(16))
    with pytest.raises(RuntimeError, match="no graph available for the update"):
        learner.update(1, [1], [0.5])


@pytest.mark.parametrize("mode", ["fixed", "informed"])
def test_exp3g_update_takes_a_graph_only_in_uninformed_mode(mode):
    # a fixed-mode learner once took the full graph's feedback on a bandit
    # game and moved every cumulative entry
    learner = Exp3G(3, eta=0.1, gamma=0.1, graph=BANDIT3 if mode == "fixed" else None, mode=mode)
    if mode == "informed":
        learner.set_round_graph(BANDIT3)
    a = learner.act(np.random.default_rng(17))
    with pytest.raises(ValueError, match="only in uninformed mode"):
        learner.update(a, [1, 2, 3], [0.5, 0.5, 0.5], graph=catalog("full", 3))
    assert learner.cumulative == [0.0] * 3


def test_exp3g_round_graph_timing_enforced():
    g = catalog("clique_minus", 4)
    fixed = Exp3G(4, eta=0.1, gamma=0.1, graph=g)
    with pytest.raises(ValueError):
        fixed.set_round_graph(g)
    informed = Exp3G(4, eta=0.1, gamma=0.1, mode="informed")
    rng = np.random.default_rng(11)
    with pytest.raises(RuntimeError):
        informed.act(rng)
    informed.set_round_graph(g)
    informed.act(rng)
    # the uninformed model gets its graph with the feedback
    uninformed = Exp3G(4, eta=0.1, gamma=0.1, mode="uninformed")
    with pytest.raises(ValueError):
        uninformed.set_round_graph(g)


def test_exp3g_informed_retargets_exploration():
    star = catalog("revealing_action", 5)
    learner = Exp3G(5, eta=0.01, gamma=0.2, mode="informed")
    rng = np.random.default_rng(12)
    for t in range(10):
        learner.set_round_graph(star)
        assert learner.exploration_set == (1,)
        a = learner.act(rng)
        learner.update(*full_feedback(star, a, np.full(5, 0.5)))


def test_exp3g_uninformed_uses_event_graph():
    bandit = catalog("bandit", 3)
    full = catalog("full", 3)
    learner = Exp3G(3, eta=0.5, gamma=0.1, mode="uninformed")
    rng = np.random.default_rng(13)
    learner.act(rng)
    row = [0.9, 0.1, 0.5]
    learner.update(*full_feedback(full, 1, row), graph=full)
    # full-feedback estimates are the raw losses: all three arms moved
    assert min(learner.cumulative) > 0
    learner2 = Exp3G(3, eta=0.5, gamma=0.1, mode="uninformed")
    learner2.act(rng)
    learner2.update(*full_feedback(bandit, 1, row), graph=bandit)
    assert learner2.cumulative[1] == 0 and learner2.cumulative[2] == 0


# ---------------------------------------------------------------------------
# presets


def test_preset_strong_values():
    prof = profile(catalog("loopless_clique", 4))
    pre = preset_strong(prof, 10_000)
    assert pre.gamma == pytest.approx(0.01)
    assert pre.eta == pytest.approx(0.02)
    assert pre.exploration_set == (1, 2, 3, 4)


def test_preset_strong_clips():
    prof = profile(catalog("bandit", 4))  # alpha = 4
    pre = preset_strong(prof, 1)
    assert pre.gamma == pytest.approx(0.5)
    assert pre.eta == pytest.approx(1.0)


def test_preset_strong_loopy_star():
    prof = profile(catalog("loopy_star", 10))
    pre = preset_strong(prof, 10**6)
    assert pre.gamma == pytest.approx((9 * 10**6) ** -0.5)


def test_doubling_rates_on_strong_rounds_equal_the_strong_preset():
    # every round strongly observable with the same alpha: the epoch starting
    # at round s is tuned as the strong preset tunes a game of s rounds
    prof = profile(catalog("loopy_star", 5))
    for s in range(1, 2**12 + 1):
        pre = preset_strong(prof, s)
        assert doubling_rates(5, s, prof.alpha * s, 0, 0, False) == (pre.eta, pre.gamma)


def test_preset_strong_rejects_weak_graph():
    with pytest.raises(ValueError):
        preset_strong(profile(catalog("revealing_action", 5)), 100)


PRESET_REFUSALS = {
    "strong_k1": (lambda: preset_strong(profile(FeedbackGraph(1, [(1, 1)])), 10),
                  "strong preset needs K >= 2"),
    "weak_on_full": (lambda: preset_weak(profile(catalog("full", 3)), 10),
                     "weak preset needs a weakly observable graph"),
    "loopless_clique_k1": (lambda: preset_loopless_clique(1, 10),
                           "loopless clique preset needs K >= 2"),
    "uninformed_k1": (lambda: preset_uninformed(1, 10), "uninformed preset needs K >= 2"),
}


@pytest.mark.parametrize("case", sorted(PRESET_REFUSALS))
def test_presets_refuse_graphs_outside_their_tuning(case):
    call, match = PRESET_REFUSALS[case]
    with pytest.raises(ValueError, match=match):
        call()


def test_preset_weak_values():
    prof = profile(catalog("revealing_action", 5))
    pre = preset_weak(prof, 10**6)
    assert pre.gamma == pytest.approx((math.log(5) / 10**6) ** (1 / 3))
    assert pre.eta == pytest.approx(pre.gamma**2)
    assert pre.exploration_set == (1,)


def test_preset_weak_clip_branch():
    prof = profile(catalog("revealing_action", 5))
    with pytest.warns(RuntimeWarning):
        pre = preset_weak(prof, 4)  # delta*lnK >= T/8
    assert pre.gamma == pytest.approx(0.5)
    assert pre.eta == pytest.approx(0.25)


def test_preset_weak_warns_below_regime():
    prof = profile(catalog("clique_minus", 5))
    threshold = 5**3 * math.log(5)  # delta = 1
    with pytest.warns(RuntimeWarning):
        preset_weak(prof, int(threshold) - 1)
    pre = preset_weak(prof, int(threshold) + 1)
    assert pre.exploration_set == (3,)


def test_preset_weak_warns_on_inexact_delta():
    prof = profile(catalog("clique_minus", 24))
    assert prof.graph_class is GraphClass.WEAKLY_OBSERVABLE and not prof.delta_exact
    with pytest.warns(RuntimeWarning, match="greedy cover"):
        preset_weak(prof, 10**9)  # above the K^3*ln(K)/delta^2 regime bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        preset_weak(profile(catalog("clique_minus", 20)), 10**9)  # exact delta


def test_preset_loopless_clique_values():
    pre = preset_loopless_clique(8, 10_000)
    assert pre.eta == pytest.approx(math.sqrt(math.log(8) / 2e4))
    assert pre.gamma == pytest.approx(2 * pre.eta)


def test_preset_loopless_clique_scaling():
    a = preset_loopless_clique(6, 1000)
    b = preset_loopless_clique(6, 4000)
    assert a.eta == pytest.approx(2 * b.eta)
    assert a.gamma / a.eta == pytest.approx(2.0)
    assert b.gamma / b.eta == pytest.approx(2.0)


def test_preset_uninformed_values():
    pre = preset_uninformed(8, 4096)
    assert pre.gamma == pytest.approx((8 * math.log(8) / 4096) ** (1 / 3))
    assert pre.eta == pytest.approx(pre.gamma**2 / 8)
    assert pre.exploration_set == tuple(range(1, 9))


def test_sample_index_is_inverse_cdf():
    dist = [0.25, 0.25, 0.5]
    assert sample_index(dist, 0.0) == 0
    assert sample_index(dist, 0.2499) == 0
    assert sample_index(dist, 0.25) == 1
    assert sample_index(dist, 0.4999) == 1
    assert sample_index(dist, 0.5) == 2
    assert sample_index(dist, 0.999999) == 2
