"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a `ACCEPTANCE <id> ...` line with the measured quantities
(visible with `pytest -s` or on failure). The criterion-5 tests share the
rate-separation sweeps through module-scoped fixtures, which play the
configurations that `scripts/run_pilot.py` defines in `SEPARATION`.
"""

import math
import time

import numpy as np
import pytest

from graphbandit.environments import (
    EnvSpec,
    domination_capped_independent_set,
    table_env,
)
from graphbandit.graph import (
    FeedbackGraph,
    GraphClass,
    catalog,
    classify_graph,
    independence_number,
    profile,
    weak_domination_number,
)
from graphbandit.harness import (
    LearnerSpec,
    SweepConfig,
    cell_streams,
    run_games,
    sweep,
)
from graphbandit.learners import importance_weighted_estimates
from graphbandit.partial_monitoring import (
    check_global_observability,
    check_local_observability,
    claim_c1_check,
    encode,
)

from oracles import (
    Hedge,
    adversarial_tables,
    brute_force_alpha,
    brute_force_delta_fast,
    domination_counts,
    hedge_second_order_bound,
    is_independent,
    random_distribution,
    random_graph,
    random_weakly_observable_graph,
    run_pilot,
    weight_ratio_bound,
    weight_ratio_sum,
)


def report(tag, elapsed, budget, detail):
    line = f"ACCEPTANCE {tag}: {detail}"
    if budget is not None:
        line += f" [elapsed {elapsed:.1f}s, budget {budget:.0f}s]"
    print(line)


# ---------------------------------------------------------------------------
# 1. hidden-arm equality


def test_criterion_01_hidden_arm_equality():
    start = time.time()
    g = FeedbackGraph(3, [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    assert classify_graph(g) is GraphClass.NOT_OBSERVABLE
    horizon = 1000
    specs = [
        LearnerSpec(algorithm="exp3g", preset="manual", eta=0.2, gamma=0.1),
        LearnerSpec(algorithm="uniform"),
        LearnerSpec(algorithm="constant", constant_action=1),
    ]
    values = []
    for spec in specs:  # each chi pair as `lowerbound --which thm4` plays it
        config = SweepConfig(g, "thm4", spec, EnvSpec("thm4"), (horizon,), 1, 101,
                             chi_average=True)
        values.append(sweep(config).rows[0]["regret"])
    elapsed = time.time() - start
    report("01 hidden-arm T/4", elapsed, 1.0,
           f"chi-averaged regrets {values} vs {horizon / 4}")
    assert values == [horizon / 4.0] * len(specs)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. executable second-order regret bound


def test_criterion_02_second_order_bound():
    start = time.time()
    rng = np.random.default_rng(202)
    worst_slack = math.inf
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        horizon = int(rng.integers(1, 51))
        eta = float(rng.uniform(0.05, 1.5))
        scale = float(rng.choice([0.5, 1.0, 2.0]))
        losses = rng.uniform(0.0, scale / eta, size=(horizon, k))
        subsets = [
            tuple(
                i + 1
                for i in range(k)
                if losses[t, i] <= 1.0 / eta and rng.random() < 0.7
            )
            for t in range(horizon)
        ]
        lhs, rhs = hedge_second_order_bound(losses, eta, subsets)
        assert lhs <= rhs + 1e-9
        worst_slack = min(worst_slack, rhs - lhs)
        # the empty-subset right-hand side is the plain second-order bound
        # and dominates the refined one pointwise
        _, rhs_standard = hedge_second_order_bound(losses, eta)
        assert rhs <= rhs_standard + 1e-12
        learner = Hedge(k, eta)
        reference = math.log(k) / eta
        for t in range(horizon):
            q = learner.distribution
            reference += eta * float((q * losses[t] ** 2).sum())
            learner.step(losses[t])
        assert rhs_standard == pytest.approx(reference, abs=1e-9)
    elapsed = time.time() - start
    report("02 second-order bound", elapsed, 10.0,
           f"1000 instances, min slack {worst_slack:.3g}")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. estimator unbiasedness by enumeration


def test_criterion_03_estimator_unbiasedness():
    start = time.time()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(2, 11))
        g = random_graph(rng, k, float(rng.uniform(0.1, 0.9)))
        p = random_distribution(rng, k)
        row = rng.uniform(0.0, 1.0, size=k)
        expectation = np.zeros(k)
        for j in range(1, k + 1):
            observed = np.flatnonzero(g.in_matrix[:, j - 1]).tolist()  # j's out-neighborhood
            expectation += p[j - 1] * np.array(importance_weighted_estimates(
                g.in_matrix, p.tolist(), observed, row.tolist(), [0.0] * k
            ))
        observable = (g.in_matrix @ p) > 0
        gap = np.abs(expectation - row)[observable]
        if gap.size:
            worst = max(worst, float(gap.max()))
            assert float(gap.max()) <= 1e-12
    elapsed = time.time() - start
    report("03 estimator unbiasedness", elapsed, 5.0,
           f"500 triples, max |E[est]-loss| = {worst:.2e}")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. solver versus brute force


def test_criterion_04_solver_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(404)
    for _ in range(200):
        k = int(rng.integers(1, 13))
        g = random_graph(rng, k, float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, 1.0)))
        alpha, witness = independence_number(g)
        assert alpha == brute_force_alpha(g)
        assert len(witness) == alpha and is_independent(g, witness)
        delta, dwitness, exact = weak_domination_number(g)
        assert exact
        assert delta == brute_force_delta_fast(g)
    elapsed = time.time() - start
    report("04 solver equivalence", elapsed, 60.0, "200 graphs, K <= 12, exact match")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. rate separation


_rate_elapsed = {}


def _rate_sweep(side):
    start = time.time()
    out = sweep(run_pilot().SEPARATION[side])
    _rate_elapsed[side] = time.time() - start
    return out


@pytest.fixture(scope="module")
def strong_report():
    return _rate_sweep("strong")


@pytest.fixture(scope="module")
def weak_report():
    return _rate_sweep("weak")


def test_criterion_05a_strong_graph_rate(strong_report):
    grid = run_pilot().SEPARATION["strong"].horizons
    means = strong_report.mean_regret()
    slope = strong_report.slope()
    alpha, k = 9, 10
    budget = {
        t: 40.0 * math.sqrt(alpha * t * math.log(k * t)) for t in grid
    }
    detail = " ".join(f"T={t}:{means[t][0]:.0f}" for t in grid)
    report("05a strong rate", _rate_elapsed.get("strong", 0.0), None,
           f"slope={slope:.3f} (<=0.65) means {detail}")
    assert slope <= 0.65
    for t in grid:
        assert means[t][0] <= budget[t]


def test_criterion_05b_weak_graph_rate(weak_report):
    means = weak_report.mean_regret()
    slope = weak_report.slope()
    detail = " ".join(f"T={t}:{means[t][0]:.0f}" for t in means)
    report("05b weak rate", _rate_elapsed.get("weak", 0.0), None,
           f"slope={slope:.3f} (>=0.55) means {detail}")
    assert slope >= 0.55


def test_criterion_05c_separation_ratio(strong_report, weak_report):
    top = run_pilot().SEPARATION["strong"].horizons[-1]
    strong_mean = strong_report.mean_regret()[top][0]
    weak_mean = weak_report.mean_regret()[top][0]
    ratio = weak_mean / strong_mean
    elapsed = _rate_elapsed.get("strong", 0.0) + _rate_elapsed.get("weak", 0.0)
    report("05c separation", elapsed, 600.0,
           f"T={top}: weak {weak_mean:.0f} vs strong {strong_mean:.0f}, ratio {ratio:.2f} (>=3)")
    assert elapsed < 600.0
    assert ratio >= 3.0


# ---------------------------------------------------------------------------
# 6. loopless-clique bound


def test_criterion_06_loopless_clique_bound():
    start = time.time()
    horizon = 10_000
    worst = {}
    for k in (4, 16):
        g = catalog("loopless_clique", k)
        bound = 5.0 * math.sqrt(horizon * math.log(k))
        spec = LearnerSpec(algorithm="exp3g", preset="loopless_clique")
        worst[k] = -math.inf
        names, tables = zip(*adversarial_tables(k, horizon, count=20, seed=606))
        runs = run_games(
            g, spec, [table_env(table) for table in tables],
            [cell_streams(606, k, index)[1] for index in range(len(tables))],
        )
        for name, out in zip(names, runs):
            worst[k] = max(worst[k], out.regret)
            assert out.regret <= bound, f"K={k} table {name}: {out.regret} > {bound}"
    elapsed = time.time() - start
    report(
        "06 loopless-clique bound", elapsed, 60.0,
        f"worst regret K=4: {worst[4]:.0f} (<= {5 * math.sqrt(horizon * math.log(4)):.0f}), "
        f"K=16: {worst[16]:.0f} (<= {5 * math.sqrt(horizon * math.log(16)):.0f})",
    )
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. uninformed separation


def _thm7_report(k, horizons, reps, seed):
    config = SweepConfig(
        graph=None,
        graph_name="thm7-sequence",
        learner=LearnerSpec(algorithm="exp3g", preset="uninformed", mode="uninformed"),
        env=EnvSpec("thm7", {"k": k}),
        horizons=horizons,
        reps=reps,
        seed=seed,
    )
    return sweep(config)


def test_criterion_07_uninformed_separation():
    start = time.time()
    horizon = 2**12
    mean_small = _thm7_report(4, (horizon,), 32, 707).mean_regret()[horizon][0]
    mean_large = _thm7_report(16, (horizon,), 32, 707).mean_regret()[horizon][0]
    slope_report = _thm7_report(8, tuple(2**j for j in range(9, 14)), 32, 708)
    slope = slope_report.slope()
    elapsed = time.time() - start
    report(
        "07 uninformed separation", elapsed, None,
        f"T={horizon}: K=4 regret {mean_small:.0f} < K=16 regret {mean_large:.0f}; "
        f"K=8 slope {slope:.3f} (>=0.55)",
    )
    assert mean_large > mean_small
    assert slope >= 0.55


# ---------------------------------------------------------------------------
# 8. matrix-game observability


def test_criterion_08_partial_monitoring():
    start = time.time()
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
    # both directions hold for K >= 2 (the partial_monitoring docstring):
    # local <=> strongly observable, global <=> observable
    assert min(g.num_vertices for g in graphs) >= 2
    for g in graphs:
        instance = encode(g)
        for u, v in sorted(g.edges):
            assert claim_c1_check(instance, u, v)
        cls = classify_graph(g)
        assert check_local_observability(instance) == (cls is GraphClass.STRONGLY_OBSERVABLE)
        assert check_global_observability(instance) == (cls is not GraphClass.NOT_OBSERVABLE)
    elapsed = time.time() - start
    report("08 partial monitoring", elapsed, 30.0,
           f"{len(graphs)} graphs: claim holds, verdicts equal the class")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 9. weighted in-neighborhood inequality


def test_criterion_09_weight_ratio_inequality():
    start = time.time()
    rng = np.random.default_rng(909)
    min_slack = math.inf
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        g = random_graph(rng, k, float(rng.uniform(0.0, 0.9)), float(rng.uniform(0.0, 1.0)))
        eps = float(rng.uniform(0.01, min(0.49, 1.0 / (2 * k))))
        total = float(rng.uniform(k * eps, 1.0))
        weights = eps + rng.dirichlet(np.ones(k)) * (total - k * eps)
        alpha, _ = independence_number(g)
        lhs = weight_ratio_sum(g, weights, eps=eps)
        rhs = weight_ratio_bound(alpha, k, eps)
        assert lhs <= rhs + 1e-9
        min_slack = min(min_slack, rhs - lhs)
    elapsed = time.time() - start
    report("09 weight-ratio inequality", elapsed, None,
           f"1000 weighted graphs, min slack {min_slack:.3f}")


# ---------------------------------------------------------------------------
# 10. exploration-resistant subset constructor


def test_criterion_10_capped_independent_sets():
    start = time.time()
    rng = np.random.default_rng(1010)
    sizes = []
    for _ in range(100):
        g = random_weakly_observable_graph(rng, max_vertices=14)
        result = domination_capped_independent_set(g, seed=int(rng.integers(1 << 30)))
        members = sorted(result.vertices)
        sizes.append(len(members))
        assert members
        assert is_independent(g, members)
        cap = math.ceil(math.log(g.num_vertices))
        assert max(domination_counts(g, members)) <= cap
        weak = profile(g).weak_set
        assert set(members) <= weak
    elapsed = time.time() - start
    report("10 capped independent sets", elapsed, None,
           f"100 graphs, |U| range {min(sizes)}..{max(sizes)}, all verified")
