import numpy as np
import pytest

from graphbandit.environments import EnvSpec, bernoulli_env, hidden_arm_env, table_env
from graphbandit import harness, learners
from graphbandit.graph import FeedbackGraph, catalog
from graphbandit.harness import (
    CSV_COLUMNS,
    LearnerSpec,
    SweepConfig,
    doubling_wrapper,
    expected_regret_thm4,
    run_game,
    sweep,
    _run_cell,
)
from graphbandit.learners import Exp3G, Hedge

MANUAL = dict(preset="manual", eta=0.2, gamma=0.1)


def test_single_action_game_has_zero_regret():
    g = FeedbackGraph(1, [(1, 1)])
    env = bernoulli_env([0.4], 200, seed=0)
    out = run_game(g, LearnerSpec(algorithm="exp3g", **MANUAL), env, 0)
    assert out.regret == pytest.approx(0.0)
    assert np.all(out.actions == 1)


def test_fixed_seed_reproducibility():
    g = catalog("loopy_star", 4)
    spec = LearnerSpec(algorithm="exp3g", preset="strong")
    env = bernoulli_env([0.2, 0.5, 0.5, 0.5], 300, seed=5)
    a = run_game(g, spec, env, 17)
    b = run_game(g, spec, env, 17)
    assert np.array_equal(a.actions, b.actions)
    assert a.player_loss == b.player_loss


def test_accounting_matches_reference_recomputation():
    g = catalog("full", 3)
    env = bernoulli_env([0.3, 0.5, 0.7], 500, seed=1)
    out = run_game(g, LearnerSpec(algorithm="exp3g", **MANUAL), env, 2)
    replayed = env.losses[np.arange(500), out.actions - 1]
    assert abs(out.player_loss - replayed.sum()) < 1e-9
    assert abs(out.best_fixed_loss - env.losses.sum(axis=0).min()) < 1e-9
    assert abs(out.regret - (out.player_loss - out.best_fixed_loss)) < 1e-9
    assert np.array_equal(out.arm_totals, env.losses.sum(axis=0))


def test_observed_counts_match_graph():
    g = catalog("loopy_star", 4)  # hub sees 4, leaves see 1
    env = bernoulli_env([0.5] * 4, 100, seed=2)
    out = run_game(g, LearnerSpec(algorithm="exp3g", **MANUAL), env, 3)
    hub = out.actions == 1
    assert np.all(out.observed_counts[hub] == 4)
    assert np.all(out.observed_counts[~hub] == 1)


def test_exp3g_with_zero_gamma_matches_hedge_on_full_feedback():
    k, horizon, eta = 4, 300, 0.17
    g = catalog("full", k)
    table = np.random.default_rng(3).uniform(0, 1, size=(horizon, k))
    hedge = Hedge(k, eta)
    learner = Exp3G(k, eta=eta, gamma=0.0, graph=g)
    rng = np.random.default_rng(4)
    for t in range(horizon):
        a = learner.act(rng)
        obs = g.out_index[a - 1]
        from graphbandit.learners import FeedbackEvent

        learner.update(FeedbackEvent(a, obs, table[t][obs - 1]))
        hedge.step(table[t])
        assert np.allclose(learner.q, hedge.distribution, atol=1e-6)


def test_hedge_needs_full_feedback():
    g = catalog("loopless_clique", 3)
    env = bernoulli_env([0.3, 0.5, 0.5], 10, seed=0)
    spec = LearnerSpec(algorithm="hedge", preset="manual", eta=0.1, gamma=0.0)
    with pytest.raises(ValueError):
        run_game(g, spec, env, 0)


def test_mode_and_dimension_validation():
    g = catalog("full", 3)
    env = bernoulli_env([0.5, 0.5], 10, seed=0)
    with pytest.raises(ValueError):
        run_game(g, LearnerSpec(algorithm="exp3g", **MANUAL), env, 0)
    from graphbandit.environments import uninformed_separation_env

    tv_env = uninformed_separation_env(5, 16, seed=0)
    with pytest.raises(ValueError):
        run_game(None, LearnerSpec(algorithm="exp3g", **MANUAL, mode="fixed"), tv_env, 0)
    with pytest.raises(ValueError):
        run_game(catalog("full", 5), LearnerSpec(algorithm="exp3g", **MANUAL, mode="uninformed"), tv_env, 0)


def test_constant_graph_sequence_matches_fixed_play():
    g = catalog("clique_minus", 4)
    env = bernoulli_env([0.4, 0.5, 0.9, 0.9], 400, seed=6)
    fixed = run_game(g, LearnerSpec(algorithm="exp3g", **MANUAL), env, 9)
    informed = run_game(
        g, LearnerSpec(algorithm="exp3g", **MANUAL, mode="informed"), env, 9
    )
    uninformed = run_game(
        g, LearnerSpec(algorithm="exp3g", **MANUAL, mode="uninformed"), env, 9
    )
    # same seed, constant graph: identical transcripts bit for bit, except that
    # informed mode retargets exploration at the dominating set
    assert np.array_equal(fixed.actions, uninformed.actions)
    assert fixed.player_loss == uninformed.player_loss
    assert informed.horizon == fixed.horizon


# ---------------------------------------------------------------------------
# hidden-arm equality


@pytest.mark.parametrize(
    "spec",
    [
        LearnerSpec(algorithm="exp3g", **MANUAL),
        LearnerSpec(algorithm="uniform"),
        LearnerSpec(algorithm="constant", constant_action=1),
        LearnerSpec(algorithm="constant", constant_action=2),
    ],
)
def test_hidden_arm_equality_is_exact(spec):
    g = FeedbackGraph(3, [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    runs = {}
    for chi in (0, 1):
        env = hidden_arm_env(chi, 1000, 3)
        runs[chi] = run_game(g, spec, env, np.random.SeedSequence(21))
    value = expected_regret_thm4(runs[0], runs[1])
    assert abs(value - 250.0) < 1e-9
    # always-arm-1 gives (T/2)/2 + 0 = T/4; never-arm-1 gives 0 + (T/2)/2
    if spec.algorithm == "constant":
        m = 1000 if spec.constant_action == 1 else 0
        assert runs[1].regret == pytest.approx(m / 2)
        assert runs[0].regret == pytest.approx((1000 - m) / 2)


def test_hidden_arm_equality_rejects_mismatches():
    g = FeedbackGraph(3, [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    spec = LearnerSpec(algorithm="uniform")
    a = run_game(g, spec, hidden_arm_env(0, 100, 3), np.random.SeedSequence(1))
    b = run_game(g, spec, hidden_arm_env(1, 100, 3), np.random.SeedSequence(2))
    with pytest.raises(ValueError):
        expected_regret_thm4(a, b)


# ---------------------------------------------------------------------------
# sweeps


def bandit_sweep_config(horizons=(64, 128), reps=3, **kwargs):
    return SweepConfig(
        graph=catalog("bandit", 2),
        graph_name="bandit",
        learner=LearnerSpec(algorithm="exp3g", preset="strong"),
        env=EnvSpec("bernoulli", {"mu": (0.3, 0.5)}),
        horizons=horizons,
        reps=reps,
        seed=11,
        **kwargs,
    )


def test_sweep_row_count_and_columns():
    report = sweep(bandit_sweep_config())
    assert len(report.rows) == 2 * 3
    for row in report.rows:
        for column in CSV_COLUMNS:
            assert column in row
        assert row["class"] == "strongly_observable"
        assert row["alpha"] == 2 and row["delta"] == 0


def test_sweep_deterministic_env_single_rep_has_zero_stderr():
    table = np.zeros((32, 2))
    table[:, 1] = 1.0
    config = SweepConfig(
        graph=catalog("full", 2),
        graph_name="full",
        learner=LearnerSpec(algorithm="exp3g", **MANUAL),
        env=EnvSpec("table", {"table": table}),
        horizons=(32,),
        reps=1,
        seed=0,
    )
    report = sweep(config)
    mean, stderr = report.mean_regret()[32]
    assert stderr == 0.0


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep(bandit_sweep_config(horizons=(128, 64)))
    with pytest.raises(ValueError):
        sweep(bandit_sweep_config(horizons=()))
    with pytest.raises(ValueError):
        sweep(bandit_sweep_config(reps=0))


def test_sweep_rows_independent_of_order():
    config = bandit_sweep_config()
    forward = [_run_cell(config, hi, rep) for hi in range(2) for rep in range(3)]
    backward = [_run_cell(config, hi, rep) for hi in reversed(range(2)) for rep in reversed(range(3))]
    key = lambda row: (row["T"], row["rep"])
    assert sorted(forward, key=key) == sorted(backward, key=key)


def test_sweep_csv_schema(tmp_path):
    report = sweep(bandit_sweep_config())
    path = tmp_path / "rows.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(report.rows)


def test_sweep_chi_average_thm4_is_quarter_t():
    g = FeedbackGraph(3, [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
    config = SweepConfig(
        graph=g,
        graph_name="hidden-arm",
        learner=LearnerSpec(algorithm="exp3g", **MANUAL),
        env=EnvSpec("thm4", {}),
        horizons=(40, 80),
        reps=2,
        seed=3,
        chi_average=True,
    )
    report = sweep(config)
    for row in report.rows:
        assert row["regret"] == pytest.approx(row["T"] / 4.0)


def test_sweep_slope_band_bandit_strong_preset():
    # pilot-calibrated slope band for the two-armed stochastic game
    config = SweepConfig(
        graph=catalog("bandit", 2),
        graph_name="bandit",
        learner=LearnerSpec(algorithm="exp3g", preset="strong"),
        env=EnvSpec("bernoulli", {"mu": (0.3, 0.5)}),
        horizons=tuple(2**k for k in range(8, 14)),
        reps=8,
        seed=29,
    )
    report = sweep(config)
    assert 0.3 <= report.slope() <= 0.65


def test_sweep_refuses_out_of_reach_graph_before_any_game(monkeypatch):
    games = []
    play = harness.run_game

    def counted(*args):
        games.append(args)
        return play(*args)

    monkeypatch.setattr(harness, "run_game", counted)
    monkeypatch.delenv("GRAPHBANDIT_THREADS", raising=False)
    config = SweepConfig(
        graph=catalog("bandit", 41),
        graph_name="bandit",
        learner=LearnerSpec(algorithm="exp3g", **MANUAL),
        env=EnvSpec("bernoulli", {"mu": (0.5,) * 41}),
        horizons=(64,),
        reps=2,
    )
    with pytest.raises(ValueError, match="exceeds the exact independence-solver cap"):
        sweep(config)
    assert games == []


def test_sweep_parallel_matches_serial(monkeypatch):
    config = bandit_sweep_config()
    serial = sweep(config)
    monkeypatch.setenv("GRAPHBANDIT_THREADS", "2")
    parallel = sweep(config)
    assert serial.rows == parallel.rows


# ---------------------------------------------------------------------------
# doubling trick


def test_doubling_total_rounds_and_boundaries(monkeypatch):
    built = []

    class RecordingExp3G(learners.Exp3G):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(learners, "Exp3G", RecordingExp3G)
    horizon = 50
    table = np.ones((horizon, 4))
    table[:, 1] = 0.0
    spec = LearnerSpec(algorithm="exp3g", preset="weak", mode="informed")
    out = doubling_wrapper(catalog("clique_minus", 4), spec, table_env(table), 1)
    assert out.horizon == horizon
    # each epoch's learner counts its own updates; a fresh one starts at the
    # round after the previous epochs end
    epoch_lengths = [learner.round - 1 for learner in built]
    assert sum(epoch_lengths) == horizon
    starts = list(1 + np.cumsum([0] + epoch_lengths[:-1]))
    assert starts == [1, 2, 4, 8, 16, 32]


def test_doubling_game_is_pinned():
    # a fixed-graph informed game whose player loss the doubling trick must
    # keep reproducing exactly
    g = catalog("clique_minus", 5)
    env = bernoulli_env([0.3, 0.5, 0.5, 0.5, 0.5], 512, seed=4)
    spec = LearnerSpec(algorithm="exp3g", preset="weak", mode="informed")
    out = doubling_wrapper(g, spec, env, 7)
    assert out.player_loss == 236.0
    assert out.config["preset"] == "doubling"


def test_doubling_regret_within_factor_of_plain_run():
    g = catalog("clique_minus", 5)
    horizon = 512
    table = np.ones((horizon, 5))
    table[:, 1] = 0.0  # arm 2 is the single good arm
    env = table_env(table)
    spec = LearnerSpec(algorithm="exp3g", preset="weak", mode="informed")
    doubled = doubling_wrapper(g, spec, env, 7)
    plain = run_game(g, spec, env, 7)
    assert doubled.regret <= 4.0 * plain.regret + 1e-9


def test_doubling_requires_informed_mode():
    g = catalog("clique_minus", 4)
    env = table_env(np.zeros((8, 4)))
    with pytest.raises(ValueError):
        doubling_wrapper(g, LearnerSpec(algorithm="exp3g", preset="weak", mode="fixed"), env, 0)


def test_doubling_preset_needs_informed_exp3g():
    with pytest.raises(ValueError):
        LearnerSpec(preset="doubling", mode="fixed")
    with pytest.raises(ValueError):
        LearnerSpec(algorithm="uniform", preset="doubling", mode="informed")
    assert LearnerSpec(preset="doubling", mode="informed").preset == "doubling"
