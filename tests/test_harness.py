import csv
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from graphbandit.environments import (
    CHI_PAIRS,
    EnvSpec,
    bernoulli_env,
    build_environment,
    hidden_arm_env,
    table_env,
    uninformed_separation_env,
)
from graphbandit import harness, learners
from graphbandit.graph import FeedbackGraph, catalog
from graphbandit.harness import (
    CSV_COLUMNS,
    ExperimentReport,
    LearnerSpec,
    SweepConfig,
    doubling_wrapper,
    run_game,
    run_games,
    sweep,
)
from graphbandit.learners import Exp3G

from oracles import ConstantAction, DoublingExp3G, Hedge, HedgePlayer, UniformRandom, run_pilot

MANUAL = dict(preset="manual", eta=0.2, gamma=0.1)
ROOT = Path(__file__).resolve().parent.parent


def play_learner(learner, env, seed, graph=None, mode="fixed"):
    """The protocol played by one learner object, round by round: the
    reference the lockstep engine must reproduce. Returns the actions."""
    rng = np.random.default_rng(seed)
    actions = []
    for t in range(env.horizon):
        g = env.graph_at(t) if env.time_varying else graph
        if mode == "informed":
            learner.set_round_graph(g)
        a = learner.act(rng)
        obs = sorted(g.out_neighbors(a))
        row = env.losses[t]
        shown = g if mode == "uninformed" else None
        learner.update(a, obs, [row[v - 1] for v in obs], graph=shown)
        actions.append(a)
    return np.array(actions)


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


def test_exp3g_with_zero_gamma_matches_hedge_on_full_feedback():
    k, horizon, eta = 4, 300, 0.17
    g = catalog("full", k)
    table = np.random.default_rng(3).uniform(0, 1, size=(horizon, k))
    hedge = Hedge(k, eta)
    learner = Exp3G(k, eta=eta, gamma=0.0, graph=g)
    rng = np.random.default_rng(4)
    for t in range(horizon):
        a = learner.act(rng)
        obs = sorted(g.out_neighbors(a))
        learner.update(a, obs, [table[t][v - 1] for v in obs])
        hedge.step(table[t])
        assert np.allclose(learner.q, hedge.distribution, atol=1e-6)


@pytest.mark.parametrize("mu", [[0.5, 1.0, 0.5], [0.5, 0.0, 0.5]],
                         ids=["observed_loss_1", "observed_loss_0"])
def test_zero_probability_path_raises_without_a_warning(monkeypatch, mu):
    # the play distribution puts all mass on action 1, yet action 2 is drawn,
    # whose observed loss (1, or 0 for a 0/0) then has observation probability 0
    monkeypatch.setattr(learners, "exponential_weights", _point_mass)
    # a float uniform is a one-row draw, which returns an int
    monkeypatch.setattr(learners, "sample_index",
                        lambda p, u, **_: 1 if isinstance(u, float) else np.ones(len(p), np.intp))
    env = bernoulli_env(mu, 10, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="zero observation probability"):
            run_game(catalog("bandit", 3), LearnerSpec(algorithm="exp3g", **MANUAL), env, 0)


def _point_mass(cum, *_, **__):
    # all mass on action 1 of 3: a list row (the one-row form) gets a list,
    # R x K rows an R x 3 array
    if isinstance(cum, list):
        return [1.0, 0.0, 0.0]
    return np.eye(3)[np.zeros(len(cum), dtype=np.intp)]


def _point_mass_player(monkeypatch, draw):
    # the play distribution puts all mass on action 1; `draw(rows)` gives the
    # rows' drawn actions, 0-based, and a one-row draw (a float uniform)
    # returns its action as an int, as `sample_index` does
    monkeypatch.setattr(learners, "exponential_weights", _point_mass)
    monkeypatch.setattr(learners, "sample_index", lambda p, u, **_: (
        int(draw(1)[0]) if isinstance(u, float) else draw(len(p))
    ))


def test_zero_probability_raises_before_any_transcript(monkeypatch):
    spec = LearnerSpec(algorithm="exp3g", **MANUAL)
    env = bernoulli_env([0.5, 1.0, 0.5], 10, seed=0)
    before = np.geterr()
    # one row, which draws action 2
    _point_mass_player(monkeypatch, lambda rows: np.ones(rows, dtype=np.intp))
    message = r"observed actions \[2\] have zero observation probability"
    with pytest.raises(RuntimeError, match=message):
        run_game(catalog("bandit", 3), spec, env, 0)
    assert np.geterr() == before
    # two rows in one batch, of which only the second draws action 2
    _point_mass_player(monkeypatch, lambda rows: np.arange(rows, dtype=np.intp) % 2)
    transcripts = harness._play(
        catalog("bandit", 3), spec, [harness._Game(10, lambda: env, seed) for seed in (0, 1)]
    )
    with pytest.raises(RuntimeError, match=message):
        next(transcripts)
    assert np.geterr() == before
    assert run_game(catalog("bandit", 3), spec, env, 0).horizon == 10  # row 0's draws
    assert np.geterr() == before


def test_zero_probability_off_the_observed_set_costs_no_fallback(monkeypatch):
    # lowerbound's thm4 graph: vertex 1 has no in-edges, so P(1) = 0 every
    # round, but no action observes it; the error path (which locates the
    # vertices with np.argwhere) is never entered
    g = FeedbackGraph(3, [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    spec = LearnerSpec(algorithm="exp3g", **MANUAL)
    argwhere, calls = np.argwhere, []
    monkeypatch.setattr(np, "argwhere", lambda *a, **k: calls.append(a) or argwhere(*a, **k))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [run_game(g, spec, hidden_arm_env(chi, 400, 3), 7) for chi in (0, 1)]
    assert calls == []
    assert np.geterr() == before
    assert (runs[0].regret + runs[1].regret) / 2 == 100.0


def test_long_horizon_play_distribution_stays_normalised(monkeypatch):
    # one game at T = 2^18 plays on the one-row list form throughout; as
    # the cumulative estimates grow, every round's p must stay finite and
    # sum to 1 within 1e-12 (math.fsum is exact)
    horizon, rounds = 1 << 18, []
    distribution = learners.exponential_weights

    def checked(*args, **kwargs):
        p = distribution(*args, **kwargs)
        assert type(p) is list and all(map(math.isfinite, p))
        assert abs(math.fsum(p) - 1.0) <= 1e-12, math.fsum(p)
        rounds.append(None)
        return p

    monkeypatch.setattr(learners, "exponential_weights", checked)
    env = bernoulli_env((0.3,) + (0.5,) * 9, horizon, seed=18)
    run = run_game(catalog("loopy_star", 10), LearnerSpec(algorithm="exp3g", preset="strong"),
                   env, 18)
    assert len(rounds) == run.horizon == horizon


def test_hedge_needs_full_feedback():
    g = catalog("loopless_clique", 3)
    env = bernoulli_env([0.3, 0.5, 0.5], 10, seed=0)
    spec = LearnerSpec(algorithm="hedge", preset="manual", eta=0.1, gamma=0.0)
    with pytest.raises(ValueError):
        run_game(g, spec, env, 0)


GAME_REFUSALS = {
    "fixed_env_without_graph": (
        lambda spec: run_game(None, spec, bernoulli_env([0.5, 0.5], 10, seed=0), 0),
        "fixed environment needs a graph",
    ),
    "batch_of_mixed_action_counts": (
        lambda spec: run_games(
            None, replace(spec, mode="uninformed"),
            [uninformed_separation_env(k, 16, seed=0) for k in (5, 6)], [0, 1],
        ),
        "the games of one batch must share the action count",
    ),
    "chi_average_on_bernoulli": (
        lambda spec: sweep(bandit_sweep_config(chi_average=True)),
        "chi averaging is undefined for env 'bernoulli'",
    ),
}


@pytest.mark.parametrize("case", sorted(GAME_REFUSALS))
def test_harness_refuses_games_it_cannot_play(case):
    call, match = GAME_REFUSALS[case]
    with pytest.raises(ValueError, match=match):
        call(LearnerSpec(algorithm="exp3g", **MANUAL))


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


BAD_PLAYERS = {
    "eta_zero": (dict(MANUAL, eta=0.0), "eta must be positive"),
    "eta_negative": (dict(MANUAL, eta=-0.2), "eta must be positive"),
    "gamma_negative": (dict(MANUAL, gamma=-0.1), r"gamma must lie in \[0, 1\]"),
    "gamma_above_one": (dict(MANUAL, gamma=1.5), r"gamma must lie in \[0, 1\]"),
    "constant_zero": (dict(algorithm="constant", constant_action=0), "action out of range"),
    "constant_past_k": (dict(algorithm="constant", constant_action=5), "action out of range"),
    "constant_float": (dict(algorithm="constant", constant_action=1.5),
                       "constant_action must be an integer"),
    "constant_integral_float": (dict(algorithm="constant", constant_action=2.0),
                                "constant_action must be an integer"),
    "constant_bool": (dict(algorithm="constant", constant_action=True),
                      "constant_action must be an integer"),
    "hedge_without_eta": (dict(algorithm="hedge"), "hedge needs an explicit eta"),
    "hedge_eta_zero": (dict(algorithm="hedge", eta=0.0), "eta must be positive"),
    "eta_nan": (dict(MANUAL, eta=float("nan")), "eta must be positive"),
    # infinity once passed `eta > 0` and played p = [nan, nan, nan]
    "eta_inf": (dict(MANUAL, eta=float("inf")), "eta must be positive"),
    "hedge_eta_inf": (dict(algorithm="hedge", eta=float("inf")), "eta must be positive"),
    "unknown_algorithm": (dict(algorithm="exp4"), "unknown algorithm 'exp4'"),
    "unknown_preset": (dict(preset="lucky"), "unknown preset 'lucky'"),
    "unknown_mode": (dict(MANUAL, mode="psychic"), "unknown mode 'psychic'"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLAYERS))
def test_run_game_refuses_bad_player_inputs(case):
    # the spec is built inside the check: a value may be refused there or
    # when the game starts, but never played
    spec_args, match = BAD_PLAYERS[case]
    env = bernoulli_env([0.5] * 4, 10, seed=0)
    with pytest.raises(ValueError, match=match):
        run_game(catalog("full", 4), LearnerSpec(**spec_args), env, 0)


def test_run_game_refuses_preset_rates_out_of_range():
    # loopless-clique tuning at K=2, T=1: gamma = 2*sqrt(ln 2/2) ~ 1.18
    env = bernoulli_env([0.5, 0.5], 1, seed=0)
    spec = LearnerSpec(preset="loopless_clique")
    with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\]"):
        run_game(catalog("loopless_clique", 2), spec, env, 0)


@pytest.mark.parametrize(
    "spec_args",
    [dict(preset="strong", eta=0.0), dict(algorithm="uniform", gamma=2.0)],
    ids=["strong_ignores_eta", "uniform_ignores_gamma"],
)
def test_run_game_accepts_rates_the_player_ignores(spec_args):
    env = bernoulli_env([0.5] * 4, 10, seed=0)
    run = run_game(catalog("full", 4), LearnerSpec(**spec_args), env, 0)
    assert run.horizon == 10


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


def test_informed_play_on_a_strongly_observable_graph_equals_fixed_play():
    # informed play explores every vertex of a strongly observable round
    # graph, as the strong preset does
    g = catalog("loopy_star", 5)
    env = bernoulli_env([0.3, 0.5, 0.5, 0.5, 0.6], 400, seed=6)
    fixed = run_game(g, LearnerSpec(preset="strong"), env, 9)
    informed = run_game(g, LearnerSpec(preset="strong", mode="informed"), env, 9)
    assert np.array_equal(informed.actions, fixed.actions)
    assert np.array_equal(informed.incurred, fixed.incurred)
    assert informed.player_loss == fixed.player_loss


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
    # chi never reaches the player, so both branches play the same actions
    assert np.array_equal(runs[0].actions, runs[1].actions)
    assert (runs[0].regret + runs[1].regret) / 2 == 250.0
    # always-arm-1 gives (T/2)/2 + 0 = T/4; never-arm-1 gives 0 + (T/2)/2
    if spec.algorithm == "constant":
        m = 1000 if spec.constant_action == 1 else 0
        assert runs[1].regret == pytest.approx(m / 2)
        assert runs[0].regret == pytest.approx((1000 - m) / 2)


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
    # a cell's row depends on its (horizon index, rep) alone, not on the
    # other games the sweep plays in lockstep beside it
    rows = sweep(bandit_sweep_config()).rows
    assert sweep(bandit_sweep_config(reps=1)).rows == [r for r in rows if r["rep"] == 0]
    assert sweep(bandit_sweep_config(horizons=(64,))).rows == [r for r in rows if r["T"] == 64]


def test_sweep_csv_schema(tmp_path):
    report = sweep(bandit_sweep_config())
    path = tmp_path / "rows.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(report.rows)


def test_sweep_rows_carry_exactly_the_csv_columns(tmp_path):
    report = sweep(bandit_sweep_config())
    assert all(tuple(row) == CSV_COLUMNS for row in report.rows)
    report.rows[0]["stray"] = 0.0
    with pytest.raises(ValueError):
        report.write_csv(tmp_path / "rows.csv")


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
    games, builds = [], []
    play = harness.run_game
    build = harness.build_environment

    def counted(*args):
        games.append(args)
        return play(*args)

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "run_game", counted)
    monkeypatch.setattr(harness, "build_environment", counted_build)
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
    # the sweep plays its games in lockstep without calling run_game, so an
    # environment built would be the first sign of a game started
    assert games == []
    assert builds == []


def test_sweep_refuses_out_of_reach_graph_sequence_before_any_round(monkeypatch):
    draws = []
    draw = learners.sample_index

    def counted(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(learners, "sample_index", counted)
    config = SweepConfig(
        **thm7(41), learner=LearnerSpec(**MANUAL, mode="uninformed"),
        horizons=(64, 128), reps=2,
    )
    # each cell's first graph is profiled as its batch is set up
    with pytest.raises(ValueError, match="exceeds the exact independence-solver cap"):
        sweep(config)
    assert draws == []


def test_sweep_refuses_a_non_positive_horizon_before_any_game(monkeypatch):
    builds = []
    build = harness.build_environment

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_environment", counted_build)
    config = SweepConfig(
        graph=catalog("clique_minus", 5),
        graph_name="clique_minus",
        learner=LearnerSpec(algorithm="exp3g", preset="weak"),
        env=EnvSpec("thm8", {}),
        horizons=(0, 64),
        reps=2,
    )
    with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
        sweep(config)
    assert builds == []


def test_negative_seed_refused_by_name():
    # numpy's SeedSequence would refuse it too, without naming the seed
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        harness.cell_streams(-1, 0, 0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        sweep(replace(bandit_sweep_config(), seed=-3))


@pytest.mark.parametrize("seed", [-1, np.int64(-1)], ids=["int", "numpy_int"])
def test_negative_game_seed_refused_by_name(seed):
    # run_game and run_games pass an int seed to default_rng, whose own error
    # does not name it
    env = bernoulli_env([0.5, 0.5, 0.5], 10, seed=0)
    spec = LearnerSpec(algorithm="exp3g", **MANUAL)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_game(catalog("bandit", 3), spec, env, seed)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        harness.run_games(catalog("bandit", 3), spec, [env, env], [0, seed])
    assert run_game(catalog("bandit", 3), spec, env, 0).horizon == 10


@pytest.mark.parametrize("seed", [True, 2.0, "3"], ids=["bool", "float", "str"])
def test_non_integer_game_seed_refused_by_name(seed):
    # numpy would play True as seed 1 and raise a TypeError naming no seed
    # for the others
    env = bernoulli_env([0.5, 0.5, 0.5], 10, seed=0)
    spec = LearnerSpec(algorithm="exp3g", **MANUAL)
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
        run_game(catalog("bandit", 3), spec, env, seed)
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
        harness.run_games(catalog("bandit", 3), spec, [env, env], [0, seed])


def test_sweep_repeats_identically():
    config = bandit_sweep_config()
    first = sweep(config)
    second = sweep(config)
    assert first.rows == second.rows


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
    g = catalog("clique_minus", 4)
    spec = LearnerSpec(algorithm="exp3g", preset="weak", mode="informed")
    env = table_env(table)
    reference = play_learner(DoublingExp3G(4), env, 1, graph=g, mode="informed")
    out = doubling_wrapper(g, spec, env, 1)
    assert out.horizon == horizon
    # the harness plays the doubling learner's game exactly
    assert np.array_equal(out.actions, reference)
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
    doubling = run_game(g, replace(spec, preset="doubling"), env, 7)
    assert np.array_equal(out.actions, doubling.actions)


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


def test_doubling_profiles_each_distinct_graph_once(monkeypatch):
    calls = []
    for module in (learners, harness):
        original = module.graph_profile

        def counted(g, original=original):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(module, "graph_profile", counted)
    env = uninformed_separation_env(8, 1000, seed=3)
    spec = LearnerSpec(algorithm="exp3g", preset="manual", mode="informed")
    out = doubling_wrapper(None, spec, env, 4)
    assert out.horizon == 1000
    assert len(calls) <= len(env.graphs) + 1


# ---------------------------------------------------------------------------
# the lockstep engine


def thm7(k):
    return dict(graph=None, graph_name="thm7-sequence", env=EnvSpec("thm7", {"k": k}))


BERNOULLI4 = EnvSpec("bernoulli", {"mu": (0.3, 0.5, 0.5, 0.7)})


LOCKSTEP_CASES = {
    "fixed": dict(
        graph=catalog("clique_minus", 5), graph_name="clique_minus",
        learner=LearnerSpec(algorithm="exp3g", **MANUAL), env=EnvSpec("thm8", {}),
        chi_average=True,
    ),
    "informed": dict(
        **thm7(6), learner=LearnerSpec(preset="uninformed", mode="informed"),
    ),
    "uninformed": dict(
        **thm7(6), learner=LearnerSpec(preset="uninformed", mode="uninformed"),
    ),
    "doubling": dict(
        **thm7(6), learner=LearnerSpec(preset="doubling", mode="informed"),
    ),
    "hedge": dict(
        graph=catalog("full", 4), graph_name="full",
        learner=LearnerSpec(algorithm="hedge", eta=0.1), env=BERNOULLI4,
    ),
    "uniform": dict(
        graph=catalog("loopy_star", 4), graph_name="loopy_star",
        learner=LearnerSpec(algorithm="uniform"), env=BERNOULLI4,
    ),
    "constant": dict(
        graph=catalog("loopy_star", 4), graph_name="loopy_star",
        learner=LearnerSpec(algorithm="constant", constant_action=2), env=BERNOULLI4,
    ),
    # the planted weak instance, built from the graph (on clique_minus its
    # capped set has one vertex, and it falls back to the thm8 table)
    "thm5": dict(
        graph=catalog("revealing_action", 6), graph_name="revealing_action",
        learner=LearnerSpec(preset="weak"), env=EnvSpec("thm5"),
    ),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_rows_never_mix(case):
    # mixed horizons, so rows retire at different rounds of the lockstep run
    config = SweepConfig(**LOCKSTEP_CASES[case], horizons=(37, 100, 256), reps=3, seed=5)
    rows = sweep(config).rows
    cells = [(hi, rep) for hi in range(3) for rep in range(3)]
    chis = CHI_PAIRS["thm8"] if config.chi_average else (None,)
    for (hi, rep), row in zip(cells, rows):
        horizon = config.horizons[hi]
        env_ss, player_ss = harness.cell_streams(config.seed, hi, rep)
        runs = []
        for chi in chis:
            env = build_environment(config.env, horizon, env_ss, graph=config.graph, chi=chi)
            runs.append(run_game(config.graph, config.learner, env, player_ss))
        assert (row["T"], row["rep"]) == (horizon, rep)
        # the cell's action count and environment kind are its environment's
        assert (row["K"], row["env"]) == (env.num_actions, env.kind)
        assert row["player_loss"] == float(np.mean([r.player_loss for r in runs]))
        assert row["best_fixed_loss"] == float(np.mean([r.best_fixed_loss for r in runs]))
        assert row["regret"] == float(np.mean([r.regret for r in runs]))


def test_lockstep_transcripts_equal_single_games():
    g = catalog("loopy_star", 5)
    spec = LearnerSpec(algorithm="exp3g", preset="strong")
    envs = [bernoulli_env([0.3, 0.5, 0.5, 0.5, 0.6], horizon, seed=i)
            for i, horizon in enumerate((90, 300, 17, 300, 1))]
    games = [harness._Game(e.horizon, lambda e=e: e, i) for i, e in enumerate(envs)]
    batch = dict(harness._play(g, spec, games))
    for i, env in enumerate(envs):
        run = batch[i]
        single = run_game(g, spec, env, i)
        assert np.array_equal(run.actions, single.actions)
        assert np.array_equal(run.incurred, single.incurred)
        assert run.player_loss == single.player_loss


@pytest.mark.parametrize("doubling", [False, True], ids=["plain", "doubling"])
def test_segments_tile_the_rounds(doubling):
    rng = np.random.default_rng(22)
    draws = [rng.integers(1, 70, size=rng.integers(1, 8)) for _ in range(200)]
    # ties, single rounds and powers of two (games that end on a restart)
    draws += [[1], [1, 1], [2, 1], [16, 8, 8, 4, 2, 1], [15, 7, 3, 1], [64, 63, 33, 32]]
    for draw in draws:
        horizons = sorted((int(h) for h in draw), reverse=True)
        segments = harness._segments(horizons, doubling)
        cells, starts = [], set()
        for first, rounds, live, base, epoch in segments:
            assert base == len(cells) and rounds > 0  # contiguous, segment-major
            cells += [(r, t) for t in range(first, first + rounds) for r in range(live)]
            last = first + rounds
            assert live == sum(h > first for h in horizons) == sum(h >= last for h in horizons)
            starts.add(first)
            if doubling:  # inside one epoch: 1-based rounds 2^e .. 2^(e+1) - 1
                assert epoch == (first + 1).bit_length() - 1 == last.bit_length() - 1
            else:
                assert epoch == 0
        assert sorted(cells) == sorted((r, t) for r, h in enumerate(horizons) for t in range(h))
        assert len(cells) == sum(horizons)
        ends = set(horizons) - {horizons[0]}
        restarts = {(1 << e) - 1 for e in range(horizons[0].bit_length())} if doubling else {0}
        assert starts == {0} | ends | restarts


RUN_GAMES_CASES = {
    # mixed horizons and float losses, one fixed graph
    "fixed": (catalog("loopy_star", 5), LearnerSpec(algorithm="exp3g", preset="strong"),
              lambda i, horizon: bernoulli_env([0.3, 0.5, 0.5, 0.5, 0.6], horizon, seed=i)),
    # each game brings its own graph sequence
    "uninformed": (None, LearnerSpec(algorithm="exp3g", preset="uninformed", mode="uninformed"),
                   lambda i, horizon: uninformed_separation_env(6, horizon, seed=i)),
    # segment edges (the horizons below): the games of 1, 3, 7 and 15 rounds
    # end where the doubling trick restarts (rounds 2, 4, 8, 16), two games
    # end together and one lasts a single round
    "doubling": (None, LearnerSpec(preset="doubling", mode="informed"),
                 lambda i, horizon: uninformed_separation_env(6, horizon, seed=i)),
    "hedge": (catalog("full", 4), LearnerSpec(algorithm="hedge", eta=0.1),
              lambda i, horizon: bernoulli_env([0.3, 0.5, 0.5, 0.7], horizon, seed=i)),
    "constant": (catalog("loopy_star", 4), LearnerSpec(algorithm="constant", constant_action=3),
                 lambda i, horizon: bernoulli_env([0.3, 0.5, 0.5, 0.7], horizon, seed=i)),
    "uniform": (catalog("loopy_star", 4), LearnerSpec(algorithm="uniform"),
                lambda i, horizon: bernoulli_env([0.3, 0.5, 0.5, 0.7], horizon, seed=i)),
}
SEGMENT_EDGE_CASES = ("doubling", "hedge", "constant", "uniform")


@pytest.mark.parametrize("case", sorted(RUN_GAMES_CASES))
def test_run_games_equals_run_game_game_by_game(case):
    graph, spec, make_env = RUN_GAMES_CASES[case]
    horizons = (
        (1, 2, 3, 4, 7, 8, 8, 15, 16) if case in SEGMENT_EDGE_CASES else (90, 300, 17, 300, 1)
    )
    envs = [make_env(i, horizon) for i, horizon in enumerate(horizons)]
    seeds = [np.random.SeedSequence(i) for i in range(len(envs))]
    runs = run_games(graph, spec, envs, seeds)
    assert len(runs) == len(envs)
    for env, seed, run in zip(envs, seeds, runs):
        single = run_game(graph, spec, env, seed)
        assert np.array_equal(run.actions, single.actions)
        assert np.array_equal(run.incurred, single.incurred)
        assert (run.player_loss, run.best_fixed_loss, run.regret) == (
            single.player_loss, single.best_fixed_loss, single.regret)
    with pytest.raises(ValueError, match="seeds"):
        run_games(graph, spec, envs, seeds[:-1])


MANUAL_RATES = dict(preset="manual", eta=0.05, gamma=0.1)
# case -> (the single-game learner, the mode its protocol plays, the same player as a spec)
LEARNER_CASES = {
    "fixed": (lambda: Exp3G(5, 0.05, 0.1, graph=catalog("loopy_star", 5)), "fixed",
              LearnerSpec(**MANUAL_RATES)),
    "informed": (lambda: Exp3G(6, 0.05, 0.1, mode="informed"), "informed",
                 LearnerSpec(**MANUAL_RATES, mode="informed")),
    "uninformed": (lambda: Exp3G(6, 0.05, 0.1, mode="uninformed"), "uninformed",
                   LearnerSpec(**MANUAL_RATES, mode="uninformed")),
    "doubling": (lambda: DoublingExp3G(6), "informed",
                 LearnerSpec(preset="doubling", mode="informed")),
    # every round strongly observable: each restart takes the strong tuning
    "doubling_strong": (lambda: DoublingExp3G(5), "informed",
                        LearnerSpec(preset="doubling", mode="informed")),
    "hedge": (lambda: HedgePlayer(5, 0.1), "fixed", LearnerSpec(algorithm="hedge", eta=0.1)),
    "uniform": (lambda: UniformRandom(5), "fixed", LearnerSpec(algorithm="uniform")),
    "constant": (lambda: ConstantAction(4), "fixed",
                 LearnerSpec(algorithm="constant", constant_action=4)),
}


@pytest.mark.parametrize("case", sorted(LEARNER_CASES))
def test_learner_classes_play_the_engine_game(case):
    make, mode, spec = LEARNER_CASES[case]
    if case in ("informed", "uninformed", "doubling"):
        graph, env = None, uninformed_separation_env(6, 300, seed=8)
    else:
        graph = catalog("full" if case == "hedge" else "loopy_star", 5)
        env = bernoulli_env([0.3, 0.5, 0.5, 0.5, 0.6], 300, seed=8)
    reference = play_learner(make(), env, 9, graph=graph, mode=mode)
    assert np.array_equal(run_game(graph, spec, env, 9).actions, reference)


@pytest.mark.parametrize("side", ["strong", "weak"])
def test_pilot_rows_reproduce_committed_csv(side, tmp_path):
    reps = 4
    config = replace(run_pilot().SEPARATION[side], reps=reps)
    path = tmp_path / f"{side}.csv"
    sweep(config).write_csv(path)
    lines = path.read_bytes().splitlines()
    committed = (ROOT / "pilot" / f"rate_separation_{side}.csv").read_bytes().splitlines()
    committed_reps = (len(committed) - 1) // len(config.horizons)
    want = [committed[0]] + [
        committed[1 + hi * committed_reps + rep]
        for hi in range(len(config.horizons)) for rep in range(reps)
    ]
    assert lines == want


def test_pilot_summary_reproduces_committed_file():
    # the summary of the committed rows is the committed summary
    reports = {}
    for side in ("strong", "weak"):
        with open(ROOT / "pilot" / f"rate_separation_{side}.csv", newline="") as fh:
            rows = [dict(row, T=int(row["T"]), regret=float(row["regret"]))
                    for row in csv.DictReader(fh)]
        reports[side] = ExperimentReport(rows)
    lines = run_pilot().summary(reports["strong"], reports["weak"])
    assert ("\n".join(lines) + "\n").encode() == (ROOT / "pilot" / "summary.txt").read_bytes()
