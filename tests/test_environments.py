import hashlib
import math

import numpy as np
import pytest

from graphbandit.environments import (
    CHI_PAIRS,
    Environment,
    EnvSpec,
    bernoulli_env,
    build_environment,
    domination_capped_independent_set,
    hidden_arm_env,
    load_loss_table,
    save_loss_table,
    simple_weak_env,
    table_env,
    uninformed_separation_env,
    weak_lower_env,
)
from graphbandit.graph import FeedbackGraph, GraphClass, catalog, profile
from graphbandit.harness import LearnerSpec, SweepConfig, sweep

from oracles import (
    domination_counts,
    in_neighbors,
    is_independent,
    random_weakly_observable_graph,
    reference_capped_independent_set,
)


# ---------------------------------------------------------------------------
# fixed tables


def test_table_env_replays_verbatim():
    env = table_env([[0.0, 1.0]])
    assert env.horizon == 1 and env.num_actions == 2
    assert np.array_equal(env.losses[0], [0.0, 1.0])


def test_table_env_deterministic_replay():
    table = np.random.default_rng(0).uniform(0, 1, size=(5, 3))
    a, b = table_env(table), table_env(table)
    assert np.array_equal(a.losses, b.losses)


def test_table_env_rejects_out_of_range():
    with pytest.raises(ValueError):
        table_env([[0.0, 1.5]])
    with pytest.raises(ValueError):
        table_env([[-0.1, 0.5]])


def test_table_env_accepts_the_ends_of_the_range():
    assert table_env([[-0.0, 1.0]]).num_actions == 2
    assert table_env(np.zeros((0, 3))).horizon == 0


def test_table_roundtrip(tmp_path):
    table = np.random.default_rng(1).uniform(0, 1, size=(7, 4))
    path = tmp_path / "table.csv"
    save_loss_table(path, table)
    assert np.allclose(load_loss_table(path), table)


def test_table_spec_given_a_path_loads_the_file(tmp_path):
    # `table` is an array or a file path, given as a str or a PathLike
    table = np.random.default_rng(2).uniform(0, 1, size=(6, 3))
    path = tmp_path / "table.csv"
    save_loss_table(path, table)
    for given in (path, str(path)):
        env = build_environment(EnvSpec("table", {"table": given}), 6, 0)
        assert np.array_equal(env.losses, load_loss_table(path))


# ---------------------------------------------------------------------------
# Bernoulli


def test_bernoulli_degenerate_means():
    env = bernoulli_env([0.0, 1.0], 50, seed=0)
    assert np.all(env.losses[:, 0] == 0.0)
    assert np.all(env.losses[:, 1] == 1.0)


def test_bernoulli_empirical_mean():
    horizon = 100_000
    env = bernoulli_env([0.5], horizon, seed=42)
    sigma = math.sqrt(0.25 / horizon)
    assert abs(env.losses.mean() - 0.5) <= 3 * sigma


def test_bernoulli_seed_determinism():
    a = bernoulli_env([0.3, 0.7], 100, seed=9)
    b = bernoulli_env([0.3, 0.7], 100, seed=9)
    c = bernoulli_env([0.3, 0.7], 100, seed=10)
    assert np.array_equal(a.losses, b.losses)
    assert not np.array_equal(a.losses, c.losses)


def test_bernoulli_rejects_bad_means():
    with pytest.raises(ValueError):
        bernoulli_env([0.5, 1.2], 10, seed=0)


# ---------------------------------------------------------------------------
# hidden-arm construction (thm4)


def test_hidden_arm_chi_one():
    env = hidden_arm_env(1, 100, 3)
    assert np.all(env.losses[:, 0] == 1.0)
    assert np.all(env.losses[:, 1:] == 0.5)
    assert env.losses[:, 1].sum() == pytest.approx(50.0)


def test_hidden_arm_chi_zero():
    env = hidden_arm_env(0, 100, 3)
    assert env.losses[:, 0].sum() == 0.0


def test_hidden_arm_validates_chi():
    with pytest.raises(ValueError):
        hidden_arm_env(2, 10, 3)


# ---------------------------------------------------------------------------
# two-good-arms construction (thm8)


def test_simple_weak_means_and_gap():
    env = simple_weak_env(8000, 5, chi=1, seed=0)
    assert env.params["eps"] == pytest.approx(0.025)
    assert env.means[0] == pytest.approx(0.475)
    assert env.means[1] == pytest.approx(0.5)
    assert np.all(env.means[2:] == 1.0)
    env_neg = simple_weak_env(8000, 5, chi=-1, seed=0)
    assert env_neg.means[0] == pytest.approx(0.525)


def test_simple_weak_eps_clipped():
    env = simple_weak_env(2, 3, chi=1, seed=0)
    assert env.params["eps"] <= 0.25


def test_simple_weak_needs_three_actions():
    with pytest.raises(ValueError):
        simple_weak_env(100, 2, chi=1, seed=0)


# ---------------------------------------------------------------------------
# planted-subset construction (thm5)


def test_weak_lower_means_structure():
    g = catalog("revealing_action", 8)  # W = {2..8}, plenty of room
    env = weak_lower_env(g, 1000, seed=5)
    support = env.params["support"]
    assert len(support) >= 2
    chi = env.params["chi"]
    assert chi in support
    for v in range(1, 9):
        if v == chi:
            assert env.means[v - 1] == pytest.approx(0.5 - env.params["eps"])
        elif v in support:
            assert env.means[v - 1] == pytest.approx(0.5)
        else:
            assert env.means[v - 1] == 1.0


def test_weak_lower_eps_formula():
    g = catalog("revealing_action", 8)
    env = weak_lower_env(g, 1000, seed=5)
    m = len(env.params["support"])
    expected = m ** (1 / 3) * (32 * 1000 * math.log(8)) ** (-1 / 3)
    assert env.params["eps"] == pytest.approx(min(expected, 0.25))


def test_weak_lower_empirical_means():
    g = catalog("revealing_action", 6)
    horizon = 40_000
    env = weak_lower_env(g, horizon, seed=11)
    for i in range(6):
        mu = env.means[i]
        sigma = math.sqrt(max(mu * (1 - mu), 1e-12) / horizon)
        assert abs(env.losses[:, i].mean() - mu) <= 3 * sigma + 1e-9


def _chorded_cycle(n, chords, rng):
    # every vertex dominates its successor; `chords` random extra edges
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    edges += [(int(u), int(v)) for u, v in rng.integers(1, n + 1, size=(chords, 2))]
    return FeedbackGraph(n, edges)


# per (graph, horizon, seed) case, the SHA-256 of the environment's kind,
# losses, means and params, recorded before the capped set moved onto
# bitmasks; no workload plays thm5, so these pin its tables. The last case
# has one weakly observable vertex and falls back to the thm8 instance.
WEAK_LOWER_DIGESTS = {
    "revealing_action": "2c4bd1670a6825c7057a80a4e263dd85ec0ed1655f9390a4cf50d1cecc54186a",
    "random": "2f509d11fa7434f82a845287bf028ab2edfcd8bba7913bc5cb02c4c7b59134b6",
    "cycle": "9336ef2965be383c7ceb47d2d297b029a885e8144b70d32f0f4cc6e848bb14c6",
    "fallback": "df2f486d0324d165ad2e2b9e88bdd13ca735c7302c2f5d8f62a039cddecb1f6b",
}


def _weak_lower_cases():
    rng = np.random.default_rng(1205)
    return {
        "revealing_action": (catalog("revealing_action", 8), 1000, 5),
        "random": (random_weakly_observable_graph(rng, max_vertices=14), 512, 6),
        "cycle": (_chorded_cycle(300, 0, rng), 256, 7),
        "fallback": (catalog("clique_minus", 5), 512, 8),
    }


def test_weak_lower_env_matches_recorded_digests():
    for name, (g, horizon, seed) in _weak_lower_cases().items():
        env = weak_lower_env(g, horizon, seed=seed)
        digest = hashlib.sha256()
        digest.update(env.kind.encode())
        digest.update(env.losses.tobytes())
        digest.update(env.means.tobytes())
        digest.update(repr(sorted(env.params.items())).encode())
        assert digest.hexdigest() == WEAK_LOWER_DIGESTS[name], name


def test_weak_lower_falls_back_to_simple_weak():
    # a single weakly observable vertex cannot host a planted subset
    g = catalog("clique_minus", 5)
    env = weak_lower_env(g, 512, seed=3)
    assert env.kind == "thm8"


# ---------------------------------------------------------------------------
# shifting-revealer construction (thm7)


def test_uninformed_separation_graph_properties():
    env = uninformed_separation_env(6, 64, seed=0)
    for g in env.graphs:
        prof = profile(g)
        assert prof.graph_class is GraphClass.WEAKLY_OBSERVABLE
        assert prof.alpha == 1 and prof.delta == 1


def test_uninformed_separation_only_revealer_sees_arm_one():
    env = uninformed_separation_env(6, 200, seed=1)
    for t in range(200):
        g = env.graph_at(t)
        watchers = in_neighbors(g, 1)
        assert len(watchers) == 1
        revealer = next(iter(watchers))
        assert 3 <= revealer <= 6
        for a in range(1, 7):
            assert (1 in g.out_neighbors(a)) == (a == revealer)


def test_uninformed_separation_eps():
    env = uninformed_separation_env(8, 512, seed=0)
    assert env.params["eps"] == pytest.approx(1 / 16)


def test_uninformed_separation_needs_four_actions():
    with pytest.raises(ValueError):
        uninformed_separation_env(3, 100, seed=0)


def test_uninformed_separation_revealers_cover_range():
    env = uninformed_separation_env(8, 2000, seed=2)
    seen = {next(iter(in_neighbors(env.graph_at(t), 1))) for t in range(2000)}
    assert seen == set(range(3, 9))


# ---------------------------------------------------------------------------
# obliviousness


def test_environments_are_oblivious():
    spec = EnvSpec("thm7", {})
    a = build_environment(spec, 100, 7, num_actions=5)
    b = build_environment(spec, 100, 7, num_actions=5)
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.graph_index, b.graph_index)
    assert a.params["chi"] == b.params["chi"]


@pytest.mark.parametrize("kind,params", [
    ("bernoulli", {"mu": (0.3, 0.5, 0.5)}),
    ("thm4", {}),
    ("thm8", {}),
    ("thm8", {"eps": 0.1}),
    ("thm5", {}),
    ("thm7", {}),
])
@pytest.mark.parametrize("horizon", [0, -5])
def test_build_environment_refuses_a_horizon_below_one(kind, params, horizon):
    # refused before any default gap formula (eps ~ T^(-1/3)) divides by zero
    with pytest.raises(ValueError, match=f"horizon must be >= 1, got {horizon}"):
        build_environment(EnvSpec(kind, params), horizon, 0, num_actions=3,
                          graph=catalog("revealing_action", 3))


def test_thm7_is_sized_by_its_k_alone():
    env = build_environment(EnvSpec("thm7", {"k": 8}), 64, 0)
    want = uninformed_separation_env(8, 64, 0)
    assert env.num_actions == 8
    assert np.array_equal(env.losses, want.losses)
    assert np.array_equal(env.graph_index, want.graph_index)


@pytest.mark.parametrize("kind", sorted(CHI_PAIRS))
def test_chi_pairs_are_the_branches_each_construction_takes(kind):
    for chi in CHI_PAIRS[kind]:
        env = build_environment(EnvSpec(kind, {"chi": chi}), 16, 0, num_actions=4)
        assert env.params["chi"] == chi
    with pytest.raises(ValueError, match="chi must be"):
        build_environment(EnvSpec(kind, {"chi": 2}), 16, 0, num_actions=4)


def test_thm5_environment_needs_the_graph():
    with pytest.raises(ValueError, match="thm5 environment needs the feedback graph"):
        build_environment(EnvSpec("thm5"), 64, 0, num_actions=6)


def test_losses_are_binary_or_half():
    envs = [
        hidden_arm_env(1, 50, 4),
        simple_weak_env(50, 4, chi=1, seed=0),
        uninformed_separation_env(50, 5, seed=0),
    ]
    for env in envs:
        vals = set(np.unique(env.losses).tolist())
        assert vals <= {0.0, 0.5, 1.0}


# ---------------------------------------------------------------------------
# refusals


NAN = float("nan")
THM4 = EnvSpec("thm4")


def _sweep(env=THM4, horizons=(64,), reps=1, chi_average=False, seed=0):
    return sweep(SweepConfig(catalog("bandit", 3), "bandit", LearnerSpec(algorithm="uniform"),
                             env, horizons, reps, seed=seed, chi_average=chi_average))


REFUSALS = {
    # NaN fails every range check
    "nan_loss": (lambda: table_env([[0.5, NAN]]), "losses must lie in"),
    "nan_mean": (lambda: bernoulli_env([0.5, NAN], 10, 0), "means must lie in"),
    "nan_eps": (lambda: simple_weak_env(10, 3, 1, 0, eps=NAN), "eps must be positive"),
    "zero_eps": (lambda: simple_weak_env(10, 3, 1, 0, eps=0.0), "eps must be positive"),
    # a parameter no code reads
    "bernoulli_chi": (lambda: EnvSpec("bernoulli", {"mu": (0.5,), "chi": 1}), "reads no chi"),
    "thm4_eps": (lambda: EnvSpec("thm4", {"eps": 0.1}), "reads no eps"),
    "thm8_k": (lambda: EnvSpec("thm8", {"k": 5}), "reads no k"),
    "table_mu": (lambda: EnvSpec("table", {"table": "t.csv", "mu": (0.5,)}), "reads no mu"),
    "table_path": (lambda: EnvSpec("table", {"path": "t.csv"}), "reads no path; it takes table$"),
    "chi_average_with_chi": (lambda: _sweep(EnvSpec("thm4", {"chi": 1}), chi_average=True),
                             "chi averaging"),
    # an integer that is not one is refused by name, not truncated
    "float_chi": (lambda: build_environment(EnvSpec("thm4", {"chi": 0.7}), 10, 0, 3),
                  "chi must be an integer"),
    "bool_chi": (lambda: build_environment(EnvSpec("thm4", {"chi": True}), 10, 0, 3),
                 "chi must be an integer"),
    "float_chi_override": (lambda: build_environment(THM4, 10, 0, 3, chi=1.0),
                           "chi must be an integer"),
    "float_horizon": (lambda: build_environment(THM4, 10.0, 0, 3), "horizon must be an integer"),
    "sweep_float_horizon": (lambda: _sweep(horizons=(64.5,)), "horizon must be an integer"),
    "sweep_bool_horizon": (lambda: _sweep(horizons=(True,)), "horizon must be an integer"),
    "sweep_float_reps": (lambda: _sweep(reps=2.0), "reps must be an integer"),
    "sweep_bool_seed": (lambda: _sweep(seed=True), "seed must be an integer"),
    "sweep_float_seed": (lambda: _sweep(seed=2.0), "seed must be an integer"),
    "sweep_str_seed": (lambda: _sweep(seed="3"), "seed must be an integer"),
    "float_action_count": (lambda: build_environment(EnvSpec("thm7"), 10, 0, 8.0),
                           "num_actions must be an integer"),
    "float_k": (lambda: build_environment(EnvSpec("thm7", {"k": 8.0}), 10, 0),
                "k must be an integer"),
    # the action count has one source; a second one that disagrees is refused
    "k_against_num_actions": (
        lambda: build_environment(EnvSpec("thm7", {"k": 8}), 64, 0, num_actions=6),
        "k is 8 but num_actions is 6"),
    "graph_against_num_actions": (
        lambda: build_environment(EnvSpec("thm8"), 64, 0, 4, graph=catalog("clique_minus", 5)),
        "the graph's vertex count is 5 but num_actions is 4"),
    "mu_against_num_actions": (
        lambda: build_environment(EnvSpec("bernoulli", {"mu": (0.5,) * 3}), 64, 0, 5),
        "num_actions is 5 but the bernoulli environment has 3 actions"),
    "table_against_graph": (
        lambda: build_environment(EnvSpec("table", {"table": [[0.5, 0.5]]}), 1, 0,
                                  graph=catalog("full", 3)),
        "the graph's vertex count is 3 but the table environment has 2 actions"),
    "graph_against_k": (
        lambda: build_environment(EnvSpec("thm7", {"k": 8}), 64, 0, graph=catalog("full", 5)),
        "the graph's vertex count is 5 but k is 8"),
    # the constructions' own checks
    "shape": (lambda: Environment("table", np.zeros((2, 2, 1))), "two-dimensional"),
    "no_sequence": (lambda: table_env([[0.5]]).graph_at(0), "no graph sequence"),
    # t = -1 once read round T-1's graph, and t = T died in numpy's IndexError
    "graph_at_before_start": (lambda: uninformed_separation_env(5, 10, 0).graph_at(-1),
                              r"round t=-1 out of range 0\.\.9"),
    "graph_at_horizon": (lambda: uninformed_separation_env(5, 10, 0).graph_at(10),
                         r"round t=10 out of range 0\.\.9"),
    "one_dim_table": (lambda: table_env([0.5, 0.5]), "two-dimensional"),
    "hidden_arm_k1": (lambda: hidden_arm_env(0, 10, 1), "at least 2 actions"),
    "thm8_chi": (lambda: simple_weak_env(10, 3, 0, 0), "chi must be -1 or \\+1"),
    "thm5_chi": (lambda: weak_lower_env(catalog("revealing_action", 8), 100, 5, chi=1),
                 "support vertices"),
    # the two-arm fallback once swapped a chi it could not use for +1
    "thm5_fallback_chi": (
        lambda: build_environment(EnvSpec("thm5", {"chi": 7}), 64, 0,
                                  graph=catalog("clique_minus", 5)),
        "chi must be -1 or \\+1"),
    "thm7_chi": (lambda: uninformed_separation_env(5, 10, 0, chi=0), "chi must be -1 or \\+1"),
    "unknown_kind": (lambda: EnvSpec("thm9"), "unknown environment kind"),
    "no_action_count": (lambda: build_environment(THM4, 10, 0), "needs the action count"),
    "no_table": (lambda: build_environment(EnvSpec("table"), 10, 0), "needs `table`$"),
    "no_mu": (lambda: build_environment(EnvSpec("bernoulli"), 10, 0), "needs `mu`"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    make, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        make()


# ---------------------------------------------------------------------------
# exploration-resistant independent subsets


def test_capped_set_revealing_star():
    g = catalog("revealing_action", 5)
    result = domination_capped_independent_set(g, seed=0)
    assert result.vertices <= frozenset({2, 3, 4, 5})
    assert len(result.vertices) >= 1
    assert result.meets_size_bound
    assert not result.used_fallback


def test_capped_set_verified_on_random_graphs():
    rng = np.random.default_rng(14)
    for _ in range(25):
        g = random_weakly_observable_graph(rng, max_vertices=12)
        result = domination_capped_independent_set(g, seed=int(rng.integers(1 << 30)))
        members = sorted(result.vertices)
        assert members, "construction must return at least one vertex"
        assert is_independent(g, members)
        cap = math.ceil(math.log(g.num_vertices))
        assert max(domination_counts(g, members)) <= cap


def test_capped_set_probabilistic_regime():
    # a long cycle of weakly observable vertices: every vertex dominates
    # exactly its successor, so the minimal dominating set is the whole cycle
    n = 600
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    g = FeedbackGraph(n, edges)
    result = domination_capped_independent_set(g, seed=0)
    assert len(result.vertices) >= max(1, math.floor(n / (50 * math.log(n))))
    assert result.meets_size_bound
    assert is_independent(g, sorted(result.vertices))
    assert max(domination_counts(g, sorted(result.vertices))) <= result.cap


def test_capped_set_equals_reference(monkeypatch):
    # small random graphs take the greedy path; the long cycles, with and
    # without chords, are in the probabilistic regime (delta >= 50 ln K) or
    # close to it, and no attempts (CAPPED_SET_ATTEMPTS = 0) forces the
    # fallback there. The last graph, a 300-cycle plus a vertex 301 that
    # sees vertices 1..15, has delta = 287 >= 50 ln 301, and vertex 301
    # dominates more than the beta fraction, so the shrink step drops its 15
    rng = np.random.default_rng(1206)
    graphs = [random_weakly_observable_graph(rng, max_vertices=14) for _ in range(60)]
    graphs += [_chorded_cycle(n, chords, rng)
               for n, chords in ((300, 0), (300, 30), (550, 55), (800, 0))]
    graphs.append(FeedbackGraph(301, [(v, v % 300 + 1) for v in range(1, 301)]
                                + [(301, v) for v in range(1, 16)] + [(1, 301)]))
    for g in graphs:
        seed = int(rng.integers(1 << 30))
        for max_attempts in (64, 0):
            monkeypatch.setattr("graphbandit.environments.CAPPED_SET_ATTEMPTS", max_attempts)
            got = domination_capped_independent_set(g, seed=seed)
            want = reference_capped_independent_set(g, seed=seed, max_attempts=max_attempts)
            assert got == want, (g, max_attempts)


def test_capped_set_needs_weak_vertices():
    with pytest.raises(ValueError):
        domination_capped_independent_set(catalog("full", 4))
