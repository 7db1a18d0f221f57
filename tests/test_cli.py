import csv

import numpy as np
import pytest

from graphbandit import environments, harness
from graphbandit.cli import main
from graphbandit.graph import catalog
from oracles import format_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        for token in line.split():
            if "=" in token:
                key, value = token.split("=", 1)
                pairs[key] = value
    return pairs


def test_profile_loopy_star(capsys):
    code, out, _ = run_cli(capsys, "profile", "--catalog", "loopy_star", "--k", "6")
    assert code == 0
    kv = parse_kv(out)
    assert kv["class"] == "strongly_observable"
    assert kv["alpha"] == "5"
    assert kv["delta"] == "0"


def test_profile_not_observable_reports_delta_na(capsys, tmp_path):
    path = tmp_path / "blind.graph"
    # vertex 1 unobservable, vertex 2 weakly observable, vertex 3 strong
    path.write_text("3\n3 3\n3 2\n2 3\n1 3\n")
    code, out, _ = run_cli(capsys, "profile", str(path))
    assert code == 0
    kv = parse_kv(out)
    assert kv["class"] == "not_observable"
    assert kv["delta"] == "n/a"
    assert kv["rate_formula"] == "T"


def test_classify_clique_minus_file(capsys, tmp_path):
    path = tmp_path / "fig1f.graph"
    path.write_text(format_graph(catalog("clique_minus", 5)))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert parse_kv(out)["class"] == "weakly_observable"


def test_malformed_edge_line_exits_2_with_line_number(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("3\n1 2\n9 1\n")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "line 3" in err


def test_missing_graph_source_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify")
    assert code == 2
    assert "graph source" in err


def test_two_graph_sources_exit_2(capsys, tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(format_graph(catalog("bandit", 2)))
    code, _, err = run_cli(capsys, "classify", str(path), "--catalog", "bandit", "--k", "2")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify", "--catalog", "bandit", "--k", "2", "--frobnicate"])
    assert err.value.code == 2


def test_run_thm4_pair_averages_to_quarter_t(capsys, tmp_path):
    path = tmp_path / "blind1.graph"
    path.write_text("3\n1 2\n1 3\n2 2\n2 3\n3 2\n3 3\n")  # vertex 1 unobservable
    args = [
        "run", "--graph", str(path), "--env", "thm4",
        "--T", "1000", "--seed", "5", "--preset", "manual", "--eta", "0.2",
        "--gamma", "0.1",
    ]
    code0, out0, _ = run_cli(capsys, *args, "--chi", "0")
    code1, out1, _ = run_cli(capsys, *args, "--chi", "1")
    assert code0 == 0 and code1 == 0
    r0 = float(parse_kv(out0)["regret"])
    r1 = float(parse_kv(out1)["regret"])
    assert (r0 + r1) / 2 == pytest.approx(250.0, abs=1e-9)


def test_run_deterministic_given_seed(capsys):
    args = [
        "run", "--catalog", "loopy_star", "--k", "5", "--env", "bernoulli",
        "--mu", "0.3,0.5,0.5,0.5,0.5", "--T", "200", "--seed", "7",
    ]
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


def test_sweep_row_count_and_csv(capsys, tmp_path):
    out_csv = tmp_path / "results.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--catalog", "bandit", "--k", "2", "--env", "bernoulli",
        "--mu", "0.3,0.5", "--T", "64,128", "--reps", "3", "--seed", "1",
        "--out", str(out_csv),
    )
    assert code == 0
    kv = parse_kv(out)
    assert kv["rows"] == "6"
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("graph,K,class,alpha,delta,learner,preset,mode,env,T,rep,seed")


def test_run_plays_the_sweep_cell_of_its_seed(capsys, tmp_path):
    game = [
        "--catalog", "loopy_star", "--k", "5", "--env", "bernoulli",
        "--mu", "0.3,0.5,0.5,0.5,0.5", "--T", "256", "--seed", "3",
    ]
    code, out, _ = run_cli(capsys, "run", *game)
    assert code == 0
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "sweep", *game, "--reps", "1", "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["rep"] == "0"
    assert float(parse_kv(out)["regret"]) == float(row["regret"])


def test_sweep_writes_the_env_it_built(capsys, tmp_path):
    # clique_minus K=6's capped independent set has fewer than two vertices,
    # so the thm5 request builds the thm8 two-arm table; the row says so
    game = ["--catalog", "clique_minus", "--k", "6", "--env", "thm5", "--preset", "weak",
            "--T", "512", "--seed", "1"]
    code, out, _ = run_cli(capsys, "run", *game)
    assert code == 0
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "sweep", *game, "--reps", "1", "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        row = next(csv.DictReader(fh))
    kv = parse_kv(out)
    assert kv["env"] == "thm8"
    assert (row["env"], float(row["regret"])) == (kv["env"], float(kv["regret"]))


def _cell_run(graph, spec, env_for):
    """`run_game` on the env that `env_for(env stream)` builds, with the
    player stream of the CLI's cell (0, 0) at seed 0."""
    env_ss, player_ss = harness.cell_streams(0, 0, 0)
    return harness.run_game(graph, spec, env_for(env_ss), player_ss)


def test_run_plays_a_loss_table_file(capsys, tmp_path):
    path = tmp_path / "t.csv"
    table = np.random.default_rng(9).integers(0, 5, size=(50, 3)) / 4
    environments.save_loss_table(path, table)
    game = ["run", "--catalog", "full", "--k", "3", "--env", "table", "--table", str(path),
            "--preset", "manual", "--eta", "0.1", "--gamma", "0.1"]
    code, out, _ = run_cli(capsys, *game, "--T", "50")
    assert code == 0
    spec = harness.LearnerSpec(preset="manual", eta=0.1, gamma=0.1)
    run = _cell_run(catalog("full", 3), spec, lambda _: environments.table_env(
        environments.load_loss_table(path)))
    kv = parse_kv(out)
    assert kv["env"] == "table"
    assert (float(kv["player_loss"]), float(kv["regret"])) == (run.player_loss, run.regret)
    code, out, err = run_cli(capsys, *game, "--T", "40")
    assert code == 2
    assert out == ""
    assert "table has 50 rows but horizon is 40" in err


def test_run_eps_sets_the_adversary_gap(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--catalog", "clique_minus", "--k", "5", "--env", "thm8", "--eps", "0.2",
        "--T", "300", "--preset", "manual", "--eta", "0.05", "--gamma", "0.2",
    )
    assert code == 0
    spec = harness.LearnerSpec(preset="manual", eta=0.05, gamma=0.2)
    run = _cell_run(catalog("clique_minus", 5), spec,
                    lambda env_ss: environments.simple_weak_env(300, 5, 1, env_ss, eps=0.2))
    kv = parse_kv(out)
    assert (float(kv["player_loss"]), float(kv["regret"])) == (run.player_loss, run.regret)
    # against the best arm in expectation, whose mean is 1/2 - eps
    assert float(kv["expected_regret"]) == run.player_loss - float(300 * (0.5 - 0.2))


@pytest.mark.parametrize("flags,message", [
    (("--env", "bernoulli", "--mu", "0.5,nan,0.5"), "means must lie in"),
    (("--env", "thm8", "--eps", "nan"), "eps must be positive"),
], ids=["mu", "eps"])
def test_nan_parameters_exit_2(capsys, flags, message):
    code, out, err = run_cli(capsys, "run", "--catalog", "full", "--k", "3", *flags, "--T", "10")
    assert (code, out) == (2, "")
    assert message in err


def test_nan_loss_table_exits_2(capsys, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.5,nan\n0,1\n1,0\n")
    code, out, err = run_cli(capsys, "run", "--catalog", "full", "--k", "2", "--env", "table",
                             "--table", str(path), "--T", "3")
    assert (code, out) == (2, "")
    assert "losses must lie in [0, 1]" in err


def test_unread_env_flags_exit_2(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "run", "--catalog", "full", "--k", "2", "--env", "bernoulli", "--mu", "0.3,0.5",
        "--chi", "1", "--eps", "0.2", "--table", str(tmp_path / "nofile.csv"),
    )
    assert (code, out) == (2, "")
    assert "the bernoulli environment reads no --chi, --eps, --table; it takes --mu" in err
    out_csv = tmp_path / "rows.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--catalog", "full", "--k", "3", "--env", "thm8", "--chi", "1",
        "--chi-average", "--T", "64", "--reps", "1", "--out", str(out_csv),
    )
    assert (code, out) == (2, "")
    assert "chi averaging" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("env,flags,message", [
    ("bernoulli", ("--mu", "0.3,0.5", "--table", "t.csv"), "reads no --table; it takes --mu"),
    ("table", ("--table", "t.csv", "--mu", "0.3,0.5"), "reads no --mu; it takes --table"),
    ("thm4", ("--eps", "0.2"), "reads no --eps; it takes --chi"),
    ("thm7", ("--mu", "0.5"), "reads no --mu; it takes --chi, --eps"),
], ids=["bernoulli_table", "table_mu", "thm4_eps", "thm7_mu"])
def test_unread_env_flags_are_named_by_their_flags(capsys, env, flags, message):
    # the refusal names the flag typed, not the parameter it would set
    # (--table sets `path`), before any file is read
    code, out, err = run_cli(capsys, "run", "--catalog", "full", "--k", "2", "--env", env, *flags)
    assert (code, out) == (2, "")
    assert f"error: the {env} environment {message}\n" == err


@pytest.mark.parametrize("flags,message", [
    ((), "thm7 environment needs the action count"),
    (("--catalog", "full", "--k", "5"), "the thm7 environment provides its own graph sequence"),
    # refused before the file is read
    (("--graph", "missing.txt"), "the thm7 environment provides its own graph sequence"),
], ids=["no_k", "catalog", "graph_file"])
def test_thm7_sequence_source_refused_at_the_boundary(capsys, flags, message):
    code, out, err = run_cli(capsys, "run", "--env", "thm7", "--mode", "uninformed", *flags)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (("classify", "--catalog", "full"), "--catalog needs --k"),
    (("sweep", "--catalog", "bandit", "--k", "2", "--env", "bernoulli", "--mu", "0.3,0.5",
      "--T", "64,x"), "bad horizon grid '64,x'; expected comma-separated integers"),
    (("run", "--catalog", "full", "--k", "3", "--env", "bernoulli", "--mu", "0.5,x"),
     "bad --mu '0.5,x'; expected comma-separated floats"),
], ids=["catalog_without_k", "horizon_grid", "mu"])
def test_malformed_flags_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_missing_learning_rates_exit_2(capsys):
    game = ["run", "--catalog", "full", "--k", "3", "--env", "bernoulli",
            "--mu", "0.3,0.5,0.5", "--T", "16"]
    code, _, err = run_cli(capsys, *game, "--learner", "hedge")
    assert code == 2
    assert "eta" in err
    code, _, err = run_cli(capsys, *game, "--preset", "manual", "--eta", "0.1")
    assert code == 2
    assert "gamma" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_thm7_fixed_mode_refused_at_the_boundary(capsys, tmp_path, command):
    code, out, err = run_cli(
        capsys, command, "--env", "thm7", "--k", "5", "--T", "64",
        *(("--out", str(tmp_path / "rows.csv")) if command == "sweep" else ()),
    )
    assert code == 2
    assert out == ""
    assert "the thm7 environment needs --mode informed or uninformed" in err


@pytest.mark.parametrize("command,grid", [("run", "0"), ("sweep", "0,64"), ("lowerbound", "0")])
def test_zero_horizon_refused_at_the_boundary(capsys, tmp_path, command, grid):
    flags = {
        "run": ("--catalog", "clique_minus", "--k", "5", "--env", "thm8"),
        "sweep": ("--catalog", "clique_minus", "--k", "5", "--env", "thm8", "--preset", "weak",
                  "--reps", "2", "--out", str(tmp_path / "rows.csv")),
        "lowerbound": ("--which", "all", "--k", "5"),
    }[command]
    code, out, err = run_cli(capsys, command, *flags, "--T", grid)
    assert code == 2
    assert out == ""
    assert "horizon must be >= 1, got 0" in err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("reps", ["0", "-1"])
@pytest.mark.parametrize("which", ["thm8", "thm7"])
def test_lowerbound_refuses_reps_below_one_at_the_boundary(capsys, which, reps):
    code, out, err = run_cli(capsys, "lowerbound", "--which", which, "--T", "64", "--reps", reps)
    assert code == 2
    assert out == ""
    assert "reps must be >= 1" in err


@pytest.mark.parametrize("command", ["run", "sweep", "lowerbound"])
def test_negative_seed_refused_at_the_boundary(capsys, tmp_path, command):
    flags = {
        "run": ("--catalog", "bandit", "--k", "2", "--T", "8"),
        "sweep": ("--catalog", "bandit", "--k", "2", "--T", "8,16", "--reps", "2",
                  "--out", str(tmp_path / "rows.csv")),
        "lowerbound": ("--which", "thm4", "--T", "8", "--k", "3"),
    }[command]
    code, out, err = run_cli(capsys, command, *flags, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed must be >= 0, got -1" in err
    assert not (tmp_path / "rows.csv").exists()


def test_thm7_uninformed_sweep_writes_the_harness_sweep(capsys, tmp_path):
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--env", "thm7", "--k", "6", "--mode", "uninformed",
        "--preset", "uninformed", "--T", "64,128", "--reps", "2", "--seed", "3",
        "--out", str(out_csv),
    )
    assert code == 0
    config = harness.SweepConfig(
        graph=None, graph_name="thm7-sequence",
        learner=harness.LearnerSpec(preset="uninformed", mode="uninformed"),
        env=environments.EnvSpec("thm7", {"k": 6}), horizons=(64, 128), reps=2, seed=3,
    )
    harness.sweep(config).write_csv(tmp_path / "want.csv")
    assert out_csv.read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_run_doubling_preset_plays_the_doubling_wrapper(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--env", "thm7", "--k", "6", "--mode", "informed",
        "--preset", "doubling", "--T", "300", "--seed", "2",
    )
    assert code == 0
    kv = parse_kv(out)
    env_ss, player_ss = harness.cell_streams(2, 0, 0)
    env = environments.uninformed_separation_env(6, 300, env_ss)
    run = harness.doubling_wrapper(None, harness.LearnerSpec(mode="informed"), env, player_ss)
    assert kv["preset"] == "doubling"
    assert (float(kv["player_loss"]), float(kv["regret"])) == (run.player_loss, run.regret)


def test_doubling_preset_outside_informed_mode_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "run", "--env", "thm7", "--k", "6", "--mode", "uninformed",
        "--preset", "doubling", "--T", "64",
    )
    assert code == 2
    assert out == ""
    assert "the doubling preset drives exp3g in informed mode" in err


def test_sweep_rejects_decreasing_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--catalog", "bandit", "--k", "2", "--env", "bernoulli",
        "--mu", "0.3,0.5", "--T", "128,64", "--reps", "2",
    )
    assert code == 2


def test_pm_check_apple_tasting(capsys):
    code, out, _ = run_cli(capsys, "pm-check", "--catalog", "apple_tasting")
    assert code == 0
    assert out.splitlines() == [
        "global=true local=true claimC1=true",
        "class=strongly_observable",
    ]


def test_pm_check_prints_the_witness_of_a_failing_verdict(capsys):
    # clique_minus is weakly observable: vertex 1 sees no loss of its own
    # and vertex 2 does not see it, so the pair (1, 2) alone cannot see 1
    code, out, _ = run_cli(capsys, "pm-check", "--catalog", "clique_minus", "--k", "4")
    assert code == 0
    assert out.splitlines() == [
        "global=true local=false claimC1=true",
        "local_pair=1,2",
        "local_unseen=1",
        "class=weakly_observable",
    ]


def test_pm_check_dump_writes_matrices(capsys, tmp_path):
    prefix = tmp_path / "apple"
    code, _, _ = run_cli(
        capsys, "pm-check", "--catalog", "apple_tasting", "--dump", str(prefix)
    )
    assert code == 0
    loss = np.loadtxt(f"{prefix}_L.csv", delimiter=",")
    symbols = np.loadtxt(f"{prefix}_H.csv", delimiter=",")
    assert loss.shape == (2, 4)
    assert symbols.shape == (2, 4)


def test_lowerbound_thm4(capsys):
    code, out, _ = run_cli(capsys, "lowerbound", "--which", "thm4", "--T", "400")
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["thm4_measured"]) == pytest.approx(100.0, abs=1e-9)
    assert float(kv["thm4_rate_value"]) == pytest.approx(100.0)


def test_lowerbound_thm8_and_thm7_run(capsys):
    code, out, _ = run_cli(
        capsys, "lowerbound", "--which", "thm8", "--T", "256", "--k", "5", "--reps", "2"
    )
    assert code == 0
    assert "thm8_measured" in parse_kv(out)
    code, out, _ = run_cli(
        capsys, "lowerbound", "--which", "thm7", "--T", "256", "--k", "5", "--reps", "2"
    )
    assert code == 0
    kv = parse_kv(out)
    assert float(kv["thm7_rate_value"]) == pytest.approx(5 ** (1 / 3) * 256 ** (2 / 3) / 16)


# `lowerbound --which all` output, line for line, at (T, reps, k, seed); thm4
# is exactly T/4 at any seed, thm8 and thm7 are seeded means over --reps cells
LOWERBOUND_PINS = {
    ("2000", "4", "8", "3"): [
        "thm4_measured=500", "thm4_rate_formula=T/4", "thm4_rate_value=500",
        "thm8_measured=265.375", "thm8_rate_formula=T^(2/3)/8",
        "thm8_rate_value=19.84251315",
        "thm7_measured=426.25", "thm7_rate_formula=K^(1/3)*T^(2/3)/16",
        "thm7_rate_value=19.84251315",
    ],
    ("777", "3", "6", "11"): [
        "thm4_measured=194.25", "thm4_rate_formula=T/4", "thm4_rate_value=194.25",
        "thm8_measured=118", "thm8_rate_formula=T^(2/3)/8",
        "thm8_rate_value=10.56470462",
        "thm7_measured=153.6666667", "thm7_rate_formula=K^(1/3)*T^(2/3)/16",
        "thm7_rate_value=9.598671157",
    ],
}


@pytest.mark.parametrize("flags", sorted(LOWERBOUND_PINS), ids="T{0[0]}".format)
def test_lowerbound_output_is_pinned(capsys, flags):
    horizon, reps, k, seed = flags
    code, out, _ = run_cli(capsys, "lowerbound", "--which", "all", "--T", horizon,
                           "--reps", reps, "--k", k, "--seed", seed)
    assert code == 0
    assert out.splitlines() == LOWERBOUND_PINS[flags]


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--learner", "--preset", "--eta", "--gamma", "--mode", "--env",
                 "--chi", "--mu", "--eps", "--T", "--reps", "--out", "--seed"):
        assert flag in out
