"""The `graphbandit` command line: classification, profiling, single games,
sweeps, lower-bound demos, and matrix-game observability checks.

Output is `key=value` per line for greppability; bulk results go to CSV.
Every subcommand is deterministic given its full flag set including --seed.
Exit codes: 0 on success, 2 on validation errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import environments, harness, partial_monitoring
from .graph import (
    CATALOG_NAMES,
    FeedbackGraph,
    GraphClass,
    GraphFormatError,
    catalog,
    classify_graph,
    load_graph,
    predict_rate,
    profile,
)
from .learners import MODES


def _emit(pairs):
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.10g}"
        elif isinstance(value, frozenset):
            value = ",".join(str(v) for v in sorted(value))
        print(f"{key}={value}")


def _add_graph_source(parser, positional: bool):
    if positional:
        parser.add_argument("graphfile", nargs="?", help="graph file (text format)")
    else:
        parser.add_argument("--graph", metavar="FILE", help="graph file (text format)")
    parser.add_argument("--catalog", choices=CATALOG_NAMES, help="named catalog graph")
    parser.add_argument("--k", type=int, help="vertex count for --catalog")


def _resolve_graph(args) -> FeedbackGraph:
    path = getattr(args, "graphfile", None) or getattr(args, "graph", None)
    if path and args.catalog:
        raise ValueError("give either a graph file or --catalog, not both")
    if path:
        return load_graph(path)
    if args.catalog:
        k = args.k
        if k is None:
            if args.catalog == "apple_tasting":
                k = 2
            else:
                raise ValueError("--catalog needs --k")
        return catalog(args.catalog, k)
    raise ValueError("no graph source; give a graph file or --catalog NAME --k K")


def _parse_horizons(text: str):
    try:
        horizons = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad horizon grid {text!r}; expected comma-separated integers")
    return horizons


def _learner_spec(args) -> harness.LearnerSpec:
    return harness.LearnerSpec(
        algorithm=args.learner,
        preset="manual" if args.learner == "hedge" else args.preset.replace("-", "_"),
        eta=args.eta,
        gamma=args.gamma,
        mode=args.mode,
    )


# the environment flags, by argparse name, and the EnvSpec parameter each sets
ENV_FLAGS = {"chi": "chi", "mu": "mu", "eps": "eps", "table": "path"}


def _env_spec(args) -> environments.EnvSpec:
    given = {flag: getattr(args, flag) for flag in ENV_FLAGS if getattr(args, flag) is not None}
    # refused here, by the flags the user typed, rather than by EnvSpec's
    # parameter names
    reads = environments.ENV_PARAMS[args.env]
    unread = [f"--{flag}" for flag in given if ENV_FLAGS[flag] not in reads]
    if unread:
        takes = [f"--{flag}" for flag, param in ENV_FLAGS.items() if param in reads]
        raise ValueError(
            f"the {args.env} environment reads no {', '.join(unread)}; "
            f"it takes {', '.join(takes)}"
        )
    params = {ENV_FLAGS[flag]: value for flag, value in given.items()}
    if args.env == "thm7" and args.k is not None:  # --k sizes the sequence
        params["k"] = args.k
    if "mu" in params:
        try:
            params["mu"] = tuple(float(x) for x in args.mu.split(","))
        except ValueError:
            raise ValueError(f"bad --mu {args.mu!r}; expected comma-separated floats")
    return environments.EnvSpec(kind=args.env, params=params)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    g = _resolve_graph(args)
    _emit([("class", classify_graph(g).value)])
    return 0


def cmd_profile(args) -> int:
    g = _resolve_graph(args)
    prof = profile(g)
    # the weak domination number has no defined role for unlearnable graphs
    not_observable = prof.graph_class is GraphClass.NOT_OBSERVABLE
    pairs = [
        ("class", prof.graph_class.value),
        ("K", prof.num_vertices),
        ("alpha", prof.alpha),
        ("alpha_witness", prof.alpha_witness),
        ("delta", "n/a" if not_observable else prof.delta),
        ("delta_witness", "n/a" if not_observable else prof.delta_witness),
        ("delta_exact", prof.delta_exact),
        ("weak_set", prof.weak_set),
    ]
    if prof.num_vertices >= 2:
        rate = predict_rate(prof, args.T)
        pairs += [
            ("T", args.T),
            ("rate_formula", rate.formula),
            ("rate_value", rate.value),
        ]
    _emit(pairs)
    return 0


def _game_graph(args, env_spec) -> FeedbackGraph | None:
    """The fixed graph of `run` and `sweep`, or None for thm7, whose own
    graph sequence, sized by --k, needs a mode that follows it."""
    if env_spec.kind != "thm7":
        return _resolve_graph(args)
    if args.graph or args.catalog:  # refused unread
        raise ValueError("the thm7 environment provides its own graph sequence")
    if args.mode == "fixed":
        raise ValueError("the thm7 environment needs --mode informed or uninformed")
    return None


def cmd_run(args) -> int:
    env_spec = _env_spec(args)
    graph = _game_graph(args, env_spec)
    spec = _learner_spec(args)
    env_ss, player_ss = harness.cell_streams(args.seed, 0, 0)
    env = environments.build_environment(env_spec, args.T, env_ss, graph=graph)
    transcript = harness.run_game(graph, spec, env, player_ss)
    pairs = [
        ("env", env.kind),
        ("K", env.num_actions),
        ("T", transcript.horizon),
        ("seed", args.seed),
        ("learner", spec.algorithm),
        ("preset", spec.preset),
        ("mode", spec.mode),
    ]
    if graph is not None:
        pairs.append(("class", classify_graph(graph).value))
    if "chi" in env.params:
        pairs.append(("chi", env.params["chi"]))
    pairs += [
        ("player_loss", transcript.player_loss),
        ("best_fixed_loss", transcript.best_fixed_loss),
        ("regret", transcript.regret),
    ]
    if env.means is not None:  # against the best arm in expectation
        pairs.append(("expected_regret",
                      transcript.player_loss - float(env.horizon * env.means.min())))
    _emit(pairs)
    return 0


def cmd_sweep(args) -> int:
    env_spec = _env_spec(args)
    graph = _game_graph(args, env_spec)
    graph_name = "thm7-sequence" if graph is None else (args.catalog or args.graph or "graph")
    config = harness.SweepConfig(
        graph=graph,
        graph_name=str(graph_name),
        learner=_learner_spec(args),
        env=env_spec,
        horizons=_parse_horizons(args.T),
        reps=args.reps,
        seed=args.seed,
        chi_average=args.chi_average,
    )
    report = harness.sweep(config)
    report.write_csv(args.out)
    pairs = [("rows", len(report.rows)), ("out", args.out)]
    for horizon, (mean, stderr) in report.mean_regret().items():
        pairs.append((f"mean_regret_{horizon}", mean))
        pairs.append((f"stderr_{horizon}", stderr))
    pairs.append(("slope", report.slope()))
    _emit(pairs)
    return 0


def cmd_lowerbound(args) -> int:
    pairs = []
    horizon = args.T
    if args.reps < 1:
        raise ValueError("reps must be >= 1")

    def chi_averaged(graph, spec, kind):  # a one-horizon sweep, under the seed rule
        config = harness.SweepConfig(graph, kind, spec, environments.EnvSpec(kind), (horizon,),
                                     args.reps, args.seed, chi_average=True)
        return harness.sweep(config).mean_regret()[horizon][0]

    if args.which in ("thm4", "all"):
        g = FeedbackGraph(3, [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
        spec = harness.LearnerSpec(algorithm="exp3g", preset="manual", eta=0.2, gamma=0.1)
        pairs += [
            ("thm4_measured", chi_averaged(g, spec, "thm4")),
            ("thm4_rate_formula", "T/4"),
            ("thm4_rate_value", horizon / 4.0),
        ]
    if args.which in ("thm8", "all"):
        g = catalog("clique_minus", args.k)
        spec = harness.LearnerSpec(algorithm="exp3g", preset="weak", mode="fixed")
        pairs += [
            ("thm8_measured", chi_averaged(g, spec, "thm8")),
            ("thm8_rate_formula", "T^(2/3)/8"),
            ("thm8_rate_value", horizon ** (2.0 / 3.0) / 8.0),
        ]
    if args.which in ("thm7", "all"):
        # not a sweep: a sweep profiles each cell's first graph for its CSV
        # columns, which refuses K > 40, while this demo plays any K
        spec = harness.LearnerSpec(algorithm="exp3g", preset="uninformed", mode="uninformed")
        streams = [harness.cell_streams(args.seed, 1, rep) for rep in range(args.reps)]
        thm7 = environments.EnvSpec("thm7", {"k": args.k})
        envs = [environments.build_environment(thm7, horizon, env_ss) for env_ss, _ in streams]
        runs = harness.run_games(None, spec, envs, [player_ss for _, player_ss in streams])
        pairs += [
            ("thm7_measured", float(np.mean([run.regret for run in runs]))),
            ("thm7_rate_formula", "K^(1/3)*T^(2/3)/16"),
            ("thm7_rate_value", args.k ** (1.0 / 3.0) * horizon ** (2.0 / 3.0) / 16.0),
        ]
    _emit(pairs)
    return 0


def cmd_pm_check(args) -> int:
    g = _resolve_graph(args)
    instance = partial_monitoring.encode(g)
    claim = all(partial_monitoring.claim_c1_check(instance, u, v) for u, v in sorted(g.edges))
    witnesses = {"global": partial_monitoring.global_witness(instance),
                 "local": partial_monitoring.local_witness(instance)}
    flags = {**{name: w is None for name, w in witnesses.items()}, "claimC1": claim}
    print(" ".join(f"{k}={'true' if v else 'false'}" for k, v in flags.items()))
    for name, w in witnesses.items():
        if w is not None:
            _emit([(f"{name}_pair", f"{w.i},{w.j}"), (f"{name}_unseen", w.unseen)])
    _emit([("class", classify_graph(g).value)])
    if args.dump:
        environments.save_loss_table(f"{args.dump}_L.csv", instance.loss_matrix)
        np.savetxt(f"{args.dump}_H.csv", instance.symbol_matrix, delimiter=",", fmt="%d")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphbandit",
        description="Online learning with graph-structured feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="observability class of a graph")
    _add_graph_source(p, positional=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("profile", help="class, alpha, delta, witnesses, predicted rate")
    _add_graph_source(p, positional=True)
    p.add_argument("--T", type=int, default=10_000, help="horizon for the rate prediction")
    p.set_defaults(func=cmd_profile)

    def add_game_flags(p):
        _add_graph_source(p, positional=False)
        p.add_argument("--learner", choices=("hedge", "exp3g"), default="exp3g")
        p.add_argument("--preset", choices=[name.replace("_", "-") for name in harness.PRESETS],
                       default="strong")
        p.add_argument("--eta", type=float, help="learning rate (manual preset / hedge)")
        p.add_argument("--gamma", type=float, help="exploration rate (manual preset)")
        p.add_argument("--mode", choices=MODES, default="fixed")
        p.add_argument("--env", choices=environments.ENV_KINDS, default="bernoulli")
        p.add_argument("--chi", type=int, help="adversary branch override")
        p.add_argument("--mu", help="comma-separated Bernoulli means")
        p.add_argument("--eps", type=float, help="adversary gap override")
        p.add_argument("--table", metavar="FILE", help="loss table CSV for --env table")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("run", help="play one seeded game and print its regret")
    add_game_flags(p)
    p.add_argument("--T", type=int, default=1000, help="number of rounds")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="seeded repetitions over a horizon grid, to CSV")
    add_game_flags(p)
    p.add_argument("--T", required=True, help="comma-separated horizon grid, increasing")
    p.add_argument("--reps", type=int, default=8)
    p.add_argument("--out", default="results.csv", help="results CSV path")
    p.add_argument(
        "--chi-average", action="store_true", dest="chi_average",
        help="average matched-seed runs over the adversary branch chi",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lowerbound", help="lower-bound demos: measured regret vs rate")
    p.add_argument("--which", choices=("thm4", "thm8", "thm7", "all"), default="all")
    p.add_argument("--T", type=int, default=1000)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--reps", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("pm-check", help="matrix-game observability of a graph")
    _add_graph_source(p, positional=True)
    p.add_argument("--dump", metavar="PREFIX", help="write L and H as PREFIX_L.csv / PREFIX_H.csv")
    p.set_defaults(func=cmd_pm_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
