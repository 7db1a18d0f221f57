"""Game loop, regret accounting, and seeded experiment sweeps.

Information hiding is structural: learners receive only FeedbackEvent objects
built from the round graph's out-neighborhood, so a learner cannot read loss
values it was never shown.

Seed contract: generators are numpy PCG64 via `np.random.default_rng`. A sweep
derives one independent root per (horizon, repetition) cell as
`SeedSequence(entropy=seed, spawn_key=(horizon_index, rep))`, then spawns two
children in order: the environment stream and the player stream. Matched-chi
pairs reuse both children, which is what makes chi-averaged comparisons exact.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .environments import Environment, EnvSpec, build_environment
from .graph import FeedbackGraph
from .graph import profile as graph_profile
from .learners import (
    BEFORE_ACTION,
    MODE_FIXED,
    MODE_INFORMED,
    MODE_UNINFORMED,
    MODES,
    ConstantAction,
    DoublingExp3G,
    Exp3G,
    FeedbackEvent,
    Hedge,
    Preset,
    UniformRandom,
    preset_loopless_clique,
    preset_strong,
    preset_uninformed,
    preset_weak,
)

ALGORITHMS = ("exp3g", "hedge", "uniform", "constant")
PRESETS = ("strong", "weak", "loopless_clique", "uninformed", "manual", "doubling")

CSV_COLUMNS = (
    "graph", "K", "class", "alpha", "delta", "learner", "preset", "mode",
    "env", "T", "rep", "seed", "player_loss", "best_fixed_loss", "regret",
)

CHI_PAIRS = {"thm4": (0, 1), "thm8": (-1, 1), "thm7": (-1, 1)}


@dataclass(frozen=True)
class LearnerSpec:
    """How to build the player for a game."""

    algorithm: str = "exp3g"
    preset: str = "manual"
    eta: float | None = None
    gamma: float | None = None
    mode: str = MODE_FIXED
    exploration_set: tuple | None = None
    constant_action: int = 1

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.preset == "doubling" and (self.algorithm, self.mode) != ("exp3g", MODE_INFORMED):
            raise ValueError("the doubling preset drives exp3g in informed mode")


@dataclass
class GameTranscript:
    """Per-round record of one game plus its regret accounting."""

    actions: np.ndarray
    incurred: np.ndarray
    observed_counts: np.ndarray
    arm_totals: np.ndarray
    player_loss: float
    best_fixed_loss: float
    regret: float
    expected_best_loss: float | None
    config: dict

    @property
    def horizon(self) -> int:
        return len(self.actions)

    @property
    def expected_regret(self) -> float | None:
        """Regret against the best arm in expectation, for stochastic
        environments with known means; the headline `regret` is always
        against the realized best arm in hindsight."""
        if self.expected_best_loss is None:
            return None
        return self.player_loss - self.expected_best_loss


def _resolve_preset(spec: LearnerSpec, base_graph, num_actions, horizon) -> Preset:
    if spec.preset == "manual":
        if spec.eta is None or spec.gamma is None:
            raise ValueError("manual preset needs explicit eta and gamma")
        exploration = (
            spec.exploration_set
            if spec.exploration_set is not None
            else tuple(range(1, num_actions + 1))
        )
        return Preset(tuple(exploration), spec.gamma, spec.eta)
    if spec.preset == "loopless_clique":
        return preset_loopless_clique(num_actions, horizon)
    if spec.preset == "uninformed":
        return preset_uninformed(num_actions, horizon)
    if base_graph is None:
        raise ValueError(f"preset {spec.preset!r} needs a graph to profile")
    prof = graph_profile(base_graph)
    if spec.preset == "strong":
        return preset_strong(prof, horizon)
    return preset_weak(prof, horizon)


def _build_learner(spec: LearnerSpec, num_actions, graph, base_graph, horizon):
    if spec.algorithm == "uniform":
        return UniformRandom(num_actions)
    if spec.algorithm == "constant":
        return ConstantAction(num_actions, spec.constant_action)
    if spec.algorithm == "hedge":
        if spec.eta is None:
            raise ValueError("hedge needs an explicit eta")
        return Hedge(num_actions, spec.eta)
    if spec.preset == "doubling":
        return DoublingExp3G(num_actions)
    preset = _resolve_preset(spec, base_graph, num_actions, horizon)
    return Exp3G(
        num_actions,
        preset.eta,
        preset.gamma,
        exploration_set=preset.exploration_set,
        graph=graph if spec.mode == MODE_FIXED else None,
        mode=spec.mode,
    )


def run_game(
    graph: FeedbackGraph | None,
    spec: LearnerSpec,
    env: Environment,
    seed,
) -> GameTranscript:
    """Play the full protocol: (informed: reveal the graph) -> act -> incur ->
    feedback along the out-neighborhood -> (uninformed: reveal) -> update.

    `graph` may be None only when the environment carries its own graph
    sequence; a fixed graph together with a time-varying mode is treated as a
    constant sequence.
    """
    num_actions = env.num_actions
    if graph is not None and graph.num_vertices != num_actions:
        raise ValueError(
            f"graph has {graph.num_vertices} vertices but the environment "
            f"has {num_actions} actions"
        )
    if env.time_varying:
        if spec.mode == MODE_FIXED:
            raise ValueError("time-varying environment needs informed or uninformed mode")
        if graph is not None:
            raise ValueError("graph source is the environment; pass graph=None")
    else:
        if graph is None:
            raise ValueError("fixed environment needs a graph")

    horizon = env.horizon
    base_graph = graph if graph is not None else env.graph_at(0)
    learner = _build_learner(spec, num_actions, graph, base_graph, horizon)
    rng = np.random.default_rng(seed)

    actions = np.empty(horizon, dtype=np.int64)
    incurred = np.empty(horizon)
    observed_counts = np.empty(horizon, dtype=np.int64)
    uninformed = spec.mode == MODE_UNINFORMED
    informed = spec.mode == MODE_INFORMED and hasattr(learner, "set_round_graph")
    time_varying = env.time_varying

    for t in range(horizon):
        g_t = env.graph_at(t) if time_varying else graph
        if informed:
            learner.set_round_graph(g_t, BEFORE_ACTION)
        a = learner.act(rng)
        row = env.loss_row(t)
        actions[t] = a
        incurred[t] = row[a - 1]
        obs = g_t.out_index[a - 1]
        observed_counts[t] = len(obs)
        event = FeedbackEvent(
            a, obs, row[obs - 1], graph=g_t if uninformed else None
        )
        learner.update(event)

    arm_totals = env.losses.sum(axis=0)
    player_loss = float(incurred.sum())
    best_fixed = float(arm_totals.min())
    expected_best = (
        float(horizon * env.means.min()) if env.means is not None else None
    )
    config = {
        "graph": "env-sequence" if graph is None else repr(graph),
        "K": num_actions,
        "learner": spec.algorithm,
        "preset": spec.preset,
        "mode": spec.mode,
        "env": env.kind,
        "chi": env.params.get("chi"),
        "T": horizon,
        "seed": seed if isinstance(seed, int) else "derived",
    }
    return GameTranscript(
        actions=actions,
        incurred=incurred,
        observed_counts=observed_counts,
        arm_totals=arm_totals,
        player_loss=player_loss,
        best_fixed_loss=best_fixed,
        regret=player_loss - best_fixed,
        expected_best_loss=expected_best,
        config=config,
    )


def expected_regret_thm4(run_chi0: GameTranscript, run_chi1: GameTranscript) -> float:
    """Exact chi-averaged expected regret of a matched pair of runs against
    the hidden-arm construction.

    With chi in {0, 1} equally likely, arm 1's play count M determines the
    regret of both branches (M/2 and (T-M)/2), and feedback never depends on
    chi, so matched seeds give identical action sequences and the average is
    exactly T/4 for any player.
    """
    if run_chi0.config.get("env") != "thm4" or run_chi1.config.get("env") != "thm4":
        raise ValueError("both runs must target the thm4 environment")
    if (run_chi0.config.get("chi"), run_chi1.config.get("chi")) != (0, 1):
        raise ValueError("pass the chi=0 run first and the chi=1 run second")
    for key in ("K", "learner", "preset", "mode", "T", "seed"):
        if run_chi0.config.get(key) != run_chi1.config.get(key):
            raise ValueError(f"mismatched runs: {key} differs")
    if not np.array_equal(run_chi0.actions, run_chi1.actions):
        raise ValueError("action sequences differ; the runs were not seed-matched")
    horizon = run_chi0.horizon
    m1 = int(np.count_nonzero(run_chi1.actions == 1))
    m0 = int(np.count_nonzero(run_chi0.actions == 1))
    return 0.5 * (0.5 * m1) + 0.5 * (0.5 * (horizon - m0))


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepConfig:
    """A (learner x environment x graph) grid of seeded repetitions."""

    graph: FeedbackGraph | None
    graph_name: str
    learner: LearnerSpec
    env: EnvSpec
    horizons: tuple
    reps: int
    seed: int = 0
    chi_average: bool = False


@dataclass
class ExperimentReport:
    config_echo: dict
    rows: list

    def mean_regret(self) -> dict:
        """Per horizon: (mean regret, standard error over repetitions)."""
        groups = {}
        for row in self.rows:
            groups.setdefault(row["T"], []).append(row["regret"])
        out = {}
        for horizon in sorted(groups):
            vals = np.asarray(groups[horizon])
            stderr = (
                float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
            )
            out[horizon] = (float(vals.mean()), stderr)
        return out

    def slope(self) -> float:
        """Least-squares slope of ln(mean regret) against ln T, fitted on the
        top half of the horizon grid to keep small-T transients out."""
        means = self.mean_regret()
        horizons = sorted(means)
        top = horizons[len(horizons) // 2:]
        pts = [(math.log(t), math.log(means[t][0])) for t in top if means[t][0] > 0]
        if len(pts) < 2:
            return float("nan")
        x, y = zip(*pts)
        return float(np.polyfit(x, y, 1)[0])

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)


def cell_streams(seed: int, horizon_index: int, rep: int):
    """The documented stream rule: one root per (horizon, rep) cell, spawned
    into (environment stream, player stream)."""
    root = np.random.SeedSequence(entropy=seed, spawn_key=(horizon_index, rep))
    return root.spawn(2)


def _profile_columns(graph: FeedbackGraph) -> dict:
    prof = graph_profile(graph)
    return {
        "class": prof.graph_class.value,
        "alpha": prof.alpha,
        "delta": prof.delta,
    }


def _run_cell(config: SweepConfig, horizon_index: int, rep: int, columns=None) -> dict:
    """One CSV row; `columns` are the graph's profile columns, computed here
    from the cell's graph when not given."""
    horizon = config.horizons[horizon_index]
    env_ss, player_ss = cell_streams(config.seed, horizon_index, rep)
    if config.graph is not None:
        num_actions = config.graph.num_vertices
    else:
        num_actions = config.env.params.get("k")

    def one(chi=None):
        env = build_environment(
            config.env, horizon, env_ss, num_actions=num_actions,
            graph=config.graph, chi=chi,
        )
        return run_game(
            None if env.time_varying else config.graph,
            config.learner, env, player_ss,
        ), env

    if config.chi_average:
        chis = CHI_PAIRS.get(config.env.kind)
        if chis is None:
            raise ValueError(f"chi averaging is undefined for env {config.env.kind!r}")
        runs = [one(chi) for chi in chis]
        player = float(np.mean([r.player_loss for r, _ in runs]))
        best = float(np.mean([r.best_fixed_loss for r, _ in runs]))
        regret = float(np.mean([r.regret for r, _ in runs]))
        expected = [r.expected_regret for r, _ in runs]
        expected_regret = (
            float(np.mean(expected)) if all(e is not None for e in expected) else None
        )
        env = runs[0][1]
    else:
        run, env = one()
        player, best, regret = run.player_loss, run.best_fixed_loss, run.regret
        expected_regret = run.expected_regret

    if columns is None:
        columns = _profile_columns(
            config.graph if config.graph is not None else env.graph_at(0)
        )
    row = {
        "graph": config.graph_name,
        "K": env.num_actions,
        **columns,
        "learner": config.learner.algorithm,
        "preset": config.learner.preset,
        "mode": config.learner.mode,
        "env": config.env.kind,
        "T": horizon,
        "rep": rep,
        "seed": config.seed,
        "player_loss": player,
        "best_fixed_loss": best,
        "regret": regret,
        "expected_regret": expected_regret,
    }
    return row


def _worker_count() -> int:
    raw = os.environ.get("GRAPHBANDIT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _cell_worker(args):
    return _run_cell(*args)


def sweep(config: SweepConfig) -> ExperimentReport:
    """Run reps independent seeded repetitions per horizon; aggregation is a
    deterministic reduction independent of completion order."""
    if not config.horizons:
        raise ValueError("horizon grid is empty")
    if list(config.horizons) != sorted(set(config.horizons)):
        raise ValueError("horizon grid must be strictly increasing")
    if config.reps < 1:
        raise ValueError("reps must be >= 1")
    # a fixed graph is profiled once, up front, so one beyond the exact
    # solvers' reach is refused before any game is played
    columns = _profile_columns(config.graph) if config.graph is not None else None
    cells = [
        (config, hi, rep, columns)
        for hi in range(len(config.horizons))
        for rep in range(config.reps)
    ]
    workers = _worker_count()
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_cell_worker, cells, chunksize=1))
    else:
        rows = [_run_cell(*cell) for cell in cells]
    echo = {
        "graph": config.graph_name,
        "learner": config.learner.algorithm,
        "preset": config.learner.preset,
        "mode": config.learner.mode,
        "env": config.env.kind,
        "horizons": tuple(config.horizons),
        "reps": config.reps,
        "seed": config.seed,
        "chi_average": config.chi_average,
    }
    return ExperimentReport(config_echo=echo, rows=rows)


# ---------------------------------------------------------------------------
# doubling trick for time-varying informed play


def doubling_wrapper(
    graph: FeedbackGraph | None, spec: LearnerSpec, env: Environment, seed
) -> GameTranscript:
    """Play `spec` with its preset replaced by the doubling trick
    (`DoublingExp3G`): informed exp3g restarted on epochs of length 1, 2, 4, ...
    """
    return run_game(graph, replace(spec, preset="doubling"), env, seed)
