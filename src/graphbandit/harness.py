"""Game loop, regret accounting, and seeded experiment sweeps.

One lockstep engine plays every game: the games of a sweep (each horizon,
repetition and chi branch) advance together, round t of every game still
running being one step over R x K numpy arrays, and `run_game` is its
one-game case. Every learner is an Exp3.G row (Hedge at gamma = 0, the
uniform and constant players at gamma = 1), played by the learners module's
arithmetic on all rows at once; no row's bits depend on the rows beside it,
so each equals its game played alone.

Live-prefix rule: a batch's games are sorted by decreasing horizon, so the
games still running at round t are rows 0..live-1. A segment is a run of
rounds with the same live rows in one epoch: the doubling preset's restarts
at rounds 1, 2, 4, ... cut segments too, so the learning rates, exploration
terms and restarts are set once per segment, never checked per round. The
batch's per-round tables (uniforms, losses, graph ids, actions) are laid
out segment-major, each segment's rounds one after another and each round
its live rows in order, so a step reads and writes basic slices of them and
of the R x K state. The graph ids index one table of the batch's graphs, a
fixed graph its only entry.

Information hiding is structural: a player's update divides only the losses
under its row's observed mask, the out-neighborhood of the action it played
in the round's graph, so it cannot use loss values it was never shown.

Seed contract: generators are numpy PCG64 via `np.random.default_rng`. A sweep
derives one independent root per (horizon, repetition) cell from a seed >= 0 as
`SeedSequence(entropy=seed, spawn_key=(horizon_index, rep))`, then spawns two
children in order: the environment stream and the player stream. Each player
stream's uniforms are drawn up front as `rng.random(T)`, the same numbers as
T calls to `rng.random()`. Matched-chi pairs reuse both children, which is
what makes chi-averaged comparisons exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import learners
from .environments import CHI_PAIRS, Environment, EnvSpec, build_environment
from .graph import FeedbackGraph, GraphClass, _integer, _set_bits
from .graph import profile as graph_profile
from .learners import (
    MODE_FIXED,
    MODE_INFORMED,
    MODES,
    Preset,
    _check_rates,
    doubling_rates,
    exploration_vector,
    informed_exploration_set,
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


@dataclass(frozen=True)
class LearnerSpec:
    """How to build the player for a game. The values are checked here; the
    checks that need the action count are the engine's, when a game starts."""

    algorithm: str = "exp3g"
    preset: str = "manual"
    eta: float | None = None
    gamma: float | None = None
    mode: str = MODE_FIXED
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
        if self.algorithm == "constant":
            _integer(self.constant_action, "constant_action")
        # only hedge and the manual exp3g preset read eta and gamma
        if self.algorithm == "hedge":
            if self.eta is None:
                raise ValueError("hedge needs an explicit eta")
            _check_rates(self.eta, 0.0)
        if (self.algorithm, self.preset) == ("exp3g", "manual"):
            _check_rates(self.eta, self.gamma)


@dataclass
class GameTranscript:
    """What one game's play produced: the actions (1-based), the loss each
    incurred, and the best arm's total loss in hindsight; the player's total
    and the regret are read from them."""

    actions: np.ndarray
    incurred: np.ndarray
    best_fixed_loss: float

    @property
    def horizon(self) -> int:
        return len(self.actions)

    @property
    def player_loss(self) -> float:
        return float(self.incurred.sum())

    @property
    def regret(self) -> float:
        return self.player_loss - self.best_fixed_loss


def _resolve_preset(spec: LearnerSpec, base_graph, num_actions, horizon) -> Preset:
    if spec.preset == "manual":
        if spec.eta is None or spec.gamma is None:
            raise ValueError("manual preset needs explicit eta and gamma")
        return Preset(tuple(range(1, num_actions + 1)), spec.gamma, spec.eta)
    if spec.preset == "loopless_clique":
        return preset_loopless_clique(num_actions, horizon)
    if spec.preset == "uninformed":
        return preset_uninformed(num_actions, horizon)
    prof = graph_profile(base_graph)
    if spec.preset == "strong":
        return preset_strong(prof, horizon)
    return preset_weak(prof, horizon)


def _player_row(spec: LearnerSpec, num_actions, base_graph, horizon) -> tuple:
    """A game's row in the engine: (eta, gamma, distribution), an Exp3.G
    player. Hedge is gamma = 0 at its own eta (`p * 1.0 + 0.0` is exponential
    weights bit for bit); the uniform and constant players are gamma = 1 on
    the distribution they draw from (`0.0 * w + u` is `u`). The doubling
    preset's rates are placeholders that `_doubling_schedule` overwrites,
    and its exploration vector follows the round graph."""
    if spec.algorithm == "constant":
        if not 1 <= spec.constant_action <= num_actions:
            raise ValueError("action out of range")
        return 1.0, 1.0, np.eye(num_actions)[spec.constant_action - 1]
    if spec.algorithm == "exp3g" and spec.preset != "doubling":
        preset = _resolve_preset(spec, base_graph, num_actions, horizon)
        # a preset tunes its rates from K and T: at a short horizon they can
        # leave the range the update needs (loopless clique: gamma > 1 once
        # ln K > T/2)
        _check_rates(preset.eta, preset.gamma)
        return preset.eta, preset.gamma, exploration_vector(num_actions, preset.exploration_set)
    eta = spec.eta if spec.algorithm == "hedge" else 1.0
    gamma = 1.0 if spec.algorithm == "uniform" else 0.0
    return eta, gamma, np.full(num_actions, 1.0 / num_actions)


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
    constant sequence. This is the one-game case of `run_games`.
    """
    [run] = run_games(graph, spec, [env], [seed])
    return run


def run_games(graph: FeedbackGraph | None, spec: LearnerSpec, envs, seeds) -> list:
    """Play one game per prepared environment, the i-th player seeded by
    `seeds[i]`, all in one lockstep run; the transcripts, in the order of
    `envs`, equal those of `run_game` on each (environment, seed) pair."""
    if len(envs) != len(seeds):
        raise ValueError(f"{len(envs)} environments but {len(seeds)} seeds")
    seeds = [_game_seed(seed) for seed in seeds]
    games = [_Game(env.horizon, lambda env=env: env, seed) for env, seed in zip(envs, seeds)]
    runs = [None] * len(games)
    for i, run in _play(graph, spec, games):
        runs[i] = run
    return runs


def _game_seed(seed):
    """A player's seed: a SeedSequence as given, anything else an integer
    >= 0 by the `_integer` rule; numpy's own errors do not name the seed,
    and it would read True as 1."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if _integer(seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# the lockstep engine

LOCKSTEP_ROUNDS = 1 << 21  # game rounds one lockstep batch holds at once


class _Game(NamedTuple):
    """A game for the engine: its horizon, a builder for its environment
    (called once, when its batch is set up), and its player stream."""

    horizon: int
    build: Callable[[], Environment]
    seed: object


def _play(graph: FeedbackGraph | None, spec: LearnerSpec, games):
    """Play every game with a `spec` player, yielding (index in `games`,
    transcript) pairs one at a time, so a caller that keeps only a summary
    holds one transcript at a time.

    Games are sorted by decreasing horizon and cut into batches of at most
    LOCKSTEP_ROUNDS rounds (a longer game is a batch of its own); each batch
    advances in lockstep.
    """
    order = sorted(range(len(games)), key=lambda i: -games[i].horizon)
    batch, rounds = [], 0
    for i in order + [None]:
        if batch and (i is None or rounds + games[i].horizon > LOCKSTEP_ROUNDS):
            yield from zip(batch, _play_batch(graph, spec, [games[j] for j in batch]))
            batch, rounds = [], 0
        if i is not None:
            batch.append(i)
            rounds += games[i].horizon


def _segments(horizons, doubling: bool) -> list:
    """The runs of rounds with the same live rows and epoch, in round order,
    for games sorted by decreasing horizon: (first round, rounds, live rows,
    offset of the segment's first cell in a segment-major table, epoch).

    Without `doubling` the whole game is epoch 0. With it, epoch e is the
    rounds 2^e .. 2^(e+1) - 1 (1-based) between the doubling trick's
    restarts, so a segment starts an epoch iff its first round (0-based)
    is 2^e - 1; splitting a segment leaves the table layout as it was."""
    segments, start, base = [], 0, 0
    for live in range(len(horizons), 0, -1):
        end = horizons[live - 1]
        while end > start:
            epoch = (start + 1).bit_length() - 1 if doubling else 0
            stop = min(end, (2 << epoch) - 1) if doubling else end
            segments.append((start, stop - start, live, base, epoch))
            base += (stop - start) * live
            start = stop
    return segments


def _cells(segments, r) -> list:
    """Row r's (rounds, cells) slice pairs: its rounds in one segment and
    where a segment-major table holds them, in round order."""
    return [
        (slice(first, first + rounds), slice(base + r, base + rounds * live, live))
        for first, rounds, live, base, _ in segments if r < live
    ]


def _fill(table, cells, values):
    """Copy one row's per-round `values` into a segment-major table."""
    for rounds, where in cells:
        table[where] = values[rounds]


def _gather(table, cells):
    """One row's entries of a segment-major table, in round order."""
    return np.concatenate([table[where] for _, where in cells] + [table[:0]])


def _play_batch(graph, spec: LearnerSpec, games):
    """Play games sorted by decreasing horizon in lockstep; yields their
    transcripts in order.

    Round t of every game still running is one step over R x K arrays (one
    row per game). The rows alive are always a prefix, so each segment (a
    run of rounds with the same live rows in one epoch, see `_segments`)
    plays on views of the first rows.
    Uniforms, losses, graph ids and actions live in flat tables laid out
    segment-major: a segment's cells are its rounds one after another, each
    round its live rows in order, so round t of a segment is one basic slice
    and no step gathers or scatters through per-row offsets. Each table is
    filled once, game by game, through strided slices, and each Environment
    is dropped once copied; the loss table is float16 while every loss so
    far is exactly a float16 (0, 1/2 and 1 are). A player's uniforms are
    drawn up front as `rng.random(T)`, the same numbers T calls to
    `rng.random()` give.

    Each round of every row is three calls to the learners module: the play
    distribution `exponential_weights` (Hedge is its gamma = 0 row, see
    `_player_row`), the draw `sample_index`, and the update
    `importance_weighted_estimates`, which adds the round's estimates into
    the cumulative losses. The loop keeps only Hedge's update, the full loss
    rows added unweighted. gamma = 1 rows never read their estimates and
    cannot make them raise (an observed vertex has P(i) >= p(a) > 0).

    The arithmetic is the learners module's, called with buffers allocated
    once per batch and sliced per segment. A segment that starts an epoch
    (round 1, and with the doubling preset rounds 2, 4, 8, ...) zeroes its
    rows' cumulative losses; then its epoch's rates are spread to R x K
    arrays and Exp3.G's exploration terms (1 - gamma and gamma * u)
    computed, once per segment. A segment's uniforms are viewed as one
    R x 1 column per round.

    Observed masks are rows of one (graph, action) table. On one graph (a
    fixed graph's cells keep id 0) a mask is its action's row and the
    estimate broadcasts the in-matrix over the rows: no round reads graph
    ids. On several, each round picks by graph id (`take`) its rows'
    in-matrices, masks and, for informed play, gamma * u from a table of
    every live row and graph. The update reads only the losses under the
    row's mask.

    A segment with one live row (the last row's rounds once it plays alone)
    is played by `_play_row` on the row functions' one-row list form: its
    state is Python floats, and numpy is called only for exp, the pairwise
    sum and the in-matrix product. Its per-graph in-matrices and observed
    vertices are lists built once per batch.

    The loop runs under `np.errstate(divide="raise", invalid="raise")`, so a
    zero observation probability on an observed vertex raises the
    estimate's RuntimeError from its masked divide (on one row, from
    Python's ZeroDivisionError), before any transcript is yielded, with no
    per-round check; numpy's error state is restored on the way out.
    """
    horizons = [game.horizon for game in games]
    doubling = spec.preset == "doubling"
    segments = _segments(horizons, doubling)
    total = sum(horizons)
    uniforms = np.empty(total)
    graph_ids = np.zeros(total, dtype=np.intp)
    graph_table = {} if graph is None else {graph: 0}
    losses = None
    players, best_fixed = [], []
    for r, game in enumerate(games):
        env = game.build()
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
        elif graph is None:
            raise ValueError("fixed environment needs a graph")
        if losses is None:
            losses = np.empty((total, num_actions), dtype=np.float16)
        elif losses.shape[1] != num_actions:
            raise ValueError("the games of one batch must share the action count")
        if losses.dtype == np.float16 and not np.array_equal(
            env.losses.astype(np.float16), env.losses
        ):
            losses = losses.astype(float)
        cells = _cells(segments, r)
        _fill(losses, cells, env.losses)
        if env.time_varying:
            ids = [graph_table.setdefault(g, len(graph_table)) for g in env.graphs]
            _fill(graph_ids, cells, np.asarray(ids, dtype=np.intp)[env.graph_index])
        players.append(_player_row(
            spec, num_actions, graph if graph is not None else env.graph_at(0), env.horizon
        ))
        _fill(uniforms, cells, np.random.default_rng(game.seed).random(env.horizon))
        best_fixed.append(float(env.losses.sum(axis=0).min()))
    del env

    graphs = list(graph_table)
    switching = len(graphs) > 1
    in_mats = np.stack([g.in_matrix for g in graphs])
    out_masks = in_mats.transpose(0, 2, 1) > 0  # [g, a] is action a's observed set
    hedge = spec.algorithm == "hedge"
    if hedge and not out_masks.all():
        raise ValueError("Hedge needs full feedback; some action does not observe every loss")
    eta, gamma, dist = zip(*players)
    dist = np.stack(dist)
    eta = np.array(eta)[:, None]
    gamma = np.array(gamma)[:, None]
    informed = spec.algorithm == "exp3g" and spec.mode == MODE_INFORMED
    retarget = switching and informed
    if informed:
        # each distinct graph is profiled once per batch
        profiles = [graph_profile(g) for g in graphs]
        explore = np.stack([
            exploration_vector(prof.num_vertices, informed_exploration_set(prof))
            for prof in profiles
        ])
        if not switching:
            dist[:] = explore[0]
        if doubling:
            eta, gamma = _doubling_schedule(profiles, horizons, graph_ids, segments)

    actions = np.zeros(total, dtype=np.intp)
    cumulative = np.zeros_like(dist)
    probs, estimates = np.empty_like(dist), np.empty_like(dist)
    out_rows = out_masks.reshape(-1, num_actions)  # [g * K + a] is out_masks[g, a]
    in_mat = in_mats[0]  # one graph's, which the estimate broadcasts over the rows
    # a lone row's graphs, by graph id: in-matrices, and observed vertices by action
    mats = list(in_mats)
    observed = [[_set_bits(g.out_mask(a)) for a in range(1, num_actions + 1)] for g in graphs]
    # a zero observation probability on an observed vertex sets the divide
    # flag (invalid for a loss of 0) in the estimate's masked divide, which
    # the estimate turns into its RuntimeError
    with np.errstate(divide="raise", invalid="raise"):
        for first, rounds, live, base, epoch in segments:
            cells = slice(base, base + rounds * live)
            if first + 1 == 1 << epoch:  # an epoch starts: round 1, or 1, 2, 4, ... doubling
                cumulative[:live] = 0.0
            if live == 1:
                keep, table = learners.exploration_terms(
                    float(gamma[0, epoch]), explore if retarget else dist[[0] * len(graphs)]
                )
                _play_row(
                    cumulative[0], float(eta[0, epoch]), [(keep, term) for term in table.tolist()],
                    hedge, mats, observed,
                    uniforms[cells], losses[cells], graph_ids[cells], actions[cells],
                )
                continue
            # the live rows, and the segment's tables as round x row views
            cum, p_out, est_out = cumulative[:live], probs[:live], estimates[:live]
            seg_uniforms = uniforms[cells].reshape(rounds, live, 1)
            seg_losses = losses[cells].reshape(rounds, live, -1)
            seg_actions = actions[cells].reshape(rounds, live)
            # the rates as R x K arrays: a product that broadcasts a column
            # costs about twice one that does not
            eta_t, gamma_t = (
                np.repeat(rate[:live, epoch:epoch + 1], num_actions, axis=1)
                for rate in (eta, gamma)
            )
            keep, terms = learners.exploration_terms(gamma_t, dist[:live])
            if switching:
                seg_ids = graph_ids[cells].reshape(rounds, live)
                seg_rows = seg_ids * num_actions  # + the action: a row of out_rows
            if retarget:  # informed play explores where the round graph says
                table = learners.exploration_terms(
                    gamma[:live, epoch, None, None], explore
                )[1].reshape(-1, num_actions)
                # live row r's term on graph g is row r * G + g of the table
                seg_keys = seg_ids + len(graphs) * np.arange(live)
            for i in range(rounds):
                if retarget:
                    terms = table.take(seg_keys[i], axis=0)
                p = learners.exponential_weights(cum, eta_t, (keep, terms), out=p_out)
                a = learners.sample_index(p, seg_uniforms[i], out=seg_actions[i])
                if hedge:  # full information: every loss, unweighted
                    cum += seg_losses[i]
                    continue
                if switching:  # the actions' rows of out_rows on the round graphs
                    in_mat = in_mats.take(seg_ids[i], axis=0)
                    a = seg_rows[i] + a
                learners.importance_weighted_estimates(
                    in_mat, p, out_rows.take(a, axis=0), seg_losses[i], cum, out=est_out
                )

    for r, best in enumerate(best_fixed):
        cells = _cells(segments, r)
        played = _gather(actions, cells)
        incurred = _gather(losses, cells)[np.arange(len(played)), played].astype(float)
        yield GameTranscript(actions=played + 1, incurred=incurred, best_fixed_loss=best)


def _play_row(cumulative, eta, terms, hedge, mats, observed, uniforms, losses, graph_ids, actions):
    """Play one row's segment, all in one epoch, writing its draws into
    `actions` and its cumulative losses back into `cumulative`, bit for bit
    as its row of an R x K step would.

    `eta` is the epoch's learning rate and `terms[g]` its exploration terms
    on graph g, `mats[g]` graph g's in-matrix and `observed[g][a]` the
    0-based vertices action a observes there; the round tables are the
    segment's. The cumulative, distribution and draw are Python lists and
    floats, played through the learners module's one-row list form.
    """
    cum = cumulative.tolist()
    drawn = []
    for u, g, row in zip(uniforms.tolist(), graph_ids.tolist(), losses):
        p = learners.exponential_weights(cum, eta, terms[g])
        a = learners.sample_index(p, u)
        drawn.append(a)
        if hedge:  # full information: every loss, unweighted
            cum = [c + x for c, x in zip(cum, row.tolist())]
            continue
        learners.importance_weighted_estimates(mats[g], p, observed[g][a], row.tolist(), cum)
    actions[:] = drawn
    cumulative[:] = cum


def _doubling_schedule(profiles, horizons, graph_ids, segments) -> tuple:
    """Per row and epoch, the (eta, gamma) of the doubling trick's restarts
    at rounds 1, 2, 4, ..., from the profiles of the row's round graphs,
    read from the segment-major `graph_ids` table."""
    alpha = np.array([prof.alpha for prof in profiles], dtype=float)
    weak = np.array([prof.graph_class is GraphClass.WEAKLY_OBSERVABLE for prof in profiles])
    delta = np.where(weak, [prof.delta for prof in profiles], 0).astype(float)
    epochs = int(horizons[0]).bit_length()
    eta = np.ones((len(horizons), epochs))
    gamma = np.zeros((len(horizons), epochs))
    for r, horizon in enumerate(horizons):
        ids = _gather(graph_ids, _cells(segments, r))
        sums = (np.cumsum(alpha[ids]), np.cumsum(delta[ids]), np.cumsum(weak[ids]))
        for e in range(int(horizon).bit_length()):
            s = 1 << e
            eta[r, e], gamma[r, e] = doubling_rates(
                profiles[0].num_vertices, s, float(sums[0][s - 1]),
                float(sums[1][s - 1]), int(sums[2][s - 1]), bool(weak[ids[s - 1]]),
            )
    return eta, gamma


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
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)


def cell_streams(seed: int, horizon_index: int, rep: int):
    """The documented stream rule: one root per (horizon, rep) cell, spawned
    into (environment stream, player stream); the seed is an integer >= 0."""
    if _integer(seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    root = np.random.SeedSequence(entropy=seed, spawn_key=(horizon_index, rep))
    return root.spawn(2)


def _profile_columns(graph: FeedbackGraph) -> dict:
    prof = graph_profile(graph)
    return {
        "K": prof.num_vertices,
        "class": prof.graph_class.value,
        "alpha": prof.alpha,
        "delta": prof.delta,
    }


def sweep(config: SweepConfig) -> ExperimentReport:
    """Run reps independent seeded repetitions per horizon, every game of the
    grid in one lockstep run; aggregation is a deterministic reduction
    independent of play order."""
    if not config.horizons:
        raise ValueError("horizon grid is empty")
    horizons = [_integer(horizon, "horizon") for horizon in config.horizons]
    if horizons != sorted(set(horizons)):
        raise ValueError("horizon grid must be strictly increasing")
    if horizons[0] < 1:
        raise ValueError(f"horizon must be >= 1, got {horizons[0]}")
    if _integer(config.reps, "reps") < 1:
        raise ValueError("reps must be >= 1")
    if config.chi_average:
        chis = CHI_PAIRS.get(config.env.kind)
        if chis is None:
            raise ValueError(f"chi averaging is undefined for env {config.env.kind!r}")
        if "chi" in config.env.params:
            raise ValueError("chi averaging plays both branches; the env spec fixes chi")
    else:
        chis = (None,)
    # a fixed graph is profiled once, up front, and a graph sequence by each
    # cell's first graph as the cell's batch is set up, so a graph beyond the
    # exact solvers' reach is refused before any round is played; a cell's
    # `env` is the kind its first environment built (a thm5 request that
    # falls back to the two-arm construction is thm8)
    columns = None if config.graph is None else _profile_columns(config.graph)
    cell_columns, cell_kinds = {}, {}

    def build(cell, horizon, env_ss, chi):
        env = build_environment(config.env, horizon, env_ss, graph=config.graph, chi=chi)
        if cell not in cell_kinds:
            cell_kinds[cell] = env.kind
            cell_columns[cell] = columns or _profile_columns(env.graph_at(0))
        return env

    cells = [(hi, rep) for hi in range(len(config.horizons)) for rep in range(config.reps)]
    games = []
    for cell in cells:
        horizon = config.horizons[cell[0]]
        env_ss, player_ss = cell_streams(config.seed, *cell)
        games += [
            _Game(horizon, partial(build, cell, horizon, env_ss, chi), player_ss)
            for chi in chis
        ]
    # keep only what a row needs of each transcript
    runs = [None] * len(games)
    for i, run in _play(config.graph, config.learner, games):
        runs[i] = (run.player_loss, run.best_fixed_loss, run.regret)

    rows = []
    for cell, i in zip(cells, range(0, len(runs), len(chis))):
        player, best, regret = zip(*runs[i:i + len(chis)])
        rows.append({
            "graph": config.graph_name,
            **cell_columns[cell],
            "learner": config.learner.algorithm,
            "preset": config.learner.preset,
            "mode": config.learner.mode,
            "env": cell_kinds[cell],
            "T": config.horizons[cell[0]],
            "rep": cell[1],
            "seed": config.seed,
            "player_loss": float(np.mean(player)),
            "best_fixed_loss": float(np.mean(best)),
            "regret": float(np.mean(regret)),
        })
    return ExperimentReport(rows=rows)


# ---------------------------------------------------------------------------
# doubling trick for time-varying informed play


def doubling_wrapper(
    graph: FeedbackGraph | None, spec: LearnerSpec, env: Environment, seed
) -> GameTranscript:
    """Play `spec` with its preset replaced by the doubling trick: informed
    exp3g restarted on epochs of length 1, 2, 4, ... (`_doubling_schedule`).
    """
    return run_game(graph, replace(spec, preset="doubling"), env, seed)
