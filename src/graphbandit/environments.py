"""Loss-sequence generators: replayed tables, Bernoulli baselines, and the
adversarial constructions that force each observability class's regret rate.

Environments are oblivious: the full loss table (and, for time-varying play,
the graph sequence) is a function of (seed, parameters) alone, fixed at
construction, never of the player's actions. All losses lie in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import FeedbackGraph, weak_domination_number, weakly_observable_set
from .graph import _integer, _mask_to_vertices

# each kind and the EnvSpec parameters it reads; thm7, which has no fixed
# graph, is sized by its `k`
ENV_PARAMS = {
    "table": ("table", "path"),
    "bernoulli": ("mu",),
    "thm4": ("chi",),
    "thm5": ("chi", "eps"),
    "thm8": ("chi", "eps"),
    "thm7": ("chi", "eps", "k"),
}
ENV_KINDS = tuple(ENV_PARAMS)

# the two adversary branches of each construction that takes them; a
# chi-averaged sweep plays both
CHI_PAIRS = {"thm4": (0, 1), "thm8": (-1, 1), "thm7": (-1, 1)}


def _check_chi(kind: str, chi) -> None:
    low, high = CHI_PAIRS[kind]
    if chi not in (low, high):
        raise ValueError(f"chi must be {low} or {high:+d}")


def _gap(eps: float) -> float:
    """A planted instance's gap: capped at 1/4 so every mean stays inside
    [1/4, 3/4] or at 1, and refused unless positive."""
    eps = min(float(eps), 0.25)
    if not eps > 0:  # NaN included
        raise ValueError("eps must be positive")
    return eps


def _draw(rng: np.random.Generator, horizon: int, means) -> np.ndarray:
    """A horizon x K table of independent Bernoulli losses with per-arm means."""
    return (rng.random((horizon, len(means))) < means[None, :]).astype(float)


@dataclass(frozen=True, eq=False)
class Environment:
    """An oblivious loss source: a realized T x K table plus, for
    time-varying play, the per-round feedback graphs. The horizon T and the
    action count K are the table's shape."""

    kind: str
    losses: np.ndarray
    means: np.ndarray | None = None
    graphs: tuple = ()
    graph_index: np.ndarray | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.losses.ndim != 2:
            raise ValueError(f"loss table must be two-dimensional, got shape {self.losses.shape}")
        if not ((self.losses >= 0) & (self.losses <= 1)).all():  # NaN fails too
            raise ValueError("losses must lie in [0, 1]")
        self.losses.setflags(write=False)

    @property
    def horizon(self) -> int:
        return self.losses.shape[0]

    @property
    def num_actions(self) -> int:
        return self.losses.shape[1]

    @property
    def time_varying(self) -> bool:
        return len(self.graphs) > 0

    def graph_at(self, t: int) -> FeedbackGraph:
        """Round t's feedback graph (t is 0-based)."""
        if not self.graphs:
            raise ValueError("environment has no graph sequence")
        if not 0 <= t < self.horizon:
            raise ValueError(f"round t={t} out of range 0..{self.horizon - 1}")
        return self.graphs[int(self.graph_index[t])]


def table_env(table) -> Environment:
    """Replay a fixed T x K loss table verbatim."""
    return Environment("table", np.array(table, dtype=float))


def bernoulli_env(mu, horizon: int, seed) -> Environment:
    """Independent Bernoulli losses with per-arm means mu."""
    mu = np.asarray(mu, dtype=float)
    if not ((mu >= 0) & (mu <= 1)).all():  # NaN fails too
        raise ValueError("means must lie in [0, 1]")
    table = _draw(np.random.default_rng(seed), horizon, mu)
    return Environment("bernoulli", table, means=mu.copy(), params={"mu": tuple(mu)})


def hidden_arm_env(chi: int, horizon: int, num_actions: int) -> Environment:
    """Deterministic losses that pin arm 1 at chi and every other arm at 1/2.

    Meant for graphs where vertex 1 has no incoming edges: the player can
    never learn chi, and averaging over chi in {0, 1} makes any strategy's
    expected regret exactly T/4.
    """
    _check_chi("thm4", chi)
    if num_actions < 2:
        raise ValueError("need at least 2 actions")
    means = np.full(num_actions, 0.5)
    means[0] = float(chi)
    table = np.tile(means, (horizon, 1))
    return Environment("thm4", table, means=means, params={"chi": chi})


def simple_weak_env(
    horizon: int, num_actions: int, chi: int, seed, eps: float | None = None
) -> Environment:
    """Two nearly indistinguishable good arms, everything else maximally bad.

    Arm 1's mean is 1/2 - eps*chi, arm 2's is 1/2, all other means are 1;
    eps defaults to T^(-1/3)/2 (capped at 1/4 so the means stay inside
    [1/4, 3/4]). Intended for graphs where arm 1 is weakly observable and
    not observable from arm 2, so telling the good arms apart costs plays
    of bad arms.
    """
    if num_actions < 3:
        raise ValueError("construction needs K >= 3")
    _check_chi("thm8", chi)
    eps = _gap(0.5 * horizon ** (-1.0 / 3.0) if eps is None else eps)
    means = np.ones(num_actions)
    means[0] = 0.5 - eps * chi
    means[1] = 0.5
    table = _draw(np.random.default_rng(seed), horizon, means)
    return Environment("thm8", table, means=means, params={"chi": chi, "eps": eps})


def weak_lower_env(
    g: FeedbackGraph, horizon: int, seed, chi: int | None = None,
    eps: float | None = None,
) -> Environment:
    """Plant a hard bandit instance on an exploration-resistant independent
    subset U of the weakly observable vertices.

    The best arm chi (uniform over U unless given) has mean 1/2 - eps, the
    rest of U sits at 1/2, and everything outside U at 1; eps defaults to
    (|U| / (32 T ln K))^(1/3), capped at 1/4. Falls back to the two-arm
    construction when U has fewer than two vertices.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    set_ss, draw_ss = seed.spawn(2)
    result = domination_capped_independent_set(g, seed=set_ss)
    support = sorted(result.vertices)
    if len(support) < 2:
        return simple_weak_env(horizon, g.num_vertices, 1 if chi is None else chi, draw_ss, eps=eps)
    rng = np.random.default_rng(draw_ss)
    if chi is None:
        chi = support[rng.integers(len(support))]
    if chi not in support:
        raise ValueError(f"chi must be one of the support vertices {support}")
    m = len(support)
    k = g.num_vertices
    eps = _gap(
        m ** (1.0 / 3.0) * (32.0 * horizon * math.log(k)) ** (-1.0 / 3.0) if eps is None else eps
    )
    means = np.ones(k)
    means[np.asarray(support) - 1] = 0.5
    means[chi - 1] = 0.5 - eps
    table = _draw(rng, horizon, means)
    return Environment(
        "thm5", table, means=means, params={"chi": chi, "eps": eps, "support": tuple(support)}
    )


def uninformed_separation_env(
    num_actions: int, horizon: int, seed, chi: int | None = None,
    eps: float | None = None,
) -> Environment:
    """Time-varying graphs that hide arm 1 behind a shifting revealer.

    Round t's graph is the complete graph with all self-loops, minus every
    edge into vertex 1 except one from J_t drawn uniformly from {3..K}; each
    round's graph has independence and weak domination numbers both 1.
    Losses follow the two-good-arms construction with
    eps = (K/T)^(1/3) / 4, so observing arm 1 requires guessing J_t.
    """
    if num_actions < 4:
        raise ValueError("construction needs K >= 4")
    rng = np.random.default_rng(seed)
    if chi is None:
        chi = 1 if rng.random() < 0.5 else -1
    _check_chi("thm7", chi)
    eps = _gap(0.25 * (num_actions / horizon) ** (1.0 / 3.0) if eps is None else eps)
    revealers = rng.integers(3, num_actions + 1, size=horizon)
    means = np.ones(num_actions)
    means[0] = 0.5 - eps * chi
    means[1] = 0.5
    table = _draw(rng, horizon, means)
    graphs = tuple(
        _one_revealer_graph(num_actions, j) for j in range(3, num_actions + 1)
    )
    graph_index = (revealers - 3).astype(np.int64)
    return Environment(
        "thm7", table, means=means, graphs=graphs, graph_index=graph_index,
        params={"chi": chi, "eps": eps},
    )


def _one_revealer_graph(k: int, revealer: int) -> FeedbackGraph:
    edges = [
        (u, v)
        for u in range(1, k + 1)
        for v in range(1, k + 1)
        if v != 1 or u == revealer
    ]
    return FeedbackGraph(k, edges)


# ---------------------------------------------------------------------------
# exploration-resistant independent subsets of the weakly observable part


@dataclass(frozen=True)
class CappedIndependentSet:
    """Independent subset of the weakly observable vertices such that no
    vertex's out-neighborhood covers more than `cap` of its members."""

    vertices: frozenset
    cap: int
    meets_size_bound: bool
    used_fallback: bool


def domination_capped_independent_set(
    g: FeedbackGraph, seed=0, max_attempts: int = 64
) -> CappedIndependentSet:
    """Find an independent set U inside the weakly observable vertices with
    every vertex of the graph dominating at most ceil(ln K) members of U.

    When the minimal dominating set of W is large (k >= 50 ln n) the
    probabilistic construction runs: shrink W to a set R that no vertex
    dominates more than a beta = 2 ln(n)/k fraction of, sample
    m = floor(1/(10 beta)) elements of R with replacement, verify the sample
    is large, domination-capped, and sparse, then extract an independent set
    greedily. The target size floor(k / (50 ln n)) holds with positive
    probability per attempt; after `max_attempts` failures a greedy pass
    returns a set that honors the domination cap but is flagged as missing
    the size bound. For small k the target degenerates to 1 and the greedy
    pass is used directly. Sets are vertex bitmasks (bit v-1 for vertex v)
    and every count is a popcount against the graph's out- and in-masks.
    """
    w = weakly_observable_set(g)
    if not w:
        raise ValueError("graph has no weakly observable vertices")
    n = g.num_vertices
    log_n = math.log(n)
    cap = max(1, math.ceil(log_n))
    k = weak_domination_number(g)[0]
    target = max(1, math.floor(k / (50.0 * log_n))) if log_n > 0 else 1
    out = [g.out_mask(v) for v in range(1, n + 1)]
    inc = [g.in_mask(v) for v in range(1, n + 1)]
    adj = g.symmetric_masks

    def dominated(members: int) -> list:
        # per vertex, how many of `members` its out-neighborhood covers
        return [(mask & members).bit_count() for mask in out]

    def greedy(order, capped: bool) -> int:
        # independent members in scan order; when capped, a vertex is also
        # passed over if one of its dominators already covers `cap` members
        chosen = 0
        for v in order:
            if adj[v - 1] & chosen or capped and any(
                (out[d - 1] & chosen).bit_count() >= cap for d in _mask_to_vertices(inc[v - 1])
            ):
                continue
            chosen |= 1 << (v - 1)
        return chosen

    probabilistic = k >= 50.0 * log_n
    if probabilistic:
        rng = np.random.default_rng(seed)
        beta = 2.0 * log_n / k
        # shrink W until no vertex dominates more than a beta fraction of it
        r = sum(1 << (v - 1) for v in w)
        while r:
            bound = beta * r.bit_count()
            hit = next((mask & r for mask in out if (mask & r).bit_count() > bound), 0)
            if not hit:
                break
            r &= ~hit
        m = math.floor(1.0 / (10.0 * beta))
        r_list = sorted(_mask_to_vertices(r))
        for _ in range(max_attempts):
            if m < 1 or not r_list:
                break
            sample = sorted(set(rng.choice(r_list, size=m, replace=True).tolist()))
            if len(sample) * 10 < m:
                continue
            members = sum(1 << (v - 1) for v in sample)
            counts = dominated(members)
            if max(counts) > log_n or 2 * sum(counts[v - 1] for v in sample) > len(sample):
                continue
            # ascending degree inside the sample, then vertex
            sample.sort(key=lambda v: (
                (out[v - 1] & members).bit_count() + (inc[v - 1] & members).bit_count(), v
            ))
            chosen = greedy(sample, capped=False)
            if chosen.bit_count() >= target and max(dominated(chosen)) <= cap:
                return CappedIndependentSet(_mask_to_vertices(chosen), cap, True, False)
    # in the probabilistic regime this pass is reached only when no sample
    # succeeded, so it is the fallback
    chosen = greedy(sorted(w), capped=True)
    return CappedIndependentSet(
        _mask_to_vertices(chosen), cap, chosen.bit_count() >= target, probabilistic
    )


# ---------------------------------------------------------------------------
# loss-table serialization


def save_loss_table(path, table: np.ndarray):
    """Write a T x K loss table as comma-separated rows."""
    np.savetxt(path, np.asarray(table, dtype=float), delimiter=",", fmt="%.17g")


def load_loss_table(path) -> np.ndarray:
    """Read a table `save_loss_table` wrote; `Environment` checks its range."""
    return np.loadtxt(path, delimiter=",", ndmin=2)


# ---------------------------------------------------------------------------
# uniform construction from a spec (used by the harness and the CLI)


@dataclass(frozen=True)
class EnvSpec:
    """Which environment to build, minus the seed and horizon."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ENV_PARAMS:
            raise ValueError(f"unknown environment kind {self.kind!r}; choose from {ENV_KINDS}")
        unread = sorted(set(self.params) - set(ENV_PARAMS[self.kind]))
        if unread:
            raise ValueError(
                f"the {self.kind} environment reads no {', '.join(unread)}; "
                f"it takes {', '.join(ENV_PARAMS[self.kind])}"
            )


def build_environment(
    spec: EnvSpec, horizon: int, seed, num_actions: int | None = None,
    graph: FeedbackGraph | None = None, chi=None,
) -> Environment:
    """Instantiate an EnvSpec. `chi` overrides the spec's own chi parameter,
    which is how matched-seed chi pairs are produced.

    The action count is decided here and nowhere else: the graph's vertex
    count when a graph is given, else the spec's `k` (thm7), else
    `num_actions`. Beside either of the first two, `num_actions` is only a
    cross-check: two counts that disagree are refused, naming both. A table
    or bernoulli environment is as wide as its table or `mu`, which a count
    given beside it must equal too."""
    if _integer(horizon, "horizon") < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    params = spec.params
    if chi is None:
        chi = params.get("chi")
    if chi is not None:
        chi = _integer(chi, "chi")
    counts = {"the graph's vertex count": None if graph is None else graph.num_vertices,
              "k": params.get("k"), "num_actions": num_actions}
    counts = [(name, _integer(count, name)) for name, count in counts.items() if count is not None]
    source, num_actions = counts[0] if counts else (None, None)
    for name, count in counts[1:]:
        if count != num_actions:
            raise ValueError(f"{source} is {num_actions} but {name} is {count}")
    if num_actions is None and spec.kind in ("thm4", "thm8", "thm7"):
        raise ValueError(f"{spec.kind} environment needs the action count")
    if spec.kind == "table":
        table = params.get("table")
        if table is None:
            path = params.get("path")
            if path is None:
                raise ValueError("table environment needs `table` or `path`")
            table = load_loss_table(path)
        env = table_env(table)
        if env.horizon != horizon:
            raise ValueError(f"table has {env.horizon} rows but horizon is {horizon}")
    elif spec.kind == "bernoulli":
        mu = params.get("mu")
        if mu is None:
            raise ValueError("bernoulli environment needs `mu`")
        env = bernoulli_env(mu, horizon, seed)
    elif spec.kind == "thm4":
        env = hidden_arm_env(1 if chi is None else chi, horizon, num_actions)
    elif spec.kind == "thm8":
        env = simple_weak_env(
            horizon, num_actions, 1 if chi is None else chi, seed, eps=params.get("eps"),
        )
    elif spec.kind == "thm5":
        if graph is None:
            raise ValueError("thm5 environment needs the feedback graph")
        env = weak_lower_env(graph, horizon, seed, chi=chi, eps=params.get("eps"))
    else:  # thm7, the last kind an EnvSpec admits
        env = uninformed_separation_env(num_actions, horizon, seed, chi=chi, eps=params.get("eps"))
    if num_actions is not None and env.num_actions != num_actions:
        raise ValueError(
            f"{source} is {num_actions} but the {spec.kind} environment has "
            f"{env.num_actions} actions"
        )
    return env
