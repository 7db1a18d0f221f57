"""Exponential-weights learners with graph feedback: Exp3.G's row functions
(play distribution, draw, and the update that adds importance-weighted
estimates), its parameter presets, and the single-game `Exp3G` reference.
Hedge is exponential weights over cumulative losses: the play distribution
with gamma = 0.

Actions are the graph's vertices, 1-indexed; entry i-1 of a probability
vector belongs to action i. A round is three row-function calls,
`exponential_weights`, `sample_index` and `importance_weighted_estimates`,
along a trailing action axis, in the two forms the lockstep engine plays:
- one row as Python floats and lists: the cumulative losses, rates and
  distribution are lists and floats, the draw takes a float uniform and
  returns an int, and the update reads the observed vertices as 0-based
  indices. The engine plays a lone row so, and so does the single-game
  `Exp3G` reference;
- R x K rows of games in lockstep, as numpy arrays written into buffers the
  engine allocates once per batch (`out=`): the draw takes the R x 1 column
  of uniforms, the update an in-matrix, a boolean mask and full loss rows.
`exponential_weights` also allocates a new array when no `out=` is given,
the same bits. The estimate takes one matrix-vector product per row for any
R, as BLAS rounds a product over all rows by their count.

A numpy call on K <= 10 floats costs about a microsecond (2-vCPU Xeon,
numpy 2.4), most of it overhead, so the list form calls numpy only where its
bits are numpy's own: `np.exp` (`math.exp` rounds some inputs otherwise),
the pairwise sum `np.add.reduce`, and the BLAS in-matrix product. The shift,
scale, mix, estimate and update are single IEEE operations, the same bits in
Python, and the draw bisects a running sum, so every list result equals its
row of an R x K call.

A zero observation probability on an observed vertex is caught from
numpy's divide flags, not by a pass over the estimates: the estimate's
masked divide raises under `np.errstate(divide="raise", invalid="raise")`,
which the engine enters once around its rounds. The list form catches
Python's ZeroDivisionError, which x/0 and 0/0 both raise, and raises the
same RuntimeError.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .graph import FeedbackGraph, GraphClass, GraphProfile
from .graph import profile as graph_profile

MODE_FIXED = "fixed"
MODE_INFORMED = "informed"
MODE_UNINFORMED = "uninformed"
MODES = (MODE_FIXED, MODE_INFORMED, MODE_UNINFORMED)


def _check_rates(eta, gamma):
    """Refuse a learning rate that is not positive and finite (NaN included)
    or an exploration rate outside [0, 1]; None stands for a rate not yet set."""
    if eta is not None and not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    if gamma is not None and not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")


def exponential_weights(cumulative, eta, terms: tuple, out: np.ndarray | None = None):
    """Exp3.G's play distribution: (1 - gamma) times the distribution
    proportional to exp(-eta * cumulative), plus gamma * u, along the
    trailing action axis. One K-vector, or R x K rows with `eta` a scalar,
    an R x 1 column or an R x K array (the same bits, but no column is
    broadcast).

    `terms` is `exploration_terms(gamma, u)` for the exploration rate gamma
    and distribution u, computed once by a caller that plays many rounds
    with the same gamma and u. Hedge and the plain weights pass gamma = 0
    terms, whose 1.0 * w + 0.0 is w bit for bit.

    Computed with a max shift in log space: the cumulative estimates can reach
    |U|/gamma per round, so the naive product underflows long before the
    distribution itself degenerates.

    A list of floats is one row, with `eta` a float and the exploration term
    a list: the result is a list, the bits of its row of an R x K call.
    `out`, a float array of the cumulative's shape, receives an array result
    and is returned; by default a new array is. Both give the same bits.
    """
    keep, explore = terms
    if isinstance(cumulative, list):  # one row
        low = min(cumulative)
        w = np.exp([eta * (low - c) for c in cumulative])
        total = float(np.add.reduce(w))
        return [keep * (x / total) + e for x, e in zip(w.tolist(), explore)]
    low = np.minimum.reduce(cumulative, axis=-1, keepdims=True)
    w = np.multiply(eta, np.subtract(low, cumulative, out=out), out=out)
    np.exp(w, out=w)
    np.divide(w, np.add.reduce(w, axis=-1, keepdims=True), out=w)
    np.multiply(keep, w, out=w)
    return np.add(w, explore, out=w)


def exploration_terms(gamma, u: np.ndarray) -> tuple:
    """The two parts of Exp3.G's mixture that the weights do not change: the
    factor 1 - gamma and the exploration term gamma * u."""
    return 1.0 - gamma, gamma * u


def exploration_vector(num_actions: int, vertices) -> np.ndarray:
    """The uniform distribution over a nonempty set of 1-indexed vertices."""
    vertices = sorted(set(int(v) for v in vertices))
    if not vertices:
        raise ValueError("exploration set must be nonempty")
    if vertices[0] < 1 or vertices[-1] > num_actions:
        raise ValueError("exploration set out of range")
    u = np.zeros(num_actions)
    u[np.asarray(vertices) - 1] = 1.0 / len(vertices)
    return u


def informed_exploration_set(prof: GraphProfile) -> tuple:
    """Where informed play explores on a round whose graph it was shown: the
    smallest weakly dominating set of a weakly observable graph, else every
    vertex."""
    if prof.graph_class is GraphClass.WEAKLY_OBSERVABLE:
        return tuple(sorted(prof.delta_witness))
    return tuple(range(1, prof.num_vertices + 1))


def sample_index(dist, u, out: np.ndarray | None = None):
    """Inverse-CDF draws along the trailing action axis, one uniform per
    row; returns 0-based indices.

    Two forms, the two the engine plays. One row is a list of floats with a
    float uniform, and returns an int. R x K rows take the R x 1 column of
    uniforms and write the indices into `out`, an intp R-vector, which is
    returned. A draw counts the CDF entries at or below its uniform:
    searchsorted(side="right"), the first entry above it. One row bisects
    (`bisect_right`) the first K-1 entries of Python's running sum of its
    probabilities, the bits of `np.add.accumulate`'s sequential sum; R rows
    set the last column to +inf and take the first entry above, an argmax
    over a boolean array, which needs no cast to count. Either way a uniform
    beyond a CDF that rounds below 1 lands on the last action. Fixed vertex
    order plus one uniform per draw keeps action sequences reproducible
    across runs that share a generator state.
    """
    if isinstance(u, float):  # one row
        return bisect_right(list(accumulate(dist)), u, 0, len(dist) - 1)
    c = np.add.accumulate(dist, axis=-1)
    c[:, -1] = np.inf
    return np.greater(c, u).argmax(-1, out)


def importance_weighted_estimates(in_matrix: np.ndarray, p, observed, losses, cumulative,
                                  out=None):
    """Add the round's loss estimates into `cumulative` in place and return
    it: observed losses divided by their observation probability P(i) =
    in-neighborhood mass under p; zero elsewhere, so an unobserved entry
    keeps its bits (c + 0.0 is c, and no cumulative loss is -0.0).

    Two forms, the two the engine plays. One row: p is a list of floats on
    one K x K in-matrix, `observed` lists the observed actions' 0-based
    indices, `losses` is the row's losses as floats, and `cumulative` a list
    of floats. R x K rows: `in_matrix` is one K x K broadcast over the rows,
    or R x K x K with one per row; `observed` is a boolean R x K mask and
    `losses` the full loss rows, of which only the masked entries are read;
    `out`, a float array of p's shape, is zero-filled and receives the
    estimates, which are then added to the `cumulative` array.

    When the indicator is zero the estimate is zero with no division
    performed, so P(i)=0 off the observed set is fine: the masked divide
    never touches those entries and sets no floating-point flag. P(i)=0 on
    the observed set means the event is inconsistent with p and signals a
    harness bug; it raises a RuntimeError naming the vertices, before
    `cumulative` changes. The rows catch it from numpy's divide flags, with
    no pass over the result, so the caller calls them under
    `np.errstate(divide="raise", invalid="raise")`, entered once around its
    rounds, since entering it costs more than the rest of the call. The list
    row catches Python's ZeroDivisionError, which x/0 and 0/0 both raise.
    """
    if isinstance(p, list):  # one row
        prob = in_matrix.dot(p).tolist()
        try:
            est = [losses[i] / prob[i] for i in observed]
        except ZeroDivisionError:
            _zero_probability([i + 1 for i in observed if prob[i] <= 0.0])
        for i, x in zip(observed, est):
            cumulative[i] += x
        return cumulative
    out.fill(0.0)
    prob = np.matmul(in_matrix, p[..., None])[..., 0]
    try:
        np.divide(losses, prob, out=out, where=observed)
    except FloatingPointError:  # x/0 is a divide flag, 0/0 an invalid one
        _zero_probability((np.argwhere(observed & (prob <= 0.0))[:, -1] + 1).tolist())
    return np.add(cumulative, out, out=cumulative)


def _zero_probability(vertices):
    raise RuntimeError(
        f"observed actions {vertices} have zero observation probability; "
        "the feedback event is inconsistent with the play distribution"
    ) from None


# ---------------------------------------------------------------------------
# graph-feedback learner


class Exp3G:
    """Exponential weights driven by importance-weighted estimates built from
    graph feedback, mixed with uniform exploration over a set U.

    This is the single-game reference, played one round at a time through
    `act` and `update` on the row functions' one-row list form: its
    cumulative losses, `p` and `q` are Python lists. The harness's lockstep
    engine never calls it, and plays the same arithmetic through the same
    functions.

    Modes: `fixed` plays one graph for the whole game; `informed` receives
    each round's graph before acting (and re-targets exploration at its
    smallest weakly dominating set); `uninformed` receives the graph only
    with the feedback, and explores uniformly over everything.
    """

    def __init__(
        self,
        num_actions: int,
        eta: float,
        gamma: float,
        exploration_set=None,
        graph: FeedbackGraph | None = None,
        mode: str = MODE_FIXED,
    ):
        if num_actions < 1:
            raise ValueError("need at least one action")
        if eta is None or gamma is None:  # `_check_rates` reads None as a rate not yet set
            raise ValueError(f"{'eta' if eta is None else 'gamma'} must be set, got None")
        _check_rates(eta, gamma)
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if mode == MODE_FIXED and graph is None:
            raise ValueError("fixed mode needs a graph")
        if graph is not None and graph.num_vertices != num_actions:
            raise ValueError("graph size does not match num_actions")
        self.num_actions = num_actions
        self.eta = eta
        self.gamma = gamma
        self.mode = mode
        self.graph = graph
        self.cumulative = [0.0] * num_actions
        self.round = 1
        self._set_exploration(
            exploration_set if exploration_set is not None else range(1, num_actions + 1)
        )
        self._round_graph = graph if mode == MODE_FIXED else None
        self._p = None

    def _set_exploration(self, vertices):
        u = exploration_vector(self.num_actions, vertices)
        self.exploration_set = tuple(int(v) + 1 for v in np.flatnonzero(u))
        keep, explore = exploration_terms(self.gamma, u)
        self._terms = (keep, explore.tolist())

    @property
    def q(self) -> list:
        return exponential_weights(self.cumulative, self.eta, (1.0, [0.0] * self.num_actions))

    @property
    def p(self) -> list:
        if self._p is None:
            self._p = exponential_weights(self.cumulative, self.eta, self._terms)
        return self._p

    def set_round_graph(self, g: FeedbackGraph):
        """Supply round t's graph before acting, in the informed model; the
        uninformed model gets its graph with the feedback."""
        if g.num_vertices != self.num_actions:
            raise ValueError("graph size does not match num_actions")
        if self.mode != MODE_INFORMED:
            raise ValueError("round graphs are set before acting only in informed mode")
        self._set_exploration(informed_exploration_set(graph_profile(g)))
        self._round_graph = g
        self._p = None

    def act(self, rng) -> int:
        """Draw an action from p. Repeated calls within a round resample the
        same distribution."""
        if self.mode == MODE_INFORMED and self._round_graph is None:
            raise RuntimeError("informed mode needs set_round_graph before acting")
        return sample_index(self.p, rng.random()) + 1

    def update(
        self, action: int, observed_actions, observed_losses, graph: FeedbackGraph | None = None
    ):
        """Take one round's feedback: the 1-indexed vertices whose losses were
        revealed (exactly the out-neighborhood of `action` in the round's
        graph) and those losses, aligned. In the uninformed model, and only
        there, the round's graph comes with them as `graph`."""
        if graph is not None and self.mode != MODE_UNINFORMED:
            raise ValueError("a graph comes with the feedback only in uninformed mode")
        g = graph if graph is not None else self._round_graph
        if g is None:
            raise RuntimeError("no graph available for the update")
        if self._p is None:
            raise RuntimeError("update before any action was drawn")
        expected = sorted(g.out_neighbors(action))  # refuses an action outside 1..K
        if list(observed_actions) != expected:
            raise ValueError(
                f"observed set does not match the out-neighborhood of action {action}"
            )
        losses = [float(x) for x in observed_losses]
        if len(losses) != len(expected):
            raise ValueError("need one loss per observed vertex")
        if not all(0.0 <= x <= 1.0 for x in losses):  # NaN fails too
            raise ValueError("observed losses must lie in [0, 1]")
        seen = [v - 1 for v in expected]
        row = [0.0] * self.num_actions
        for i, x in zip(seen, losses):
            row[i] = x
        importance_weighted_estimates(g.in_matrix, self.p, seen, row, self.cumulative)
        self.round += 1
        self._p = None
        if self.mode != MODE_FIXED:
            self._round_graph = None


def doubling_rates(
    num_actions: int, rounds: int, alpha_sum, delta_sum, weak_rounds: int, weak: bool
) -> tuple:
    """(eta, gamma) of the doubling-trick epoch that starts at round `rounds`
    (a power of two), from the sums of alpha over all rounds so far and of
    delta over the `weak_rounds` weakly observable ones; `weak` says whether
    the starting round's graph is weakly observable."""
    if weak:
        delta_bar = delta_sum / weak_rounds
        gamma = min((delta_bar * math.log(num_actions) / rounds) ** (1 / 3), 0.5)
        return gamma**2 / delta_bar, gamma
    alpha_bar = max(alpha_sum / rounds, 1.0)
    gamma = min(math.sqrt(1.0 / (alpha_bar * rounds)), 0.5)
    return 2.0 * gamma, gamma


# ---------------------------------------------------------------------------
# parameter presets


@dataclass(frozen=True)
class Preset:
    exploration_set: tuple
    gamma: float
    eta: float


def preset_strong(prof: GraphProfile, horizon: int) -> Preset:
    """Strongly observable graphs: explore everywhere, gamma ~ (alpha*T)^(-1/2)."""
    if prof.graph_class is not GraphClass.STRONGLY_OBSERVABLE:
        raise ValueError("strong preset needs a strongly observable graph")
    if prof.num_vertices < 2:
        raise ValueError("strong preset needs K >= 2")
    gamma = min(math.sqrt(1.0 / (prof.alpha * horizon)), 0.5)
    return Preset(tuple(range(1, prof.num_vertices + 1)), gamma, 2.0 * gamma)


def preset_weak(prof: GraphProfile, horizon: int) -> Preset:
    """Weakly observable graphs: explore the weakly dominating set,
    gamma ~ (delta*lnK/T)^(1/3). Warns when the horizon is below the regime
    where the regret guarantee holds, or when delta is a greedy cover rather
    than the exact weak domination number, but still returns the parameters."""
    if prof.graph_class is not GraphClass.WEAKLY_OBSERVABLE:
        raise ValueError("weak preset needs a weakly observable graph")
    k, delta = prof.num_vertices, prof.delta
    if not prof.delta_exact:
        warnings.warn(
            f"delta = {delta} is a greedy cover, not the exact weak domination "
            f"number (K={k} is past the exact solver's cap); gamma and eta are "
            "tuned from it",
            RuntimeWarning,
            stacklevel=2,
        )
    if horizon < k**3 * math.log(k) / delta**2:
        warnings.warn(
            f"horizon {horizon} is below K^3*ln(K)/delta^2 = "
            f"{k**3 * math.log(k) / delta**2:.0f}; the T^(2/3) guarantee "
            "does not cover this regime",
            RuntimeWarning,
            stacklevel=2,
        )
    gamma = min((delta * math.log(k) / horizon) ** (1.0 / 3.0), 0.5)
    return Preset(tuple(sorted(prof.delta_witness)), gamma, gamma**2 / delta)


def preset_loopless_clique(num_actions: int, horizon: int) -> Preset:
    """Sharper tuning for the clique without self-loops: eta = sqrt(lnK/(2T))."""
    if num_actions < 2:
        raise ValueError("loopless clique preset needs K >= 2")
    eta = math.sqrt(math.log(num_actions) / (2.0 * horizon))
    return Preset(tuple(range(1, num_actions + 1)), 2.0 * eta, eta)


def preset_uninformed(num_actions: int, horizon: int) -> Preset:
    """Uninformed time-varying play: explore everything; the weak-graph tuning
    with the dominating-set size replaced by K, matching its K^(1/3)T^(2/3)
    guarantee."""
    if num_actions < 2:
        raise ValueError("uninformed preset needs K >= 2")
    gamma = min((num_actions * math.log(num_actions) / horizon) ** (1.0 / 3.0), 0.5)
    return Preset(tuple(range(1, num_actions + 1)), gamma, gamma**2 / num_actions)
