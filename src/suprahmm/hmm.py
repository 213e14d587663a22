"""Circular hidden Markov models of order 1-3 with Gaussian-mixture emissions.

States sit on a ring: from state i the only legal moves are the self-loop
and the clockwise successor (i+1) mod N.  Higher-order chains are scored
and trained by reduction to a first-order lattice over context tuples, so
forward, Viterbi, and Baum-Welch stay textbook-standard.  An order-r model
keeps one tensor per context length 1..r: the shorter ones boot the chain
at t = 2..r, the full-order tensor drives every later step.

All probability math runs in log space; illegal moves are structurally
absent from the sparse tensors and therefore carry exactly zero mass.

The lattice recursions (forward, backward, Viterbi) carry a batch axis:
log-emissions are (T, B, N), time first and one row per utterance, padded
with log-emission 0 past each row's length and read at each row's own
last frame.  Baum-Welch runs one batched E-step over the whole corpus per
iteration, and a single utterance is the one-row case.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

LOG_ZERO = -np.inf

TRANSITION_FLOOR = 1e-6
MIXTURE_WEIGHT_FLOOR = 1e-6
VARIANCE_FLOOR_SCALE = 1e-4
ABS_VARIANCE_FLOOR = 1e-8
EMISSION_BLOCK_FRAMES = 256

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class CircularTopology:
    """Ring of num_states states; legal moves are self-loop and successor."""

    num_states: int

    def __post_init__(self):
        if self.num_states < 1:
            raise ValueError("need at least one state")

    def successors(self, state: int) -> tuple[int, ...]:
        """Successors in storage order: (self, clockwise next)."""
        if not 0 <= state < self.num_states:
            raise ValueError("state %d out of range [0, %d)" % (state, self.num_states))
        if self.num_states == 1:
            return (0,)
        return (state, (state + 1) % self.num_states)

    @property
    def branch(self) -> int:
        """Number of legal successors per state (2, or 1 when N = 1)."""
        return 1 if self.num_states == 1 else 2


def legal_successors(topology: CircularTopology, state: int) -> set[int]:
    """The set of states reachable from `state` in one step."""
    return set(topology.successors(state))


def legal_contexts(topology: CircularTopology, order: int) -> list[tuple[int, ...]]:
    """All length-`order` state tuples whose consecutive moves are legal, sorted."""
    if order < 1:
        raise ValueError("order must be >= 1")
    contexts = [(i,) for i in range(topology.num_states)]
    for _ in range(order - 1):
        contexts = [c + (s,) for c in contexts for s in topology.successors(c[-1])]
    return sorted(contexts)


def _lse_last(z: np.ndarray) -> np.ndarray:
    """log-sum-exp over the last axis; rows that are all -inf give -inf."""
    peak = z.max(axis=-1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(z - shift[..., None]).sum(axis=-1)) + shift


def _floored_row(probs: np.ndarray, floor: float) -> np.ndarray:
    probs = np.maximum(probs, floor)
    return probs / probs.sum()


class TransitionTensor:
    """Order-r transition probabilities stored only on legal circular paths.

    Row `contexts[i]` holds the distribution over the successors of the
    context's last state, in `CircularTopology.successors` order.
    """

    def __init__(self, topology: CircularTopology, order: int, matrix: np.ndarray):
        self.topology = topology
        self.order = order
        self.contexts = tuple(legal_contexts(topology, order))
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (len(self.contexts), topology.branch):
            raise ValueError(
                "transition matrix must have shape (%d, %d)"
                % (len(self.contexts), topology.branch)
            )
        self.matrix = matrix
        self._row_index = {ctx: i for i, ctx in enumerate(self.contexts)}

    @classmethod
    def uniform(cls, topology: CircularTopology, order: int) -> "TransitionTensor":
        rows = len(legal_contexts(topology, order))
        matrix = np.full((rows, topology.branch), 1.0 / topology.branch)
        return cls(topology, order, matrix)

    def row(self, context: tuple[int, ...]) -> np.ndarray:
        return self.matrix[self._row_index[context]]

    def row_index(self, context: tuple[int, ...]) -> int:
        return self._row_index[context]

    def prob(self, context: tuple[int, ...], next_state: int) -> float:
        """Probability of `next_state` after `context`; 0 for illegal moves."""
        if context not in self._row_index:
            return 0.0
        successors = self.topology.successors(context[-1])
        if next_state not in successors:
            return 0.0
        return float(self.row(context)[successors.index(next_state)])

    def copy(self) -> "TransitionTensor":
        return TransitionTensor(self.topology, self.order, self.matrix.copy())

    def validate(self, tol: float = 1e-12) -> None:
        if np.any(self.matrix < 0):
            raise ValueError("negative transition probability")
        sums = self.matrix.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > tol:
            raise ValueError("transition rows must sum to 1 within %g" % tol)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransitionTensor)
            and self.order == other.order
            and self.topology == other.topology
            and np.array_equal(self.matrix, other.matrix)
        )


@dataclass
class GaussianMixtureEmission:
    """Per-state diagonal Gaussian mixtures: weights (N,M), means and
    variances (N,M,D)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if self.weights.ndim != 2 or self.means.ndim != 3 or self.variances.ndim != 3:
            raise ValueError("expected weights (N,M), means and variances (N,M,D)")
        if self.means.shape != self.variances.shape or self.means.shape[:2] != self.weights.shape:
            raise ValueError("inconsistent emission parameter shapes")

    @property
    def num_states(self) -> int:
        return self.weights.shape[0]

    @property
    def num_mixtures(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.means.shape[2]

    def component_log_probs(self, obs: np.ndarray) -> np.ndarray:
        """Weighted per-component log densities, shape (T, N, M).

        Frames are scored in blocks, so the (frames, N, M, D) temporary stays
        small however many utterances are stacked into `obs`.
        """
        log_det = np.log(self.variances).sum(axis=2)
        with np.errstate(divide="ignore"):
            log_w = np.log(self.weights)
        out = np.empty((obs.shape[0],) + self.weights.shape)
        for start in range(0, obs.shape[0], EMISSION_BLOCK_FRAMES):
            x = obs[start : start + EMISSION_BLOCK_FRAMES, None, None, :]
            sq = ((x - self.means[None]) ** 2 / self.variances[None]).sum(axis=3)
            out[start : start + EMISSION_BLOCK_FRAMES] = (
                log_w[None] - 0.5 * (self.dim * _LOG_2PI + log_det[None] + sq)
            )
        return out

    def log_prob_matrix(self, obs: np.ndarray) -> np.ndarray:
        """log b_q(O_t) for every frame and state, shape (T, N)."""
        return _lse_last(self.component_log_probs(obs))

    def copy(self) -> "GaussianMixtureEmission":
        return GaussianMixtureEmission(
            self.weights.copy(), self.means.copy(), self.variances.copy()
        )

    def validate(self, tol: float = 1e-12) -> None:
        if np.any(self.weights < 0):
            raise ValueError("negative mixture weight")
        sums = self.weights.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > tol:
            raise ValueError("mixture weights must sum to 1 within %g" % tol)
        if np.any(self.variances <= 0):
            raise ValueError("variances must be strictly positive")


@dataclass
class HmmModel:
    """Order-r circular HMM.

    tensors[k] is the order-k transition tensor: it drives the step at
    time t = k+1 for k < r and every step from t = r+1 on for k = r.
    """

    topology: CircularTopology
    order: int
    initial: np.ndarray
    tensors: dict[int, TransitionTensor]
    emissions: GaussianMixtureEmission

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=np.float64)
        if self.order not in (1, 2, 3):
            raise ValueError("supported orders are 1, 2, 3")
        if self.initial.shape != (self.topology.num_states,):
            raise ValueError("initial distribution must have one entry per state")
        if sorted(self.tensors) != list(range(1, self.order + 1)):
            raise ValueError("need one tensor per context length 1..order")
        for k, tensor in self.tensors.items():
            if tensor.order != k or tensor.topology != self.topology:
                raise ValueError("tensor for context length %d is inconsistent" % k)
        if self.emissions.num_states != self.topology.num_states:
            raise ValueError("emissions must cover every state")

    @property
    def num_states(self) -> int:
        return self.topology.num_states

    @property
    def dim(self) -> int:
        return self.emissions.dim

    def copy(self) -> "HmmModel":
        return HmmModel(
            self.topology,
            self.order,
            self.initial.copy(),
            {k: t.copy() for k, t in self.tensors.items()},
            self.emissions.copy(),
        )

    def validate(self, tol: float = 1e-12) -> None:
        if abs(self.initial.sum() - 1.0) > tol or np.any(self.initial < 0):
            raise ValueError("initial distribution must be a probability vector")
        for tensor in self.tensors.values():
            tensor.validate(tol)
        self.emissions.validate(tol)

    def to_dict(self) -> dict:
        return {
            "format": "circular-hmm",
            "version": 1,
            "order": self.order,
            "num_states": self.num_states,
            "num_mixtures": self.emissions.num_mixtures,
            "dim": self.dim,
            "initial": self.initial.tolist(),
            "tensors": {
                str(k): {
                    ",".join(map(str, ctx)): tensor.matrix[i].tolist()
                    for i, ctx in enumerate(tensor.contexts)
                }
                for k, tensor in self.tensors.items()
            },
            "emissions": {
                "weights": self.emissions.weights.tolist(),
                "means": self.emissions.means.tolist(),
                "variances": self.emissions.variances.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HmmModel":
        if doc.get("format") != "circular-hmm":
            raise ValueError("not a circular-hmm document")
        topology = CircularTopology(int(doc["num_states"]))
        tensors = {}
        for key, rows in doc["tensors"].items():
            order = int(key)
            tensor = TransitionTensor.uniform(topology, order)
            matrix = np.empty_like(tensor.matrix)
            for ctx_key, row in rows.items():
                ctx = tuple(int(v) for v in ctx_key.split(","))
                matrix[tensor.row_index(ctx)] = row
            tensors[order] = TransitionTensor(topology, order, matrix)
        emissions = GaussianMixtureEmission(
            np.array(doc["emissions"]["weights"]),
            np.array(doc["emissions"]["means"]),
            np.array(doc["emissions"]["variances"]),
        )
        model = cls(topology, int(doc["order"]), np.array(doc["initial"]), tensors, emissions)
        model.validate(tol=1e-9)
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "HmmModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _as_frames(observations) -> np.ndarray:
    frames = getattr(observations, "frames", observations)
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise ValueError("observations must form a non-empty (T, D) matrix")
    if not np.all(np.isfinite(frames)):
        raise ValueError("observations contain non-finite values")
    return frames


def _check_dim(model: HmmModel, frames: np.ndarray) -> None:
    if frames.shape[1] != model.dim:
        raise ValueError(
            "observation dim %d does not match emission dim %d"
            % (frames.shape[1], model.dim)
        )


# ---------------------------------------------------------------------------
# Path scoring
# ---------------------------------------------------------------------------


def _log(p: float) -> float:
    return float(np.log(p)) if p > 0.0 else LOG_ZERO


def sequence_log_prob(model: HmmModel, states) -> float:
    """Log-probability of a state path; -inf if it uses an illegal move.

    The path factorizes as initial * boot terms * full-order terms: step t
    conditions on the previous min(t-1, order) states.
    """
    states = [int(s) for s in np.asarray(states).ravel()]
    if not states:
        raise ValueError("state sequence must be non-empty")
    for s in states:
        if not 0 <= s < model.num_states:
            raise ValueError("state %d out of range" % s)
    total = _log(float(model.initial[states[0]]))
    for t in range(1, len(states)):
        k = min(t, model.order)
        context = tuple(states[t - k : t])
        total += _log(model.tensors[k].prob(context, states[t]))
    return total


def joint_log_prob(model: HmmModel, states, observations) -> float:
    """Log of the joint path/observation probability under the model."""
    frames = _as_frames(observations)
    _check_dim(model, frames)
    states = [int(s) for s in np.asarray(states).ravel()]
    if len(states) != frames.shape[0]:
        raise ValueError("state path and observations must have equal length")
    path_lp = sequence_log_prob(model, states)
    if path_lp == LOG_ZERO:
        return LOG_ZERO
    log_b = model.emissions.log_prob_matrix(frames)
    return path_lp + float(log_b[np.arange(len(states)), states].sum())


# ---------------------------------------------------------------------------
# Composite lattice
# ---------------------------------------------------------------------------


class _Step:
    """One lattice time step with both predecessor and successor views."""

    __slots__ = (
        "order",
        "pred_idx",
        "pred_logw",
        "pred_row",
        "pred_col",
        "succ_idx",
        "succ_logw",
        "emit",
    )


def _time_mask(lengths: np.ndarray, num_steps: int) -> np.ndarray:
    """(T, B) mask of the frames inside each row."""
    return np.arange(num_steps)[:, None] < lengths[None, :]


def _pad_rows(stacked: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Scatter row-stacked (sum T, N) values into (T_max, B, N); zero past
    each row's end."""
    mask = _time_mask(lengths, int(lengths.max()))
    padded = np.zeros(mask.shape + stacked.shape[1:])
    padded.transpose(1, 0, 2)[mask.T] = stacked
    return padded


class CompositeLattice:
    """First-order view of an order-r circular model over context tuples.

    Lattice states at time t are the last min(t, r) path states; boot
    steps extend the tuple, stationary steps shift it.  Every state has at
    most two predecessors and two successors, so the DP recursions reduce
    to fixed-width gather/logaddexp operations.

    The recursions step a batch of utterances through time together.
    Log-emissions come as (T, B, N): time on axis 0, one row per
    utterance, ring states last, with each row's frame count in
    `lengths`.  Frames past a row's end carry log-emission 0, and every
    row is read, reset or backtracked at its own last frame, so the
    padding reaches no result.  Lattice values are stored (T, S, B) over
    the S stationary states, so each time layer is one contiguous block
    for the gathers, and returned as (T, B, S) views; a boot layer fills
    the first states and leaves -inf in the rest.
    """

    def __init__(self, model: HmmModel):
        self.model = model
        self.order = model.order
        topology = model.topology

        layers = [[(i,) for i in range(topology.num_states)]]
        for k in range(2, model.order + 1):
            layers.append(sorted(c + (s,) for c in layers[-1] for s in topology.successors(c[-1])))
        self.stationary_states = layers[-1]
        self.layer_emit = [np.array([c[-1] for c in layer]) for layer in layers]

        self.boot_steps = [
            self._build_boot_step(layers[k - 1], layers[k], model.tensors[k])
            for k in range(1, model.order)
        ]
        self.stationary_step = self._build_stationary_step(model.tensors[model.order])
        self.steps = self.boot_steps + [self.stationary_step]
        self.stationary_size = len(self.stationary_states)
        self.initial_log = self._safe_log(model.initial)
        # Ring state of every composite index, one row per layer (padded).
        self._emit_table = np.zeros((len(layers), self.stationary_size), dtype=np.intp)
        for layer, emit in enumerate(self.layer_emit):
            self._emit_table[layer, : emit.size] = emit

    @staticmethod
    def _safe_log(values: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(values)

    def _build_boot_step(self, prev_layer, next_layer, tensor) -> _Step:
        topology = self.model.topology
        prev_index = {c: i for i, c in enumerate(prev_layer)}
        next_index = {c: i for i, c in enumerate(next_layer)}
        log_matrix = self._safe_log(tensor.matrix)

        step = _Step()
        step.order = tensor.order
        n_next, n_prev = len(next_layer), len(prev_layer)
        width = topology.branch

        step.pred_idx = np.zeros((n_next, 1), dtype=np.intp)
        step.pred_logw = np.full((n_next, 1), LOG_ZERO)
        step.pred_row = np.zeros(n_next, dtype=np.intp)
        step.pred_col = np.zeros(n_next, dtype=np.intp)
        step.succ_idx = np.zeros((n_prev, width), dtype=np.intp)
        step.succ_logw = np.full((n_prev, width), LOG_ZERO)

        for j, ctx in enumerate(next_layer):
            prefix, last = ctx[:-1], ctx[-1]
            row = tensor.row_index(prefix)
            col = topology.successors(prefix[-1]).index(last)
            step.pred_idx[j, 0] = prev_index[prefix]
            step.pred_logw[j, 0] = log_matrix[row, col]
            step.pred_row[j] = row
            step.pred_col[j] = col
        for i, ctx in enumerate(prev_layer):
            for col, s in enumerate(topology.successors(ctx[-1])):
                step.succ_idx[i, col] = next_index[ctx + (s,)]
                step.succ_logw[i, col] = log_matrix[tensor.row_index(ctx), col]
        step.emit = self.layer_emit[len(next_layer[0]) - 1]
        return step

    def _build_stationary_step(self, tensor) -> _Step:
        topology = self.model.topology
        states = self.stationary_states
        index = {c: i for i, c in enumerate(states)}
        log_matrix = self._safe_log(tensor.matrix)
        width = topology.branch
        n = len(states)

        step = _Step()
        step.order = tensor.order
        step.succ_idx = np.zeros((n, width), dtype=np.intp)
        step.succ_logw = np.full((n, width), LOG_ZERO)
        incoming: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for i, ctx in enumerate(states):
            row = tensor.row_index(ctx)
            for col, s in enumerate(topology.successors(ctx[-1])):
                dst = index[ctx[1:] + (s,)]
                step.succ_idx[i, col] = dst
                step.succ_logw[i, col] = log_matrix[row, col]
                incoming[dst].append((i, log_matrix[row, col]))

        max_in = max(len(edges) for edges in incoming)
        step.pred_idx = np.zeros((n, max_in), dtype=np.intp)
        step.pred_logw = np.full((n, max_in), LOG_ZERO)
        for j, edges in enumerate(incoming):
            for slot, (src, logw) in enumerate(sorted(edges)):
                step.pred_idx[j, slot] = src
                step.pred_logw[j, slot] = logw
        step.emit = self.layer_emit[-1]
        return step

    def _step_index(self, t: int) -> int:
        """Index in `steps` of the step feeding the layer at (0-based) time t."""
        return min(t, self.order) - 1

    def _flat_edges(self, kind: str, batch: int) -> list[np.ndarray]:
        """Each step's `kind` edge indices (n, width) as flat (n, width, B)
        indices into a C-ordered (n, B) layer, so a gather is one 1-D take."""
        return [getattr(s, kind)[:, :, None] * batch + np.arange(batch) for s in self.steps]

    def _emission_lattice(self, log_b: np.ndarray) -> np.ndarray:
        """(T, S, B) log-emission of every lattice state: that of the ring
        state its context tuple ends in."""
        emit_b = log_b.transpose(0, 2, 1)
        lattice_b = emit_b[:, self.layer_emit[-1]]
        for t in range(min(self.order - 1, len(log_b))):
            emit = self.layer_emit[t]
            lattice_b[t, : emit.size] = emit_b[t, emit]
        return lattice_b

    def _start(self, lattice_b: np.ndarray) -> np.ndarray:
        """(T, S, B) storage, -inf everywhere but the t = 0 layer."""
        values = np.full(lattice_b.shape, LOG_ZERO)
        n = self.layer_emit[0].size
        values[0, :n] = self.initial_log[:, None] + lattice_b[0, :n]
        return values

    @staticmethod
    def _lse_slots(z: np.ndarray, out: np.ndarray) -> None:
        """log-sum-exp of (n, width, B) edge scores over the width slots."""
        if z.shape[1] == 1:
            out[...] = z[:, 0]
            return
        np.logaddexp(z[:, 0], z[:, 1], out=out)
        for col in range(2, z.shape[1]):
            np.logaddexp(out, z[:, col], out=out)

    def forward(self, log_b: np.ndarray, lengths):
        """Forward pass; returns (alphas (T, B, S), per-row log-likelihoods (B,))."""
        T, B, _ = log_b.shape
        lattice_b = self._emission_lattice(log_b)
        edges = self._flat_edges("pred_idx", B)
        alphas = self._start(lattice_b)
        for t in range(1, T):
            k = self._step_index(t)
            step, n = self.steps[k], self.steps[k].emit.size
            z = alphas[t - 1].ravel()[edges[k]]
            z += step.pred_logw[..., None]
            out = alphas[t, :n]
            self._lse_slots(z, out)
            out += lattice_b[t, :n]
        ends = alphas[np.asarray(lengths) - 1, :, np.arange(B)]
        return alphas.transpose(0, 2, 1), _lse_last(ends)

    def backward(self, log_b: np.ndarray, lengths) -> np.ndarray:
        """Backward pass; returns betas (T, B, S), 0 at each row's last frame."""
        T, B, _ = log_b.shape
        lattice_b = self._emission_lattice(log_b)
        edges = self._flat_edges("succ_idx", B)
        ending: dict[int, list[int]] = {}
        for row, n in enumerate(lengths):
            ending.setdefault(int(n) - 1, []).append(row)
        betas = np.full(lattice_b.shape, LOG_ZERO)
        betas[T - 1, : self.layer_emit[min(T - 1, self.order - 1)].size] = 0.0
        for t in range(T - 1, 0, -1):
            k = self._step_index(t)
            step, n = self.steps[k], self.steps[k].emit.size
            nxt = betas[t, :n] + lattice_b[t, :n]
            z = nxt.ravel()[edges[k]]
            z += step.succ_logw[..., None]
            prev = betas[t - 1, : z.shape[0]]
            self._lse_slots(z, prev)
            if t - 1 in ending:
                prev[:, ending[t - 1]] = 0.0
        return betas.transpose(0, 2, 1)

    def viterbi(self, log_b: np.ndarray, lengths):
        """Best path of every row and its log-probability.

        Returns (list of B state paths, each as long as its row, scores
        (B,)).  Each row is backtracked from its own last frame; ties
        prefer the lowest composite-state index (layers are sorted
        lexicographically, and a later edge slot must score strictly
        higher to win).
        """
        T, B, _ = log_b.shape
        lattice_b = self._emission_lattice(log_b)
        edges = self._flat_edges("pred_idx", B)
        scores = self._start(lattice_b)
        slots = np.zeros(scores.shape, dtype=np.intp)  # winning edge slot
        for t in range(1, T):
            k = self._step_index(t)
            step, n = self.steps[k], self.steps[k].emit.size
            z = scores[t - 1].ravel()[edges[k]]
            z += step.pred_logw[..., None]
            out, slot = scores[t, :n], slots[t, :n]
            out[...] = z[:, 0]
            for col in range(1, z.shape[1]):
                slot[z[:, col] > out] = col
                np.maximum(out, z[:, col], out=out)
            out += lattice_b[t, :n]
        lengths = np.asarray(lengths)
        rows = np.arange(B)
        ends = scores[lengths - 1, :, rows]
        final = np.argmax(ends, axis=1)

        preds = [s.pred_idx.tolist() for s in self.steps]
        step_of = [self._step_index(t) for t in range(T)]
        slot_of = slots.transpose(0, 2, 1).tolist()
        layer_of = np.minimum(np.arange(T), self.order - 1)
        paths = []
        for row, n in enumerate(lengths.tolist()):
            idx = [0] * n
            idx[-1] = cur = int(final[row])
            for t in range(n - 1, 0, -1):
                idx[t - 1] = cur = preds[step_of[t]][cur][slot_of[t][row][cur]]
            paths.append(self._emit_table[layer_of[:n], idx])
        return paths, ends[rows, final]


def _emission_batch(model: HmmModel, corpus):
    """Checked utterances as padded log-emissions (T_max, B, N) plus row
    lengths."""
    frames_list = [_as_frames(seq) for seq in corpus]
    for frames in frames_list:
        _check_dim(model, frames)
    lengths = np.array([f.shape[0] for f in frames_list])
    log_b = model.emissions.log_prob_matrix(np.vstack(frames_list))
    return _pad_rows(log_b, lengths), lengths


def forward_log_likelihood(model: HmmModel, observations) -> float:
    """log P(O | model): the exact sum over all legal state paths."""
    log_b, lengths = _emission_batch(model, [observations])
    _, ll = CompositeLattice(model).forward(log_b, lengths)
    return float(ll[0])


def forward_and_align(model: HmmModel, observations):
    """(log P(O | model), Viterbi state path) from one emission matrix and
    one lattice."""
    log_b, lengths = _emission_batch(model, [observations])
    lattice = CompositeLattice(model)
    _, ll = lattice.forward(log_b, lengths)
    paths, _ = lattice.viterbi(log_b, lengths)
    return float(ll[0]), paths[0]


def viterbi_align_batch(model: HmmModel, corpus):
    """Viterbi paths and joint log-probabilities of many utterances, aligned
    in one batched pass: (list of state paths, list of scores)."""
    log_b, lengths = _emission_batch(model, corpus)
    paths, scores = CompositeLattice(model).viterbi(log_b, lengths)
    return paths, scores.tolist()


def viterbi_align(model: HmmModel, observations):
    """Most likely state path and its joint log-probability."""
    paths, scores = viterbi_align_batch(model, [observations])
    return paths[0], scores[0]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class _Accumulators:
    """Expected sufficient statistics; merging across batches is a sum.

    Frame sums are taken about `center` (the corpus mean), so the M-step
    variance E[(x-c)^2] - E[x-c]^2 keeps its precision under large offsets.
    """

    def __init__(self, model: HmmModel, center: np.ndarray):
        self.center = center
        self.initial = np.zeros(model.num_states)
        self.tensor_counts = {
            k: np.zeros_like(t.matrix) for k, t in model.tensors.items()
        }
        em = model.emissions
        self.occupancy = np.zeros((em.num_states, em.num_mixtures))
        self.weighted_sum = np.zeros((em.num_states, em.num_mixtures, em.dim))
        self.weighted_sq_sum = np.zeros((em.num_states, em.num_mixtures, em.dim))


def _accumulate_batch(lattice: CompositeLattice, model: HmmModel, stacked: np.ndarray,
                      lengths: np.ndarray, acc: _Accumulators) -> np.ndarray:
    """E-step over row-stacked frames of B utterances; returns their (B,)
    log-likelihoods.  Raises ValueError if any utterance has zero
    likelihood."""
    order = model.order
    num_states = model.num_states
    comp_log = model.emissions.component_log_probs(stacked)
    log_b_stacked = _lse_last(comp_log)
    log_b = _pad_rows(log_b_stacked, lengths)
    T = log_b.shape[0]
    mask = _time_mask(lengths, T)

    alphas, ll = lattice.forward(log_b, lengths)
    bad = np.flatnonzero(~np.isfinite(ll))
    if bad.size:
        raise ValueError("observation sequence %d has zero likelihood under the model"
                         % bad[0])
    betas = lattice.backward(log_b, lengths)

    # Lattice posteriors, folded onto ring states one layer at a time.
    # Posteriors at padded frames are computed but never read.
    gamma_lattice = alphas + betas
    gamma_lattice -= ll[:, None]
    np.exp(gamma_lattice, out=gamma_lattice)
    gamma_states = np.empty((T, lengths.size, num_states))
    ring = np.eye(num_states)
    for layer, emit in enumerate(lattice.layer_emit):
        times = slice(layer, layer + 1) if layer < order - 1 else slice(order - 1, None)
        gamma_states[times] = gamma_lattice[times, :, : emit.size] @ ring[emit]
    del gamma_lattice

    acc.initial += gamma_states[0].sum(axis=0)

    # Mixture responsibilities over the stacked frames, built in place of
    # the component log-densities.
    resp = comp_log
    with np.errstate(invalid="ignore"):
        resp -= log_b_stacked[:, :, None]
        np.exp(resp, out=resp)
    resp[~np.isfinite(resp)] = 0.0
    resp *= gamma_states.transpose(1, 0, 2)[mask.T][:, :, None]
    flat = resp.reshape(resp.shape[0], -1).T
    centered = stacked - acc.center
    acc.occupancy += resp.sum(axis=0)
    acc.weighted_sum += (flat @ centered).reshape(acc.weighted_sum.shape)
    acc.weighted_sq_sum += (flat @ centered**2).reshape(acc.weighted_sq_sum.shape)
    del resp, comp_log, flat

    # Boot transitions (one edge per destination state), over every row
    # still inside its utterance at time t.
    for t in range(1, min(order, T)):
        step = lattice.boot_steps[t - 1]
        n = step.emit.size
        log_xi = (
            alphas[t - 1][:, step.pred_idx[:, 0]]
            + step.pred_logw[:, 0]
            + log_b[t][:, step.emit]
            + betas[t, :, :n]
            - ll[:, None]
        )
        xi = np.exp(np.where(mask[t][:, None], log_xi, LOG_ZERO)).sum(axis=0)
        np.add.at(acc.tensor_counts[step.order], (step.pred_row, step.pred_col), xi)

    # Stationary transitions, over (time, row), one successor slot at a
    # time.  Destinations are t = order .. T-1; source rows coincide with
    # main-tensor rows.
    if T > order:
        step = lattice.stationary_step
        dest = betas[order:]  # the betas are not read again: reuse them
        dest += log_b[order:][:, :, step.emit]
        dest[~mask[order:]] = LOG_ZERO
        source = alphas[order - 1 : T - 1]
        for col in range(step.succ_idx.shape[1]):
            log_xi = np.take(dest, step.succ_idx[:, col], axis=2)
            log_xi += source
            log_xi += step.succ_logw[:, col]
            log_xi -= ll[:, None]
            acc.tensor_counts[order][:, col] += np.exp(log_xi, out=log_xi).sum(axis=(0, 1))
    return ll


def _m_step(model: HmmModel, acc: _Accumulators, transition_floor: float,
            weight_floor: float, variance_floor: np.ndarray) -> HmmModel:
    new = model.copy()
    new.initial = _floored_row(acc.initial / acc.initial.sum(), transition_floor)

    for k, tensor in new.tensors.items():
        counts = acc.tensor_counts[k]
        totals = counts.sum(axis=1)
        for i in np.flatnonzero(totals > 0):
            tensor.matrix[i] = _floored_row(counts[i] / totals[i], transition_floor)

    em = new.emissions
    for q in range(em.num_states):
        occ = acc.occupancy[q]
        if occ.sum() <= 0:
            continue  # state never visited: keep previous parameters
        em.weights[q] = _floored_row(occ / occ.sum(), weight_floor)
        for m in np.flatnonzero(occ > 0):
            offset = acc.weighted_sum[q, m] / occ[m]
            var = acc.weighted_sq_sum[q, m] / occ[m] - offset**2
            em.means[q, m] = acc.center + offset
            em.variances[q, m] = np.maximum(var, variance_floor)
    return new


def corpus_variance_floor(corpus, scale: float = VARIANCE_FLOOR_SCALE) -> np.ndarray:
    """Per-dimension variance floor from pooled corpus statistics."""
    pooled = np.vstack([_as_frames(seq) for seq in corpus])
    global_var = pooled.var(axis=0)
    if np.any(global_var < ABS_VARIANCE_FLOOR):
        warnings.warn(
            "degenerate corpus: near-zero variance in some dimensions; "
            "variance floor engaged",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.maximum(scale * global_var, ABS_VARIANCE_FLOOR)


def baum_welch_train(
    model: HmmModel,
    corpus,
    max_iters: int = 15,
    tol: float | None = 1e-4,
    transition_floor: float = TRANSITION_FLOOR,
    weight_floor: float = MIXTURE_WEIGHT_FLOOR,
    variance_floor: np.ndarray | None = None,
):
    """EM on the composite lattice; returns (model, per-iteration log-likelihoods).

    Each iteration runs one batched E-step over every utterance of the
    corpus.  The i-th returned log-likelihood is the total corpus score of
    the model entering iteration i, so the list is non-decreasing.  Stops
    early once the relative gain falls below `tol` (pass None to always
    run max_iters).
    """
    if not corpus:
        raise ValueError("training corpus must be non-empty")
    frames_list = [_as_frames(seq) for seq in corpus]
    for frames in frames_list:
        _check_dim(model, frames)
    if max_iters == 0:
        return model.copy(), []
    if variance_floor is None:
        variance_floor = corpus_variance_floor(frames_list)
    variance_floor = np.broadcast_to(np.asarray(variance_floor, dtype=np.float64),
                                     (model.dim,))
    stacked = np.vstack(frames_list)
    lengths = np.array([f.shape[0] for f in frames_list])
    center = stacked.mean(axis=0)

    current = model
    log_likelihoods: list[float] = []
    for _ in range(max_iters):
        acc = _Accumulators(current, center)
        lls = _accumulate_batch(CompositeLattice(current), current, stacked, lengths, acc)
        log_likelihoods.append(sum(lls.tolist()))
        current = _m_step(current, acc, transition_floor, weight_floor, variance_floor)
        if tol is not None and len(log_likelihoods) >= 2:
            prev = log_likelihoods[-2]
            if log_likelihoods[-1] - prev < tol * abs(prev):
                break
    return current, log_likelihoods


def promote_order(model: HmmModel) -> HmmModel:
    """Initialize an order-(r+1) model from a trained order-r model.

    The new full-order tensor replicates each order-r row across every
    legal added context symbol; shorter tensors, emissions, and the
    initial distribution are copied, so every observation sequence keeps
    its likelihood.
    """
    if model.order not in (1, 2):
        raise ValueError("can only promote models of order 1 or 2")
    source = model.tensors[model.order]
    promoted = TransitionTensor.uniform(model.topology, model.order + 1)
    matrix = np.empty_like(promoted.matrix)
    for i, ctx in enumerate(promoted.contexts):
        matrix[i] = source.row(ctx[1:])
    tensors = {k: t.copy() for k, t in model.tensors.items()}
    tensors[model.order + 1] = TransitionTensor(model.topology, model.order + 1, matrix)
    return HmmModel(
        model.topology,
        model.order + 1,
        model.initial.copy(),
        tensors,
        model.emissions.copy(),
    )


def sample_sequence(model: HmmModel, num_frames: int, rng_seed):
    """Ancestral sampling; returns (states, observations (T, D)).

    Deterministic given the seed; the sampled path only uses legal moves.
    """
    if num_frames < 1:
        raise ValueError("need at least one frame")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    states = [int(rng.choice(model.num_states, p=model.initial))]
    for t in range(1, num_frames):
        k = min(t, model.order)
        context = tuple(states[t - k : t])
        successors = model.topology.successors(context[-1])
        row = model.tensors[k].row(context)
        states.append(int(successors[rng.choice(len(successors), p=row)]))
    em = model.emissions
    obs = np.empty((num_frames, em.dim))
    for t, q in enumerate(states):
        m = int(rng.choice(em.num_mixtures, p=em.weights[q]))
        obs[t] = rng.normal(em.means[q, m], np.sqrt(em.variances[q, m]))
    return np.array(states, dtype=np.intp), obs


# ---------------------------------------------------------------------------
# Initialization and the order-promotion training chain
# ---------------------------------------------------------------------------


def lloyd_kmeans(data: np.ndarray, num_clusters: int, rng, iters: int = 10):
    """Plain k-means; empty clusters keep their previous centroid.

    Returns (centroids (K, D), assignment (n,)).
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty data set")
    k = min(num_clusters, n)
    pick = rng.choice(n, size=k, replace=False)
    centroids = data[pick].copy()
    if k < num_clusters:
        extra = np.repeat(centroids[-1:], num_clusters - k, axis=0)
        centroids = np.vstack([centroids, extra])
    assign = np.zeros(n, dtype=np.intp)
    for _ in range(iters):
        dists = ((data[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assign = dists.argmin(axis=1)
        for c in range(num_clusters):
            members = data[assign == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    return centroids, assign


def initial_model(
    corpus,
    num_states: int,
    num_mixtures: int = 3,
    seed: int = 0,
    weight_floor: float = MIXTURE_WEIGHT_FLOOR,
) -> HmmModel:
    """Untrained order-1 model: uniform start and transitions, emission
    means from segmental k-means over uniform time slices, variances from
    global corpus statistics."""
    frames_list = [_as_frames(seq) for seq in corpus]
    if not frames_list:
        raise ValueError("corpus must be non-empty")
    dim = frames_list[0].shape[1]
    topology = CircularTopology(num_states)
    rng = np.random.default_rng(seed)

    pooled = np.vstack(frames_list)
    global_var = np.maximum(pooled.var(axis=0), ABS_VARIANCE_FLOOR)

    per_state: list[list[np.ndarray]] = [[] for _ in range(num_states)]
    for frames in frames_list:
        for state, chunk in enumerate(np.array_split(frames, num_states)):
            if chunk.shape[0]:
                per_state[state].append(chunk)

    weights = np.zeros((num_states, num_mixtures))
    means = np.zeros((num_states, num_mixtures, dim))
    variances = np.tile(global_var, (num_states, num_mixtures, 1))
    for q in range(num_states):
        data = np.vstack(per_state[q]) if per_state[q] else pooled
        centroids, assign = lloyd_kmeans(data, num_mixtures, rng)
        means[q] = centroids
        counts = np.bincount(assign, minlength=num_mixtures).astype(np.float64)
        weights[q] = _floored_row(counts / counts.sum(), weight_floor)

    return HmmModel(
        topology,
        1,
        np.full(num_states, 1.0 / num_states),
        {1: TransitionTensor.uniform(topology, 1)},
        GaussianMixtureEmission(weights, means, variances),
    )


def train_circular_chain(
    corpus,
    num_states: int = 6,
    num_mixtures: int = 3,
    iters: tuple[int, int, int] = (6, 6, 8),
    tol: float | None = 1e-4,
    seed: int = 0,
    transition_floor: float = TRANSITION_FLOOR,
):
    """Order-promotion training: fit order 1, promote, refit, promote, refit.

    Returns (order-3 model, {"order1": lls, "order2": lls, "order3": lls}).
    """
    frames_list = [_as_frames(seq) for seq in corpus]
    variance_floor = corpus_variance_floor(frames_list)
    model = initial_model(frames_list, num_states, num_mixtures, seed)
    history = {}
    for stage, stage_iters in enumerate(iters, start=1):
        model, lls = baum_welch_train(
            model,
            frames_list,
            max_iters=stage_iters,
            tol=tol,
            transition_floor=transition_floor,
            variance_floor=variance_floor,
        )
        history["order%d" % stage] = lls
        if stage < len(iters):
            model = promote_order(model)
    return model, history
