"""Circular hidden Markov models of order 1-3 with Gaussian-mixture emissions.

States sit on a ring: from state i the only legal moves are the self-loop
and the clockwise successor (i+1) mod N.  Higher-order chains are scored
and trained by reduction to a first-order lattice over context tuples, so
forward, Viterbi, and Baum-Welch stay textbook-standard.  An order-r model
keeps one tensor per context length 1..r: the shorter ones boot the chain
at t = 2..r, the full-order tensor drives every later step.  Every time
layer of the lattice is one S-wide layer over the S full-order contexts:
a shorter boot context sits at its left-padded full-order tuple (its first
state repeated), so every step runs on one edge set, and a boot step
differs only in its weights: -inf off its tensor's rows.

All probability math runs in log space; illegal moves are structurally
absent from the sparse tensors and therefore carry exactly zero mass.

A lattice's layout (its slot-first edge arrays) is built once per
(num_states, order) and shared; each lattice keeps its models' log weights
apart.  Each step gathers whole rows of a layer along the edges, and
forward and Viterbi share one recursion.  The recursions carry a batch
axis of L models times B utterances: log-emissions are (T, L * B, N), time
first, model-major, padded with log-emission 0 past each row's length and
read at each row's own last frame.  A bank's models of one shape score in
one pass, Baum-Welch runs one batched E-step over the corpus per
iteration, and one model or utterance is the one-column case.
"""

from __future__ import annotations

import functools
import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

LOG_ZERO = -np.inf

TRANSITION_FLOOR = 1e-6
MIXTURE_WEIGHT_FLOOR = 1e-6
VARIANCE_FLOOR_SCALE = 1e-4
ABS_VARIANCE_FLOOR = 1e-8
EMISSION_BLOCK_FRAMES = 256

_LOG_2PI = float(np.log(2.0 * np.pi))


class UnscorableUtteranceError(ValueError):
    """An utterance has zero likelihood (a -inf score): under every model of
    a bank, so no label can be chosen, or under a model in training.
    `index` is the utterance's position in the batch, where one is known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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


def legal_contexts(topology: CircularTopology, order: int) -> list[tuple[int, ...]]:
    """All length-`order` state tuples whose consecutive moves are legal, sorted."""
    if order < 1:
        raise ValueError("order must be >= 1")
    contexts = [(i,) for i in range(topology.num_states)]
    for _ in range(order - 1):
        contexts = [c + (s,) for c in contexts for s in topology.successors(c[-1])]
    return sorted(contexts)


def _lse_last(z: np.ndarray) -> np.ndarray:
    """log-sum-exp over the last axis; rows that are all -inf give -inf.

    The peak is taken over a copy with the last axis moved first, so the
    max is one elementwise sweep per slab, not one short reduction per
    row; `z` itself is left as it is.
    """
    peak = np.moveaxis(z, -1, 0).copy().max(axis=0)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(z - shift[..., None]).sum(axis=-1)) + shift


def _safe_log(values: np.ndarray) -> np.ndarray:
    """np.log with log(0) = -inf and no divide warning."""
    with np.errstate(divide="ignore"):
        return np.log(values)


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

    def row(self, context: tuple[int, ...]) -> np.ndarray:
        return self.matrix[self._row_index[context]]

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
        # Each check is written so that NaN, which fails every comparison, fails it.
        if not (np.all(self.matrix >= 0) and np.all(np.abs(self.matrix.sum(axis=1) - 1) <= tol)):
            raise ValueError("transition rows must be probability vectors within %g" % tol)


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

        Frames are scored in blocks through one (block, N, M, D) buffer, reused
        so no block maps fresh pages, however many utterances `obs` stacks.
        """
        log_det = np.log(self.variances).sum(axis=2)
        log_w = _safe_log(self.weights)
        out = np.empty((obs.shape[0],) + self.weights.shape)
        work = np.empty((min(obs.shape[0], EMISSION_BLOCK_FRAMES),) + self.means.shape)
        for start in range(0, obs.shape[0], EMISSION_BLOCK_FRAMES):
            x = obs[start : start + EMISSION_BLOCK_FRAMES, None, None, :]
            diff = work[: x.shape[0]]
            diff[...] = x
            diff -= self.means
            sq = np.divide(np.square(diff, out=diff), self.variances[None], out=diff).sum(axis=3)
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
        if not (np.all(self.weights >= 0) and np.all(np.abs(self.weights.sum(axis=1) - 1) <= tol)):
            raise ValueError("mixture weights must be probability vectors within %g" % tol)
        if not np.all(np.isfinite(self.means)):
            raise ValueError("mixture means must be finite")
        if not np.all((self.variances > 0) & (self.variances < np.inf)):
            raise ValueError("variances must be finite and strictly positive")


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
        if not (abs(self.initial.sum() - 1.0) <= tol and np.all(self.initial >= 0)):
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
        em = doc["emissions"]
        emissions = GaussianMixtureEmission(
            np.array(em["weights"]), np.array(em["means"]), np.array(em["variances"]))
        # Sizes are checked before any context is enumerated; type(True) is bool.
        for key, size in (("num_states", emissions.num_states),
                          ("num_mixtures", emissions.num_mixtures), ("dim", emissions.dim)):
            if type(doc[key]) is not int or doc[key] != size:
                raise ValueError("%s must be %d, as in the emissions, not %r"
                                 % (key, size, doc[key]))
        num_states, order, docs = doc["num_states"], doc["order"], doc["tensors"]
        if (type(order) is not int or order not in (1, 2, 3)
                or sorted(docs) != [str(k) for k in range(1, order + 1)]):
            raise ValueError("order must be 1, 2 or 3 with one tensor per context length "
                             "1..order, not order %r with tensors %s" % (order, sorted(docs)))
        topology = CircularTopology(num_states)
        tensors = {}
        for k in range(1, order + 1):
            rows = docs[str(k)]
            keys = [",".join(map(str, ctx)) for ctx in legal_contexts(topology, k)]
            if sorted(rows) != sorted(keys):
                raise ValueError("tensor %d must hold one row per legal context: missing %s, "
                                 "extra %s" % (k, sorted(set(keys) - set(rows)),
                                               sorted(set(rows) - set(keys))))
            tensors[k] = TransitionTensor(topology, k, [rows[key] for key in keys])
        model = cls(topology, order, np.array(doc["initial"]), tensors, emissions)
        model.validate(tol=1e-9)
        return model


# ---------------------------------------------------------------------------
# Path scoring
# ---------------------------------------------------------------------------


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
    total = float(_safe_log(model.initial[states[0]]))
    for t in range(1, len(states)):
        k = min(t, model.order)
        context = tuple(states[t - k : t])
        total += float(_safe_log(model.tensors[k].prob(context, states[t])))
    return total


def joint_log_prob(model: HmmModel, states, observations) -> float:
    """Log of the joint path/observation probability under the model."""
    frames, _ = _stack([observations], [model])
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


@functools.lru_cache(maxsize=None)
def _layout(num_states: int, order: int):
    """The read-only (emit, start, succ_idx, pred_idx, pred_slot, srcs) of
    an order-`order` lattice on `num_states` states: each context's ring
    state, the index of each length-1 context, the one edge set of every
    step and, per context length, the padded context of each tensor row.
    Context P moves to (P + (s,))[1:] after each successor s of its last
    state.  The edges are slot-first (2, S): slot c of context i leads to
    `succ_idx[c, i]`, and slot p of context j comes from `pred_idx[p, j]`
    along that source's successor slot `pred_slot[p, j]`, sources ascending,
    which gives Viterbi its lowest-index tie-break.  A one-state ring pads
    its one move with a second self edge, weighted -inf.
    """
    topology = CircularTopology(num_states)
    contexts = legal_contexts(topology, order)
    index = {c: j for j, c in enumerate(contexts)}
    succ = [[index[(ctx + (s,))[1:]] for s in (ctx[-1], (ctx[-1] + 1) % num_states)]
            for ctx in contexts]
    # Copied C-ordered: `take` copies a strided index array on every call.
    edge = np.argsort(np.ravel(succ), kind="stable").reshape(-1, 2).T.copy()  # sources ascending
    succ_idx = np.array(succ, dtype=np.intp).T.copy()
    pred_idx, pred_slot = np.divmod(edge, 2)
    srcs = tuple(np.array([index[ctx[:1] * (order - k) + ctx]
                           for ctx in legal_contexts(topology, k)], dtype=np.intp)
                 for k in range(1, order + 1))
    emit = np.array([c[-1] for c in contexts])
    start = np.array([index[(i,) * order] for i in range(num_states)])
    for array in (emit, start, succ_idx, pred_idx, pred_slot, *srcs):
        array.flags.writeable = False
    return emit, start, succ_idx, pred_idx, pred_slot, srcs


def _time_mask(lengths: np.ndarray, num_steps: int) -> np.ndarray:
    """(T, B) mask of the frames inside each row."""
    return np.arange(num_steps)[:, None] < lengths[None, :]


def _pad_rows(stacked: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Scatter row-stacked (sum T, ...) values into (T_max, B, ...); zero
    past each row's end."""
    mask = _time_mask(lengths, int(lengths.max()))
    padded = np.zeros(mask.shape + stacked.shape[1:])
    padded.swapaxes(0, 1)[mask.T] = stacked
    return padded


class CompositeLattice:
    """First-order view of order-r circular models over context tuples.

    Every time layer lives on the S sorted full-order contexts.  The state
    at time t is the last min(t + 1, r) path states; a shorter context c of
    length k is stored at the index of c[:1] * (r - k) + c, c padded on the
    left with copies of its first state.  The padded tuple is legal (the
    self-loop always is) and padding keeps lexicographic order, so every
    step, boot or stationary, moves context P to (P + (s,))[1:].  So all
    steps share one edge set, two slots per state each way, and a boot
    step differs only in its weights: -inf on the edges of every state
    that is not a padded context.  Each DP step gathers the two edge slots
    as whole rows of a layer and sweeps the layer over them: a two-slot
    log-sum-exp (forward, backward) or max (Viterbi, the same `_sweep`).

    One lattice runs L models of one num_states and order.  Its layout
    (`emit`, the edges and each tensor's rows) depends on that pair only
    and is built once per pair, shared read-only; the models' weights are
    kept apart: slot-first (2, S, L) `succ_logw` and `pred_logw` per step
    and (S, L) `initial_logw`, -inf but at the length-1 contexts.  The
    recursions step B utterances through time together, the L models on
    the same batch axis: log-emissions are (T, L * B, N), model-major
    (model l scores utterance b in column l * B + b), and each model's
    weights broadcast over its B columns.  `lengths` holds the B frame
    counts.  Frames past a row's end carry log-emission 0, and every
    column is read, reset or backtracked at its own last frame, so the
    padding reaches no result.  Lattice values are stored (T, S, L * B),
    each time layer one contiguous block of rows for the gathers, and
    returned as (T, L * B, S) views.  They stay in log space: on MFCC
    frames one frame's log-emissions span thousands of nats across a
    model's states, so a scaled-probability forward that shifts each frame
    by its maximum underflows the states the path can reach.
    """

    def __init__(self, *models: HmmModel):
        key = (models[0].num_states, models[0].order)
        if any((m.num_states, m.order) != key for m in models):
            raise ValueError("the models of one lattice must share num_states and order")
        self.order, self.num_models = key[1], len(models)
        self.emit, start, self.succ_idx, self.pred_idx, pred_slot, self.srcs = _layout(*key)
        self.initial_logw = np.full((self.emit.size, len(models)), LOG_ZERO)
        self.initial_logw[start] = _safe_log(np.column_stack([m.initial for m in models]))
        self.succ_logw, self.pred_logw = [], []
        for k, src in enumerate(self.srcs, start=1):
            logw = _safe_log(np.stack([m.tensors[k].matrix.T for m in models], axis=-1))
            succ = np.full(self.succ_idx.shape + (len(models),), LOG_ZERO)
            succ[: logw.shape[0], src] = logw
            self.succ_logw.append(succ)
            self.pred_logw.append(succ[pred_slot, self.pred_idx])

    def _prepare(self, log_b: np.ndarray, lengths, weights):
        """Over the L * B columns: each of `weights`, per model on its last
        axis, spread over that model's columns, the column lengths and the
        columns ending at each frame."""
        logw = [np.repeat(w, log_b.shape[1] // self.num_models, axis=-1) for w in weights]
        lengths = np.tile(np.asarray(lengths), self.num_models)
        ending: dict[int, list[int]] = {}
        for row, n in enumerate(lengths.tolist()):
            ending.setdefault(n - 1, []).append(row)
        return logw, lengths, ending

    @staticmethod
    def _lse_slots(z: np.ndarray, out: np.ndarray) -> None:
        """log-sum-exp of (2, S, C) edge scores over the two slots into
        `out`, as max + log1p(exp(min - max)) in whole-layer sweeps, with
        the first slot as scratch.  Symmetric in the slots; a -inf slot
        adds log1p(0) = 0, so the other comes out exact.  Run under
        errstate(invalid="ignore"): a pair of -inf gives min - max = NaN,
        which fmin turns into 0, so the result stays -inf."""
        lo, other = z
        np.maximum(lo, other, out=out)
        np.minimum(lo, other, out=lo)
        lo -= out
        np.fmin(lo, 0.0, out=lo)
        np.log1p(np.exp(lo, out=lo), out=lo)
        out += lo

    def _sweep(self, log_b: np.ndarray, lengths, combine):
        """Forward's and Viterbi's recursion (Rabiner 1989, section III).
        Each layer (S, C) is its contexts' emissions plus, at t = 0, the
        start weights and, at t > 0, `combine(z, out)` of the edge scores z
        (2, S, C): layer t - 1's rows gathered along the predecessor slots
        plus the step's weights.  Returns (layers (T, S, C), each column's
        last layer (C, S), the column lengths, the columns ending at each
        frame)."""
        (initial, *logw), lengths, ending = self._prepare(
            log_b, lengths, (self.initial_logw, *self.pred_logw))
        layers = log_b.transpose(0, 2, 1).take(self.emit, axis=1)  # each context's emissions
        layers[0] += initial
        step = np.empty(layers.shape[1:])
        with np.errstate(invalid="ignore"):
            for t in range(1, log_b.shape[0]):
                z = layers[t - 1].take(self.pred_idx, axis=0)
                z += logw[min(t, self.order) - 1]  # the step feeding the layer at time t
                combine(z, step)
                layers[t] += step
        return layers, layers[lengths - 1, :, np.arange(log_b.shape[1])], lengths, ending

    def forward(self, log_b: np.ndarray, lengths):
        """Forward pass; returns (alphas (T, L * B, S), per-column
        log-likelihoods (L * B,))."""
        alphas, ends, _, _ = self._sweep(log_b, lengths, self._lse_slots)
        return alphas.transpose(0, 2, 1), _lse_last(ends)

    def backward(self, log_b: np.ndarray, lengths) -> np.ndarray:
        """Backward pass; returns betas (T, L * B, S), 0 at each column's
        last frame."""
        T = log_b.shape[0]
        logw, _, ending = self._prepare(log_b, lengths, self.succ_logw)
        betas = np.empty((T, self.emit.size, log_b.shape[1]))
        betas[T - 1] = 0.0
        with np.errstate(invalid="ignore"):
            for t in range(T - 1, 0, -1):
                nxt = betas[t] + log_b[t].T.take(self.emit, axis=0)
                z = nxt.take(self.succ_idx, axis=0)
                z += logw[min(t, self.order) - 1]
                self._lse_slots(z, betas[t - 1])
                if t - 1 in ending:
                    betas[t - 1][:, ending[t - 1]] = 0.0
        return betas.transpose(0, 2, 1)

    def viterbi(self, log_b: np.ndarray, lengths):
        """Best path of every column and its log-probability: (list of
        L * B state paths, each as long as its utterance, scores (L * B,)).

        Ties prefer the lowest lattice index (contexts are sorted, and the
        second edge slot must score strictly higher to win).  The backtrack
        is one gather per time step over all columns; a column joins it at
        its own last frame, from its best final state.
        """
        T, columns, _ = log_b.shape
        slots = np.zeros((T, self.emit.size, columns), dtype=np.int8)  # 1 where slot 1 won
        record = iter(slots[1:].view(bool))  # one (S, C) layer per step, t = 1 .. T - 1

        def pick(z, out):
            np.greater(z[1], z[0], out=next(record))  # only when strictly higher
            np.maximum(z[0], z[1], out=out)

        _, ends, lengths, ending = self._sweep(log_b, lengths, pick)
        final = np.argmax(ends, axis=1)

        rows, cur = np.arange(columns), final.copy()
        idx = np.empty((columns, T), dtype=np.intp)
        for t in range(T - 1, -1, -1):
            if t in ending:
                cur[ending[t]] = final[ending[t]]
            idx[:, t] = cur
            if t:
                cur = self.pred_idx[slots[t, cur, rows], cur]
        states = self.emit[idx]
        return [states[row, :n] for row, n in enumerate(lengths.tolist())], ends[rows, final]


def _stack(corpus, models=()):
    """The HMM layer's one frame check: the corpus is non-empty, each
    utterance (a matrix or anything with `.frames`) is a (T, D) matrix with
    T >= 1, every frame is finite and D is each model's dim.  Returns the
    utterances row-stacked (one float64 utterance as it is, not copied) and
    their lengths."""
    frames_list = [np.asarray(getattr(seq, "frames", seq), dtype=np.float64) for seq in corpus]
    if not frames_list:
        raise ValueError("corpus must be non-empty")
    if any(f.ndim != 2 or f.shape[0] < 1 for f in frames_list):
        raise ValueError("observations must form a non-empty (T, D) matrix")
    stacked = frames_list[0] if len(frames_list) == 1 else np.vstack(frames_list)
    if not np.isfinite(stacked).all():
        raise ValueError("observations contain non-finite values")
    for model in models:
        if stacked.shape[1] != model.dim:
            raise ValueError("observation dim %d does not match emission dim %d"
                             % (stacked.shape[1], model.dim))
    return stacked, np.array([f.shape[0] for f in frames_list])


def _emission_batch(models, corpus):
    """Checked utterances as the L models' padded, model-major log-emissions
    (T_max, L * B, N), the frames stacked and padded once, and B lengths."""
    stacked, lengths = _stack(corpus, models)
    log_b = _pad_rows(np.stack([m.emissions.log_prob_matrix(stacked) for m in models], axis=1),
                      lengths)  # (T, B, L, N)
    return log_b.transpose(0, 2, 1, 3).reshape(log_b.shape[0], -1, log_b.shape[3]), lengths


def forward_log_likelihood_batch(model: HmmModel, corpus) -> np.ndarray:
    """log P(O | model) of many utterances, (B,), from one emission matrix,
    one lattice and one batched forward pass."""
    log_b, lengths = _emission_batch([model], corpus)
    _, lls = CompositeLattice(model).forward(log_b, lengths)
    return lls


def forward_log_likelihood(model: HmmModel, observations) -> float:
    """log P(O | model): the exact sum over all legal state paths."""
    return float(forward_log_likelihood_batch(model, [observations])[0])


def viterbi_align_batch(model: HmmModel, corpus):
    """Viterbi paths and joint log-probabilities of many utterances, aligned
    in one batched pass: (list of state paths, list of scores)."""
    log_b, lengths = _emission_batch([model], corpus)
    paths, scores = CompositeLattice(model).viterbi(log_b, lengths)
    return paths, scores.tolist()


def viterbi_align(model: HmmModel, observations):
    """Most likely state path and its joint log-probability."""
    paths, scores = viterbi_align_batch(model, [observations])
    return paths[0], scores[0]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _accumulate_batch(lattice: CompositeLattice, model: HmmModel, stacked: np.ndarray,
                      lengths: np.ndarray, center: np.ndarray):
    """E-step over row-stacked frames of B utterances.

    Returns (log-likelihoods (B,), stats), stats being the expected initial
    occupancy (N,), the expected transition counts {k: counts shaped like
    tensor k} and the `mixture_statistics` triple.  Frame sums are taken
    about `center` (the corpus mean), so the M-step variance
    E[(x-c)^2] - E[x-c]^2 keeps its precision under large offsets.  Raises
    UnscorableUtteranceError if any utterance has zero likelihood.
    """
    comp_log = model.emissions.component_log_probs(stacked)
    log_b_stacked = _lse_last(comp_log)
    log_b = _pad_rows(log_b_stacked, lengths)
    T = log_b.shape[0]
    mask = _time_mask(lengths, T)

    alphas, ll = lattice.forward(log_b, lengths)
    bad = np.flatnonzero(~np.isfinite(ll))
    if bad.size:
        raise UnscorableUtteranceError(
            "observation sequence %d has zero likelihood under the model" % bad[0],
            int(bad[0]))
    betas = lattice.backward(log_b, lengths)

    # Lattice posteriors, folded onto ring states.  Posteriors at padded
    # frames are computed but never read; the empty states of a boot layer
    # hold 0.
    gamma_lattice = alphas + betas
    gamma_lattice -= ll[:, None]
    np.exp(gamma_lattice, out=gamma_lattice)
    gamma_states = gamma_lattice @ np.eye(model.num_states)[lattice.emit]
    del gamma_lattice

    initial = gamma_states[0].sum(axis=0)
    mixture_stats = mixture_statistics(
        comp_log, log_b_stacked, gamma_states.transpose(1, 0, 2)[mask.T], stacked - center)
    del comp_log

    # Transitions, one step at a time, over the (time, row) frames that
    # step feeds: t = k for a boot step k < order, t = order .. T-1 for the
    # stationary step (a step with k >= T feeds none), both successor slots
    # gathered in one take.  Sources that are not rows of the step's tensor
    # carry weight -inf, and a one-state ring's padded slot is no tensor
    # column.  A step that feeds no frame keeps zero counts.
    tensor_counts = {k: np.zeros_like(t.matrix) for k, t in model.tensors.items()}
    for k, src in enumerate(lattice.srcs[: T - 1], start=1):
        times = slice(k, T if k == model.order else k + 1)
        dest = betas[times]  # the betas are not read again: reuse them
        dest += log_b[times][:, :, lattice.emit]
        dest[~mask[times]] = LOG_ZERO
        log_xi = np.take(dest, lattice.succ_idx, axis=2)  # (time, row, slot, source)
        log_xi += alphas[k - 1 : times.stop - 1, :, None]
        log_xi += lattice.succ_logw[k - 1][..., 0]
        log_xi -= ll[:, None, None]
        xi = np.exp(log_xi, out=log_xi)[:, :, : model.topology.branch].sum(axis=(0, 1))
        tensor_counts[k][:] = xi[:, src].T
    return ll, (initial, tensor_counts, mixture_stats)


def mixture_statistics(comp_log: np.ndarray, log_b: np.ndarray, state_post: np.ndarray,
                       centered: np.ndarray):
    """Mixture E-step over stacked frames: occupancy (N, M) and the
    responsibility-weighted sums of the centered frames and of their
    squares (N, M, D), from component log-densities (T, N, M, overwritten),
    their log-sum-exp and the state posteriors (T, N)."""
    resp = comp_log
    with np.errstate(invalid="ignore"):
        resp -= log_b[:, :, None]
        np.exp(resp, out=resp)
    resp[~np.isfinite(resp)] = 0.0
    resp *= state_post[:, :, None]
    flat = resp.reshape(resp.shape[0], -1).T
    shape = resp.shape[1:] + centered.shape[1:]
    return (resp.sum(axis=0), (flat @ centered).reshape(shape),
            (flat @ centered**2).reshape(shape))


def update_mixtures(emissions: GaussianMixtureEmission, stats, center: np.ndarray,
                    variance_floor: np.ndarray) -> None:
    """Mixture M-step in place, from the `mixture_statistics` sums taken
    about `center`.

    A state with no occupancy keeps its parameters; a component with none
    keeps its mean and variance and gets the floored weight.
    """
    occupancy, weighted_sum, weighted_sq_sum = stats
    for q in range(emissions.num_states):
        occ = occupancy[q]
        if occ.sum() <= 0:
            continue
        emissions.weights[q] = _floored_row(occ / occ.sum(), MIXTURE_WEIGHT_FLOOR)
        live = occ > 0
        offset = weighted_sum[q, live] / occ[live, None]
        emissions.means[q, live] = center + offset
        emissions.variances[q, live] = np.maximum(
            weighted_sq_sum[q, live] / occ[live, None] - offset**2, variance_floor)


def _m_step(model: HmmModel, stats, center: np.ndarray,
            variance_floor: np.ndarray) -> HmmModel:
    """The re-estimated model from the `_accumulate_batch` statistics."""
    initial, tensor_counts, mixture_stats = stats
    new = model.copy()
    new.initial = _floored_row(initial / initial.sum(), TRANSITION_FLOOR)

    for k, tensor in new.tensors.items():
        counts = tensor_counts[k]
        totals = counts.sum(axis=1)
        for i in np.flatnonzero(totals > 0):
            tensor.matrix[i] = _floored_row(counts[i] / totals[i], TRANSITION_FLOOR)

    update_mixtures(new.emissions, mixture_stats, center, variance_floor)
    return new


def corpus_variance_floor(stacked: np.ndarray) -> np.ndarray:
    """Per-dimension variance floor from the variance of a corpus's stacked
    frames, as `_stack` returns them."""
    global_var = stacked.var(axis=0)
    if np.any(global_var < ABS_VARIANCE_FLOOR):
        warnings.warn(
            "degenerate corpus: near-zero variance in some dimensions; "
            "variance floor engaged",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.maximum(VARIANCE_FLOOR_SCALE * global_var, ABS_VARIANCE_FLOOR)


def _converged(history, tol: float | None) -> bool:
    """The EM stop rule: the last gain of `history` fell below `tol` times
    the previous entry's magnitude; never with `tol` None."""
    return (tol is not None and len(history) >= 2
            and history[-1] - history[-2] < tol * abs(history[-2]))


def baum_welch_train(
    model: HmmModel,
    corpus,
    max_iters: int = 15,
    tol: float | None = 1e-4,
):
    """EM on the composite lattice; returns (model, per-iteration log-likelihoods).

    Each iteration runs one batched E-step over every utterance of the
    corpus.  The i-th returned log-likelihood is the total corpus score of
    the model entering iteration i, so the list is non-decreasing.  Stops
    early once the relative gain falls below `tol` (pass None to always
    run max_iters).
    """
    stacked, lengths = _stack(corpus, [model])
    if max_iters == 0:
        return model.copy(), []
    variance_floor = corpus_variance_floor(stacked)
    center = stacked.mean(axis=0)

    current = model
    log_likelihoods: list[float] = []
    for _ in range(max_iters):
        lls, stats = _accumulate_batch(CompositeLattice(current), current, stacked, lengths,
                                       center)
        log_likelihoods.append(sum(lls.tolist()))
        current = _m_step(current, stats, center, variance_floor)
        if _converged(log_likelihoods, tol):
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
    source, order = model.tensors[model.order], model.order + 1
    tensors = {k: t.copy() for k, t in model.tensors.items()}
    tensors[order] = TransitionTensor(
        model.topology, order,
        [source.row(ctx[1:]) for ctx in legal_contexts(model.topology, order)])
    return HmmModel(model.topology, order, model.initial.copy(), tensors,
                    model.emissions.copy())


def _choice_cdfs(probs) -> list[list[float]]:
    """Per-row cdfs of `probs` (rows of probabilities) as Python lists.

    Builds each cdf the way `Generator.choice(n, p=row)` does (cumsum, then
    divided by the last entry) after the same checks: a row with a NaN, a
    negative entry, or a sum more than sqrt(eps) away from 1 raises
    ValueError.  `bisect_right(cdf, u)` on a uniform draw `u` then picks
    what `choice` picks from that draw.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    sums = probs.sum(axis=1)
    if np.isnan(sums).any():
        raise ValueError("probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(sums - 1.0) > np.sqrt(np.finfo(np.float64).eps)).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return cdf.tolist()


def sample_sequence(model: HmmModel, num_frames: int, rng_seed):
    """Ancestral sampling; returns (states, observations (T, D)).

    Deterministic given the seed; the sampled path only uses legal moves.
    The draws are those of picking the start, every move and every mixture
    with `rng.choice(n, p=row)` and every frame with `rng.normal(mean, sd)`,
    in the same order: one uniform per state, then per frame one uniform
    for its mixture and D standard normals.  Every probability row of the
    model is checked as `choice` checks it, visited or not.
    """
    if num_frames < 1:
        raise ValueError("need at least one frame")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    moves = {}
    for tensor in model.tensors.values():
        for context, cdf in zip(tensor.contexts, _choice_cdfs(tensor.matrix)):
            moves[context] = (cdf, model.topology.successors(context[-1]))
    uniforms = rng.random(num_frames).tolist()
    states = [bisect_right(_choice_cdfs(model.initial)[0], uniforms[0])]
    for t in range(1, num_frames):
        cdf, successors = moves[tuple(states[max(0, t - model.order) : t])]
        states.append(successors[bisect_right(cdf, uniforms[t])])
    em = model.emissions
    weight_cdfs = _choice_cdfs(em.weights)
    mixtures = []
    normals = np.empty((num_frames, em.dim))
    for t, q in enumerate(states):
        mixtures.append(bisect_right(weight_cdfs[q], rng.random()))
        rng.standard_normal(out=normals[t])
    obs = em.means[states, mixtures] + np.sqrt(em.variances)[states, mixtures] * normals
    return np.array(states, dtype=np.intp), obs


# ---------------------------------------------------------------------------
# Initialization and the order-promotion training chain
# ---------------------------------------------------------------------------


def squared_distances(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, K) squared distances as |x|^2 - 2 x.c + |c|^2, x and c centered on the data mean."""
    center = data.mean(axis=0)
    x, c = data - center, centroids - center
    dists = x @ (-2.0 * c).T + np.einsum("ij,ij->i", c, c)
    dists += np.einsum("ij,ij->i", x, x)[:, None]
    return np.maximum(dists, 0.0, out=dists)


def kmeans_mixture(data: np.ndarray, num_mixtures: int, rng):
    """Starting (weights (M,), means (M, D)) of one mixture: k-means from
    distinct random rows of `data`, the last one repeated when `data` has
    fewer rows than `num_mixtures`; weights are the floored cluster
    shares."""
    rows = data[rng.choice(data.shape[0], size=min(num_mixtures, data.shape[0]),
                           replace=False)]
    seeds = np.vstack([rows, np.repeat(rows[-1:], num_mixtures - rows.shape[0], axis=0)])
    centroids, assign, _ = lloyd_kmeans(data, seeds)
    counts = np.bincount(assign, minlength=num_mixtures).astype(np.float64)
    return _floored_row(counts / counts.sum(), MIXTURE_WEIGHT_FLOOR), centroids


def lloyd_kmeans(data: np.ndarray, centroids: np.ndarray, iters: int = 10):
    """Lloyd's k-means from the given centroids: a centroid moves to the mean
    of its members in row order; an empty cluster keeps its centroid.

    Returns (centroids (K, D), assignment (n,) of the last pass, mean
    squared distortion of every pass).
    """
    data = np.asarray(data, dtype=np.float64)
    centroids = np.array(centroids, dtype=np.float64)
    assign = np.zeros(data.shape[0], dtype=np.intp)
    history = []
    for _ in range(iters):
        dists = squared_distances(data, centroids)
        assign = dists.argmin(axis=1)
        history.append(float(dists.min(axis=1).mean()))
        members = data[np.argsort(assign, kind="stable")]
        edges = np.r_[0, np.bincount(assign, minlength=centroids.shape[0]).cumsum()]
        for c in np.flatnonzero(np.diff(edges)):
            centroids[c] = members[edges[c] : edges[c + 1]].mean(axis=0)
    return centroids, assign, history


def initial_model(
    corpus,
    num_states: int,
    num_mixtures: int = 3,
    seed: int = 0,
) -> HmmModel:
    """Untrained order-1 model: uniform start and transitions, emission
    means from segmental k-means over uniform time slices, variances from
    global corpus statistics."""
    pooled, lengths = _stack(corpus)
    topology = CircularTopology(num_states)
    rng = np.random.default_rng(seed)
    global_var = np.maximum(pooled.var(axis=0), ABS_VARIANCE_FLOOR)

    per_state: list[list[np.ndarray]] = [[] for _ in range(num_states)]
    for frames in np.split(pooled, np.cumsum(lengths)[:-1]):
        for state, chunk in enumerate(np.array_split(frames, num_states)):
            if chunk.shape[0]:
                per_state[state].append(chunk)

    weights, means = zip(*(
        kmeans_mixture(np.vstack(chunks) if chunks else pooled, num_mixtures, rng)
        for chunks in per_state))
    variances = np.tile(global_var, (num_states, num_mixtures, 1))

    uniform = np.full((num_states, topology.branch), 1.0 / topology.branch)
    return HmmModel(topology, 1, np.full(num_states, 1.0 / num_states),
                    {1: TransitionTensor(topology, 1, uniform)},
                    GaussianMixtureEmission(np.array(weights), np.array(means), variances))


def train_circular_chain(
    corpus,
    num_states: int = 6,
    num_mixtures: int = 3,
    iters: tuple[int, int, int] = (6, 6, 8),
    tol: float | None = 1e-4,
    seed: int = 0,
):
    """Order-promotion training: fit order 1, promote, refit, promote, refit.

    Returns (order-3 model, {"order1": lls, "order2": lls, "order3": lls}).
    """
    model = initial_model(corpus, num_states, num_mixtures, seed)
    history = {}
    for stage, stage_iters in enumerate(iters, start=1):
        model, lls = baum_welch_train(model, corpus, max_iters=stage_iters, tol=tol)
        history["order%d" % stage] = lls
        if stage < len(iters):
            model = promote_order(model)
    return model, history
