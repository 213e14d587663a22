"""Suprasegmental prosody layer on top of the acoustic circular model.

Conventional ring states are partitioned into a small number of prosodic
groups (by default the first half of the ring and the second half).  A
hard Viterbi alignment of an utterance is run-length encoded into group
segments; each segment is summarized by a prosody vector and scored under
a per-group Gaussian, consecutive segments under bigram transition
weights, and the utterance as a whole under a top-level Gaussian.  The
acoustic and prosodic scores are fused log-linearly with weight alpha.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .features import PROSODY_DIM, FrameProsody
from .hmm import CompositeLattice, HmmModel, _emission_batch, viterbi_align_batch

PROSODY_VARIANCE_FLOOR = 1e-4
SUPRA_TRANSITION_FLOOR = 1e-6

DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class SuprasegmentalLayout:
    """Partition of the conventional states into prosodic groups.

    state_to_group[q] is the group owning conventional state q; groups
    must be contiguous integer ids 0..G-1 and each must own at least one
    state.
    """

    state_to_group: tuple[int, ...]

    def __post_init__(self):
        if not self.state_to_group:
            raise ValueError("layout must cover at least one state")
        for group in self.state_to_group:
            if type(group) is not int:  # type(True) is bool
                raise ValueError("group ids must be integers, not %r" % (group,))
        groups = sorted(set(self.state_to_group))
        if groups != list(range(len(groups))):
            raise ValueError("group ids must be contiguous starting at 0")

    @classmethod
    def halves(cls, num_states: int) -> "SuprasegmentalLayout":
        """Default layout: first half of the ring in group 0, rest in group 1."""
        if num_states < 2:
            raise ValueError("need at least two states to form two groups")
        split = (num_states + 1) // 2
        return cls(tuple(0 if q < split else 1 for q in range(num_states)))

    @property
    def num_states(self) -> int:
        return len(self.state_to_group)

    @property
    def num_groups(self) -> int:
        return max(self.state_to_group) + 1


@dataclass(frozen=True)
class Segmentation:
    """Maximal runs of one prosodic group along a batch of alignments,
    numbered in time order over the row-stacked frames."""

    groups: np.ndarray          # (S,) group of each segment
    rows: np.ndarray            # (S,) utterance each segment belongs to
    frame_segments: np.ndarray  # (sum T,) segment id of every stacked frame

    def __len__(self) -> int:
        return self.groups.size


def segment_by_alignment(paths, layout: SuprasegmentalLayout) -> Segmentation:
    """Run-length encode a batch of state paths into prosodic-group segments.

    A segment starts wherever the group changes and at the start of every
    row, so no segment crosses from one utterance into the next.
    """
    lengths = np.array([len(path) for path in paths], dtype=np.intp)
    if lengths.size == 0 or lengths.min() == 0:
        raise ValueError("every alignment must be a non-empty state path")
    states = np.concatenate(paths).astype(np.intp)
    if states.ndim != 1 or states.min() < 0 or states.max() >= layout.num_states:
        raise ValueError("alignment states must be 1-D and inside the layout")
    per_frame_group = np.asarray(layout.state_to_group, dtype=np.intp)[states]
    is_start = np.concatenate([[True], per_frame_group[1:] != per_frame_group[:-1]])
    is_start[np.cumsum(lengths) - lengths] = True
    starts = np.flatnonzero(is_start)
    frame_rows = np.repeat(np.arange(lengths.size), lengths)
    return Segmentation(per_frame_group[starts], frame_rows[starts],
                        np.cumsum(is_start) - 1)


@dataclass
class SuprasegmentalModel:
    """Per-group Gaussians over segment prosody vectors, bigram weights
    between groups, and a top-level Gaussian over the utterance summary."""

    layout: SuprasegmentalLayout
    group_means: np.ndarray       # (G, P)
    group_variances: np.ndarray   # (G, P)
    transitions: np.ndarray       # (G, G), rows normalized
    utterance_mean: np.ndarray    # (P,)
    utterance_variance: np.ndarray  # (P,)

    def __post_init__(self):
        g = self.layout.num_groups
        self.group_means = np.asarray(self.group_means, dtype=np.float64)
        self.group_variances = np.asarray(self.group_variances, dtype=np.float64)
        self.transitions = np.asarray(self.transitions, dtype=np.float64)
        self.utterance_mean = np.asarray(self.utterance_mean, dtype=np.float64)
        self.utterance_variance = np.asarray(self.utterance_variance, dtype=np.float64)
        if self.group_means.shape != (g, PROSODY_DIM):
            raise ValueError("group means must be (num_groups, %d)" % PROSODY_DIM)
        if self.group_variances.shape != self.group_means.shape:
            raise ValueError("group variances must match group means")
        if self.transitions.shape != (g, g):
            raise ValueError("transition weights must be (G, G)")
        if not self.utterance_mean.shape == self.utterance_variance.shape == (PROSODY_DIM,):
            raise ValueError("utterance mean and variance must have %d entries" % PROSODY_DIM)

    def validate(self, tol: float = 1e-12) -> None:
        # Each check is written so that NaN, which fails every comparison, fails it.
        sums = self.transitions.sum(axis=1)
        if not (np.all(np.abs(sums - 1.0) <= tol) and np.all(self.transitions >= 0)):
            raise ValueError("transition rows must be probability vectors")
        if not (all(np.all(np.isfinite(m)) for m in (self.group_means, self.utterance_mean))
                and all(np.all((v > 0) & (v < np.inf))
                        for v in (self.group_variances, self.utterance_variance))):
            raise ValueError("means must be finite and variances finite and strictly positive")

    def to_dict(self) -> dict:
        return {
            "layout": list(self.layout.state_to_group),
            "group_means": self.group_means.tolist(),
            "group_variances": self.group_variances.tolist(),
            "transitions": self.transitions.tolist(),
            "utterance_mean": self.utterance_mean.tolist(),
            "utterance_variance": self.utterance_variance.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SuprasegmentalModel":
        model = cls(
            SuprasegmentalLayout(tuple(doc["layout"])),
            np.array(doc["group_means"]),
            np.array(doc["group_variances"]),
            np.array(doc["transitions"]),
            np.array(doc["utterance_mean"]),
            np.array(doc["utterance_variance"]),
        )
        model.validate(tol=1e-9)
        return model


def train_suprasegmental(
    groups,
    segment_vectors,
    rows,
    utterance_observations,
    layout: SuprasegmentalLayout,
) -> SuprasegmentalModel:
    """Fit the prosody layer from aligned segments.

    groups (S,), segment_vectors (S, P) and rows (S,) are the segments of
    every utterance stacked in time order, rows naming each one's
    utterance.  utterance_observations: (U, P) utterance-level summary
    vectors.  A group with no segments anywhere falls back to the global
    statistics of all segment vectors, with a warning.
    """
    num_groups = layout.num_groups
    groups = np.asarray(groups, dtype=np.intp)
    vectors = np.asarray(segment_vectors, dtype=np.float64)
    rows = np.asarray(rows)
    utterance_observations = np.asarray(utterance_observations, dtype=np.float64)
    if groups.size == 0 or utterance_observations.size == 0:
        raise ValueError("need at least one aligned utterance")
    if vectors.shape != (groups.size, PROSODY_DIM) or rows.shape != groups.shape:
        raise ValueError("need (S, %d) segment vectors and S row ids" % PROSODY_DIM)

    global_mean = vectors.mean(axis=0)
    global_var = np.maximum(vectors.var(axis=0), PROSODY_VARIANCE_FLOOR)
    means = np.empty((num_groups, PROSODY_DIM))
    variances = np.empty((num_groups, PROSODY_DIM))
    for g in range(num_groups):
        data = vectors[groups == g]
        if data.size:
            means[g] = data.mean(axis=0)
            variances[g] = np.maximum(data.var(axis=0), PROSODY_VARIANCE_FLOOR)
        else:
            warnings.warn(
                "prosodic group %d has no segments; using global statistics" % g,
                RuntimeWarning,
                stacklevel=2,
            )
            means[g] = global_mean
            variances[g] = global_var

    same_row = rows[1:] == rows[:-1]
    pairs = groups[:-1][same_row] * num_groups + groups[1:][same_row]
    bigrams = np.bincount(pairs, minlength=num_groups**2).reshape(num_groups, num_groups)
    totals = bigrams.sum(axis=1, keepdims=True)
    weights = np.maximum(bigrams / np.maximum(totals, 1), SUPRA_TRANSITION_FLOOR)
    transitions = np.where(totals > 0, weights / weights.sum(axis=1, keepdims=True),
                           1.0 / num_groups)

    utt_mean = utterance_observations.mean(axis=0)
    utt_var = np.maximum(utterance_observations.var(axis=0), PROSODY_VARIANCE_FLOOR)
    return SuprasegmentalModel(layout, means, variances, transitions, utt_mean, utt_var)


def suprasegmental_log_likelihood_batch(model: SuprasegmentalModel, groups, segment_vectors,
                                        rows, utterance_vectors) -> np.ndarray:
    """Suprasegmental score of every utterance, (U,).

    The segments are stacked as train_suprasegmental takes them; each row
    sums its segment densities, then the bigram weights between its
    consecutive segments, then its utterance density.
    """
    num_rows, num_groups = len(utterance_vectors), model.layout.num_groups
    # The utterance Gaussian scores as one more group, after the G groups.
    means = np.vstack([model.group_means, model.utterance_mean])
    variances = np.vstack([model.group_variances, model.utterance_variance])
    which = np.concatenate([groups, np.full(num_rows, num_groups)])
    x = np.vstack([segment_vectors, utterance_vectors])
    density = -0.5 * (PROSODY_DIM * np.log(2.0 * np.pi) + np.log(variances).sum(axis=1)[which]
                      + ((x - means[which]) ** 2 / variances[which]).sum(axis=1))
    same_row = rows[1:] == rows[:-1]
    bigram = np.log(model.transitions[groups[:-1][same_row], groups[1:][same_row]])
    # bincount adds each row's terms in array order.
    terms = np.concatenate([density[:groups.size], bigram, density[groups.size:]])
    owners = np.concatenate([rows, rows[1:][same_row], np.arange(num_rows)])
    return np.bincount(owners, weights=terms, minlength=num_rows)


def suprasegmental_log_likelihood(
    model: SuprasegmentalModel,
    groups,
    segment_vectors,
    utterance_vector,
) -> float:
    """Sum of per-segment densities, segment-bigram weights, and the
    utterance-level density."""
    groups = np.asarray(groups, dtype=np.intp)
    segment_vectors = np.asarray(segment_vectors, dtype=np.float64)
    utterance_vector = np.asarray(utterance_vector, dtype=np.float64)
    if groups.size == 0:
        raise ValueError("need at least one segment")
    if segment_vectors.shape != (groups.size, PROSODY_DIM):
        raise ValueError("segment vectors must be (S, %d)" % PROSODY_DIM)
    return float(suprasegmental_log_likelihood_batch(
        model, groups, segment_vectors, np.zeros_like(groups), utterance_vector[None, :]
    )[0])


@dataclass
class Csphmm3Model:
    """Acoustic order-3 circular model fused with a prosody layer."""

    acoustic: HmmModel
    supra: SuprasegmentalModel
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.acoustic.num_states != self.supra.layout.num_states:
            raise ValueError("layout must cover every acoustic state")

    @property
    def dim(self) -> int:
        return self.acoustic.dim

    def to_dict(self) -> dict:
        return {
            "format": "csphmm3-model",
            "version": 1,
            "alpha": self.alpha,
            "acoustic": self.acoustic.to_dict(),
            "suprasegmental": self.supra.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Csphmm3Model":
        if doc.get("format") != "csphmm3-model":
            raise ValueError("not a csphmm3-model document")
        if type(doc["alpha"]) not in (int, float):  # type(True) is bool
            raise ValueError("alpha must be a number, not %r" % (doc["alpha"],))
        return cls(
            HmmModel.from_dict(doc["acoustic"]),
            SuprasegmentalModel.from_dict(doc["suprasegmental"]),
            float(doc["alpha"]),
        )


def _segment_summaries(paths, prosodies, layout: SuprasegmentalLayout):
    """(groups (S,), segment vectors (S, P), rows (S,), utterance vectors
    (U, P)) of the alignments segmented by the layout, all summarized from
    one track of the concatenated prosody."""
    if [len(p) for p in prosodies] != [len(path) for path in paths]:
        raise ValueError("each alignment must cover every frame of its prosody track")
    seg = segment_by_alignment(paths, layout)
    track = FrameProsody.concatenate(prosodies)
    return (seg.groups, track.segment_vectors(seg.frame_segments), seg.rows,
            track.segment_vectors(seg.rows[seg.frame_segments]))


def score_components_batch(models, features, prosodies):
    """(acoustic forward scores (U, L), suprasegmental scores (U, L)) of
    many utterances under L models sharing num_states, order and prosody
    layout.

    One lattice over the L models runs one batched forward pass and one
    batched Viterbi alignment; the L * U alignments are segmented in one
    pass over the prosody tracks (FrameProsody), and each model scores its
    own contiguous slice of the segments.
    """
    layout, num_rows = models[0].supra.layout, len(features)
    if any(m.supra.layout != layout for m in models):
        raise ValueError("models scored together must share one prosody layout")
    acoustic = [m.acoustic for m in models]
    lattice, (log_b, lengths) = CompositeLattice(*acoustic), _emission_batch(acoustic, features)
    groups, vectors, rows, utterances = _segment_summaries(
        lattice.viterbi(log_b, lengths)[0], prosodies * len(models), layout)
    bounds = np.searchsorted(rows, np.arange(len(models) + 1) * num_rows)
    supra = [suprasegmental_log_likelihood_batch(
        m.supra, groups[a:b], vectors[a:b], rows[a:b] - l * num_rows,
        utterances[l * num_rows : (l + 1) * num_rows])
        for l, (m, a, b) in enumerate(zip(models, bounds, bounds[1:]))]
    return lattice.forward(log_b, lengths)[1].reshape(-1, num_rows).T, np.column_stack(supra)


def score_components(model: Csphmm3Model, observations, prosody) -> tuple[float, float]:
    """(acoustic forward score, suprasegmental score) for one utterance."""
    acoustic, supra = score_components_batch([model], [observations], [prosody])
    return float(acoustic[0, 0]), float(supra[0, 0])


def fuse_scores(acoustic_ll: float, supra_ll: float, alpha: float) -> float:
    return (1.0 - alpha) * acoustic_ll + alpha * supra_ll


def fused_log_likelihood(model: Csphmm3Model, observations, prosody) -> float:
    """(1 - alpha) * acoustic forward score + alpha * suprasegmental score."""
    acoustic_ll, supra_ll = score_components(model, observations, prosody)
    return fuse_scores(acoustic_ll, supra_ll, model.alpha)


def train_on_alignments(
    acoustic: HmmModel,
    corpus_features,
    corpus_prosody,
    layout: SuprasegmentalLayout | None = None,
) -> SuprasegmentalModel:
    """Fit the prosody layer on top of a trained acoustic model.

    The training utterances are Viterbi-aligned in one batch, each
    alignment is segmented by the layout, and the segment summaries are
    pooled for the Gaussian fits.
    """
    if layout is None:
        layout = SuprasegmentalLayout.halves(acoustic.num_states)
    paths, _ = viterbi_align_batch(acoustic, corpus_features)
    return train_suprasegmental(*_segment_summaries(paths, corpus_prosody, layout), layout)
