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
from dataclasses import dataclass, field

import numpy as np

from .features import PROSODY_DIM
from .hmm import HmmModel, forward_and_align, viterbi_align_batch

PROSODY_VARIANCE_FLOOR = 1e-4
SUPRA_TRANSITION_FLOOR = 1e-6

DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class SuprasegmentalLayout:
    """Partition of the conventional states into prosodic groups.

    state_to_group[q] is the group owning conventional state q; groups
    must be contiguous ids 0..G-1 and each must own at least one state.
    """

    state_to_group: tuple[int, ...]

    def __post_init__(self):
        groups = sorted(set(self.state_to_group))
        if not self.state_to_group:
            raise ValueError("layout must cover at least one state")
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

    def as_array(self) -> np.ndarray:
        return np.asarray(self.state_to_group, dtype=np.intp)


@dataclass(frozen=True)
class Segmentation:
    """Maximal runs of one prosodic group along an alignment."""

    groups: np.ndarray        # (S,) group of each segment
    lengths: np.ndarray       # (S,) frames per segment
    frame_segments: np.ndarray  # (T,) segment id of every frame

    def __len__(self) -> int:
        return self.groups.size


def segment_by_alignment(alignment, layout: SuprasegmentalLayout) -> Segmentation:
    """Run-length encode a state path into prosodic-group segments."""
    alignment = np.asarray(alignment, dtype=np.intp)
    if alignment.ndim != 1 or alignment.size == 0:
        raise ValueError("alignment must be a non-empty state path")
    if alignment.max() >= layout.num_states or alignment.min() < 0:
        raise ValueError("alignment state outside the layout")
    per_frame_group = layout.as_array()[alignment]
    boundaries = np.flatnonzero(np.diff(per_frame_group)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [alignment.size]])
    frame_segments = np.zeros(alignment.size, dtype=np.intp)
    for seg, start in enumerate(starts):
        frame_segments[start : ends[seg]] = seg
    return Segmentation(per_frame_group[starts], ends - starts, frame_segments)


def _diag_gauss_logpdf(x: np.ndarray, mean: np.ndarray, var: np.ndarray) -> float:
    diff = x - mean
    return float(
        -0.5 * (x.size * np.log(2.0 * np.pi) + np.log(var).sum() + (diff**2 / var).sum())
    )


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
        if self.utterance_mean.shape != (PROSODY_DIM,):
            raise ValueError("utterance mean must have %d entries" % PROSODY_DIM)

    def validate(self, tol: float = 1e-12) -> None:
        sums = self.transitions.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > tol or np.any(self.transitions < 0):
            raise ValueError("transition rows must be probability vectors")
        if np.any(self.group_variances <= 0) or np.any(self.utterance_variance <= 0):
            raise ValueError("variances must be strictly positive")

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
        return cls(
            SuprasegmentalLayout(tuple(doc["layout"])),
            np.array(doc["group_means"]),
            np.array(doc["group_variances"]),
            np.array(doc["transitions"]),
            np.array(doc["utterance_mean"]),
            np.array(doc["utterance_variance"]),
        )


def train_suprasegmental(
    segment_observations,
    utterance_observations,
    layout: SuprasegmentalLayout,
    variance_floor: float = PROSODY_VARIANCE_FLOOR,
    transition_floor: float = SUPRA_TRANSITION_FLOOR,
) -> SuprasegmentalModel:
    """Fit the prosody layer from aligned segments.

    segment_observations: per utterance, a pair (groups (S,), vectors (S, P)).
    utterance_observations: (U, P) utterance-level summary vectors.
    A group with no segments anywhere falls back to the global statistics
    of all segment vectors, with a warning.
    """
    num_groups = layout.num_groups
    utterance_observations = np.asarray(utterance_observations, dtype=np.float64)
    if not segment_observations or utterance_observations.size == 0:
        raise ValueError("need at least one aligned utterance")

    per_group: list[list[np.ndarray]] = [[] for _ in range(num_groups)]
    bigrams = np.zeros((num_groups, num_groups))
    all_vectors = []
    for groups, vectors in segment_observations:
        groups = np.asarray(groups, dtype=np.intp)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape != (groups.size, PROSODY_DIM):
            raise ValueError("segment vectors must be (S, %d)" % PROSODY_DIM)
        all_vectors.append(vectors)
        for g, vec in zip(groups, vectors):
            per_group[g].append(vec)
        for a, b in zip(groups[:-1], groups[1:]):
            bigrams[a, b] += 1.0

    pooled = np.vstack(all_vectors)
    global_mean = pooled.mean(axis=0)
    global_var = np.maximum(pooled.var(axis=0), variance_floor)

    means = np.empty((num_groups, PROSODY_DIM))
    variances = np.empty((num_groups, PROSODY_DIM))
    for g in range(num_groups):
        if per_group[g]:
            data = np.vstack(per_group[g])
            means[g] = data.mean(axis=0)
            variances[g] = np.maximum(data.var(axis=0), variance_floor)
        else:
            warnings.warn(
                "prosodic group %d has no segments; using global statistics" % g,
                RuntimeWarning,
                stacklevel=2,
            )
            means[g] = global_mean
            variances[g] = global_var

    transitions = np.empty((num_groups, num_groups))
    for g in range(num_groups):
        total = bigrams[g].sum()
        if total == 0:
            transitions[g] = 1.0 / num_groups
        else:
            row = np.maximum(bigrams[g] / total, transition_floor)
            transitions[g] = row / row.sum()

    utt_mean = utterance_observations.mean(axis=0)
    utt_var = np.maximum(utterance_observations.var(axis=0), variance_floor)
    return SuprasegmentalModel(layout, means, variances, transitions, utt_mean, utt_var)


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

    total = 0.0
    for g, vec in zip(groups, segment_vectors):
        total += _diag_gauss_logpdf(vec, model.group_means[g], model.group_variances[g])
    for a, b in zip(groups[:-1], groups[1:]):
        total += float(np.log(model.transitions[a, b]))
    total += _diag_gauss_logpdf(utterance_vector, model.utterance_mean,
                                model.utterance_variance)
    return total


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
        return cls(
            HmmModel.from_dict(doc["acoustic"]),
            SuprasegmentalModel.from_dict(doc["suprasegmental"]),
            float(doc["alpha"]),
        )


def score_components(model: Csphmm3Model, observations, prosody) -> tuple[float, float]:
    """(acoustic forward score, suprasegmental score) for one utterance.

    The prosody argument must expose segment_vectors(frame_segments) and
    utterance_vector(); segments come from the acoustic Viterbi alignment.
    """
    acoustic_ll, path = forward_and_align(model.acoustic, observations)
    segmentation = segment_by_alignment(path, model.supra.layout)
    vectors = prosody.segment_vectors(segmentation.frame_segments)
    supra_ll = suprasegmental_log_likelihood(
        model.supra, segmentation.groups, vectors, prosody.utterance_vector()
    )
    return acoustic_ll, supra_ll


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
    variance_floor: float = PROSODY_VARIANCE_FLOOR,
) -> SuprasegmentalModel:
    """Fit the prosody layer on top of a trained acoustic model.

    The training utterances are Viterbi-aligned in one batch, each
    alignment is segmented by the layout, and the segment summaries are
    pooled for the Gaussian fits.
    """
    if layout is None:
        layout = SuprasegmentalLayout.halves(acoustic.num_states)
    paths, _ = viterbi_align_batch(acoustic, corpus_features)
    segment_obs = []
    utterance_obs = []
    for path, prosody in zip(paths, corpus_prosody):
        segmentation = segment_by_alignment(path, layout)
        vectors = prosody.segment_vectors(segmentation.frame_segments)
        segment_obs.append((segmentation.groups, vectors))
        utterance_obs.append(prosody.utterance_vector())
    return train_suprasegmental(segment_obs, np.vstack(utterance_obs), layout,
                                variance_floor=variance_floor)
