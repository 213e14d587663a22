"""Per-emotion model banks and the argmax recognizer, plus baselines.

A bank holds one model per emotion label; an unknown utterance is scored
under every model and assigned the label with the highest score:

  - CSPHMM3: fused acoustic + suprasegmental score at the bank's alpha,
  - CHMM3:   acoustic forward log-likelihood,
  - GMM:     mean frame log-likelihood of a pooled diagonal mixture,
  - VQ:      negative mean quantization distortion against a codebook.

GMM and VQ scores are per-frame averages so utterance length does not
bias the comparison.  Ties break toward the earlier label in the bank's
configured order.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

import numpy as np

from .corpus import (DEFAULT_EMOTIONS, Utterance, check_labels, feature_fingerprint,
                     read_json_object, write_json_object)
from .hmm import (
    ABS_VARIANCE_FLOOR,
    MIXTURE_WEIGHT_FLOOR,
    TRANSITION_FLOOR,
    VARIANCE_FLOOR_SCALE,
    GaussianMixtureEmission,
    HmmModel,
    UnscorableUtteranceError,
    _converged,
    _emission_batch,
    _lse_last,
    _stack,
    corpus_variance_floor,
    initial_model,
    lloyd_kmeans,
    mixture_statistics,
    squared_distances,
    train_circular_chain,
    update_mixtures,
)
from .suprasegmental import (
    DEFAULT_ALPHA,
    PROSODY_VARIANCE_FLOOR,
    Csphmm3Model,
    SuprasegmentalLayout,
    fuse_scores,
    score_components_batch,
    train_on_alignments,
)

DEFAULT_GMM_COMPONENTS = 32
DEFAULT_VQ_CODEBOOK = 64

# Utterances per lattice pass in bank_scores, whose alphas are (T, S, L x block).
SCORE_BLOCK = 64


class IncompleteBankError(Exception):
    """A configured emotion has no training data or no trained model."""


class IncompatibleFeaturesError(Exception):
    """Bank and utterance were built from different feature configurations."""


class ModelSizeError(ValueError):
    """Model sizes the bank kind or its training frames cannot take; the
    message names the config key."""


# ---------------------------------------------------------------------------
# GMM baseline
# ---------------------------------------------------------------------------


@dataclass
class GmmBaselineModel:
    """Diagonal Gaussian mixture over pooled frames of one emotion: weights
    (M,), means and variances (M, D), scored as a one-state emission."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        # The one-state emission it scores with; building it checks the shapes.
        self.emission = GaussianMixtureEmission(self.weights[None], self.means[None],
                                                self.variances[None])
        self.dim = self.emission.dim

    def frame_log_likelihoods(self, frames: np.ndarray) -> np.ndarray:
        return self.emission.log_prob_matrix(frames)[:, 0]

    def score(self, frames: np.ndarray) -> float:
        return float(self.frame_log_likelihoods(frames).mean())

    def to_dict(self) -> dict:
        return {"format": "gmm-baseline", "weights": self.weights.tolist(),
                "means": self.means.tolist(), "variances": self.variances.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "GmmBaselineModel":
        model = cls(np.array(doc["weights"]), np.array(doc["means"]),
                    np.array(doc["variances"]))
        model.emission.validate(tol=1e-9)
        return model


def train_gmm(frames, num_components: int = DEFAULT_GMM_COMPONENTS,
              max_iters: int = 20, tol: float | None = 1e-5, seed: int = 0):
    """EM for a diagonal GMM, run as a one-state mixture emission through
    the HMM's mixture E-step and M-step from `initial_model`'s one-state
    start; returns (model, per-iteration mean frame LL)."""
    frames, _ = _stack([frames])
    emission = initial_model([frames], 1, min(num_components, frames.shape[0]), seed).emissions
    var_floor = corpus_variance_floor(frames)
    center = frames.mean(axis=0)
    centered = frames - center

    history = []
    for _ in range(max_iters):
        comp_log = emission.component_log_probs(frames)
        frame_ll = _lse_last(comp_log)
        history.append(float(frame_ll.mean()))
        stats = mixture_statistics(comp_log, frame_ll, np.ones_like(frame_ll), centered)
        update_mixtures(emission, stats, center, var_floor)
        if _converged(history, tol):
            break
    model = GmmBaselineModel(emission.weights[0], emission.means[0], emission.variances[0])
    return model, history


# ---------------------------------------------------------------------------
# VQ baseline
# ---------------------------------------------------------------------------


@dataclass
class VqBaselineModel:
    """Codebook of centroids; score is negative mean squared distortion."""

    centroids: np.ndarray

    def __post_init__(self):
        if (self.centroids.ndim != 2 or not len(self.centroids)
                or not np.all(np.isfinite(self.centroids))):
            raise ValueError("centroids must be a non-empty, finite (K, D) matrix")
        self.dim = self.centroids.shape[1]

    def distortion(self, frames: np.ndarray) -> float:
        return float(squared_distances(frames, self.centroids).min(axis=1).mean())

    def score(self, frames: np.ndarray) -> float:
        return -self.distortion(frames)

    def to_dict(self) -> dict:
        return {"format": "vq-baseline", "centroids": self.centroids.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "VqBaselineModel":
        return cls(np.array(doc["centroids"], dtype=np.float64))


def lbg_codebook(frames, num_centroids: int = DEFAULT_VQ_CODEBOOK, seed: int = 0,
                 refine_iters: int = 10):
    """Split-then-refine codebook training.

    Starts from the global mean and doubles the codebook by perturbed
    splitting, refining with k-means after every split; if the target is
    not a power of two the final split only divides the highest-distortion
    cells.  Returns (model, distortion history).
    """
    frames, _ = _stack([frames])
    if frames.shape[0] < num_centroids:
        raise ValueError("need at least %d frames to build %d centroids"
                         % (num_centroids, num_centroids))
    rng = np.random.default_rng(seed)
    epsilon = 0.05 * np.maximum(frames.std(axis=0), 1e-6)

    centroids, _, history = lloyd_kmeans(frames, frames.mean(axis=0, keepdims=True),
                                         refine_iters)
    while centroids.shape[0] < num_centroids:
        room = num_centroids - centroids.shape[0]
        order = np.arange(centroids.shape[0])
        if room < centroids.shape[0]:
            d = squared_distances(frames, centroids)
            assign = d.argmin(axis=1)
            order = np.argsort(-np.array([d[assign == c, c].sum() for c in order]))
        split, keep = centroids[order[:room]], centroids[order[room:]]
        jitter = epsilon * rng.standard_normal(split.shape)
        centroids = np.vstack([keep, split - jitter, split + jitter])
        centroids, _, hist = lloyd_kmeans(frames, centroids, refine_iters)
        history.extend(hist)
    return VqBaselineModel(centroids), history


# ---------------------------------------------------------------------------
# Banks
# ---------------------------------------------------------------------------

# The model class of each bank kind: models encode with to_dict and decode
# with from_dict.
_MODEL_TYPES = {"CSPHMM3": Csphmm3Model, "CHMM3": HmmModel, "GMM": GmmBaselineModel,
                "VQ": VqBaselineModel}
BANK_KINDS = tuple(_MODEL_TYPES)


@dataclass(frozen=True)
class TrainOptions:
    """Knobs for bank training; defaults follow the shipped configuration."""

    num_states: int = 6
    num_mixtures: int = 3
    iters: tuple[int, int, int] = (6, 6, 8)
    tol: float | None = 1e-4
    seed: int = 0
    alpha: float = DEFAULT_ALPHA
    layout: SuprasegmentalLayout | None = None
    gmm_components: int = DEFAULT_GMM_COMPONENTS
    vq_codebook_size: int = DEFAULT_VQ_CODEBOOK

    def __post_init__(self):
        # Messages name the keys of a config's model section.
        def is_count(value, least):
            return isinstance(value, int) and not isinstance(value, bool) and value >= least

        def is_number(value):
            return isinstance(value, (int, float)) and not isinstance(value, bool)

        for name in ("num_states", "num_mixtures", "gmm_components", "vq_codebook_size"):
            if not is_count(getattr(self, name), 1):
                raise ValueError("%s must be an integer of at least 1" % name)
        if not (isinstance(self.iters, tuple) and len(self.iters) == 3
                and all(is_count(i, 0) for i in self.iters)):
            raise ValueError("train_iters must list three non-negative integer stage counts")
        if self.tol is not None and not (is_number(self.tol) and self.tol >= 0):
            raise ValueError("tol must be a non-negative number or null")
        if not (is_number(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be a number in [0, 1]")
        if self.layout is not None and self.layout.num_states != self.num_states:
            raise ValueError("supra_layout must list a group for each of the %d states"
                             % self.num_states)

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "iters": list(self.iters),
                "layout": list(self.layout.state_to_group) if self.layout else None}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainOptions":
        """Inverse of to_dict; a key missing from the document keeps its
        default, as does a layout of None."""
        kwargs = {f.name: doc[f.name] for f in dataclasses.fields(cls) if f.name in doc}
        if isinstance(kwargs.get("iters"), list):
            kwargs["iters"] = tuple(kwargs["iters"])
        layout = kwargs.get("layout")
        if layout is not None:
            try:
                kwargs["layout"] = SuprasegmentalLayout(tuple(layout))
            except (TypeError, ValueError) as exc:
                raise ValueError("supra_layout %r: %s" % (layout, exc)) from exc
        return cls(**kwargs)


@dataclass
class ModelBank:
    kind: str
    labels: tuple[str, ...]
    models: dict
    fingerprint: dict
    options: TrainOptions = field(default_factory=TrainOptions)

    def __post_init__(self):
        if self.kind not in BANK_KINDS:
            raise ValueError("unknown bank kind %r" % self.kind)
        missing = [label for label in self.labels if label not in self.models]
        if missing:
            raise IncompleteBankError("bank is missing models for %s" % missing)


def train_bank(kind: str, corpus_by_emotion: dict, options: TrainOptions | None = None,
               labels=DEFAULT_EMOTIONS) -> ModelBank:
    """One model per configured emotion label.

    CSPHMM3 runs the order-promotion acoustic chain then fits the prosody
    layer on top; CHMM3 stops after the acoustic chain; GMM and VQ pool
    all frames of the emotion.  Model sizes are checked before any emotion
    trains (ModelSizeError).
    """
    options = options or TrainOptions()
    if kind not in BANK_KINDS:
        raise ValueError("unknown bank kind %r" % kind)
    labels = check_labels(labels)
    for label in labels:
        if not corpus_by_emotion.get(label):
            raise IncompleteBankError("no training utterances for %r" % label)
    if kind == "CSPHMM3" and options.layout is None and options.num_states < 2:
        raise ModelSizeError("num_states must be at least 2 for a CSPHMM3 bank without a "
                             "supra_layout")
    if kind in ("CSPHMM3", "CHMM3"):  # larger sizes exhaust memory before EM starts
        fewest = min(sum(len(u.features) for u in corpus_by_emotion[label]) for label in labels)
        for key in ("num_states", "num_mixtures"):
            if getattr(options, key) > fewest:
                raise ModelSizeError("%s of %d is more than the %d training frames of the emotion "
                                     "with the fewest" % (key, getattr(options, key), fewest))

    models = {}
    for label in labels:
        utterances = corpus_by_emotion[label]
        features = [u.features for u in utterances]
        if kind in ("CSPHMM3", "CHMM3"):
            try:
                acoustic, _ = train_circular_chain(
                    features, num_states=options.num_states, num_mixtures=options.num_mixtures,
                    iters=options.iters, tol=options.tol, seed=options.seed)
            except UnscorableUtteranceError as exc:
                raise UnscorableUtteranceError(
                    "training utterance %r of emotion %r has zero likelihood under "
                    "the model" % (utterances[exc.index].record.id, label)) from exc
            if kind == "CSPHMM3":
                supra = train_on_alignments(acoustic, features,
                                            [u.prosody for u in utterances], options.layout)
                models[label] = Csphmm3Model(acoustic, supra, options.alpha)
            else:
                models[label] = acoustic
        else:
            pooled, _ = _stack(features)
            if kind == "GMM":
                models[label], _ = train_gmm(pooled, options.gmm_components, seed=options.seed)
            else:  # VQ
                models[label], _ = lbg_codebook(
                    pooled, min(options.vq_codebook_size, pooled.shape[0]), seed=options.seed)
    return ModelBank(kind, labels, models,
                     feature_fingerprint(corpus_by_emotion[labels[0]]), options)


def bank_scores(bank: ModelBank, utterances):
    """Scores of every utterance under every model of the bank.

    Returns (scores (U, L) with columns in label order, parts).  For a
    CSPHMM3 bank, parts is the (acoustic, suprasegmental) pair of (U, L)
    matrices that the scores fuse at each model's alpha; for the other
    kinds it is None.  HMM models score in one lattice pass per group of
    models sharing num_states, order and (CSPHMM3) prosody layout, the
    group on the batch axis, SCORE_BLOCK utterances at a time; a trained
    bank is one group.
    """
    for utt in utterances:
        if utt.features.dim != bank.fingerprint["dim"]:
            raise IncompatibleFeaturesError("utterance %r dim %d does not match bank dim %d" % (
                utt.record.id, utt.features.dim, bank.fingerprint["dim"]))
    models = [bank.models[label] for label in bank.labels]
    features = [u.features for u in utterances]
    if bank.kind in ("GMM", "VQ"):
        return np.array([[m.score(f.frames) for m in models] for f in features]), None
    fused = bank.kind == "CSPHMM3"
    groups: dict = {}
    for j, m in enumerate(models):
        hmm = m.acoustic if fused else m
        groups.setdefault((hmm.num_states, hmm.order, fused and m.supra.layout), []).append(j)
    prosodies = [u.prosody for u in utterances]
    acoustic, supra = np.empty((2, len(utterances), len(models)))
    for cols in groups.values():
        group = [models[j] for j in cols]
        for lo in range(0, len(utterances), SCORE_BLOCK):
            rows = slice(lo, lo + SCORE_BLOCK)
            if fused:
                acoustic[rows, cols], supra[rows, cols] = score_components_batch(
                    group, features[rows], prosodies[rows])
            else:
                log_b, lattice = _emission_batch(group, features[rows])
                acoustic[rows, cols] = lattice.forward(log_b)[1].reshape(len(cols), -1).T
    if not fused:
        return acoustic, None
    return fuse_scores(acoustic, supra, np.array([m.alpha for m in models])), (acoustic, supra)


def classify(bank: ModelBank, utterance: Utterance):
    """(winning label, per-label score dict) for one utterance.

    Raises UnscorableUtteranceError when no model scores above -inf.
    """
    scores, _ = bank_scores(bank, [utterance])
    row = scores[0].tolist()
    return pick_label(bank.labels, row, utterance.record.id), dict(zip(bank.labels, row))


def pick_label(labels, scores, utterance_id) -> str:
    """The first label with the highest score; NaN never wins.

    Raises UnscorableUtteranceError when no score is above -inf.
    """
    best_label, best_score = None, -np.inf
    for label, score in zip(labels, scores):
        if score > best_score:
            best_label, best_score = label, score
    if best_label is None:
        raise UnscorableUtteranceError(
            "utterance %r has zero likelihood under every model of the bank" % utterance_id)
    return best_label


# ---------------------------------------------------------------------------
# Bank serialization
# ---------------------------------------------------------------------------

BANK_MANIFEST = "bank.json"


def save_bank(bank: ModelBank, out_dir, provenance: dict | None = None) -> None:
    """Directory layout: one JSON document per emotion plus bank.json."""
    os.makedirs(out_dir, exist_ok=True)
    for label in bank.labels:
        write_json_object(os.path.join(out_dir, label + ".json"), bank.models[label].to_dict())
    manifest = {
        "format": "model-bank", "version": 1, "kind": bank.kind, "labels": list(bank.labels),
        "fingerprint": bank.fingerprint, "options": bank.options.to_dict(),
        "floors": {"transition": TRANSITION_FLOOR, "mixture_weight": MIXTURE_WEIGHT_FLOOR,
                   "variance_scale": VARIANCE_FLOOR_SCALE, "variance_abs": ABS_VARIANCE_FLOOR,
                   "prosody_variance": PROSODY_VARIANCE_FLOOR},
    }
    if provenance is not None:
        manifest["provenance"] = provenance
    write_json_object(os.path.join(out_dir, BANK_MANIFEST), manifest)


def load_bank(path) -> ModelBank:
    """Read a bank written by save_bank.

    Raises ManifestError when bank.json or a model document does not decode:
    bank.json must be a model bank of a known kind with labels that pass
    check_labels, a fingerprint object with an integer dim, and options,
    when present, an object; every model must have that dim and, in a
    CSPHMM3 bank, the options' alpha.
    """
    def decode(manifest):
        if manifest.get("format") != "model-bank":
            raise ValueError("does not contain a model bank")
        kind, labels = manifest.get("kind"), check_labels(manifest["labels"])
        if kind not in _MODEL_TYPES:
            raise ValueError("unknown bank kind %r" % (kind,))
        fingerprint, options = manifest["fingerprint"], manifest.get("options", {})
        if not isinstance(fingerprint, dict) or not isinstance(fingerprint.get("dim"), int):
            raise ValueError("fingerprint must be an object with an integer dim")
        if not isinstance(options, dict):
            raise ValueError("options must be an object")
        models = {label: read_json_object(os.path.join(path, label + ".json"),
                                          _MODEL_TYPES[kind].from_dict)
                  for label in labels}
        options = TrainOptions.from_dict(options)
        for label, model in models.items():
            where = os.path.join(path, label + ".json")
            if model.dim != fingerprint["dim"]:
                raise ValueError("%s has dim %d, the fingerprint %d"
                                 % (where, model.dim, fingerprint["dim"]))
            if kind == "CSPHMM3" and model.alpha != options.alpha:
                raise ValueError("%s has alpha %r, the bank options %r"
                                 % (where, model.alpha, options.alpha))
        return ModelBank(kind, labels, models, fingerprint, options)

    return read_json_object(os.path.join(path, BANK_MANIFEST), decode)
