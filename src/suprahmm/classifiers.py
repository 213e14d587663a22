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

import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .corpus import DEFAULT_EMOTIONS, Utterance, group_by_emotion
from .hmm import (
    ABS_VARIANCE_FLOOR,
    MIXTURE_WEIGHT_FLOOR,
    VARIANCE_FLOOR_SCALE,
    _as_frames,
    _floored_row,
    forward_log_likelihood,
    lloyd_kmeans,
    train_circular_chain,
)
from .suprasegmental import (
    Csphmm3Model,
    SuprasegmentalLayout,
    fuse_scores,
    score_components,
    train_on_alignments,
)

BANK_KINDS = ("CSPHMM3", "CHMM3", "GMM", "VQ")

DEFAULT_GMM_COMPONENTS = 32
DEFAULT_VQ_CODEBOOK = 64

_LOG_2PI = float(np.log(2.0 * np.pi))


class IncompleteBankError(Exception):
    """A configured emotion has no training data or no trained model."""


class IncompatibleFeaturesError(Exception):
    """Bank and utterance were built from different feature configurations."""


class UnscorableUtteranceError(Exception):
    """Every model of the bank gives an utterance zero likelihood (a -inf
    score), so no label can be chosen."""


# ---------------------------------------------------------------------------
# GMM baseline
# ---------------------------------------------------------------------------


@dataclass
class GmmBaselineModel:
    """Diagonal Gaussian mixture over pooled frames of one emotion."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def frame_log_likelihoods(self, frames: np.ndarray) -> np.ndarray:
        x = frames[:, None, :]
        sq = ((x - self.means[None]) ** 2 / self.variances[None]).sum(axis=2)
        log_det = np.log(self.variances).sum(axis=1)
        with np.errstate(divide="ignore"):
            log_w = np.log(self.weights)
        return logsumexp(log_w[None] - 0.5 * (self.dim * _LOG_2PI + log_det[None] + sq),
                         axis=1)

    def score(self, frames: np.ndarray) -> float:
        return float(self.frame_log_likelihoods(frames).mean())

    def to_dict(self) -> dict:
        return {
            "format": "gmm-baseline",
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GmmBaselineModel":
        return cls(np.array(doc["weights"]), np.array(doc["means"]),
                   np.array(doc["variances"]))


def train_gmm(frames, num_components: int = DEFAULT_GMM_COMPONENTS,
              max_iters: int = 20, tol: float | None = 1e-5, seed: int = 0):
    """EM for a diagonal GMM; returns (model, per-iteration mean frame LL)."""
    frames = _as_frames(frames)
    rng = np.random.default_rng(seed)
    num_components = min(num_components, frames.shape[0])

    global_var = np.maximum(frames.var(axis=0), ABS_VARIANCE_FLOOR)
    var_floor = np.maximum(VARIANCE_FLOOR_SCALE * global_var, ABS_VARIANCE_FLOOR)

    centroids, assign = lloyd_kmeans(frames, num_components, rng)
    counts = np.bincount(assign, minlength=num_components).astype(np.float64)
    model = GmmBaselineModel(
        _floored_row(counts / counts.sum(), MIXTURE_WEIGHT_FLOOR),
        centroids,
        np.tile(global_var, (num_components, 1)),
    )

    history = []
    for _ in range(max_iters):
        x = frames[:, None, :]
        sq = ((x - model.means[None]) ** 2 / model.variances[None]).sum(axis=2)
        log_det = np.log(model.variances).sum(axis=1)
        with np.errstate(divide="ignore"):
            comp = np.log(model.weights)[None] - 0.5 * (
                model.dim * _LOG_2PI + log_det[None] + sq
            )
        frame_ll = logsumexp(comp, axis=1)
        history.append(float(frame_ll.mean()))
        resp = np.exp(comp - frame_ll[:, None])
        occ = resp.sum(axis=0)
        live = occ > 0
        weights = model.weights.copy()
        weights[live] = occ[live] / occ.sum()
        means = model.means.copy()
        variances = model.variances.copy()
        means[live] = (resp.T @ frames)[live] / occ[live, None]
        variances[live] = np.maximum(
            (resp.T @ frames**2)[live] / occ[live, None] - means[live] ** 2, var_floor
        )
        model = GmmBaselineModel(_floored_row(weights, MIXTURE_WEIGHT_FLOOR),
                                 means, variances)
        if tol is not None and len(history) >= 2:
            if history[-1] - history[-2] < tol * abs(history[-2]):
                break
    return model, history


# ---------------------------------------------------------------------------
# VQ baseline
# ---------------------------------------------------------------------------


@dataclass
class VqBaselineModel:
    """Codebook of centroids; score is negative mean squared distortion."""

    centroids: np.ndarray

    def distortion(self, frames: np.ndarray) -> float:
        d = ((frames[:, None, :] - self.centroids[None]) ** 2).sum(axis=2)
        return float(d.min(axis=1).mean())

    def score(self, frames: np.ndarray) -> float:
        return -self.distortion(frames)

    def to_dict(self) -> dict:
        return {"format": "vq-baseline", "centroids": self.centroids.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "VqBaselineModel":
        return cls(np.array(doc["centroids"]))


def _refine(frames, centroids, iters=10):
    """Lloyd refinement; returns (centroids, distortion history)."""
    history = []
    for _ in range(iters):
        d = ((frames[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        history.append(float(d.min(axis=1).mean()))
        for c in range(centroids.shape[0]):
            members = frames[assign == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    return centroids, history


def lbg_codebook(frames, num_centroids: int = DEFAULT_VQ_CODEBOOK, seed: int = 0,
                 refine_iters: int = 10):
    """Split-then-refine codebook training.

    Starts from the global mean and doubles the codebook by perturbed
    splitting, refining with k-means after every split; if the target is
    not a power of two the final split only divides the highest-distortion
    cells.  Returns (model, distortion history).
    """
    frames = _as_frames(frames)
    if frames.shape[0] < num_centroids:
        raise ValueError(
            "need at least %d frames to build %d centroids"
            % (num_centroids, num_centroids)
        )
    rng = np.random.default_rng(seed)
    epsilon = 0.05 * np.maximum(frames.std(axis=0), 1e-6)

    centroids = frames.mean(axis=0, keepdims=True)
    centroids, history = _refine(frames, centroids, refine_iters)
    while centroids.shape[0] < num_centroids:
        room = num_centroids - centroids.shape[0]
        if room >= centroids.shape[0]:
            split = centroids
            keep = np.empty((0, frames.shape[1]))
        else:
            d = ((frames[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            cell_distortion = np.zeros(centroids.shape[0])
            for c in range(centroids.shape[0]):
                members = d[assign == c, c]
                cell_distortion[c] = members.sum()
            order = np.argsort(-cell_distortion)
            split = centroids[order[:room]]
            keep = centroids[order[room:]]
        jitter = epsilon * rng.standard_normal(split.shape)
        centroids = np.vstack([keep, split - jitter, split + jitter])
        centroids, hist = _refine(frames, centroids, refine_iters)
        history.extend(hist)
    return VqBaselineModel(centroids), history


# ---------------------------------------------------------------------------
# Banks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainOptions:
    """Knobs for bank training; defaults follow the shipped configuration."""

    num_states: int = 6
    num_mixtures: int = 3
    iters: tuple[int, int, int] = (6, 6, 8)
    tol: float | None = 1e-4
    seed: int = 0
    alpha: float = 0.5
    layout: SuprasegmentalLayout | None = None
    gmm_components: int = DEFAULT_GMM_COMPONENTS
    vq_codebook_size: int = DEFAULT_VQ_CODEBOOK

    def to_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "num_mixtures": self.num_mixtures,
            "iters": list(self.iters),
            "tol": self.tol,
            "seed": self.seed,
            "alpha": self.alpha,
            "layout": list(self.layout.state_to_group) if self.layout else None,
            "gmm_components": self.gmm_components,
            "vq_codebook_size": self.vq_codebook_size,
        }


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


def _utterance_fingerprint(utterances) -> dict:
    return {
        "source": "synthetic" if not utterances[0].record.path.endswith(".wav")
        else "mfcc",
        "dim": utterances[0].features.dim,
        "prosody_dim": 6,
    }


def train_bank(kind: str, corpus_by_emotion: dict, options: TrainOptions | None = None,
               labels=DEFAULT_EMOTIONS, fingerprint: dict | None = None) -> ModelBank:
    """One model per configured emotion label.

    CSPHMM3 runs the order-promotion acoustic chain then fits the prosody
    layer on top; CHMM3 stops after the acoustic chain; GMM and VQ pool
    all frames of the emotion.
    """
    options = options or TrainOptions()
    if kind not in BANK_KINDS:
        raise ValueError("unknown bank kind %r" % kind)
    labels = tuple(labels)
    for label in labels:
        if not corpus_by_emotion.get(label):
            raise IncompleteBankError("no training utterances for %r" % label)
    if fingerprint is None:
        fingerprint = _utterance_fingerprint(corpus_by_emotion[labels[0]])

    models = {}
    for label in labels:
        utterances = corpus_by_emotion[label]
        features = [u.features for u in utterances]
        if kind in ("CSPHMM3", "CHMM3"):
            acoustic, _ = train_circular_chain(
                features,
                num_states=options.num_states,
                num_mixtures=options.num_mixtures,
                iters=options.iters,
                tol=options.tol,
                seed=options.seed,
            )
            if kind == "CSPHMM3":
                layout = options.layout or SuprasegmentalLayout.halves(options.num_states)
                supra = train_on_alignments(
                    acoustic, features, [u.prosody for u in utterances], layout
                )
                models[label] = Csphmm3Model(acoustic, supra, options.alpha)
            else:
                models[label] = acoustic
        elif kind == "GMM":
            pooled = np.vstack([u.features.frames for u in utterances])
            models[label], _ = train_gmm(
                pooled, options.gmm_components, seed=options.seed
            )
        else:  # VQ
            pooled = np.vstack([u.features.frames for u in utterances])
            models[label], _ = lbg_codebook(
                pooled, min(options.vq_codebook_size, pooled.shape[0]),
                seed=options.seed,
            )
    return ModelBank(kind, labels, models, fingerprint, options)


def _score_utterance(bank: ModelBank, model, utterance: Utterance) -> float:
    if bank.kind == "CSPHMM3":
        return fuse_scores(*score_components(model, utterance.features,
                                             utterance.prosody), model.alpha)
    if bank.kind == "CHMM3":
        return forward_log_likelihood(model, utterance.features)
    frames = utterance.features.frames
    return model.score(frames)


def classify(bank: ModelBank, utterance: Utterance):
    """(winning label, per-label score dict) for one utterance.

    Raises UnscorableUtteranceError when no model scores above -inf.
    """
    if utterance.features.dim != bank.fingerprint["dim"]:
        raise IncompatibleFeaturesError(
            "utterance dim %d does not match bank dim %d"
            % (utterance.features.dim, bank.fingerprint["dim"])
        )
    scores = {}
    best_label = None
    best_score = -np.inf
    for label in bank.labels:
        score = _score_utterance(bank, bank.models[label], utterance)
        scores[label] = score
        if score > best_score:
            best_label, best_score = label, score
    if best_label is None:
        raise UnscorableUtteranceError(
            "utterance %r has zero likelihood under every model of the bank"
            % utterance.record.id
        )
    return best_label, scores


def csphmm3_score_components(bank: ModelBank, utterances):
    """(acoustic, suprasegmental) score matrices of shape (U, L) for an
    alpha sweep without re-aligning per alpha."""
    if bank.kind != "CSPHMM3":
        raise ValueError("component scores only exist for CSPHMM3 banks")
    acoustic = np.empty((len(utterances), len(bank.labels)))
    supra = np.empty_like(acoustic)
    for i, utt in enumerate(utterances):
        if utt.features.dim != bank.fingerprint["dim"]:
            raise IncompatibleFeaturesError("utterance dim mismatch")
        for j, label in enumerate(bank.labels):
            acoustic[i, j], supra[i, j] = score_components(
                bank.models[label], utt.features, utt.prosody
            )
    return acoustic, supra


# ---------------------------------------------------------------------------
# Bank serialization
# ---------------------------------------------------------------------------

BANK_MANIFEST = "bank.json"

_MODEL_CODECS = {
    "CSPHMM3": (lambda m: m.to_dict(), Csphmm3Model.from_dict),
    "GMM": (lambda m: m.to_dict(), GmmBaselineModel.from_dict),
    "VQ": (lambda m: m.to_dict(), VqBaselineModel.from_dict),
}


def _hmm_codec():
    from .hmm import HmmModel

    return (lambda m: m.to_dict(), HmmModel.from_dict)


def save_bank(bank: ModelBank, out_dir, provenance: dict | None = None) -> None:
    """Directory layout: one JSON document per emotion plus bank.json."""
    os.makedirs(out_dir, exist_ok=True)
    encode, _ = _MODEL_CODECS.get(bank.kind) or _hmm_codec()
    for label in bank.labels:
        with open(os.path.join(out_dir, label + ".json"), "w", encoding="utf-8") as fh:
            json.dump(encode(bank.models[label]), fh, indent=2, sort_keys=True)
    from .hmm import TRANSITION_FLOOR
    from .suprasegmental import PROSODY_VARIANCE_FLOOR

    manifest = {
        "format": "model-bank",
        "version": 1,
        "kind": bank.kind,
        "labels": list(bank.labels),
        "fingerprint": bank.fingerprint,
        "options": bank.options.to_dict(),
        "floors": {
            "transition": TRANSITION_FLOOR,
            "mixture_weight": MIXTURE_WEIGHT_FLOOR,
            "variance_scale": VARIANCE_FLOOR_SCALE,
            "variance_abs": ABS_VARIANCE_FLOOR,
            "prosody_variance": PROSODY_VARIANCE_FLOOR,
        },
    }
    if provenance is not None:
        manifest["provenance"] = provenance
    with open(os.path.join(out_dir, BANK_MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_bank(path) -> ModelBank:
    with open(os.path.join(path, BANK_MANIFEST), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "model-bank":
        raise ValueError("%s does not contain a model bank" % path)
    kind = manifest["kind"]
    _, decode = _MODEL_CODECS.get(kind) or _hmm_codec()
    models = {}
    for label in manifest["labels"]:
        with open(os.path.join(path, label + ".json"), "r", encoding="utf-8") as fh:
            models[label] = decode(json.load(fh))
    opts = manifest.get("options", {})
    layout = opts.get("layout")
    options = TrainOptions(
        num_states=opts.get("num_states", 6),
        num_mixtures=opts.get("num_mixtures", 3),
        iters=tuple(opts.get("iters", (6, 6, 8))),
        tol=opts.get("tol", 1e-4),
        seed=opts.get("seed", 0),
        alpha=opts.get("alpha", 0.5),
        layout=SuprasegmentalLayout(tuple(layout)) if layout else None,
        gmm_components=opts.get("gmm_components", DEFAULT_GMM_COMPONENTS),
        vq_codebook_size=opts.get("vq_codebook_size", DEFAULT_VQ_CODEBOOK),
    )
    return ModelBank(kind, tuple(manifest["labels"]), models,
                     manifest["fingerprint"], options)
