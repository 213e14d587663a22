"""Labeled-corpus ingestion, protocol splits, and the synthetic generator.

Real corpora arrive as a CSV manifest pointing at WAV files.  Because the
evaluation corpus used for the published numbers is licensed and cannot
ship with the repo, a synthetic generator provides ground-truth corpora
of the same shape: per-emotion circular-HMM feature generators plus
per-emotion prosody distributions, perturbed per speaker, all driven by
stable per-utterance sub-seeds so regeneration is bit-exact.  A saved
synthetic corpus is corpus.json (spec, records, frame counts) plus one
corpus.npz of stacked frames and prosody tracks.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from .features import (
    PROSODY_DIM,
    FeatureSequence,
    FrameProsody,
    MfccConfig,
    extract_features,
    frame_prosody,
    load_wav,
)
from .hmm import (
    CircularTopology,
    GaussianMixtureEmission,
    HmmModel,
    TransitionTensor,
    legal_contexts,
    sample_sequence,
)

MANIFEST_COLUMNS = ("id", "path", "speaker", "emotion", "text", "replicate")

DEFAULT_EMOTIONS = ("neutral", "hot_anger", "sadness", "happiness", "disgust", "panic")


class ManifestError(Exception):
    """Malformed input data: a manifest with a bad header, bad row, duplicate
    key or missing file, or a damaged JSON document (corpus.json, bank.json,
    model document, report, spec file) or corpus.npz store."""


def read_json_object(path, decode):
    """decode(doc) for the JSON object stored at `path`.

    Raises ManifestError naming the path when the file is not JSON, holds
    anything but an object, or `decode` fails with KeyError, TypeError,
    ValueError or AttributeError.  OSError passes through.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            if not isinstance(doc, dict):
                raise TypeError("not a JSON object")
            return decode(doc)
        except KeyError as exc:
            raise ManifestError("%s: missing key %s" % (path, exc)) from exc
        except (TypeError, ValueError, AttributeError) as exc:
            raise ManifestError("%s: %s" % (path, exc)) from exc


def check_labels(labels) -> tuple:
    """`labels` as a tuple, checked to be a non-empty list of distinct
    strings that can each name a bank's model document <label>.json: its
    own os.path.basename, not empty, "." or "..", free of NUL, and not
    "bank" in any letter case (bank.json is the bank's manifest)."""
    if not isinstance(labels, (list, tuple)) or not labels:
        raise ValueError("labels must be a non-empty list, not %r" % (labels,))
    for label in labels:
        if not (isinstance(label, str) and label == os.path.basename(label)
                and label not in ("", ".", "..") and "\0" not in label
                and label.lower() != "bank"):
            raise ValueError("labels must be names of model files, not %r" % (label,))
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct: %s" % list(labels))
    return tuple(labels)


def write_json_object(path, doc) -> None:
    """Write `doc` to `path` as indented, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


@dataclass(frozen=True)
class UtteranceRecord:
    id: str
    path: str
    speaker: str
    emotion: str
    text: str
    replicate: int

    @property
    def key(self) -> tuple:
        return (self.speaker, self.text, self.emotion, self.replicate)


@dataclass(frozen=True)
class SplitSpec:
    """Speaker- and text-disjoint train/test partition."""

    train_speakers: frozenset
    test_speakers: frozenset
    train_texts: frozenset
    test_texts: frozenset

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, frozenset(getattr(self, f.name)))
        if self.train_speakers & self.test_speakers:
            raise ValueError("train and test speaker sets overlap")
        if self.train_texts & self.test_texts:
            raise ValueError("train and test text sets overlap")

    def to_dict(self) -> dict:
        return {f.name: sorted(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SplitSpec":
        return cls(*(doc[f.name] for f in fields(cls)))


@dataclass
class Utterance:
    """A record with its extracted features and prosody tracks attached."""

    record: UtteranceRecord
    features: FeatureSequence
    prosody: FrameProsody

    @property
    def emotion(self) -> str:
        return self.record.emotion


def load_manifest(path, check_audio: bool = True) -> list[UtteranceRecord]:
    """Read a corpus manifest CSV; paths are resolved relative to it.

    Columns: id,path,speaker,emotion,text,replicate.  Duplicate ids,
    duplicate (speaker, text, emotion, replicate) keys and missing audio
    files are rejected; pass check_audio=False to defer file checks to the
    caller (feature extraction reports missing files per utterance instead).
    """
    base = os.path.dirname(os.path.abspath(path))
    records = []
    seen, ids = {}, {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != MANIFEST_COLUMNS:
                raise ManifestError("%s: manifest header must be exactly %s"
                                    % (path, ",".join(MANIFEST_COLUMNS)))
            for line_no, row in enumerate(reader, start=2):
                try:
                    record = UtteranceRecord(
                        id=row["id"],
                        path=row["path"],
                        speaker=row["speaker"],
                        emotion=row["emotion"],
                        text=row["text"],
                        replicate=int(row["replicate"]),
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ManifestError("%s line %d: %s" % (path, line_no, exc)) from exc
                if record.id in ids:
                    raise ManifestError("%s line %d: duplicate id %r, first on line %d"
                                        % (path, line_no, record.id, ids[record.id]))
                ids[record.id] = line_no
                if record.key in seen:
                    raise ManifestError(
                        "%s line %d: duplicate (speaker, text, emotion, replicate) key %s"
                        % (path, line_no, (record.key,))
                    )
                seen[record.key] = line_no
                resolved = os.path.join(base, record.path)
                if check_audio and not os.path.isfile(resolved):
                    raise ManifestError(
                        "%s line %d: audio file not found: %s" % (path, line_no, resolved)
                    )
                records.append(record)
    except OSError as exc:
        raise ManifestError("cannot read manifest %s: %s" % (path, exc)) from exc
    return records


def make_split(records, spec: SplitSpec):
    """Partition records into (train, test) by speaker AND text membership.

    Records matching neither side are dropped; the two outputs are always
    disjoint because the split's speaker and text sets are.
    """
    train = [
        r for r in records
        if r.speaker in spec.train_speakers and r.text in spec.train_texts
    ]
    test = [
        r for r in records
        if r.speaker in spec.test_speakers and r.text in spec.test_texts
    ]
    if records and not test:
        warnings.warn("split produced an empty test set", RuntimeWarning, stacklevel=2)
    if records and not train:
        warnings.warn("split produced an empty train set", RuntimeWarning, stacklevel=2)
    return train, test


def split_utterances(utterances, spec: SplitSpec):
    """make_split of the utterances' records, as (train, test) utterance lists."""
    by_id = {u.record.id: u for u in utterances}
    train, test = make_split([u.record for u in utterances], spec)
    return [by_id[r.id] for r in train], [by_id[r.id] for r in test]


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProsodyParams:
    """Per-emotion frame-level prosody distribution."""

    mean_log_f0: float
    sd_log_f0: float
    voiced_rate: float
    mean_log_energy: float
    sd_log_energy: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ProsodyParams":
        return cls(**doc)


@dataclass(frozen=True)
class EmotionGenerator:
    """Ground-truth generator for one emotion."""

    acoustic: HmmModel
    prosody: ProsodyParams

    def to_dict(self) -> dict:
        return {"acoustic": self.acoustic.to_dict(), "prosody": self.prosody.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "EmotionGenerator":
        return cls(HmmModel.from_dict(doc["acoustic"]),
                   ProsodyParams.from_dict(doc["prosody"]))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic ground-truth corpus."""

    labels: tuple[str, ...]
    num_speakers: int
    num_texts: int
    num_replicates: int
    generators: dict
    speaker_scale: float
    min_frames: int
    max_frames: int
    seed: int

    def __post_init__(self):
        if min(self.num_speakers, self.num_texts, self.num_replicates) < 1:
            raise ValueError("speaker, text, and replicate counts must be >= 1")
        object.__setattr__(self, "labels", check_labels(self.labels))
        if set(self.labels) != set(self.generators):
            raise ValueError("need exactly one generator per label")
        if not 1 <= self.min_frames <= self.max_frames:
            raise ValueError("frame range must satisfy 1 <= min <= max")
        dims = {g.acoustic.dim for g in self.generators.values()}
        if len(dims) != 1:
            raise ValueError("all emotion generators must share one feature dim")
        if next(iter(dims)) % 2 != 0:
            raise ValueError("generator feature dim must be even")
        sizes = (self.num_speakers, len(self.labels), self.num_texts, self.num_replicates,
                 self.max_frames, next(iter(dims)))
        if math.prod(sizes) > np.iinfo(np.intp).max:
            raise ValueError("%d speakers x %d labels x %d texts x %d replicates x %d frames "
                             "of %d values are more than a corpus can index" % sizes)

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "labels": list(self.labels),
                "generators": {label: g.to_dict() for label, g in self.generators.items()}}

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticSpec":
        counts = ("num_speakers", "num_texts", "num_replicates", "min_frames", "max_frames",
                  "seed")
        for name in counts:  # a JSON boolean is no integer: type(True) is bool
            if type(doc[name]) is not int or doc[name] < 0:
                raise ValueError("%s must be a non-negative integer, not %r" % (name, doc[name]))
        scale = doc["speaker_scale"]
        if type(scale) not in (int, float) or not math.isfinite(scale):
            raise ValueError("speaker_scale must be a finite number, not %r" % (scale,))
        return cls(labels=doc["labels"], speaker_scale=float(scale),
                   generators={label: EmotionGenerator.from_dict(g)
                               for label, g in doc["generators"].items()},
                   **{name: doc[name] for name in counts})


def _sub_rng(seed: int, tag: str) -> np.random.Generator:
    # Stated sub-seed rule: corpus seed XOR a stable hash of the tag.
    return np.random.default_rng(seed ^ zlib.crc32(tag.encode("utf-8")))


def _speaker_offsets(spec: SyntheticSpec, speaker: str):
    dim = next(iter(spec.generators.values())).acoustic.dim
    rng = _sub_rng(spec.seed, "speaker:%s" % speaker)
    feature_offset = rng.normal(0.0, spec.speaker_scale, size=dim)
    f0_offset = rng.normal(0.0, 0.3 * spec.speaker_scale)
    energy_offset = rng.normal(0.0, 0.3 * spec.speaker_scale)
    return feature_offset, f0_offset, energy_offset


def _synthesize_utterance(spec: SyntheticSpec, speaker: str, emotion: str,
                          text: str, replicate: int) -> Utterance:
    tag = "%s|%s|%s|%d" % (speaker, emotion, text, replicate)
    rng = _sub_rng(spec.seed, tag)
    generator = spec.generators[emotion]
    num_frames = int(rng.integers(spec.min_frames, spec.max_frames + 1))
    _, obs = sample_sequence(generator.acoustic, num_frames, rng)

    feature_offset, f0_offset, energy_offset = _speaker_offsets(spec, speaker)
    obs = obs + feature_offset

    p = generator.prosody
    voiced = rng.random(num_frames) < p.voiced_rate
    log_f0 = rng.normal(p.mean_log_f0 + f0_offset, p.sd_log_f0, size=num_frames)
    with np.errstate(over="ignore"):  # an inf F0 is named by FrameProsody.check_values
        f0 = np.where(voiced, np.exp(log_f0), 0.0)
    log_energy = rng.normal(p.mean_log_energy + energy_offset, p.sd_log_energy,
                            size=num_frames)

    record = UtteranceRecord(
        id="%s_%s_%s_r%d" % (speaker, emotion, text, replicate),
        path="",
        speaker=speaker,
        emotion=emotion,
        text=text,
        replicate=replicate,
    )
    return Utterance(record, FeatureSequence(obs), FrameProsody(f0, voiced, log_energy))


@dataclass
class SyntheticCorpus:
    spec: SyntheticSpec
    utterances: list

    def split(self, spec: SplitSpec):
        return split_utterances(self.utterances, spec)


def feature_fingerprint(utterances) -> dict:
    """What a bank records of the features it was trained on: their source
    (synthetic frames or MFCCs of WAV clips) and dimension."""
    return {
        "source": "mfcc" if utterances[0].record.path.endswith(".wav") else "synthetic",
        "dim": utterances[0].features.dim,
        "prosody_dim": PROSODY_DIM,
    }


def synthesize_corpus(spec: SyntheticSpec) -> SyntheticCorpus:
    """Generate the full speaker x text x replicate x emotion grid."""
    speakers = ["spk%02d" % i for i in range(spec.num_speakers)]
    texts = ["txt%02d" % i for i in range(spec.num_texts)]
    utterances = [
        _synthesize_utterance(spec, speaker, emotion, text, replicate)
        for speaker in speakers
        for emotion in spec.labels
        for text in texts
        for replicate in range(spec.num_replicates)
    ]
    return SyntheticCorpus(spec, utterances)


def default_split(spec: SyntheticSpec, train_speaker_count: int | None = None,
                  train_text_count: int | None = None) -> SplitSpec:
    """Speaker- and text-independent split in generation order.

    Counts default to the 5-of-8 speaker and half-of-texts protocol,
    scaled to the corpus shape.
    """
    if train_speaker_count is None:
        train_speaker_count = max(1, spec.num_speakers * 5 // 8)
    if train_text_count is None:
        train_text_count = max(1, spec.num_texts // 2)
    speakers = ["spk%02d" % i for i in range(spec.num_speakers)]
    texts = ["txt%02d" % i for i in range(spec.num_texts)]
    return SplitSpec(
        frozenset(speakers[:train_speaker_count]),
        frozenset(speakers[train_speaker_count:]),
        frozenset(texts[:train_text_count]),
        frozenset(texts[train_text_count:]),
    )


# ---------------------------------------------------------------------------
# Built-in generator recipes
# ---------------------------------------------------------------------------


def _generator_for_emotion(rng, dim, num_states, emotion_shift, state_scale,
                           state_patterns):
    topology = CircularTopology(num_states)
    offset = emotion_shift * rng.normal(0.0, 1.0, size=dim)
    tensors = {}
    for order in (1, 2, 3):
        rows = len(legal_contexts(topology, order))
        self_prob = rng.uniform(0.55, 0.8, size=rows)
        tensors[order] = TransitionTensor(
            topology, order, np.column_stack([self_prob, 1.0 - self_prob])
        )
    means = (state_scale * state_patterns + offset)[:, None, :]
    emissions = GaussianMixtureEmission(
        np.ones((num_states, 1)), means, np.ones((num_states, 1, dim))
    )
    return HmmModel(topology, 3, np.full(num_states, 1.0 / num_states),
                    tensors, emissions)


def _build_spec(seed, labels, dim, num_states, emotion_shift, state_scale,
                prosody_gap, num_speakers, num_texts, num_replicates,
                speaker_scale, min_frames, max_frames):
    rng = np.random.default_rng(seed)
    state_patterns = rng.normal(0.0, 1.0, size=(num_states, dim))
    generators = {}
    for index, label in enumerate(labels):
        acoustic = _generator_for_emotion(
            rng, dim, num_states, emotion_shift, state_scale, state_patterns
        )
        prosody = ProsodyParams(
            mean_log_f0=np.log(110.0) + prosody_gap * index,
            sd_log_f0=0.08,
            voiced_rate=min(0.95, 0.55 + 0.06 * index),
            mean_log_energy=-3.0 + 2.0 * prosody_gap * index,
            sd_log_energy=0.3,
        )
        generators[label] = EmotionGenerator(acoustic, prosody)
    return SyntheticSpec(
        labels=tuple(labels),
        num_speakers=num_speakers,
        num_texts=num_texts,
        num_replicates=num_replicates,
        generators=generators,
        speaker_scale=speaker_scale,
        min_frames=min_frames,
        max_frames=max_frames,
        seed=seed,
    )


def default_synthetic_spec(seed: int = 2024, dim: int = 8,
                           num_states: int = 6) -> SyntheticSpec:
    """Desk-scale corpus mirroring the published protocol shape: 6 emotions,
    8 speakers (5 train / 3 test), 20 texts (10 / 10), 2 replicates, with
    well-separated acoustic generators."""
    return _build_spec(
        seed, DEFAULT_EMOTIONS, dim, num_states,
        emotion_shift=1.6, state_scale=1.0, prosody_gap=0.15,
        num_speakers=8, num_texts=20, num_replicates=2,
        speaker_scale=0.15, min_frames=80, max_frames=150,
    )


def prosody_synthetic_spec(seed: int = 2024, dim: int = 4,
                           num_states: int = 6) -> SyntheticSpec:
    """Emotions that differ mainly in prosody: acoustic generators nearly
    overlap while pitch/energy/voicing separate the classes."""
    return _build_spec(
        seed, DEFAULT_EMOTIONS, dim, num_states,
        emotion_shift=0.18, state_scale=1.0, prosody_gap=0.3,
        num_speakers=4, num_texts=8, num_replicates=1,
        speaker_scale=0.1, min_frames=40, max_frames=80,
    )


# ---------------------------------------------------------------------------
# On-disk layout
# ---------------------------------------------------------------------------

CORPUS_SIDECAR = "corpus.json"
CORPUS_STORE = "corpus.npz"

# corpus.npz: each array's (dtype, ndim); frames stack by row, tracks end to end.
STORE_ARRAYS = {"frames": ("float64", 2), "f0_hz": ("float64", 1), "voiced": ("bool", 1),
                "log_energy": ("float64", 1)}
_STRING_FIELDS = ("id", "speaker", "emotion", "text")


def save_synthetic_corpus(corpus: SyntheticCorpus, out_dir,
                          provenance: dict | None = None) -> None:
    """corpus.npz with every utterance's frames and prosody tracks stacked
    in corpus order, plus a corpus.json sidecar (version 2) carrying the
    spec, seed, and each utterance's record and frame count.  Raises
    ValueError, writing nothing, when a prosody track fails
    FrameProsody.check_values."""
    utts = corpus.utterances
    frames = np.vstack([u.features.frames for u in utts])
    tracks = FrameProsody.concatenate([u.prosody for u in utts])
    tracks.check_values([len(u.prosody) for u in utts], [u.record.id for u in utts])
    os.makedirs(out_dir, exist_ok=True)
    np.savez(os.path.join(out_dir, CORPUS_STORE), frames=frames,
             **{f.name: getattr(tracks, f.name) for f in fields(FrameProsody)})
    sidecar = {"format": "synthetic-corpus", "version": 2, "seed": corpus.spec.seed,
               "spec": corpus.spec.to_dict(), "fingerprint": feature_fingerprint(utts),
               "utterances": [{**{k: getattr(u.record, k) for k in _STRING_FIELDS},
                               "replicate": u.record.replicate, "frames": len(u.features)}
                              for u in utts]}
    if provenance is not None:
        sidecar["provenance"] = provenance
    with open(os.path.join(out_dir, CORPUS_SIDECAR), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)


def _corpus_from_store(spec, dim, entries, arrays) -> SyntheticCorpus:
    """Check the stacked arrays and the entries, then cut the arrays into
    one Utterance per entry by its frame count."""
    counts = [e["frames"] for e in entries]
    found = {name: (str(a.dtype), a.ndim) for name, a in arrays.items()}
    if found != STORE_ARRAYS:
        raise ValueError("%s holds arrays %s, not %s" % (CORPUS_STORE, found, STORE_ARRAYS))
    if arrays["frames"].shape[1] != dim:
        raise ValueError("%s holds %d-dim frames, the spec %d"
                         % (CORPUS_STORE, arrays["frames"].shape[1], dim))
    if not all(type(c) is int and c > 0 for c in counts):
        raise ValueError("utterance frame counts must be positive integers")
    if not all(type(e["replicate"]) is int for e in entries):  # type(True) is bool
        raise ValueError("utterance replicates must be integers")
    rows = sorted({len(a) for a in arrays.values()})
    if rows != [sum(counts)]:
        raise ValueError("%s holds arrays of %s rows, the utterances %d frames"
                         % (CORPUS_STORE, rows, sum(counts)))
    records, seen = [], set()
    for entry in entries:
        for key in _STRING_FIELDS:
            if not isinstance(entry[key], str):
                raise ValueError("utterance field %s must be a string, not %r"
                                 % (key, entry[key]))
        if entry["id"] in seen:
            raise ValueError("duplicate utterance id %r" % entry["id"])
        seen.add(entry["id"])
        records.append(UtteranceRecord(path="", replicate=entry["replicate"],
                                       **{k: entry[k] for k in _STRING_FIELDS}))
    for name, key in (("num_speakers", "speaker"), ("num_texts", "text")):
        if getattr(spec, name) != len({getattr(r, key) for r in records}):
            raise ValueError("spec %s does not match the %ss the utterances name" % (name, key))
    try:
        FrameProsody(**{f.name: arrays[f.name] for f in fields(FrameProsody)}).check_values(
            counts, [r.id for r in records])
    except ValueError as exc:
        raise ValueError("%s: %s" % (CORPUS_STORE, exc)) from exc
    pieces = {name: np.split(a, np.cumsum(counts)[:-1]) for name, a in arrays.items()}
    utterances = []
    for i, (r, f) in enumerate(zip(records, pieces.pop("frames"))):
        try:
            prosody = FrameProsody(**{name: track[i] for name, track in pieces.items()})
            utterances.append(Utterance(r, FeatureSequence(f), prosody))
        except ValueError as exc:
            raise ValueError("%s: utterance %r: %s" % (CORPUS_STORE, r.id, exc)) from exc
    return SyntheticCorpus(spec, utterances)


def load_synthetic_corpus(path) -> SyntheticCorpus:
    """Read a corpus written by save_synthetic_corpus.

    Raises ManifestError when corpus.json or corpus.npz is damaged: a
    version other than 2, no utterances, arrays not as STORE_ARRAYS, frames
    not of the spec's dim, frame counts that are not positive or do not sum
    to every array's rows, a non-integer replicate, a non-string id,
    speaker, emotion or text, a repeated id, spec speaker or text counts
    the utterances do not match, a non-finite frame or a prosody track
    that fails FrameProsody.check_values (each named by its utterance id).
    """
    def decode(sidecar):
        if sidecar.get("format") != "synthetic-corpus":
            raise ValueError("does not contain a synthetic corpus")
        if sidecar["version"] != 2:
            raise ValueError("corpus version %r is not supported, only version 2: regenerate "
                             "it from its embedded spec with `suprahmm synth --spec-file`"
                             % sidecar["version"])
        spec = SyntheticSpec.from_dict(sidecar["spec"])
        dim, entries = next(iter(spec.generators.values())).acoustic.dim, sidecar["utterances"]
        if not entries:
            raise ValueError("the corpus has no utterances")
        try:
            with np.load(os.path.join(path, CORPUS_STORE), allow_pickle=False) as npz:
                arrays = dict(npz)
        except (ValueError, zipfile.BadZipFile, EOFError) as exc:
            raise ValueError("%s: %s" % (CORPUS_STORE, exc)) from exc
        return _corpus_from_store(spec, dim, entries, arrays)

    return read_json_object(os.path.join(path, CORPUS_SIDECAR), decode)


def load_wav_corpus(manifest_path, cfg: MfccConfig | None = None,
                    expected_sample_rate_hz: int | None = None) -> list[Utterance]:
    """Extract features and prosody for every manifest entry.

    Raises ManifestError, naming the manifest line and its file, when a
    clip cannot be read or is too short or malformed for the front-end.
    """
    cfg = cfg or MfccConfig()
    base = os.path.dirname(os.path.abspath(manifest_path))
    utterances = []
    for line_no, record in enumerate(load_manifest(manifest_path), start=2):
        try:
            clip = load_wav(os.path.join(base, record.path), expected_sample_rate_hz)
            utterances.append(
                Utterance(record, extract_features(clip, cfg), frame_prosody(clip, cfg))
            )
        except ValueError as exc:
            raise ManifestError("line %d: %s: %s" % (line_no, record.path, exc)) from exc
    return utterances


def group_by_emotion(utterances) -> dict:
    grouped: dict[str, list] = {}
    for utt in utterances:
        grouped.setdefault(utt.emotion, []).append(utt)
    return grouped
