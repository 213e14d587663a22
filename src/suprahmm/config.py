"""Experiment configuration: one JSON document, validated up front.

Every command consumes the same document; the --seed flag overrides the
configured seed, and the resolved configuration is echoed into every
output for provenance.  The environment variable SUPRAHMM_SEED, when set,
overrides both.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields

from .classifiers import TrainOptions
from .corpus import ManifestError, SplitSpec, check_labels, read_json_object
from .features import MfccConfig

SEED_ENV_VAR = "SUPRAHMM_SEED"


class ConfigError(Exception):
    """Invalid or inconsistent experiment configuration."""


_FEATURE_KEYS = {**asdict(MfccConfig()), "sample_rate_hz": 16000}

# The model section is TrainOptions without its seed, two fields renamed.
_MODEL_NAMES = {"iters": "train_iters", "layout": "supra_layout"}
_MODEL_KEYS = {_MODEL_NAMES.get(name, name): value
               for name, value in TrainOptions().to_dict().items() if name != "seed"}

_SPLIT_KEYS = ("train_speakers", "test_speakers", "train_texts", "test_texts")


@dataclass
class ExperimentConfig:
    """The validated document; `mfcc`, `options` and `partition` (None when
    the config has no split) are its typed settings."""

    features: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    split: dict | None = None
    labels: list | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("features", "model"):
            if not isinstance(getattr(self, name) or {}, dict):
                raise ConfigError("%s must be an object" % name)
        self.features = {**_FEATURE_KEYS, **(self.features or {})}
        self.model = {**_MODEL_KEYS, **(self.model or {})}
        unknown = set(self.features) - set(_FEATURE_KEYS)
        if unknown:
            raise ConfigError("unknown feature keys: %s" % sorted(unknown))
        unknown = set(self.model) - set(_MODEL_KEYS)
        if unknown:
            raise ConfigError("unknown model keys: %s" % sorted(unknown))
        if not (type(self.seed) is int and self.seed >= 0):  # a bool is not an int here
            raise ConfigError("seed must be a non-negative integer")
        for key, default in _FEATURE_KEYS.items():  # typed as their defaults
            value = self.features[key]
            if type(default) is int and not (type(value) is int and value > 0):
                raise ConfigError("%s must be a positive integer" % key)
            if type(default) is float and not (type(value) in (int, float)
                                               and math.isfinite(value)):
                raise ConfigError("%s must be a finite number" % key)
        field_of_key = {key: name for name, key in _MODEL_NAMES.items()}
        try:
            self.labels = None if self.labels is None else list(check_labels(self.labels))
            self.mfcc = MfccConfig(**{f.name: self.features[f.name]
                                      for f in fields(MfccConfig)})
            self.mfcc.check_fft_size(self.features["sample_rate_hz"])
            self.options = TrainOptions.from_dict(
                {**{field_of_key.get(k, k): v for k, v in self.model.items()},
                 "seed": self.seed})
            self.partition = self._partition()
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def _partition(self) -> SplitSpec | None:
        if self.split is None:
            return None
        if not isinstance(self.split, dict):
            raise ConfigError("split must be an object with keys %s" % ", ".join(_SPLIT_KEYS))
        missing = [k for k in _SPLIT_KEYS if k not in self.split]
        if missing:
            raise ConfigError("split is missing keys: %s" % missing)
        unknown = set(self.split) - set(_SPLIT_KEYS)
        if unknown:
            raise ConfigError("unknown split keys: %s" % sorted(unknown))
        for key in _SPLIT_KEYS:
            names = self.split[key]
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ConfigError("split key %s must be a list of names" % key)
        return SplitSpec.from_dict(self.split)

    def to_dict(self) -> dict:
        return {
            "features": dict(self.features),
            "model": dict(self.model),
            "split": self.split,
            "labels": self.labels,
            "seed": self.seed,
        }


def load_config(path=None, seed: int | None = None) -> ExperimentConfig:
    """Read the config document, apply a given seed, honor SUPRAHMM_SEED."""
    try:
        doc = {} if path is None else read_json_object(path, dict)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    except ManifestError as exc:  # not JSON or not an object; names the file
        raise ConfigError(str(exc)) from exc
    if seed is not None:
        doc["seed"] = seed
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            doc["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError("%s must be an integer" % SEED_ENV_VAR) from exc
    try:
        unknown = set(doc) - {"features", "model", "split", "labels", "seed"}
        if unknown:
            raise ConfigError("unknown config sections: %s" % sorted(unknown))
        return ExperimentConfig(**doc)
    except ConfigError as exc:
        if path is None:
            raise
        raise ConfigError("%s (config %s)" % (exc, path)) from exc
