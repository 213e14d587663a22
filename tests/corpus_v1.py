"""Writer of the version-1 synthetic corpus layout, for loader tests.

Version 1 is one `.feat` file per utterance plus a `corpus.json` that holds
every utterance's prosody tracks as JSON numbers.  `load_synthetic_corpus`
still reads it; `save_synthetic_corpus` now writes version 2.
"""

import json
import os

from suprahmm.corpus import CORPUS_SIDECAR, feature_fingerprint
from suprahmm.features import save_features


def write_v1_corpus(corpus, out_dir, provenance=None):
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for utt in corpus.utterances:
        feat_name = utt.record.id + ".feat"
        save_features(os.path.join(out_dir, feat_name), utt.features)
        entries.append(
            {
                "id": utt.record.id,
                "features": feat_name,
                "speaker": utt.record.speaker,
                "emotion": utt.record.emotion,
                "text": utt.record.text,
                "replicate": utt.record.replicate,
                "prosody": {
                    "f0_hz": utt.prosody.f0_hz.tolist(),
                    "voiced": utt.prosody.voiced.astype(int).tolist(),
                    "log_energy": utt.prosody.log_energy.tolist(),
                },
            }
        )
    sidecar = {
        "format": "synthetic-corpus",
        "version": 1,
        "seed": corpus.spec.seed,
        "spec": corpus.spec.to_dict(),
        "fingerprint": feature_fingerprint(corpus.utterances),
        "utterances": entries,
    }
    if provenance is not None:
        sidecar["provenance"] = provenance
    with open(os.path.join(out_dir, CORPUS_SIDECAR), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True)
