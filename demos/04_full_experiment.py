"""The five-command experiment pipeline, end to end.

Drives the command-line interface exactly as a user would:

    1. synth          -> deterministic labeled corpus on disk
    2. train CHMM3    -> acoustic-only bank
    3. train CSPHMM3  -> fused bank
    4. evaluate both  -> accuracy tables + confusion matrices
    5. ttest          -> significance of the accuracy gap

Runs at a reduced scale so the whole script finishes in about a minute;
drop the spec overrides to reproduce the full desk-scale protocol
(8 speakers x 20 texts x 2 replicates).
"""

import json
import os
import sys
import tempfile

from suprahmm.cli import main
from suprahmm.corpus import prosody_synthetic_spec

work = tempfile.mkdtemp(prefix="suprahmm_demo_")
print("working under", work)

spec_file = os.path.join(work, "spec.json")
config_file = os.path.join(work, "config.json")
corpus_dir = os.path.join(work, "corpus")
banks = {kind: os.path.join(work, "bank_" + kind) for kind in ("CHMM3", "CSPHMM3")}
reports = {kind: os.path.join(work, "eval_" + kind) for kind in banks}

# A prosody-heavy recipe keeps the acoustic-only baseline honest.
with open(spec_file, "w") as fh:
    json.dump(prosody_synthetic_spec(seed=123).to_dict(), fh)
with open(config_file, "w") as fh:
    json.dump({"model": {"num_mixtures": 2, "train_iters": [4, 4, 5]},
               "seed": 123}, fh)


def run(argv):
    print("\n$ suprahmm " + " ".join(argv))
    code = main(argv)
    if code != 0:
        sys.exit("command failed with exit code %d" % code)


run(["synth", "--spec-file", spec_file, "--out", corpus_dir])
for kind in ("CHMM3", "CSPHMM3"):
    run(["train", "--corpus", corpus_dir, "--kind", kind,
         "--out", banks[kind], "--config", config_file])
    run(["evaluate", "--bank", banks[kind], "--corpus", corpus_dir,
         "--out", reports[kind], "--config", config_file])
run(["ttest",
     "--report-a", os.path.join(reports["CSPHMM3"], "report.json"),
     "--report-b", os.path.join(reports["CHMM3"], "report.json"),
     "--out", os.path.join(work, "ttest.json")])

print("\nartifacts left under %s:" % work)
for root, _, files in sorted(os.walk(work)):
    for name in sorted(files):
        print("  " + os.path.relpath(os.path.join(root, name), work))
