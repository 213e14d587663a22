"""Fold paired perfbench runs of a parent commit and a change into BENCH_<n>.json.

    python3 tools/bench_record.py PARENT_DIR CHANGE_DIR --pr N \
        --tier1-parent 43.0 44.1 --tier1-change 27.8 28.0

PARENT_DIR and CHANGE_DIR hold the result documents that
`perfbench/run.py` writes to `perfbench/out/` (`<workload>-s<seed>-trace<t>.json`),
one directory per side.  A run of one side pairs with the run of the
other side that has the same workload, seed and trace setting; runs
without a partner are left out.  For every workload and metric the record
gives each side's median and quartiles (`statistics.quantiles`, n=4) over
the paired runs, and how many pairs the change won (ties count for
neither side).  It also records the pair counts, both sides' provenance
(machine, versions, commit), the `src/suprahmm` line counts, failed
operations and the tier-1 wall times given on the command line.  The
record is written to BENCH_<n>.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_NAME = re.compile(r"^(?P<workload>\w+)-s(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load_runs(directory) -> dict:
    """{(workload, seed, trace): result document} for every run file in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        match = RUN_NAME.match(name)
        if match:
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                key = (match["workload"], int(match["seed"]), int(match["trace"]))
                runs[key] = json.load(fh)
    return runs


def summary(values) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def metric_directions() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}


def build_record(parent: dict, change: dict, pr: int, tier1_parent, tier1_change) -> dict:
    better = metric_directions()
    keys = sorted(set(parent) & set(change))
    if not keys:
        raise ValueError("no run appears on both sides")
    metrics: dict = {}
    pairs: dict = {}
    for workload, seed, trace in keys:
        pairs[workload] = pairs.get(workload, 0) + (trace == 0)
        sides = (parent[workload, seed, trace]["result"], change[workload, seed, trace]["result"])
        for name, before in sides[0]["metrics"].items():
            after = sides[1]["metrics"].get(name)
            if after is None:
                continue
            entry = metrics.setdefault(workload, {}).setdefault(
                name, {"unit": before["unit"], "better": better.get(name),
                       "parent": [], "change": [], "change_wins": 0})
            entry["parent"].append(before["value"])
            entry["change"].append(after["value"])
            sign = {"lower": -1, "higher": 1}.get(entry["better"], 0)
            if sign * (after["value"] - before["value"]) > 0:
                entry["change_wins"] += 1
    for by_name in metrics.values():
        for entry in by_name.values():
            entry["pairs"] = len(entry["parent"])
            entry["parent"] = summary(entry["parent"])
            entry["change"] = summary(entry["change"])

    def side(runs):
        chosen = [runs[k] for k in keys]
        prov = dict(chosen[-1]["provenance"])
        return {
            "provenance": prov,
            "src_suprahmm_lines": prov.pop("src_suprahmm_lines"),
            "attempted": sum(r["result"]["attempted"] for r in chosen),
            "failed": sum(r["result"]["failed"] for r in chosen),
            "all_correct": all(r["result"]["correct"] for r in chosen),
        }

    return {
        "pr": pr,
        "pairs": pairs,
        "traced_pairs": sum(1 for k in keys if k[2] == 1),
        "parent": {**side(parent), "tier1_wall_s": tier1_parent},
        "change": {**side(change), "tier1_wall_s": tier1_change},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--tier1-parent", type=float, nargs="+", required=True,
                        help="tier-1 wall times of the parent, in seconds")
    parser.add_argument("--tier1-change", type=float, nargs="+", required=True,
                        help="tier-1 wall times of the change, in seconds")
    args = parser.parse_args(argv)
    try:
        record = build_record(load_runs(args.parent_dir), load_runs(args.change_dir),
                              args.pr, args.tier1_parent, args.tier1_change)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    out = os.path.join(ROOT, "BENCH_%d.json" % args.pr)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s: %s" % (out, ", ".join("%s %d pairs" % kv for kv in record["pairs"].items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
