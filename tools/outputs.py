"""Print what a guardsim tree produces, one line per report and trace, so
that two trees compare with `diff`. Standard library only:

    PYTHONPATH=src python tools/outputs.py src --seeds 42 7 > here.txt
    python tools/outputs.py /tmp/parent/src --seeds 42 7 > there.txt
    diff there.txt here.txt

The tree to run is the `src` directory given, put first on `sys.path`, so
a second tree unpacked with `git archive` runs its own code. For each
seed and each of the 20 scenario x attack pairs, and then `WIDE_FLOOD`, it
runs `run_cell` at the default config with traces kept and prints the
sha256 of the cell's `report_to_json`. For each of the cell's two sub-runs
it then prints the sha256 of its JSONL trace and its event counts, each
keyed by the event's `kind`, plus `:reason` when the event names one.
`diff --word-diff` (or `git diff --no-index --word-diff`) names the counts
that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from collections import Counter


# One fixed row past the 20 pairs: exemptions x distributed_flood from 2000
# sources at 0.025/s each, the attack of perfbench's `long_flood` at the
# default durations. It is the one row whose guard keeps more per-source
# state than `ThrottlePolicy.SWEEP_FLOOR`, so the only one that sweeps.
WIDE_FLOOD = ("exemptions distributed_flood 2000_sources", "exemptions",
              "distributed_flood",
              {"attacks": {"distributed_sources": 2000,
                           "distributed_rate": 0.025}})


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _counts(trace) -> str:
    counts = Counter()
    for event in trace.events:
        reason = event["detail"].get("reason")
        counts[event["kind"] if reason is None
               else f"{event['kind']}:{reason}"] += 1
    return " ".join(f"{key}={n}" for key, n in sorted(counts.items()))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src directory of a guardsim tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 7])
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from guardsim.harness import (ATTACKS, SCENARIOS, config_from_dict,
                                  report_to_json, run_cell)

    rows = [(f"{scenario} {attack}", scenario, attack, {})
            for scenario in SCENARIOS for attack in ATTACKS]
    rows.append(WIDE_FLOOD)
    for seed in args.seeds:
        for name, scenario, attack, doc in rows:
            cell = run_cell(config_from_dict({"seed": seed, **doc}),
                            scenario, attack, collect_traces=True)
            pair = f"{seed} {name}"
            print(f"{pair} report {_sha(report_to_json(cell))}")
            for subrun, trace in zip(("setup", "steady"), cell["_traces"]):
                print(f"{pair} {subrun} trace {_sha(trace.to_jsonl())} "
                      f"{_counts(trace)}")


if __name__ == "__main__":
    main()
