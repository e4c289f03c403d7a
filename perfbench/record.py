"""Record the benchmark's reference data.

    python3 perfbench/record.py digests
    python3 perfbench/record.py baseline

`digests` writes `digests.json`: the SHA-256 of each workload's
`report_to_json` output at each of DIGEST_SEEDS, computed without any
benchmark wrapper, in two worker processes. It refuses to write when a
cell errors. Re-run it only for a change that is meant to alter results,
and say why in that change.

`baseline` runs `run.py` on every workload, end to end once at each of
BASELINE_SEEDS (all with recorded digests) and once traced at seed 42,
each for BENCHMARK.json's `run_seconds`, and writes every value, the
medians, the quartiles and the per-module tables to `baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DIGEST_SEEDS = range(64)
BASELINE_SEEDS = range(40, 50)


def _digest_task(task):
    workload, seed = task
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    from guardsim import harness
    config = harness.config_from_dict(workloads.config_doc(workload, seed))
    report = workloads.run(harness, workload, config)
    errors = [c["error"] for c in report["cells"] if "error" in c]
    return workload, seed, workloads.digest(harness.report_to_json(report)), \
        errors


def record_digests() -> int:
    sys.path.insert(0, HERE)
    from run import WORKLOADS
    tasks = [(w, s) for w in WORKLOADS for s in DIGEST_SEEDS]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        results = pool.map(_digest_task, tasks, chunksize=1)
    failed = [(w, s, e) for w, s, _, e in results if e]
    if failed:
        for w, s, e in failed:
            print(f"{w} seed {s}: {e}", file=sys.stderr)
        return 1
    digests = {w: {} for w in WORKLOADS}
    for w, s, d, _ in results:
        digests[w][str(s)] = d
    doc = {"note": "SHA-256 of report_to_json output per workload and seed, "
                   "recorded at the seed commit; see record.py",
           "digests": digests}
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    """The result line of one run, plus the raw (unscaled) medians that
    the human-readable lines give."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        name, *rest = line.split() or [""]
        if name.startswith("raw_"):
            result["metrics"][name] = {"value": float(rest[0]), "unit": "s"}
    return result


def record_baseline() -> int:
    sys.path.insert(0, HERE)
    from run import WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in BASELINE_SEEDS:
            res = _run(workload, seed, 0, seconds)
            print(workload, seed, json.dumps(res), flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, vs in values.items():
            q1, median, q3 = statistics.quantiles(vs, n=4)
            summary[name] = {"median": statistics.median(vs), "q1": q1,
                             "q3": q3, "spread": (q3 - q1) / median,
                             "values": vs}
        traced = _run(workload, 42, 1, seconds)
        out[workload] = {
            "seeds": [BASELINE_SEEDS[0], BASELINE_SEEDS[-1]],
            "end_to_end": summary,
            "per_module_seed_42": {k: m["value"]
                                   for k, m in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("digests", "baseline"))
    args = ap.parse_args(argv)
    if args.what == "digests":
        return record_digests()
    return record_baseline()


if __name__ == "__main__":
    sys.exit(main())
