"""guardsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S [--trace 0|1]

NAME is one of `matrix`, `tunnel`, `long_flood`, or `all` (each workload
end to end and then traced, one after the other, ignoring `--trace`). Run
from anywhere; the simulator is imported from the `src/` next to this
directory. S is the measuring time; BENCHMARK.json gives it as
`run_seconds`.

Every run of a workload is a fresh single-threaded Python process
(`child.py`); runs never overlap. `--trace 0` prints the end-to-end
metrics: the median over as many timed runs as fit in S seconds (at least
three), after a warm-up that writes the bytecode cache. `--trace 1` makes
one untraced and one traced run and prints the per-module table. Each
workload must finish within DEADLINE_S.

The outputs are checked before any metric counts. Every report must be
byte-identical across runs, between the traced and the untraced run, and
to the SHA-256 recorded in `digests.json` for the seed, when one is
recorded; no cell may error. On a failed check the result line says
`"correct": false` and the exit code is 1. Any other failure exits with
code 2 and prints no result.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

import spans  # noqa: E402  (next to this file)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

WORKLOADS = ("matrix", "tunnel", "long_flood")

# name -> unit. Every one lower-is-better.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit; see README.md for what each should move.
PER_LAYER = {
    "netsim.events": "count",
    "netsim.events_per_s": "1/s",
    "netsim.loop_self_s": "s",
    "netsim.queue_self_s": "s",
    "netsim.transmit_calls": "count",
    "netsim.transmit_self_s": "s",
    "netsim.drop_ratio": "ratio",
    "netsim.trace_events": "count",
    "netsim.emit_self_s": "s",
    "netsim.rng_self_s": "s",
    "coap_lite.message_size_self_s": "s",
    "coap_lite.copy_self_s": "s",
    "coap_lite.inner_codec_self_s": "s",
    "coap_lite.tx_step_self_s": "s",
    "coap_lite.retransmits": "count",
    "coap_lite.giveups": "count",
    "seclayer.fnv_calls": "count",
    "seclayer.fnv_bytes": "bytes",
    "seclayer.fnv_self_s": "s",
    "seclayer.aead_calls": "count",
    "seclayer.aead_bytes": "bytes",
    "seclayer.aead_self_s": "s",
    "seclayer.derive_key_calls": "count",
    "seclayer.derive_key_self_s": "s",
    "seclayer.oscore_self_s": "s",
    "seclayer.auth_failures": "count",
    "ace.calls": "count",
    "ace.self_s": "s",
    "guard.decide_calls": "count",
    "guard.decide_self_s": "s",
    "guard.admit_self_s": "s",
    "guard.forward_ratio": "ratio",
    "guard.flows_max": "count",
    "actors.attacker_build_self_s": "s",
    "actors.route_self_s": "s",
    "actors.send_self_s": "s",
    "actors.receive_self_s": "s",
    "actors.tunnel_codec_self_s": "s",
    "actors.server_sessions_max": "count",
    "harness.build_world_s": "s",
    "harness.build_world_self_s": "s",
    "harness.energy_report_s": "s",
    "harness.phase_stats_s": "s",
    "harness.report_json_s": "s",
    "harness.subrun_max_s": "s",
    "harness.cpu_s": "s",
    "harness.trace_overhead": "ratio",
    "harness.traced_wall_s": "s",
    "unattributed_s": "s",
}

MIN_RUNS = 3
SETUP_RUNS = 3  # set-up-only processes after each timed run
# Each workload must end within DEADLINE_S, so that a command on one
# workload ends within 180 s; `all` gets DEADLINE_S per workload.
DEADLINE_S = 170.0
# Typical times of the reference tasks (reference.py) on the test machine;
# end-to-end times are reported as if the host ran them in these.
RUN_REFERENCE_S = 0.25
SETUP_REFERENCE_S = 0.009
# Traced-run self times may exceed the traced wall by clock granularity.
ADD_UP_TOLERANCE_S = 1e-3


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    def __init__(self, seed: int):
        self.seed = seed
        self.restart_clock()
        try:
            with open(os.path.join(HERE, "digests.json")) as fh:
                self.recorded = json.load(fh)["digests"]
        except (OSError, ValueError, KeyError) as e:
            raise BenchError(f"cannot read recorded digests: {e}") from e

    def restart_clock(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, workload: str, mode: str) -> dict:
        cmd = [sys.executable, "-X",
               f"pycache_prefix={os.path.join(BUILD, 'pycache')}",
               os.path.join(HERE, "child.py"), "--root", ROOT,
               "--workload", workload, "--seed", str(self.seed),
               "--mode", mode]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        # Set-up time is measured with the bytecode cache written by the
        # warm-up run, whatever the caller's environment says.
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONDONTWRITEBYTECODE"}
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{workload} {mode} run timed out") from e
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} run failed "
                             f"({proc.returncode}):\n{proc.stderr[-3000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def problems(self, workload: str, runs: list[dict],
                 layer: dict | None = None) -> list[str]:
        """Every failed check over the runs of one workload and, when
        given, its per-module table."""
        found = [f"{workload}: cell error: {e}"
                 for r in runs for e in r["errors"]]
        if layer and layer["unattributed_s"] < -ADD_UP_TOLERANCE_S:
            found.append(f"{workload}: self times exceed the traced wall")
        digests = {r["digest"] for r in runs}
        if len(digests) > 1:
            found.append(f"{workload}: reports differ between runs "
                         f"(traced and untraced included): {sorted(digests)}")
        want = self.recorded.get(workload, {}).get(str(self.seed))
        if want is not None and digests != {want}:
            found.append(f"{workload}: report digest {sorted(digests)} is "
                         f"not the recorded {want}")
        return found

    def end_to_end(self, workload: str, seconds: float):
        """Timed runs until the next would end after `seconds`, counting
        the warm-up and the set-up-only runs spread between them, so that
        every median spans the whole measuring time.

        Times are given at reference host speed (see reference.py): a
        timed run is scaled by RUN_REFERENCE_S over the run task's mean
        time just before and after it, and import plus parse time by
        SETUP_REFERENCE_S over the set-up task timed just before the import.
        Import time is taken from the set-up-only processes: a timed run's
        own import follows the run task, which warms the host up.
        """
        t0 = time.monotonic()
        self.child(workload, "setup")  # writes the bytecode cache
        runs, setup = [], []
        while True:
            runs.append(self.child(workload, "plain"))
            setup += [self.child(workload, "setup")
                      for _ in range(SETUP_RUNS)]
            elapsed = time.monotonic() - t0
            if (len(runs) >= MIN_RUNS
                    and elapsed * (len(runs) + 1) / len(runs) > seconds):
                break
        scale = [RUN_REFERENCE_S / r["run_reference_s"] for r in runs]
        import_s = statistics.median(
            (r["import_s"] + r["parse_s"]) * SETUP_REFERENCE_S
            / r["setup_reference_s"] for r in setup)
        values = {
            "wall_s": [r["wall_s"] * k for r, k in zip(runs, scale)],
            # The world is built once per sub-run, inside the timed run.
            "setup_s": [import_s + r["build_world_s"] * k
                        for r, k in zip(runs, scale)],
            "peak_rss_mb": [r["rss_mb"] for r in runs],
            "raw_wall_s": [r["wall_s"] for r in runs],
            "raw_import_s": [r["import_s"] + r["parse_s"] for r in setup],
        }
        return runs, {m: statistics.median(values[m]) for m in END_TO_END}, \
            values

    def per_layer(self, workload: str):
        self.child(workload, "setup")  # writes the bytecode cache
        plain = self.child(workload, "plain")
        traced = self.child(workload, "traced")
        m = dict(traced["metrics"])
        m.update({
            "netsim.events_per_s": m["netsim.events"] / plain["wall_s"],
            "harness.build_world_s": plain["build_world_s"],
            "harness.subrun_max_s": plain["subrun_max_s"],
            "harness.cpu_s": plain["cpu_s"],
            "harness.trace_overhead": traced["wall_s"] / plain["wall_s"],
        })
        return [plain, traced], {k: m[k] for k in PER_LAYER}


def result_line(correct: bool, runs: list[dict], metrics: dict,
                units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": sum(r["cells"] for r in runs),
        "failed": sum(len(r["errors"]) for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


def _quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def show_end_to_end(workload, runs, medians, values) -> None:
    print(f"== {workload}: end to end ({len(runs)} timed runs; times at "
          f"reference host speed) ==")
    units = {**END_TO_END, "raw_wall_s": "s", "raw_import_s": "s"}
    for name, unit in units.items():
        q1, q3 = _quartiles(values[name])
        print(f"  {name:<14} {statistics.median(values[name]):>12.6g} "
              f"{unit:<4} (q1 {q1:.6g}, q3 {q3:.6g})")
    cells = sum(r["cells"] for r in runs)
    failed = sum(len(r["errors"]) for r in runs)
    print(f"  {'error_frac':<14} {failed / cells:>12.6g} ratio "
          f"({failed} of {cells} cells)")


def show_per_layer(workload, metrics) -> None:
    print(f"== {workload}: per module (traced run) ==")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    selfs = sum(metrics[k] for k in spans.GROUPS) + metrics["unattributed_s"]
    print(f"  self times + unattributed_s = {selfs:.6f} s; "
          f"traced wall = {metrics['harness.traced_wall_s']:.6f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time (run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "guardsim",
                                       "__init__.py")):
        print(f"no simulator source under {ROOT}/src", file=sys.stderr)
        return 2
    every = args.workload == "all"
    # With `all`, each workload end to end and then traced, and metrics
    # named `<workload>/<metric>`.
    names = WORKLOADS if every else (args.workload,)
    traces = (0, 1) if every else (args.trace,)
    all_runs, metrics, units, problems = [], {}, {}, []
    try:
        runner = Runner(args.seed)
        for workload in names:
            runner.restart_clock()
            runs, layer = [], None
            for trace in traces:
                if trace:
                    got, layer = runner.per_layer(workload)
                    show_per_layer(workload, layer)
                    found, kinds = layer, PER_LAYER
                else:
                    got, found, values = runner.end_to_end(workload,
                                                           args.seconds)
                    show_end_to_end(workload, got, found, values)
                    kinds = END_TO_END
                runs += got
                for name, value in found.items():
                    key = f"{workload}/{name}" if every else name
                    metrics[key], units[key] = value, kinds[name]
            problems += runner.problems(workload, runs, layer)
            all_runs += runs
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(result_line(not problems, all_runs, metrics, units))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
