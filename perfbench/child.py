"""One timed run of a workload, in a fresh single-threaded process.

    python3 perfbench/child.py --root DIR --workload NAME --seed N --mode MODE

MODE is `setup` (import and parse only), `plain` (the timed run) or
`traced` (every entry point in `spans.TARGETS` wrapped, spans written to
`.bench_build/spans/<workload>.spans`). Prints one JSON object. Just
before `guardsim` is imported, `setup` times the set-up task of
`reference.py` and `plain` its run task, which `plain` times again after
the report is rendered. Wall time runs from the config dict in hand to
the rendered report; the trace stays on, as in the shipped code.

No module that `guardsim` imports is loaded before its import is timed
(`json` is imported after it), so that the import time counts all of them.
"""

import argparse
import os
import resource
import sys
import time
from array import array

import reference
import spans
import workloads


def _rusage():
    """Peak RSS in MB and CPU seconds so far, of this process and its
    children. The largest child counts, so that a process pool's workers
    are included; ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    rss_mb = (own.ru_maxrss + kids.ru_maxrss) / 1024.0
    cpu_s = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return rss_mb, cpu_s


def _timed(fn, into: list):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            into.append(time.perf_counter() - t0)
    return wrapper


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "plain", "traced"))
    args = ap.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    doc = workloads.config_doc(args.workload, args.seed)
    setup_reference_s = reference.setup_task() if args.mode == "setup" else 0
    run_reference_s = reference.run_task() if args.mode == "plain" else 0

    t0 = time.perf_counter()
    import guardsim
    from guardsim import harness
    t1 = time.perf_counter()
    import json
    if not os.path.abspath(guardsim.__file__).startswith(src + os.sep):
        raise SystemExit(f"guardsim imported from {guardsim.__file__}, "
                         f"not from {src}")
    out = {"import_s": t1 - t0}
    if args.mode == "setup":
        t2 = time.perf_counter()
        harness.config_from_dict(doc)
        out.update(parse_s=time.perf_counter() - t2,
                   setup_reference_s=setup_reference_s)
        print(json.dumps(out))
        return 0

    build_s: list[float] = []
    subrun_s: list[float] = []
    rec = None
    if args.mode == "plain":
        harness.build_world = _timed(harness.build_world, build_s)
        harness.run_subrun = _timed(harness.run_subrun, subrun_s)
    else:
        rec = spans.Recorder()
        rec.calibrate()
        spans.install(rec)
        harness.run_subrun = _subrun_marker(rec, harness.run_subrun)

    _, cpu0 = _rusage()
    t2 = time.perf_counter()
    config = harness.config_from_dict(doc)
    t3 = time.perf_counter()
    report = workloads.run(harness, args.workload, config)
    text = harness.report_to_json(report)
    t4 = time.perf_counter()

    rss_mb, cpu1 = _rusage()
    out.update(parse_s=t3 - t2, wall_s=t4 - t2, rss_mb=rss_mb,
               cpu_s=cpu1 - cpu0,
               digest=workloads.digest(text), cells=len(report["cells"]),
               errors=[c["error"] for c in report["cells"] if "error" in c])
    if rec is None:
        out.update(build_world_s=sum(build_s), subrun_max_s=max(subrun_s),
                   run_reference_s=(run_reference_s + reference.run_task()) / 2)
    else:
        out["metrics"] = module_metrics(rec, t4 - t2)
        write_spans(rec, os.path.join(args.root, ".bench_build", "spans",
                                      f"{args.workload}.spans"))
    print(json.dumps(out))
    return 0


def _subrun_marker(rec, run_subrun):
    """Number sub-runs for the spans and read each world's end state."""

    def wrapper(*args, **kwargs):
        rec.subrun_id += 1
        result = run_subrun(*args, **kwargs)
        world = result.handles.world
        links = [link for node in world.nodes.values()
                 for link in node.links.values()]
        rec.subrun_stats.append({
            "sent": sum(link.n_sent for link in links),
            "dropped": sum(link.n_dropped for link in links),
            "trace_events": len(world.trace.events),
            "flows": max([len(n.gstate.flows) for n in world.nodes.values()
                          if hasattr(n, "gstate")], default=0),
            "sessions": len(result.handles.server.sessions),
        })
        return result

    return wrapper


def module_metrics(rec, wall_s: float) -> dict:
    """The per-module table of one traced run.

    Each span's self time loses the calibrated wrapper cost of its wrapped
    children and leaf calls (`Recorder.calibrate`); that cost, like time
    outside any span, is left in `unattributed_s`.
    """
    self_ns = spans.self_times(rec.start, rec.end, rec.parent, rec.leaf_ns)
    n_names = len(rec.names)
    calls = [0] * n_names
    own_ns = [0.0] * n_names
    for i in range(1, len(self_ns)):
        nid = rec.name[i]
        calls[nid] += 1
        own_ns[nid] += self_ns[i] - rec.leaf_cost_ns * rec.leaf_n[i]
        p = rec.parent[i]
        if p > 0:
            own_ns[rec.name[p]] -= rec.span_cost_ns
    for nid in range(n_names):
        calls[nid] += rec.leaf_calls[nid]
        own_ns[nid] += rec.leaf_total_ns[nid]

    def by(prefix, column):
        return sum(column[i] for i, name in enumerate(rec.names)
                   if name.startswith(prefix))

    def outcome(prefix, value):
        return sum(n for (nid, v), n in rec.outcomes.items()
                   if v == value and rec.names[nid].startswith(prefix))

    m = {group: 0.0 for group in spans.GROUPS}
    for nid, group in enumerate(rec.groups):
        m[group] += own_ns[nid] / 1e9
    m["unattributed_s"] = wall_s - sum(m[g] for g in spans.GROUPS)
    m["harness.traced_wall_s"] = wall_s
    stats = rec.subrun_stats
    decisions = by("guard.GuardState.decide", calls)
    sent = sum(s["sent"] for s in stats)
    m.update({
        "netsim.events": by("netsim.EventQueue.pop", calls),
        "netsim.transmit_calls": by("netsim.Link.transmit", calls),
        "netsim.drop_ratio": (sum(s["dropped"] for s in stats) / sent
                              if sent else 0.0),
        "netsim.trace_events": sum(s["trace_events"] for s in stats),
        "coap_lite.retransmits": outcome("coap_lite.tx_step", "retransmit"),
        "coap_lite.giveups": outcome("coap_lite.tx_step", "give_up"),
        "seclayer.fnv_calls": by("seclayer.fnv1a64", calls),
        "seclayer.fnv_bytes": by("seclayer.fnv1a64", rec.nbytes),
        "seclayer.aead_calls": by("seclayer.aead_", calls),
        "seclayer.aead_bytes": by("seclayer.aead_", rec.nbytes),
        "seclayer.derive_key_calls": by("seclayer.derive_key", calls),
        "seclayer.auth_failures": by("seclayer.aead_open", rec.raised),
        "ace.calls": by("ace.", calls),
        "guard.decide_calls": decisions,
        "guard.forward_ratio": (outcome("guard.GuardState.decide", "forward")
                                / decisions if decisions else 0.0),
        "guard.flows_max": max((s["flows"] for s in stats), default=0),
        "actors.server_sessions_max": max((s["sessions"] for s in stats),
                                          default=0),
    })
    return m


def write_spans(rec, path: str) -> None:
    """Write the spans as a JSON header line followed by the raw columns."""
    import json
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    columns = ("start", "end", "parent", "name", "subrun", "leaf_ns", "leaf_n")
    header = {"names": rec.names, "groups": rec.groups, "spans": len(rec.start),
              "columns": [[c, getattr(rec, c).typecode] for c in columns],
              "leaf_calls": rec.leaf_calls, "leaf_total_ns": rec.leaf_total_ns,
              "span_cost_ns": rec.span_cost_ns,
              "leaf_cost_ns": rec.leaf_cost_ns}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for c in columns:
            column: array = getattr(rec, c)
            column.tofile(fh)


if __name__ == "__main__":
    sys.exit(main())
