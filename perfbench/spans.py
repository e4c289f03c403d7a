"""Spans around the simulator's public entry points, for the traced run.

`install` wraps every target in `TARGETS` at each place it is bound: the
module attribute in every `guardsim` module that imported it by name, and
the method in every class that defines it. Nothing in `src/` changes.

Each wrapped call records a span: name, start, end, parent span and
sub-run id, kept in memory in flat arrays. The three hottest leaves
(`fnv1a64`, `Rng.next_u64`, `Trace.emit`) call nothing that is wrapped, so
instead of a span each call adds its duration to its parent span's
`leaf_ns` and to per-name totals; self time comes out the same.

A span's self time is its duration minus the part of it covered by its
child spans and leaves (`self_times`). A wrapper's own bookkeeping around
a call (packing the arguments, reading the clock, appending to the arrays)
falls outside the child's interval and so lands in its caller's self time;
`Recorder.calibrate` measures that cost per wrapped child and per leaf,
and `child.module_metrics` takes it back out of each caller.
"""

import sys
import time
from array import array
from collections import Counter

PACKAGE = "guardsim"
SPAN, LEAF = "span", "leaf"

# (target, group, kind). A target is "module.function" or
# "module.Class.method"; a method target also wraps every override in a
# subclass. Each group is one per-module self-time metric.
TARGETS = [
    ("netsim.World.run_until", "netsim.loop_self_s", SPAN),
    ("netsim.EventQueue.schedule", "netsim.queue_self_s", SPAN),
    ("netsim.EventQueue.pop", "netsim.queue_self_s", SPAN),
    ("netsim.Link.transmit", "netsim.transmit_self_s", SPAN),
    ("netsim.Link.queue_len", "netsim.transmit_self_s", SPAN),
    ("netsim.Trace.emit", "netsim.emit_self_s", LEAF),
    ("netsim.World.emit", "netsim.emit_self_s", SPAN),
    ("netsim.Rng.next_u64", "netsim.rng_self_s", LEAF),
    ("netsim.Rng.random", "netsim.rng_self_s", SPAN),
    ("netsim.Rng.randrange", "netsim.rng_self_s", SPAN),
    ("netsim.Rng.bytes", "netsim.rng_self_s", SPAN),
    ("netsim.Rng.fork", "netsim.rng_self_s", SPAN),
    ("coap_lite.message_size", "coap_lite.message_size_self_s", SPAN),
    ("coap_lite.SimMessage.copy", "coap_lite.copy_self_s", SPAN),
    ("coap_lite.serialize_inner", "coap_lite.inner_codec_self_s", SPAN),
    ("coap_lite.deserialize_inner", "coap_lite.inner_codec_self_s", SPAN),
    ("coap_lite.tx_step", "coap_lite.tx_step_self_s", SPAN),
    ("seclayer.fnv1a64", "seclayer.fnv_self_s", LEAF),
    ("seclayer.aead_seal", "seclayer.aead_self_s", SPAN),
    ("seclayer.aead_open", "seclayer.aead_self_s", SPAN),
    ("seclayer.derive_key", "seclayer.derive_key_self_s", SPAN),
    ("seclayer.oscore_protect", "seclayer.oscore_self_s", SPAN),
    ("seclayer.oscore_unprotect", "seclayer.oscore_self_s", SPAN),
    ("ace.issue_token", "ace.self_s", SPAN),
    ("ace.verify_token", "ace.self_s", SPAN),
    ("ace.unseal_bound_key", "ace.self_s", SPAN),
    ("guard.GuardState.decide", "guard.decide_self_s", SPAN),
    ("guard.ThrottlePolicy.admit", "guard.admit_self_s", SPAN),
    ("actors.AttackerNode._build_message", "actors.attacker_build_self_s", SPAN),
    ("actors.Node.route_to", "actors.route_self_s", SPAN),
    ("actors.Node.send_frame", "actors.send_self_s", SPAN),
    ("actors.Node.send_via", "actors.send_self_s", SPAN),
    ("actors.Node.forward", "actors.send_self_s", SPAN),
    ("actors.Node.receive", "actors.receive_self_s", SPAN),
    ("actors.Node.handle", "actors.receive_self_s", SPAN),
    ("actors.serialize_full", "actors.tunnel_codec_self_s", SPAN),
    ("actors.deserialize_full", "actors.tunnel_codec_self_s", SPAN),
    ("harness.build_world", "harness.build_world_self_s", SPAN),
    ("harness.phase_stats", "harness.phase_stats_s", SPAN),
    ("harness.energy_report", "harness.energy_report_s", SPAN),
    ("harness.report_to_json", "harness.report_json_s", SPAN),
]

GROUPS = list(dict.fromkeys(group for _, group, _ in TARGETS))

# Calls of a no-op per calibration batch, and batches per kind of call
# (odd, so that the median is one of them).
CALIBRATION_CALLS = 20_000
CALIBRATION_BATCHES = 5


def _nbytes_first(args, kwargs):
    return len(args[0])


def _nbytes_fourth(args, kwargs):
    return len(args[3])


# Bytes counted per call, by target: the hashed input, the AEAD plaintext
# or sealed input.
NBYTES = {
    "seclayer.fnv1a64": _nbytes_first,
    "seclayer.aead_seal": _nbytes_fourth,
    "seclayer.aead_open": _nbytes_fourth,
}


def _action(result):
    return result[0]


def _itself(result):
    return result


# Outcomes counted per call, by target: the `tx_step` action and the
# guard's decision.
OUTCOME = {
    "coap_lite.tx_step": _itself,
    "guard.GuardState.decide": _action,
}


class Recorder:
    """Spans and counters of one traced run, in flat arrays.

    Span 0 is the root: it stands for "no wrapped call active" and takes
    the leaf time spent outside any span. It is not a span of its own.
    """

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.start = array("q", [0])
        self.end = array("q", [0])
        self.parent = array("i", [-1])
        self.name = array("h", [-1])
        self.subrun = array("i", [0])
        self.leaf_ns = array("q", [0])
        self.leaf_n = array("i", [0])
        self.current = 0
        self.subrun_id = 0
        self.leaf_calls: list[int] = []
        self.leaf_total_ns: list[int] = []
        self.nbytes: list[int] = []
        self.raised: list[int] = []
        self.outcomes: Counter = Counter()
        self.subrun_stats: list[dict] = []
        # What one wrapped child span and one wrapped leaf call add to the
        # caller's self time; see `calibrate`.
        self.span_cost_ns = 0.0
        self.leaf_cost_ns = 0.0

    def name_id(self, name: str, group: str) -> int:
        self.names.append(name)
        self.groups.append(group)
        for column in (self.leaf_calls, self.leaf_total_ns, self.nbytes,
                       self.raised):
            column.append(0)
        return len(self.names) - 1

    def span_wrapper(self, fn, nid: int, nbytes=None, outcome=None):
        start, end, parent, name = self.start, self.end, self.parent, self.name
        subrun, leaf_ns, raised = self.subrun, self.leaf_ns, self.raised
        leaf_n = self.leaf_n
        counts, outcomes = self.nbytes, self.outcomes
        clock = time.perf_counter_ns
        rec = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            up = rec.current
            parent.append(up)
            name.append(nid)
            subrun.append(rec.subrun_id)
            leaf_ns.append(0)
            leaf_n.append(0)
            start.append(0)
            end.append(0)
            rec.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[nid] += 1
                raise
            finally:
                t1 = clock()
                rec.current = up
                start[idx] = t0
                end[idx] = t1
            if nbytes is not None:
                counts[nid] += nbytes(args, kwargs)
            if outcome is not None:
                outcomes[nid, outcome(result)] += 1
            return result

        return wrapper

    def leaf_wrapper(self, fn, nid: int, nbytes=None):
        leaf_ns, calls, total, counts = (self.leaf_ns, self.leaf_calls,
                                         self.leaf_total_ns, self.nbytes)
        leaf_n = self.leaf_n
        clock = time.perf_counter_ns
        rec = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            leaf_ns[rec.current] += dt
            leaf_n[rec.current] += 1
            calls[nid] += 1
            total[nid] += dt
            if nbytes is not None:
                counts[nid] += nbytes(args, kwargs)
            return result

        return wrapper

    def calibrate(self) -> None:
        """Set `span_cost_ns` and `leaf_cost_ns`: how much more self time
        a caller shows per wrapped child span, and per wrapped leaf call,
        than per plain call of the same function.

        A scratch recorder times batches of CALIBRATION_CALLS calls of a
        no-op, plain, as a span and as a leaf, inside a wrapped caller; each
        cost is the median over CALIBRATION_BATCHES batches of the caller's
        extra self time per call. Real calls pass arguments, which costs
        the wrapper a little more, so the correction errs low.
        """
        scratch = Recorder()
        caller = scratch.name_id("caller", "")

        def noop():
            return None

        def batch(fn):
            for _ in range(CALIBRATION_CALLS):
                fn()

        kinds = (noop, scratch.span_wrapper(noop, scratch.name_id("span", "")),
                 scratch.leaf_wrapper(noop, scratch.name_id("leaf", "")))
        run = scratch.span_wrapper(batch, caller)
        for _ in range(CALIBRATION_BATCHES):
            for fn in kinds:
                run(fn)
        own = self_times(scratch.start, scratch.end, scratch.parent,
                         scratch.leaf_ns)
        callers = [own[i] for i in range(len(own))
                   if scratch.name[i] == caller]
        plain, span, leaf = (callers[k::3] for k in range(3))

        def cost(wrapped):
            extra = sorted((w - p) / CALIBRATION_CALLS
                           for w, p in zip(wrapped, plain))
            return max(0.0, extra[len(extra) // 2])

        self.span_cost_ns, self.leaf_cost_ns = cost(span), cost(leaf)


def install(rec: Recorder):
    """Wrap every target in TARGETS at every binding site; returns an undo
    function."""

    def factory(target, group, kind):
        def make(original, name):
            nid = rec.name_id(name, group)
            if kind == LEAF:
                return rec.leaf_wrapper(original, nid, NBYTES.get(target))
            return rec.span_wrapper(original, nid, NBYTES.get(target),
                                    OUTCOME.get(target))
        return make

    undo = []
    for target, group, kind in TARGETS:
        undo += wrap(target, factory(target, group, kind))
    return lambda: unwrap(undo)


def wrap(target: str, make) -> list:
    """Replace `target` by `make(original, site_name)` wherever it is bound.

    A function is replaced in every `guardsim` module that holds it; a
    method in its class and in every subclass that overrides it, each
    override getting its own wrapper. Returns the undo list for `unwrap`.
    """
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]
    mod_name, *path = target.split(".")
    module = sys.modules[f"{PACKAGE}.{mod_name}"]
    undo = []
    if len(path) == 1:
        original = getattr(module, path[0])
        wrapper = make(original, target)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is original:
                    undo.append((m, key, value))
                    setattr(m, key, wrapper)
        return undo
    base, attr = getattr(module, path[0]), path[1]
    classes = {id(v): v for m in mods for v in vars(m).values()
               if isinstance(v, type) and issubclass(v, base)}
    for cls in classes.values():
        if attr in cls.__dict__:
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr,
                    make(original, f"{mod_name}.{cls.__name__}.{attr}"))
    if not undo:
        raise LookupError(f"no binding site for {target}")
    return undo


def unwrap(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(start, end, parent, leaf_ns) -> array:
    """Self time of every span: its duration minus the union of its
    children's intervals (clipped to it) minus its leaf time.

    Children may overlap one another or stick out of their parent; each
    instant of the parent is subtracted at most once. Spans need not be
    in start order.
    """
    n = len(start)
    in_order = all(start[i] <= start[i + 1] for i in range(n - 1))
    order = range(n) if in_order else sorted(range(n), key=start.__getitem__)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)
    for c in order:
        p = parent[c]
        if p < 0:
            continue
        s = max(start[c], reach[p])
        e = min(end[c], end[p])
        if e > s:
            covered[p] += e - s
            reach[p] = e
    return array("q", (end[i] - start[i] - covered[i] - leaf_ns[i]
                       for i in range(n)))
