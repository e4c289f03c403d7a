"""Self-time arithmetic and the wrappers of the traced run."""

from array import array

import pytest

import child
import spans
from guardsim import actors, ace, coap_lite, harness, netsim, seclayer


def _self(tree, leaf=None):
    """tree: list of (start, end, parent); span 0 is the root."""
    start = array("q", [s for s, _, _ in tree])
    end = array("q", [e for _, e, _ in tree])
    parent = array("i", [p for _, _, p in tree])
    leaf_ns = array("q", leaf or [0] * len(tree))
    return list(spans.self_times(start, end, parent, leaf_ns))


def test_self_time_of_nested_spans():
    #  1: [0, 100]
    #  2:   [10, 40]      child of 1
    #  3:     [15, 25]    child of 2
    #  4:   [50, 90]      child of 1
    tree = [(0, 0, -1), (0, 100, 0), (10, 40, 1), (15, 25, 2), (50, 90, 1)]
    assert _self(tree)[1:] == [100 - 30 - 40, 30 - 10, 10, 40]


def test_overlapping_children_are_subtracted_once():
    # Children of 1 overlap each other ([10, 50] and [30, 70]) and one sticks
    # out of the parent ([90, 130] against [0, 100]); they cover
    # [10, 70] + [90, 100] = 70 of the parent.
    tree = [(0, 0, -1), (0, 100, 0), (30, 70, 1), (10, 50, 1), (90, 130, 1)]
    got = _self(tree)
    assert got[1] == 30
    assert got[2:] == [40, 40, 40]


def test_child_inside_sibling_and_out_of_order():
    tree = [(0, 0, -1), (200, 300, 0), (250, 260, 1), (210, 290, 1),
            (0, 100, 0)]
    assert _self(tree)[1:] == [20, 10, 80, 100]


def test_leaf_time_is_subtracted_from_its_parent():
    tree = [(0, 0, -1), (0, 100, 0), (20, 60, 1)]
    assert _self(tree, leaf=[5, 25, 10])[1:] == [100 - 40 - 25, 40 - 10]


def test_wrapper_cost_is_taken_out_of_the_caller():
    # Span 1 (run_until) calls span 2 (transmit) and two leaves; span 2
    # calls one leaf. Each wrapped child costs its caller 3 ns and each
    # leaf 2 ns; the cost moves to unattributed_s.
    rec = spans.Recorder()
    loop = rec.name_id("netsim.World.run_until", "netsim.loop_self_s")
    tx = rec.name_id("netsim.Link.transmit", "netsim.transmit_self_s")
    for s, e, p, nid, leaf, n in [(0, 100, 0, loop, 10, 2),
                                  (20, 50, 1, tx, 4, 1)]:
        rec.start.append(s)
        rec.end.append(e)
        rec.parent.append(p)
        rec.name.append(nid)
        rec.subrun.append(0)
        rec.leaf_ns.append(leaf)
        rec.leaf_n.append(n)
    rec.span_cost_ns, rec.leaf_cost_ns = 3.0, 2.0
    m = child.module_metrics(rec, 200e-9)
    assert m["netsim.loop_self_s"] * 1e9 == pytest.approx(
        100 - 30 - 10 - 3 - 2 * 2)
    assert m["netsim.transmit_self_s"] * 1e9 == pytest.approx(30 - 4 - 2)
    assert m["unattributed_s"] * 1e9 == pytest.approx(200 - 53 - 24)


def test_calibrated_wrapper_costs_are_positive_and_small():
    rec = spans.Recorder()
    rec.calibrate()
    assert 0 < rec.leaf_cost_ns < 20_000
    assert 0 < rec.span_cost_ns < 20_000
    assert len(rec.start) == 1  # the calibration records nothing here


def _short_config(seed=3):
    return harness.config_from_dict({
        "seed": seed,
        "client": {"request_interval_ms": 2000, "setup_pause_ms": 2000},
        "durations": {"setup_ms": 40_000, "warmup_ms": 5_000,
                      "steady_ms": 40_000, "grace_ms": 10_000}})


# One cell per layer the wrappers must see: the exemptions guard under a
# flood, the tunnel under on-path tampering, the edge throttle.
SHORT_CELLS = [("exemptions", "distributed_flood"), ("fullguard", "on_path"),
               ("baseline-throttled", "blind_flood")]


def _short_run():
    cfg = _short_config()
    cells = [harness.run_cell(cfg, s, a, collect_traces=True)
             for s, a in SHORT_CELLS]
    traces = [t.to_jsonl() for c in cells for t in c.pop("_traces")]
    return harness.report_to_json({"cells": cells}), traces


@pytest.fixture
def recorder():
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        yield rec
    finally:
        restore()


def test_every_target_is_bound_where_the_program_calls_it(recorder):
    # Names bound by import in another module must be wrapped there too.
    assert actors.aead_seal is seclayer.aead_seal
    assert ace.fnv1a64 is seclayer.fnv1a64 is harness.fnv1a64
    assert actors.tx_step is coap_lite.tx_step
    assert actors.message_size is coap_lite.message_size
    assert seclayer.serialize_inner is coap_lite.serialize_inner
    for fn in (seclayer.aead_seal, ace.fnv1a64, actors.tx_step,
               actors.serialize_full, harness.energy_report):
        assert fn.__name__ == "wrapper"
    assert actors.GuardNode.receive.__name__ == "wrapper"
    assert actors.ThrottleRouter.forward.__name__ == "wrapper"
    wrapped = set(recorder.names)
    assert {"actors.Node.receive", "actors.RouterNode.receive",
            "actors.GuardNode.receive", "actors.ServerNode.handle",
            "actors.AttackerNode.handle"} <= wrapped


def test_install_undo_restores_the_originals():
    before = (seclayer.fnv1a64, ace.fnv1a64, netsim.Link.transmit,
              actors.GuardNode.receive)
    restore = spans.install(spans.Recorder())
    restore()
    assert (seclayer.fnv1a64, ace.fnv1a64, netsim.Link.transmit,
            actors.GuardNode.receive) == before


def test_wrappers_leave_reports_and_traces_byte_identical():
    plain = _short_run()
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        traced = _short_run()
    finally:
        restore()
    assert traced == plain
    assert len(rec.start) > 1000


def test_module_table_adds_up_to_the_traced_wall(recorder):
    import time
    recorder.calibrate()
    t0 = time.perf_counter()
    _short_run()
    wall = time.perf_counter() - t0
    m = child.module_metrics(recorder, wall)
    selfs = sum(m[g] for g in spans.GROUPS)
    assert selfs + m["unattributed_s"] == pytest.approx(wall)
    assert m["unattributed_s"] >= 0
    for group in spans.GROUPS:
        assert m[group] >= 0, group
    assert m["seclayer.aead_calls"] > 0 and m["guard.decide_calls"] > 0
    assert m["netsim.events"] > 0 and m["actors.attacker_build_self_s"] > 0
