"""Micro-benchmarks of single entry points, with pytest-benchmark.

    python3 -m pytest perfbench/micro -q

Diagnostics only: they are not end-to-end metrics and the repository's
tier-1 suite does not collect them (its testpaths is `tests`). Their
inputs are captured from short runs of the workloads' cells: the
`long_flood` cell for the event queue, links, routing, the guard and the
attacker, and a `tunnel` cell for the AEAD and the serializers.
"""

from __future__ import annotations

import pytest

import spans
import workloads
from guardsim import harness
from guardsim.actors import serialize_full
from guardsim.coap_lite import serialize_inner
from guardsim.guard import GuardState
from guardsim.netsim import EventQueue, Link, Rng, SimClock, World
from guardsim.seclayer import aead_open, aead_seal

LIMIT = 3000  # calls captured per target
SHORT = {"setup_ms": 60_000, "steady_ms": 60_000}


def _capture(workload: str, scenario: str, attack: str, targets) -> dict:
    """Run one shortened cell of `workload`; return the first LIMIT calls
    of each target as (args, kwargs, simulated time)."""
    seen = {t: [] for t in targets}

    def recorder(target):
        def make(original, name):
            calls = seen[target]

            def wrapper(*args, **kwargs):
                if len(calls) < LIMIT:
                    owner = args[0]
                    clock = getattr(owner, "clock", None) or getattr(
                        getattr(owner, "world", None), "clock", None)
                    now = clock.now if clock is not None else None
                    calls.append((args, kwargs, now))
                return original(*args, **kwargs)
            return wrapper
        return make

    doc = workloads.config_doc(workload, 42)
    doc["durations"] = SHORT
    undo = []
    try:
        for t in targets:
            undo += spans.wrap(t, recorder(t))
        harness.run_cell(harness.config_from_dict(doc), scenario, attack)
    finally:
        spans.unwrap(undo)
    return seen


@pytest.fixture(scope="module")
def flood():
    return _capture("long_flood", "exemptions", "distributed_flood", [
        "netsim.EventQueue.schedule", "netsim.Link.transmit",
        "actors.Node.route_to", "guard.GuardState.decide",
        "actors.AttackerNode._build_message"])


@pytest.fixture(scope="module")
def tunnel():
    return _capture("tunnel", "fullguard", "none", [
        "seclayer.aead_seal", "actors.serialize_full",
        "coap_lite.serialize_inner"])


def test_event_queue_push_pop(benchmark, flood):
    delays = [at - now
              for (_, at, _), _, now in flood["netsim.EventQueue.schedule"]]

    def push_pop():
        queue = EventQueue(SimClock())
        for d in delays:
            queue.schedule(queue.clock.now + d, None)
        while queue:
            queue.pop()

    benchmark(push_pop)


def test_link_transmit(benchmark, flood):
    calls = flood["netsim.Link.transmit"]
    links = [args[0] for args, _, _ in calls]
    link0 = max(links, key=links.count)  # the flooded link
    frames = [(now, frame) for (link, frame, _), _, now in calls
              if link is link0]

    def transmit():
        world = World(1)
        link = Link(world, link0.name, link0.bandwidth_bps, link0.delay_ms,
                    link0.queue_capacity)
        for now, frame in frames:
            world.clock.now = now
            link.transmit(frame, _ignore)

    benchmark(transmit)


def _ignore(frame):
    pass


def test_route_to(benchmark, flood):
    pairs = [(node, dst) for (node, dst), _, _ in
             flood["actors.Node.route_to"]]

    def route():
        for node, dst in pairs:
            node.route_to(dst)

    benchmark(route)


def test_guard_decide(benchmark, flood):
    calls = flood["guard.GuardState.decide"]
    state0 = calls[0][0][0]
    msgs = [(msg, now) for (state, msg, now), _, _ in calls
            if state is state0]

    def decide():
        state = GuardState(state0.proxy_address, state0.config, Rng(7))
        for msg, now in msgs:
            state.decide(msg, now)

    benchmark(decide)


def test_attacker_build_message(benchmark, flood):
    attacker = flood["actors.AttackerNode._build_message"][0][0][0]
    benchmark(attacker._build_message)


def _nearest(calls, size):
    return min((args for args, _, _ in calls),
               key=lambda a: abs(len(a[3]) - size))


@pytest.mark.parametrize("size", [40, 300])
def test_aead_seal(benchmark, tunnel, size):
    key, nonce, aad, plaintext = _nearest(tunnel["seclayer.aead_seal"], size)
    benchmark.extra_info["bytes"] = len(plaintext)
    benchmark(aead_seal, key, nonce, aad, plaintext)


@pytest.mark.parametrize("size", [40, 300])
def test_aead_open(benchmark, tunnel, size):
    key, nonce, aad, plaintext = _nearest(tunnel["seclayer.aead_seal"], size)
    sealed = aead_seal(key, nonce, aad, plaintext)
    benchmark.extra_info["bytes"] = len(plaintext)
    assert benchmark(aead_open, key, nonce, aad, sealed) == plaintext


def test_serialize_full(benchmark, tunnel):
    msgs = [args[0] for args, _, _ in tunnel["actors.serialize_full"]]
    benchmark(lambda: [serialize_full(m) for m in msgs])


def test_serialize_inner(benchmark, tunnel):
    msgs = [args[0] for args, _, _ in tunnel["coap_lite.serialize_inner"]]
    benchmark(lambda: [serialize_inner(m) for m in msgs])
