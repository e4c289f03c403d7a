"""Byte-level trace pins: short seed-42 runs of the cells that exercise the
edge throttle, Echo challenges, empty ACKs, seq_conflict rejects, reverse
proxying, tunnel retransmits, tunnel auth failures and renegotiation, and
floods, unguarded (link tail drops) and behind fullguard. Call pins count
the events and link transmissions of two flood cells, and state pins fix
how many RNG draws each node makes in one flood sub-run.

A refactor of the actor layer must leave every trace byte where it was; a
digest that moves means behaviour moved. Re-record a digest only together
with a stated reason for the behaviour change.
"""

import hashlib

import pytest

from guardsim import netsim
from guardsim.harness import SimConfig, run_cell, run_subrun

PINS = {
    ("baseline-throttled", "blind_flood"): (
        "26c503d19c9daccf4762436fbd05013b9d22fcfea38232ed029e59915007d827",
        "0dce9a7ea8e00fb179716c3b7b1b8f223625188e35d863e804958c6119c558da"),
    ("exemptions", "distributed_flood"): (
        "d1543aa116cd04d4e3757a408a37603608a46a305bf607116d9d1effc60a9e12",
        "a42d2edda30733e40f5516fa8a81b5e6264c79b8b509793bcd75f0542307f186"),
    # In setup, x0's jumps all find its unknown-client nonce pending: no
    # `implausible_jump` challenge, three `jump_challenge_pending` drops.
    ("exemptions", "impersonator"): (
        "f4519fafb21d0dc9db1dc764f52d54a4edec2a3e39cc1f83f7f7792f53212189",
        "5c8efebd0d2e74f76755589c44f427ab98756cdd998c73f346939a0ba86a8834"),
    ("fullguard", "on_path"): (
        "019d3c89afa3b5506dbeb5e3b0993837fbad06c2c6dc31fee7213ca17bb02c7c",
        "dd203cf4f16dd1f8740d6a73e225d038e8b93195c0dbda20ab2da991248c2096"),
    ("fullguard", "impersonator"): (
        "abb8ca3be993c8181dc9c11ef4d06c69715c8f9157ccca1fe4c30e4fafd15209",
        "39da41c12889e79be488a1ea233edb52743fdf485d129c6fa27a9a3e8461c229"),
    # Floods: unguarded, they overrun the constrained links' queues
    # (`queue_full` tail drops); behind fullguard, the server end drops
    # them first.
    ("baseline-open", "blind_flood"): (
        "cb894357383814ecc3413f5701f91ae60becba214755113ef0b8c94e3ad4ef40",
        "c6927f434ca28c20ce714f2c1461883063f036dc720117bb0a060779e7b95edc"),
    ("baseline-open", "distributed_flood"): (
        "664d33bb450b1af86ac130e3e9a31ecdfc076dc26fa9109a926feba7e3aaac3e",
        "34043a6ad31c4715e18fa43eb72a18a3f27e065943eb140344f0660f1eec7a27"),
    ("fullguard", "distributed_flood"): (
        "bfde99f263a5f7eacd96a72c76d99880286ffdcdd713394102adcf82d173c951",
        "a2bc8bc3329590a658f595d030a027bc304bd43ded07286b12773fdabe8131c2"),
    # The rendezvous entries, the AS's grant and tokens, and the guards'
    # relays, with no attacker and with one that garbles sealed frames.
    ("exemptions", "none"): (
        "7d91429d0487708047eb4dd10be76ea30fa2af400ee6b8fa3765875e5011c611",
        "c6c89023fa1087db4e421adb8f8ebe25c7a8b5b69256b8140c115dd0869a70b5"),
    ("exemptions", "on_path"): (
        "7d91429d0487708047eb4dd10be76ea30fa2af400ee6b8fa3765875e5011c611",
        "661c229f586933e6b8db5db1fca0a977257c06adfa4575da8d386557a3d6d5f2"),
    ("fullguard", "none"): (
        "2d990aa0549ce1a6cee86403ed485f276415e7c0a3a987b7c6890d352ac8dda8",
        "32d93afe8c2ca0b199ff1b9c9bac7cdc8dad46c427f4a361c1d96b5917ea646f"),
}

# Events popped and `Link.transmit` calls over both sub-runs of a cell.
# `perfbench` reports the same two counts as `netsim.events` and
# `netsim.transmit_calls`.
CALL_PINS = {
    ("baseline-open", "blind_flood"): (5105, 4748),
    ("exemptions", "distributed_flood"): (8565, 4393),
}

# Each node's `rng.state` at the end of the steady sub-run of
# baseline-open x distributed_flood. A state is the seed's plus one step
# per draw, so equal states mean the same number of draws.
RNG_STATE_PINS = {
    "rtrC": 0x09a23bdd21d50861, "rtrS": 0x676ac2a1a29e8488,
    "srv": 0xff6e7e7e74e80f04, "cli": 0xc9ef50f21f7df837,
    "rd": 0x808054bf20ff1845, "as": 0xde48db7ba5c8943c,
    "atk": 0x2dc7a78a1d74f15d,
}


def short_config() -> SimConfig:
    cfg = SimConfig()
    cfg.seed = 42
    cfg.client.request_interval_ms = 2000
    cfg.client.setup_pause_ms = 2000
    cfg.durations.setup_ms = 40_000
    cfg.durations.warmup_ms = 5_000
    cfg.durations.steady_ms = 40_000
    cfg.durations.grace_ms = 10_000
    return cfg


@pytest.mark.parametrize("scenario,attack", list(PINS),
                         ids=[f"{s}-{a}" for s, a in PINS])
def test_subrun_traces_match_pinned_digests(scenario, attack):
    cell = run_cell(short_config(), scenario, attack, collect_traces=True)
    digests = tuple(hashlib.sha256(tr.to_jsonl().encode()).hexdigest()
                    for tr in cell["_traces"])
    assert digests == PINS[(scenario, attack)]


@pytest.mark.parametrize("scenario,attack", list(CALL_PINS),
                         ids=[f"{s}-{a}" for s, a in CALL_PINS])
def test_event_and_transmit_counts_match_pins(monkeypatch, scenario, attack):
    counts = {"pop": 0, "transmit": 0}
    pop, transmit = netsim.EventQueue.pop, netsim.Link.transmit

    def counted_pop(self):
        counts["pop"] += 1
        return pop(self)

    def counted_transmit(self, frame, deliver_fn):
        counts["transmit"] += 1
        return transmit(self, frame, deliver_fn)

    monkeypatch.setattr(netsim.EventQueue, "pop", counted_pop)
    monkeypatch.setattr(netsim.Link, "transmit", counted_transmit)
    run_cell(short_config(), scenario, attack)
    assert (counts["pop"], counts["transmit"]) == CALL_PINS[(scenario, attack)]


def test_node_rng_states_match_pins():
    sub = run_subrun(short_config(), "baseline-open", "distributed_flood",
                     "steady")
    states = {addr: node.rng.state
              for addr, node in sub.handles.world.nodes.items()}
    assert states == RNG_STATE_PINS
