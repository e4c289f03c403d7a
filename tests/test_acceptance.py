"""End-to-end acceptance suite.

Covers: (1) the full comparison-matrix labels, (2) energy economics against a
hand computation, (3) allow-list eviction resistance across seeds, (4) the
sequence-plausibility oracle, (5) replay-window equivalence with a set-based
oracle, (6) the on-path rekey asymmetry between guard modes, (7) full-guard
setup-flow conformance, and (8) byte-level determinism.
"""

import itertools
import random

import pytest

from guardsim.coap_lite import SimMessage
from guardsim.guard import GuardState, seq_check
from guardsim.harness import (LinkSpec, SimConfig, build_world, energy_report,
                              phase_stats, report_to_json, run_cell,
                              run_matrix, run_subrun)
from guardsim.netsim import EnergyBudget
from guardsim.seclayer import (ReplayError, ReplayWindow, SecurityContext,
                               oscore_protect, oscore_unprotect)


@pytest.fixture(scope="module")
def matrix():
    return run_matrix(SimConfig())


def cell_of(matrix_report, scenario, attack):
    for cell in matrix_report["cells"]:
        if cell["scenario"] == scenario and cell["attack"] == attack:
            return cell
    raise KeyError((scenario, attack))


# --- 1. comparison-matrix reproduction --------------------------------------------

EXPECTED_LABELS = {
    # (scenario, attack): (setup, steady, resource)
    ("baseline-open", "none"): ("good", "good", "low_or_none"),
    ("baseline-open", "blind_flood"): ("losses", "losses", "high"),
    ("baseline-open", "distributed_flood"): ("losses", "losses", "high"),
    ("baseline-throttled", "none"): ("throttled", "throttled", "low_or_none"),
    ("baseline-throttled", "blind_flood"): ("losses", "losses", "low"),
    ("baseline-throttled", "distributed_flood"): ("losses", "losses", "low"),
    ("exemptions", "none"): ("throttled", "good", "low_or_none"),
    # Single-source flood only saturates its own bucket: setup stays
    # throttled; only the distributed flood forces setup losses.
    ("exemptions", "blind_flood"): ("throttled", "good", "low"),
    ("exemptions", "distributed_flood"): ("losses", "good", "low"),
    ("fullguard", "none"): ("good", "good", "low_or_none"),
    ("fullguard", "blind_flood"): ("good", "good", "low_or_none"),
    ("fullguard", "distributed_flood"): ("good", "good", "low_or_none"),
    ("fullguard", "impersonator"): ("good", "good", "low_or_none"),
    ("fullguard", "on_path"): ("good", "good", "low_or_none"),
}


def test_matrix_runs_without_errors(matrix):
    assert not matrix["errored"]
    assert len(matrix["cells"]) == len(EXPECTED_LABELS)


@pytest.mark.parametrize("scenario,attack", sorted(EXPECTED_LABELS))
def test_matrix_labels(matrix, scenario, attack):
    cell = cell_of(matrix, scenario, attack)
    got = (cell["setup"]["behavior"], cell["steady"]["behavior"],
           cell["resource"])
    assert got == EXPECTED_LABELS[(scenario, attack)]


def test_fullguard_attributable_energy_exactly_zero(matrix):
    for attack in ("blind_flood", "distributed_flood", "impersonator",
                   "on_path"):
        cell = cell_of(matrix, "fullguard", attack)
        assert cell["energy"]["attack_attributable"] == 0.0


# --- 2. energy economics -------------------------------------------------------------

def test_50000_key_exchanges_exhaust_default_budget():
    budget = EnergyBudget()
    for _ in range(50_000):
        budget.drain(budget.cost_of("edhoc"))
    assert budget.remaining == 0.0
    assert budget.exhausted


def test_flood_drain_matches_bandwidth_bound_hand_computation():
    """A flood on a 1 kbit/s link can only induce as many handshakes as the
    link can carry; the measured attributable drain per simulated hour must
    match that bound within 1%."""
    hour_ms = 3_600_000
    cfg = SimConfig()
    cfg.links.constrained = LinkSpec(bandwidth_bps=1000, delay_ms=10,
                                     queue_capacity=8)
    cfg.attacks.blind_rate = 5.0  # comfortably saturates 1 kbit/s

    handles = build_world(cfg, "baseline-open", "blind_flood", 0, hour_ms,
                          seed=42, client_enabled=False)
    handles.server.start()
    handles.attacker.start()
    handles.world.run_until(hour_ms)

    measured = energy_report(handles.world.ledger)["attack_attributable"]

    # Hand computation from the link budget: each handshake-triggering frame
    # is 48 bytes (4 header + 4 token + 40 payload), serializing for
    # 48*8/1000 bps = 384 ms, so a saturated link delivers 3.6e6/384 frames
    # per hour. Each one costs rx bytes + message processing + half a key
    # exchange on the responder.
    frame_bytes = 48
    serialization_ms = frame_bytes * 8  # at 1000 bps, 1 bit per ms
    frames_per_hour = hour_ms / serialization_ms
    per_frame = (frame_bytes * cfg.energy.cost_per_rx_byte
                 + cfg.energy.cost_per_msg + 0.5 * cfg.energy.cost_edhoc)
    expected = frames_per_hour * per_frame
    assert abs(measured - expected) / expected < 0.01


# --- 3. allow-list eviction resistance -------------------------------------------------

def test_impersonator_never_evicts_allow_listed_client(monkeypatch):
    # Every class change goes through `GuardState._set_class`; record each
    # one that takes a client address off the allow-list.
    downgrades = []
    set_class = GuardState._set_class

    def recording_set_class(gstate, rec, cls, now_ms):
        if rec.cls == "allow_listed" and cls != "allow_listed":
            source = next(s for s, r in gstate.flows.items() if r is rec)
            if source.startswith("cli"):
                downgrades.append((now_ms, source, cls))
        set_class(gstate, rec, cls, now_ms)

    monkeypatch.setattr(GuardState, "_set_class", recording_set_class)
    for i in range(100):
        cfg = SimConfig()
        cfg.seed = 1000 + i
        cfg.durations.steady_ms = 120_000  # shorter horizon, 100 seeds
        sub = run_subrun(cfg, "exemptions", "impersonator", "steady")
        gstate = sub.handles.server_router.gstate
        assert downgrades == [], f"seed {cfg.seed}: {downgrades}"
        assert gstate.flows["cli"].cls == "allow_listed", cfg.seed
        stats = phase_stats(sub.handles.client.interactions, ("request",), cfg)
        assert stats["behavior"] == "good", (cfg.seed, stats)


# --- 4. sequence-plausibility oracle ----------------------------------------------------

class SeqOracle:
    """Brute-force reference keeping the complete seen-set per kid."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.state = {}  # kid -> (seen: piv->token, highest, sources)

    def check(self, kid, piv, token, source):
        seen, highest, sources = self.state.setdefault(kid, ({}, -1, set()))
        if piv in seen:
            return "conflict" if seen[piv] != token else "plausible"
        if highest >= 0 and piv > highest + self.threshold:
            return "implausible_jump"
        mobile = bool(sources) and source not in sources
        seen[piv] = token
        sources.add(source)
        self.state[kid] = (seen, max(highest, piv), sources)
        return "known_mobile" if mobile else "plausible"


def test_seq_check_matches_full_seen_set_oracle():
    rng = random.Random(20260823)
    trackers = {}
    oracle = SeqOracle(threshold=128)
    kids = [bytes([k]) for k in range(4)]
    tokens = [bytes([t]) * 2 for t in range(12)]
    sources = [f"s{i}" for i in range(6)]
    disagreements = 0
    for _ in range(10_000):
        kid = rng.choice(kids)
        source = rng.choice(sources)
        token = rng.choice(tokens)
        bucket = rng.random()
        if bucket < 0.6:
            piv = rng.randrange(0, 300)
        elif bucket < 0.9:
            piv = rng.randrange(0, 2000)
        else:
            piv = 1_000_000 + rng.randrange(100)
        # Unbounded memory makes the bounded tracker equivalent to the
        # full-set oracle; the eviction bound is unit-tested separately.
        got = seq_check(trackers, kid, piv, token, source,
                        jump_threshold=128, memory=10**9)
        want = oracle.check(kid, piv, token.hex(), source)
        if got != want:
            disagreements += 1
    assert disagreements == 0


# --- 5. replay-window equivalence --------------------------------------------------------

class WindowOracle:
    def __init__(self, size):
        self.size = size
        self.accepted = set()
        self.highest = -1

    def accept(self, seq):
        if seq in self.accepted or \
                (self.highest >= 0 and seq <= self.highest - self.size):
            return False
        self.accepted.add(seq)
        self.highest = max(self.highest, seq)
        return True


def check_stream(seqs, size):
    window = ReplayWindow(size=size)
    oracle = WindowOracle(size)
    for seq in seqs:
        assert window.accept(seq) == oracle.accept(seq), (seqs, seq)


def test_window_equivalence_exhaustive_short_sequences():
    # All sequences (with repetition) of length <= 4 over 0..15, with a
    # window small enough (8) that the sliding rule actually bites.
    for length in range(1, 5):
        for seqs in itertools.product(range(16), repeat=length):
            check_stream(seqs, size=8)


def test_window_equivalence_sampled_permutations():
    rng = random.Random(55)
    values = list(range(16))
    for _ in range(500):
        rng.shuffle(values)
        check_stream(values[:8], size=8)


def test_window_equivalence_random_longer_streams():
    rng = random.Random(77)
    for _ in range(1000):
        seqs = [rng.randrange(0, 100) for _ in range(50)]
        check_stream(seqs, size=32)


def test_unprotect_decisions_match_window_oracle():
    """End to end: accept/reject decisions of full message verification agree
    with the set-based oracle on random piv streams."""
    sender = SecurityContext(sender_id=b"\x01", recipient_id=b"\x02",
                             master_key=b"m" * 16)
    inner = SimMessage(src="cli", dst="srv", code="GET", payload_len=8)
    protected = {}
    for piv in range(16):
        sender.sender_seq = piv
        protected[piv] = oscore_protect(sender, inner)
    rng = random.Random(99)
    for _ in range(1000):
        receiver = SecurityContext(sender_id=b"\x02", recipient_id=b"\x01",
                                   master_key=b"m" * 16,
                                   replay_window=ReplayWindow(size=8))
        oracle = WindowOracle(8)
        for _ in range(10):
            piv = rng.randrange(0, 16)
            try:
                oscore_unprotect(receiver, protected[piv])
                accepted = True
            except ReplayError:
                accepted = False
            assert accepted == oracle.accept(piv)


# --- 6. on-path rekey asymmetry -----------------------------------------------------------

def test_onpath_forces_rekey_in_exemptions_but_not_fullguard(matrix):
    exem = run_cell(SimConfig(), "exemptions", "on_path")
    assert exem["rekeys"] >= 1
    assert exem["attack_induced_rekeys"] >= 1
    assert exem["energy"]["attack_attributable"] > 0.0

    full = cell_of(matrix, "fullguard", "on_path")
    assert full["rekeys"] == 0
    assert full["energy"]["attack_attributable"] == 0.0
    assert full["tunnel_renegotiations"] >= 1


# --- 7. full-guard setup-flow conformance ---------------------------------------------------

SETUP_ALLOWED_KINDS = {"onboard_request", "onboard_ack", "rd_register",
                       "rd_ack"}


def test_fullguard_setup_flow_conformance():
    sub = run_subrun(SimConfig(), "fullguard", "none", "steady",
                     collect_trace=True)
    trace = sub.handles.world.trace

    # All eight setup steps appear, first occurrences in order.
    first_at = {}
    for event in trace.by_kind("setup_step"):
        first_at.setdefault(event["detail"]["step"], event["t"])
    assert set(first_at) == set(range(1, 9))
    times = [first_at[step] for step in range(1, 9)]
    assert times == sorted(times)

    # The server never contacts the authorization server: every frame the
    # server originates crosses its constrained link and is traced there.
    server_frames = [e for e in trace.by_kind("link_frame")
                     if e["detail"]["src"] == "srv"]
    assert server_frames, "no server traffic traced at all"
    assert all(e["detail"]["dst"] != "as" for e in server_frames)
    assert all(e["detail"]["payload_kind"] != "as_token_request"
               for e in server_frames)

    # Before tunnel establishment (step 8), only onboarding/registration
    # traffic may appear on the constrained server link.
    tunnel_at = first_at[8]
    early = [e for e in trace.by_kind("link_frame")
             if e["node"] in ("rtrS->srv", "srv->rtrS") and e["t"] < tunnel_at]
    assert early, "setup produced no constrained-link traffic"
    assert {e["detail"]["payload_kind"] for e in early} <= SETUP_ALLOWED_KINDS

    # After establishment the client's requests do flow and complete.
    done = [i for i in sub.handles.client.interactions
            if i.kind == "request" and i.outcome == "completed"]
    assert done


# --- 8. determinism --------------------------------------------------------------------------

@pytest.mark.parametrize("scenario,attack", [
    ("baseline-throttled", "blind_flood"),
    ("fullguard", "none"),
])
def test_same_seed_reproduces_reports_and_traces(scenario, attack):
    cfg = SimConfig()
    first = run_cell(cfg, scenario, attack, collect_traces=True)
    second = run_cell(cfg, scenario, attack, collect_traces=True)
    t1 = first.pop("_traces")
    t2 = second.pop("_traces")
    assert report_to_json(first) == report_to_json(second)
    for a, b in zip(t1, t2):
        assert a.to_jsonl() == b.to_jsonl()
