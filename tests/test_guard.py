"""Guard policy: classes, two-level throttling, echo challenges,
allow-listing, sequence plausibility."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from guardsim.coap_lite import SimMessage
from guardsim.guard import (ALLOW_LISTED, BucketSpec, CONFLICT, FlowRecord,
                            GuardConfig, GuardState, IMPLAUSIBLE_JUMP,
                            KNOWN_MOBILE, NON_PROXY, PLAUSIBLE,
                            REACHABILITY_VERIFIED, SeqTracker,
                            ThrottlePolicy, TokenBucket, UNKNOWN_VIA_PROXY,
                            seq_check)
from guardsim.netsim import Rng

PROXY = "rtrS"


def make_guard():
    return GuardState(PROXY, GuardConfig(), Rng(7))


def proxied(src="cli", token=b"\x01", kid=None, piv=None, echo=None, mid=1):
    return SimMessage(src=src, dst=PROXY, mid=mid, token=token,
                      oscore_kid=kid, oscore_piv=piv, echo=echo,
                      payload_kind="oscore" if kid else "edhoc_m1",
                      payload_len=20)


# --- classes -----------------------------------------------------------------------

def test_first_proxy_request_is_unknown():
    g = make_guard()
    action, detail = g.decide(proxied(), 0)
    assert (action, detail["reason"]) == ("challenge", "unknown_client")
    assert g.flows["cli"].cls == UNKNOWN_VIA_PROXY


def test_direct_to_server_is_non_proxy():
    g = make_guard()
    msg = SimMessage(src="cli", dst="srv")
    assert g.decide(msg, 0) == ("forward", {"cls": NON_PROXY})
    assert g.flows == {}  # the proxy keeps no flow for traffic past it


# --- throttling ---------------------------------------------------------------------

def test_zero_rate_bucket_drops_everything():
    policy = ThrottlePolicy(BucketSpec(0, 0, 0, 0))
    for t in (0, 1000, 60_000):
        assert policy.admit("a", t) is False


def test_bucket_burst_arithmetic():
    # rate 1/s, burst 2: five messages at t=0 -> 2 admitted, 3 dropped.
    policy = ThrottlePolicy(BucketSpec(1.0, 2, 100.0, 100))
    verdicts = [policy.admit("a", 0) for _ in range(5)]
    assert verdicts == [True, True, False, False, False]


def test_bucket_refills_over_time():
    policy = ThrottlePolicy(BucketSpec(1.0, 1, 100.0, 100))
    assert policy.admit("a", 0) is True
    assert policy.admit("a", 500) is False
    assert policy.admit("a", 1500) is True


def test_aggregate_bucket_caps_distributed_sources():
    # per-source 1/s burst 1, aggregate 3/s burst 3: ten sources sending one
    # message each at t=0 admit exactly 3 in total.
    policy = ThrottlePolicy(BucketSpec(1.0, 1, 3.0, 3))
    admitted = sum(policy.admit(f"s{i}", 0) for i in range(10))
    assert admitted == 3


def test_starved_aggregate_still_consumes_per_source():
    policy = ThrottlePolicy(BucketSpec(1.0, 1, 1.0, 1))
    assert policy.admit("a", 0) is True
    assert policy.admit("b", 0) is False
    # b's per-source token was consumed by the failed attempt.
    assert policy.buckets["b"].tokens < 1.0


class MinBucket:
    """Reference: `TokenBucket` with its refill capped by `min()`."""

    def __init__(self, rate_per_s, burst):
        self.rate = rate_per_s
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_ms = 0

    def admit(self, now_ms):
        if now_ms > self.last_ms:
            self.tokens = min(self.burst,
                              self.tokens + (now_ms - self.last_ms) * self.rate / 1000.0)
            self.last_ms = now_ms
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


def _bits(bucket):
    return (bucket.tokens.hex(), bucket.last_ms)


# Rates and bursts near the guard's, and up to 1e300; steps of 0 repeat a
# time, where a bucket spends without refilling, and long steps refill it
# to its burst.
@given(st.one_of(st.floats(0, 10), st.floats(0, 1e300)),
       st.one_of(st.integers(1, 8), st.floats(1, 1e300)),
       st.lists(st.one_of(st.just(0), st.integers(0, 3_000),
                          st.integers(0, 10**9)), max_size=40))
def test_bucket_admit_matches_min_reference(rate, burst, steps):
    bucket, ref = TokenBucket(rate, burst), MinBucket(rate, burst)
    now = 0
    for dt in steps:
        now += dt
        assert bucket.admit(now) == ref.admit(now)
        assert _bits(bucket) == _bits(ref)


class TupleKeyedPolicy:
    """Reference for one `ThrottlePolicy` per class: a `MinBucket` per
    (class, source) tuple, each converting its own burst."""

    def __init__(self, specs):
        self.specs = specs
        self.aggregate = {}
        self.per_source = {}

    def admit(self, cls, source, now_ms):
        spec = self.specs[cls]
        key = (cls, source)
        if key not in self.per_source:
            self.per_source[key] = MinBucket(spec.per_source_rate,
                                             spec.per_source_burst)
            self.per_source[key].last_ms = now_ms
        if cls not in self.aggregate:
            self.aggregate[cls] = MinBucket(spec.aggregate_rate,
                                            spec.aggregate_burst)
        return (self.per_source[key].admit(now_ms)
                and self.aggregate[cls].admit(now_ms))


def _state(bucket):
    return (bucket.tokens, bucket.last_ms)


def _full_at(bucket, now):
    """Whether `bucket`'s refill at `now` reaches its burst: then it admits
    as a fresh bucket does, and an absent bucket stands for it."""
    return bucket.tokens + (now - bucket.last_ms) * bucket.rate / 1000.0 \
        >= bucket.burst


# Up to 204 sources, so that a class's dict can pass `SWEEP_FLOOR` and be
# swept; steps up to 3 s, where the guard's buckets refill in 1-20 s.
@given(st.lists(st.tuples(
    st.sampled_from([UNKNOWN_VIA_PROXY, NON_PROXY, REACHABILITY_VERIFIED]),
    st.one_of(st.sampled_from(["a", "b", "c", "d"]),
              st.integers(0, 199).map(str)),
    st.integers(0, 3_000)), max_size=300))
def test_admit_matches_tuple_keyed_reference(steps):
    config = GuardConfig()
    specs = {UNKNOWN_VIA_PROXY: config.unknown_bucket,
             NON_PROXY: config.non_proxy_bucket,
             REACHABILITY_VERIFIED: config.verified_bucket}
    policies = {cls: ThrottlePolicy(spec) for cls, spec in specs.items()}
    ref = TupleKeyedPolicy(specs)
    now = 0
    for cls, source, dt in steps:
        now += dt
        assert policies[cls].admit(source, now) == ref.admit(cls, source, now)
    # A policy may have dropped buckets full at `now`: absent and full at
    # `now` are the same state.
    assert {(cls, src): _state(b)
            for cls, policy in policies.items()
            for src, b in policy.buckets.items() if not _full_at(b, now)} == {
        key: _state(b) for key, b in ref.per_source.items()
        if not _full_at(b, now)}
    # A policy builds its aggregate bucket up front, the reference on
    # first use: a bucket not yet used is full at last_ms 0.
    assert {cls: _state(p.aggregate) for cls, p in policies.items()} == {
        cls: _state(ref.aggregate[cls]) if cls in ref.aggregate
        else (float(specs[cls].aggregate_burst), 0) for cls in specs}


@pytest.mark.parametrize("obj", [TokenBucket(1.0, 2), FlowRecord(0),
                                 SeqTracker()],
                         ids=["TokenBucket", "FlowRecord", "SeqTracker"])
def test_per_source_records_are_slotted(obj):
    # One of these per spoofed source: a per-instance dict would cost more
    # than the fields it holds.
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.undeclared = 1


def test_token_bucket_never_exceeds_burst():
    b = TokenBucket(10.0, 3)
    b.admit(0)
    b.admit(1_000_000)  # long idle: refill capped at burst
    assert b.tokens <= 3.0


# --- echo challenges -------------------------------------------------------------------

def test_unknown_client_gets_challenge_not_forwarded():
    g = make_guard()
    action, detail = g.decide(proxied(), 0)
    assert action == "challenge"
    # The policy records the nonce; the node answers 4.01 with it.
    assert len(detail["echo"]) == 8
    assert detail["echo"] == g.flows["cli"].echo_nonce
    assert g.flows["cli"].echo_issued_ms == 0


def test_challenge_nonces_differ_between_flows():
    g = make_guard()
    _, d1 = g.decide(proxied(src="c1"), 0)
    _, d2 = g.decide(proxied(src="c2"), 0)
    assert d1["echo"] != d2["echo"]


def test_no_duplicate_challenge_while_pending():
    g = make_guard()
    action, _ = g.decide(proxied(), 0)
    assert action == "challenge"
    action, detail = g.decide(proxied(token=b"\x02"), 10)
    assert action == "drop"
    assert detail["reason"] == "challenge_pending"
    # The nonce holds the source off up to `echo_max_age_ms`; past it, the
    # next request draws a fresh challenge.
    action, detail = g.decide(proxied(token=b"\x03"), 40_000)
    assert (action, detail["reason"]) == ("drop", "challenge_pending")
    first = g.flows["cli"].echo_nonce
    action, detail = g.decide(proxied(token=b"\x04"), 40_001)
    assert (action, detail["reason"]) == ("challenge", "unknown_client")
    assert detail["echo"] == g.flows["cli"].echo_nonce != first
    assert g.flows["cli"].echo_issued_ms == 40_001


def test_correct_echo_verifies_and_forwards():
    g = make_guard()
    _, detail = g.decide(proxied(), 0)
    nonce = detail["echo"]
    action, detail = g.decide(proxied(token=b"\x02", echo=nonce), 30_000)
    assert action == "forward"
    assert g.flows["cli"].cls == REACHABILITY_VERIFIED
    assert g.flows["cli"].reachable_since_ms == 0


def test_echo_after_max_age_is_stale():
    g = make_guard()
    _, detail = g.decide(proxied(), 0)
    rec = g.flows["cli"]
    late = proxied(token=b"\x02", echo=detail["echo"])
    assert g.verify_echo(rec, late, 41_000) == "stale"
    assert rec.cls == UNKNOWN_VIA_PROXY


def test_wrong_echo_is_mismatch():
    g = make_guard()
    g.decide(proxied(), 0)
    rec = g.flows["cli"]
    bad = proxied(token=b"\x02", echo=b"\x00" * 8)
    assert g.verify_echo(rec, bad, 1000) == "mismatch"
    assert rec.cls == UNKNOWN_VIA_PROXY


# --- allow-listing ----------------------------------------------------------------------

def protected_response():
    return SimMessage(src="srv", dst=PROXY, mtype="ACK", code="2.05",
                      oscore_kid=b"\x02", oscore_piv=0, sealed=b"x" * 24)


def unprotected_error():
    return SimMessage(src="srv", dst=PROXY, mtype="ACK", code="4.01")


def test_protected_response_promotes_tentatively():
    g = make_guard()
    assert g.observe_exchange("cli", "oscore", protected_response(), 100)
    rec = g.flows["cli"]
    assert rec.cls == ALLOW_LISTED
    assert rec.last_update_ms == 100  # the idle expiry counts from here


def test_unprotected_error_never_promotes():
    g = make_guard()
    assert not g.observe_exchange("cli", "oscore", unprotected_error(), 100)
    assert g.flows["cli"].cls == UNKNOWN_VIA_PROXY


def test_tunnel_token_post_never_promotes():
    # The request's payload kind as it was sent: its token is not secret.
    g = make_guard()
    assert not g.observe_exchange("cli", "tunnel_token_post",
                                  protected_response(), 100)
    assert g.flows["cli"].cls == UNKNOWN_VIA_PROXY
    assert g.flows["cli"].last_update_ms == 100


def test_allow_listed_bypasses_buckets():
    g = make_guard()
    g.observe_exchange("cli", "oscore", protected_response(), 0)
    # Drain every bucket with other traffic first.
    for i in range(50):
        g.decide(proxied(src=f"x{i}", token=bytes([i])), 1)
    action, detail = g.decide(proxied(token=b"\x70"), 1)
    assert (action, detail["cls"]) == ("forward", ALLOW_LISTED)


def test_tentative_entry_expires_after_idle():
    g = make_guard()
    g.observe_exchange("cli", "oscore", protected_response(), 0)
    rec = g.flows["cli"]
    rec.reachable_since_ms = 0
    g.expire_idle(rec, 700_000)
    assert rec.cls == REACHABILITY_VERIFIED
    assert rec.last_update_ms == 700_000


def test_decide_expires_an_idle_tentative_entry_first():
    g = make_guard()
    g.observe_exchange("cli", "oscore", protected_response(), 0)
    g.flows["cli"].reachable_since_ms = 0
    action, detail = g.decide(proxied(), 700_000)
    assert (action, detail["cls"]) == ("forward", REACHABILITY_VERIFIED)
    assert g.flows["cli"].cls == REACHABILITY_VERIFIED


def test_decide_expires_an_unreachable_idle_tentative_entry_to_unknown():
    g = make_guard()
    g.observe_exchange("cli", "oscore", protected_response(), 0)
    action, detail = g.decide(proxied(), 700_000)
    assert (action, detail["reason"]) == ("challenge", "unknown_client")
    assert g.flows["cli"].cls == UNKNOWN_VIA_PROXY


# --- sequence plausibility ----------------------------------------------------------------

def check(trackers, piv, token, source, memory=GuardConfig.seq_memory):
    """`seq_check` of kid 0x01 at the guard's default jump threshold."""
    return seq_check(trackers, b"\x01", piv, token, source,
                     GuardConfig.jump_threshold, memory)


def seeded_tracker():
    trackers = {}
    for piv in range(11):  # highest becomes 10
        assert check(trackers, piv, b"T1", "cli") == PLAUSIBLE
    return trackers


def test_plausible_within_threshold():
    trackers = seeded_tracker()
    assert check(trackers, 11, b"T2", "cli") == PLAUSIBLE


def test_implausible_jump_leaves_tracker_untouched():
    trackers = seeded_tracker()
    before = dict(trackers[b"\x01"].seen)
    assert check(trackers, 10_000, b"T9", "cli") == IMPLAUSIBLE_JUMP
    assert trackers[b"\x01"].seen == before
    assert trackers[b"\x01"].highest_seen == 10


def test_conflict_on_reused_piv_different_token():
    trackers = seeded_tracker()
    before = dict(trackers[b"\x01"].seen)
    assert check(trackers, 7, b"T2", "cli") == CONFLICT
    assert trackers[b"\x01"].seen == before


def test_retransmission_same_token_is_plausible():
    trackers = seeded_tracker()
    assert check(trackers, 7, b"T1", "cli") == PLAUSIBLE


def test_known_mobile_on_new_source():
    trackers = seeded_tracker()
    assert check(trackers, 11, b"T2", "cli-new") == KNOWN_MOBILE


def test_seq_memory_is_bounded():
    trackers = {}
    for piv in range(500):
        check(trackers, piv, b"T", "cli", memory=64)
    assert len(trackers[b"\x01"].seen) <= 64
    assert trackers[b"\x01"].highest_seen == 499


# --- eviction resistance --------------------------------------------------------------------

def test_forged_traffic_cannot_evict_allow_listed_flow():
    g = make_guard()
    # Establish the legitimate flow: allow-listed, with tracker history.
    g.observe_exchange("cli", "oscore", protected_response(), 0)
    for piv in range(5):
        g.decide(proxied(kid=b"\x01", piv=piv, token=bytes([40 + piv])), 100)
    tracker_before = dict(g.trackers[b"\x01"].seen)
    # Attacker: guessed kid, huge pivs and replayed pivs under fresh tokens.
    for i in range(20):
        piv = 10_000_000 + i if i % 2 == 0 else i % 5
        action, _ = g.decide(proxied(src="x0", kid=b"\x01", piv=piv,
                                     token=bytes([100 + i])), 200 + i)
        assert action != "forward"
    assert g.flows["cli"].cls == ALLOW_LISTED
    assert g.trackers[b"\x01"].seen == tracker_before
    assert g.trackers[b"\x01"].highest_seen == 4


def test_conflict_rejected_with_4xx():
    g = make_guard()
    g.decide(proxied(kid=b"\x01", piv=3, token=b"T1"), 0)
    action, detail = g.decide(proxied(src="x0", kid=b"\x01", piv=3,
                                      token=b"T2"), 10)
    assert action == "reject"
    assert detail["reason"] == "seq_conflict"


def test_jump_triggers_challenge_then_drop_while_pending():
    g = make_guard()
    g.decide(proxied(kid=b"\x01", piv=0, token=b"T1"), 0)
    action, detail = g.decide(proxied(src="x0", kid=b"\x01", piv=99_999,
                                      token=b"T2"), 10)
    assert (action, detail["reason"]) == ("challenge", "implausible_jump")
    # The jump's nonce is the flow's one pending nonce.
    assert detail["echo"] == g.flows["x0"].echo_nonce
    assert g.flows["x0"].echo_issued_ms == 10
    action, detail = g.decide(proxied(src="x0", kid=b"\x01", piv=99_999,
                                      token=b"T3"), 20)
    assert (action, detail["reason"]) == ("drop", "jump_challenge_pending")
    # Still pending at exactly `echo_max_age_ms`; past it, challenged anew.
    action, detail = g.decide(proxied(src="x0", kid=b"\x01", piv=99_999,
                                      token=b"T4"), 40_010)
    assert (action, detail["reason"]) == ("drop", "jump_challenge_pending")
    action, detail = g.decide(proxied(src="x0", kid=b"\x01", piv=99_999,
                                      token=b"T5"), 40_011)
    assert (action, detail["reason"]) == ("challenge", "implausible_jump")
    assert detail["echo"] == g.flows["x0"].echo_nonce
    assert g.flows["x0"].echo_issued_ms == 40_011


def test_stale_echo_to_a_jump_challenge_lets_the_next_jump_be_challenged():
    g = make_guard()
    g.decide(proxied(kid=b"\x01", piv=0, token=b"T1"), 0)
    _, first = g.decide(proxied(src="x0", kid=b"\x01", piv=99_999,
                                token=b"T2"), 10)
    g.flows["x0"].cls = ALLOW_LISTED
    late = proxied(src="x0", kid=b"\x01", piv=99_999, token=b"T3",
                   echo=first["echo"])
    assert g.verify_echo(g.flows["x0"], late, 41_010) == "stale"
    assert g.flows["x0"].echo_nonce is None
    action, detail = g.decide(proxied(src="x0", kid=b"\x01", piv=99_999,
                                      token=b"T4"), 141_010)
    assert (action, detail["reason"]) == ("challenge", "implausible_jump")
    assert detail["echo"] == g.flows["x0"].echo_nonce != first["echo"]


def test_known_mobile_is_prioritized_but_still_challenged():
    g = make_guard()
    for piv in range(3):
        g.decide(proxied(kid=b"\x01", piv=piv, token=bytes([piv])), 0)
    action, detail = g.decide(proxied(src="cli-roam", kid=b"\x01", piv=3,
                                      token=b"\x09"), 100)
    assert action == "challenge"
    assert g.flows["cli-roam"].elevated
    # Answered in time under a fresh piv, the challenge lets it through,
    # and so does an answered jump past `jump_threshold`, which moves the
    # tracker up to the client's piv.
    action, _ = g.decide(proxied(src="cli-roam", kid=b"\x01", piv=4,
                                 token=b"\x0a", echo=detail["echo"]), 1_100)
    assert action == "forward"
    jump = 5 + GuardConfig.jump_threshold
    action, detail = g.decide(proxied(src="cli-roam", kid=b"\x01", piv=jump,
                                      token=b"\x0b"), 2_100)
    assert (action, detail["reason"]) == ("challenge", "implausible_jump")
    action, _ = g.decide(proxied(src="cli-roam", kid=b"\x01", piv=jump + 1,
                                 token=b"\x0c", echo=detail["echo"]), 3_100)
    assert action == "forward"
    assert g.trackers[b"\x01"].highest_seen == jump + 1


# One step of a legitimate client: which of four sources it sends from,
# how many pivs it lost since its last request (up to three times
# `jump_threshold`), the gap since its last try, and how long it takes to
# answer a challenge. Every try comes at least 1 s after the one before,
# so that no bucket refuses it, and every answer comes in time.
CLIENT_STEPS = st.lists(st.tuples(
    st.integers(0, 3), st.integers(0, 3 * GuardConfig.jump_threshold),
    st.integers(1_000, 100_000),
    st.integers(1_000, GuardConfig.echo_max_age_ms)), min_size=1, max_size=12)


@given(CLIENT_STEPS)
def test_legitimate_client_is_forwarded_within_two_tries(steps):
    # A client that roams and loses pivs past `jump_threshold` is
    # challenged at most once per request: its Echo answer, a new
    # protected request under a fresh piv, is forwarded.
    g = make_guard()
    now, piv, n = 0, 0, 0
    for source, lost, gap, answer_after in steps:
        src = f"cli{source}"
        piv += lost
        now += gap
        echo = None
        for _ in range(2):
            n += 1
            action, detail = g.decide(
                proxied(src=src, kid=b"\x01", piv=piv,
                        token=n.to_bytes(2, "big"), echo=echo), now)
            piv += 1
            if action != "challenge":
                break
            echo = detail["echo"]
            now += answer_after
        assert action == "forward", (src, piv, detail)


# --- reclaiming per-source state --------------------------------------------------------

def unswept_guard():
    """`make_guard` with a sweep floor that no dict reaches: it keeps every
    source's state, as the guard did before it swept."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ThrottlePolicy, "SWEEP_FLOOR", 10**9)
        return make_guard()


def _rebuilt_alike(rec, now):
    """Whether `rec` behaves as the record a fresh source gets."""
    return (rec.cls == UNKNOWN_VIA_PROXY and not rec.elevated
            and rec.reachable_since_ms is None
            and (rec.echo_nonce is None
                 or now - rec.echo_issued_ms > GuardConfig.echo_max_age_ms))


# Gaps small enough for over 64 sources to meet inside one refill or Echo
# window, and gaps at and past those windows' edges: one token of the
# unknown (5 s) and non-proxy (20 s) buckets, the Echo max age (40 s) and
# the allow-list idle expiry (600 s).
GAPS = st.one_of(st.integers(0, 200), st.integers(0, 12_000),
                 st.sampled_from([5_000, 10_000, 20_000, 40_000, 40_001,
                                  600_001]))
# Four sources that come back often, among 120.
GUARD_STEPS = st.lists(st.tuples(
    st.sampled_from(["request", "answer", "protected", "past", "observe"]),
    st.one_of(st.integers(0, 3), st.integers(0, 119)), GAPS,
    st.integers(0, 300)), min_size=80, max_size=300)


# At the shipped floor, more than 64 sources fill `flows` past it; at a
# floor of 2 the buckets are swept too, nearly on every new source. Each
# input is up to 300 steps, so drawing it is slow where a profiler hooks
# every call.
@pytest.mark.parametrize("floor", [None, 2], ids=["shipped_floor", "floor_2"])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=GUARD_STEPS)
def test_reclaiming_guard_decides_as_one_that_keeps_every_source(floor,
                                                                 steps):
    ref = unswept_guard()
    with pytest.MonkeyPatch.context() as mp:
        if floor is not None:
            mp.setattr(ThrottlePolicy, "SWEEP_FLOOR", floor)
        g = make_guard()
        _decide_alike(g, ref, steps)


def _decide_alike(g, ref, steps):
    now = 0
    for n, (op, source, gap, k) in enumerate(steps):
        now += gap
        src, token = f"s{source}", n.to_bytes(2, "big")
        if op == "observe":
            response = protected_response() if k % 3 else unprotected_error()
            kind = "tunnel_token_post" if k % 3 == 2 else "oscore"
            assert (g.observe_exchange(src, kind, response, now)
                    == ref.observe_exchange(src, kind, response, now))
            continue
        if op == "past":
            msg = SimMessage(src=src, dst="srv")
        elif op == "request":
            msg = proxied(src=src, token=token)
        else:
            # An Echo answer carries the nonce the source was last sent,
            # which the reclaiming guard may have dropped as stale, or a
            # wrong one; half of the answers are protected requests.
            echo = kid = None
            if op == "answer":
                rec = ref.flows.get(src)
                echo = (rec.echo_nonce if rec is not None and rec.echo_nonce
                        and k % 4 else b"\x00" * 8)
            if op == "protected" or k % 2:
                # Pivs of 0-300 under two kids: replays, conflicts, jumps.
                kid = bytes([1 + k // 2 % 2])
            msg = proxied(src=src, token=token, kid=kid,
                          piv=None if kid is None else k, echo=echo)
        assert g.decide(msg, now) == ref.decide(msg, now), (n, op, src)
    for src, rec in ref.flows.items():
        if not _rebuilt_alike(rec, now):
            kept = g.flows[src]
            assert (kept.cls, kept.reachable_since_ms, kept.elevated) == (
                rec.cls, rec.reachable_since_ms, rec.elevated)


def test_fresh_source_flood_keeps_per_source_state_bounded():
    # 20,000 fresh sources at 1/ms: every one is throttled or challenged
    # once and never heard from again. Per-source state stays within twice
    # what a fresh source would not rebuild, plus the floor; an idle
    # allow-listed flow survives every sweep.
    g = make_guard()
    g.observe_exchange("cli", "oscore", protected_response(), 0)
    cli = g.flows["cli"]
    floor = ThrottlePolicy.SWEEP_FLOOR
    for now in range(1, 20_001):
        g.decide(proxied(src=f"x{now}"), now)
        held = sum(not _rebuilt_alike(rec, now) for rec in g.flows.values())
        assert len(g.flows) <= 2 * held + floor, now
        if now % 100 == 0:
            for policy in (g.non_proxy, g.unknown, g.verified):
                held = sum(not _full_at(b, now)
                           for b in policy.buckets.values())
                assert len(policy.buckets) <= 2 * held + floor, now
    assert g.flows["cli"] is cli and cli.cls == ALLOW_LISTED
    assert len(g.flows) < 200
    assert len(g.unknown.buckets) < 11_000


def test_a_sweep_drops_a_bucket_only_once_it_is_full():
    # One spent token of a 0.2/s bucket refills in exactly 5 s: at 5,000 ms
    # the bucket spent at 0 is full, and the one spent at 1 is not.
    floor = ThrottlePolicy.SWEEP_FLOOR

    def verdicts(policy):
        policy.admit("spent_at_0", 0)
        policy.admit("spent_at_1", 1)
        for i in range(floor):
            policy.admit(f"f{i}", 5_000)
        held = set(policy.buckets)
        return held, [policy.admit(src, 5_000)
                      for src in ("spent_at_0", "spent_at_0", "spent_at_1",
                                  "spent_at_1")]

    spec = BucketSpec(0.2, 2, 10**6, 10**6)
    held, swept = verdicts(ThrottlePolicy(spec))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ThrottlePolicy, "SWEEP_FLOOR", 10**9)
        _, kept = verdicts(ThrottlePolicy(spec))
    assert "spent_at_0" not in held and "spent_at_1" in held
    assert swept == kept == [True, True, True, False]


@pytest.mark.parametrize("answer_ms, verdict", [(40_000, "forward"),
                                                (40_001, "drop")])
def test_a_sweep_drops_a_flow_only_once_its_nonce_is_stale(answer_ms,
                                                            verdict):
    # A nonce issued at 0 verifies up to `echo_max_age_ms` (40 s) later.
    g = make_guard()
    _, first = g.decide(proxied(src="a"), 0)
    for i in range(ThrottlePolicy.SWEEP_FLOOR):
        g.decide(proxied(src=f"f{i}"), answer_ms)
    assert ("a" in g.flows) == (verdict == "forward")
    action, _ = g.decide(proxied(src="a", token=b"\x02", echo=first["echo"]),
                         answer_ms)
    assert action == verdict
