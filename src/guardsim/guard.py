"""Guard proxy policy engine.

Pure decision logic: traffic classes, two-level token-bucket throttling,
Echo reachability challenges, the allow-list fed by observed protected
responses, whose idle entries expire, and sequence-number plausibility
tracking. This module only decides and records: `GuardState.decide`
returns an action and, for a challenge, the Echo nonce it recorded. The
owning node builds and sends every message, the 4.01 challenges included.

A source holds one pending Echo nonce, for an unknown client or a piv jump
alike, until it is answered or `echo_max_age_ms` old. A verified Echo moves
the sequence tracker past a jump (RFC 8613 Appendix B.1.2).
"""

from __future__ import annotations

import math

from .coap_lite import SimMessage

# Priority classes, highest first. Tunnel and AllowListed bypass throttling
# entirely.
TUNNEL = "tunnel"
ALLOW_LISTED = "allow_listed"
REACHABILITY_VERIFIED = "reachability_verified"
UNKNOWN_VIA_PROXY = "unknown_via_proxy"
NON_PROXY = "non_proxy"

CLASS_PRIORITY = {
    TUNNEL: 5,
    ALLOW_LISTED: 5,
    REACHABILITY_VERIFIED: 4,
    UNKNOWN_VIA_PROXY: 3,
    NON_PROXY: 2,
}

DEFAULT_JUMP_THRESHOLD = 128
DEFAULT_SEQ_MEMORY = 64


class TokenBucket:
    """Continuous-refill token bucket; deterministic given call order."""

    __slots__ = ("rate", "burst", "tokens", "last_ms")

    def __init__(self, rate_per_s: float, burst: float):
        self.rate = rate_per_s
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_ms = 0

    def admit(self, now_ms: int) -> bool:
        # One comparison caps the refill where `min()` would: the same float
        # for every finite sum, without a builtin call per admit.
        tokens = self.tokens
        if now_ms > self.last_ms:
            tokens += (now_ms - self.last_ms) * self.rate / 1000.0
            if tokens > self.burst:
                tokens = self.burst
            self.last_ms = now_ms
        if tokens >= 1.0:
            self.tokens = tokens - 1.0
            return True
        self.tokens = tokens
        return False


class BucketSpec:
    """One traffic class's per-source and aggregate bucket settings."""

    # A config section: `bounds` declares the bound that `harness` checks.
    # A bucket admits only whole tokens, so a burst below 1 refuses all.
    per_source_rate: float
    per_source_burst: float
    aggregate_rate: float
    aggregate_burst: float
    bounds = {"per_source_burst": 1, "aggregate_burst": 1}

    def __init__(self, per_source_rate: float, per_source_burst: float,
                 aggregate_rate: float, aggregate_burst: float):
        self.per_source_rate = per_source_rate
        self.per_source_burst = per_source_burst
        self.aggregate_rate = aggregate_rate
        self.aggregate_burst = aggregate_burst


class ThrottlePolicy:
    """Two-level throttling: per-source and per-class aggregate buckets.

    A message is admitted only if both buckets have a token; the two-level
    split is what lets a single-source attacker saturate only its own
    bucket while a distributed one starves the aggregate.
    """

    def __init__(self, specs: dict[str, BucketSpec]):
        self.specs = dict(specs)
        self._aggregate = {cls: TokenBucket(spec.aggregate_rate,
                                            spec.aggregate_burst)
                           for cls, spec in self.specs.items()}
        # Per-source buckets by class, then source, so that no bucket needs
        # a (class, source) key tuple.
        self._per_source: dict[str, dict[str, TokenBucket]] = {
            cls: {} for cls in self.specs}
        # Each class's burst as one float that all its buckets share.
        self._source_burst = {cls: float(spec.per_source_burst)
                              for cls, spec in self.specs.items()}

    def admit(self, cls: str, source: str, now_ms: int) -> bool:
        buckets = self._per_source[cls]
        bucket = buckets.get(source)
        if bucket is None:
            bucket = buckets[source] = TokenBucket(
                self.specs[cls].per_source_rate, self._source_burst[cls])
        # Per-source first: a refusal there returns before the aggregate
        # bucket is touched. An aggregate refusal still spends the
        # per-source token, so a starved aggregate does not make per-source
        # budgets refillable.
        return bucket.admit(now_ms) and self._aggregate[cls].admit(now_ms)


class FlowRecord:
    """Per-source guard state, keyed by source address alone: the flow's
    class, its one pending Echo nonce and when it was issued, when it
    proved reachable, whether a known kid showed up from it as a new source
    (`elevated`), and when it was last updated: an allow-listed flow idle
    longer than `allowlist_idle_expiry_ms` falls back (`expire_idle`)."""

    __slots__ = ("cls", "echo_nonce", "echo_issued_ms", "reachable_since_ms",
                 "elevated", "last_update_ms")

    def __init__(self, now_ms: int):
        self.cls = UNKNOWN_VIA_PROXY
        self.echo_nonce: bytes | None = None
        self.echo_issued_ms: int | None = None
        self.reachable_since_ms: int | None = None
        self.elevated = False
        self.last_update_ms = now_ms


class SeqTracker:
    """Per-kid sequence observations: highest piv and recent piv->token pairs."""

    __slots__ = ("highest_seen", "seen", "known_sources")

    def __init__(self):
        self.highest_seen = -1
        self.seen: dict[int, str] = {}
        self.known_sources: set[str] = set()


PLAUSIBLE = "plausible"
IMPLAUSIBLE_JUMP = "implausible_jump"
CONFLICT = "conflict"
KNOWN_MOBILE = "known_mobile"


def seq_check(trackers: dict[bytes, SeqTracker], kid: bytes, piv: int,
              coap_token: bytes, source: str, jump_threshold: int,
              memory: int) -> str:
    """Plausibility verdict for an observed (kid, piv, token, source).

    Conflicts (piv reused under a different token) and implausible jumps
    leave the tracker untouched, so traffic forged under a guessed kid can
    never advance or pollute the legitimate context's record. Only a
    source that just answered an Echo moves the tracker past a jump:
    `GuardState.decide` then passes `math.inf` as `jump_threshold`.
    """
    tracker = trackers.get(kid)
    if tracker is None:
        tracker = trackers[kid] = SeqTracker()
    token_key = coap_token.hex()
    if piv in tracker.seen:
        if tracker.seen[piv] != token_key:
            return CONFLICT
        return PLAUSIBLE  # retransmission of a recorded pair
    if tracker.highest_seen >= 0 and piv > tracker.highest_seen + jump_threshold:
        return IMPLAUSIBLE_JUMP
    mobile = bool(tracker.known_sources) and source not in tracker.known_sources
    tracker.seen[piv] = token_key
    if len(tracker.seen) > memory:
        del tracker.seen[min(tracker.seen)]
    if piv > tracker.highest_seen:
        tracker.highest_seen = piv
    tracker.known_sources.add(source)
    return KNOWN_MOBILE if mobile else PLAUSIBLE


class GuardConfig:
    """Policy settings of the exemptions guard; the `guard` config section."""

    jump_threshold: int = DEFAULT_JUMP_THRESHOLD
    seq_memory: int = DEFAULT_SEQ_MEMORY
    echo_max_age_ms: int = 40_000
    allowlist_idle_expiry_ms: int = 600_000
    unknown_bucket: BucketSpec
    non_proxy_bucket: BucketSpec
    verified_bucket: BucketSpec

    def __init__(self):
        self.unknown_bucket = BucketSpec(0.2, 2, 1.0, 2)
        self.non_proxy_bucket = BucketSpec(0.05, 1, 0.1, 2)
        self.verified_bucket = BucketSpec(1.0, 2, 5.0, 8)


class GuardState:
    """Decision state for one guard proxy."""

    def __init__(self, proxy_address: str, config: GuardConfig, rng):
        self.proxy_address = proxy_address
        self.config = config
        self.rng = rng
        self.flows: dict[str, FlowRecord] = {}
        self.trackers: dict[bytes, SeqTracker] = {}
        self.policy = ThrottlePolicy({
            UNKNOWN_VIA_PROXY: config.unknown_bucket,
            NON_PROXY: config.non_proxy_bucket,
            REACHABILITY_VERIFIED: config.verified_bucket,
        })

    def flow(self, source: str, now_ms: int) -> FlowRecord:
        rec = self.flows.get(source)
        if rec is None:
            rec = self.flows[source] = FlowRecord(now_ms)
        return rec

    def _set_class(self, rec: FlowRecord, cls: str, now_ms: int) -> None:
        rec.cls = cls
        rec.last_update_ms = now_ms

    def expire_idle(self, rec: FlowRecord, now_ms: int) -> None:
        if (rec.cls == ALLOW_LISTED
                and now_ms - rec.last_update_ms > self.config.allowlist_idle_expiry_ms):
            self._set_class(rec, REACHABILITY_VERIFIED
                            if rec.reachable_since_ms is not None
                            else UNKNOWN_VIA_PROXY, now_ms)

    def verify_echo(self, rec: FlowRecord, msg: SimMessage, now_ms: int) -> str:
        """Verified | stale | mismatch, against the flow's one pending nonce,
        which verified and stale clear; verified lifts the flow's class."""
        if rec.echo_nonce is None or msg.echo != rec.echo_nonce:
            return "mismatch"
        issued = rec.echo_issued_ms
        rec.echo_nonce = rec.echo_issued_ms = None
        if now_ms - issued > self.config.echo_max_age_ms:
            return "stale"
        if rec.reachable_since_ms is None:
            rec.reachable_since_ms = issued
        if CLASS_PRIORITY[rec.cls] < CLASS_PRIORITY[REACHABILITY_VERIFIED]:
            self._set_class(rec, REACHABILITY_VERIFIED, now_ms)
        rec.elevated = False
        return "verified"

    def _challenge(self, rec: FlowRecord, now_ms: int, reason: str,
                   pending: dict) -> tuple[str, dict]:
        """A fresh Echo challenge, or a `pending` drop while one can verify."""
        if (rec.echo_nonce is not None
                and now_ms - rec.echo_issued_ms <= self.config.echo_max_age_ms):
            return ("drop", pending)
        nonce = rec.echo_nonce = self.rng.bytes(8)
        rec.echo_issued_ms = now_ms
        return ("challenge", {"reason": reason, "echo": nonce})

    def observe_exchange(self, source: str, request_kind: str | None,
                         response: SimMessage, now_ms: int) -> bool:
        """Promote a flow on an observably authenticated exchange; returns
        whether it allow-listed the flow.

        Only a protected response counts; a tunnel token POST's reply
        indicates acceptance but the token is not secret, so it never
        promotes.
        """
        rec = self.flow(source, now_ms)
        if response.is_protected and request_kind != "tunnel_token_post":
            self._set_class(rec, ALLOW_LISTED, now_ms)
            return True
        rec.last_update_ms = now_ms
        return False

    # --- dispatch ---------------------------------------------------------

    def decide(self, msg: SimMessage, now_ms: int) -> tuple[str, dict]:
        """Decide the fate of one message arriving from the outside.

        Returns (action, detail): action is one of "forward", "drop",
        "challenge" or "reject"; a "challenge" carries in detail the Echo
        nonce it recorded, which the 4.01 answer must carry.
        """
        if msg.dst != self.proxy_address:
            if self.policy.admit(NON_PROXY, msg.src, now_ms):
                return ("forward", {"cls": NON_PROXY})
            return ("drop", {"cls": NON_PROXY, "reason": "throttled"})

        rec = self.flow(msg.src, now_ms)
        # Only an allow-listed flow can expire; before `verify_echo`, which
        # sets the `reachable_since_ms` that the expiry reads.
        if rec.cls == ALLOW_LISTED:
            self.expire_idle(rec, now_ms)
        verified_now = (msg.echo is not None
                        and self.verify_echo(rec, msg, now_ms) == "verified")
        cls = rec.cls

        if msg.is_protected and not msg.is_response:
            seq_verdict = seq_check(self.trackers, msg.oscore_kid,
                                    msg.oscore_piv or 0, msg.token, msg.src,
                                    math.inf if verified_now
                                    else self.config.jump_threshold,
                                    self.config.seq_memory)
            if seq_verdict == CONFLICT:
                return ("reject", {"reason": "seq_conflict"})
            if seq_verdict == IMPLAUSIBLE_JUMP:
                return self._challenge(rec, now_ms, "implausible_jump",
                                       {"reason": "jump_challenge_pending"})
            if seq_verdict == KNOWN_MOBILE:
                rec.elevated = True

        if cls == ALLOW_LISTED:
            rec.last_update_ms = now_ms
            return ("forward", {"cls": cls})
        if cls == REACHABILITY_VERIFIED:
            if not self.policy.admit(REACHABILITY_VERIFIED, msg.src, now_ms):
                return ("drop", {"cls": cls, "reason": "throttled"})
            return ("forward", {"cls": cls})
        # Unknown via proxy; mobile flows are prioritized through the
        # reachability-verified buckets but still challenged.
        bucket_cls = REACHABILITY_VERIFIED if rec.elevated else UNKNOWN_VIA_PROXY
        if not self.policy.admit(bucket_cls, msg.src, now_ms):
            return ("drop", {"cls": cls, "reason": "throttled"})
        return self._challenge(rec, now_ms, "unknown_client",
                               {"cls": cls, "reason": "challenge_pending"})
