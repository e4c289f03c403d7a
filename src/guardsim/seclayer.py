"""Simulation-grade security layer.

A deterministic authenticated cipher built on SHAKE128 (FIPS 202) stands in
for AES-CCM; it is explicitly insecure and exists only so that protection,
tampering and replay behave faithfully inside the simulator. The interface
is small enough that a real AEAD could be dropped in.

The keystream is `shake_128(b"k" + key + nonce)`, XORed over the plaintext,
and the 8-byte tag is `shake_128(b"t" + key + nonce + aad + plaintext)` with
a 4-byte big-endian length in front of each of key, nonce and aad, so that
no two (nonce, aad) splits of the same bytes share a tag.
`shake_128` comes from CPython's built-in `_sha3` module rather than
`hashlib`, whose import loads OpenSSL. Key derivation, key ids and key
confirmation keep FNV-1a (`fnv1a64`), because their outputs reach kids,
tokens and seeds.
"""

from __future__ import annotations

from functools import cached_property

from _sha3 import shake_128

from .coap_lite import (SimMessage, deserialize_inner, message_size,
                        serialize_inner)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1

TAG_LEN = 8
DEFAULT_REPLAY_WINDOW = 32
DEFAULT_MAX_SEQ = 1 << 23


class AuthError(Exception):
    pass


class ReplayError(Exception):
    pass


class UnknownKid(Exception):
    pass


class SeqExhausted(Exception):
    pass


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over `data`."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def _xor_keystream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """`data` XORed with the keystream, as one integer XOR."""
    ks = shake_128(b"k" + key + nonce).digest(len(data))
    return (int.from_bytes(data, "big") ^ int.from_bytes(ks, "big")).to_bytes(
        len(data), "big")


def _framed(field: bytes) -> bytes:
    return len(field).to_bytes(4, "big") + field


def _tag(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    return shake_128(b"t" + _framed(key) + _framed(nonce) + _framed(aad)
                     + plaintext).digest(TAG_LEN)


def aead_seal(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """XOR-keystream encryption plus a 64-bit keyed tag over the plaintext."""
    return _xor_keystream(key, nonce, plaintext) + _tag(key, nonce, aad, plaintext)


def aead_open(key: bytes, nonce: bytes, aad: bytes, sealed: bytes) -> bytes:
    if len(sealed) < TAG_LEN:
        raise AuthError("sealed input shorter than tag")
    pt = _xor_keystream(key, nonce, sealed[:-TAG_LEN])
    if _tag(key, nonce, aad, pt) != sealed[-TAG_LEN:]:
        raise AuthError("tag mismatch")
    return pt


def derive_key(master: bytes, info: bytes) -> bytes:
    """16-byte subkey from a master secret (two domain-separated FNV passes)."""
    a = fnv1a64(b"k1" + master + info).to_bytes(8, "big")
    b = fnv1a64(b"k2" + master + info).to_bytes(8, "big")
    return a + b


# --- Anti-replay sliding window ------------------------------------------


class ReplayWindow:
    """Bitmap sliding window over the highest received sequence number."""

    def __init__(self, size: int = DEFAULT_REPLAY_WINDOW):
        self.size = size
        self.highest = -1
        self.bitmap = 0

    def check(self, seq: int) -> bool:
        """True iff `seq` would be accepted, without mutating the window."""
        if self.highest < 0:
            return True
        if seq > self.highest:
            return True
        diff = self.highest - seq
        if diff >= self.size:
            return False
        return not (self.bitmap >> diff) & 1

    def accept(self, seq: int) -> bool:
        """Check and, when acceptable, mark `seq` and slide the window."""
        if not self.check(seq):
            return False
        if seq > self.highest:
            shift = seq - self.highest if self.highest >= 0 else self.size
            if shift >= self.size:
                self.bitmap = 1
            else:
                self.bitmap = ((self.bitmap << shift) | 1) & ((1 << self.size) - 1)
            self.highest = seq
        else:
            self.bitmap |= 1 << (self.highest - seq)
        return True


# --- OSCORE-lite context ---------------------------------------------------


class SecurityContext:
    def __init__(self, sender_id: bytes, recipient_id: bytes,
                 master_key: bytes, replay_window: ReplayWindow | None = None):
        self.sender_id = sender_id
        self.recipient_id = recipient_id
        self.master_key = master_key
        self.sender_seq = 0
        self.replay_window = (ReplayWindow() if replay_window is None
                              else replay_window)

    # Derived once per context: the ids and master key never change after
    # construction.
    @cached_property
    def sender_key(self) -> bytes:
        return derive_key(self.master_key, b"key" + self.sender_id)

    @cached_property
    def recipient_key(self) -> bytes:
        return derive_key(self.master_key, b"key" + self.recipient_id)


def next_piv(ctx: SecurityContext) -> int:
    """Use up and return the context's next sender sequence number, the
    piv of the next request or tunnel frame it seals; raises SeqExhausted
    once `DEFAULT_MAX_SEQ` are used."""
    piv = ctx.sender_seq
    if piv >= DEFAULT_MAX_SEQ:
        raise SeqExhausted(f"sender sequence at limit {DEFAULT_MAX_SEQ}")
    ctx.sender_seq = piv + 1
    return piv


def aead_nonce(kid: bytes, piv: int) -> bytes:
    """Per-message nonce: the sender's kid followed by the 5-byte piv."""
    return kid + piv.to_bytes(5, "big")


def oscore_protect(ctx: SecurityContext, inner: SimMessage,
                   request_piv: int | None = None) -> SimMessage:
    """Protect `inner`, exposing only kid and piv to on-path observers.

    Requests take their piv from `next_piv`; responses reuse the request's
    piv and bind to it through the associated data, giving the
    request/response binding that proxies can rely on.
    """
    plaintext = serialize_inner(inner)
    if request_piv is None:
        piv = next_piv(ctx)
        aad = b"req"
    else:
        piv = request_piv
        aad = b"resp" + request_piv.to_bytes(5, "big")
    sealed = aead_seal(ctx.sender_key, aead_nonce(ctx.sender_id, piv), aad,
                       plaintext)
    return inner.copy(
        code="POST" if request_piv is None else "2.04",
        oscore_kid=ctx.sender_id,
        oscore_piv=piv,
        payload_len=inner_payload_size(inner),
        payload={},
        payload_kind="oscore",
        echo=None,
        sealed=sealed,
    )


def inner_payload_size(inner: SimMessage) -> int:
    """Declared outer payload size: inner size plus the authentication tag."""
    return message_size(inner) + TAG_LEN


def open_sealed(ctx: SecurityContext, msg: SimMessage, aad: bytes,
                replay: bool = True) -> bytes:
    """Verify and decrypt `msg.sealed` under `ctx`.

    With `replay`, the piv is first checked against the replay window, and
    the window only advances once the tag verifies.
    """
    piv = msg.oscore_piv or 0
    if replay and not ctx.replay_window.check(piv):
        raise ReplayError(f"piv {piv} replayed or below window")
    plaintext = aead_open(ctx.recipient_key, aead_nonce(msg.oscore_kid, piv),
                          aad, msg.sealed)
    if replay:
        ctx.replay_window.accept(piv)
    return plaintext


def oscore_unprotect(ctx: SecurityContext, msg: SimMessage,
                     request_piv: int | None = None) -> SimMessage:
    """Verify and decrypt a protected message.

    Requests are additionally checked against the replay window; responses
    are bound to their request's piv instead.
    """
    if msg.oscore_kid is None or msg.sealed is None:
        raise UnknownKid("message carries no OSCORE header")
    if msg.oscore_kid != ctx.recipient_id:
        raise UnknownKid(f"kid {msg.oscore_kid.hex()} not known to this context")
    if request_piv is None:
        plaintext = open_sealed(ctx, msg, b"req")
    else:
        aad = b"resp" + request_piv.to_bytes(5, "big")
        plaintext = open_sealed(ctx, msg, aad, replay=False)
    return deserialize_inner(plaintext, msg.copy(oscore_kid=None, oscore_piv=None,
                                                 sealed=None))


# --- Key-exchange derivation ----------------------------------------------

EDHOC_MSG_SIZES = (40, 120, 90)


def edhoc_master(ephemeral_a: bytes, ephemeral_b: bytes) -> bytes:
    """Shared secret from both ephemerals (order-independent mix)."""
    lo, hi = sorted((ephemeral_a, ephemeral_b))
    return derive_key(lo + hi, b"edhoc")


def edhoc_kid(ephemeral: bytes) -> bytes:
    """1-byte key id of the side that drew `ephemeral`."""
    return fnv1a64(b"kid" + ephemeral).to_bytes(8, "big")[-1:]


def edhoc_derive(ephemeral: bytes, peer_ephemeral: bytes) -> SecurityContext:
    """This side's context from its own and its peer's ephemeral, once the
    handshake has both; initiator and responder call it alike.

    The two sides end up with mirrored contexts: each party's sender id is
    the other's recipient id. A deterministic tiebreak keeps the two 1-byte
    kids distinct. The replay window has the default size.
    """
    master = edhoc_master(ephemeral, peer_ephemeral)
    lo, hi = sorted((ephemeral, peer_ephemeral))
    kid_lo = edhoc_kid(lo)
    kid_hi = edhoc_kid(hi)
    if kid_lo == kid_hi:
        kid_hi = bytes([(kid_hi[0] + 1) & 0xFF])
    own, peer = (kid_lo, kid_hi) if ephemeral == lo else (kid_hi, kid_lo)
    return SecurityContext(sender_id=own, recipient_id=peer, master_key=master)


def edhoc_confirmation(master: bytes) -> bytes:
    """Key-confirmation value carried in the third handshake message."""
    return fnv1a64(b"confirm" + master).to_bytes(8, "big")
