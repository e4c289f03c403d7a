"""Toy AEAD, anti-replay window, protected messaging, key exchange."""

import hashlib
import os
import random
import struct
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import guardsim
from guardsim.coap_lite import SimMessage
from guardsim.seclayer import (DEFAULT_MAX_SEQ, AuthError, ReplayError,
                               ReplayWindow, SecurityContext, SeqExhausted,
                               UnknownKid, aead_open, aead_seal, derive_key,
                               edhoc_confirmation, edhoc_derive, edhoc_master,
                               fnv1a64, oscore_protect, oscore_unprotect)

# Frozen outputs of an independent FNV-1a reference implementation.
FNV_VECTORS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"A": 0xAF63FC4C860222EC,
}


def test_fnv1a64_reference_vectors():
    for data, expected in FNV_VECTORS.items():
        assert fnv1a64(data) == expected


# --- AEAD -------------------------------------------------------------------

def _reference_seal(key, nonce, aad, plaintext):
    """The AEAD by its definition, on hashlib's SHAKE128 (OpenSSL's where
    the build links it) rather than the `_sha3` module guardsim imports,
    with the keystream XORed one byte at a time and each tag field
    length-prefixed by `struct`."""
    ks = hashlib.shake_128(b"k" + key + nonce).digest(len(plaintext))
    ct = bytes(p ^ k for p, k in zip(plaintext, ks))
    tag_input = b"t" + b"".join(struct.pack(">I", len(f)) + f
                                for f in (key, nonce, aad))
    return ct + hashlib.shake_128(tag_input + plaintext).digest(8)


# Short frames, lengths around the first SHAKE128 rate-block boundaries
# (168 and 336 bytes), and frames longer than any the tunnel carries.
@pytest.mark.parametrize("length", [*range(71), 167, 168, 169, 335, 336, 337,
                                    *range(2040, 2057)])
def test_aead_matches_per_byte_reference(length):
    rng = random.Random(length)
    for aad in (b"", rng.randbytes(rng.randint(1, 12))):
        key = rng.randbytes(16)
        nonce = rng.randbytes(rng.randint(1, 13))
        plaintext = rng.randbytes(length)
        sealed = aead_seal(key, nonce, aad, plaintext)
        assert sealed == _reference_seal(key, nonce, aad, plaintext)
        assert aead_open(key, nonce, aad, sealed) == plaintext


def test_seal_empty_plaintext_is_tag_only():
    out = aead_seal(bytes(16), b"\x00", b"", b"")
    assert len(out) == 8


# Frozen outputs of `_reference_seal`.
SEAL_VECTORS = [
    ((bytes(16), b"\x00", b"", b""), "e4ae5905a08cefa8"),
    ((bytes(16), b"\x00", b"", b"A"), "d953225f987af51d01"),
    ((b"k" * 16, b"n", b"aad", b"hello world"),
     "c63c03d8061891eda2a931fa9d5859d1599010"),
]


def test_seal_fixed_vector():
    for args, expected in SEAL_VECTORS:
        assert aead_seal(*args).hex() == expected
        assert aead_open(*args[:3], bytes.fromhex(expected)) == args[3]


def test_tag_separates_nonce_from_aad():
    """The same bytes split differently between nonce and aad are a
    different tag input, even with nothing encrypted."""
    key = bytes(16)
    sealed = aead_seal(key, b"ab", b"c", b"")
    with pytest.raises(AuthError):
        aead_open(key, b"a", b"bc", sealed)


@given(st.binary(max_size=64), st.binary(min_size=16, max_size=16),
       st.binary(min_size=1, max_size=8), st.binary(max_size=16))
def test_seal_open_round_trip(plaintext, key, nonce, aad):
    assert aead_open(key, nonce, aad, aead_seal(key, nonce, aad, plaintext)) \
        == plaintext


keys = st.binary(min_size=16, max_size=16)
nonces = st.binary(min_size=1, max_size=13)
aads = st.binary(max_size=16)


@given(keys, nonces, aads, st.binary(max_size=64), st.data())
def test_open_detects_single_bit_flip(key, nonce, aad, plaintext, data):
    """Any one bit flipped, in the ciphertext or in the tag, fails auth."""
    sealed = aead_seal(key, nonce, aad, plaintext)
    bit = data.draw(st.integers(0, 8 * len(sealed) - 1), label="bit")
    tampered = bytearray(sealed)
    tampered[bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(AuthError):
        aead_open(key, nonce, aad, bytes(tampered))


@given(keys, nonces, aads, st.binary(max_size=64), st.data())
def test_open_wrong_key_or_aad_fails(key, nonce, aad, plaintext, data):
    """A different key, nonce or aad fails auth; the right ones open."""
    sealed = aead_seal(key, nonce, aad, plaintext)
    other_key = data.draw(keys.filter(lambda k: k != key), label="key")
    other_nonce = data.draw(nonces.filter(lambda n: n != nonce), label="nonce")
    other_aad = data.draw(aads.filter(lambda a: a != aad), label="aad")
    for args in ((other_key, nonce, aad), (key, other_nonce, aad),
                 (key, nonce, other_aad)):
        with pytest.raises(AuthError):
            aead_open(*args, sealed)
    assert aead_open(key, nonce, aad, sealed) == plaintext


def test_open_short_input_rejected():
    with pytest.raises(AuthError):
        aead_open(b"k" * 16, b"n", b"", b"\x01\x02")


def test_importing_guardsim_loads_no_openssl_hashlib():
    """The AEAD's SHAKE128 comes from the built-in `_sha3`: importing
    `hashlib` would load OpenSSL's libcrypto, several MB of resident
    memory, for every run."""
    src = os.path.dirname(os.path.dirname(guardsim.__file__))
    code = ("import sys, guardsim.harness; "
            "print(' '.join(m for m in ('hashlib', '_hashlib', '_sha3') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["_sha3"]


# --- replay window -----------------------------------------------------------

class SetOracle:
    """Brute-force reference: full set of accepted seqs plus the window rule."""

    def __init__(self, size):
        self.size = size
        self.accepted = set()
        self.highest = -1

    def accept(self, seq):
        if seq in self.accepted:
            return False
        if self.highest >= 0 and seq <= self.highest - self.size:
            return False
        self.accepted.add(seq)
        self.highest = max(self.highest, seq)
        return True


def test_fresh_window_accepts_zero():
    assert ReplayWindow().accept(0)


def test_highest_is_already_marked():
    w = ReplayWindow()
    w.accept(5)
    assert not w.accept(5)


def test_window_boundary_example():
    # W=32, highest=100: 68 is below the window, 69 is the oldest acceptable.
    w = ReplayWindow(size=32)
    w.accept(100)
    assert not w.check(68)
    assert w.check(69)
    # Brute-force comparison across the whole 0..200 range.
    oracle = SetOracle(32)
    oracle.accept(100)
    for seq in range(201):
        assert w.check(seq) == (seq not in oracle.accepted
                                and seq > oracle.highest - 32), seq


def test_randomized_ops_match_set_oracle():
    rng = random.Random(1000)
    w = ReplayWindow(size=32)
    oracle = SetOracle(32)
    for _ in range(1000):
        seq = rng.randrange(0, 120)
        assert w.accept(seq) == oracle.accept(seq)


@given(st.lists(st.integers(0, 40), max_size=60),
       st.sampled_from([4, 8, 16, 32, 64]))
def test_window_equivalence_property(seqs, size):
    w = ReplayWindow(size=size)
    oracle = SetOracle(size)
    for seq in seqs:
        assert w.accept(seq) == oracle.accept(seq)


# --- protected messaging -------------------------------------------------------

def make_pair():
    client = SecurityContext(sender_id=b"\x01", recipient_id=b"\x02",
                             master_key=b"m" * 16)
    server = SecurityContext(sender_id=b"\x02", recipient_id=b"\x01",
                             master_key=b"m" * 16)
    return client, server


def test_context_subkeys_are_derived_once_and_mirrored():
    client, server = make_pair()
    assert client.sender_key == derive_key(b"m" * 16, b"key\x01")
    assert client.recipient_key == derive_key(b"m" * 16, b"key\x02")
    assert client.sender_key is client.sender_key
    assert (server.sender_key, server.recipient_key) \
        == (client.recipient_key, client.sender_key)


def inner_request():
    return SimMessage(src="cli", dst="srv", code="GET",
                      payload_kind="app_request", payload_len=8)


def test_requests_carry_consecutive_pivs():
    client, _ = make_pair()
    first = oscore_protect(client, inner_request())
    second = oscore_protect(client, inner_request())
    assert (first.oscore_piv, second.oscore_piv) == (0, 1)


def test_protected_message_hides_inner_code():
    client, _ = make_pair()
    msg = oscore_protect(client, inner_request())
    assert msg.oscore_kid == b"\x01"
    assert msg.oscore_piv == 0
    assert msg.code != "GET"  # outer code reveals nothing about the inner one
    assert msg.payload == {}
    assert msg.sealed is not None


def test_unprotect_round_trip():
    client, server = make_pair()
    msg = oscore_protect(client, inner_request())
    inner = oscore_unprotect(server, msg)
    assert inner.code == "GET"
    assert inner.payload_kind == "app_request"


def test_second_delivery_is_replay():
    client, server = make_pair()
    msg = oscore_protect(client, inner_request())
    oscore_unprotect(server, msg)
    with pytest.raises(ReplayError):
        oscore_unprotect(server, msg.copy())


def test_guessed_kid_wrong_key_fails_auth():
    client, server = make_pair()
    attacker = SecurityContext(sender_id=b"\x01", recipient_id=b"\x02",
                               master_key=b"wrong-master-key")
    msg = oscore_protect(attacker, inner_request())
    assert msg.oscore_kid == client.sender_id  # right kid, wrong key
    with pytest.raises(AuthError):
        oscore_unprotect(server, msg)


def test_unknown_kid_rejected():
    _, server = make_pair()
    other = SecurityContext(sender_id=b"\x09", recipient_id=b"\x02",
                            master_key=b"m" * 16)
    msg = oscore_protect(other, inner_request())
    with pytest.raises(UnknownKid):
        oscore_unprotect(server, msg)


def test_failed_auth_does_not_advance_window():
    client, server = make_pair()
    good = oscore_protect(client, inner_request())  # piv 0
    bad = good.copy(sealed=b"\x00" * len(good.sealed))
    with pytest.raises(AuthError):
        oscore_unprotect(server, bad)
    # The genuine message with the same piv must still be accepted.
    assert oscore_unprotect(server, good).code == "GET"


def test_response_binds_to_request_piv():
    # Cross-pair two requests and two responses: only matching pairs verify.
    client, server = make_pair()
    req = [oscore_protect(client, inner_request()) for _ in range(2)]
    reply = SimMessage(src="srv", dst="cli", code="2.05",
                       payload_kind="app_response", payload_len=16)
    resp = [oscore_protect(server, reply, request_piv=r.oscore_piv)
            for r in req]
    for i in range(2):
        for j in range(2):
            if i == j:
                out = oscore_unprotect(client, resp[i],
                                       request_piv=req[j].oscore_piv)
                assert out.code == "2.05"
            else:
                with pytest.raises(AuthError):
                    oscore_unprotect(client, resp[i],
                                     request_piv=req[j].oscore_piv)


def test_sender_seq_exhaustion():
    client, _ = make_pair()
    client.sender_seq = DEFAULT_MAX_SEQ
    with pytest.raises(SeqExhausted):
        oscore_protect(client, inner_request())


def test_cross_context_messages_rejected():
    client_a, server_a = make_pair()
    client_b = SecurityContext(sender_id=b"\x01", recipient_id=b"\x02",
                               master_key=b"other-master-16b")
    msg = oscore_protect(client_b, inner_request())
    with pytest.raises(AuthError):
        oscore_unprotect(server_a, msg)


# --- key exchange derivation ------------------------------------------------------

def test_edhoc_master_order_independent():
    assert edhoc_master(b"aaaa", b"bbbb") == edhoc_master(b"bbbb", b"aaaa")


def test_edhoc_contexts_are_mirrored():
    ctx_i = edhoc_derive(b"eph-i-01", b"eph-r-02")
    ctx_r = edhoc_derive(b"eph-r-02", b"eph-i-01")
    assert ctx_i.master_key == ctx_r.master_key
    assert ctx_i.sender_id == ctx_r.recipient_id
    assert ctx_i.recipient_id == ctx_r.sender_id
    assert ctx_i.sender_id != ctx_i.recipient_id


def test_edhoc_contexts_interoperate():
    ctx_i, ctx_r = edhoc_derive(b"E1", b"E2"), edhoc_derive(b"E2", b"E1")
    msg = oscore_protect(ctx_i, inner_request())
    assert oscore_unprotect(ctx_r, msg).code == "GET"
    reply = SimMessage(src="srv", dst="cli", code="2.05", payload_len=4)
    back = oscore_protect(ctx_r, reply, request_piv=msg.oscore_piv)
    assert oscore_unprotect(ctx_i, back, request_piv=msg.oscore_piv).code == "2.05"


def test_edhoc_confirmation_depends_on_master():
    assert edhoc_confirmation(b"m1") != edhoc_confirmation(b"m2")
    assert edhoc_confirmation(b"m1") == edhoc_confirmation(b"m1")
