"""Authorization tokens: issuance, verification, audiences granted to a
client guard's key, key binding, and the AS that hands tokens out."""

import copy

import pytest

from guardsim.ace import (TOKEN_LIFETIME_MS, AccessToken, AsRegistry, Denied,
                          InvalidToken, ace_context_master, ace_kid_pair,
                          issue_token, tunnel_contexts, unseal_bound_key,
                          verify_token)
from guardsim.actors import AsNode
from guardsim.coap_lite import SimMessage, message_size
from guardsim.netsim import Frame, World
from guardsim.seclayer import (AuthError, SecurityContext, aead_nonce,
                               aead_seal, next_piv, open_sealed,
                               oscore_protect, oscore_unprotect)

AUD_KEY = b"audience-key-01!"
CLI_KEY = b"client-key-0001!"
CGP_KEY = b"clientguardkey1!"


def make_registry():
    reg = AsRegistry()
    reg.add_subject("key_cli", CLI_KEY, {"aud_srv"})
    reg.add_subject("key_cgp", CGP_KEY, set())
    reg.add_audience("aud_srv", AUD_KEY)
    return reg


def test_issue_and_verify_happy_path():
    reg = make_registry()
    token = issue_token(reg, {"subject_key_id": "key_cli",
                              "audience": "aud_srv"}, now=1000)
    assert verify_token(token, AUD_KEY, "aud_srv", now=2000) is None
    assert token.subject_key_id == "key_cli"
    assert token.audience == "aud_srv"


def test_unknown_subject_denied():
    reg = make_registry()
    with pytest.raises(Denied):
        issue_token(reg, {"subject_key_id": "nobody", "audience": "aud_srv"},
                    now=0)


def test_unauthorized_audience_denied():
    reg = make_registry()
    with pytest.raises(Denied):
        issue_token(reg, {"subject_key_id": "key_cgp", "audience": "aud_srv"},
                    now=0)


def test_granted_guard_key_gets_a_token_bound_to_itself():
    reg = make_registry()
    reg.grant("key_cgp", "aud_srv")
    token = issue_token(reg, {"subject_key_id": "key_cgp",
                              "audience": "aud_srv"}, now=0)
    assert token.subject_key_id == "key_cgp"
    # The sealed key inside is the guard's, not the client's.
    assert unseal_bound_key(token, AUD_KEY) == CGP_KEY


def test_tampered_token_bad_tag():
    reg = make_registry()
    token = issue_token(reg, {"subject_key_id": "key_cli",
                              "audience": "aud_srv"}, now=0)
    tampered = copy.copy(token)
    tampered.expiry += TOKEN_LIFETIME_MS
    with pytest.raises(InvalidToken) as e:
        verify_token(tampered, AUD_KEY, "aud_srv", now=1)
    assert e.value.reason == "bad_tag"
    flipped = copy.copy(token)
    flipped.tag = bytes([flipped.tag[0] ^ 1]) + flipped.tag[1:]
    with pytest.raises(InvalidToken) as e:
        verify_token(flipped, AUD_KEY, "aud_srv", now=1)
    assert e.value.reason == "bad_tag"


def test_wrong_audience_rejected():
    reg = make_registry()
    reg.add_audience("aud_other", b"other-audiencek!")
    token = issue_token(reg, {"subject_key_id": "key_cli",
                              "audience": "aud_srv"}, now=0)
    with pytest.raises(InvalidToken) as e:
        verify_token(token, b"other-audiencek!", "aud_other", now=1)
    # The tag key differs too, so the failure surfaces as a bad tag first.
    assert e.value.reason == "bad_tag"
    # Same tag key but a different expected audience name:
    with pytest.raises(InvalidToken) as e:
        verify_token(token, AUD_KEY, "aud_other", now=1)
    assert e.value.reason == "wrong_audience"


def test_expiry_boundary_is_exclusive():
    reg = make_registry()
    token = issue_token(reg, {"subject_key_id": "key_cli",
                              "audience": "aud_srv"}, now=0)
    verify_token(token, AUD_KEY, "aud_srv", now=TOKEN_LIFETIME_MS - 1)
    with pytest.raises(InvalidToken) as e:
        verify_token(token, AUD_KEY, "aud_srv", now=TOKEN_LIFETIME_MS)
    assert e.value.reason == "expired"
    assert str(e.value) == "expired"  # the constructor argument, in `args`


def test_forged_token_never_verifies():
    token = AccessToken(audience="aud_srv", subject_key_id="key_cli",
                        issued_at=0, expiry=10_000,
                        sealed_key=b"\x00" * 24, tag=b"\x00" * 8)
    with pytest.raises(InvalidToken):
        verify_token(token, AUD_KEY, "aud_srv", now=1)


def test_bound_key_unseals_only_with_audience_key():
    reg = make_registry()
    token = issue_token(reg, {"subject_key_id": "key_cli",
                              "audience": "aud_srv"}, now=0)
    assert unseal_bound_key(token, AUD_KEY) == CLI_KEY
    with pytest.raises(AuthError):
        unseal_bound_key(token, b"not-the-aud-key!")


def test_token_replay_without_bound_key_fails_at_first_message():
    """Observing a token is not enough: the exchange completes, but the
    replayer derives the wrong context and its first request fails."""
    nonce_c, nonce_s = b"nonce-cl", b"nonce-sv"
    kid_c, kid_s = ace_kid_pair(nonce_c, nonce_s)
    server_master = ace_context_master(CLI_KEY, nonce_c, nonce_s)
    server_ctx = SecurityContext(sender_id=kid_s, recipient_id=kid_c,
                                 master_key=server_master)
    # Attacker saw the token and both nonces but not the bound key.
    attacker_master = ace_context_master(b"guessed-key-0000", nonce_c, nonce_s)
    attacker_ctx = SecurityContext(sender_id=kid_c, recipient_id=kid_s,
                                   master_key=attacker_master)
    msg = oscore_protect(attacker_ctx, SimMessage(src="x0", dst="srv",
                                                  code="GET", payload_len=4))
    with pytest.raises(AuthError):
        oscore_unprotect(server_ctx, msg)
    # The honest holder of the bound key works fine.
    honest_ctx = SecurityContext(sender_id=kid_c, recipient_id=kid_s,
                                 master_key=server_master)
    good = oscore_protect(honest_ctx, SimMessage(src="cli", dst="srv",
                                                 code="GET", payload_len=4))
    assert oscore_unprotect(server_ctx, good).code == "GET"


def test_tunnel_contexts_are_mirrored_ends():
    nonce_c, nonce_s = b"nonce-cl", b"nonce-sv"
    client, server = tunnel_contexts(CGP_KEY, nonce_c, nonce_s)
    assert (client.sender_id, server.sender_id) == ace_kid_pair(nonce_c,
                                                                nonce_s)
    assert (client.recipient_id, server.recipient_id) == \
        (server.sender_id, client.sender_id)
    assert client.master_key == server.master_key == \
        ace_context_master(CGP_KEY, nonce_c, nonce_s)
    for sender, receiver in ((client, server), (server, client)):
        for data in (b"first frame", b"second frame"):
            piv = next_piv(sender)
            sealed = aead_seal(sender.sender_key,
                               aead_nonce(sender.sender_id, piv), b"tun", data)
            frame = SimMessage(src="a", dst="b", oscore_kid=sender.sender_id,
                               oscore_piv=piv, sealed=sealed)
            assert open_sealed(receiver, frame, b"tun") == data


def test_kid_pair_distinct():
    for seed in range(50):
        a, b = ace_kid_pair(bytes([seed]) * 8, bytes([seed + 1]) * 8)
        assert a != b


def test_as_answers_with_the_token_it_issued():
    """The AS's answer carries the token itself, and it verifies."""
    authority = AsNode(World(seed=1), make_registry(), address="as")
    sent = []
    authority.send_frame = lambda msg, origin: sent.append(msg)
    req = SimMessage(src="rtrC", dst="as", mid=1, token=b"\x01",
                     code="POST", payload_kind="as_token_request",
                     payload={"purpose": "tunnel_token",
                              "subject_key_id": "key_cli",
                              "audience": "aud_srv"}, payload_len=50)
    authority.handle(Frame(req, "legit", message_size(req)), "rtrS")
    answer, = sent
    assert (answer.code, answer.payload_kind) == ("2.01", "as_response")
    token = answer.payload["token"]
    assert isinstance(token, AccessToken)
    assert (token.subject_key_id, token.audience) == ("key_cli", "aud_srv")
    verify_token(token, AUD_KEY, "aud_srv", now=10)
