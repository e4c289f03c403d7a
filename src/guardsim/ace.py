"""Authorization server and self-contained access tokens.

Tokens are bound to a subject key and an audience, carry an integrity tag
under the AS/audience shared key, and verify without any AS round-trip.
The bound key travels inside the token sealed under that same key, so an
on-path observer can read the claims but cannot extract the key. Every
token lives `TOKEN_LIFETIME_MS`. A client guard gets tokens for an
audience under its own key once the AS has granted that key the audience
(`AsRegistry.grant`, on the client's `authorize_binding` request).
"""

from __future__ import annotations

from .seclayer import (SecurityContext, aead_open, aead_seal, derive_key,
                       fnv1a64)

TOKEN_LIFETIME_MS = 3_600_000


class Denied(Exception):
    pass


class InvalidToken(Exception):
    def __init__(self, reason: str):
        self.reason = reason  # "bad_tag" | "wrong_audience" | "expired"


class AccessToken:
    def __init__(self, audience: str, subject_key_id: str, scope: str,
                 issued_at: int, expiry: int, sealed_key: bytes,
                 tag: bytes = b""):
        self.audience = audience
        self.subject_key_id = subject_key_id
        self.scope = scope
        self.issued_at = issued_at  # ms
        self.expiry = expiry  # ms
        # The subject's bound key, sealed under the audience key.
        self.sealed_key = sealed_key
        self.tag = tag

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def claims_bytes(self) -> bytes:
        return "|".join([
            self.audience, self.subject_key_id, self.scope,
            str(self.issued_at), str(self.expiry), self.sealed_key.hex(),
        ]).encode()

    def to_wire(self) -> dict:
        """Observable wire form; tokens are not secret in this model."""
        return dict(self.__dict__)

    @classmethod
    def from_wire(cls, doc: dict) -> "AccessToken":
        return cls(**doc)


def _token_tag(audience_key: bytes, token: AccessToken) -> bytes:
    return fnv1a64(audience_key + token.claims_bytes()).to_bytes(8, "big")


class AsRegistry:
    """Who the AS knows: subject keys, their audiences, and audience tag keys."""

    def __init__(self):
        self.known_subjects: dict[str, dict] = {}
        self.audience_keys: dict[str, bytes] = {}

    def add_subject(self, key_id: str, key: bytes, audiences: set[str]) -> None:
        self.known_subjects[key_id] = {"key": key, "audiences": set(audiences)}

    def add_audience(self, audience: str, key: bytes) -> None:
        self.audience_keys[audience] = key

    def grant(self, key_id: str, audience: str) -> None:
        if key_id in self.known_subjects:
            self.known_subjects[key_id]["audiences"].add(audience)


def issue_token(registry: AsRegistry, request: dict, now: int) -> AccessToken:
    """Issue a `TOKEN_LIFETIME_MS` token for the request's (subject,
    audience), or raise Denied. The subject must already hold the audience:
    a client guard's key gets it through `AsRegistry.grant`.
    """
    subject = request["subject_key_id"]
    audience = request["audience"]
    entry = registry.known_subjects.get(subject)
    if entry is None:
        raise Denied(f"unknown subject {subject!r}")
    if audience not in entry["audiences"]:
        raise Denied(f"subject {subject!r} not authorized for {audience!r}")
    audience_key = registry.audience_keys.get(audience)
    if audience_key is None:
        raise Denied(f"no key registered for audience {audience!r}")
    sealed_key = aead_seal(audience_key, b"tokenkey", b"", entry["key"])
    token = AccessToken(
        audience=audience,
        subject_key_id=subject,
        scope=request.get("scope", ""),
        issued_at=now,
        expiry=now + TOKEN_LIFETIME_MS,
        sealed_key=sealed_key,
    )
    token.tag = _token_tag(audience_key, token)
    return token


def verify_token(token: AccessToken, audience_key: bytes, audience: str,
                 now: int) -> dict:
    """Return the claims iff tag, audience and expiry all check out.

    Expiry is exclusive: a token presented exactly at its expiry time is
    rejected. Verification is purely local (self-contained tokens).
    """
    if _token_tag(audience_key, token) != token.tag:
        raise InvalidToken("bad_tag")
    if token.audience != audience:
        raise InvalidToken("wrong_audience")
    if now >= token.expiry:
        raise InvalidToken("expired")
    return {
        "audience": token.audience,
        "subject_key_id": token.subject_key_id,
        "scope": token.scope,
        "expiry": token.expiry,
    }


def unseal_bound_key(token: AccessToken, audience_key: bytes) -> bytes:
    return aead_open(audience_key, b"tokenkey", b"", token.sealed_key)


def ace_context_master(bound_key: bytes, nonce_client: bytes,
                       nonce_server: bytes) -> bytes:
    """Master secret for the token-to-context exchange.

    A party that replays a token without holding the bound key derives a
    different master, so its first protected message fails verification
    rather than the exchange itself.
    """
    return derive_key(bound_key + nonce_client + nonce_server, b"ace")


def ace_kid_pair(nonce_client: bytes,
                 nonce_server: bytes) -> tuple[bytes, bytes]:
    """(client sender id, server sender id): 1 byte each, distinct by
    construction."""
    a = fnv1a64(b"ackid1" + nonce_client + nonce_server).to_bytes(8, "big")[-1:]
    b = fnv1a64(b"ackid2" + nonce_client + nonce_server).to_bytes(8, "big")[-1:]
    if a == b:
        b = bytes([(b[0] + 1) & 0xFF])
    return a, b


def tunnel_contexts(bound_key: bytes, nonce_client: bytes,
                    nonce_server: bytes
                    ) -> tuple[SecurityContext, SecurityContext]:
    """(client end, server end) of a tunnel: mirrored contexts, each end's
    sender id the other's recipient id, under one `ace_context_master`."""
    master = ace_context_master(bound_key, nonce_client, nonce_server)
    kid_c, kid_s = ace_kid_pair(nonce_client, nonce_server)
    return (SecurityContext(sender_id=kid_c, recipient_id=kid_s,
                            master_key=master),
            SecurityContext(sender_id=kid_s, recipient_id=kid_c,
                            master_key=master))
