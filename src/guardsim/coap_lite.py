"""Simplified CoAP message model: addresses, sizes, ACKs, confirmable
retransmission.

Message sizes are synthetic (fixed header + token + per-option overhead +
payload length), good enough for bandwidth and energy modeling but not
wire-accurate. Addresses are plain strings; an `AddressTable` maps address
patterns, where one ending in `*` matches every address with that prefix,
to values: next hops for a node's routes, and True for the patterns a node
answers to, which is how `Node.owns` answers ownership. A table without a
prefix pattern answers through its dict's own lookup.
"""

from __future__ import annotations

import json


class EventAfterFinal(Exception):
    """A transmission event arrived after the exchange already concluded."""


FIXED_HEADER = 4
OPTION_OVERHEAD = 2

DEFAULT_BASE_TIMEOUT_MS = 2000
DEFAULT_RETRANSMIT_LIMIT = 4


class SimMessage:
    # The first nine fields are the ones a flood frame sets, in the order
    # `FloodAttacker._build_message` passes them by position: CPython
    # takes about twice as long over a class call with keywords, and flood
    # frames are most of the messages a matrix builds. Other callers pass
    # keywords. `copy` and `__eq__` read the instance `__dict__`, so it
    # holds these fields and nothing else.
    def __init__(self, src: str, dst: str, mtype: str = "CON", mid: int = 0,
                 token: bytes = b"", code: str = "GET",
                 payload_kind: str | None = None, payload: dict | None = None,
                 payload_len: int = 0, proxy_uri: str | None = None,
                 echo: bytes | None = None, oscore_kid: bytes | None = None,
                 oscore_piv: int | None = None, sealed: bytes | None = None):
        self.src = src
        self.dst = dst
        self.mtype = mtype  # CON | NON | ACK | RST
        self.mid = mid
        self.token = token
        # Request method, response class like "2.05", or "EMPTY".
        self.code = code
        # Simulation-level content; not part of the size formula beyond
        # payload_len.
        self.payload_kind = payload_kind
        self.payload = {} if payload is None else payload
        self.payload_len = payload_len
        self.proxy_uri = proxy_uri
        self.echo = echo
        self.oscore_kid = oscore_kid
        self.oscore_piv = oscore_piv
        self.sealed = sealed

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def copy(self, **changes) -> "SimMessage":
        # An unknown name in `changes` raises TypeError.
        return SimMessage(**{**self.__dict__, "payload": dict(self.payload),
                             **changes})

    @property
    def is_response(self) -> bool:
        return self.code[:1] in ("2", "4", "5")

    @property
    def is_protected(self) -> bool:
        return self.oscore_kid is not None


class AddressTable:
    """An ordered list of `(pattern, value)` entries, compiled once.

    A pattern ending in `*` matches every address with that prefix; any
    other pattern matches only itself. `get(addr)` returns the value of the
    first entry that matches `addr`, or None, so values must not be None.
    Exact patterns go in a dict and prefixes in a list kept in order; an
    exact entry that an earlier prefix covers, or that repeats an earlier
    one, can never be first to match and is left out. A table without a
    prefix pattern answers through the dict's own `get`, one C-level call;
    the `owns` of every node but the client and the attacker is such a
    table.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        self._exact: dict[str, object] = {}
        self._prefixes: list[tuple[str, object]] = []
        for pattern, value in self.entries:
            if value is None:
                raise ValueError(f"address pattern {pattern!r} maps to None")
            if pattern.endswith("*"):
                self._prefixes.append((pattern[:-1], value))
            elif pattern not in self._exact and not any(
                    pattern.startswith(p) for p, _ in self._prefixes):
                self._exact[pattern] = value
        if not self._prefixes:
            self.get = self._exact.get

    def get(self, addr: str):
        value = self._exact.get(addr)
        if value is not None:
            return value
        for prefix, value in self._prefixes:
            if addr.startswith(prefix):
                return value
        return None


def ack(req: SimMessage, src: str, code: str, **fields) -> SimMessage:
    """ACK to `req` from `src`: piggybacked response, or empty with
    code "EMPTY" and token=b"". Echoes the request's mid and token."""
    fields.setdefault("token", req.token)
    return SimMessage(src=src, dst=req.src, mtype="ACK", mid=req.mid,
                      code=code, **fields)


def piv_len(piv: int) -> int:
    return max(1, (piv.bit_length() + 7) // 8)


def message_size(msg: SimMessage) -> int:
    """Synthetic on-wire size used for bandwidth and energy accounting."""
    size = FIXED_HEADER + len(msg.token)
    if msg.proxy_uri is not None:
        size += OPTION_OVERHEAD + len(msg.proxy_uri)
    if msg.echo is not None:
        size += OPTION_OVERHEAD + len(msg.echo)
    if msg.oscore_kid is not None:
        size += OPTION_OVERHEAD + len(msg.oscore_kid) + piv_len(msg.oscore_piv or 0)
    size += msg.payload_len
    return size


def serialize_inner(msg: SimMessage) -> bytes:
    """Deterministic byte encoding of the protected parts of a message.
    Its payload's values must be JSON values: the inner messages the
    program seals carry none."""
    doc = {
        "code": msg.code,
        "payload_kind": msg.payload_kind,
        "payload": msg.payload,
        "payload_len": msg.payload_len,
        "echo": msg.echo.hex() if msg.echo is not None else None,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def deserialize_inner(data: bytes, template: SimMessage) -> SimMessage:
    doc = json.loads(data.decode())
    return template.copy(
        code=doc["code"],
        payload_kind=doc["payload_kind"],
        payload=doc["payload"],
        payload_len=doc["payload_len"],
        echo=bytes.fromhex(doc["echo"]) if doc["echo"] is not None else None,
    )


# --- Confirmable retransmission state machine ---------------------------

PENDING = "pending"
TIMED_OUT = "timed_out"


def exchange_lifetime_ms(base_timeout_ms: int, retransmit_limit: int) -> int:
    """RFC 7252 §4.8.2 EXCHANGE_LIFETIME: MAX_TRANSMIT_SPAN b*(2^n-1)*1.5,
    2*MAX_LATENCY (2*100 s) and PROCESSING_DELAY b; 247 s by default. Its
    cost grows with n, so each world computes it once for all its nodes."""
    base = base_timeout_ms
    return base * (2 ** retransmit_limit - 1) * 3 // 2 + 200_000 + base


class TxState:
    def __init__(self, base_timeout_ms: int, retransmit_limit: int):
        self.retransmit_limit = retransmit_limit
        self.attempts = 0
        self.next_timeout_ms = base_timeout_ms
        self.outcome = PENDING


def tx_step(state: TxState, event: str) -> str:
    """Advance a confirmable exchange. Events: "sent", "timer", "expire".

    Returns the action to take: "retransmit", "give_up" or "none".
    Timeouts double per attempt; with base b and limit n the k-th
    transmission happens at b*(2^(k-1)-1) and give-up at b*(2^(n+1)-1).
    After an empty ACK, "expire" ends the exchange's lifetime: a give-up.
    A response ends it outside this machine, so only a give-up is final
    here, and any event after it raises EventAfterFinal.
    """
    if state.outcome != PENDING:
        raise EventAfterFinal(f"event {event!r} after outcome {state.outcome!r}")
    if event == "sent":
        state.attempts += 1
        return "none"
    if event == "timer" and state.attempts <= state.retransmit_limit:
        state.attempts += 1
        state.next_timeout_ms *= 2
        return "retransmit"
    if event in ("timer", "expire"):
        state.outcome = TIMED_OUT
        return "give_up"
    raise ValueError(f"unknown tx event {event!r}")
