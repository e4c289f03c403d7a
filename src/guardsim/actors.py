"""Behavioral node models: client, server, routers/guards, AS, rendezvous,
and the attackers: `FloodAttacker` (blind and distributed floods),
`Impersonator` and `OnPathAttacker`, each an `AttackerNode`.

Each node declares the address `patterns` it answers to, which its `owns`
matches; `build_world` derives the routers' `routes` (none for an
undeclared address) and each router's `inside` from them, and gives each
device its one link, to its router, as its `uplink`: a device sends every
frame there and routes nothing. Every guard lets in the
`GuardNode.AWAITED` answers, and `Node.match_response` ends every answer
that reaches a client, server, guard, rendezvous or AS. Every frame
leaves a node through `Node.send_via` on one of its links, every
confirmable request (plain or tunneled) is one `Exchange`, every ACK is
built by `coap_lite.ack`, every request a guard proxies goes through
`GuardNode.relay`, and `TunnelGuard.handle_outside` opens every tunnel
frame. With no trace kept, the per-frame events (link frames, energy
drains, blocks and drops, the server's handshake messages) are not built
at all.
Topology (built by the harness):

    cli* -- rtrC -- (internet) -- rtrS -- srv
                      |    |
                     rd    as        atk, x* (attached at rtrS)
"""

from __future__ import annotations

import json

from . import ace as ace_mod
from .coap_lite import (DEFAULT_BASE_TIMEOUT_MS, DEFAULT_RETRANSMIT_LIMIT,
                        AddressTable, ProxyTable, SimMessage, TxState, ack,
                        exchange_lifetime_ms, message_size, tx_step)
from .netsim import EnergyBudget, Frame, Link, World
from . import seclayer
from .seclayer import (AuthError, ReplayError, SecurityContext, UnknownKid,
                       aead_nonce, aead_seal, next_piv, open_sealed,
                       EDHOC_MSG_SIZES)
from .guard import GuardConfig, GuardState, NON_PROXY, TokenBucket, TUNNEL

REKEY_THRESHOLD = 3


class RendezvousEntry:
    """A server's announcement. Behind a tunnel guard it also names the
    guard, the AS (`as_hint`) and the `audience` its clients and their
    guards use."""

    def __init__(self, name: str, address: str,
                 proxy_address: str | None = None,
                 server_guard_key_id: str | None = None,
                 as_hint: str | None = None, audience: str | None = None):
        self.name = name
        self.address = address
        self.proxy_address = proxy_address
        self.server_guard_key_id = server_guard_key_id
        self.as_hint = as_hint
        self.audience = audience

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def to_doc(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_doc(cls, doc: dict) -> "RendezvousEntry":
        return cls(**doc)

    @property
    def published_address(self) -> str:
        return self.proxy_address or self.address


class Interaction:
    """One request the client started: a key-exchange message or an app
    request. Only the steady phase's priming request is not `counted`."""

    def __init__(self, kind: str, t_start: int, counted: bool = True):
        self.kind = kind  # "key_exchange" | "request"
        self.t_start = t_start
        self.counted = counted
        self.t_end: int | None = None
        self.retransmissions = 0
        self.outcome: str | None = None  # "completed" | "timed_out"

    def complete(self, now: int) -> None:
        if self.outcome is None:
            self.outcome = "completed"
            self.t_end = now

    def time_out(self, now: int) -> None:
        if self.outcome is None:
            self.outcome = "timed_out"
            self.t_end = now

    @property
    def latency_ms(self) -> int | None:
        return None if self.t_end is None else self.t_end - self.t_start


def serialize_full(msg: SimMessage) -> bytes:
    """Full deterministic encoding of a message, used for tunneling."""
    doc = {
        "src": msg.src, "dst": msg.dst, "mtype": msg.mtype, "mid": msg.mid,
        "token": msg.token.hex(), "code": msg.code,
        "proxy_uri": msg.proxy_uri,
        "echo": msg.echo.hex() if msg.echo else None,
        "kid": msg.oscore_kid.hex() if msg.oscore_kid else None,
        "piv": msg.oscore_piv,
        "payload_len": msg.payload_len,
        "payload_kind": msg.payload_kind,
        "payload": {k: (v.hex() if isinstance(v, bytes) else v)
                    for k, v in sorted(msg.payload.items())},
        "bin": sorted(k for k, v in msg.payload.items() if isinstance(v, bytes)),
        "sealed": msg.sealed.hex() if msg.sealed else None,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def deserialize_full(data: bytes) -> SimMessage:
    doc = json.loads(data.decode())
    binkeys = set(doc["bin"])
    return SimMessage(
        src=doc["src"], dst=doc["dst"], mtype=doc["mtype"], mid=doc["mid"],
        token=bytes.fromhex(doc["token"]), code=doc["code"],
        proxy_uri=doc["proxy_uri"],
        echo=bytes.fromhex(doc["echo"]) if doc["echo"] else None,
        oscore_kid=bytes.fromhex(doc["kid"]) if doc["kid"] else None,
        oscore_piv=doc["piv"],
        payload_len=doc["payload_len"], payload_kind=doc["payload_kind"],
        payload={k: (bytes.fromhex(v) if k in binkeys else v)
                 for k, v in doc["payload"].items()},
        sealed=bytes.fromhex(doc["sealed"]) if doc["sealed"] else None,
    )


class Node:
    # The timing of this node's confirmable exchanges: RFC 7252's defaults
    # until `build_world` sets all three from `config.coap`.
    base_timeout_ms = DEFAULT_BASE_TIMEOUT_MS
    retransmit_limit = DEFAULT_RETRANSMIT_LIMIT
    lifetime_ms = exchange_lifetime_ms(base_timeout_ms, retransmit_limit)

    # The one link a device sends on, to its router: `build_world` sets it.
    # A node without one, a router, routes each frame it sends.
    uplink = None

    def __init__(self, world: World, address: str,
                 energy: EnergyBudget | None = None):
        self.world = world
        self.address = address
        self.energy = energy
        # True for an address matching `patterns`, None for any other.
        self.owns = AddressTable((p, True) for p in self.patterns).get
        self.links = {}  # neighbor address -> outgoing Link
        self.routes = ()  # compiled by the property below
        self._mid = 0
        self._token = 0
        self.outstanding: dict[bytes, "Exchange"] = {}
        # The world's generator never draws, so the i-th node added gets
        # the same stream whenever it is built.
        self.rng = world.rng.fork(len(world.nodes) + 1)
        world.add_node(self)

    # --- identity / addressing -------------------------------------------

    @property
    def patterns(self) -> tuple[str, ...]:
        """The address patterns this node answers to: its own address."""
        return (self.address,)

    @property
    def routes(self) -> tuple[tuple[str, str], ...]:
        """`(pattern, neighbor)` entries, the first match wins. Assigning
        compiles them into the `AddressTable` that `route_to` reads."""
        return self._routes.entries

    @routes.setter
    def routes(self, entries) -> None:
        self._routes = AddressTable(entries)

    def route_to(self, dst: str) -> str | None:
        return self._routes.get(dst)

    def new_mid(self) -> int:
        self._mid = (self._mid + 1) & 0xFFFF
        return self._mid

    def new_token(self) -> bytes:
        self._token = (self._token + 1) & 0xFFFFFFFF
        return self._token.to_bytes(4, "big")

    def request(self, dst: str, kind: str, payload: dict, payload_len: int,
                code: str = "POST") -> SimMessage:
        """A CON from this node, with a fresh mid, then a fresh token: every
        request a node originates, bar the attackers' frames."""
        return SimMessage(src=self.address, dst=dst, mtype="CON",
                          mid=self.new_mid(), token=self.new_token(),
                          code=code, payload_kind=kind, payload=payload,
                          payload_len=payload_len)

    # --- transmission ------------------------------------------------------

    def send_frame(self, msg: SimMessage, origin: str) -> None:
        """Originate `msg` on behalf of `origin`: straight onto the uplink,
        or routed where there is none."""
        frame = Frame(msg, origin, message_size(msg))
        uplink = self.uplink
        if uplink is None:
            self.forward(frame, self.address)
        else:
            self.send_via(frame, uplink)

    def reply(self, req: SimMessage, origin: str, code: str, **fields) -> None:
        """Answer `req` with an ACK (see `coap_lite.ack`)."""
        self.send_frame(ack(req, self.address, code, **fields), origin)

    def receive(self, frame: Frame, from_addr: str) -> None:
        msg = frame.msg
        if self.owns(msg.dst):
            if self.energy is not None:
                if self.energy.exhausted:
                    self.world.emit("drop", self.address, reason="exhausted",
                                    origin=frame.origin)
                    return
                self.charge("rx_bytes", frame.origin, nbytes=frame.size)
                self.charge("msg", frame.origin)
            self.handle(frame, from_addr)
        else:
            self.forward(frame, from_addr)

    def forward(self, frame: Frame, from_addr: str) -> None:
        """Send `frame` on: on the uplink, or else on the link to the
        neighbour its route names."""
        link = self.uplink
        if link is None:
            neighbor = self.route_to(frame.msg.dst)
            if neighbor is None:
                self.world.emit("drop", self.address, reason="no_route",
                                dst=frame.msg.dst)
                return
            link = self.links[neighbor]
        self.send_via(frame, link)

    def send_via(self, frame: Frame, link: Link) -> None:
        """Put `frame` on `link`, one of ours; the only way out of a node.

        Frames on a "constrained" link are traced as `link_frame`. The link
        delivers to its `receiver`, the neighbour's `receive` from us.
        """
        if link.tag == "constrained" and self.world.collect_trace:
            msg = frame.msg
            self.world.emit("link_frame", link.name, dst=msg.dst, src=msg.src,
                            payload_kind=msg.payload_kind, code=msg.code,
                            origin=frame.origin)
        link.transmit(frame, link.receiver)

    def handle(self, frame: Frame, from_addr: str) -> None:
        """Serve `frame`, addressed to us: by default, drop it."""
        self.world.emit("drop", self.address, reason="unhandled",
                        kind2=frame.msg.payload_kind)

    def charge(self, event: str, cause: str, nbytes: int = 0,
               fraction: float = 1.0) -> None:
        if self.energy is None:
            return
        amount = self.energy.drain(self.energy.cost_of(event, nbytes) * fraction)
        if amount > 0:
            world = self.world
            world.ledger.add(amount, cause)
            if world.collect_trace:
                world.emit("energy", self.address, amount=amount,
                           cause=cause, event=event)

    # --- confirmable exchanges --------------------------------------------

    def send_con(self, msg: SimMessage, origin: str, on_response,
                 on_giveup=None, interaction: Interaction | None = None):
        ex = Exchange(self, msg, origin, self.send_frame, on_response,
                      on_giveup, interaction)
        ex.start()
        return ex

    def match_response(self, msg: SimMessage, frame: Frame) -> bool:
        """Consume `msg`, carried by `frame`, unless it is a request. An
        answer none of our exchanges awaits is dropped as `unsolicited` (RFC
        7252 §5.3.2). An exchange inside a tunnel (`via` set) matches only a
        message opened from the tunnel, any other only `frame.msg` itself:
        a tunnel's answer must pass the tunnel's authentication, and proxy
        mids may equal the node's own."""
        on_wire = msg is frame.msg
        if msg.mtype == "ACK" and msg.code == "EMPTY":
            for ex in self.outstanding.values():
                if ex.msg.mid == msg.mid and (ex.via is None) == on_wire:
                    ex.acked = True
                    return True
            return True  # stray ACK; swallow
        if not msg.is_response:
            return False
        ex = self.outstanding.get(msg.token)
        if ex is None or (ex.via is None) != on_wire:
            self.world.emit("drop", self.address, reason="unsolicited",
                            code=msg.code)
            return True
        del self.outstanding[msg.token]
        ex.finish()
        ex.on_response(msg, frame)
        return True


class Exchange:
    """One confirmable request, retransmitted at its owner's CoAP timing
    until a response ends it or it gives up. An empty ACK stops the
    retransmissions; it then gives up once its owner's `lifetime_ms` from
    its first send has passed.

    `send(msg, origin)` puts the request on the wire, each time it is
    (re)sent. Until it ends, it is filed under its token in
    `owner.outstanding`: for a relayed request, the only record there is.
    Retransmit and give-up events name the destination, or `via` when the
    request travels inside a tunnel.
    """

    def __init__(self, owner: Node, msg: SimMessage, origin: str, send,
                 on_response, on_giveup, interaction: Interaction | None = None,
                 via: str | None = None):
        self.owner = owner
        self.msg = msg
        self.origin = origin
        self.send = send
        self.on_response = on_response
        self.on_giveup = on_giveup
        self.interaction = interaction
        self.via = via
        self.state = TxState(owner.base_timeout_ms, owner.retransmit_limit)
        self.acked = False
        self.done = False
        self.sent_ms = owner.world.clock.now  # built and started at once

    def start(self) -> None:
        self.owner.outstanding[self.msg.token] = self
        tx_step(self.state, "sent")
        self.send(self.msg, self.origin)
        self._arm_timer()

    def _emit(self, kind: str) -> None:
        where = {"via": self.via} if self.via else {"dst": self.msg.dst}
        self.owner.world.emit(kind, self.owner.address,
                              token=self.msg.token.hex(), **where)

    def _arm_timer(self) -> None:
        self.owner.world.schedule_in(self.state.next_timeout_ms, self._timer)

    def _timer(self) -> None:
        if self.done:
            return
        expires = self.sent_ms + self.owner.lifetime_ms
        if self.acked and self.owner.world.clock.now < expires:
            # Wait for the separate response until the lifetime ends; only
            # a later time is armed, as re-arming at `now` would never end.
            self.owner.world.schedule(expires, self._timer)
            return
        action = tx_step(self.state, "expire" if self.acked else "timer")
        if action == "retransmit":
            if self.interaction is not None:
                self.interaction.retransmissions += 1
            self._emit("retransmit")
            self.send(self.msg, self.origin)
            self._arm_timer()
        else:  # give_up
            self.done = True
            self.owner.outstanding.pop(self.msg.token, None)
            self._emit("giveup")
            if self.interaction is not None:
                self.interaction.time_out(self.owner.world.clock.now)
            if self.on_giveup is not None:
                self.on_giveup()

    def finish(self) -> None:
        self.done = True


class RouterNode(Node):
    """Plain IP-level router: forwards everything, terminates nothing; a
    frame addressed to it meets `Node.handle`'s default drop."""

    # True for an address in the network behind this router's constrained
    # link, None for any other: `build_world` sets it to the `owns` of the
    # device on that link. Until then, or with no such device, nothing is.
    inside = {}.get

    def receive(self, frame: Frame, from_addr: str) -> None:
        if self.owns(frame.msg.dst):
            self.handle(frame, from_addr)
        else:
            self.forward(frame, from_addr)


class ThrottleRouter(RouterNode):
    """Indiscriminate single-bucket throttling of all traffic into `inside`.

    Sees the traffic only up to the transport layer: no flow state, no
    distinction between new and established clients.
    """

    def __init__(self, world, address, rate_per_s: float, burst: float):
        super().__init__(world, address)
        self.bucket = TokenBucket(rate_per_s, burst)

    def _inbound(self, msg: SimMessage, from_addr: str) -> bool:
        inside = self.inside
        return inside(msg.dst) is not None and inside(from_addr) is None

    def forward(self, frame: Frame, from_addr: str) -> None:
        if self._inbound(frame.msg, from_addr):
            world = self.world
            if not self.bucket.admit(world.clock.now):
                if world.collect_trace:
                    world.emit("drop", self.address, reason="throttled",
                               origin=frame.origin, dst=frame.msg.dst)
                return
        super().forward(frame, from_addr)


class RendezvousNode(Node):
    def __init__(self, world, address):
        super().__init__(world, address)
        self.entries: dict[str, RendezvousEntry] = {}

    def register(self, entry: RendezvousEntry) -> None:
        self.entries[entry.name] = entry
        self.world.emit("rd_registered", self.address, name=entry.name,
                        address=entry.address)
        if entry.server_guard_key_id is not None:
            self.world.emit("setup_step", self.address, step=3)

    def lookup(self, name: str) -> RendezvousEntry | None:
        return self.entries.get(name)

    def handle(self, frame: Frame, from_addr: str) -> None:
        msg = frame.msg
        if self.match_response(msg, frame):
            return
        if msg.payload_kind == "rd_register":
            self.register(RendezvousEntry.from_doc(msg.payload["entry"]))
            self.reply(msg, "legit", "2.01", payload_kind="rd_ack",
                       payload_len=2)
        elif msg.payload_kind == "rd_lookup":
            entry = self.lookup(msg.payload["name"])
            if entry is None:
                self.reply(msg, "legit", "4.04", payload_kind="rd_ack",
                           payload_len=2)
            else:
                self.reply(msg, "legit", "2.05", payload_kind="rd_entry",
                           payload={"entry": entry.to_doc()}, payload_len=20)
        else:
            self.world.emit("drop", self.address, reason="unknown_request")


class AsNode(Node):
    """Authorization server; channels to it are modeled as pre-secured."""

    def __init__(self, world, registry: ace_mod.AsRegistry, *, address):
        super().__init__(world, address)
        self.registry = registry

    def handle(self, frame: Frame, from_addr: str) -> None:
        msg = frame.msg
        if self.match_response(msg, frame):
            return
        if msg.payload_kind != "as_token_request":
            self.world.emit("drop", self.address, reason="unknown_request")
            return
        purpose = msg.payload.get("purpose", "token")
        if purpose == "authorize_binding":
            subject = msg.payload["subject_key_id"]
            audience = msg.payload["audience"]
            # Tokens for the audience may now be issued to the owner of the
            # client guard's key; taken on the client's word.
            if subject in self.registry.known_subjects and \
                    audience in self.registry.known_subjects[subject]["audiences"]:
                self.registry.grant(msg.payload["client_guard_key_id"],
                                    audience)
                self.world.emit("setup_step", self.address, step=4)
                self._respond(msg, "2.01", {"granted": True})
            else:
                self._respond(msg, "4.01", {"granted": False})
            return
        try:
            token = ace_mod.issue_token(self.registry, msg.payload,
                                        self.world.clock.now)
        except ace_mod.Denied as e:
            self.world.emit("token_denied", self.address, reason=str(e))
            self._respond(msg, "4.01", {"error": str(e)})
            return
        self.world.emit("token_issued", self.address,
                        subject=token.subject_key_id, audience=token.audience)
        if purpose == "tunnel_token":
            self.world.emit("setup_step", self.address, step=7)
        self._respond(msg, "2.01", {"token": token.to_wire()})

    def _respond(self, req: SimMessage, code: str, payload: dict) -> None:
        self.reply(req, "legit", code, payload_kind="as_response",
                   payload=payload, payload_len=60)


# --- constrained endpoints -------------------------------------------------


class ServerNode(Node):
    """Constrained server. With a `guard_address` it onboards with that guard
    before it registers at `rd_address`; `behind_tunnel` says the guard is
    a tunnel end, so the server hands it the token-verification keys and
    announces its own address with the guard as proxy, `as_address` as the
    AS and its `audience`, instead of just the guard's address."""

    # At most this many half-open EDHOC sessions and answers kept for
    # duplicates; past either bound the entry written longest ago goes.
    # At seeds 0-63 of the `matrix`, `tunnel` and `long_flood` benchmark
    # workloads, the oldest session an m3 found was 347 m1 writes old.
    MAX_HALF_OPEN = 1024
    MAX_DEDUP = 256

    def __init__(self, world, *, address, audience, rd_address, as_address,
                 energy, guard_address, behind_tunnel, audience_key):
        super().__init__(world, address, energy)
        self.guard_address = guard_address
        self.behind_tunnel = behind_tunnel
        self.audience = audience
        self.audience_key = audience_key
        self.rd_address = rd_address
        self.as_address = as_address
        self.contexts: dict[bytes, SecurityContext] = {}
        # (src, session) -> (eph_i, eph_r) of the last MAX_HALF_OPEN m1s
        # answered, oldest first: a flood of m1s from fresh sources evicts.
        self.sessions: dict[tuple, tuple[bytes, bytes]] = {}
        self.dedup: dict[tuple, SimMessage] = {}
        self.guard_key_id: str | None = None

    def start(self) -> None:
        self.world.schedule(0, self._boot)

    def _boot(self) -> None:
        if self.guard_address:
            payload = {"audience": self.audience}
            if self.behind_tunnel:
                payload["audience_key"] = self.audience_key
            msg = self.request(self.guard_address, "onboard_request", payload,
                               30)
            self.send_con(msg, "legit", self._onboarded)
        else:
            self._register()

    def _onboarded(self, resp: SimMessage, frame: Frame) -> None:
        self.guard_key_id = resp.payload.get("guard_key_id")
        self._register()

    def _register(self) -> None:
        if self.behind_tunnel:
            entry = RendezvousEntry(name=self.address, address=self.address,
                                    proxy_address=self.guard_address,
                                    server_guard_key_id=self.guard_key_id,
                                    as_hint=self.as_address,
                                    audience=self.audience)
        else:
            entry = RendezvousEntry(name=self.address,
                                    address=self.guard_address or self.address)
        msg = self.request(self.rd_address, "rd_register",
                           {"entry": entry.to_doc()}, 40)
        self.send_con(msg, "legit", lambda r, f: None)

    # --- request handling ---------------------------------------------------

    def handle(self, frame: Frame, from_addr: str) -> None:
        msg = frame.msg
        if self.match_response(msg, frame):
            return
        key = (msg.src, msg.mid)
        if key in self.dedup:
            self.send_frame(self.dedup[key], frame.origin)
            return
        handler = self.HANDLERS.get(msg.payload_kind)
        if handler is None:
            self._respond(msg, frame, "4.00", "error", {}, 2)
            return
        handler(self, msg, frame)

    def _respond(self, req: SimMessage, frame: Frame, code: str, kind: str,
                 payload: dict, payload_len: int, sealed=None, kid=None,
                 piv=None) -> None:
        resp = ack(req, self.address, code, payload_kind=kind,
                   payload=payload, payload_len=payload_len, sealed=sealed,
                   oscore_kid=kid, oscore_piv=piv)
        self.dedup[(req.src, req.mid)] = resp
        if len(self.dedup) > self.MAX_DEDUP:
            self.dedup.pop(next(iter(self.dedup)))
        self.send_frame(resp, frame.origin)

    def _edhoc_m1(self, msg: SimMessage, frame: Frame) -> None:
        # Responder work starts here: half the handshake cost is sunk even
        # if the initiator never completes (the drain-attack vector).
        self.charge("edhoc", frame.origin, fraction=0.5)
        world = self.world
        if world.collect_trace:
            world.emit("edhoc_msg", self.address, n=1, origin=frame.origin)
        eph_r = self.rng.bytes(8)
        session = msg.payload.get("session", 0)
        sessions = self.sessions
        key = (msg.src, session)
        sessions.pop(key, None)  # a re-write counts as the newest
        sessions[key] = (msg.payload.get("eph", b""), eph_r)
        if len(sessions) > self.MAX_HALF_OPEN:
            del sessions[next(iter(sessions))]
        self._respond(msg, frame, "2.04", "edhoc_m2",
                      {"eph": eph_r, "session": session}, EDHOC_MSG_SIZES[1])

    def _edhoc_m3(self, msg: SimMessage, frame: Frame) -> None:
        sess = self.sessions.get((msg.src, msg.payload.get("session", 0)))
        if sess is None:
            self._respond(msg, frame, "4.01", "error", {}, 2)
            return
        eph_i, eph_r = sess
        master = seclayer.edhoc_master(eph_i, eph_r)
        if msg.payload.get("confirm") != seclayer.edhoc_confirmation(master):
            self._respond(msg, frame, "4.01", "error", {}, 2)
            return
        ctx = seclayer.edhoc_derive(eph_r, eph_i)
        self.contexts[ctx.recipient_id] = ctx
        self.charge("edhoc", frame.origin, fraction=0.5)
        world = self.world
        if world.collect_trace:
            world.emit("edhoc_msg", self.address, n=3, origin=frame.origin)
        self._respond(msg, frame, "2.04", "edhoc_done", {}, 10)

    def _oscore_request(self, msg: SimMessage, frame: Frame) -> None:
        self.charge("oscore_verify", frame.origin)
        ctx = self.contexts.get(msg.oscore_kid)
        if ctx is None:
            self.world.emit("oscore_auth_fail", self.address,
                            reason="unknown_kid", origin=frame.origin)
            self._respond(msg, frame, "4.01", "error", {}, 2)
            return
        try:
            inner = seclayer.oscore_unprotect(ctx, msg)
        except ReplayError:
            self.world.emit("oscore_replay", self.address, origin=frame.origin)
            self._respond(msg, frame, "4.01", "error", {}, 2)
            return
        except (AuthError, UnknownKid):
            self.world.emit("oscore_auth_fail", self.address,
                            reason="bad_tag", origin=frame.origin)
            self._respond(msg, frame, "4.01", "error", {}, 2)
            return
        self.world.emit("oscore_ok", self.address, piv=msg.oscore_piv,
                        origin=frame.origin)
        reply_inner = SimMessage(src=self.address, dst=msg.src, code="2.05",
                                 payload_kind="app_response", payload_len=16)
        protected = seclayer.oscore_protect(ctx, reply_inner,
                                            request_piv=msg.oscore_piv)
        self._respond(msg, frame, "2.05", "oscore", {},
                      protected.payload_len, sealed=protected.sealed,
                      kid=protected.oscore_kid, piv=protected.oscore_piv)

    # The request kinds the server serves, each by its method; any other
    # request is answered 4.00.
    HANDLERS = {"edhoc_m1": _edhoc_m1, "edhoc_m3": _edhoc_m3,
                "oscore": _oscore_request}


class ClientNode(Node):
    """Constrained client of the server it looks up at `rd_address`. With
    a `guard_address`, it asks the entry's AS to grant its guard's key the
    entry's audience under its own `key_id`, then briefs the guard."""

    def __init__(self, world, *, address, rd_address, server_name, key_id,
                 guard_key_id, request_interval_ms, energy, guard_address):
        super().__init__(world, address, energy)
        self.guard_address = guard_address  # set: requests go via this proxy
        self.rd_address = rd_address
        self.server_name = server_name
        self.key_id = key_id
        self.guard_key_id = guard_key_id
        self.request_interval_ms = request_interval_ms

        self.entry: RendezvousEntry | None = None
        self.ctx: SecurityContext | None = None
        self.interactions: list[Interaction] = []
        self.sent_pivs: list[int] = []
        self.consec_auth_fail = 0
        self.auth_fail_from_attacker = False
        self.rekeys = 0
        self.attack_induced_rekeys = 0
        self._ident = 0
        self.current_src = address
        self._session = 0
        self._rekeying = False

    @property
    def patterns(self) -> tuple[str, ...]:
        """Every identity `fresh_identity` takes."""
        return (f"{self.address}*",)

    def fresh_identity(self) -> str:
        self._ident += 1
        self.current_src = f"{self.address}{self._ident}"
        return self.current_src

    # --- bootstrap ----------------------------------------------------------

    def bootstrap(self, on_done) -> None:
        def lookup():
            msg = self.request(self.rd_address, "rd_lookup",
                               {"name": self.server_name}, 12, code="GET")
            self.send_con(msg, "legit", got_entry,
                          on_giveup=lambda: self.world.schedule_in(2000, lookup))

        def got_entry(resp: SimMessage, frame: Frame) -> None:
            if resp.code != "2.05":
                self.world.schedule_in(2000, lookup)
                return
            self.entry = RendezvousEntry.from_doc(resp.payload["entry"])
            if self.guard_address:
                self._authorize_binding(on_done)
            else:
                on_done()

        lookup()

    def _authorize_binding(self, on_done) -> None:
        payload = {
            "purpose": "authorize_binding",
            "subject_key_id": self.key_id,
            "audience": self.entry.audience,
            "client_guard_key_id": self.guard_key_id,
        }
        msg = self.request(self.entry.as_hint, "as_token_request", payload, 50)

        def authorized(resp, frame):
            self._brief_guard(on_done)

        self.send_con(msg, "legit", authorized)

    def _brief_guard(self, on_done) -> None:
        msg = self.request(self.guard_address, "guard_brief",
                           {"entry": self.entry.to_doc()}, 50)
        self.send_con(msg, "legit", lambda r, f: on_done())

    # --- message construction ----------------------------------------------

    def _server_request(self, kind: str, payload: dict,
                        payload_len: int) -> SimMessage:
        """A request from the current identity to the looked-up server, or
        to the client's guard with the server in its Proxy-Uri."""
        server = self.entry.address
        msg = self.request(self.guard_address or server, kind, payload,
                           payload_len)
        msg.src = self.current_src
        if self.guard_address:
            msg.proxy_uri = f"coap://{server}"
        return msg

    def _send_with_echo_retry(self, make, origin: str, on_response,
                              on_giveup, interaction: Interaction) -> None:
        """Send the CON `make(None)`; answer each Echo challenge to it with
        the CON `make(echo)`, counted as a retransmission."""

        def send(echo: bytes | None) -> None:
            self.send_con(make(echo), origin, answered, on_giveup, interaction)

        def answered(resp: SimMessage, frame: Frame) -> None:
            if resp.code == "4.01" and resp.echo is not None:
                interaction.retransmissions += 1
                send(resp.echo)
                return
            on_response(resp, frame)

        send(None)

    def _echo_copies(self, msg: SimMessage):
        """A `make` for `_send_with_echo_retry`: `msg`, and for an Echo a
        copy of it that carries the Echo under a fresh mid and token."""
        return lambda echo: msg if echo is None else msg.copy(
            mid=self.new_mid(), token=self.new_token(), echo=echo)

    # --- key exchange --------------------------------------------------------

    def run_key_exchange(self, cause: str, on_done) -> None:
        now = self.world.clock.now
        self._session += 1
        session_id = self._session
        eph_i = self.rng.bytes(8)
        i1 = Interaction("key_exchange", now)
        self.interactions.append(i1)

        def fail():
            on_done(False)

        def got_m2(resp: SimMessage, frame: Frame) -> None:
            if resp.payload_kind != "edhoc_m2":
                i1.complete(self.world.clock.now)
                on_done(False)
                return
            i1.complete(self.world.clock.now)
            eph_r = resp.payload["eph"]
            master = seclayer.edhoc_master(eph_i, eph_r)
            i2 = Interaction("key_exchange", self.world.clock.now)
            self.interactions.append(i2)
            m3 = self._server_request(
                "edhoc_m3", {"session": session_id,
                             "confirm": seclayer.edhoc_confirmation(master)},
                EDHOC_MSG_SIZES[2])

            def got_done(resp3: SimMessage, frame3: Frame) -> None:
                i2.complete(self.world.clock.now)
                if resp3.payload_kind != "edhoc_done":
                    on_done(False)
                    return
                self.ctx = seclayer.edhoc_derive(eph_i, eph_r)
                self.sent_pivs = []
                self.charge("edhoc", cause)
                on_done(True)

            self._send_with_echo_retry(self._echo_copies(m3), cause, got_done,
                                       fail, i2)

        m1 = self._server_request("edhoc_m1",
                                  {"eph": eph_i, "session": session_id},
                                  EDHOC_MSG_SIZES[0])
        self._send_with_echo_retry(self._echo_copies(m1), cause, got_m2, fail,
                                   i1)

    # --- steady-state requests ------------------------------------------------

    def send_app_request(self, counted: bool) -> None:
        if self.ctx is None:
            return
        now = self.world.clock.now
        inter = Interaction("request", now, counted)
        self.interactions.append(inter)
        ctx = self.ctx
        inner = SimMessage(src=self.current_src, dst=self.entry.address,
                           code="GET", payload_kind="app_request",
                           payload_len=8)
        copies = self._echo_copies(self._server_request("oscore", {}, 0))
        pivs = {}  # token -> piv of each request sent

        def protect(echo: bytes | None) -> SimMessage:
            """The request, or its answer to an Echo, protected anew under
            a fresh piv; the Echo rides outside, where the guard reads it."""
            msg = copies(echo)
            protected = seclayer.oscore_protect(ctx, inner)
            piv = pivs[msg.token] = protected.oscore_piv
            if len(self.sent_pivs) < 4:  # all that an impersonator replays
                self.sent_pivs.append(piv)
            msg.payload_len = protected.payload_len
            msg.sealed = protected.sealed
            msg.oscore_kid = protected.oscore_kid
            msg.oscore_piv = piv
            return msg

        def got_response(resp: SimMessage, frame: Frame) -> None:
            inter.complete(self.world.clock.now)
            if not resp.is_protected:
                return  # unprotected error; no auth signal either way
            self.charge("oscore_verify", frame.origin)
            try:
                seclayer.oscore_unprotect(ctx, resp,
                                          request_piv=pivs[resp.token])
            except (AuthError, UnknownKid, ReplayError):
                self.world.emit("oscore_auth_fail", self.address,
                                origin=frame.origin)
                self.consec_auth_fail += 1
                if frame.origin.startswith("attacker"):
                    self.auth_fail_from_attacker = True
                if (self.consec_auth_fail >= REKEY_THRESHOLD
                        and not self._rekeying):
                    self._trigger_rekey()
                return
            self.consec_auth_fail = 0
            self.auth_fail_from_attacker = False

        self._send_with_echo_retry(protect, "legit", got_response, None, inter)

    def _trigger_rekey(self) -> None:
        attack_induced = self.auth_fail_from_attacker
        self.rekeys += 1
        if attack_induced:
            self.attack_induced_rekeys += 1
        self.world.emit("rekey", self.address, attack_induced=attack_induced)
        self.ctx = None
        self.consec_auth_fail = 0
        self.auth_fail_from_attacker = False
        self._rekeying = True
        cause = "attacker_induced" if attack_induced else "legit"

        def done(ok: bool) -> None:
            self._rekeying = False

        self.run_key_exchange(cause=cause, on_done=done)

    # --- workload drivers ------------------------------------------------------

    def start_setup_loop(self, pause_ms: int, until_ms: int) -> None:
        """Repeatedly perform key exchanges (the connection-setup phase),
        each from a fresh identity."""

        def attempt() -> None:
            if self.world.clock.now >= until_ms:
                return
            self.fresh_identity()
            self.ctx = None

            def done(ok: bool) -> None:
                self.world.schedule_in(pause_ms, attempt)

            self.run_key_exchange(cause="legit", on_done=done)

        self.bootstrap(attempt)

    def start_steady_loop(self, attack_start_ms: int, until_ms: int) -> None:
        """Set up during the quiet warmup, then issue measured requests."""

        def setup_done(ok: bool) -> None:
            if not ok:
                self.world.schedule_in(2000, retry_setup)
                return
            # Priming request: gets the flow allow-listed where applicable.
            self.send_app_request(counted=False)
            first = attack_start_ms + 500
            self.world.schedule(max(first, self.world.clock.now + 500), tick)

        def retry_setup() -> None:
            self.run_key_exchange(cause="legit", on_done=setup_done)

        def tick() -> None:
            if self.world.clock.now >= until_ms:
                return
            self.send_app_request(counted=True)
            self.world.schedule_in(self.request_interval_ms, tick)

        self.bootstrap(lambda: self.run_key_exchange(
            cause="legit", on_done=setup_done))

    # --- receive ---------------------------------------------------------------

    def handle(self, frame: Frame, from_addr: str) -> None:
        if self.match_response(frame.msg, frame):
            return
        # A request: the client serves none.
        self.world.emit("drop", self.address, reason="unsolicited",
                        code=frame.msg.code)


# --- guard proxies -----------------------------------------------------------


class GuardNode(RouterNode):
    """Router that additionally runs a guard proxy for the network behind
    its constrained link, its `inside`. Traffic from inside leaves freely,
    and the `AWAITED` answers come in; each guard role says what else may
    (`inbound`) and what it serves itself (`handle_outside`, `handle_inside`):

      ExemptionsGuard    server side: throttling with reachability and
                         allow-list exemptions, reverse proxying to the server
      ServerTunnelGuard  server side: only tunnel traffic may enter; unwraps
                         and forwards
      ClientTunnelGuard  client side: forward proxy for its clients; wraps
                         traffic into the tunnel, renegotiates on auth failures

    All three relay the requests they proxy through `relay`. Only the
    client end serves requests from inside beyond onboarding; at the other
    two they meet `handle_inside`'s default drop.
    """

    # The answers a device inside waits for from outside: to its
    # registration, lookup and authorization requests.
    AWAITED = frozenset(("rd_ack", "rd_entry", "as_response"))

    # At most this many answers are kept for retransmissions of relayed
    # requests; past the bound the oldest goes.
    MAX_ANSWERED = 64

    def __init__(self, world, address, key_id):
        super().__init__(world, address)
        self.key_id = key_id
        self.table = ProxyTable(address, self.outstanding)
        self.relaying: set[tuple] = set()  # keys awaiting the server
        self.answered: dict[tuple, tuple] = {}  # key -> (deliver, answer)
        self.origin_server: str | None = None
        self.audience: str | None = None
        self.audience_key: bytes = b""

    # --- dispatch -------------------------------------------------------------

    def receive(self, frame: Frame, from_addr: str) -> None:
        msg = frame.msg
        if self.owns(msg.dst):
            self.handle(frame, from_addr)
        elif (self.inside(msg.dst) and not self.inside(from_addr)
              and not (msg.payload_kind in self.AWAITED and msg.is_response)):
            self.inbound(frame, from_addr)
        else:
            self.forward(frame, from_addr)  # outbound, awaited or transit

    def handle(self, frame: Frame, from_addr: str) -> None:
        if self.match_response(frame.msg, frame):
            return
        if not self.inside(from_addr):
            self.handle_outside(frame, from_addr)
        elif frame.msg.payload_kind == "onboard_request":
            self._onboard(frame)
        else:
            self.handle_inside(frame)

    def handle_inside(self, frame: Frame) -> None:
        """Serve a request from inside: by default, drop it."""
        self.world.emit("drop", self.address, reason="unhandled_inside")

    def _block(self, frame: Frame, **detail) -> None:
        world = self.world
        if world.collect_trace:
            world.emit("blocked", self.address, origin=frame.origin,
                       kind2=frame.msg.payload_kind, **detail)

    # --- relaying upstream ---------------------------------------------------

    def proxy_request(self, frame: Frame, dst: str) -> None:
        """Relay a request from the wire to `dst` and answer it on the wire.
        A CON not yet answered first gets an empty ACK (RFC 7252 §5.2.2)."""
        msg = frame.msg
        key = (msg.src, msg.token.hex())
        if msg.mtype == "CON" and key not in self.answered:
            self.reply(msg, "legit", "EMPTY", token=b"")
        self.relay(key, msg, dst, frame.origin, self.send_frame)

    def relay(self, key, req: SimMessage, dst: str, origin: str,
              deliver) -> None:
        """Relay `req` to `dst` once per `key` (RFC 7252 §5.7) and pass the
        answer to `deliver(answer, origin)`, or a 5.04 on a give-up (§5.7.1).
        A retransmission of an answered request gets the cached answer
        through the first request's `deliver`; one still in flight gets
        nothing. The request lives in its exchange and `relaying` until it
        is answered or given up; an answer after that matches nothing."""
        if key in self.answered:
            first_deliver, answer = self.answered[key]
            first_deliver(answer, origin)
            return
        if key in self.relaying:
            return
        up = self.table.rewrite_request(req, dst)
        self.relaying.add(key)

        def on_response(resp: SimMessage, frame: Frame) -> None:
            self.relaying.discard(key)
            self.observe_upstream(req, resp)
            answer = self.table.answer(resp, req)
            self.answered[key] = (deliver, answer)
            if len(self.answered) > self.MAX_ANSWERED:
                self.answered.pop(next(iter(self.answered)))
            deliver(answer, frame.origin)

        def on_giveup() -> None:
            self.relaying.discard(key)
            self.world.emit("upstream_giveup", self.address, src=req.src)
            deliver(ack(req, self.address, "5.04", payload_len=2), origin)

        self.send_upstream(up, origin, on_response, on_giveup)

    def send_upstream(self, up: SimMessage, origin: str, on_response,
                      on_giveup) -> None:
        """Hook: start the exchange that carries the relayed request `up`."""
        self.send_con(up, origin, on_response, on_giveup)

    def observe_upstream(self, req: SimMessage, resp: SimMessage) -> None:
        """Hook: the origin server answered the relayed `req` with `resp`."""

    # --- onboarding -------------------------------------------------------------

    def _onboard(self, frame: Frame) -> None:
        msg = frame.msg
        self.origin_server = msg.src
        self.audience = msg.payload.get("audience")
        self.audience_key = msg.payload.get("audience_key", b"")
        self.world.emit("setup_step", self.address, step=1)
        self.world.emit("setup_step", self.address, step=2)
        self.reply(msg, "legit", "2.01", payload_kind="onboard_ack",
                   payload={"guard_key_id": self.key_id},
                   payload_len=20)


class ExemptionsGuard(GuardNode):
    """Reverse proxy in front of the server: every request from outside goes
    through the `GuardState` policy, whether addressed to the guard or past
    it to the server."""

    def __init__(self, world, address, config: GuardConfig, key_id):
        super().__init__(world, address, key_id)
        self.gstate = GuardState(address, config, self.rng)

    def inbound(self, frame: Frame, from_addr: str) -> None:
        msg = frame.msg
        action, detail = self.gstate.decide(msg, self.world.clock.now)
        if action == "forward":
            cls = detail.get("cls")
            self.world.emit("guard_forward", self.address, cls=cls,
                            src=msg.src, origin=frame.origin)
            if cls == NON_PROXY:
                self.forward(frame, from_addr)
            else:
                self.proxy_request(frame, self.origin_server)
        elif action == "challenge":
            self.world.emit("challenge_issued", self.address, src=msg.src,
                            reason=detail.get("reason"), origin=frame.origin)
            self.reply(msg, "legit", "4.01", echo=detail["echo"], payload_len=2)
        elif action == "reject":
            self.world.emit("seq_conflict", self.address, src=msg.src,
                            origin=frame.origin)
            self.reply(msg, "legit", "4.01", payload_len=2)
        elif self.world.collect_trace:  # a drop, traced
            self.world.emit("guard_drop", self.address, src=msg.src,
                            reason=detail.get("reason", action),
                            origin=frame.origin)

    handle_outside = inbound

    def observe_upstream(self, req: SimMessage, resp: SimMessage) -> None:
        if self.gstate.observe_exchange(req.src, req.payload_kind, resp,
                                        self.world.clock.now):
            self.world.emit("allow_listed", self.address, src=req.src)


class TunnelGuard(GuardNode):
    """One end of the guard-to-guard tunnel. From outside, only the
    `AWAITED` answers get past it unwrapped, and tunnel frames that open
    under `tunnel_rx`'s context for their kid, into `tunnel_in`."""

    def __init__(self, world, address, key_id):
        super().__init__(world, address, key_id)
        self.tunnel_rx: dict[bytes, SecurityContext] = {}  # kid -> context

    def inbound(self, frame: Frame, from_addr: str) -> None:
        self._block(frame, dst=frame.msg.dst)

    def handle_outside(self, frame: Frame, from_addr: str) -> None:
        msg = frame.msg
        ctx = self.tunnel_rx.get(msg.oscore_kid)  # None for no kid
        if ctx is None:
            self._block(frame)
            return
        try:
            data = open_sealed(ctx, msg, b"tun")
        except ReplayError:
            self.world.emit("tunnel_replay", self.address, origin=frame.origin)
            return
        except AuthError:
            self.world.emit("tunnel_auth_fail", self.address,
                            origin=frame.origin)
            self.tunnel_auth_failed()
            return
        self.tunnel_in(ctx, frame, deserialize_full(data))

    def tunnel_auth_failed(self) -> None:
        pass

    def send_tunnel_data(self, ctx: SecurityContext, inner: SimMessage,
                         dst: str, origin: str) -> None:
        data = serialize_full(inner)
        piv = next_piv(ctx)
        sealed = aead_seal(ctx.sender_key, aead_nonce(ctx.sender_id, piv),
                           b"tun", data)
        msg = SimMessage(src=self.address, dst=dst, mtype="NON",
                         mid=self.new_mid(), token=b"", code="POST",
                         oscore_kid=ctx.sender_id, oscore_piv=piv,
                         payload_kind="tunnel_data", payload_len=len(sealed),
                         sealed=sealed)
        self.send_frame(msg, origin)


class ServerTunnelGuard(TunnelGuard):
    """Server end of the tunnel: verifies tunnel tokens, unwraps tunnel
    requests and relays them to the server."""

    def handle_outside(self, frame: Frame, from_addr: str) -> None:
        msg = frame.msg
        if msg.payload_kind == "tunnel_token_post":
            self._token_post(frame)
        else:
            super().handle_outside(frame, from_addr)

    def _token_post(self, frame: Frame) -> None:
        msg = frame.msg
        now = self.world.clock.now
        token = ace_mod.AccessToken.from_wire(msg.payload["token"])
        try:
            ace_mod.verify_token(token, self.audience_key, self.audience, now)
        except ace_mod.InvalidToken as e:
            self.world.emit("token_rejected", self.address, reason=e.reason,
                            origin=frame.origin)
            self.reply(msg, frame.origin, "4.01", payload_kind="token_reject",
                       payload={"reason": e.reason}, payload_len=10)
            return
        self.world.emit("token_verified", self.address,
                        subject=token.subject_key_id, origin=frame.origin)
        bound = ace_mod.unseal_bound_key(token, self.audience_key)
        nonce_s = self.rng.bytes(8)
        _, ctx = ace_mod.tunnel_contexts(bound, msg.payload["nonce"], nonce_s)
        self.tunnel_rx[ctx.recipient_id] = ctx
        self.world.emit("tunnel_established", self.address,
                        subject=token.subject_key_id, origin=frame.origin)
        self.world.emit("setup_step", self.address, step=8)
        self.reply(msg, frame.origin, "2.01", payload_kind="tunnel_token_ack",
                   payload={"nonce": nonce_s}, payload_len=20)

    def tunnel_in(self, ctx: SecurityContext, frame: Frame,
                  inner: SimMessage) -> None:
        msg = frame.msg
        self.world.emit("guard_forward", self.address, cls=TUNNEL,
                        src=msg.src, origin=frame.origin)
        # `deliver` outlives the frame in the answered cache; it keeps only
        # the peer's address, not the sealed frame.
        peer = msg.src

        def deliver(answer: SimMessage, origin: str) -> None:
            self.send_tunnel_data(ctx, answer, peer, origin)

        key = (inner.src, inner.token.hex(), inner.oscore_piv)
        self.relay(key, inner, self.origin_server, frame.origin, deliver)


class ClientTunnelGuard(TunnelGuard):
    """Client end of the tunnel: forward proxy for the clients behind it.
    Requests wait for a tunnel, travel sealed under the current tunnel
    context, and the tunnel is renegotiated after repeated auth failures.
    A relayed request is one tunnel `Exchange`, also in `tunnel_queue`
    while it waits for a tunnel. Its client's `guard_brief` names the
    server's rendezvous entry, whose `as_hint` is where the guard asks for
    tunnel tokens for the entry's `audience`; until then it cannot set up
    a tunnel."""

    def __init__(self, world, address, key_id, key):
        super().__init__(world, address, key_id)
        self.key = key
        self.as_address: str | None = None  # set by the brief
        self.server_guard_address: str | None = None
        self.tunnel_ctx: SecurityContext | None = None
        self.tunnel_queue: dict[bytes, Exchange] = {}  # waiting for a tunnel
        self.establishing = False
        self.consec_tunnel_fail = 0
        self.renegotiations = 0
        self._step6_done = False

    def handle_inside(self, frame: Frame) -> None:
        msg = frame.msg
        if msg.payload_kind == "guard_brief":
            entry = RendezvousEntry.from_doc(msg.payload["entry"])
            self.as_address = entry.as_hint
            self.server_guard_address = entry.published_address
            self.audience = entry.audience
            self.world.emit("setup_step", self.address, step=5)
            self.reply(msg, frame.origin, "2.04", payload_kind="brief_ack",
                       payload_len=2)
            return
        if msg.proxy_uri is None:
            self.world.emit("drop", self.address, reason="no_proxy_uri")
            return
        if not self._step6_done:
            self._step6_done = True
            self.world.emit("setup_step", self.address, step=6)
        self.proxy_request(frame, msg.proxy_uri.split("://", 1)[-1])
        if self.tunnel_ctx is None:
            self._establish_tunnel()

    def send_upstream(self, up: SimMessage, origin: str, on_response,
                      on_giveup) -> None:
        def gave_up() -> None:
            self.tunnel_queue.pop(up.token, None)
            on_giveup()

        Exchange(self, up, origin, self._send_tunneled, on_response, gave_up,
                 via="tunnel").start()

    def _send_tunneled(self, inner: SimMessage, origin: str) -> None:
        """Wrap under the current tunnel context, so that retransmissions
        survive a renegotiation; without a context, queue the exchange
        until the tunnel is ready."""
        if self.tunnel_ctx is None:
            self.tunnel_queue[inner.token] = self.outstanding[inner.token]
            return
        self.send_tunnel_data(self.tunnel_ctx, inner,
                              self.server_guard_address, origin)

    def _establish_tunnel(self) -> None:
        if self.establishing or self.as_address is None:
            return
        self.establishing = True
        req = self.request(self.as_address, "as_token_request",
                           {"purpose": "tunnel_token",
                            "subject_key_id": self.key_id,
                            "audience": self.audience}, 50)
        self.send_con(req, "legit", self._got_tunnel_token,
                      on_giveup=self._tunnel_setup_failed)

    def _got_tunnel_token(self, resp: SimMessage, frame: Frame) -> None:
        if resp.code != "2.01":
            self._tunnel_setup_failed()
            return
        nonce_c = self.rng.bytes(8)
        post = self.request(self.server_guard_address, "tunnel_token_post",
                            {"token": resp.payload["token"], "nonce": nonce_c},
                            80)

        def done(r: SimMessage, f: Frame) -> None:
            if r.code != "2.01":
                self._tunnel_setup_failed()
                return
            ctx, _ = ace_mod.tunnel_contexts(self.key, nonce_c,
                                             r.payload["nonce"])
            self.tunnel_ctx = self.tunnel_rx[ctx.recipient_id] = ctx
            self.establishing = False
            self.world.emit("tunnel_ready", self.address)
            queued, self.tunnel_queue = self.tunnel_queue, {}
            for ex in queued.values():
                if not ex.done:
                    self._send_tunneled(ex.msg, ex.origin)

        self.send_con(post, "legit", done, on_giveup=self._tunnel_setup_failed)

    def _tunnel_setup_failed(self) -> None:
        self.establishing = False
        self.world.emit("tunnel_setup_failed", self.address)

    def tunnel_in(self, ctx: SecurityContext, frame: Frame,
                  inner: SimMessage) -> None:
        self.consec_tunnel_fail = 0
        self.match_response(inner, frame)

    def tunnel_auth_failed(self) -> None:
        self.consec_tunnel_fail += 1
        if self.consec_tunnel_fail >= REKEY_THRESHOLD:
            self._renegotiate()

    def _renegotiate(self) -> None:
        """Rebuild the tunnel after repeated auth failures. The constrained
        endpoints never see this happen."""
        self.consec_tunnel_fail = 0
        self.renegotiations += 1
        self.world.emit("tunnel_renegotiate", self.address)
        self.tunnel_ctx = None
        self._establish_tunnel()


# --- attacker models ---------------------------------------------------------


class AttackerNode(Node):
    """Base of the attacker models, at address "atk", active in
    [start_ms, stop_ms) and blind to replies, so it never answers
    reachability checks."""

    def __init__(self, world, start_ms, stop_ms):
        super().__init__(world, "atk")
        self.start_ms = start_ms
        self.stop_ms = stop_ms

    @property
    def patterns(self) -> tuple[str, ...]:
        """Its own address, and the "x*" sources it spoofs."""
        return (self.address, "x*")

    def handle(self, frame: Frame, from_addr: str) -> None:
        pass  # blind to replies by design


class SendingAttacker(AttackerNode):
    """An attacker that sends: each model defines `_build_message`, and
    `_tick` sends `rate` of them per second, each to one of `targets`."""

    def __init__(self, world, targets, rate, start_ms, stop_ms):
        super().__init__(world, start_ms, stop_ms)
        self.targets = list(targets)
        self.period_ms = max(1, int(round(1000.0 / rate)))
        self.sent = 0

    def start(self) -> None:
        self.world.schedule(self.start_ms, self._tick)

    def _tick(self) -> None:
        world = self.world
        now = world.clock.now
        if now >= self.stop_ms:
            return
        self.send_frame(self._build_message(), "attacker")
        self.sent += 1
        # Jittered cadence (same mean rate): real flood sources are not
        # phase-locked, and a deterministic comb would let periodic legit
        # traffic slip through the rate limiters between bursts.
        delay = max(1, int(self.period_ms * (0.5 + self.rng.random())))
        world.queue.schedule(now + delay, self._tick)


class FloodAttacker(SendingAttacker):
    """Handshake-triggering frames, the cheapest way to drain a responder,
    from `n_sources` spoofed sources in turn at `rate` frames/s each. The
    blind flood is the one-source case."""

    def __init__(self, world, rate, n_sources, targets, start_ms, stop_ms):
        super().__init__(world, targets, rate * n_sources, start_ms, stop_ms)
        self.n_sources = n_sources

    def _build_message(self) -> SimMessage:
        # Split between the published address and the raw server address;
        # only a guard in front makes the two differ.
        dst = self.targets[self.rng.randrange(len(self.targets))]
        # Positional, in SimMessage's field order (src, dst, mtype, mid,
        # token, code, payload_kind, payload, payload_len): the flood
        # builds most of a run's messages, and keywords slow the call.
        return SimMessage(f"x{self.sent % self.n_sources}",
                          dst, "CON", self.new_mid(), self.new_token(),
                          "POST", "edhoc_m1",
                          {"eph": self.rng.bytes(8), "session": self.sent},
                          EDHOC_MSG_SIZES[0])


class Impersonator(SendingAttacker):
    """OSCORE-shaped junk from x0: every other frame jumps the piv far past
    any window, the rest replay the first four pivs the victim sent in its
    context. The kid is a random byte unless `knows_kid` and the victim
    has a context."""

    def __init__(self, world, rate, victim, knows_kid, targets, start_ms,
                 stop_ms):
        super().__init__(world, targets, rate, start_ms, stop_ms)
        self.victim = victim
        self.knows_kid = knows_kid

    def _build_message(self) -> SimMessage:
        dst = self.targets[self.rng.randrange(len(self.targets))]
        victim = self.victim
        if self.knows_kid and victim.ctx is not None:
            kid = victim.ctx.sender_id
        else:
            kid = self.rng.bytes(1)
        if self.sent % 2 == 0:
            piv = 10_000_000 + self.sent
        else:
            pivs = victim.sent_pivs
            piv = pivs[(self.sent // 2) % len(pivs)] if pivs else 0
        return SimMessage(src="x0", dst=dst, mtype="CON", mid=self.new_mid(),
                          token=self.new_token(), code="POST",
                          payload_kind="oscore", oscore_kid=kid,
                          oscore_piv=piv, payload_len=38,
                          sealed=self.rng.bytes(30))


class OnPathAttacker(AttackerNode):
    """On-path tampering: sends nothing; `intercept`, installed on a link,
    garbles up to `budget` protected frames inside the active window."""

    def __init__(self, world, budget, start_ms, stop_ms):
        super().__init__(world, start_ms, stop_ms)
        self.budget = budget
        self.corrupted = 0

    def start(self) -> None:
        pass  # acts only through `intercept`

    def intercept(self, frame: Frame) -> Frame:
        """Return `frame`, or an equal-size garbled copy of it."""
        if frame.msg.sealed is None:
            return frame
        if not (self.start_ms <= self.world.clock.now < self.stop_ms):
            return frame
        if self.corrupted >= self.budget:
            return frame
        self.corrupted += 1
        self.world.emit("onpath_corrupt", self.address,
                        dst=frame.msg.dst, kind2=frame.msg.payload_kind)
        garbled = frame.msg.copy(sealed=self.rng.bytes(len(frame.msg.sealed)))
        return Frame(garbled, "attacker", frame.size)
