"""Node behavior: rendezvous, onboarding, bootstrap addressing, tunnels,
attacker models."""

from types import SimpleNamespace

import pytest

from guardsim import ace, actors, coap_lite, harness
from guardsim.actors import (ClientTunnelGuard, FloodAttacker, GuardNode,
                             Impersonator, Interaction, Node, OnPathAttacker,
                             RendezvousEntry, RendezvousNode, ServerNode,
                             deserialize_full, serialize_full)
from guardsim.coap_lite import (DEFAULT_BASE_TIMEOUT_MS,
                                DEFAULT_RETRANSMIT_LIMIT, SimMessage, ack,
                                exchange_lifetime_ms, message_size)
from guardsim.guard import ALLOW_LISTED, CLASS_PRIORITY, REACHABILITY_VERIFIED
from guardsim.harness import (SimConfig, build_world, config_from_dict,
                              derive_seed, report_to_json, run_cell,
                              run_subrun)
from guardsim.netsim import Frame, Rng, World
from guardsim.seclayer import (DEFAULT_MAX_SEQ, SecurityContext, SeqExhausted,
                               edhoc_confirmation, edhoc_derive, edhoc_master)


NEVER = 10**12  # an attacker stop time past the end of any test


def make_frame(msg, origin="legit"):
    return Frame(msg, origin, message_size(msg))


# --- serialization -------------------------------------------------------------

def test_full_serialization_round_trip():
    msg = SimMessage(src="cli", dst="srv", mtype="CON", mid=9,
                     token=b"\x01\x02", code="POST", proxy_uri="coap://srv",
                     echo=b"\xaa" * 8, oscore_kid=b"\x07", oscore_piv=12,
                     payload_len=30, payload_kind="oscore",
                     payload={"n": 1, "b": b"\xff"}, sealed=b"sealed!!")
    assert deserialize_full(serialize_full(msg)) == msg


def test_full_serialization_deterministic():
    msg = SimMessage(src="a", dst="b", payload={"y": 2, "x": 1})
    assert serialize_full(msg) == serialize_full(msg.copy())


# --- rendezvous ------------------------------------------------------------------

def test_register_then_lookup_round_trip():
    world = World(seed=1)
    rd = RendezvousNode(world, "rd")
    entry = RendezvousEntry(name="srv", address="rtrS")
    rd.register(entry)
    assert rd.lookup("srv") == entry


def test_lookup_unknown_returns_nothing():
    world = World(seed=1)
    rd = RendezvousNode(world, "rd")
    assert rd.lookup("nobody") is None


def test_published_address_prefers_proxy():
    direct = RendezvousEntry(name="srv", address="srv")
    proxied = RendezvousEntry(name="srv", address="srv", proxy_address="rtrS")
    assert direct.published_address == "srv"
    assert proxied.published_address == "rtrS"


def test_rd_answers_a_lookup_with_the_registered_entry():
    rd = RendezvousNode(World(seed=1), "rd")
    sent = []
    rd.send_frame = lambda msg, origin: sent.append(msg)
    entry = RendezvousEntry(name="srv", address="srv", proxy_address="rtrS",
                            server_guard_key_id="key_sgp", as_hint="as")
    for mid, kind, payload in ((1, "rd_register", {"entry": entry}),
                               (2, "rd_lookup", {"name": "srv"})):
        rd.handle(make_frame(SimMessage(src="srv", dst="rd", mid=mid,
                                        token=bytes([mid]),
                                        payload_kind=kind, payload=payload)),
                  "rtrS")
    assert [(m.code, m.payload_kind) for m in sent] == \
        [("2.01", "rd_ack"), ("2.05", "rd_entry")]
    assert sent[1].payload["entry"] is entry


@pytest.mark.parametrize("scenario", ["fullguard", "exemptions"])
def test_a_record_that_is_sent_never_changes(monkeypatch, scenario):
    """Payloads carry rendezvous entries and access tokens themselves, so
    every node that receives one shares its sender's object: none may
    change it. Each entry is snapshot as it registers and each token as
    it is issued, over a no-attack cell at the trace pins' short config."""
    records = []
    register = RendezvousNode.register
    issue = ace.issue_token

    def registered(self, entry):
        records.append((entry, dict(vars(entry))))
        register(self, entry)

    def issued(*args):
        token = issue(*args)
        records.append((token, dict(vars(token))))
        return token

    monkeypatch.setattr(RendezvousNode, "register", registered)
    monkeypatch.setattr(ace, "issue_token", issued)
    run_cell(config_from_dict({
        "seed": 42,
        "client": {"request_interval_ms": 2000, "setup_pause_ms": 2000},
        "durations": {"setup_ms": 40_000, "warmup_ms": 5_000,
                      "steady_ms": 40_000, "grace_ms": 10_000}}),
        scenario, "none")
    kinds = {type(obj) for obj, _ in records}
    assert kinds == ({RendezvousEntry, ace.AccessToken}
                     if scenario == "fullguard" else {RendezvousEntry})
    for obj, snapshot in records:
        assert vars(obj) == snapshot


# --- routing ------------------------------------------------------------------------

def test_route_prefix_matching():
    world = World(seed=1)
    node = Node(world, "r")
    node.routes = [("srv", "a"), ("x*", "b"), ("*", "c")]
    assert node.route_to("srv") == "a"
    assert node.route_to("x17") == "b"
    assert node.route_to("anything") == "c"


def test_reassigning_routes_recompiles_them():
    node = Node(World(seed=1), "r")
    assert node.routes == () and node.route_to("srv") is None
    node.routes = [("srv", "a"), ("*", "c")]
    assert node.routes == (("srv", "a"), ("*", "c"))
    node.routes = [("x*", "b"), ("*", "d")]
    assert node.route_to("srv") == "d"
    assert node.route_to("x3") == "b"
    node.routes = (("srv", "a"),) + node.routes
    assert node.route_to("srv") == "a"


def test_routes_cannot_grow_in_place():
    # An in-place append would bypass the compiled table; only assignment
    # may change the routes.
    node = Node(World(seed=1), "r")
    node.routes = [("*", "c")]
    with pytest.raises(AttributeError):
        node.routes.append(("srv", "a"))
    with pytest.raises(TypeError):
        node.routes += [("srv", "a")]
    assert node.routes == (("*", "c"),)
    assert node.route_to("srv") == "c"


# --- scenario wiring and published entries -------------------------------------------

def run_quiet(scenario, until_ms=30_000, mutate=None, cfg=None):
    handles = build_world(cfg or SimConfig(), scenario, "none", 0, until_ms,
                          derive_seed(1, scenario, "none", "t"),
                          collect_trace=True)
    if mutate:
        mutate(handles)
    handles.server.start()
    handles.world.run_until(until_ms)
    return handles


def test_baseline_entry_is_bare_address():
    handles = run_quiet("baseline-open")
    assert handles.rendezvous.entries["srv"].address == "srv"
    assert handles.rendezvous.entries["srv"].proxy_address is None


def test_exemptions_entry_announces_proxy_address():
    handles = run_quiet("exemptions")
    entry = handles.rendezvous.entries["srv"]
    assert entry.address == "rtrS"  # clients need no modification


def test_fullguard_entry_carries_guard_metadata():
    handles = run_quiet("fullguard")
    entry = handles.rendezvous.entries["srv"]
    assert entry.proxy_address == "rtrS"
    assert entry.server_guard_key_id == "key_sgp"
    assert entry.as_hint == "as"


def test_onboarding_is_idempotent():
    handles = run_quiet("fullguard")
    guard = handles.server_router
    first = (guard.audience, guard.audience_key, guard.key_id,
             guard.origin_server)
    onboard = SimMessage(src="srv", dst="rtrS", mid=999, token=b"\x99",
                         code="POST", payload_kind="onboard_request",
                         payload={"audience": "aud_srv",
                                  "audience_key": guard.audience_key},
                         payload_len=30)
    guard._onboard(make_frame(onboard))
    assert (guard.audience, guard.audience_key, guard.key_id,
            guard.origin_server) == first


def test_upstream_giveup_leaves_no_proxy_table_entry():
    handles = run_quiet("exemptions")
    world, guard = handles.world, handles.server_router
    assert guard.origin_server == "srv"
    handles.server.handle = lambda frame, from_addr: None  # silent server
    guard.gstate.flow("cli", world.clock.now).cls = ALLOW_LISTED
    req = SimMessage(src="cli", dst="rtrS", mtype="CON", mid=5,
                     token=b"\x05", code="POST", payload_kind="edhoc_m1",
                     payload_len=40)
    guard.receive(make_frame(req), "rtrC")
    assert len(guard.outstanding) == 1
    world.run_until(world.clock.now + 70_000)
    assert world.trace.by_kind("upstream_giveup")
    assert guard.outstanding == {}
    assert guard.relaying == set()


def log_sent(node):
    """Log every message `node` sends, with its origin."""
    sent = []
    send_frame = node.send_frame

    def logged(msg, origin):
        sent.append((msg, origin))
        send_frame(msg, origin)

    node.send_frame = logged
    return sent


def oscore_from(src, mid, token, piv):
    return SimMessage(src=src, dst="rtrS", mtype="CON", mid=mid, token=token,
                      code="POST", payload_kind="oscore", oscore_kid=b"\x01",
                      oscore_piv=piv, payload_len=20)


def assert_challenge(sent, req, nonce):
    """`sent` is one 4.01 from the guard answering `req` with Echo `nonce`."""
    ((msg, origin),) = sent
    assert (msg.src, msg.dst, msg.mtype, msg.code, origin) == \
        ("rtrS", req.src, "ACK", "4.01", "legit")
    assert (msg.mid, msg.token, msg.payload_len) == (req.mid, req.token, 2)
    assert msg.echo == nonce and len(nonce) == 8


def test_exemptions_guard_challenges_an_unknown_client():
    handles = run_quiet("exemptions")
    guard = handles.server_router
    sent = log_sent(guard)
    req = SimMessage(src="x7", dst="rtrS", mtype="CON", mid=7, token=b"\x07",
                     code="POST", payload_kind="edhoc_m1", payload_len=40)
    guard.receive(make_frame(req, "attacker"), "rtrC")
    assert_challenge(sent, req, guard.gstate.flows["x7"].echo_nonce)
    assert handles.world.trace.by_kind("challenge_issued")[-1]["detail"] == \
        {"src": "x7", "reason": "unknown_client", "origin": "attacker"}


def test_exemptions_guard_challenges_an_implausible_jump():
    handles = run_quiet("exemptions")
    guard = handles.server_router
    guard.receive(make_frame(oscore_from("cli", 1, b"\x01", 0)), "rtrC")
    sent = log_sent(guard)
    req = oscore_from("x0", 9, b"\x09", 99_999)
    guard.receive(make_frame(req, "attacker"), "rtrC")
    assert_challenge(sent, req, guard.gstate.flows["x0"].echo_nonce)
    assert handles.world.trace.by_kind("challenge_issued")[-1]["detail"] == \
        {"src": "x0", "reason": "implausible_jump", "origin": "attacker"}


def test_impersonator_is_challenged_again_once_its_nonce_expires():
    # x0 never answers: each of its Echo nonces holds it off for
    # `echo_max_age_ms`, then its next request is challenged afresh,
    # whether it comes as an unknown client or as a piv jump.
    cfg = SimConfig()
    cfg.seed = 7
    max_age = cfg.guard.echo_max_age_ms
    cell = run_cell(cfg, "exemptions", "impersonator", collect_traces=True)
    for trace in cell["_traces"]:
        events = [(e["t"], e["kind"]) for e in trace.events
                  if e["detail"].get("src") == "x0"
                  and (e["kind"] == "challenge_issued"
                       or e["kind"] == "guard_drop"
                       and e["detail"]["reason"].endswith("challenge_pending"))]
        challenges = [t for t, kind in events if kind == "challenge_issued"]
        assert len(challenges) >= 2
        latest = None
        for t, kind in events:
            if kind == "challenge_issued":
                assert latest is None or t - latest > max_age
                latest = t
            else:
                assert latest is not None and t - latest <= max_age


def test_challenged_protected_request_is_protected_anew():
    # A client that roams is an unknown source at the guard, which
    # challenges its next protected request. The answer to the challenge
    # is a new protected request under a fresh piv: a copy would reuse the
    # challenged request's piv under a new token, a seq conflict.
    until = 90_000
    handles = build_world(SimConfig(), "exemptions", "none", 0, until, 3,
                          collect_trace=True)
    world, client = handles.world, handles.client
    handles.server.start()
    world.schedule(200, lambda: client.start_steady_loop(0, until))
    world.schedule(75_000, lambda: (client.fresh_identity(),
                                    client.send_app_request(counted=True)))
    world.run_until(until)
    trace = world.trace
    (roamed,) = [i for i in client.interactions if i.t_start == 75_000]
    assert (roamed.outcome, roamed.retransmissions) == ("completed", 1)
    window = [e for e in trace.events if 75_000 <= e["t"] <= roamed.t_end]
    kinds = [(e["kind"], e["node"]) for e in window]
    challenge = kinds.index(("challenge_issued", "rtrS"))
    assert window[challenge]["detail"]["src"] == "cli1"
    assert challenge < kinds.index(("guard_forward", "rtrS")) < \
        kinds.index(("oscore_ok", "srv"))
    assert not trace.by_kind("seq_conflict")
    assert not trace.by_kind("oscore_auth_fail")
    assert client.consec_auth_fail == 0


def test_exemptions_policy_draws_from_its_node_stream():
    handles = build_world(SimConfig(), "exemptions", "none", 0, 1000, 1)
    guard = handles.server_router
    assert guard.gstate.rng is guard.rng


@pytest.mark.parametrize("scenario, attack", [
    ("exemptions", "distributed_flood"), ("fullguard", "impersonator"),
    ("baseline-throttled", "none")])
def test_each_node_forks_the_world_stream_by_insertion_index(scenario, attack):
    world = build_world(SimConfig(), scenario, attack, 0, 1000, 11).world
    assert world.rng.state == Rng(11).state  # the world's stream never draws
    for i, node in enumerate(world.nodes.values()):
        assert node.rng.state == world.rng.fork(i + 1).state


def relay_setup(silent_server=False, cfg=None):
    """An exemptions world with `cli` allow-listed at the guard, and a log
    of what the guard sends toward `cli` as (code, payload_kind, origin)."""
    handles = run_quiet("exemptions", cfg=cfg)
    world, guard = handles.world, handles.server_router
    if silent_server:
        handles.server.handle = lambda frame, from_addr: None
    guard.gstate.flow("cli", world.clock.now).cls = ALLOW_LISTED
    sent = []
    send_frame = guard.send_frame

    def logged(msg, origin):
        if msg.dst == "cli":
            sent.append((msg.code, msg.payload_kind, origin))
        send_frame(msg, origin)

    guard.send_frame = logged
    req = SimMessage(src="cli", dst="rtrS", mtype="CON", mid=5,
                     token=b"\x05", code="POST", payload_kind="edhoc_m1",
                     payload={"eph": b"e", "session": 1}, payload_len=40)
    return world, guard, req, sent


def upstream_frames(trace):
    return [e for e in trace.by_kind("link_frame")
            if e["node"] == "rtrS->srv"
            and e["detail"]["payload_kind"] == "edhoc_m1"]


def test_exemptions_answers_retransmission_from_cache():
    world, guard, req, sent = relay_setup()
    guard.receive(make_frame(req), "rtrC")
    world.run_until(world.clock.now + 1000)
    assert sent == [("EMPTY", None, "legit"), ("2.04", "edhoc_m2", "legit")]
    assert len(upstream_frames(world.trace)) == 1
    guard.receive(make_frame(req, "attacker"), "rtrC")
    world.run_until(world.clock.now + 1000)
    # The same answer again, under the retransmission's origin; no second
    # empty ACK and nothing more upstream.
    assert sent[2:] == [("2.04", "edhoc_m2", "attacker")]
    assert len(upstream_frames(world.trace)) == 1


def test_exemptions_retransmission_in_flight_gets_only_an_empty_ack():
    world, guard, req, sent = relay_setup(silent_server=True)
    guard.receive(make_frame(req), "rtrC")
    guard.receive(make_frame(req), "rtrC")
    world.run_until(world.clock.now + 1000)
    assert sent == [("EMPTY", None, "legit"), ("EMPTY", None, "legit")]
    assert len(upstream_frames(world.trace)) == 1
    assert len(guard.outstanding) == 1
    assert guard.relaying == {("cli", "05")}


def test_relay_cache_keeps_the_newest_64_answers():
    world = World(seed=1)
    guard = GuardNode(world, "g", key_id="key_g")
    guard.origin_server = "srv"
    upstream = []
    guard.send_con = lambda up, origin, on_response, on_giveup: \
        upstream.append((up, on_response))
    delivered = []
    for i in range(65):
        req = SimMessage(src="cli", dst="g", mid=i, token=bytes([i]))
        guard.relay(i, req, "srv", "legit",
                    lambda answer, origin: delivered.append(answer.mid))
    for up, on_response in upstream:
        on_response(SimMessage(src="srv", dst="g", mtype="ACK", mid=up.mid,
                               token=up.token, code="2.05"),
                    make_frame(up))
    assert delivered == list(range(65))
    assert list(guard.answered) == list(range(1, 65))
    # A cached answer goes through the first `deliver`.
    guard.relay(64, SimMessage(src="cli", dst="g", mid=64, token=b"\x40"),
                "srv", "legit", None)
    assert delivered[-1] == 64 and len(upstream) == 65
    guard.relay(0, SimMessage(src="cli", dst="g", mid=0, token=b"\x00"),
                "srv", "legit", None)  # evicted: relayed again
    assert len(upstream) == 66


def test_answer_matching_no_live_exchange_is_not_relayed():
    world = World(seed=1)
    guard = GuardNode(world, "g", key_id="key_g")
    guard.inside = Node(world, "srv").owns
    guard.origin_server = "srv"
    upstream = []
    guard.send_frame = lambda msg, origin: upstream.append(msg)
    delivered = []
    req = SimMessage(src="cli", dst="g", mid=5, token=b"\x05")
    guard.relay("k", req, "srv", "legit",
                lambda answer, origin: delivered.append(answer))
    (up,) = upstream
    assert list(guard.outstanding) == [up.token]
    for token in (b"\xff\xff", up.token):
        guard.handle(make_frame(SimMessage(src="srv", dst="g", mtype="ACK",
                                           mid=up.mid, token=token,
                                           code="2.05")), "srv")
    # Only the answer carrying the live exchange's token is relayed.
    assert [(a.dst, a.token, a.mid) for a in delivered] == \
        [("cli", b"\x05", 5)]
    assert guard.outstanding == {}


def test_baseline_throttled_router_keeps_no_flow_state():
    cfg = SimConfig()
    handles = build_world(cfg, "baseline-throttled", "none", 0, 1000, 1)
    assert not hasattr(handles.server_router, "gstate")
    assert not hasattr(handles.server_router, "flows")


# --- client bootstrap addressing ---------------------------------------------------------

def test_exemptions_client_unchanged_from_baseline():
    base = build_world(SimConfig(), "baseline-open", "none", 0, 1000, 1)
    exem = build_world(SimConfig(), "exemptions", "none", 0, 1000, 2)
    assert base.client.guard_address is exem.client.guard_address is None
    exem.client.entry = RendezvousEntry(name="srv", address="rtrS")
    msg = exem.client._server_request("edhoc_m1", {}, 40)
    assert msg.dst == "rtrS"  # only the destination differs
    assert msg.proxy_uri is None


def test_fullguard_client_routes_via_its_guard():
    handles = build_world(SimConfig(), "fullguard", "none", 0, 1000, 3)
    client = handles.client
    client.entry = RendezvousEntry(name="srv", address="srv",
                                   proxy_address="rtrS",
                                   server_guard_key_id="key_sgp")
    msg = client._server_request("edhoc_m1", {}, 40)
    assert msg.dst == "rtrC"
    assert msg.proxy_uri == "coap://srv"


def announced_entry(as_hint, audience="aud_srv"):
    """The fullguard server's rendezvous entry, naming `as_hint` as its AS
    and `audience` as the audience its tokens carry."""
    return RendezvousEntry(name="srv", address="srv", proxy_address="rtrS",
                           server_guard_key_id="key_sgp", as_hint=as_hint,
                           audience=audience)


def test_tunnelled_server_announces_its_as_and_audience():
    server = ServerNode(World(seed=1), address="srv", audience="aud_x",
                        rd_address="rd", as_address="as9", energy=None,
                        guard_address="rtrS", behind_tunnel=True,
                        audience_key=b"")
    sent = []
    server.send_frame = lambda msg, origin: sent.append(msg)
    server.start()
    server.world.run_until(1)
    onboard, = sent
    assert onboard.payload["audience"] == "aud_x"
    server.handle(make_frame(ack(onboard, "rtrS", "2.01",
                                 payload_kind="onboard_ack",
                                 payload={"guard_key_id": "key_sgp"})),
                  "rtrS")
    register = sent[-1]
    assert (register.dst, register.payload_kind) == ("rd", "rd_register")
    assert register.payload["entry"] == announced_entry("as9", "aud_x")


def test_client_authorizes_its_guard_for_the_announced_audience():
    handles = build_world(SimConfig(), "fullguard", "none", 0, 1000, 3)
    client = handles.client
    sent = []
    client.send_frame = lambda msg, origin: sent.append(msg)
    client.bootstrap(lambda: None)
    lookup, = sent
    entry = ack(lookup, "rd", "2.05", payload_kind="rd_entry",
                payload={"entry": announced_entry("as9", "aud_x")})
    client.handle(make_frame(entry), "rtrC")
    authorize, = sent[1:]
    # The client's own key and its guard's, as the AS registry knows them.
    subjects = handles.authorization.registry.known_subjects
    assert authorize.payload["subject_key_id"] == "key_cli"
    assert "key_cli" in subjects
    assert authorize.payload["client_guard_key_id"] == \
        handles.client_router.key_id == "key_cgp"
    assert authorize.payload["audience"] == "aud_x"


def test_client_asks_the_announced_as_to_authorize_its_guard():
    handles = build_world(SimConfig(), "fullguard", "none", 0, 1000, 3)
    client = handles.client
    sent = []
    client.send_frame = lambda msg, origin: sent.append(msg)
    client.bootstrap(lambda: None)
    lookup, = sent
    entry = ack(lookup, "rd", "2.05", payload_kind="rd_entry",
                payload={"entry": announced_entry("as9")})
    client.handle(make_frame(entry), "rtrC")
    assert [(m.dst, m.payload["purpose"]) for m in sent[1:]] == \
        [("as9", "authorize_binding")]


def test_client_guard_asks_the_announced_as_for_tunnel_tokens():
    handles = build_world(SimConfig(), "fullguard", "none", 0, 1000, 3)
    guard = handles.client_router
    sent = []
    guard.send_frame = lambda msg, origin: sent.append(msg)
    brief = SimMessage(src="cli", dst="rtrC", mid=1, token=b"\x01",
                       code="POST", payload_kind="guard_brief",
                       payload={"entry": announced_entry("as9")},
                       payload_len=50)
    request = SimMessage(src="cli", dst="rtrC", mid=2, token=b"\x02",
                         code="POST", payload_kind="edhoc_m1",
                         proxy_uri="coap://srv", payload_len=40)
    guard.handle_inside(make_frame(brief))
    guard.handle_inside(make_frame(request))
    assert [m.dst for m in sent if m.payload_kind == "as_token_request"] == \
        ["as9"]


def test_client_guard_asks_for_tokens_for_the_announced_audience():
    handles = build_world(SimConfig(), "fullguard", "none", 0, 1000, 3)
    guard = handles.client_router
    sent = []
    guard.send_frame = lambda msg, origin: sent.append(msg)
    brief = SimMessage(src="cli", dst="rtrC", mid=1, token=b"\x01",
                       code="POST", payload_kind="guard_brief",
                       payload={"entry": announced_entry("as", "aud_x")},
                       payload_len=50)
    request = SimMessage(src="cli", dst="rtrC", mid=2, token=b"\x02",
                         code="POST", payload_kind="edhoc_m1",
                         proxy_uri="coap://srv", payload_len=40)
    guard.handle_inside(make_frame(brief))
    guard.handle_inside(make_frame(request))
    assert [(m.payload["purpose"], m.payload["audience"]) for m in sent
            if m.payload_kind == "as_token_request"] == \
        [("tunnel_token", "aud_x")]


def test_fresh_identity_changes_source():
    handles = build_world(SimConfig(), "baseline-open", "none", 0, 1000, 4)
    a = handles.client.fresh_identity()
    b = handles.client.fresh_identity()
    assert a != b
    assert a.startswith("cli") and b.startswith("cli")
    assert handles.client.owns(a) and handles.client.owns(b)


# --- fullguard tunnel ----------------------------------------------------------------------

@pytest.mark.parametrize("scenario, node, from_addr", [
    ("baseline-open", "srv", "rtrS"), ("baseline-throttled", "srv", "rtrS"),
    ("exemptions", "srv", "rtrS"), ("fullguard", "srv", "rtrS"),
    ("exemptions", "rtrS", "rtrC"), ("fullguard", "rtrS", "rtrC"),
    ("fullguard", "rtrC", "rtrS"), ("baseline-open", "cli", "rtrC")])
def test_answer_no_exchange_awaits_is_dropped_where_it_lands(scenario, node,
                                                             from_addr):
    # An answer is never served as a request (RFC 7252 §5.3.2): the node
    # it is addressed to drops it and sends nothing for it.
    handles = build_world(SimConfig(), scenario, "none", 0, 1000, 3,
                          collect_trace=True)
    world = handles.world
    answer = SimMessage(src="x0", dst=node, mtype="ACK", mid=9, token=b"\x09",
                        code="2.05", payload_kind="app_response",
                        payload_len=16)
    world.nodes[node].receive(make_frame(answer, "attacker"), from_addr)
    world.run_until(60_000)
    assert [(e["node"], e["detail"])
            for e in world.trace.by_kind("drop", "blocked")] == \
        [(node, {"reason": "unsolicited", "code": "2.05"})]
    assert sum(link.n_sent for n in world.nodes.values()
               for link in n.links.values()) == 0


@pytest.mark.parametrize("node", ["rd", "as"])
def test_rendezvous_and_as_end_answers_like_every_other_node(node):
    # An answer no exchange awaits is dropped as unsolicited, not served as
    # an unknown request; a stray empty ACK is swallowed without a trace.
    handles = build_world(SimConfig(), "exemptions", "none", 0, 1000, 3,
                          collect_trace=True)
    world = handles.world
    answer = SimMessage(src="x0", dst=node, mtype="ACK", mid=9, token=b"\x09",
                        code="2.05", payload_kind="app_response",
                        payload_len=16)
    empty = SimMessage(src="x0", dst=node, mtype="ACK", mid=10, token=b"",
                       code="EMPTY")
    for msg in (answer, empty):
        world.nodes[node].receive(make_frame(msg, "attacker"), "rtrS")
    world.run_until(60_000)
    assert [(e["node"], e["detail"]) for e in world.trace.by_kind("drop")] \
        == [(node, {"reason": "unsolicited", "code": "2.05"})]
    assert sum(link.n_sent for n in world.nodes.values()
               for link in n.links.values()) == 0


def test_spoofed_answers_toward_the_server_meet_the_non_proxy_buckets():
    # One spoofed answer from each of 100 fresh sources within a second:
    # like any traffic not sent through the proxy, only what the non-proxy
    # aggregate bucket admits reaches the server, and it answers none.
    cfg = SimConfig()
    handles = build_world(cfg, "exemptions", "blind_flood", 0, NEVER, 3,
                          collect_trace=True)
    world, attacker = handles.world, handles.attacker
    for i in range(100):
        answer = SimMessage(src=f"x{i}", dst="srv", mtype="ACK", mid=i,
                            token=bytes([i]), code="2.05",
                            payload_kind="app_response", payload_len=16)
        world.schedule(10 * i, lambda m=answer: attacker.send_frame(
            m, "attacker"))
    world.run_until(60_000)
    spec = cfg.guard.non_proxy_bucket
    admitted = int(spec.aggregate_burst + spec.aggregate_rate * 1.0)
    assert [e["detail"]["src"] for e in world.trace.by_kind("link_frame")
            if e["node"] == "rtrS->srv"] == [f"x{i}" for i in range(admitted)]
    assert not [e for e in world.trace.by_kind("link_frame")
                if e["node"] == "srv->rtrS"]
    assert [e["detail"]["reason"] for e in world.trace.by_kind("drop")
            if e["node"] == "srv"] == ["unsolicited"] * admitted


def run_fullguard_steady(until_ms=60_000, mutate=None):
    cfg = SimConfig()
    handles = build_world(cfg, "fullguard", "none", 0, until_ms,
                          derive_seed(7, "fullguard", "none", "t"),
                          collect_trace=True)
    if mutate:
        mutate(handles)
    handles.server.start()
    client = handles.client
    handles.world.schedule(200, lambda: client.start_steady_loop(0, until_ms))
    handles.world.run_until(until_ms)
    return handles


def srv_link_frames(trace):
    return [e for e in trace.by_kind("link_frame")
            if e["node"] in ("rtrS->srv", "srv->rtrS")]


def test_fullguard_happy_path_serves_requests():
    handles = run_fullguard_steady()
    trace = handles.world.trace
    assert trace.by_kind("tunnel_established")
    done = [i for i in handles.client.interactions
            if i.kind == "request" and i.outcome == "completed"]
    assert done, "no request completed through the tunnel"


def test_wrong_as_key_refuses_tunnel_and_shields_server():
    def corrupt(handles):
        handles.server.audience_key = b"not-the-real-key"

    handles = run_fullguard_steady(mutate=corrupt)
    trace = handles.world.trace
    assert trace.by_kind("token_rejected")
    assert not trace.by_kind("tunnel_established")
    # Nothing beyond onboarding/registration ever reaches the server link.
    kinds = {e["detail"]["payload_kind"] for e in srv_link_frames(trace)}
    assert kinds <= {"onboard_request", "onboard_ack", "rd_register", "rd_ack"}
    assert not [i for i in handles.client.interactions
                if i.outcome == "completed" and i.kind == "request"]


def test_garbage_into_tunnel_rejected_without_constrained_traffic():
    handles = run_fullguard_steady()
    world, guard = handles.world, handles.server_router
    kid = next(iter(guard.tunnel_rx))
    before = len(srv_link_frames(world.trace))
    junk = SimMessage(src="x0", dst="rtrS", mtype="NON", code="POST",
                      oscore_kid=kid, oscore_piv=999_999,
                      payload_kind="tunnel_data", payload_len=40,
                      sealed=b"\x00" * 40)
    guard.receive(make_frame(junk, "attacker"), "atk")
    world.run_until(world.clock.now + 5000)
    assert world.trace.by_kind("tunnel_auth_fail")
    attacker_frames = [e for e in srv_link_frames(world.trace)
                       if e["detail"]["origin"] == "attacker"]
    assert attacker_frames == []
    assert len(srv_link_frames(world.trace)) >= before  # only legit growth


def test_non_tunnel_traffic_blocked_in_fullguard():
    handles = run_fullguard_steady()
    world, guard = handles.world, handles.server_router
    before = len(srv_link_frames(world.trace))
    raw = SimMessage(src="x0", dst="srv", code="POST",
                     payload_kind="edhoc_m1", payload={"eph": b"e"},
                     payload_len=40)
    guard.receive(make_frame(raw, "attacker"), "atk")
    world.run_until(world.clock.now + 2000)
    assert world.trace.by_kind("blocked")
    assert len([e for e in srv_link_frames(world.trace)
                if e["detail"]["origin"] == "attacker"]) == 0
    assert len(srv_link_frames(world.trace)) >= before


def test_server_tunnel_end_giveup_leaves_no_proxy_table_entry():
    until = 60_000
    handles = build_world(SimConfig(), "fullguard", "none", 0, until,
                          derive_seed(7, "fullguard", "none", "t"),
                          collect_trace=True)
    world, client, server = handles.world, handles.client, handles.server
    server.start()
    world.schedule(200, lambda: client.start_steady_loop(0, until))
    world.schedule(40_000, lambda: setattr(
        server, "handle", lambda frame, from_addr: None))
    world.run_until(until + 70_000)
    guard = handles.server_router
    assert [e for e in world.trace.by_kind("giveup") if e["node"] == "rtrS"]
    assert [e for e in world.trace.by_kind("upstream_giveup")
            if e["node"] == "rtrS"]
    assert guard.outstanding == {}
    assert guard.relaying == set()


def test_server_tunnel_end_relays_retransmission_in_flight_once():
    handles = run_fullguard_steady(until_ms=30_000)
    world, server = handles.world, handles.server
    tunnel_out, tunnel_in = handles.client_router, handles.server_router
    server.handle = lambda frame, from_addr: None  # silent server
    inner = SimMessage(src="rtrC", dst="srv", mtype="CON", mid=77,
                       token=b"\x77\x77", code="POST", payload_kind="oscore",
                       oscore_kid=b"\x01", oscore_piv=3, payload_len=20)
    # Two tunnel frames (fresh outer pivs) carrying the same inner request.
    for _ in range(2):
        tunnel_out.send_tunnel_data(tunnel_out.tunnel_ctx, inner, "rtrS",
                                    "legit")
    world.run_until(world.clock.now + 1000)
    assert len(world.trace.by_kind("tunnel_replay")) == 0
    relayed = [ex for ex in tunnel_in.outstanding.values()
               if (ex.msg.oscore_kid, ex.msg.oscore_piv) == (b"\x01", 3)]
    assert len(relayed) == 1
    assert ("rtrC", "7777", 3) in tunnel_in.relaying


def test_client_tunnel_end_blocks_requests_and_passes_responses_inward():
    handles = build_world(SimConfig(), "fullguard", "none", 0, 1000, 3,
                          collect_trace=True)
    world, guard = handles.world, handles.client_router
    request = SimMessage(src="x0", dst="cli1", mtype="CON", code="POST",
                         payload_kind="edhoc_m1", payload_len=40)
    response = SimMessage(src="srv", dst="cli", mtype="ACK", code="2.05",
                          payload_kind="rd_entry", payload_len=20)
    guard.receive(make_frame(request, "attacker"), "rtrS")
    guard.receive(make_frame(response), "rtrS")
    world.run_until(1000)
    assert [(e["node"], e["detail"]["dst"])
            for e in world.trace.by_kind("blocked")] == [("rtrC", "cli1")]
    assert [e["detail"]["payload_kind"]
            for e in world.trace.by_kind("link_frame")
            if e["node"] == "rtrC->cli"] == ["rd_entry"]


@pytest.mark.parametrize("kind", ["rd_ack", "rd_entry", "as_response",
                                  "app_response"])
@pytest.mark.parametrize("scenario, end", [("exemptions", "server"),
                                           ("fullguard", "server"),
                                           ("fullguard", "client")])
def test_every_guard_passes_only_awaited_responses_inward(scenario, end,
                                                          kind):
    # The answers to a device's registration, lookup and authorization
    # requests pass every guard role. Any other answer from outside is
    # blocked at a tunnel end, and meets the policy at the exemptions
    # guard like any traffic not sent through the proxy.
    handles = build_world(SimConfig(), scenario, "none", 0, 1000, 3,
                          collect_trace=True)
    world = handles.world
    guard = getattr(handles, f"{end}_router")
    inside, outside = ("srv", "rd") if end == "server" else ("cli", "rtrS")
    response = SimMessage(src="rd", dst=inside, mtype="ACK", code="2.01",
                          payload_kind=kind, payload_len=2)
    guard.receive(make_frame(response), outside)
    world.run_until(1000)
    awaited = kind != "app_response"
    decided = not awaited and scenario == "exemptions"
    assert [e["detail"]["payload_kind"] for e in world.trace.by_kind(
        "link_frame") if e["node"] == f"{guard.address}->{inside}"] == \
        ([kind] if awaited or decided else [])
    assert bool(world.trace.by_kind("blocked")) is not (awaited or decided)
    assert [(e["kind"], e["detail"].get("cls")) for e in world.trace.by_kind(
        "guard_forward", "guard_drop")] == \
        ([("guard_forward", "non_proxy")] if decided else [])


def test_tunnel_frames_stop_at_the_sequence_bound():
    handles = build_world(SimConfig(), "fullguard", "none", 0, 1000, 3)
    guard = handles.client_router
    sent = []
    guard.send_frame = lambda msg, origin: sent.append(msg)
    ctx = SecurityContext(sender_id=b"\x01", recipient_id=b"\x02",
                          master_key=b"m" * 16)
    ctx.sender_seq = DEFAULT_MAX_SEQ - 1
    inner = SimMessage(src="cli", dst="srv")
    guard.send_tunnel_data(ctx, inner, "rtrS", "legit")
    with pytest.raises(SeqExhausted):
        guard.send_tunnel_data(ctx, inner, "rtrS", "legit")
    assert [m.oscore_piv for m in sent] == [DEFAULT_MAX_SEQ - 1]


def test_tunnel_exchange_gives_up_and_leaves_no_state():
    def corrupt(handles):
        handles.server.audience_key = b"not-the-real-key"

    handles = run_fullguard_steady(until_ms=150_000, mutate=corrupt)
    guard = handles.client_router
    giveups = handles.world.trace.by_kind("giveup")
    # Each give-up answers the client's m1 5.04; the client's key exchange
    # then fails, and it sends a new m1 2 s later.
    assert [(e["t"], e["node"], e["detail"].get("via")) for e in giveups] == \
        [(63_282, "rtrC", "tunnel"), (127_442, "rtrC", "tunnel")]
    assert [(i.t_start, i.t_end) for i in handles.client.interactions] == \
        [(1_152, 63_312), (65_312, 127_472), (129_472, None)]
    (live,) = guard.outstanding  # the third m1's, still without a tunnel
    assert list(guard.tunnel_queue) == [live]
    assert live.hex() not in [e["detail"]["token"] for e in giveups]


def log_toward_cli(guard):
    """Log the code of each message `guard` sends toward `cli`."""
    sent = []
    send_frame = guard.send_frame

    def logged(msg, origin):
        if msg.dst == "cli":
            sent.append(msg.code)
        send_frame(msg, origin)

    guard.send_frame = logged
    return sent


def exemptions_relay_given_up():
    """The exemptions guard relays `cli`'s request to a silent server and
    gives up; the late answer comes from the server. Returns the world,
    the guard, the relayed request's token, the codes of what the guard
    sent back for the request, the late answer, and the codes expected."""
    world, guard, req, _ = relay_setup(silent_server=True)
    sent = log_toward_cli(guard)
    guard.receive(make_frame(req), "rtrC")
    (token,) = guard.outstanding
    world.run_until(world.clock.now + 70_000)

    def late_answer():
        guard.receive(make_frame(SimMessage(
            src="srv", dst="rtrS", mtype="ACK", token=token, code="2.04",
            payload_kind="edhoc_m2", payload_len=40)), "srv")

    return world, guard, token, sent, late_answer, ["EMPTY", "5.04"]


def client_end_relay_setup(silent_server=False):
    """A fullguard world whose client tunnel end is ready, a log of the
    codes it sends toward `cli`, and an oscore request from `cli` for it to
    proxy to `srv`."""
    handles = run_fullguard_steady(until_ms=30_000)
    if silent_server:
        handles.server.handle = lambda frame, from_addr: None
    guard = handles.client_router
    req = SimMessage(src="cli", dst="rtrC", mtype="CON", mid=88,
                     token=b"\x88", code="POST", payload_kind="oscore",
                     proxy_uri="coap://srv", oscore_kid=b"\x01",
                     oscore_piv=500, payload_len=20)
    return handles, guard, req, log_toward_cli(guard)


def client_tunnel_end_given_up():
    """The client tunnel end relays `cli`'s request through the tunnel to a
    silent server and gives up; the late answer comes through the tunnel
    from the server end."""
    handles, guard, req, sent = client_end_relay_setup(silent_server=True)
    world, tunnel_in = handles.world, handles.server_router
    before = set(guard.outstanding)
    guard.receive(make_frame(req), "cli")
    (token,) = set(guard.outstanding) - before
    world.run_until(world.clock.now + 70_000)
    (ctx,) = tunnel_in.tunnel_rx.values()

    def late_answer():
        tunnel_in.send_tunnel_data(ctx, SimMessage(
            src="rtrS", dst="rtrC", mtype="ACK", token=token, code="2.04",
            payload_kind="oscore", payload_len=20), "rtrC", "legit")

    return world, guard, token, sent, late_answer, ["EMPTY", "5.04"]


def server_tunnel_end_given_up():
    """The server tunnel end relays a request from the tunnel to a silent
    server and gives up, answering through the tunnel; the late answer
    comes from the server."""
    handles = run_fullguard_steady(until_ms=30_000)
    world, tunnel_out, guard = (handles.world, handles.client_router,
                                handles.server_router)
    handles.server.handle = lambda frame, from_addr: None  # silent server
    inner = SimMessage(src="rtrC", dst="srv", mtype="CON", mid=77,
                       token=b"\x77\x77", code="POST", payload_kind="oscore",
                       oscore_kid=b"\x01", oscore_piv=3, payload_len=20)
    sent = []
    send_tunnel_data = guard.send_tunnel_data

    def logged(ctx, msg, dst, origin):
        if msg.token == inner.token:
            sent.append(msg.code)
        send_tunnel_data(ctx, msg, dst, origin)

    guard.send_tunnel_data = logged
    before = set(guard.outstanding)
    tunnel_out.send_tunnel_data(tunnel_out.tunnel_ctx, inner, "rtrS", "legit")
    world.run_until(world.clock.now + 1000)
    (token,) = set(guard.outstanding) - before
    world.run_until(world.clock.now + 70_000)

    def late_answer():
        guard.receive(make_frame(SimMessage(
            src="srv", dst="rtrS", mtype="ACK", token=token, code="2.05",
            payload_kind="oscore", payload_len=20)), "srv")

    return world, guard, token, sent, late_answer, ["5.04"]


@pytest.mark.parametrize("given_up", [exemptions_relay_given_up,
                                      client_tunnel_end_given_up,
                                      server_tunnel_end_given_up])
def test_given_up_relay_leaves_nothing_and_drops_a_late_answer(given_up):
    world, guard, token, sent, late_answer, expected = given_up()
    assert [e for e in world.trace.by_kind("giveup")
            if e["node"] == guard.address
            and e["detail"]["token"] == token.hex()]
    assert token not in guard.outstanding
    assert token not in getattr(guard, "tunnel_queue", {})
    assert sent == expected  # any empty ACK, then the 5.04 (RFC 7252 §5.7.1)
    late_answer()
    world.run_until(world.clock.now + 5000)
    assert sent == expected


def test_client_tunnel_end_answers_retransmission_from_cache():
    handles, guard, req, sent = client_end_relay_setup()
    world = handles.world
    guard.receive(make_frame(req), "cli")
    world.run_until(world.clock.now + 1000)
    assert sent == ["EMPTY", "4.01"]  # the server knows no kid 01
    guard.receive(make_frame(req, "attacker"), "cli")
    world.run_until(world.clock.now + 1000)
    # The same answer again; no second empty ACK and nothing upstream.
    assert sent[2:] == ["4.01"]
    assert not [e for e in srv_link_frames(world.trace)
                if e["detail"]["origin"] == "attacker"]


def test_client_tunnel_end_retransmission_in_flight_is_one_exchange():
    handles, guard, req, sent = client_end_relay_setup(silent_server=True)
    before = set(guard.outstanding)
    guard.receive(make_frame(req), "cli")
    guard.receive(make_frame(req), "cli")
    handles.world.run_until(handles.world.clock.now + 1000)
    assert sent == ["EMPTY", "EMPTY"]
    (token,) = set(guard.outstanding) - before
    assert guard.outstanding[token].via == "tunnel"
    assert ("cli", "88") in guard.relaying


def guard_relaying_into_tunnel():
    """A client tunnel end whose relayed request waits for a tunnel while
    the guard asks the AS for a tunnel token: proxy mid 1 and the guard's
    own mid 1. Returns the world, the guard, both exchanges and the codes
    the guard sent toward `cli`."""
    world = World(seed=1, collect_trace=True)
    guard = ClientTunnelGuard(world, "rtrC", key_id="key_cgp", key=b"k" * 16)
    sent = []
    guard.send_frame = lambda msg, origin: (
        sent.append(msg.code) if msg.dst == "cli" else None)
    guard.as_address = "as"
    guard.handle_inside(make_frame(SimMessage(
        src="cli", dst="rtrC", mid=9, token=b"\x09", proxy_uri="coap://srv")))
    tunneled, own = sorted(guard.outstanding.values(),
                           key=lambda ex: ex.via is None)
    return world, guard, tunneled, own, sent


def test_empty_ack_skips_exchanges_inside_the_tunnel():
    _, guard, tunneled, own, _ = guard_relaying_into_tunnel()
    assert tunneled.msg.mid == own.msg.mid == 1
    empty = make_frame(ack(own.msg, "as", "EMPTY", token=b""))
    assert guard.match_response(empty.msg, empty)
    assert own.acked and not tunneled.acked


def test_unprotected_answer_with_a_tunnel_token_is_blocked():
    # Off the wire it matches no exchange (the tunneled one awaits an
    # answer from the tunnel), so it is dropped as unsolicited.
    world, guard, tunneled, _, sent = guard_relaying_into_tunnel()
    token = tunneled.msg.token
    forged = make_frame(SimMessage(
        src="x0", dst="rtrC", mtype="ACK", mid=tunneled.msg.mid, token=token,
        code="2.04", payload_kind="oscore", payload_len=20), origin="attack")
    guard.handle(forged, "x0")
    assert [(e["node"], e["detail"]) for e in world.trace.by_kind("drop")] \
        == [("rtrC", {"reason": "unsolicited", "code": "2.04"})]
    assert guard.outstanding[token] is tunneled and not tunneled.done
    assert sent == ["EMPTY"]  # the empty ACK to cli's request, no answer


def test_replayed_tunnel_frame_is_dropped_before_the_server():
    captured = []

    def capture(frame):
        if frame.msg.payload_kind == "tunnel_data" and not captured:
            captured.append(frame)
        return frame

    def tap(handles):
        handles.client_router.links["rtrS"].interceptor = capture

    handles = run_fullguard_steady(mutate=tap)
    world, guard = handles.world, handles.server_router
    assert captured, "no tunnel frame crossed rtrC->rtrS"
    before = len([e for e in srv_link_frames(world.trace)
                  if e["node"] == "rtrS->srv"])
    guard.receive(captured[0], "rtrC")
    assert len(world.trace.by_kind("tunnel_replay")) == 1
    assert len([e for e in srv_link_frames(world.trace)
                if e["node"] == "rtrS->srv"]) == before


# --- confirmable exchanges: one timing source, and a lifetime --------------------------------

def acked_exchange(base_timeout_ms=2000, retransmit_limit=4, ack_at_ms=0):
    """A node's exchange, sent at 0, whose request gets only an empty ACK,
    at `ack_at_ms`. Returns the world, the node, the exchange's interaction
    and the times `on_giveup` was called."""
    world = World(seed=1, collect_trace=True)
    node = Node(world, "a")
    node.base_timeout_ms = base_timeout_ms
    node.retransmit_limit = retransmit_limit
    node.lifetime_ms = exchange_lifetime_ms(base_timeout_ms, retransmit_limit)
    node.send_frame = lambda msg, origin: None
    inter = Interaction("request", 0)
    gave_up = []
    msg = node.request("b", "app_request", {}, 8)
    node.send_con(msg, "legit", lambda resp, frame: None,
                  lambda: gave_up.append(world.clock.now), inter)
    empty = make_frame(ack(msg, "b", "EMPTY", token=b""))
    world.schedule(ack_at_ms, lambda: node.match_response(empty.msg, empty))
    return world, node, inter, gave_up


def test_acked_exchange_gives_up_at_first_send_plus_lifetime():
    world, node, inter, gave_up = acked_exchange()
    lifetime = 247_000  # RFC 7252's EXCHANGE_LIFETIME at the defaults
    world.run_until(lifetime - 1)
    assert inter.outcome is None and gave_up == []
    world.run_until(lifetime + 100_000)
    assert [(e["t"], e["node"]) for e in world.trace.by_kind("giveup")] == \
        [(lifetime, "a")]
    assert not world.trace.by_kind("retransmit")
    assert (inter.outcome, inter.t_end) == ("timed_out", lifetime)
    assert gave_up == [lifetime]
    assert node.outstanding == {} and len(world.queue) == 0
    assert exchange_lifetime_ms(DEFAULT_BASE_TIMEOUT_MS,
                                DEFAULT_RETRANSMIT_LIMIT) == lifetime


def test_exchange_acked_past_its_lifetime_gives_up_at_its_next_timer():
    # Base 200 s, limit 2: timers at 200, 600 and 1,400 s, and a lifetime
    # of 1,300 s, which has passed when the third timer finds it acked.
    world, node, inter, gave_up = acked_exchange(200_000, 2,
                                                 ack_at_ms=700_000)
    world.run_until(3_000_000)
    assert [e["t"] for e in world.trace.by_kind("retransmit")] == \
        [200_000, 600_000]
    assert gave_up == [1_400_000]
    assert inter.outcome == "timed_out" and len(world.queue) == 0
    assert exchange_lifetime_ms(200_000, 2) == 1_300_000


def test_a_run_computes_the_exchange_lifetime_at_most_once_per_node(
        monkeypatch):
    # At retransmit_limit n the lifetime holds 2**n, so a run that computed
    # it per exchange timer would take time growing with n.
    calls = []

    def counted(base_timeout_ms, retransmit_limit):
        calls.append((base_timeout_ms, retransmit_limit))
        return exchange_lifetime_ms(base_timeout_ms, retransmit_limit)

    for module in (coap_lite, actors, harness):
        if hasattr(module, "exchange_lifetime_ms"):
            monkeypatch.setattr(module, "exchange_lifetime_ms", counted)
    cfg = config_from_dict({"coap": {"retransmit_limit": 10}})
    sub = run_subrun(cfg, "baseline-throttled", "blind_flood", "setup")
    world = sub.handles.world
    assert 1 <= len(calls) <= len(world.nodes)
    assert set(calls) == {(2000, 10)}
    assert {node.lifetime_ms for node in world.nodes.values()} == \
        {exchange_lifetime_ms(2000, 10)}


SHORT_TIMEOUT = {"coap": {"base_timeout_ms": 500}}


def retransmits(world, node):
    return [(e["t"], e["detail"].get("via")) for e in
            world.trace.by_kind("retransmit") if e["node"] == node]


def test_guard_relay_retransmits_at_the_configured_timeout():
    world, guard, req, sent = relay_setup(
        silent_server=True, cfg=config_from_dict(SHORT_TIMEOUT))
    t0 = world.clock.now
    guard.receive(make_frame(req), "rtrC")
    world.run_until(t0 + 1000)
    assert retransmits(world, "rtrS") == [(t0 + 500, None)]


def test_client_bootstrap_retransmits_at_the_configured_timeout():
    handles = build_world(config_from_dict(SHORT_TIMEOUT), "baseline-open",
                          "none", 0, 10_000, 3, collect_trace=True)
    handles.rendezvous.handle = lambda frame, from_addr: None  # silent
    handles.client.bootstrap(lambda: None)
    handles.world.run_until(1000)
    assert retransmits(handles.world, "cli") == [(500, None)]


def test_tunnel_exchange_retransmits_at_the_configured_timeout():
    handles = build_world(config_from_dict(SHORT_TIMEOUT), "fullguard",
                          "none", 0, 10_000, 3, collect_trace=True)
    world, guard = handles.world, handles.client_router
    req = SimMessage(src="cli", dst="rtrC", mtype="CON", mid=1,
                     token=b"\x01", code="POST", proxy_uri="coap://srv",
                     payload_kind="oscore", payload_len=20)
    # No tunnel yet: the exchange waits in the queue, and still times out.
    guard.receive(make_frame(req), "cli")
    world.run_until(1000)
    assert retransmits(world, "rtrC") == [(500, "tunnel")]


# --- the server's half-open EDHOC sessions ---------------------------------------------------

def edhoc_server():
    """A server with no guard, whose answers are kept in the list returned."""
    server = ServerNode(World(seed=1), address="srv", audience="aud_srv",
                        rd_address="rd", as_address="as", energy=None,
                        guard_address=None, behind_tunnel=False,
                        audience_key=b"")
    sent = []
    server.send_frame = lambda msg, origin: sent.append(msg)
    return server, sent


def edhoc_message(src, mid, kind, payload):
    return make_frame(SimMessage(src=src, dst="srv", mtype="CON", mid=mid,
                                 token=bytes([mid % 256]), code="POST",
                                 payload_kind=kind, payload=payload,
                                 payload_len=40))


def test_server_keeps_at_most_max_half_open_sessions_oldest_first():
    server, sent = edhoc_server()
    bound = ServerNode.MAX_HALF_OPEN
    eph_r = {}

    def m1(src, mid):
        server.handle(edhoc_message(src, mid, "edhoc_m1",
                                    {"eph": b"i" + src.encode(), "session": 0}),
                      "rtrS")
        eph_r[src] = sent[-1].payload["eph"]

    def m3(src, mid):
        master = edhoc_master(b"i" + src.encode(), eph_r[src])
        server.handle(edhoc_message(src, mid, "edhoc_m3",
                                    {"session": 0,
                                     "confirm": edhoc_confirmation(master)}),
                      "rtrS")
        return sent[-1].code, sent[-1].payload_kind

    for i in range(bound):
        m1(f"x{i}", 1)
    m1("x0", 2)  # re-written just before the overflow: now the newest
    m1(f"x{bound}", 1)  # the (MAX_HALF_OPEN + 1)-th fresh source
    # x1's session, the oldest once x0's was re-written, is the one evicted.
    assert len(server.sessions) == bound
    assert ("x1", 0) not in server.sessions
    assert m3("x1", 3) == ("4.01", "error")
    assert m3("x0", 3) == ("2.04", "edhoc_done")
    assert m3(f"x{bound}", 3) == ("2.04", "edhoc_done")


def test_half_open_bound_moves_no_byte_where_a_quarter_of_it_would(
        monkeypatch):
    # Seed 7's baseline-open x blind_flood setup answers an m3 whose m1 is
    # 347 m1 writes old: 256 sessions evict it, MAX_HALF_OPEN does not.
    def report(bound):
        monkeypatch.setattr(ServerNode, "MAX_HALF_OPEN", bound)
        cfg = SimConfig()
        cfg.seed = 7
        return report_to_json(run_cell(cfg, "baseline-open", "blind_flood"))

    shipped = report(ServerNode.MAX_HALF_OPEN)
    assert shipped == report(10**9)
    assert shipped != report(256)


# --- attackers -------------------------------------------------------------------------------

def test_spoofed_sources_never_reach_verified():
    cfg = SimConfig()
    handles = build_world(cfg, "exemptions", "blind_flood", 0, 60_000,
                          derive_seed(5, "exemptions", "blind_flood", "t"))
    handles.server.start()
    handles.attacker.start()
    handles.world.run_until(60_000)
    gstate = handles.server_router.gstate
    spoofed = [rec for src, rec in gstate.flows.items() if src.startswith("x")]
    assert spoofed, "flood never observed at the guard"
    for rec in spoofed:
        assert CLASS_PRIORITY[rec.cls] < CLASS_PRIORITY[REACHABILITY_VERIFIED]


def test_attacker_blackholes_replies():
    world = World(seed=1)
    atk = FloodAttacker(world, 20.0, 1, ["srv"], 0, NEVER)
    atk.rng = Rng(1)
    challenge = SimMessage(src="rtrS", dst="x0", mtype="ACK", code="4.01",
                           echo=b"\x01" * 8)
    atk.receive(make_frame(challenge), "rtrS")  # must not raise or reply
    assert atk.owns("x0") and atk.owns("x17")


def test_interceptor_garbles_only_sealed_frames_within_budget():
    world = World(seed=1)
    atk = OnPathAttacker(world, 2, start_ms=0, stop_ms=10_000)
    atk.rng = Rng(2)
    intercept = atk.intercept
    clear = make_frame(SimMessage(src="a", dst="b", payload_len=10))
    assert intercept(clear) is clear  # unprotected frames untouched
    sealed_msg = SimMessage(src="a", dst="b", oscore_kid=b"\x01",
                            oscore_piv=0, sealed=b"\xaa" * 16, payload_len=24)
    out1 = intercept(make_frame(sealed_msg))
    out2 = intercept(make_frame(sealed_msg))
    assert out1.msg.sealed != sealed_msg.sealed
    assert out1.origin == "attacker"
    assert out1.size == message_size(sealed_msg)  # equal-size garbage
    # Budget exhausted: further frames pass unmodified.
    out3 = intercept(make_frame(sealed_msg))
    assert out3.msg.sealed == sealed_msg.sealed
    assert atk.corrupted == 2


def test_interceptor_idle_outside_window():
    world = World(seed=1)
    atk = OnPathAttacker(world, 4, start_ms=5000, stop_ms=6000)
    atk.rng = Rng(3)
    intercept = atk.intercept
    sealed_msg = SimMessage(src="a", dst="b", oscore_kid=b"\x01",
                            oscore_piv=0, sealed=b"\xaa" * 16)
    frame = make_frame(sealed_msg)
    assert intercept(frame) is frame  # t=0 is before the window
    assert atk.corrupted == 0


def test_distributed_flood_uses_distinct_sources():
    world = World(seed=1)
    atk = FloodAttacker(world, 20.0, 5, ["srv"], 0, NEVER)
    atk.rng = Rng(4)
    sources = set()
    for _ in range(20):
        sources.add(atk._build_message().src)
        atk.sent += 1
    assert sources == {f"x{i}" for i in range(5)}


def test_blind_flood_single_spoofed_source():
    world = World(seed=1)
    atk = FloodAttacker(world, 20.0, 1, ["srv"], 0, NEVER)
    atk.rng = Rng(5)
    for _ in range(10):
        assert atk._build_message().src == "x0"
        atk.sent += 1


def test_flood_frames_draw_target_then_eph_key():
    # Each flood frame draws its target, then its eph key, from the
    # attacker's generator and nothing else; frames carry `message_size`.
    world = World(seed=1)
    atk = FloodAttacker(world, 20.0, 3, ["rtrS/srv", "srv"], 0, NEVER)
    atk.rng = Rng(9)
    sent = []
    atk.forward = lambda frame, from_addr: sent.append(frame)
    mirror = Rng(9)
    for _ in range(40):
        dst = ["rtrS/srv", "srv"][mirror.randrange(2)]
        eph = mirror.bytes(8)
        atk.send_frame(atk._build_message(), "attacker")
        frame = sent[-1]
        assert (frame.msg.dst, frame.msg.payload["eph"]) == (dst, eph)
        assert frame.size == message_size(frame.msg)
        atk.sent += 1
    assert atk.rng.state == mirror.state
    assert {f.msg.dst for f in sent} == {"rtrS/srv", "srv"}


def victim_with(kid, pivs):
    """Stand-in for a client: its context's kid and the pivs it sent."""
    return SimpleNamespace(ctx=SimpleNamespace(sender_id=kid), sent_pivs=pivs)


def build_messages(atk, n):
    msgs = []
    for _ in range(n):
        msgs.append(atk._build_message())
        atk.sent += 1
    return msgs


def test_impersonator_mixes_jumps_and_replays():
    world = World(seed=1)
    atk = Impersonator(world, 2.0, victim_with(b"\x42", [3, 4]), True,
                       ["srv"], 0, NEVER)
    atk.rng = Rng(6)
    pivs, kids = [], set()
    for _ in range(8):
        msg = atk._build_message()
        pivs.append(msg.oscore_piv)
        kids.add(msg.oscore_kid)
        atk.sent += 1
    assert kids == {b"\x42"}
    assert any(p >= 10_000_000 for p in pivs)  # implausible jumps
    assert any(p in (3, 4) for p in pivs)  # replayed observed values


def test_client_keeps_the_first_four_pivs_an_impersonator_replays():
    handles = build_world(SimConfig(), "baseline-open", "none", 0, 1000, 4)
    client = handles.client
    client.entry = RendezvousEntry(name="srv", address="srv")
    client.ctx = edhoc_derive(b"i" * 8, b"r" * 8)
    for _ in range(10):
        client.send_app_request(counted=True)
    pivs = [ex.msg.oscore_piv for ex in client.outstanding.values()]
    assert len(pivs) == 10
    assert client.sent_pivs == pivs[:4]
    atk = Impersonator(handles.world, 2.0, client, True, ["srv"], 0, NEVER)
    msgs = build_messages(atk, 16)
    # The pivs the impersonator picked when the client kept them all.
    assert [m.oscore_piv for m in msgs[1::2]] == pivs[:4] * 2


def test_impersonator_without_the_kid_still_replays_the_victims_pivs():
    world = World(seed=1)
    atk = Impersonator(world, 2.0, victim_with(b"\x42", [3, 4]), False,
                       ["srv"], 0, NEVER)
    atk.rng = Rng(6)
    msgs = build_messages(atk, 8)
    # Draw order per frame: target, kid byte, sealed bytes.
    mirror = Rng(6)
    kids = []
    for _ in msgs:
        mirror.randrange(1)
        kids.append(mirror.bytes(1))
        mirror.bytes(30)
    assert [m.oscore_kid for m in msgs] == kids
    assert len(set(kids)) > 1
    assert [m.oscore_piv for m in msgs] == [
        10_000_000, 3, 10_000_002, 4, 10_000_004, 3, 10_000_006, 4]


def test_impersonator_sends_piv_zero_before_its_victim_sends():
    # A client that has sent no request: no context, no pivs.
    victim = build_world(SimConfig(), "baseline-open", "none", 0, 1000, 1).client
    atk = Impersonator(victim.world, 2.0, victim, True, ["srv"], 0, NEVER)
    atk.rng = Rng(7)
    msgs = build_messages(atk, 6)
    assert [m.oscore_piv for m in msgs[1::2]] == [0, 0, 0]
    assert all(len(m.oscore_kid) == 1 for m in msgs)


@pytest.mark.parametrize("rate, n_sources, period_ms", [
    (20.0, 1, 50), (1.0, 50, 20), (3.0, 7, 48), (2000.0, 3, 1)])
def test_flood_period_covers_every_source(rate, n_sources, period_ms):
    atk = FloodAttacker(World(seed=1), rate, n_sources, ["srv"], 0, NEVER)
    assert atk.period_ms == period_ms == \
        max(1, round(1000 / (rate * n_sources)))


def test_flood_sends_nothing_at_or_after_stop():
    world = World(seed=1, collect_trace=True)
    atk = FloodAttacker(world, 10.0, 4, ["srv"], 1000, 3000)
    atk.rng = Rng(8)
    atk.start()
    world.run_until(10_000)
    # No routes: every frame the attacker sends is dropped where it starts.
    sends = [e["t"] for e in world.trace.by_kind("drop")
             if e["node"] == "atk"]
    assert len(sends) == atk.sent > 20
    assert sends[0] == 1000
    assert max(sends) < 3000
    assert len(world.queue) == 0  # the tick loop has ended


def test_on_path_attacker_start_schedules_nothing():
    world = World(seed=1)
    OnPathAttacker(world, 4, 0, NEVER).start()
    assert len(world.queue) == 0
