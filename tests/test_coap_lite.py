"""Message sizing, confirmable retransmission schedule, and the proxy
rewriting a guard does as it relays."""

import pytest
from hypothesis import example, given, strategies as st

from guardsim.actors import GuardNode, TokensExhausted, UnknownOrigin
from guardsim.coap_lite import (AddressTable, EventAfterFinal, SimMessage,
                                TxState, deserialize_inner, message_size,
                                serialize_inner, tx_step)
from guardsim.netsim import Frame, World


# --- message size -------------------------------------------------------------

def test_size_header_only():
    msg = SimMessage(src="a", dst="b", mtype="ACK", code="EMPTY")
    assert message_size(msg) == 4


def test_size_formula_example():
    # 4 header + 2 token + (2 + 8) echo option + 10 payload = 26
    msg = SimMessage(src="a", dst="b", token=b"\x01\x02", echo=bytes(8),
                     payload_len=10)
    assert message_size(msg) == 26


def test_size_option_monotonicity():
    base = SimMessage(src="a", dst="b", token=b"\x01", payload_len=5)
    with_opts = [
        base.copy(echo=bytes(8)),
        base.copy(proxy_uri="coap://srv"),
        base.copy(oscore_kid=b"\x07", oscore_piv=3),
    ]
    for msg in with_opts:
        assert message_size(msg) > message_size(base)


@given(st.integers(0, 100), st.integers(0, 8))
def test_size_grows_with_payload_and_token(payload, token_len):
    msg = SimMessage(src="a", dst="b", token=bytes(token_len),
                     payload_len=payload)
    assert message_size(msg) == 4 + token_len + payload


# --- address tables ---------------------------------------------------------------

def first_match(entries, addr):
    """Oracle: the entry-by-entry matcher that `AddressTable` replaced."""
    for pattern, value in entries:
        if pattern.endswith("*"):
            if addr.startswith(pattern[:-1]):
                return value
        elif addr == pattern:
            return value
    return None


# Over a three-letter alphabet, drawn entry lists hold `*`, prefixes, exact
# patterns, duplicates and exact patterns that an earlier prefix covers.
PATTERNS = st.builds(lambda body, star: body + "*" * star,
                     st.text("abx", max_size=3), st.booleans())


@given(st.lists(PATTERNS, max_size=8),
       st.lists(st.text("abx", max_size=4), max_size=8))
@example(["x*", "x1", "a", "a", "srv", "*"], ["x1", "a", "srv1", "zz"])
@example(["srv", "rd", "srv"], ["srv", "srv1", ""])  # no prefix: the dict's get
def test_address_table_returns_the_first_matching_entry(patterns, addrs):
    # Each value is its entry's index (0 included), so the test sees which
    # of several matching entries answered.
    entries = [(pattern, i) for i, pattern in enumerate(patterns)]
    table = AddressTable(entries)
    assert table.entries == tuple(entries)
    for addr in addrs + [p.rstrip("*") for p in patterns] + ["", "abxa"]:
        assert table.get(addr) == first_match(entries, addr)


def test_address_table_refuses_none_values():
    with pytest.raises(ValueError):
        AddressTable([("a", None)])


# --- retransmission schedule ----------------------------------------------------

def brute_force_schedule(base_ms, limit):
    """Independent timer simulation: transmission times and give-up time."""
    t, timeout = 0, base_ms
    times = [0]
    for _ in range(limit):
        t += timeout
        timeout *= 2
        times.append(t)
    return times, t + timeout


def give_up_time_ms(base_ms, limit):
    """Closed form of the give-up time: the doubling timeouts
    b + 2b + ... + 2^limit * b sum to b * (2^(limit+1) - 1)."""
    return base_ms * ((1 << (limit + 1)) - 1)


def drive_tx(base_ms, limit):
    """Run the state machine against its own timers; return observed times."""
    state = TxState(base_timeout_ms=base_ms, retransmit_limit=limit)
    now = 0
    times = [0]
    tx_step(state, "sent")
    while True:
        now += state.next_timeout_ms
        action = tx_step(state, "timer")
        if action == "retransmit":
            times.append(now)
        else:
            return times, now


def test_default_schedule_matches_brute_force():
    # base 2 s, limit 4: transmissions at 0/2/6/14/30 s, give-up at 62 s.
    times, give_up = drive_tx(2000, 4)
    assert times == [0, 2000, 6000, 14_000, 30_000]
    assert give_up == 62_000
    assert brute_force_schedule(2000, 4) == (times, give_up)
    assert give_up_time_ms(2000, 4) == 62_000


@given(st.integers(100, 5000), st.integers(0, 6))
def test_schedule_matches_brute_force_any_params(base_ms, limit):
    assert drive_tx(base_ms, limit) == brute_force_schedule(base_ms, limit)
    assert give_up_time_ms(base_ms, limit) == brute_force_schedule(base_ms, limit)[1]


def test_event_after_final_raises():
    state = TxState(base_timeout_ms=10, retransmit_limit=0)
    tx_step(state, "sent")
    assert tx_step(state, "timer") == "give_up"
    assert state.outcome == "timed_out"
    with pytest.raises(EventAfterFinal):
        tx_step(state, "timer")


def test_attempts_bounded_by_limit():
    state = TxState(base_timeout_ms=100, retransmit_limit=3)
    tx_step(state, "sent")
    while state.outcome == "pending":
        tx_step(state, "timer")
    assert state.attempts <= state.retransmit_limit + 1


# --- proxy rewriting (RFC 7252 §5.7.2), as a guard relays -----------------------

def relaying_guard():
    """A guard at "proxy" that keeps each request it relays, with its
    answer callback, in `sent` instead of starting its exchange, and each
    answer it delivers in `delivered`."""
    guard = GuardNode(World(seed=1), "proxy", key_id="key_g")
    guard.sent, guard.delivered = [], []
    guard.send_upstream = lambda up, origin, on_response, on_giveup: \
        guard.sent.append((up, on_response))
    return guard


def relay(guard, req, origin_server="srv"):
    """Relay `req` under a key of its own; return the request sent on."""
    guard.relay(len(guard.sent), req, origin_server, "legit",
                lambda answer, origin: guard.delivered.append(answer))
    return guard.sent[-1][0]


def test_forward_rewrite_strips_proxy_uri():
    guard = relaying_guard()
    msg = SimMessage(src="cli", dst="proxy", token=b"\xaa", mid=7,
                     proxy_uri="coap://srv/r")
    out = relay(guard, msg)
    assert out.dst == "srv"
    assert out.src == "proxy"
    assert out.proxy_uri is None


def test_rewrite_without_origin_raises():
    guard = relaying_guard()
    msg = SimMessage(src="cli", dst="proxy", token=b"\x01")
    with pytest.raises(UnknownOrigin):
        relay(guard, msg, None)
    # No token was used up: the next request still gets the first one.
    assert relay(guard, msg).token == b"\x00\x01"


def test_reverse_round_trip_identity():
    guard = relaying_guard()
    req = SimMessage(src="cli", dst="proxy", token=b"\x11\x22", mid=42)
    up = relay(guard, req)
    resp = SimMessage(src="srv", dst="proxy", mtype="ACK", mid=up.mid,
                      token=up.token, code="2.05")
    guard.sent[-1][1](resp, Frame(resp, "legit", message_size(resp)))
    down, = guard.delivered
    assert (down.dst, down.token, down.mid) == ("cli", b"\x11\x22", 42)
    assert down.src == "proxy"


def test_rewrite_preserves_oscore_header_and_payload():
    guard = relaying_guard()
    req = SimMessage(src="cli", dst="proxy", token=b"\x01",
                     oscore_kid=b"\x07", oscore_piv=9, payload_len=33,
                     sealed=b"sealed-bytes")
    up = relay(guard, req)
    assert up.oscore_kid == b"\x07"
    assert up.oscore_piv == 9
    assert up.payload_len == 33
    assert up.sealed == b"sealed-bytes"


def test_token_remap_injective():
    guard = relaying_guard()
    tokens = set()
    for i in range(200):
        req = SimMessage(src=f"cli{i}", dst="proxy", token=b"\x01", mid=i)
        up = relay(guard, req)
        tokens.add(up.token)
    assert len(tokens) == 200


def test_new_token_skips_live_tokens_after_wrap():
    guard = relaying_guard()
    live = guard.outstanding
    for i in range(2):
        up = relay(guard, SimMessage(src="cli", dst="proxy", mid=i))
        live[up.token] = up  # the guard files its exchange under the token
    assert list(live) == [b"\x00\x01", b"\x00\x02"]
    issued = [guard.relay_token() for _ in range(3, 0x10000)]
    assert issued[-1] == b"\xff\xff"
    # The counter wraps to 0, then skips 1 and 2, which are still live.
    assert [guard.relay_token() for _ in range(2)] == [b"\x00\x00",
                                                        b"\x00\x03"]


def test_new_token_raises_once_every_token_is_live():
    guard = relaying_guard()
    live = guard.outstanding
    for mid in range(0x10000):
        token = guard.relay_token()
        assert token not in live
        live[token] = mid
    with pytest.raises(TokensExhausted):
        guard.relay_token()
    del live[b"\x12\x34"]
    assert guard.relay_token() == b"\x12\x34"


# --- inner serialization ----------------------------------------------------------

def test_inner_serialization_round_trip():
    inner = SimMessage(src="cli", dst="srv", code="GET",
                       payload_kind="app_request",
                       payload={"n": 3, "tag": "t1"},
                       payload_len=8, echo=b"\xaa" * 8)
    data = serialize_inner(inner)
    back = deserialize_inner(data, SimMessage(src="cli", dst="srv"))
    assert back.code == "GET"
    assert back.payload == {"n": 3, "tag": "t1"}
    assert back.payload_len == 8
    assert back.echo == b"\xaa" * 8


def test_copy_takes_its_own_payload_and_rejects_unknown_fields():
    base = SimMessage(src="a", dst="b", payload={"n": 1})
    dup = base.copy(dst="c")
    dup.payload["n"] = 2
    assert (base.dst, base.payload) == ("b", {"n": 1})
    assert base.copy(payload={"m": 3}).payload == {"m": 3}
    with pytest.raises(TypeError):
        base.copy(no_such_field=1)


def test_inner_serialization_deterministic():
    inner = SimMessage(src="a", dst="b", payload={"x": 1, "y": "z"})
    assert serialize_inner(inner) == serialize_inner(inner.copy())
    # The payload's keys are encoded in order, whatever order they came in.
    assert serialize_inner(inner) == \
        serialize_inner(inner.copy(payload={"y": "z", "x": 1}))
