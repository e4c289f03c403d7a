"""Engine-level tests: RNG, clock/queue, links, energy, traces."""

import pytest
from hypothesis import given, strategies as st

from guardsim.coap_lite import SimMessage
from guardsim.netsim import (MASK64, EnergyBudget, EnergyLedger, EventQueue,
                             Frame, Link, Rng, SchedulingInPast, SimClock,
                             Trace, World)


# --- SplitMix64 -------------------------------------------------------------

# Frozen outputs of the published SplitMix64 reference implementation.
SPLITMIX_VECTORS = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679],
    1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423],
}

# Multiplying a state difference by this counts the draws between them.
GAMMA_INVERSE = pow(0x9E3779B97F4A7C15, -1, 2**64)


def test_splitmix64_reference_vectors():
    for seed, expected in SPLITMIX_VECTORS.items():
        rng = Rng(seed)
        assert [rng.next_u64() for _ in range(3)] == expected


def test_rng_same_seed_same_stream():
    a, b = Rng(99), Rng(99)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_rng_random_in_unit_interval():
    rng = Rng(7)
    for _ in range(1000):
        x = rng.random()
        assert 0.0 <= x < 1.0


def test_rng_fork_independent():
    base = Rng(42)
    a = base.fork(1)
    b = base.fork(2)
    assert a.next_u64() != b.next_u64()


def test_rng_bytes_length():
    rng = Rng(3)
    for n in (0, 1, 7, 8, 9, 33):
        assert len(rng.bytes(n)) == n


class ScalarSplitMix64:
    """Oracle: the draw-by-draw SplitMix64 loop, one state step per draw,
    with `Rng`'s derived draws written on top of it."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def random(self):
        return (self.next_u64() >> 11) / 2.0 ** 53

    def randrange(self, n):
        return self.next_u64() % n

    def bytes(self, n):
        out = b"".join(self.next_u64().to_bytes(8, "big")
                       for _ in range((n + 7) // 8))
        return out[:n]

    def fork(self, salt):
        child = ScalarSplitMix64(self.state ^ (salt * 0x9E3779B97F4A7C15
                                               & MASK64))
        child.next_u64()
        return child


RNG_CALLS = st.one_of(
    st.tuples(st.just("next_u64")),
    st.tuples(st.just("random")),
    st.tuples(st.just("randrange"), st.integers(1, 2**70)),
    st.tuples(st.just("bytes"), st.integers(0, 40)),
    st.tuples(st.just("fork"), st.integers(0, 2**64 - 1)),
)


@given(st.integers(0, 2**64 - 1), st.lists(RNG_CALLS, min_size=1, max_size=40))
def test_block_rng_matches_the_scalar_loop(seed, calls):
    # The calls, and one draw after them, repeat until 600 draws: past
    # the refills of 1, 2, ... 256 draws.
    rng, oracle = Rng(seed), ScalarSplitMix64(seed)
    draws = 0
    while draws < 600:
        for name, *args in calls + [("next_u64",)]:
            before = oracle.state
            got = getattr(rng, name)(*args)
            want = getattr(oracle, name)(*args)
            draws += ((oracle.state - before) * GAMMA_INVERSE) & MASK64
            if name == "fork":
                assert got.state == want.state
                got, want = ([r.next_u64() for _ in range(3)]
                             for r in (got, want))
            assert got == want
            assert rng.state == oracle.state


def _bytes_by_blocks(rng, n):
    out = bytearray()
    while len(out) < n:
        out += rng.next_u64().to_bytes(8, "big")
    return bytes(out[:n])


@given(st.integers(0, 2**64 - 1), st.integers(0, 64))
def test_rng_bytes_is_the_block_loop(seed, n):
    # Whole big-endian draws, the last one cut; the 8-byte fast path too.
    fast, loop = Rng(seed), Rng(seed)
    assert fast.bytes(n) == _bytes_by_blocks(loop, n)
    assert fast.state == loop.state


# --- clock and queue --------------------------------------------------------

def test_queue_stable_tie_break():
    clock = SimClock()
    q = EventQueue(clock)
    order = []
    q.schedule(1000, lambda: order.append("A"))
    q.schedule(1000, lambda: order.append("B"))
    while q:
        q.pop()()
    assert order == ["A", "B"]


def test_schedule_future_advances_clock():
    clock = SimClock()
    clock.now = 3000
    q = EventQueue(clock)
    q.schedule(5000, lambda: None)
    q.pop()()
    assert clock.now == 5000


def test_schedule_in_past_rejected():
    clock = SimClock()
    clock.now = 3000
    q = EventQueue(clock)
    with pytest.raises(SchedulingInPast):
        q.schedule(2000, lambda: None)


def test_run_until_empty_queue():
    world = World(seed=1, collect_trace=True)
    trace = world.run_until(5000)
    assert trace.events == []
    assert world.clock.now == 5000


def test_run_until_leaves_future_events_queued():
    world = World(seed=1)
    fired = []
    world.schedule(5000, lambda: fired.append(1))
    world.run_until(3000)
    assert fired == []
    assert len(world.queue) == 1


@given(st.lists(st.tuples(st.integers(0, 60),
                          st.lists(st.integers(0, 30), max_size=3)),
                min_size=1, max_size=25),
       st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_each_event_sees_the_clock_at_its_own_time(plan, steps):
    """Random schedules, with events that schedule more events, run in
    several `run_until` steps: each event runs with `clock.now` equal to
    its own time, never lower than the last, and each step ends at its
    `t_end`. The past stays refused throughout."""
    world = World(seed=1)
    seen = []  # (scheduled time, clock.now when it ran)

    def event(at, delays):
        def run():
            seen.append((at, world.clock.now))
            for d in delays:
                world.schedule_in(d, event(world.clock.now + d, ()))
        return run

    for at, delays in plan:
        world.schedule(at, event(at, delays))
    t_end = 0
    for step in steps:
        t_end += step
        world.run_until(t_end)
        assert world.clock.now == t_end
        assert all(at > t_end for at, _, _ in world.queue._heap)
        if t_end > 0:
            with pytest.raises(SchedulingInPast):
                world.schedule(t_end - 1, lambda: None)
            with pytest.raises(SchedulingInPast):
                world.run_until(t_end - 1)
    assert [now for _, now in seen] == sorted(now for _, now in seen)
    assert all(now == at for at, now in seen)
    assert len(seen) + len(world.queue) == len(plan) + sum(
        len(delays) for (at, delays) in plan if at <= t_end)


# --- links -------------------------------------------------------------------

def _frame(size, dst="b"):
    return Frame(SimMessage(src="a", dst=dst, payload_len=size - 4), "legit", size)


def test_link_serialization_1kbit_125_bytes():
    # 125 bytes * 8 / 1000 bps = 1.0 s
    world = World(seed=1)
    link = Link(world, "a->b", 1000, 0, 8)
    status, at = link.transmit(_frame(125), lambda fr: None)
    assert (status, at) == ("delivered", 1000)


def test_link_fifo_serialization():
    world = World(seed=1)
    link = Link(world, "a->b", 1000, 0, 8)
    _, at1 = link.transmit(_frame(125), lambda fr: None)
    _, at2 = link.transmit(_frame(125), lambda fr: None)
    assert (at1, at2) == (1000, 2000)


def test_link_tail_drop_overflow():
    world = World(seed=1)
    link = Link(world, "a->b", 1000, 0, 4)
    results = [link.transmit(_frame(100), lambda fr: None)[0] for _ in range(6)]
    assert results.count("delivered") == 4
    assert results.count("dropped") == 2
    assert link.n_sent == 6


def test_link_tail_drop_event_is_unchanged():
    world = World(seed=1, collect_trace=True)
    link = Link(world, "a->b", 1000, 0, 1)
    link.transmit(_frame(100), lambda fr: None)
    assert link.transmit(_frame(100, dst="c"), lambda fr: None)[0] == "dropped"
    assert world.trace.events == [
        {"t": 0, "kind": "drop", "node": "a->b",
         "detail": {"reason": "queue_full", "dst": "c", "origin": "legit",
                    "size": 100}}]


def test_link_tail_drop_skips_the_sink_without_a_trace():
    world = World(seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("tail drop reached the discarding sink")

    world.trace.emit = refuse
    link = Link(world, "a->b", 1000, 0, 1)
    results = [link.transmit(_frame(100), lambda fr: None)[0]
               for _ in range(3)]
    assert results == ["delivered", "dropped", "dropped"]


def test_link_delivery_callback_and_conservation():
    world = World(seed=1)
    link = Link(world, "a->b", 1000, 50, 2)
    got = []
    for _ in range(5):
        link.transmit(_frame(125), got.append)
    world.run_until(10_000)
    assert len(got) == link.n_delivered
    assert link.n_delivered + link.n_dropped == link.n_sent


def test_link_counts_deliveries_when_they_happen():
    # 125 bytes take 1 s; the counters move at delivery, not at transmit.
    world = World(seed=1)
    link = Link(world, "a->b", 1000, 50, 8)
    got = []
    link.transmit(_frame(125), got.append)
    link.transmit(_frame(50), got.append)
    assert (link.n_sent, link.n_delivered, link.bytes_delivered) == (2, 0, 0)
    world.run_until(1049)
    assert (link.n_delivered, link.bytes_delivered, got) == (0, 0, [])
    world.run_until(1050)
    assert (link.n_delivered, link.bytes_delivered) == (1, 125)
    world.run_until(1450)
    assert (link.n_delivered, link.bytes_delivered) == (2, 175)
    assert [fr.size for fr in got] == [125, 50]


def test_link_counts_what_the_interceptor_delivers():
    world = World(seed=1)
    link = Link(world, "a->b", 1000, 0, 8)
    seen = []

    def swap(frame):
        seen.append(world.clock.now)
        return _frame(frame.size + 10, dst="c")

    link.interceptor = swap
    got = []
    link.transmit(_frame(125), got.append)
    assert seen == [] and link.n_delivered == 0
    world.run_until(1000)
    assert seen == [1000]
    assert (link.n_delivered, link.bytes_delivered) == (1, 135)
    assert [(fr.msg.dst, fr.size) for fr in got] == [("c", 135)]


def test_link_interceptor_set_in_flight_acts_at_delivery():
    # Both frames were sent before the interceptor was set; the one still
    # in flight when it is set passes through it.
    world = World(seed=1)
    link = Link(world, "a->b", 1000, 0, 8)
    got = []
    link.transmit(_frame(125), got.append)  # arrives at 1000
    link.transmit(_frame(50), got.append)  # arrives at 1400
    world.run_until(1000)
    link.interceptor = lambda frame: _frame(frame.size + 10, dst="c")
    world.run_until(2000)
    assert [(fr.msg.dst, fr.size) for fr in got] == [("b", 125), ("c", 60)]
    assert (link.n_delivered, link.bytes_delivered) == (2, 185)


def test_frame_in_flight_at_the_end_is_not_delivered():
    world = World(seed=1)
    link = Link(world, "a->b", 1000, 10, 8)
    got = []
    link.transmit(_frame(125), got.append)  # arrives at 1010
    world.run_until(1009)
    assert (link.n_sent, link.n_delivered, link.bytes_delivered) == (1, 0, 0)
    assert got == [] and len(world.queue) == 1
    # A later run delivers it, and a frame sent after it follows it.
    link.transmit(_frame(50), got.append)  # arrives at 1410
    world.run_until(1010)
    assert (link.n_delivered, link.bytes_delivered) == (1, 125)
    world.run_until(5000)
    assert (link.n_sent, link.n_delivered, link.bytes_delivered) == (2, 2, 175)
    assert [fr.size for fr in got] == [125, 50]


@given(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 3000)),
                min_size=1, max_size=40), st.integers(0, 30))
def test_link_delivers_in_send_order_to_each_senders_fn(sends, delay_ms):
    # Senders at irregular times, bursts included, each with its own
    # `deliver_fn`: every accepted frame reaches its own sender's function
    # at the time `transmit` returned, and the link as a whole delivers in
    # send order.
    world = World(seed=1)
    link = Link(world, "a->b", 8000, delay_ms, 6)
    sent, got = [], []

    def send(i, size):
        frame = _frame(size + 4)
        status, at = link.transmit(
            frame, lambda fr: got.append((i, fr, world.clock.now)))
        if status == "delivered":
            sent.append((i, frame, at))

    for i, (size, t) in enumerate(sorted(sends, key=lambda p: p[1])):
        world.schedule(t, lambda i=i, size=size: send(i, size))
    world.run_until(10_000_000)
    assert got == sent
    assert link.n_delivered == len(sent) == link.n_sent - link.n_dropped


def test_one_message_over_one_second_link():
    # Hand simulation: send at t=0 over a 1 s link -> receive at t=1000 ms.
    world = World(seed=1, collect_trace=True)
    link = Link(world, "a->b", 1000, 0, 8)
    world.schedule(0, lambda: (
        world.emit("send", "a"),
        link.transmit(_frame(125), lambda fr: world.emit("receive", "b")),
    ))
    trace = world.run_until(2000)
    times = {e["kind"]: e["t"] for e in trace.events}
    assert times == {"send": 0, "receive": 1000}


@given(st.lists(st.tuples(st.integers(5, 200), st.integers(0, 5000)),
                min_size=1, max_size=30))
def test_link_bandwidth_bound(sends):
    # Bytes delivered over the whole run never exceed capacity plus one frame.
    world = World(seed=1)
    link = Link(world, "a->b", 2000, 0, 100)
    end_times = []
    for size, t in sorted(sends, key=lambda p: p[1]):
        world.schedule(t, lambda s=size: link.transmit(
            _frame(s), lambda fr: end_times.append(world.clock.now)))
    world.run_until(10_000_000)
    if end_times:
        window = max(end_times)
        assert link.bytes_delivered <= 2000 * window / 8000.0 + 200


@given(st.lists(st.tuples(st.integers(1, 20), st.integers(0, 25)),
                min_size=1, max_size=60))
def test_queue_len_matches_brute_force_count(sends):
    # Irregular send times, bursts at one timestamp included; the queue is
    # every accepted frame whose serialization has not ended yet, and
    # `transmit` drops exactly when it is full. Each accepted frame ends
    # serializing `size` ms after the later of now and the previous end: at
    # 8 kbit/s a byte takes 1 ms, so sends often land exactly on an end.
    world = World(seed=1)
    link = Link(world, "a->b", 8000, 5, 4)
    ends = []
    now = 0
    for size, gap in sends:
        now += gap
        world.clock.now = now
        queued = sum(1 for e in ends if e > now)
        assert link.queue_len(now) == queued
        status, at = link.transmit(_frame(size), lambda fr: None)
        if queued >= link.queue_capacity:
            assert (status, at) == ("dropped", None)
        else:
            end = max([now] + ends) + size
            assert (status, at) == ("delivered", end + link.delay_ms)
            ends.append(end)
        assert link.queue_len(now) == sum(1 for e in ends if e > now)
    assert link.n_dropped == len(sends) - len(ends)


# --- energy --------------------------------------------------------------------

def test_energy_50000_edhoc_runs_exhaust_budget():
    budget = EnergyBudget()
    for _ in range(49_999):
        budget.drain(budget.cost_of("edhoc"))
    assert not budget.exhausted
    budget.drain(budget.cost_of("edhoc"))
    assert budget.remaining == 0.0
    assert budget.exhausted


def test_energy_zero_byte_rx_is_free():
    budget = EnergyBudget()
    budget.drain(budget.cost_of("rx_bytes", nbytes=0))
    assert budget.remaining == EnergyBudget.remaining
    assert not budget.exhausted


def test_energy_floors_at_zero():
    budget = EnergyBudget(remaining=10.0, cost_edhoc=25.0)
    drained = budget.drain(budget.cost_of("edhoc"))
    assert drained == 10.0
    assert budget.remaining == 0.0
    assert budget.exhausted


def test_energy_monotone_nonincreasing():
    budget = EnergyBudget(remaining=5.0)
    last = budget.remaining
    rng = Rng(5)
    for _ in range(200):
        event = ("msg", "oscore_verify", "edhoc")[rng.randrange(3)]
        budget.drain(budget.cost_of(event))
        assert budget.remaining <= last
        last = budget.remaining
    assert budget.remaining >= 0.0


def test_energy_ledger_sums_in_drain_order():
    ledger = EnergyLedger()
    for amount, cause in [(0.1, "legit"), (0.2, "attacker"),
                          (0.3, "attacker_induced"), (0.7, "legit")]:
        ledger.add(amount, cause)
    assert ledger.total == ((0.1 + 0.2) + 0.3) + 0.7
    assert ledger.attributable == 0.2 + 0.3
    assert ledger.by_cause == {"legit": 0.1 + 0.7, "attacker": 0.2,
                               "attacker_induced": 0.3}


def test_energy_negative_drain_rejected():
    with pytest.raises(ValueError):
        EnergyBudget().drain(-1.0)


# --- trace -----------------------------------------------------------------------

def test_trace_jsonl_is_deterministic_text():
    t1, t2 = Trace(), Trace()
    for t in (t1, t2):
        t.emit(5, "send", "a", size=10, dst="b")
        t.emit(7, "recv", "b", size=10)
    assert t1.to_jsonl() == t2.to_jsonl()
    assert t1.to_jsonl().count("\n") == 1


def test_world_emit_skips_the_sink_without_a_trace():
    world = World(seed=1)

    def refuse(*args, **kwargs):
        raise AssertionError("emit reached the discarding sink")

    world.trace.emit = refuse
    world.emit("drop", "n", reason="x")
    traced = World(seed=1, collect_trace=True)
    traced.emit("drop", "n", reason="x")
    assert traced.trace.events == [
        {"t": 0, "kind": "drop", "node": "n", "detail": {"reason": "x"}}]


def test_trace_by_kind():
    tr = Trace()
    tr.emit(1, "send", "a")
    tr.emit(2, "recv", "b")
    tr.emit(3, "send", "a")
    assert len(tr.by_kind("send")) == 2
    assert len(tr.by_kind("send", "recv")) == 3
