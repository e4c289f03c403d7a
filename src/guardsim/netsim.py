"""Deterministic discrete-event engine: clock, event queue, links, energy, RNG.

Time is kept as integer milliseconds throughout so that traces are
bit-reproducible across platforms. All randomness flows through a seeded
SplitMix64 generator owned by the world.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, field

MASK64 = (1 << 64) - 1


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the current clock time."""


def s_to_ms(seconds: float) -> int:
    return int(round(seconds * 1000))


class Rng:
    """SplitMix64 pseudo-random generator.

    Identical seeds produce identical streams in any implementation
    language, which is what keeps event traces reproducible.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of entropy."""
        return (self.next_u64() >> 11) / 9007199254740992.0  # 2.0 ** 53

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n > 0")
        return self.next_u64() % n

    def bytes(self, n: int) -> bytes:
        if n == 8:  # nonces and ephemeral keys: one draw
            return self.next_u64().to_bytes(8, "big")
        out = bytearray()
        while len(out) < n:
            out += self.next_u64().to_bytes(8, "big")
        return bytes(out[:n])

    def fork(self, salt: int) -> "Rng":
        """Derive an independent generator; used for per-subrun seeding."""
        child = Rng(self.state ^ (salt * 0x9E3779B97F4A7C15 & MASK64))
        child.next_u64()
        return child


class SimClock:
    def __init__(self):
        self.now = 0  # milliseconds

    def advance(self, t: int) -> None:
        if t < self.now:
            raise SchedulingInPast(f"clock cannot go back: {t} < {self.now}")
        self.now = t


class EventQueue:
    """Timestamp-ordered queue with stable (insertion order) tie-breaking."""

    def __init__(self, clock: SimClock):
        self.clock = clock
        self._heap: list[tuple[int, int, object]] = []
        self._seq = 0

    def schedule(self, at: int, fn) -> int:
        if at < self.clock.now:
            raise SchedulingInPast(f"schedule at {at} < now {self.clock.now}")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, fn))
        return self._seq

    def __len__(self) -> int:
        return len(self._heap)

    def pop(self):
        at, _, fn = heapq.heappop(self._heap)
        self.clock.advance(at)
        return fn

    def run_until(self, t_end: int) -> None:
        """Pop and run, in order, every event due at or before `t_end`."""
        heap = self._heap
        pop = self.pop
        while heap and heap[0][0] <= t_end:
            pop()()


class Trace:
    """Chronological list of simulation events, exportable as JSON lines."""

    def __init__(self):
        self.events: list[dict] = []

    def emit(self, t: int, kind: str, node: str, **detail) -> None:
        self.events.append({"t": t, "kind": kind, "node": node, "detail": detail})

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) for e in self.events
        )

    def by_kind(self, *kinds: str) -> list[dict]:
        return [e for e in self.events if e["kind"] in kinds]


class NullTrace:
    """Trace sink that discards every event; the default for a world.

    `events` stays empty. Reading the trace back raises, so that code
    which needs events but built its world without `collect_trace=True`
    fails instead of reading an empty trace.
    """

    events: tuple = ()

    def emit(self, t: int, kind: str, node: str, **detail) -> None:
        pass

    def _not_collected(self, *kinds: str):
        raise RuntimeError("trace not collected: build the world with "
                           "collect_trace=True")

    to_jsonl = by_kind = _not_collected


# Causes whose drain counts as attack-attributable.
ATTACK_CAUSES = ("attacker", "attacker_induced")


class EnergyLedger:
    """Running sums of the energy drained from a world's devices.

    `add` is called once per drain, in drain order, so each sum is the
    same float as the sum, in order, of the trace's "energy" events.
    """

    def __init__(self):
        self.total = 0.0
        self.attributable = 0.0
        self.by_cause: dict[str, float] = {}

    def add(self, amount: float, cause: str) -> None:
        self.total += amount
        self.by_cause[cause] = self.by_cause.get(cause, 0.0) + amount
        if cause in ATTACK_CAUSES:
            self.attributable += amount


@dataclass
class EnergyBudget:
    """Abstract per-device energy accounting.

    `remaining` only ever decreases; the device counts as exhausted once it
    hits zero and then drops all processing.
    """

    remaining: float = 50_000.0
    initial: float = field(default=0.0)
    cost_per_rx_byte: float = 0.00002
    cost_per_msg: float = 0.002
    cost_edhoc: float = 1.0
    cost_oscore_verify: float = 0.01
    exhausted: bool = False

    def __post_init__(self):
        if self.initial == 0.0:
            self.initial = self.remaining

    def drain(self, amount: float) -> float:
        """Drain `amount`, flooring at zero. Returns the amount actually drained."""
        if amount < 0:
            raise ValueError("energy drain must be non-negative")
        drained = min(amount, self.remaining)
        self.remaining -= drained
        if self.remaining <= 0.0:
            self.remaining = 0.0
            self.exhausted = True
        return drained

    def cost_of(self, event: str, nbytes: int = 0) -> float:
        if event == "rx_bytes":
            return self.cost_per_rx_byte * nbytes
        if event == "msg":
            return self.cost_per_msg
        if event == "edhoc":
            return self.cost_edhoc
        if event == "oscore_verify":
            return self.cost_oscore_verify
        raise ValueError(f"unknown energy event {event!r}")


def drain_energy(budget: EnergyBudget, event: str, nbytes: int = 0) -> float:
    """Drain the configured cost of one event class; returns drained amount."""
    return budget.drain(budget.cost_of(event, nbytes))


@dataclass
class Frame:
    """A message in flight, with bookkeeping for attribution and delivery."""

    msg: object  # SimMessage
    origin: str  # principal that caused this traffic ("legit", "attacker", ...)
    size: int


class Link:
    """Unidirectional bandwidth-limited FIFO link with tail-drop queueing.

    Serialization time is size*8/bandwidth; frames that arrive while
    `queue_capacity` frames are still serializing are dropped. An optional
    interceptor, a `frame -> frame` callable, models an on-path attacker:
    it may pass or replace frames at delivery time. `tag` marks the link's
    segment; `Node.send_via` traces every frame on a "constrained" link.
    `receiver`, a `frame -> None` callable set when the link is wired, is
    the far end's way in; `Node.send_via` passes it to `transmit`.
    """

    def __init__(self, world, name: str, bandwidth_bps: int, delay_ms: int,
                 queue_capacity: int):
        self.world = world
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay_ms = delay_ms
        self.queue_capacity = queue_capacity
        self.tag = None
        self.receiver = None
        self._busy_until = 0
        # Serialization-end times, non-decreasing: each is
        # max(now, _busy_until) + serialization time.
        self._pending: deque[int] = deque()
        self.interceptor = None
        self.n_sent = 0
        self.n_delivered = 0
        self.n_dropped = 0
        self.bytes_delivered = 0

    def queue_len(self, now: int) -> int:
        pending = self._pending
        while pending and pending[0] <= now:
            pending.popleft()
        return len(pending)

    def transmit(self, frame: Frame, deliver_fn) -> tuple[str, int | None]:
        """Enqueue a frame for `deliver_fn(frame)` at the far end.

        Returns ("delivered", at_ms) or ("dropped", None). The interceptor
        and the delivered counters act at delivery time.
        """
        world = self.world
        now = world.clock.now
        self.n_sent += 1
        if self.queue_len(now) >= self.queue_capacity:
            self.n_dropped += 1
            world.emit("drop", self.name, reason="queue_full",
                       dst=frame.msg.dst, origin=frame.origin,
                       size=frame.size)
            return ("dropped", None)
        busy = self._busy_until
        bandwidth = self.bandwidth_bps
        end = ((busy if busy > now else now)
               + (frame.size * 8000 + bandwidth - 1) // bandwidth)
        self._busy_until = end
        self._pending.append(end)
        deliver_at = end + self.delay_ms

        def deliver():
            out = frame
            if self.interceptor is not None:
                out = self.interceptor(frame)
            self.n_delivered += 1
            self.bytes_delivered += out.size
            deliver_fn(out)

        world.queue.schedule(deliver_at, deliver)
        return ("delivered", deliver_at)


class World:
    """Owns the clock, queue, RNG, energy ledger and trace for one run.

    The trace keeps events only with `collect_trace=True`; otherwise it is
    a `NullTrace`, and `emit` returns without forwarding to it. Energy
    figures come from `ledger`, which does not depend on the trace.
    """

    def __init__(self, seed: int, collect_trace: bool = False):
        self.clock = SimClock()
        self.queue = EventQueue(self.clock)
        self.rng = Rng(seed)
        self.collect_trace = collect_trace
        self.trace = Trace() if collect_trace else NullTrace()
        self.ledger = EnergyLedger()
        self.nodes: dict[str, object] = {}

    def schedule(self, at: int, fn) -> int:
        return self.queue.schedule(at, fn)

    def schedule_in(self, delay: int, fn) -> int:
        return self.queue.schedule(self.clock.now + delay, fn)

    def emit(self, kind: str, node: str, **detail) -> None:
        if not self.collect_trace:
            return
        self.trace.emit(self.clock.now, kind, node, **detail)

    def add_node(self, node) -> None:
        self.nodes[node.address] = node

    def run_until(self, t_end: int) -> Trace | NullTrace:
        if t_end < self.clock.now:
            raise SchedulingInPast(f"t_end {t_end} < now {self.clock.now}")
        self.queue.run_until(t_end)
        self.clock.advance(t_end)
        return self.trace
