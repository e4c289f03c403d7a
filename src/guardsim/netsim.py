"""Deterministic discrete-event engine: clock, event queue, links, energy, RNG.

Time is kept as integer milliseconds throughout so that traces are
bit-reproducible across platforms. All randomness flows through a seeded
SplitMix64 generator owned by the world. SplitMix64's n-th output is a
function of the seed and n alone, so `Rng` computes its outputs in blocks,
one big-integer pass per block of up to `BLOCK_CAP` draws, and hands out
exactly the numbers a draw-by-draw loop would.
"""

from __future__ import annotations

import functools
import heapq
import json
import struct
from collections import deque

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment


class SchedulingInPast(Exception):
    """Raised when an event is scheduled before the current clock time."""


class Rng:
    """SplitMix64 pseudo-random generator, drawn in blocks.

    Identical seeds produce identical streams in any implementation
    language, which is what keeps event traces reproducible.

    SplitMix64 is counter-based: the k-th output after state s is
    mix((s + k*GAMMA) mod 2**64), independent of the outputs before it.
    So one pass of `mix` over a packed integer whose 128-bit lanes hold
    consecutive states yields a whole block of outputs, the same ones a
    draw-by-draw loop would give. A lane holds a 64-bit value and the
    product of two of them, so no step carries into the next lane; a mask
    after each step clears the bits a right shift brings down from it.
    The first block is one draw, so a generator that `fork` makes and
    draws from once computes one; each refill doubles the block up to
    `BLOCK_CAP` draws, buffered as a list of ints: up to ~10 KB per
    generator. `state` is the state a draw-by-draw generator would have.
    """

    def __init__(self, seed: int):
        self._end = seed & MASK64  # state after the last buffered draw
        self._buf: list[int] = []  # buffered outputs, next one last
        self._block = 1  # draws in the next refill

    @property
    def state(self) -> int:
        return (self._end - len(self._buf) * GAMMA) & MASK64

    def next_u64(self) -> int:
        buf = self._buf
        if buf:
            return buf.pop()
        return self._refill()

    def _refill(self) -> int:
        k = self._block
        if k < BLOCK_CAP:
            self._block = 2 * k
        ones, steps, mask, unpack = _block_plan(k)
        end = self._end
        self._end = (end + k * GAMMA) & MASK64
        z = (end * ones + steps) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31  # the unpack reads only each lane's low 64 bits
        buf = self._buf = list(unpack(z.to_bytes(16 * k, "little")))
        return buf.pop()

    # `random`, `randrange` and `bytes(8)` pop the buffer themselves, as
    # `next_u64` does, rather than call it: one Python frame less a draw.

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of entropy."""
        buf = self._buf
        u = buf.pop() if buf else self._refill()
        return (u >> 11) / 9007199254740992.0  # 2.0 ** 53

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n > 0")
        buf = self._buf
        return (buf.pop() if buf else self._refill()) % n

    def bytes(self, n: int) -> bytes:
        if n == 8:  # nonces and ephemeral keys: one draw
            buf = self._buf
            return (buf.pop() if buf else self._refill()).to_bytes(8, "big")
        out = bytearray()
        while len(out) < n:
            out += self.next_u64().to_bytes(8, "big")
        return bytes(out[:n])

    def fork(self, salt: int) -> "Rng":
        """Derive an independent generator; used for per-subrun seeding."""
        child = Rng(self.state ^ (salt * GAMMA & MASK64))
        child.next_u64()
        return child


# Past 256 draws per block the time per draw stops falling (timeit, Python
# 3.11: ~0.21 us at 256 and at 1024 draws, ~0.28 us at 64), while each
# busy generator's buffer grows by ~40 bytes a draw: a cap of 1024 took
# 0.27 MB more peak memory than 256 on the 2000-source flood.
BLOCK_CAP = 256


@functools.cache
def _block_plan(k: int):
    """Constants of one refill of `k` draws: lane j, at bit 128*j, holds
    the state of draw k - j, so the little-endian unpack lists the draws
    last first and `list.pop` hands them out in order."""
    layout = struct.Struct("<" + "Q8x" * k)

    def packed(lanes):
        return int.from_bytes(layout.pack(*lanes), "little")

    ones = packed([1] * k)
    return ones, GAMMA * packed(range(k, 0, -1)), MASK64 * ones, layout.unpack


class SimClock:
    """Simulated time in integer milliseconds.

    Only `EventQueue.pop` and `World.run_until` move `now`, and they write
    it directly: `EventQueue.schedule` refuses a time before `now` and
    `World.run_until` an end before it, so no event or end lies in the
    past and `now` never decreases.
    """

    def __init__(self):
        self.now = 0  # milliseconds


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
        self.clock.now = at
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


class EnergyBudget:
    """Abstract per-device energy accounting.

    `remaining` only ever decreases; the device counts as exhausted once it
    hits zero and then drops all processing. The defaults, kept as class
    attributes, are also the `energy` config section's
    (`harness.EnergyConfig`).
    """

    remaining = 50_000.0
    cost_per_rx_byte = 0.00002
    cost_per_msg = 0.002
    cost_edhoc = 1.0
    cost_oscore_verify = 0.01

    def __init__(self, remaining: float = remaining,
                 cost_per_rx_byte: float = cost_per_rx_byte,
                 cost_per_msg: float = cost_per_msg,
                 cost_edhoc: float = cost_edhoc,
                 cost_oscore_verify: float = cost_oscore_verify):
        self.remaining = remaining
        self.cost_per_rx_byte = cost_per_rx_byte
        self.cost_per_msg = cost_per_msg
        self.cost_edhoc = cost_edhoc
        self.cost_oscore_verify = cost_oscore_verify
        self.exhausted = False

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

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


class Frame:
    """A message in flight, with bookkeeping for attribution and delivery."""

    def __init__(self, msg: object, origin: str, size: int):
        self.msg = msg  # SimMessage
        # The principal that caused this traffic ("legit", "attacker", ...).
        self.origin = origin
        self.size = size


class Link:
    """Unidirectional bandwidth-limited FIFO link with tail-drop queueing.

    Serialization time is size*8/bandwidth; frames that arrive while
    `queue_capacity` frames are still serializing are dropped. An optional
    interceptor, a `frame -> frame` callable, models an on-path attacker:
    it may pass or replace frames at delivery time. `tag` marks the link's
    segment; `Node.send_via`, which takes the link to send on, traces
    every frame on a "constrained" link. `receiver`, a `frame -> None`
    callable set when the link is wired, is the far end's way in;
    `Node.send_via` passes it to `transmit`.

    A link delivers its frames in the order it sent them: each delivery
    time is a serialization end, which never decreases, plus the fixed
    `delay_ms`, and the event queue breaks equal times by insertion order.
    So `transmit` keeps the frames in flight in a FIFO, and every frame's
    delivery event is the same bound method, which takes the oldest.
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
        # (frame, deliver_fn) of each frame sent and not yet delivered.
        self._in_flight: deque[tuple[Frame, object]] = deque()
        self._deliver = self._deliver_oldest  # bound once, not per frame
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
            if world.collect_trace:
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
        world.queue.schedule(deliver_at, self._deliver)
        self._in_flight.append((frame, deliver_fn))
        return ("delivered", deliver_at)

    def _deliver_oldest(self) -> None:
        frame, deliver_fn = self._in_flight.popleft()
        if self.interceptor is not None:
            frame = self.interceptor(frame)
        self.n_delivered += 1
        self.bytes_delivered += frame.size
        deliver_fn(frame)


class World:
    """Owns the clock, queue, RNG, energy ledger and trace for one run.

    The trace keeps events only with `collect_trace=True`; otherwise it is
    a `NullTrace`, and `emit` returns without forwarding to it. The
    per-frame call sites (`Link.transmit`'s tail drop, and in `actors`
    `Node.send_via`'s link frames, energy drains, guard blocks and drops,
    throttled drops, the server's `edhoc_msg` per m1 and m3) test
    `collect_trace` themselves and skip building the event. Energy
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
        self.clock.now = t_end
        return self.trace
