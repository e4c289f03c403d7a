"""Experiment harness: configuration, scenario construction, cell runs,
behavior classification and report rendering.

A cell is one (scenario, attack) pair. Each cell runs two sub-runs:
"setup" (repeated fresh key exchanges with the attack active from t=0) and
"steady" (one client sets up during a quiet warmup, then issues periodic
requests while under attack). The two phases map onto the two behavior
columns of the comparison matrix.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math

from .actors import (AsNode, AttackerNode, ClientNode, ClientTunnelGuard,
                     ExemptionsGuard, FloodAttacker, Impersonator,
                     OnPathAttacker, RendezvousNode, RouterNode, ServerNode,
                     ServerTunnelGuard, ThrottleRouter)
from .ace import AsRegistry
from .coap_lite import (DEFAULT_BASE_TIMEOUT_MS, DEFAULT_RETRANSMIT_LIMIT,
                        exchange_lifetime_ms)
from .guard import GuardConfig
from .netsim import EnergyBudget, EnergyLedger, Link, World
from .seclayer import fnv1a64

SCENARIOS = ("baseline-open", "baseline-throttled", "exemptions", "fullguard")
ATTACKS = ("none", "blind_flood", "distributed_flood", "impersonator",
           "on_path")

MATRIX_CELLS = [
    ("baseline-open", "none"),
    ("baseline-open", "blind_flood"),
    ("baseline-open", "distributed_flood"),
    ("baseline-throttled", "none"),
    ("baseline-throttled", "blind_flood"),
    ("baseline-throttled", "distributed_flood"),
    ("exemptions", "none"),
    ("exemptions", "blind_flood"),
    ("exemptions", "distributed_flood"),
    ("fullguard", "none"),
    ("fullguard", "blind_flood"),
    ("fullguard", "distributed_flood"),
    ("fullguard", "impersonator"),
    ("fullguard", "on_path"),
]


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# A config section is a plain class. Its annotations are its fields, in
# order, and name each field's kind: `bool`, `int`, `float` or `str` for a
# value, any other name for a nested section. Under `from __future__ import
# annotations` they stay strings that nothing evaluates. A plain default
# stays on the class, where an instance reads it until `_fill` sets the
# instance's own value; a section writes out an `__init__` only to build its
# nested sections or to take its fields. A number field must be finite, and
# >= 0 unless the class's `bounds` dict declares its bound otherwise: a
# number `b` for `>= b`, `DIVISOR`, or `None` for no bound. A string field's
# bound there is the tuple of its allowed values.
DIVISOR = "divisor"  # > 0, and 1000 / value finite: the run divides by it


class LinkSpec:
    """Both directions of one link; `LinksConfig` holds the defaults."""

    bandwidth_bps: int
    delay_ms: int
    queue_capacity: int
    bounds = {"bandwidth_bps": DIVISOR}

    def __init__(self, bandwidth_bps: int, delay_ms: int, queue_capacity: int):
        self.bandwidth_bps = bandwidth_bps
        self.delay_ms = delay_ms
        self.queue_capacity = queue_capacity


class LinksConfig:
    """The constrained edge links and the fast internet links."""

    constrained: LinkSpec
    internet: LinkSpec

    def __init__(self):
        self.constrained = LinkSpec(4000, 10, 8)
        self.internet = LinkSpec(1_000_000, 50, 64)


class EnergyConfig:
    """Each device's `EnergyBudget`, whose defaults these are."""

    budget: float = EnergyBudget.remaining
    cost_per_rx_byte: float = EnergyBudget.cost_per_rx_byte
    cost_per_msg: float = EnergyBudget.cost_per_msg
    cost_edhoc: float = EnergyBudget.cost_edhoc
    cost_oscore_verify: float = EnergyBudget.cost_oscore_verify
    # `projected_exchanges_lost` divides by `cost_edhoc`.
    bounds = {"cost_edhoc": DIVISOR}

    def make(self) -> EnergyBudget:
        return EnergyBudget(remaining=self.budget,
                            cost_per_rx_byte=self.cost_per_rx_byte,
                            cost_per_msg=self.cost_per_msg,
                            cost_edhoc=self.cost_edhoc,
                            cost_oscore_verify=self.cost_oscore_verify)


class CoapConfig:
    """Confirmable-exchange timing of every node (RFC 7252's defaults)."""

    base_timeout_ms: int = DEFAULT_BASE_TIMEOUT_MS
    retransmit_limit: int = DEFAULT_RETRANSMIT_LIMIT
    bounds = {"base_timeout_ms": DIVISOR}


class BaselineThrottleConfig:
    """The baseline-throttled router's one token bucket."""

    rate_per_s: float = 0.1
    burst: float = 1.0
    # A token bucket admits only whole tokens: a burst below 1 refuses all.
    bounds = {"burst": 1}


class ClientConfig:
    """The client's request cadence and its pause between key exchanges."""

    request_interval_ms: int = 10_000
    setup_pause_ms: int = 5_000
    bounds = {"request_interval_ms": DIVISOR}


class AttackConfig:
    """Each attacker's rate and reach."""

    # Attack rates in messages/s: an attacker sends every 1000 / rate ms.
    blind_rate: float = 20.0
    distributed_rate: float = 1.0
    distributed_sources: int = 50
    impersonator_rate: float = 2.0
    impersonator_knows_kid: bool = True
    onpath_window_ms: int = 35_000
    onpath_budget: int = 4
    bounds = {"blind_rate": DIVISOR, "distributed_rate": DIVISOR,
              "distributed_sources": DIVISOR, "impersonator_rate": DIVISOR}


class DurationConfig:
    """Simulated phase lengths of a cell's two sub-runs."""

    setup_ms: int = 300_000
    warmup_ms: int = 30_000
    steady_ms: int = 300_000
    grace_ms: int = 70_000


class ClassifyConfig:
    """Thresholds of the behavior labels."""

    loss_fraction: float = 0.05
    retransmit_fraction: float = 0.10


class ResourceConfig:
    """Threshold of the `high` resource label, as a share of the budget."""

    high_fraction: float = 0.10


class SimConfig:
    """The whole config: a cell, its seed, and one section of each kind."""

    seed: int = 42
    scenario: str = "exemptions"
    attack: str = "none"
    links: LinksConfig
    energy: EnergyConfig
    coap: CoapConfig
    guard: GuardConfig
    baseline_throttle: BaselineThrottleConfig
    client: ClientConfig
    attacks: AttackConfig
    durations: DurationConfig
    classify: ClassifyConfig
    resource: ResourceConfig
    bounds = {"seed": None, "scenario": SCENARIOS, "attack": ATTACKS}

    def __init__(self):
        self.links = LinksConfig()
        self.energy = EnergyConfig()
        self.coap = CoapConfig()
        self.guard = GuardConfig()
        self.baseline_throttle = BaselineThrottleConfig()
        self.client = ClientConfig()
        self.attacks = AttackConfig()
        self.durations = DurationConfig()
        self.classify = ClassifyConfig()
        self.resource = ResourceConfig()


def _fill(obj, doc: dict, path: str):
    """Read `doc` into config section `obj` in place and return it: each
    value is checked for its field's kind, then for its bound, then set.
    Nested sections are the fresh defaults `SimConfig()` built."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    # A field is typed by the name of its annotation, not by its default's
    # type: a float field may default to an int.
    declared = type(obj).__annotations__
    bounds = getattr(obj, "bounds", {})
    for key, value in doc.items():
        where = f"{path}.{key}" if path else key
        if key not in declared:
            raise ConfigError(f"{where}: unknown field")
        kind = declared[key]
        if kind not in ("bool", "int", "float", "str"):
            _fill(getattr(obj, key), value, where)
            continue
        bound = bounds.get(key, 0)
        if kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(f"{where}: expected a boolean")
        elif kind == "str":
            if not isinstance(value, str):
                raise ConfigError(f"{where}: expected a string")
            if value not in bound:
                raise ConfigError(f"{where}: must be one of {', '.join(bound)}")
        else:
            if kind == "int":
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ConfigError(f"{where}: expected an integer")
            else:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ConfigError(f"{where}: expected a number")
                try:
                    value = float(value)
                except OverflowError:  # an integer too large for a float
                    value = math.inf
                if not math.isfinite(value):
                    raise ConfigError(f"{where}: expected a number")
            if bound == DIVISOR:
                if not value > 0:
                    raise ConfigError(f"{where}: must be > 0")
                if not math.isfinite(1000 / value):
                    raise ConfigError(f"{where}: too small to divide by")
            elif bound is not None and not value >= bound:
                raise ConfigError(f"{where}: must be >= {bound}")
        setattr(obj, key, value)
    return obj


def config_from_dict(doc: dict) -> SimConfig:
    config = _fill(SimConfig(), doc, "")
    a = config.attacks
    # An attacker sends at most one frame per 1 ms tick: a faster rate is
    # refused, not clamped. `rate > 1000 / count` cannot overflow a float.
    for where, rate, count in (("blind_rate", a.blind_rate, 1),
                               ("impersonator_rate", a.impersonator_rate, 1),
                               ("distributed_rate * attacks.distributed_sources",
                                a.distributed_rate, a.distributed_sources)):
        if rate > 1000 / count:
            raise ConfigError(f"attacks.{where}: must be <= 1000")
    return config


def load_config(path: str) -> SimConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config is not valid UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    except RecursionError as e:
        raise ConfigError(f"config is nested too deeply: {e}") from e
    return config_from_dict(doc)


def derive_seed(seed: int, scenario: str, attack: str, subrun: str) -> int:
    return (seed ^ fnv1a64(f"{scenario}|{attack}|{subrun}".encode())) & ((1 << 64) - 1)


# --- world construction -------------------------------------------------------


class Handles:
    def __init__(self, world: World, client: ClientNode,
                 server: ServerNode, client_router: object,
                 server_router: object, attacker: AttackerNode | None,
                 rendezvous: RendezvousNode, authorization: AsNode):
        self.world = world
        self.client = client
        self.server = server
        self.client_router = client_router
        self.server_router = server_router
        self.attacker = attacker
        self.rendezvous = rendezvous
        self.authorization = authorization


def _connect(world: World, a, b, spec: LinkSpec, tag: str) -> None:
    fwd = Link(world, f"{a.address}->{b.address}", spec.bandwidth_bps,
               spec.delay_ms, spec.queue_capacity)
    rev = Link(world, f"{b.address}->{a.address}", spec.bandwidth_bps,
               spec.delay_ms, spec.queue_capacity)
    fwd.tag = tag
    rev.tag = tag
    fwd.receiver = lambda frame: b.receive(frame, a.address)
    rev.receiver = lambda frame: a.receive(frame, b.address)
    a.links[b.address] = fwd
    b.links[a.address] = rev


def build_world(config: SimConfig, scenario: str, attack_kind: str,
                attack_start_ms: int, attack_stop_ms: int, seed: int,
                collect_trace: bool = False) -> Handles:
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    if attack_kind not in ATTACKS:
        raise ValueError(f"unknown attack {attack_kind!r}")
    world = World(seed, collect_trace)

    keys = {
        "key_cli": b"client-key-0001!",
        "key_cgp": b"clientguardkey1!",
        "key_sgp": b"serverguardkey1!",
        "aud_srv": b"audience-key-01!",
    }
    registry = AsRegistry()
    registry.add_subject("key_cli", keys["key_cli"], {"aud_srv"})
    registry.add_subject("key_cgp", keys["key_cgp"], set())
    registry.add_audience("aud_srv", keys["aud_srv"])

    guarded = scenario in ("exemptions", "fullguard")
    fullguard = scenario == "fullguard"

    if fullguard:
        rtr_c = ClientTunnelGuard(world, "rtrC", key_id="key_cgp",
                                  key=keys["key_cgp"])
    else:
        rtr_c = RouterNode(world, "rtrC")

    if scenario == "baseline-throttled":
        rtr_s = ThrottleRouter(world, "rtrS",
                               config.baseline_throttle.rate_per_s,
                               config.baseline_throttle.burst)
    elif scenario == "exemptions":
        rtr_s = ExemptionsGuard(world, "rtrS", config.guard, key_id="key_sgp")
    elif scenario == "fullguard":
        rtr_s = ServerTunnelGuard(world, "rtrS", key_id="key_sgp")
    else:
        rtr_s = RouterNode(world, "rtrS")

    as_address = "as"
    server = ServerNode(world, address="srv", audience="aud_srv",
                        rd_address="rd", as_address=as_address,
                        energy=config.energy.make(), behind_tunnel=fullguard,
                        guard_address="rtrS" if guarded else None,
                        audience_key=keys["aud_srv"])
    client = ClientNode(world, address="cli", rd_address="rd",
                        server_name="srv", key_id="key_cli",
                        guard_key_id="key_cgp" if fullguard else None,
                        energy=config.energy.make(),
                        guard_address="rtrC" if fullguard else None,
                        request_interval_ms=config.client.request_interval_ms)
    rendezvous = RendezvousNode(world, "rd")
    authorization = AsNode(world, registry, address=as_address)

    attacker = None
    attacks, start, stop = config.attacks, attack_start_ms, attack_stop_ms
    targets = ["rtrS" if guarded else "srv", "srv"]  # published, raw
    if attack_kind == "blind_flood":
        attacker = FloodAttacker(world, attacks.blind_rate, 1, targets, start,
                                 stop)
    elif attack_kind == "distributed_flood":
        attacker = FloodAttacker(world, attacks.distributed_rate,
                                 attacks.distributed_sources, targets, start,
                                 stop)
    elif attack_kind == "impersonator":
        attacker = Impersonator(world, attacks.impersonator_rate, client,
                                attacks.impersonator_knows_kid, targets, start,
                                stop)
    elif attack_kind == "on_path":
        attacker = OnPathAttacker(world, attacks.onpath_budget, start,
                                  start + attacks.onpath_window_ms)

    # Wiring: the two routers meet over the internet, and every device
    # hangs off one of them, the constrained ones by a constrained link. A
    # device sends every frame on its one link, its `uplink`, and has no
    # routes; a router routes each of its devices' patterns to that device,
    # and the other router's address and patterns to the other router, so
    # it has no route to an address that no node declares. The device on a
    # router's constrained link is its `inside`.
    _connect(world, rtr_c, rtr_s, config.links.internet, "internet")
    routes = {rtr_c: [], rtr_s: []}
    for router, device, tag in ((rtr_c, client, "constrained"),
                                (rtr_s, server, "constrained"),
                                (rtr_s, rendezvous, "internet"),
                                (rtr_s, authorization, "internet"),
                                (rtr_s, attacker, "internet")):
        if device is None:
            continue
        _connect(world, router, device, getattr(config.links, tag), tag)
        device.uplink = device.links[router.address]
        routes[router] += [(p, device.address) for p in device.patterns]
        if tag == "constrained":
            router.inside = device.owns
    for router, peer in ((rtr_c, rtr_s), (rtr_s, rtr_c)):
        patterns = [peer.address] + [p for p, _ in routes[peer]]
        router.routes = routes[router] + [(p, peer.address) for p in patterns]

    # One lifetime for the world's exchanges: it holds 2**retransmit_limit.
    coap = config.coap
    lifetime_ms = exchange_lifetime_ms(coap.base_timeout_ms,
                                       coap.retransmit_limit)
    for node in world.nodes.values():
        node.base_timeout_ms = coap.base_timeout_ms
        node.retransmit_limit = coap.retransmit_limit
        node.lifetime_ms = lifetime_ms

    if isinstance(attacker, OnPathAttacker):
        rtr_s.links["rtrC"].interceptor = attacker.intercept

    return Handles(world=world, client=client, server=server,
                   client_router=rtr_c, server_router=rtr_s,
                   attacker=attacker, rendezvous=rendezvous,
                   authorization=authorization)


# --- sub-run execution --------------------------------------------------------


class SubrunResult:
    def __init__(self, handles: Handles, attack_start_ms: int,
                 measured_until_ms: int, run_end_ms: int):
        self.handles = handles
        self.attack_start_ms = attack_start_ms
        self.measured_until_ms = measured_until_ms
        self.run_end_ms = run_end_ms


def run_subrun(config: SimConfig, scenario: str, attack_kind: str,
               subrun: str, collect_trace: bool = False) -> SubrunResult:
    seed = derive_seed(config.seed, scenario, attack_kind, subrun)
    if subrun == "setup":
        attack_start = 0
        until = config.durations.setup_ms
    else:
        attack_start = config.durations.warmup_ms
        until = attack_start + config.durations.steady_ms
    handles = build_world(config, scenario, attack_kind, attack_start, until,
                          seed, collect_trace=collect_trace)
    handles.server.start()
    client = handles.client
    if subrun == "setup":
        handles.world.schedule(200, lambda: client.start_setup_loop(
            config.client.setup_pause_ms, until_ms=until))
    else:
        handles.world.schedule(200, lambda: client.start_steady_loop(
            attack_start, until_ms=until))
    if handles.attacker is not None:
        handles.attacker.start()
    run_end = until + config.durations.grace_ms
    handles.world.run_until(run_end)
    return SubrunResult(handles=handles, attack_start_ms=attack_start,
                        measured_until_ms=until, run_end_ms=run_end)


# --- classification -----------------------------------------------------------

GOOD = "good"
THROTTLED = "throttled"
LOSSES = "losses"
NO_TRAFFIC = "no_traffic"


def median(values: list) -> int | float:
    """`statistics.median`'s arithmetic: the middle value of an odd count,
    the mean of the two middle values of an even one. The `statistics`
    module is not imported because it loads `decimal` and `fractions`."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def classify_behavior(latencies_ms: list[int], retransmissions: list[int],
                      n_timed_out: int, n_started: int, base_timeout_ms: int,
                      loss_fraction=ClassifyConfig.loss_fraction,
                      retransmit_fraction=ClassifyConfig.retransmit_fraction
                      ) -> str:
    """Label one phase: Losses when exchanges time out, Throttled when
    completion needed back-off (retransmissions or above-timeout latency),
    Good otherwise."""
    if n_started == 0:
        return NO_TRAFFIC
    if n_timed_out / n_started > loss_fraction:
        return LOSSES
    if not latencies_ms:
        return LOSSES if n_timed_out else NO_TRAFFIC
    with_retx = sum(1 for r in retransmissions if r >= 1)
    if with_retx / len(retransmissions) > retransmit_fraction:
        return THROTTLED
    if median(latencies_ms) > base_timeout_ms:
        return THROTTLED
    return GOOD


def phase_stats(interactions, kinds, config: SimConfig) -> dict:
    picked = [i for i in interactions if i.counted and i.kind in kinds]
    latencies = [i.latency_ms for i in picked if i.outcome == "completed"]
    retx = [i.retransmissions for i in picked if i.outcome == "completed"]
    n_timed_out = sum(1 for i in picked if i.outcome == "timed_out")
    behavior = classify_behavior(latencies, retx, n_timed_out, len(picked),
                                 config.coap.base_timeout_ms,
                                 config.classify.loss_fraction,
                                 config.classify.retransmit_fraction)
    return {
        "behavior": behavior,
        "n_started": len(picked),
        "n_completed": len(latencies),
        "n_timed_out": n_timed_out,
        "median_latency_ms": (median(latencies) if latencies else None),
        "retransmit_fraction": (round(sum(1 for r in retx if r >= 1) / len(retx), 4)
                                if retx else None),
    }


# --- energy accounting --------------------------------------------------------

def energy_report(ledger: EnergyLedger,
                  cost_edhoc: float = EnergyBudget.cost_edhoc) -> dict:
    """Round a world's energy ledger (`World.ledger`) into report figures."""
    return {
        "total_drained": round(ledger.total, 6),
        "attack_attributable": round(ledger.attributable, 6),
        "by_cause": {k: round(v, 6) for k, v in sorted(ledger.by_cause.items())},
        "projected_exchanges_lost": round(ledger.attributable / cost_edhoc, 6),
    }


def resource_label(attributable: float, exposure_ms: int, budget: float,
                   high_fraction: float) -> str:
    if attributable == 0.0:
        return "low_or_none"
    if exposure_ms <= 0:
        return "low"
    per_day = attributable * 86_400_000.0 / exposure_ms
    return "high" if per_day > high_fraction * budget else "low"


# --- cells and the matrix -------------------------------------------------------


def run_cell(config: SimConfig, scenario: str, attack_kind: str,
             collect_traces: bool = False) -> dict:
    """Run one (scenario, attack) cell: a setup sub-run and a steady sub-run.

    With `collect_traces`, both sub-runs keep their event traces, returned
    under the cell's `_traces` key; otherwise no event is kept.
    """
    phases = {}
    total = attributable = exposure = rekeys = induced = renegotiations = 0
    traces = []
    # Everything alive before the cell is frozen out of collection for its
    # length, so that the collection after each sub-run walks only what
    # the cell built. A caller's own frozen objects stay frozen: with any,
    # the cell runs unbracketed.
    bracket = gc.get_freeze_count() == 0
    if bracket:
        gc.freeze()
    try:
        for subrun, kinds in (("setup", ("key_exchange",)),
                              ("steady", ("request",))):
            sub = run_subrun(config, scenario, attack_kind, subrun,
                             collect_traces)
            handles = sub.handles
            phases[subrun] = phase_stats(handles.client.interactions, kinds,
                                         config)
            energy = energy_report(handles.world.ledger,
                                   config.energy.cost_edhoc)
            total += energy["total_drained"]
            attributable += energy["attack_attributable"]
            if attack_kind != "none":
                exposure += sub.measured_until_ms - sub.attack_start_ms
            rekeys += handles.client.rekeys
            induced += handles.client.attack_induced_rekeys
            # Only the client tunnel end renegotiates.
            renegotiations += getattr(handles.client_router,
                                      "renegotiations", 0)
            if collect_traces:
                traces.append(handles.world.trace)
            # The world is cyclic garbage (each node refers to its world and
            # the world to its nodes) that has reached the oldest
            # generation, which automatic collection seldom reaches. Free it
            # before the next sub-run builds its own, so a cell holds one
            # world at a time.
            del sub, handles
            gc.collect()
    finally:
        if bracket:
            gc.unfreeze()

    cell = {
        "scenario": scenario,
        "attack": attack_kind,
        "seed": config.seed,
        "setup": phases["setup"],
        "steady": phases["steady"],
        "energy": {
            "total_drained": round(total, 6),
            "attack_attributable": round(attributable, 6),
            "projected_exchanges_lost": round(
                attributable / config.energy.cost_edhoc, 6),
        },
        "resource": resource_label(attributable, exposure,
                                   config.energy.budget,
                                   config.resource.high_fraction),
        "rekeys": rekeys,
        "attack_induced_rekeys": induced,
        "tunnel_renegotiations": renegotiations,
    }
    # Bounded inputs can still multiply past a float; JSON has no infinity.
    for name, value in cell["energy"].items():
        if not math.isfinite(value):
            raise OverflowError(f"energy.{name} is not finite")
    if collect_traces:
        cell["_traces"] = tuple(traces)
    return cell


def run_matrix(config: SimConfig) -> dict:
    cells = []
    errored = False
    for scenario, attack in MATRIX_CELLS:
        try:
            cells.append(run_cell(config, scenario, attack))
        except Exception as e:  # a cell must not take down the whole matrix
            errored = True
            cells.append({"scenario": scenario, "attack": attack,
                          "error": f"{type(e).__name__}: {e}"})
    return {"seed": config.seed, "cells": cells, "errored": errored}


# --- rendering ------------------------------------------------------------------


def report_to_json(report: dict) -> str:
    clean = {k: v for k, v in report.items() if not k.startswith("_")}
    return json.dumps(clean, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _cell_rows(cells: list[dict]):
    for cell in cells:
        if "error" in cell:
            yield (cell["scenario"], cell["attack"], "error", "error", "error",
                   cell["error"])
        else:
            yield (cell["scenario"], cell["attack"],
                   cell["setup"]["behavior"], cell["steady"]["behavior"],
                   cell["resource"],
                   f'rekeys={cell["rekeys"]} renegotiations={cell["tunnel_renegotiations"]}')


def matrix_to_markdown(report: dict) -> str:
    lines = ["| Scenario | Attack | Setup | Steady | Resource | Notes |",
             "|---|---|---|---|---|---|"]
    for row in _cell_rows(report["cells"]):
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def matrix_to_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["scenario", "attack", "setup", "steady", "resource",
                     "notes"])
    for row in _cell_rows(report["cells"]):
        writer.writerow(row)
    return out.getvalue()


def cell_to_markdown(cell: dict) -> str:
    return matrix_to_markdown({"cells": [cell]})


def cell_to_csv(cell: dict) -> str:
    return matrix_to_csv({"cells": [cell]})
