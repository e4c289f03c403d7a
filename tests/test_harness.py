"""Configuration handling, classification rules, energy reporting, rendering."""

import gc
import hashlib
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import statistics
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, strategies as st

from guardsim.harness import (ATTACKS, ClassifyConfig, ConfigError,
                              EnergyConfig, LinksConfig, MATRIX_CELLS,
                              SCENARIOS, SimConfig, build_world, cell_to_csv,
                              cell_to_markdown, classify_behavior,
                              config_from_dict, derive_seed, energy_report,
                              load_config, matrix_to_csv, matrix_to_markdown,
                              report_to_json, resource_label, run_cell,
                              run_matrix, run_subrun)
import guardsim
from guardsim import harness
from guardsim.ace import AsRegistry
from guardsim.coap_lite import SimMessage
from guardsim.guard import GuardConfig, SeqTracker
from guardsim.seclayer import SecurityContext
from guardsim.netsim import (ATTACK_CAUSES, EnergyBudget, EnergyLedger,
                             NullTrace, Trace, World)


# --- configuration ------------------------------------------------------------

def test_default_config_is_valid():
    cfg = config_from_dict({})
    assert cfg.seed == 42
    assert cfg.scenario in SCENARIOS
    assert cfg.attack in ATTACKS


def test_nested_overrides():
    cfg = config_from_dict({
        "seed": 7,
        "scenario": "fullguard",
        "links": {"constrained": {"bandwidth_bps": 1000}},
        "coap": {"base_timeout_ms": 500},
        "energy": {"budget": 10.0},
        "guard": {"unknown_bucket": {"per_source_rate": 0.5,
                                     "per_source_burst": 1,
                                     "aggregate_rate": 2,
                                     "aggregate_burst": 2}},
    })
    assert cfg.seed == 7
    assert cfg.links.constrained.bandwidth_bps == 1000
    assert cfg.links.internet.bandwidth_bps == 1_000_000  # untouched
    assert cfg.coap.base_timeout_ms == 500
    assert cfg.energy.budget == 10.0
    assert cfg.guard.unknown_bucket.per_source_rate == 0.5
    # Sections are filled in place; the defaults of a new config stay,
    # those a section keeps on its class included.
    fresh = SimConfig()
    assert fresh.seed == 42 and fresh.scenario == "exemptions"
    assert fresh.links.constrained.bandwidth_bps == 4000
    assert fresh.coap.base_timeout_ms == 2000
    assert fresh.energy.budget == EnergyBudget.remaining
    assert fresh.guard.unknown_bucket.per_source_rate == 0.2
    assert fresh.guard.unknown_bucket.per_source_burst == 2


def test_readme_example_config_is_valid():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    cfg = config_from_dict(json.loads(blocks[0]))
    assert cfg.links.constrained.delay_ms == 10


def test_unknown_field_names_its_path():
    with pytest.raises(ConfigError, match="links.constrained.bandwdth"):
        config_from_dict({"links": {"constrained": {"bandwdth": 1}}})


def test_wrong_type_rejected():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict({"seed": "forty-two"})
    with pytest.raises(ConfigError, match="attacks.impersonator_knows_kid"):
        config_from_dict({"attacks": {"impersonator_knows_kid": 1}})


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="scenario"):
        config_from_dict({"scenario": "warp-drive"})
    with pytest.raises(ConfigError, match="attack"):
        config_from_dict({"attack": "zerg-rush"})


def test_build_world_rejects_an_unknown_scenario():
    with pytest.raises(ValueError, match="scenario 'bogus'"):
        build_world(SimConfig(), "bogus", "none", 0, 1000, 1)


def test_build_world_rejects_an_unknown_attack():
    with pytest.raises(ValueError, match="attack 'bogus'"):
        run_cell(SimConfig(), "exemptions", "bogus")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="read"):
        load_config(str(tmp_path / "missing.json"))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, "scenario": "exemptions",
                                "attack": "blind_flood"}))
    cfg = load_config(str(path))
    assert (cfg.seed, cfg.scenario, cfg.attack) == (9, "exemptions",
                                                    "blind_flood")


def test_derive_seed_separates_subruns():
    seeds = {derive_seed(42, s, a, p)
             for s in SCENARIOS for a in ATTACKS for p in ("setup", "steady")}
    assert len(seeds) == len(SCENARIOS) * len(ATTACKS) * 2
    assert derive_seed(42, "exemptions", "none", "setup") == \
        derive_seed(42, "exemptions", "none", "setup")


def test_matrix_covers_all_scenarios():
    assert {s for s, _ in MATRIX_CELLS} == set(SCENARIOS)
    assert ("fullguard", "on_path") in MATRIX_CELLS
    assert ("fullguard", "impersonator") in MATRIX_CELLS


SCALAR_KINDS = {"bool", "int", "float", "str"}

# Every scalar config field as (dotted path, kind, bound, default), in
# declaration order, with the bound that `config_from_dict` checks: 0 for
# `>= 0` where a section's `bounds` does not name the field, a number `b` for
# `>= b`, "divisor" (`harness.DIVISOR`), the tuple of allowed strings, or
# None for no bound.
CONFIG_FIELDS = [
    ('seed', 'int', None, 42),
    ('scenario', 'str',
     ('baseline-open', 'baseline-throttled', 'exemptions', 'fullguard'),
     'exemptions'),
    ('attack', 'str',
     ('none', 'blind_flood', 'distributed_flood', 'impersonator', 'on_path'),
     'none'),
    ('links.constrained.bandwidth_bps', 'int', 'divisor', 4000),
    ('links.constrained.delay_ms', 'int', 0, 10),
    ('links.constrained.queue_capacity', 'int', 0, 8),
    ('links.internet.bandwidth_bps', 'int', 'divisor', 1000000),
    ('links.internet.delay_ms', 'int', 0, 50),
    ('links.internet.queue_capacity', 'int', 0, 64),
    ('energy.budget', 'float', 0, 50000.0),
    ('energy.cost_per_rx_byte', 'float', 0, 2e-05),
    ('energy.cost_per_msg', 'float', 0, 0.002),
    ('energy.cost_edhoc', 'float', 'divisor', 1.0),
    ('energy.cost_oscore_verify', 'float', 0, 0.01),
    ('coap.base_timeout_ms', 'int', 'divisor', 2000),
    ('coap.retransmit_limit', 'int', 0, 4),
    ('guard.jump_threshold', 'int', 0, 128),
    ('guard.seq_memory', 'int', 0, 64),
    ('guard.echo_max_age_ms', 'int', 0, 40000),
    ('guard.allowlist_idle_expiry_ms', 'int', 0, 600000),
    ('guard.unknown_bucket.per_source_rate', 'float', 0, 0.2),
    ('guard.unknown_bucket.per_source_burst', 'float', 1, 2),
    ('guard.unknown_bucket.aggregate_rate', 'float', 0, 1.0),
    ('guard.unknown_bucket.aggregate_burst', 'float', 1, 2),
    ('guard.non_proxy_bucket.per_source_rate', 'float', 0, 0.05),
    ('guard.non_proxy_bucket.per_source_burst', 'float', 1, 1),
    ('guard.non_proxy_bucket.aggregate_rate', 'float', 0, 0.1),
    ('guard.non_proxy_bucket.aggregate_burst', 'float', 1, 2),
    ('guard.verified_bucket.per_source_rate', 'float', 0, 1.0),
    ('guard.verified_bucket.per_source_burst', 'float', 1, 2),
    ('guard.verified_bucket.aggregate_rate', 'float', 0, 5.0),
    ('guard.verified_bucket.aggregate_burst', 'float', 1, 8),
    ('baseline_throttle.rate_per_s', 'float', 0, 0.1),
    ('baseline_throttle.burst', 'float', 1, 1.0),
    ('client.request_interval_ms', 'int', 'divisor', 10000),
    ('client.setup_pause_ms', 'int', 0, 5000),
    ('attacks.blind_rate', 'float', 'divisor', 20.0),
    ('attacks.distributed_rate', 'float', 'divisor', 1.0),
    ('attacks.distributed_sources', 'int', 'divisor', 50),
    ('attacks.impersonator_rate', 'float', 'divisor', 2.0),
    ('attacks.impersonator_knows_kid', 'bool', 0, True),
    ('attacks.onpath_window_ms', 'int', 0, 35000),
    ('attacks.onpath_budget', 'int', 0, 4),
    ('durations.setup_ms', 'int', 0, 300000),
    ('durations.warmup_ms', 'int', 0, 30000),
    ('durations.steady_ms', 'int', 0, 300000),
    ('durations.grace_ms', 'int', 0, 70000),
    ('classify.loss_fraction', 'float', 0, 0.05),
    ('classify.retransmit_fraction', 'float', 0, 0.1),
    ('resource.high_fraction', 'float', 0, 0.1),
]


def config_fields(obj, path=""):
    """(dotted path, kind, bound, value) of every scalar field of config
    section `obj` and its nested sections, read as `config_from_dict` reads
    them."""
    bounds = getattr(obj, "bounds", {})
    for name, kind in type(obj).__annotations__.items():
        value = getattr(obj, name)
        if kind in SCALAR_KINDS:
            yield path + name, kind, bounds.get(name, 0), value
        else:
            yield from config_fields(value, f"{path}{name}.")


def test_every_config_field_keeps_its_kind_bound_and_default():
    # `repr` tells an int default from an equal float one.
    assert ([repr(row) for row in config_fields(SimConfig())]
            == [repr(row) for row in CONFIG_FIELDS])


def test_every_config_field_is_a_checked_scalar_or_a_section():
    # `config_from_dict` checks a value by its field's annotation name, and
    # takes a field whose annotation names no scalar kind for a nested
    # section: its default must be an instance of the section class that
    # the annotation names, or a document would reach a value it cannot
    # walk.
    def kinds(obj):
        for name, kind in type(obj).__annotations__.items():
            value = getattr(obj, name)
            if kind not in SCALAR_KINDS:
                assert type(value).__name__ == kind, name
                assert "__annotations__" in vars(type(value)), name
                yield from kinds(value)
            else:
                yield kind

    assert set(kinds(SimConfig())) == SCALAR_KINDS


def fresh_interpreter(code):
    """What `code` prints in a new interpreter that imports this guardsim."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}).stdout


def modules_loaded_by(imports):
    """Modules that `imports` adds to a new interpreter's `sys.modules`:
    those the bare interpreter already has (through site hooks, say) do not
    count."""
    return set(fresh_interpreter(
        f"import sys; before = set(sys.modules); {imports}; "
        "print(' '.join(sorted(set(sys.modules) - before)))").split())


# Prints the file of each module whose body, as the innermost module body
# running, compiles source from a string: code generated at import. A
# module that guardsim imports may generate its own code; only guardsim's
# own bodies count.
GENERATED_AT_IMPORT = """
import os, sys
generating = []

def hook(event, args):
    if event == "compile" and not os.path.isfile(str(args[1])):
        frame = sys._getframe(1)
        while frame.f_code.co_name != "<module>":
            frame = frame.f_back
        generating.append(frame.f_code.co_filename)

sys.addaudithook(hook)
import guardsim.cli, guardsim.harness
print("\\n".join(generating))
"""


def test_every_guardsim_function_is_written_in_its_module():
    # A decorator that generates methods (`@dataclass` does, with `exec`)
    # costs import time and hides the code from its module. So every
    # function of every guardsim class is written in its module, and
    # importing guardsim compiles no generated source.
    for info in pkgutil.iter_modules(guardsim.__path__):
        module = importlib.import_module(f"guardsim.{info.name}")
        for cls in vars(module).values():
            if not (isinstance(cls, type)
                    and cls.__module__ == module.__name__):
                continue
            for value in vars(cls).values():
                value = getattr(value, "__func__", value)
                if inspect.isfunction(value):
                    assert value.__code__.co_filename == module.__file__, \
                        f"{cls.__name__}.{value.__name__}"
    package = os.path.dirname(guardsim.__file__)
    generating = fresh_interpreter(GENERATED_AT_IMPORT).splitlines()
    assert not [f for f in generating if os.path.dirname(f) == package]


def test_importing_guardsim_loads_none_of_dataclasses_modules():
    """`dataclasses` and the modules it loads took about half of guardsim's
    import time; the config sections declare their fields without it."""
    added = modules_loaded_by("import guardsim.harness")
    assert "guardsim.harness" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def nested(path, value):
    doc = value
    for key in reversed(path.split(".")):
        doc = {key: doc}
    return doc


def test_every_default_passes_its_own_bound():
    # `config_from_dict` checks only the values a document sets, so the
    # defaults must pass their bounds by construction.
    doc = {}
    for path, _, _, value in config_fields(SimConfig()):
        *sections, name = path.split(".")
        section = doc
        for key in sections:
            section = section.setdefault(key, {})
        section[name] = value
    cfg = config_from_dict(json.loads(json.dumps(doc)))
    assert ([value for *_, value in config_fields(cfg)]
            == [value for *_, value in config_fields(SimConfig())])


@pytest.mark.parametrize("path", [
    path for path, kind, *_ in config_fields(SimConfig()) if kind == "float"])
def test_non_finite_number_is_refused(path):
    # Python's `json` reads `Infinity`, `-Infinity` and `NaN` as these.
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}: expected a number")):
            config_from_dict(nested(path, value))


@pytest.mark.parametrize("make, attrs", [
    (lambda: SimMessage("a", "b"), ["payload"]),
    (lambda: SecurityContext(b"s", b"r", b"k"), ["replay_window"]),
    (AsRegistry, ["known_subjects", "audience_keys"]),
    (SeqTracker, ["seen", "known_sources"]),
    (SimConfig, [name for name, kind in SimConfig.__annotations__.items()
                 if kind not in SCALAR_KINDS]),
    (LinksConfig, ["constrained", "internet"]),
    (GuardConfig, ["unknown_bucket", "non_proxy_bucket", "verified_bucket"]),
], ids=["SimMessage", "SecurityContext", "AsRegistry", "SeqTracker",
        "SimConfig", "LinksConfig", "GuardConfig"])
def test_default_built_instances_share_no_mutable_field(make, attrs):
    # A written-out `__init__` must build each default afresh.
    a, b = make(), make()
    for attr in attrs:
        assert getattr(a, attr) is not getattr(b, attr)


# --- wiring ------------------------------------------------------------------------

# Who owns each address: the client every "cli*" identity, the attacker
# its own address and every "x*" source it spoofs.
OWNERS = {"cli": "cli", "cli7": "cli", "x0": "atk", "x1999": "atk",
          "atk": "atk", "srv": "srv", "rd": "rd", "as": "as",
          "rtrS": "rtrS", "rtrC": "rtrC"}


@pytest.mark.parametrize("attack", ATTACKS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_build_world_wires_the_address_plan(scenario, attack):
    handles = build_world(SimConfig(), scenario, attack, 0, 1000, 1)
    nodes = handles.world.nodes
    has_attacker = attack != "none"
    behind_s = ["srv", "rd", "as"] + (["x*", "atk"] if has_attacker else [])
    # Each router routes its own devices' patterns to them, and the other
    # router's address and its devices' patterns to the other router.
    expected = {
        "rtrC": [("cli*", "cli")] +
                [(p, "rtrS") for p in ["rtrS"] + behind_s],
        "rtrS": [("srv", "srv"), ("rd", "rd"), ("as", "as")] +
                ([("x*", "atk"), ("atk", "atk")] if has_attacker else []) +
                [("rtrC", "rtrC"), ("cli*", "rtrC")],
    }
    # Each device has no routes and one link, its uplink to its own router.
    routers = {"cli": "rtrC", "srv": "rtrS", "rd": "rtrS", "as": "rtrS"}
    if has_attacker:
        routers["atk"] = "rtrS"
    assert set(nodes) == set(expected) | set(routers)
    for address, routes in expected.items():
        # No two patterns match one address, so their order does not
        # matter.
        assert set(nodes[address].routes) == set(routes), address
        assert nodes[address].uplink is None, address
    for address, router in routers.items():
        device = nodes[address]
        assert device.routes == (), address
        assert device.links == {router: device.uplink}, address
        assert device.uplink.name == f"{address}->{router}"
    # An address that no node declares has no route at either router.
    for router in ("rtrC", "rtrS"):
        assert nodes[router].route_to("nobody") is None
    for node in nodes.values():
        for addr, owner in OWNERS.items():
            assert bool(node.owns(addr)) == (owner == node.address), \
                (node.address, addr)
    # Each router's inside is the device behind its constrained link.
    rtr_c, rtr_s = handles.client_router, handles.server_router
    assert rtr_s.inside == handles.server.owns
    assert rtr_c.inside == handles.client.owns
    for addr in OWNERS:
        assert bool(rtr_s.inside(addr)) == (addr == "srv"), addr
        assert bool(rtr_c.inside(addr)) == (addr in {"cli", "cli7"}), addr


@pytest.mark.parametrize("sender, first_router", [("cli", "rtrC"),
                                                   ("rd", "rtrS")])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_frame_to_an_undeclared_address_ends_at_the_first_router(
        scenario, sender, first_router):
    handles = build_world(SimConfig(), scenario, "none", 0, 1000, 3,
                          collect_trace=True)
    world = handles.world
    frame = SimMessage(src=sender, dst="nobody", mtype="CON", mid=1,
                       token=b"\x01", code="POST", payload_kind="edhoc_m1",
                       payload_len=40)
    world.nodes[sender].send_frame(frame, "legit")
    world.run_until(60_000)
    assert [(e["node"], e["detail"]) for e in world.trace.by_kind("drop")] \
        == [(first_router, {"reason": "no_route", "dst": "nobody"})]
    rtr_c, rtr_s = handles.client_router, handles.server_router
    assert rtr_c.links["rtrS"].n_sent == rtr_s.links["rtrC"].n_sent == 0


UNHANDLED = {"reason": "unhandled", "kind2": "edhoc_m1"}


@pytest.mark.parametrize("scenario, sender, router, detail", [
    # A plain or throttle router serves nothing: `Node.handle`'s drop.
    ("baseline-open", "cli", "rtrC", UNHANDLED),
    ("baseline-open", "rd", "rtrS", UNHANDLED),
    ("baseline-throttled", "rd", "rtrS", UNHANDLED),
    # A server-side guard serves its server only onboarding.
    ("exemptions", "srv", "rtrS", {"reason": "unhandled_inside"}),
    ("fullguard", "srv", "rtrS", {"reason": "unhandled_inside"}),
])
def test_request_a_router_does_not_serve_ends_as_a_drop_there(
        scenario, sender, router, detail):
    handles = build_world(SimConfig(), scenario, "none", 0, 1000, 3,
                          collect_trace=True)
    world = handles.world
    frame = SimMessage(src=sender, dst=router, mtype="CON", mid=1,
                       token=b"\x01", code="POST", payload_kind="edhoc_m1",
                       payload_len=40)
    world.nodes[sender].send_frame(frame, "legit")
    world.run_until(60_000)
    assert [(e["node"], e["detail"]) for e in world.trace.by_kind("drop")] \
        == [(router, detail)]


# --- classification -----------------------------------------------------------------

def test_first_attempt_fast_is_good():
    latencies = [150] * 20
    assert classify_behavior(latencies, [0] * 20, 0, 20, 2000) == "good"


def test_retransmissions_mean_throttled():
    # Everything completes, but only after 2-3 retransmissions.
    latencies = [6500] * 20
    retx = [2, 3] * 10
    assert classify_behavior(latencies, retx, 0, 20, 2000) == "throttled"


def test_high_latency_alone_means_throttled():
    latencies = [2500] * 20
    assert classify_behavior(latencies, [0] * 20, 0, 20, 2000) == "throttled"


def test_timeouts_mean_losses():
    # 30% of exchanges hit give-up.
    latencies = [150] * 14
    assert classify_behavior(latencies, [0] * 14, 6, 20, 2000) == "losses"


def test_small_loss_fraction_tolerated():
    latencies = [150] * 99
    assert classify_behavior(latencies, [0] * 99, 1, 100, 2000) == "good"


def test_no_interactions():
    assert classify_behavior([], [], 0, 0, 2000) == "no_traffic"


@given(st.lists(st.integers(-10**6, 10**6), min_size=1))
def test_median_matches_statistics(values):
    # Odd counts give the middle int, even counts the float mean of the two
    # middle values; a report's `median_latency_ms` shows which.
    ours, ref = harness.median(values), statistics.median(values)
    assert ours == ref
    assert type(ours) is type(ref)


def test_importing_guardsim_loads_no_statistics():
    """`statistics` loads `decimal` and `fractions`, about half a MB of
    resident memory in every run."""
    added = modules_loaded_by("import guardsim, guardsim.harness")
    assert "guardsim.harness" in added
    assert not added & {"statistics", "decimal", "_decimal", "fractions"}


# --- energy report --------------------------------------------------------------------

def synthetic_ledger():
    ledger = EnergyLedger()
    ledger.add(0.5, "attacker")
    ledger.add(0.002, "legit")
    ledger.add(1.0, "attacker_induced")
    return ledger


def test_energy_report_attribution():
    rep = energy_report(synthetic_ledger(), cost_edhoc=1.0)
    assert rep["total_drained"] == pytest.approx(1.502)
    assert rep["attack_attributable"] == pytest.approx(1.5)
    assert rep["projected_exchanges_lost"] == pytest.approx(1.5)
    assert rep["by_cause"]["legit"] == pytest.approx(0.002)


def test_energy_report_no_attack_is_zero():
    ledger = EnergyLedger()
    ledger.add(0.1, "legit")
    assert energy_report(ledger)["attack_attributable"] == 0.0


def defaults(fn, *names):
    params = inspect.signature(fn).parameters
    return tuple(params[name].default for name in names)


@pytest.mark.parametrize("copy, source", [
    (EnergyConfig().make(), EnergyBudget()),
    (defaults(classify_behavior, "loss_fraction", "retransmit_fraction"),
     (ClassifyConfig().loss_fraction, ClassifyConfig().retransmit_fraction)),
    (defaults(energy_report, "cost_edhoc"), (EnergyBudget().cost_edhoc,)),
], ids=["EnergyConfig", "classify_behavior", "energy_report"])
def test_each_default_has_one_value(copy, source):
    # tests/test_acceptance.py calls EnergyBudget(), energy_report(ledger)
    # and a five-argument classify_behavior; each must agree with the
    # config the simulation runs.
    assert copy == source


def test_resource_labels():
    assert resource_label(0.0, 600_000, 50_000, 0.10) == "low_or_none"
    # 40 units over 600 s projects to 5760/day: above 10% of 50 000.
    assert resource_label(40.0, 600_000, 50_000, 0.10) == "high"
    # 20 units over 600 s projects to 2880/day: below the threshold.
    assert resource_label(20.0, 600_000, 50_000, 0.10) == "low"


# The (setup, steady, resource) labels of the six scenario x attack pairs
# that the 14-cell matrix leaves out.
PAIRS_OUTSIDE_THE_MATRIX = {
    ("baseline-open", "impersonator"): ("good", "good", "low"),
    ("baseline-open", "on_path"): ("good", "good", "low"),
    ("baseline-throttled", "impersonator"): ("losses", "losses", "low"),
    ("baseline-throttled", "on_path"): ("throttled", "throttled", "low"),
    ("exemptions", "impersonator"): ("throttled", "good", "low"),
    ("exemptions", "on_path"): ("throttled", "good", "low"),
}


def test_the_pairs_outside_the_matrix_are_the_other_six():
    every = {(s, a) for s in SCENARIOS for a in ATTACKS}
    assert set(PAIRS_OUTSIDE_THE_MATRIX) == every - set(MATRIX_CELLS)


# The sha256 of each pair's `report_to_json` at the default config. No
# benchmark workload runs these pairs; exemptions x {impersonator, on_path}
# relay through `GuardNode.relay` and ask the AS.
PAIR_REPORT_DIGESTS = {
    ("baseline-open", "impersonator", 42):
        "93d7bf8920044044e96b523e4ae72fb56767ad81fd6388a39498d21d8f11edab",
    ("baseline-open", "on_path", 42):
        "a082d7b410e44d0ed4de83d0c48d3f6a939e8141d5e2c49c16ba9a779bc495a7",
    ("baseline-throttled", "impersonator", 42):
        "dcadbffb3808bacb8a88515620d776cb61a9dd7d48975332d5277dc75504cd7c",
    ("baseline-throttled", "on_path", 42):
        "748d9cc911951d8f4c35e7f8ad9210c31d4743029ed69683a594707fd4faca37",
    ("exemptions", "impersonator", 42):
        "0bfc7ce25d3341e231ce86f68240d9c440e3e48d492bcb5cccddf215b691c3d2",
    ("exemptions", "on_path", 42):
        "077494e87f2699477c20a4cca0e33a0fda852cd7ef6df2497e045632df0cf010",
    ("baseline-open", "impersonator", 7):
        "7aacfc3806ea7c39ac06d65a100113aa0d251f8d38bc7470cd82155110892285",
    ("baseline-open", "on_path", 7):
        "8b872169f100e0d52bbe5ed61e1ad2c61bb7d038901c5501efe768be1f153cb1",
    ("baseline-throttled", "impersonator", 7):
        "41113bdd74ea07adb6944c47e35a12141f270f3daed9eb60a3111b1ea3f6cb99",
    ("baseline-throttled", "on_path", 7):
        "2885eceffc012d0ce2f562e56fc42c8bfa12bad687e442271a3871dbd8da5b8b",
    ("exemptions", "impersonator", 7):
        "da37763ff7788aadc110be9a9ecf9e034dcd0094514f5fce310c10dc6bbfba2f",
    ("exemptions", "on_path", 7):
        "20fe65de7b187586a93473ab224d28a6afcec3508cbd69bcc32b81f6501f5d9d",
}


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("scenario, attack", sorted(PAIRS_OUTSIDE_THE_MATRIX))
def test_pairs_outside_the_matrix_keep_their_labels(scenario, attack, seed):
    cell = run_cell(config_from_dict({"seed": seed}), scenario, attack)
    assert (cell["setup"]["behavior"], cell["steady"]["behavior"],
            cell["resource"]) == PAIRS_OUTSIDE_THE_MATRIX[(scenario, attack)]
    digest = hashlib.sha256(report_to_json(cell).encode()).hexdigest()
    assert digest == PAIR_REPORT_DIGESTS[(scenario, attack, seed)]


# --- the trace is off unless asked for -------------------------------------------------

def short_config():
    return config_from_dict({
        "seed": 42,
        "client": {"request_interval_ms": 2000, "setup_pause_ms": 2000},
        "durations": {"setup_ms": 30_000, "warmup_ms": 5_000,
                      "steady_ms": 30_000, "grace_ms": 10_000}})


def test_trace_is_off_by_default_at_every_layer():
    cfg = short_config()
    worlds = [World(1),
              build_world(cfg, "exemptions", "none", 0, 1000, 1).world,
              run_subrun(cfg, "baseline-open", "blind_flood", "setup")
              .handles.world]
    for world in worlds:
        assert isinstance(world.trace, NullTrace)
        assert world.trace.events == ()
    assert "_traces" not in run_cell(cfg, "baseline-open", "none")
    assert worlds[2].ledger.attributable > 0  # energy is counted anyway


def test_discarded_trace_refuses_to_be_read():
    trace = World(1).trace
    trace.emit(0, "send", "a", size=1)
    assert trace.events == ()
    with pytest.raises(RuntimeError, match="collect_trace=True"):
        trace.by_kind("send")
    with pytest.raises(RuntimeError, match="collect_trace=True"):
        trace.to_jsonl()


@pytest.mark.parametrize("scenario, attack", MATRIX_CELLS)
def test_report_is_the_same_with_and_without_the_trace(scenario, attack):
    cfg = short_config()
    traced = run_cell(cfg, scenario, attack, collect_traces=True)
    assert all(isinstance(t, Trace) for t in traced.pop("_traces"))
    assert report_to_json(traced) == \
        report_to_json(run_cell(cfg, scenario, attack))


@pytest.mark.parametrize("scenario, attack", MATRIX_CELLS)
def test_ledger_equals_running_sums_over_the_trace(scenario, attack):
    cfg = short_config()
    for subrun in ("setup", "steady"):
        world = run_subrun(cfg, scenario, attack, subrun,
                           collect_trace=True).handles.world
        total = attributable = 0.0
        by_cause = {}
        for event in world.trace.by_kind("energy"):
            amount, cause = event["detail"]["amount"], event["detail"]["cause"]
            total += amount
            by_cause[cause] = by_cause.get(cause, 0.0) + amount
            if cause in ATTACK_CAUSES:
                attributable += amount
        assert total > 0
        assert world.ledger.total == total
        assert world.ledger.by_cause == by_cause
        assert world.ledger.attributable == attributable


# --- every exchange resolves -------------------------------------------------------------

@pytest.mark.parametrize("seed", [42, 7])
def test_short_network_wide_timeouts_do_not_stall_the_setup_loop(seed):
    # Every node takes this timing. rtrC empty-ACKs the client's m1, the
    # on-path attacker's garbling makes the tunnel exchange give up, and
    # rtrC must then answer the acked m1 5.04, or the setup loop stops
    # until the m1's lifetime ends.
    cfg = config_from_dict({"seed": seed, "coap": {"base_timeout_ms": 500,
                                                   "retransmit_limit": 2}})
    sub = run_subrun(cfg, "fullguard", "on_path", "setup", collect_trace=True)
    interactions = sub.handles.client.interactions
    assert all(i.outcome is not None for i in interactions)
    setup = harness.phase_stats(interactions, ("key_exchange",), cfg)
    assert setup["behavior"] != "no_traffic"
    trace = sub.handles.world.trace
    giveups = [e["t"] for e in trace.by_kind("upstream_giveup")
               if e["node"] == "rtrC"]
    assert giveups
    assert not [e for e in trace.by_kind("giveup") if e["node"] == "cli"]
    assert setup["n_timed_out"] == 0
    assert any(i.t_start > giveups[0] for i in interactions)


# --- memory ------------------------------------------------------------------------------

SHORT = config_from_dict({
    "seed": 42,
    "durations": {"setup_ms": 10_000, "warmup_ms": 1_000,
                  "steady_ms": 10_000, "grace_ms": 1_000}})


def worlds_left_alive(monkeypatch, run):
    """`run()` with automatic collection off, so that a world is freed only
    if something breaks or collects its cycles before `run` returns.
    Returns its result, the number of worlds it built, the indices of
    those still alive, and, for each world built while an earlier one was
    still alive, its index and the indices of those earlier worlds."""
    worlds = []
    overlaps = []

    def tracked_world(*args, **kwargs):
        earlier = [i for i, ref in enumerate(worlds) if ref() is not None]
        if earlier:
            overlaps.append((len(worlds), earlier))
        world = World(*args, **kwargs)
        worlds.append(weakref.ref(world))
        return world

    monkeypatch.setattr(harness, "World", tracked_world)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run()
        alive = [i for i, ref in enumerate(worlds) if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    return result, len(worlds), alive, overlaps


def test_run_matrix_frees_each_cells_worlds(monkeypatch):
    report, built, alive, overlaps = worlds_left_alive(
        monkeypatch, lambda: run_matrix(SHORT))
    assert not report["errored"]
    assert built == 2 * len(MATRIX_CELLS)
    assert alive == []
    # One world at a time: each steady world is built after its cell's
    # setup world has been freed.
    assert overlaps == []


def test_run_cell_frees_its_own_worlds(monkeypatch):
    # Callers other than `run_matrix` (perfbench's tunnel workload runs
    # three cells in a row) must not keep finished worlds either.
    def three_cells():
        for attack in ("none", "impersonator", "on_path"):
            run_cell(SHORT, "fullguard", attack)

    _, built, alive, overlaps = worlds_left_alive(monkeypatch, three_cells)
    assert built == 6
    assert alive == []
    assert overlaps == []


def test_run_cell_freezes_what_was_alive_only_while_it_runs(monkeypatch):
    # The collection after each sub-run walks only what the cell built:
    # everything alive before it is frozen while it runs, and thawed after.
    seen = []
    build = harness.build_world

    def counting_build_world(*args, **kwargs):
        seen.append(gc.get_freeze_count())
        return build(*args, **kwargs)

    monkeypatch.setattr(harness, "build_world", counting_build_world)
    assert gc.get_freeze_count() == 0
    run_cell(SHORT, "fullguard", "none")
    assert len(seen) == 2 and min(seen) > 0
    assert gc.get_freeze_count() == 0


def test_run_cell_thaws_when_a_sub_run_raises(monkeypatch):
    def failing_build_world(*args, **kwargs):
        assert gc.get_freeze_count() > 0
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "build_world", failing_build_world)
    with pytest.raises(RuntimeError, match="boom"):
        run_cell(SHORT, "exemptions", "blind_flood")
    assert gc.get_freeze_count() == 0


def test_run_cell_leaves_a_callers_frozen_objects_frozen(monkeypatch):
    mine = [[]]
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        _, built, alive, overlaps = worlds_left_alive(
            monkeypatch, lambda: run_cell(SHORT, "fullguard", "on_path"))
        assert gc.get_freeze_count() == frozen
        assert not any(obj is mine for obj in gc.get_objects())
    finally:
        gc.unfreeze()
    # Unbracketed, the cell still frees each world before the next.
    assert built == 2
    assert alive == []
    assert overlaps == []


# --- untraced runs ---------------------------------------------------------------

# The per-frame events whose call sites test `World.collect_trace` before
# building them, as (kind, drop reason or None).
HOT_EVENTS = {("link_frame", None), ("energy", None), ("blocked", None),
              ("guard_drop", None), ("drop", "throttled"),
              ("drop", "queue_full")}


def emitted_events(monkeypatch, scenario, attack, collect_traces):
    seen = set()
    emit = World.emit

    def counted_emit(self, kind, node, **detail):
        seen.add((kind, detail.get("reason") if kind == "drop" else None))
        return emit(self, kind, node, **detail)

    monkeypatch.setattr(World, "emit", counted_emit)
    run_cell(SHORT, scenario, attack, collect_traces)
    monkeypatch.undo()
    return seen


def test_untraced_runs_skip_the_hot_events(monkeypatch):
    cells = [("baseline-open", "distributed_flood"),
             ("baseline-throttled", "blind_flood"),
             ("exemptions", "distributed_flood"),
             ("fullguard", "distributed_flood")]
    traced = set()
    for scenario, attack in cells:
        assert not emitted_events(monkeypatch, scenario, attack,
                                  False) & HOT_EVENTS, (scenario, attack)
        traced |= emitted_events(monkeypatch, scenario, attack, True)
    # The same cells, traced, reach every one of those call sites.
    assert HOT_EVENTS <= traced


def test_untraced_runs_skip_the_servers_handshake_events(monkeypatch):
    # The server's per-m1 event follows the per-frame rule: a flood of m1s
    # builds none without a trace.
    edhoc = {("edhoc_msg", None)}
    assert not emitted_events(monkeypatch, "baseline-open",
                              "distributed_flood", False) & edhoc
    assert edhoc <= emitted_events(monkeypatch, "baseline-open",
                                   "distributed_flood", True)


# --- rendering -------------------------------------------------------------------------

def sample_cell():
    return {
        "scenario": "exemptions", "attack": "none", "seed": 1,
        "setup": {"behavior": "throttled", "n_started": 10, "n_completed": 10,
                  "n_timed_out": 0, "median_latency_ms": 100,
                  "retransmit_fraction": 0.5},
        "steady": {"behavior": "good", "n_started": 30, "n_completed": 30,
                   "n_timed_out": 0, "median_latency_ms": 120,
                   "retransmit_fraction": 0.0},
        "energy": {"total_drained": 1.0, "attack_attributable": 0.0,
                   "projected_exchanges_lost": 0.0},
        "resource": "low_or_none", "rekeys": 0, "attack_induced_rekeys": 0,
        "tunnel_renegotiations": 0,
        "_traces": ("not", "serializable"),
    }


def test_report_json_round_trips_and_strips_private_keys():
    out = report_to_json(sample_cell())
    doc = json.loads(out)
    assert "_traces" not in doc
    assert doc["setup"]["behavior"] == "throttled"
    assert report_to_json(sample_cell()) == out  # stable text


def test_markdown_and_csv_render():
    cell = sample_cell()
    md = cell_to_markdown(cell)
    assert "| exemptions | none | throttled | good | low_or_none |" in md
    csv_text = cell_to_csv(cell)
    assert "exemptions,none,throttled,good,low_or_none" in csv_text
    report = {"seed": 1, "cells": [cell, {"scenario": "fullguard",
                                          "attack": "none",
                                          "error": "Boom: nope"}],
              "errored": True}
    md = matrix_to_markdown(report)
    assert md.count("\n") == 4  # header, rule, two rows, trailing newline
    assert "error" in md
    assert "Boom" in matrix_to_csv(report)
