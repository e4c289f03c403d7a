"""Command-line interface: argument handling, exit codes, output formats."""

import json

import pytest

from guardsim import cli
from guardsim.cli import EXIT_CELL_ERROR, EXIT_CONFIG, EXIT_OK, main


@pytest.fixture
def quick_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": "baseline-open",
        "attack": "none",
        "durations": {"setup_ms": 20_000, "warmup_ms": 5_000,
                      "steady_ms": 30_000, "grace_ms": 10_000},
    }))
    return str(path)


def test_run_json_output(quick_config, capsys):
    assert main(["run", "--config", quick_config]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "baseline-open"
    assert doc["setup"]["behavior"] == "good"
    assert doc["steady"]["behavior"] == "good"


def test_run_markdown_output(quick_config, capsys):
    assert main(["run", "--config", quick_config, "--out", "markdown"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("| Scenario | Attack |")
    assert "baseline-open" in out


def test_run_csv_output(quick_config, capsys):
    assert main(["run", "--config", quick_config, "--out", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0].startswith("scenario,")


def test_run_writes_trace_file(quick_config, tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["run", "--config", quick_config,
                 "--trace", str(trace_path)]) == EXIT_OK
    capsys.readouterr()
    lines = [json.loads(line) for line in
             trace_path.read_text().strip().splitlines()]
    assert lines
    assert all({"t", "kind", "node", "detail"} <= set(e) for e in lines)


@pytest.mark.parametrize("where", ["no/such/dir/t.jsonl", "."])
def test_unwritable_trace_path_is_config_error(quick_config, tmp_path,
                                               capsys, monkeypatch, where):
    # A missing directory or a path that is a directory: refused before
    # the cell runs, with nothing on stdout.
    ran = []
    monkeypatch.setattr(cli, "run_cell", lambda *a, **k: ran.append(a))
    assert main(["run", "--config", quick_config,
                 "--trace", str(tmp_path / where)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: --trace: ")
    assert ran == []


def test_seed_override(quick_config, capsys):
    assert main(["run", "--config", quick_config, "--seed", "7"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["seed"] == 7


def test_missing_config_file_is_config_error(capsys):
    assert main(["run", "--config", "/no/such/file.json"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_config_field_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "nope"}')
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "scenario" in capsys.readouterr().err


def test_config_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: config is not valid UTF-8")


def test_number_too_large_for_a_float_is_config_error(tmp_path, capsys):
    # A JSON integer has no size limit; `float` of this one overflows.
    path = tmp_path / "huge.json"
    path.write_text('{"attacks": {"blind_rate": 1' + "0" * 400 + "}}")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "attacks.blind_rate: expected a number" in capsys.readouterr().err


def test_removed_client_enabled_field_is_config_error(tmp_path, capsys):
    path = tmp_path / "noclient.json"
    path.write_text('{"client": {"enabled": false}}')
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "client.enabled: unknown field" in capsys.readouterr().err


def test_removed_guard_mode_field_is_config_error(tmp_path, capsys):
    path = tmp_path / "mode.json"
    path.write_text('{"guard": {"mode": "fullguard"}}')
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "guard.mode: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("doc, path", [
    ({"energy": {"make": 1}}, "energy.make"),
    ({"bounds": 1}, "bounds"),
    ({"links": {"constrained": {"bounds": {}}}}, "links.constrained.bounds"),
])
def test_a_sections_other_class_attributes_are_unknown_fields(tmp_path, capsys,
                                                               doc, path):
    # Only a section's annotated names are fields: its methods and its
    # `bounds` declaration are not.
    config = tmp_path / "attr.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {path}: unknown field\n"


@pytest.mark.parametrize("doc, message", [
    ({"links": {"constrained": {"bandwidth_bps": 0}}},
     "links.constrained.bandwidth_bps: must be > 0"),
    ({"attacks": {"blind_rate": 0}}, "attacks.blind_rate: must be > 0"),
    ({"attacks": {"distributed_sources": 0}},
     "attacks.distributed_sources: must be > 0"),
    ({"client": {"request_interval_ms": 0}},
     "client.request_interval_ms: must be > 0"),
    ({"coap": {"base_timeout_ms": -1}}, "coap.base_timeout_ms: must be > 0"),
    ({"durations": {"steady_ms": -5}}, "durations.steady_ms: must be >= 0"),
    ({"links": {"internet": {"queue_capacity": -1}}},
     "links.internet.queue_capacity: must be >= 0"),
    ({"energy": {"cost_per_msg": -0.5}}, "energy.cost_per_msg: must be >= 0"),
    ({"guard": {"unknown_bucket": {"aggregate_rate": -1}}},
     "guard.unknown_bucket.aggregate_rate: must be >= 0"),
    # A token bucket admits only whole tokens: a burst below 1 refuses all.
    ({"baseline_throttle": {"burst": 0.5}},
     "baseline_throttle.burst: must be >= 1"),
    ({"guard": {"unknown_bucket": {"per_source_burst": 0}}},
     "guard.unknown_bucket.per_source_burst: must be >= 1"),
    ({"guard": {"unknown_bucket": {"aggregate_burst": 0}}},
     "guard.unknown_bucket.aggregate_burst: must be >= 1"),
    ({"guard": {"non_proxy_bucket": {"per_source_burst": 0}}},
     "guard.non_proxy_bucket.per_source_burst: must be >= 1"),
    ({"guard": {"non_proxy_bucket": {"aggregate_burst": 0}}},
     "guard.non_proxy_bucket.aggregate_burst: must be >= 1"),
    ({"guard": {"verified_bucket": {"per_source_burst": 0}}},
     "guard.verified_bucket.per_source_burst: must be >= 1"),
    ({"guard": {"verified_bucket": {"aggregate_burst": 0}}},
     "guard.verified_bucket.aggregate_burst: must be >= 1"),
    # `projected_exchanges_lost` divides by it.
    ({"energy": {"cost_edhoc": 0}}, "energy.cost_edhoc: must be > 0"),
    # Positive, yet the report's division by it overflows to Infinity.
    ({"energy": {"cost_edhoc": 1e-320}}, "energy.cost_edhoc: too small"),
    # An attacker sends at most one frame per ms: a faster rate is refused,
    # not clamped to 1,000/s.
    ({"attacks": {"blind_rate": 1000.5}}, "attacks.blind_rate: must be <= 1000"),
    ({"attacks": {"impersonator_rate": 100_000}},
     "attacks.impersonator_rate: must be <= 1000"),
    ({"attacks": {"distributed_rate": 21, "distributed_sources": 50}},
     "attacks.distributed_rate * attacks.distributed_sources: must be <= 1000"),
    ({"attacks": {"distributed_sources": 10**400}},
     "attacks.distributed_rate * attacks.distributed_sources: must be <= 1000"),
])
def test_out_of_range_value_is_config_error(tmp_path, capsys, doc, message):
    path = tmp_path / "range.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("attack, field", [
    ("blind_flood", "blind_rate"),
    ("distributed_flood", "distributed_rate"),
    ("impersonator", "impersonator_rate"),
])
def test_rate_with_overflowing_period_is_config_error(tmp_path, capsys,
                                                      monkeypatch, attack,
                                                      field):
    # Positive, yet 1000 / rate ms overflows to infinity: refused before
    # the cell runs, not an OverflowError while building the attacker.
    ran = []
    monkeypatch.setattr(cli, "run_cell", lambda *a, **k: ran.append(a))
    path = tmp_path / "rate.json"
    path.write_text(json.dumps({"scenario": "fullguard", "attack": attack,
                                "attacks": {field: 1e-320}}))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert f"attacks.{field}: too small" in err
    assert ran == []


@pytest.mark.parametrize("attacks", [
    {"blind_rate": 1000}, {"impersonator_rate": 1000},
    {"distributed_rate": 20, "distributed_sources": 50},
])
def test_attack_rate_at_the_ceiling_is_accepted(tmp_path, attacks):
    # 1,000 frames/s is one frame per 1 ms tick, which an attacker sends.
    path = tmp_path / "rate.json"
    path.write_text(json.dumps({"attacks": attacks}))
    config = cli.load_config(str(path))
    assert {f: getattr(config.attacks, f) for f in attacks} == attacks


@pytest.mark.parametrize("doc", [
    {"guard": {"unknown_bucket": {"per_source_burst": 2.5}}},
    {"baseline_throttle": {"burst": 2.5}},
])
def test_fractional_burst_is_accepted(tmp_path, capsys, doc):
    # A burst is a number of tokens: any value >= 1, whole or not.
    path = tmp_path / "burst.json"
    path.write_text(json.dumps({
        **doc, "durations": {"setup_ms": 5_000, "warmup_ms": 1_000,
                             "steady_ms": 5_000, "grace_ms": 1_000}}))
    assert main(["run", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()


def test_non_finite_energy_figure_is_cell_error(tmp_path, capsys):
    # Every value passes its bound, but the attributable drain divided by
    # `cost_edhoc` overflows a float, which JSON cannot carry.
    path = tmp_path / "energy.json"
    path.write_text(json.dumps({
        "scenario": "baseline-open", "attack": "blind_flood",
        "energy": {"budget": 1e308, "cost_per_msg": 1e10,
                   "cost_edhoc": 1e-300},
        "durations": {"setup_ms": 5_000, "warmup_ms": 1_000,
                      "steady_ms": 5_000, "grace_ms": 1_000}}))
    assert main(["run", "--config", str(path)]) == EXIT_CELL_ERROR
    captured = capsys.readouterr()
    assert "Infinity" not in captured.out
    assert captured.err == ("cell error: OverflowError: "
                            "energy.projected_exchanges_lost is not finite\n")


def test_fractional_seed_is_config_error(tmp_path, capsys):
    path = tmp_path / "seed.json"
    path.write_text('{"seed": 1.5}')
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "seed: expected an integer" in capsys.readouterr().err


def test_report_is_the_same_with_and_without_trace_file(quick_config,
                                                         tmp_path, capsys):
    assert main(["run", "--config", quick_config]) == EXIT_OK
    plain = capsys.readouterr().out
    assert main(["run", "--config", quick_config,
                 "--trace", str(tmp_path / "t.jsonl")]) == EXIT_OK
    assert capsys.readouterr().out == plain


def test_command_required():
    with pytest.raises(SystemExit):
        main([])
