"""The benchmark's workloads: config dicts built from a name and a seed.

The simulator receives only the config dict, through its public API
(`config_from_dict`, `run_matrix`, `run_cell`, `report_to_json`).
"""

import hashlib

TUNNEL_ATTACKS = ("none", "impersonator", "on_path")


def config_doc(name: str, seed: int) -> dict:
    """The config dict the simulator receives for workload `name`."""
    if name == "matrix":
        return {"seed": seed}
    if name == "tunnel":
        return {"seed": seed, "scenario": "fullguard",
                "client": {"request_interval_ms": 1000,
                           "setup_pause_ms": 1000}}
    if name == "long_flood":
        return {"seed": seed, "scenario": "exemptions",
                "attack": "distributed_flood",
                "attacks": {"distributed_sources": 2000,
                            "distributed_rate": 0.025},
                "durations": {"setup_ms": 900_000, "steady_ms": 900_000}}
    raise ValueError(f"unknown workload {name!r}")


def run(harness, name: str, config) -> dict:
    """Run workload `name` on a parsed config; returns a matrix-shaped report.

    A cell that raises is recorded as an error cell, as `run_matrix` does,
    so that one failure does not hide the rest of the report.
    """
    if name == "matrix":
        return harness.run_matrix(config)
    cells = []
    for attack in (TUNNEL_ATTACKS if name == "tunnel" else (config.attack,)):
        try:
            cells.append(harness.run_cell(config, config.scenario, attack))
        except Exception as e:  # recorded in the report, counted as failed
            cells.append({"scenario": config.scenario, "attack": attack,
                          "error": f"{type(e).__name__}: {e}"})
    return {"seed": config.seed, "cells": cells,
            "errored": any("error" in c for c in cells)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
