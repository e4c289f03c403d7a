"""Command-line interface.

    guardsim run --config FILE [--seed N] [--out json|csv|markdown] [--trace PATH]
    guardsim matrix --config FILE [--seed N] [--out json|csv|markdown]

Exit codes: 0 success, 2 configuration error (an unwritable --trace path
included), 3 a cell errored.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .harness import (ConfigError, SimConfig, cell_to_csv, cell_to_markdown,
                      load_config, matrix_to_csv, matrix_to_markdown,
                      report_to_json, run_cell, run_matrix)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CELL_ERROR = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardsim",
        description="Simulate guard-proxy protection of constrained CoAP "
                    "networks under denial-of-service attacks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the single cell named in the config")
    matrix = sub.add_parser("matrix", help="run the full comparison matrix")
    for p in (run, matrix):
        p.add_argument("--config", help="JSON config file (defaults apply "
                                        "when omitted)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", choices=("json", "csv", "markdown"),
                       default="json", help="output format")
    run.add_argument("--trace", help="write the combined event trace "
                                     "(JSON lines) to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else SimConfig()
        if args.seed is not None:
            config.seed = args.seed
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "run":
        # Open the trace file first, so that an unwritable path is a config
        # error before the cell runs, not a traceback after it.
        trace_file = None
        if args.trace:
            try:
                trace_file = open(args.trace, "w")
            except OSError as e:
                print(f"config error: --trace: {e}", file=sys.stderr)
                return EXIT_CONFIG
        with trace_file or contextlib.nullcontext():
            try:
                cell = run_cell(config, config.scenario, config.attack,
                                collect_traces=trace_file is not None)
            except Exception as e:
                print(f"cell error: {type(e).__name__}: {e}", file=sys.stderr)
                return EXIT_CELL_ERROR
            if trace_file is not None:
                for trace in cell.pop("_traces"):
                    trace_file.write(trace.to_jsonl())
                    trace_file.write("\n")
        out = {"json": report_to_json, "csv": cell_to_csv,
               "markdown": cell_to_markdown}[args.out](cell)
        sys.stdout.write(out)
        return EXIT_OK

    report = run_matrix(config)
    out = {"json": report_to_json, "csv": matrix_to_csv,
           "markdown": matrix_to_markdown}[args.out](report)
    sys.stdout.write(out)
    return EXIT_CELL_ERROR if report["errored"] else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
