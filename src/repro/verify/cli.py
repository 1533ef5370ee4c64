"""Command-line front end: ``python -m repro.verify``.

Examples
--------
Run the CI gate and write the machine-readable report::

    python -m repro.verify --suite fast --report verify_report.json

Regenerate every golden after a deliberate recalibration::

    python -m repro.verify --suite goldens --update-goldens

Widening a tolerance class additionally needs ``--allow-widen``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.engine import Engine
from repro.verify.goldens import GoldenStore
from repro.verify.suites import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.verify`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Run the golden-regression / numerical-"
                    "verification suites.")
    parser.add_argument(
        "--suite", default="fast", choices=SUITES,
        help="which check bundle to run (default: fast)")
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write verify_report.json here")
    parser.add_argument(
        "--goldens", metavar="DIR", default=None,
        help="golden directory (default: committed tests/goldens, "
             "or $REPRO_GOLDEN_DIR)")
    parser.add_argument(
        "--update-goldens", action="store_true",
        help="regenerate goldens from fresh measurements instead of "
             "diffing")
    parser.add_argument(
        "--allow-widen", action="store_true",
        help="permit --update-goldens to widen a tolerance class")
    parser.add_argument(
        "--backend", default=None,
        help="execution backend for pipeline measurements: serial, "
             "pool, pool:N or workqueue (default REPRO_BACKEND)")
    parser.add_argument(
        "--parity-modes", metavar="MODES", default=None,
        help="comma-separated parity matrix modes to run (only "
             "meaningful with a suite that includes parity; e.g. "
             "'interrupted-resumed,concurrent-shared-cache' for the "
             "chaos scenarios)")
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="record an observe trace of the run into DIR")
    parser.add_argument(
        "--quiet", action="store_true",
        help="print only the final summary line")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    options = build_parser().parse_args(argv)
    if options.allow_widen and not options.update_goldens:
        print("--allow-widen only makes sense with --update-goldens",
              file=sys.stderr)
        return 2
    store = GoldenStore(root=options.goldens,
                        update=options.update_goldens,
                        allow_widen=options.allow_widen)
    engine = (Engine(backend=options.backend)
              if options.backend is not None else None)
    observe = None
    if options.trace:
        from repro.observe import Tracer
        observe = Tracer(out_dir=options.trace)
    parity_modes = None
    if options.parity_modes:
        parity_modes = [m.strip() for m in options.parity_modes.split(",")
                        if m.strip()]
    report = run_suite(options.suite, store=store, engine=engine,
                       observe=observe, parity_modes=parity_modes)
    if options.report:
        report.write(options.report)
    if options.quiet:
        counts = report.counts
        print(f"verify suite {options.suite!r}: "
              f"{'PASS' if report.passed else 'FAIL'} "
              f"({counts['pass']} passed, {counts['fail']} failed, "
              f"{counts['skip']} skipped)")
    else:
        print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
