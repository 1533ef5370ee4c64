"""``python -m repro.flows`` — durable pipeline runs from the shell.

Subcommands
-----------
``run``
    Start a durable full-pipeline run (journalled, resumable).
``resume <run_id>``
    Continue an interrupted run from its journal.
``list``
    Show journalled runs under the cache directory.

``--resume <run_id>`` at top level is an alias for ``resume``, so an
auto-resume wrapper only needs to re-invoke with one flag.

Exit codes
----------
``0``   run completed.
``1``   run failed (task errors, unusable journal...).
``2``   usage error (bad arguments).
``75``  run interrupted by SIGINT/SIGTERM but resumable
        (``EX_TEMPFAIL`` — re-invoke with ``--resume <run_id>``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cells.library import CELL_NAMES
from repro.cells.variants import DeviceVariant
from repro.engine import Engine
from repro.engine.durability import (
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    list_runs,
)
from repro.engine.cache import resolve_cache_dir
from repro.errors import ReproError, RunInterrupted
from repro.flows.durable import DurableFlowRun, resume_run, run_durable_flow
from repro.geometry.transistor_layout import ChannelCount
from repro.ppa.runner import DEFAULT_DT


def _parse_cells(text: str) -> List[str]:
    cells = [c.strip() for c in text.split(",") if c.strip()]
    unknown = [c for c in cells if c not in CELL_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown cell(s) {', '.join(unknown)} "
            f"(choose from {', '.join(CELL_NAMES)})")
    return cells


def _parse_variants(text: str) -> List[DeviceVariant]:
    try:
        return [DeviceVariant(v.strip())
                for v in text.split(",") if v.strip()]
    except ValueError:
        choices = ", ".join(v.value for v in DeviceVariant)
        raise argparse.ArgumentTypeError(
            f"bad variant list {text!r} (choose from {choices})") from None


def _parse_channels(text: str) -> List[ChannelCount]:
    try:
        return [ChannelCount[v.strip().upper()]
                for v in text.split(",") if v.strip()]
    except KeyError:
        choices = ", ".join(v.name for v in ChannelCount)
        raise argparse.ArgumentTypeError(
            f"bad extraction variant list {text!r} "
            f"(choose from {choices})") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.flows",
        description="Durable (journalled, resumable) pipeline runs.")
    parser.add_argument("--resume", metavar="RUN_ID", default=None,
                        help="alias for the 'resume' subcommand")
    sub = parser.add_subparsers(dest="command")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (default REPRO_CACHE_DIR)")
        p.add_argument("--backend", default=None,
                       help="execution backend: serial, pool, pool:N or "
                            "workqueue (default REPRO_BACKEND); "
                            "'workqueue' lets several invocations "
                            "sharing one cache drain the same run")
        p.add_argument("--grace", type=float, default=None,
                       help="shutdown drain window in seconds "
                            "(default REPRO_SHUTDOWN_GRACE)")
        p.add_argument("--remote-cache", metavar="URL", default=None,
                       help="remote artifact cache endpoint, e.g. "
                            "http://host:port of a 'python -m "
                            "repro.cachesrv' (default "
                            "REPRO_REMOTE_CACHE; failures degrade to "
                            "local-only, never fail the run)")
        p.add_argument("--json", action="store_true",
                       help="print a JSON summary instead of text")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the per-stage manifest table")

    run_p = sub.add_parser("run", help="start a durable run")
    run_p.add_argument("--cells", type=_parse_cells, default=None,
                       help="comma-separated cell names (default: all)")
    run_p.add_argument("--variants", type=_parse_variants, default=None,
                       help="comma-separated device variants "
                            "(2D,1-ch,2-ch,4-ch; default: all)")
    run_p.add_argument("--extraction-variants", type=_parse_channels,
                       default=None,
                       help="comma-separated channel counts "
                            "(TRADITIONAL,ONE,TWO,FOUR; default: all)")
    run_p.add_argument("--dt", type=float, default=DEFAULT_DT,
                       help="transient timestep [s]")
    run_p.add_argument("--run-id", default=None,
                       help="explicit run id (also how a run resumes "
                            "itself)")
    common(run_p)

    resume_p = sub.add_parser("resume", help="continue an interrupted run")
    resume_p.add_argument("run_id", help="the run to continue")
    common(resume_p)

    list_p = sub.add_parser("list", help="show journalled runs")
    list_p.add_argument("--cache-dir", default=None)
    list_p.add_argument("--json", action="store_true")
    return parser


def _report(run: DurableFlowRun, as_json: bool, quiet: bool,
            engine: Optional[Engine] = None) -> None:
    cache_stats = (engine.cache.stats()
                   if engine is not None else None)
    if as_json:
        # the headline claims compare against the MIV variants, which
        # a reduced flow may not include — that is not an error
        try:
            headline = run.result.headline()
        except ReproError:
            headline = None
        payload = {
            "run_id": run.run_id,
            "status": run.result.manifest.status,
            "resumed": run.resumed,
            "run_dir": str(run.run_dir),
            "headline": headline,
            "summary": run.result.manifest.summary(),
        }
        if cache_stats is not None:
            payload["cache"] = cache_stats
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    print(f"run {run.run_id}: completed"
          + (f" (resume #{run.resumed})" if run.resumed else ""))
    if cache_stats is not None and "remote" in cache_stats:
        remote = cache_stats["remote"]
        print(f"remote cache: hits={cache_stats['hits_remote']} "
              f"stores={remote['stores']} errors={remote['errors']} "
              f"degraded={remote['degraded']}")
    if not quiet and run.result.manifest is not None:
        print(run.result.manifest.render())


def _cmd_list(args) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print("no cache directory configured (set REPRO_CACHE_DIR "
              "or pass --cache-dir)", file=sys.stderr)
        return EXIT_USAGE
    runs = list_runs(cache_dir)
    if args.json:
        print(json.dumps(runs, indent=2, sort_keys=True))
        return EXIT_OK
    if not runs:
        print(f"no journalled runs under {cache_dir}")
        return EXIT_OK
    for entry in runs:
        flags = []
        if entry["active"]:
            flags.append("active")
        if entry["resumes"]:
            flags.append(f"resumed x{entry['resumes']}")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(f"{entry['run_id']}  {entry['status']:<12} "
              f"{entry['tasks_done']} done{suffix}")
    return EXIT_OK


def _engine_for(args) -> Optional[Engine]:
    remote = getattr(args, "remote_cache", None)
    if args.cache_dir is None and args.backend is None and remote is None:
        return None
    return Engine(backend=args.backend, cache_dir=args.cache_dir,
                  remote=remote)


def _rewrite_resume_alias(argv: List[str]) -> List[str]:
    """``--resume RUN_ID [opts...]`` -> ``resume RUN_ID [opts...]``.

    Rewritten before parsing so the remaining options survive the
    aliasing (a post-parse re-parse would silently drop them).
    """
    for i, token in enumerate(argv):
        if token in ("run", "resume", "list"):
            return argv
        if token == "--resume" and i + 1 < len(argv):
            return (["resume", argv[i + 1]]
                    + argv[:i] + argv[i + 2:])
        if token.startswith("--resume="):
            return (["resume", token.split("=", 1)[1]]
                    + argv[:i] + argv[i + 1:])
    return argv


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_rewrite_resume_alias(argv))
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE

    if args.command == "list":
        return _cmd_list(args)

    engine = _engine_for(args)
    try:
        if args.command == "run":
            run = run_durable_flow(
                cells=args.cells, variants=args.variants,
                extraction_variants=args.extraction_variants,
                dt=args.dt, engine=engine,
                run_id=args.run_id, grace=args.grace)
        else:
            run = resume_run(args.run_id, engine=engine,
                             grace=args.grace)
    except RunInterrupted as exc:
        print(f"run {exc.run_id} interrupted; resume with:\n"
              f"  python -m repro.flows --resume {exc.run_id}",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    _report(run, args.json, args.quiet, engine=engine)
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover - exercised by __main__
    sys.exit(main())
