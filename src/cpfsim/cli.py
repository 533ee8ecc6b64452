"""Command-line front end.

Subcommands: simulate, fidelity, lock, transcript, validate.
Exit codes: 0 success, 1 netlist diagnostics, 2 runtime error.
The CPFSIM_OUT environment variable sets the default output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import CpfSimError
from .gate_d4 import build_hd_beamsplitter, transcript_check
from .modes import ModeSpace
from .netlist import Netlist, _set
from .runner import NetlistError, RunResult, emit, execute, load_netlist


def _add_common(sp):
    sp.add_argument("--netlist", help="netlist file")
    sp.add_argument("--shots", type=int, help="override shot count")
    sp.add_argument("--seed", type=int, help="override random seed")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--format", choices=("csv", "json", "both"), default="json")
    sp.add_argument("--analytic", action="store_true",
                    help="force analytic mode (exact distributions)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cpfsim",
        description="Heralded high-dimensional controlled phase-flip gate simulator",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run a gate or circuit netlist"),
        ("fidelity", "run the two-basis fidelity experiment"),
        ("lock", "run the phase-locking loop simulation"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    sub.add_parser("transcript", help="check the splitter chains against the golden transcripts")
    val = sub.add_parser("validate", help="parse a netlist and report diagnostics")
    val.add_argument("--netlist", required=True)
    return ap


def _resolve_netlist(args, default_task: str) -> tuple[Netlist | None, int]:
    if args.netlist:
        result = load_netlist(args.netlist)
        for d in result.diagnostics:
            print(f"{args.netlist}:{d}", file=sys.stderr)
        if not result.ok:
            return None, 1
        nl = result.netlist
    else:
        nl = Netlist(task=default_task)
        if default_task == "cpf_d4":
            print("simulate requires --netlist", file=sys.stderr)
            return None, 1
    overrides = []
    if args.seed is not None:
        overrides.append(("seed", args.seed))
    if args.shots is not None:
        overrides += [("shots", args.shots), ("mode", "shots" if args.shots > 0 else "analytic")]
    if args.analytic:
        overrides += [("mode", "analytic"), ("shots", 0)]
    for key, value in overrides:
        problem = _set(nl, "run", None, key, value)
        if problem:
            print(f"command line: error: {problem}", file=sys.stderr)
            return None, 1
    return nl, 0


def _emit(result: RunResult, args) -> int:
    out_dir = args.out or os.environ.get("CPFSIM_OUT", ".")
    try:
        written = emit(result, args.format, out_dir, result.task)
    except OSError as e:
        print(f"runtime error: cannot write {e.filename or out_dir}: {e.strerror}", file=sys.stderr)
        return 2
    print(*written, sep="\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            result = load_netlist(args.netlist)
            for d in result.diagnostics:
                print(f"{args.netlist}:{d}")
            if result.ok:
                print("ok")
                return 0
            return 1
        if args.command == "transcript":
            space = ModeSpace(("A", "B", "P1", "P2", "C", "D", "X"), 4)
            report = transcript_check(build_hd_beamsplitter(space))
            for line in report.lines():
                print(line)
            return 0 if report.ok else 2
        default_task = {"simulate": "cpf_d4", "fidelity": "fidelity",
                        "lock": "lock"}[args.command]
        nl, code = _resolve_netlist(args, default_task)
        if nl is None:
            return code
        if args.command != "simulate":
            nl.task = default_task
        return _emit(execute(nl), args)
    except NetlistError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CpfSimError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
