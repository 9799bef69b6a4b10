"""Command-line front door: simulate, adversary, check, invariance.

Machine-readable output (traces, reports, verdicts) goes to stdout or the
requested file; diagnostics go to stderr.  Exit codes: 0 success / property
holds, 1 property fails, 2 usage error or malformed input, 3 runtime error
(bad robogram arithmetic, corrupt trace, stdout closed early or not
writable, out of memory).  Rationals cross the CLI as "num/den" strings
only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from typing import IO, Callable

from .adversary import DegenerateInitial, build_adversary_demon, run_impossibility
from .core import Position, RobotUniverse, Side, format_scalar, parse_scalar
from .demons import Demon, Verdict, check_kfair, make_fsync, make_random_kfair, make_round_robin
from .execution import (
    ExecutionError,
    ReplayMismatchError,
    Trace,
    TraceFormatError,
    _DeferredPosts,
    _loads,
    _parse_row,
    execute_prefix,
    read_trace_file,
    replay,
    write_trace,
    write_trace_file,
)
from .properties import check_always_split, check_will_gather
from .robograms import (
    NonRepresentableDestination,
    Robogram,
    check_invariance,
    resolve_robogram,
)
from .sampling import random_permutation, random_position

__all__ = ["main", "main_entry"]


class UsageError(Exception):
    pass


def _selector_int(text: str, field: str) -> int:
    """A selector's integer field, in canonical decimal text only (as `str`
    writes it), so the name reported is the one typed."""
    try:
        if text == str(int(text)):
            return int(text)
    except ValueError:
        pass
    raise UsageError(f"bad {field} {text!r}: expected a decimal integer like 3 or -3")


def _resolve_robogram(selector: str) -> Robogram:
    try:
        return resolve_robogram(selector)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_demon(selector: str, universe: RobotUniverse, robogram: Robogram, p0: Position) -> Demon:
    sel = selector.strip()
    if sel == "fsync":
        return make_fsync(universe)
    if sel.startswith("round-robin:"):
        try:
            factor = parse_scalar(sel.removeprefix("round-robin:"))
        except ValueError as exc:
            raise UsageError(f"bad round-robin selector: {exc}") from exc
        if factor == 0:
            raise UsageError("round-robin factor must be nonzero")
        return make_round_robin(universe, factor)
    if sel.startswith("random-kfair:"):
        parts = sel.split(":")
        if len(parts) != 3:
            raise UsageError("random-kfair selector must be random-kfair:<k>:<seed>")
        k = _selector_int(parts[1], "random-kfair budget k")
        seed = _selector_int(parts[2], "random-kfair seed")
        if k < 0:
            raise UsageError("random-kfair budget k must be >= 0")
        return make_random_kfair(universe, k, 1, seed)
    if sel == "adversary":
        a = p0.pile_location(Side.LEFT)
        b = p0.pile_location(Side.RIGHT)
        if a is None or b is None:
            raise UsageError("the adversary demon needs an initial position with each pile stacked")
        try:
            return build_adversary_demon(robogram, universe, a, b)
        except DegenerateInitial as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(
        f"unknown demon selector {selector!r}; expected fsync, round-robin:<num/den>,"
        " random-kfair:<k>:<seed> or adversary"
    )


def _parse_init(text: str, universe: RobotUniverse) -> Position:
    try:
        if text.startswith("bivalent:"):
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("bivalent init must be bivalent:<num/den>:<num/den>")
            return Position.from_piles(universe, parse_scalar(parts[1]), parse_scalar(parts[2]))
        raw = _loads(text)
        if isinstance(raw, dict):
            return _parse_row(Position, universe, raw, "--init")
    # ValueError: bad JSON, too many digits or a malformed map (TraceFormatError
    # from the trace's own row reader); RecursionError: nested too deep.
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"bad initial position: {exc}") from exc
    raise UsageError("initial position must be bivalent:<a>:<b> or a JSON object id -> scalar")


def _check_run_size(n: int, horizon: int) -> None:
    if n < 1:
        raise UsageError("n must be an integer >= 1")
    if 2 * n > sys.maxsize:  # the 2n robots must fit in one tuple's index range
        raise UsageError(f"n must be at most {sys.maxsize // 2}, so that 2n robots can be indexed")
    if horizon < 0:
        raise UsageError("horizon must be an integer >= 0")


def _write_trace_file(trace: Trace, path: str) -> None:
    try:
        write_trace_file(trace, path)
    except OSError as exc:
        raise UsageError(f"cannot write trace: {exc}") from exc


def _check_writable(path: str) -> None:
    """Refuse an unwritable trace path before the run rather than after it.
    Opening for append truncates nothing, and a file the probe created is
    removed again, so a run that fails later leaves no empty trace behind."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)
    except OSError as exc:
        raise UsageError(f"cannot write trace: {exc}") from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_run_size(args.n, args.horizon)
    if args.out:
        _check_writable(args.out)
    universe = RobotUniverse(args.n)
    robogram = _resolve_robogram(args.robogram)
    p0 = _parse_init(args.init, universe)
    demon = _resolve_demon(args.demon, universe, robogram, p0)
    trace = execute_prefix(robogram, demon, p0, args.horizon)
    if args.out:
        _write_trace_file(trace, args.out)
    else:
        write_trace(trace, sys.stdout)
    return 0


def cmd_adversary(args: argparse.Namespace) -> int:
    _check_run_size(args.n, args.horizon)
    robogram = _resolve_robogram(args.robogram)
    if args.out:
        _check_writable(args.out)
    report = run_impossibility(robogram, args.n, args.horizon)
    if args.out:
        _write_trace_file(report.trace, args.out)
    print(json.dumps(report.to_json_dict()))
    return 0 if report.certified else 1


def _parse_property(text: str) -> tuple[str, Callable[[Trace], Verdict]]:
    """The property's reported name and its checker over a replayed trace."""
    if text == "will-gather":
        return text, check_will_gather
    if text == "always-split":
        return text, check_always_split
    if text.startswith("kfair:"):
        k = _selector_int(text.removeprefix("kfair:"), "kfair budget")
        if k < 0:
            raise UsageError("kfair budget must be >= 0")

        return f"kfair:{k}", lambda trace: check_kfair(trace.actions(), k)
    raise UsageError(
        f"unknown property {text!r}; expected kfair:<k>, will-gather or always-split"
    )


def cmd_check(args: argparse.Namespace) -> int:
    """Read, replay, judge.  The reader leaves each post's lowest-terms
    proof to replay, which compares it with the recomputed post.  Any
    other refusal waits until `posts` has proven the posts that replay did
    not compare, so a post out of lowest terms is refused first, as the
    malformed trace it is."""
    name, judge = _parse_property(args.property)
    posts = _DeferredPosts()
    try:
        trace = read_trace_file(args.trace, deferred=posts)
        try:
            robogram = resolve_robogram(trace.robogram_name)
        except ValueError as exc:
            posts.prove()
            print(f"cannot replay trace: {exc}", file=sys.stderr)
            return 2
        try:
            replay(trace, robogram)
        except ReplayMismatchError as exc:
            posts.prove(exc.round_index)
            print(f"corrupt trace: {exc}", file=sys.stderr)
            return 3
        except ExecutionError as exc:
            posts.prove(exc.round_index)
            raise
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 2

    verdict = judge(trace)
    report = {"property": name, **verdict.to_json_dict()}
    report.setdefault("horizon", trace.horizon)
    print(json.dumps(report))
    return 0 if verdict.ok else 1


def cmd_invariance(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise UsageError("samples must be >= 1")
    robogram = _resolve_robogram(args.robogram)
    rng = random.Random(args.seed)
    for i in range(args.samples):
        universe = RobotUniverse(rng.randint(1, 4))
        position = random_position(universe, rng)
        sigma = random_permutation(universe, rng)
        if not check_invariance(robogram, position, sigma):
            counterexample = {
                "robogram": robogram.name,
                "samples": args.samples,
                "failed_at": i,
                "counterexample": {
                    "n": universe.pile_size,
                    "position": {str(r): format_scalar(x) for r, x in position.items()},
                    "permutation": {
                        str(r): str(universe.robots[place])
                        for r, place in zip(universe.robots, sigma)
                    },
                },
            }
            print(json.dumps(counterexample))
            return 1
    print(json.dumps({"robogram": robogram.name, "samples": args.samples, "ok": True}))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help text reaches stdout or raises: argparse
    writes it through `_print_message`, which swallows an OSError, so help
    on a full or closed stdout would exit 0 with nothing written.  Here the
    text is written and flushed, and an OSError reaches `main`.  Subparsers
    are built from the same class."""

    def print_help(self, file: IO[str] | None = None) -> None:
        out = sys.stdout if file is None else file
        out.write(self.format_help())
        out.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lcmsim",
        description="Exact Look-Compute-Move simulator with adversarial schedulers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a robogram against a demon, write a trace")
    sim.add_argument("--robogram", required=True)
    sim.add_argument("--demon", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--init", default="bivalent:0/1:1/1",
                     help="bivalent:<num/den>:<num/den> or JSON id->scalar map")
    sim.add_argument("--horizon", type=int, required=True)
    sim.add_argument("--out", help="trace output path (default: stdout)")
    sim.set_defaults(func=cmd_simulate)

    adv = sub.add_parser("adversary", help="run the gathering-defeating demon and certify")
    adv.add_argument("--robogram", required=True)
    adv.add_argument("--n", type=int, required=True)
    adv.add_argument("--horizon", type=int, required=True)
    adv.add_argument("--out", help="trace output path (report goes to stdout)")
    adv.set_defaults(func=cmd_adversary)

    chk = sub.add_parser("check", help="replay a trace file and check a property")
    chk.add_argument("trace")
    chk.add_argument("--property", required=True, help="kfair:<k> | will-gather | always-split")
    chk.set_defaults(func=cmd_check)

    inv = sub.add_parser("invariance", help="randomized permutation-invariance check")
    inv.add_argument("--robogram", required=True)
    inv.add_argument("--samples", type=int, default=1000)
    inv.add_argument("--seed", type=int, default=0)
    inv.set_defaults(func=cmd_invariance)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads argv with, built once per process.  argparse
    ties a parser's objects into reference cycles, so one built per call
    would outlive the call as garbage until the next cyclic collection:
    about 200 objects, some on the C heap, where they move the peak
    resident set of a process that calls `main` again and again.  Parsing
    leaves the parser unchanged, so it can be reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)  # help is written and flushed here
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except SystemExit as exc:  # argparse's exit: help, or a usage error
        return exc.code if isinstance(exc.code, int) else 2
    except OSError as exc:
        # The commands turn their own files' OSErrors into messages, so this
        # one is stdout's: its reader went away (`| head`) or its device is
        # full.  Shutdown then flushes into devnull, quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("error: stdout was closed before the output was written", file=sys.stderr)
        else:
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExecutionError, NonRepresentableDestination) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("runtime error: out of memory", file=sys.stderr)
        return 3


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
