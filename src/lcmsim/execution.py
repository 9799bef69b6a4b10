"""The synchronous round recurrence, finite executions, and trace files.

One round: every activated robot observes the position through its private
frame (a similarity placing itself at the origin), runs the robogram on that
local view, and the destination is carried back to the global frame by the
inverse similarity; inactive robots stay put.  Moves are instantaneous and the
round function takes no history, so obliviousness is structural.

Traces persist as JSONL: a header line (robogram, demon, pile size, initial
position) followed by one line per round with the frame-factor map and the
post-round position.  Scalars are "num/den" strings and robot ids "L<i>" /
"R<i>".  Positions and actions are both occupancy tables, written and read
back by one pair of functions.  The reader accepts only the canonical ids
(no sign, space or leading zero) and also reads `simulate --init` maps.
Only post-positions are stored; pre-positions are recovered by chaining,
and `replay` re-derives every round to certify a file.

Trace IO works once per distinct scalar of a row, not once per robot.  The
writer builds each line's text itself, byte for byte in `json.dumps`'
layout, and takes a point's text from the row before when that row had the
same point; the reader takes a text's point from the row before when that
row had the same text.  Both keep one row, so memory does not grow with the
horizon.
"""

from __future__ import annotations

import json
import reprlib
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import IO, Callable, Iterable, Iterator, TypeVar

from .core import (
    Position,
    RobotUniverse,
    Similarity,
    _set,
    _Value,
    format_scalar,
    parse_scalar,
    spectrum,
    tabulate_keys,
)
from .demons import Demon, DemonicAction
from .robograms import SPECTRUM_BASED, Robogram, evaluate

__all__ = [
    "ExecutionError",
    "ReplayMismatchError",
    "Trace",
    "TraceFormatError",
    "TraceRound",
    "execute_prefix",
    "read_trace",
    "read_trace_file",
    "replay",
    "round_step",
    "write_trace",
    "write_trace_file",
]

_T = TypeVar("_T", Position, DemonicAction)


class ExecutionError(RuntimeError):
    """A robogram or demon failed while producing a round."""

    def __init__(self, round_index: int, cause: BaseException):
        super().__init__(f"round {round_index}: {cause}")
        self.round_index = round_index


class TraceFormatError(ValueError):
    """The trace file does not parse as the JSONL trace format."""


class ReplayMismatchError(RuntimeError):
    """Re-deriving a round did not reproduce the stored position."""

    def __init__(self, round_index: int):
        super().__init__(f"replay mismatch at round {round_index}")
        self.round_index = round_index


class TraceRound(_Value):
    __slots__ = ("index", "action", "post")

    def __init__(self, index: int, action: DemonicAction, post: Position) -> None:
        _set(self, "index", index)
        _set(self, "action", action)
        _set(self, "post", post)


class Trace(_Value):
    """A materialized execution prefix; the unit of persistence and checking."""

    __slots__ = ("robogram_name", "demon_name", "p0", "rounds")

    def __init__(
        self, robogram_name: str, demon_name: str, p0: Position, rounds: tuple[TraceRound, ...]
    ) -> None:
        self._fill(robogram_name, demon_name, p0, rounds)

    @property
    def universe(self) -> RobotUniverse:
        return self.p0.universe

    @property
    def horizon(self) -> int:
        return len(self.rounds)

    def positions(self) -> tuple[Position, ...]:
        """p0 followed by every post-round position (indices 0..horizon)."""
        return (self.p0,) + tuple(r.post for r in self.rounds)

    def actions(self) -> tuple[DemonicAction, ...]:
        return tuple(r.action for r in self.rounds)


def round_step(robogram: Robogram, action: DemonicAction, position: Position) -> Position:
    """One synchronous step of the recurrence.

    Robots sharing a frame factor and a point see the same local view, so
    their destination is computed once per distinct (factor slot, point
    slot) pair (sound because robograms are deterministic), and equal
    destinations share one point of the new table.  Which robots share a
    pair is a fact of the two slot patterns, kept with the position's
    pattern, and distinct destinations keep that joint pattern as the new
    slots (`_Slots.tabulate_with`): while the piles stay stacked a round
    does no work per robot.  A spectrum robogram's view is the round's
    spectrum, built once from the pattern's counts, seen through each frame
    as a read-only Spectrum that builds its locations only when the
    robogram reads them; its centroid is the frame's image of the round's,
    which is computed once.  A raw robogram sees the whole position.  The new position is
    built like the old one.
    """
    if action.universe != position.universe:
        raise ValueError("action and position belong to different universes")
    world = spectrum(position) if robogram.kind == SPECTRUM_BASED else position
    points, factors = position.points, action.points

    def destination(pair: tuple[int, int]) -> Fraction:
        f, point = factors[pair[0]], points[pair[1]]
        if not f:  # not activated: stays put
            return point
        local = evaluate(robogram, Similarity(f, point).map_position(world))
        return _moved(point, local, f)

    return Position._table(position.universe, *position.slots.tabulate_with(action.slots, destination))


def _moved(point: Fraction, local: Fraction, f: Fraction) -> Fraction:
    """The inverse frame, `point + local/f`, built from integers and
    normalized once, as `core._image` builds a frame's image: the sum is
    taken over lcm(pd, ld*fn) for point = pn/pd, local = ln/ld and
    f = fn/fd, instead of a quotient and a sum that each normalize."""
    pn, pd = point.as_integer_ratio()
    ln, ld = local.as_integer_ratio()
    fn, fd = f.as_integer_ratio()
    den = ld * fn  # local/f = ln*fd / den; the sign of fn is normalized once, below
    g = gcd(pd, den)
    s = pd // g
    return Fraction(pn * (den // g) + ln * fd * s, s * den)


def _rounds(
    robogram: Robogram,
    next_action: Callable[[int, Position], DemonicAction],
    p0: Position,
    horizon: int,
) -> Iterator[TraceRound]:
    """The round loop shared by `execute_prefix` and `replay`: from `p0`,
    `horizon` rounds, each under `next_action(round index, pre-position)`.
    A failing demon or robogram surfaces as ExecutionError carrying the
    round index."""
    current = p0
    for i in range(horizon):
        try:
            action = next_action(i, current)
            current = round_step(robogram, action, current)
        except Exception as exc:
            raise ExecutionError(i, exc) from exc
        yield TraceRound(i, action, current)


def execute_prefix(robogram: Robogram, demon: Demon, p0: Position, horizon: int) -> Trace:
    """Run `demon` against `robogram` from `p0` for exactly `horizon` rounds.

    The demon is owned by this run (it may be stateful).  Errors raised by the
    robogram or the demon surface as ExecutionError carrying the round index.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    p0.universe.require_inhabited()
    return Trace(robogram.name, demon.name, p0, tuple(_rounds(robogram, demon.action, p0, horizon)))


class _TableWriter:
    """A universe's tables as JSON object text in `json.dumps`' layout,
    `{"L0": "1/2", "L1": "0/1"}`, each distinct point formatted and quoted
    once per row.  A point with the same (numerator, denominator) as one of
    the row before takes that row's text, so a scalar that stays put from
    round to round is formatted once.  Scalar texts need no JSON escaping."""

    def __init__(self, universe: RobotUniverse):
        # The text before each robot's value, in robot order.
        self.prefixes = [
            f'{", " if i else ""}"{name}": ' for i, name in enumerate(universe.places_by_name)
        ]
        self.last: dict[tuple[int, int], str] = {}
        self.row: dict[tuple[int, int], str] = {}

    def text(self, table: Position | DemonicAction) -> str:
        texts = []
        for x in table.points:
            ratio = x.as_integer_ratio()
            text = self.row.get(ratio) or self.last.get(ratio) or f'"{format_scalar(x)}"'
            self.row[ratio] = text
            texts.append(text)
        values = map(texts.__getitem__, table.slots)
        return "{" + "".join(chain.from_iterable(zip(self.prefixes, values))) + "}"

    def next_row(self) -> None:
        self.last, self.row = self.row, {}


def write_trace(trace: Trace, fp: IO[str]) -> None:
    """The header and one line per round, each the bytes `json.dumps` writes
    for it, with the tables' text built by a `_TableWriter`."""
    tables = _TableWriter(trace.universe)
    fp.write(
        f'{{"robogram": {json.dumps(trace.robogram_name)}, "demon": {json.dumps(trace.demon_name)},'
        f' "n": {trace.universe.pile_size}, "p0": {tables.text(trace.p0)}}}\n'
    )
    for rd in trace.rounds:
        tables.next_row()
        frames = tables.text(rd.action)
        fp.write(f'{{"round": {rd.index}, "frames": {frames}, "post": {tables.text(rd.post)}}}\n')


def write_trace_file(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        write_trace(trace, fp)


class _TextMemo:
    """The scalar texts of the trace row being read, each with its point.
    A text that this row or the row before already had takes its point
    from there instead of being parsed again; `next_row` forgets all but
    the row just read, so memory stays at one row."""

    def __init__(self) -> None:
        self.last: dict[str, Fraction] = {}
        self.row: dict[str, Fraction] = {}

    def point(self, text: str) -> Fraction:
        point = self.row.get(text)
        if point is None:
            point = self.last.get(text)
        if point is None:
            point = parse_scalar(text)
        self.row[text] = point
        return point

    def next_row(self) -> None:
        self.last, self.row = self.row, {}


def _parse_row(
    cls: type[_T],
    universe: RobotUniverse,
    raw: object,
    what: str,
    like: tuple[int, ...] = (),
    point_of: Callable[[str], Fraction] = parse_scalar,
) -> _T:
    """One id -> "num/den" map, a trace row or a `simulate --init` map, as a
    `cls` table (a Position or a DemonicAction), built like the slot tuple
    `like` (`tabulate_keys`).  The keys must be exactly the universe's
    canonical names ("L0", not "L00" or " L0 ").  Texts equal in value
    ("1/2", "2/4") share a point, and `point_of` (`parse_scalar`, or a
    `_TextMemo`'s) runs once per distinct text, in order of its first
    robot.  Raises TraceFormatError on any defect: the size is checked
    first, then every id, then the texts."""
    if not isinstance(raw, dict):
        raise TraceFormatError(f"{what} must be an object of id -> scalar")
    # Checked first: a short map under a header with a huge n must not make
    # the universe build its ids.
    if len(raw) != universe.m:
        raise TraceFormatError(f"{what} does not cover the universe exactly")
    names = universe.places_by_name
    # The reader refuses a repeated key (`_loads`), so m known names cover
    # the universe.
    if raw.keys() != names.keys():
        key = next(k for k in raw if k not in names)
        raise TraceFormatError(
            f"{what} has unknown robot id {key!r}: expected L<i> or R<i>"
            f" with 0 <= i < {universe.pile_size}, no sign, space or leading zero"
        )
    try:
        table = tabulate_keys(map(raw.__getitem__, names), point_of, like)
    except (ValueError, TypeError) as exc:
        raise TraceFormatError(f"bad {what}: {_refused_value(raw, names, exc)}") from exc
    return cls._table(universe, *table)


def _refused_value(raw: dict, names: Iterable[str], exc: Exception) -> str:
    """Why a map's values were refused (`exc`), naming the first robot, in
    robot order, whose value fails.  Only a refused map is searched, each
    distinct text parsed once more; `reprlib` bounds how much of a list or
    object is shown."""
    checked = set()
    for name in names:
        value = raw[name]
        if not isinstance(value, str):
            container = isinstance(value, (list, dict))
            shown = reprlib.repr(value) if container else json.dumps(value)
            return f"{name} has {shown}: expected a 'num/den' string"
        if value not in checked:
            checked.add(value)
            try:
                parse_scalar(value)
            except ValueError as bad:
                return f"{name} has {bad}"
    return str(exc)


def _unique_members(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, refusing a repeated name, whose
    last value `json.loads` would silently keep."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise TraceFormatError(f"repeated key {key!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_members)


def _loads(text: str) -> object:
    """The one reader of JSON text, trace lines and `simulate --init` maps:
    `json.loads`, refusing a repeated key in any object.  One decoder is
    built once: given a hook, `json.loads` builds a decoder and a scanner
    per call, that is per trace line."""
    if text.startswith("\ufeff"):  # refused as json.loads refuses it
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)


def _json_object(text: str, where: str, fields: tuple[str, ...]) -> dict:
    """One trace line as a JSON object that has every one of `fields`;
    `where` ("header" or "line N") begins each error message."""
    try:
        obj = _loads(text)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{where}: {exc}") from exc
    # ValueError: bad JSON or too many digits; RecursionError: nested too deep.
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(f"{where} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{where} must be a JSON object")
    for field_name in fields:
        if field_name not in obj:
            raise TraceFormatError(f"{where} is missing {field_name!r}")
    return obj


def read_trace(lines: Iterable[str]) -> Trace:
    """Parse the JSONL trace format; raises TraceFormatError on any defect."""
    it = iter(lines)
    try:
        first = next(it)
    except StopIteration:
        raise TraceFormatError("empty trace file") from None
    header = _json_object(first, "header", ("robogram", "demon", "n", "p0"))
    # `type(...) is int`, not isinstance: JSON true/false load as bool, an int.
    if type(header["n"]) is not int or header["n"] < 1:
        raise TraceFormatError("header n must be an integer >= 1")
    universe = RobotUniverse(header["n"])
    texts = _TextMemo()
    try:
        p0 = _parse_row(Position, universe, header["p0"], "p0", (), texts.point)
    except TraceFormatError as exc:
        raise TraceFormatError(f"line 1: {exc}") from exc

    # Each row is parsed like the post-position before it (p0 for the first),
    # and takes the points of the texts that the row before had.
    rounds, like = [], p0.slots
    for lineno, line in enumerate(it, start=2):
        if not line or line.isspace():  # blank, without copying the line
            continue
        row = _json_object(line, f"line {lineno}", ("round", "frames", "post"))
        if type(row["round"]) is not int:
            raise TraceFormatError(f"line {lineno}: round must be an integer")
        if row["round"] != len(rounds):
            raise TraceFormatError(f"line {lineno}: round index {row['round']} out of order")
        texts.next_row()
        try:
            action = _parse_row(DemonicAction, universe, row["frames"], "frames", like, texts.point)
            post = _parse_row(Position, universe, row["post"], "post", like, texts.point)
        except TraceFormatError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        rounds.append(TraceRound(len(rounds), action, post))
        like = post.slots

    return Trace(str(header["robogram"]), str(header["demon"]), p0, tuple(rounds))


def read_trace_file(path: str) -> Trace:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return read_trace(fp)
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace is not UTF-8: {exc}") from exc


def replay(trace: Trace, robogram: Robogram) -> None:
    """Re-derive every round from p0 and the stored frames; raises
    ReplayMismatchError at the first stored position that does not match,
    and ExecutionError, as `execute_prefix` does, if the robogram fails."""
    stored = trace.rounds
    for rd in _rounds(robogram, lambda i, _: stored[i].action, trace.p0, len(stored)):
        if rd.post != stored[rd.index].post:
            raise ReplayMismatchError(rd.index)
