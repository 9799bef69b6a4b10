"""The synchronous round recurrence, finite executions, and trace files.

One round: every activated robot observes the position through its private
frame (a similarity placing itself at the origin), runs the robogram on that
local view, and the destination is carried back to the global frame by the
inverse similarity; inactive robots stay put.  Moves are instantaneous and the
round function takes no history, so obliviousness is structural.

Traces persist as JSONL: a header line (format version, lcmsim version,
robogram, demon, pile size, initial position) followed by one line per round
with the frame factors and the post-round position.  Only post-positions are
stored; pre-positions are recovered by chaining, and `replay` re-derives
every round to certify a file.

`write_trace` writes format 2: each table as it is held in memory, its
distinct points as lowercase hex "num/den" texts plus its slot pattern, and
only the points when the slots are the pre-position's.  So a round on
stacked piles is O(points) in IO too, and hex converts in linear time; a
point that the row before held as the same object keeps that row's text.
Every value has exactly one accepted text, and the reader accepts only what
the writer writes.  `read_trace` also reads the unversioned format 1, one
id -> decimal "num/den" map per table, with its lenient scalar rules; its
map reader also reads `simulate --init` maps.  The reader keeps the texts
of one row with their points, so a text that the row before had is not
parsed again, and one slot tuple per distinct slot pattern of the trace.
For `check`, which replays what it reads, the reader can leave each post's
lowest-terms proof to `replay` (`_DeferredPosts`).
"""

from __future__ import annotations

import json
import numbers
import reprlib
from fractions import Fraction
from functools import partial
from math import gcd
from typing import IO, Callable, Iterable, Iterator, TypeVar

from . import __version__
from .core import (
    Position,
    RobotUniverse,
    Similarity,
    _set,
    _Slots,
    _Value,
    _grouped,
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
        """p0 followed by every post-round position (indices 0..horizon).
        Read with a list comprehension, as the actions are: a generator
        would resume once per round."""
        return (self.p0, *[r.post for r in self.rounds])

    def actions(self) -> tuple[DemonicAction, ...]:
        return tuple([r.action for r in self.rounds])


def round_step(robogram: Robogram, action: DemonicAction, position: Position) -> Position:
    """One synchronous step of the recurrence.

    Robots sharing a frame factor and a point see the same local view, so
    their destination is computed once per distinct (factor slot, point
    slot) pair (sound because robograms are deterministic), and equal
    destinations share one point of the new table.  Which robots share a
    pair is a fact of the two slot patterns, kept with the position's
    pattern (`_Slots.joint`), and distinct destinations keep that joint
    pattern as the new slots (`_grouped`): while the piles stay stacked a
    round does no work per robot.  A spectrum robogram's view is the
    round's spectrum, built once from the pattern's counts, seen through
    each frame as a read-only Spectrum that builds its locations only when
    the robogram reads them; its centroid is the frame's image of the
    round's, which is computed once.  A raw robogram sees the whole
    position.  Each frame is built from the action's factor and the
    position's point, which their tables hold checked, so they are not
    checked again (`Similarity._of`).  A factor's integers are read once
    per pair: they tell an idle robot (numerator 0) and carry the move.
    The new position is built like the old one.
    """
    universe = position.universe
    if action.universe is not universe and action.universe != universe:
        raise ValueError("action and position belong to different universes")
    world = spectrum(position) if robogram.kind == SPECTRUM_BASED else position
    points, factors = position.points, action.points
    pairs, joint = position.slots.joint(action.slots)
    destinations = []
    for factor_slot, point_slot in pairs:
        f, point = factors[factor_slot], points[point_slot]
        fn, fd = f.as_integer_ratio()
        if fn:  # activated; an idle robot stays put
            local = evaluate(robogram, Similarity._of(f, point).map_position(world))
            point = _moved(point, local, fn, fd)
        destinations.append(point)
    return Position._table(universe, *_grouped(joint, destinations, position.slots))


def _moved(point: Fraction, local: Fraction, fn: int, fd: int) -> Fraction:
    """The inverse frame, `point + local/f` for the factor f = fn/fd, built
    from integers and normalized once, as `core._image` builds a frame's
    image: the sum is taken over lcm(pd, ld*fn) for point = pn/pd and
    local = ln/ld, instead of a quotient and a sum that each normalize."""
    pn, pd = point.as_integer_ratio()
    ln, ld = local.as_integer_ratio()
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
    return Trace(robogram.name, demon.name, p0, tuple(_rounds(robogram, demon.action, p0, horizon)))


# The format `write_trace` writes.  An unversioned header is format 1.
_FORMAT = 2

# Longest hex numerator or denominator a format 2 scalar may have: the
# magnitude of MAX_SCALAR_DIGITS decimal digits, as 16**83048 < 10**100000
# < 16**83049.  Hex converts in linear time, so the bound is about memory,
# not about the interpreter's decimal int <-> str limit.
_MAX_HEX_DIGITS = 83_049


def _hex_text(x: Fraction) -> str:
    """A point's one format 2 text: lowercase hex "num/den" in lowest terms,
    denominator >= 1 (`31/36` is "1f/24")."""
    return f"{x.numerator:x}/{x.denominator:x}"


def _hex_digits(x: int) -> int:
    """The length of `format(x, "x")`: the hex digits of |x|, "0" for zero,
    and one more for the sign of a negative x."""
    return ((x.bit_length() + 3) >> 2 or 1) + (x < 0)


class _Ratio:
    """An integer pair that `Fraction(r)` takes as it is: the constructor
    copies a `numbers.Rational`'s numerator and denominator without
    normalizing them."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_Ratio)


def _hex_point(text: str, lowest: bool = True) -> Fraction:
    """The point whose format 2 text is `text`, which must be exactly
    `_hex_text` of it: lowest terms, no leading zero, `0x`, `+`, `_`,
    upper case or whitespace, and `-` only on a nonzero numerator, so no
    two texts denote one value.  Raises ValueError otherwise, naming the
    value's text.  Only a refused text is written back.

    Without `lowest`, the one conjunct left out is lowest terms: the
    point holds the parsed integers as they are, and whoever reads it so
    must prove them in lowest terms before trusting it."""
    num, _, den = text.partition("/")
    if max(len(num.removeprefix("-")), len(den)) > _MAX_HEX_DIGITS:
        raise ValueError(f"invalid scalar: more than {_MAX_HEX_DIGITS} hex digits")
    try:
        n, d = int(num, 16), int(den, 16)
        # `Fraction(n, d)` keeps d only if it is positive and in lowest
        # terms; a `_Ratio` keeps any d, so it takes only a positive one.
        point = Fraction(n, d) if lowest or d <= 0 else Fraction(_Ratio(n, d))
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"invalid scalar {reprlib.repr(text)}: expected lowercase hex 'num/den'"
        ) from None
    # Every other ASCII text that `int` reads as the same integer is longer
    # (a sign, a leading zero, `0x`, `_` or whitespace), except one in
    # upper case; a non-ASCII digit or space is refused outright.
    if not (
        point.denominator == d
        and text.isascii()
        and text == text.lower()
        and len(num) == _hex_digits(n)
        and len(den) == _hex_digits(d)
    ):
        raise ValueError(
            f"invalid scalar {reprlib.repr(text)}:"
            f" this value is written {reprlib.repr(_hex_text(Fraction(n, d)))}"
        )
    return point


def _table_text(
    table: Position | DemonicAction,
    like: tuple[int, ...] | None,
    last: dict[int, str],
    row: dict[int, str],
) -> str:
    """A format 2 table in `json.dumps`' layout: only its points, in slot
    order, when its slots are `like`, the pre-position's; otherwise
    `{"points": [...], "slots": [...]}`.  Hex texts need no JSON escaping.
    A point that the row before held as the same object takes its quoted
    text from `last`, that row's texts by point identity, and each point's
    text is added to `row`, this row's."""
    texts = []
    for x in table.points:
        key = id(x)
        text = last.get(key)
        if text is None:
            text = f'"{_hex_text(x)}"'
        row[key] = text
        texts.append(text)
    slots = table.slots
    if slots is like or slots == like:
        return f"[{', '.join(texts)}]"
    return f'{{"points": [{", ".join(texts)}], "slots": [{", ".join(map(str, slots))}]}}'


def write_trace(trace: Trace, fp: IO[str]) -> None:
    """Format 2: the header and one line per round, each the bytes
    `json.dumps` writes for it.  A row's tables are written like the
    pre-position: p0 for the first row, then the row before's post.  A
    point carried over from the row before as the same object (the pile
    that did not move, an idle robot's point, factor 0) keeps that row's
    text instead of being converted again.  Texts are found by `id`: the
    trace holds every point while it is written, so no id is reused."""
    row: dict[int, str] = {}
    fp.write(
        f'{{"format": {_FORMAT}, "lcmsim": {json.dumps(__version__)},'
        f' "robogram": {json.dumps(trace.robogram_name)}, "demon": {json.dumps(trace.demon_name)},'
        f' "n": {trace.universe.pile_size}, "p0": {_table_text(trace.p0, None, {}, row)}}}\n'
    )
    like = trace.p0.slots
    for rd in trace.rounds:
        last, row = row, {}
        frames = _table_text(rd.action, like, last, row)
        post = _table_text(rd.post, like, last, row)
        fp.write(f'{{"round": {rd.index}, "frames": {frames}, "post": {post}}}\n')
        like = rd.post.slots


def write_trace_file(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        write_trace(trace, fp)


class _TextMemo:
    """The scalar texts of the trace row being read, each with its point.
    A text that this row or the row before already had takes its point
    from there instead of being parsed again by `parse` (`parse_scalar`
    for format 1, `_hex_point` for format 2); `next_row` forgets all but
    the row just read, so memory stays at one row."""

    def __init__(self, parse: Callable[[str], Fraction]) -> None:
        self.parse = parse
        self.last: dict[str, Fraction] = {}
        self.row: dict[str, Fraction] = {}

    def point(self, text: str) -> Fraction:
        point = self.row.get(text)
        if point is None:
            point = self.last.get(text)
        if point is None:
            point = self.parse(text)
        self.row[text] = point
        return point

    def next_row(self) -> None:
        self.last, self.row = self.row, {}


class _DeferredPosts:
    """The rows of a format 2 trace whose post texts `read_trace` read
    without their lowest-terms proof (`_hex_point(text, lowest=False)`),
    for a caller that replays them: `replay` proves a post when it
    reproduces it, as it compares integer pairs with a normalized post.
    `prove` proves the rest before any other outcome is reported, so a
    file is refused as the proving reader refuses it.  Besides the rows,
    it holds only each row's line number."""

    def __init__(self) -> None:
        self.lines: list[int] = []  # each row's line; blank lines have none
        self.rounds: list[TraceRound] = []

    def prove(self, first: int = 0) -> None:
        """Prove the posts of the rounds from `first` on, in file order;
        raises the TraceFormatError that `read_trace` raises without this
        mode at the first post not in lowest terms.  Such a post passed
        every other check, so `_hex_text` gives back its text."""
        for lineno, rd in zip(self.lines[first:], self.rounds[first:]):
            for i, x in enumerate(rd.post.points):
                try:
                    _hex_point(_hex_text(x))
                except ValueError as exc:
                    raise TraceFormatError(f"line {lineno}: post: point {i}: {exc}") from None


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
            return f"{name} has {_shown(value)}: expected a 'num/den' string"
        if value not in checked:
            checked.add(value)
            try:
                parse_scalar(value)
            except ValueError as bad:
                return f"{name} has {bad}"
    return str(exc)


def _shown(value: object) -> str:
    """A JSON value that is not a string, for an error message; `reprlib`
    bounds how much of a list or object is shown."""
    return reprlib.repr(value) if isinstance(value, (list, dict)) else json.dumps(value)


def _read_table(
    cls: type[_T],
    universe: RobotUniverse,
    raw: object,
    what: str,
    like: tuple[int, ...],
    point_of: Callable[[str], Fraction],
) -> _T:
    """One format 2 table as a `cls` table (a Position or a DemonicAction):
    a list of points whose slots are `like`, the pre-position's slots (p0
    has none), or an object of points and slots whose slots are not `like`.
    The points must be distinct canonical hex texts, each read by
    `point_of` (a `_TextMemo`'s), and the slots non-bool ints, one per
    robot, numbered 0, 1, ... in order of first robot and using every
    point: the table as the writer held it, so it is kept as it is read.
    Raises TraceFormatError, naming `what`, on any defect."""
    if isinstance(raw, list) and like:
        points, slots = raw, like
    elif isinstance(raw, dict) and raw.keys() == {"points", "slots"}:
        points, slots = raw["points"], _read_slots(raw["slots"], universe.m, what)
        if slots == like:
            raise TraceFormatError(
                f"{what}: its slots are the pre-position's, so only its points are written"
            )
    else:
        form = "a list of points or " if like else ""
        raise TraceFormatError(f"{what}: expected {form}an object of exactly points and slots")
    if not isinstance(points, list):
        raise TraceFormatError(f"{what}: points must be a list")
    if len(points) != len(slots.counts):
        raise TraceFormatError(f"{what}: {len(points)} points for {len(slots.counts)} slots")
    values = []
    for i, text in enumerate(points):
        if type(text) is not str:
            raise TraceFormatError(
                f"{what}: point {i} is {_shown(text)}: expected a hex 'num/den' string"
            )
        try:
            values.append(point_of(text))
        except ValueError as exc:
            raise TraceFormatError(f"{what}: point {i}: {exc}") from exc
    if len(set(points)) != len(points):  # one text per value, so the points repeat
        raise TraceFormatError(f"{what}: points must be distinct")
    return cls._table(universe, tuple(values), slots)


def _read_deferred(
    cls: type[_T],
    universe: RobotUniverse,
    raw: object,
    what: str,
    like: tuple[int, ...],
    point_of: Callable[[str], Fraction],
) -> _T:
    """`_read_table` with a `point_of` that does not prove lowest terms.
    A refused table is read again with the proof, which refuses it at its
    first text out of lowest terms if one comes before the defect."""
    try:
        return _read_table(cls, universe, raw, what, like, point_of)
    except TraceFormatError:
        _read_table(cls, universe, raw, what, like, _hex_point)
        raise


def _read_slots(raw: object, m: int, what: str) -> _Slots:
    """A format 2 slot pattern: m non-bool ints whose distinct values, in
    order of first robot, are 0, 1, ... (so each is in range)."""
    if not isinstance(raw, list):
        raise TraceFormatError(f"{what}: slots must be a list")
    if len(raw) != m:
        raise TraceFormatError(f"{what}: {len(raw)} slots for {m} robots")
    if set(map(type, raw)) != {int}:  # bool is not int here
        bad = next(s for s in raw if type(s) is not int)
        raise TraceFormatError(f"{what}: slot {_shown(bad)} is not an integer")
    firsts = tuple(dict.fromkeys(raw))
    if firsts != tuple(range(len(firsts))):
        raise TraceFormatError(f"{what}: slots must be numbered 0, 1, ... in order of first robot")
    return _Slots(raw)


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


def _json_object(text: str, where: str) -> dict:
    """One trace line as a JSON object; `where` ("header" or "line N")
    begins each error message."""
    try:
        obj = _loads(text)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{where}: {exc}") from exc
    # ValueError: bad JSON or too many digits; RecursionError: nested too deep.
    except (ValueError, RecursionError) as exc:
        raise TraceFormatError(f"{where} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{where} must be a JSON object")
    return obj


def _members(obj: dict, fields: tuple[str, ...], where: str, exact: bool) -> None:
    """Refuse a line missing one of `fields`, or, when `exact` (format 2
    has no optional members), holding any other."""
    for field_name in fields:
        if field_name not in obj:
            raise TraceFormatError(f"{where} is missing {field_name!r}")
    if exact and len(obj) != len(fields):
        extra = next(k for k in obj if k not in fields)
        raise TraceFormatError(f"{where} has unexpected key {extra!r}")


_HEADER_V1 = ("robogram", "demon", "n", "p0")
_HEADER_V2 = ("format", "lcmsim") + _HEADER_V1
_ROW = ("round", "frames", "post")


def _shared(table: _T, like: tuple[int, ...], patterns: dict[tuple[int, ...], _Slots]) -> _T:
    """`table` on the trace's one slot pattern equal to its slots.  A table
    built like its pre-position on equal slots has that pattern already
    (`like`); any other slots are looked up in `patterns`, the trace's
    patterns so far, and kept there when new, so only a row that wrote
    its slots pays a hash of them."""
    if table.slots is like:
        return table
    slots = patterns.setdefault(table.slots, table.slots)
    if slots is table.slots:
        return table
    return type(table)._table(table.universe, table.points, slots)


def read_trace(lines: Iterable[str], *, deferred: _DeferredPosts | None = None) -> Trace:
    """Parse a JSONL trace, format 2 or, when the header has no "format",
    format 1; raises TraceFormatError on any defect.  Every text is proven
    canonical, lowest terms included, unless `deferred` is given: then a
    format 2 post text is read without that one proof, and `deferred`
    holds what its reader needs to give it (`_DeferredPosts`)."""
    it = iter(lines)
    try:
        first = next(it)
    except StopIteration:
        raise TraceFormatError("empty trace file") from None
    header = _json_object(first, "header")
    v2 = "format" in header
    _members(header, _HEADER_V2 if v2 else _HEADER_V1, "header", v2)
    # `type(...) is int`, not isinstance: JSON true/false load as bool, an int.
    if v2:
        if type(header["format"]) is not int or header["format"] != _FORMAT:
            raise TraceFormatError(
                f"header format {_shown(header['format'])} is not supported: this reader"
                f" reads format {_FORMAT}, and format 1, which has no format key"
            )
        if not all(type(header[key]) is str for key in ("lcmsim", "robogram", "demon")):
            raise TraceFormatError("header lcmsim, robogram and demon must be strings")
    if type(header["n"]) is not int or header["n"] < 1:
        raise TraceFormatError("header n must be an integer >= 1")
    universe = RobotUniverse(header["n"])
    read_table = _read_table if v2 else _parse_row
    texts = _TextMemo(_hex_point if v2 else parse_scalar)
    patterns: dict[tuple[int, ...], _Slots] = {}
    try:
        p0 = read_table(Position, universe, header["p0"], "p0", (), texts.point)
    except TraceFormatError as exc:
        raise TraceFormatError(f"line 1: {exc}") from exc
    p0 = _shared(p0, (), patterns)

    # Deferred posts have memos of their own: a frame is never recomputed,
    # so it never takes a point whose lowest terms are not proven.  Format 1
    # texts are normalized as they are parsed.
    rounds: list[TraceRound] = []
    read_post, posts = read_table, texts
    if not v2:
        deferred = None
    if deferred is not None:
        read_post, posts = _read_deferred, _TextMemo(partial(_hex_point, lowest=False))
        deferred.rounds = rounds

    # Each row is read like the pre-position (p0 for the first row, then the
    # post-position before it), takes the points of the texts that the row
    # before had, and shares each slot pattern with the trace's equal one.
    like = p0.slots
    try:
        for lineno, line in enumerate(it, start=2):
            if not line or line.isspace():  # blank, without copying the line
                continue
            where = f"line {lineno}"
            row = _json_object(line, where)
            _members(row, _ROW, where, v2)
            if type(row["round"]) is not int:
                raise TraceFormatError(f"{where}: round must be an integer")
            if row["round"] != len(rounds):
                raise TraceFormatError(f"{where}: round index {row['round']} out of order")
            texts.next_row()
            if deferred is not None:
                posts.next_row()
                deferred.lines.append(lineno)
            try:
                action = read_table(DemonicAction, universe, row["frames"], "frames", like, texts.point)
                post = read_post(Position, universe, row["post"], "post", like, posts.point)
            except TraceFormatError as exc:
                raise TraceFormatError(f"{where}: {exc}") from exc
            action, post = _shared(action, like, patterns), _shared(post, like, patterns)
            rounds.append(TraceRound(len(rounds), action, post))
            like = post.slots
    except Exception:
        # Whatever stopped the read, a deferred post before it comes first.
        if deferred is not None:
            deferred.prove()
        raise

    return Trace(str(header["robogram"]), str(header["demon"]), p0, tuple(rounds))


def read_trace_file(path: str, *, deferred: _DeferredPosts | None = None) -> Trace:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return read_trace(fp, deferred=deferred)
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"trace is not UTF-8: {exc}") from exc


def replay(trace: Trace, robogram: Robogram) -> None:
    """Re-derive every round from p0 and the stored frames; raises
    ReplayMismatchError at the first stored position that does not match,
    and ExecutionError, as `execute_prefix` does, if the robogram fails.
    A stored position matches only if its points are the recomputed ones
    as integer pairs, so in lowest terms."""
    stored = trace.rounds
    for rd in _rounds(robogram, lambda i, _: stored[i].action, trace.p0, len(stored)):
        if rd.post != stored[rd.index].post:
            raise ReplayMismatchError(rd.index)
