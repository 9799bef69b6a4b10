"""Exact geometry and bookkeeping for point robots on the rational line.

Every location, frame factor and destination is a `fractions.Fraction`, so
equality and ordering are decidable and all arithmetic is exact.  Values are
immutable after construction and operations are pure functions, safe to share
between threads.  The named-field values (`RobotId`, `Similarity`, a
`Verdict`, a `Trace` and its rounds, ...) are plain slotted classes on one
small base, `_Value`, written out rather than generated, so importing the
package compiles no code and loads neither `inspect` nor `ast`.  The one
thing written after construction is a slot pattern's facts (`_Slots`):
idempotent, lazily filled caches on a shared tuple, each a function of what
it is keyed on, so two threads that fill one at once store equal values, and
a reader sees a whole entry or none.

Per-robot state is kept in `RobotUniverse.robots` order: a `Position` as an
occupancy table, and a renaming of the robots as a sequence of places
(`sigma[i]` is the place robot i is renamed to; a tuple, or a sequence that
computes its places), which `permute_position` checks where it applies it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

__all__ = [
    "MAX_SCALAR_DIGITS",
    "EmptyUniverse",
    "Position",
    "RobotId",
    "RobotUniverse",
    "ScalarLike",
    "Side",
    "Similarity",
    "Spectrum",
    "as_scalar",
    "format_scalar",
    "parse_scalar",
    "permute_position",
    "spectrum",
]

ScalarLike = int | str | Fraction
_T = TypeVar("_T", bound="_Table")


class EmptyUniverse(ValueError):
    """A universe was asked for with fewer than one robot per pile."""


# Longest numerator or denominator `parse_scalar` accepts, in decimal digits.
# CPython refuses int <-> str conversions past 4300 digits by default (a guard
# against quadratic-time inputs); denominators grow by a constant number of
# digits per round, so a trace outgrows that limit at horizon 9k-14k.  Scalars
# are converted piecewise instead, which leaves the interpreter-wide limit
# alone, up to this explicit bound: about 100k rounds of `convex:1/3`.
MAX_SCALAR_DIGITS = 100_000


def _int_from_digits(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int <-> str limit
        half = len(digits) // 2
        return _int_from_digits(digits[:-half]) * 10**half + _int_from_digits(digits[-half:])


def _digits_of(x: int) -> str:
    try:
        return str(x)
    except ValueError:  # longer than the interpreter's int <-> str limit
        if x < 0:
            return "-" + _digits_of(-x)
        half = x.bit_length() * 3 // 20  # about half the decimal digits
        high, low = divmod(x, 10**half)
        return _digits_of(high) + _digits_of(low).zfill(half)


def parse_scalar(text: str) -> Fraction:
    """Parse "num/den" (or a bare integer), with an optional sign and
    surrounding whitespace, in terms that need not be lowest.  Decimal
    notation is rejected: values cross every interface in exact form.  Only
    ASCII digits are read (`str.isdigit` alone also takes other scripts'
    digits).  Numerator and denominator may each have up to
    MAX_SCALAR_DIGITS digits."""
    if not isinstance(text, str):
        raise TypeError(f"invalid scalar {text!r}: expected a 'num/den' string")
    s = text.strip()
    num, slash, den = s.partition("/")
    digits = num[1:] if num.startswith(("+", "-")) else num
    if not (s.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"invalid scalar {text!r}: expected 'num' or 'num/den'")
    if max(len(digits), len(den)) > MAX_SCALAR_DIGITS:
        raise ValueError(f"invalid scalar: more than {MAX_SCALAR_DIGITS} digits")
    numerator = _int_from_digits(digits)
    if num[0] == "-":
        numerator = -numerator
    if not den:
        return Fraction(numerator)
    denominator = _int_from_digits(den)
    if denominator == 0:
        raise ValueError(f"invalid scalar {text!r}: zero denominator")
    return Fraction(numerator, denominator)


def format_scalar(q: Fraction) -> str:
    """Canonical "num/den" string; integers render with denominator 1.
    Converts numbers of any size, whatever the int <-> str limit."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        return f"{_digits_of(q.numerator)}/{_digits_of(q.denominator)}"


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce exact inputs to Fraction.  Floats are refused on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"

    @property
    def other(self) -> Side:
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


_set = object.__setattr__


class _Value:
    """An immutable value whose fields are its `__slots__`, in order.  Each
    class's `__init__` checks its arguments and sets every field once, with
    `_set` or `_fill`.  Two values are equal, and hash alike, when they are of the same
    class and their tuples of fields are equal; a value of another class is
    `NotImplemented`.  Assignment and deletion raise AttributeError, a value
    pickles through its constructor (pickle would restore slots with
    setattr), and it shows as `Name(field=value, ...)`, less the fields named
    in the class keyword `hidden`."""

    __slots__ = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = ()) -> None:
        fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._key = key = attrgetter(*fields)  # a lone field's value is not wrapped
        cls._values = staticmethod(key if len(fields) > 1 else lambda value: (key(value),))
        cls._shown = tuple(name for name in fields if name not in hidden)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fill(self, *values: object) -> None:
        """Set the fields to `values`, in order."""
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({inner})"


class RobotId(_Value):
    """A robot name: which pile it belongs to and its index within the pile."""

    __slots__ = ("side", "index")

    def __init__(self, side: Side, index: int) -> None:
        if index < 0:
            raise ValueError("robot index must be >= 0")
        _set(self, "side", side)
        _set(self, "index", index)

    def __str__(self) -> str:
        return f"{self.side.value}{self.index}"


class RobotUniverse(_Value):
    """2n robots split into a left and a right pile of n each.

    Per-robot state is a tuple in `robots` order: the left pile is `[:n]`,
    the right pile `[n:]`.  Both piles are nonempty: the constructor
    refuses n < 1 with EmptyUniverse, so nothing downstream checks for an
    empty pile.
    """

    __slots__ = ("pile_size", "__dict__")  # the dict holds the cached properties

    def __init__(self, pile_size: int) -> None:
        if pile_size < 1:
            raise EmptyUniverse("universe must contain at least one robot per pile")
        _set(self, "pile_size", pile_size)

    @property
    def m(self) -> int:
        """Total robot count, always even."""
        return 2 * self.pile_size

    @cached_property
    def robots(self) -> tuple[RobotId, ...]:
        """All robots, left pile first, each pile in index order."""
        left = tuple(RobotId(Side.LEFT, i) for i in range(self.pile_size))
        right = tuple(RobotId(Side.RIGHT, i) for i in range(self.pile_size))
        return left + right

    @cached_property
    def places(self) -> dict[RobotId, int]:
        """Each robot's index in `robots`, its place in per-robot tuples.
        Looking up a robot of another universe raises KeyError."""
        return {r: i for i, r in enumerate(self.robots)}

    @cached_property
    def places_by_name(self) -> dict[str, int]:
        """The same places keyed by "L<i>"/"R<i>" name, in robot order."""
        return {str(r): i for i, r in enumerate(self.robots)}

    def is_total(self, mapping: Mapping[RobotId, object]) -> bool:
        """True iff `mapping`'s keys are exactly the universe's robots."""
        return mapping.keys() == self.places.keys()

    @cached_property
    def sides(self) -> _Slots:
        """The slot pattern of two piles stacked on two points,
        `(0,)*n + (1,)*n`, built once per universe: the tables that
        `Position.from_piles` builds share it, and so does every table
        built like one of them.  Its facts follow from how it is built, so
        they are stored with it (`_Slots._known`) and none is scanned for."""
        n = self.pile_size
        return _Slots._known(
            (0,) * n + (1,) * n,
            counts=(n, n),
            piles=(0, 1),
            split=True,
            self_pairs=((0, 0), (1, 1)),
        )

    def side_robots(self, side: Side) -> tuple[RobotId, ...]:
        return tuple(r for r in self.robots if r.side is side)


class _Slots(tuple):
    """A slot pattern: a table's `slots`, one index per robot in robot
    order, numbered in order of first robot.  A table built like another
    keeps that table's pattern when its slots are equal (`_like`), so while
    the piles stay stacked every position and action of a run holds one
    pattern, round after round.  What follows from the slots alone is
    therefore derived once and kept with the pattern, in its own
    `__dict__`, for exactly as long as the tuple lives:

    - `counts`, the robots per slot in slot order, computed when the
      pattern is built (a position's spectrum needs it, and building the
      `__dict__` with the tuple keeps the allocator's layout as it was:
      filled later, in the middle of a round, it left one more pymalloc
      pool in use after every `check` call);
    - each pile's slot, whether the piles share a slot and each slot
      paired with itself, each filled on first use, or stored
      with `counts` when the pattern is built, by a builder that knows
      them (`_known`: the universe's two-pile pattern, `RobotUniverse.sides`);
    - for the last other pattern it was paired with, the joint pattern of
      the two (`joint`).

    Each fact depends on the tuples alone and never changes once filled.
    No entry holds the pattern itself, so a pattern is freed by reference
    counting, not left to the cycle collector.  It compares, hashes and
    slices as the plain tuple it is; slices are plain tuples."""

    def __new__(cls, slots: Iterable[int]) -> _Slots:
        pattern = super().__new__(cls, slots)
        pattern.counts = tuple(Counter(pattern).values())
        return pattern

    @classmethod
    def _known(cls, slots: tuple[int, ...], **facts: object) -> _Slots:
        """A pattern whose builder knows its facts: `facts`, `counts` among
        them, go into its `__dict__`, where `__new__` and the cached
        properties would put them, so nothing is counted or scanned."""
        pattern = super().__new__(cls, slots)
        pattern.__dict__.update(facts)
        return pattern

    @cached_property
    def piles(self) -> tuple[int | None, int | None]:
        """The left and the right pile's slot, each None unless the whole
        pile has one slot."""
        n = len(self) // 2
        return tuple(
            pile[0] if pile.count(pile[0]) == n else None for pile in (self[:n], self[n:])
        )

    @cached_property
    def self_pairs(self) -> tuple[tuple[int, int], ...]:
        """Each slot paired with itself, in slot order: the distinct pairs
        of the pattern's joint with itself (`joint`)."""
        return tuple((s, s) for s in range(len(self.counts)))

    @cached_property
    def split(self) -> bool:
        """No slot holds robots of both piles."""
        n = len(self) // 2
        return set(self[:n]).isdisjoint(self[n:])

    def joint(self, other: _Slots) -> tuple[tuple[tuple[int, int], ...], _Slots]:
        """The pattern of each robot's pair (its slot in `other`, its slot
        here): the distinct pairs in order of their first robot, and each
        robot's index into them, which is this pattern itself when equal to
        it.  A value that depends only on a robot's slot in each (a round's
        destination, the demon's factor) is computed once per pair, in a
        plain loop over the pairs, and the values are grouped on the joint
        pattern by `_grouped`, built like this pattern.  A pattern paired
        with itself is its own joint; otherwise the joint is kept for the
        last `other`, which the entry holds, so no other tuple can take its
        identity while it is kept."""
        if other is self:
            return self.self_pairs, self
        width = len(self.counts)
        last = self.__dict__.get("_joint")
        if last is None or last[0] is not other:
            keys = [a * width + b for a, b in zip(other, self)]
            index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
            joint = _like(tuple(map(index.__getitem__, keys)), self)
            pairs = tuple(divmod(key, width) for key in index)
            last = (other, pairs, None if joint is self else joint)
            self._joint = last
        return last[1], self if last[2] is None else last[2]


def _like(slots: tuple[int, ...], like: tuple[int, ...]) -> tuple[int, ...]:
    """The one rule for sharing slot tuples: a table built like another (an
    action or post-position like its pre-position, a trace row like the one
    before) takes that table's slots as `like`, and keeps `like` itself
    when its own slots are equal, so a repeating pattern is one tuple."""
    return like if slots == like else _Slots(slots)


def tabulate(values: Iterable[Fraction]) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The canonical occupancy table of some values: the distinct values in
    order of first occurrence, and each value's index into them.  Values
    share a point when their (numerator, denominator) pairs are equal, as
    hashing a Fraction costs a modular inverse; `_grouped` tests the same
    pairs before it calls this."""
    values = tuple(values)
    ratios = tuple(map(Fraction.as_integer_ratio, values))
    first = dict(zip(reversed(ratios), reversed(values)))  # each ratio's first value
    slot_of = {ratio: slot for slot, ratio in enumerate(dict.fromkeys(ratios))}
    return tuple(map(first.__getitem__, slot_of)), tuple(map(slot_of.__getitem__, ratios))


def tabulate_keys(
    keys: Iterable[Hashable], value_of: Callable[[Hashable], Fraction], like: tuple[int, ...] = ()
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The canonical table of one value per robot, given as one key per robot
    in robot order: `value_of` runs once per distinct key, in order of its
    first robot, and the keys' pattern is grouped by the values
    (`_grouped`).  Keys are ints or strings, which hash in C, so no
    Fraction is touched per robot.  The table is built like `like`
    (`_like`)."""
    keys = tuple(keys)
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    pattern = _like(tuple(map(index.__getitem__, keys)), like)
    return _grouped(pattern, map(value_of, index), like)


def _grouped(
    pattern: tuple[int, ...], values: Iterable[Fraction], like: tuple[int, ...]
) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """The canonical table of one value per slot of `pattern`, the values
    given in slot order.  While their (numerator, denominator) pairs are
    distinct the table is the values as they are and `pattern` itself, as
    `tabulate` would give it, found with one set of pairs and no dict.
    Only values that merge are grouped by `tabulate`, which regroups the
    robots, built like `like`."""
    values = tuple(values)
    if len(set(map(Fraction.as_integer_ratio, values))) == len(values):
        return values, pattern
    points, index = tabulate(values)
    return points, _like(tuple(map(index.__getitem__, pattern)), like)


class _Table:
    """One value per robot, stored as an occupancy table: `points`, the
    distinct values in order of their first robot, and `slots`, one index
    into `points` per robot in `universe.robots` order, so equal per-robot
    values give equal tables.  The constructor takes a total id -> value
    map; `_of` groups one value per robot, in robot order; `_table` wraps a
    table already built, without checking it."""

    __slots__ = ("universe", "points", "slots")
    _partial = "table must assign exactly the universe's robots"

    def __init__(self, universe: RobotUniverse, values: Mapping[RobotId, ScalarLike]):
        if not universe.is_total(values):
            missing = sorted(str(r) for r in universe.robots if r not in values)
            extra = sorted(str(r) for r in values if r not in universe.places)
            raise ValueError(f"{self._partial} (missing {missing}, extra {extra})")
        self.universe = universe
        self.points, slots = tabulate(as_scalar(values[r]) for r in universe.robots)
        self.slots = _Slots(slots)

    @classmethod
    def _table(cls: type[_T], universe: RobotUniverse, points: tuple, slots: tuple) -> _T:
        """A table that is canonical, as the constructors' are.  Its slots
        are kept as a pattern (`_Slots`)."""
        t = cls.__new__(cls)
        t.universe, t.points = universe, points
        t.slots = slots if isinstance(slots, _Slots) else _Slots(slots)
        return t

    @classmethod
    def _of(cls: type[_T], universe: RobotUniverse, values: Iterable[Fraction]) -> _T:
        """A table from one Fraction per robot, in robot order."""
        return cls._table(universe, *tabulate(values))

    def __getitem__(self, robot: RobotId) -> Fraction:
        return self.points[self.slots[self.universe.places[robot]]]

    def _per_robot(self) -> tuple[Fraction, ...]:
        """One value per robot, in robot order."""
        return tuple(map(self.points.__getitem__, self.slots))

    def __eq__(self, other: object) -> bool:
        """Equal slot patterns, equal universes (by identity first), then
        each pair of points as integer pairs, without `Fraction.__eq__`'s
        dispatch.  Canonical tables with equal patterns hold as many
        points."""
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.slots != other.slots:
            return False
        if self.universe is not other.universe and self.universe != other.universe:
            return False
        for x, y in zip(self.points, other.points):
            if x.as_integer_ratio() != y.as_integer_ratio():
                return False
        return True

    def __repr__(self) -> str:
        values = zip(self.universe.robots, self._per_robot())
        inner = ", ".join(f"{r}={format_scalar(x)}" for r, x in values)
        return f"{type(self).__name__}({inner})"


class Position(_Table):
    """Total map from robot id to location, stored as an occupancy table of
    locations."""

    __slots__ = ()
    _partial = "position must assign exactly the universe's robots"

    @classmethod
    def from_piles(
        cls, universe: RobotUniverse, left: ScalarLike, right: ScalarLike
    ) -> Position:
        """Left pile stacked at `left`, right pile stacked at `right`: the
        table is built directly, on the universe's `sides` pattern when the
        two points differ."""
        a, b = as_scalar(left), as_scalar(right)
        if a == b:
            return cls._table(universe, (a,), _Slots(repeat(0, universe.m)))
        return cls._table(universe, (a, b), universe.sides)

    def items(self) -> tuple[tuple[RobotId, Fraction], ...]:
        return tuple(zip(self.universe.robots, self.locations()))

    def locations(self) -> tuple[Fraction, ...]:
        """One location per robot, in robot order."""
        return self._per_robot()

    def map_locations(self, fn: Callable[[Fraction], ScalarLike]) -> Position:
        return Position._of(self.universe, (as_scalar(fn(x)) for x in self.locations()))

    def pile_location(self, side: Side) -> Fraction | None:
        """The single location shared by the whole pile, or None if scattered."""
        slot = self.slots.piles[side is Side.RIGHT]
        return None if slot is None else self.points[slot]


class Similarity(_Value):
    """Frame transformation x -> factor * (x - center).  Zero factors are
    rejected: a zero factor encodes "not activated" and lives in demonic
    actions, never in a frame change."""

    __slots__ = ("factor", "center")

    def __init__(self, factor: ScalarLike, center: ScalarLike) -> None:
        _set(self, "factor", as_scalar(factor))
        _set(self, "center", as_scalar(center))
        if self.factor == 0:
            raise ValueError("similarity factor must be nonzero")

    @classmethod
    def _of(cls, factor: Fraction, center: Fraction) -> Similarity:
        """A frame from a nonzero factor and a center that are Fractions
        already, not checked again: a round's come from its tables."""
        frame = cls.__new__(cls)
        _set(frame, "factor", factor)
        _set(frame, "center", center)
        return frame

    def apply(self, x: ScalarLike) -> Fraction:
        return self.factor * (as_scalar(x) - self.center)

    def inverse(self) -> Similarity:
        # y = k*(x - t)  <=>  x = (1/k) * (y - (-k*t))
        return Similarity(Fraction(1) / self.factor, -self.factor * self.center)

    def map_position(self, view: Position | Mapping[Fraction, int]) -> Position | Spectrum:
        """The view in this frame: a Position as the same slots over the
        images of its points, or a location -> count mapping (a spectrum) as
        a framed Spectrum with the same counts, which builds the images of
        its locations when a robogram first reads them.  A similarity is
        injective, so slots, counts and key order carry over unchanged and
        no image is hashed."""
        if isinstance(view, Position):
            images = self._images(map(Fraction.as_integer_ratio, view.points))
            return Position._table(view.universe, images, view.slots)
        base = view if isinstance(view, Spectrum) else Spectrum._view(view)
        return Spectrum._of(None, base._counts, base, self)

    def _images(self, ratios: Iterable[tuple[int, int]]) -> tuple[Fraction, ...]:
        """The images of values given as (numerator, denominator) pairs,
        which need not be in lowest terms."""
        p, q = self.factor.as_integer_ratio()
        cn, cd = self.center.as_integer_ratio()
        images = []
        for xn, xd in ratios:
            images.append(_image(p, q, cn, cd, xn, xd))
        return tuple(images)


def _image(p: int, q: int, cn: int, cd: int, xn: int, xd: int) -> Fraction:
    """p*(x - c)/q for x = xn/xd and c = cn/cd, built from integers and
    normalized once, instead of as a subtraction and a product that each
    normalize.  xn/xd need not be in lowest terms, nor need p/q.  The
    difference is taken over lcm(xd, cd), as Fraction subtraction does: with
    plain cross-multiplication the operands of the one gcd grow by the full
    size of cd, which is slower on large denominators.  The factor is then
    cancelled against the difference before they multiply, as Fraction
    multiplication does: a frame that shows a pile at 1 has a factor as
    large as the difference, and the two full products would be twice
    that size only to be reduced to a small image."""
    g = gcd(xd, cd)
    s = xd // g
    num, den = xn * (cd // g) - cn * s, s * cd
    g1, g2 = gcd(p, den), gcd(num, q)
    return Fraction((p // g1) * (num // g2), (q // g2) * (den // g1))


def _mean_ratio(keys: tuple[Fraction, ...], counts: tuple[int, ...]) -> tuple[int, int]:
    """The count-weighted mean of `keys` as a numerator and a denominator,
    not reduced: the numerators summed over the lcm of the denominators,
    each location's ratio read once, and that lcm times the robot count.
    Plain loops, not generators: a generator resumes once per key, which
    on a round's two keys cost more than the arithmetic."""
    ratios = tuple(map(Fraction.as_integer_ratio, keys))
    den = 1
    for _, d in ratios:
        den = lcm(den, d)
    num = 0
    for (p, d), count in zip(ratios, counts):
        num += p * (den // d) * count
    return num, den * sum(counts)


class Spectrum(Mapping[Fraction, int]):
    """Multiset of occupied locations with multiplicities (the global view a
    strong multiplicity detector provides): the distinct locations and their
    robot counts, as two tuples in first-occurrence order.

    Read-only, and read as a Counter is: `len`, iteration and
    `keys`/`values`/`items` in that order, a missing location counts 0,
    `most_common`, `total` and `elements`, and it equals the Counter or dict
    of the same counts.  It has no `copy` and no Counter arithmetic;
    `Counter(view)` gives a Counter of the same counts.  Hashing a Fraction
    costs a modular inverse of its denominator, so a location -> slot index
    is built only on the first key lookup (`view[x]`, `x in view`, `get`).

    A framed view (what `Similarity.map_position` makes of a spectrum)
    holds its base spectrum, its frame and the base's counts, and builds its
    locations when first read.  Its `centroid` is the frame's image of the
    base's, which each spectrum computes once, so a robogram that reads
    only the mean builds no location.
    """

    __slots__ = ("_keys", "_counts", "_index", "_base", "_frame", "_ratio")

    def __init__(self, locations: Iterable[Fraction]):
        self._keys, slots = tabulate(locations)
        self._counts = _Slots(slots).counts
        self._index = self._base = self._frame = self._ratio = None

    @classmethod
    def _of(
        cls,
        keys: tuple[Fraction, ...] | None,
        counts: tuple[int, ...],
        base: Spectrum | None = None,
        frame: Similarity | None = None,
    ) -> Spectrum:
        """A spectrum from distinct locations and their positive counts,
        which are not checked again, or, with `keys` None, `base` seen
        through `frame` (its counts), its locations not yet built."""
        view = cls.__new__(cls)
        view._keys, view._counts, view._base, view._frame = keys, counts, base, frame
        view._index = view._ratio = None
        return view

    @classmethod
    def _view(cls, counts: Mapping[Fraction, int]) -> Spectrum:
        """A location -> count mapping that is not a Spectrum, as one: its
        keys and counts as they are.  Callers test for a Spectrum first, as
        a round's views are, so that a round makes no call here."""
        return cls._of(tuple(counts), tuple(counts.values()))

    @property
    def _locations(self) -> tuple[Fraction, ...]:
        if self._keys is None:
            ratios = map(Fraction.as_integer_ratio, self._base._locations)
            self._keys = self._frame._images(ratios)
        return self._keys

    def centroid(self) -> Fraction:
        """The mean location, each location weighted by its count."""
        return self._scaled_centroid(1, 1)

    def _scaled_centroid(self, sn: int, sd: int) -> Fraction:
        """`sn/sd` times the centroid, as one Fraction: a framed view's is
        the one image of its base's centroid under its frame with the scale
        folded into the factor (`_image`)."""
        if self._frame is None:
            num, den = self._centroid_ratio()
            return Fraction(sn * num, sd * den)
        p, q = self._frame.factor.as_integer_ratio()
        cn, cd = self._frame.center.as_integer_ratio()
        return _image(sn * p, sd * q, cn, cd, *self._base._centroid_ratio())

    def _centroid_ratio(self) -> tuple[int, int]:
        """The centroid as a numerator and a denominator, not reduced,
        computed once."""
        if self._ratio is None:
            if self._frame is not None:
                self._ratio = self.centroid().as_integer_ratio()
            else:
                self._ratio = _mean_ratio(self._keys, self._counts)
        return self._ratio

    def _slot(self, location: Fraction) -> int | None:
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self._locations)}
        return self._index.get(location)

    def __getitem__(self, location: Fraction) -> int:
        slot = self._slot(location)
        return 0 if slot is None else self._counts[slot]

    def get(self, location: Fraction, default: int | None = None) -> int | None:
        slot = self._slot(location)
        return default if slot is None else self._counts[slot]

    def __contains__(self, location: object) -> bool:
        return self._slot(location) is not None

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._locations)

    def __len__(self) -> int:
        return len(self._counts)

    def values(self) -> tuple[int, ...]:
        return self._counts

    def items(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple(zip(self._locations, self._counts))

    def most_common(self, n: int | None = None) -> list[tuple[Fraction, int]]:
        """(location, count) pairs by decreasing count, ties in key order,
        as Counter.most_common lists them."""
        pairs = sorted(self.items(), key=itemgetter(1), reverse=True)
        return pairs if n is None else pairs[: max(n, 0)]

    def total(self) -> int:
        """The number of robots."""
        return sum(self._counts)

    def elements(self) -> Iterator[Fraction]:
        """Each location repeated by its count, in key order."""
        return chain.from_iterable(map(repeat, self._locations, self._counts))

    def __repr__(self) -> str:
        inner = ", ".join(f"{format_scalar(x)}: {c}" for x, c in self.items())
        return f"Spectrum({{{inner}}})"


def spectrum(p: Position) -> Spectrum:
    """The multiset of `p`'s occupied locations."""
    return Spectrum._of(p.points, p.slots.counts)


def permute_position(p: Position, sigma: Sequence[int]) -> Position:
    """Rename robots: `sigma[i]` is the place robot i is renamed to, so the
    result maps the robot at place sigma[i] to p's location of robot i.
    `sigma` must be a permutation of range(m); this is where it is checked,
    reading it only by `len` and iteration, except that the reversal
    `range(m - 1, -1, -1)` (the adversary's screen) is recognized and
    applied as one slice; on the universe's `sides` pattern it swaps the
    two piles, so the result is that pattern over the two points swapped.
    The result is built like p."""
    m = p.universe.m
    if len(sigma) != m:
        raise ValueError("permutation and position belong to different universes")
    if sigma == range(m - 1, -1, -1):  # a range equals only a range, in O(1)
        sides = p.universe.sides
        if p.slots is sides or p.slots == sides:
            return Position._table(p.universe, p.points[::-1], p.slots)
        keys = p.slots[::-1]
    else:
        refused = ValueError(f"renaming must list each of the {m} robot places once")
        if min(sigma) < 0 or max(sigma) >= m:
            raise refused
        keys = [None] * m  # robot sigma[i]'s key: the slot of robot i
        for slot, place in zip(p.slots, sigma):
            keys[place] = slot
        if None in keys:  # m places in range(m) miss one only if one repeats
            raise refused
    return Position._table(p.universe, *tabulate_keys(keys, p.points.__getitem__, p.slots))
