from __future__ import annotations

import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcmsim.core import (
    MAX_SCALAR_DIGITS,
    EmptyUniverse,
    Position,
    RobotId,
    RobotUniverse,
    Side,
    Similarity,
    Spectrum,
    as_scalar,
    format_scalar,
    parse_scalar,
    permute_position,
    spectrum,
    tabulate_keys,
)
from lcmsim.sampling import random_permutation, random_position, random_scalar


def test_parse_scalar_accepts_exact_forms():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-3/4") == Fraction(-3, 4)
    assert parse_scalar("7") == Fraction(7)
    assert parse_scalar("+2/6") == Fraction(1, 3)
    assert parse_scalar(" 5/10 ") == Fraction(1, 2)
    at_bound = "9" * MAX_SCALAR_DIGITS
    assert parse_scalar(f"-{at_bound}/1") == -(10**MAX_SCALAR_DIGITS - 1)


@pytest.mark.parametrize(
    "bad",
    ["0.5", "1e3", "", "/", "3/", "/4", "1/0", "one", "1 / 2", "1/-2", "nan"]
    # digits of other scripts: Arabic-Indic 3/4, a fullwidth 1
    + ["\u0663/\u0664", "\uff11/2"]
    + [
        pytest.param("1" * (MAX_SCALAR_DIGITS + 1), id="numerator-past-digit-bound"),
        pytest.param("1/1" + "0" * MAX_SCALAR_DIGITS, id="denominator-past-digit-bound"),
    ],
)
def test_parse_scalar_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_format_scalar_is_always_num_den():
    assert format_scalar(Fraction(1, 2)) == "1/2"
    assert format_scalar(Fraction(0)) == "0/1"
    assert format_scalar(Fraction(-3, 6)) == "-1/2"
    assert format_scalar(Fraction(7)) == "7/1"


def test_scalar_round_trip_random():
    rng = random.Random(11)
    for _ in range(500):
        q = random_scalar(rng, max_abs=10**6, max_den=10**6)
        assert parse_scalar(format_scalar(q)) == q


def test_scalar_io_past_the_int_str_limit():
    # 3**9500 has 4533 digits, past CPython's default 4300-digit int <-> str
    # limit; formatting and parsing convert it without touching that limit.
    limit = sys.get_int_max_str_digits()
    q = Fraction(1, 3**9500)
    assert parse_scalar(format_scalar(q)) == q
    q = Fraction(-(7**6000), 3**9500)
    text = format_scalar(q)
    assert parse_scalar(text) == q
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == expected


def test_as_scalar_refuses_inexact_types():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar("2/5") == Fraction(2, 5)
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(True)
    with pytest.raises(TypeError):
        as_scalar(None)


_robot_ids = st.builds(RobotId, st.sampled_from(Side), st.integers(0, 20))


@given(_robot_ids, _robot_ids)
def test_robot_id_hash_agrees_with_equality(a, b):
    assert (a == b) == (a.side is b.side and a.index == b.index)
    if a == b:
        assert hash(a) == hash(b)
    twin = pickle.loads(pickle.dumps(a))
    assert twin == a and hash(twin) == hash(a) and str(twin) == str(a)
    assert repr(a) == f"RobotId(side={a.side!r}, index={a.index})"


def test_robot_id_round_trip_and_validation():
    r = RobotId(Side.LEFT, 0)
    assert str(r) == "L0"
    assert str(RobotId(Side.RIGHT, 17)) == "R17"
    u = RobotUniverse(18)
    assert u.robots[u.places_by_name["R17"]] == RobotId(Side.RIGHT, 17)
    assert Side.LEFT.other is Side.RIGHT
    assert Side.RIGHT.other is Side.LEFT
    with pytest.raises(ValueError):
        RobotId(Side.LEFT, -1)


def test_universe_enumeration_left_pile_first():
    u = RobotUniverse(2)
    assert u.m == 4
    assert [str(r) for r in u.robots] == ["L0", "L1", "R0", "R1"]
    assert [str(r) for r in u.side_robots(Side.RIGHT)] == ["R0", "R1"]


def test_universe_refuses_an_empty_pile():
    # The one check for an empty pile; EmptyUniverse is a ValueError.
    for n in (0, -1):
        with pytest.raises(EmptyUniverse, match="at least one robot per pile"):
            RobotUniverse(n)
        with pytest.raises(ValueError):
            RobotUniverse(n)
    assert [str(r) for r in RobotUniverse(1).robots] == ["L0", "R0"]


def test_position_totality():
    u = RobotUniverse(1)
    with pytest.raises(ValueError):
        Position(u, {RobotId(Side.LEFT, 0): 0})
    with pytest.raises(ValueError):
        Position(
            u,
            {
                RobotId(Side.LEFT, 0): 0,
                RobotId(Side.RIGHT, 0): 1,
                RobotId(Side.RIGHT, 1): 2,
            },
        )


def test_position_totality_ignores_key_order_and_id_identity():
    u = RobotUniverse(2)
    values = dict(zip(u.robots, (0, "1/2", Fraction(3), -1)))
    expected = Position(u, values)
    reordered = Position(u, dict(reversed(values.items())))
    fresh_ids = Position(u, {RobotId(r.side, r.index): v for r, v in values.items()})
    assert reordered == expected == fresh_ids
    assert reordered.items() == expected.items()
    assert all(type(x) is Fraction for x in fresh_ids.locations())
    foreign = {r: v for r, v in values.items() if str(r) != "R1"}
    foreign[RobotId(Side.RIGHT, 2)] = 0
    with pytest.raises(ValueError, match=r"missing \['R1'\], extra \['R2'\]"):
        Position(u, foreign)
    assert u.places == {r: i for i, r in enumerate(u.robots)}
    assert u.is_total(values) and not u.is_total(foreign)


def test_position_from_piles_and_pile_location():
    u = RobotUniverse(2)
    p = Position.from_piles(u, "1/3", 2)
    assert p[RobotId(Side.LEFT, 1)] == Fraction(1, 3)
    assert p[RobotId(Side.RIGHT, 0)] == Fraction(2)
    assert p.pile_location(Side.LEFT) == Fraction(1, 3)
    scattered = Position(
        u,
        {
            RobotId(Side.LEFT, 0): 0,
            RobotId(Side.LEFT, 1): 1,
            RobotId(Side.RIGHT, 0): 2,
            RobotId(Side.RIGHT, 1): 2,
        },
    )
    assert scattered.pile_location(Side.LEFT) is None
    assert scattered.pile_location(Side.RIGHT) == Fraction(2)


def test_pile_location_recognises_equal_but_distinct_objects():
    u = RobotUniverse(3)
    # each Fraction(...) call makes its own object: equal values, no sharing
    p = Position(u, {r: Fraction(2, 3) if r.side is Side.LEFT else Fraction(7) for r in u.robots})
    assert p.points == (Fraction(2, 3), Fraction(7))
    assert p.slots == (0, 0, 0, 1, 1, 1)
    assert p.pile_location(Side.LEFT) == Fraction(2, 3)
    assert p.pile_location(Side.RIGHT) == Fraction(7)
    shared = Fraction(5, 4)
    mixed = Position(u, {r: shared if r.index else Fraction(5, 4) for r in u.robots})
    assert mixed.pile_location(Side.LEFT) == shared == mixed.pile_location(Side.RIGHT)
    apart = Position(u, {r: Fraction(r.index) if r.side is Side.LEFT else 0 for r in u.robots})
    assert apart.pile_location(Side.LEFT) is None


def test_position_map_and_equality():
    u = RobotUniverse(1)
    p = Position.from_piles(u, 0, 1)
    q = p.map_locations(lambda x: x + 1)
    assert q == Position.from_piles(u, 1, 2)
    assert q != p
    assert p == Position.from_piles(u, 0, 1)


def test_tabulate_keys_reuses_an_equal_slot_tuple():
    like = (0, 0, 1, 1)
    value_of = {"a": Fraction(3), "b": Fraction(1, 2), "c": Fraction(6, 2)}.__getitem__
    points, slots = tabulate_keys(["a", "a", "b", "b"], value_of, like)
    assert points == (3, Fraction(1, 2)) and slots is like
    # keys with equal values share a slot, so the pattern is the values'
    assert tabulate_keys(["a", "c", "b", "b"], value_of, like)[1] is like
    points, slots = tabulate_keys(["b", "a", "a", "b"], value_of, like)
    assert slots == (0, 1, 1, 0) and slots is not like
    assert tabulate_keys(["a", "b"], value_of) == ((3, Fraction(1, 2)), (0, 1))


def test_spectrum_counts_multiplicities():
    u = RobotUniverse(2)
    p = Position.from_piles(u, 0, 1)
    assert spectrum(p) == {Fraction(0): 2, Fraction(1): 2}


_POOL = (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2), Fraction(7, 9))
_ABSENT = (Fraction(3), Fraction(-1, 7))


@st.composite
def _locations(draw, min_size=0):
    """Values from a small pool, each the pool's own object or a fresh equal
    one, so equal values are not always one object."""
    picks = draw(st.lists(st.sampled_from(_POOL), min_size=min_size, max_size=12))
    return [x if draw(st.booleans()) else Fraction(x.numerator, x.denominator) for x in picks]


@given(_locations(), st.booleans(), st.booleans())
def test_spectrum_reads_as_the_counter_of_the_same_data(values, mapped, lookup_first):
    counter = Counter(values)
    if mapped:
        # the lazily indexed form that Similarity.map_position returns
        view = Similarity(1, 0).map_position(counter)
    else:
        view = Spectrum(values)
    assert type(view) is Spectrum
    probes = _POOL + _ABSENT
    if lookup_first:  # the index must not disturb the order, and vice versa
        assert [view[x] for x in probes] == [counter[x] for x in probes]
    assert list(view) == list(counter)
    assert list(view.keys()) == list(counter.keys())
    assert list(view.values()) == list(counter.values())
    assert list(view.items()) == list(counter.items())
    assert len(view) == len(counter) == len(view.keys()) == len(view.items())
    for x in probes:
        assert (x in view) is (x in counter)
        assert view[x] == counter[x]  # a missing location counts 0
        assert view.get(x) == counter.get(x)
        assert view.get(x, -1) == counter.get(x, -1)
        assert (x in view.keys()) is (x in counter.keys())
        for count in (0, 1, 2):
            assert ((x, count) in view.items()) is ((x, count) in counter.items())
    for count in (0, 1, 2, 3):
        assert (count in view.values()) is (count in counter.values())
    for n in (None, -1, 0, 1, 2, 20):
        assert view.most_common(n) == counter.most_common(n)
    assert view.total() == counter.total()
    assert list(view.elements()) == list(counter.elements())
    assert view == counter and counter == view and view == dict(counter)
    assert view == Spectrum(reversed(values))  # equality ignores the order
    assert view != counter + Counter([_ABSENT[0]])
    if values:
        assert view != counter - Counter(values[:1])
    with pytest.raises(TypeError):
        view[_POOL[0]] = 1
    with pytest.raises(TypeError):
        del view[_POOL[0]]
    assert list(view.items()) == list(counter.items())  # still unchanged


@st.composite
def _runs(draw):
    """Locations in runs of one shared object, as piles and parsed rows
    hold them; each run's object is the pool's own or a fresh equal one."""
    out = []
    for x, length in draw(
        st.lists(st.tuples(st.sampled_from(_POOL), st.integers(1, 4)), min_size=1, max_size=5)
    ):
        out += [x if draw(st.booleans()) else Fraction(x.numerator, x.denominator)] * length
    return out if len(out) % 2 == 0 else out + out[-1:]


@given(st.one_of(_runs(), _locations(min_size=2)), st.data())
def test_position_equality_is_the_equality_of_its_values(values, data):
    # The other tuple holds the same values as one fresh object per object
    # of `values`, as its own objects, or a mix, and sometimes one robot
    # elsewhere, so a run of one object can face objects of two values.
    if len(values) % 2:
        values = values[:-1]
    u = RobotUniverse(len(values) // 2)
    copies = {id(x): Fraction(x.numerator, x.denominator) for x in values}
    how = data.draw(st.sampled_from(("shared copies", "own objects", "mixed")))
    if how == "shared copies":
        other = [copies[id(x)] for x in values]
    elif how == "own objects":
        other = list(values)
    else:
        other = [
            data.draw(st.sampled_from((x, copies[id(x)], Fraction(x.numerator, x.denominator))))
            for x in values
        ]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(other) - 1))
        other[i] = data.draw(st.sampled_from(_POOL + _ABSENT))
    p = Position._of(u, tuple(values))
    q = Position._of(u, tuple(other))
    expected = [(x.numerator, x.denominator) for x in values] == [
        (y.numerator, y.denominator) for y in other
    ]
    assert (p == q) is (q == p) is expected
    assert (p != q) is not expected


@pytest.mark.parametrize(
    "sigma, message",
    [
        ((0,), "different universes"),
        ((0, 1, 2), "different universes"),
        ((0, 0), "each of the 2 robot places once"),
        ((-1, 0), "each of the 2 robot places once"),
        ((0, 2), "each of the 2 robot places once"),
    ],
)
def test_permute_position_refuses_a_tuple_that_is_not_a_renaming(sigma, message):
    # (-1, 0) is distinct and of the right length, but -1 would index from
    # the end and wrap around to place 1.
    p = Position.from_piles(RobotUniverse(1), 0, 1)
    with pytest.raises(ValueError, match=message):
        permute_position(p, sigma)


def test_permute_position_preserves_spectrum():
    rng = random.Random(13)
    for _ in range(100):
        u = RobotUniverse(rng.randint(1, 4))
        p = random_position(u, rng)
        sigma = random_permutation(u, rng)
        q = permute_position(p, sigma)
        assert spectrum(q) == spectrum(p)
        for i in range(u.m):
            assert q[u.robots[sigma[i]]] == p[u.robots[i]]


def test_similarity_known_value():
    s = Similarity(2, 3)
    assert s.apply(5) == Fraction(4)
    assert s.inverse().apply(4) == Fraction(5)


def test_similarity_rejects_zero_factor_and_floats():
    with pytest.raises(ValueError):
        Similarity(0, 1)
    with pytest.raises(TypeError):
        Similarity(0.5, 1)


def test_similarity_inverse_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        factor = random_scalar(rng)
        if factor == 0:
            continue
        s = Similarity(factor, random_scalar(rng))
        x = random_scalar(rng)
        assert s.inverse().apply(s.apply(x)) == x
        assert s.apply(s.inverse().apply(x)) == x


def test_similarity_maps_positions_pointwise():
    u = RobotUniverse(1)
    p = Position.from_piles(u, 1, 3)
    s = Similarity(Fraction(1, 2), 1)
    q = s.map_position(p)
    assert q == Position.from_piles(u, 0, 1)
