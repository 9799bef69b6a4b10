"""The round engine and its layers against frozen references.

`reference_round_step` is the recurrence as it stood before the engine
learnt to work per distinct value: every active robot's view is the whole
position mapped robot by robot, and the memo is keyed by Fractions.  The
engine must agree with it exactly, or raise the same error, on positions
with shared and scattered locations, with equal locations held by one object
or by several, and on spectrum and raw robograms alike.

The layers rewritten in integer form are checked the same way: one image
against Fraction arithmetic, a mapped spectrum against `Similarity.apply`
location by location, the mean against a plain Fraction sum, a framed
view's centroid against the mean of its images, `convex` against scaling
the centroid, and the random k-fair demon against `reference_random_kfair`,
the set-based demon as it stood before.  The trace reader's format 2 scalar
rule, which proves a text canonical from the integers it parsed, is checked
against `reference_hex_point`, the rule that wrote each value back, and so
is the same rule without lowest terms, which `check` reads posts by, and
`check_kfair`, a fold that refines its classes as patterns appear, against
`reference_check_kfair`, which joined every pattern of the prefix first.
The sum behind every mean and the move's one normalization are checked
against plain Fraction arithmetic.
"""

from __future__ import annotations

import io
import random
import reprlib
from collections import Counter, deque
from fractions import Fraction
from math import lcm

from helpers import iterated_convex, random_nonzero_scalar
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmsim import core, execution
from lcmsim.core import Position, RobotUniverse, Similarity, Spectrum, spectrum
from lcmsim.demons import (
    Demon,
    DemonicAction,
    Verdict,
    _history,
    _kfair_cutoff,
    check_kfair,
    make_fsync,
    make_random_kfair,
    make_round_robin,
)
from lcmsim.execution import execute_prefix, round_step, write_trace
from lcmsim.robograms import (
    _mean,
    broken_id_leak,
    center_of_mass,
    convex,
    evaluate,
    raw_robogram,
    spectrum_robogram,
    stay,
    to_max,
    to_min,
    to_other_occupied,
)


def reference_round_step(robogram, action, position):
    memo = {}
    new = {}
    for r in position.universe.robots:
        f = action.factor(r)
        here = position[r]
        if f == 0:
            new[r] = here
            continue
        key = (f, here)
        if key not in memo:
            frame = Similarity(f, here)
            destination = evaluate(robogram, frame.map_position(position))
            memo[key] = frame.inverse().apply(destination)
        new[r] = memo[key]
    return Position(position.universe, new)


ROBOGRAMS = (
    center_of_mass,
    convex("1/3"),
    convex("-5/2"),
    to_other_occupied,
    to_max,
    to_min,
    stay,
    broken_id_leak,
    # robograms that fail on some views, so both engines must raise alike
    spectrum_robogram("float-off-bivalent", lambda v: Fraction(1) if len(v) <= 2 else 0.5),
    raw_robogram("float-off-origin", lambda p: 0.25 if p.locations()[0] != 0 else Fraction(0)),
)

_POOL = (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 2), Fraction(7, 9))


@st.composite
def _scalar(draw, pool):
    """A value from a small pool, so robots often share it: either the pool's
    own object or a fresh equal one, so equal values are not always one
    object."""
    x = draw(st.sampled_from(pool))
    return x if draw(st.booleans()) else Fraction(x.numerator, x.denominator)


@st.composite
def _position(draw, universe):
    scattered = draw(st.booleans())
    if scattered:
        locations = draw(
            st.lists(
                st.fractions(min_value=-50, max_value=50, max_denominator=12),
                min_size=universe.m,
                max_size=universe.m,
            )
        )
    else:
        locations = [draw(_scalar(_POOL)) for _ in range(universe.m)]
    return Position(universe, dict(zip(universe.robots, locations)))


@st.composite
def _action(draw, universe):
    factors = (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(2, 7))
    return DemonicAction(universe, {r: draw(_scalar(factors)) for r in universe.robots})


@st.composite
def _cases(draw):
    universe = RobotUniverse(draw(st.integers(1, 4)))
    robogram = draw(st.sampled_from(ROBOGRAMS))
    actions = draw(st.lists(_action(universe), min_size=1, max_size=3))
    return robogram, draw(_position(universe)), actions


def _outcome(step, robogram, action, position):
    try:
        return step(robogram, action, position), None
    except Exception as exc:  # compared by type and message
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_round_step_agrees_with_the_reference(case):
    robogram, position, actions = case
    for action in actions:
        ours, our_error = _outcome(round_step, robogram, action, position)
        theirs, their_error = _outcome(reference_round_step, robogram, action, position)
        assert our_error == their_error
        if our_error is not None:
            return
        assert ours == theirs
        assert [x for _, x in ours.items()] == [x for _, x in theirs.items()]
        position = ours


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _position(RobotUniverse(n))))
def test_spectrum_and_table_count_values_not_objects(position):
    counted = Counter(position.locations())
    assert list(spectrum(position).items()) == list(counted.items())
    assert position.points == tuple(counted)
    assert list(Counter(position.slots).values()) == list(counted.values())
    assert list(Spectrum(position.locations()).items()) == list(counted.items())


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda n: _position(RobotUniverse(n))),
    st.sampled_from((Fraction(1), Fraction(-3, 2), Fraction(2, 7))),
)
def test_a_mapped_spectrum_is_the_spectrum_of_the_mapped_position(position, factor):
    frame = Similarity(factor, position.locations()[0])
    mapped = frame.map_position(spectrum(position))
    assert list(mapped.items()) == list(spectrum(frame.map_position(position)).items())


# --- look: a spectrum mapped in integer form ---------------------------------

# 2585 bits is the largest denominator of an `adversary convex:1/3 --n 8
# --horizon 1000` run; the draws reach past it.
_BIG = 2**2700


@st.composite
def _big_view(draw):
    """Distinct locations whose denominators share a common part (so the
    gcd steps do work) and reach past 2000 bits, with counts >= 1."""
    base = draw(st.sampled_from((1, 6, 3**1300, 2**2100 - 1))) * draw(st.integers(1, 2**64))
    size = draw(st.integers(1, 8))
    values = draw(
        st.lists(
            st.builds(
                lambda num, den: Fraction(num, base * den),
                st.integers(-_BIG, _BIG),
                st.integers(1, 2**600),
            ),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    counts = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    return Counter(dict(zip(values, counts))), base


_nonzero = st.builds(
    Fraction,
    st.integers(-_BIG, _BIG).filter(bool),
    st.integers(1, _BIG),
)


@settings(max_examples=300, deadline=None)
@given(_big_view(), _nonzero, st.data())
def test_a_spectrum_maps_as_each_location_would(case, factor, data):
    view, base = case
    # the center is a location of the view (the observer's own point), or
    # any value outside it, sometimes sharing the view's denominator
    center = data.draw(
        st.one_of(
            st.sampled_from(list(view)),
            st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
            st.builds(lambda num: Fraction(num, base), st.integers(-_BIG, _BIG)),
        )
    )
    frame = Similarity(factor, center)
    mapped = frame.map_position(view)
    expected = Counter({frame.apply(x): c for x, c in view.items()})
    assert type(mapped) is Spectrum
    assert list(mapped.items()) == list(expected.items())
    # each key is stored in lowest terms, as arithmetic on Fractions leaves it
    assert [(x.numerator, x.denominator) for x in mapped] == [
        (x.numerator, x.denominator) for x in expected
    ]


_2000_BITS = 2**2000


@settings(max_examples=500, deadline=None)
@given(
    st.integers(-_2000_BITS, _2000_BITS),
    st.integers(1, _2000_BITS),
    st.integers(-_2000_BITS, _2000_BITS),
    st.integers(1, _2000_BITS),
    st.integers(-_2000_BITS, _2000_BITS),
    st.integers(1, _2000_BITS),
    st.integers(1, 2**64),
    st.integers(1, 2**64),
    st.booleans(),
)
@example(3**1200, 2**1999 + 1, 0, 1, 2**1999 + 1, 3**1200, 1, 1, False)  # factor 1/(x - c): 1
@example(-(2**2000), 3, 5, 7, 0, 1, 6, 2**64, True)  # x == c, neither in lowest terms
@example(0, 5, 1, 2, 3, 4, 1, 1, False)  # a zero factor, as `convex:0` folds it
def test_an_image_is_the_fraction_product_of_the_factor_and_the_difference(
    p, q, cn, cd, xn, xd, shared, common, at_center
):
    # `core._image` cancels the factor against x - c before it multiplies:
    # the pair it gives must be the one Fraction arithmetic gives, whatever
    # the signs and sizes, with p/q and xn/xd not in lowest terms (the
    # terms share `common`), and with p sharing `shared` with c's
    # denominator, so the cancellation has work to do.
    p, cd = p * shared, cd * shared
    if at_center:
        xn, xd = cn, cd
    p, q, xn, xd = p * common, q * common, xn * common, xd * common
    got = core._image(p, q, cn, cd, xn, xd)
    expected = Fraction(p, q) * (Fraction(xn, xd) - Fraction(cn, cd))
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


@settings(max_examples=300, deadline=None)
@given(
    _big_view(),
    st.one_of(
        st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(7, 2**80))),
        st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    ),
    _nonzero,
    _nonzero,
    st.data(),
)
def test_convex_folds_its_coefficient_into_the_views_one_image(case, lam, factor, again, data):
    # Unframed, framed and twice-framed views: `convex` gives, as one
    # Fraction, the pair that scaling the view's centroid gives.
    counts, _ = case
    world = Spectrum(counts.elements())
    frame = Similarity(factor, data.draw(st.sampled_from(list(counts))))
    framed = frame.map_position(world)
    twice = Similarity(again, data.draw(st.sampled_from(list(counts)))).map_position(framed)
    robogram = convex(lam)
    for view in (world, framed, twice):
        got, expected = evaluate(robogram, view), lam * view.centroid()
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


def _scattered(rng, count):
    """`count` distinct seeded rationals, as `simulate-scatter` draws them."""
    points = set()
    while len(points) < count:
        points.add(Fraction(rng.randint(-1000, 1000), rng.randint(1, 9)))
    return sorted(points)


def _counter_mean(counts):
    return sum((x * c for x, c in counts.items()), Fraction(0)) / sum(counts.values())


def _assert_reads_as(view, counter):
    assert type(view) is Spectrum
    assert list(view.items()) == list(counter.items())
    assert list(view) == list(counter) and list(view.values()) == list(counter.values())
    assert view.most_common() == counter.most_common()
    assert list(view.elements()) == list(counter.elements())
    assert view == counter and Counter(view) == counter
    assert all(view[x] == c for x, c in counter.items())
    assert repr(view) == repr(Spectrum(counter.elements()))


@settings(max_examples=300, deadline=None)
@given(
    _big_view(),
    _nonzero,
    st.data(),
    st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(-5, 3), Fraction(7, 2**80))),
    st.booleans(),
)
def test_a_framed_view_averages_and_reads_as_the_counter_of_its_images(
    case, factor, data, lam, centroid_first
):
    counts, base = case
    center = data.draw(
        st.one_of(
            st.sampled_from(list(counts)),
            st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
            st.builds(lambda num: Fraction(num, base), st.integers(-_BIG, _BIG)),
        )
    )
    frame = Similarity(factor, center)
    world = Spectrum(counts.elements())
    images = Counter({frame.apply(x): c for x, c in counts.items()})
    # a view of a framed view: its centroid is carried through both frames
    again = Similarity(data.draw(_nonzero), data.draw(st.sampled_from(list(images))))
    twice = Counter({again.apply(x): c for x, c in images.items()})
    for robogram, scale in ((center_of_mass, 1), (convex(lam), lam)):
        view = frame.map_position(world)
        if not centroid_first:
            _assert_reads_as(view, images)
        assert evaluate(robogram, view) == scale * _counter_mean(images)
        _assert_reads_as(view, images)
        seen_again = again.map_position(view)
        assert evaluate(robogram, seen_again) == scale * _counter_mean(twice)
        _assert_reads_as(seen_again, twice)


def test_a_framed_view_averages_without_building_an_image(monkeypatch):
    # 64 locations seen through k frames: the world's mean is computed
    # once, and each view's mean is one image, its centroid's.
    rng = random.Random(14)
    points = _scattered(rng, 64)
    counts = Counter({x: rng.randint(1, 3) for x in points})
    world = Spectrum(counts.elements())
    frames = [Similarity(random_nonzero_scalar(rng, 50, 12), x) for x in points[::4]]
    sums, images = [], []
    mean_ratio, image = core._mean_ratio, core._image
    monkeypatch.setattr(core, "_mean_ratio", lambda *a: sums.append(a) or mean_ratio(*a))
    monkeypatch.setattr(core, "_image", lambda *a: images.append(a) or image(*a))
    views = [frame.map_position(world) for frame in frames]
    got = [evaluate(robogram, view) for view in views for robogram in (center_of_mass, convex("1/3"))]
    assert len(sums) == 1
    assert len(images) == 2 * len(frames)  # one per evaluation, no location
    list(views[0])  # reading a view builds every one of its 64 images, once
    list(views[0])
    assert len(images) == 2 * len(frames) + 64
    monkeypatch.undo()
    expected = []
    for frame in frames:
        mean = _counter_mean(Counter({frame.apply(x): c for x, c in counts.items()}))
        expected += [mean, Fraction(1, 3) * mean]
    assert got == expected


def test_convex_runs_write_the_bytes_of_the_iterated_mean():
    # Whole runs from scattered points under a random 1-fair demon: the
    # centroid carried through each frame writes the same trace, byte for
    # byte, as a robogram that iterates every view and averages its images.
    for seed in range(6):
        universe = RobotUniverse(3 + seed % 3)
        points = _scattered(random.Random(seed), universe.m)
        p0 = Position(universe, dict(zip(universe.robots, points)))
        texts = []
        for robogram in (convex("1/2"), iterated_convex("1/2")):
            demon = make_random_kfair(universe, 1, 1, seed)
            out = io.StringIO()
            write_trace(execute_prefix(robogram, demon, p0, 40), out)
            texts.append(out.getvalue())
        assert texts[0] == texts[1], seed


# --- compute: the mean normalized once ---------------------------------------


@settings(max_examples=300, deadline=None)
@given(_big_view())
def test_mean_is_the_fraction_sum_over_the_count(case):
    view, _ = case
    expected = sum((x * c for x, c in view.items()), Fraction(0)) / sum(view.values())
    got = _mean(view)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


@st.composite
def _keys_and_counts(draw):
    """1 to 64 distinct locations whose numerators and denominators reach
    2600 bits, each with a count of 1 to 5, counts repeating.  Up to four
    keys may have unrelated 2600-bit parts; otherwise every key is a small
    multiple of one 2600-bit numerator plus a small offset, over a shared
    denominator part times a small one, so 64 keys fit Hypothesis's
    budget of drawn data."""
    size = draw(st.integers(1, 64))
    if size <= 4 and draw(st.booleans()):
        nums, dens = st.integers(-(2**2600), 2**2600), st.integers(1, 2**2600)
    else:
        big = draw(st.integers(2**2599, 2**2600))
        base = draw(st.sampled_from((1, 6, 3**1640, 2**2600 - 1)))
        nums = st.builds(lambda a, b: a * big + b, st.integers(-8, 8), st.integers(-(2**32), 2**32))
        dens = st.integers(1, 2**32).map(lambda d: base * d)
    keys = draw(st.lists(st.builds(Fraction, nums, dens), min_size=size, max_size=size, unique=True))
    counts = draw(st.lists(st.integers(1, 5), min_size=size, max_size=size))
    return tuple(keys), tuple(counts)


@settings(max_examples=200, deadline=None)
@given(_keys_and_counts())
@example(((Fraction(1, 6), Fraction(1, 4)), (1, 1)))
def test_the_mean_ratio_is_the_fraction_sum_over_the_lcm_and_the_count(case):
    # `core._mean_ratio` sums in plain loops: its pair is the weighted sum
    # of the keys over the lcm of their denominators, not reduced, and the
    # lcm times the robot count, whose quotient is the Fraction mean.
    keys, counts = case
    num, den = core._mean_ratio(keys, counts)
    total = sum(counts)
    assert den == lcm(*(x.denominator for x in keys)) * total
    assert Fraction(num, den) == sum((x * c for x, c in zip(keys, counts)), Fraction(0)) / total


# --- move: the inverse frame normalized once ---------------------------------


_2600_BITS = 2**2600


@settings(max_examples=300, deadline=None)
@given(
    st.builds(Fraction, st.integers(-_2600_BITS, _2600_BITS), st.integers(1, _2600_BITS)),
    st.builds(Fraction, st.integers(-_2600_BITS, _2600_BITS), st.integers(1, _2600_BITS)),
    st.builds(
        Fraction, st.integers(-_2600_BITS, _2600_BITS).filter(bool), st.integers(1, _2600_BITS)
    ),
    st.integers(1, 2**64),
)
@example(Fraction(1, 6), Fraction(-5, 4), Fraction(-2, 3), 1)  # a negative factor
@example(Fraction(7, 3**200), Fraction(0), Fraction(3**200, 5), 1)  # local 0: the point
def test_a_move_is_the_fraction_sum_of_the_point_and_local_over_the_factor(
    point, local, factor, shared
):
    # `execution._moved` takes the factor as its integers and builds
    # `point + local/f` over one lcm; its pair must be Fraction
    # arithmetic's, with denominators sharing `shared` so the gcd works.
    point = Fraction(point.numerator, point.denominator * shared)
    local = Fraction(local.numerator, local.denominator * shared)
    fn, fd = factor.as_integer_ratio()
    got = execution._moved(point, local, fn, fd)
    expected = point + local / factor
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


# --- demon: the random k-fair scheduler -------------------------------------


def reference_random_kfair(universe, k, factor, seed, fallbacks=None):
    """The random k-fair demon as it stood before: sets of robots, closed by
    repeated passes.  Appends to `fallbacks` each round whose draws activated
    nobody."""
    robots = universe.robots
    rng = random.Random(seed)
    waited = {g: {h: 0 for h in robots if h != g} for g in robots}

    def step(round_index, position):
        chosen = {r for r in robots if rng.random() < 0.5}
        if not chosen:
            if fallbacks is not None:
                fallbacks.append(round_index)
            chosen = {rng.choice(robots)}
        grew = True
        while grew:
            grew = False
            for g in robots:
                if g in chosen:
                    continue
                if any(waited[g][h] >= k for h in chosen):
                    chosen.add(g)
                    grew = True
        for g in robots:
            if g in chosen:
                for h in waited[g]:
                    waited[g][h] = 0
            else:
                for h in chosen:
                    waited[g][h] += 1
        frames = {r: factor if r in chosen else Fraction(0) for r in robots}
        return DemonicAction(universe, frames)

    return Demon(f"random-kfair:{k}:{seed}", step)


ROUNDS = 60


def _assert_same_actions(n, k, seed, factor=Fraction(1)):
    universe = RobotUniverse(n)
    position = Position.from_piles(universe, 0, 1)
    fallbacks: list[int] = []
    ours = make_random_kfair(universe, k, factor, seed)
    theirs = reference_random_kfair(universe, k, factor, seed, fallbacks)
    assert ours.name == theirs.name
    for i in range(ROUNDS):
        assert ours.action(i, position) == theirs.action(i, position), (n, k, seed, i)
    return fallbacks


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 6),
    st.integers(-(2**64), 2**64),
    st.sampled_from((Fraction(1), Fraction(-3, 2), Fraction(7, 2**70))),
)
# 128 robots force many robots into a round; a budget of 10**9 forces none.
@example(64, 0, 7, Fraction(1))
@example(64, 1, 7, Fraction(1))
@example(64, 3, 7, Fraction(1))
@example(64, 10**9, 7, Fraction(1))
@example(2, 10**9, 7, Fraction(1))
# budgets past what a deque's maxlen can hold
@example(2, 2**63 - 1, 7, Fraction(1))
@example(2, 10**30, 7, Fraction(1))
def test_random_kfair_matches_the_reference(n, k, seed, factor):
    _assert_same_actions(n, k, seed, factor)


def test_random_kfair_matches_the_reference_on_rounds_that_draw_nobody():
    # With one or two robots per pile a round draws nobody often (1/4 and
    # 1/16), so this sweep runs the rng.choice fallback many times.
    fallbacks = [
        len(_assert_same_actions(n, k, seed))
        for n in (1, 2)
        for k in range(4)
        for seed in range(25)
    ]
    assert sum(fallbacks) > 100


# --- checker: k-fairness as a fold -------------------------------------------


def reference_check_kfair(actions, k):
    """`check_kfair` as it stood before it became a fold: the classes are
    the joint pattern of every distinct pattern of the prefix, found
    before round 0, each pattern's slot of a class read at one robot of
    it.  The rule (`_kfair_cutoff`) and the histories are the demon's."""
    if k < 0:
        raise ValueError("fairness budget k must be >= 0")
    if not actions:
        return Verdict.no_violation_up_to(0)
    patterns = {id(a.slots): a.slots for a in actions}
    distinct = iter(patterns.values())
    classes = next(distinct)
    for pattern in distinct:
        classes = classes.joint(pattern)[1]
    representatives = tuple(dict(zip(classes, range(len(classes)))).values())
    slots_of = {
        key: range(len(classes.counts)) if pattern is classes
        else tuple(map(pattern.__getitem__, representatives))
        for key, pattern in patterns.items()
    }
    recent = [_history(k) for _ in classes.counts]
    parts: dict[tuple[int, int], tuple[list[deque[int]], list[deque[int]]]] = {}
    for i, action in enumerate(actions):
        key = id(action.slots), action._idle_slot()
        part = parts.get(key)
        if part is None:
            slots, idle_slot = slots_of[key[0]], key[1]
            part = parts[key] = (
                [t for t, s in zip(recent, slots) if s != idle_slot],
                [t for t, s in zip(recent, slots) if s == idle_slot],
            )
        active, idle = part
        cutoff = _kfair_cutoff(active, k, i)
        for t in idle:
            if t[-1] < cutoff:
                return Verdict.violated(min(u[-1] for u in idle) + 1)
        for t in active:
            t.append(i)
    return Verdict.no_violation_up_to(len(actions))


_FACTORS = (Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(2, 7), Fraction(5))


@st.composite
def _kfair_prefixes(draw):
    """An action prefix of one of five kinds: one slot pattern whose
    factors change each round (so the idle slot moves or vanishes), two
    or three patterns drawn again and again in any order (so a pattern
    seen before a refinement comes back after it), the random k-fair
    demon's, round-robin's, or fsync's followed by round-robin's; the
    last three build a new pattern most rounds."""
    u = RobotUniverse(draw(st.integers(1, 4)))
    horizon = draw(st.integers(0, 16))
    kinds = ("one-pattern", "revisited-patterns", "random-kfair", "round-robin", "fsync+round-robin")
    kind = draw(st.sampled_from(kinds))
    if kind in ("one-pattern", "revisited-patterns"):
        patterns = []
        for _ in range(1 if kind == "one-pattern" else draw(st.integers(2, 3))):
            raw = draw(st.lists(st.integers(0, 3), min_size=u.m, max_size=u.m))
            index = {slot: i for i, slot in enumerate(dict.fromkeys(raw))}
            patterns.append(core._Slots(index[slot] for slot in raw))
        actions = []
        for _ in range(horizon):
            pattern = draw(st.sampled_from(patterns))
            points = draw(st.permutations(_FACTORS))[: len(pattern.counts)]
            actions.append(DemonicAction._table(u, points, pattern))
        return actions
    position = Position.from_piles(u, 0, 1)
    factor = draw(st.sampled_from(_FACTORS[1:]))
    if kind == "random-kfair":
        demon = make_random_kfair(u, draw(st.integers(0, 3)), factor, draw(st.integers(0, 2**32)))
        return [demon.action(i, position) for i in range(horizon)]
    robin = make_round_robin(u, factor)
    synced = draw(st.integers(0, horizon)) if kind == "fsync+round-robin" else 0
    fsync = make_fsync(u)
    return [(fsync if i < synced else robin).action(i, position) for i in range(horizon)]


def _a_pattern_revisited_after_a_refinement():
    """Pattern a, then b, which splits a's first class, then a again: a's
    slot of each class is read at a robot of that class, not at the robot
    whose place is the class's number (robot 3 waits every round)."""
    u = RobotUniverse(2)
    a, b = core._Slots((0, 0, 0, 1)), core._Slots((0, 0, 1, 0))
    f, zero = Fraction(-3, 2), Fraction(0)
    rounds = ((a, (f, zero)), (b, (zero, f)), (a, (f, zero)))
    return [DemonicAction._table(u, points, pattern) for pattern, points in rounds]


@settings(max_examples=400, deadline=None)
@given(_kfair_prefixes(), st.integers(0, 4))
@example(_a_pattern_revisited_after_a_refinement(), 2)
def test_check_kfair_agrees_with_the_reference(actions, k):
    assert check_kfair(actions, k) == reference_check_kfair(actions, k)


# --- trace IO: the format 2 scalar rule --------------------------------------


def reference_hex_point(text):
    """The format 2 scalar rule as it stood before: parse the text, write
    the value back, and accept the text only if it is what was written."""
    num, _, den = text.partition("/")
    if max(len(num.removeprefix("-")), len(den)) > execution._MAX_HEX_DIGITS:
        raise ValueError(f"invalid scalar: more than {execution._MAX_HEX_DIGITS} hex digits")
    try:
        point = Fraction(int(num, 16), int(den, 16))
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"invalid scalar {reprlib.repr(text)}: expected lowercase hex 'num/den'"
        ) from None
    canonical = f"{point.numerator:x}/{point.denominator:x}"
    if canonical != text:
        raise ValueError(
            f"invalid scalar {reprlib.repr(text)}: this value is written {reprlib.repr(canonical)}"
        )
    return point


def reference_unproven_hex_pair(text):
    """The format 2 scalar rule without lowest terms: the integer pair of a
    text that is what the writer writes for that pair, with a positive
    denominator; any other text is refused as `reference_hex_point`
    refuses it."""
    try:
        return reference_hex_point(text).as_integer_ratio()
    except ValueError as exc:
        refused = exc
    num, _, den = text.partition("/")
    try:
        n, d = int(num, 16), int(den, 16)
    except ValueError:
        raise refused from None
    within = max(len(num.removeprefix("-")), len(den)) <= execution._MAX_HEX_DIGITS
    if within and d > 0 and text == f"{n:x}/{d:x}":
        return n, d
    raise refused


# Decimal digits outside ASCII that `int` reads as 0-9: Arabic-Indic and
# fullwidth.
_OTHER_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                 "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")
_SPACES = (" ", "\t", "\n", "\u2003")  # int() strips each, the last not ASCII
_MUTATIONS = ("none", "upper", "zero", "plus", "0x", "_", "space", "factor", "negative", "digit")


@st.composite
def _hex_texts(draw):
    """A canonical text of a Fraction of up to about 2600 bits, or one
    mutation of it: of one part's digits (upper case, a leading zero, `+`,
    `0x`, `_`, whitespace), of the value's form (a common factor, a
    negative denominator), or a decimal digit written outside ASCII."""
    x = Fraction(draw(st.integers(-(2**2600), 2**2600)), draw(st.integers(1, 2**2600)))
    n, d = x.numerator, x.denominator
    kind = draw(st.sampled_from(_MUTATIONS))
    if kind == "factor":
        c = draw(st.integers(2, 2**64))
        return f"{n * c:x}/{d * c:x}"
    if kind == "negative":
        return f"{-n:x}/{-d:x}"
    text = f"{n:x}/{d:x}"
    if kind == "digit":
        at = [i for i, ch in enumerate(text) if ch.isdigit()]
        i = draw(st.sampled_from(at))
        return text[:i] + draw(st.sampled_from(_OTHER_DIGITS))[int(text[i])] + text[i + 1:]
    sign, digits = ("-", f"{-n:x}") if n < 0 else ("", f"{n:x}")
    parts = [digits, f"{d:x}"]
    which = draw(st.integers(0, 1))
    part = parts[which]
    if kind == "upper":
        i = draw(st.integers(0, len(part) - 1))
        part = part[:i] + part[i].upper() + part[i + 1:]
    elif kind in ("zero", "plus", "0x"):
        part = {"zero": "0", "plus": "+", "0x": "0x"}[kind] + part
    elif kind == "_" and len(part) > 1:
        i = draw(st.integers(1, len(part) - 1))
        part = part[:i] + "_" + part[i:]
    elif kind == "space":
        space = draw(st.sampled_from(_SPACES))
        part = space + part if draw(st.booleans()) else part + space
    parts[which] = part
    return f"{sign}{parts[0]}/{parts[1]}"


@settings(max_examples=500, deadline=None)
@given(_hex_texts())
@example("-0/1")
@example("0/5")
@example("1A/2")
@example("\u0661/2")  # Arabic-Indic one
@example("\uff11/2")  # fullwidth one
@example("-\u0661/\uff12")
@example("1/-2")
@example("-1/-2")
@example("0x1/2")
@example("1/0X2")
@example("+1/2")
@example("1_0/3")
@example(" 1/2")
@example("1/2\n")
@example("01/2")
@example("-01/2")
@example("1/02")
@example("0/1")
@example("-a/7")
@example("f" * 83_050 + "/1")
def test_a_hex_text_is_accepted_iff_it_is_what_the_writer_writes(text):
    try:
        expected = reference_hex_point(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            execution._hex_point(text)
        assert str(refused.value) == str(exc)
    else:
        got = execution._hex_point(text)
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
    # Without the lowest-terms proof, a text is accepted iff the writer
    # writes it for the integer pair it parses, denominator positive, and
    # the pair is kept; a refusal reads as the proof's.
    try:
        pair = reference_unproven_hex_pair(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            execution._hex_point(text, lowest=False)
        assert str(refused.value) == str(exc)
    else:
        assert execution._hex_point(text, lowest=False).as_integer_ratio() == pair
