from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from lcmsim.adversary import SWAP_FSYNC, run_impossibility
from lcmsim.core import Position, RobotUniverse, Similarity, spectrum
from lcmsim.robograms import (
    BUILTIN_SELECTORS,
    SPECTRUM_BASED,
    NonRepresentableDestination,
    broken_id_leak,
    center_of_mass,
    check_invariance,
    convex,
    evaluate,
    raw_robogram,
    resolve_robogram,
    spectrum_robogram,
    stay,
    to_max,
    to_min,
    to_other_occupied,
)
from lcmsim.sampling import random_permutation, random_position


def _three_point_view():
    # observer at 0 with a companion, singletons at 2 and 5
    u = RobotUniverse(2)
    return Position(u, {"L0": 0, "L1": 0, "R0": 2, "R1": 5})


def test_stay_always_answers_origin():
    assert evaluate(stay, _three_point_view()) == Fraction(0)


def test_center_of_mass_known_values():
    u = RobotUniverse(1)
    assert evaluate(center_of_mass, Position.from_piles(u, 0, 1)) == Fraction(1, 2)
    assert evaluate(center_of_mass, _three_point_view()) == Fraction(7, 4)


def test_to_max_and_to_min_pick_extremes():
    view = _three_point_view()
    assert evaluate(to_max, view) == Fraction(5)
    assert evaluate(to_min, view) == Fraction(0)


def test_to_other_occupied_on_bivalent_views():
    u = RobotUniverse(2)
    bivalent = Position.from_piles(u, 0, Fraction(1, 3))
    assert evaluate(to_other_occupied, bivalent) == Fraction(1, 3)
    # not bivalent: stay put
    assert evaluate(to_other_occupied, _three_point_view()) == Fraction(0)
    # the observer's point listed second
    assert evaluate(to_other_occupied, Position.from_piles(u, Fraction(1, 3), 0)) == Fraction(1, 3)
    # bivalent but observer not on a pile: stay put
    shifted = bivalent.map_locations(lambda x: x + 1)
    assert evaluate(to_other_occupied, shifted) == Fraction(0)


def test_builtin_spectrum_robograms_look_and_compute_without_hashing(monkeypatch):
    # The round's spectrum is built (and its locations hashed) once; each
    # frame's view is then mapped and evaluated with Fraction.__hash__
    # raising, for every built-in spectrum robogram, on a scattered and on a
    # bivalent position, seen from each occupied point.
    fixed = [resolve_robogram(name) for name in BUILTIN_SELECTORS if ":" not in name]
    robograms = [r for r in fixed if r.kind == SPECTRUM_BASED] + [convex("1/3"), convex("-5/2")]
    u = RobotUniverse(3)
    scattered = Position(u, dict(zip(u.robots, map(Fraction, (0, 0, 2, 5, -7, "1/3")))))
    bivalent = Position.from_piles(u, Fraction(-2, 3), Fraction(5, 7))
    cases = []
    for position in (scattered, bivalent):
        world = spectrum(position)
        counts = Counter(position.locations())
        for here in world:
            for factor in (Fraction(1), Fraction(-3, 2), Fraction(2, 7)):
                frame = Similarity(factor, here)
                local = Counter({frame.apply(x): c for x, c in counts.items()})
                for robogram in robograms:
                    cases.append((robogram, frame, world, robogram.algo(local)))

    def no_hashing(self):
        raise AssertionError("a location was hashed")

    monkeypatch.setattr(Fraction, "__hash__", no_hashing)
    got = [evaluate(robogram, frame.map_position(world)) for robogram, frame, world, _ in cases]
    monkeypatch.undo()
    assert got == [expected for *_, expected in cases]
    assert len({r.name for r in robograms}) == 7


def test_convex_scales_the_mean():
    u = RobotUniverse(1)
    p = Position.from_piles(u, 0, 1)
    assert evaluate(convex("1/3"), p) == Fraction(1, 6)
    assert evaluate(convex(2), p) == Fraction(1)
    assert convex(Fraction(1, 3)).name == "convex:1/3"


def test_broken_id_leak_reads_one_robot():
    p = _three_point_view()
    assert evaluate(broken_id_leak, p) == p["L0"]


def test_resolve_robogram_selectors():
    assert resolve_robogram("stay") is stay
    assert resolve_robogram("center-of-mass") is center_of_mass
    assert resolve_robogram(" to-max ") is to_max
    assert resolve_robogram("convex:2/3").name == "convex:2/3"
    with pytest.raises(ValueError):
        resolve_robogram("teleport")
    with pytest.raises(ValueError):
        resolve_robogram("convex:0.5")


def test_evaluate_rejects_non_rational_outputs():
    bad_float = raw_robogram("bad-float", lambda p: 0.5)
    bad_bool = raw_robogram("bad-bool", lambda p: True)
    u = RobotUniverse(1)
    p = Position.from_piles(u, 0, 1)
    with pytest.raises(NonRepresentableDestination):
        evaluate(bad_float, p)
    with pytest.raises(NonRepresentableDestination):
        evaluate(bad_bool, p)


def test_evaluate_takes_an_int_as_a_fraction():
    one = spectrum_robogram("one", lambda view: 1)
    out = evaluate(one, Position.from_piles(RobotUniverse(2), 0, 1))
    assert out == Fraction(1) and type(out) is Fraction
    report = run_impossibility(one, 2, 10)
    assert report.probe.branch == SWAP_FSYNC and report.certified


def test_spectrum_builtins_are_permutation_invariant():
    rng = random.Random(101)
    robograms = (stay, center_of_mass, to_other_occupied, to_max, to_min, convex("1/3"))
    for _ in range(300):
        u = RobotUniverse(rng.randint(1, 4))
        p = random_position(u, rng)
        sigma = random_permutation(u, rng)
        for r in robograms:
            assert check_invariance(r, p, sigma)


def test_broken_id_leak_has_a_counterexample():
    u = RobotUniverse(1)
    p = Position.from_piles(u, 0, 1)
    assert not check_invariance(broken_id_leak, p, (1, 0))


def test_invariance_holds_trivially_under_identity():
    u = RobotUniverse(2)
    p = random_position(u, random.Random(5))
    assert check_invariance(broken_id_leak, p, tuple(range(u.m)))
