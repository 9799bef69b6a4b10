"""The package namespace is the union of the library modules' `__all__`, and
the named-field values it exports behave as immutable values."""

from __future__ import annotations

import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import lcmsim
from lcmsim import (
    GATHERED,
    VIOLATED,
    DemonicAction,
    FirstMoveProbe,
    ImpossibilityReport,
    Position,
    Robogram,
    RobotId,
    RobotUniverse,
    Side,
    Similarity,
    Spectrum,
    Trace,
    TraceRound,
    Verdict,
    adversary,
    core,
    demons,
    execution,
    properties,
    robograms,
    run_impossibility,
    sampling,
    to_max,
)

MODULES = (adversary, core, demons, execution, properties, robograms, sampling)


def test_package_exports_exactly_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), "a name is listed by two modules"
    assert sorted(lcmsim.__all__) == sorted(names)
    assert len(lcmsim.__all__) == len(set(lcmsim.__all__))


def test_each_exported_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lcmsim, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_version_is_pyprojects():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fp:
        assert lcmsim.__version__ == tomllib.load(fp)["project"]["version"]


def test_star_import_brings_every_exported_name():
    namespace: dict = {}
    exec("from lcmsim import *", namespace)
    assert set(lcmsim.__all__) <= set(namespace)


def _value_cases() -> list[tuple[type, dict, dict, str]]:
    """Each named-field value class: the keyword arguments of one value,
    other arguments that differ from them in every field, and the first
    value's repr."""
    u = RobotUniverse(1)
    p0, post = Position.from_piles(u, 0, 1), Position.from_piles(u, 1, 0)
    act = DemonicAction._of(u, (Fraction(1), Fraction(-1, 2)))
    rd = TraceRound(0, act, post)
    trace = Trace("stay", "fsync", p0, (rd,))
    report = run_impossibility(to_max, 1, 1)
    verdict = "Verdict(kind='no-violation-up-to', round=None, horizon=1, point=None)"
    return [
        (RobotId, dict(side=Side.RIGHT, index=4), dict(side=Side.LEFT, index=5),
         "RobotId(side=<Side.RIGHT: 'R'>, index=4)"),
        (RobotUniverse, dict(pile_size=1), dict(pile_size=2), "RobotUniverse(pile_size=1)"),
        (Similarity, dict(factor=Fraction(-1, 2), center=Fraction(3)),
         dict(factor=Fraction(2), center=Fraction(1, 3)),
         "Similarity(factor=Fraction(-1, 2), center=Fraction(3, 1))"),
        (Verdict, dict(kind=GATHERED, round=2, horizon=5, point=Fraction(1, 3)),
         dict(kind=VIOLATED, round=3, horizon=6, point=Fraction(1)),
         "Verdict(kind='tentatively-gathered', round=2, horizon=5, point=Fraction(1, 3))"),
        (TraceRound, dict(index=0, action=act, post=post),
         dict(index=1, action=DemonicAction._of(u, (Fraction(1),) * 2), post=p0),
         "TraceRound(index=0, action=DemonicAction(L0=1/1, R0=-1/2), post=Position(L0=1/1, R0=0/1))"),
        (Trace, dict(robogram_name="stay", demon_name="fsync", p0=p0, rounds=(rd,)),
         dict(robogram_name="to-max", demon_name="adversary", p0=post, rounds=()),
         "Trace(robogram_name='stay', demon_name='fsync', p0=Position(L0=0/1, R0=1/1), "
         "rounds=(TraceRound(index=0, action=DemonicAction(L0=1/1, R0=-1/2), "
         "post=Position(L0=1/1, R0=0/1)),))"),
        (Robogram, dict(name="mean", kind="spectrum", algo=Spectrum.centroid),
         dict(name="total", kind="raw", algo=Spectrum.total),
         "Robogram(name='mean', kind='spectrum')"),
        (FirstMoveProbe, dict(delta=Fraction(1)), dict(delta=Fraction(-1)),
         "FirstMoveProbe(delta=Fraction(1, 1))"),
        (ImpossibilityReport,
         dict(robogram_name=report.robogram_name, n=report.n, horizon=report.horizon,
              probe=report.probe, invariance_ok=report.invariance_ok, split=report.split,
              gather=report.gather, fairness=report.fairness,
              bivalence_failures=report.bivalence_failures, trace=report.trace),
         dict(robogram_name="stay", n=2, horizon=3, probe=FirstMoveProbe(Fraction(0)),
              invariance_ok=False, split=Verdict.violated(0), gather=Verdict.proven(),
              fairness={}, bivalence_failures=(0,), trace=trace),
         "ImpossibilityReport(robogram_name='to-max', n=1, horizon=1, "
         "probe=FirstMoveProbe(delta=Fraction(1, 1)), invariance_ok=True, "
         f"split={verdict}, gather=Verdict(kind='not-within-horizon', round=None, "
         f"horizon=1, point=None), fairness={{0: {verdict}, 1: {verdict}}}, "
         "bivalence_failures=(), trace=Trace(robogram_name='to-max', "
         "demon_name='adversary-swap-fsync', p0=Position(L0=0/1, R0=1/1), "
         "rounds=(TraceRound(index=0, action=DemonicAction(L0=1/1, R0=-1/1), "
         "post=Position(L0=1/1, R0=0/1)),)))"),
    ]


def test_value_classes_are_immutable_values():
    cases = _value_cases()
    assert len(cases) == 9
    for i, (cls, args, other, text) in enumerate(cases):
        value, twin = cls(**args), cls(*args.values())
        assert value == twin and not value != twin and repr(value) == repr(twin) == text, text
        try:  # hashed as the tuple of its fields, or unhashable as that tuple is
            expected = hash(tuple(args.values()))
        except TypeError:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(twin) == expected
        for name in args:
            assert cls(**{**args, name: other[name]}) != value, (cls, name)
            with pytest.raises(AttributeError):
                setattr(value, name, other[name])
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is args[name]
        unlike = cases[i - 1][0](**cases[i - 1][1])
        assert value != tuple(args.values()) and value != unlike
        assert value.__eq__(tuple(args.values())) is NotImplemented
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is cls and copy == value and repr(copy) == text
