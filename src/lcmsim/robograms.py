"""Destination algorithms executed by every robot ("robograms").

A robogram maps an observed position, expressed in the observing robot's own
frame (observer at the origin), to a destination in that same frame.  It must
be deterministic and invariant under renaming of robots.  Spectrum-based
robograms see only the occupied locations and their counts, so they are
invariant when they read that multiset; a spectrum lists its locations in
order of their first robot, so one that reads the key order can still leak
a name, and the invariance screen runs for every kind.  Raw robograms take
the full position and exist so the invariance checker has something to
refute.

Robograms are immutable and pure; evaluating them concurrently is safe.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from typing import Callable

from .core import (
    Position,
    RobotId,
    ScalarLike,
    Side,
    Spectrum,
    _Value,
    as_scalar,
    format_scalar,
    parse_scalar,
    permute_position,
    spectrum,
)

__all__ = [
    "BUILTIN_SELECTORS",
    "NonRepresentableDestination",
    "Robogram",
    "broken_id_leak",
    "center_of_mass",
    "check_invariance",
    "convex",
    "evaluate",
    "raw_robogram",
    "resolve_robogram",
    "spectrum_robogram",
    "stay",
    "to_max",
    "to_min",
    "to_other_occupied",
]

SPECTRUM_BASED = "spectrum"
RAW = "raw"


class NonRepresentableDestination(ArithmeticError):
    """The robogram's destination left the rationals (e.g. a float or an
    irrational construction).  Built-ins never raise this."""


class Robogram(_Value, hidden=("algo",)):
    """A named destination computation.  `kind` records what `algo` takes:
    the location multiset (a read-only `Spectrum` where the package builds
    the view) or the whole position.  A spectrum robogram that reads the
    multiset is invariant under renaming; one that reads the key order, or
    a raw one, may not be, which `check_invariance` tests.  `algo` must
    not mutate its view: a Spectrum refuses item assignment with TypeError,
    which a run reports as ExecutionError (exit 3 from the CLI)."""

    __slots__ = ("name", "kind", "algo")

    def __init__(self, name: str, kind: str, algo: Callable[..., Fraction]) -> None:
        self._fill(name, kind, algo)


def evaluate(robogram: Robogram, view: Position | Mapping[Fraction, int]) -> Fraction:
    """Destination for the observer of `view`, in the observer's frame.  A
    spectrum robogram takes a location -> count mapping (the rounds pass a
    read-only Spectrum; a missing location counts 0), or a Position, of
    which it reads only the spectrum."""
    if robogram.kind == SPECTRUM_BASED and isinstance(view, Position):
        view = spectrum(view)
    out = robogram.algo(view)
    if type(out) is Fraction:  # what every built-in returns: nothing to check
        return out
    if isinstance(out, bool) or not isinstance(out, (int, Fraction)):
        raise NonRepresentableDestination(
            f"robogram {robogram.name!r} produced {out!r}; destinations must be exact rationals"
        )
    return as_scalar(out)


def check_invariance(
    robogram: Robogram, p: Position, sigma: Sequence[int], destination: Fraction | None = None
) -> bool:
    """True iff renaming the robots by `sigma`, a sequence of robot places
    (see `permute_position`), leaves the destination unchanged.  A caller that
    already holds `evaluate(robogram, p)` passes it as `destination`."""
    if destination is None:
        destination = evaluate(robogram, p)
    return destination == evaluate(robogram, permute_position(p, sigma))


def spectrum_robogram(name: str, fn: Callable[[Spectrum], Fraction]) -> Robogram:
    """Build a robogram from a function of the location multiset.  It is
    invariant under renaming if `fn` reads only the multiset: the keys are
    in order of their first robot, so a result that depends on that order
    (the first key, say) leaks a name.  `fn` gets a read-only
    Spectrum: it may iterate, look up (a missing location counts 0), call
    `most_common`, `total`, `elements` and `centroid`, and compare it, but
    not assign to it; it has no `copy` and no Counter arithmetic
    (`Counter(view)` gives one).  In a round the view is framed: it builds
    its locations when first read, and its `centroid` builds none.
    Iterating costs no hashing; the first lookup hashes every location
    once."""
    return Robogram(name, SPECTRUM_BASED, fn)


def raw_robogram(name: str, fn: Callable[[Position], Fraction]) -> Robogram:
    """Build a robogram from an arbitrary position function.  Nothing
    guarantees permutation invariance; use `check_invariance`."""
    return Robogram(name, RAW, fn)


def _scaled_mean(num: int, den: int) -> Callable[[Mapping[Fraction, int]], Fraction]:
    """`num/den` times a view's centroid, as one Fraction.  A framed view's
    centroid is its frame's image of the round's centroid, with the scale
    folded into the image (`Spectrum._scaled_centroid`), so no location of
    the view is built."""

    def mean(view: Mapping[Fraction, int]) -> Fraction:
        if not isinstance(view, Spectrum):
            view = Spectrum._view(view)
        return view._scaled_centroid(num, den)

    return mean


_mean = _scaled_mean(1, 1)


def _other_occupied(view: Spectrum) -> Fraction:
    # Defined only on bivalent views seen from one of the two locations;
    # anywhere else the deterministic fallback is to stay put.  The two keys
    # are compared with 0 rather than looked up, so no location is hashed.
    if len(view) == 2:
        a, b = view
        if a == 0:
            return b
        if b == 0:
            return a
    return Fraction(0)


stay = spectrum_robogram("stay", lambda view: Fraction(0))
center_of_mass = spectrum_robogram("center-of-mass", _mean)
to_other_occupied = spectrum_robogram("to-other-occupied", _other_occupied)
to_max = spectrum_robogram("to-max", max)
to_min = spectrum_robogram("to-min", min)


def convex(coefficient: ScalarLike) -> Robogram:
    """Move to `coefficient` times the center of mass of the view.  The
    coefficient is folded into the mean, so a framed view's destination is
    one image of the round's centroid, not an image and a product."""
    lam = as_scalar(coefficient)
    return spectrum_robogram(f"convex:{format_scalar(lam)}", _scaled_mean(*lam.as_integer_ratio()))


# Negative-test robogram: leaks a robot identity, so renaming robots changes
# the answer whenever L0 trades places with a robot elsewhere.
broken_id_leak = raw_robogram("broken-id-leak", lambda p: p[RobotId(Side.LEFT, 0)])


_FIXED = {
    r.name: r for r in (stay, center_of_mass, to_other_occupied, to_max, to_min, broken_id_leak)
}

BUILTIN_SELECTORS = tuple(sorted(_FIXED)) + ("convex:<num/den>",)


def resolve_robogram(selector: str) -> Robogram:
    """Look up a robogram by its selector string, e.g. "to-max" or "convex:1/3"."""
    name = selector.strip()
    if name in _FIXED:
        return _FIXED[name]
    if name.startswith("convex:"):
        return convex(parse_scalar(name.removeprefix("convex:")))
    raise ValueError(
        f"unknown robogram selector {selector!r}; available: {', '.join(BUILTIN_SELECTORS)}"
    )
