"""A standing mutant suite: each row is a one-place defect that some test
must catch, kept so that a later change cannot leave it alive unnoticed.

A row names a module of `src/lcmsim`, an exact text that occurs in it
exactly once, the text that replaces it, and the test node ids that must
fail on the result.  For each row the package is copied to a temporary
directory and edited there, and the nodes run in a child
`python -m pytest` whose PYTHONPATH is that directory alone.  The child
must exit 1, "tests failed": 0 means the mutant survived, and 2 or more
means it broke collection or the run, which is not a kill.  A probe plugin
in the child prints where `lcmsim` was imported from, and the harness
asserts that it is the copy; the no-op row, whose edit changes nothing,
must exit 0.

To add a row, append a `_row(...)` to `ROWS` with a short id.  When a
change moves or rewrites a mutated text, the row's exactly-once assertion
fails and names it; update the row with the change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lcmsim"
# Each child run stays below the 300 s cap of the test that starts it.
TIMEOUT_S = 240
_PROBE = """\
def pytest_sessionfinish(session):
    import sys
    module = sys.modules.get("lcmsim")
    print("lcmsim imported from", getattr(module, "__file__", None))
"""


def _row(id, module, old, new, *nodes):
    return pytest.param(module, old, new, nodes, id=id)


_CERTIFIED = "tests/test_adversary.py::test_certified_fails_when_exactly_one_premise_fails"
_HEX_POINT = "tests/test_differential.py::test_a_hex_text_is_accepted_iff_it_is_what_the_writer_writes"
_MOVE = "tests/test_differential.py::test_a_move_is_the_fraction_sum_of_the_point_and_local_over_the_factor"

ROWS = [
    # `check` reads posts without the lowest-terms proof that replay gives.
    _row(
        "deferred-parse-takes-a-nonpositive-denominator", "execution.py",
        "point = Fraction(n, d) if lowest or d <= 0 else Fraction(_Ratio(n, d))",
        "point = Fraction(n, d) if lowest else Fraction(_Ratio(n, d))",
        _HEX_POINT,
    ),
    _row(
        "frames-read-the-deferred-posts", "execution.py",
        'row["frames"], "frames", like, texts.point, patterns',
        'row["frames"], "frames", like, posts.point, patterns',
        "tests/test_execution.py::test_check_proves_lowest_terms_only_for_p0_and_frames",
        "tests/test_execution.py::test_a_deferred_read_refuses_a_non_lowest_frame_even_when_a_post_had_it",
    ),
    # The trace's slot patterns, built anew for every table that writes them.
    _row(
        "slots-read-without-the-trace-patterns", "execution.py",
        "slots = patterns.get(key)", "slots = None",
        "tests/test_execution.py::test_read_trace_keeps_one_slot_tuple_per_distinct_pattern",
    ),
    _row(
        "mismatch-reported-before-the-proof", "cli.py",
        '            posts.prove(exc.round_index)\n            print(f"corrupt trace',
        '            print(f"corrupt trace',
        "tests/test_cli.py::test_check_reports_the_first_refusal_in_file_order",
    ),
    # The conjuncts of the format 2 scalar proof, each deleted.
    *(
        _row(f"hex-point-without-{name}", "execution.py", old, new, _HEX_POINT)
        for name, old, new in (
            ("lowest-terms", "        point.denominator == d\n        and ", "        "),
            ("ascii", "        and text.isascii()\n", ""),
            ("lower-case", "        and text == text.lower()\n", ""),
            ("numerator-length", "        and len(num) == _hex_digits(n)\n", ""),
            ("denominator-length", "        and len(den) == _hex_digits(d)\n", ""),
        )
    ),
    # The spectrum's mean over the product of the denominators, not their lcm.
    _row(
        "mean-ratio-over-the-product", "core.py",
        "den = lcm(den, d)", "den = den * d",
        "tests/test_differential.py::test_the_mean_ratio_is_the_fraction_sum_over_the_lcm_and_the_count",
    ),
    # The move without the factor's denominator, and with its sign dropped.
    _row("move-without-the-factor-denominator", "execution.py",
         "ln * fd * s, s * den", "ln * s, s * den", _MOVE),
    _row("move-with-the-factor-magnitude", "execution.py",
         "den = ld * fn  # local/f", "den = ld * abs(fn)  # local/f", _MOVE),
    # The checkers' own edge cases.
    _row(
        "always-split-skips-the-initial-position", "properties.py",
        "for index, position in enumerate(trace.positions()):",
        "for index, position in enumerate(trace.positions()[1:], 1):",
        "tests/test_properties.py::test_always_split_counts_the_initial_position",
    ),
    _row(
        "bivalence-ignores-the-counts", "adversary.py",
        "return position.slots.counts == (n, n)", "return len(position.slots.counts) == 2",
        "tests/test_adversary.py::test_balanced_bivalent_counts_robots_per_point_not_per_pile",
    ),
    # The four premises of `certified`, each deleted.
    _row("certified-without-split", "adversary.py",
         "            self.split.ok\n            and ", "            ", _CERTIFIED),
    _row("certified-without-fairness", "adversary.py",
         "            and self.fairness[1].ok\n", "", _CERTIFIED),
    _row("certified-without-invariance", "adversary.py",
         "            and self.invariance_ok\n", "", _CERTIFIED),
    _row("certified-without-bivalence", "adversary.py",
         "            and self.bivalence_complete\n", "", _CERTIFIED),
    # The adversary's construction: its piles, its branch and its report.
    _row(
        "adversary-takes-equal-piles", "cli.py",
        '        if a == b:\n            raise UsageError("initial piles must occupy two distinct locations")\n',
        "",
        "tests/test_cli.py::test_simulate_demon_usage_errors_name_the_fault",
    ),
    _row(
        "adversary-branch-flipped", "adversary.py",
        "if probe.branch == SWAP_FSYNC:", "if probe.branch != SWAP_FSYNC:",
        "tests/test_adversary.py::test_build_adversary_demon_picks_the_probe_branch",
    ),
    _row(
        "report-n-counts-every-robot", "adversary.py",
        '"n": self.trace.universe.pile_size', '"n": self.trace.universe.m',
        "tests/test_parity.py::test_adversary_trace_and_report_bytes_are_pinned",
    ),
    # A robot is its name: the names in robot order, and the `--init` map
    # read by name, each distinct text parsed once.
    _row(
        "robots-right-pile-first", "core.py",
        'tuple(f"L{i}" for i in range(n)) + tuple(f"R{i}" for i in range(n))',
        'tuple(f"R{i}" for i in range(n)) + tuple(f"L{i}" for i in range(n))',
        "tests/test_core.py::test_universe_enumeration_left_pile_first",
    ),
    _row(
        "init-parses-a-repeated-text", "execution.py",
        "if text not in points:", "if True:",
        "tests/test_execution.py::test_init_parses_repeated_and_non_canonical_strings_each_on_its_own",
    ),
    # A trace write cut short keeps the truncated file it created.  No row
    # removes a path that existed before the run: tests write to /dev/full.
    _row(
        "trace-write-keeps-a-truncated-file", "cli.py",
        "if not existed:\n            try:", "if False:\n            try:",
        "tests/test_cli.py::test_a_trace_write_cut_short_leaves_no_file_it_created",
    ),
    # The demon's factor with its sign flipped shows the other pile at -1.
    _row(
        "canonical-factor-sign", "adversary.py",
        "vn * (ud // g) - un * (vd // g)", "un * (vd // g) - vn * (ud // g)",
        "tests/test_adversary.py::test_activated_robots_always_see_the_canonical_view",
    ),
    # check_kfair keeps the counts of classes that a refinement split.
    _row(
        "kfair-keeps-parts-across-a-refinement", "demons.py",
        "classes, parts = joint, {}", "classes = joint",
        "tests/test_differential.py::test_check_kfair_agrees_with_the_reference",
    ),
]


def _run(tmp_path: Path, module: str, old: str, new: str, nodes: tuple[str, ...]):
    copy = tmp_path / "src"
    shutil.copytree(PACKAGE, copy / "lcmsim", ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "lcmsim" / module
    text = target.read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{module}: the mutated text must occur exactly once"
    target.write_text(text.replace(old, new), encoding="utf-8")
    (copy / "mutant_probe.py").write_text(_PROBE, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(copy), "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp_path / "hyp")}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "-p", "mutant_probe", *nodes],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert f"lcmsim imported from {copy / 'lcmsim' / '__init__.py'}" in child.stdout, child.stdout[-2000:]
    return child


@pytest.mark.parametrize("module, old, new, nodes", ROWS)
def test_the_named_tests_kill_the_mutant(tmp_path, module, old, new, nodes):
    assert old != new
    child = _run(tmp_path, module, old, new, nodes)
    assert child.returncode == 1, child.stdout[-2000:] + child.stderr[-2000:]


def test_the_harness_passes_an_unchanged_copy(tmp_path):
    old = "classes, parts = joint, {}"
    child = _run(tmp_path, "demons.py", old, old,
                 ("tests/test_differential.py::test_check_kfair_agrees_with_the_reference",))
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
