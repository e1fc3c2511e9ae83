"""Check that the test suite still kills a fixed table of mutants.

Run with no arguments:

    python3 tools/mutants.py

A mutant is ``(file, old, new, tests)``: ``file`` is a path under the
repository root, ``old`` is text that must occur in it exactly once, and
``tests`` are the pytest node ids that must fail once ``old`` is replaced by
``new``.  A node id without a parameter suffix stands for all of its
parameters.  For each mutant the tool copies ``src/``, ``tests/`` and
``pyproject.toml`` to a new temporary directory, applies the mutant there
and runs the named tests under an address-space cap and a timeout.  Before
any mutant, every named test runs once on an unmutated copy and must pass,
so a failure under a mutant is the mutant's doing.

Exit status: 0 when every mutant is killed; 1 when a mutant survives (some
named test does not fail), a run times out, or a named test fails on the
unmutated copy; 2 when an entry is stale (its old text does not occur
exactly once), in which case nothing is run.

A change that backs a test with a mutant adds the mutant to ``MUTANTS``.
The tool is not part of the tier-1 suite: it runs one pytest session per
mutant (about 100 s for the 32 mutants below on a 2-vCPU machine).
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY = 1 << 30  # bytes of address space for each pytest run
TIMEOUT = 600  # seconds for each pytest run

Mutant = namedtuple("Mutant", ("file", "old", "new", "tests"))

_QPOLY = "tests/test_qpoly.py::"
_BOX = "tests/test_boxpartitions.py::"
_CAYLEY = "tests/test_cayley.py::"
_MONO = "tests/test_monomials.py::"
_WIT = "tests/test_witnesses.py::"
_CLI = "tests/test_cli.py::"

MUTANTS = [
    # the shifted combine writes one place too high
    Mutant("src/semiinv/qpoly.py",
           "cs[s:end] = map(op, cs[s:end], bc)",
           "cs[s + 1:end + 1] = map(op, cs[s + 1:end + 1], bc)",
           (_QPOLY + "TestScansMatchLoops::test_sub_shifted",
            _QPOLY + "TestScansMatchLoops::test_sum_difference_and_shift")),
    # delta reads the weight below its own
    Mutant("src/semiinv/boxpartitions.py",
           "1 << m.bit_length()), m + 1)[m]",
           "1 << m.bit_length()), m + 1)[m - 1]",
           (_BOX + "TestDelta::test_matches_brute_force_difference",
            _BOX + "TestDelta::test_worked_cell")),
    # the delta identity counts its witness from 1
    Mutant("src/semiinv/differences.py",
           "return _first(map(ne, map(sub, cs, (0,) + cs), rhs))",
           "return _first(map(ne, map(sub, cs, (0,) + cs), rhs), 1)",
           ("tests/test_differences.py::TestVerifiers::test_F_delta_identity_failure",)),
    # the pivot rule prefers the longer of two rows with equal entries
    Mutant("src/semiinv/cayley.py",
           "len(row) < size",
           "len(row) > size",
           (_CAYLEY + "TestEliminationOrder::test_pivot_is_the_smallest_candidate[length]",
            _CAYLEY + "TestEliminationOrder::test_pivot_rows_golden")),
    # no content pass after a rescale
    Mutant("src/semiinv/cayley.py",
           "g = gcd(*row.values())",
           "g = 1",
           (_CAYLEY + "TestEliminationOrder::test_rescaled_row_divided_by_its_content",
            _CAYLEY + "TestEliminationOrder::test_pivot_rows_golden")),
    # too few kernel vectors reported as a bare RuntimeError
    Mutant("src/semiinv/witnesses.py",
           "raise SylvesterMismatchError(",
           "raise RuntimeError(",
           (_WIT + "TestKernelTriangleGuard::test_too_few_kernel_vectors_raise",)),
    # a gauss link mirrored without comparing its halves
    Mutant("src/semiinv/qpoly.py",
           "if out[len(out) - h:] == head:",
           "if True:",
           (_QPOLY + "TestPascalTable::test_step_rejects_inexact_division",)),
    # a box-count table mirrored without comparing its halves
    Mutant("src/semiinv/boxpartitions.py",
           "if out[len(out) - h:] == head:",
           "if True:",
           (_BOX + "TestCountBudget::test_table_not_read_backwards_is_kept_as_computed",)),
    # a square counts each cross pair once
    Mutant("src/semiinv/monomials.py",
           "twice = 2 * c1",
           "twice = c1",
           (_MONO + "TestSIPoly::test_pow_makes_only_the_products_it_needs",)),
    # a sum whose coefficients all cancel keeps them as zeros
    Mutant("src/semiinv/monomials.py",
           "return {}",
           "return terms",
           (_MONO + "TestSIPoly::test_add_cancel",)),
    # delta fills the whole box instead of cutting it to the weight
    Mutant("src/semiinv/boxpartitions.py",
           "_delta_row(min(max(k, n), m), min(k, n, 1 << m.bit_length()), m + 1)",
           "_delta_row(k, n, m + 1)",
           (_BOX + "TestDelta::test_long_box_at_small_weight",)),
    # delta cuts the columns to the weight, a new box at every weight
    Mutant("src/semiinv/boxpartitions.py",
           "min(k, n, 1 << m.bit_length())",
           "min(k, n, m)",
           (_BOX + "TestCountBudget::test_delta_sweep_stores_at_most_two_fills[square]",)),
    # delta keeps the box's orientation, so a long side is the columns
    Mutant("src/semiinv/boxpartitions.py",
           "_delta_row(min(max(k, n), m), min(k, n, 1 << m.bit_length())",
           "_delta_row(min(k, m), min(n, 1 << m.bit_length())",
           (_BOX + "TestCountBudget::test_delta_sweep_stores_at_most_two_fills[long]",
            _CLI + "TestDimCommand::test_huge_box_on_a_line_at_large_weight[k=1]")),
    # count fills the whole box however thin it is
    Mutant("src/semiinv/boxpartitions.py",
           "if min(k, n) <= m or n * k > _COUNT_BUDGET:",
           "if n * k > _COUNT_BUDGET:",
           (_BOX + "TestCount::test_thin_box_at_small_weight",)),
    # count fills a box wider than the weight both ways however large it is
    Mutant("src/semiinv/boxpartitions.py",
           "if min(k, n) <= m or n * k > _COUNT_BUDGET:",
           "if min(k, n) <= m:",
           (_BOX + "TestCount::test_wide_box_at_small_weight",)),
    # count keeps a thin cut box's orientation, so its long side is the columns
    Mutant("src/semiinv/boxpartitions.py",
           "if k < n and k * n * n > 2 * _COUNT_BUDGET:",
           "if False:",
           (_BOX + "TestCount::test_thin_box_fills_its_long_side_as_rows",)),
    # the eviction keeps the requested column whole
    Mutant("src/semiinv/boxpartitions.py",
           "if room < 0 or (j, n) not in _COUNT_TABLES:",
           "if (j, n) not in _COUNT_TABLES:",
           (_BOX + "TestCountBudget::test_thin_fill_keeps_no_more_column_than_its_row",
            _CLI + "TestDimCommand::test_huge_box_on_a_line_at_large_weight[n=1]")),
    # a square counts its diagonal terms twice
    Mutant("src/semiinv/monomials.py",
           "acc[key] = get(key, 0) + c1 * c1",
           "acc[key] = get(key, 0) + 2 * c1 * c1",
           (_MONO + "TestPackedKeysAgainstReference::test_arithmetic_and_canonical_forms",)),
    # a factor's lead read at its own width, not the products' common one
    Mutant("src/semiinv/cayley.py",
           "_repack({min(f._terms): 0}, f.n, _width(f._deg), w)",
           "_repack({min(f._terms): 0}, f.n, _width(f._deg), _width(f._deg))",
           (_WIT + "TestMixedDegreeBounds::test_lemma_combine_accepts_decreasing_leads",
            _WIT + "TestMixedDegreeBounds::test_lemma_combine_rejects_increasing_leads")),
    # a product's degree taken as its factors' largest, not their sum
    Mutant("src/semiinv/cayley.py",
           "sum(bideg[id(f)][0] for f in p) == k",
           "max(bideg[id(f)][0] for f in p) == k",
           (_CAYLEY + "TestCertify::test_product_tamper_rejected_by_its_check[other-stratum]",)),
    # a product's bidegree never compared with the stratum
    Mutant("src/semiinv/cayley.py",
           "sum(bideg[id(f)][0] for f in p) == k and sum(bideg[id(f)][1] for f in p) == m",
           "True",
           (_CAYLEY + "TestCertify::test_product_tamper_rejected_by_its_check[other-stratum]",
            _CAYLEY + "TestKernel::test_verify_rejects_vectors_of_another_stratum")),
    # a packed lane read as an unsigned digit
    Mutant("src/semiinv/monomials.py",
           "c -= full",
           "pass",
           (_MONO + "TestTimesEach::test_lanes_at_their_bound_and_below_zero",
            _WIT + "TestPackedRows::test_one_product_per_staircase_row")),
    # packed lanes one bit too narrow for a square's cross terms
    Mutant("src/semiinv/monomials.py",
           "bits = bound.bit_length() + 2",
           "bits = bound.bit_length() + 1",
           (_MONO + "TestTimesEach::test_lanes_at_their_bound_and_below_zero",)),
    # a square's cross lanes one lane lower, onto its unwanted products
    Mutant("src/semiinv/monomials.py",
           "t - 2 + j",
           "t - 3 + j",
           (_MONO + "TestTimesEach::test_lanes_at_their_bound_and_below_zero",
            _WIT + "TestPackedRows::test_one_product_per_staircase_row")),
    # term fragments keyed by the packed key alone, whatever its width
    Mutant("src/semiinv/monomials.py",
           "fragments.setdefault((n, w), {})",
           "fragments.setdefault(0, {})",
           (_MONO + "TestJsonBytesEach::test_same_key_at_two_widths",)),
    # term fragments made again for every vector
    Mutant("src/semiinv/monomials.py",
           "frags = fragments.setdefault((n, w), {})",
           "frags = {}",
           (_CLI + "TestKernelJson::test_each_distinct_monomial_formatted_once",)),
    # the sweep stops above weight 0
    Mutant("src/semiinv/cayley.py",
           "range(top, -1, -1)",
           "range(top, 0, -1)",
           (_CAYLEY + "TestSylvesterGrid::test_column_sweep_matches_single_strata",
            _CLI + "TestVerifyCommand::test_sylvester_benchmark_grid_golden")),
    # the next weight's columns lose their least key
    Mutant("src/semiinv/cayley.py",
           "sorted(mat.rows)",
           "sorted(mat.rows)[1:]",
           (_CAYLEY + "TestSylvesterGrid::test_column_sweep_matches_single_strata",
            _CLI + "TestVerifyCommand::test_sylvester_benchmark_grid_golden")),
    # the identity fills weights where (n, k-1) is short of full row rank
    Mutant("src/semiinv/cayley.py",
           "while s < limit and left[s + 1][1]:",
           "while s < limit:",
           (_CAYLEY + "TestSylvesterGrid::test_left_column_short_of_full_rank_is_eliminated",)),
    # the a_0-free block read one weight too low in the column below
    Mutant("src/semiinv/cayley.py",
           "below[m - k]",
           "below[m - k - 1]",
           (_CAYLEY + "TestSylvesterGrid::test_columns_match_the_plain_sweep",
            _CLI + "TestVerifyCommand::test_sylvester_benchmark_grid_golden")),
    # the derived full-rank flag taken from (n, k-1), not (n-1, k)
    Mutant("src/semiinv/cayley.py",
           "out.append((left[m][0] + nullity, full))",
           "out.append((left[m][0] + nullity, left[m][1]))",
           (_CAYLEY + "TestSylvesterGrid::test_derived_flag_is_the_column_below",)),
    # build_D_matrix refuses weight 0
    Mutant("src/semiinv/cayley.py",
           "if not 0 <= m <= n * k:",
           "if not 0 < m <= n * k:",
           (_CAYLEY + "TestMatrix::test_weight_zero_matrix",)),
]


def stale(mutants: list[Mutant], root: Path) -> list[Mutant]:
    """The mutants whose old text does not occur exactly once in their file."""
    return [mu for mu in mutants if (root / mu.file).read_text().count(mu.old) != 1]


def _copy(root: Path, dest: Path) -> None:
    shutil.copytree(root / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(root / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(root / "pyproject.toml", dest / "pyproject.toml")


def _cap() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def failing(tree: Path, tests: tuple[str, ...]) -> set[str] | None:
    """The node ids among ``tests`` that fail or error in ``tree``, or None
    when the run times out."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
           *tests]
    try:
        run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                             preexec_fn=_cap, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None
    # short summary lines: "FAILED <node id> - <message>" or "ERROR <node id>"
    bad = [line.split(" ", 1)[1].split(" - ", 1)[0]
           for line in run.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return {t for t in tests if any(b == t or b.startswith(t + "[") for b in bad)}


def main(mutants: list[Mutant] = MUTANTS, root: Path = ROOT) -> int:
    old = stale(mutants, root)
    for mu in old:
        print(f"STALE {mu.file}: {mu.old!r} does not occur exactly once")
    if old:
        return 2
    status = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "base"
        _copy(root, tree)
        named = tuple(dict.fromkeys(t for mu in mutants for t in mu.tests))
        bad = failing(tree, named)
        if bad != set():
            print("BASELINE", "timed out" if bad is None else f"fails {sorted(bad)}")
            return 1
        for i, mu in enumerate(mutants):
            tree = Path(tmp) / f"mutant{i}"
            _copy(root, tree)
            path = tree / mu.file
            path.write_text(path.read_text().replace(mu.old, mu.new))
            killed = failing(tree, mu.tests)
            if killed is None:
                verdict, status = "TIMEOUT", 1
            elif killed == set(mu.tests):
                verdict = "killed"
            else:
                verdict, status = f"SURVIVED {sorted(set(mu.tests) - killed)}", 1
            print(f"{verdict}: {mu.file}: {mu.old!r} -> {mu.new!r}")
            shutil.rmtree(tree)
    return status


if __name__ == "__main__":
    sys.exit(main())
