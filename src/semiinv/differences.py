"""Symmetric differences of Gaussian coefficients and their grid scanners.

Five families are built here, all exactly, as differences of one Gaussian
coefficient and a power-of-q shift of another:

* ``F(n, k)``:  gauss(n+k, k) - q^n * gauss(n+k-2, k-2)
* ``G(n, k, r)``:  gauss(n+k, k) - q^(n*r/2) * gauss(n+k-r, k-r)
* ``strange(n, k, r)``:  gauss(n-1, k) - q^(n-2rk+1+4(r-1)) * gauss(n-1+4(r-1), k-2)
* ``stanley_zanello(k, m, b)``:  gauss(m, k) - q^(k(m-b)/2+b-2k+2) * gauss(b, k-2)
* ``bergeron(a, b, c, d)``:  gauss(b+c, b) - gauss(a+d, d)  (a minimal, ad == bc)

Coefficient ``m`` of ``F`` equals ``p(k,n,m) - p(k-2,n,m-n)`` and likewise
for ``G`` with ``r`` in place of 2, which ties these polynomials to
semi-invariant dimension differences and is what the verifiers exploit.

Each verifier and scanner is a suite in ``_SUITES`` (a family, its
parameter names and an ordered list of checks), and one loop, ``_cell``,
runs a suite's checks on a cell up to the first failure.  Verifiers ASSERT
proved facts: a failure raises with its witness index and would mean a bug
in this package, not new mathematics.  Scanners only REPORT findings for
the open conjecture families: a failure is recorded with its index and the
later checks are skipped.  Grid iteration is row-major and deterministic,
and parallel runs (at most one worker per CPU the process may run on) keep
grid order.  The process pool is imported only when a run has more than one
worker, so importing this module, or a serial scan, never loads
``multiprocessing``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import partial
from operator import ne, sub
from pathlib import Path

from .boxpartitions import _delta_row
from .monomials import _Record
from .qpoly import (
    QPoly,
    _combine,
    _first,
    _strictness_break,
    _unimodality_break,
    first_negative_index,
    gauss,
    symmetry_break,
)


class VerificationError(RuntimeError):
    """A proved property failed to verify; carries the witnessing cell."""

    def __init__(self, message: str, family: str, params: dict, witness: int | None):
        super().__init__(message)
        self.family = family
        self.params = params
        self.witness = witness


def coefficients_digest(p: QPoly) -> str:
    # one C-level format call, with no string object per coefficient; every
    # coefficient of a QPoly is an int, so "%s" writes each one in decimal
    cs = p.coeffs
    data = (("%s," * len(cs))[:-1] % cs).encode()
    return "sha256:" + hashlib.sha256(data).hexdigest()


class ScanReport(_Record):
    """Outcome of the checks run on one parameter tuple.

    ``witness`` is the first offending coefficient index and is present
    exactly when some check failed.  Reports with equal fields are equal.
    """

    __slots__ = _fields = ("family", "params", "checks", "witness", "coefficients_digest")

    def __init__(self, family: str, params: dict, checks: dict, witness: int | None,
                 coefficients_digest: str):
        failed = any(not ok for ok in checks.values())
        if failed and witness is None:
            raise ValueError("failed checks require a witness index")
        if not failed and witness is not None:
            raise ValueError("witness given although every check passed")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "coefficients_digest", coefficients_digest)

    def __eq__(self, other):
        same = type(other) is ScanReport
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "checks": self.checks,
            "witness": self.witness,
            "coefficients_digest": self.coefficients_digest,
        }


# ---------------------------------------------------------------------------
# family constructors


def F(n: int, k: int) -> QPoly:
    """Two-step difference family ``G(n, k, 2)``; symmetric of degree ``n*k``."""
    return G(n, k, 2)


def G(n: int, k: int, r: int) -> QPoly:
    """r-step difference family; requires ``k >= r >= 1`` and ``n*r`` even."""
    if not 1 <= r <= k:
        raise ValueError(f"need k >= r >= 1, got k={k}, r={r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if (n * r) % 2:
        raise ValueError(f"n*r must be even, got n={n}, r={r}")
    return _combine(sub, gauss(n + k, k), gauss(n + k - r, k - r), n * r // 2)


def strange(n: int, k: int, r: int) -> QPoly:
    """Odd-n difference family with the shifted, widened second term.

    Not asserted nonnegative: whether these are nonnegative and unimodal is
    open, so scanners only record what they find.
    """
    if n % 2 == 0:
        raise ValueError(f"need n odd, got {n}")
    if k < 2 or r < 1:
        raise ValueError(f"need k >= 2 and r >= 1, got k={k}, r={r}")
    shift = n - 2 * r * k + 1 + 4 * (r - 1)
    if shift < 0:
        raise ValueError(
            f"parameters outside the stated range: n={n} < {2 * r * k - 4 * r + 3}"
        )
    return _combine(sub, gauss(n - 1, k), gauss(n - 1 + 4 * (r - 1), k - 2), shift)


def stanley_zanello(k: int, m: int, b: int) -> QPoly:
    """Generalized difference family ``gauss(m,k) - q^e * gauss(b,k-2)``.

    The exponent ``e = k(m-b)/2 + b - 2k + 2`` must be a nonnegative
    integer.  With ``b = m - 2`` this reduces exactly to ``F(m-k, k)``.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if b > m:
        raise ValueError(f"need b <= m, got b={b}, m={m}")
    num = k * (m - b)
    if num % 2:
        raise ValueError(f"k*(m-b) = {num} is odd; exponent not an integer")
    e = num // 2 + b - 2 * k + 2
    if e < 0:
        raise ValueError(f"exponent {e} is negative")
    return _combine(sub, gauss(m, k), gauss(b, k - 2), e)


def bergeron(a: int, b: int, c: int, d: int) -> QPoly:
    """Difference ``gauss(b+c, b) - gauss(a+d, d)`` with a minimal, ad == bc."""
    if min(a, b, c, d) < 1:
        raise ValueError("all four parameters must be positive")
    if a != min(a, b, c, d):
        raise ValueError(f"a={a} is not the smallest of {(a, b, c, d)}")
    if a * d != b * c:
        raise ValueError(f"need a*d == b*c, got {a * d} != {b * c}")
    return gauss(b + c, b) - gauss(a + d, d)


# ---------------------------------------------------------------------------
# the check loop shared by verifiers and scanners


# one verifier or scanner: the name of its constructor in this module, its
# report fields, the keys of _CHECKS it runs in order, and whether a failure
# raises VerificationError instead of being recorded
_Suite = namedtuple("_Suite", ("family", "param_names", "checks", "proved"))


_SUITES = {
    "verify-F": _Suite("F", ("n", "k"), ("symmetric", "unimodal", "delta_identity"), True),
    "verify-G": _Suite("G", ("n", "k", "r"), ("symmetric", "strict_except_ends"), True),
    "F-strict": _Suite("F", ("n", "k"), ("nonnegative", "unimodal", "strict_except_ends"), False),
    "strange": _Suite("strange", ("n", "k", "r"), ("nonnegative", "unimodal"), False),
    "bergeron": _Suite("bergeron", ("a", "b", "c", "d"), ("nonnegative", "unimodal"), False),
}

# check name -> module-level function returning the first offending index or
# None.  Families and checks are looked up by name when a cell runs, so rebound
# module attributes (a tracer's or a test's) are seen and suites pickle cheaply.
_CHECKS = {
    "nonnegative": "first_negative_index",
    "symmetric": "symmetry_break",
    "unimodal": "_unimodality_break",
    "strict_except_ends": "_strictness_break",
    "delta_identity": "_delta_identity_break",
}

# checks defined on nonnegative coefficients only; their functions above do
# not scan for a negative one, so _cell does, unless "nonnegative" already has
_ON_NONNEGATIVE = ("unimodal", "strict_except_ends")


def _delta_identity_break(poly: QPoly, n: int, k: int) -> int | None:
    """First ``m <= n*k/2`` where the coefficient delta of ``F(n, k)`` misses
    ``delta(k,n,m) - delta(k-2,n,m-n)``, else None.

    The right-hand side is two delta rows, ``k`` and ``k-2`` (the second
    shifted up by ``n``), each one read of a box-count vector.
    """
    size = n * k // 2 + 1
    cs = poly.coeffs[:size]
    cs += (0,) * (size - len(cs))
    # delta(k-2, n, m-n) is 0 for m < n
    rhs = map(sub, _delta_row(k, n, size), (0,) * n + _delta_row(k - 2, n, size - n))
    return _first(map(ne, map(sub, cs, (0,) + cs), rhs))


def _cell(suite: _Suite, params: tuple[int, ...]) -> ScanReport:
    """Run ``suite``'s checks on one cell in order, up to the first failure.

    A proved suite raises :class:`VerificationError` there, also at a
    negative coefficient that a shape check meets.  A recorded suite stores
    the failure and omits the later checks, since they are not defined on
    the failing input.  A cell is scanned for negative coefficients once:
    by its "nonnegative" check, or else by its first shape check, which
    fails at the first negative index (only proved suites skip
    "nonnegative").
    """
    poly = globals()[suite.family](*params)
    named = dict(zip(suite.param_names, params))
    checks: dict = {}
    witness = None
    for check in suite.checks:
        if check in _ON_NONNEGATIVE and "nonnegative" not in checks:
            witness = first_negative_index(poly)
        if witness is None:
            brk = globals()[_CHECKS[check]]
            # only the delta identity needs the cell itself
            witness = brk(poly, *params) if check == "delta_identity" else brk(poly)
        checks[check] = witness is None
        if witness is not None:
            if suite.proved:
                msg = f"{suite.family}{params} fails {check} at index {witness}"
                raise VerificationError(msg, suite.family, named, witness)
            break
    return ScanReport(suite.family, named, checks, witness, coefficients_digest(poly))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on, where the platform tells;
    else ``os.cpu_count()``, and 1 if that is unknown too."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cells(suite: _Suite, cells: list[tuple], jobs: int) -> list[ScanReport]:
    """Reports for ``cells`` in grid order, on at most ``_usable_cpus()`` workers."""
    jobs = min(jobs, _usable_cpus())
    if jobs <= 1 or len(cells) <= 1:
        return [_cell(suite, c) for c in cells]
    # imported here so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(cells) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(partial(_cell, suite), cells, chunksize=chunksize))


# ---------------------------------------------------------------------------
# verifiers (proved; failures abort) and scanners (open; findings only)


def verify_theorem_F(n_max: int, k_max: int) -> list[ScanReport]:
    """Symmetry, unimodality, and the dimension identity for the F family.

    Covers every even ``n <= n_max`` and ``2 <= k <= k_max``.  Besides the
    two shape checks, the coefficient deltas are matched against the
    partition-count differences ``delta(k,n,m) - delta(k-2,n,m-n)`` for
    ``m <= n*k/2``, tying the polynomial arithmetic to the independent
    counting route.
    """
    cells = [(n, k) for n in range(2, n_max + 1, 2) for k in range(2, k_max + 1)]
    return _run_cells(_SUITES["verify-F"], cells, 1)


def verify_theorem_G(n_max: int, k_max: int, r_max: int) -> list[ScanReport]:
    """Symmetry and strict unimodality (except the end pairs) for G.

    Covers ``8 <= n <= n_max``, ``8 <= r <= r_max`` with ``n*r`` even, and
    ``r <= k <= k_max``.
    """
    cells = [
        (n, k, r)
        for n in range(8, n_max + 1)
        for r in range(8, r_max + 1)
        if (n * r) % 2 == 0
        for k in range(r, k_max + 1)
    ]
    return _run_cells(_SUITES["verify-G"], cells, 1)


def scan_conjecture_F_strict(
    n_max: int, k_max: int, include_below_range: bool = False, jobs: int = 1
) -> list[ScanReport]:
    """Record strict-unimodality findings for F; asserts nothing.

    The conjectured range is ``n >= 8``, ``k >= 15``.  With
    ``include_below_range`` the grid extends down to ``n >= 1``, ``k >= 2``
    (cells of degree < 4 are skipped since the strict check is undefined
    there), which is how the known strictness failures below the range are
    surfaced.
    """
    n_lo, k_lo = (1, 2) if include_below_range else (8, 15)
    cells = [(n, k) for n in range(n_lo, n_max + 1) for k in range(k_lo, k_max + 1) if n * k >= 4]
    return _run_cells(_SUITES["F-strict"], cells, jobs)


def scan_strange(n_max: int, k_max: int, r_max: int, jobs: int = 1) -> list[ScanReport]:
    """Nonnegativity and unimodality findings for the strange family."""
    cells = [
        (n, k, r)
        for n in range(3, n_max + 1, 2)
        for k in range(2, k_max + 1)
        for r in range(1, r_max + 1)
        if n >= 2 * r * k - 4 * r + 3
    ]
    return _run_cells(_SUITES["strange"], cells, jobs)


def scan_bergeron(bound: int, jobs: int = 1) -> list[ScanReport]:
    """Findings for every valid (a, b, c, d) with all entries <= bound."""
    cells = [
        (a, b, c, d)
        for a in range(1, bound + 1)
        for b in range(a, bound + 1)
        for c in range(a, bound + 1)
        for d in range(a, bound + 1)
        if a * d == b * c
    ]
    return _run_cells(_SUITES["bergeron"], cells, jobs)


# ---------------------------------------------------------------------------
# serialization


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_jsonl(reports: Iterable[ScanReport], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(_ENCODER.encode(rep.to_json_obj()) + "\n")


def write_csv(reports: Sequence[ScanReport], path: str | Path) -> None:
    """One row per (tuple, check): family, params..., check, pass, witness_index."""
    param_names: list[str] = []
    for rep in reports:
        for name in rep.params:
            if name not in param_names:
                param_names.append(name)
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", *param_names, "check", "pass", "witness_index"])
        for rep in reports:
            base = [rep.family] + [rep.params.get(p, "") for p in param_names]
            for check, ok in rep.checks.items():
                witness = "" if ok or rep.witness is None else rep.witness
                writer.writerow(base + [check, str(ok).lower(), witness])
