"""Partitions contained in a ``k x n`` rectangle.

``p(k, n, m)`` counts partitions of ``m`` into at most ``k`` parts, each
part at most ``n`` (equivalently: exactly ``k`` parts with zero parts
allowed).  A partition is encoded by its part-multiplicity vector
``nu = (nu_0, ..., nu_n)``, where ``nu_i`` is the number of parts equal to
``i``; then ``sum(nu) == k`` and ``sum(i * nu_i) == m``.  This is exactly
the exponent vector of a monomial of degree ``k`` and weight ``m`` in the
binary-form coefficients ``a_0..a_n``, so the enumeration order fixed here
doubles as the column order of every operator matrix and kernel file in
the package: partitions are emitted in descending anti-lexicographic
monomial order, i.e. ascending lexicographic order of the reversed vector
``(nu_n, ..., nu_0)``.

Counting uses a two-dimensional recurrence over the box,

    p(k, n, m) = p(k, n-1, m) + p(k-1, n, m-n)

(split on whether some part equals ``n``), memoized per ``(k, n)`` with
the whole weight vector stored, since delta scans reuse the same boxes
heavily.  The memo is filled iteratively, so a box of any shape needs no
recursion.  Cells are exact big integers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoxPartition:
    """A partition inside a ``box_k x box_n`` rectangle, as multiplicities.

    ``nu[i]`` is the number of parts equal to ``i``; zero parts are counted,
    so ``sum(nu) == box_k`` always holds.
    """

    nu: tuple[int, ...]
    box_k: int
    box_n: int

    def __post_init__(self):
        if len(self.nu) != self.box_n + 1:
            raise ValueError(
                f"multiplicity vector has length {len(self.nu)}, "
                f"expected {self.box_n + 1}"
            )
        if any(v < 0 for v in self.nu):
            raise ValueError("negative part multiplicity")
        if sum(self.nu) != self.box_k:
            raise ValueError(
                f"multiplicities sum to {sum(self.nu)}, expected {self.box_k}"
            )

    @property
    def weight(self) -> int:
        """Size of the partition: sum of all parts."""
        return sum(i * v for i, v in enumerate(self.nu))

    def parts(self) -> tuple[int, ...]:
        """The nonzero parts in decreasing order."""
        out = []
        for i in range(self.box_n, 0, -1):
            out.extend([i] * self.nu[i])
        return tuple(out)


_COUNT_TABLES: dict[tuple[int, int], tuple[int, ...]] = {}


def _count_table(k: int, n: int) -> tuple[int, ...]:
    """Vector of p(k, n, m) for m = 0..n*k."""
    table = _COUNT_TABLES.get((k, n))
    if table is not None:
        return table
    # (k, n) needs (k, n-1) and (k-1, n): fill the missing boxes of the
    # (k+1) x (n+1) grid column by column, each column from k' = 0 upward.
    for nn in range(n + 1):
        for kk in range(k + 1):
            if (kk, nn) in _COUNT_TABLES:
                continue
            if kk == 0 or nn == 0:
                _COUNT_TABLES[kk, nn] = (1,)
                continue
            narrower = _COUNT_TABLES[kk, nn - 1]
            shorter = _COUNT_TABLES[kk - 1, nn]
            out = []
            for m in range(nn * kk + 1):
                v = narrower[m] if m < len(narrower) else 0
                if m >= nn:
                    v += shorter[m - nn]
                out.append(v)
            _COUNT_TABLES[kk, nn] = tuple(out)
    return _COUNT_TABLES[k, n]


def count_partitions_in_box(k: int, n: int, m: int) -> int:
    """Number of partitions of ``m`` with at most ``k`` parts, each <= ``n``.

    Returns 0 for ``m < 0`` and for ``m > n*k``.
    """
    if k < 0 or n < 0:
        raise ValueError(f"box dimensions must be nonnegative, got ({k},{n})")
    if m < 0 or m > n * k:
        return 0
    return _count_table(k, n)[m]


def delta(k: int, n: int, m: int) -> int:
    """p(k,n,m) - p(k,n,m-1); may be negative past the middle weight n*k/2."""
    return count_partitions_in_box(k, n, m) - count_partitions_in_box(k, n, m - 1)


def enumerate_partitions_in_box(k: int, n: int, m: int) -> list[BoxPartition]:
    """All partitions of ``m`` in the ``k x n`` box, in basis order.

    The order is descending anti-lexicographic on the associated monomials:
    multiplicity vectors are generated in ascending lexicographic order of
    ``(nu_n, nu_n-1, ..., nu_1)``.  The length of the result always equals
    ``count_partitions_in_box(k, n, m)``.
    """
    return [BoxPartition(nu, k, n) for nu in _multiplicity_vectors(k, n, m)]


def _multiplicity_vectors(k: int, n: int, m: int) -> list[tuple[int, ...]]:
    """The ``nu`` of :func:`enumerate_partitions_in_box`, in the same order."""
    if k < 0 or n < 0:
        raise ValueError(f"box dimensions must be nonnegative, got ({k},{n})")
    if not 0 <= m <= n * k:
        raise ValueError(f"weight {m} outside [0, {n * k}]")
    if n == 0:
        return [(k,)]
    out: list[tuple[int, ...]] = []
    # Depth-first over levels j = 0..n-1, which choose nu_i for i = n - j.
    # chosen[j] is that choice; parts[j] and weight[j] are what the parts
    # of size <= i still have to take.  Each level counts upward from its
    # lowest feasible value: smaller parts carry at most (i-1) each, so
    # weight - i*v <= (i-1)*(parts-v).
    chosen = [0] * n  # nu_n, nu_{n-1}, ..., nu_1
    parts = [k] + [0] * (n - 1)
    weight = [m] + [0] * (n - 1)
    j = 0
    v = max(0, m - (n - 1) * k)
    while j >= 0:
        i = n - j
        if v > parts[j] or i * v > weight[j]:
            # level exhausted: back up and advance the level above
            j -= 1
            v = chosen[j] + 1
            continue
        chosen[j] = v
        rest_parts, rest = parts[j] - v, weight[j] - i * v
        if j + 1 < n:
            j += 1
            parts[j], weight[j] = rest_parts, rest
            v = max(0, rest - (i - 2) * rest_parts)
        else:
            # at i == 1 the bound forces rest == 0; the parts left are zeros
            out.append((rest_parts, *reversed(chosen)))
            v += 1
    return out
