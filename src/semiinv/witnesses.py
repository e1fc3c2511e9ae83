"""Structural constructions on semi-invariant bases.

Triangulation brings a linearly independent family to a form with strictly
decreasing leading terms under the anti-lexicographic order (same span).
Every witness here is built from two steps: the kernel triangle of one
stratum (its triangulated kernel basis, which must hold as many vectors as
the dimension bound promises) and :func:`lemma_combine`, the staircase
products of two triangulated families, checked once as factor pairs by
:func:`~semiinv.cayley._distinct_leads` and then expanded as one packed
product per row of the staircase.  A triangle is computed once per basis
object and memoized under a weak reference to it, so the cache's eviction
drops it, and a basis loaded again is a new object.

* :func:`nr8_witnesses` produces two independent semi-invariants of degree
  ``r`` and weight ``n*r/2`` for any ``n, r >= 8`` with ``n*r`` even: the
  head of the kernel triangle for ``r < 16``, else, with ``r = 8*s + t``
  and ``8 <= t < 16``, the staircase of the s-th power of an eighth-degree
  semi-invariant and the degree-``t`` pair.
* :func:`strict_witnesses` replays the dimension-gap argument for the
  two-sided difference families: with ``t`` independent semi-invariants
  ``I_1 > ... > I_t`` of degree ``k - r``, weight ``m - n*r/2`` and the
  pair ``J_1 > J_2`` above, the staircase ``J_1*I_1, ..., J_1*I_t, J_2*I_t``
  is ``t + 1`` independent semi-invariants of degree ``k``, weight ``m``.

Every construction returns concretely computed polynomials; nothing is
taken on faith from the counting side.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from math import gcd
from weakref import WeakKeyDictionary

from .boxpartitions import delta
from .cache import kernel_basis_cached
from .cayley import KernelBasis, SylvesterMismatchError, _distinct_leads
from .monomials import SIPoly, _times_each

# KernelBasis -> its triangulated vectors; an entry lives as long as its
# basis object (KernelBasis hashes by identity)
_triangle_memo: WeakKeyDictionary[KernelBasis, tuple[SIPoly, ...]] = WeakKeyDictionary()


class DependenceError(ValueError):
    """A family expected to be independent has a vanishing combination."""

    def __init__(self, index: int):
        super().__init__(f"vector {index} is a combination of its predecessors")
        self.index = index


def _common_n(vs: Sequence[SIPoly]) -> None:
    for v in vs[1:]:
        vs[0]._check_same_n(v)


def triangulate(vs: Sequence[SIPoly]) -> list[SIPoly]:
    """Same span, strictly decreasing leading terms, canonical scaling.

    Input vectors must be linearly independent; a dependent family raises
    :class:`DependenceError` naming the offending index.  Leads are least
    packed keys, all at the width of the family's largest degree bound.
    Each step cross-multiplies by the two leads' coefficients over their
    gcd and keeps the vector primitive, so it stays integral and a multiple
    of what a rational elimination gives: the primitive results agree.
    """
    _common_n(vs)
    deg = max((v._deg for v in vs), default=0)
    pivots: dict[int, SIPoly] = {}
    for idx, v in enumerate(vs):
        w = v._rekey(deg).primitive()
        while True:
            terms = w._terms
            if not terms:
                raise DependenceError(idx)
            lead = min(terms)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = w
                break
            a, b = piv._terms[lead], terms[lead]
            g = gcd(a, b)
            w = (w.scale(a // g) - piv.scale(b // g)).primitive()
    return [pivots[lead] for lead in sorted(pivots)]


def independence_check(vs: Sequence[SIPoly]) -> bool:
    """Exact linear independence over the union of occurring monomials."""
    try:
        triangulate(vs)
    except DependenceError:
        return False
    return True


def lemma_combine(b1: Sequence[SIPoly], b2: Sequence[SIPoly]) -> list[SIPoly]:
    """Staircase products of two triangulated bases.

    For bases of sizes ``t1`` and ``t2`` over the same form degree, returns
    the ``t1 + t2 - 1`` products ``b1[0]*b2[j]`` for every ``j`` followed by
    ``b1[i]*b2[-1]`` for ``i >= 1``.  Their leads, the sums of their factors'
    (the order is multiplicative), strictly decrease exactly when both
    bases' do, so the products are independent; degrees and weights add.
    The pairs are checked once as factors; then each row, ``b1[0]`` times
    all of ``b2`` and ``b2[-1]`` times the rest of ``b1``, is expanded by one
    packed product (:func:`~semiinv.monomials._times_each`), and each
    product is made primitive.
    """
    if not b1 or not b2:
        raise ValueError("both bases must be nonempty")
    _common_n(list(b1) + list(b2))
    pairs = [(b1[0], w) for w in b2] + [(v, b2[-1]) for v in b1[1:]]
    if not _distinct_leads(pairs):
        raise ValueError("inputs must be triangulated (strictly decreasing leads)")
    rows = _times_each(b1[0], b2) + _times_each(b2[-1], b1[1:])
    return [p.primitive() for p in rows]


def _triangle(
    n: int, k: int, m: int, d: int, cache_dir: str | os.PathLike | None
) -> tuple[SIPoly, ...]:
    """The kernel triangle of the (k, m) stratum; ``d`` vectors or more."""
    kb = kernel_basis_cached(n, k, m, cache_dir)
    tri = _triangle_memo.get(kb)
    if tri is None:
        tri = _triangle_memo[kb] = tuple(triangulate(kb.vectors))
    if len(tri) < d:
        raise SylvesterMismatchError(
            f"kernel at (n={n}, k={k}, m={m}) has {len(tri)} vectors; "
            f"the dimension bound guarantees at least {d}"
        )
    return tri


def _check_nr(n: int, r: int) -> None:
    if n < 8 or r < 8:
        raise ValueError(f"need n, r >= 8, got n={n}, r={r}")
    if (n * r) % 2:
        raise ValueError(f"n*r must be even, got n={n}, r={r}")


def nr8_witnesses(
    n: int, r: int, cache_dir: str | os.PathLike | None = None
) -> tuple[SIPoly, SIPoly]:
    """Two independent semi-invariants of degree ``r`` and weight ``n*r/2``.

    Requires ``n, r >= 8`` and ``n*r`` even (a half-integer weight has no
    meaning here, so odd*odd input is rejected).  For ``r < 16`` the pair
    is the head of the kernel triangle of the corresponding cell, whose
    dimension is at least two; existence for large ``n`` is certified by
    the box-count conjugation ``p(r, n, .) == p(n, r, .)`` while the
    vectors themselves are always computed in the ``a_0..a_n`` variables.
    For ``r >= 16`` the reduction ``r = 8*s + t`` is applied.  The returned
    pair is ordered by strictly decreasing leading term.
    """
    _check_nr(n, r)
    if r < 16:
        return _triangle(n, r, n * r // 2, 2, cache_dir)[:2]
    t = (r % 8) + 8
    eighth = _triangle(n, 8, 4 * n, 1, cache_dir)[0]
    return tuple(lemma_combine([eighth ** ((r - t) // 8)], nr8_witnesses(n, t, cache_dir)))


def strict_witnesses(
    n: int, k: int, r: int, m: int, cache_dir: str | os.PathLike | None = None
) -> list[SIPoly]:
    """Explicit independent semi-invariants realizing the dimension gap.

    Requires ``n, r >= 8``, ``k >= r``, ``n*r`` even and
    ``n*r/2 <= m <= n*k/2``.  With ``t = delta(k-r, n, m - n*r/2)`` the
    result has ``t + 1`` vectors for ``t > 0`` (the staircase products) and
    a single directly computed kernel vector for ``t == 0``.  All outputs
    have degree ``k`` and weight ``m`` and are annihilated by the lowering
    operator.
    """
    _check_nr(n, r)
    if k < r:
        raise ValueError(f"need k >= r, got k={k}, r={r}")
    half = n * r // 2
    if not (half <= m and 2 * m <= n * k):
        raise ValueError(f"need n*r/2 <= m <= n*k/2, got m={m}")
    t = delta(k - r, n, m - half)
    if t == 0:
        return list(_triangle(n, k, m, 1, cache_dir)[:1])
    inner = _triangle(n, k - r, m - half, t, cache_dir)
    return lemma_combine(nr8_witnesses(n, r, cache_dir), inner)


def base_grid_deltas() -> list[tuple[int, int, int]]:
    """Partition-count dimensions on the fixed base grid 8 <= n, r < 16.

    Returns ``(n, r, delta(r, n, n*r/2))`` for every cell with ``n*r``
    even, in row-major order.  Every value is expected to be at least two.
    """
    cells = [(n, r) for n in range(8, 16) for r in range(8, 16) if n * r % 2 == 0]
    return [(n, r, delta(r, n, n * r // 2)) for n, r in cells]
