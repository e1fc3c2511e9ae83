"""Structural constructions on semi-invariant bases.

Triangulation brings a linearly independent family to a form with strictly
decreasing leading terms under the anti-lexicographic order (same span).
Because the order is multiplicative, products of triangulated families
along a staircase have pairwise distinct leading terms, which is the engine
behind the explicit witness constructions here:

* :func:`nr8_witnesses` produces two independent semi-invariants of degree
  ``r`` and weight ``n*r/2`` for any ``n, r >= 8`` with ``n*r`` even, by a
  reduction ``r = 8*s + t`` (``8 <= t < 16``) to kernel computations of
  bounded degree: an eighth-degree semi-invariant is raised to the s-th
  power and multiplied into a pair from the degree-``t`` cell.
* :func:`strict_witnesses` replays the dimension-gap argument for the
  two-sided difference families: with ``t`` independent semi-invariants
  ``I_1 > ... > I_t`` of degree ``k - r``, weight ``m - n*r/2`` and the
  pair ``J_1 > J_2`` above, the products ``J_1*I_1, ..., J_1*I_t, J_2*I_t``
  are ``t + 1`` independent semi-invariants of degree ``k``, weight ``m``.

Every construction returns concretely computed polynomials; nothing is
taken on faith from the counting side.
"""

from __future__ import annotations

import os
from math import gcd
from typing import Sequence

from .boxpartitions import delta
from .cache import kernel_basis_cached
from .monomials import SIPoly


class DependenceError(ValueError):
    """A family expected to be independent has a vanishing combination."""

    def __init__(self, index: int):
        super().__init__(f"vector {index} is a combination of its predecessors")
        self.index = index


def _common_n(vs: Sequence[SIPoly]) -> int:
    n = vs[0].n
    for v in vs[1:]:
        if v.n != n:
            raise ValueError(f"mixed form degrees: n={n} vs n={v.n}")
    return n


def _reduce(vs: Sequence[SIPoly]) -> list[SIPoly]:
    """Leading-term elimination.  Returns the triangulated list, and raises
    :class:`DependenceError` if a vector reduces to zero.

    Vectors are kept primitive, and each elimination step cross-multiplies
    by the two leading coefficients over their gcd, so every vector stays
    integral and a nonzero multiple of the one a rational elimination would
    give; the primitive results are therefore the same.
    """
    pivots: dict[tuple[int, ...], SIPoly] = {}
    for idx, v in enumerate(vs):
        w = v.primitive()
        while True:
            if w.is_zero():
                raise DependenceError(idx)
            lead = w.leading_nu()
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = w
                break
            a, b = piv.leading_coefficient(), w.leading_coefficient()
            g = gcd(a, b)
            w = (w.scale(a // g) - piv.scale(b // g)).primitive()
    ordered = sorted(pivots, key=lambda nu: nu[::-1])
    return [pivots[nu] for nu in ordered]


def triangulate(vs: Sequence[SIPoly]) -> list[SIPoly]:
    """Same span, strictly decreasing leading terms, canonical scaling.

    Input vectors must be linearly independent; a dependent family raises
    :class:`DependenceError` naming the offending index.
    """
    if not vs:
        return []
    _common_n(vs)
    return _reduce(vs)


def independence_check(vs: Sequence[SIPoly]) -> bool:
    """Exact linear independence over the union of occurring monomials."""
    if not vs:
        return True
    _common_n(vs)
    try:
        _reduce(vs)
    except DependenceError:
        return False
    return True


def _is_triangulated(vs: Sequence[SIPoly]) -> bool:
    leads = [v.leading_nu()[::-1] for v in vs]
    return all(a < b for a, b in zip(leads, leads[1:]))


def nr8_witnesses(
    n: int, r: int, cache_dir: str | os.PathLike | None = None
) -> tuple[SIPoly, SIPoly]:
    """Two independent semi-invariants of degree ``r`` and weight ``n*r/2``.

    Requires ``n, r >= 8`` and ``n*r`` even (a half-integer weight has no
    meaning here, so odd*odd input is rejected).  For ``r < 16`` the pair
    comes straight from the kernel of the corresponding cell, whose
    dimension is at least two; existence for large ``n`` is certified by
    the box-count conjugation ``p(r, n, .) == p(n, r, .)`` while the
    vectors themselves are always computed in the ``a_0..a_n`` variables.
    For ``r >= 16`` the reduction ``r = 8*s + t`` is applied.  The returned
    pair is ordered by strictly decreasing leading term.
    """
    if n < 8 or r < 8:
        raise ValueError(f"need n, r >= 8, got n={n}, r={r}")
    if (n * r) % 2:
        raise ValueError(f"n*r must be even, got n={n}, r={r}")
    if r < 16:
        if delta(r, n, n * r // 2) < 2:
            raise RuntimeError(
                f"delta({r},{n},{n * r // 2}) < 2: partition counting "
                "contradicts the guaranteed dimension bound"
            )
        kb = kernel_basis_cached(n, r, n * r // 2, cache_dir)
        tri = triangulate(kb.vectors)
        return tri[0], tri[1]
    t = (r % 8) + 8
    s = (r - t) // 8
    eighth = triangulate(kernel_basis_cached(n, 8, 4 * n, cache_dir).vectors)[0]
    j1, j2 = nr8_witnesses(n, t, cache_dir)
    power = eighth**s
    w1 = (power * j1).primitive()
    w2 = (power * j2).primitive()
    # ordering is recomputed rather than assumed from the construction
    if not w1.leading_monomial() > w2.leading_monomial():
        w1, w2 = w2, w1
    return w1, w2


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
    if n < 8 or r < 8:
        raise ValueError(f"need n, r >= 8, got n={n}, r={r}")
    if k < r:
        raise ValueError(f"need k >= r, got k={k}, r={r}")
    if (n * r) % 2:
        raise ValueError(f"n*r must be even, got n={n}, r={r}")
    half = n * r // 2
    if not (half <= m and 2 * m <= n * k):
        raise ValueError(f"need n*r/2 <= m <= n*k/2, got m={m}")
    t = delta(k - r, n, m - half)
    if t == 0:
        kb = kernel_basis_cached(n, k, m, cache_dir)
        if kb.dim == 0:
            raise RuntimeError(
                f"kernel at (n={n}, k={k}, m={m}) is empty; the strict "
                "unimodality bound guarantees a vector here"
            )
        return [triangulate(kb.vectors)[0]]
    inner = triangulate(kernel_basis_cached(n, k - r, m - half, cache_dir).vectors)
    j1, j2 = nr8_witnesses(n, r, cache_dir)
    out = [(j1 * v).primitive() for v in inner]
    out.append((j2 * inner[-1]).primitive())
    return out


def lemma_combine(b1: Sequence[SIPoly], b2: Sequence[SIPoly]) -> list[SIPoly]:
    """Staircase products of two triangulated bases.

    For bases of sizes ``t1`` and ``t2`` over the same form degree, returns
    the ``t1 + t2 - 1`` products ``b1[0]*b2[j]`` for every ``j`` followed by
    ``b1[i]*b2[-1]`` for ``i >= 1``.  Their leading terms strictly decrease
    along the staircase by multiplicativity of the order, so the products
    are linearly independent; degrees and weights add.
    """
    if not b1 or not b2:
        raise ValueError("both bases must be nonempty")
    _common_n(list(b1) + list(b2))
    if not _is_triangulated(b1) or not _is_triangulated(b2):
        raise ValueError("inputs must be triangulated (strictly decreasing leads)")
    out = [(b1[0] * w).primitive() for w in b2]
    out.extend((v * b2[-1]).primitive() for v in b1[1:])
    return out


def base_grid_deltas() -> list[tuple[int, int, int]]:
    """Partition-count dimensions on the fixed base grid 8 <= n, r < 16.

    Returns ``(n, r, delta(r, n, n*r/2))`` for every cell with ``n*r``
    even, in row-major order.  Every value is expected to be at least two.
    """
    out = []
    for n in range(8, 16):
        for r in range(8, 16):
            if (n * r) % 2:
                continue
            out.append((n, r, delta(r, n, n * r // 2)))
    return out
