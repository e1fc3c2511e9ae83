"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All arithmetic is exact, so every comparison below is equality or
an integer bound; the only tolerances are the stated runtime ceilings.
"""

import random
import time
from fractions import Fraction

from semiinv import cache
from semiinv.boxpartitions import count_partitions_in_box, delta
from semiinv.cayley import (
    apply_D,
    kernel_basis,
    shear_check,
    sylvester_grid_mismatches,
)
from semiinv.differences import F, G, stanley_zanello
from semiinv.monomials import SIPoly, _pack, _width
from semiinv.qpoly import (
    gauss,
    is_strictly_unimodal_except_ends,
    is_symmetric,
    is_unimodal,
)
from semiinv.witnesses import independence_check, strict_witnesses, triangulate

from helpers import I1_TERMS, I2_TERMS, antilex_greater, dense_rank


def _pass(num, message):
    print(f"ACCEPTANCE {num:02d} PASS: {message}")


def test_criterion_01_golden_middle_difference():
    start = time.monotonic()
    g = G(8, 14, 10)
    assert [g.coefficient(i) for i in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert [g.coefficient(i) for i in range(53, 60)] == [
        8310, 8408, 8450, 8479, 8450, 8408, 8310,
    ]
    assert [g.coefficient(i) for i in range(106, 113)] == [11, 7, 5, 3, 2, 1, 1]
    assert g.degree == 112
    assert is_symmetric(g)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    _pass(1, f"G(8,14,10) matches the golden display ({elapsed:.3f}s)")


def test_criterion_02_sylvester_equivalence_exhaustive():
    start = time.monotonic()
    mismatches = sylvester_grid_mismatches(6, 6)
    assert mismatches == []
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _pass(2, f"kernel nullity == p-delta on all n,k <= 6 cells ({elapsed:.1f}s)")


def test_criterion_03_worked_kernel_cell():
    assert delta(4, 4, 6) == 2
    kb = kernel_basis(4, 4, 6)
    tri = triangulate(kb.vectors)
    assert [v.leading_nu() for v in tri] == [(0, 2, 2, 0, 0), (1, 0, 3, 0, 0)]
    i1 = SIPoly(4, I1_TERMS)
    i2 = SIPoly(4, I2_TERMS)
    assert apply_D(i1).is_zero()
    assert apply_D(i2).is_zero()
    assert dense_rank(list(kb.vectors)) == 2
    assert dense_rank(list(kb.vectors) + [i1]) == 2
    assert dense_rank(list(kb.vectors) + [i2]) == 2
    _pass(3, "kernel at (4,4,6): dimension, leading terms, and span confirmed")


def test_criterion_04_explicit_semi_invariants_and_shears():
    quad = SIPoly(2, {(1, 0, 1): 1, (0, 2, 0): -1})
    cubic = SIPoly(2, {(2, 0, 1): 1, (1, 2, 0): -1})
    quartic = SIPoly(4, {(0, 0, 2, 0, 0): 3, (0, 1, 0, 1, 0): -4, (1, 0, 0, 0, 1): 1})
    rng = random.Random(8128)
    for poly in (quad, cubic, quartic):
        assert apply_D(poly).is_zero()
        for _ in range(20):
            h = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            point = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(poly.n + 1)
            ]
            assert shear_check(poly, h, point)
    _pass(4, "classical semi-invariants annihilated and shear-invariant")


def test_criterion_05_base_grid_dimension_bound():
    start = time.monotonic()
    for n in range(8, 16):
        for r in range(8, 16):
            if (n * r) % 2:
                continue
            assert delta(r, n, n * r // 2) >= 2, (n, r)
    counting = time.monotonic() - start
    assert counting < 10.0, f"counting took {counting:.1f}s, budget 10s"
    start = time.monotonic()
    kb = kernel_basis(8, 8, 32)  # uncached on purpose: timed elimination
    elimination = time.monotonic() - start
    assert kb.dim >= 2
    assert kb.dim == delta(8, 8, 32)
    assert elimination < 240.0, f"elimination took {elimination:.1f}s"
    _pass(
        5,
        f"delta >= 2 on the base grid ({counting:.2f}s); "
        f"kernel nullity at (8,8,32) is {kb.dim} ({elimination:.1f}s)",
    )


def test_criterion_06_positive_dimension_desk_check():
    for n in range(8, 13):
        for k in range(8, 13):
            for m in range(2, n * k // 2 + 1):
                assert delta(k, n, m) >= 1, (n, k, m)
    _pass(6, "delta(k,n,m) >= 1 for all 8 <= n,k <= 12, 2 <= m <= nk/2")


def test_criterion_07_two_step_family_grid():
    for n in range(2, 13, 2):
        for k in range(2, 13):
            f = F(n, k)
            assert is_symmetric(f), (n, k)
            assert is_unimodal(f), (n, k)
            for m in range(n * k + 1):
                lhs = f.coefficient(m) - f.coefficient(m - 1)
                rhs = delta(k, n, m) - delta(k - 2, n, m - n)
                assert lhs == rhs, (n, k, m)
    _pass(7, "F grid: symmetric, unimodal, coefficient deltas match dimensions")


def test_criterion_08_strict_unimodality_grid():
    cells = 0
    for n in (8, 9, 10):
        for r in (8, 9, 10):
            if (n * r) % 2:
                continue
            for k in range(r, 15):
                g = G(n, k, r)
                assert is_symmetric(g), (n, k, r)
                assert is_strictly_unimodal_except_ends(g), (n, k, r)
                cells += 1
    assert cells == 48
    _pass(8, f"G strictly unimodal except end pairs on all {cells} grid cells")


def test_criterion_09_strictness_boundary():
    assert not is_strictly_unimodal_except_ends(F(5, 9))
    assert not is_strictly_unimodal_except_ends(F(14, 5))
    assert is_strictly_unimodal_except_ends(F(8, 15))
    _pass(9, "strictness fails at F(5,9), F(14,5); holds at sampled F(8,15)")


def test_criterion_10_witness_construction():
    ws = strict_witnesses(8, 10, 8, 40)
    assert len(ws) == delta(2, 8, 8) + 1 == 2
    for w in ws:
        assert w.bidegree() == (10, 40)
        assert apply_D(w).is_zero()
    assert independence_check(ws)
    assert dense_rank(ws) == len(ws)

    ws = strict_witnesses(8, 9, 8, 36)
    assert len(ws) == delta(1, 8, 4) + 1 == 1
    assert ws[0].bidegree() == (9, 36)
    assert apply_D(ws[0]).is_zero()
    _pass(10, "witness counts, annihilation, and independence at both cells")


def test_criterion_11_reduction_identity():
    for n in range(2, 11, 2):
        for k in range(2, 11):
            assert stanley_zanello(k, n + k, n + k - 2) == F(n, k), (n, k)
    _pass(11, "three-parameter family reduces to F exactly on the grid")


def test_criterion_12_property_suites(tmp_path):
    rng = random.Random(10301)

    # order totality and multiplicativity: the packed keys the library runs
    # ascend exactly when the reversed-tuple oracle's monomials descend
    w = _width(8)

    def rand_nu():
        return tuple(rng.randint(0, 4) for _ in range(5))

    for _ in range(300):
        a, b, c = rand_nu(), rand_nu(), rand_nu()
        ka, kb, kc = _pack(a, w), _pack(b, w), _pack(c, w)
        assert (ka < kb) == antilex_greater(a, b)
        assert (ka > kb) == antilex_greater(b, a)
        assert (ka == kb) == (a == b)
        if antilex_greater(a, b) and antilex_greater(b, c):
            assert antilex_greater(a, c)
        ac, bc = (tuple(x + y for x, y in zip(nu, c)) for nu in (a, b))
        assert _pack(ac, w) == ka + kc
        if antilex_greater(a, b):
            assert antilex_greater(ac, bc) and _pack(ac, w) < _pack(bc, w)

    # the q-Pascal identity holds for the product-formula coefficients
    for a in range(1, 11):
        for b in range(1, a):
            assert gauss(a, b) == gauss(a - 1, b - 1) + gauss(a - 1, b).shift(b)

    # box-count symmetry and conjugation
    for k in range(8):
        for n in range(8):
            for m in range(n * k + 1):
                assert count_partitions_in_box(k, n, m) == count_partitions_in_box(
                    k, n, n * k - m
                )
                assert count_partitions_in_box(k, n, m) == count_partitions_in_box(
                    n, k, m
                )

    # kernel vectors form a ring under product
    pools = [
        triangulate(kernel_basis(4, 2, 4).vectors),
        triangulate(kernel_basis(4, 4, 6).vectors),
        triangulate(kernel_basis(4, 3, 4).vectors),
    ]
    flat = [v for pool in pools for v in pool]
    for _ in range(10):
        u, v = rng.choice(flat), rng.choice(flat)
        assert apply_D(u * v).is_zero()

    # cache byte-stability across independent directories
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    cache.clear_memory_cache()
    cache.kernel_basis_cached(6, 4, 8, dir_a)
    cache.clear_memory_cache()
    cache.kernel_basis_cached(6, 4, 8, dir_b)
    cache.clear_memory_cache()
    name = cache.kernel_file_name(6, 4, 8)
    assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    _pass(12, "order, recurrence, box-count, ring-closure, cache properties")
