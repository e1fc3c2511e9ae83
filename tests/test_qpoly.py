import json
import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiinv import boxpartitions, qpoly
from semiinv.boxpartitions import count_partitions_in_box
from semiinv.qpoly import (
    NonnegativityViolation,
    QPoly,
    first_negative_index,
    gauss,
    is_strictly_unimodal_except_ends,
    is_symmetric,
    is_unimodal,
    strictness_break,
    symmetry_break,
    unimodality_break,
)

from helpers import (
    brute_count,
    loop_add,
    loop_first_negative_index,
    loop_shift,
    loop_strictness_break,
    loop_strip,
    loop_sub,
    loop_symmetry_break,
    loop_unimodality_break,
)


def test_module_doctests():
    import doctest

    import semiinv.qpoly as module

    failures, tried = doctest.testmod(module)
    assert failures == 0
    assert tried > 0


class TestQPolyBasics:
    def test_canonical_form_strips_trailing_zeros(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert QPoly([0, 0]) == QPoly()

    def test_zero_degree_sentinel(self):
        assert QPoly().degree == float("-inf")
        assert QPoly([5]).degree == 0
        assert QPoly([0, 0, 1]).degree == 2

    def test_truth_is_nonzero(self):
        assert bool(QPoly()) is False
        assert bool(QPoly([0, 2])) is True

    def test_shift(self):
        assert QPoly([1, 1]).shift(2) == QPoly([0, 0, 1, 1])
        assert QPoly().shift(3) == QPoly()
        with pytest.raises(ValueError):
            QPoly([1]).shift(-1)

    def test_sub_self_is_zero(self):
        p = gauss(6, 3)
        assert (p - p).is_zero()

    def test_neg_is_zero_minus(self):
        q = gauss(6, 3) - QPoly([0, 4])
        assert -q == QPoly() - q

    def test_hash_and_repr_of_the_canonical_form(self):
        # trailing zeros are stripped before hashing
        assert len({QPoly([1, 2]), QPoly((1, 2, 0))}) == 1
        assert repr(QPoly([1, 2])) == "QPoly([1, 2])"

    def test_mul_degree_additivity(self):
        p, q = gauss(3, 1), gauss(3, 2)
        assert p.degree == 2 and q.degree == 2
        assert (p * q).degree == 4

    def test_mul_scalar_and_zero(self):
        assert QPoly([1, 2]) * 3 == QPoly([3, 6])
        assert (QPoly([1, 2]) * QPoly()).is_zero()

    def test_coefficients_and_scalars_must_be_ints(self):
        for bad in (True, 1.5, Fraction(1, 2)):
            with pytest.raises(ValueError, match=r"of q\^1 must be an int"):
                QPoly([1, bad])
        with pytest.raises(TypeError):
            QPoly([1, 2]) * True
        with pytest.raises(TypeError):
            True * QPoly([1, 2])

    def test_str_rendering(self):
        assert str(gauss(4, 2)) == "1 + q + 2q^2 + q^3 + q^4"
        assert str(QPoly()) == "0"
        assert str(QPoly([1, 0, -3])) == "1 - 3q^2"
        assert str(QPoly([0, 1])) == "q"

    def test_json_round_trip_big_coefficients(self):
        p = gauss(40, 20)
        obj = p.to_json_obj()
        assert all(isinstance(c, str) for c in obj["coeffs"])
        assert QPoly.from_json_obj(json.loads(json.dumps(obj))) == p

    def test_json_survives_past_64_bits(self):
        p = QPoly([1, 2**100, -(2**70)])
        text = json.dumps(p.to_json_obj())
        assert str(2**100) in text
        assert QPoly.from_json_obj(json.loads(text)) == p


class TestGauss:
    def test_empty_product(self):
        assert gauss(5, 0) == QPoly([1])
        assert gauss(5, 5) == QPoly([1])

    def test_against_partition_histogram_oracle(self):
        # brute-force oracle: histogram partitions in a 2x2 box by size
        expected = [brute_count(2, 2, m) for m in range(5)]
        assert expected == [1, 1, 2, 1, 1]
        assert gauss(4, 2) == QPoly(expected)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gauss(3, 7)
        with pytest.raises(ValueError):
            gauss(-1, 0)
        with pytest.raises(ValueError):
            gauss(3, -2)
        # a degree-d result needs d + 1 coefficients, at most sys.maxsize
        for a, b in [(10**20, 1), (10**20, 10**20 - 1), (sys.maxsize + 1, 1)]:
            with pytest.raises(ValueError, match="more coefficients than a tuple"):
                gauss(a, b)
        assert gauss(10**20, 0) == gauss(10**20, 10**20) == QPoly([1])

    def test_non_int_arguments_rejected_on_cold_and_warm_memo(self, monkeypatch):
        for warm in (False, True):
            _fresh_table(monkeypatch)
            if warm:
                gauss(4, 2)
            for a, b in [(4.0, 2), (4, 2.0), (True, 1), (4, True)]:
                with pytest.raises(TypeError, match="must be ints"):
                    gauss(a, b)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_pascal_recurrence(self, a):
        for b in range(1, a):
            assert gauss(a, b) == gauss(a - 1, b - 1) + gauss(a - 1, b).shift(b)

    @pytest.mark.parametrize("a", range(0, 9))
    def test_symmetry_unimodality_and_complement(self, a):
        for b in range(a + 1):
            p = gauss(a, b)
            assert p == gauss(a, a - b)
            assert p.degree == b * (a - b) if p.coeffs else True
            assert is_symmetric(p)
            assert is_unimodal(p)

    def test_degree_formula(self):
        for a in range(9):
            for b in range(a + 1):
                assert gauss(a, b).degree == b * (a - b)

    def test_coefficients_count_box_partitions(self):
        # cross-check against the independent DP in boxpartitions
        for n in range(9):
            for k in range(9):
                p = gauss(n + k, k)
                for m in range(n * k + 1):
                    assert p.coefficient(m) == count_partitions_in_box(k, n, m)


def _fresh_table(mp: pytest.MonkeyPatch) -> None:
    # an empty shared memo for this test; the original comes back afterwards
    mp.setattr(qpoly, "_MEMO", {})
    mp.setattr(qpoly, "_MEMO_SIZE", 0)


def _stored() -> int:
    """Coefficients in the memo, after checking the size and every entry."""
    for (c, i), coeffs in qpoly._MEMO.items():
        assert coeffs == tuple(_box_counts(i, c)), (c, i)
        # each mirrored pair of coefficients is one int object
        assert all(coeffs[j] is coeffs[-1 - j] for j in range(len(coeffs) // 2)), (c, i)
    assert qpoly._MEMO_SIZE == sum(map(len, qpoly._MEMO.values()))
    return qpoly._MEMO_SIZE


def _box_counts(k: int, n: int) -> list[int]:
    return [count_partitions_in_box(k, n, m) for m in range(k * n + 1)]


class TestPascalTable:
    """The product chain and its memo, checked against the box counts."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(0, 60).flatmap(
                lambda a: st.tuples(st.just(a), st.integers(0, a))
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([0, 30, 700, qpoly._MEMO_BUDGET]),
    )
    def test_any_call_order_matches_box_counts(self, calls, budget):
        with pytest.MonkeyPatch.context() as mp:
            _fresh_table(mp)
            mp.setattr(qpoly, "_MEMO_BUDGET", budget)
            for a, b in calls:
                assert list(gauss(a, b)) == _box_counts(b, a - b), (a, b)
                _stored()

    def test_tiny_budget_keeps_results_and_bounds_the_table(self, monkeypatch):
        calls = [(40, 20), (12, 5), (41, 20), (30, 29), (45, 3), (40, 20), (0, 0)]
        _fresh_table(monkeypatch)
        expected = [gauss(a, b) for a, b in calls]
        assert _stored() <= qpoly._MEMO_BUDGET

        _fresh_table(monkeypatch)
        monkeypatch.setattr(qpoly, "_MEMO_BUDGET", 50)
        largest = 0
        for (a, b), want in zip(calls, expected):
            assert gauss(a, b) == want
            j = min(b, a - b)
            # the largest entry stored is the last link of a chain
            largest = max(largest, j * (a - j) + 1)
            assert _stored() <= 50 + largest, (a, b)
            assert j == 0 or (a - j, j) in qpoly._MEMO

    def test_large_call_under_default_budget(self, monkeypatch):
        _fresh_table(monkeypatch)
        p = gauss(200, 100)
        assert sum(p) == math.comb(200, 100)
        assert p.degree == 100 * 100
        assert is_symmetric(p)
        # the chain outgrows the budget, so the memo was cleared on the way
        assert (100, 1) not in qpoly._MEMO
        assert qpoly._MEMO[100, 100] == p.coeffs
        assert _stored() <= qpoly._MEMO_BUDGET + len(p)

    def test_row_major_sweep_resumes_each_chain(self, monkeypatch):
        # an F sweep climbs each chain a link or two per cell; with every
        # chain's top link kept, a budget far below the sweep's links still
        # computes each link about once
        _fresh_table(monkeypatch)
        monkeypatch.setattr(qpoly, "_MEMO_BUDGET", 4000)
        links = []
        step = qpoly._chain_step

        def counted(prev, c, i):
            links.append((c, i))
            return step(prev, c, i)

        monkeypatch.setattr(qpoly, "_chain_step", counted)
        for n in range(1, 13):
            for k in range(2, 25):
                gauss(n + k, k)
                gauss(n + k - 2, k - 2)
        distinct = set(links)
        assert sum(c * i + 1 for c, i in distinct) > 4 * qpoly._MEMO_BUDGET
        assert len(links) <= 2 * len(distinct)
        assert _stored() <= qpoly._MEMO_BUDGET

    def test_step_rejects_inexact_division(self):
        # (1 - q^3) / (1 - q^2) leaves a remainder
        with pytest.raises(ArithmeticError):
            qpoly._chain_step((1,), 1, 2)
        # (1 + q) (1 - q^3) is divisible by 1 - q^2
        assert qpoly._chain_step((1, 1), 1, 2) == (1, 1, 1)
        # a result that does not read the same backwards is kept as computed
        assert qpoly._chain_step((1, 2), 1, 1) == (1, 3, 2)

    def test_independent_of_box_counts(self, monkeypatch):
        want = gauss(30, 15)

        def refuse(k, n):
            raise AssertionError("gauss must not read the box-count tables")

        monkeypatch.setattr(boxpartitions, "_count_table", refuse)
        with pytest.raises(AssertionError):
            count_partitions_in_box(15, 15, 3)
        _fresh_table(monkeypatch)
        p = gauss(30, 15)
        assert p == want
        assert sum(p) == math.comb(30, 15)


class TestSymmetry:
    def test_gauss_symmetric(self):
        assert is_symmetric(gauss(8, 3))
        assert symmetry_break(gauss(8, 3)) is None

    def test_asymmetric(self):
        assert not is_symmetric(QPoly([1, 2]))
        assert symmetry_break(QPoly([1, 2])) == 0
        assert symmetry_break(QPoly([1, 2, 3, 3, 1])) == 1

    def test_zero_and_constant(self):
        assert is_symmetric(QPoly())
        assert is_symmetric(QPoly([7]))
        assert symmetry_break(QPoly()) is None


class TestUnimodal:
    def test_basic_shapes(self):
        assert is_unimodal(QPoly([1, 2, 1]))
        assert is_unimodal(gauss(4, 2))
        assert not is_unimodal(QPoly([2, 1, 2]))
        assert unimodality_break(QPoly([2, 1, 2])) == 2

    def test_zero_and_monotone(self):
        assert is_unimodal(QPoly())
        assert is_unimodal(QPoly([1, 2, 3]))
        assert is_unimodal(QPoly([3, 2, 1]))

    def test_negative_coefficient_raises_with_index(self):
        with pytest.raises(NonnegativityViolation) as info:
            is_unimodal(QPoly([1, 2, -1, 1]))
        assert info.value.index == 2
        assert first_negative_index(QPoly([1, 2, -1, 1])) == 2


class TestStrictExceptEnds:
    def test_hand_checkable_pattern(self):
        assert is_strictly_unimodal_except_ends(QPoly([1, 1, 2, 3, 2, 1, 1]))

    def test_single_peak(self):
        assert is_strictly_unimodal_except_ends(QPoly([1, 2, 5, 2, 1]))

    def test_apex_pair_allowed_once(self):
        # the unavoidable central pair of an odd-degree symmetric polynomial
        assert is_strictly_unimodal_except_ends(QPoly([1, 2, 5, 5, 2, 1]))
        assert not is_strictly_unimodal_except_ends(QPoly([1, 2, 5, 5, 5, 2, 1]))

    def test_interior_equality_off_apex_rejected(self):
        assert not is_strictly_unimodal_except_ends(QPoly([1, 2, 2, 3, 2, 1]))
        assert strictness_break(QPoly([1, 2, 2, 3, 2, 1])) is not None

    def test_end_equalities_allowed(self):
        assert is_strictly_unimodal_except_ends(QPoly([1, 1, 2, 3, 2, 1, 1]))
        assert not is_strictly_unimodal_except_ends(QPoly([2, 1, 2, 3, 2, 1]))

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            is_strictly_unimodal_except_ends(QPoly([1, 2, 1]))

    def test_negative_raises(self):
        with pytest.raises(NonnegativityViolation):
            is_strictly_unimodal_except_ends(QPoly([1, 2, -3, 2, 1]))

    def test_strict_implies_unimodal_on_random_polys(self):
        rng = random.Random(1729)
        for _ in range(300):
            up = rng.randint(1, 4)
            down = rng.randint(1, 4)
            walk = []
            level = rng.randint(0, 2)
            for _ in range(up):
                walk.append(level)
                level += rng.randint(0, 2)
            for _ in range(down):
                walk.append(max(level, 0))
                level -= rng.randint(0, 2)
            walk.append(max(level, 0))
            p = QPoly(walk + [1])
            if p.degree < 4:
                continue
            if is_strictly_unimodal_except_ends(p):
                assert is_unimodal(p)


_SMALL = st.integers(-2, 5)
_HALF = st.lists(st.integers(0, 5), max_size=4).map(sorted)
# coefficient lists of length 0-8: free, with plateaus (runs of one value),
# and mirrored rises with an equal apex pair or a single apex
_SEQS = st.one_of(
    st.lists(_SMALL, max_size=8),
    st.lists(st.tuples(_SMALL, st.integers(1, 3)), max_size=4).map(
        lambda runs: [v for v, r in runs for _ in range(r)][:8]
    ),
    _HALF.map(lambda h: h + h[::-1]),
    _HALF.map(lambda h: h[:-1] + h[::-1]),
    st.lists(_SMALL, max_size=4).map(lambda h: h + h[::-1]),
)

_PREDICATES = [
    (first_negative_index, loop_first_negative_index),
    (symmetry_break, loop_symmetry_break),
    (unimodality_break, loop_unimodality_break),
    (strictness_break, loop_strictness_break),
]


def _outcome(fn, arg):
    """``fn(arg)``, or the class, message, index and value of its ValueError."""
    try:
        return fn(arg)
    except ValueError as exc:  # NonnegativityViolation included
        return type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "value", None)


class TestScansMatchLoops:
    """The iterator scans against the loop versions kept in helpers."""

    @settings(max_examples=400, deadline=None)
    @given(_SEQS)
    def test_predicates(self, seq):
        p = QPoly(seq)
        assert p.coeffs == loop_strip(seq)
        for scan, loop in _PREDICATES:
            assert _outcome(scan, p) == _outcome(loop, p.coeffs), scan.__name__

    @settings(max_examples=400, deadline=None)
    @given(_SEQS, _SEQS, st.integers(0, 3))
    def test_sum_difference_and_shift(self, a, b, s):
        p, q = QPoly(a), QPoly(b)
        results = [
            (p + q, loop_add(p.coeffs, q.coeffs)),
            (p - q, loop_sub(p.coeffs, q.coeffs)),
            (p - p, ()),
            (p.shift(s), loop_shift(p.coeffs, s)),
        ]
        for got, want in results:
            assert got.coeffs == want
            assert not got.coeffs or got.coeffs[-1] != 0

    @settings(max_examples=400, deadline=None)
    @given(_SEQS, _SEQS, st.integers(0, 10))
    @example([1, 2], [], 3)  # b zero
    @example([1, 2, 3], [4, 5], 0)  # no shift
    @example([1, 2], [1, 1, 1], 1)  # b reaches past a
    @example([1], [1], 3)  # b starts past a
    @example([1, 2, 3, 4], [3, 4], 2)  # cancellation at the top
    @example([0, 0, 5], [5], 2)  # everything cancels
    def test_sub_shifted(self, a, b, s):
        p, q = QPoly(a), QPoly(b)
        shifted = loop_shift(q.coeffs, s)
        for op, loop, want in [(operator.sub, loop_sub, p - q.shift(s)),
                               (operator.add, loop_add, p + q.shift(s))]:
            got = qpoly._combine(op, p, q, s)
            # the operators run through the helper too, so the loop is the oracle
            assert got == want and got.coeffs == loop(p.coeffs, shifted)
