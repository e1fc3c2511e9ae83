import functools
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semiinv import boxpartitions
from semiinv.boxpartitions import (
    count_partitions_in_box,
    delta,
    enumerate_partitions_in_box,
)
from semiinv.monomials import _pack, _width
from semiinv.qpoly import gauss

from helpers import antilex_greater, brute_count, brute_partitions, partition_to_nu, run_capped


class TestCount:
    def test_small_known_values(self):
        assert count_partitions_in_box(3, 2, 2) == 2
        assert count_partitions_in_box(3, 2, 1) == 1

    def test_two_row_floor_formula(self):
        for n in range(1, 12):
            for m in range(n + 1):
                assert count_partitions_in_box(2, n, m) == (m + 2) // 2

    def test_empty_partition(self):
        for k in range(5):
            for n in range(5):
                assert count_partitions_in_box(k, n, 0) == 1

    def test_out_of_range_weights(self):
        assert count_partitions_in_box(3, 3, -1) == 0
        assert count_partitions_in_box(3, 3, 10) == 0

    def test_against_brute_force(self):
        for k in range(5):
            for n in range(5):
                for m in range(n * k + 1):
                    assert count_partitions_in_box(k, n, m) == brute_count(k, n, m)

    def test_thin_box_fills_without_recursion(self):
        # one entry per row of a 1100-row box; a recursive fill overflows
        assert count_partitions_in_box(1100, 2, 10) == 6
        assert count_partitions_in_box(2, 1100, 10) == 6

    def test_thin_box_at_small_weight(self):
        # a side no longer than the weight cuts the other one to the weight
        proc = run_capped("-c", "from semiinv.boxpartitions import count_partitions_in_box as p; "
                          "print(p(1, 10**5, 1), p(10**5, 1, 1))")
        assert (proc.returncode, proc.stdout) == (0, "1 1\n"), proc.stderr

    def test_wide_box_at_small_weight(self):
        # both sides longer than the weight, but more cells than the budget:
        # the box is cut to the weight rather than filled
        proc = run_capped("-c", "from semiinv.boxpartitions import count_partitions_in_box as p; "
                          "print(p(10**6, 10**6, 5))")
        assert (proc.returncode, proc.stdout) == (0, "7\n"), proc.stderr

    def test_negative_box_rejected(self):
        # the count, delta, the delta row and the walk each check the box,
        # with one message
        for fn in (count_partitions_in_box, delta, boxpartitions._delta_row,
                   enumerate_partitions_in_box):
            for k, n in ((-1, 3), (3, -1)):
                message = f"box dimensions must be nonnegative, got ({k},{n})"
                with pytest.raises(ValueError, match=re.escape(message)):
                    fn(k, n, 0)

    @pytest.mark.parametrize("fn", [count_partitions_in_box, delta, enumerate_partitions_in_box])
    @pytest.mark.parametrize("args", [(2, 3.0, 3), (2.0, 3, 3), (2, 3, 3.0), (True, 3, 1), (2, 3, True)])
    def test_non_int_arguments_rejected_on_cold_and_warm_memo(self, fn, args, monkeypatch):
        for warm in (False, True):
            _fresh_tables(monkeypatch, boxpartitions._COUNT_BUDGET)
            if warm:
                fn(2, 3, 3)
            with pytest.raises(TypeError, match="must be ints"):
                fn(*args)

    def test_symmetry(self):
        for k in range(7):
            for n in range(7):
                for m in range(n * k + 1):
                    assert count_partitions_in_box(
                        k, n, m
                    ) == count_partitions_in_box(k, n, n * k - m)

    def test_conjugate_symmetry(self):
        for k in range(7):
            for n in range(7):
                for m in range(n * k + 1):
                    assert count_partitions_in_box(
                        k, n, m
                    ) == count_partitions_in_box(n, k, m)

    def test_total_is_binomial(self):
        for k in range(8):
            for n in range(8):
                total = sum(
                    count_partitions_in_box(k, n, m) for m in range(n * k + 1)
                )
                assert total == math.comb(n + k, k)


@functools.lru_cache(maxsize=None)
def _brute_table(k, n):
    return tuple(brute_count(k, n, m) for m in range(n * k + 1))


def _fresh_tables(mp: pytest.MonkeyPatch, budget: int) -> None:
    # an empty shared table store for this test; the original comes back afterwards
    mp.setattr(boxpartitions, "_COUNT_TABLES", {})
    mp.setattr(boxpartitions, "_COUNT_SIZE", 0)
    mp.setattr(boxpartitions, "_COUNT_BUDGET", budget)


def _stored(expected) -> int:
    """Coefficients stored, after checking the size and every table."""
    for (k, n), table in boxpartitions._COUNT_TABLES.items():
        assert table == expected(k, n), (k, n)
        # each mirrored pair of coefficients is one int object
        assert all(table[j] is table[-1 - j] for j in range(len(table) // 2)), (k, n)
    assert boxpartitions._COUNT_SIZE == sum(map(len, boxpartitions._COUNT_TABLES.values()))
    return boxpartitions._COUNT_SIZE


def _kept_lines(k, n):
    """Coefficients in row k (n' <= n) and column n (k' <= k) of the (k, n) fill."""
    return sum(nn * k + 1 for nn in range(n + 1)) + sum(n * kk + 1 for kk in range(k + 1))


class TestCountBudget:
    """The bounded store of box-count tables."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=8),
        st.sampled_from([0, 20, 300, boxpartitions._COUNT_BUDGET]),
    )
    def test_any_call_order_matches_brute_force(self, calls, budget):
        with pytest.MonkeyPatch.context() as mp:
            _fresh_tables(mp, budget)
            largest = 0
            for k, n in calls:
                largest = max(largest, _kept_lines(k, n))
                for m in (0, n * k // 2, n * k):
                    assert count_partitions_in_box(k, n, m) == _brute_table(k, n)[m]
                assert _stored(_brute_table) <= budget + largest, (k, n)

    def test_tiny_budget_large_box(self, monkeypatch):
        def gauss_table(k, n):
            return gauss(n + k, k).coeffs

        want = gauss(80, 40).coefficient(800)
        _fresh_tables(monkeypatch, 50)
        assert count_partitions_in_box(40, 40, 800) == want
        assert _stored(gauss_table) <= 50 + _kept_lines(40, 40)
        assert delta(38, 40, 760) == gauss(78, 38).coefficient(760) - gauss(78, 38).coefficient(759)

    def test_table_not_read_backwards_is_kept_as_computed(self, monkeypatch):
        # a seeded row that does not read the same backwards feeds the next box
        _fresh_tables(monkeypatch, boxpartitions._COUNT_BUDGET)
        boxpartitions._COUNT_TABLES[1, 1] = (2, 1)
        assert boxpartitions._count_table(1, 2) == (2, 1, 1)

    def test_neighbours_past_the_budget_are_cheap(self, monkeypatch):
        class Counting(dict):
            filled = 0

            def __setitem__(self, key, value):
                Counting.filled += 1
                super().__setitem__(key, value)

        _fresh_tables(monkeypatch, 50)
        monkeypatch.setattr(boxpartitions, "_COUNT_TABLES", Counting())
        count_partitions_in_box(30, 20, 300)
        Counting.filled = 0
        assert count_partitions_in_box(31, 20, 310) == gauss(51, 31).coefficient(310)
        assert Counting.filled == 21
        # the column of the requested box is kept too
        assert delta(27, 20, 270) == gauss(47, 27).coefficient(270) - gauss(47, 27).coefficient(269)
        assert Counting.filled == 21

    @pytest.mark.parametrize("k, n", [(40, 40), (12, 40)], ids=["square", "long"])
    def test_delta_sweep_stores_at_most_two_fills(self, monkeypatch, k, n):
        # the longer side is the rows and the other side comes in bands of
        # powers of two, so past the budget a sweep adds about a row a weight
        # instead of filling a new box from row 0 at every weight
        class Counting(dict):
            filled = 0

            def __setitem__(self, key, value):
                Counting.filled += 1
                super().__setitem__(key, value)

        _fresh_tables(monkeypatch, 50)
        monkeypatch.setattr(boxpartitions, "_COUNT_TABLES", Counting())
        got = [delta(k, n, m) for m in range(n * k + 2)]
        assert Counting.filled <= 2 * (k + 1) * (n + 1)
        p = (0, *gauss(n + k, k).coeffs, 0)
        assert got == [b - a for a, b in zip(p, p[1:])]

    def test_thin_fill_keeps_no_more_column_than_its_row(self, monkeypatch):
        # every row of the 3000 x 1 fill passes the budget, and the column
        # (j, 1) below it would hold about 1500 times the row
        _fresh_tables(monkeypatch, 1000)
        assert delta(10**20, 1, 3000) == 0
        row = 1 + 3001
        assert _stored(lambda k, n: (1,) * (n * k + 1)) <= 1000 + 2 * row


class TestDelta:
    def test_worked_cell(self):
        assert delta(4, 4, 6) == 2

    def test_weight_zero(self):
        for k in range(5):
            for n in range(5):
                assert delta(k, n, 0) == 1

    def test_negative_past_middle(self):
        assert delta(2, 2, 3) < 0

    def test_base_grid_bound(self):
        for n in range(8, 16):
            for r in range(8, 16):
                if (n * r) % 2:
                    continue
                assert delta(r, n, n * r // 2) >= 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12 + 12 + 1))
    def test_matches_brute_force_difference(self, k, n, m):
        # weights up to k + n + 1 reach every box cut to m x m and, on thin
        # boxes, the weight n*k + 1 past the box
        m %= n * k + 2
        assert delta(k, n, m) == brute_count(k, n, m) - brute_count(k, n, m - 1)

    def test_long_box_at_small_weight(self):
        # a weight-m partition fits the m x m box, so no table is n long
        proc = run_capped("-c", "from semiinv.boxpartitions import delta; "
                          "print(delta(1, 10**5, 1), delta(3, 10**6, 2))")
        assert (proc.returncode, proc.stdout) == (0, "0 1\n"), proc.stderr

    @settings(max_examples=200)
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12 * 12 + 4))
    def test_row_matches_scalar(self, k, n, stop):
        # stop runs up to n*k + 4: the -p(k,n,nk) entry and the zeros after it
        stop %= n * k + 5
        row = boxpartitions._delta_row(k, n, stop)
        assert row == tuple(delta(k, n, m) for m in range(stop))

    def test_row_past_the_box(self):
        # p(2, 2, m) = 1, 1, 2, 1, 1
        assert boxpartitions._delta_row(2, 2, 7) == (1, 0, 1, -1, 0, -1, 0)
        assert boxpartitions._delta_row(0, 3, 4) == (1, -1, 0, 0)
        assert boxpartitions._delta_row(3, 3, 0) == ()
        with pytest.raises(ValueError, match=r"got \(-1,3\)"):
            boxpartitions._delta_row(-1, 3, 2)


class TestEnumerate:
    def test_lengths_match_counts(self):
        for k in range(7):
            for n in range(7):
                for m in range(n * k + 1):
                    got = enumerate_partitions_in_box(k, n, m)
                    assert len(got) == count_partitions_in_box(k, n, m)

    def test_matches_brute_force_set(self):
        for k in range(1, 6):
            for n in range(1, 6):
                for m in range(n * k + 1):
                    expected = {
                        partition_to_nu(parts, k, n)
                        for parts in brute_partitions(k, n, m)
                    }
                    got = set(enumerate_partitions_in_box(k, n, m))
                    assert got == expected

    def test_worked_cell_has_seven(self):
        assert len(enumerate_partitions_in_box(4, 4, 6)) == 7

    def test_single_row_box(self):
        for n in range(1, 6):
            for m in range(n + 1):
                got = enumerate_partitions_in_box(1, n, m)
                assert len(got) == 1
                # the one part is m (a zero part when m == 0)
                assert got[0] == tuple(int(i == m) for i in range(n + 1))

    def test_three_by_two(self):
        assert len(enumerate_partitions_in_box(3, 2, 3)) == 2

    def test_descending_antilex_order(self):
        for (k, n, m) in [(4, 4, 6), (3, 3, 4), (5, 2, 5), (2, 6, 7)]:
            nus = enumerate_partitions_in_box(k, n, m)
            keys = [_pack(nu, _width(k)) for nu in nus]
            assert keys == sorted(set(keys))
            for a, b in zip(nus, nus[1:]):
                assert antilex_greater(a, b)

    def test_ascending_reversed_vectors_on_every_small_box(self):
        # with the set checked against brute force, this pins the whole list
        for k in range(7):
            for n in range(7):
                for m in range(n * k + 1):
                    keys = [nu[::-1] for nu in enumerate_partitions_in_box(k, n, m)]
                    assert keys == sorted(set(keys))

    def test_wide_box_without_recursion(self):
        # one level per part size; a recursive walk overflows the stack here
        (nu,) = enumerate_partitions_in_box(1, 1200, 1)
        assert nu == (0, 1) + (0,) * 1199
        assert len(enumerate_partitions_in_box(2, 1500, 1500)) == 751

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda k: st.integers(0, 40).flatmap(
                lambda n: st.tuples(st.just(k), st.just(n), st.integers(0, n * k))
            )
        )
    )
    def test_keys_of_boxes_up_to_12_by_40(self, box):
        k, n, m = box
        assume(count_partitions_in_box(k, n, m) <= 20000)
        _check_stratum_keys(k, n, m)

    @pytest.mark.parametrize(
        "box, count", [((8, 14, 56), 8512), ((10, 11, 55), 9686)], ids=["8x14", "10x11"]
    )
    def test_keys_of_large_strata(self, box, count):
        assert _check_stratum_keys(*box) == count

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            enumerate_partitions_in_box(2, 2, 5)
        with pytest.raises(ValueError):
            enumerate_partitions_in_box(2, 2, -1)

    def test_degenerate_boxes(self):
        assert enumerate_partitions_in_box(0, 4, 0)[0] == (0, 0, 0, 0, 0)
        assert enumerate_partitions_in_box(3, 0, 0)[0] == (3,)



def _check_stratum_keys(k, n, m):
    """Check the walk of one stratum and return its number of keys.

    Strictly ascending keys, as many as the box count, each the packing of
    a vector in the stratum, pin the whole list.
    """
    keys = boxpartitions._stratum_keys(k, n, m)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(keys) == count_partitions_in_box(k, n, m)
    nus = enumerate_partitions_in_box(k, n, m)
    assert len(nus) == len(keys)
    w = _width(k)
    for key, nu in zip(keys, nus):
        assert len(nu) == n + 1 and sum(nu) == k
        assert sum(i * e for i, e in enumerate(nu)) == m
        assert _pack(nu, w) == key
    return len(keys)
