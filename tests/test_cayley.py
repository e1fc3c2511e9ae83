import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semiinv import cayley
from semiinv.boxpartitions import (
    _stratum_keys,
    count_partitions_in_box,
    delta,
    enumerate_partitions_in_box,
)
from semiinv.cache import kernel_file_name, kernel_json_bytes
from semiinv.cayley import (
    KernelBasis,
    SparseIntMatrix,
    _back_substitute,
    _canonical,
    _distinct_leads,
    _echelon,
    _in_kernel,
    apply_D,
    build_D_matrix,
    kernel_basis,
    semiinvariant_dim,
    shear_check,
    shear_coefficients,
    sylvester_grid_mismatches,
)
from semiinv.monomials import SIPoly, _unpack, _width
from semiinv.witnesses import triangulate

from helpers import (
    I1_TERMS,
    I2_TERMS,
    canonical_json_bytes,
    dense_kernel,
    dense_rank,
    gauss_jordan_kernel,
    run_capped,
)

# classical explicit semi-invariants
J_QUAD = SIPoly(2, {(1, 0, 1): 1, (0, 2, 0): -1})  # a0 a2 - a1^2 (discriminant)
J_CUBE = SIPoly(2, {(2, 0, 1): 1, (1, 2, 0): -1})  # a0^2 a2 - a0 a1^2
J_QUART = SIPoly(4, {(0, 0, 2, 0, 0): 3, (0, 1, 0, 1, 0): -4, (1, 0, 0, 0, 1): 1})


def random_rational(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def divided_power_scale(nu):
    """``s(nu) = prod_{i>=1} (i!)^nu_i nu_i!``: ``a^nu / s(nu)`` is the
    divided-power basis vector of the exponent vector ``nu``."""
    return prod(factorial(i) ** e * factorial(e) for i, e in enumerate(nu) if i)


def row_exponents(mat, n, k):
    """``{row key: exponent vector}`` over the rows of ``mat``."""
    return dict(zip(mat.rows, _unpack(mat.rows, n, _width(k))))


class TestApplyD:
    def test_annihilates_classical_invariants(self):
        assert apply_D(J_QUAD).is_zero()
        assert apply_D(J_CUBE).is_zero()
        assert apply_D(J_QUART).is_zero()
        assert apply_D(SIPoly(4, I1_TERMS)).is_zero()
        assert apply_D(SIPoly(4, I2_TERMS)).is_zero()

    def test_constant_maps_to_zero(self):
        assert apply_D(SIPoly.constant(3, 5)).is_zero()
        assert apply_D(SIPoly.term(3, (2, 0, 0, 0), 1)).is_zero()

    def test_single_variable(self):
        # D(a_1) = a_0, D(a_2) = 2 a_1
        assert apply_D(SIPoly.variable(2, 1)) == SIPoly.variable(2, 0)
        assert apply_D(SIPoly.variable(2, 2)) == SIPoly.variable(2, 1).scale(2)

    def test_drops_weight_keeps_degree(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            k = rng.randint(1, 4)
            m = rng.randint(1, n * k)
            exps = enumerate_partitions_in_box(k, n, m)
            terms = {nu: rng.randint(-3, 3) for nu in rng.sample(exps, min(3, len(exps)))}
            p = SIPoly(n, terms)
            if p.is_zero():
                continue
            image = apply_D(p)
            if not image.is_zero():
                assert image.bidegree() == (k, m - 1)

    def test_steps_stop_at_the_highest_occupied_slot(self):
        # a form of degree 10**5: lowering steps for every slot would hold
        # about 0.6 GB of ints, far past the 256 MiB cap
        code = ("from semiinv.cayley import apply_D; "
                "from semiinv.monomials import SIPoly; "
                "a = lambda i: SIPoly.variable(10**5, i); "
                "print(apply_D(a(0)).is_zero(), apply_D(a(3)) == a(2).scale(3))")
        proc = run_capped("-c", code, timeout=30)
        assert (proc.returncode, proc.stdout) == (0, "True True\n"), proc.stderr


class TestMatrix:
    def test_worked_cell_shape(self):
        mat = build_D_matrix(4, 4, 6)
        assert (mat.nrows, mat.ncols) == (5, 7)

    def test_single_row_at_weight_one(self):
        mat = build_D_matrix(3, 4, 1)
        assert mat.nrows == 1

    def test_column_sparsity_and_sums(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            k = rng.randint(1, 5)
            m = rng.randint(1, n * k)
            mat = build_D_matrix(n, k, m)
            mus = row_exponents(mat, n, k)
            for j, nu in enumerate(enumerate_partitions_in_box(k, n, m)):
                col = mat.cols[j]
                assert len(col) <= n
                total = 0
                for r in col:
                    mu = mus[r]
                    # the unit moved from slot i to slot i-1
                    [i] = [i for i in range(1, n + 1) if mu[i] == nu[i] - 1]
                    entry = mat.rows[r][j]
                    assert entry == (1 if i == 1 else nu[i - 1] + 1)
                    # rescaled to monomials it is the entry i*nu_i of D
                    scaled = Fraction(entry * divided_power_scale(nu),
                                      divided_power_scale(mu))
                    assert scaled == i * nu[i]
                    total += scaled
                # the entries i*nu_i over a monomial sum to its weight
                assert total == m

    def test_columns_match_operator(self):
        # past (4, 3, 5), m < n: the matrix stops at slot m, apply_D runs
        # over all n slots
        for n, k, m in [(4, 3, 5), (7, 3, 2), (9, 2, 4), (6, 4, 5), (12, 1, 1)]:
            mat = build_D_matrix(n, k, m)
            mus = row_exponents(mat, n, k)
            assert sum(map(len, mat.rows.values())) == sum(map(len, mat.cols))
            for j, nu in enumerate(enumerate_partitions_in_box(k, n, m)):
                image = apply_D(SIPoly.term(n, nu, 1))
                expected = {mu: Fraction(c) for mu, c in image.items()}
                rescaled = {
                    mus[r]: Fraction(mat.rows[r][j] * divided_power_scale(nu),
                                     divided_power_scale(mus[r]))
                    for r in mat.cols[j]
                }
                assert rescaled == expected

    def test_rows_are_the_lower_stratum(self):
        # the column sweep of sylvester_grid_mismatches rests on this; k runs
        # past the slot-width steps at k = 4 and k = 8
        for n in range(1, 8):
            for k in range(1, 10):
                for m in range(1, n * k + 1):
                    mat = build_D_matrix(n, k, m)
                    assert mat.nrows == count_partitions_in_box(k, n, m - 1), (n, k, m)
                    assert sorted(mat.rows) == _stratum_keys(k, n, m - 1), (n, k, m)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 16), k=st.integers(1, 16), data=st.data())
    def test_rows_are_the_lower_stratum_of_larger_boxes(self, n, k, data):
        m = data.draw(st.integers(1, n * k), label="m")
        # halve the distance to the nearer end until the stratum is small
        while count_partitions_in_box(k, n, m) > 3000:
            m = (m + 1) // 2 if 2 * m <= n * k else m + (n * k - m + 1) // 2
        assert sorted(build_D_matrix(n, k, m).rows) == _stratum_keys(k, n, m - 1)

    def test_one_stratum_walk_per_matrix(self, monkeypatch):
        calls = []

        def counting(k, n, m):
            calls.append((k, n, m))
            return _stratum_keys(k, n, m)

        monkeypatch.setattr(cayley, "_stratum_keys", counting)
        for n, k, m in [(4, 4, 6), (1, 3, 2), (6, 2, 12), (8, 8, 32)]:
            calls.clear()
            build_D_matrix(n, k, m)
            assert calls == [(k, n, m)]

    def test_bad_weight_rejected(self):
        for m in (-1, 10):
            with pytest.raises(ValueError, match=r"outside \[0, 9\]"):
                build_D_matrix(3, 3, m)

    def test_bad_arguments_rejected(self):
        with pytest.raises(TypeError, match=r"^n=.*, k=.*, m=.*: arguments must be ints"):
            build_D_matrix(4.0, 4, 6)
        with pytest.raises(ValueError, match=r"parameters must be nonnegative, got n=-1, k=2"):
            build_D_matrix(-1, 2, 0)

    def test_weight_zero_matrix(self):
        # a_0^k alone, which D kills: one column and no row
        for n in range(5):
            for k in range(5):
                mat = build_D_matrix(n, k, 0)
                assert (mat.ncols, mat.nrows, mat.col_keys) == (1, 0, (k,)), (n, k)


class TestKernel:
    def test_worked_cell(self):
        kb = kernel_basis(4, 4, 6)
        assert kb.dim == 2
        for v in kb.vectors:
            assert apply_D(v).is_zero()
            assert v.bidegree() == (4, 6)

    def test_explicit_pair_lies_in_kernel_span(self):
        kb = kernel_basis(4, 4, 6)
        i1 = SIPoly(4, I1_TERMS)
        i2 = SIPoly(4, I2_TERMS)
        assert dense_rank(list(kb.vectors)) == 2
        assert dense_rank(list(kb.vectors) + [i1]) == 2
        assert dense_rank(list(kb.vectors) + [i2]) == 2

    def test_weight_zero_basis(self):
        kb = kernel_basis(3, 4, 0)
        assert kb.dim == 1
        assert kb.vectors[0] == SIPoly.term(3, (4, 0, 0, 0), 1)
        # every weight-0 stratum, including n = 0 and k = 0, is the one-term
        # basis a_0^k, byte for byte
        for n in range(12):
            for k in range(12):
                a0_power = SIPoly.term(n, (k,) + (0,) * n, 1)
                expected = KernelBasis(n, k, 0, (a0_power,)).to_json_obj()
                got = kernel_basis(n, k, 0).to_json_obj()
                assert canonical_json_bytes(got) == canonical_json_bytes(expected), (n, k)
                assert semiinvariant_dim(n, k, 0) == delta(k, n, 0) == 1, (n, k)

    def test_empty_above_middle(self):
        # the operator is injective past the middle weight
        for n in range(1, 6):
            for k in range(1, 6):
                for m in range(n * k // 2 + 1, n * k + 1):
                    assert kernel_basis(n, k, m).dim == 0
                    assert semiinvariant_dim(n, k, m) == 0

    def test_vectors_are_primitive(self):
        from math import gcd

        kb = kernel_basis(6, 4, 8)
        for v in kb.vectors:
            ints = [c for _, c in v.items()]
            assert all(c.denominator == 1 for c in ints)
            g = 0
            for c in ints:
                g = gcd(g, c.numerator)
            assert g == 1
            assert v.coefficient(v.leading_nu()) > 0

    def test_json_round_trip(self):
        kb = kernel_basis(4, 4, 6)
        again = KernelBasis.from_json_obj(kb.to_json_obj())
        assert again.vectors == kb.vectors
        assert (again.n, again.k, again.m) == (4, 4, 6)
        assert again.verify()

    def test_verify_rejects_vectors_of_another_stratum(self):
        vectors = kernel_basis(4, 4, 4).vectors
        assert KernelBasis(4, 4, 4, vectors).verify()
        # annihilated by D, but of weight 4 or in a_0..a_4
        assert not KernelBasis(4, 4, 6, vectors).verify()
        assert not KernelBasis(4, 5, 4, vectors).verify()
        assert not KernelBasis(5, 4, 4, vectors).verify()
        # a zero vector, and D-killed vectors mixing weights or degrees
        a0 = SIPoly.variable(4, 0)
        for bad in (SIPoly.zero(4), vectors[0] + a0**4, vectors[0] + a0**3):
            assert not KernelBasis(4, 4, 4, (bad,)).verify()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            kernel_basis(3, 3, -1)
        with pytest.raises(ValueError):
            kernel_basis(3, 3, 10)


# (n, k, m, delta) for every stratum with n, k <= 6 and m <= nk/2
STRATA = [
    (n, k, m, delta(k, n, m)) for n in range(7) for k in range(7) for m in range(n * k // 2 + 1)
]
TAMPERS = ["scaled", "swapped", "dropped", "stray-monomial", "other-stratum"]
PRODUCT_TAMPERS = ["other-stratum", "stray-monomial", "equal-leads", "zero", "other-n"]


@lru_cache(maxsize=None)
def _triangle(n, k, m):
    return tuple(triangulate(kernel_basis(n, k, m).vectors))


class TestCertify:
    """The elimination-free checks on computed bases and on tampered ones."""

    def test_computed_bases_pass(self):
        for n, k, m, _ in STRATA:
            vs = kernel_basis(n, k, m).vectors
            assert _in_kernel(n, k, m, [(v,) for v in vs]) and _canonical(n, k, m, vs), (n, k, m)
            assert _distinct_leads([(v,) for v in triangulate(vs)]), (n, k, m)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tamper_rejected_by_its_check(self, data):
        tamper = data.draw(st.sampled_from(TAMPERS))
        need = 2 if tamper == "swapped" else 1
        n, k, m, _ = data.draw(st.sampled_from([
            s for s in STRATA if s[3] >= need and (tamper != "stray-monomial" or s[2])
        ]))
        vs = list(kernel_basis(n, k, m).vectors)
        i = data.draw(st.integers(0, len(vs) - 1))
        if tamper == "scaled":
            vs[i] = vs[i].scale(2)
        elif tamper == "swapped":
            j = data.draw(st.integers(0, len(vs) - 1).filter(lambda j: j != i))
            vs[i], vs[j] = vs[j], vs[i]
        elif tamper == "dropped":
            del vs[i]
        elif tamper == "stray-monomial":
            # D kills the vector but no monomial of positive weight
            nu = data.draw(st.sampled_from(enumerate_partitions_in_box(k, n, m)))
            vs[i] = vs[i] + SIPoly.term(n, nu, data.draw(st.integers(1, 3)))
        else:
            _, k2, m2, _ = data.draw(st.sampled_from([
                s for s in STRATA if s[0] == n and s[3] and s[1:3] != (k, m)
            ]))
            vs[i] = kernel_basis(n, k2, m2).vectors[0]
        if tamper in ("stray-monomial", "other-stratum"):
            assert not _in_kernel(n, k, m, [(v,) for v in vs])
        else:
            assert _in_kernel(n, k, m, [(v,) for v in vs])
            assert not _canonical(n, k, m, vs)

    @pytest.mark.parametrize("tamper", PRODUCT_TAMPERS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_product_tamper_rejected_by_its_check(self, tamper, data):
        # the factor pairs of a staircase of two triangles, as lemma_combine
        # checks them, pass both checks; one tampered factor or a repeated
        # pair fails the check named for it
        n = data.draw(st.integers(2, 6))
        strata = [s[1:3] for s in STRATA if s[0] == n and s[3]]
        if tamper == "stray-monomial":
            # D kills a_0^k, the one monomial of weight 0
            strata = [(k, m) for k, m in strata if m]
        (k1, m1), (k2, m2) = data.draw(st.lists(st.sampled_from(strata), min_size=2, max_size=2))
        b1, b2 = _triangle(n, k1, m1), _triangle(n, k2, m2)
        pairs = [(b1[0], w) for w in b2] + [(v, b2[-1]) for v in b1[1:]]
        k, m = k1 + k2, m1 + m2
        assert _in_kernel(n, k, m, pairs) and _distinct_leads(pairs)
        i = data.draw(st.integers(0, len(pairs) - 1))
        if tamper == "equal-leads":
            pairs.insert(i, pairs[i])
            assert _in_kernel(n, k, m, pairs) and not _distinct_leads(pairs)
            return
        j = data.draw(st.integers(0, 1))
        f = pairs[i][j]
        if tamper == "other-stratum":
            other = data.draw(st.sampled_from([s for s in strata if s != f.bidegree()]))
            g = _triangle(n, *other)[0]
        elif tamper == "stray-monomial":
            fk, fm = f.bidegree()
            nu = data.draw(st.sampled_from(enumerate_partitions_in_box(fk, n, fm)))
            g = f + SIPoly.term(n, nu, data.draw(st.integers(1, 3)))
        elif tamper == "zero":
            g = SIPoly.zero(n)
        else:
            # the same polynomial in a_0..a_{n+1}: homogeneous and killed by D
            g = SIPoly(n + 1, {(*nu, 0): c for nu, c in f.items()})
        pairs[i] = (g, pairs[i][1]) if j == 0 else (pairs[i][0], g)
        assert not _in_kernel(n, k, m, pairs)
        if tamper == "zero":
            assert not _distinct_leads(pairs)


def _primitive_int_vector(x):
    """``x`` divided by its content, positive at its least column."""
    g = 0
    for v in x.values():
        g = gcd(g, v)
    if x[min(x)] < 0:
        g = -g
    return {c: v // g for c, v in x.items()}


@st.composite
def _sparse_matrices(draw):
    """``(ncols, {row key: {column: entry}})`` with small entries of both
    signs, so that columns meet unit and non-unit pivots, lone negative
    candidates and no candidate at all."""
    ncols = draw(st.integers(0, 7))
    keys = draw(st.lists(st.integers(-20, 20), max_size=8, unique=True))
    entries = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 6])
    rows = {}
    for key in keys:
        cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
        if cols:
            rows[key] = {c: draw(entries) for c in sorted(cols)}
    return ncols, rows


def _sparse(ncols, rows):
    """The :class:`SparseIntMatrix` of ``{row key: {column: entry}}``."""
    return SparseIntMatrix(
        tuple(tuple(r for r, row in rows.items() if c in row) for c in range(ncols)),
        rows,
    )


class TestEliminationOrder:
    @settings(max_examples=300, deadline=None)
    @given(_sparse_matrices())
    # column 0: a lone candidate -2; column 1: a unit pivot that updates
    # row 5; column 2: row 5's -4, now lone; column 3: pivot 2, which
    # rescales row 11 and divides it by its content 2; column 4: row 11's
    # -5, now lone; column 5: empty; column 6: free
    @example((7, {7: {0: -2, 2: 3, 6: 1}, 3: {1: 1, 2: 1, 4: 2, 6: -1},
                  5: {1: 3, 2: -1, 4: 1}, 9: {3: 2, 4: 4}, 11: {3: 3, 4: 1, 6: 2}}))
    def test_sparse_matrices_match_gauss_jordan(self, matrix):
        ncols, rows = matrix
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows.values()]
        ref_free, ref_kernel = gauss_jordan_kernel(dense, ncols)
        pivots, free = _echelon(_sparse(ncols, rows))
        assert free == ref_free
        assert sorted([c for c, _ in pivots] + free) == list(range(ncols))
        for c, row in pivots:
            # a lone candidate's sign flip is seen here and nowhere else
            assert row[c] > 0 and min(row) == c
        for f, ref in zip(free, ref_kernel):
            x = _back_substitute(pivots, f)
            assert x[f] > 0
            assert all(x.get(c, 0) == x[f] * ref.get(c, 0) for c in range(ncols))

    # each case: two candidates at column 0, the set's first not the pivot
    @pytest.mark.parametrize(
        "rows, expected",
        [
            ({1: {0: 2, 1: 1}, 2: {0: -1, 1: 1}}, 2),  # the smaller |entry|
            ({1: {0: 1, 1: 1, 2: 1}, 2: {0: 1, 2: 1}}, 2),  # the shorter row
            ({8: {0: 1, 1: 1}, 1: {0: 1, 2: 1}}, 1),  # the smaller row key
        ],
        ids=["entry", "length", "key"],
    )
    def test_pivot_is_the_smallest_candidate(self, rows, expected):
        mat = _sparse(3, rows)
        assert next(iter(set(mat.cols[0]))) != expected
        pivots, _ = _echelon(mat)
        assert pivots[0][0] == 0 and pivots[0][1] is mat.rows[expected]

    def test_rescaled_row_divided_by_its_content(self):
        # pivot 2 against 3: row 2 becomes 2*row2 - 3*row1 = {1: -4, 2: 4},
        # divided by 4, then pivots at column 1 with its sign flipped
        mat = _sparse(3, {1: {0: 2, 1: 2}, 2: {0: 3, 1: 1, 2: 2}})
        pivots, free = _echelon(mat)
        assert pivots == [(0, {0: 2, 1: 2}), (1, {1: 1, 2: -1})] and free == [2]
        assert pivots[1][1] is mat.rows[2]

    def test_pivot_rows_golden(self):
        # the pivot rule and the content pass fix the rows' size and growth
        pivots, _ = _echelon(build_D_matrix(8, 8, 32))
        assert (
            sum(len(row) for _, row in pivots),
            max(abs(v).bit_length() for _, row in pivots for v in row.values()),
        ) == (5539, 39)

    def test_matches_dense_reference_on_small_strata(self):
        for n in range(6):
            for k in range(6):
                for m in range(n * k + 1):
                    free, expected = dense_kernel(n, k, m)
                    kb = kernel_basis(n, k, m)
                    got = [
                        {nu: int(c) for nu, c in v.items()} for v in kb.vectors
                    ]
                    assert got == expected, (n, k, m)
                    assert _echelon(build_D_matrix(n, k, m))[1] == free

    def test_keeps_every_row_key(self):
        # the sweep sorts the row keys of a matrix after eliminating it
        for n in range(7):
            for k in range(7):
                for m in range(n * k + 1):
                    mat = build_D_matrix(n, k, m)
                    keys = sorted(mat.rows)
                    _echelon(mat)
                    assert sorted(mat.rows) == keys, (n, k, m)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_row_order_does_not_change_the_kernel(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        k = data.draw(st.integers(1, 6), label="k")
        m = data.draw(st.integers(1, n * k), label="m")
        mat = build_D_matrix(n, k, m)
        # relabelling the row keys changes which row wins a pivot tie
        keys = sorted(mat.rows)
        relabel = dict(zip(keys, data.draw(st.permutations(keys), label="perm")))
        # negative scales reach sign-flipped pivots, and scales other than
        # +-1 reach rows that are rescaled and then divided by their content
        scale = data.draw(
            st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     min_size=mat.nrows, max_size=mat.nrows),
            label="scale",
        )
        # built first: _echelon consumes the matrix it eliminates
        shuffled = SparseIntMatrix(
            tuple(tuple(relabel[r] for r in col) for col in mat.cols),
            {
                relabel[r]: {c: a * v for c, v in mat.rows[r].items()}
                for r, a in zip(keys, scale)
            },
        )
        pivots, free = _echelon(mat)
        # the pivot rows are the matrix's own rows, and the others end empty
        assert {id(r) for _, r in pivots} == {id(row) for row in mat.rows.values() if row}
        pivots2, free2 = _echelon(shuffled)
        assert free2 == free
        assert [c for c, _ in pivots2] == [c for c, _ in pivots]
        for f in free:
            assert _primitive_int_vector(
                _back_substitute(pivots2, f)
            ) == _primitive_int_vector(_back_substitute(pivots, f))

    @pytest.mark.parametrize(
        "stratum, digest",
        [
            ((8, 8, 32), "41188cf41ebf1f2d6b543ac7cd13f1ab2b2638201c9607866cd1b70965b5ad4c"),
            ((9, 7, 31), "d9f9b13ac4caf96ef125462a735081cdb6928f0646a78d2ce74d4691334f1e5f"),
            ((10, 8, 40), "a9fa9c35e451514c76d2b300a5eeb66bdf9da500326a3323e9eaea2847bd1188"),
        ],
        ids=["8-8-32", "9-7-31", "10-8-40"],
    )
    def test_large_basis_golden(self, stratum, digest):
        data = canonical_json_bytes(kernel_basis(*stratum).to_json_obj())
        assert hashlib.sha256(data).hexdigest() == digest

    def test_small_strata_kernel_bytes(self):
        # every stratum with n, k <= 7, each file's name then its bytes
        h = hashlib.sha256()
        strata = [(n, k, m) for n in range(8) for k in range(8) for m in range(n * k + 1)]
        assert len(strata) == 848
        for n, k, m in strata:
            h.update(kernel_file_name(n, k, m).encode())
            h.update(kernel_json_bytes(kernel_basis(n, k, m)))
        assert h.hexdigest() == "8ea07fea811c4a6f651067f3fb468d0be3694b073aacf076744b3c1f5db11888"


class TestPackedKeys:
    def test_col_keys_decode_to_the_basis(self):
        for n in range(1, 6):
            for k in range(1, 6):
                for m in range(1, n * k + 1):
                    mat = build_D_matrix(n, k, m)
                    decoded = list(_unpack(mat.col_keys, n, _width(k)))
                    assert decoded == enumerate_partitions_in_box(k, n, m), (n, k, m)

    def test_kernel_vectors_match_checked_construction(self):
        for n in range(6):
            for k in range(6):
                for m in range(n * k + 1):
                    for v in kernel_basis(n, k, m).vectors:
                        rebuilt = SIPoly(n, dict(v.items()))
                        assert v == rebuilt and rebuilt == v, (n, k, m)
                        assert hash(v) == hash(rebuilt), (n, k, m)
                        assert v._terms == rebuilt._terms, (n, k, m)
                        assert v._deg == rebuilt._deg, (n, k, m)


class TestDimension:
    def test_known_dimensions(self):
        assert semiinvariant_dim(2, 3, 2) == 1
        assert semiinvariant_dim(4, 4, 6) == 2
        assert semiinvariant_dim(4, 4, 0) == 1

    def test_even_form_degree_two(self):
        for n in range(2, 10, 2):
            assert semiinvariant_dim(n, 2, n) == 1

    def test_rank_nullity(self):
        for (n, k, m) in [(4, 4, 6), (5, 3, 7), (3, 5, 6), (6, 2, 5)]:
            mat = build_D_matrix(n, k, m)
            dim = semiinvariant_dim(n, k, m)
            basis = enumerate_partitions_in_box(k, n, m)
            rows = [
                SIPoly(n, {basis[c]: v for c, v in row.items() if v})
                for row in mat.rows.values()
            ]
            rank = dense_rank([r for r in rows if not r.is_zero()])
            assert rank + dim == count_partitions_in_box(k, n, m)

    def test_sylvester_equivalence_small_grid(self):
        for n in range(5):
            for k in range(5):
                for m in range(n * k // 2 + 1):
                    assert semiinvariant_dim(n, k, m) == delta(k, n, m)


class TestSylvesterGrid:
    def test_column_sweep_matches_single_strata(self):
        for n in range(6):
            for k in range(6):
                assert cayley._column_nullities(n, k, n * k) == [
                    semiinvariant_dim(n, k, m) for m in range(n * k + 1)
                ], (n, k)

    def test_one_stratum_walk_per_column(self, monkeypatch):
        calls = []

        def counting(k, n, m):
            calls.append((k, n, m))
            return _stratum_keys(k, n, m)

        monkeypatch.setattr(cayley, "_stratum_keys", counting)
        assert sylvester_grid_mismatches(8, 7) == []
        # every column walks its top weight through build_D_matrix, 0 included
        assert calls == [(k, n, n * k // 2) for n in range(9) for k in range(8)]
        assert len(calls) == 72

    def test_single_stratum_builds_one_matrix(self, monkeypatch):
        # kernel_basis and semiinvariant_dim take the sweep's first step
        # only, so the next weight's matrix is never built
        calls = []
        real = cayley._lowering_matrix

        def counting(n, k, m, col_keys):
            calls.append((n, k, m))
            return real(n, k, m, col_keys)

        monkeypatch.setattr(cayley, "_lowering_matrix", counting)
        kernel_basis(8, 8, 32)
        semiinvariant_dim(9, 7, 31)
        assert calls == [(8, 8, 32), (9, 7, 31)]

    def test_mismatches_in_one_column_ascend(self, monkeypatch):
        real = cayley._column_nullities
        monkeypatch.setattr(
            cayley, "_column_nullities",
            lambda n, k, top: [d + ((n, k, m) in ((4, 4, 2), (4, 4, 6)))
                               for m, d in enumerate(real(n, k, top))])
        assert sylvester_grid_mismatches(5, 5) == [(4, 4, 2, 1, 2), (4, 4, 6, 2, 3)]


class TestShear:
    def test_identity_shear(self):
        rng = random.Random(23)
        p = SIPoly(4, I1_TERMS)
        a = [random_rational(rng) for _ in range(5)]
        assert shear_coefficients(a, 0) == [Fraction(x) for x in a]
        assert shear_check(p, 0, a)

    def test_shear_transform_values(self):
        # a_i' = sum_j C(i,j) a_{i-j} h^j at h=1, a=(1,0,0)
        assert shear_coefficients([1, 0, 0], 1) == [1, 1, 1]

    def test_kernel_vectors_pass_random_shears(self):
        rng = random.Random(20240131)
        kb = kernel_basis(4, 4, 6)
        for v in kb.vectors:
            for _ in range(20):
                h = random_rational(rng)
                a = [random_rational(rng) for _ in range(5)]
                assert shear_check(v, h, a)

    def test_non_invariant_detected(self):
        p = SIPoly.variable(2, 1)  # a_1 alone is not a semi-invariant
        assert not shear_check(p, 1, [1, 0, 0])

    def test_classical_invariants_pass(self):
        rng = random.Random(77)
        for p in (J_QUAD, J_CUBE, J_QUART):
            for _ in range(10):
                h = random_rational(rng)
                a = [random_rational(rng) for _ in range(p.n + 1)]
                assert shear_check(p, h, a)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            shear_check(J_QUAD, 1, [1, 2])
