import hashlib
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiinv import cache, cayley, witnesses
from semiinv.boxpartitions import delta
from semiinv.cache import kernel_basis_cached
from semiinv.cayley import (
    KernelBasis,
    SylvesterMismatchError,
    _distinct_leads,
    _in_kernel,
    apply_D,
    kernel_basis,
)
from semiinv.monomials import SIPoly
from semiinv.witnesses import (
    DependenceError,
    base_grid_deltas,
    independence_check,
    lemma_combine,
    nr8_witnesses,
    strict_witnesses,
    triangulate,
)

from helpers import (
    I1_TERMS,
    I2_TERMS,
    antilex_greater,
    canonical_json_bytes,
    dense_rank,
    run_capped,
)


class TestTriangulate:
    def test_worked_cell_leading_terms(self):
        tri = triangulate(kernel_basis(4, 4, 6).vectors)
        assert [v.leading_nu() for v in tri] == [(0, 2, 2, 0, 0), (1, 0, 3, 0, 0)]

    def test_worked_cell_printed(self):
        tri = triangulate(kernel_basis(4, 4, 6).vectors)
        assert [str(v) for v in tri] == [
            "3*a1^2*a2^2 - 4*a0*a2^3 - 4*a1^3*a3 + 6*a0*a1*a2*a3 - a0^2*a3^2",
            "a0*a2^3 - 2*a0*a1*a2*a3 + a0^2*a3^2 + a0*a1^2*a4 - a0^2*a2*a4",
        ]
        assert [repr(v) for v in tri] == ["SIPoly(n=4, 5 terms)"] * 2

    def test_single_vector_normalized(self):
        p = SIPoly(4, I2_TERMS).scale(-3)
        tri = triangulate([p])
        assert tri == [SIPoly(4, I2_TERMS)]

    def test_strictly_decreasing_leads(self):
        kb = kernel_basis(6, 4, 8)
        tri = triangulate(kb.vectors)
        leads = [v.leading_nu() for v in tri]
        assert all(antilex_greater(a, b) for a, b in zip(leads, leads[1:]))

    def test_span_preserved_under_random_recombination(self):
        kb = kernel_basis(6, 4, 8)
        assert kb.dim == 3
        rng = random.Random(314)
        combos = []
        for _ in range(3):
            coeffs = [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(3)]
            w = SIPoly.zero(6)
            for c, v in zip(coeffs, kb.vectors):
                w = w + v.scale(c)
            combos.append(w)
        if not independence_check(combos):
            pytest.skip("random combination happened to be dependent")
        tri = triangulate(combos)
        assert dense_rank(tri) == 3
        assert dense_rank(tri + list(kb.vectors)) == 3

    def test_dependent_input_raises_with_index(self):
        i1 = SIPoly(4, I1_TERMS)
        i2 = SIPoly(4, I2_TERMS)
        with pytest.raises(DependenceError) as info:
            triangulate([i1, i2, i1 - i2.scale(2)])
        assert info.value.index == 2

    def test_empty(self):
        assert triangulate([]) == []


class TestIndependence:
    def test_explicit_pair(self):
        assert independence_check([SIPoly(4, I1_TERMS), SIPoly(4, I2_TERMS)])

    def test_scaled_copy(self):
        p = SIPoly(4, I1_TERMS)
        assert not independence_check([p, p.scale(2)])

    def test_empty_family(self):
        assert independence_check([])


class TestNr8Witnesses:
    def test_base_cell_8_8(self):
        j1, j2 = nr8_witnesses(8, 8)
        for w in (j1, j2):
            assert w.bidegree() == (8, 32)
            assert apply_D(w).is_zero()
        assert antilex_greater(j1.leading_nu(), j2.leading_nu())
        assert independence_check([j1, j2])

    def test_reduction_cell_8_24(self):
        # r = 24 decomposes as 8*2 + 8
        j1, j2 = nr8_witnesses(8, 24)
        for w in (j1, j2):
            assert w.bidegree() == (24, 96)
            assert apply_D(w).is_zero()
        assert antilex_greater(j1.leading_nu(), j2.leading_nu())
        assert independence_check([j1, j2])

    def test_odd_n_cell_9_8(self):
        j1, j2 = nr8_witnesses(9, 8)
        for w in (j1, j2):
            assert w.bidegree() == (8, 36)
            assert apply_D(w).is_zero()
        assert independence_check([j1, j2])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            nr8_witnesses(7, 8)
        with pytest.raises(ValueError):
            nr8_witnesses(8, 7)
        with pytest.raises(ValueError):
            nr8_witnesses(9, 9)  # odd * odd leaves a half-integer weight

    def test_base_grid_deltas(self):
        rows = base_grid_deltas()
        assert len(rows) == 8 * 8 - 4 * 4
        assert all(d >= 2 for _, _, d in rows)


class TestStrictWitnesses:
    def test_gap_one_cell(self):
        # delta(2, 8, 8) == 1, so two witnesses come back
        assert delta(2, 8, 8) == 1
        ws = strict_witnesses(8, 10, 8, 40)
        assert len(ws) == 2
        for w in ws:
            assert w.bidegree() == (10, 40)
            assert apply_D(w).is_zero()
        assert independence_check(ws)
        leads = [w.leading_nu() for w in ws]
        assert len(set(leads)) == len(leads)

    def test_gap_zero_cell_returns_single_kernel_vector(self):
        assert delta(1, 8, 4) == 0
        ws = strict_witnesses(8, 9, 8, 36)
        assert len(ws) == 1
        assert ws[0].bidegree() == (9, 36)
        assert apply_D(ws[0]).is_zero()

    def test_boundary_cell_is_the_pair_itself(self):
        # k == r and m == n*r/2 forces t = delta(0, n, 0) = 1
        assert delta(0, 8, 0) == 1
        ws = strict_witnesses(8, 8, 8, 32)
        assert len(ws) == 2
        assert tuple(ws) == tuple(
            w.primitive() for w in nr8_witnesses(8, 8)
        )

    def test_size_never_exceeds_true_dimension(self):
        # witnesses embed into the full space, whose dimension is delta
        for (n, k, r, m) in [(8, 8, 8, 32), (8, 10, 8, 40), (8, 9, 8, 36)]:
            ws = strict_witnesses(n, k, r, m)
            assert len(ws) == delta(k - r, n, m - n * r // 2) + 1
            assert len(ws) <= delta(k, n, m)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            strict_witnesses(8, 7, 8, 32)  # k < r
        with pytest.raises(ValueError):
            strict_witnesses(7, 9, 8, 32)  # n < 8
        with pytest.raises(ValueError):
            strict_witnesses(8, 10, 8, 20)  # m below n*r/2
        with pytest.raises(ValueError):
            strict_witnesses(8, 10, 8, 41)  # m above n*k/2


class TestKernelTriangleGuard:
    @pytest.mark.parametrize(
        "build",
        [lambda: nr8_witnesses(8, 8), lambda: nr8_witnesses(8, 16),
         lambda: strict_witnesses(8, 12, 8, 48)],
        ids=["nr8-8-8", "nr8-8-16", "strict-8-12-8-48"],
    )
    def test_too_few_kernel_vectors_raise(self, monkeypatch, build):
        # every stratum's kernel basis comes back cut to its first vector,
        # below the two the nr8 pair and the gap-two staircase need
        real = witnesses.kernel_basis_cached

        def first_only(n, k, m, cache_dir=None):
            return KernelBasis(n, k, m, real(n, k, m, cache_dir).vectors[:1])

        monkeypatch.setattr(witnesses, "kernel_basis_cached", first_only)
        with pytest.raises(SylvesterMismatchError, match="guarantees at least 2"):
            build()


def _added_triangles(stale):
    """The bases in the triangle memo other than those in ``stale``.

    A basis that an earlier failing test's traceback still holds keeps its
    entry in the weak memo, so a test checks only the entries it adds; it
    holds ``stale`` meanwhile, so no new basis can reuse a stale one's id.
    """
    ids = set(map(id, stale))
    return [kb for kb in witnesses._triangle_memo.keys() if id(kb) not in ids]


class TestTriangleMemo:
    def test_each_kernel_triangulated_once(self, monkeypatch, tmp_path, capsys):
        from semiinv import cli

        stale = list(witnesses._triangle_memo.keys())
        calls = []
        real = witnesses.triangulate

        def counting(vs):
            calls.append(len(vs))
            return real(vs)

        monkeypatch.setattr(witnesses, "triangulate", counting)
        cache.clear_memory_cache()
        try:
            first = nr8_witnesses(8, 8)
            assert cli.main(["basis", "8", "8", "32", "--cache-dir", str(tmp_path)]) == 0
            assert nr8_witnesses(8, 16)[0] == (first[0] * first[0]).primitive()
            assert calls == [7]  # (8, 8, 32), triangulated for the first call only
            tri = witnesses._triangle_memo[cache._memory[8, 8, 32]]
            assert isinstance(tri, tuple) and tri[:2] == first
            assert capsys.readouterr().out == canonical_json_bytes(
                KernelBasis(8, 8, 32, tri).to_json_obj()).decode()
        finally:
            cache.clear_memory_cache()
        assert _added_triangles(stale) == [] and cache._memory == {}
        nr8_witnesses(8, 8)
        assert calls == [7, 7]
        cache.clear_memory_cache()


class TestMemoryBudget:
    # (6, 4, 8) is asked for again while still held; (4, 4, 6) after eviction
    CELLS = [(4, 4, 6), (4, 2, 4), (6, 4, 8), (4, 3, 6), (6, 4, 8), (4, 4, 6),
             (6, 4, 12), (4, 6, 12), (5, 4, 10), (4, 4, 6)]

    def _ask(self):
        """Each cell's basis and kernel triangle, asked for in turn."""
        for cell in self.CELLS:
            tri = witnesses._triangle(*cell, 0, None)
            yield cell, kernel_basis_cached(*cell).vectors, tri

    def test_small_budget_keeps_results_and_bounds_both_memos(self, monkeypatch):
        stale = list(witnesses._triangle_memo.keys())
        cache.clear_memory_cache()
        try:
            expected = [(vectors, tri) for _, vectors, tri in self._ask()]
            assert set(cache._memory) == set(self.CELLS)  # nothing evicted
            cache.clear_memory_cache()
            budget = 30
            monkeypatch.setattr(cache, "_MEMORY_BUDGET", budget)
            for (cell, vectors, tri), want in zip(self._ask(), expected):
                assert (vectors, tri) == want
                sizes = {key: sum(map(len, kb.vectors))
                         for key, kb in cache._memory.items()}
                assert cache._memory_size == sum(sizes.values())
                # within the budget, or holding only the entry just inserted
                assert cache._memory_size <= budget + sizes[cell]
                assert cache._memory_size <= budget or list(sizes) == [cell]
                # every live triangle's basis added here is one the memo
                # holds, and the triangle just asked for is kept with its basis
                held = set(map(id, cache._memory.values()))
                assert set(map(id, _added_triangles(stale))) <= held
                assert witnesses._triangle_memo[cache._memory[cell]] is tri
            assert len(cache._memory) < len(set(self.CELLS))
        finally:
            cache.clear_memory_cache()
        assert cache._memory_size == 0


    @pytest.mark.parametrize(
        "call",
        [lambda: kernel_basis_cached(4.0, 4, 6), lambda: kernel_basis_cached(4, 4.0, 6),
         lambda: kernel_basis_cached(4, 4, 6.0), lambda: kernel_basis_cached(True, 2, 1),
         lambda: kernel_basis_cached(1, 2, True), lambda: nr8_witnesses(8.0, 8),
         lambda: cayley.semiinvariant_dim(4.0, 4, 6), lambda: kernel_basis(4, 4, 6.0)],
        ids=["n-float", "k-float", "m-float", "n-bool", "m-bool", "nr8-float",
             "dim-float", "basis-float"],
    )
    def test_non_int_arguments_rejected_on_cold_and_warm_memo(self, call):
        try:
            for warm in (False, True):
                cache.clear_memory_cache()
                if warm:
                    for cell in [(4, 4, 6), (1, 2, 1), (8, 8, 32)]:
                        kernel_basis_cached(*cell)
                with pytest.raises(TypeError, match="^n=.*, k=.*, m=.*: arguments must be ints"):
                    call()
        finally:
            cache.clear_memory_cache()


class TestWitnessGoldens:
    # sha256 of each family's canonical JSON, the first three recorded with
    # tuple-keyed, Fraction-valued SIPoly arithmetic; the last two pin the
    # r >= 16 reduction and a gap-two staircase
    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: nr8_witnesses(8, 8),
             "dff7dd3330aa93f6ea0a281770f9e6c183d84a555ec01f0165b64e6c88f88d1a"),
            (lambda: nr8_witnesses(9, 8),
             "c9cf1cae3eeafbc8f087893d9aa9dd52e3d25871ea2572d7052bb1200a89592a"),
            (lambda: strict_witnesses(8, 10, 8, 40),
             "0a02357e38fb28230efcd514688062eac566cd4d9365ded59360c78a3f9dc3a4"),
            (lambda: nr8_witnesses(8, 16),
             "101a43d042eeaaa16af7555d89577984c36dd7e612a05f984a3686a8b2eabd69"),
            (lambda: strict_witnesses(8, 12, 8, 48),
             "9e12f0579ad3efece3931c70f956304ec884e4038b8ddc22c3cfc1ff21b8841c"),
        ],
        ids=["nr8-8-8", "nr8-9-8", "strict-8-10-8-40", "nr8-8-16", "strict-8-12-8-48"],
    )
    def test_canonical_json_digest(self, build, digest):
        data = canonical_json_bytes([w.to_json_list() for w in build()])
        assert hashlib.sha256(data).hexdigest() == digest


class TestLemmaCombine:
    def test_single_times_single(self):
        b1 = triangulate([SIPoly(4, I1_TERMS)])
        b2 = triangulate([SIPoly(4, I2_TERMS)])
        out = lemma_combine(b1, b2)
        assert len(out) == 1
        assert out[0] == (b1[0] * b2[0]).primitive()

    def test_self_combination_gives_three(self):
        basis = triangulate(kernel_basis(4, 4, 6).vectors)
        out = lemma_combine(basis, basis)
        assert len(out) == 3
        for w in out:
            assert w.bidegree() == (8, 12)
            assert apply_D(w).is_zero()
        assert dense_rank(out) == 3
        leads = [w.leading_nu() for w in out]
        assert len(set(leads)) == 3
        assert all(antilex_greater(a, b) for a, b in zip(leads, leads[1:]))

    def test_untriangulated_input_rejected(self):
        i1, i2 = SIPoly(4, I1_TERMS), SIPoly(4, I2_TERMS)
        # equal leads, increasing ones (i2's lead is below i1's), no lead
        for b1, b2 in [([i1, i1], [i1]), ([i1], [i2, i1]), ([SIPoly.zero(4)], [i1])]:
            with pytest.raises(ValueError, match="inputs must be triangulated"):
                lemma_combine(b1, b2)

    def test_empty_rejected(self):
        i1 = SIPoly(4, I1_TERMS)
        for b1, b2 in [([], [i1]), ([i1], [])]:
            with pytest.raises(ValueError, match="both bases must be nonempty"):
                lemma_combine(b1, b2)

    def test_mixed_form_degrees_rejected(self):
        i1, c3 = SIPoly(4, I1_TERMS), SIPoly.constant(3)
        with pytest.raises(ValueError, match="mixed form degrees"):
            triangulate([i1, c3])
        with pytest.raises(ValueError, match="mixed form degrees"):
            lemma_combine([i1], [c3])
        # a base mixing degrees, whose leads also fail the triangulation
        # check: the degree check must come first
        x4, z4, y5 = SIPoly.variable(4, 4), SIPoly.variable(4, 3), SIPoly.variable(5, 0)
        for b1, b2 in [([x4, y5], [z4]), ([x4], [z4, y5])]:
            with pytest.raises(ValueError, match="mixed form degrees"):
                lemma_combine(b1, b2)


class TestPackedRows:
    def test_one_product_per_staircase_row(self, monkeypatch, tmp_path):
        # nr8_witnesses(8, 16) squares the packed pair J1, J2 once (a product
        # per pair made 2); strict_witnesses(8, 14, 8, 56) multiplies J1 by
        # the packed triangle of (8, 6, 24) and J2 by its last vector (a
        # product per pair made 5)
        cache.clear_memory_cache()
        try:
            j1, j2 = witnesses._triangle(8, 8, 32, 2, tmp_path)[:2]
            inner = witnesses._triangle(8, 6, 24, 4, tmp_path)
            mul = SIPoly.__mul__
            made = []

            def counted(a, b):
                made.append((a, b))
                return mul(a, b)

            monkeypatch.setattr(SIPoly, "__mul__", counted)
            for build, pairs, calls in [
                (lambda: nr8_witnesses(8, 16, tmp_path), [(j1, j1), (j1, j2)], 1),
                (lambda: strict_witnesses(8, 14, 8, 56, tmp_path),
                 [(j1, v) for v in inner] + [(j2, inner[-1])], 2),
            ]:
                made.clear()
                ws = build()
                assert len(made) == calls
                expected = [mul(a, b).primitive() for a, b in pairs]
                assert list(ws) == expected
                assert [w._json_bytes() for w in ws] == [e._json_bytes() for e in expected]
        finally:
            cache.clear_memory_cache()


class TestMixedDegreeBounds:
    # a_0^3 > a_1 anti-lexicographically, but each one's own keys read 3
    # and 2 (a_0^2 and a_1 both read 2): leads must compare at one width
    A0, A1 = SIPoly.variable(1, 0), SIPoly.variable(1, 1)

    def test_triangulate_orders_across_widths(self):
        tri = triangulate([self.A1, self.A0**3])
        assert tri == [self.A0**3, self.A1]
        assert antilex_greater(tri[0].leading_nu(), tri[1].leading_nu())

    def test_triangulate_equal_own_width_keys(self):
        # compared at their own widths the leads would tie forever
        code = ("from semiinv.monomials import SIPoly; "
                "from semiinv.witnesses import triangulate; "
                "a0, a1 = SIPoly.variable(1, 0), SIPoly.variable(1, 1); "
                "print(*triangulate([a1, a0**2]))")
        proc = run_capped("-c", code, timeout=30)
        assert (proc.returncode, proc.stdout) == (0, "a0^2 a1\n"), proc.stderr

    def test_lemma_combine_accepts_decreasing_leads(self):
        out = lemma_combine([self.A0**3, self.A1], [self.A0])
        assert out == [self.A0**4, self.A1 * self.A0]

    def test_lemma_combine_rejects_increasing_leads(self):
        with pytest.raises(ValueError, match="inputs must be triangulated"):
            lemma_combine([self.A1, self.A0**3], [self.A0])


class TestCertifyWithoutElimination:
    def test_warm_load_and_lemma_combine(self, monkeypatch, tmp_path):
        cache.clear_memory_cache()
        try:
            kb = kernel_basis_cached(4, 4, 6, tmp_path)
            tri = triangulate(kb.vectors)
            cache.clear_memory_cache()

            def eliminate(*args, **kwargs):
                raise AssertionError("certification eliminated")

            monkeypatch.setattr(cayley, "build_D_matrix", eliminate)
            monkeypatch.setattr(cayley, "_echelon", eliminate)
            monkeypatch.setattr(witnesses, "triangulate", eliminate)
            # a rejected file would be recomputed, through build_D_matrix
            assert kernel_basis_cached(4, 4, 6, tmp_path).vectors == kb.vectors
            assert len(lemma_combine(tri, tri)) == 3
        finally:
            cache.clear_memory_cache()

    def test_witness_warm_certified_by_factors(self, monkeypatch, tmp_path):
        # nr8_witnesses(8, 16) and strict_witnesses(8, k, 8, 4k), k = 12..14:
        # 13 staircase products of the (8, 8, 32) pair J and the triangles of
        # (8, k - 8, 4k - 32), certified by their factors with no elimination
        inner_strata = {k: (k - 8, 4 * k - 32) for k in (12, 13, 14)}
        cache.clear_memory_cache()
        try:
            for k, m in [(8, 32), *inner_strata.values()]:
                kernel_basis_cached(8, k, m, tmp_path)
            cache.clear_memory_cache()

            def eliminate(*args, **kwargs):
                raise AssertionError("certification eliminated")

            monkeypatch.setattr(cayley, "build_D_matrix", eliminate)
            monkeypatch.setattr(cayley, "_echelon", eliminate)
            j1, j2 = witnesses._triangle(8, 8, 32, 2, tmp_path)[:2]
            families = [((8, 16, 64), [(j1, j1), (j1, j2)], nr8_witnesses(8, 16, tmp_path))]
            for k, (ki, mi) in inner_strata.items():
                inner = witnesses._triangle(8, ki, mi, delta(ki, 8, mi), tmp_path)
                pairs = [(j1, v) for v in inner] + [(j2, inner[-1])]
                families.append(((8, k, 4 * k), pairs, strict_witnesses(8, k, 8, 4 * k, tmp_path)))
            assert sum(len(ws) for _, _, ws in families) == 13
            for (n, k, m), pairs, ws in families:
                assert _in_kernel(n, k, m, pairs) and _distinct_leads(pairs)
                # the expansions lemma_combine returns, checked by apply_D
                assert list(ws) == [(a * b).primitive() for a, b in pairs]
                assert all(w.bidegree() == (k, m) and apply_D(w).is_zero() for w in ws)
        finally:
            cache.clear_memory_cache()


# (n, k, m) of every stratum with n, k <= 6, m <= nk/2 and a nonzero kernel
KERNEL_STRATA = [
    (n, k, m) for n in range(7) for k in range(7) for m in range(n * k // 2 + 1)
    if delta(k, n, m)
]


class TestRingClosure:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_products_of_kernel_vectors_stay_in_kernel(self, data):
        # 1-3 triangle vectors of one form degree, certified as a product
        # and as its expansion
        n = data.draw(st.integers(0, 6))
        strata = data.draw(st.lists(
            st.sampled_from([s for s in KERNEL_STRATA if s[0] == n]), min_size=1, max_size=3))
        factors = []
        for s in strata:
            tri = triangulate(kernel_basis(*s).vectors)
            factors.append(tri[data.draw(st.integers(0, len(tri) - 1))])
        product = prod(factors)
        k, m = (sum(s[i] for s in strata) for i in (1, 2))
        assert product.bidegree() == (k, m)
        assert apply_D(product).is_zero()
        for km in ((k, m), (k, m + 1), (k + 1, m)):
            verdict = _in_kernel(n, *km, [factors])
            assert verdict == _in_kernel(n, *km, [(product,)]) == (km == (k, m))
        # the lead sum is the expansion's least key, at the expansion's width
        assert min(product._terms) == sum(min(f._rekey(product._deg)._terms) for f in factors)
        assert not _distinct_leads([factors, (product,)])
        assert not _distinct_leads([(product,), factors])
        u, v = factors[0], factors[-1]
        assert apply_D(u + v.scale(data.draw(st.integers(1, 5)))).is_zero()
