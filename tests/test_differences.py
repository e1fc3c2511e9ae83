import concurrent.futures
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiinv import differences
from semiinv.boxpartitions import count_partitions_in_box, delta
from semiinv.differences import (
    F,
    G,
    ScanReport,
    VerificationError,
    bergeron,
    coefficients_digest,
    scan_bergeron,
    scan_conjecture_F_strict,
    scan_strange,
    stanley_zanello,
    strange,
    verify_theorem_F,
    verify_theorem_G,
    write_csv,
    write_jsonl,
)
from semiinv.qpoly import (
    QPoly,
    gauss,
    is_strictly_unimodal_except_ends,
    is_symmetric,
    is_unimodal,
)


class TestF:
    def test_shape_of_even_cell(self):
        f = F(6, 4)
        assert is_symmetric(f)
        assert is_unimodal(f)
        assert f.degree == 24

    def test_k_two_reduction(self):
        for n in range(1, 8):
            assert F(n, 2) == gauss(n + 2, 2) - QPoly([1]).shift(n)

    def test_coefficients_against_partition_oracle(self):
        # frozen from the brute-force count p(3,4,m) - p(1,4,m-4)
        assert list(F(4, 3).coeffs) == [1, 1, 2, 3, 3, 3, 4, 3, 3, 3, 2, 1, 1]
        f = F(4, 3)
        for m in range(13):
            expected = count_partitions_in_box(3, 4, m) - count_partitions_in_box(
                1, 4, m - 4
            )
            assert f.coefficient(m) == expected

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            F(4, 1)
        with pytest.raises(ValueError):
            F(0, 3)


class TestG:
    def test_golden_slices(self):
        g = G(8, 14, 10)
        assert g.degree == 112
        assert [g.coefficient(i) for i in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
        assert [g.coefficient(i) for i in range(53, 60)] == [
            8310, 8408, 8450, 8479, 8450, 8408, 8310,
        ]
        assert [g.coefficient(i) for i in range(106, 113)] == [11, 7, 5, 3, 2, 1, 1]
        assert is_symmetric(g)

    def test_r_equals_k_reduction(self):
        for n in (2, 4, 6):
            k = 5 if n % 2 == 0 else 4
            assert G(n, k, k) == gauss(n + k, k) - QPoly([1]).shift(n * k // 2)

    def test_flat_ends(self):
        g = G(8, 10, 8)
        assert g.coefficient(0) == g.coefficient(1) == 1
        assert g.coefficient(79) == g.coefficient(80) == 1

    def test_coefficient_identity(self):
        for (n, k, r) in [(8, 10, 8), (9, 10, 8), (8, 14, 10)]:
            g = G(n, k, r)
            for m in range(n * k + 1):
                expected = count_partitions_in_box(k, n, m) - count_partitions_in_box(
                    k - r, n, m - n * r // 2
                )
                assert g.coefficient(m) == expected

    def test_bridge_to_dimension_differences(self):
        # coefficient deltas match the partition-count dimension gap
        for (n, k, r) in [(8, 10, 8), (9, 10, 8)]:
            g = G(n, k, r)
            for m in range(2, n * k // 2 + 1):
                lhs = g.coefficient(m) - g.coefficient(m - 1)
                rhs = delta(k, n, m) - delta(k - r, n, m - n * r // 2)
                assert lhs == rhs
                assert lhs >= 1

    def test_odd_degree_central_pair(self):
        # an odd-degree symmetric polynomial always carries two equal
        # maxima in the middle; the strict predicate must absorb exactly that
        g = G(9, 9, 8)
        d = g.degree
        assert d == 81
        assert is_symmetric(g)
        assert g.coefficient(d // 2) == g.coefficient(d // 2 + 1)
        assert is_strictly_unimodal_except_ends(g)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            G(9, 10, 9)  # n*r odd
        with pytest.raises(ValueError):
            G(8, 7, 8)  # k < r


class TestStrange:
    def test_r_one_exponent(self):
        assert strange(7, 2, 1) == gauss(6, 2) - gauss(6, 0).shift(4)

    def test_small_instance_findings(self):
        s = strange(7, 2, 1)
        assert list(s.coeffs) == [1, 1, 2, 2, 2, 2, 2, 1, 1]
        assert is_unimodal(s)

    def test_larger_instance(self):
        s = strange(11, 3, 1)
        assert s.degree == gauss(10, 3).degree

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            strange(8, 2, 1)  # n even
        with pytest.raises(ValueError):
            strange(5, 3, 2)  # n below 2rk - 4r + 3 = 7
        with pytest.raises(ValueError):
            strange(7, 1, 1)


class TestStanleyZanello:
    def test_reduces_to_F(self):
        for n in range(2, 11, 2):
            for k in range(2, 11):
                assert stanley_zanello(k, n + k, n + k - 2) == F(n, k)

    def test_k_two_base(self):
        for m in range(2, 9):
            assert stanley_zanello(2, m, 0) == gauss(m, 2) - QPoly([1]).shift(m - 2)

    def test_explicit_cell(self):
        # exponent: 5*(12-8)/2 + 8 - 10 + 2 = 10
        assert stanley_zanello(5, 12, 8) == gauss(12, 5) - gauss(8, 3).shift(10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            stanley_zanello(3, 10, 9)  # 3*(10-9) odd, exponent not an integer
        with pytest.raises(ValueError):
            stanley_zanello(4, 5, 5)  # exponent 0 + 5 - 8 + 2 = -1
        with pytest.raises(ValueError):
            stanley_zanello(2, 3, 4)  # b > m


class TestBergeron:
    def test_equal_pair_is_zero(self):
        assert bergeron(3, 3, 5, 5).is_zero()

    def test_concrete_cells(self):
        b = bergeron(2, 4, 3, 6)
        assert list(b.coeffs) == [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]
        assert bergeron(1, 2, 2, 4) == QPoly([0, 0, 1])

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bergeron(2, 4, 3, 5)  # ad != bc
        with pytest.raises(ValueError):
            bergeron(3, 2, 6, 4)  # a not minimal
        with pytest.raises(ValueError):
            bergeron(0, 1, 1, 1)


class TestVerifiers:
    def test_F_grid_passes(self):
        reports = verify_theorem_F(8, 8)
        assert len(reports) == 4 * 7
        assert all(r.passed for r in reports)
        assert all(r.witness is None for r in reports)

    def test_G_grid_passes(self):
        reports = verify_theorem_G(9, 10, 9)
        # (n, r) in {(8,8), (8,9), (9,8)}; k from r to 10
        assert len(reports) == 3 + 2 + 3
        assert all(r.passed for r in reports)

    def test_verifier_failure_carries_witness(self, monkeypatch):
        # symmetric, but falls at index 2 and rises again at index 3
        monkeypatch.setattr(differences, "F", lambda n, k: QPoly([1, 2, 1, 2, 1]))
        with pytest.raises(VerificationError) as info:
            verify_theorem_F(4, 4)
        assert info.value.family == "F"
        assert info.value.params == {"n": 2, "k": 2}
        assert info.value.witness == 3

    def test_F_symmetry_failure(self, monkeypatch):
        monkeypatch.setattr(differences, "F", lambda n, k: QPoly([1, 2, 3, 4, 5]))
        with pytest.raises(VerificationError) as info:
            verify_theorem_F(4, 4)
        assert (info.value.family, info.value.params) == ("F", {"n": 2, "k": 2})
        assert info.value.witness == 0

    def test_F_delta_identity_failure(self, monkeypatch):
        # every delta row the check reads is off by one at m = 1
        real = differences._delta_row
        monkeypatch.setattr(
            differences, "_delta_row",
            lambda k, n, stop: tuple(d + (m == 1) for m, d in enumerate(real(k, n, stop))),
        )
        with pytest.raises(VerificationError) as info:
            verify_theorem_F(4, 4)
        assert (info.value.family, info.value.params) == ("F", {"n": 2, "k": 2})
        assert info.value.witness == 1

    def test_failure_names_the_failing_cell(self, monkeypatch):
        # only the cell (4, 3) is broken; earlier cells pass
        real = differences.F
        monkeypatch.setattr(
            differences,
            "F",
            lambda n, k: QPoly([1, 3, 2, 3, 1]) if (n, k) == (4, 3) else real(n, k),
        )
        with pytest.raises(VerificationError) as info:
            verify_theorem_F(6, 6)
        assert (info.value.family, info.value.params) == ("F", {"n": 4, "k": 3})
        assert info.value.witness == 3

    def test_G_symmetry_failure(self, monkeypatch):
        monkeypatch.setattr(differences, "G", lambda n, k, r: QPoly([1, 2, 3, 4, 5]))
        with pytest.raises(VerificationError) as info:
            verify_theorem_G(9, 10, 9)
        assert info.value.family == "G"
        assert info.value.params == {"n": 8, "k": 8, "r": 8}
        assert info.value.witness == 0

    def test_G_strictness_failure(self, monkeypatch):
        # symmetric and unimodal, with a flat top three coefficients wide
        monkeypatch.setattr(
            differences, "G", lambda n, k, r: QPoly([1, 1, 2, 2, 2, 1, 1])
        )
        with pytest.raises(VerificationError) as info:
            verify_theorem_G(9, 10, 9)
        assert info.value.family == "G"
        assert info.value.params == {"n": 8, "k": 8, "r": 8}
        assert info.value.witness == 4

    def test_verification_error_fields(self):
        err = VerificationError("boom", "G", {"n": 8}, 3)
        assert err.family == "G"
        assert err.witness == 3


class TestScanners:
    def test_f_strict_in_range_sample(self):
        reports = scan_conjecture_F_strict(8, 16)
        cells = {(r.params["n"], r.params["k"]) for r in reports}
        assert cells == {(8, 15), (8, 16)}
        for r in reports:
            assert r.checks["strict_except_ends"] is True

    def test_f_strict_below_range_records_known_failures(self):
        reports = scan_conjecture_F_strict(14, 9, include_below_range=True)
        by_cell = {(r.params["n"], r.params["k"]): r for r in reports}
        f59 = by_cell[(5, 9)]
        assert f59.checks["strict_except_ends"] is False
        assert f59.witness is not None
        f145 = by_cell[(14, 5)]
        assert f145.checks["strict_except_ends"] is False
        assert not is_strictly_unimodal_except_ends(F(5, 9))
        assert not is_strictly_unimodal_except_ends(F(14, 5))

    def test_strange_scan_rows(self):
        reports = scan_strange(11, 3, 2)
        assert all(r.family == "strange" for r in reports)
        cells = [(r.params["n"], r.params["k"], r.params["r"]) for r in reports]
        assert len(cells) == len(set(cells)) == 17
        assert (7, 2, 1) in cells
        assert (11, 3, 2) in cells
        assert (5, 3, 2) not in cells
        for n, k, r in cells:
            assert n % 2 == 1 and n >= 2 * r * k - 4 * r + 3

    def test_bergeron_scan_rows(self):
        reports = scan_bergeron(4)
        tuples = [tuple(r.params.values()) for r in reports]
        assert (2, 4, 3, 6) not in tuples  # 6 exceeds the bound
        assert (1, 2, 2, 4) in tuples
        assert all(a == min(t) for t in tuples for a in [t[0]])
        assert all(t[0] * t[3] == t[1] * t[2] for t in tuples)
        # row-major and duplicate-free
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)

    def test_empty_grids(self):
        assert scan_bergeron(0) == []
        assert scan_conjecture_F_strict(7, 20) == []
        assert scan_strange(2, 5, 5) == []

    def test_parallel_matches_serial(self):
        serial = scan_bergeron(5)
        parallel = scan_bergeron(5, jobs=2)
        assert serial == parallel

    def test_one_nonnegativity_scan_per_cell(self, monkeypatch):
        from semiinv import qpoly

        # every scan for a negative coefficient, from _cell or from inside a
        # public shape predicate
        scans = []
        real = qpoly.first_negative_index

        def counting(p):
            scans.append(p)
            return real(p)

        monkeypatch.setattr(qpoly, "first_negative_index", counting)
        monkeypatch.setattr(differences, "first_negative_index", counting)
        runs = [
            lambda: scan_conjecture_F_strict(6, 10, include_below_range=True),
            lambda: scan_strange(15, 4, 2),
            lambda: scan_bergeron(6),
            lambda: verify_theorem_F(6, 6),
            lambda: verify_theorem_G(9, 10, 9),
        ]
        for run in runs:
            scans.clear()
            reports = run()
            assert len(scans) == len(reports) > 0

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        # a stand-in pool that records its size and runs in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # three CPUs this process may run on, of eight on the machine
        monkeypatch.setattr(differences.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        monkeypatch.setattr(differences.os, "cpu_count", lambda: 8)
        serial = scan_bergeron(5)
        assert scan_bergeron(5, jobs=10**6) == serial
        assert scan_bergeron(5, jobs=2) == serial
        assert sizes == [3, 2]
        # no affinity on the platform: the machine's count, if known
        monkeypatch.delattr(differences.os, "sched_getaffinity")
        monkeypatch.setattr(differences.os, "cpu_count", lambda: None)
        assert scan_bergeron(5, jobs=10**6) == serial  # unknown count: serial
        assert scan_bergeron(5, jobs=0) == serial
        assert sizes == [3, 2]
        monkeypatch.setattr(differences.os, "cpu_count", lambda: 3)
        assert scan_bergeron(5, jobs=10**6) == serial
        assert sizes == [3, 2, 3]


class TestReports:
    def test_digest_stability(self):
        assert coefficients_digest(F(4, 3)) == coefficients_digest(F(4, 3))
        assert coefficients_digest(F(4, 3)) != coefficients_digest(F(4, 4))
        assert coefficients_digest(F(4, 3)).startswith("sha256:")
        # recorded with ",".join(map(str, coeffs)) at 8ec4d10
        assert coefficients_digest(F(4, 3)) == (
            "sha256:757438085616487b09508bdb3f5503b2def5d04b8d5334a43b72d5de00eab0ec")
        # the zero polynomial hashes the empty string
        assert coefficients_digest(QPoly()) == (
            "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    @given(st.lists(st.integers(-(2**70), 2**70), max_size=40), st.integers(0, 3))
    def test_digest_is_sha256_of_comma_joined_decimals(self, cs, zeros):
        cs = cs + [0] * zeros  # trailing zeros, which QPoly strips
        text = ",".join(map(str, QPoly(cs).coeffs))
        assert coefficients_digest(QPoly(cs)) == (
            "sha256:" + hashlib.sha256(text.encode()).hexdigest())

    def test_witness_invariant(self):
        with pytest.raises(ValueError):
            ScanReport("F", {}, {"unimodal": True}, 3, "sha256:x")
        with pytest.raises(ValueError):
            ScanReport("F", {}, {"unimodal": False}, None, "sha256:x")

    def test_jsonl_and_csv_output(self, tmp_path):
        reports = scan_bergeron(4)
        jpath = tmp_path / "out.jsonl"
        cpath = tmp_path / "out.csv"
        write_jsonl(reports, jpath)
        write_csv(reports, cpath)
        lines = jpath.read_text().splitlines()
        assert len(lines) == len(reports)
        first = json.loads(lines[0])
        assert first["family"] == "bergeron"
        assert set(first) == {
            "family", "params", "checks", "witness", "coefficients_digest",
        }
        rows = cpath.read_text().splitlines()
        assert rows[0] == "family,a,b,c,d,check,pass,witness_index"
        # one row per (cell, check)
        assert len(rows) - 1 == sum(len(r.checks) for r in reports)

    def test_empty_jsonl(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl([], path)
        assert path.read_text() == ""
