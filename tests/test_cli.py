import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiinv
from semiinv import cache, differences
from semiinv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGaussCommand:
    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "4", "2")
        assert code == 0
        assert out.strip() == "1 + q + 2q^2 + q^3 + q^4"

    def test_constant(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "5", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "gauss", "4", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"coeffs": ["1", "1", "2", "1", "1"]}

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "gauss", "3", "7")
        assert code == 2
        assert out == ""
        assert "gauss" in err


class TestDimCommand:
    def test_worked_cell(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "4", "4", "6")
        assert code == 0
        assert out.strip() == "delta=2 kernel=2 MATCH"

    def test_quadratic_cell(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "2", "3", "2")
        assert code == 0
        assert out.strip() == "delta=1 kernel=1 MATCH"

    def test_weight_zero(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "4", "4", "0")
        assert code == 0
        assert out.strip() == "delta=1 kernel=1 MATCH"

    def test_thin_box(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "2", "1100", "2")
        assert code == 0
        assert out.strip() == "delta=1 kernel=1 MATCH"

    def test_wide_box(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "1200", "1", "1")
        assert code == 0
        assert out.strip() == "delta=0 kernel=0 MATCH"

    def test_above_middle_unchecked(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "2", "2", "3")
        assert code == 0
        assert out.strip().endswith("UNCHECKED")

    def test_negative_box_named_in_argument_order(self, capsys):
        code, out, err = run_cli(capsys, "dim", "-1", "2", "0")
        assert code == 2
        assert out == ""
        assert err == "error: parameters must be nonnegative, got n=-1, k=2\n"


class TestBasisCommand:
    def test_writes_triangulated_basis(self, capsys, tmp_path):
        out_path = tmp_path / "basis.json"
        code, _, _ = run_cli(
            capsys,
            "basis", "4", "4", "6",
            "--out", str(out_path),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 0
        obj = json.loads(out_path.read_text())
        assert obj["dim"] == 2
        leads = [tuple(vec[0]["nu"]) for vec in obj["vectors"]]
        assert leads == [(0, 2, 2, 0, 0), (1, 0, 3, 0, 0)]

    def test_quadratic_semi_invariant(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "basis", "2", "3", "2", "--cache-dir", str(tmp_path)
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["dim"] == 1
        [vec] = obj["vectors"]
        # a0 a1^2 - a0^2 a2 up to the sign convention
        assert {(tuple(t["nu"]), t["num"]) for t in vec} == {
            ((1, 2, 0), "1"),
            ((2, 0, 1), "-1"),
        }

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        cachedir = str(tmp_path / "cache")
        assert run_cli(capsys, "basis", "6", "4", "8", "--out", str(out1),
                       "--cache-dir", cachedir)[0] == 0
        assert (tmp_path / "cache" / "kernel_n6_k4_m8.json").exists()
        assert run_cli(capsys, "basis", "6", "4", "8", "--out", str(out2),
                       "--cache-dir", cachedir)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_path_exit_code(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "basis", "2", "3", "2",
            "--out", str(tmp_path / "missing-dir" / "x.json"),
            "--cache-dir", str(tmp_path),
        )
        assert code == 4

    def test_failed_write_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "basis.json"
        cachedir = str(tmp_path / "cache")
        assert run_cli(capsys, "basis", "4", "4", "6", "--out", str(out_path),
                       "--cache-dir", cachedir)[0] == 0
        out_path.write_bytes(b"old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        code, _, _ = run_cli(capsys, "basis", "4", "4", "6", "--out", str(out_path),
                             "--cache-dir", cachedir)
        assert code == 4
        assert out_path.read_bytes() == b"old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_bad_params_exit_code(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "basis", "2", "3", "99", "--cache-dir", str(tmp_path)
        )
        assert code == 2


def _with_vectors(obj, change):
    """``obj`` with its two vectors replaced by ``change(v1, v2)``."""
    v1, v2 = cache.KernelBasis.from_json_obj(obj).vectors
    return {**obj, "vectors": [v.to_json_list() for v in change(v1, v2)]}


class TestCache:
    def test_corrupted_cache_recomputed(self, tmp_path):
        cache.clear_memory_cache()
        try:
            kb = cache.kernel_basis_cached(4, 4, 6, tmp_path)
            path = tmp_path / "kernel_n4_k4_m6.json"
            assert path.exists()
            good = path.read_bytes()
            path.write_text('{"garbage": true}')
            cache.clear_memory_cache()
            kb2 = cache.kernel_basis_cached(4, 4, 6, tmp_path)
            assert kb2.vectors == kb.vectors
            assert path.read_bytes() == good
        finally:
            cache.clear_memory_cache()

    def test_tampered_vector_rejected(self, tmp_path):
        cache.clear_memory_cache()
        try:
            kb = cache.kernel_basis_cached(4, 4, 6, tmp_path)
            path = tmp_path / "kernel_n4_k4_m6.json"
            obj = json.loads(path.read_text())
            obj["vectors"][0][0]["num"] = "999"  # no longer in the kernel
            path.write_text(json.dumps(obj))
            cache.clear_memory_cache()
            kb2 = cache.kernel_basis_cached(4, 4, 6, tmp_path)
            assert kb2.vectors == kb.vectors
        finally:
            cache.clear_memory_cache()

    @pytest.mark.parametrize(
        "tamper",
        [
            # true dim 2; the first vector alone still verifies
            lambda obj: {**obj, "dim": 1, "vectors": obj["vectors"][:1]},
            # right count, but one vector twice: not independent
            lambda obj: {**obj, "vectors": [obj["vectors"][0]] * 2},
            # the (4, 4, 4) basis, also of dimension 2, filed under weight 6
            lambda obj: {**cache.kernel_basis(4, 4, 4).to_json_obj(), "m": 6},
            # a rescaled kernel vector: still independent, no longer primitive
            lambda obj: _with_vectors(obj, lambda v1, v2: [v1 * 2, v2]),
            # a recombined pair: primitive, independent, distinct trailing
            # monomials, but the second is nonzero at the first's
            lambda obj: _with_vectors(obj, lambda v1, v2: [v1, v1 + v2]),
            # the right vectors out of free-column order
            lambda obj: _with_vectors(obj, lambda v1, v2: [v2, v1]),
            # the right basis in bytes that are not the canonical ones
            lambda obj: json.dumps(obj, indent=1).encode(),
            lambda obj: cache.canonical_json_bytes(dict(reversed(obj.items()))),
            lambda obj: cache.canonical_json_bytes(obj).replace(
                b'"num":"1"', b'"num":"+1"', 1
            ),
            # a coefficient that does not decode to a number
            lambda obj: cache.canonical_json_bytes(obj).replace(
                b'"den":"1"', b'"den":"0"', 1
            ),
            # an exponent that decodes to a float
            lambda obj: cache.canonical_json_bytes(obj).replace(
                b'"nu":[0', b'"nu":[0.0', 1
            ),
            # a coefficient that is not an integer
            lambda obj: cache.canonical_json_bytes(obj).replace(
                b'"den":"1"', b'"den":"2"', 1
            ),
            # numbers that decode to an infinite float
            lambda obj: cache.canonical_json_bytes(obj).replace(b'"n":4', b'"n":1e999', 1),
            lambda obj: cache.canonical_json_bytes(obj).replace(
                b'"num":"3"', b'"num":1e999', 1
            ),
        ],
        ids=["truncated", "duplicated", "other-stratum", "doubled", "recombined",
             "swapped", "whitespace", "reordered-keys", "plus-sign",
             "zero-denominator", "float-exponent", "fractional-coefficient",
             "infinite-n", "infinite-num"],
    )
    def test_untrusted_basis_recomputed(self, tmp_path, tamper):
        cache.clear_memory_cache()
        try:
            kb = cache.kernel_basis_cached(4, 4, 6, tmp_path)
            assert kb.dim == 2
            path = tmp_path / "kernel_n4_k4_m6.json"
            good = path.read_bytes()
            bad = tamper(json.loads(good))
            if not isinstance(bad, bytes):
                bad = cache.canonical_json_bytes(bad)
            assert bad != good
            path.write_bytes(bad)
            cache.clear_memory_cache()
            kb2 = cache.kernel_basis_cached(4, 4, 6, tmp_path)
            assert kb2.vectors == kb.vectors
            assert path.read_bytes() == good
        finally:
            cache.clear_memory_cache()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_byte_edit_recomputed(self, data):
        # one byte replaced, deleted or inserted anywhere in a cache file
        kb = cache.kernel_basis(4, 4, 6)
        good = cache.canonical_json_bytes(kb.to_json_obj())
        edit = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        at = data.draw(st.integers(0, len(good) - (edit != "insert")))
        byte = bytes([data.draw(st.integers(0, 255))])
        tail = good[at + (edit != "insert"):]
        bad = good[:at] + (b"" if edit == "delete" else byte) + tail
        cache.clear_memory_cache()
        try:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "kernel_n4_k4_m6.json"
                path.write_bytes(bad)
                assert cache.kernel_basis_cached(4, 4, 6, tmp).vectors == kb.vectors
                assert path.read_bytes() == good
        finally:
            cache.clear_memory_cache()

    def test_env_var_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
        assert cache.resolve_cache_dir(None) == tmp_path
        assert cache.resolve_cache_dir("elsewhere").name == "elsewhere"


class TestVerifyCommand:
    def test_sylvester_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "sylvester", "--nmax", "4",
                               "--kmax", "4")
        assert code == 0
        assert "delta == kernel nullity everywhere" in out

    def test_F_suite(self, capsys, tmp_path):
        prefix = str(tmp_path / "freport")
        code, out, _ = run_cli(capsys, "verify", "F", "--nmax", "6", "--kmax", "6",
                               "--out", prefix)
        assert code == 0
        assert (tmp_path / "freport.jsonl").exists()
        assert (tmp_path / "freport.csv").exists()

    def test_G_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "G", "--nmax", "8", "--kmax", "10",
                               "--rmax", "8")
        assert code == 0
        assert "strictly unimodal" in out

    def test_nr8_base_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "nr8")
        assert code == 0
        assert "all base cells have delta >= 2" in out
        assert "n=15 r=14 delta=1111" in out

    @pytest.mark.parametrize("suite", ["sylvester", "F", "G"])
    @pytest.mark.parametrize("flag", ["--nmax", "--kmax", "--rmax"])
    def test_negative_bound_rejected(self, capsys, tmp_path, suite, flag):
        prefix = str(tmp_path / "x")
        code, out, err = run_cli(capsys, "verify", suite, flag, "-2", "--out", prefix)
        assert code == 2
        assert flag in err
        assert out == ""
        assert not (tmp_path / "x.jsonl").exists()

    # every case gives a flag the suite or family does not read
    @pytest.mark.parametrize(
        "flags",
        [
            ["verify", "nr8", "--nmax", "3"],
            ["verify", "nr8", "--kmax", "2"],
            ["verify", "nr8", "--rmax", "10"],
            ["verify", "nr8", "--nmax", "3", "--kmax", "2"],
            ["verify", "sylvester", "--rmax", "3"],
            ["verify", "F", "--rmax", "3", "--out", "report"],
            ["scan", "F-strict", "--rmax", "2", "--bound", "1"],
            ["scan", "strange", "--bound", "2"],
            ["scan", "bergeron", "--nmax", "3", "--kmax", "2", "--rmax", "1"],
            ["verify", "sylvester", "--nmax", "2", "--kmax", "2", "--with-kernel"],
            ["verify", "sylvester", "--cache-dir", "c"],
            ["verify", "F", "--nmax", "2", "--kmax", "2", "--with-kernel"],
            ["verify", "F", "--cache-dir", "c", "--out", "report"],
            ["verify", "G", "--nmax", "8", "--kmax", "8", "--rmax", "8", "--with-kernel"],
            ["verify", "G", "--cache-dir", "c"],
            ["verify", "nr8", "--out", "report"],
            ["verify", "nr8", "--with-kernel", "--out", "report"],
            ["scan", "bergeron", "--bound", "2", "--include-below-range"],
            ["scan", "strange", "--nmax", "9", "--kmax", "4", "--include-below-range"],
            ["verify", "nr8", "--cache-dir", "c"],
        ],
    )
    def test_nr8_rejects_grid_flags(self, capsys, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *flags)
        assert code == 2
        assert out == ""
        grid = ("--nmax", "--kmax", "--rmax", "--bound", "--with-kernel",
                "--cache-dir", "--out", "--include-below-range")
        assert all(flag in err for flag in flags[2:] if flag in grid)
        assert list(tmp_path.iterdir()) == []

    def test_nr8_with_kernel_reads_cache_dir(self, capsys, tmp_path):
        cache.clear_memory_cache()
        try:
            code, out, _ = run_cli(capsys, "verify", "nr8", "--with-kernel",
                                   "--cache-dir", str(tmp_path))
        finally:
            cache.clear_memory_cache()
        assert code == 0
        assert "kernel nullity at (8,8,32) = " in out
        assert [p.name for p in tmp_path.iterdir()] == ["kernel_n8_k8_m32.json"]

    @pytest.mark.parametrize(
        "suite, defaults",
        [
            ("sylvester", ["--nmax", "6", "--kmax", "6"]),
            ("F", ["--nmax", "6", "--kmax", "6"]),
            ("G", ["--nmax", "6", "--kmax", "6", "--rmax", "10"]),
            ("nr8", []),
            ("F-strict", ["--nmax", "10", "--kmax", "20"]),
            ("strange", ["--nmax", "10", "--kmax", "20", "--rmax", "3"]),
            ("bergeron", ["--bound", "6"]),
        ],
    )
    def test_grid_defaults(self, capsys, tmp_path, monkeypatch, suite, defaults):
        command = "scan" if suite in ("F-strict", "strange", "bergeron") else "verify"
        monkeypatch.chdir(tmp_path)

        def run(*flags):
            result = run_cli(capsys, command, suite, *flags)
            return result, {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        assert run() == run(*defaults)


class TestScanCommand:
    def test_bergeron_scan_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "scan", "bergeron", "--bound", "6")
        assert code == 0
        lines = (tmp_path / "scan-bergeron.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        assert all(r["family"] == "bergeron" for r in rows)
        assert any(r["params"] == {"a": 2, "b": 4, "c": 3, "d": 6} for r in rows)
        assert (tmp_path / "scan-bergeron.csv").exists()

    def test_empty_scan(self, capsys, tmp_path):
        prefix = str(tmp_path / "none")
        code, _, _ = run_cli(capsys, "scan", "bergeron", "--bound", "0",
                             "--out", prefix)
        assert code == 0
        assert (tmp_path / "none.jsonl").read_text() == ""

    def test_f_strict_below_range_flag(self, capsys, tmp_path):
        prefix = str(tmp_path / "fs")
        code, _, _ = run_cli(
            capsys, "scan", "F-strict", "--nmax", "10", "--kmax", "16",
            "--include-below-range", "--jobs", "2", "--out", prefix,
        )
        assert code == 0
        rows = [json.loads(l) for l in (tmp_path / "fs.jsonl").read_text().splitlines()]
        f59 = [r for r in rows if r["params"] == {"n": 5, "k": 9}]
        assert len(f59) == 1
        assert f59[0]["checks"]["strict_except_ends"] is False
        assert f59[0]["witness"] is not None

    def test_usage_error_exit_code(self, capsys):
        assert run_cli(capsys, "scan", "nosuch")[0] == 2
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("family", ["F-strict", "strange", "bergeron"])
    @pytest.mark.parametrize("flag", ["--nmax", "--kmax", "--rmax", "--bound"])
    def test_negative_bound_rejected(self, capsys, tmp_path, family, flag):
        prefix = str(tmp_path / "x")
        code, out, err = run_cli(capsys, "scan", family, flag, "-2", "--out", prefix)
        assert code == 2
        assert flag in err
        assert out == ""
        assert not (tmp_path / "x.jsonl").exists()

    def test_parallel_reports_match_serial(self, capsys, tmp_path, monkeypatch):
        # two workers even on a one-CPU machine
        monkeypatch.setattr(differences.os, "cpu_count", lambda: 2)
        reports = {}
        for jobs in ("1", "2"):
            prefix = tmp_path / f"j{jobs}"
            code, _, _ = run_cli(
                capsys, "scan", "F-strict", "--nmax", "10", "--kmax", "16",
                "--include-below-range", "--jobs", jobs, "--out", str(prefix),
            )
            assert code == 0
            reports[jobs] = [(tmp_path / f"j{jobs}.{suffix}").read_bytes()
                             for suffix in ("jsonl", "csv")]
        assert reports["2"] == reports["1"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, tmp_path, jobs):
        prefix = str(tmp_path / "x")
        code, out, err = run_cli(capsys, "scan", "bergeron", "--bound", "3",
                                 "--jobs", jobs, "--out", prefix)
        assert code == 2
        assert "--jobs" in err
        assert not (tmp_path / "x.jsonl").exists()


def _readme_flags():
    """``(command, suite) -> flags`` from the README's table of the flags
    each suite or family reads."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(verify|scan) ([\w-]+)` \| (.*) \|$", readme, re.M)
    return {(command, suite): set(re.findall(r"`(--[\w-]+)`", flags))
            for command, suite, flags in rows}


class TestSuiteParsers:
    @pytest.mark.parametrize(
        "command, suite",
        [("verify", "sylvester"), ("verify", "F"), ("verify", "G"), ("verify", "nr8"),
         ("scan", "F-strict"), ("scan", "strange"), ("scan", "bergeron")],
    )
    def test_help_lists_the_flags_read(self, capsys, command, suite):
        code, out, _ = run_cli(capsys, command, suite, "--help")
        assert code == 0
        usage = out.split("\n\n")[0]
        assert set(re.findall(r"\[(-[\w-]+)", usage)) == {
            "-h", *_readme_flags()[command, suite]
        }

    def test_parser_keeps_no_state_between_calls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        grid = ["--nmax", "9", "--kmax", "16"]
        for flags in (["--include-below-range", "--out", "a"], ["--out", "b"]):
            assert run_cli(capsys, "scan", "F-strict", *grid, *flags)[0] == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(semiinv.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "semiinv.cli", "scan", "F-strict", *grid, "--out", "c"],
            check=True, capture_output=True, env={**os.environ, "PYTHONPATH": path},
        )
        for suffix in ("jsonl", "csv"):
            a, b, c = ((tmp_path / f"{p}.{suffix}").read_bytes() for p in "abc")
            assert a != b == c

        cache.clear_memory_cache()
        try:
            code, out, _ = run_cli(capsys, "verify", "nr8", "--with-kernel")
            assert code == 0 and "kernel nullity" in out
            code, out, _ = run_cli(capsys, "verify", "nr8")
        finally:
            cache.clear_memory_cache()
        assert code == 0 and "kernel nullity" not in out

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--nmax", "3", "sylvester"], ["scan", "--jobs", "2", "bergeron"]],
    )
    def test_flags_before_suite_rejected(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert list(tmp_path.iterdir()) == []


# sha256 of the JSONL and CSV reports, recorded before the verifiers and
# scanners shared one check loop; findings appear only in the F-strict run
REPORT_GOLDEN = [
    (
        ["verify", "F", "--nmax", "8", "--kmax", "8"],
        "f17511b19884517faed2c18b44eb141c9179a80982094c6e9f02e85cdb543c25",
        "c23b836bbd55926d5efc6a0e05e5baa17b33771eb80af08e8e0aaa59a47e1528",
    ),
    (
        ["verify", "G", "--nmax", "10", "--kmax", "11", "--rmax", "10"],
        "4e2d65c338d78709be111094eaa163536c0a93c662cb71ae62ad03dbe25987a3",
        "8c6ab2d6711a71237286799646fc638d0761cbfdaa97cfe0021d25038feca401",
    ),
    (
        ["scan", "F-strict", "--nmax", "10", "--kmax", "16", "--include-below-range"],
        "81675a54c456fc38201b299bc430b47d7dd625741827857b0ead1dd3ff2aecc1",
        "8bc7456aade5a7db0ea290890080dcf1b346bab74ff40cacb50e5094f1aff74e",
    ),
    (
        ["scan", "strange", "--nmax", "13", "--kmax", "4", "--rmax", "3"],
        "efd3734019d00895acd1ab73b2b7349bc0bdfb36c067eb314007b32e6c89b14c",
        "8acc234f73021d85c5c40c728f58c98e2654e6b1427ed20cb9454044ac999994",
    ),
    (
        ["scan", "bergeron", "--bound", "8"],
        "7d62525121a1f0048a1fb696e32362b909d74e430015384fd436945e103fc778",
        "b42e1cc72b29a61eef414ebe9250f2c2dfaae4fabd1442e979c94214cfb960ca",
    ),
]


class TestReportGolden:
    @pytest.mark.parametrize(
        "argv, jsonl_sha, csv_sha",
        REPORT_GOLDEN,
        ids=["-".join(argv[:2]) for argv, _, _ in REPORT_GOLDEN],
    )
    def test_report_bytes(self, capsys, tmp_path, argv, jsonl_sha, csv_sha):
        prefix = tmp_path / "r"
        code, _, _ = run_cli(capsys, *argv, "--out", str(prefix))
        assert code == 0
        digest = lambda suffix: hashlib.sha256(
            (tmp_path / f"r.{suffix}").read_bytes()
        ).hexdigest()
        assert (digest("jsonl"), digest("csv")) == (jsonl_sha, csv_sha)


class TestExitCodeContract:
    def test_verification_failure_exits_three(self, capsys, monkeypatch):
        from semiinv.qpoly import QPoly

        # a symmetric but not unimodal F, then a negative coefficient in each
        # verifier: the shape checks meet it before any nonnegativity check
        cases = [
            ("F", lambda n, k: QPoly([1, 2, 1, 2, 1]), ["--nmax", "4", "--kmax", "4"]),
            ("F", lambda n, k: QPoly([1, -1, 1]), ["--nmax", "2", "--kmax", "2"]),
            ("G", lambda n, k, r: QPoly([1, 2, -1, -1, -1, 2, 1]),
             ["--nmax", "8", "--kmax", "8", "--rmax", "8"]),
        ]
        for family, poly, flags in cases:
            monkeypatch.setattr(differences, family, poly)
            code, out, err = run_cli(capsys, "verify", family, *flags)
            assert code == 3, (family, flags)
            assert out == ""
            assert "verification failure" in err

    def test_dim_mismatch_exits_three(self, capsys, monkeypatch):
        import semiinv.cli as cli_mod

        monkeypatch.setattr(cli_mod, "semiinvariant_dim", lambda n, k, m: 99)
        code, out, _ = run_cli(capsys, "dim", "4", "4", "6")
        assert code == 3
        assert "MISMATCH" in out

    def test_inexact_gauss_division_exits_three(self, capsys, monkeypatch):
        from semiinv import qpoly

        # a corrupted link of the c = 5 chain makes the next division inexact
        monkeypatch.setattr(qpoly, "_MEMO", {(5, 2): (1, 1, 1, 1)})
        monkeypatch.setattr(qpoly, "_MEMO_SIZE", 4)
        code, out, err = run_cli(capsys, "gauss", "8", "3")
        assert code == 3
        assert out == ""
        assert err.startswith("verification failure: ")

    def test_scan_io_failure_exits_four(self, capsys, tmp_path):
        prefix = str(tmp_path / "no" / "such" / "dir" / "x")
        code, _, _ = run_cli(capsys, "scan", "bergeron", "--bound", "2",
                             "--out", prefix)
        assert code == 4


class TestEntryPoint:
    def test_module_invocation(self):
        # run the package this session imported, also when pytest put it on
        # sys.path itself rather than through PYTHONPATH
        src = os.path.dirname(os.path.dirname(os.path.abspath(semiinv.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "semiinv.cli", "gauss", "4", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1 + q + 2q^2 + q^3 + q^4"

    def test_import_leaves_out_process_pool(self):
        # a serial run never needs the pool, so start-up does not pay for it
        src = os.path.dirname(os.path.dirname(os.path.abspath(semiinv.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, semiinv, semiinv.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "[]"
