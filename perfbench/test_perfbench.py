"""Tests of the benchmark itself, on its smoke inputs.

Run with ``python3 -m pytest perfbench``; takes about half a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import MOVES, load_benchmark  # noqa: E402
from speed import REF_S, SpeedProbe  # noqa: E402
from workloads import FULL, NAMES, SMOKE  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args: str, root: Path = ROOT, env: dict | None = None):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=150,
        env=env if env is not None else os.environ.copy(),
    )
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, last


def test_benchmark_json_names_every_workload_and_what_each_layer_moves():
    bench = load_benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(NAMES)
    assert [m["name"] for m in bench["per_layer"]] == list(MOVES)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)


def test_speed_probe_rescales_by_the_loops_inside_a_phase():
    probe = SpeedProbe()
    probe.samples = [(0.0, REF_S), (1.0, 2 * REF_S), (2.0, 2 * REF_S)]
    assert probe.scaled(3.0, 0.5, 3.0) == pytest.approx((3.0 - 4 * REF_S) / 2)  # half speed
    assert probe.scaled(1.0, 0.1, 0.2) == pytest.approx(1.0)  # nearest loop
    with SpeedProbe() as probe:
        while len(probe.samples) < 3:
            time.sleep(0.005)
    assert probe.median_s() > 0


def test_smoke_variants_cover_the_same_workloads():
    assert set(SMOKE) == set(FULL) == set(NAMES)
    digests = json.loads((HERE / "digests.json").read_text())
    for mode, table in (("full", FULL), ("smoke", SMOKE)):
        for name, wl in table.items():
            assert set(digests[mode][name]) == {op.name for op in wl.ops}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_every_metric(trace):
    proc, last = run_bench("--smoke", "--seed", "7", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    wanted = [m["name"] for m in load_benchmark()["per_layer" if trace == "1" else "end_to_end"]]
    assert set(last["metrics"]) == {f"{w}.{m}" for w in NAMES for m in wanted}
    assert not list((HERE / "out").glob("*-*/"))  # repetition dirs are removed
    if trace == "1":
        m = {k: v["value"] for k, v in last["metrics"].items()}
        assert m["kernels-cold.cache.disk_hits"] == 0
        assert m["kernels-cold.cache.misses"] == 2
        assert m["witness-warm.cache.misses"] == 0
        assert m["witness-warm.cache.disk_hits"] >= 1
        assert m["gauss-scan.qpoly.gauss.calls"] > 0
        assert m["gauss-scan.cayley.kernel_basis.calls"] == 0
        assert m["witness-warm.monomials.mul.term_pairs"] > 0


def test_user_cache_does_not_warm_the_cold_workload(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cell in (["4", "4", "6"], ["5", "4", "10"]):
        subprocess.run(
            [sys.executable, "-m", "semiinv.cli", "basis", *cell, "--cache-dir", str(tmp_path)],
            env=env, check=True, capture_output=True, timeout=60,
        )
    env["SEMIINV_CACHE"] = str(tmp_path)
    proc, last = run_bench("--smoke", "--workload", "kernels-cold", "--trace", "1", env=env)
    assert proc.returncode == 0, proc.stderr
    assert last["metrics"]["cache.disk_hits"]["value"] == 0


def test_wrong_output_fails_the_run(tmp_path):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    digests = json.loads((tmp_path / "perfbench" / "digests.json").read_text())
    digests["smoke"]["gauss-scan"]["bergeron"] = "0" * 64
    (tmp_path / "perfbench" / "digests.json").write_text(json.dumps(digests))
    proc, last = run_bench("--smoke", "--workload", "gauss-scan", root=tmp_path)
    assert proc.returncode == 1
    assert last["correct"] is False and last["failed"] == 1
    assert "bergeron" in proc.stderr


def test_without_sources_the_benchmark_refuses(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, last = run_bench("--workload", "kernels-cold", root=tmp_path)
    assert proc.returncode != 0
    assert last is None


def test_install_rebinds_every_alias():
    script = textwrap.dedent(
        f"""
        import inspect, sys
        sys.path[:0] = [{str(ROOT / "src")!r}, {str(HERE)!r}]
        import semiinv, semiinv.cli, spans
        tracer = spans.Tracer()
        wrapped = spans.install(tracer)
        from semiinv import cache, cayley, cli, differences, witnesses
        assert cache.kernel_basis is cayley.kernel_basis is not None
        assert differences.gauss is semiinv.qpoly.gauss is semiinv.gauss
        assert cli.semiinvariant_dim is cayley.semiinvariant_dim
        assert witnesses.kernel_basis_cached is cache.kernel_basis_cached
        assert all(w.__wrapped__ is f for f, w in wrapped.items())
        assert len(wrapped) > 40
        semiinv.differences.F(4, 3)
        p = semiinv.SIPoly.variable(8, 1)
        (p * p).primitive()
        assert tracer.calls("qpoly.gauss") == 2, tracer.stats
        assert tracer.calls("differences.F") == 1
        assert tracer.calls("monomials.SIPoly.__mul__") == 1
        assert tracer.calls("monomials.SIPoly.variable") == 1
        assert tracer.counts["monomials.mul.term_pairs"] == 1
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
