import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)

MACHINE = {"python": "3.11.7", "cpu_count": 2, "cpu_model": "cpu", "git_commit": "abc"}


def write_run(results, seed, solve_s, written, failed=0, machine=MACHINE):
    metrics = {m: {"median": 1.0} for m in bench_file.BETTER}
    metrics["solve_s"] = {"median": solve_s}
    run = {
        "workload": "kernels-cold", "seed": seed, "seconds": 30.0, "smoke": False,
        "machine": machine, "attempted": 10, "failed": failed, "problems": [],
        "metrics": metrics,
    }
    path = results / f"kernels-cold-seed{seed}-trace0.json"
    path.write_text(json.dumps(run))
    os.utime(path, (written, written))


@pytest.fixture
def sides(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for i, (p, c) in enumerate([(0.50, 0.35), (0.52, 0.36), (0.51, 0.53)]):
        # alternate which side's run was written first
        write_run(parent, i, p, 100 * i + (1 if i % 2 else 0), failed=int(i == 2))
        write_run(change, i, c, 100 * i + (0 if i % 2 else 1))
    return parent, change


def test_pairs_medians_and_wins(sides):
    out = bench_file.summarise(*map(bench_file.load_runs, sides), None)
    entry = out["workloads"]["kernels-cold"]
    assert entry["seeds"] == [0, 1, 2]
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
    assert [p["correct"] for p in entry["pairs"]] == [True, True, False]
    assert entry["parent"]["solve_s"]["median"] == 0.51
    assert entry["change"]["solve_s"]["median"] == 0.36
    assert entry["change_wins"]["solve_s"] == 2
    assert entry["change_wins"]["setup_s"] == 0  # ties count for neither side
    assert out["parent"]["commit"] == "abc"


def test_claim_needs_nine_wins_in_ten(sides):
    out = bench_file.summarise(*map(bench_file.load_runs, sides), ("kernels-cold", "solve_s"))
    assert out["claim"]["change_wins"] == 2
    assert out["claim"]["met"] is False


def test_traced_runs_keep_per_layer_medians_only(sides):
    for side in sides:
        run = {"workload": "kernels-cold", "seed": 2, "smoke": False, "metrics": {
            "solve_s": {"median": 0.5}, "cayley.matrix.nnz": {"median": 42967}}}
        (side / "kernels-cold-seed2-trace1.json").write_text(json.dumps(run))
    out = bench_file.traced(*(bench_file.load_runs(s, trace=1) for s in sides))
    assert out == {"kernels-cold-seed2": {"parent": {"cayley.matrix.nnz": 42967},
                                          "change": {"cayley.matrix.nnz": 42967}}}


def test_traced_median_over_seeds_traced_on_both_sides(tmp_path):
    sides = tmp_path / "parent", tmp_path / "change"
    figures = {"parent": [0.047, 0.060, 0.050, 0.9], "change": [0.054, 0.049, 0.051]}
    for side in sides:
        side.mkdir()
        for seed, s in enumerate(figures[side.name]):
            run = {"workload": "kernels-cold", "seed": seed, "smoke": False, "metrics": {
                "solve_s": {"median": 0.3}, "cayley.build_D_matrix.self_s": {"median": s},
                "cayley.matrix.nnz": {"median": 42967}}}
            (side / f"kernels-cold-seed{seed}-trace1.json").write_text(json.dumps(run))
        # a workload traced at one seed has no median block
        run = {"workload": "gauss-scan", "seed": 0, "smoke": False,
               "metrics": {"qpoly.gauss.calls": {"median": 7}}}
        (side / "gauss-scan-seed0-trace1.json").write_text(json.dumps(run))
    runs = [bench_file.load_runs(s, trace=1) for s in sides]
    out = bench_file.traced_median(*runs)
    # seed 3 was traced on the parent side only, so it is left out
    assert out == {"kernels-cold": {
        "seeds": 3,
        "parent": {"cayley.build_D_matrix.self_s": 0.050, "cayley.matrix.nnz": 42967},
        "change": {"cayley.build_D_matrix.self_s": 0.051, "cayley.matrix.nnz": 42967},
    }}
    assert set(bench_file.traced(*runs)) == {
        "gauss-scan-seed0", "kernels-cold-seed0", "kernels-cold-seed1", "kernels-cold-seed2"}


def test_no_regression_flagged_within_bounds(sides):
    out = bench_file.summarise(*map(bench_file.load_runs, sides), None)
    reg = out["regressions"]
    assert reg["flagged"] == []
    entry = reg["workloads"]["kernels-cold"]
    assert set(entry) == set(bench_file.BETTER)
    assert entry["solve_s"]["worse_by"] < 0  # the change is faster
    assert entry["setup_s"] == {"worse_by": 0.0, "bound": bench_file.BOUND["setup_s"],
                                "flagged": False}


@pytest.mark.parametrize("change_s, flagged", [(0.54, False), (0.56, True)])
def test_regression_beyond_bound_flagged(tmp_path, change_s, flagged):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for i in range(3):
        write_run(parent, i, 0.50, 2 * i)
        write_run(change, i, change_s, 2 * i + 1)
    out = bench_file.summarise(bench_file.load_runs(parent), bench_file.load_runs(change), None)
    entry = out["regressions"]["workloads"]["kernels-cold"]["solve_s"]
    assert bench_file.BOUND["solve_s"] == 0.1
    assert entry["worse_by"] == pytest.approx(change_s / 0.50 - 1)
    assert entry["flagged"] is flagged
    assert out["regressions"]["flagged"] == (["kernels-cold:solve_s"] if flagged else [])


def test_change_failures_block_the_claim_and_are_flagged(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for i in range(3):
        write_run(parent, i, 0.50, 2 * i)
        write_run(change, i, 0.30, 2 * i + 1)
    claim = ("kernels-cold", "solve_s")

    def summary():
        runs = bench_file.load_runs(parent), bench_file.load_runs(change)
        return bench_file.summarise(*runs, claim)

    out = summary()
    assert out["claim"]["met"] is True
    assert out["regressions"]["flagged"] == []
    # one failed operation in 30 turns a clear speed-up into no claim
    write_run(change, 1, 0.30, 3, failed=1)
    out = summary()
    assert out["workloads"]["kernels-cold"]["fail_ratio"] == {"parent": 0.0, "change": 1 / 30}
    assert out["claim"]["met"] is False
    assert out["regressions"]["flagged"] == ["kernels-cold:fail_ratio"]


@pytest.mark.parametrize("side", ["parent", "change"])
def test_unknown_commit_refused_and_nothing_written(tmp_path, monkeypatch, side):
    monkeypatch.setattr(bench_file, "ROOT", tmp_path)
    dirs = {name: tmp_path / name for name in ("parent", "change")}

    def write_sides(unknown):
        for name, results in dirs.items():
            results.mkdir(exist_ok=True)
            commit = "unknown" if unknown and name == side else "abc"
            for i in range(3):
                write_run(results, i, 0.50, 2 * i + (name == "change"),
                          machine={**MACHINE, "git_commit": commit})

    argv = ["--label", "x", "--parent", str(dirs["parent"]), "--change", str(dirs["change"])]
    write_sides(unknown=True)
    with pytest.raises(SystemExit, match="no commit") as exc:
        bench_file.main(argv)
    assert exc.value.code != 0
    assert not (tmp_path / "BENCH_x.json").exists()
    # the same runs with the commit recorded are summarised
    write_sides(unknown=False)
    assert bench_file.main(argv) == 0
    assert (tmp_path / "BENCH_x.json").exists()
