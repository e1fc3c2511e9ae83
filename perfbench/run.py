"""semiinv benchmark: three workloads, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload kernels-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, one summary line each
    python3 perfbench/run.py --trace 1       # per-layer metrics from traced repetitions
    python3 perfbench/run.py --smoke         # tiny inputs, used by test_perfbench.py
    python3 perfbench/run.py --record        # re-record output digests

A run repeats its workload until ``--seconds`` have passed and reports the
median over the repetitions.  Each repetition is a fresh single-process
interpreter (``child.py``) with a fresh work and cache directory and with
``SEMIINV_CACHE`` pointing there, so a user's cache cannot turn a cold
workload warm.  With ``--trace 1`` repetitions alternate between untraced and
traced; the traced ones give the per-layer metrics (``spans.py``), and the
ratio of the two median solve times gives ``trace.overhead_ratio``.
``solve_s`` and ``setup_s`` are wall seconds rescaled to a fixed machine
speed by a probe that runs beside each repetition on the same CPU
(``speed.py``).

Every operation's outputs are checked against ``digests.json``.  Record it
again (``--record``) only on a commit whose outputs are trusted and only when
an output format changes on purpose.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the machine, the seed and each metric's samples, median and quartiles goes to
``perfbench/out/results/``.  Exit status: 0 if every operation succeeded and
matched its digest, 1 if any failed, 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import BENCHMARK, MOVES, load_benchmark
from speed import SpeedProbe
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
RUN_LIMIT_S = 175  # one run must end within 180 s
# reported beside the end-to-end metrics, without a bound: the unscaled wall
# seconds and the probe loop's median duration (speed.py)
UNBOUNDED = ("solve_wall_s", "setup_wall_s", "ref_s")


class RunError(Exception):
    """The benchmark itself could not run; no result is printed."""


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "samples": values}


def run_repetition(name: str, seed: int, traced: bool, smoke: bool, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    repdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise RunError(f"{name}: time limit of {RUN_LIMIT_S} s reached")
        env = dict(os.environ, SEMIINV_CACHE=str(repdir / "work" / "cache"))
        t0 = time.monotonic()
        argv = [sys.executable, str(HERE / "child.py"), name, str(seed),
                str(int(traced)), str(int(smoke)), str(repdir), repr(t0)]
        with SpeedProbe() as probe:
            try:
                proc = subprocess.run(argv, env=env, cwd=repdir, capture_output=True,
                                      text=True, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise RunError(f"{name}: repetition killed after {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise RunError(f"{name}: repetition exited with {proc.returncode}\n{proc.stderr[-3000:]}")
        if not probe.samples:
            raise RunError(f"{name}: the speed probe took no sample")
        result = json.loads((repdir / "result.json").read_text())
    finally:
        shutil.rmtree(repdir, ignore_errors=True)
    result["traced"] = traced
    result["setup_s"] = probe.scaled(result["setup_wall_s"], *result["setup_span"])
    result["solve_s"] = probe.scaled(result["solve_wall_s"], *result["solve_span"])
    result["ref_s"] = probe.median_s()
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 once: bool) -> list[dict]:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps: list[dict] = []
    while True:
        reps.append(run_repetition(name, seed, trace and len(reps) % 2 == 1, smoke, deadline))
        if len(reps) >= (2 if trace else 1) and (once or time.monotonic() - start >= seconds):
            return reps


def aggregate(reps: list[dict], trace: bool, bench: dict) -> dict[str, dict]:
    untraced = [r for r in reps if not r["traced"]]
    stats = {m["name"]: dict(summarize([r[m["name"]] for r in untraced]), unit=m["unit"])
             for m in bench["end_to_end"]}
    stats.update({name: dict(summarize([r[name] for r in untraced]), unit="s")
                  for name in UNBOUNDED})
    if trace:
        traced = [r for r in reps if r["traced"]]
        for m in bench["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_ratio":
                ratio = statistics.median(r["solve_s"] for r in traced) / stats["solve_s"]["median"]
                stats[name] = dict(summarize([ratio]), unit=m["unit"])
            else:
                stats[name] = dict(summarize([r["layers"][name] for r in traced]), unit=m["unit"])
    return stats


def record_digests(name: str, smoke: bool, reps: list[dict]) -> None:
    first = reps[0]
    if first["failures"] or any(r["digests"] != first["digests"] for r in reps):
        raise RunError(f"{name}: not recording digests: {first['failures'] or 'outputs differ'}")
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"full": {}, "smoke": {}}
    data["smoke" if smoke else "full"][name] = dict(sorted(first["digests"].items()))
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark() if BENCHMARK.is_file() else None
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"] if bench else 30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition")
    parser.add_argument("--record", action="store_true",
                        help="write the outputs' digests to digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semiinv" / "__init__.py").is_file():
        print(f"error: no semiinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if bench is None:
        print(f"error: {BENCHMARK} is missing", file=sys.stderr)
        return 2
    # the speed probe must share the repetitions' CPU (speed.py); both
    # inherit this process's affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    shown = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    machine = machine_info()
    attempted = failed = 0
    correct = True
    metrics: dict[str, dict] = {}
    for name in names:
        try:
            reps = run_workload(name, args.seed, args.seconds, trace, args.smoke,
                                once=args.smoke or args.record)
            if args.record:
                record_digests(name, args.smoke, reps)
                print(f"recorded {len(reps[0]['digests'])} digests for {name}")
                continue
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        stats = aggregate(reps, trace, bench)
        n_attempted = sum(r["attempted"] for r in reps)
        n_failed = sum(r["failed"] for r in reps)
        problems = [f for r in reps for f in r["failures"]]
        problems += [f"{op}: output digest differs from the recorded one"
                     for r in reps for op in r["mismatched"]]
        problems += [f"trace: {v}" for r in reps for v in r.get("violations", [])]
        attempted += n_attempted
        failed += n_failed
        correct = correct and not problems
        for problem in sorted(set(problems)):
            print(f"FAIL {name}: {problem}", file=sys.stderr)

        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        tag = f"{name}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
        (results / f"{tag}.json").write_text(json.dumps({
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": machine,
            "repetitions": len(reps), "orders": sorted({tuple(r["order"]) for r in reps}),
            "attempted": n_attempted, "failed": n_failed,
            "fail_ratio": n_failed / n_attempted, "problems": problems,
            "metrics": stats, "moves": MOVES if trace else None,
            "spans": next((r["spans"] for r in reps if r["traced"]), None),
            "timeline": [{k: r[k] for k in ("traced", "order", "op_s", "setup_s", "solve_s")}
                         for r in reps],
        }, indent=2) + "\n")

        e2e = ", ".join(f"{m} {fmt(stats[m]['median'])} {stats[m]['unit']}"
                        for m in [m["name"] for m in bench["end_to_end"]] + list(UNBOUNDED))
        print(f"{name} (seed {args.seed}, {len(reps)} repetitions): {e2e}, "
              f"fail_ratio {fmt(n_failed / n_attempted)} ({n_failed}/{n_attempted} operations)")
        if trace:
            for m in shown:
                print(f"  {m} {fmt(stats[m]['median'])} {stats[m]['unit']}")
        prefix = f"{name}." if len(names) > 1 else ""
        for m in shown:
            metrics[prefix + m] = {"value": stats[m]["median"], "unit": stats[m]["unit"]}

    if args.record:
        return 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
