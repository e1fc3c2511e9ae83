"""Summarise a parent-versus-change benchmark series as one ``BENCH_<label>.json``.

Each side's ``perfbench/out/results/`` holds one file per run
(``<workload>-seed<S>-trace<0|1>.json``).  Untraced runs of the two sides
with the same workload and seed form a pair; the side whose file was
written first ran first.  Run from the repository root:

    python3 tools/bench_file.py --label elimination \\
        --parent ../parent/perfbench/out/results \\
        --change perfbench/out/results --claim kernels-cold:solve_s

For each side the output records the commit, Python version, cpu count and
seeds, and for each workload and end-to-end metric the median and quartiles
over the runs' medians.  Each pair records both sides' run medians and
which side ran first; ``change_wins`` counts the pairs where the change
reads better.  The claim block applies the usual rule: the change wins at
least nine in ten pairs, and the gap between the medians exceeds the
parent's interquartile range, and no workload's fail ratio (failed over
attempted operations, summed over the side's runs) is higher for the
change than for the parent.  The regressions block applies the no-claim
rule to every workload and end-to-end metric: it flags a change median
that reads worse than the parent's by more than the metric's ``bound`` in
``BENCHMARK.json`` (a fraction of the parent's median), and flags
``WORKLOAD:fail_ratio`` when the change's fail ratio is the higher; the
tool exits 1 when anything is flagged.  A traced run (``--trace 1``)
made on both sides with the same workload and seed adds its per-layer
medians under ``traced``.  One traced run per side is noisy, so a workload
traced at two or more such seeds also gets ``traced_median``: each side's
median of every per-layer metric over those seeds, and the seed count.

A side whose runs record no commit (``unknown``, as in a ``git archive``
copy) is refused, and no file is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
# end-to-end metric -> "lower" or "higher", whichever is better
BETTER = {m["name"]: m["better"] for m in END_TO_END}
# end-to-end metric -> how much worse, as a fraction of the parent's median,
# the change may read before it counts as a regression
BOUND = {m["name"]: m["bound"] for m in END_TO_END}


def gain(parent: float, change: float, metric: str) -> float:
    """How much better the change reads than the parent (negative: worse)."""
    return parent - change if BETTER[metric] == "lower" else change - parent


def load_runs(results: Path, trace: int = 0) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(results.glob(f"*-trace{trace}.json")):
        run = json.loads(path.read_text())
        if run["smoke"]:
            continue
        run["written"] = path.stat().st_mtime
        runs[run["workload"], run["seed"]] = run
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles, computed as ``perfbench/run.py`` computes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def side_info(runs: list[dict]) -> dict:
    machines = {json.dumps(r["machine"], sort_keys=True) for r in runs}
    if len(machines) != 1:
        raise SystemExit("runs of one side come from different machines or commits")
    machine = runs[0]["machine"]
    if machine["git_commit"] == "unknown":
        raise SystemExit("runs of one side record no commit; run them in a git clone")
    return {
        "seconds": sorted({r["seconds"] for r in runs}),
        "commit": machine["git_commit"],
        "python": machine["python"],
        "cpu_count": machine["cpu_count"],
        "cpu_model": machine["cpu_model"],
    }


def summarise(parent: dict, change: dict, claim: tuple[str, str] | None) -> dict:
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise SystemExit("no workload and seed was run on both sides")
    out: dict = {
        "parent": side_info([parent[k] for k in keys]),
        "change": side_info([change[k] for k in keys]),
        "workloads": {},
    }
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = []
        for s in seeds:
            p, c = parent[workload, s], change[workload, s]
            pairs.append({
                "seed": s,
                "first": "parent" if p["written"] < c["written"] else "change",
                "correct": p["failed"] == 0 and c["failed"] == 0 and not p["problems"]
                and not c["problems"],
                **{side: {m: r["metrics"][m]["median"] for m in BETTER}
                   for side, r in (("parent", p), ("change", c))},
            })
        entry = {"seeds": seeds, "pairs": pairs, "change_wins": {}}
        entry["fail_ratio"] = {
            side: sum(runs[workload, s]["failed"] for s in seeds)
            / sum(runs[workload, s]["attempted"] for s in seeds)
            for side, runs in (("parent", parent), ("change", change))
        }
        for side in ("parent", "change"):
            entry[side] = {m: spread([pr[side][m] for pr in pairs]) for m in BETTER}
        for m in BETTER:
            entry["change_wins"][m] = sum(
                gain(pr["parent"][m], pr["change"][m], m) > 0 for pr in pairs
            )
        out["workloads"][workload] = entry
    out["regressions"] = regressions(out["workloads"])
    if claim:
        workload, metric = claim
        entry = out["workloads"][workload]
        p, c = entry["parent"][metric], entry["change"][metric]
        wins, n = entry["change_wins"][metric], len(entry["pairs"])
        out["claim"] = {
            "workload": workload,
            "metric": metric,
            "pairs": n,
            "change_wins": wins,
            "relative_change": c["median"] / p["median"] - 1,
            "parent_iqr": p["q3"] - p["q1"],
            "met": wins * 10 >= 9 * n
            and gain(p["median"], c["median"], metric) > p["q3"] - p["q1"]
            and not any(f.endswith(":fail_ratio") for f in out["regressions"]["flagged"]),
        }
    return out


def regressions(workloads: dict) -> dict:
    """Each workload's end-to-end metrics, flagged if worse beyond the bound,
    and its fail ratio, flagged if the change's is the higher."""
    checked, flagged = {}, []
    for workload, entry in workloads.items():
        checked[workload] = {}
        for m in BETTER:
            p, c = entry["parent"][m]["median"], entry["change"][m]["median"]
            worse = -gain(p, c, m) / p
            checked[workload][m] = {"worse_by": worse, "bound": BOUND[m],
                                    "flagged": worse > BOUND[m]}
            if worse > BOUND[m]:
                flagged.append(f"{workload}:{m}")
        ratio = entry["fail_ratio"]
        if ratio["change"] > ratio["parent"]:
            flagged.append(f"{workload}:fail_ratio")
    return {"workloads": checked, "flagged": flagged}


def layers(run: dict) -> dict[str, float]:
    """A run's per-layer medians: its metrics with a dot in their name."""
    return {m: v["median"] for m, v in run["metrics"].items() if "." in m}


def traced(parent: dict, change: dict) -> dict:
    """Per-layer medians of traced pairs."""
    return {
        f"{workload}-seed{seed}": {
            side: layers(runs[workload, seed])
            for side, runs in (("parent", parent), ("change", change))
        }
        for workload, seed in sorted(parent.keys() & change.keys())
    }


def traced_median(parent: dict, change: dict) -> dict:
    """For each workload traced at two or more seeds on both sides, each
    side's median of every per-layer metric over those seeds."""
    keys = sorted(parent.keys() & change.keys())
    out = {}
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        if len(seeds) < 2:
            continue
        out[workload] = {"seeds": len(seeds)}
        for side, runs in (("parent", parent), ("change", change)):
            per_seed = [layers(runs[workload, s]) for s in seeds]
            out[workload][side] = {
                m: statistics.median(f[m] for f in per_seed) for m in per_seed[0]
            }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", type=Path, required=True, help="parent results directory")
    ap.add_argument("--change", type=Path, required=True, help="change results directory")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC claimed to improve")
    args = ap.parse_args(argv)
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    traced_runs = load_runs(args.parent, 1), load_runs(args.change, 1)
    bench = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        **summarise(load_runs(args.parent), load_runs(args.change), claim),
        "traced": traced(*traced_runs),
        "traced_median": traced_median(*traced_runs),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    for name in bench["regressions"]["flagged"]:
        print(f"regression: {name} worse than the parent beyond its bound", file=sys.stderr)
    return 1 if bench["regressions"]["flagged"] else 0


if __name__ == "__main__":
    sys.exit(main())
