"""What each per-layer metric should move, and its value from a traced run.

``BENCHMARK.json`` is the table of metric names, units, directions and
bounds.  It allows no other key, so ``MOVES`` records here, for every
per-layer metric, the end-to-end metric and workload it is expected to move,
written down before any optimisation is measured against it.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


_SCAN = "solve_s and peak_rss_mb on gauss-scan; no effect on kernels-cold or witness-warm"
_KERNEL = "solve_s on kernels-cold; setup_s on witness-warm"
_WITNESS = "solve_s and peak_rss_mb on witness-warm; no effect on gauss-scan"
_COUNT = "solve_s on kernels-cold and on gauss-scan"

# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "qpoly.gauss.calls": _SCAN,
    "qpoly.gauss.distinct": _SCAN,
    "qpoly.gauss.self_s": _SCAN,
    "qpoly.shape.self_s": _SCAN,
    "boxpartitions.count.calls": _COUNT,
    "boxpartitions.count.self_s": _COUNT,
    "boxpartitions.enumerate.calls": _COUNT,
    "boxpartitions.enumerate.self_s": _COUNT,
    "boxpartitions.enumerate.partitions": _COUNT,
    "cayley.build_D_matrix.calls": _KERNEL,
    "cayley.build_D_matrix.self_s": _KERNEL,
    "cayley.matrix.nnz": _KERNEL,
    "cayley.kernel_basis.calls": _KERNEL,
    "cayley.kernel_basis.self_s": _KERNEL,
    "cayley.semiinvariant_dim.self_s": "solve_s on kernels-cold",
    "cayley.kernel.dim": _KERNEL,
    "cayley.kernel.max_coeff_bits": _KERNEL,
    "cayley.apply_D.calls": "solve_s on witness-warm",
    "cayley.apply_D.self_s": "solve_s on witness-warm",
    "monomials.mul.calls": _WITNESS,
    "monomials.mul.self_s": _WITNESS,
    "monomials.mul.term_pairs": _WITNESS,
    "monomials.mul.terms_out": _WITNESS,
    "monomials.primitive.self_s": _WITNESS,
    "monomials.json.self_s": _WITNESS,
    "monomials.other.self_s": _WITNESS,
    "cache.lookups": "solve_s on kernels-cold and witness-warm",
    "cache.memory_hits": "solve_s on witness-warm",
    "cache.disk_hits": "solve_s on witness-warm; always 0 on kernels-cold",
    "cache.misses": "solve_s on kernels-cold; always 0 on witness-warm",
    "cache.rejects": "solve_s on witness-warm",
    "cache.hit_ratio": "solve_s on witness-warm",
    "cache.self_s": "solve_s on kernels-cold (writes) and witness-warm (reads)",
    "cache.verify.self_s": "solve_s on witness-warm",
    "cache.verify.total_s": "solve_s on witness-warm",
    "cache.bytes_written": "solve_s on kernels-cold",
    "cache.bytes_read": "solve_s on witness-warm",
    "witnesses.triangulate.calls": "solve_s on witness-warm",
    "witnesses.triangulate.self_s": "solve_s on witness-warm",
    "witnesses.independence_check.self_s": "solve_s on witness-warm",
    "witnesses.construct.self_s": "solve_s on witness-warm",
    "differences.cells": "solve_s on gauss-scan",
    "differences.findings": "solve_s on gauss-scan",
    "differences.family.self_s": "solve_s on gauss-scan",
    "differences.verify.self_s": "solve_s on gauss-scan",
    "differences.scan.self_s": "solve_s on gauss-scan",
    "differences.write.self_s": "solve_s on gauss-scan",
    "differences.write.bytes": "solve_s on gauss-scan",
    "differences.other.self_s": "solve_s on gauss-scan",
    "cli.main.calls": "small on every workload",
    "cli.main.self_s": "small on every workload",
    "trace.overhead_ratio": "none; the cost of tracing itself",
    "trace.unattributed_share": "none; solve_s that no span covers",
}


def layer_values(tracer, solve_wall_s: float, bench: dict) -> dict[str, float]:
    """The ``per_layer`` metrics of one traced repetition, except
    ``trace.overhead_ratio`` (which compares traced and untraced repetitions)."""
    groups = tracer.groups()
    counts = tracer.counts
    lookups = counts["cache.lookups"]
    special = {
        "qpoly.gauss.distinct": len(tracer.gauss_args),
        "cache.hit_ratio": (
            (counts["cache.memory_hits"] + counts["cache.disk_hits"]) / lookups
            if lookups else 0.0
        ),
        "cli.main.calls": tracer.calls("cli.main"),
        "trace.unattributed_share": (
            (solve_wall_s - tracer.top_level_s - tracer.top_level_hook_s) / solve_wall_s
        ),
    }
    out = {}
    for name in (m["name"] for m in bench["per_layer"]):
        if name == "trace.overhead_ratio":
            continue
        group, _, field = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif field in ("calls", "self_s", "total_s"):
            out[name] = groups.get(group, {}).get(field, 0)
        else:
            out[name] = counts[name]
    return out
