"""One repetition of a workload in a fresh interpreter (started by run.py).

Usage: child.py WORKLOAD SEED TRACE SMOKE REPDIR T0

REPDIR is a fresh directory; the repetition works in REPDIR/work, keeps its
kernel cache in REPDIR/work/cache and writes REPDIR/result.json.  T0 is the
``time.monotonic()`` reading taken just before this process was started, so
``setup_s`` covers interpreter start, ``import semiinv`` and set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class OpFailure(Exception):
    pass


def digest(artifacts: dict[str, Iterable[bytes]]) -> str:
    """sha256 over each artifact's name and the sha256 of its chunks."""
    h = hashlib.sha256()
    for name in sorted(artifacts):
        inner = hashlib.sha256()
        for chunk in artifacts[name]:
            inner.update(chunk)
        h.update(f"{name}\0{inner.hexdigest()}\0".encode())
    return h.hexdigest()


def file_chunks(path: str, size: int = 1 << 20) -> Iterator[bytes]:
    with open(path, "rb") as f:
        while chunk := f.read(size):
            yield chunk


def run_cli(semiinv, op) -> dict[str, Iterable[bytes]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = semiinv.cli.main(list(op.argv))
    if code != 0:
        raise OpFailure(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    artifacts = {"stdout": [out.getvalue().encode()]}
    for rel in op.files:
        artifacts[rel] = file_chunks(rel)
    return artifacts


def run_witness(semiinv, op, cache_dir: Path) -> dict[str, Iterable[bytes]]:
    fn, *args = op.call
    ws = list(getattr(semiinv.witnesses, fn)(*args, cache_dir))
    if not all(semiinv.cayley.apply_D(w).is_zero() for w in ws):
        raise OpFailure("a witness is not annihilated by D")
    if not semiinv.witnesses.independence_check(ws):
        raise OpFailure("witnesses are linearly dependent")
    return {"witnesses": json_chunks(ws)}


def json_chunks(ws) -> Iterator[bytes]:
    """The family's canonical JSON, encoded one witness at a time."""
    encoder = json.JSONEncoder(separators=(",", ":"))
    yield b"["
    for i, w in enumerate(ws):
        if i:
            yield b","
        yield encoder.encode(w.to_json_list()).encode()
    yield b"]"


def main(argv: list[str]) -> int:
    name, seed, trace, smoke, repdir, t0 = argv
    trace, smoke, repdir, t0 = trace == "1", smoke == "1", Path(repdir), float(t0)
    sys.path.insert(0, str(SRC))
    import semiinv
    import semiinv.cli  # noqa: F401  (not imported by the package itself)

    if Path(semiinv.__file__).resolve().parent != SRC / "semiinv":
        print(f"semiinv imported from {semiinv.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import metrics
    import workloads

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    wl = workloads.get(name, smoke)
    expected = json.loads((HERE / "digests.json").read_text())
    expected = expected["smoke" if smoke else "full"].get(name, {})
    work = repdir / "work"
    cache_dir = work / "cache"
    cache_dir.mkdir(parents=True)
    os.chdir(work)
    for key in wl.warm:
        semiinv.cache.kernel_basis_cached(*key, cache_dir)
    semiinv.cache.clear_memory_cache()
    ops = list(wl.ops)
    random.Random(int(seed)).shuffle(ops)
    setup_end = time.monotonic()
    if tracer:
        tracer.reset()

    failures, mismatched, digests, op_s = [], [], {}, []
    for op in ops:
        start = time.monotonic()
        try:
            artifacts = run_witness(semiinv, op, cache_dir) if op.call else run_cli(semiinv, op)
            digests[op.name] = digest(artifacts)
            if expected.get(op.name) != digests[op.name]:
                mismatched.append(op.name)
        except Exception as exc:  # an operation's failure is recorded, not fatal
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
        op_s.append(time.monotonic() - start)
    solve_wall_s = sum(op_s)

    result = {
        # the parent rescales both phases with the speed probed in these spans
        "setup_wall_s": setup_end - t0,
        "setup_span": (t0, setup_end),
        "solve_wall_s": solve_wall_s,
        "solve_span": (setup_end, time.monotonic()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(failures) + len(mismatched),
        "failures": failures,
        "mismatched": mismatched,
        "digests": digests,
        "order": [op.name for op in ops],
        "op_s": op_s,
    }
    if tracer:
        layers = metrics.layer_values(tracer, solve_wall_s, metrics.load_benchmark())
        result["layers"] = layers
        result["spans"] = dict(tracer.stats)
        result["violations"] = [
            f"{key} == {layers[key]}, expected {value}"
            for key, value in wl.expect.items()
            if layers[key] != value
        ]
    (repdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
