"""The benchmark's workloads: operations, warm-cache set-up and smoke variants.

An operation is one CLI invocation (``argv``, run in-process through
``semiinv.cli.main`` in the repetition's work directory) or one library call
into ``semiinv.witnesses`` (``call``).  Each one is checked against a digest
recorded from a trusted commit, so a faster but wrong answer fails.

The three workloads keep apart the three hot spots of the library:

* ``kernels-cold``: exact elimination in ``cayley`` at many small strata
  (``verify sylvester``) and at two large ones, plus the cache write path.
  Bypasses ``qpoly`` and ``SIPoly`` products.
* ``gauss-scan``: the q-Pascal sweep in ``qpoly`` under every scanner and
  verifier of ``differences``, plus box counts.  Bypasses ``cayley``,
  ``monomials`` and ``cache``.
* ``witness-warm``: ``SIPoly`` products, ``primitive``, ``apply_D`` and
  JSON decoding on kernels read back from a warm disk cache.  Elimination
  happens only in set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NAMES = ("kernels-cold", "gauss-scan", "witness-warm")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...] = ()
    files: tuple[str, ...] = ()  # written by the CLI, relative to the work dir
    call: tuple = ()  # (function in semiinv.witnesses, *positional args)


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    warm: tuple[tuple[int, int, int], ...] = ()  # kernels cached during set-up
    expect: dict = field(default_factory=dict)  # traced counters that must hold


def cli(name: str, command: str, *files: str) -> Op:
    return Op(name, argv=tuple(command.split()), files=files)


def basis(n: int, k: int, m: int, cold: bool) -> Op:
    out = f"basis-{n}-{k}-{m}.json"
    files = (out, f"cache/kernel_n{n}_k{k}_m{m}.json") if cold else (out,)
    return cli(f"basis-{n}-{k}-{m}", f"basis {n} {k} {m} --cache-dir cache --out {out}", *files)


def report(name: str, command: str) -> Op:
    return cli(name, f"{command} --out {name}", f"{name}.jsonl", f"{name}.csv")


def witness(fn: str, *args: int) -> Op:
    return Op(f"{fn}-" + "-".join(map(str, args)), call=(fn, *args))


COLD_EXPECT = {"cache.disk_hits": 0}
WARM_EXPECT = {"cache.misses": 0, "cache.rejects": 0}

FULL = {
    "kernels-cold": Workload(
        ops=(
            cli("sylvester", "verify sylvester --nmax 8 --kmax 7"),
            basis(8, 8, 32, cold=True),
            basis(9, 7, 31, cold=True),
        ),
        expect=COLD_EXPECT,
    ),
    "gauss-scan": Workload(
        ops=(
            report("F-strict", "scan F-strict --nmax 18 --kmax 36 --jobs 1"),
            report("F-below", "scan F-strict --nmax 12 --kmax 24 --include-below-range --jobs 1"),
            report("strange", "scan strange --nmax 41 --kmax 6 --rmax 3 --jobs 1"),
            report("bergeron", "scan bergeron --bound 12 --jobs 1"),
            report("verify-F", "verify F --nmax 16 --kmax 24"),
            report("verify-G", "verify G --nmax 14 --kmax 24 --rmax 12"),
        ),
    ),
    "witness-warm": Workload(
        ops=(
            basis(8, 8, 32, cold=False),
            witness("nr8_witnesses", 8, 16),
            *(witness("strict_witnesses", 8, k, 8, 4 * k) for k in (12, 13, 14)),
        ),
        warm=((8, 8, 32), (8, 4, 16), (8, 5, 20), (8, 6, 24)),
        expect=WARM_EXPECT,
    ),
}

# tiny inputs for the benchmark's own tests; same layers, seconds not minutes
SMOKE = {
    "kernels-cold": Workload(
        ops=(
            cli("sylvester", "verify sylvester --nmax 4 --kmax 4"),
            basis(4, 4, 6, cold=True),
            basis(5, 4, 10, cold=True),
        ),
        expect=COLD_EXPECT,
    ),
    "gauss-scan": Workload(
        ops=(
            report("F-strict", "scan F-strict --nmax 9 --kmax 16 --jobs 1"),
            report("F-below", "scan F-strict --nmax 4 --kmax 5 --include-below-range --jobs 1"),
            report("strange", "scan strange --nmax 11 --kmax 3 --rmax 2 --jobs 1"),
            report("bergeron", "scan bergeron --bound 4 --jobs 1"),
            report("verify-F", "verify F --nmax 4 --kmax 4"),
            report("verify-G", "verify G --nmax 9 --kmax 9 --rmax 8"),
        ),
    ),
    "witness-warm": Workload(
        ops=(
            basis(8, 8, 32, cold=False),
            witness("nr8_witnesses", 8, 8),
            witness("strict_witnesses", 8, 10, 8, 40),
        ),
        warm=((8, 8, 32), (8, 2, 8)),
        expect=WARM_EXPECT,
    ),
}


def get(name: str, smoke: bool) -> Workload:
    return (SMOKE if smoke else FULL)[name]
