"""Command-line front end.

Exit codes: 0 success, 2 usage or domain error (a flag the suite or
family does not read included), 3 failed verification, dimension mismatch
or inexact internal division, 4 I/O failure.  Progress and diagnostics go
to stderr; data goes to stdout or to files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cache
from .boxpartitions import delta
from .cayley import (
    KernelBasis,
    SylvesterMismatchError,
    semiinvariant_dim,
    sylvester_grid_mismatches,
)
from .differences import (
    VerificationError,
    scan_bergeron,
    scan_conjecture_F_strict,
    scan_strange,
    verify_theorem_F,
    verify_theorem_G,
    write_csv,
    write_jsonl,
)
from .qpoly import gauss
from .witnesses import base_grid_deltas, triangulate

DEFAULT_CACHE_DIR = ".semiinv-cache"
# command -> suite or family -> the flags it reads, with their defaults;
# nr8 checks a fixed grid.  Any other flag of the table is an error.
GRID = {
    "verify": {"sylvester": {"nmax": 6, "kmax": 6},
               "F": {"nmax": 6, "kmax": 6, "out": None},
               "G": {"nmax": 6, "kmax": 6, "rmax": 10, "out": None},
               "nr8": {"with_kernel": False, "cache_dir": None}},
    "scan": {"F-strict": {"nmax": 10, "kmax": 20, "include_below_range": False, "out": None},
             "strange": {"nmax": 10, "kmax": 20, "rmax": 3, "out": None},
             "bergeron": {"bound": 6, "out": None}},
}
_GRID_FLAGS = ("nmax", "kmax", "rmax", "bound")


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cache_dir(args: argparse.Namespace) -> Path:
    if args.cache_dir is not None:
        return Path(args.cache_dir)
    resolved = cache.resolve_cache_dir(None)
    return resolved if resolved is not None else Path(DEFAULT_CACHE_DIR)


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _read_flags(args: argparse.Namespace, name: str) -> None:
    """Default the flags ``name`` reads; reject a negative grid flag and any
    other flag of the command's table given (argparse leaves those at None)."""
    table = GRID[args.command]
    reads = table[name]
    for flag in reads:
        value = getattr(args, flag)
        if flag in _GRID_FLAGS and value is not None and value < 0:
            raise ValueError(f"--{flag} must be nonnegative, got {value}")
    flags = dict.fromkeys(flag for suite in table.values() for flag in suite)
    foreign = [_option(flag) for flag in flags
               if flag not in reads and getattr(args, flag) is not None]
    if foreign:
        raise ValueError(
            f"{args.command} {name} does not read {', '.join(foreign)}; "
            f"it reads {', '.join(map(_option, reads))}"
        )
    for flag, default in reads.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)


def _add_grid_flags(p: argparse.ArgumentParser, table: dict[str, dict]) -> None:
    for flag in _GRID_FLAGS:
        readers = [name for name, reads in table.items() if flag in reads]
        if readers:
            p.add_argument(f"--{flag}", type=int, default=None,
                           help=f"read by {', '.join(readers)} "
                           f"(default: {table[readers[0]][flag]})")


def cmd_gauss(args: argparse.Namespace) -> int:
    poly = gauss(args.a, args.b)
    if args.format == "json":
        print(json.dumps(poly.to_json_obj(), separators=(",", ":")))
    else:
        print(poly)
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    n, k, m = args.n, args.k, args.m
    # the kernel entry checks the arguments and names them in n, k order
    dim = semiinvariant_dim(n, k, m)
    d = delta(k, n, m)
    if 2 * m <= n * k:
        flag = "MATCH" if d == dim else "MISMATCH"
    else:
        flag = "UNCHECKED"
    print(f"delta={d} kernel={dim} {flag}")
    return 3 if flag == "MISMATCH" else 0


def cmd_basis(args: argparse.Namespace) -> int:
    directory = _cache_dir(args)
    kb = cache.kernel_basis_cached(args.n, args.k, args.m, directory)
    tri = triangulate(kb.vectors)
    data = cache.canonical_json_bytes(
        KernelBasis(kb.n, kb.k, kb.m, tuple(tri)).to_json_obj()
    )
    if args.out:
        cache.atomic_write_bytes(Path(args.out), data)
        _info(f"wrote {args.out}")
    else:
        sys.stdout.write(data.decode())
    return 0


def _emit_reports(reports, prefix: str | None) -> None:
    if not prefix:
        return
    write_jsonl(reports, f"{prefix}.jsonl")
    write_csv(reports, f"{prefix}.csv")
    _info(f"wrote {prefix}.jsonl and {prefix}.csv")


def cmd_verify(args: argparse.Namespace) -> int:
    _read_flags(args, args.suite)
    if args.suite == "nr8" and args.cache_dir is not None and not args.with_kernel:
        raise ValueError("verify nr8 reads --cache-dir only with --with-kernel")
    if args.suite == "sylvester":
        bad = sylvester_grid_mismatches(args.nmax, args.kmax)
        cells = sum(
            n * k // 2 + 1 for n in range(args.nmax + 1) for k in range(args.kmax + 1)
        )
        if bad:
            for n, k, m, d, dim in bad:
                print(f"MISMATCH n={n} k={k} m={m} delta={d} kernel={dim}")
            return 3
        print(f"sylvester: {cells} cells, delta == kernel nullity everywhere")
        return 0
    if args.suite == "F":
        reports = verify_theorem_F(args.nmax, args.kmax)
        _emit_reports(reports, args.out)
        print(f"F: {len(reports)} cells symmetric, unimodal, delta-consistent")
        return 0
    if args.suite == "G":
        reports = verify_theorem_G(args.nmax, args.kmax, args.rmax)
        _emit_reports(reports, args.out)
        print(f"G: {len(reports)} cells symmetric and strictly unimodal except ends")
        return 0
    # nr8: fixed base grid 8 <= n, r < 16 with n*r even
    rows = base_grid_deltas()
    bad = [(n, r, d) for n, r, d in rows if d < 2]
    for n, r, d in rows:
        print(f"n={n} r={r} delta={d}")
    if bad:
        print(f"FAIL: {len(bad)} cells below 2: {bad}")
        return 3
    if args.with_kernel:
        _info("computing kernel nullity at (n=8, k=8, m=32) ...")
        kb = cache.kernel_basis_cached(8, 8, 32, _cache_dir(args))
        print(f"kernel nullity at (8,8,32) = {kb.dim}")
        if kb.dim < 2:
            return 3
    print("nr8: all base cells have delta >= 2")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    _read_flags(args, args.family)
    if args.family == "F-strict":
        reports = scan_conjecture_F_strict(
            args.nmax, args.kmax, args.include_below_range, jobs=args.jobs
        )
    elif args.family == "strange":
        reports = scan_strange(args.nmax, args.kmax, args.rmax, jobs=args.jobs)
    else:
        reports = scan_bergeron(args.bound, jobs=args.jobs)
    prefix = args.out or f"scan-{args.family}"
    write_jsonl(reports, f"{prefix}.jsonl")
    write_csv(reports, f"{prefix}.csv")
    failing = sum(1 for r in reports if not r.passed)
    _info(f"{len(reports)} cells scanned, {failing} with findings")
    print(f"wrote {prefix}.jsonl and {prefix}.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiinv",
        description=(
            "Exact semi-invariants of binary forms and unimodality "
            "verification for Gaussian-coefficient differences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gauss", help="Print a Gaussian coefficient")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=cmd_gauss)

    p = sub.add_parser("dim", help="Compare partition delta with kernel nullity")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("basis", help="Write a triangulated kernel basis as JSON")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--cache-dir", default=None, help=f"default: ${cache.ENV_VAR} or {DEFAULT_CACHE_DIR}")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="Run a verification suite")
    p.add_argument("suite", choices=list(GRID["verify"]))
    _add_grid_flags(p, GRID["verify"])
    p.add_argument("--with-kernel", action="store_true", default=None,
                   help="nr8 only: also compute the kernel nullity at (8,8,32)")
    p.add_argument("--out", default=None, help="report file prefix (F and G suites)")
    p.add_argument("--cache-dir", default=None, help="nr8 --with-kernel only")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="Scan a conjecture family and record findings")
    p.add_argument("family", choices=list(GRID["scan"]))
    _add_grid_flags(p, GRID["scan"])
    p.add_argument("--include-below-range", action="store_true", default=None,
                   help="F-strict only: extend the grid below the conjectured range")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per CPU (default: 1)")
    p.add_argument("--out", default=None, help="report file prefix")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ValueError as exc:
        _info(f"error: {exc}")
        return 2
    except (VerificationError, SylvesterMismatchError, ArithmeticError) as exc:
        # ArithmeticError: an inexact division in the gauss product chain
        _info(f"verification failure: {exc}")
        return 3
    except OSError as exc:
        _info(f"i/o error: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
