"""Command-line front end.

``verify`` and ``scan`` take one subcommand per suite or family; it reads
only its own flags, given after its name (``semiinv verify F --nmax 8``),
and ``semiinv verify F --help`` lists them.

Exit codes: 0 success, 2 usage or domain error (a flag the suite or family
does not read, or one given before the suite name, included), 3 failed
verification, dimension mismatch or inexact internal division, 4 I/O
failure.  Progress and diagnostics go to stderr; data goes to stdout or
to files.
"""

from __future__ import annotations

import argparse
import functools
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


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _cache_dir(args: argparse.Namespace) -> Path:
    if args.cache_dir is not None:
        return Path(args.cache_dir)
    resolved = cache.resolve_cache_dir(None)
    return resolved if resolved is not None else Path(DEFAULT_CACHE_DIR)


def _at_least(low: int):
    """An argparse ``type`` reading an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


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


def _write_reports(reports, prefix: str) -> str:
    write_jsonl(reports, f"{prefix}.jsonl")
    write_csv(reports, f"{prefix}.csv")
    return f"wrote {prefix}.jsonl and {prefix}.csv"


def _verify_sylvester(args: argparse.Namespace) -> int:
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


def _verify_F(args: argparse.Namespace) -> int:
    reports = verify_theorem_F(args.nmax, args.kmax)
    if args.out:
        _info(_write_reports(reports, args.out))
    print(f"F: {len(reports)} cells symmetric, unimodal, delta-consistent")
    return 0


def _verify_G(args: argparse.Namespace) -> int:
    reports = verify_theorem_G(args.nmax, args.kmax, args.rmax)
    if args.out:
        _info(_write_reports(reports, args.out))
    print(f"G: {len(reports)} cells symmetric and strictly unimodal except ends")
    return 0


def _verify_nr8(args: argparse.Namespace) -> int:
    if args.cache_dir is not None and not args.with_kernel:
        raise ValueError("verify nr8 reads --cache-dir only with --with-kernel")
    # fixed base grid 8 <= n, r < 16 with n*r even
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


def _write_scan(args: argparse.Namespace, reports) -> int:
    written = _write_reports(reports, args.out or f"scan-{args.family}")
    failing = sum(1 for r in reports if not r.passed)
    _info(f"{len(reports)} cells scanned, {failing} with findings")
    print(written)
    return 0


def _scan_F_strict(args: argparse.Namespace) -> int:
    return _write_scan(args, scan_conjecture_F_strict(
        args.nmax, args.kmax, args.include_below_range, jobs=args.jobs
    ))


def _scan_strange(args: argparse.Namespace) -> int:
    return _write_scan(args, scan_strange(args.nmax, args.kmax, args.rmax, jobs=args.jobs))


def _scan_bergeron(args: argparse.Namespace) -> int:
    return _write_scan(args, scan_bergeron(args.bound, jobs=args.jobs))


def _command(sub, name: str, func, summary: str | None = None,
             **grid: int) -> argparse.ArgumentParser:
    """A subcommand running ``func``; ``grid`` maps nonnegative flags to defaults."""
    p = sub.add_parser(name, help=summary)
    for flag, default in grid.items():
        p.add_argument(f"--{flag}", type=_at_least(0), default=default,
                       help=f"default: {default}")
    # main reports a flag this subcommand does not read through its parser
    p.set_defaults(func=func, parser=p)
    return p


# built once per process: a caller may run main many times (the benchmark,
# the tests); the parser keeps no state between parses
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiinv",
        description=(
            "Exact semi-invariants of binary forms and unimodality "
            "verification for Gaussian-coefficient differences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "gauss", cmd_gauss, "Print a Gaussian coefficient")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--format", choices=["human", "json"], default="human")

    p = _command(sub, "dim", cmd_dim, "Compare partition delta with kernel nullity")
    for name in ("n", "k", "m"):
        p.add_argument(name, type=int)

    p = _command(sub, "basis", cmd_basis, "Write a triangulated kernel basis as JSON")
    for name in ("n", "k", "m"):
        p.add_argument(name, type=int)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--cache-dir", help=f"default: ${cache.ENV_VAR} or {DEFAULT_CACHE_DIR}")

    suites = sub.add_parser("verify", help="Run a verification suite").add_subparsers(
        dest="suite", required=True
    )
    _command(suites, "sylvester", _verify_sylvester, nmax=6, kmax=6)
    for p in (_command(suites, "F", _verify_F, nmax=6, kmax=6),
              _command(suites, "G", _verify_G, nmax=6, kmax=6, rmax=10)):
        p.add_argument("--out", help="report file prefix (default: no report)")
    p = _command(suites, "nr8", _verify_nr8)
    p.add_argument("--with-kernel", action="store_true",
                   help="also compute the kernel nullity at (8,8,32)")
    p.add_argument("--cache-dir", help="read only with --with-kernel")

    families = sub.add_parser(
        "scan", help="Scan a conjecture family and record findings"
    ).add_subparsers(dest="family", required=True)
    strict = _command(families, "F-strict", _scan_F_strict, nmax=10, kmax=20)
    strict.add_argument("--include-below-range", action="store_true",
                        help="extend the grid below the conjectured range")
    for p in (strict,
              _command(families, "strange", _scan_strange, nmax=10, kmax=20, rmax=3),
              _command(families, "bergeron", _scan_bergeron, bound=6)):
        p.add_argument("--jobs", type=_at_least(1), default=1,
                       help="worker processes, at most one per CPU (default: 1)")
        p.add_argument("--out", help="report file prefix (default: scan-FAMILY)")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
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
