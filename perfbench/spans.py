"""Spans around semiinv's public functions, installed from outside the package.

:func:`install` replaces every public function of every ``semiinv`` module,
and the public and arithmetic methods of ``SIPoly`` and ``KernelBasis``, by a
timing wrapper.  ``from .x import f`` leaves copies of ``f`` in other modules (and
the package ``__init__`` re-exports most of them), so every module attribute
that *is* an original function is rebound; a call through any alias opens
the same span.

A span is one call into a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls made inside it.  Hooks that count
work (matrix nnz, product term pairs, cache outcomes) run with the tracer
paused, and their time is kept out of every span's self time.

Other classes' methods and the trivial dunders (``__init__``, ``__eq__``,
``__hash__``, ``__len__``, ...) are not wrapped: they run once per
coefficient, term or partition, so wrapping them would swamp the trace.
Their cost stays in the self time of their caller; ``SIPoly.__init__``, for
example, counts towards ``monomials.json`` when ``from_json_list`` builds a
polynomial.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from collections import defaultdict
from pathlib import Path
from time import perf_counter

CLASSES = ("monomials.SIPoly", "cayley.KernelBasis")
ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"}

_SHAPE = (
    "first_negative_index",
    "is_symmetric",
    "unimodality_break",
    "is_unimodal",
    "strictness_break",
    "is_strictly_unimodal_except_ends",
)

# wrapped function key ("module.qualname") -> span group; unlisted keys fall
# back to MODULE_GROUPS, then to "<module>.other"
GROUPS = {
    "qpoly.gauss": "qpoly.gauss",
    **{f"qpoly.{name}": "qpoly.shape" for name in _SHAPE},
    "boxpartitions.count_partitions_in_box": "boxpartitions.count",
    "boxpartitions.delta": "boxpartitions.count",
    "boxpartitions.enumerate_partitions_in_box": "boxpartitions.enumerate",
    "cayley.build_D_matrix": "cayley.build_D_matrix",
    "cayley.kernel_basis": "cayley.kernel_basis",
    "cayley.semiinvariant_dim": "cayley.semiinvariant_dim",
    "cayley.apply_D": "cayley.apply_D",
    "cayley.KernelBasis.verify": "cache.verify",
    "monomials.SIPoly.__mul__": "monomials.mul",
    "monomials.SIPoly.primitive": "monomials.primitive",
    "monomials.SIPoly.to_json_list": "monomials.json",
    "monomials.SIPoly.from_json_list": "monomials.json",
    "witnesses.triangulate": "witnesses.triangulate",
    "witnesses.independence_check": "witnesses.independence_check",
    "witnesses.nr8_witnesses": "witnesses.construct",
    "witnesses.strict_witnesses": "witnesses.construct",
    **{f"differences.{f}": "differences.family"
       for f in ("F", "G", "strange", "stanley_zanello", "bergeron")},
    "differences.verify_theorem_F": "differences.verify",
    "differences.verify_theorem_G": "differences.verify",
    "differences.scan_conjecture_F_strict": "differences.scan",
    "differences.scan_strange": "differences.scan",
    "differences.scan_bergeron": "differences.scan",
    "differences.write_jsonl": "differences.write",
    "differences.write_csv": "differences.write",
}
MODULE_GROUPS = {"cache": "cache", "cli": "cli.main"}


def group_of(key: str) -> str:
    module = key.split(".", 1)[0]
    return GROUPS.get(key) or MODULE_GROUPS.get(module) or f"{module}.other"


class Tracer:
    """Per-function call counts, total and self time, plus hook counters."""

    def __init__(self) -> None:
        self.paused = False
        self.reset()

    def reset(self) -> None:
        self.stats: defaultdict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.gauss_args: set = set()
        self.top_level_s = 0.0
        self.top_level_hook_s = 0.0
        self._stack: list[float] = []

    def calls(self, key: str) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def _hook(self, hook, *args):
        t0 = perf_counter()
        self.paused = True
        try:
            return hook(self, *args)
        finally:
            self.paused = False
            spent = perf_counter() - t0
            if self._stack:
                self._stack[-1] += spent
            else:
                self.top_level_hook_s += spent

    def wrap(self, fn, key: str):
        pre, post = PRE_HOOKS.get(key), POST_HOOKS.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            token = self._hook(pre, args, kwargs) if pre else None
            stack = self._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = stack.pop()
                s = self.stats[key]
                s[0] += 1
                s[1] += dur
                s[2] += dur - inner
                if stack:
                    stack[-1] += dur
                else:
                    self.top_level_s += dur
            if post:
                self._hook(post, args, kwargs, result, token)
            return result

        return span

    def groups(self) -> dict[str, dict[str, float]]:
        """Span stats summed per group: calls, total_s, self_s."""
        out: dict[str, dict[str, float]] = {}
        for key, (calls, total, self_s) in self.stats.items():
            g = out.setdefault(group_of(key), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            g["calls"] += calls
            g["total_s"] += total
            g["self_s"] += self_s
        return out


def _is_source_function(obj, package_dir: Path) -> bool:
    # dataclass-generated methods are compiled from strings; leave them alone
    return (
        inspect.isfunction(obj)
        and Path(obj.__code__.co_filename).resolve().parent == package_dir
    )


def install(tracer: Tracer) -> dict:
    """Wrap semiinv in place; returns ``{original: wrapper}``.

    Raises ``RuntimeError`` if any module attribute still refers to an
    unwrapped original afterwards.
    """
    import semiinv

    package_dir = Path(semiinv.__file__).resolve().parent
    modules = {"semiinv": semiinv}
    for info in pkgutil.iter_modules(semiinv.__path__):
        modules[info.name] = importlib.import_module(f"semiinv.{info.name}")

    wrapped: dict = {}
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (
                not name.startswith("_")
                and _is_source_function(obj, package_dir)
                and obj.__module__ == mod.__name__
            ):
                wrapped[obj] = tracer.wrap(obj, f"{short}.{name}")
    for short, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])

    for path in CLASSES:
        short, cls_name = path.split(".")
        cls = getattr(modules[short], cls_name)
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITHMETIC:
                continue
            kind = type(attr) if isinstance(attr, (classmethod, staticmethod)) else None
            fn = attr.__func__ if kind else attr
            if not _is_source_function(fn, package_dir):
                continue
            wrapper = tracer.wrap(fn, f"{path}.{name}")
            setattr(cls, name, kind(wrapper) if kind else wrapper)

    stale = [
        f"{short}.{name}"
        for short, mod in modules.items()
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj in wrapped
    ]
    if stale:
        raise RuntimeError(f"unwrapped aliases remain: {stale}")
    return wrapped


# ---------------------------------------------------------------------------
# hooks: pre(tracer, args, kwargs) -> token; post(tracer, args, kwargs, result, token)


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _gauss(t, args, kwargs, result, token):
    t.gauss_args.add((_arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")))


def _enumerate(t, args, kwargs, result, token):
    t.counts["boxpartitions.enumerate.partitions"] += len(result)


def _matrix(t, args, kwargs, mat, token):
    t.counts["cayley.matrix.nnz"] += sum(len(col) for col in mat.cols)


def _kernel(t, args, kwargs, kb, token):
    t.counts["cayley.kernel.dim"] += kb.dim
    bits = max(
        (c.numerator.bit_length() for v in kb.vectors for _, c in v.items()),
        default=0,
    )
    t.counts["cayley.kernel.max_coeff_bits"] = max(t.counts["cayley.kernel.max_coeff_bits"], bits)


def _mul(t, args, kwargs, result, token):
    a, b = args
    if type(b) is type(a):
        t.counts["monomials.mul.term_pairs"] += len(a) * len(b)
        t.counts["monomials.mul.terms_out"] += len(result)


def _cache_before(t, args, kwargs):
    from semiinv import cache

    n, k, m = args[:3]
    directory = cache.resolve_cache_dir(_arg(args, kwargs, 3, "cache_dir"))
    path = directory / cache.kernel_file_name(n, k, m) if directory else None
    size = path.stat().st_size if path is not None and path.is_file() else None
    return size, t.calls("cayley.kernel_basis"), t.calls("cayley.KernelBasis.verify")


def _cache_after(t, args, kwargs, result, token):
    size, computed_before, verified_before = token
    computed = t.calls("cayley.kernel_basis") > computed_before
    verified = t.calls("cayley.KernelBasis.verify") > verified_before
    t.counts["cache.lookups"] += 1
    if not computed and not verified:
        t.counts["cache.memory_hits"] += 1
        return
    if size is not None:
        t.counts["cache.bytes_read"] += size
    if not computed:
        t.counts["cache.disk_hits"] += 1
    elif size is None:
        t.counts["cache.misses"] += 1
    else:
        t.counts["cache.rejects"] += 1


def _cache_write(t, args, kwargs, result, token):
    t.counts["cache.bytes_written"] += len(_arg(args, kwargs, 1, "data"))


def _reports(t, args, kwargs, reports, token):
    t.counts["differences.cells"] += len(reports)
    t.counts["differences.findings"] += sum(
        1 for r in reports if not all(r.checks.values())
    )


def _report_file(t, args, kwargs, result, token):
    t.counts["differences.write.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


PRE_HOOKS = {"cache.kernel_basis_cached": _cache_before}
POST_HOOKS = {
    "qpoly.gauss": _gauss,
    "boxpartitions.enumerate_partitions_in_box": _enumerate,
    "cayley.build_D_matrix": _matrix,
    "cayley.kernel_basis": _kernel,
    "monomials.SIPoly.__mul__": _mul,
    "cache.kernel_basis_cached": _cache_after,
    "cache.atomic_write_bytes": _cache_write,
    **{f"differences.{f}": _reports for f in (
        "verify_theorem_F", "verify_theorem_G", "scan_conjecture_F_strict",
        "scan_strange", "scan_bergeron")},
    "differences.write_jsonl": _report_file,
    "differences.write_csv": _report_file,
}
