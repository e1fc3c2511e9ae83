"""Kernel-basis caching: in-process memo plus optional on-disk JSON files.

Disk files are named ``kernel_n{n}_k{k}_m{m}.json`` and written atomically
(temp file in the target directory, then rename), so concurrent scans never
observe a partial file.  A loaded basis is re-validated before reuse:
every vector must be nonzero, annihilated by the lowering operator, and of
degree ``k`` and weight ``m`` in every term; the vectors' trailing (anti-lex
least) monomials must be pairwise distinct, which proves them independent;
and for ``2m <= nk`` their number must be ``delta(k, n, m)``.  Anything
corrupt is recomputed and rewritten rather than trusted.

The cache directory is chosen from, in order: an explicit argument, the
``SEMIINV_CACHE`` environment variable, or nothing (memory only).  The CLI
layers its own default of ``./.semiinv-cache`` on top.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .boxpartitions import delta
from .cayley import KernelBasis, kernel_basis

ENV_VAR = "SEMIINV_CACHE"

_memory: dict[tuple[int, int, int], KernelBasis] = {}


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path | None:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    return Path(env) if env else None


def kernel_file_name(n: int, k: int, m: int) -> str:
    return f"kernel_n{n}_k{k}_m{m}.json"


def canonical_json_bytes(obj) -> bytes:
    """Byte-stable JSON: fixed separators, preserved key order, one newline."""
    return (json.dumps(obj, separators=(",", ":"), ensure_ascii=True) + "\n").encode()


def atomic_write_bytes(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_valid(path: Path, n: int, k: int, m: int) -> KernelBasis | None:
    try:
        with path.open("rb") as fh:
            obj = json.load(fh)
        kb = KernelBasis.from_json_obj(obj)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if (kb.n, kb.k, kb.m) != (n, k, m):
        return None
    if not kb.verify():
        return None
    # a kernel vector of another stratum verifies too
    for v in kb.vectors:
        for nu, _ in v.items():
            if sum(nu) != k or sum(i * e for i, e in enumerate(nu)) != m:
                return None
    # a truncated file keeps the verified vectors; the count must be delta's
    if 2 * m <= n * k and kb.dim != delta(k, n, m):
        return None
    # distinct trailing (anti-lex least) monomials prove independence; in a
    # computed basis each is its vector's free column.  The least monomial
    # has the greatest reversed exponent vector.
    trailing = {max(nu[::-1] for nu, _ in v.items()) for v in kb.vectors}
    if len(trailing) != kb.dim:
        return None
    return kb


def kernel_basis_cached(
    n: int, k: int, m: int, cache_dir: str | os.PathLike | None = None
) -> KernelBasis:
    """Kernel basis for (n, k, m), via memo and disk cache when available."""
    key = (n, k, m)
    kb = _memory.get(key)
    if kb is not None:
        return kb
    directory = resolve_cache_dir(cache_dir)
    if directory is not None:
        kb = _load_valid(directory / kernel_file_name(n, k, m), n, k, m)
        if kb is not None:
            _memory[key] = kb
            return kb
    kb = kernel_basis(n, k, m)
    if directory is not None:
        atomic_write_bytes(
            directory / kernel_file_name(n, k, m),
            canonical_json_bytes(kb.to_json_obj()),
        )
    _memory[key] = kb
    return kb


def clear_memory_cache() -> None:
    _memory.clear()
