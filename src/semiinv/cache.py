"""Kernel-basis caching: in-process memo plus optional on-disk JSON files.

Disk files are named ``kernel_n{n}_k{k}_m{m}.json`` and written atomically
(temp file in the target directory, then rename), so concurrent scans never
observe a partial file.  A loaded basis is re-validated before reuse: the
file's bytes must be the canonical serialization of what they decode to,
and the basis must pass :func:`~semiinv.cayley._in_kernel` (through
:meth:`~semiinv.cayley.KernelBasis.verify`) and then
:func:`~semiinv.cayley._canonical`, which force it to equal the one
:func:`~semiinv.cayley.kernel_basis` computes.  Anything corrupt is
recomputed and rewritten, not trusted.

The memory holds bases only.  Its budget is a fixed number of stored basis
terms; an insert that pushes it past the budget clears the memo down to
the entry in hand.  Entries are exact and are only ever dropped, and
arguments that are not ints are refused before the memo is read, so
results never depend on call order or eviction.

Both the write and the byte check encode a basis with
:func:`kernel_json_bytes`, which formats each distinct monomial of the
basis once and builds no object per term; its peak memory is about twice
the file's bytes.

The cache directory is chosen from, in order: an explicit argument, the
``SEMIINV_CACHE`` environment variable, or nothing (memory only).  The CLI
layers its own default of ``./.semiinv-cache`` on top.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .cayley import KernelBasis, _canonical, _check_ints, kernel_basis
from .monomials import _json_bytes_each

ENV_VAR = "SEMIINV_CACHE"

_memory: dict[tuple[int, int, int], KernelBasis] = {}
# the number of terms of the bases in _memory, kept within _MEMORY_BUDGET
# by _remember
_memory_size = 0
_MEMORY_BUDGET = 1 << 20


def resolve_cache_dir(explicit: str | os.PathLike | None = None) -> Path | None:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    return Path(env) if env else None


def kernel_file_name(n: int, k: int, m: int) -> str:
    return f"kernel_n{n}_k{k}_m{m}.json"


_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True)


def kernel_json_bytes(kb: KernelBasis) -> bytes:
    """``kb.to_json_obj()`` as byte-stable JSON (fixed separators, key order
    kept, one closing newline), built one vector at a time.

    The vectors share the monomials of one stratum, and one call of
    :func:`~semiinv.monomials._json_bytes_each` formats each monomial's
    exponents once (526 keys for the 3,402 terms at (8,8,32)); each vector
    is then one format call over its coefficients, so no JSON object is
    built.  One encode of the whole basis keeps every token as a string
    until it is done, 12-26 times the file's size; here the finished parts,
    the fragments and one vector's template are alive at once, about twice
    the file's size.
    """
    # the header's encoding ends in '"vectors":[]}'; keep it up to the '['
    head = _ENCODER.encode({**kb._json_header(), "vectors": []})[:-2].encode()
    body = b",".join(_json_bytes_each(kb.vectors))
    return b"".join((head, body, b"]}\n"))


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename.

    The directory must exist.  On any failure ``path`` keeps its old
    content and the temp file is removed; an ``OSError`` that carries an
    errno names ``path``, never the temp file.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _load_valid(path: Path, n: int, k: int, m: int) -> KernelBasis | None:
    try:
        data = path.read_bytes()
        kb = KernelBasis.from_json_obj(json.loads(data))
    # OverflowError: int() of a JSON number that decodes to an infinite float;
    # RecursionError: json.loads of arrays or objects nested too deep
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError):
        return None
    # only the bytes this module writes are trusted: no other spacing, key
    # order or spelling of a number
    ok = (kb.n, kb.k, kb.m) == (n, k, m) and data == kernel_json_bytes(kb)
    return kb if ok and kb.verify() and _canonical(n, k, m, kb.vectors) else None


def kernel_basis_cached(
    n: int, k: int, m: int, cache_dir: str | os.PathLike | None = None
) -> KernelBasis:
    """Kernel basis for (n, k, m), via memo and disk cache when available."""
    _check_ints(n, k, m)
    key = (n, k, m)
    kb = _memory.get(key)
    if kb is not None:
        return kb
    directory = resolve_cache_dir(cache_dir)
    if directory is not None:
        kb = _load_valid(directory / kernel_file_name(n, k, m), n, k, m)
    if kb is None:
        kb = kernel_basis(n, k, m)
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / kernel_file_name(n, k, m)
            atomic_write_bytes(path, kernel_json_bytes(kb))
    _remember(key, kb)
    return kb


def _remember(key: tuple[int, int, int], kb: KernelBasis) -> None:
    """Store ``kb`` under a new ``key``, within the memory's budget."""
    global _memory_size
    size = sum(map(len, kb.vectors))
    _memory_size += size
    if _memory_size > _MEMORY_BUDGET:
        clear_memory_cache()
        _memory_size = size
    _memory[key] = kb


def clear_memory_cache() -> None:
    global _memory_size
    _memory.clear()
    _memory_size = 0
