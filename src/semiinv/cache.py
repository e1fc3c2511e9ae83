"""Kernel-basis caching: in-process memo plus optional on-disk JSON files.

Disk files are named ``kernel_n{n}_k{k}_m{m}.json`` and written atomically
(temp file in the target directory, then rename), so concurrent scans never
observe a partial file.  A loaded basis is re-validated before reuse: the
file's bytes must be the canonical serialization of what they decode to;
:meth:`~semiinv.cayley.KernelBasis.verify` must pass (every vector nonzero,
in the (k, m) stratum and annihilated by the lowering operator); for
``2m <= nk`` the count must be ``delta(k, n, m)``; and the basis must have
the computed one's normal form: primitive vectors whose trailing (anti-lex
least) monomials strictly increase in file order, each vector zero at every
other vector's trailing monomial.  Together these force a loaded basis to
equal the one :func:`~semiinv.cayley.kernel_basis` computes.  Anything
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
    """Write ``data`` to ``path`` through a temp file and a rename.

    The directory must exist.  On any failure ``path`` keeps its old
    content and the temp file is removed.
    """
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
        data = path.read_bytes()
        kb = KernelBasis.from_json_obj(json.loads(data))
    # OverflowError: int() of a JSON number that decodes to an infinite float
    except (OSError, ValueError, KeyError, TypeError, OverflowError):
        return None
    if (kb.n, kb.k, kb.m) != (n, k, m):
        return None
    # only the bytes this module writes are trusted: no other spacing, key
    # order or spelling of a number
    if data != canonical_json_bytes(kb.to_json_obj()):
        return None
    if not kb.verify():
        return None
    # a truncated file keeps the verified vectors; the count must be delta's
    if 2 * m <= n * k and kb.dim != delta(k, n, m):
        return None
    # In a computed basis each vector's trailing (anti-lex least) monomial
    # is its free column, the vectors come in free-column order, each is
    # zero at the other free columns, and each is primitive.  Any kernel
    # vector's trailing monomial is a free column, so with the delta count
    # these checks force the loaded basis to equal the computed one.  The
    # least monomial has the greatest reversed exponent vector.
    keys = [max(nu[::-1] for nu, _ in v.items()) for v in kb.vectors]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return None
    for i, v in enumerate(kb.vectors):
        if v != v.primitive():
            return None
        if any(v.coefficient(t[::-1]) for j, t in enumerate(keys) if j != i):
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
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            directory / kernel_file_name(n, k, m),
            canonical_json_bytes(kb.to_json_obj()),
        )
    _memory[key] = kb
    return kb


def clear_memory_cache() -> None:
    _memory.clear()
