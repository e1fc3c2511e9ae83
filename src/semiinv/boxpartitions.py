"""Partitions contained in a ``k x n`` rectangle.

``p(k, n, m)`` counts partitions of ``m`` into at most ``k`` parts, each
part at most ``n`` (equivalently: exactly ``k`` parts with zero parts
allowed).  A partition is encoded by its part-multiplicity vector
``nu = (nu_0, ..., nu_n)``, where ``nu_i`` is the number of parts equal to
``i``; then ``sum(nu) == k`` and ``sum(i * nu_i) == m``.  This is exactly
the exponent vector of a monomial of degree ``k`` and weight ``m`` in the
binary-form coefficients ``a_0..a_n``, so the enumeration order fixed here
doubles as the column order of every operator matrix and kernel file in
the package: partitions are emitted in descending anti-lexicographic
monomial order, i.e. ascending lexicographic order of the reversed vector
``(nu_n, ..., nu_0)``.

A stratum is walked once, as packed keys in the layout of
:class:`~semiinv.monomials.SIPoly` at degree ``k`` (``nu_i`` in the ``i``-th
slot of ``_width(k)`` bits), so ascending keys are the basis order and
:mod:`semiinv.cayley` builds its matrices on the keys directly;
:func:`enumerate_partitions_in_box` returns the tuples ``nu`` decoded from
the keys.  The walk is one loop over a stack of pending prefixes, the
choices of ``nu_n`` down to some ``nu_(i+1)``: it pops a prefix, pushes one
child per feasible ``nu_i`` (skipping the sizes larger than the weight
left), and emits the keys for the sizes 2, 1 and 0 as one arithmetic
progression.  It needs no recursion, however wide the box.

Counting uses a two-dimensional recurrence over the box,

    p(k, n, m) = p(k, n-1, m) + p(k-1, n, m-n)

(split on whether some part equals ``n``), memoized per ``(k, n)`` with
the whole weight vector stored, since delta scans reuse the same boxes
heavily.  Each vector is one slice addition of the shorter box's vector,
shifted by ``n``, onto the narrower box's.  ``_delta_row`` reads the
deltas of a run of weights from one vector, as one subtraction of the run
from itself shifted by one.  A weight-``m`` partition has at most ``m``
parts, each at most ``m``, and ``p(k, n, .) == p(n, k, .)``: :func:`delta`
takes the longer side cut to ``m`` as rows and the shorter cut to the
power of two above ``m`` as columns, so a weight sweep grows a row at a
time in a few column bands; :func:`count_partitions_in_box` cuts a box
to ``(min(k, m), min(n, m))`` only when a side is at most ``m``, which
gives boxes of the full box's last row (with delta's rule, counting every
weight of each link of ``gauss(200, 100)``'s chain took 51 s, not 2.2 s),
or when the box has more cells than the budget, so its whole vector could
not be kept.  The memo is filled iteratively, row by row (``k`` fixed,
``n`` rising), from the highest row already complete, so a box of any
shape needs no recursion and the box one row up costs one row.  A vector
that reads the same backwards, as every box count does, stores each
mirrored pair of coefficients as one int object.  The budget is a fixed number of stored coefficients, not
objects: once a finished row leaves the memo past it, everything is
dropped but that row, which is all the next row reads, and the requested
column's nearest boxes ``(k', n)``, ``k' < k``, while they hold no more
than the row (a whole column held 434 MiB in a thin fill).  Cells are
exact big integers, and the memo never reads :mod:`semiinv.qpoly`, so the
two stay an independent cross-check.
"""

from __future__ import annotations

import operator

from .monomials import _unpack, _width


# (k, n) -> p(k, n, m) for m = 0..n*k.  _COUNT_SIZE is the number of coefficients
# stored; once a finished row of a fill leaves it past _COUNT_BUDGET, everything
# but that row and the nearest boxes of the requested column is dropped.
_COUNT_TABLES: dict[tuple[int, int], tuple[int, ...]] = {}
_COUNT_SIZE = 0
_COUNT_BUDGET = 1 << 20


def _check_box(k: int, n: int, m: int = 0) -> None:
    # checked before any memo read, so a cold and a warm memo agree
    if type(k) is not int or type(n) is not int or type(m) is not int:
        raise TypeError(f"box ({k!r},{n!r}) and weight {m!r} must be ints")
    if k < 0 or n < 0:
        raise ValueError(f"box dimensions must be nonnegative, got ({k},{n})")


def _count_table(k: int, n: int) -> tuple[int, ...]:
    """Vector of p(k, n, m) for m = 0..n*k."""
    global _COUNT_SIZE
    table = _COUNT_TABLES.get((k, n))
    if table is not None:
        return table
    # (k, n) needs (k, n-1) and (k-1, n): fill the missing boxes of the
    # (k+1) x (n+1) grid row by row, each row from n' = 0 upward, starting
    # at the highest row below k already complete up to n (row 0 is all ones).
    k0 = next(
        (
            kk
            for kk in range(k - 1, 0, -1)
            if all((kk, nn) in _COUNT_TABLES for nn in range(n, -1, -1))
        ),
        0,
    )
    for kk in range(k0, k + 1):
        for nn in range(n + 1):
            if (kk, nn) in _COUNT_TABLES:
                continue
            if kk == 0 or nn == 0:
                table = (1,)
            else:
                # p(kk, nn, m) = p(kk, nn-1, m) + p(kk-1, nn, m-nn)
                out = [*_COUNT_TABLES[kk, nn - 1], *(0,) * kk]
                out[nn:] = map(operator.add, out[nn:], _COUNT_TABLES[kk - 1, nn])
                # a row that reads the same backwards stores each mirrored pair once
                h = len(out) // 2
                head = out[:h][::-1]
                if out[len(out) - h:] == head:
                    out[len(out) - h:] = head
                table = tuple(out)
            _COUNT_TABLES[kk, nn] = table
            _COUNT_SIZE += len(table)
        if _COUNT_SIZE > _COUNT_BUDGET:
            # the next row reads only this one, and the callers' next boxes
            # are (k+1, n) (which starts from row k) and (k-j, n), j small
            kept = {(kk, nn): _COUNT_TABLES[kk, nn] for nn in range(n + 1)}
            room = sum(map(len, kept.values()))
            for j in range(kk - 1, -1, -1):
                room -= n * j + 1
                if room < 0 or (j, n) not in _COUNT_TABLES:
                    break
                kept[j, n] = _COUNT_TABLES[j, n]
            _COUNT_TABLES.clear()
            _COUNT_TABLES.update(kept)
            _COUNT_SIZE = sum(map(len, kept.values()))
    return _COUNT_TABLES[k, n]


def count_partitions_in_box(k: int, n: int, m: int) -> int:
    """Number of partitions of ``m`` with at most ``k`` parts, each <= ``n``.

    Returns 0 for ``m < 0`` and for ``m > n*k``.
    """
    _check_box(k, n, m)
    if m < 0 or m > n * k:
        return 0
    if min(k, n) <= m or n * k > _COUNT_BUDGET:
        k, n = min(k, m), min(n, m)
    return _count_table(k, n)[m]


def delta(k: int, n: int, m: int) -> int:
    """p(k,n,m) - p(k,n,m-1); may be negative past the middle weight n*k/2."""
    _check_box(k, n, m)
    if not 0 <= m <= n * k + 1:
        return 0
    return _delta_row(min(max(k, n), m), min(k, n, 1 << m.bit_length()), m + 1)[m]


def _delta_row(k: int, n: int, stop: int) -> tuple[int, ...]:
    """``delta(k, n, m)`` for ``m`` in ``range(stop)``, from one table read.

    Past the box it gives ``-p(k, n, n*k)`` at ``m = n*k + 1`` and 0
    after; :func:`delta` reads its past-the-box values here.
    """
    _check_box(k, n)
    # p(k, n, m) for m < stop, then the same run shifted up by one weight
    table = _count_table(k, n)[:stop]
    table += (0,) * (stop - len(table))
    return tuple(map(operator.sub, table, (0,) + table))


def enumerate_partitions_in_box(k: int, n: int, m: int) -> list[tuple[int, ...]]:
    """Multiplicity vectors ``nu`` of the partitions of ``m`` in the ``k x n`` box.

    They come in basis order, descending anti-lexicographic on the associated
    monomials: ascending lexicographic order of ``(nu_n, nu_n-1, ..., nu_0)``.
    For ``0 <= m <= n*k`` the length of the result equals
    ``count_partitions_in_box(k, n, m)``; any other weight raises
    ``ValueError``, where the count is 0.
    """
    return list(_unpack(_stratum_keys(k, n, m), n, _width(k)))


def _stratum_keys(k: int, n: int, m: int) -> list[int]:
    """The partitions of ``m`` in the ``k x n`` box as ascending packed keys.

    A key holds ``nu_i`` in bits ``[w*i, w*(i+1))`` with ``w = _width(k)``,
    the layout of :class:`~semiinv.monomials.SIPoly` at degree ``k``, so
    ascending keys are the basis order.
    """
    _check_box(k, n, m)
    if not 0 <= m <= n * k:
        raise ValueError(f"weight {m} outside [0, {n * k}]")
    w = _width(k)
    if n == 0:
        return [k]
    if n == 1:
        return [(m << w) + k - m]
    step = ((1 << w) - 1) ** 2
    out: list[int] = []
    # Pending prefixes (i, p, q, key): nu_n..nu_(i+1) are packed in key, and
    # p parts of size <= i still have to carry weight q.  Children are pushed
    # from the largest nu_i down, so they pop in ascending key order.
    stack = [(n, k, m, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, p, q, prefix = pop()
        if i == 2:
            # p parts of size <= 2 carry weight q: nu_2 = v runs over
            # [max(0, q-p), min(p, q//2)] and forces nu_1 = q - 2v and
            # nu_0 = p - q + v, so the keys step by (2^w - 1)^2
            base = prefix + (q << w) + p - q
            lo, hi = max(0, q - p), min(p, q // 2)
            out.extend(range(base + lo * step, base + (hi + 1) * step, step))
            continue
        # smaller parts carry at most (i-1) each, so q - i*v <= (i-1)*(p-v);
        # parts larger than the weight left r cannot occur, so the child
        # goes straight to size min(i-1, max(r, 2))
        for v in range(min(p, q // i), max(0, q - (i - 1) * p) - 1, -1):
            r = q - i * v
            push((min(i - 1, max(r, 2)), p - v, r, prefix + (v << w * i)))
    return out
