"""Exact integer polynomials in q, Gaussian coefficients, and shape predicates.

A polynomial is stored densely: index ``i`` of :attr:`QPoly.coeffs` holds the
(arbitrary-precision) integer coefficient of ``q**i``.  Canonical form never
stores a trailing zero, so the zero polynomial stores nothing at all and has
degree ``-inf``.  Sums, differences and the difference families'
``a - q**s * b`` share one pass, which combines ``b`` into a copy of ``a``
at offset ``s`` (0 for a plain sum or difference) and strips the trailing
zeros once; a shift and a ``gauss`` result wrap a tuple that is already
canonical, with no copy.

The Gaussian coefficient ``gauss(a, b)`` is built by the product formula.
With ``j = min(b, a - b)`` and ``c = a - j`` it is the last link of the chain

    gauss(c+i, i) == gauss(c+i-1, i-1) * (1 - q**(c+i)) / (1 - q**i)

for ``i = 1..j``.  Each division by ``1 - q**i`` is a stride-``i`` running
sum on ints, and it is checked to be exact: every coefficient past the
quotient's degree must come out 0, or the step raises.  Coefficient ``m`` of
``gauss(n+k, k)`` counts partitions of ``m`` inside a ``k x n`` box, which
is what makes these polynomials symmetric and unimodal.  The counter in
:mod:`semiinv.boxpartitions` uses a different recurrence, so comparing the
two is an independent cross-check.

One memo, keyed by ``(c, i)`` and holding plain coefficient tuples, is
shared by every call: ``gauss(a, b)`` walks down from ``j`` to the highest
link of its chain already stored, extends the chain from there, and wraps
the result in a :class:`QPoly` on the way out.  An entry that reads the
same backwards, as every Gaussian coefficient does, stores each mirrored
pair of coefficients as one int object.  The memo's budget is a fixed
number of stored coefficients, not objects.  A step that pushes it past
the budget cuts it down to the highest link of every chain plus the entry
in hand, so a later call that climbs one of those chains past its kept
link resumes there rather than at ``i = 1``; if those links alone exceed
the budget, only the entry in hand is kept.  Entries are exact and are
only ever dropped, never altered, and arguments that are not ints are
refused before the memo is read, so results never depend on call order
or eviction.

The unimodality predicates operate on coefficient sequences.  A sequence is
unimodal if it rises weakly and then falls weakly.  The strict variant used
for the two-sided difference families demands strict rises and strict falls,
with exactly three tolerated equalities: between the first two coefficients,
between the last two, and between the two entries of the apex when the
maximum is attained twice in adjacent positions (for a symmetric polynomial
of odd degree the central pair is always equal, so a strict apex there is
impossible).  Each predicate finds its first offending index with one scan
at C level, ``next(compress(count(start), map(op, cs, islice(cs, 1, None))))``
over adjacent pairs, after the whole-sequence tests ``min(cs) >= 0`` and
``cs == cs[::-1]`` where they settle the answer.  The private forms of the
two unimodality predicates skip the ``min(cs) >= 0`` test, for a caller
that has just made it.
"""

from __future__ import annotations

import operator
import sys
from collections.abc import Iterable, Iterator
from itertools import accumulate, compress, count, islice, repeat

NEG_INF = float("-inf")


class NonnegativityViolation(ValueError):
    """Raised when a coefficient required to be nonnegative is negative."""

    def __init__(self, index: int, value: int):
        super().__init__(f"negative coefficient {value} at q^{index}")
        self.index = index
        self.value = value


class QPoly:
    """Dense polynomial in ``q`` with integer coefficients.

    >>> p = QPoly([1, 1, 2, 1, 1])
    >>> p.degree
    4
    >>> print(p + QPoly([0, 1]))
    1 + 2q + 2q^2 + q^3 + q^4
    >>> print(QPoly([1, 1]).shift(2))
    q^2 + q^3
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = tuple(coeffs)
        i = _first(map(operator.is_not, map(type, cs), repeat(int)))
        if i is not None:
            raise ValueError(f"coefficient {cs[i]!r} of q^{i} must be an int")
        self.coeffs = _strip(cs)

    @classmethod
    def _wrap(cls, coeffs: tuple[int, ...]) -> "QPoly":
        """A polynomial on ``coeffs`` as is: a tuple already in canonical form."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @property
    def degree(self) -> int | float:
        """Degree of the polynomial; ``-inf`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        """Coefficient of ``q**i`` (zero outside the stored range)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        return _combine(operator.add, self, other, 0)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return _combine(operator.sub, self, other, 0)

    def __neg__(self) -> "QPoly":
        return QPoly(-c for c in self.coeffs)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        if type(other) is int:
            return QPoly(c * other for c in self.coeffs)
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] += c * d
        return QPoly(out)

    __rmul__ = __mul__

    def shift(self, s: int) -> "QPoly":
        """Multiply by ``q**s`` (``s`` must be nonnegative)."""
        if s < 0:
            raise ValueError(f"shift amount must be nonnegative, got {s}")
        if not self.coeffs:
            return QPoly()
        return QPoly._wrap((0,) * s + self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
            mag = abs(c)
            body = str(mag) if (mag != 1 or i == 0) else ""
            if not parts:
                sign = "-" if c < 0 else ""
            else:
                sign = " - " if c < 0 else " + "
            parts.append(f"{sign}{body}{mono}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def to_json_obj(self) -> dict:
        """JSON form: coefficients as decimal strings, ascending power."""
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "QPoly":
        return cls(int(c) for c in obj["coeffs"])


def _strip(cs: tuple[int, ...]) -> tuple[int, ...]:
    """``cs`` without its trailing zeros."""
    zeros = next(compress(count(), reversed(cs)), len(cs))
    return cs[: len(cs) - zeros] if zeros else cs


def _combine(op, a: QPoly, b: QPoly, s: int) -> QPoly:
    """``op(a, b.shift(s))`` for ``op`` ``operator.add`` or ``operator.sub``,
    in one pass: ``b``'s coefficients are combined into a copy of ``a``'s at
    offset ``s``, with no shifted or padded copy of ``b`` (``s`` must be
    nonnegative)."""
    bc = b.coeffs
    if not bc:
        return a
    cs = list(a.coeffs)
    end = s + len(bc)
    if end > len(cs):
        cs += [0] * (end - len(cs))
    cs[s:end] = map(op, cs[s:end], bc)
    return QPoly._wrap(_strip(tuple(cs)))


# The product-chain memo: (c, i) -> coefficients of gauss(c + i, i).  Every
# gauss() call reads it and extends the chain of its own c.  _MEMO_SIZE is
# the number of coefficients stored; once a step pushes it past _MEMO_BUDGET
# _evict cuts it down to the highest link of every chain and the entry just
# computed, or to that entry alone.
_MEMO: dict[tuple[int, int], tuple[int, ...]] = {}
_MEMO_SIZE = 0
_MEMO_BUDGET = 1 << 18


def _chain_step(prev: tuple[int, ...], c: int, i: int) -> tuple[int, ...]:
    """Coefficients of ``prev * (1 - q**(c+i)) / (1 - q**i)``.

    With ``prev = gauss(c+i-1, i-1)`` this is ``gauss(c+i, i)``.  The
    division is a stride-``i`` running sum, which yields the power series
    quotient; the division is exact only if every coefficient past the
    quotient's degree ``deg(prev) + c`` comes out 0, and anything else
    raises ``ArithmeticError`` rather than being cut off.
    """
    s = c + i
    out = list(prev) + [0] * s
    out[s:] = map(operator.sub, out[s:], prev)
    for r in range(i):
        out[r::i] = accumulate(out[r::i])
    d = len(prev) - 1 + c
    if any(out[d + 1:]):
        raise ArithmeticError(
            f"(1 - q^{i}) does not divide the step to gauss({s}, {i})"
        )
    del out[d + 1:]
    # a result that reads the same backwards stores each mirrored pair once
    h = len(out) // 2
    head = out[:h][::-1]
    if out[len(out) - h:] == head:
        out[len(out) - h:] = head
    return tuple(out)


def gauss(a: int, b: int) -> QPoly:
    """Gaussian coefficient ``[a over b]`` as a polynomial in ``q``.

    Requires ``0 <= b <= a``, and a degree ``b * (a - b)`` below
    ``sys.maxsize`` so that the coefficients fit in a tuple.  The result has
    nonnegative coefficients and degree ``b * (a - b)``; coefficient ``m``
    counts partitions of ``m`` with at most ``b`` parts, each at most
    ``a - b``.

    >>> print(gauss(4, 2))
    1 + q + 2q^2 + q^3 + q^4
    >>> print(gauss(5, 0))
    1
    """
    global _MEMO_SIZE
    if type(a) is not int or type(b) is not int:
        raise TypeError(f"gauss({a!r},{b!r}): arguments must be ints")
    if a < 0 or b < 0:
        raise ValueError(f"gauss({a},{b}): arguments must be nonnegative")
    if b > a:
        raise ValueError(f"gauss({a},{b}): lower index exceeds upper index")
    j = min(b, a - b)
    c = a - j
    coeffs = _MEMO.get((c, j)) if j else (1,)
    if coeffs is None:
        if j * c >= sys.maxsize:
            raise ValueError(f"gauss({a},{b}): degree {j * c} has more "
                             "coefficients than a tuple can hold")
        i = j - 1
        while i and (c, i) not in _MEMO:
            i -= 1
        coeffs = _MEMO[c, i] if i else (1,)
        for i in range(i + 1, j + 1):
            coeffs = _chain_step(coeffs, c, i)
            _MEMO[c, i] = coeffs
            _MEMO_SIZE += len(coeffs)
            if _MEMO_SIZE > _MEMO_BUDGET:
                _evict(c, i)
    return QPoly._wrap(coeffs)


def _evict(c: int, i: int) -> None:
    """Cut the memo down to the highest link of every chain and the link
    in hand ``(c, i)``, or to the link in hand alone if those exceed the
    budget."""
    global _MEMO_SIZE
    top: dict[int, int] = {}
    for cc, ii in _MEMO:
        if top.get(cc, 0) < ii:
            top[cc] = ii
    keep = {(c, i), *top.items()}
    size = sum(len(_MEMO[link]) for link in keep)
    if size > _MEMO_BUDGET:
        keep, size = {(c, i)}, len(_MEMO[c, i])
    for link in [link for link in _MEMO if link not in keep]:
        del _MEMO[link]
    _MEMO_SIZE = size


def _first(flags: Iterable[bool], start: int = 0) -> int | None:
    """``start`` plus the position of the first true flag, or None."""
    return next(compress(count(start), flags), None)


def first_negative_index(p: QPoly) -> int | None:
    """Index of the first negative coefficient, or None if all nonnegative."""
    if min(p.coeffs, default=0) >= 0:
        return None
    return _first(map((0).__gt__, p.coeffs))


def _require_nonnegative(p: QPoly) -> None:
    i = first_negative_index(p)
    if i is not None:
        raise NonnegativityViolation(i, p.coeffs[i])


def symmetry_break(p: QPoly) -> int | None:
    """First index ``i`` whose coefficient differs from ``degree - i``'s, else None.

    The zero polynomial counts as symmetric.
    """
    cs = p.coeffs
    if cs == cs[::-1]:
        return None
    return _first(map(operator.ne, cs, reversed(cs)))


def is_symmetric(p: QPoly) -> bool:
    """True iff coefficient ``i`` equals coefficient ``degree - i`` for all i."""
    return symmetry_break(p) is None


def unimodality_break(p: QPoly) -> int | None:
    """First index at which the rise-then-fall pattern fails, else None.

    Coefficients must be nonnegative; a negative coefficient raises
    :class:`NonnegativityViolation` with the offending index.
    """
    _require_nonnegative(p)
    return _unimodality_break(p)


def _unimodality_break(p: QPoly) -> int | None:
    """:func:`unimodality_break` of ``p``, whose coefficients are known to
    be nonnegative: no scan for a negative one."""
    cs = p.coeffs
    # the first strict fall ends the rise; a strict rise after it breaks
    i = _first(map(operator.gt, cs, islice(cs, 1, None)))
    if i is None:
        return None
    j = _first(map(operator.lt, islice(cs, i, None), islice(cs, i + 1, None)), i)
    return None if j is None else j + 1


def is_unimodal(p: QPoly) -> bool:
    """True iff the coefficients rise weakly to a peak and then fall weakly."""
    return unimodality_break(p) is None


def strictness_break(p: QPoly) -> int | None:
    """First index breaking strict unimodality away from the ends, else None.

    Requires degree >= 4 and nonnegative coefficients.  Equality is
    tolerated only between coefficients 0 and 1, between the last two
    coefficients, and once at the apex (two adjacent equal maxima, the
    unavoidable central pair of a symmetric polynomial of odd degree).
    Every other step of the interior must be strictly monotone.
    """
    _require_nonnegative(p)
    return _strictness_break(p)


def _strictness_break(p: QPoly) -> int | None:
    """:func:`strictness_break` of ``p``, whose coefficients are known to
    be nonnegative: no scan for a negative one."""
    cs = p.coeffs
    d = len(cs) - 1
    if d < 4:
        raise ValueError(f"degree must be at least 4, got {p.degree}")
    if cs[0] > cs[1]:
        return 1
    if cs[d - 1] < cs[d]:
        return d
    # Interior cs[1..d-1]: strict rise, at most one apex equality, strict fall.
    i = _first(map(operator.ge, islice(cs, 1, d - 1), islice(cs, 2, d)), 1)
    if i is None:
        return None
    if cs[i] == cs[i + 1]:
        i += 1
    j = _first(map(operator.le, islice(cs, i, d - 1), islice(cs, i + 1, d)), i)
    return None if j is None else j + 1


def is_strictly_unimodal_except_ends(p: QPoly) -> bool:
    """True iff the interior is strictly unimodal, ends and apex pair aside."""
    return strictness_break(p) is None
