"""Monomials in the form coefficients ``a_0..a_n`` and sparse polynomials.

A monomial ``a^nu = a_0^nu_0 * a_1^nu_1 * ... * a_n^nu_n`` has degree
``sum(nu)`` and weight ``sum(i * nu_i)``; within a fixed degree and weight
the monomials correspond one-to-one with partitions in a box (see
:mod:`semiinv.boxpartitions`).

Monomials of a fixed ``n`` are totally ordered anti-lexicographically: the
reversed exponent vectors ``(nu_n, ..., nu_0)`` are compared
lexicographically, and the monomial whose reversed vector is *smaller* is
the *greater* monomial.  For ``n = 4`` and degree 4, weight 6 this gives

    a_1^2 a_2^2 > a_0 a_2^3 > a_1^3 a_3 > a_0 a_1 a_2 a_3
                > a_0^2 a_3^2 > a_0 a_1^2 a_4 > a_0^2 a_2 a_4.

The order is multiplicative (M1 > M2 implies M1*S > M2*S), so the leading
term of a product is the product of the leading terms.  That fact is what
makes leading-term triangulation of semi-invariant bases work.

:class:`SIPoly` is a sparse polynomial over these monomials with exact
rational coefficients (kept in lowest terms with positive denominators by
:class:`fractions.Fraction`).  Values are immutable; all operations return
new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence


@dataclass(frozen=True)
class Monomial:
    """Exponent vector over ``a_0..a_n``; ``nu[i]`` is the exponent of ``a_i``."""

    nu: tuple[int, ...]

    def __post_init__(self):
        if not self.nu:
            raise ValueError("exponent vector must have length n+1 >= 1")
        if any(v < 0 for v in self.nu):
            raise ValueError("negative exponent")

    @property
    def n(self) -> int:
        return len(self.nu) - 1

    @property
    def degree(self) -> int:
        return sum(self.nu)

    @property
    def weight(self) -> int:
        return sum(i * v for i, v in enumerate(self.nu))

    def antilex_key(self) -> tuple[int, ...]:
        """Sort key: ascending key order is descending monomial order."""
        return self.nu[::-1]

    def _check_same_n(self, other: "Monomial") -> None:
        if len(self.nu) != len(other.nu):
            raise ValueError(
                f"monomials over different variable sets: n={self.n} vs n={other.n}"
            )

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_same_n(other)
        return Monomial(tuple(x + y for x, y in zip(self.nu, other.nu)))

    def __lt__(self, other: "Monomial") -> bool:
        self._check_same_n(other)
        return self.nu[::-1] > other.nu[::-1]

    def __le__(self, other: "Monomial") -> bool:
        self._check_same_n(other)
        return self.nu[::-1] >= other.nu[::-1]

    def __gt__(self, other: "Monomial") -> bool:
        self._check_same_n(other)
        return self.nu[::-1] < other.nu[::-1]

    def __ge__(self, other: "Monomial") -> bool:
        self._check_same_n(other)
        return self.nu[::-1] <= other.nu[::-1]

    def __str__(self) -> str:
        parts = []
        for i, v in enumerate(self.nu):
            if v == 1:
                parts.append(f"a{i}")
            elif v > 1:
                parts.append(f"a{i}^{v}")
        return "*".join(parts) if parts else "1"


def antilex_compare(m1: Monomial, m2: Monomial) -> int:
    """-1, 0 or 1 as ``m1`` is less than, equal to, or greater than ``m2``."""
    m1._check_same_n(m2)
    k1, k2 = m1.nu[::-1], m2.nu[::-1]
    if k1 == k2:
        return 0
    # smaller reversed vector means greater monomial
    return 1 if k1 < k2 else -1


Coeff = Fraction | int


class SIPoly:
    """Sparse polynomial in ``a_0..a_n`` with exact rational coefficients.

    Terms are a map from exponent vectors (tuples of length ``n+1``) to
    nonzero :class:`~fractions.Fraction` coefficients.  Instances are
    immutable by convention; arithmetic returns fresh objects.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], Coeff] | Iterable = ()):
        if n < 0:
            raise ValueError("form degree n must be nonnegative")
        self.n = n
        items = terms.items() if isinstance(terms, Mapping) else terms
        tdict: dict[tuple[int, ...], Fraction] = {}
        for nu, c in items:
            nu = tuple(nu)
            if len(nu) != n + 1:
                raise ValueError(
                    f"exponent vector {nu} has length {len(nu)}, expected {n + 1}"
                )
            if any(v < 0 for v in nu):
                raise ValueError(f"negative exponent in {nu}")
            c = Fraction(c)
            if c:
                acc = tdict.get(nu)
                tdict[nu] = c if acc is None else acc + c
                if not tdict[nu]:
                    del tdict[nu]
        self._terms = tdict

    @classmethod
    def zero(cls, n: int) -> "SIPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: Coeff = 1) -> "SIPoly":
        return cls(n, {(0,) * (n + 1): c})

    @classmethod
    def term(cls, n: int, nu: Sequence[int], c: Coeff = 1) -> "SIPoly":
        return cls(n, {tuple(nu): c})

    @classmethod
    def variable(cls, n: int, i: int) -> "SIPoly":
        """The polynomial ``a_i``."""
        nu = [0] * (n + 1)
        nu[i] = 1
        return cls(n, {tuple(nu): 1})

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, nu: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(nu), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SIPoly)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def _check_same_n(self, other: "SIPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed form degrees: n={self.n} vs n={other.n}")

    def __add__(self, other: "SIPoly") -> "SIPoly":
        self._check_same_n(other)
        out = dict(self._terms)
        for nu, c in other._terms.items():
            acc = out.get(nu)
            v = c if acc is None else acc + c
            if v:
                out[nu] = v
            elif acc is not None:
                del out[nu]
        return self._wrap(out)

    def __sub__(self, other: "SIPoly") -> "SIPoly":
        return self + (-other)

    def __neg__(self) -> "SIPoly":
        return self._wrap({nu: -c for nu, c in self._terms.items()})

    def scale(self, c: Coeff) -> "SIPoly":
        c = Fraction(c)
        if not c:
            return SIPoly(self.n)
        return self._wrap({nu: c * v for nu, v in self._terms.items()})

    def __mul__(self, other: "SIPoly | Coeff") -> "SIPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SIPoly):
            return NotImplemented
        self._check_same_n(other)
        # integral operands (the common case: primitive kernel vectors and
        # their products) are accumulated with plain ints, which is several
        # times faster than Fraction arithmetic on large products
        if all(c.denominator == 1 for c in self._terms.values()) and all(
            c.denominator == 1 for c in other._terms.values()
        ):
            acc_int: dict[tuple[int, ...], int] = {}
            get = acc_int.get
            for nu1, c1 in self._terms.items():
                c1 = c1.numerator
                for nu2, c2 in other._terms.items():
                    nu = tuple(map(add, nu1, nu2))
                    acc_int[nu] = get(nu, 0) + c1 * c2.numerator
            return self._wrap(
                {nu: Fraction(v) for nu, v in acc_int.items() if v}
            )
        out: dict[tuple[int, ...], Fraction] = {}
        for nu1, c1 in self._terms.items():
            for nu2, c2 in other._terms.items():
                nu = tuple(map(add, nu1, nu2))
                acc = out.get(nu)
                v = c1 * c2 if acc is None else acc + c1 * c2
                if v:
                    out[nu] = v
                elif acc is not None:
                    del out[nu]
        return self._wrap(out)

    def __rmul__(self, other: Coeff) -> "SIPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "SIPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = SIPoly.constant(self.n, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def _wrap(self, terms: dict[tuple[int, ...], Fraction]) -> "SIPoly":
        p = SIPoly.__new__(SIPoly)
        p.n = self.n
        p._terms = terms
        return p

    def leading_nu(self) -> tuple[int, ...]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return min(self._terms, key=lambda nu: nu[::-1])

    def leading_monomial(self) -> Monomial:
        return Monomial(self.leading_nu())

    def leading_coefficient(self) -> Fraction:
        return self._terms[self.leading_nu()]

    def bidegree(self) -> tuple[int, int]:
        """(degree, weight) of a homogeneous polynomial; error if mixed."""
        if not self._terms:
            raise ValueError("zero polynomial has no bidegree")
        it = iter(self._terms)
        nu0 = next(it)
        k = sum(nu0)
        m = sum(i * v for i, v in enumerate(nu0))
        for nu in it:
            if sum(nu) != k or sum(i * v for i, v in enumerate(nu)) != m:
                raise ValueError("polynomial is not homogeneous in degree and weight")
        return k, m

    def evaluate(self, values: Sequence[Coeff]) -> Fraction:
        """Exact evaluation at a point ``(a_0, ..., a_n)``."""
        if len(values) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} values, got {len(values)}")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for nu, c in self._terms.items():
            prod = c
            for v, e in zip(vals, nu):
                if e:
                    prod *= v**e
            total += prod
        return total

    def primitive(self) -> "SIPoly":
        """Canonical scaling: coprime integer coefficients, leading one positive."""
        if not self._terms:
            return self
        denlcm = 1
        for c in self._terms.values():
            d = c.denominator
            denlcm = denlcm // gcd(denlcm, d) * d
        ints = {nu: int(c * denlcm) for nu, c in self._terms.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
            if g == 1:
                break
        if ints[self.leading_nu()] < 0:
            g = -g
        return self._wrap({nu: Fraction(v // g) for nu, v in ints.items()})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending anti-lexicographic monomial order."""
        return sorted(self._terms.items(), key=lambda kv: kv[0][::-1])

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for nu, c in self.sorted_terms():
            mono = str(Monomial(nu))
            mag = abs(c)
            if mono == "1":
                body = str(mag)
            else:
                body = mono if mag == 1 else f"{mag}*{mono}"
            if not parts:
                sign = "-" if c < 0 else ""
            else:
                sign = " - " if c < 0 else " + "
            parts.append(f"{sign}{body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"SIPoly(n={self.n}, {len(self._terms)} terms)"

    def to_json_list(self) -> list[dict]:
        """JSON form: terms sorted descending, numerators/denominators as strings."""
        return [
            {"nu": list(nu), "num": str(c.numerator), "den": str(c.denominator)}
            for nu, c in self.sorted_terms()
        ]

    @classmethod
    def from_json_list(cls, n: int, obj: Iterable[dict]) -> "SIPoly":
        return cls(
            n,
            {
                tuple(t["nu"]): Fraction(int(t["num"]), int(t["den"]))
                for t in obj
            },
        )


def leading_term(p: SIPoly) -> Monomial:
    """Greatest monomial of ``p`` with a nonzero coefficient (``p`` nonzero)."""
    return p.leading_monomial()
