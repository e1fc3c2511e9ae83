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

:class:`SIPoly` is a sparse polynomial over these monomials with ``int``
coefficients, as every semi-invariant the library builds is integral;
only :meth:`SIPoly.evaluate`, at a rational point, leaves the integers.
Each exponent vector is stored as one packed int key, ``nu_i`` in bits
``[w*i, w*(i+1))`` and so ``nu_n`` in the most significant slot.  These
keys are the one implementation of the order, and no other module orders
exponent tuples: ascending key order is descending monomial order, the
leading monomial has the least key and the trailing one the greatest
(keys of two polynomials compare at one width, see ``_rekey``), and a
product's key is the sum of its factors' keys.  The slot width ``w`` is
the bit length of a bound on the total degree of the terms, so no
exponent reaches the next slot: a product's width comes from the sum of
its factors' degree bounds (and a factor of another width is re-encoded
first), and a key is never packed from an exponent that does not fit.
Keys stay small (45 bits for ``n = 8`` up to degree 31), which keeps key
arithmetic and hashing cheap.  Exponents leave the keys only at the
boundaries, all through one slot-by-slot unpacking step: as tuples in
``items``, ``sorted_terms``, ``leading_nu``, ``to_json_list`` and ``str``,
and as the flat values that fill the kernel files' JSON bytes
(``_json_bytes_each``), which formats each distinct key of a basis once and
builds no object per term.
Values are immutable; all operations return new objects.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from math import gcd
from operator import mul


def _check_exponents(nu: tuple) -> None:
    # a float or bool exponent would pass a sign check and break key packing
    if any(type(v) is not int or v < 0 for v in nu):
        raise ValueError(f"exponent vector {nu} must hold nonnegative ints")


def _width(deg: int) -> int:
    """Bits per exponent slot for terms of total degree at most ``deg``.

    No exponent exceeds the degree, so every exponent fits its slot.
    """
    return deg.bit_length() or 1


def _pack(nu: Sequence[int], w: int) -> int:
    """Exponent vector to key: ``nu_i`` in bits ``[w*i, w*(i+1))``.

    Raises ``ValueError`` for an exponent that is negative or does not fit
    ``w`` bits, rather than letting it carry into the next slot.
    """
    key = 0
    for e in reversed(nu):
        if e >> w:
            raise ValueError(f"exponent {e} does not fit a {w}-bit slot")
        key = key << w | e
    return key


def _slots(keys: Sequence[int], n: int, w: int) -> list[list[int]]:
    """``[nu_0 of each key, ..., nu_n of each key]``, one pass per slot."""
    mask = (1 << w) - 1
    return [[key >> shift & mask for key in keys] for shift in range(0, w * (n + 1), w)]


def _unpack(keys: Iterable[int], n: int, w: int) -> Iterator[tuple[int, ...]]:
    """Exponent vectors of ``keys``, in the same order."""
    return zip(*_slots(list(keys), n, w))


def _repack(terms: dict[int, int], n: int, w: int, w_new: int) -> dict[int, int]:
    """The same terms keyed at slot width ``w_new >= w``."""
    if w == w_new:
        return terms
    mask = (1 << w) - 1
    shifts = [(w * i, w_new * i) for i in range(n + 1)]
    return {
        sum((key >> a & mask) << b for a, b in shifts): c for key, c in terms.items()
    }


def _nonzero(terms: dict[int, int]) -> dict[int, int]:
    """Drop zero coefficients.

    Returns ``terms`` itself when no coefficient is zero, so a caller
    passes a dict it built and does not keep.
    """
    values = terms.values()
    if all(values):
        return terms
    if not any(values):
        return {}
    return {key: c for key, c in terms.items() if c}


class _Record:
    """Immutable record: a subclass names its fields in ``_fields`` and
    ``__slots__`` and sets them with ``object.__setattr__`` in ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class SIPoly:
    """Sparse polynomial in ``a_0..a_n`` with integer coefficients.

    Terms are a map from packed exponent vectors to nonzero ``int``
    coefficients; a rational, float or bool coefficient or scalar factor
    is rejected.  ``_deg`` bounds the total degree of every term and fixes
    the slot width of the keys; the public interface speaks in exponent
    tuples of length ``n+1`` only.  Instances are immutable by convention;
    arithmetic returns fresh objects.
    """

    __slots__ = ("n", "_deg", "_terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int] | Iterable = ()):
        if n < 0:
            raise ValueError("form degree n must be nonnegative")
        self.n = n
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = []
        for nu, c in items:
            nu = tuple(nu)
            if len(nu) != n + 1:
                raise ValueError(
                    f"exponent vector {nu} has length {len(nu)}, expected {n + 1}"
                )
            _check_exponents(nu)
            if type(c) is not int:
                raise ValueError(f"coefficient {c!r} of {nu} must be an int")
            if c:
                pairs.append((nu, c))
        self._deg = max((sum(nu) for nu, _ in pairs), default=0)
        w = _width(self._deg)
        acc: dict[int, int] = {}
        for nu, c in pairs:
            key = _pack(nu, w)
            acc[key] = acc.get(key, 0) + c
        self._terms = _nonzero(acc)

    @classmethod
    def zero(cls, n: int) -> "SIPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, c: int = 1) -> "SIPoly":
        return cls(n, {(0,) * (n + 1): c})

    @classmethod
    def term(cls, n: int, nu: Sequence[int], c: int = 1) -> "SIPoly":
        return cls(n, {tuple(nu): c})

    @classmethod
    def variable(cls, n: int, i: int) -> "SIPoly":
        """The polynomial ``a_i``."""
        nu = [0] * (n + 1)
        nu[i] = 1
        return cls(n, {tuple(nu): 1})

    @classmethod
    def _from_keys(cls, n: int, deg: int, terms: dict[int, int]) -> "SIPoly":
        """Wrap nonzero ``terms`` keyed at width ``_width(deg)``, unchecked."""
        p = cls.__new__(cls)
        p.n = n
        p._deg = deg
        p._terms = terms
        return p

    def _wrap(self, terms: dict[int, int], deg: int | None = None) -> "SIPoly":
        return SIPoly._from_keys(self.n, self._deg if deg is None else deg, terms)

    def _at(self, w: int) -> dict[int, int]:
        """Terms keyed at slot width ``w`` (at least this polynomial's)."""
        return _repack(self._terms, self.n, _width(self._deg), w)

    def _rekey(self, deg: int) -> "SIPoly":
        """The same polynomial with degree bound ``deg`` (at least this one's)."""
        return self._wrap(self._at(_width(deg)), deg)

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        terms = self._terms
        return zip(_unpack(terms, self.n, _width(self._deg)), terms.values())

    def coefficient(self, nu: Sequence[int]) -> int:
        if len(nu) != self.n + 1:
            return 0
        try:
            _check_exponents(nu)
            key = _pack(nu, _width(self._deg))
        except ValueError:  # not a nonnegative int, or above the degree bound
            return 0
        return self._terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SIPoly):
            return False
        if self.n != other.n or len(self._terms) != len(other._terms):
            return False
        w = _width(max(self._deg, other._deg))
        return self._at(w) == other._at(w)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.items())))

    def _check_same_n(self, other: "SIPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed form degrees: n={self.n} vs n={other.n}")

    def _combine(self, other: "SIPoly", sign: int) -> "SIPoly":
        """``self + sign*other`` for ``sign`` 1 or -1."""
        self._check_same_n(other)
        deg = max(self._deg, other._deg)
        w = _width(deg)
        out = dict(self._at(w))
        get = out.get
        for key, c in other._at(w).items():
            out[key] = get(key, 0) + sign * c
        return self._wrap(_nonzero(out), deg)

    def __add__(self, other: "SIPoly") -> "SIPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "SIPoly") -> "SIPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "SIPoly":
        return self._wrap({key: -c for key, c in self._terms.items()})

    def scale(self, c: int) -> "SIPoly":
        if type(c) is not int:
            raise TypeError(f"scale factor {c!r} must be an int")
        if c == 1:
            return self
        if not c:
            return SIPoly(self.n)
        return self._wrap({key: c * v for key, v in self._terms.items()})

    def __mul__(self, other: "SIPoly | int") -> "SIPoly":
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, SIPoly):
            return NotImplemented
        self._check_same_n(other)
        # degrees add, so the keys of the product's width add without carries
        deg = self._deg + other._deg
        w = _width(deg)
        acc: dict[int, int] = {}
        get = acc.get
        if other is self:
            # a square: each unordered pair of terms once, a cross pair twice
            terms = list(self._at(w).items())
            for i, (k1, c1) in enumerate(terms):
                key = k1 + k1
                acc[key] = get(key, 0) + c1 * c1
                twice = 2 * c1
                for k2, c2 in terms[i + 1:]:
                    key = k1 + k2
                    acc[key] = get(key, 0) + twice * c2
            return self._wrap(_nonzero(acc), deg)
        right = list(other._at(w).items())
        for k1, c1 in self._at(w).items():
            for k2, c2 in right:
                key = k1 + k2
                acc[key] = get(key, 0) + c1 * c2
        return self._wrap(_nonzero(acc), deg)

    def __rmul__(self, other: int) -> "SIPoly":
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> "SIPoly":
        if type(e) is not int:
            raise TypeError(f"exponent {e!r} must be an int")
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if not e:
            return SIPoly.constant(self.n, 1)
        # square up to the lowest set bit of e, the first power the result
        # needs, then multiply in the higher ones; p ** 1 is p
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        result = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
            e >>= 1
        return result

    def leading_nu(self) -> tuple[int, ...]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        # nu_n sits in the top slot, so the least key is the greatest monomial
        return next(_unpack([min(self._terms)], self.n, _width(self._deg)))

    def bidegree(self) -> tuple[int, int]:
        """(degree, weight) of a homogeneous polynomial; error if mixed."""
        if not self._terms:
            raise ValueError("zero polynomial has no bidegree")
        weights = range(self.n + 1)
        found = {(sum(nu), sum(map(mul, weights, nu))) for nu, _ in self.items()}
        if len(found) > 1:
            raise ValueError("polynomial is not homogeneous in degree and weight")
        return found.pop()

    def evaluate(self, values: Sequence[int | Fraction]) -> Fraction:
        """Exact evaluation at a rational point ``(a_0, ..., a_n)``."""
        from fractions import Fraction  # imported on first use, not at start-up
        if len(values) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} values, got {len(values)}")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for nu, c in self.items():
            prod = c
            for v, e in zip(vals, nu):
                if e:
                    prod *= v**e
            total += prod
        return total

    def primitive(self) -> "SIPoly":
        """Canonical scaling: coprime coefficients, leading one positive."""
        terms = self._terms
        if not terms:
            return self
        g = gcd(*terms.values())
        if terms[min(terms)] < 0:
            g = -g
        if g == 1:
            return self
        return self._wrap({key: v // g for key, v in terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending anti-lexicographic monomial order."""
        terms = self._terms
        keys = sorted(terms)
        nus = _unpack(keys, self.n, _width(self._deg))
        return list(zip(nus, map(terms.__getitem__, keys)))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for nu, c in self.sorted_terms():
            mono = "*".join(
                f"a{i}^{v}" if v > 1 else f"a{i}" for i, v in enumerate(nu) if v
            )
            mag = abs(c)
            if not mono:
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
        """JSON form: terms sorted descending, ``num`` strings over ``den`` "1"."""
        terms = self._terms
        keys = sorted(terms)
        nus = map(list, _unpack(keys, self.n, _width(self._deg)))
        nums = map(str, map(terms.__getitem__, keys))
        return [{"nu": nu, "num": num, "den": "1"} for nu, num in zip(nus, nums)]

    def _json_bytes(self) -> bytes:
        """:meth:`to_json_list` as compact JSON bytes (see :func:`_json_bytes_each`)."""
        return _json_bytes_each([self])[0]

    @classmethod
    def from_json_list(cls, n: int, obj: Iterable[dict]) -> "SIPoly":
        """Inverse of :meth:`to_json_list`; a ``den`` other than "1" raises."""
        terms = {}
        for t in obj:
            if t["den"] != "1":
                raise ValueError(f"denominator {t['den']!r} is not \"1\"")
            terms[tuple(t["nu"])] = int(t["num"])
        return cls(n, terms)


def _json_bytes_each(vs: Iterable[SIPoly]) -> list[bytes]:
    """``[v._json_bytes() for v in vs]``, formatting each distinct key once.

    A key's term fragment ``{"nu":[...],"num":"%d","den":"1"}`` is made the
    first time the key is met, by one ``%`` over the new keys' slot columns,
    and a vector is one ``%`` of its coefficients into its keys' fragments,
    so no per-term object is built.  The fragments are kept per ``(n, slot
    width)``: one int is another monomial at another width.
    """
    fragments: dict[tuple[int, int], dict[int, bytes]] = {}
    out = []
    for v in vs:
        n, w, terms = v.n, _width(v._deg), v._terms
        frags = fragments.setdefault((n, w), {})
        keys = sorted(terms)
        new = [key for key in keys if key not in frags]
        if new:
            flat = [0] * ((n + 1) * len(new))
            for i, column in enumerate(_slots(new, n, w)):
                flat[i::n + 1] = column
            term = b'{"nu":[' + b",".join([b"%d"] * (n + 1)) + b'],"num":"%%d","den":"1"}'
            filled = b"\n".join([term] * len(new)) % tuple(flat)
            frags.update(zip(new, filled.split(b"\n")))
        body = b",".join(map(frags.__getitem__, keys))
        out.append(b"[%s]" % (body % tuple(map(terms.__getitem__, keys))))
    return out


def _times_each(a: SIPoly, bs: Sequence[SIPoly]) -> list[SIPoly]:
    """``[a * b for b in bs]`` from one product.

    The ``bs`` are packed into one polynomial whose coefficient at a key
    carries each ``b``'s coefficient there in a ``B``-bit lane of its own,
    and ``a`` multiplies that polynomial once.  Each term of ``a`` puts at
    most one term on a key of ``a * b``, so no lane's coefficient exceeds
    ``sum|a| * max|b|`` in size; ``B`` is that bound's bit length plus one
    bit for the sign and one for a square's doubled cross terms.  Each lane
    is read back as a balanced signed digit.  When ``a is bs[0]`` the packed
    family is squared, which forms each unordered pair of terms once: with
    ``b_0`` in lane 0 and ``b_j`` in lane ``t-2+j`` (``t = len(bs)``), lane 0
    of the square is ``b_0**2``, lane ``t-2+j`` is ``2*b_0*b_j``, every other
    product of two lanes lands above lane ``2t-3``, and lanes 1 to ``t-2``
    stay empty.  The products all carry the degree bound of that one product,
    which is at least each pair's own.
    """
    if len(bs) < 2:
        return [a * b for b in bs]
    for b in bs:
        a._check_same_n(b)
    t = len(bs)
    square = a is bs[0]
    lanes = [0, *(t - 2 + j for j in range(1, t))] if square else list(range(t))
    bound = sum(map(abs, a._terms.values())) * max(
        (abs(c) for b in bs for c in b._terms.values()), default=0)
    bits = bound.bit_length() + 2
    deg = max(b._deg for b in bs)
    w = _width(deg)
    packed: dict[int, int] = {}
    get = packed.get
    for b, lane in zip(bs, lanes):
        shift = bits * lane
        for key, c in b._at(w).items():
            packed[key] = get(key, 0) + (c << shift)
    family = SIPoly._from_keys(a.n, deg, packed)
    product = family * family if square else a * family
    del family, packed
    full = 1 << bits
    half, mask = full >> 1, full - 1
    outs: list[dict[int, int]] = [{} for _ in bs]
    # each lane's digits go to its product's terms; a square's empty lanes
    # read 0 and have no dict
    by_lane: list[dict[int, int] | None] = [None] * (lanes[-1] + 1)
    for lane, out in zip(lanes, outs):
        by_lane[lane] = out
    for key, v in product._terms.items():
        for out in by_lane:
            c = v & mask
            if c >= half:
                c -= full
            if c:
                out[key] = c
            v = (v - c) >> bits
            if not v:
                break
    deg = product._deg
    del product
    if square:
        # the cross lanes hold 2*b_0*b_j, so every coefficient is even
        for out in outs[1:]:
            for key, c in out.items():
                out[key] = c >> 1
    return [SIPoly._from_keys(a.n, deg, out) for out in outs]
