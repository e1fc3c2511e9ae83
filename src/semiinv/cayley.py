"""The lowering operator on binary-form coefficients and its exact kernel.

For a form of degree ``n`` the operator is

    D = a_0 d/da_1 + 2 a_1 d/da_2 + ... + n a_{n-1} d/da_n.

On a monomial ``a^nu`` it acts as ``sum_i i*nu_i * a^(nu + e_{i-1} - e_i)``,
so it preserves degree and lowers weight by one: it maps the stratum of
degree ``k``, weight ``m`` into the stratum of degree ``k``, weight ``m-1``.
A polynomial is a semi-invariant (invariant under the unipotent shear of
the underlying form, checked directly by :func:`shear_check`) exactly when
``D`` annihilates it, so semi-invariant bases are nullspaces of the sparse
integer matrices built here.

The matrix is built by :func:`build_D_matrix` in the divided-power basis
``a^nu / s(nu)``, where its entries are 1 and ``nu_{i-1} + 1`` in place of
``i*nu_i``, so more pivots are 1 and fewer rows need rescaling.  These are
positive diagonal row and column scalings of the monomial matrix, so the
rank and the free columns are the same.  :func:`build_D_matrix` is the one
place that checks the arguments; at weight 0 its matrix has the single
column ``a_0^k`` and no row.  One loop eliminates, :func:`_sweep`: it
starts from the matrix :func:`build_D_matrix` returns and goes down the
weights, each lower weight's columns being the sorted row keys of the
matrix above.  :func:`kernel_basis` and :func:`semiinvariant_dim` take its
first step, and :func:`sylvester_grid_mismatches` runs it down each
``(n, k)`` column of its grid, with one stratum walk per column.

The nullspace computation is exact and fraction-free: :func:`_echelon`
takes the columns in the fixed anti-lexicographic order with a
Markowitz-style pivot choice and eliminates by cross-multiplication, and
:func:`_back_substitute` runs on plain integers with an implied common
denominator.  The result does not depend on the pivot rows or their
scaling: column ``c`` is free exactly when it lies in the span of the
columns before it, which row operations preserve, and the kernel vector
with 1 at free column ``f`` and 0 at the other free columns is unique.
Each vector ``y`` is mapped back to monomials through the fractions
``y_c / s_c`` in lowest terms, times the lcm of their denominators, and
scaled by :meth:`~semiinv.monomials.SIPoly.primitive` (coprime, with a
positive leading coefficient), so bases are reproducible bit-for-bit.

For weights up to half the maximum, the computed nullity must equal the
partition-count difference ``delta(k, n, m)``; every kernel computation
asserts this, so a mismatch signals an implementation bug rather than a
mathematical possibility.

Three checks certify a family of semi-invariants from :func:`apply_D`,
``delta`` and packed keys alone, with no elimination: :func:`_in_kernel`,
:func:`_distinct_leads` and :func:`_canonical`.  The first two take
products, sequences of factors checked without expanding them, and a
vector is the product of one factor.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import comb, factorial, gcd, lcm

from .boxpartitions import _stratum_keys, delta
from .monomials import SIPoly, _nonzero, _Record, _repack, _width


class SylvesterMismatchError(RuntimeError):
    """Computed nullity disagrees with the partition-count dimension."""


def _lowering_steps(n: int, w: int) -> list[tuple[int, int, int]]:
    """``(i, w*i, step_i)`` for ``i = 1..n`` on keys of slot width ``w``.

    Moving one unit of exponent from slot i to slot i-1 adds
    ``step_i = (1 << w*(i-1)) - (1 << w*i)`` to a key.
    """
    return [(i, w * i, (1 << w * (i - 1)) - (1 << w * i)) for i in range(1, n + 1)]


def apply_D(p: SIPoly) -> SIPoly:
    """Image of ``p`` under the lowering operator for its form degree."""
    # D keeps the degree, so the image has the keys' slot width
    w = _width(p._deg)
    mask = (1 << w) - 1
    # only slots up to the highest occupied one, which the greatest key holds
    top = (max(p._terms, default=0).bit_length() - 1) // w  # -1 for zero p
    steps = _lowering_steps(min(p.n, top), w)
    terms = p._terms.items()
    out: dict[int, int] = {}
    get = out.get
    for i, shift, step in steps:
        for key, c in terms:
            e = key >> shift & mask
            if e:
                mu = key + step
                out[mu] = get(mu, 0) + c * i * e
    return p._wrap(_nonzero(out))


def _in_kernel(n: int, k: int, m: int, products: Sequence[Sequence[SIPoly]]) -> bool:
    """Every product (a sequence of factors; a vector is one) lies in
    ``a_0..a_n``, has degree ``k`` and weight ``m`` in every term, and D, a
    derivation, kills it: each distinct factor is nonzero, homogeneous, in
    ``a_0..a_n`` and killed by D, and the bidegrees sum to ``(k, m)``."""
    factors = {id(f): f for p in products for f in p}  # each checked once
    try:
        bideg = {i: f.bidegree() for i, f in factors.items()}
    except ValueError:  # a zero factor or a mixed one
        return False
    return all(
        sum(bideg[id(f)][0] for f in p) == k and sum(bideg[id(f)][1] for f in p) == m
        for p in products
    ) and all(f.n == n and apply_D(f).is_zero() for f in factors.values())


def _distinct_leads(products: Sequence[Sequence[SIPoly]]) -> bool:
    """The products' leads (least keys) strictly increase, read at the width
    of the largest product's degree bound.  A lead is the sum of the factors'
    least keys (the order is multiplicative), each read at its factor's own
    width and re-encoded alone; a zero factor has no lead and fails."""
    if not all(f._terms for p in products for f in p):
        return False
    w = _width(max((sum(f._deg for f in p) for p in products), default=0))
    leads = [sum(min(_repack({min(f._terms): 0}, f.n, _width(f._deg), w)) for f in p)
             for p in products]
    return all(a < b for a, b in zip(leads, leads[1:]))


def _canonical(n: int, k: int, m: int, vs: Sequence[SIPoly]) -> bool:
    """``vs`` is the basis :func:`kernel_basis` computes, given that it
    passed :func:`_in_kernel` (so all keys have the width of ``k``): the
    ``delta`` count for ``2m <= nk``, and primitive vectors whose trailing
    (greatest) keys, the free columns, strictly increase, each zero at the
    others'.  Every kernel vector trails at a free column, so this forces it."""
    if 2 * m <= n * k and len(vs) != delta(k, n, m):
        return False
    keys = [max(v._terms) for v in vs]
    return all(a < b for a, b in zip(keys, keys[1:])) and all(
        v == v.primitive() and all(t not in v._terms for t in keys[:i] + keys[i + 1:])
        for i, v in enumerate(vs)
    )


class SparseIntMatrix(_Record):
    """Sparse integer matrix, stored both by column and by row.

    Columns are indexed ``0..ncols-1`` and rows by their packed row keys.
    ``cols[j]`` is the tuple of row keys where column ``j`` is nonzero, and
    ``rows`` maps each row key to ``{column index: entry}`` over its nonzero
    entries, so ``nrows == len(rows)``.  For :func:`build_D_matrix` the
    columns are the source basis (weight ``m``) in ascending key order,
    ``col_keys`` holds it as packed keys in the
    :class:`~semiinv.monomials.SIPoly` layout at degree ``k``, and the row
    keys are the target monomials of weight ``m-1`` in the same layout.
    :func:`_echelon` consumes the matrix: it eliminates ``rows`` in place.
    """

    __slots__ = _fields = ("cols", "rows", "col_keys")

    def __init__(self, cols: tuple, rows: dict, col_keys: tuple = ()):
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "col_keys", col_keys)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.cols)


def build_D_matrix(n: int, k: int, m: int) -> SparseIntMatrix:
    """Matrix of the lowering operator from weight ``m`` to weight ``m-1``
    in the divided-power basis ``a^nu / s(nu)``.

    Takes ints ``n, k >= 0`` and ``0 <= m <= n*k``; at ``m = 0`` the
    matrix has one column, ``a_0^k``, and no row, since ``D`` kills it.
    ``s(nu) = prod_{i=1..n} (i!)^nu_i nu_i!``
    (slot 0 is left out), and in that basis ``D`` moves one unit from slot
    ``i`` to slot ``i-1`` with entry 1 at ``i = 1`` and ``nu_{i-1} + 1``
    above, in place of ``i*nu_i`` on monomials.  Column ``j`` is the j-th
    key of the weight-``m`` stratum and has at most ``n`` nonzero entries;
    its rows are keyed by the image keys ``key + step_i``, which reach
    every monomial of weight ``m-1``: it has a unit in some slot ``j < n``,
    since ``m-1 < n*k``, and raising that unit gives a preimage.  So the
    sorted row keys are the weight-``m-1`` stratum.  One walk of the
    weight-``m`` stratum builds both the columns and the rows, into a new
    matrix on every call.
    """
    _check_ints(n, k, m)
    if n < 0 or k < 0:
        raise ValueError(f"parameters must be nonnegative, got n={n}, k={k}")
    if not 0 <= m <= n * k:
        raise ValueError(f"weight {m} outside [0, {n * k}]")
    return _lowering_matrix(n, k, m, _stratum_keys(k, n, m))


def _lowering_matrix(n: int, k: int, m: int, col_keys: Sequence[int]) -> SparseIntMatrix:
    """:func:`build_D_matrix` on the given weight-``m`` stratum, its packed
    keys in ascending order."""
    w = _width(k)
    mask = (1 << w) - 1
    # a slot above the weight never holds an exponent
    steps = _lowering_steps(min(n, m), w)
    rows: dict[int, dict[int, int]] = {}
    get = rows.get
    cols = []
    for j, key in enumerate(col_keys):
        col = []
        # nu_{i-1} + 1, with slot 0 counted as empty since s leaves it out
        entry = 1
        for _, shift, step in steps:
            e = key >> shift & mask
            if e:
                r = key + step
                row = get(r)
                if row is None:
                    rows[r] = {j: entry}
                else:
                    row[j] = entry
                col.append(r)
            entry = e + 1
        cols.append(tuple(col))
    return SparseIntMatrix(tuple(cols), rows, tuple(col_keys))


def _echelon(mat: SparseIntMatrix) -> tuple[list[tuple[int, dict[int, int]]], list[int]]:
    """Integer row echelon form with sparsest-pivot choice, in place.

    Returns ``(pivots, free_cols)`` where ``pivots`` is a list of
    ``(pivot_column, row)`` in ascending pivot-column order.  The rows are
    ``mat.rows``' own dicts, overwritten, so elimination consumes ``mat``
    but keeps every row key; each pivot row is zero before its pivot column
    and positive at it.
    Among the rows still nonzero at a column, the pivot is the one with the
    smallest ``(|entry|, row length, row key)``; a lone candidate is the
    pivot at once, its sign made positive, and no row is updated.  Entries
    stay integral: each other candidate ``row`` with entry ``b`` becomes
    ``(a/g) row - (b/g) pivot_row`` for the pivot entry ``a`` and
    ``g = gcd(a, b)``, which at ``a == 1`` is ``row - b pivot_row`` with no
    gcd taken; a row is divided by its content only after it was multiplied
    by a factor other than 1.
    """
    rows = mat.rows
    # column -> rows not yet used as pivots that are nonzero there
    incidence = [set(col) for col in mat.cols]
    pivots: list[tuple[int, dict[int, int]]] = []
    free_cols: list[int] = []
    for c, cand in enumerate(incidence):
        if not cand:
            free_cols.append(c)
            continue
        if len(cand) == 1:
            # a lone candidate is the pivot, and no other row holds column c
            piv = next(iter(cand))
        else:
            piv = None
            for r in cand:
                row = rows[r]
                e = row[c]
                if e < 0:
                    e = -e
                if piv is None or e < best or (
                    e == best and (len(row) < size or (len(row) == size and r < piv))
                ):
                    piv, best, size = r, e, len(row)
        prow = rows[piv]
        for cc in prow:
            incidence[cc].discard(piv)
        a = prow[c]
        if a < 0:
            a = -a
            for cc in prow:
                prow[cc] = -prow[cc]
        pivots.append((c, prow))
        if not cand:
            continue
        # every candidate loses column c; only the pivot row's later columns
        # can gain or lose an entry
        rest = [(cc, v) for cc, v in prow.items() if cc != c]
        for r in cand:
            row = rows[r]
            b = row.pop(c)
            # a unit pivot subtracts b * prow as is, since gcd(1, b) == 1
            fa = 1
            if a != 1:
                g = gcd(a, b)
                fa, b = a // g, b // g
                if fa != 1:
                    for cc in row:
                        row[cc] *= fa
            for cc, v in rest:
                u = b * v
                old = row.get(cc)
                if old is None:
                    row[cc] = -u
                    incidence[cc].add(r)
                elif old == u:
                    del row[cc]
                    incidence[cc].discard(r)
                else:
                    row[cc] = old - u
            if fa != 1:
                g = gcd(*row.values())
                if g > 1:
                    for cc in row:
                        row[cc] //= g
    return pivots, free_cols


def _back_substitute(
    pivots: list[tuple[int, dict[int, int]]], free_col: int
) -> dict[int, int]:
    """Kernel vector with 1 at ``free_col`` and 0 at the other free columns.

    The result is a positive integer multiple of that vector: ``x`` carries
    an implied common denominator, and the earlier entries are rescaled
    only when a pivot's reduced entry is not 1 (pivot entries are positive).
    """
    x: dict[int, int] = {free_col: 1}
    get = x.get
    for c, row in reversed(pivots):
        s = 0
        for cc, v in row.items():
            xv = get(cc)
            if xv is not None:
                s += v * xv
        if not s:
            continue
        a = row[c]
        g = gcd(a, s)
        a //= g
        if a != 1:
            for cc in x:
                x[cc] *= a
        x[c] = -s // g
    return x


class KernelBasis(_Record):
    """Exact basis of the semi-invariants of degree ``k`` and weight ``m``."""

    _fields = ("n", "k", "m", "vectors")
    # weakly referenced: witnesses memoises triangulations per basis
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, n: int, k: int, m: int, vectors: tuple[SIPoly, ...] = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def verify(self) -> bool:
        """Whether the vectors pass :func:`_in_kernel` on this stratum."""
        return _in_kernel(self.n, self.k, self.m, [(v,) for v in self.vectors])

    def _json_header(self) -> dict:
        """The fields that precede ``"vectors"``, in file order."""
        return {"n": self.n, "k": self.k, "m": self.m, "dim": self.dim}

    def to_json_obj(self) -> dict:
        return {**self._json_header(), "vectors": [v.to_json_list() for v in self.vectors]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "KernelBasis":
        n = int(obj["n"])
        vectors = tuple(SIPoly.from_json_list(n, vec) for vec in obj["vectors"])
        kb = cls(n=n, k=int(obj["k"]), m=int(obj["m"]), vectors=vectors)
        if kb.dim != int(obj["dim"]):
            raise ValueError("vector count disagrees with recorded dimension")
        return kb


def _check_ints(n: int, k: int, m: int) -> None:
    # the kernel memo checks this before it is read, so a cold and a warm
    # memo agree
    if type(n) is not int or type(k) is not int or type(m) is not int:
        raise TypeError(f"n={n!r}, k={k!r}, m={m!r}: arguments must be ints")


def _sweep(
    n: int, k: int, top: int
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, dict[int, int]]], list[int]]]:
    """``(col_keys, pivots, free_cols)`` of the lowering matrix of the
    (k, m) stratum, by :func:`_echelon`, for ``m = top, top-1, ..., 0``.

    The matrix at ``top`` is the one :func:`build_D_matrix` returns, which
    checks the arguments.  Each lower weight's columns are the sorted row
    keys of the matrix above, which :func:`build_D_matrix` shows are the
    whole stratum and :func:`_echelon` keeps, so a column is one stratum
    walk.  The next matrix is built only when the next item is asked for,
    so the first item costs one matrix.
    """
    mat = build_D_matrix(n, k, top)
    for m in range(top, -1, -1):
        if m < top:
            mat = _lowering_matrix(n, k, m, sorted(mat.rows))
        yield (mat.col_keys, *_echelon(mat))


def _divided_power_scales(n: int, k: int, m: int, keys: Sequence[int]) -> list[int]:
    """``s(nu) = prod_{i=1..n} (i!)^nu_i nu_i!`` for each key of the (k, m)
    stratum, the denominator of its divided-power basis vector.

    Only slots ``1..min(n, m)`` can be occupied and no exponent there
    exceeds ``min(k, m)``, so neither a huge form degree nor the huge
    ``nu_0`` of a huge ``k`` reaches a factorial.
    """
    w = _width(k)
    mask = (1 << w) - 1
    slots = [(factorial(i), w * i) for i in range(1, min(n, m) + 1)]
    out = []
    for key in keys:
        s = 1
        for f, shift in slots:
            e = key >> shift & mask
            if e:
                s *= f**e * factorial(e)
        out.append(s)
    return out


def kernel_basis(n: int, k: int, m: int) -> KernelBasis:
    """Exact nullspace basis of the lowering operator on the (k, m) stratum.

    Vectors are primitive (coprime integer coordinates, positive leading
    coefficient) and ordered by their defining free column.  For
    ``m <= n*k/2`` the basis size is asserted to equal ``delta(k, n, m)``.
    """
    keys, pivots, free_cols = next(_sweep(n, k, m))
    # a vector is zero past its free column
    scales = _divided_power_scales(n, k, m, keys[: max(free_cols, default=-1) + 1])
    vectors = []
    for f in free_cols:
        # back to monomials: y_c b^(c) = y_c / s_c a^c, each fraction in
        # lowest terms, cleared by the lcm of their denominators
        y = _back_substitute(pivots, f)
        fracs = {}
        for c in sorted(y):
            g = gcd(y[c], scales[c])
            fracs[keys[c]] = y[c] // g, scales[c] // g
        den = lcm(*[d for _, d in fracs.values()])
        terms = {key: num * (den // d) for key, (num, d) in fracs.items()}
        vectors.append(SIPoly._from_keys(n, k, terms).primitive())
    kb = KernelBasis(n, k, m, tuple(vectors))
    if 2 * m <= n * k:
        expected = delta(k, n, m)
        if kb.dim != expected:
            raise SylvesterMismatchError(
                f"nullity {kb.dim} != delta(k={k}, n={n}, m={m}) = {expected}; "
                "this indicates a bug in the elimination"
            )
    return kb


def semiinvariant_dim(n: int, k: int, m: int) -> int:
    """Nullity of the lowering operator on the (k, m) stratum.

    Computed by exact elimination alone; no partition counting is involved,
    so comparing this value with ``delta(k, n, m)`` is a genuine two-route
    check.
    """
    return len(next(_sweep(n, k, m))[2])


def _column_nullities(n: int, k: int, top: int) -> list[int]:
    """Nullities of the lowering operator on the (k, m) strata for
    ``m = 0..top``, ``top <= n*k``, from one :func:`_sweep`."""
    return [len(free_cols) for _, _, free_cols in _sweep(n, k, top)][::-1]


def shear_coefficients(a: Sequence[int | Fraction], h: int | Fraction) -> list[Fraction]:
    """Coefficients of the form after the shear ``x -> x + h*y``.

    ``a_i' = sum_j C(i, j) * a_{i-j} * h**j``.
    """
    from fractions import Fraction  # imported on first use, not at start-up
    vals = [Fraction(v) for v in a]
    hh = Fraction(h)
    out = []
    for i in range(len(vals)):
        s = Fraction(0)
        for j in range(i + 1):
            s += comb(i, j) * vals[i - j] * hh**j
        out.append(s)
    return out


def shear_check(p: SIPoly, h: int | Fraction, a: Sequence[int | Fraction]) -> bool:
    """Exact test that ``p`` takes equal values before and after a shear.

    This is an independent witness of semi-invariance that involves no
    linear algebra: it evaluates ``p`` at the original coefficient vector
    and at the sheared one and compares exactly.
    """
    if len(a) != p.n + 1:
        raise ValueError(f"expected {p.n + 1} coefficients, got {len(a)}")
    return p.evaluate(a) == p.evaluate(shear_coefficients(a, h))


def sylvester_grid_mismatches(
    n_max: int, k_max: int
) -> list[tuple[int, int, int, int, int]]:
    """Compare nullity and partition difference on the full desk-scale grid.

    Returns ``(n, k, m, delta, nullity)`` tuples for every disagreement on
    ``0 <= n <= n_max``, ``0 <= k <= k_max``, ``0 <= m <= n*k/2``, in
    ascending ``(n, k, m)`` order; an empty list means the two computations
    agree everywhere.  Each ``(n, k)`` column is one :func:`_sweep` down
    from its top weight, with one stratum walk; every nullity is still an
    exact elimination of the matrix :func:`build_D_matrix` returns,
    independent of ``delta``.
    """
    bad = []
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            for m, dim in enumerate(_column_nullities(n, k, n * k // 2)):
                d = delta(k, n, m)
                if d != dim:
                    bad.append((n, k, m, d, dim))
    return bad
