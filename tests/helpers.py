"""Brute-force oracles shared by the tests.

These deliberately avoid the production code paths: partitions are grown
part by part as decreasing tuples, monomials are ordered by comparing
reversed exponent tuples, polynomials are expanded with plain dicts keyed
by exponent tuples, and ranks and nullspaces are computed by
dense elimination over Fractions.  The shape predicates and the ``QPoly``
sums are kept here in their plain loop form, on coefficient tuples.
:func:`run_capped` runs a Python child with bounded memory and time.
"""

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

import semiinv
from semiinv.qpoly import NonnegativityViolation


def canonical_json_bytes(obj):
    """Byte-stable JSON: fixed separators, preserved key order, one newline;
    the form of every kernel file."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def brute_partitions(k, n, m):
    """All partitions of m with at most k parts, each part <= n."""
    found = set()

    def grow(remaining, maxpart, parts):
        if remaining == 0:
            found.add(tuple(parts))
            return
        if len(parts) == k:
            return
        for part in range(min(maxpart, remaining), 0, -1):
            grow(remaining - part, part, parts + [part])

    if m == 0:
        return {()}
    if m < 0 or k <= 0 or n <= 0:
        return set()
    grow(m, n, [])
    return found


def brute_count(k, n, m):
    return len(brute_partitions(k, n, m))


def partition_to_nu(parts, k, n):
    """Multiplicity vector of a partition given as a tuple of parts."""
    nu = [0] * (n + 1)
    for part in parts:
        nu[part] += 1
    nu[0] = k - len(parts)
    return tuple(nu)


def antilex_greater(mu, nu):
    """Order oracle: ``a^mu > a^nu`` anti-lexicographically, that is,
    ``mu``'s reversed exponent vector is the lexicographically smaller."""
    return mu[::-1] < nu[::-1]


def brute_mul(terms1, terms2):
    """Expand a product of two {exponent-tuple: coeff} dicts."""
    out = {}
    for nu1, c1 in terms1.items():
        for nu2, c2 in terms2.items():
            nu = tuple(a + b for a, b in zip(nu1, nu2))
            out[nu] = out.get(nu, 0) + c1 * c2
    return {nu: c for nu, c in out.items() if c}


class RefPoly:
    """Reference sparse polynomial: exponent tuples to nonzero Fractions.

    Mirrors the arithmetic and the canonical forms of ``SIPoly`` the plain
    way, with no key packing and no int coefficients.
    """

    def __init__(self, n, terms=()):
        self.n = n
        self.terms = {}
        for nu, c in dict(terms).items():
            self._add_term(tuple(nu), Fraction(c))

    def _add_term(self, nu, c):
        v = self.terms.get(nu, Fraction(0)) + c
        if v:
            self.terms[nu] = v
        else:
            self.terms.pop(nu, None)

    def __add__(self, other):
        out = RefPoly(self.n, self.terms)
        for nu, c in other.terms.items():
            out._add_term(nu, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return RefPoly(self.n, {nu: Fraction(c) * v for nu, v in self.terms.items()})

    def __mul__(self, other):
        out = RefPoly(self.n)
        for nu1, c1 in self.terms.items():
            for nu2, c2 in other.terms.items():
                out._add_term(tuple(a + b for a, b in zip(nu1, nu2)), c1 * c2)
        return out

    def __pow__(self, e):
        out = RefPoly(self.n, {(0,) * (self.n + 1): 1})
        for _ in range(e):
            out = out * self
        return out

    def lower(self):
        """Image under ``D = sum_i i*a_{i-1} d/da_i``: each term ``c*a^nu``
        sends ``c*i*nu_i`` to ``nu`` with one unit moved from slot i to i-1."""
        out = RefPoly(self.n)
        for nu, c in self.terms.items():
            for i in range(1, self.n + 1):
                if nu[i]:
                    mu = list(nu)
                    mu[i] -= 1
                    mu[i - 1] += 1
                    out._add_term(tuple(mu), c * i * nu[i])
        return out

    def leading_nu(self):
        return min(self.terms, key=lambda nu: nu[::-1])

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0][::-1])

    def primitive(self):
        den = lcm(*(c.denominator for c in self.terms.values()))
        ints = {nu: int(c * den) for nu, c in self.terms.items()}
        g = gcd(*ints.values())
        if ints[self.leading_nu()] < 0:
            g = -g
        return RefPoly(self.n, {nu: v // g for nu, v in ints.items()})

    def to_json_list(self):
        return [
            {"nu": list(nu), "num": str(c.numerator), "den": str(c.denominator)}
            for nu, c in self.sorted_terms()
        ]


def dense_rank(vectors):
    """Rank of a family of SIPoly over the union of their monomials.

    Dense Gaussian elimination with Fractions; independent of the sparse
    integer elimination used by the package.
    """
    monomials = sorted({nu for v in vectors for nu, _ in v.items()})
    index = {nu: i for i, nu in enumerate(monomials)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(monomials)
        for nu, c in v.items():
            row[index[nu]] = Fraction(c)
        rows.append(row)
    rank = 0
    for col in range(len(monomials)):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def dense_kernel(n, k, m):
    """Primitive free-column nullspace of D on the (k, m) stratum.

    Columns are the images ``apply_D(a^nu)`` of single monomials, taken in
    descending anti-lexicographic order of ``nu`` from the brute-force
    partition list; rows are every monomial those images reach.
    :func:`gauss_jordan_kernel` gives the free columns, and
    free column ``f`` yields the kernel vector with 1 at ``f`` and 0 at the
    other free columns, scaled to coprime integers with a positive entry at
    its least column.  Returns ``(free_columns, vectors)`` with each vector
    a ``{nu: int}`` dict; nothing here uses ``build_D_matrix`` or the
    sparse elimination.
    """
    from semiinv.cayley import apply_D
    from semiinv.monomials import SIPoly

    cols = sorted(
        (partition_to_nu(p, k, n) for p in brute_partitions(k, n, m)),
        key=lambda nu: nu[::-1],
    )
    images = [apply_D(SIPoly(n, {nu: 1})) for nu in cols]
    row_monos = sorted({mu for img in images for mu, _ in img.items()})
    a = [[img.coefficient(mu) for img in images] for mu in row_monos]
    free, kernel = gauss_jordan_kernel(a, len(cols))
    vectors = []
    for x in kernel:
        den = 1
        for v in x.values():
            den = den * v.denominator // gcd(den, v.denominator)
        ints = {c: int(v * den) for c, v in x.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, v)
        if ints[min(ints)] < 0:
            g = -g
        vectors.append({cols[c]: v // g for c, v in ints.items()})
    return free, vectors


def gauss_jordan_kernel(a, ncols):
    """Free columns and nullspace of the integer matrix ``a``, a list of
    rows of ``ncols`` entries, by plain Gauss-Jordan over Fractions.

    Columns are taken left to right, each pivoting on the first remaining
    row nonzero there.  Returns ``(free_columns, vectors)``: free column
    ``f`` gives the kernel vector with 1 at ``f`` and 0 at the other free
    columns, as a ``{column: Fraction}`` dict of its nonzero entries.
    """
    a = [[Fraction(v) for v in row] for row in a]
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        lead = a[r][c]
        a[r] = [x / lead for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
    free = [c for c in range(ncols) if c not in pivot_cols]
    vectors = []
    for f in free:
        x = {f: Fraction(1)}
        for r, c in enumerate(pivot_cols):
            if a[r][f]:
                x[c] = -a[r][f]
        vectors.append(x)
    return free, vectors


# the explicit degree-4, weight-6 semi-invariants of a quartic form
I1_TERMS = {
    (0, 2, 2, 0, 0): 3,
    (0, 3, 0, 1, 0): -4,
    (1, 1, 1, 1, 0): -2,
    (2, 0, 0, 2, 0): 3,
    (1, 2, 0, 0, 1): 4,
    (2, 0, 1, 0, 1): -4,
}
I2_TERMS = {
    (1, 0, 3, 0, 0): 1,
    (1, 1, 1, 1, 0): -2,
    (2, 0, 0, 2, 0): 1,
    (1, 2, 0, 0, 1): 1,
    (2, 0, 1, 0, 1): -1,
}


def loop_strip(cs):
    """``cs`` as a tuple without trailing zeros."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def loop_add(a, b):
    return loop_strip(x + y for x, y in zip_longest(a, b, fillvalue=0))


def loop_sub(a, b):
    return loop_strip(x - y for x, y in zip_longest(a, b, fillvalue=0))


def loop_shift(cs, s):
    return (0,) * s + tuple(cs) if cs else ()


def loop_first_negative_index(cs):
    for i, c in enumerate(cs):
        if c < 0:
            return i
    return None


def _loop_require_nonnegative(cs):
    i = loop_first_negative_index(cs)
    if i is not None:
        raise NonnegativityViolation(i, cs[i])


def loop_symmetry_break(cs):
    n = len(cs)
    for i in range(n // 2):
        if cs[i] != cs[n - 1 - i]:
            return i
    return None


def loop_unimodality_break(cs):
    _loop_require_nonnegative(cs)
    i = 0
    while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
        i += 1
    return None if i + 1 >= len(cs) else i + 1


def loop_strictness_break(cs):
    _loop_require_nonnegative(cs)
    d = len(cs) - 1
    if d < 4:
        degree = d if cs else float("-inf")
        raise ValueError(f"degree must be at least 4, got {degree}")
    if cs[0] > cs[1]:
        return 1
    if cs[d - 1] < cs[d]:
        return d
    i = 1
    while i + 1 <= d - 1 and cs[i] < cs[i + 1]:
        i += 1
    if i + 1 <= d - 1 and cs[i] == cs[i + 1]:
        i += 1
    while i + 1 <= d - 1 and cs[i] > cs[i + 1]:
        i += 1
    return None if i == d - 1 else i + 1


def run_capped(*args, memory=1 << 28, timeout=60):
    """``python *args`` with this ``semiinv`` importable, its address space
    capped at ``memory`` bytes, so a case that should be cheap fails fast
    instead of filling the machine's memory; raises on ``timeout``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(semiinv.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=cap,
        timeout=timeout,
    )
