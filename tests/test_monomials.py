import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiinv.boxpartitions import enumerate_partitions_in_box
from semiinv.cayley import apply_D
from semiinv.monomials import SIPoly, _json_bytes_each, _pack, _times_each, _width

from helpers import I1_TERMS, I2_TERMS, RefPoly, antilex_greater, brute_mul

# the worked descending chain for n=4, degree 4, weight 6
CHAIN = [
    (0, 2, 2, 0, 0),  # a1^2 a2^2
    (1, 0, 3, 0, 0),  # a0 a2^3
    (0, 3, 0, 1, 0),  # a1^3 a3
    (1, 1, 1, 1, 0),  # a0 a1 a2 a3
    (2, 0, 0, 2, 0),  # a0^2 a3^2
    (1, 2, 0, 0, 1),  # a0 a1^2 a4
    (2, 0, 1, 0, 1),  # a0^2 a2 a4
]


# one slot width for every key packed below; it fits the exponent sums
MAX_EXP = 4
W = _width(2 * MAX_EXP)


def random_nu(rng, n):
    return tuple(rng.randint(0, MAX_EXP) for _ in range(n + 1))


def add(mu, nu):
    return tuple(map(operator.add, mu, nu))


class TestOrder:
    """The order the library runs, ascending packed keys, against the
    reversed-tuple oracle."""

    def test_normative_chain(self):
        for a, b in zip(CHAIN, CHAIN[1:]):
            assert antilex_greater(a, b) and not antilex_greater(b, a)
            assert _pack(a, W) < _pack(b, W)
        p = SIPoly(4, dict.fromkeys(reversed(CHAIN), 1))
        assert [nu for nu, _ in p.sorted_terms()] == CHAIN
        assert p.leading_nu() == CHAIN[0]

    def test_chain_is_exactly_the_stratum(self):
        got = enumerate_partitions_in_box(4, 4, 6)
        assert got == CHAIN

    def test_equality(self):
        nu = (1, 2, 0)
        assert _pack(nu, W) == _pack((1, 2, 0), W)
        assert not antilex_greater(nu, (1, 2, 0))
        assert SIPoly.term(2, nu) == SIPoly.term(2, (1, 2, 0))

    def test_sort_matches_pairwise_rule(self):
        # brute-force oracle: selection sort by the pairwise reversed-tuple rule
        nus = enumerate_partitions_in_box(3, 3, 4)
        rng = random.Random(7)
        shuffled = nus[:]
        rng.shuffle(shuffled)
        result = []
        pool = shuffled[:]
        while pool:
            best = pool[0]
            for cand in pool[1:]:
                if antilex_greater(cand, best):
                    best = cand
            pool.remove(best)
            result.append(best)
        assert result == sorted(shuffled, key=lambda nu: _pack(nu, W))
        assert result == nus
        p = SIPoly(3, dict.fromkeys(shuffled, 1))
        assert [nu for nu, _ in p.sorted_terms()] == result

    def test_totality_on_random_triples(self):
        rng = random.Random(99)
        for _ in range(300):
            a, b, c = (random_nu(rng, 4) for _ in range(3))
            ka, kb, kc = (_pack(nu, W) for nu in (a, b, c))
            # keys ascend exactly when the monomials descend
            assert (ka < kb) == antilex_greater(a, b)
            assert (ka > kb) == antilex_greater(b, a)
            assert (ka == kb) == (a == b)
            # transitivity
            if antilex_greater(a, b) and antilex_greater(b, c):
                assert antilex_greater(a, c) and ka < kc

    def test_multiplicativity(self):
        rng = random.Random(4242)
        for _ in range(300):
            m1, m2, s = (random_nu(rng, 5) for _ in range(3))
            assert _pack(add(m1, s), W) == _pack(m1, W) + _pack(s, W)
            hi, lo = (m1, m2) if antilex_greater(m1, m2) else (m2, m1)
            if hi != lo:
                assert antilex_greater(add(hi, s), add(lo, s))
                assert _pack(add(hi, s), W) < _pack(add(lo, s), W)


class TestMonomial:
    """Single-term polynomials: degree and weight, validation, printing."""

    def test_degree_weight(self):
        m = SIPoly.term(3, (1, 0, 2, 1))
        assert m.bidegree() == (4, 7)
        assert m.n == 3

    def test_box_partition_degree_and_weight(self):
        for nu in enumerate_partitions_in_box(3, 4, 5):
            assert SIPoly.term(4, nu).bidegree() == (3, 5)

    def test_bidegree_of_zero_or_mixed_raises(self):
        a0, a1 = SIPoly.variable(2, 0), SIPoly.variable(2, 1)
        with pytest.raises(ValueError, match="no bidegree"):
            SIPoly.zero(2).bidegree()
        # mixed degree, mixed weight
        for p in (a0 + a0 * a0, a0 * a0 + a1 * a1):
            with pytest.raises(ValueError, match="not homogeneous"):
                p.bidegree()

    def test_validation(self):
        # wrong length, negative, and a float or bool that passes a sign check
        for nu in [(), (1, -1), (0.0, 2), (True, 1)]:
            with pytest.raises(ValueError):
                SIPoly(1, {nu: 1})

    def test_str(self):
        assert str(SIPoly.term(4, (0, 2, 2, 0, 0))) == "a1^2*a2^2"
        assert str(SIPoly.term(2, (0, 0, 0))) == "1"


class TestSIPoly:
    def test_zero_coefficients_dropped(self):
        p = SIPoly(2, {(1, 0, 0): 1, (0, 1, 0): 0})
        assert len(p) == 1
        assert p.coefficient((0, 1, 0)) == 0

    def test_str_of_small_polynomials(self):
        assert str(SIPoly(2)) == "0"
        assert str(SIPoly.constant(2, -3)) == "-3"
        assert str(SIPoly(2, {(0, 1, 0): -1, (1, 0, 0): 2})) == "2*a0 - a1"

    def test_add_cancel(self):
        p = SIPoly(2, {(2, 0, 0): 7, (0, 1, 1): -3})
        assert (p + p.scale(-1)).is_zero()
        assert (p - p).is_zero()

    def test_neg_is_scale_by_minus_one(self):
        p = SIPoly(4, I1_TERMS)
        assert -p == p.scale(-1)
        assert -(-p) == p

    def test_constant_multiplication_identity(self):
        p = SIPoly(4, I1_TERMS)
        assert SIPoly.constant(4, 1) * p == p

    def test_leading_terms_of_explicit_pair(self):
        i1 = SIPoly(4, I1_TERMS)
        i2 = SIPoly(4, I2_TERMS)
        assert i1.leading_nu() == (0, 2, 2, 0, 0)
        assert i2.leading_nu() == (1, 0, 3, 0, 0)
        assert i1.coefficient(i1.leading_nu()) == 3

    def test_leading_term_of_single_monomial(self):
        p = SIPoly.term(3, (1, 0, 2, 0), 5)
        assert p.leading_nu() == (1, 0, 2, 0)

    def test_leading_term_of_zero_rejected(self):
        with pytest.raises(ValueError):
            SIPoly.zero(3).leading_nu()

    def test_product_against_brute_expansion(self):
        i1 = SIPoly(4, I1_TERMS)
        i2 = SIPoly(4, I2_TERMS)
        prod = i1 * i2
        expected = brute_mul(I1_TERMS, I2_TERMS)
        assert dict(prod.items()) == {
            nu: Fraction(c) for nu, c in expected.items()
        }
        assert prod.leading_nu() == (1, 2, 5, 0, 0)

    def test_product_bidegree_adds(self):
        i1 = SIPoly(4, I1_TERMS)
        i2 = SIPoly(4, I2_TERMS)
        assert i1.bidegree() == (4, 6)
        assert i2.bidegree() == (4, 6)
        assert (i1 * i2).bidegree() == (8, 12)

    def test_leading_term_multiplicative_on_random_sparse(self):
        rng = random.Random(313)
        for _ in range(100):
            p = SIPoly(
                3,
                {
                    tuple(rng.randint(0, 3) for _ in range(4)): rng.randint(-5, 5)
                    for _ in range(rng.randint(1, 5))
                },
            )
            q = SIPoly(
                3,
                {
                    tuple(rng.randint(0, 3) for _ in range(4)): rng.randint(-5, 5)
                    for _ in range(rng.randint(1, 5))
                },
            )
            if p.is_zero() or q.is_zero() or (p * q).is_zero():
                continue
            assert (p * q).leading_nu() == add(p.leading_nu(), q.leading_nu())

    @pytest.mark.parametrize(
        "nu", [(1, 0), (1, -1, 0), (0.0, 1, 1), (1, 1.0, 0), (True, 0, 0), (1.0, 0, 0)]
    )
    def test_exponent_vector_validation(self, nu):
        with pytest.raises(ValueError):
            SIPoly(2, {nu: 1})
        # a vector SIPoly rejects has coefficient 0, even one that == (1, 0, 0)
        assert SIPoly(2, {(1, 0, 0): 3}).coefficient(nu) == 0

    def test_mixed_n_rejected(self):
        with pytest.raises(ValueError):
            SIPoly.constant(2, 1) * SIPoly.constant(3, 1)
        with pytest.raises(ValueError):
            SIPoly.constant(2, 1) + SIPoly.constant(3, 1)

    def test_pow(self):
        p = SIPoly.variable(2, 1) + SIPoly.variable(2, 2)
        assert p**0 == SIPoly.constant(2, 1)
        assert p**1 == p
        assert p**3 == p * p * p

    def test_pow_makes_only_the_products_it_needs(self, monkeypatch):
        p = SIPoly.variable(2, 0) + SIPoly.variable(2, 1) + SIPoly.variable(2, 2)
        sixth = p * p * p * p * p * p
        made = []
        mul = SIPoly.__mul__

        def counted(a, b):
            made.append("square" if a is b else "product")
            return mul(a, b)

        monkeypatch.setattr(SIPoly, "__mul__", counted)
        for e, products in [
            (0, []),
            (1, []),
            (2, ["square"]),
            (3, ["square", "product"]),
            (4, ["square", "square"]),
            (5, ["square", "square", "product"]),
            (6, ["square", "square", "product"]),
        ]:
            made.clear()
            p**e
            assert made == products, e
        assert p**6 == sixth
        assert p**1 is p

    def test_evaluate(self):
        p = SIPoly(2, {(1, 2, 0): 1, (0, 0, 1): 3})
        assert p.evaluate([2, 3, 6]) == 2 * 9 + 18
        # a rational point gives an exact rational value
        assert p.evaluate([Fraction(1, 2), 3, Fraction(1, 9)]) == Fraction(29, 6)

    def test_primitive_scaling(self):
        p = SIPoly(2, {(1, 2, 0): -6, (0, 0, 1): 4})
        prim = p.primitive()
        # a0*a1^2 is the leading monomial, so its coefficient turns positive
        assert prim.coefficient(prim.leading_nu()) == 3
        assert prim.coefficient((0, 0, 1)) == -2
        # an integer rescaling of p has the same primitive form
        assert p.scale(-35).primitive() == prim

    def test_json_round_trip_and_sorted_output(self):
        p = SIPoly(4, I1_TERMS).scale(3)
        obj = p.to_json_list()
        nus = [tuple(t["nu"]) for t in obj]
        assert nus == sorted(nus, key=lambda nu: nu[::-1])
        q = SIPoly.from_json_list(4, json.loads(json.dumps(obj)))
        assert q == p
        assert {t["den"] for t in obj} == {"1"}

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(2), 0.5, True])
    def test_non_int_coefficient_rejected(self, c):
        with pytest.raises(ValueError):
            SIPoly(2, {(1, 0, 0): c})

    @pytest.mark.parametrize(
        "op",
        [lambda p: p.scale(Fraction(1, 2)), lambda p: p * Fraction(1, 2),
         lambda p: Fraction(1, 2) * p, lambda p: p.scale(2.0), lambda p: p * 0.5,
         lambda p: p**0.0, lambda p: p**True, lambda p: p**2.0, lambda p: p ** Fraction(2)],
        ids=["scale", "mul", "rmul", "scale-float", "mul-float",
             "pow-zero-float", "pow-bool", "pow-float", "pow-fraction"],
    )
    def test_non_int_scalar_rejected(self, op):
        with pytest.raises(TypeError):
            op(SIPoly(4, I1_TERMS))

    @pytest.mark.parametrize("den", ["2", "01", "-1", 1])
    def test_json_denominator_other_than_one_rejected(self, den):
        obj = SIPoly(4, I1_TERMS).to_json_list()
        obj[0]["den"] = den
        with pytest.raises(ValueError):
            SIPoly.from_json_list(4, obj)


# exponents at and past the slot widths that degrees 1..64 give (1..7 bits)
EXPONENTS = st.one_of(
    st.integers(0, 3), st.sampled_from([7, 8, 15, 16, 31, 32, 63, 64])
)
COEFFS = st.integers(-6, 6)


def same(p, ref):
    """``p`` has ``ref``'s terms in ``ref``'s order, every coefficient an int."""
    terms = p.sorted_terms()
    assert terms == ref.sorted_terms()
    assert all(type(c) is int for _, c in terms)
    assert dict(p.items()) == ref.terms
    return True


class TestPackedKeysAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arithmetic_and_canonical_forms(self, data):
        n = data.draw(st.integers(0, 3), label="n")
        pool = data.draw(
            st.lists(st.tuples(*[EXPONENTS] * (n + 1)), min_size=1, max_size=6),
            label="monomials",
        )
        # p and q draw from one pool, so sums and products can cancel
        terms = st.dictionaries(st.sampled_from(pool), COEFFS, max_size=5)
        t1, t2 = data.draw(terms, label="p"), data.draw(terms, label="q")
        c = data.draw(COEFFS, label="c")
        e = data.draw(st.integers(0, 3), label="e")
        p, q = SIPoly(n, t1), SIPoly(n, t2)
        rp, rq = RefPoly(n, t1), RefPoly(n, t2)
        assert same(p, rp) and same(q, rq)
        assert same(p + q, rp + rq)
        assert same(p - q, rp - rq)
        assert same(p * q, rp * rq)
        assert same(p * p, rp * rp)
        assert same(p**e, rp**e)
        assert p**1 is p
        assert same(apply_D(p), rp.lower())
        assert same(p.scale(c), rp.scale(c))
        if not p.is_zero():
            assert same(p.primitive(), rp.primitive())
            assert p.leading_nu() == rp.leading_nu()
        obj = p.to_json_list()
        assert obj == rp.to_json_list()
        assert SIPoly.from_json_list(n, json.loads(json.dumps(obj))) == p
        # equal polynomials built by different routes: a product, the
        # product read back from JSON, and a sum whose degree bound (and so
        # slot width) stays above the product's after cancellation
        prod = p * q
        back = SIPoly.from_json_list(n, json.loads(json.dumps(prod.to_json_list())))
        high = SIPoly.term(n, (1 << 11,) + (0,) * n)
        detour = (prod + high) - high
        for other in (back, detour):
            assert prod == other and other == prod
            assert hash(prod) == hash(other)
        assert (prod == prod + SIPoly.constant(n, 1)) is False

    def test_exponent_filling_a_slot_does_not_carry(self):
        a0 = SIPoly.variable(2, 0)
        p = a0**31 * a0
        assert p.sorted_terms() == [((32, 0, 0), 1)]
        assert p == SIPoly.term(2, (32, 0, 0))
        assert same(p, RefPoly(2, {(31, 0, 0): 1}) * RefPoly(2, {(1, 0, 0): 1}))
        # a 32 in the 5-bit slots of a degree-31 polynomial would read as a_1
        q = a0**31 + SIPoly.variable(2, 1)
        assert q.coefficient((32, 0, 0)) == 0
        assert q.coefficient((0, 1, 0)) == 1
        assert q.coefficient((31, 0, 0)) == 1

    def test_high_power_keeps_every_slot(self):
        p = SIPoly.variable(2, 1) ** 1000
        assert p.sorted_terms() == [((0, 1000, 0), 1)]
        assert p.leading_nu() == (0, 1000, 0)
        mixed = (SIPoly.variable(2, 0) + SIPoly.variable(2, 2)) ** 40
        assert same(mixed, RefPoly(2, {(1, 0, 0): 1, (0, 0, 1): 1}) ** 40)

    def test_pack_rejects_an_exponent_wider_than_its_slot(self):
        assert _pack((31, 1), 5) == 31 + (1 << 5)
        with pytest.raises(ValueError):
            _pack((32, 0), 5)
        with pytest.raises(ValueError):
            _pack((0, -1), 5)


def _bounded_above(n, terms, pad):
    """``SIPoly(n, terms)`` with its degree bound raised by ``pad``."""
    p = SIPoly(n, terms)
    return p._rekey(p._deg + pad)


class TestTimesEach:
    """``_times_each``'s one packed product against a product per factor."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_a_product_per_factor(self, data):
        n = data.draw(st.integers(0, 3), label="n")
        # every factor draws from one pool, so their supports overlap
        pool = data.draw(
            st.lists(st.tuples(*[EXPONENTS] * (n + 1)), min_size=1, max_size=6),
            label="monomials",
        )
        coeffs = st.one_of(COEFFS, st.integers(-(2**200), 2**200),
                           st.sampled_from([2**200, -(2**200)]))
        # some factors carry a degree bound above their terms' degree
        polys = st.builds(_bounded_above, st.just(n),
                          st.dictionaries(st.sampled_from(pool), coeffs, max_size=5),
                          st.sampled_from([0, 0, 1, 40]))
        bs = data.draw(st.lists(polys, min_size=1, max_size=5), label="bs")
        a = bs[0] if data.draw(st.booleans(), label="square") else data.draw(polys, label="a")
        out = _times_each(a, bs)
        expected = [a * b for b in bs]
        assert out == expected
        assert [p._json_bytes() for p in out] == [p._json_bytes() for p in expected]

    def test_lanes_at_their_bound_and_below_zero(self):
        # (a_0 + a_1) squared beside itself: its cross lane holds 2*p*p, whose
        # a_0 a_1 coefficient 4 is twice sum|p| * max|p|, the most a square's
        # lane can hold; a lane one bit narrower would read it as -4
        p = SIPoly.variable(1, 0) + SIPoly.variable(1, 1)
        assert _times_each(p, [p, p]) == [p * p, p * p]
        q = SIPoly.variable(1, 0) - SIPoly.variable(1, 1).scale(2)
        r = SIPoly.variable(1, 1) - SIPoly.variable(1, 0)
        for a, bs in [(p, [q, r]), (q, [q, r, p]), (r, [p, q.scale(-3), r])]:
            out = _times_each(a, bs)
            assert out == [a * b for b in bs]
            assert any(c < 0 for o in out for _, c in o.items())


def _compact_json(p):
    return json.dumps(p.to_json_list(), separators=(",", ":")).encode()


class TestJsonBytes:
    """The kernel files' encoder against ``json`` of the object form."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_compact_json_of_to_json_list(self, data):
        n = data.draw(st.integers(0, 9), label="n")
        nus = st.tuples(*[EXPONENTS] * (n + 1))
        coeffs = st.one_of(COEFFS, st.integers(-(2**80), 2**80),
                           st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1]))
        terms = data.draw(st.dictionaries(nus, coeffs, max_size=6), label="terms")
        if data.draw(st.booleans(), label="degree-0 term"):
            terms[(0,) * (n + 1)] = data.draw(coeffs, label="constant")
        p = SIPoly(n, terms)
        if data.draw(st.booleans(), label="rekey"):
            # a bound of 2**b has slots b + 1 bits wide
            wide = p._rekey(2 ** data.draw(st.integers(_width(p._deg), 12)))
            assert _width(wide._deg) > _width(p._deg) and wide == p
            p = wide
        assert p._json_bytes() == _compact_json(p)

    @pytest.mark.parametrize("n", range(10))
    def test_zero_and_constant(self, n):
        zero = SIPoly.zero(n)
        assert zero._json_bytes() == _compact_json(zero) == b"[]"
        const = SIPoly.constant(n, -(2**70))
        expected = b'[{"nu":[%s],"num":"%d","den":"1"}]' % (
            b",".join([b"0"] * (n + 1)), -(2**70))
        assert const._json_bytes() == _compact_json(const) == expected


class TestJsonBytesEach:
    """One call over a family, whose fragments are shared, against ``json``
    of each vector's object form."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_family_matches_compact_json_of_each(self, data):
        ns = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=2, unique=True),
                       label="ns")
        # the vectors of one n draw from one pool, so their supports overlap
        pools = {n: data.draw(st.lists(st.tuples(*[EXPONENTS] * (n + 1)),
                                       min_size=1, max_size=6), label=f"monomials n={n}")
                 for n in ns}
        coeffs = st.one_of(COEFFS, st.integers(-(2**80), 2**80),
                           st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1]))

        def vectors(n):
            # empty terms give zero vectors; a raised bound gives wider slots
            return st.builds(_bounded_above, st.just(n),
                             st.dictionaries(st.sampled_from(pools[n]), coeffs, max_size=6),
                             st.sampled_from([0, 0, 1, 40]))

        vs = data.draw(st.lists(st.sampled_from(ns).flatmap(vectors), max_size=6), label="vs")
        assert _json_bytes_each(vs) == [_compact_json(v) for v in vs]

    def test_same_key_at_two_widths(self):
        # key 2 is a_1 in 1-bit slots and a_0^2 in 2-bit slots
        narrow, wide = SIPoly(1, {(0, 1): 1}), SIPoly(1, {(2, 0): 1})
        assert (_width(narrow._deg), list(narrow._terms)) == (1, [2])
        assert (_width(wide._deg), list(wide._terms)) == (2, [2])
        for vs in ([narrow, wide], [wide, narrow]):
            assert _json_bytes_each(vs) == [_compact_json(v) for v in vs]
