import json
import random
from fractions import Fraction

import pytest

from semiinv.boxpartitions import enumerate_partitions_in_box
from semiinv.monomials import Monomial, SIPoly, antilex_compare, leading_term

from helpers import I1_TERMS, I2_TERMS, brute_mul

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


def random_monomial(rng, n, max_exp=4):
    return Monomial(tuple(rng.randint(0, max_exp) for _ in range(n + 1)))


class TestOrder:
    def test_normative_chain(self):
        monos = [Monomial(nu) for nu in CHAIN]
        for a, b in zip(monos, monos[1:]):
            assert a > b
            assert antilex_compare(a, b) == 1
            assert antilex_compare(b, a) == -1

    def test_chain_is_exactly_the_stratum(self):
        got = [bp.nu for bp in enumerate_partitions_in_box(4, 4, 6)]
        assert got == CHAIN

    def test_equality(self):
        m = Monomial((1, 2, 0))
        assert antilex_compare(m, Monomial((1, 2, 0))) == 0
        assert not m < Monomial((1, 2, 0))

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            antilex_compare(Monomial((1, 0)), Monomial((1, 0, 0)))
        with pytest.raises(ValueError):
            Monomial((1, 0)) < Monomial((1, 0, 0))

    def test_sort_matches_pairwise_rule(self):
        # brute-force oracle: selection sort by pairwise reversed-tuple rule
        monos = [Monomial(bp.nu) for bp in enumerate_partitions_in_box(3, 3, 4)]
        rng = random.Random(7)
        shuffled = monos[:]
        rng.shuffle(shuffled)
        result = []
        pool = shuffled[:]
        while pool:
            best = pool[0]
            for cand in pool[1:]:
                if cand.nu[::-1] < best.nu[::-1]:
                    best = cand
            pool.remove(best)
            result.append(best)
        assert result == sorted(shuffled, reverse=True)
        assert result == monos

    def test_totality_on_random_triples(self):
        rng = random.Random(99)
        for _ in range(300):
            a, b, c = (random_monomial(rng, 4) for _ in range(3))
            # antisymmetry
            assert antilex_compare(a, b) == -antilex_compare(b, a)
            # transitivity
            if a >= b and b >= c:
                assert a >= c

    def test_multiplicativity(self):
        rng = random.Random(4242)
        for _ in range(300):
            m1, m2, s = (random_monomial(rng, 5) for _ in range(3))
            if m1 > m2:
                assert m1 * s > m2 * s
            elif m2 > m1:
                assert m2 * s > m1 * s


class TestMonomial:
    def test_degree_weight(self):
        m = Monomial((1, 0, 2, 1))
        assert m.degree == 4
        assert m.weight == 7
        assert m.n == 3

    def test_box_partition_degree_and_weight(self):
        for bp in enumerate_partitions_in_box(3, 4, 5):
            m = Monomial(bp.nu)
            assert m.degree == bp.box_k
            assert m.weight == bp.weight

    def test_validation(self):
        with pytest.raises(ValueError):
            Monomial(())
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_str(self):
        assert str(Monomial((0, 2, 2, 0, 0))) == "a1^2*a2^2"
        assert str(Monomial((0, 0, 0))) == "1"


class TestSIPoly:
    def test_zero_coefficients_dropped(self):
        p = SIPoly(2, {(1, 0, 0): 1, (0, 1, 0): 0})
        assert len(p) == 1
        assert p.coefficient((0, 1, 0)) == 0

    def test_add_cancel(self):
        p = SIPoly(2, {(2, 0, 0): Fraction(1, 2)})
        assert (p + p.scale(-1)).is_zero()
        assert (p - p).is_zero()

    def test_constant_multiplication_identity(self):
        p = SIPoly(4, I1_TERMS)
        assert SIPoly.constant(4, 1) * p == p

    def test_leading_terms_of_explicit_pair(self):
        i1 = SIPoly(4, I1_TERMS)
        i2 = SIPoly(4, I2_TERMS)
        assert leading_term(i1) == Monomial((0, 2, 2, 0, 0))
        assert leading_term(i2) == Monomial((1, 0, 3, 0, 0))
        assert i1.leading_coefficient() == 3

    def test_leading_term_of_single_monomial(self):
        p = SIPoly.term(3, (1, 0, 2, 0), 5)
        assert leading_term(p) == Monomial((1, 0, 2, 0))

    def test_leading_term_of_zero_rejected(self):
        with pytest.raises(ValueError):
            leading_term(SIPoly.zero(3))

    def test_product_against_brute_expansion(self):
        i1 = SIPoly(4, I1_TERMS)
        i2 = SIPoly(4, I2_TERMS)
        prod = i1 * i2
        expected = brute_mul(I1_TERMS, I2_TERMS)
        assert dict(prod.items()) == {
            nu: Fraction(c) for nu, c in expected.items()
        }
        assert leading_term(prod) == Monomial((1, 2, 5, 0, 0))

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
            assert leading_term(p * q) == leading_term(p) * leading_term(q)

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

    def test_evaluate(self):
        p = SIPoly(2, {(1, 2, 0): 1, (0, 0, 1): Fraction(1, 3)})
        assert p.evaluate([2, 3, 6]) == 2 * 9 + 2

    def test_primitive_scaling(self):
        p = SIPoly(2, {(1, 2, 0): Fraction(-2, 3), (0, 0, 1): Fraction(4, 9)})
        prim = p.primitive()
        # a0*a1^2 is the leading monomial, so its coefficient turns positive
        assert prim.leading_coefficient() == 3
        assert prim.coefficient((0, 0, 1)) == -2
        # a rational rescaling of p has the same primitive form
        assert p.scale(Fraction(-7, 5)).primitive() == prim

    def test_json_round_trip_and_sorted_output(self):
        p = SIPoly(4, I1_TERMS).scale(Fraction(1, 3))
        obj = p.to_json_list()
        nus = [tuple(t["nu"]) for t in obj]
        assert nus == sorted(nus, key=lambda nu: nu[::-1])
        q = SIPoly.from_json_list(4, json.loads(json.dumps(obj)))
        assert q == p
