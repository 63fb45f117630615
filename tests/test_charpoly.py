import functools
import gc
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_properties import DERANDOMIZED, reference_product

from flagforms import charpoly
from flagforms.charpoly import (
    ChernPoly,
    SchurVector,
    gen_schur,
    schur,
    schur_decompose,
    segre_polys,
    straighten,
)
from flagforms.combinat import partitions_of, sigma_tilde
from flagforms.formlab import ExtForm, GeneratorSpace


def c(r, j):
    return ChernPoly.gen(r, j)


def test_segre_low_degrees():
    r = 4
    s = segre_polys(r, 3)
    assert s[0] == ChernPoly.one(r)
    assert s[1] == -c(r, 1)
    assert s[2] == c(r, 1) ** 2 - c(r, 2)
    assert s[3] == -c(r, 1) ** 3 + 2 * c(r, 1) * c(r, 2) - c(r, 3)


def test_segre_chern_inversion_exact():
    # (sum s_i t^i)(sum c_j t^j) = 1 up to the truncation degree
    for r in (2, 3, 4):
        max_deg = 7
        s = segre_polys(r, max_deg)
        for k in range(1, max_deg + 1):
            acc = ChernPoly.zero(r)
            for i in range(0, k + 1):
                j = k - i
                if j == 0:
                    acc = acc + s[i]
                elif j <= r:
                    acc = acc + s[i] * c(r, j)
            assert acc.is_zero(), f"degree {k} fails for r={r}"


def test_segre_matches_calibration_identity():
    r = 4
    s = segre_polys(r, 3)
    assert -2 * s[1] ** 3 + s[3] == c(r, 1) ** 3 + 2 * c(r, 1) * c(r, 2) - c(r, 3)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_schur_examples(r):
    assert schur((2,), r) == c(r, 2)
    assert schur((1, 1), r) == c(r, 1) ** 2 - c(r, 2)
    assert schur((1,), r) == c(r, 1)
    assert schur((), r) == ChernPoly.one(r)


def test_schur_part_above_rank_is_zero():
    assert schur((3,), 2).is_zero()
    assert schur((4, 1), 3).is_zero()


def test_gen_schur_examples():
    r = 4
    assert gen_schur((0, 0), r) == ChernPoly.one(r)
    assert gen_schur((-1, 2), r) == -segre_polys(r, 1)[1]
    assert gen_schur((-2, 1), r).is_zero()


def test_gen_schur_negative_total_degree_vanishes():
    r = 3
    for seq in [(-1,), (-2, 1), (0, -3, 1), (-1, -1)]:
        assert gen_schur(seq, r).is_zero()


def test_gen_schur_homogeneous():
    r = 3
    for seq in [(2, 1), (3, -1, 0), (0, 2, 2)]:
        p = gen_schur(seq, r)
        assert p.is_homogeneous()
        if not p.is_zero():
            assert p.degree() == sum(seq)


def test_jacobi_trudi_relation_small():
    # schur(sigma) == (-1)^{|sigma|} gen_schur(sigma_tilde) for a sample
    for r in (2, 3):
        for k in range(0, 5):
            for sigma in partitions_of(k, max_part=r):
                lhs = schur(sigma, r)
                rhs = gen_schur(sigma_tilde(sigma, r), r) * ((-1) ** k)
                assert lhs == rhs


@pytest.mark.parametrize("seq", [(2, 0, 1), (1, 1, 0), (3, -1, 2)])
def test_gen_schur_reversal_identity(seq):
    # reversing an index sequence with the shifted adjustment
    # w'_i = w_{k+1-i} + i - (k+1-i) permutes determinant rows, so it only
    # changes the sign by the reversal parity
    r = 3
    k = len(seq)
    rev = tuple(seq[k - 1 - i] + i - (k - 1 - i) for i in range(k))
    sign = (-1) ** (k * (k - 1) // 2)
    assert gen_schur(rev, r) == gen_schur(seq, r) * sign


@pytest.mark.parametrize(
    "r, lo, hi",
    [(3, -2, 4), (4, -2, 3), (5, -2, 2), (5, -1, 3)],
)
def test_straighten_matches_determinant_on_index_boxes(r, lo, hi):
    # every sequence in {lo..hi}^r, the vanishing ones included: the signed
    # partition from the straightening rule has the same determinant
    for seq in itertools.product(range(lo, hi + 1), repeat=r):
        sign, parts = straighten(seq)
        assert list(parts) == sorted(parts, reverse=True)
        assert all(p > 0 for p in parts)
        assert gen_schur(parts, r) * sign == gen_schur(seq, r), seq


def test_straighten_examples():
    assert straighten((2, 1)) == (1, (2, 1))
    assert straighten((1, 2)) == (0, ())  # l = (1, 1)
    assert straighten((0, 3)) == (-1, (2, 1))  # (0, 3) -> -(3 - 1, 0 + 1)
    assert straighten((1, 0, 0)) == (1, (1,))
    assert straighten((2, -3)) == (0, ())  # sorted last part -3 < 0
    assert straighten(()) == (1, ())


# -- the replaced routes, kept as oracles ------------------------------------


def reference_segre_determinant(parts, r):
    """det(s_{lambda_i + j - i}) of size len(lambda), in the Segre
    polynomials: the route that the smaller determinant replaced on
    partitions."""
    k = len(parts)
    segre = segre_polys(r, parts[0] + k - 1) if parts else []
    rows = [
        [segre[parts[i] + j - i] if parts[i] + j - i >= 0 else None for j in range(k)]
        for i in range(k)
    ]
    return charpoly.det_poly(rows, ChernPoly.one(r), ChernPoly.zero(r))


def reference_chern_determinant(parts, r):
    """det(c_{sigma_i + j - i}) of size len(sigma): the route that the
    smaller determinant replaced in ``schur`` on tall partitions."""
    k = len(parts)
    rows = [[charpoly._chern_entry(r, parts[i] + j - i) for j in range(k)] for i in range(k)]
    return charpoly.det_poly(rows, ChernPoly.one(r), ChernPoly.zero(r))


def test_gen_schur_equals_the_segre_determinant_at_the_smaller_size(monkeypatch):
    # both branches of gen_schur and of schur: the Jacobi-Trudi determinant
    # in the c_j where sigma_1 >= len(sigma), the Segre one otherwise
    references = {
        (sigma.parts, r): reference_segre_determinant(sigma.parts, r)
        for r in range(1, 8)
        for k in range(0, 9)
        for sigma in partitions_of(k)
    }
    chern_references = {
        (sigma.parts, r): reference_chern_determinant(sigma.parts, r)
        for r in range(1, 5)
        for k in range(0, 9)
        for sigma in partitions_of(k)
    }
    sizes = []
    det_poly = charpoly.det_poly

    def recorded(rows, one, zero):
        sizes.append(len(rows))
        return det_poly(rows, one, zero)

    monkeypatch.setattr(charpoly, "det_poly", recorded)
    for evaluate, cases in ((gen_schur, references), (schur, chern_references)):
        for (parts, r), want in cases.items():
            charpoly._schur.cache_clear()
            charpoly._gen_schur.cache_clear()
            sizes.clear()
            assert evaluate(parts, r) == want, (evaluate, parts, r)
            if parts:
                assert max(sizes, default=0) <= min(len(parts), parts[0]), (parts, r, sizes)
    # a long first row, and a long first column, stay 1 x 1 Segre evaluations
    for evaluate, parts, r in ((gen_schur, (30,), 8), (schur, (1,) * 40, 2)):
        charpoly._schur.cache_clear()
        charpoly._gen_schur.cache_clear()
        sizes.clear()
        assert evaluate(parts, r) == segre_polys(r, sum(parts))[sum(parts)]
        assert sizes == [1]


def _monomials_of_degree(r, k):
    """Exponent tuples of weighted degree k, in graded-lex order."""
    out = []

    def rec(pos, remaining, acc):
        if pos == r:
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = pos + 1
        for a in range(remaining // w, -1, -1):
            acc.append(a)
            rec(pos + 1, remaining - w * a, acc)
            acc.pop()

    rec(0, k, [])
    return sorted(out)


def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; raises on singular input."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular transition matrix in Schur basis solve")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[-1] for row in aug]


@functools.lru_cache(maxsize=None)
def _padded_schur(parts, r):
    """The Jacobi-Trudi determinant det(c_{sigma_i + j - i}) with the parts
    of sigma padded by zeros to size |sigma|."""
    k = sum(parts)
    parts = parts + (0,) * (k - len(parts))
    rows = [[charpoly._chern_entry(r, parts[i] + j - i) for j in range(k)] for i in range(k)]
    return charpoly.det_poly(rows, ChernPoly.one(r), ChernPoly.zero(r))


def _dense_decompose(poly, k):
    """Schur coordinates by a dense solve of the whole basis against the
    monomials of degree k, over the padded determinants."""
    r = poly.r
    basis = list(partitions_of(k, max_part=r))
    index = {m: i for i, m in enumerate(_monomials_of_degree(r, k))}
    matrix = [[0] * len(basis) for _ in index]
    for j, sigma in enumerate(basis):
        for exps, coeff in _padded_schur(sigma.parts, r).terms.items():
            matrix[index[exps]][j] = coeff
    rhs = [0] * len(index)
    for exps, coeff in poly.terms.items():
        rhs[index[exps]] = coeff
    return SchurVector(k, r, dict(zip(basis, _solve_exact(matrix, rhs))))


@pytest.mark.parametrize("r", range(1, 6))
def test_schur_equals_the_padded_determinant(r):
    # every partition of weight <= 8, parts above r included: those vanish
    for k in range(0, 9):
        for sigma in partitions_of(k):
            assert schur(sigma, r) == _padded_schur(sigma.parts, r), sigma.parts


@pytest.mark.parametrize("r", range(1, 6))
def test_peeling_equals_the_dense_solve(r):
    # every basis element, and seeded rational combinations of all of them
    rng = random.Random(r)
    for k in range(0, 9):
        polys = [schur(sigma, r) for sigma in partitions_of(k, max_part=r)]
        for _ in range(3):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in polys]
            polys.append(sum((p * a for p, a in zip(polys, coeffs)), ChernPoly.zero(r)))
        for p in polys:
            assert schur_decompose(p, k) == _dense_decompose(p, k), (k, p)


def test_schur_basis_dimension_matches_monomials():
    for r in range(2, 6):
        for k in range(0, 9):
            n_partitions = sum(1 for _ in partitions_of(k, max_part=r))
            assert n_partitions == len(_monomials_of_degree(r, k))


def test_schur_decompose_known_vectors():
    r = 4
    p1 = c(r, 1) ** 3 + 2 * c(r, 1) * c(r, 2) - c(r, 3)
    v1 = schur_decompose(p1)
    assert v1[(3,)] == 2 and v1[(2, 1)] == 4 and v1[(1, 1, 1)] == 1
    p2 = c(r, 1) ** 4 + 3 * c(r, 1) ** 2 * c(r, 2) - 3 * c(r, 1) * c(r, 3) - c(r, 4)
    v2 = schur_decompose(p2)
    assert (
        v2[(3, 1)] == 6
        and v2[(2, 2)] == 5
        and v2[(2, 1, 1)] == 6
        and v2[(1, 1, 1, 1)] == 1
    )


def test_schur_decompose_basis_element_is_indicator():
    r = 4
    v = schur_decompose(schur((2, 1), r))
    assert v[(2, 1)] == 1
    assert all(coeff == (1 if s.parts == (2, 1) else 0) for s, coeff in v.items())


def test_schur_decompose_roundtrip_exact():
    r = 3
    p = 2 * c(r, 1) ** 2 * c(r, 2) - c(r, 2) ** 2 + 5 * c(r, 1) * c(r, 3)
    v = schur_decompose(p)
    assert v.reconstruct() == p


def test_schur_decompose_rejects_inhomogeneous():
    r = 3
    with pytest.raises(ValueError):
        schur_decompose(c(r, 1) + c(r, 2))


def test_chernpoly_json_roundtrip():
    r = 3
    p = c(r, 1) ** 2 * Fraction(1, 2) - c(r, 3) * 7
    data = json.loads(json.dumps(p.to_json()))
    assert ChernPoly.from_json(data) == p


def test_schurvector_json_roundtrip():
    v = SchurVector(3, 4, {(2, 1): Fraction(4), (1, 1, 1): 1})
    data = json.loads(json.dumps(v.to_json()))
    assert SchurVector.from_json(data) == v


def test_cached_values_are_read_only():
    s = schur((1,), 2)
    segre = segre_polys(2, 2)
    with pytest.raises(TypeError):
        s.terms[(1, 0)] = 5
    with pytest.raises(TypeError):
        del segre[1].terms[(1, 0)]
    with pytest.raises(AttributeError):
        segre[1].terms.clear()
    with pytest.raises(AttributeError):
        s.terms = {}
    assert schur((1,), 2) == c(2, 1)
    assert segre_polys(2, 2)[1] == -c(2, 1)
    # results of arithmetic are read-only too
    for p in (s + s, -s, s * 3, s * s):
        with pytest.raises(TypeError):
            p.terms[(0, 1)] = 1


def test_sum_of_fractions_with_an_integral_value_stores_an_int():
    c1 = c(2, 1)
    total = (c1 * Fraction(1, 2) + c1 * Fraction(3, 2)).terms[(1, 0)]
    assert total == 2 and type(total) is int


def test_float_evaluation_does_not_depend_on_the_term_order():
    # equal polynomials whose terms were built in different orders; in
    # floating point (1e16 - 1e16) + 1 is 1 while (1 - 1e16) + 1e16 is 0
    space = GeneratorSpace.base(1)
    terms = [((2, 0), 10**16), ((0, 1), -(10**16)), ((1, 0), 1)]
    polys = [ChernPoly(2, dict(order)) for order in (terms, terms[::-1])]
    assert polys[0] == polys[1] and list(polys[0].terms) != list(polys[1].terms)
    images = [None, ExtForm.scalar(space, 1.0), ExtForm.scalar(space, 1.0)]
    values = [p.evaluate(images, lambda q: ExtForm.scalar(space, q)) for p in polys]
    bits = [{k: repr(complex(v)) for k, v in f.terms.items()} for f in values]
    assert bits[0] == bits[1]


def test_pow_and_arithmetic():
    r = 2
    p = c(r, 1) + 1
    assert p**0 == ChernPoly.one(r)
    assert p**3 == p * p * p
    assert (p - p).is_zero()
    assert p * 0 == ChernPoly.zero(r)


def test_gen_schur_of_embedded_conjugate_matches_conjugate():
    # evaluating the generalized Schur polynomial on the length-r embedding
    # of the conjugate partition gives the same value as on the conjugate
    # itself (the embedding only pads or drops vanishing rows)
    for r in (2, 3):
        for k in range(0, 6):
            for sigma in partitions_of(k, max_part=r):
                conj = sigma.conjugate().parts
                assert gen_schur(sigma_tilde(sigma, r), r) == gen_schur(conj, r)


def test_determinant_leaves_no_reference_cycle(monkeypatch):
    # each call's memo of minors is freed when the call returns, not at the
    # next cyclic garbage collection
    charpoly._schur.cache_clear()
    gc.collect()
    gc.disable()
    try:
        schur((4, 3, 2, 1), 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def assert_same_terms(poly, terms):
    assert list(poly.terms.items()) == list(terms.items())
    assert [type(v) for v in poly.terms.values()] == [type(v) for v in terms.values()]


def assert_least_common_denominator(poly):
    nums, den = poly._numerators()
    assert den == math.lcm(*(Fraction(v).denominator for v in poly.terms.values()))
    assert list(nums) == [int(v * den) for v in poly.terms.values()]


@st.composite
def chern_polys(draw, r, top):
    """A polynomial of rank r with up to four terms, exponents <= top, and
    int or Fraction coefficients, some of them cancelling in products."""
    exps = st.tuples(*[st.integers(0, top)] * r)
    coeff = st.one_of(
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    )
    return ChernPoly(r, draw(st.dictionaries(exps, coeff, max_size=4)))


@st.composite
def product_chains(draw):
    """Rank and three factors: small exponents, so that monomials collide and
    cancel, or exponents up to 100, so that a chain's exponents pass 255."""
    r = draw(st.sampled_from([1, 2, 3, 9]))
    top = draw(st.sampled_from([2, 100]))
    return r, [draw(chern_polys(r, top)) for _ in range(3)]


@DERANDOMIZED
@given(product_chains())
def test_products_equal_the_dict_building_product(chain):
    r, (p, q, s) = chain
    pq = p * q
    pqs = pq * s
    assert_least_common_denominator(pqs)
    expected_pq = reference_product(p, q)
    assert_same_terms(pqs, reference_product(ChernPoly._wrap(r, expected_pq), s))
    assert_same_terms(pq, expected_pq)
    assert_least_common_denominator(pq)


@pytest.mark.parametrize(
    "r, factors",
    [
        # a monomial cancels at its second term and comes back at its third
        (2, [{(2, 0): 1, (1, 1): 1, (0, 2): 1}, {(0, 2): 1, (1, 1): -1, (2, 0): 1}]),
        # Fraction coefficients whose product has integral coefficients only
        (2, [{(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)}, {(0, 1): 2, (1, 0): 4}]),
        (2, [{(1, 0): Fraction(1, 6)}, {(0, 1): Fraction(3, 4), (1, 1): 6}]),
        # exponents passing 127, then 255, in a chain
        (2, [{(127, 0): 1, (0, 1): 1}, {(1, 0): 1}, {(127, 3): -1}]),
        (2, [{(100, 0): 1, (0, 1): 1}, {(100, 0): 1}, {(100, 0): 1}, {(100, 0): 1}]),
        (1, [{(64,): 1}] * 6),
        # nine variables, exponents past 255
        (9, [{(1,) * 9: 1, (0,) * 8 + (2,): Fraction(1, 3)}] * 3),
        (9, [{(120,) * 9: 2}, {(8,) * 9: Fraction(1, 2)}, {(130,) * 9: 1}]),
    ],
)
def test_product_chains_equal_the_dict_building_product(r, factors):
    polys = [ChernPoly(r, f) for f in factors]
    product = expected = polys[0]
    for poly in polys[1:]:
        product = product * poly
        expected = ChernPoly._wrap(r, reference_product(expected, poly))
    assert_least_common_denominator(product)
    assert_same_terms(product, expected.terms)


def test_power_across_the_one_byte_field_equals_repeated_products():
    # the squares of a power double their exponents up to 128
    base = c(2, 1) - Fraction(1, 2) * c(2, 2)
    expected = ChernPoly.one(2)
    for _ in range(130):
        expected = ChernPoly._wrap(2, reference_product(expected, base))
    assert base**130 == expected
