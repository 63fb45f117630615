import functools
import gc
import itertools
import json
import random
from fractions import Fraction

import pytest

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
    monkeypatch.setattr(charpoly, "_SCHUR_CACHE", {})
    gc.collect()
    gc.disable()
    try:
        schur((4, 3, 2, 1), 5)
        assert gc.collect() == 0
    finally:
        gc.enable()
