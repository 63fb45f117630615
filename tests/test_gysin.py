import random
import warnings
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from operator import sub

import pytest

from flagforms import exprs, gysin
from flagforms.charpoly import ChernPoly, _over, _straighten_shifted, gen_schur, schur, segre_polys
from flagforms.combinat import (
    as_dimension_sequence,
    complete_sequence,
    dimension_sequences,
    nu_from_rho,
    relative_dimension,
)
from flagforms.gysin import (
    epsilon_for_rank,
    grassmann_c1c2_pushforward,
    oracle_calibration_sign,
    pushforward_dp,
    pushforward_oracle,
    pushforward_oracle_symmetric,
    schur_via_flag,
)
from flagforms.rootcalc import (
    RootPoly,
    _elementary,
    _resolve_symbol,
    block_symmetrize,
    expand_expression,
    universal_chern_class,
)


def c(r, j):
    return ChernPoly.gen(r, j)


def mono(r, exps):
    return RootPoly(r, {tuple(exps): 1})


def test_dp_complete_flag_rank2():
    rho = complete_sequence(2)
    assert pushforward_dp(mono(2, (0, 2)), rho) == -c(2, 1)  # s_1
    assert pushforward_dp(mono(2, (1, 1)), rho).is_zero()
    assert pushforward_dp(mono(2, (0, 1)), rho) == ChernPoly.one(2)
    assert pushforward_dp(mono(2, (1, 0)), rho) == -ChernPoly.one(2)


def test_dp_degree_bookkeeping():
    rho = complete_sequence(3)
    low = pushforward_dp(mono(3, (1, 0, 0)), rho)
    assert low.is_zero()  # degree < relative dimension
    out = pushforward_dp(mono(3, (1, 2, 3)), rho)
    assert out.is_zero() or out.degree() == 6 - 3


def test_dp_rank4_identity():
    rho = (0, 1, 4)
    F = expand_expression("c1(Q1)^2*c2(Q1)^2", rho)
    assert pushforward_dp(F, rho) == c(4, 1) ** 3 + 2 * c(4, 1) * c(4, 2) - c(4, 3)


def test_oracle_examples_rank2():
    rho = complete_sequence(2)
    assert pushforward_oracle(mono(2, (0, 1)), rho) == ChernPoly.one(2)
    assert pushforward_oracle(mono(2, (0, 3)), rho) == c(2, 1) ** 2 - c(2, 2)  # s_2
    assert pushforward_oracle(mono(2, (0, 0)), rho).is_zero()  # degree < d


def test_oracle_calibration_sign_is_unit():
    for rho in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3), (0, 2, 4)]:
        assert oracle_calibration_sign(rho) in (1, -1)


def test_oracle_warns_and_symmetrizes_on_partial_flags():
    rho = (0, 1, 3)
    p = mono(3, (3, 0, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = pushforward_oracle(p, rho)
    assert any("block-symmetric" in str(w.message) for w in caught)
    sym = block_symmetrize(p, rho)
    assert out == pushforward_oracle_symmetric(sym, rho)
    assert out == pushforward_dp(sym, rho)


def test_oracle_rejects_large_rank():
    rho = tuple(range(8))
    with pytest.raises(ValueError):
        pushforward_oracle(RootPoly.one(7), rho)


def test_oracle_equals_dp_complete_rank3_sample():
    rho = complete_sequence(3)
    for exps in [(0, 1, 2), (0, 0, 3), (1, 1, 4), (2, 2, 2), (0, 2, 4)]:
        F = mono(3, exps)
        assert pushforward_oracle(F, rho) == pushforward_dp(F, rho)


def test_segre_reproduction_over_hyperplane_bundle():
    # push of c_1(O(1))^{r-1+k} over the bundle of hyperplanes gives the
    # signed Segre polynomial of degree k
    r = 3
    rho = (0, r - 1, r)
    segre = segre_polys(r, 4)
    # O(1) on hyperplanes is the quotient U_2/U_1 of rank 1 carrying the
    # root block {1}: c_1 = -xi_1
    for k in range(0, 4):
        F = expand_expression(f"c1(U2/U1)^{r - 1 + k}", rho)
        pushed = pushforward_dp(F, rho)
        expect = segre[k] * ((-1) ** k)
        assert pushed == expect, f"k={k}: {pushed} vs {expect}"


def test_projection_compatibility_segre_case():
    # the same signed Segre forms arise from the complete flag (through the
    # column partitions (1,...,1)) and from the hyperplane bundle, so the
    # two flag types agree on this family up to the recorded global sign
    r = 3
    rho_hyp = (0, r - 1, r)
    for k in range(0, 4):
        sigma = (1,) * k
        via_flag, report = schur_via_flag(sigma, r)
        F = expand_expression(f"c1(U2/U1)^{r - 1 + k}", rho_hyp)
        via_hyperplane = pushforward_dp(F, rho_hyp)
        assert via_hyperplane == schur(sigma, r)
        assert via_flag == via_hyperplane * report["epsilon"]


@pytest.mark.parametrize("r,expected", [(2, -1), (3, -1), (4, 1)])
def test_epsilon_is_constant_and_matches(r, expected):
    assert epsilon_for_rank(r, max_weight=3) == expected


def test_schur_via_flag_values():
    for r in (2, 3):
        eps = epsilon_for_rank(r, max_weight=2)
        for sigma in [(1,), (1, 1), (2,)]:
            pushed, report = schur_via_flag(sigma, r)
            assert report["epsilon"] == eps
            assert pushed == schur(sigma, r) * eps


def test_schur_via_flag_rejects_bad_partition():
    with pytest.raises(ValueError):
        schur_via_flag((3,), 2)


def test_grassmann_pushforward_builtin_cases():
    cases = {
        (2, 3, 2): c(4, 1) ** 3 - c(4, 3),
        (2, 4, 2): c(4, 1) ** 4 - 3 * c(4, 1) * c(4, 3) + 2 * c(4, 4),
        (1, 2, 2): c(4, 1) ** 3 + 2 * c(4, 1) * c(4, 2) - c(4, 3),
    }
    for (s, alpha, beta), expected in cases.items():
        pushed, vec = grassmann_c1c2_pushforward(4, 4, s, alpha, beta)
        assert pushed == expected
        assert all(coeff > 0 for _, coeff in vec.items())


def test_grassmann_pushforward_constraints():
    with pytest.raises(ValueError):
        grassmann_c1c2_pushforward(4, 4, 2, 3, 3)  # beta > 2
    with pytest.raises(ValueError):
        grassmann_c1c2_pushforward(4, 4, 2, 0, 1)  # alpha + 2 beta < s(r-s)
    with pytest.raises(ValueError):
        grassmann_c1c2_pushforward(4, 4, 2, 9, 0)  # above n + s(r-s)
    with pytest.raises(ValueError):
        grassmann_c1c2_pushforward(4, 4, 4, 1, 1)  # s out of range


def test_oracle_reproduces_rank4_identity_end_to_end():
    # the same push that the determinantal rule computes for the built-in
    # rank-4 identity, through the independent symmetrizer route
    rho = (0, 1, 4)
    F = expand_expression("c1(Q1)^2*c2(Q1)^2", rho)
    expected = c(4, 1) ** 3 + 2 * c(4, 1) * c(4, 2) - c(4, 3)
    assert pushforward_oracle(F, rho) == expected


def test_oracle_equals_dp_rank5_spot_checks():
    # the symmetrizer stays exact beyond the exhaustive rank-4 sweep
    from flagforms.combinat import DimensionSequence
    from flagforms.gysin import pushforward_oracle_symmetric

    rho = DimensionSequence((0, 2, 5))
    for exps in [(6, 0, 0, 0, 0), (2, 2, 2, 1, 0), (0, 0, 3, 2, 2)]:
        F = block_symmetrize(mono(5, exps), rho)
        assert pushforward_oracle_symmetric(F, rho) == pushforward_dp(F, rho)
    rho5 = complete_sequence(5)
    for exps in [(0, 1, 2, 3, 4), (0, 0, 2, 4, 5), (1, 1, 2, 3, 4)]:
        F = mono(5, exps)
        assert pushforward_oracle_symmetric(F, rho5) == pushforward_dp(F, rho5)


def test_oracle_linear():
    rho = complete_sequence(3)
    a = mono(3, (0, 1, 2))
    b = mono(3, (0, 0, 3))
    combo = a * 3 + b * (-2)
    lhs = pushforward_oracle(combo, rho)
    rhs = pushforward_oracle(a, rho) * 3 - pushforward_oracle(b, rho) * 2
    assert lhs == rhs


@pytest.mark.parametrize(
    "rho, e_power, fiber_dim", [((0, 2, 5, 7), 2, 16), ((0, 2, 5, 8), 3, 21)]
)
def test_projection_formula_on_large_flag_pushes(rho, e_power, fiber_dim):
    # beyond the oracle's rank: pi_*(pi^* c1(E)^e * G) = c1(E)^e * pi_*(G).
    # The E-free factor G has degree 20, so its push has degree 20 - d and
    # vanishes over (0,2,5,8), where d = 21.
    from flagforms.combinat import relative_dimension

    assert relative_dimension(rho) == fiber_dim
    free = "c1(U2/U1)^10*c2(U1)^5"
    full = pushforward_dp(expand_expression(f"{free}*c1(E)^{e_power}", rho), rho)
    pushed_free = pushforward_dp(expand_expression(free, rho), rho)
    assert full == pushed_free * c(rho[-1], 1) ** e_power
    if fiber_dim > 20:
        assert full.is_zero()
    else:
        assert pushed_free.degree() == 20 - fiber_dim
        assert not full.is_zero()


def test_dp_warns_only_on_non_block_symmetric_input():
    rho = (0, 1, 3)  # roots 1 and 2 share a block
    symmetric = mono(3, (3, 0, 1)) + mono(3, (0, 3, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pushforward_dp(symmetric, rho)
        pushforward_dp(expand_expression("c1(U1)^2*c2(E)", rho), rho)
    # same support as the symmetric input, but unequal coefficients
    skewed = mono(3, (3, 0, 1)) + mono(3, (0, 3, 1)) * 2
    for F in (mono(3, (3, 0, 1)), skewed):
        with pytest.warns(UserWarning, match="not block-symmetric"):
            pushforward_dp(F, rho)


def test_dp_checks_block_symmetry_only_of_polynomials_it_did_not_expand(monkeypatch):
    calls = []
    check = gysin.is_block_symmetric

    def counted(F, rho):
        calls.append(rho)
        return check(F, rho)

    monkeypatch.setattr(gysin, "is_block_symmetric", counted)
    rho = (0, 1, 3)
    expanded = expand_expression("c1(U1)^2*c2(E)", rho)
    pushforward_dp(expanded, rho)
    assert calls == []
    # the same terms built by a caller, and an expansion pushed at another
    # flag type of the same rank, are checked
    built = RootPoly(3, expanded.terms)
    assert pushforward_dp(built, rho) == pushforward_dp(expanded, rho)
    assert len(calls) == 1
    pushforward_dp(expand_expression("c1(E)^3*c2(E)", rho), (0, 2, 3))
    assert len(calls) == 2
    # arithmetic on an expansion drops the mark
    pushforward_dp(expanded * expanded, rho)
    assert len(calls) == 3


def tuple_loop_push(F, rho):
    """``pushforward_dp`` as it read its input: one exponent tuple of
    ``F.terms`` at a time, its shifted entries tested for a repeat in a set."""
    rho = as_dimension_sequence(rho)
    r = rho.r
    offsets = [x + i for i, x in enumerate(nu_from_rho(rho)[::-1])]
    nums, den = F._numerators()
    by_partition = {}
    for exps, num in zip(F.terms, nums):
        shifted = tuple(map(sub, exps[::-1], offsets))
        if len(set(shifted)) < r:
            continue
        sign, parts = _straighten_shifted(shifted)
        if sign:
            by_partition[parts] = by_partition.get(parts, 0) + sign * num
    acc = ChernPoly.zero(r)
    for parts, num in by_partition.items():
        if num:
            acc = acc + gen_schur(parts, r) * num
    return ChernPoly._wrap(r, dict(zip(acc.terms, _over(acc.terms.values(), den))))


def vanishing_monomial(rho, big):
    """A monomial with exponents near ``big`` whose shifted entries l_0 and
    l_1 are equal, so that its push vanishes."""
    rho = as_dimension_sequence(rho)
    r = rho.r
    offsets = [x + i for i, x in enumerate(nu_from_rho(rho)[::-1])]
    exps = [0] * r
    exps[r - 1], exps[r - 2] = big + offsets[0], big + offsets[1]
    return mono(r, exps)


MONOMIAL_PUSH_CASES = [
    ((0, 1, 4), "c1(Q1)^3*c2(Q1)^2"),
    ((0, 1, 2, 4), "2/3*c1(U2/U1)^3*c1(U1)^2*c2(E) - 5/4*c1(U1)^4*c2(U3/U2)*c1(E)"),
    ((0, 2, 5), "7/3*c1(Q2)^5*c2(Q2)^2*c3(Q2)"),
    ((0, 2, 5, 7), "3/2*c1(U2/U1)^10*c2(U1)^5*c1(E)^2"),
    ((0, 2, 5, 8), "c1(U2/U1)^6*c2(U1)^4*c1(E)^3"),
    # exponents past 127
    ((0, 1, 2), "c1(Q1)^127*c1(E)^2"),
    ((0, 1, 2), "c1(Q1)^129 - 1/2*c2(E)^64*c1(E)"),
    # r = 9
    ((0, 8, 9), "c1(Q8)^10 + 5*c2(E)*c1(Q8)^8 - c1(U1)*c1(Q8)^9"),
    ((0, 1, 9), "c1(U1)^2*c1(Q1)^7"),
]


@pytest.mark.parametrize("rho, text", MONOMIAL_PUSH_CASES)
def test_push_from_packed_exponents_equals_the_tuple_loop(monkeypatch, rho, text):
    straightened = []

    def recorded(shifted):
        straightened.append(tuple(shifted))
        return _straighten_shifted(shifted)

    monkeypatch.setattr(gysin, "_straighten_shifted", recorded)
    F = expand_expression(text, rho)
    # a caller-built copy takes the monomial route
    pushed = pushforward_dp(RootPoly(F.r, F.terms), rho)
    # only the sequences with distinct shifted entries are straightened
    offsets = [x + i for i, x in enumerate(nu_from_rho(rho)[::-1])]
    rows = [tuple(map(sub, exps[::-1], offsets)) for exps in F.terms]
    assert straightened == [row for row in rows if len(set(row)) == len(row)]
    expected = tuple_loop_push(F, rho)
    assert list(pushed.terms.items()) == list(expected.terms.items())
    assert [type(v) for v in pushed.terms.values()] == [type(v) for v in expected.terms.values()]


@pytest.mark.parametrize("r", [2, 9])
def test_push_of_large_exponents_equals_the_tuple_loop(r):
    # caller-built input over the complete flag: monomials with exponents
    # past 127, which vanish, beside the reference monomial xi^nu,
    # whose push is 1, and at r = 2 a monomial whose push does not vanish
    rho = complete_sequence(r)
    F = RootPoly(r, {tuple(nu_from_rho(rho)): 3})
    for big in (128, 255, 300):
        F = F + vanishing_monomial(rho, big)
    if r == 2:
        F = F + mono(2, (130, 1)) * Fraction(-2, 3)
    pushed, expected = pushforward_dp(F, rho), tuple_loop_push(F, rho)
    assert list(pushed.terms.items()) == list(expected.terms.items())
    assert not pushed.is_zero()


def test_push_of_an_expansion_leaves_its_terms_unbuilt():
    rho = (0, 2, 5, 7)
    F = expand_expression("c1(U2/U1)^10*c2(U1)^5*c1(E)^2", rho)
    pushed = pushforward_dp(F, rho)
    assert F._terms is None
    assert pushed == tuple_loop_push(F, rho)


def bundle_texts(rho):
    """(text, rank) of every universal bundle U_l / U_ell of rho."""
    m = rho.m
    out = []
    for ell in range(m):
        for l in range(ell + 1, m + 1):
            text = "E" if (ell, l) == (0, m) else f"U{l}" if ell == 0 else f"U{l}/U{ell}"
            out.append((text, rho[l] - rho[ell]))
    if m == 2:
        out.append((f"Q{rho[1]}", rho[2] - rho[1]))
    return out


def random_expression(rng, rho):
    """A sum of two or three rational multiples of products of Chern
    classes, of degrees from the fiber dimension to two above it."""
    bundles = bundle_texts(rho)
    d = relative_dimension(rho)
    out = ""
    for _ in range(rng.randint(2, 3)):
        target, deg, factors = d + rng.randint(0, 2), 0, []
        while deg < target:
            text, rank = rng.choice(bundles)
            j, e = rng.randint(1, rank), rng.randint(1, 2)
            factors.append(f"c{j}({text})^{e}")
            deg += j * e
        coeff = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        out += f" {rng.choice('+-')} {coeff}*" + "*".join(factors)
    return "0" + out


def eager_expansion(text, rho):
    """The root expansion built atom by atom in the roots."""
    rho = as_dimension_sequence(rho)
    return exprs.evaluate(
        exprs.parse(text),
        const=lambda q: RootPoly.const(rho.r, q),
        chern=lambda j, ref: universal_chern_class(_resolve_symbol(j, ref, rho), j),
    )


SMALL_FLAG_TYPES = [rho for r in range(2, 6) for rho in dimension_sequences(r, min_steps=2)]


@pytest.mark.parametrize("rho", SMALL_FLAG_TYPES, ids=str)
def test_block_schur_push_equals_the_monomial_push(rho):
    rng = random.Random(f"block-schur {rho.rho}")
    for _ in range(3):
        text = random_expression(rng, rho)
        F = expand_expression(text, rho)
        pushed = pushforward_dp(F, rho)
        assert F._terms is None
        eager = eager_expansion(text, rho)
        assert F.is_zero() == eager.is_zero()
        assert F._terms is None
        # the terms built on read are the eager ones, coefficient types included
        assert F.terms == eager.terms
        assert {e: type(c) for e, c in F.terms.items()} == {e: type(c) for e, c in eager.terms.items()}
        expected = pushforward_dp(RootPoly(F.r, F.terms), rho)
        assert pushed == expected
        assert {e: type(c) for e, c in pushed.terms.items()} == {e: type(c) for e, c in expected.terms.items()}


@pytest.mark.parametrize("k", range(1, 7))
def test_grassmannian_degrees_are_the_standard_tableau_counts(k):
    # deg G(k, 2k) = number of standard tableaux of the k x k square; the
    # hook of box (i, j) has length i + j - 1 counted from the far corner
    # (Frame, Robinson and Thrall, Canad. J. Math. 6, 1954)
    rho = (0, k, 2 * k)
    F = expand_expression(f"c1(Q{k})^{k * k}", rho)
    hooks = prod(i + j - 1 for i in range(1, k + 1) for j in range(1, k + 1))
    assert pushforward_dp(F, rho) == ChernPoly.const(2 * k, factorial(k * k) // hooks)
    assert F._terms is None


# -- the replaced Weyl-oracle routines, kept as oracles ------------------------


def max_scan_divide_linear(poly, i, j):
    """Division by (xi_i - xi_j) that rescans for the largest xi_i-exponent
    at every step."""
    work = dict(poly.terms)
    out = {}
    while work:
        exps = max(work, key=lambda e: e[i - 1])
        coeff = work.pop(exps)
        if exps[i - 1] == 0:
            raise ArithmeticError("non-exact Vandermonde division")
        q = list(exps)
        q[i - 1] -= 1
        out[tuple(q)] = out.get(tuple(q), 0) + coeff
        q[j - 1] += 1
        new = work.get(tuple(q), 0) + coeff
        if new == 0:
            work.pop(tuple(q), None)
        else:
            work[tuple(q)] = new
    return RootPoly(poly.r, out)


def peeling_symmetric_to_chern(poly):
    """The rewrite in e_j(-xi) that subtracts each leading product from a
    fresh copy of the remainder."""
    r = poly.r
    work = RootPoly(r, {e: c * (-1) ** sum(e) for e, c in poly.terms.items()})
    result = ChernPoly.zero(r)
    elem = [_elementary(r, range(1, r + 1), j, negate=False) for j in range(r + 1)]
    while not work.is_zero():
        exps = max(work.terms)
        coeff = work.terms[exps]
        if any(exps[i] < exps[i + 1] for i in range(r - 1)):
            raise ArithmeticError("not symmetric")
        chern_exps = [exps[i] - exps[i + 1] for i in range(r - 1)] + [exps[r - 1]]
        result = result + ChernPoly(r, {tuple(chern_exps): coeff})
        prod = RootPoly.const(r, coeff)
        for j, mult in enumerate(chern_exps, start=1):
            prod = prod * elem[j] ** mult
        work = work - prod
    return result


def test_weyl_division_and_rewrite_equal_the_replaced_routes(monkeypatch):
    divide, rewrite = gysin._divide_linear, gysin._symmetric_to_chern
    seen = {"divide": 0, "rewrite": 0}

    def checked_divide(poly, i, j):
        seen["divide"] += 1
        out = divide(poly, i, j)
        assert out == max_scan_divide_linear(poly, i, j)
        return out

    def checked_rewrite(poly):
        seen["rewrite"] += 1
        out = rewrite(poly)
        assert out == peeling_symmetric_to_chern(poly)
        return out

    monkeypatch.setattr(gysin, "_divide_linear", checked_divide)
    monkeypatch.setattr(gysin, "_symmetric_to_chern", checked_rewrite)
    for r in (2, 3, 4):
        for rho in dimension_sequences(r, min_steps=2):
            deg = relative_dimension(rho) + 2
            for combo in combinations_with_replacement(range(r), deg):
                exps = [combo.count(i) for i in range(r)]
                F = mono(r, exps) * Fraction(3, 2) - mono(r, [deg - 1] + [0] * (r - 2) + [1])
                pushforward_oracle_symmetric(block_symmetrize(F, rho), rho)
    assert seen["divide"] > 1000 and seen["rewrite"] > 200


def test_weyl_routines_reject_what_the_replaced_routes_reject():
    x1 = mono(3, (1, 0, 0))
    with pytest.raises(ArithmeticError):
        gysin._divide_linear(x1 + mono(3, (0, 0, 1)), 1, 2)
    with pytest.raises(ArithmeticError):
        max_scan_divide_linear(x1 + mono(3, (0, 0, 1)), 1, 2)
    with pytest.raises(ArithmeticError):
        gysin._symmetric_to_chern(x1)
    with pytest.raises(ArithmeticError):
        peeling_symmetric_to_chern(x1)
    assert gysin._divide_linear(x1 - mono(3, (0, 1, 0)), 1, 2) == RootPoly.one(3)
