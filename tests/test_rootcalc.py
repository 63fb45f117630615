from itertools import combinations

import pytest

from flagforms.combinat import DimensionSequence, complete_sequence, dimension_sequences
from flagforms.rootcalc import (
    RootPoly,
    UniversalBundleSpec,
    apply_permutation,
    block_symmetrize,
    expand_expression,
    is_block_symmetric,
    universal_chern_class,
    universal_total_chern,
)


def xi(r, i):
    return RootPoly.gen(r, i)


def test_spec_validation():
    rho = DimensionSequence((0, 1, 3))
    spec = UniversalBundleSpec(rho, 0, 1)
    assert spec.rank == 1
    assert spec.block() == (3,)
    with pytest.raises(ValueError):
        UniversalBundleSpec(rho, 1, 1)
    with pytest.raises(ValueError):
        UniversalBundleSpec(rho, 0, 3)


def test_complete_flag_successive_quotient_roots():
    # c_1(U_{r-l+1}/U_{r-l}) = -xi_l over the complete flag
    r = 4
    rho = complete_sequence(r)
    for l in range(1, r + 1):
        spec = UniversalBundleSpec(rho, r - l, r - l + 1)
        assert universal_chern_class(spec, 1) == -xi(r, l)


def test_full_block_total_chern():
    r = 3
    rho = DimensionSequence((0, 1, 3))
    spec = UniversalBundleSpec(rho, 0, 2)
    total = universal_total_chern(spec)
    expect = RootPoly.one(r)
    for i in range(1, r + 1):
        expect = expect * (RootPoly.one(r) - xi(r, i))
    assert total == expect


def test_whitney_nested_triples():
    for r in (3, 4):
        for rho in dimension_sequences(r, min_steps=2):
            m = rho.m
            for ell in range(0, m + 1):
                for mid in range(ell + 1, m + 1):
                    for top in range(mid + 1, m + 1):
                        a = universal_total_chern(UniversalBundleSpec(rho, ell, mid))
                        b = universal_total_chern(UniversalBundleSpec(rho, mid, top))
                        c = universal_total_chern(UniversalBundleSpec(rho, ell, top))
                        assert a * b == c


def test_expand_examples():
    # lines in a rank-2 bundle: c_1(U_1) = -xi_2
    out = expand_expression("c1(U1)", (0, 1, 2))
    assert out == -xi(2, 2)
    # quotient over the projective bundle of lines in rank 4
    out = expand_expression("c2(Q1)", (0, 1, 4))
    expect = RootPoly.zero(4)
    for i, j in combinations(range(1, 4), 2):
        expect = expect + xi(4, i) * xi(4, j)
    assert out == expect
    # the pulled-back bundle itself
    out = expand_expression("c1(E)", (0, 1, 4))
    assert out == -(xi(4, 1) + xi(4, 2) + xi(4, 3) + xi(4, 4))


def test_expand_is_ring_homomorphism():
    rho = (0, 1, 3)
    lhs = expand_expression("(c1(Q1) + c1(U1))^2", rho)
    rhs = (
        expand_expression("c1(Q1)^2", rho)
        + 2 * expand_expression("c1(Q1)*c1(U1)", rho)
        + expand_expression("c1(U1)^2", rho)
    )
    assert lhs == rhs


def test_expand_rejects_bad_indices():
    with pytest.raises(ValueError):
        expand_expression("c3(Q2)", (0, 2, 4))  # rank of Q_2 is 2
    with pytest.raises(ValueError):
        expand_expression("c1(U3)", (0, 1, 3))  # filtration index out of range
    with pytest.raises(ValueError):
        expand_expression("c1(Q2)", (0, 1, 4))  # Q_2 needs rho = (0,2,4)


def test_expansion_names_the_bundle_whose_rank_is_exceeded():
    rho = (0, 1, 3)
    cases = (("c1(U1) + c4(U2)", "c4(U2): rank of the bundle is 3"), ("c2(U1)", "c2(U1): rank of the bundle is 1"))
    for text, message in cases:
        with pytest.raises(ValueError) as exc:
            expand_expression(text, rho)
        assert str(exc.value) == message


def test_block_symmetry_of_expansion():
    # expansions of Chern-class expressions are invariant under root
    # permutations within each block
    rho = DimensionSequence((0, 2, 4))
    out = expand_expression("c1(Q2)^2*c2(U1)", rho)
    assert is_block_symmetric(out, rho)


def test_block_symmetrize_projects():
    rho = DimensionSequence((0, 1, 3))
    p = xi(3, 1) ** 2
    sym = block_symmetrize(p, rho)
    assert is_block_symmetric(sym, rho)
    assert block_symmetrize(sym, rho) == sym


def test_apply_permutation_relabels():
    r = 3
    p = xi(r, 1) ** 2 * xi(r, 3)
    w = (2, 1, 3)
    assert apply_permutation(p, w) == xi(r, 2) ** 2 * xi(r, 3)


def test_rootpoly_json_roundtrip():
    import json

    p = xi(3, 1) * xi(3, 2) - 2 * xi(3, 3)
    data = json.loads(json.dumps(p.to_json()))
    assert RootPoly.from_json(data) == p
