import pytest

from flagforms.combinat import (
    DimensionSequence,
    Partition,
    admissible_pairs,
    complete_sequence,
    conjugate,
    dimension_sequences,
    lambda_from_sigma_tilde,
    nu_from_rho,
    partitions_of,
    perm_sign,
    relative_dimension,
    reverse,
    root_blocks,
    sigma_tilde,
)


def test_partition_validation():
    assert Partition((2, 1, 0)).parts == (2, 1)
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_dimension_sequence_validation():
    assert DimensionSequence((0, 1, 3)).m == 2
    with pytest.raises(ValueError):
        DimensionSequence((0, 2, 2))
    with pytest.raises(ValueError):
        DimensionSequence((1, 2))
    with pytest.raises(ValueError):
        DimensionSequence((0,))


@pytest.mark.parametrize(
    "sigma,expected",
    [((3, 1), (2, 1, 1)), ((1, 1), (2,)), ((), ())],
)
def test_conjugate_examples(sigma, expected):
    assert conjugate(sigma).parts == expected


def test_conjugate_involution():
    for k in range(0, 9):
        for sigma in partitions_of(k):
            assert sigma.conjugate().conjugate() == sigma


@pytest.mark.parametrize(
    "sigma,r,expected",
    [
        ((1,), 2, (1, 0)),
        ((1, 1), 2, (2, 0)),
        ((2, 1, 1, 1), 3, (4, 1, 0)),
    ],
)
def test_sigma_tilde_examples(sigma, r, expected):
    assert sigma_tilde(sigma, r) == expected


def test_sigma_tilde_rejects_large_parts():
    with pytest.raises(ValueError):
        sigma_tilde((3,), 2)


@pytest.mark.parametrize(
    "st,expected",
    [((1, 0), (0, 2)), ((0, 0, 0), (0, 1, 2)), ((2, 0), (0, 3))],
)
def test_lambda_from_sigma_tilde(st, expected):
    assert lambda_from_sigma_tilde(st) == expected


@pytest.mark.parametrize(
    "rho,expected",
    [
        ((0, 1, 2, 3, 4), (0, 1, 2, 3)),
        ((0, 1, 3), (0, 0, 2)),
        ((0, 2, 4), (0, 0, 2, 2)),
    ],
)
def test_nu_examples(rho, expected):
    assert nu_from_rho(rho) == expected


def test_nu_sums_to_relative_dimension_exhaustive():
    for r in range(1, 7):
        for rho in dimension_sequences(r):
            assert sum(nu_from_rho(rho)) == relative_dimension(rho)


def test_nu_nondecreasing():
    for r in range(1, 7):
        for rho in dimension_sequences(r):
            nu = nu_from_rho(rho)
            assert all(a <= b for a, b in zip(nu, nu[1:]))


def test_admissible_pairs_examples():
    assert admissible_pairs((0, 1, 2)) == [(1, 2)]
    assert admissible_pairs((0, 1, 2, 3)) == [(1, 2), (1, 3), (2, 3)]
    # per the defining condition, (0,1,3) has the coordinates of the
    # projective plane of lines: (lam, 3) for lam = 1, 2
    assert admissible_pairs((0, 1, 3)) == [(1, 3), (2, 3)]


def test_complete_flag_pair_count():
    for r in range(2, 7):
        assert len(admissible_pairs(complete_sequence(r))) == r * (r - 1) // 2


@pytest.mark.parametrize(
    "rho,expected",
    [((0, 1, 2, 3), 3), ((0, 1, 5), 4), ((0, 2, 4), 4)],
)
def test_relative_dimension_examples(rho, expected):
    assert relative_dimension(rho) == expected


def test_reverse():
    assert reverse((0, 1)) == (1, 0)
    assert reverse((2, -1)) == (-1, 2)
    assert reverse(()) == ()
    assert reverse(reverse((5, -2, 7))) == (5, -2, 7)


def test_root_blocks_partition_everything():
    for r in range(2, 6):
        for rho in dimension_sequences(r):
            blocks = root_blocks(rho)
            flat = [i for b in blocks for i in b]
            assert sorted(flat) == list(range(1, r + 1))
            assert [len(b) for b in blocks] == [
                rho[l] - rho[l - 1] for l in range(1, rho.m + 1)
            ]


def test_partition_json_drops_trailing_zeros():
    assert Partition((2, 1, 0, 0)).to_json() == [2, 1]


def test_perm_sign_is_the_permutation_matrix_determinant():
    from itertools import permutations

    import numpy as np

    for k in range(5):
        for w in permutations(range(k)):
            det = round(np.linalg.det(np.eye(k)[list(w)])) if k else 1
            assert perm_sign(w) == det
            # 1-based one-line notation gives the same sign
            assert perm_sign(x + 1 for x in w) == det
