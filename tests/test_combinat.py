import math
from itertools import combinations, permutations

import numpy as np
import pytest
from test_formlab import permutation_wedge_det

from flagforms.charpoly import ChernPoly, _chern_entry, segre_polys
from flagforms.combinat import (
    DimensionSequence,
    Partition,
    admissible_pairs,
    bitmask,
    complete_sequence,
    conjugate,
    dimension_sequences,
    lambda_from_sigma_tilde,
    laplace_minors,
    mask_indices,
    nu_from_rho,
    partitions_of,
    perm_sign,
    relative_dimension,
    reverse,
    root_blocks,
    sigma_tilde,
)
from flagforms.formlab import ExtForm, GeneratorSpace


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


def _recursive_partitions(k, max_part, max_length):
    """The recursive generator, one frame per part: the order oracle."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1) if max_length else ():
        for rest in _recursive_partitions(k - first, first, max_length - 1):
            yield (first,) + rest


def test_partitions_come_in_the_order_of_the_recursive_generator():
    for k in range(16):
        for max_part in (None, 0, 1, 2, 3, 5, 16):
            for max_length in (None, 0, 1, 2, 4, 7, 16):
                got = [p.parts for p in partitions_of(k, max_part, max_length)]
                want = _recursive_partitions(k, k if max_part is None else max_part,
                                             k if max_length is None else max_length)
                assert got == list(want), (k, max_part, max_length)


def test_partitions_with_more_parts_than_the_recursion_limit():
    ones = list(partitions_of(1100, max_part=1))
    assert [p.parts for p in ones] == [(1,) * 1100]
    tall = partitions_of(1100, max_part=2)
    assert next(tall).parts == (2,) * 550
    assert sum(1 for _ in tall) == 550


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
    for k in range(5):
        for w in permutations(range(k)):
            det = round(np.linalg.det(np.eye(k)[list(w)])) if k else 1
            assert perm_sign(w) == det
            # 1-based one-line notation gives the same sign
            assert perm_sign(x + 1 for x in w) == det


# -- Laplace minors against the Leibniz sum ----------------------------------


def _leibniz_minors(rows, ncols, one, zero):
    """Every minor that ``laplace_minors`` may hold, as a permutation sum:
    cols -> (the minor of the last popcount(cols) rows on cols, whether
    some permutation term has no None entry)."""
    k = len(rows)
    out = {}
    for cols in range(1 << ncols):
        idx = mask_indices(cols)
        if len(idx) > k:
            continue
        sub = [[rows[i][j] for j in idx] for i in range(k - len(idx), k)]
        expandable = any(
            all(row[j] is not None for row, j in zip(sub, perm)) for perm in permutations(range(len(idx)))
        )
        out[cols] = (
            permutation_wedge_det([[zero if e is None else e for e in row] for row in sub], one, zero),
            expandable,
        )
    return out


def test_laplace_minors_of_jacobi_trudi_and_segre_matrices_match_the_leibniz_sum():
    # c_{lambda_i + j - i} and s_{lambda_i + j - i} with None outside 0..r
    # and below 0; a minor is left out exactly when every permutation term
    # meets a None, and the Segre matrices have minors that cancel to zero
    cancelled = 0
    for r in range(1, 5):
        one, zero = ChernPoly.one(r), ChernPoly.zero(r)
        segre = segre_polys(r, 12)
        for lam in (lam for k in range(7) for lam in partitions_of(k)):
            size = len(lam)
            shifted = [[lam[i] + j - i for j in range(size)] for i in range(size)]
            for rows in (
                [[_chern_entry(r, x) for x in row] for row in shifted],
                [[segre[x] if x >= 0 else None for x in row] for row in shifted],
            ):
                got = laplace_minors(rows, size, one, zero)
                for cols, (want, expandable) in _leibniz_minors(rows, size, one, zero).items():
                    assert (cols in got) == expandable, (lam, r, cols)
                    assert got.get(cols, zero) == want, (lam, r, cols)
                    cancelled += expandable and want.is_zero()
    assert cancelled


def _random_form(rng, space):
    terms = {}
    for a, b in rng.integers(0, len(space), (3, 2)):
        terms[1 << int(a), 1 << int(b)] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return ExtForm(space, terms)


def test_laplace_minors_of_per_sample_forms_match_the_leibniz_sum():
    rng = np.random.default_rng(3)
    space = GeneratorSpace.base(4)
    one, zero = ExtForm.one(space), ExtForm.zero(space)
    for k in range(1, 5):
        # three random (1,1) terms per entry, each with three samples
        rows = [[_random_form(rng, space) for _ in range(k)] for _ in range(k)]
        got = laplace_minors(rows, k, one, zero)
        for cols, (want, _) in _leibniz_minors(rows, k, one, zero).items():
            assert set(got[cols].terms) == set(want.terms), (k, cols)
            for key, value in want.terms.items():
                assert np.allclose(got[cols].terms[key], value, rtol=1e-12, atol=1e-12), (k, cols, key)


def test_laplace_minors_of_frames_match_numpy_determinants():
    # the minor on cols is the determinant of the last popcount(cols) rows
    rng = np.random.default_rng(11)
    for k in range(1, 6):
        for n in range(k, 6):
            frames = rng.standard_normal((20, k, n)) + 1j * rng.standard_normal((20, k, n))
            minors = laplace_minors(np.ascontiguousarray(frames.transpose(1, 2, 0)), n, 1.0, 0.0)
            assert len(minors) == sum(math.comb(n, p) for p in range(k + 1))
            for p in range(1, k + 1):
                for S in combinations(range(n), p):
                    want = np.linalg.det(frames[:, k - p :, list(S)])
                    assert np.allclose(minors[bitmask(S)], want, rtol=1e-12, atol=1e-12), (k, n, S)
