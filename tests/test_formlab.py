import json
import math
from functools import reduce
from itertools import combinations, permutations

import numpy as np
import pytest

from flagforms import flagnum, formlab
from flagforms.combinat import bitmask, dimension_sequences, perm_sign
from flagforms.formlab import (
    CurvatureTensor,
    ExtForm,
    FRAME_CACHE_BYTES,
    FormMatrix,
    GeneratorSpace,
    TWO_PI,
    _ByteLRU,
    _evaluate_on_frame,
    _kappa,
    _loop_wedge,
    _plan_wedge,
    _random_frame_minors,
    base_curvature_matrix,
    chern_forms,
    griffiths_check,
    griffiths_sample,
    positivity_check,
    positivity_values,
    wedge,
)
from flagforms.rootcalc import UniversalBundleSpec


@pytest.fixture
def space():
    return GeneratorSpace.base(3)


def test_wedge_nilpotent(space):
    dz1 = ExtForm.d(space, "z1")
    assert wedge(dz1, dz1).terms == {}


def test_wedge_anticommute(space):
    dz1 = ExtForm.d(space, "z1")
    dz1b = ExtForm.dbar(space, "z1")
    assert (wedge(dz1, dz1b) + wedge(dz1b, dz1)).terms == {}


def test_even_degree_forms_commute(space):
    a = ExtForm.d(space, "z1") * ExtForm.dbar(space, "z1")
    b = ExtForm.d(space, "z2") * ExtForm.dbar(space, "z2")
    assert (a * b - b * a).terms == {}


def test_wedge_graded_sign(space):
    # a ^ b = (-1)^{deg a deg b} b ^ a for odd-degree forms
    a = ExtForm.d(space, "z1")
    b = ExtForm.dbar(space, "z2")
    assert (a * b + b * a).terms == {}


def test_wedge_rejects_mismatched_spaces(space):
    other = GeneratorSpace.base(2)
    with pytest.raises(ValueError):
        wedge(ExtForm.d(space, "z1"), ExtForm.d(other, "z1"))


def test_conjugation_is_involution(space):
    gamma = (
        ExtForm.d(space, "z1") * ExtForm.dbar(space, "z2") * (2 + 3j)
        + ExtForm.d(space, "z2") * ExtForm.dbar(space, "z2") * 1j
    )
    assert gamma.conj().conj() == gamma


def test_rank1_chern_form(space):
    theta = ExtForm.d(space, "z1") * ExtForm.dbar(space, "z1") * 2.0
    M = FormMatrix(space, [[theta]])
    cf = chern_forms(M)
    assert cf[0] == ExtForm.one(space)
    assert cf[1].allclose(theta * (1j / TWO_PI), 1e-15)


def test_chern_forms_real_and_bidegree():
    C = griffiths_sample(3, 3, terms=4, seed=2)
    cf = chern_forms(base_curvature_matrix(C))
    for s in range(1, 4):
        assert cf[s].is_real(1e-13)
        assert cf[s].bidegree() == (s, s)


def test_c1_is_normalized_trace():
    C = griffiths_sample(2, 3, terms=2, seed=3)
    M = base_curvature_matrix(C)
    cf = chern_forms(M)
    assert cf[1].allclose(M.trace() * (1j / TWO_PI), 1e-14)


def test_whitney_for_block_diagonal():
    Ca = griffiths_sample(3, 2, terms=3, seed=5)
    Cb = griffiths_sample(3, 3, terms=2, seed=7)
    big = np.zeros((3, 3, 5, 5), dtype=complex)
    big[:, :, :2, :2] = Ca.coeffs
    big[:, :, 2:, 2:] = Cb.coeffs
    cf = chern_forms(base_curvature_matrix(CurvatureTensor(big)))
    ca = chern_forms(base_curvature_matrix(Ca))
    cb = chern_forms(base_curvature_matrix(Cb))
    for deg in range(0, 6):
        expect = ExtForm.zero(ca[0].space)
        for i in range(0, min(deg, 2) + 1):
            j = deg - i
            if j <= 3:
                expect = expect + ca[i] * cb[j]
        assert cf[deg].allclose(expect, 1e-12)


def test_splitting_principle_diagonal():
    # diagonal (i/2pi) M = diag(x_1..x_r) gives elementary symmetric forms
    space = GeneratorSpace.base(3)
    xs = [
        ExtForm.d(space, f"z{j}") * ExtForm.dbar(space, f"z{j}") * (-2j * np.pi * w)
        for j, w in ((1, 1.0), (2, 2.0), (3, -1.0))
    ]
    M = FormMatrix(
        space,
        [[xs[i] if i == j else ExtForm.zero(space) for j in range(3)] for i in range(3)],
    )
    cf = chern_forms(M)
    x = [xi * (1j / TWO_PI) for xi in xs]
    assert cf[1].allclose(x[0] + x[1] + x[2], 1e-13)
    assert cf[2].allclose(x[0] * x[1] + x[0] * x[2] + x[1] * x[2], 1e-13)
    assert cf[3].allclose(x[0] * x[1] * x[2], 1e-13)


def test_curvature_tensor_hermitian_validation():
    bad = np.zeros((1, 1, 2, 2), dtype=complex)
    bad[0, 0, 0, 1] = 1.0  # partner (0,0,1,0) left at zero
    with pytest.raises(ValueError):
        CurvatureTensor(bad)


def test_curvature_tensor_json_completion():
    data = {
        "n": 1,
        "r": 2,
        "entries": [
            {"j": 1, "k": 1, "alpha": 1, "beta": 2, "re": 1.0, "im": 0.5},
            {"j": 1, "k": 1, "alpha": 1, "beta": 1, "re": 2.0, "im": 0.0},
        ],
    }
    C = CurvatureTensor.from_json(data)
    assert C.coeffs[0, 0, 1, 0] == 1.0 - 0.5j
    roundtrip = CurvatureTensor.from_json(json.loads(json.dumps(C.to_json())))
    assert np.allclose(roundtrip.coeffs, C.coeffs)


def test_griffiths_sample_passes_check():
    for seed in (0, 1, 2):
        C = griffiths_sample(3, 2, terms=3, seed=seed)
        assert griffiths_check(C, samples=2000, seed=seed) >= -1e-12 * max(C.scale(), 1)


def test_griffiths_flat_and_negative():
    C0 = CurvatureTensor.zero(2, 2)
    assert griffiths_check(C0, samples=100, seed=0) == 0.0
    C = griffiths_sample(2, 2, terms=2, seed=9)
    assert griffiths_check(CurvatureTensor(-C.coeffs), samples=500, seed=1) < 0


def test_griffiths_sum_stays_semipositive():
    a = griffiths_sample(2, 3, terms=2, seed=11)
    b = griffiths_sample(2, 3, terms=2, seed=12)
    assert griffiths_check(a + b, samples=1000, seed=3) >= -1e-12


def test_positivity_calibration_form():
    space = GeneratorSpace.base(2)
    omega = ExtForm.zero(space)
    for j in (1, 2):
        omega = omega + ExtForm.d(space, f"z{j}") * ExtForm.dbar(space, f"z{j}") * 1j
    assert positivity_check(omega**2, samples=300, seed=4) > 0


def test_positivity_c1_of_griffiths_sample_across_seeds():
    for seed in (0, 5, 17):
        C = griffiths_sample(3, 2, terms=3, seed=seed)
        cf = chern_forms(base_curvature_matrix(C))
        assert positivity_check(cf[1], samples=2000, seed=seed) >= -1e-12


def test_positivity_negative_form():
    space = GeneratorSpace.base(2)
    neg = ExtForm.d(space, "z1") * ExtForm.dbar(space, "z1") * (-1j)
    assert positivity_check(neg, samples=200, seed=5) < 0


def test_positivity_of_product_of_positive_11_forms():
    C = griffiths_sample(3, 2, terms=4, seed=21)
    cf = chern_forms(base_curvature_matrix(C))
    vals = positivity_values(cf[1] * cf[1], samples=2000, seed=6)
    assert vals.min() >= -1e-10 * max(1.0, np.abs(vals).max())


def test_positivity_rejects_unbalanced_bidegree():
    space = GeneratorSpace.base(2)
    with pytest.raises(ValueError):
        positivity_check(ExtForm.d(space, "z1"), samples=10, seed=0)


def test_positivity_scalar_case():
    space = GeneratorSpace.base(2)
    assert positivity_check(ExtForm.scalar(space, 2.5), samples=10, seed=0) == 2.5
    vals = positivity_values(ExtForm.scalar(space, 2.5), samples=10, seed=0)
    assert vals.shape == (10,) and (vals == 2.5).all()


@pytest.mark.parametrize("samples", [0, -3, 2.5, "10", True, None])
def test_positivity_rejects_a_sample_count_that_is_not_a_positive_integer(samples, monkeypatch):
    # refused before any draw or cache lookup, on the constant branch too
    monkeypatch.setattr(formlab, "_FRAMES", None)
    space = GeneratorSpace.base(2)
    omega = ExtForm.d(space, "z1") * ExtForm.dbar(space, "z1") * 1j
    for gamma in (omega, ExtForm.scalar(space, 2.5), ExtForm.zero(space)):
        with pytest.raises(ValueError, match=r"^samples must be an integer >= 1, got "):
            positivity_check(gamma, samples=samples, seed=0)


def test_form_matrix_hermitian_check():
    C = griffiths_sample(2, 2, terms=2, seed=8)
    M = base_curvature_matrix(C)
    assert M.hermitian_defect() <= 1e-13 * max(1.0, M.norm())
    M.check_hermitian()


def test_wedge_graded_commutativity_all_degrees():
    # a ^ b = (-1)^{deg a deg b} b ^ a across pure degrees on 3 generators
    space = GeneratorSpace.base(3)
    forms = {
        1: ExtForm.d(space, "z1") + 2j * ExtForm.dbar(space, "z2"),
        2: ExtForm.d(space, "z1") * ExtForm.dbar(space, "z3")
        + ExtForm.d(space, "z2") * ExtForm.d(space, "z3") * (1 - 1j),
        3: ExtForm.d(space, "z1") * ExtForm.d(space, "z2") * ExtForm.dbar(space, "z1"),
    }
    for p, a in forms.items():
        for q, b in forms.items():
            lhs = a * b
            rhs = b * a * ((-1) ** (p * q))
            assert (lhs - rhs).norm() <= 1e-14


def test_wedge_associative():
    space = GeneratorSpace.base(3)
    a = ExtForm.d(space, "z1") + ExtForm.dbar(space, "z2") * 3j
    b = ExtForm.d(space, "z2") - ExtForm.dbar(space, "z3")
    c = ExtForm.d(space, "z3") * ExtForm.dbar(space, "z1") + ExtForm.one(space)
    assert ((a * b) * c - a * (b * c)).norm() <= 1e-14


def test_positivity_values_of_a_zero_push():
    # c2 of the line bundle Q3 vanishes, so over the Grassmann bundle of
    # 3-planes in a rank-4 bundle the push of c1(Q3)^2 c2(Q3) is the zero
    # form: it takes the value 0 on every one of the sampled frames
    from flagforms.gysin import grassmann_c1c2_pushforward
    pushed, vec = grassmann_c1c2_pushforward(4, 4, 3, 2, 1)
    assert pushed.is_zero() and not vec.items()
    space = GeneratorSpace.base(4)
    cf = chern_forms(base_curvature_matrix(griffiths_sample(4, 4, terms=2, seed=3), space))
    gamma = pushed.evaluate(cf, lambda q: ExtForm.scalar(space, q))
    vals = positivity_values(gamma, samples=400, seed=1)
    assert vals.shape == (400,)
    assert not vals.any()


# -- the replaced routes, kept as oracles -------------------------------------


def permutation_wedge_det(entries, one, zero):
    """The determinant as a sum over all k! permutations."""
    acc = zero
    for perm in permutations(range(len(entries))):
        prod = one
        for i, j in enumerate(perm):
            prod = prod * entries[i][j]
        acc = acc + prod * perm_sign(perm)
    return acc


def subset_chern_forms(M):
    """c_s as the sum of the permutation determinants of the s x s
    principal submatrices of (i/2 pi) M."""
    N = M.scaled(1j / TWO_PI)
    one, zero = ExtForm.one(M.space), ExtForm.zero(M.space)
    out = [one]
    for s in range(1, M.rank + 1):
        acc = zero
        for subset in combinations(range(M.rank), s):
            acc = acc + permutation_wedge_det([[N.entries[i][j] for j in subset] for i in subset], one, zero)
        out.append(acc)
    return out


def assert_chern_forms_match_subsets(M):
    """chern_forms equals the per-subset route to 1e-12 relative per c_s,
    sample by sample for per-sample coefficients."""
    got, want = chern_forms(M), subset_chern_forms(M)
    assert len(got) == len(want) == M.rank + 1
    assert got[0] == ExtForm.one(M.space)
    for c_got, c_want in zip(got[1:], want[1:]):
        assert set(c_got.terms) == set(c_want.terms)
        keys = list(c_want.terms)
        scale = reduce(np.maximum, (np.abs(c_want.terms[k]) for k in keys), 0.0)
        gap = reduce(np.maximum, (np.abs(c_got.terms[k] - c_want.terms[k]) for k in keys), 0.0)
        assert np.all(gap <= 1e-12 * scale)


def _random_hermitian_tensor(n, r, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n, r, r)) + 1j * rng.standard_normal((n, n, r, r))
    return CurvatureTensor(0.5 * (raw + np.conj(raw.transpose(1, 0, 3, 2))))


def test_chern_forms_match_the_subset_route_on_base_tensors():
    # four rank-one squares, so that no c_s with s <= min(n, r) vanishes and
    # the relative bound is not read on cancellation noise
    for n in range(1, 5):
        for r in range(1, 5):
            assert_chern_forms_match_subsets(base_curvature_matrix(_random_hermitian_tensor(n, r, 10 * n + r)))
            assert_chern_forms_match_subsets(base_curvature_matrix(griffiths_sample(n, r, terms=4, seed=n + r)))


def test_chern_forms_match_the_subset_route_per_sample_every_bundle():
    specs = [
        UniversalBundleSpec(rho, ell, l)
        for r in (2, 3, 4)
        for rho in dimension_sequences(r, min_steps=2)
        for ell in range(rho.m)
        for l in range(ell + 1, rho.m + 1)
    ]
    assert len(specs) == 52
    for i, spec in enumerate(specs):
        C = _random_hermitian_tensor(1, spec.rho.r, 400 + i)
        chart = flagnum.chart_for(spec, 1)
        rng = np.random.default_rng(400 + i)
        zeta = 0.7 * (rng.standard_normal((3, chart.d)) + 1j * rng.standard_normal((3, chart.d)))
        coeffs, _, _ = flagnum._exact_coeffs(spec, C, zeta)
        assert_chern_forms_match_subsets(FormMatrix.from_coeffs(chart.space, spec.rank, coeffs))


def test_frame_minors_match_numpy_determinants():
    # each term (S, T) evaluates to det(V[:, S]) * conj(det(V[:, T])); the
    # Laplace minors are checked against LU determinants to 1e-12 of the
    # Hadamard bounds, so a nearly singular frame does not loosen the test
    rng = np.random.default_rng(8)
    for k in range(1, 5):
        for n in range(k, 6):
            space = GeneratorSpace.base(n)
            frames = rng.standard_normal((50, k, n)) + 1j * rng.standard_normal((50, k, n))
            subsets = list(combinations(range(n), k))
            det = {S: np.linalg.det(frames[:, :, list(S)]) for S in subsets}
            bound = {S: np.prod(np.linalg.norm(frames[:, :, list(S)], axis=2), axis=1) for S in subsets}
            for S in subsets:
                for T in subsets:
                    gamma = ExtForm(space, {(bitmask(S), bitmask(T)): 1.0})
                    got = _evaluate_on_frame(gamma, frames)
                    want = det[S] * np.conj(det[T])
                    assert np.all(np.abs(got - want) <= 1e-12 * bound[S] * bound[T]), (k, n, S, T)


def _bits(coeff):
    """A coefficient's exact value: its dtype and bytes, signed zeros and
    all."""
    return np.asarray(coeff).dtype.str, np.asarray(coeff).tobytes()


def assert_same_terms(got, want):
    """Equal keys in equal order, and bit-equal coefficients."""
    assert list(got.terms) == list(want.terms)
    for key, coeff in want.terms.items():
        assert type(got.terms[key]) is type(coeff) and _bits(got.terms[key]) == _bits(coeff), key


#: parts that make exact cancellations and products that underflow to -0.0
_PARTS = [1.0, -1.0, 2.0, -0.5, 0.0, -0.0, 1e-200, -1e-200]


def _random_form(rng, space, count, degrees=None):
    """A number form with ``count`` random keys (of the given (p, q)
    bidegrees, else any), its parts drawn from _PARTS or normal."""
    N = len(space)
    degrees = [(p, q) for p, q in degrees or () if max(p, q) <= N]
    terms = {}
    for _ in range(count):
        if degrees:
            p, q = degrees[rng.integers(len(degrees))]
            s = rng.choice([m for m in range(1 << N) if m.bit_count() == p])
            t = rng.choice([m for m in range(1 << N) if m.bit_count() == q])
        else:
            s, t = rng.integers(1 << N, size=2)
        re, im = (rng.choice(_PARTS) if rng.random() < 0.6 else rng.standard_normal() for _ in range(2))
        terms[(int(s), int(t))] = complex(re, im)
    return ExtForm(space, terms)


def test_plan_wedge_equals_the_loop_bit_for_bit():
    # number forms multiply through cached wedge plans, when they have
    # enough term pairs; the term loop is their reference: the same keys
    # in the same order, the same bits
    rng = np.random.default_rng(22)
    cancelled = underflowed = 0
    for N in range(1, 7):
        space = GeneratorSpace.base(N)
        for trial in range(40):
            degrees = None if trial % 2 else [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)][: 1 + trial % 5]
            a = _random_form(rng, space, int(rng.integers(0, 4 * N)), degrees)
            b = _random_form(rng, space, int(rng.integers(0, 4 * N)), degrees)
            for x, y in ((a, b), (b, a), (a, a), (a + b, a - b)):
                raw = _loop_wedge(x.terms, y.terms)
                want = ExtForm(space, raw)
                for _ in range(2):  # a cold plan, then a warm one
                    assert_same_terms(ExtForm._of(space, _plan_wedge(x.terms, y.terms)), want)
                assert_same_terms(x.wedge(y), want)
                cancelled += len(raw) - len(want.terms)
                underflowed += sum(
                    math.copysign(1, c.real) < 0 or math.copysign(1, c.imag) < 0
                    for c in raw.values()
                    if isinstance(c, complex) and not c
                )
    # the inputs reach both edge cases: sums that cancel exactly, and sums
    # that are a negative zero, which the constructor drops
    assert cancelled > 100 and underflowed > 10, (cancelled, underflowed)
    # an odd 1-form squares to zero through exactly cancelling pieces
    space = GeneratorSpace.base(3)
    odd = ExtForm(space, {(1, 0): 0.3 + 1j, (2, 0): -2.0, (0, 4): 1e-200j})
    assert odd.wedge(odd).terms == {}


def test_forms_with_arrays_take_the_loop_mixed_with_numbers():
    # a form with per-sample arrays, alone or against a number form, wedges
    # through the loop; each sample agrees with the plan of its numbers
    rng = np.random.default_rng(5)
    space = GeneratorSpace.base(4)
    for _ in range(20):
        a = _random_form(rng, space, 10)
        b = _random_form(rng, space, 10)
        samples = rng.standard_normal((len(b.terms), 3)) + 1j * rng.standard_normal((len(b.terms), 3))
        batch = ExtForm(space, {key: c * samples[i] for i, (key, c) in enumerate(b.terms.items())})
        for x, y in ((a, batch), (batch, a), (batch, batch)):
            assert_same_terms(x.wedge(y), ExtForm(space, _loop_wedge(x.terms, y.terms)))
        mixed = a.wedge(batch)
        scale = sum(map(abs, a.terms.values())) * sum(np.abs(c).max() for c in batch.terms.values())
        for j in range(3):
            each = a.wedge(ExtForm(space, {key: c[j] for key, c in batch.terms.items()}))
            for key in set(mixed.terms) | set(each.terms):
                got = mixed.terms[key][j] if key in mixed.terms else 0.0
                assert abs(got - each.terms.get(key, 0.0)) <= 1e-15 * scale


def test_wedge_plans_are_read_only_and_bounded():
    space = GeneratorSpace.base(4)
    cf = chern_forms(base_curvature_matrix(griffiths_sample(4, 4, terms=4, seed=2), space))
    cf[1].wedge(cf[2])
    li, ri, neg, bins, keys = formlab._PLANS.get((tuple(cf[1].terms), tuple(cf[2].terms)), None)
    for array in (li, ri, neg, bins):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert keys == tuple(cf[1].wedge(cf[2]).terms)
    assert formlab._PLANS.size <= formlab.WEDGE_PLAN_BYTES
    # a product of few term pairs takes the loop and leaves no plan
    cf[1].wedge(cf[0])
    assert (tuple(cf[1].terms), tuple(cf[0].terms)) not in formlab._PLANS._items


def test_byte_lru_keeps_the_most_recent_values_within_its_bound():
    cache = _ByteLRU(10)
    built = []

    def value(name, nbytes):
        return lambda: built.append(name) or (name, nbytes)

    assert cache.get("a", value("a", 4)) == "a"
    assert cache.get("b", value("b", 4)) == "b"
    assert cache.get("a", value("a", 4)) == "a"  # a hit, now the most recent
    assert cache.get("c", value("c", 4)) == "c"  # evicts b, the least recent
    assert cache.get("big", value("big", 11)) == "big"  # returned, not kept
    assert list(cache._items) == ["a", "c"] and cache.size == 8
    assert cache.get("b", value("b", 4)) == "b"
    assert built == ["a", "b", "c", "big", "b"]


def _drawn_values(gamma, samples, seed):
    """positivity_values as it was before its frames were cached: draw the
    frames, evaluate, calibrate."""
    k, n = gamma.bidegree()[0], len(gamma.space)
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((samples, k, n)) + 1j * rng.standard_normal((samples, k, n))
    return (_kappa(k) * _evaluate_on_frame(gamma, frames)).real


def test_cached_frames_give_the_drawn_values(monkeypatch):
    monkeypatch.setattr(formlab, "_FRAMES", _ByteLRU(FRAME_CACHE_BYTES))
    space = GeneratorSpace.base(4)
    cf = chern_forms(base_curvature_matrix(griffiths_sample(4, 4, terms=4, seed=9), space))
    forms = [cf[1], cf[2], cf[1] * cf[2] - cf[3], cf[4]]
    # cold, warm, and interleaved over k and seed: each call equals a fresh draw
    calls = [(gamma, seed) for seed in (3, 4) for gamma in forms] + [(forms[1], 3), (forms[0], 4), (forms[3], 3)]
    for gamma, seed in calls + calls:
        got = positivity_values(gamma, samples=300, seed=seed)
        assert _bits(got) == _bits(_drawn_values(gamma, 300, seed))
    assert len(formlab._FRAMES._items) == 8
    _, minors, conj = _random_frame_minors(2, 4, 300, 3)
    for array in (minors, conj):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # a Generator draws new frames on every call, as it did uncached
    rng = np.random.default_rng(3)
    assert not np.array_equal(positivity_values(cf[1], 50, rng), positivity_values(cf[1], 50, rng))


def test_frame_cache_stays_within_its_bound(monkeypatch):
    # 10^5 frames of 2-planes in C^4: 6 minors and 6 conjugates of 1.6 MB
    # each, so two seeds do not fit in the bound and the older is evicted
    monkeypatch.setattr(formlab, "_FRAMES", _ByteLRU(FRAME_CACHE_BYTES))
    space = GeneratorSpace.base(4)
    c2 = chern_forms(base_curvature_matrix(griffiths_sample(4, 4, terms=4, seed=9), space))[2]
    for seed in (1, 2, 1):
        positivity_values(c2, samples=10**5, seed=seed)
        assert formlab._FRAMES.size <= FRAME_CACHE_BYTES
    assert list(formlab._FRAMES._items) == [(2, 4, 10**5, 1)]
    assert formlab._FRAMES.size == 12 * 16 * 10**5
