import math

import numpy as np
import pytest

from flagforms import flagnum
from flagforms.combinat import DimensionSequence, complete_sequence, dimension_sequences
from flagforms.flagnum import (
    ChartPoint,
    FlagChart,
    SamplerConfig,
    chart_for,
    curvature_at,
    curvature_center,
    frames_eps,
    gram,
    metric_universal,
    pushforward_numeric,
    splitting_u,
    theta_intrinsic,
    verify_main_theorem,
)
from flagforms.formlab import CurvatureTensor, ExtForm, FormMatrix, chern_forms, griffiths_sample
from flagforms.rootcalc import UniversalBundleSpec


def random_tensor(n, r, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n, r, r)) + 1j * rng.standard_normal((n, n, r, r))
    return CurvatureTensor(0.5 * (raw + np.conj(raw.transpose(1, 0, 3, 2))))


def test_chart_layout():
    chart = FlagChart((0, 1, 3), 2)
    assert chart.d == 2
    assert chart.pairs == [(1, 3), (2, 3)]
    assert chart.space.names == ("z1", "z2", "zeta_1_3", "zeta_2_3")
    assert chart.base_mask() == 0b11
    assert chart.vertical_mask() == 0b1100


def test_frames_center_is_identity():
    chart = FlagChart((0, 1, 2, 3), 1)
    V = frames_eps(chart, ChartPoint.center(chart))
    assert np.allclose(V, np.eye(3))


def test_frames_projective_line_example():
    chart = FlagChart((0, 1, 2), 1)
    V = frames_eps(chart, ChartPoint([0.25 + 1j]))
    assert V[0, 1] == 0.25 + 1j
    assert np.allclose(np.diag(V), 1.0)


def test_frames_complete_rank3_structure():
    chart = FlagChart(complete_sequence(3), 1)
    p = ChartPoint([1.0, 2.0, 3.0])  # pairs (1,2), (1,3), (2,3)
    V = frames_eps(chart, p)
    assert V[0, 1] == 1.0 and V[0, 2] == 2.0 and V[1, 2] == 3.0
    assert V[1, 0] == 0 and V[2, 0] == 0 and V[2, 1] == 0


def test_gram_center_identity_and_cross_term():
    chart = FlagChart((0, 1, 2), 1)
    assert np.allclose(gram(chart, ChartPoint.center(chart)), np.eye(2))
    z = 0.3 - 0.7j
    G = gram(chart, ChartPoint([z]))
    assert np.isclose(G[0, 1], np.conj(z))  # <eps_1, eps_2> carries conj(zeta)
    assert np.isclose(G[1, 1], 1 + abs(z) ** 2)


def test_gram_tautological_block():
    rho = DimensionSequence((0, 2, 4))
    chart = FlagChart(rho, 1)
    rng = np.random.default_rng(3)
    zeta = rng.standard_normal(chart.d) + 1j * rng.standard_normal(chart.d)
    G = gram(chart, ChartPoint(zeta))
    V = frames_eps(chart, ChartPoint(zeta))
    # entries (alpha, beta) in the sub-bundle block: delta + sum_l z_la conj(z_lb)
    for a in (2, 3):
        for b in (2, 3):
            expect = (1.0 if a == b else 0.0) + sum(
                V[lam, a] * np.conj(V[lam, b]) for lam in range(2)
            )
            assert np.isclose(G[a, b], expect)


def test_metric_universal_blocks_and_errors():
    rho = DimensionSequence((0, 1, 3))
    C = random_tensor(2, 3, 1)
    chart = FlagChart(rho, 2)
    p = ChartPoint([0.2, -0.4j])
    # full filtration at z = 0 recovers the Gram matrix
    spec_full = UniversalBundleSpec(rho, 0, 2)
    H = metric_universal(spec_full, C, None, p)
    assert np.allclose(H, gram(chart, p))
    # sub-bundle metric is the Gram sub-block
    spec_sub = UniversalBundleSpec(rho, 0, 1)
    H1 = metric_universal(spec_sub, C, None, p)
    assert np.allclose(H1, gram(chart, p)[2:, 2:])
    # large z makes the synthetic ambient metric indefinite
    with pytest.raises(ValueError):
        metric_universal(spec_sub, C, 100.0 * np.ones(2), p)


def _metric_from_gram(G, q_idx, s_idx):
    """The solve-based reference route for the induced metric: the Gram
    sub-block of a sub-bundle, the Schur complement of the sub block of a
    proper quotient."""
    A = G[..., q_idx, :][..., :, q_idx]
    if not s_idx:
        return A
    B = G[..., q_idx, :][..., :, s_idx]
    D = G[..., s_idx, :][..., :, s_idx]
    return A - B @ np.linalg.solve(D, np.conj(np.swapaxes(B, -1, -2)))


def _solve_route(chart, spec, zeta, C=None, z=None):
    """The reference with the samples-last signature of the metric kernel."""
    G = gram(chart, zeta.T, C, None if z is None else z.T)
    return np.moveaxis(_metric_from_gram(G, *flagnum._bundle_slices(spec)), 0, -1)


@pytest.mark.parametrize("n", [1, 2])
def test_metric_kernel_matches_the_solve_reference(n):
    # every bundle with r <= 4 and E over the point fibers (d = 0), at
    # z = 0 and z != 0, as one batch and point by point, relative to each
    # point's Gram scale
    specs = list(_every_bundle()) + [UniversalBundleSpec((0, r), 0, 1) for r in (2, 3, 4)]
    assert len(specs) == 55
    worst = 0.0
    for i, spec in enumerate(specs):
        C = random_tensor(n, spec.rho.r, 400 + i)
        chart = chart_for(spec, n)
        rng = np.random.default_rng(400 + i)
        zeta = 0.7 * (rng.standard_normal((6, chart.d)) + 1j * rng.standard_normal((6, chart.d)))
        for z in (None, 0.1 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))):
            G = gram(chart, zeta, C, z)
            want = _metric_from_gram(G, *flagnum._bundle_slices(spec))
            scale = np.abs(G).max(axis=(-2, -1))[:, None, None]
            batch = metric_universal(spec, C, z, zeta)
            single = [
                metric_universal(spec, C, None if z is None else z[k], ChartPoint(zeta[k]))
                for k in range(len(zeta))
            ]
            for got in (batch, np.array(single)):
                assert got.shape == want.shape, spec
                worst = max(worst, float((np.abs(got - want) / scale).max()))
    assert worst <= 1e-14


def test_metric_kernel_is_nan_where_the_gram_matrix_is_not_finite():
    # far out in the chart the Gram matrix overflows; the solve-based route
    # then returns NaN, inf, or a finite wrong matrix: at (1e200, 1) on
    # (0,1,3) U2/U1 its sub block D is inf and it returns the identity
    cases = [
        ((0, 1, 3), 1, 2, [[1e200, 1], [1, 1e200], [1e155, 1e155], [1e100, 1]]),
        ((0, 1, 3), 0, 1, [[1e200, 1]]),
        ((0, 2, 4), 1, 2, [[1e200, 0, 0, 1], [1e170, 1e170, 0, 0], [1, 2, 3, 4]]),
        ((0, 1, 2, 3), 1, 3, [[1e200, 0, 0], [0, 0, 1e200], [1, 1, 1]]),
    ]
    for rho, ell, l, points in cases:
        spec = UniversalBundleSpec(rho, ell, l)
        chart = chart_for(spec, 1)
        zeta = np.array(points, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            G = gram(chart, zeta)
            want = _metric_from_gram(G, *flagnum._bundle_slices(spec))
            got = metric_universal(spec, CurvatureTensor.zero(1, rho[-1]), None, zeta)
        for k in range(len(zeta)):
            if np.isfinite(G[k]).all():
                assert np.abs(got[k] - want[k]).max() <= 1e-14 * np.abs(G[k]).max(), (rho, k)
            else:
                assert np.isnan(got[k]).all(), (rho, k, got[k])


def test_splitting_first_order():
    rho = DimensionSequence((0, 1, 3))
    spec = UniversalBundleSpec(rho, 1, 2)
    C = CurvatureTensor.zero(1, 3)
    chart = chart_for(spec, 1)
    zeta = np.array([0.01 + 0.005j, -0.02j])
    u = splitting_u(spec, C, None, ChartPoint(zeta))
    # u[alpha, mu] ~ -conj(zeta_(alpha,mu)) for the admissible pairs
    assert abs(u[0, 0] + np.conj(zeta[chart.pair_index(1, 3)])) < 1e-3 * abs(zeta[0])
    assert abs(u[1, 0] + np.conj(zeta[chart.pair_index(2, 3)])) < 1e-3 * abs(zeta[1])


def test_splitting_requires_proper_quotient():
    rho = DimensionSequence((0, 1, 3))
    with pytest.raises(ValueError):
        splitting_u(UniversalBundleSpec(rho, 0, 1), CurvatureTensor.zero(1, 3), None, ChartPoint([0, 0]))


def test_curvature_center_flat_examples():
    C0 = CurvatureTensor.zero(1, 2)
    rho = DimensionSequence((0, 1, 2))
    sub = curvature_center(UniversalBundleSpec(rho, 0, 1), C0)
    chart = chart_for(UniversalBundleSpec(rho, 0, 1), 1)
    g = 1 << chart.zeta_gen_index(1, 2)
    assert sub.entries[0][0].coeff(g, g) == -1.0
    quot = curvature_center(UniversalBundleSpec(rho, 1, 2), C0)
    assert quot.entries[0][0].coeff(g, g) == 1.0


def test_curvature_center_trace_telescoping_exact():
    # successive quotients: vertical parts cancel pairwise, leaving the
    # ambient trace
    rho = complete_sequence(3)
    C = random_tensor(2, 3, 7)
    chart = chart_for(UniversalBundleSpec(rho, 0, 1), 2)
    total = ExtForm.zero(chart.space)
    for j in range(1, 4):
        spec = UniversalBundleSpec(rho, j - 1, j)
        total = total + curvature_center(spec, C).trace()
    # the vertical terms cancel pairwise with exact +-1 coefficients
    vert = chart.vertical_mask()
    assert all((s | t) & vert == 0 for s, t in total.terms)
    expect = ExtForm.zero(chart.space)
    for a in range(3):
        for j in range(2):
            for k in range(2):
                v = C.coeffs[j, k, a, a]
                if v != 0:
                    expect = expect + ExtForm(chart.space, {(1 << j, 1 << k): v})
    assert total.allclose(expect, 1e-15)


def test_curvature_center_hermitian():
    C = random_tensor(2, 3, 11)
    for rho, ell, l in [((0, 1, 3), 0, 1), ((0, 1, 3), 1, 2), ((0, 1, 2, 3), 1, 3)]:
        fm = curvature_center(UniversalBundleSpec(DimensionSequence(rho), ell, l), C)
        fm.check_hermitian(1e-12)


def test_curvature_at_center_matches_formula():
    for seed, (rho, ell, l) in enumerate(
        [((0, 1, 2), 0, 1), ((0, 1, 3), 1, 2), ((0, 2, 4), 1, 2), ((0, 1, 2, 3), 1, 2)]
    ):
        spec = UniversalBundleSpec(DimensionSequence(rho), ell, l)
        C = random_tensor(2, spec.rho.r, seed)
        chart = chart_for(spec, 2)
        exact = curvature_center(spec, C)
        fd = curvature_at(spec, C, ChartPoint.center(chart))
        diff = max(
            (exact.entries[b][a] - fd.entries[b][a]).norm()
            for a in range(spec.rank)
            for b in range(spec.rank)
        )
        scale = max(exact.norm(), 1.0)
        assert diff <= 1e-6 * scale


def _flag_orthonormalize(V):
    """Unitary basis spanning the same trailing-column flags."""
    Q, R = np.linalg.qr(V[:, ::-1])
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return Q[:, ::-1]


def test_theta_intrinsic_identity_and_decomposition():
    rho = DimensionSequence((0, 1, 3))
    spec = UniversalBundleSpec(rho, 1, 2)
    C = random_tensor(2, 3, 13)
    theta = theta_intrinsic(spec, np.eye(3), C)
    center = curvature_center(spec, C)
    # lo..hi block of the ambient index range carries the bundle
    for b in range(spec.rank):
        for a in range(spec.rank):
            resid = center.entries[b][a] - theta.entries[b][a]
            for (s, t), v in resid.terms.items():
                assert (s | t) & 0b11 == 0, "difference must be purely vertical"


def test_theta_intrinsic_block_unitary_invariance():
    rho = DimensionSequence((0, 1, 3))
    spec = UniversalBundleSpec(rho, 1, 2)
    C = random_tensor(1, 3, 17)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    V = np.linalg.qr(raw)[0]
    ref = theta_intrinsic(spec, V, C)
    for _ in range(5):
        U = np.zeros((3, 3), dtype=complex)
        # frame blocks for rho = (0,1,3): columns {0,1} and {2}
        u2 = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        U[:2, :2] = u2
        U[2, 2] = np.exp(1j * rng.uniform(0, 2 * np.pi))
        other = theta_intrinsic(spec, V @ U, C)
        for b in range(3):
            for a in range(3):
                assert (ref.entries[b][a] - other.entries[b][a]).norm() <= 1e-12


def test_theta_intrinsic_rejects_nonunitary():
    rho = DimensionSequence((0, 1, 2))
    spec = UniversalBundleSpec(rho, 0, 1)
    with pytest.raises(ValueError):
        theta_intrinsic(spec, 2.0 * np.eye(2), CurvatureTensor.zero(1, 2))


def test_fd_horizontal_block_matches_intrinsic_tensor():
    # at a fiber point away from the center, the dz/dzbar block of the
    # finite-difference curvature, rewritten in the unitary frame spanning
    # the same flag, equals the intrinsic horizontal tensor
    for rho, ell, l in [((0, 1, 2), 1, 2), ((0, 1, 3), 1, 2), ((0, 1, 3), 0, 1)]:
        rho = DimensionSequence(rho)
        spec = UniversalBundleSpec(rho, ell, l)
        r = rho.r
        C = random_tensor(2, r, 23)
        chart = chart_for(spec, 2)
        rng = np.random.default_rng(29)
        zeta = 0.6 * (rng.standard_normal(chart.d) + 1j * rng.standard_normal(chart.d))
        p = ChartPoint(zeta)
        fd = curvature_at(spec, C, p)
        eps = frames_eps(chart, p)
        V = _flag_orthonormalize(eps)
        lo = r - rho[l]
        hi = r - rho[ell]
        block = slice(lo, hi)
        T = (np.conj(V.T) @ eps)[block, block]
        Tinv = np.linalg.inv(T)
        for j in range(2):
            for k in range(2):
                E = np.array(
                    [
                        [fd.entries[b][a].coeff((j,), (k,)) for a in range(spec.rank)]
                        for b in range(spec.rank)
                    ]
                )
                got = T @ E @ Tinv
                want = (np.conj(V.T) @ C.coeffs[j, k].T @ V)[block, block]
                assert np.abs(got - want).max() <= 1e-6 * max(1.0, np.abs(want).max())


def test_curvature_at_mixed_blocks_small():
    rho = DimensionSequence((0, 1, 3))
    spec = UniversalBundleSpec(rho, 1, 2)
    C = random_tensor(2, 3, 31)
    chart = chart_for(spec, 2)
    p = ChartPoint(np.array([0.5 - 0.1j, 0.3j]))
    fm = curvature_at(spec, C, p)
    base = chart.base_mask()
    worst = 0.0
    for b in range(spec.rank):
        for a in range(spec.rank):
            for (s, t), v in fm.entries[b][a].terms.items():
                if bool(s & base) != bool(t & base):
                    worst = max(worst, abs(v))
    assert worst <= 1e-6 * fm.norm()


def test_pushforward_numeric_fs_calibration_small():
    chart = FlagChart((0, 1, 2), 1)
    C0 = CurvatureTensor.zero(1, 2)
    est = pushforward_numeric(
        chart, "0 - c1(U1)", C0, SamplerConfig(num_samples=20000, seed=11)
    )
    val = complex(est.form.coeff(0, 0))
    assert abs(val - 1.0) < 1e-6
    assert est.n_nonfinite == 0


def test_pushforward_numeric_low_degree_is_exact_zero():
    chart = FlagChart((0, 1, 3), 2)
    C = griffiths_sample(2, 3, terms=2, seed=1)
    est = pushforward_numeric(chart, "c1(E)", C, SamplerConfig(num_samples=100, seed=3))
    assert est.form.terms == {}
    assert est.n_samples == 0


def test_pushforward_numeric_top_fiber_class_any_tensor():
    # push of the top power of the line-bundle class is 1 whatever the
    # ambient curvature
    chart = FlagChart((0, 1, 3), 1)
    C = griffiths_sample(1, 3, terms=3, seed=5)
    est = pushforward_numeric(
        chart, "c1(U1)^2", C, SamplerConfig(num_samples=30000, seed=4)
    )
    val = complex(est.form.coeff(0, 0))
    se = est.stderr[(0, 0)]
    assert abs(val - 1.0) <= max(4 * se, 2e-4)


def test_pushforward_numeric_is_reproducible():
    chart = FlagChart((0, 1, 2), 2)
    C = griffiths_sample(2, 2, terms=2, seed=6)
    cfg = SamplerConfig(num_samples=5000, seed=42)
    a = pushforward_numeric(chart, "c1(U2/U1)^3", C, cfg)
    b = pushforward_numeric(chart, "c1(U2/U1)^3", C, cfg)
    assert a.form.terms == b.form.terms
    assert a.stderr == b.stderr


def test_pushforward_numeric_linear_in_expression():
    chart = FlagChart((0, 1, 2), 1)
    C = griffiths_sample(1, 2, terms=2, seed=8)
    cfg = SamplerConfig(num_samples=20000, seed=9)
    single = pushforward_numeric(chart, "c1(U1)", C, cfg)
    double = pushforward_numeric(chart, "2*c1(U1)", C, cfg)
    val1 = complex(single.form.coeff(0, 0))
    val2 = complex(double.form.coeff(0, 0))
    assert abs(val2 - 2 * val1) <= 1e-10 * max(1.0, abs(val1))


def test_pushforward_rejects_inhomogeneous():
    chart = FlagChart((0, 1, 2), 1)
    C0 = CurvatureTensor.zero(1, 2)
    with pytest.raises(ValueError):
        pushforward_numeric(
            chart, "c1(U1) + c1(U1)^2", C0, SamplerConfig(num_samples=10, seed=0)
        )


def test_sampler_config_from_dict_ignores_proposal():
    chart = FlagChart((0, 1, 2, 3), 1)
    C0 = CurvatureTensor.zero(1, 3)
    est = pushforward_numeric(
        chart, "c1(U1)^3", C0, {"num_samples": 256, "seed": 0}
    )
    assert est.n_requested == 256
    # every run draws rotations: the proposal is accepted and has no effect
    for proposal in ("projective", "product", "auto"):
        again = pushforward_numeric(
            chart, "c1(U1)^3", C0, {"num_samples": 256, "seed": 0, "proposal": proposal}
        )
        assert again.form.terms == est.form.terms and again.stderr == est.stderr
    assert "proposal" not in SamplerConfig(10, 0, proposal="product").to_json()


def test_verify_main_theorem_smoke():
    chart = FlagChart((0, 1, 2), 2)
    C = griffiths_sample(2, 2, terms=3, seed=14)
    rep = verify_main_theorem(
        chart, "c1(U2/U1)^3", C, SamplerConfig(num_samples=30000, seed=12)
    )
    assert rep.residual_rel <= 0.05
    assert rep.consistent_within <= 4.0
    data = rep.to_json()
    assert data["n_samples"] == 30000


def test_verify_main_theorem_flat_tensor_zero_both_sides():
    chart = FlagChart((0, 1, 2), 2)
    C0 = CurvatureTensor.zero(2, 2)
    rep = verify_main_theorem(
        chart, "c1(U2/U1)^3", C0, SamplerConfig(num_samples=2000, seed=13)
    )
    assert rep.truth.norm() <= 1e-14
    assert rep.residual_abs <= 1e-9


def test_pushforward_numeric_trivial_fiber_is_identity():
    # a one-step dimension sequence has a point fiber: the push-forward of
    # c_1 of the pulled-back bundle is the base first Chern form itself
    chart = FlagChart((0, 2), 2)
    assert chart.d == 0
    C = griffiths_sample(2, 2, terms=2, seed=19)
    est = pushforward_numeric(chart, "c1(E)", C, SamplerConfig(num_samples=64, seed=2))
    from flagforms.formlab import TWO_PI, base_curvature_matrix

    truth = base_curvature_matrix(C).trace() * (1j / TWO_PI)
    assert est.form.allclose(truth, 1e-9)


@pytest.mark.parametrize("t", [0.7, 10.0, 1e3, 1e4, 1e5])
def test_offcenter_quotient_curvature_exact_values(t):
    # hand-derived fiber curvature at the fiber point (t, 0, ...), s = 1 + t^2.
    # The rank-2 quotient over the plane of lines in C^3 has the nonzero
    #   entry(1,1)[dz1 ^ dz1~] = 1/s^2            entry(2,2)[dz2 ^ dz2~] = 1/s
    #   entry(1,2)[dz1 ^ dz2~] = 1/s              entry(2,1)[dz2 ^ dz1~] = 1/s^2
    # (zeta_1_3 and zeta_2_3 abbreviated to 1, 2); the tautological line
    # over P^1 has the one coefficient -1/s^2.  Far out the stencils of the
    # finite-difference oracle lose these; at t = 1e5 the frame has lost
    # more than the tolerance, and the point is refused
    s = 1 + t * t
    cases = [
        ((0, 1, 3), 1, 2, [t, 0.0], {
            (0, 0, (1, 3), (1, 3)): 1 / s**2,
            (1, 1, (2, 3), (2, 3)): 1 / s,
            (0, 1, (1, 3), (2, 3)): 1 / s,
            (1, 0, (2, 3), (1, 3)): 1 / s**2,
        }),
        ((0, 1, 2), 0, 1, [t], {(0, 0, (1, 2), (1, 2)): -1 / s**2}),
    ]
    for rho, ell, l, point, values in cases:
        spec = UniversalBundleSpec(DimensionSequence(rho), ell, l)
        C0 = CurvatureTensor.zero(1, spec.rho.r)
        chart = chart_for(spec, 1)
        if t >= 1e5:
            with pytest.raises(ArithmeticError, match="tolerance"):
                curvature_at(spec, C0, ChartPoint(point))
            continue
        fm = curvature_at(spec, C0, ChartPoint(point))
        expected = {
            (b, a, 1 << chart.zeta_gen_index(*p), 1 << chart.zeta_gen_index(*q)): v
            for (b, a, p, q), v in values.items()
        }
        for (b, a, gs, gt), want in expected.items():
            got = fm.entries[b][a].coeff(gs, gt)
            assert abs(got - want) <= 1e-9 * abs(want), (rho, b, a, got, want)
        # everything else in the fiber block vanishes
        for b in range(spec.rank):
            for a in range(spec.rank):
                for (gs, gt), v in fm.entries[b][a].terms.items():
                    if (b, a, gs, gt) not in expected:
                        assert abs(v) <= 1e-9 / s


def test_pushforward_rejects_degree_above_base():
    chart = FlagChart((0, 1, 2), 1)
    C0 = CurvatureTensor.zero(1, 2)
    with pytest.raises(ValueError):
        pushforward_numeric(
            chart, "c1(U1)^4", C0, SamplerConfig(num_samples=10, seed=0)
        )


def test_pushforward_numeric_stderr_scales_like_inverse_sqrt_n():
    chart = FlagChart((0, 1, 2), 2)
    C = griffiths_sample(2, 2, terms=3, seed=14)
    key = (0b11, 0b11)
    ses = []
    for n_samples in (4000, 16000, 64000):
        est = pushforward_numeric(
            chart, "c1(U2/U1)^3", C, SamplerConfig(num_samples=n_samples, seed=21)
        )
        ses.append(est.stderr[key])
    # quadrupling the sample count should halve the reported error
    assert 1.6 <= ses[0] / ses[1] <= 2.4
    assert 1.6 <= ses[1] / ses[2] <= 2.4


def test_pushforward_numeric_fiber_volume_ignores_base_curvature():
    # the push of the fiber volume class is 1 whatever the ambient
    # curvature; the scalar extraction must not pick up horizontal terms
    chart = FlagChart((0, 1, 2), 2)
    C = griffiths_sample(2, 2, terms=4, seed=33)
    est = pushforward_numeric(
        chart, "0 - c1(U1)", C, SamplerConfig(num_samples=20000, seed=5)
    )
    assert abs(complex(est.form.coeff(0, 0)) - 1.0) < 1e-6
    for (s, t), v in est.form.terms.items():
        if (s, t) != (0, 0):
            assert abs(v) < 1e-12


def _every_bundle(max_rank=4):
    for r in range(2, max_rank + 1):
        for rho in dimension_sequences(r, min_steps=2):
            for ell in range(rho.m):
                for l in range(ell + 1, rho.m + 1):
                    yield UniversalBundleSpec(rho, ell, l)


def test_exact_coefficients_match_finite_differences_every_bundle():
    # the closed-form vertical block (and the analytic horizontal one)
    # against the fourth-order stencils, at seeded off-center fiber points,
    # relative to each point's largest coefficient; the mixed base-fiber
    # blocks, which the closed form leaves out, must vanish in the stencils
    specs = list(_every_bundle())
    assert len(specs) == 52
    worst = 0.0
    for i, spec in enumerate(specs):
        C = random_tensor(2, spec.rho.r, 100 + i)
        chart = chart_for(spec, 2)
        rng = np.random.default_rng(i)
        zeta = 0.7 * (rng.standard_normal((3, chart.d)) + 1j * rng.standard_normal((3, chart.d)))
        exact, H, Hinv = flagnum._exact_coeffs(spec, C, zeta)
        fd, H_fd, _ = flagnum._curvature_coeffs(spec, C, zeta)
        assert exact.keys() < fd.keys()
        assert np.abs(H - H_fd).max() <= 1e-12 * np.abs(H_fd).max()
        scale = np.max([np.abs(v).max(axis=(0, 1)) for v in fd.values()], axis=0)
        # the mixed base-fiber stencil keys have no exact coefficient: zero
        for key, v in fd.items():
            gap = np.abs(exact.get(key, 0) - v).max(axis=(0, 1)) / scale
            worst = max(worst, float(gap.max()))
    assert worst <= 1e-8


def test_exact_coefficients_at_center_equal_center_formula():
    for i, spec in enumerate(_every_bundle()):
        C = random_tensor(2, spec.rho.r, 200 + i)
        chart = chart_for(spec, 2)
        coeffs, _, _ = flagnum._exact_coeffs(spec, C, np.zeros(chart.d))
        got = FormMatrix.from_coeffs(chart.space, spec.rank, coeffs)
        want = curvature_center(spec, C)
        for b in range(spec.rank):
            for a in range(spec.rank):
                diff = (got.entries[b][a] - want.entries[b][a]).norm()
                assert diff <= 1e-12 * max(want.norm(), 1.0), (spec, b, a)


def test_batched_chern_forms_match_pointwise_every_bundle():
    # the Monte Carlo route takes Chern forms of per-sample coefficients in
    # one batch; sample i must equal the Chern forms of the matrix built
    # from the coefficients at zeta[i] alone, up to the rounding of numpy's
    # complex products against Python's, relative to each c_s at the point
    worst = 0.0
    for i, spec in enumerate(_every_bundle()):
        C = random_tensor(1, spec.rho.r, 300 + i)
        chart = chart_for(spec, 1)
        rng = np.random.default_rng(300 + i)
        zeta = 0.7 * (rng.standard_normal((3, chart.d)) + 1j * rng.standard_normal((3, chart.d)))
        coeffs, _, _ = flagnum._exact_coeffs(spec, C, zeta)
        batched = chern_forms(FormMatrix.from_coeffs(chart.space, spec.rank, coeffs))
        for p in range(len(zeta)):
            at_p = {key: v[..., p] for key, v in coeffs.items()}
            pointwise = chern_forms(FormMatrix.from_coeffs(chart.space, spec.rank, at_p))
            assert batched[0] == pointwise[0] == ExtForm.one(chart.space)
            for c_b, c_p in zip(batched[1:], pointwise[1:]):
                assert set(c_p.terms) <= set(c_b.terms), (spec, p)
                assert all(np.ndim(v) == 1 for v in c_b.terms.values()), spec
                scale = max((abs(v[p]) for v in c_b.terms.values()), default=0.0)
                gap = max(
                    (abs(v[p] - c_p.terms.get(key, 0.0)) for key, v in c_b.terms.items()),
                    default=0.0,
                )
                worst = max(worst, gap / max(scale, 1e-300))
    assert worst <= 1e-12


def test_hermitian_defect_carries_a_nan(monkeypatch):
    chart = FlagChart((0, 1, 3), 2)
    C = griffiths_sample(2, 3, terms=2, seed=7)
    spec = UniversalBundleSpec(chart.rho, 1, 2)
    rng = np.random.default_rng(0)
    zeta = 0.7 * (rng.standard_normal((8, chart.d)) + 1j * rng.standard_normal((8, chart.d)))
    coeffs, H0, H0inv = flagnum._exact_coeffs(spec, C, zeta)
    assert flagnum._hermitian_defect(coeffs, H0, H0inv) <= 1e-12
    coeffs[(2, 3)][0, 1, 5] = np.nan
    assert math.isnan(flagnum._hermitian_defect(coeffs, H0, H0inv))

    # in the Monte Carlo integrand: the sample is dropped and the estimate
    # reports the NaN
    center = flagnum._center_coeffs

    def one_nan(spec, C, g=None):
        coeffs = center(spec, C, g)
        if g is not None:
            coeffs[(0, 1)][0, 0, 5] = np.nan
        return coeffs

    monkeypatch.setattr(flagnum, "_center_coeffs", one_nan)
    est = pushforward_numeric(chart, "c1(Q1)^2*c2(Q1)", C, SamplerConfig(num_samples=500, seed=3))
    assert math.isnan(est.hermitian_defect)
    assert est.n_nonfinite == 1 and est.n_samples == 499


def test_pushforward_numeric_reports_audit_and_hermitian_defects():
    chart = FlagChart((0, 1, 3), 2)
    C = griffiths_sample(2, 3, terms=2, seed=7)
    est = pushforward_numeric(
        chart, "c1(Q1)^2*c2(Q1)", C, SamplerConfig(num_samples=2000, seed=3)
    )
    data = est.to_json()
    assert 0.0 < data["vertical_audit_defect"] <= 1e-8
    assert 0.0 <= data["hermitian_defect"] <= 1e-8
    assert data["mixed_block_defect"] <= 1e-8


def test_audit_rejects_a_wrong_vertical_block(monkeypatch):
    center = flagnum._center_coeffs

    def off_by_one_percent(spec, C, g=None):
        coeffs = center(spec, C, g)
        n = C.n
        for (a, b), v in coeffs.items():
            if a >= n and b >= n:
                coeffs[(a, b)] = 1.01 * v
        return coeffs

    monkeypatch.setattr(flagnum, "_center_coeffs", off_by_one_percent)
    chart = FlagChart((0, 1, 3), 2)
    C = griffiths_sample(2, 3, terms=2, seed=7)
    with pytest.raises(ArithmeticError, match="vertical"):
        pushforward_numeric(
            chart, "c1(Q1)^2*c2(Q1)", C, SamplerConfig(num_samples=500, seed=3)
        )


def test_audit_rejects_a_nan_in_the_vertical_block(monkeypatch):
    # a NaN must fail the audit, not vanish in a maximum
    chart = FlagChart((0, 1, 3), 2)
    C = griffiths_sample(2, 3, terms=2, seed=7)
    spec = UniversalBundleSpec(chart.rho, 1, 2)
    rng = np.random.default_rng(0)
    zeta = 0.7 * (rng.standard_normal((8, chart.d)) + 1j * rng.standard_normal((8, chart.d)))
    coeffs, _, _ = flagnum._exact_coeffs(spec, C, zeta)
    coeffs[(2, 3)][0, 0, 5] = np.nan
    mixed, vertical = flagnum._audit_coeffs(spec, C, zeta, coeffs)
    assert mixed <= 1e-8 and math.isnan(vertical)

    center = flagnum._center_coeffs

    def one_nan(spec, C, g=None):
        coeffs = center(spec, C, g)
        coeffs[(C.n, C.n)][0, 0] = np.nan
        return coeffs

    monkeypatch.setattr(flagnum, "_center_coeffs", one_nan)
    with pytest.raises(ArithmeticError, match="vertical.*nan"):
        pushforward_numeric(
            chart, "c1(Q1)^2*c2(Q1)", C, SamplerConfig(num_samples=500, seed=3)
        )


class _PerDerivativeStencils:
    """The stencils of a ``flagnum._Stencils`` one derivative at a time, one
    metric-kernel call each and z passed only when a base generator moves:
    the oracle of the batched ``derivatives``."""

    def __init__(self, ev):
        self.ev = ev

    def _sums(self, moves, weights, denom):
        ev, n = self.ev, self.ev.chart.n
        steps = np.zeros((len(ev.x), len(moves)), dtype=complex)
        for i, move in enumerate(moves):
            for a, m, unit in move:
                steps[a, i] = m * unit
        x = ev.x[:, None, :] + steps[:, :, None] * ev.h[:, None, :]
        x = x.reshape(len(x), x.shape[1] * x.shape[2])
        z = x[:n] if any(a < n for move in moves for a, _, _ in move) else None
        F = flagnum._induced_metric(ev.chart, ev.spec, x[n:], ev.C, z)
        F = F.reshape(F.shape[:2] + (len(moves) // len(weights), len(weights), -1))
        acc = weights[0] * F[..., 0, :]
        for i in range(1, len(weights)):
            acc = acc + weights[i] * F[..., i, :]
        acc = acc / denom
        return [acc[:, :, block] for block in range(acc.shape[2])]

    def d1(self, a):
        moves = [((a, m, unit),) for unit in (1, 1j) for m, _ in flagnum._W1]
        dx, dy = self._sums(moves, [w for _, w in flagnum._W1], 12 * self.ev.h[a])
        return 0.5 * (dx - 1j * dy)

    def d2(self, a, b):
        W1, W2 = flagnum._W1, flagnum._W2
        h_a, h_b = self.ev.h[a], self.ev.h[b]
        if a == b:
            moves = [((a, m, unit),) for unit in (1, 1j) for m, _ in W2]
            dxx, dyy = self._sums(moves, [w for _, w in W2], 12 * h_a * h_a)
            return 0.25 * (dxx + dyy)
        units = ((1, 1), (1, 1j), (1j, 1), (1j, 1j))
        moves = [((a, ma, ua), (b, mb, ub)) for ua, ub in units for ma, _ in W1 for mb, _ in W1]
        mixed = self._sums(moves, [wa * wb for _, wa in W1 for _, wb in W1], 144 * h_a * h_b)
        return 0.25 * (mixed[0] + 1j * mixed[1] - 1j * mixed[2] + mixed[3])


@pytest.mark.parametrize("n", [1, 2])
def test_batched_stencils_equal_the_per_derivative_stencils(n):
    # every derivative that the curvature reads, bit for bit, at the chart
    # center and at six seeded points of every bundle with r <= 4
    specs = list(_every_bundle())
    assert len(specs) == 52
    for i, spec in enumerate(specs):
        C = random_tensor(n, spec.rho.r, 900 + i)
        chart = chart_for(spec, n)
        rng = np.random.default_rng(900 + i)
        draws = 0.7 * (rng.standard_normal((6, chart.d)) + 1j * rng.standard_normal((6, chart.d)))
        zeta = np.concatenate([np.zeros((1, chart.d)), draws])
        ev = flagnum._Stencils(spec, C, np.ascontiguousarray(zeta.T))
        oracle = _PerDerivativeStencils(ev)
        gens = range(n + chart.d)
        # the diagonal, the upper vertical triangle and both mixed blocks
        pairs = [(a, b) for a in gens for b in gens if max(a, b) >= n and not n <= b < a]
        P, S = ev.derivatives(pairs)
        assert P.shape == (spec.rank, spec.rank, len(gens), 7) and S.keys() == set(pairs)
        for a in gens:
            assert oracle.d1(a).tobytes() == np.ascontiguousarray(P[:, :, a]).tobytes(), (spec, a)
        for a, b in pairs:
            assert oracle.d2(a, b).tobytes() == np.ascontiguousarray(S[a, b]).tobytes(), (spec, a, b)


def test_one_kernel_call_for_all_stencils(monkeypatch):
    # the curvature by finite differences: one call for the metric at the
    # points and one for every stencil point of every derivative
    calls, kernel = [], flagnum._induced_metric

    def counted(chart, spec, zeta, C=None, z=None):
        calls.append(zeta.shape[1])
        return kernel(chart, spec, zeta, C, z)

    monkeypatch.setattr(flagnum, "_induced_metric", counted)
    spec = UniversalBundleSpec(DimensionSequence((0, 2, 4)), 1, 2)
    C = griffiths_sample(2, 4, terms=4, seed=0)
    flagnum._curvature_coeffs(spec, C, np.zeros((3, 4)))
    # 6 first derivatives of 8 moves, 4 diagonal ones of 10, and 6 vertical
    # and 16 mixed pairs of 64 moves, at 3 points
    assert calls == [3, 3 * (6 * 8 + 4 * 10 + 22 * 64)]

    # the Monte Carlo cases of the benchmark's mc-fiber pass: one audit each
    calls.clear()
    for rho, expr, seed in (((0, 1, 3), "c1(Q1)^2*c2(Q1)", 31), ((0, 2, 4), "c1(Q2)^4*c2(Q2)", 0)):
        C = griffiths_sample(2, rho[-1], terms=4, seed=seed)
        verify_main_theorem(FlagChart(rho, 2), expr, C, SamplerConfig(num_samples=200, seed=seed))
    flat = CurvatureTensor.zero(1, 2)
    pushforward_numeric(FlagChart((0, 1, 2), 1), "0 - c1(U1)", flat, SamplerConfig(num_samples=200, seed=1))
    assert len(calls) == 6


def test_stencil_slices_hold_whole_points_and_keep_every_bit(monkeypatch):
    # five points of 1 496 moves each: the kernel takes them one point per
    # call, in slices of at most _STENCIL_COLUMNS columns, or all at once,
    # with the same bits
    calls, kernel = [], flagnum._induced_metric

    def counted(chart, spec, zeta, C=None, z=None):
        calls.append(zeta.shape[1])
        return kernel(chart, spec, zeta, C, z)

    monkeypatch.setattr(flagnum, "_induced_metric", counted)
    spec = UniversalBundleSpec(DimensionSequence((0, 2, 4)), 1, 2)
    C = griffiths_sample(2, 4, terms=4, seed=0)
    d = chart_for(spec, 2).d
    rng = np.random.default_rng(5)
    zeta = 0.7 * (rng.standard_normal((d, 5)) + 1j * rng.standard_normal((d, 5)))
    gens = range(2 + d)
    pairs = [(a, b) for a in gens for b in gens if max(a, b) >= 2 and not 2 <= b < a]
    out = []
    for columns in (1, flagnum._STENCIL_COLUMNS, 10**9):
        monkeypatch.setattr(flagnum, "_STENCIL_COLUMNS", columns)
        calls.clear()
        P, S = flagnum._Stencils(spec, C, zeta).derivatives(pairs)
        out.append((list(calls), P.tobytes(), [S[ab].tobytes() for ab in pairs]))
    assert [calls for calls, *_ in out] == [[1496] * 5, [4 * 1496, 1496], [5 * 1496]]
    assert out[0][1:] == out[1][1:] == out[2][1:]


def test_audit_matches_the_solve_based_metric_route(monkeypatch):
    # the stencils through the metric kernel against the stencils through
    # the solve-based reference, on every bundle with r <= 4
    cases = []
    for i, spec in enumerate(_every_bundle()):
        C = griffiths_sample(2, spec.rho.r, terms=3, seed=500 + i)
        d = chart_for(spec, 2).d
        rng = np.random.default_rng(500 + i)
        zeta = 0.7 * (rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d)))
        cases.append((spec, C, zeta, flagnum._exact_coeffs(spec, C, zeta)[0]))

    def audits():
        return np.array([flagnum._audit_coeffs(*case) for case in cases])

    kernel = audits()
    monkeypatch.setattr(flagnum, "_induced_metric", _solve_route)
    assert np.abs(kernel - audits()).max() <= 1e-10


def test_monte_carlo_estimates_do_not_depend_on_the_metric_route(monkeypatch):
    # the two Monte Carlo cases of the benchmark: the metric route feeds
    # only the audit, so the estimates are bit-identical and the audit
    # defects move by rounding alone
    cases = [
        ((0, 1, 3), "c1(Q1)^2*c2(Q1)", 31, "auto"),
        ((0, 2, 4), "c1(Q2)^4*c2(Q2)", 0, "product"),
    ]

    def estimates():
        out = []
        for rho, expr, seed, proposal in cases:
            C = griffiths_sample(2, rho[-1], terms=4, seed=seed)
            cfg = SamplerConfig(num_samples=4000, seed=seed, proposal=proposal)
            out.append(pushforward_numeric(FlagChart(rho, 2), expr, C, cfg))
        return out

    kernel = estimates()
    monkeypatch.setattr(flagnum, "_induced_metric", _solve_route)
    for new, old in zip(kernel, estimates()):
        assert new.form.terms == old.form.terms
        assert new.stderr == old.stderr
        assert abs(new.mixed_block_defect - old.mixed_block_defect) <= 1e-10
        assert abs(new.vertical_audit_defect - old.vertical_audit_defect) <= 1e-10


def test_fewer_than_two_finite_samples_have_no_standard_error(monkeypatch):
    # one sample measures no spread: its standard error is unknown, not 0,
    # and the residual against the truth is never within a bound
    chart = FlagChart((0, 1, 3), 2)
    C = griffiths_sample(2, 3, terms=2, seed=7)
    report = verify_main_theorem(chart, "c1(Q1)^2*c2(Q1)", C, SamplerConfig(num_samples=1, seed=3))
    assert report.estimate.n_samples == 1 and report.estimate.stderr
    assert all(math.isnan(se) for se in report.estimate.stderr.values())
    assert math.isnan(report.stderr_total) and not report.consistent_within <= 3.0

    # two samples of which one is not finite
    center = flagnum._center_coeffs

    def one_nan(spec, C, g=None):
        coeffs = center(spec, C, g)
        if g is not None:
            coeffs[(0, 1)][0, 0, 1] = np.nan
        return coeffs

    monkeypatch.setattr(flagnum, "_center_coeffs", one_nan)
    est = pushforward_numeric(chart, "c1(Q1)^2*c2(Q1)", C, SamplerConfig(num_samples=2, seed=3))
    assert est.n_samples == 1 and est.n_nonfinite == 1
    assert all(math.isnan(se) for se in est.stderr.values())
    assert all(math.isnan(c["stderr"]) for c in est.to_json()["coefficients"])


def test_curvature_at_rejects_non_finite_coefficients():
    chart = FlagChart((0, 1, 3), 1)
    spec = UniversalBundleSpec(chart.rho, 1, 2)
    C = griffiths_sample(1, 3, terms=2, seed=5)
    with pytest.raises(ArithmeticError, match="not finite"):
        curvature_at(spec, C, ChartPoint([1e200, 1.0]))


def test_chart_points_must_have_the_fiber_dimension():
    chart = FlagChart((0, 1, 3), 1)
    for zeta in ([1.0], [1.0, 2.0, 3.0], np.zeros((4, 3))):
        with pytest.raises(ValueError, match="has 2 coordinates"):
            frames_eps(chart, zeta)


# -- the Haar route ------------------------------------------------------------

#: per flag type of rank 2 to 4, a class of fiber degree with a nonzero push
#: whose top coefficient is built from the constant vertical block alone, so
#: it does not depend on the rotation
VERTICAL_CLASSES = {
    (0, 1, 2): "c1(U1)",
    (0, 1, 3): "c1(U1)^2",
    (0, 2, 3): "c1(U1)^2",
    (0, 1, 2, 3): "c1(U1)^2*c1(U2/U1)",
    (0, 1, 4): "c1(U1)^3",
    (0, 2, 4): "c1(U1)^4",
    (0, 3, 4): "c1(U1)^3",
    (0, 1, 2, 4): "c1(U1)^3*c1(U2/U1)^2",
    (0, 1, 3, 4): "c1(U1)^3*c1(U2/U1)^2",
    (0, 2, 3, 4): "c1(U1)^4*c1(U2/U1)",
    (0, 1, 2, 3, 4): "c1(U1)^3*c1(U2/U1)^2*c1(U3/U2)",
}


def _flag_types():
    return [rho for r in (2, 3, 4) for rho in dimension_sequences(r, min_steps=2)]


def test_main_theorem_on_every_flag_type_and_seed():
    # the vertical class times c1(U1)^n depends on the rotation: within 4
    # standard errors; the vertical class does not: zero standard error,
    # exact to rounding, over several chunks
    types = _flag_types()
    assert sorted(rho.rho for rho in types) == sorted(VERTICAL_CLASSES)
    n = 2
    for rho in types:
        chart = FlagChart(rho, n)
        for seed in range(10):
            C = griffiths_sample(n, rho.r, terms=3, seed=seed)
            expr = f"{VERTICAL_CLASSES[rho.rho]}*c1(U1)^{n}"
            dep = verify_main_theorem(chart, expr, C, SamplerConfig(4000, seed))
            assert dep.stderr_total > 0 and dep.consistent_within <= 4.0, (rho, seed)
            cfg = SamplerConfig(256, seed, chunk=100)
            const = verify_main_theorem(chart, VERTICAL_CLASSES[rho.rho], C, cfg)
            assert const.stderr_total == 0 and const.truth.norm() >= 1, (rho, seed)
            assert const.residual_abs <= 1e-12 * const.truth.norm(), (rho, seed)


@pytest.mark.parametrize(
    "rho, expr, n, tensor_seed",
    [
        ((0, 1, 3, 4), "c1(U2/U1)^3*c1(U3/U2)^2*c1(E)", 1, 7),
        ((0, 1, 2, 3), "c1(U3/U2)^2*c1(U1)*c1(E)", 1, 7),
        ((0, 3), "c2(E)", 2, 19),
        ((0, 2), "c1(E)", 2, 19),
    ],
)
def test_rotation_invariant_integrands_are_exact(rho, expr, n, tensor_seed):
    # the base factor is an invariant of the whole tensor, so the integrand
    # varies by rounding alone: exact to rounding, and 0 standard errors off
    C = griffiths_sample(n, rho[-1], terms=3, seed=tensor_seed)
    for seed in range(4):
        rep = verify_main_theorem(FlagChart(rho, n), expr, C, SamplerConfig(2000, seed))
        assert rep.residual_rel <= 1e-12 and rep.consistent_within == 0.0
        assert rep.stderr_total <= 1e-14 * rep.truth.norm()


def _superfactorial(k):
    return math.prod(math.factorial(j) for j in range(k + 1))


def test_fiber_volume_closed_form_and_unitary_draws():
    volumes = {
        (0, 1, 3): math.pi**2 / 2,
        (0, 2, 4): math.pi**4 / 12,
        (0, 1, 2, 3): math.pi**3 / 2,
        (0, 1, 3, 4): math.pi**5 / 12,
    }
    for rho in _flag_types():
        d = FlagChart(rho, 1).d
        blocks = np.diff(rho.rho)
        want = math.pi**d * math.prod(_superfactorial(b - 1) for b in blocks) / _superfactorial(rho.r - 1)
        assert flagnum._fiber_volume(rho) == pytest.approx(want, rel=1e-15)
        assert flagnum._fiber_volume(rho) == pytest.approx(volumes.get(rho.rho, want), rel=1e-15)
    for r in (1, 2, 3, 4):
        g = flagnum._haar_unitaries(np.random.default_rng(r), r, 20000)
        gram = np.einsum("lan,lbn->abn", np.conj(g), g)
        assert np.abs(gram - np.eye(r)[:, :, None]).max() <= 1e-12


def test_rotated_center_formula_is_the_center_formula_of_the_rotated_tensor():
    # the samples-last rotation in the integrand against the rotated tensor
    # built one draw at a time
    for i, spec in enumerate(_every_bundle()):
        r = spec.rho.r
        C = random_tensor(2, r, 700 + i)
        g = flagnum._haar_unitaries(np.random.default_rng(700 + i), r, 3)
        batch = flagnum._center_coeffs(spec, C, g)
        for s in range(3):
            gs = g[:, :, s]
            Cg = CurvatureTensor(np.einsum("la,jklm,mb->jkab", gs, C.coeffs, np.conj(gs)))
            single = flagnum._center_coeffs(spec, Cg)
            assert list(single) == list(batch)
            for key, v in single.items():
                got = batch[key] if min(key) >= 2 else batch[key][..., s]
                assert np.abs(got - v).max() <= 1e-13 * np.abs(C.coeffs).max(), (spec, key)


def test_chunked_moments_equal_one_chunk(monkeypatch):
    # the same draws split into chunks: the merged mean and standard error
    # equal those of one chunk
    chart = FlagChart((0, 1, 3), 2)
    C = griffiths_sample(2, 3, terms=3, seed=4)
    draws = flagnum._haar_unitaries(np.random.default_rng(4), 3, 3000)
    used = []

    def fixed(rng, r, count):
        start = sum(used)
        used.append(count)
        return draws[:, :, start : start + count]

    monkeypatch.setattr(flagnum, "_haar_unitaries", fixed)
    one = pushforward_numeric(chart, "c1(Q1)^2*c2(Q1)", C, SamplerConfig(3000, 0))
    used.clear()
    split = pushforward_numeric(chart, "c1(Q1)^2*c2(Q1)", C, SamplerConfig(3000, 0, chunk=700))
    assert used == [700, 700, 700, 700, 200]
    for key, v in one.form.terms.items():
        assert abs(split.form.terms[key] - v) <= 1e-12 * abs(v)
        assert split.stderr[key] == pytest.approx(one.stderr[key], rel=1e-9)


def test_pushforward_numeric_of_a_constant_on_a_point_fiber():
    # no bundle to audit and nothing that depends on the rotation
    est = pushforward_numeric(FlagChart((0, 2), 1), "3", CurvatureTensor.zero(1, 2), SamplerConfig(10, 0))
    assert est.form.terms == {(0, 0): 3.0} and est.stderr == {(0, 0): 0.0}
