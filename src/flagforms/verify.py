"""Named verification suites, shared by the CLI and the acceptance tests.

Each check returns a dict with at least ``name``, ``passed`` and enough
detail to be self-describing; a suite is a list of checks.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .charpoly import ChernPoly, gen_schur, schur, segre_polys
from .combinat import (
    Partition,
    as_dimension_sequence,
    dimension_sequences,
    partitions_of,
    relative_dimension,
)
from .conegeom import builtin_families, cone_membership_2d, in_schur_cone, ray_hull_2d
from .flagnum import (
    ChartPoint,
    FlagChart,
    SamplerConfig,
    _bundle_slices,
    chart_for,
    curvature_at,
    curvature_center,
    pushforward_numeric,
    splitting_u,
    theta_intrinsic,
    verify_main_theorem,
)
from .formlab import (
    CurvatureTensor,
    ExtForm,
    GeneratorSpace,
    base_curvature_matrix,
    chern_forms,
    griffiths_sample,
    positivity_values,
)
from .gysin import (
    epsilon_for_rank,
    grassmann_c1c2_pushforward,
    pushforward_dp,
    pushforward_oracle_symmetric,
)
from .rootcalc import RootPoly, UniversalBundleSpec, block_symmetrize


def _check(name, passed, **detail):
    out = {"name": name, "passed": bool(passed)}
    out.update(detail)
    return out


# -- built-in rank-4 identity data ---------------------------------------------

#: the four rank-4 push-forward identities over the two Grassmann bundles:
#: (s, alpha, beta, expected polynomial in c, expected polynomial in segre
#: forms, expected Schur coordinates)
RANK4_IDENTITIES = [
    {
        "s": 1,
        "alpha": 2,
        "beta": 2,
        "chern": {(3, 0, 0, 0): 1, (1, 1, 0, 0): 2, (0, 0, 1, 0): -1},
        "segre": {(3, 0, 0, 0): Fraction(-2), (0, 0, 1, 0): 1},
        "schur": {(3,): 2, (2, 1): 4, (1, 1, 1): 1},
    },
    {
        "s": 1,
        "alpha": 3,
        "beta": 2,
        "chern": {(4, 0, 0, 0): 1, (2, 1, 0, 0): 3, (1, 0, 1, 0): -3, (0, 0, 0, 1): -1},
        "segre": {(2, 1, 0, 0): 6, (1, 0, 1, 0): -5, (0, 2, 0, 0): -1, (0, 0, 0, 1): 1},
        "schur": {(3, 1): 6, (2, 2): 5, (2, 1, 1): 6, (1, 1, 1, 1): 1},
    },
    {
        "s": 2,
        "alpha": 3,
        "beta": 2,
        "chern": {(3, 0, 0, 0): 1, (0, 0, 1, 0): -1},
        "segre": {(1, 1, 0, 0): -2, (0, 0, 1, 0): 1},
        "schur": {(2, 1): 2, (1, 1, 1): 1},
    },
    {
        "s": 2,
        "alpha": 4,
        "beta": 2,
        "chern": {(4, 0, 0, 0): 1, (1, 0, 1, 0): -3, (0, 0, 0, 1): 2},
        "segre": {(1, 0, 1, 0): 1, (0, 2, 0, 0): 2, (0, 0, 0, 1): -2},
        "schur": {(2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1},
    },
]


def rank4_identity_checks():
    """The four rank-4 push-forward identities, their Segre re-expressions
    and their Schur coordinates, all exact."""
    checks = []
    r = n = 4
    for case in RANK4_IDENTITIES:
        s, alpha, beta = case["s"], case["alpha"], case["beta"]
        name = f"push s={s} alpha={alpha} beta={beta}"
        pushed, vec = grassmann_c1c2_pushforward(r, n, s, alpha, beta)
        expected = ChernPoly(r, case["chern"])
        ok_chern = pushed == expected
        # the Segre expression is a polynomial in s_1..s_4, expanded in c
        segre_form = ChernPoly(r, case["segre"]).evaluate(
            segre_polys(r, 4), lambda q: ChernPoly.const(r, q)
        )
        ok_segre = pushed == segre_form
        expected_schur = {Partition(p): c for p, c in case["schur"].items()}
        ok_schur = dict(vec.coords) == expected_schur
        checks.append(
            _check(
                name,
                ok_chern and ok_segre and ok_schur,
                chern=str(pushed),
                chern_matches=ok_chern,
                segre_matches=ok_segre,
                schur_matches=ok_schur,
                schur=[[list(p.parts), str(Fraction(c))] for p, c in vec.items()],
            )
        )
    return checks


def jacobi_trudi_checks(max_weight=6, max_rank=4):
    """schur(sigma) == (-1)^{|sigma|} gen_schur(sigma-tilde) exactly."""
    from .combinat import sigma_tilde

    checks = []
    for r in range(2, max_rank + 1):
        failures = []
        count = 0
        for k in range(0, max_weight + 1):
            for sigma in partitions_of(k, max_part=r):
                count += 1
                lhs = schur(sigma, r)
                rhs = gen_schur(sigma_tilde(sigma, r), r) * ((-1) ** k)
                if lhs != rhs:
                    failures.append(list(sigma.parts))
        checks.append(
            _check(
                f"jacobi-trudi r={r} (|sigma| <= {max_weight})",
                not failures,
                cases=count,
                failures=failures,
            )
        )
    return checks


def _monomials_up_to(r, max_deg):
    for deg in range(0, max_deg + 1):
        for combo in combinations_with_replacement(range(r), deg):
            exps = [0] * r
            for i in combo:
                exps[i] += 1
            yield tuple(exps)


def oracle_checks(max_rank=4, extra_degree=3):
    """Determinantal rule vs Weyl symmetrizer, exhaustively by degree.

    Over complete flags the two agree on every monomial.  Over coarser
    flags only block-symmetric input has a fiber integral, so each monomial
    is compared after block symmetrization (the symmetrizer of a
    non-symmetric monomial is by construction the push of its block
    average, which the determinantal rule matches only on symmetric
    input).
    """
    checks = []
    for r in range(2, max_rank + 1):
        for rho in dimension_sequences(r, min_steps=2):
            d = relative_dimension(rho)
            complete = rho.m == r
            mismatches = []
            count = 0
            seen = set()
            for exps in _monomials_up_to(r, d + extra_degree):
                mono = RootPoly(r, {exps: 1})
                if complete:
                    F = mono
                else:
                    F = block_symmetrize(mono, rho)
                    key = tuple(sorted(F.terms.items()))
                    if key in seen:
                        continue
                    seen.add(key)
                count += 1
                lhs = pushforward_dp(F, rho)
                rhs = pushforward_oracle_symmetric(F, rho)
                if lhs != rhs:
                    mismatches.append(exps)
            checks.append(
                _check(
                    f"oracle rho={rho.rho} (deg <= d+{extra_degree})",
                    not mismatches,
                    monomials=count,
                    mismatches=mismatches[:5],
                )
            )
    return checks


def schur_via_flag_checks(max_weight=4, max_rank=4):
    """Flag push-forwards produce epsilon(r) * S_sigma with one sign per rank."""
    checks = []
    for r in range(2, max_rank + 1):
        try:
            eps = epsilon_for_rank(r, max_weight=max_weight)
            count = sum(
                1
                for k in range(max_weight + 1)
                for _ in partitions_of(k, max_part=r)
            )
            checks.append(
                _check(
                    f"schur-via-flag r={r} (k <= {max_weight})",
                    True,
                    epsilon=eps,
                    cases=count,
                )
            )
        except ArithmeticError as exc:
            checks.append(_check(f"schur-via-flag r={r}", False, error=str(exc)))
    return checks


# -- curvature suite -----------------------------------------------------------


def _random_tensor(n, r, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n, r, r)) + 1j * rng.standard_normal((n, n, r, r))
    herm = 0.5 * (raw + np.conj(raw.transpose(1, 0, 3, 2)))
    return CurvatureTensor(herm)


def _config_stream(seed, count, max_n=4, max_r=4):
    """Deterministic stream of (C, rho, spec) configurations."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r = int(rng.integers(2, max_r + 1))
        n = int(rng.integers(1, max_n + 1))
        seqs = dimension_sequences(r, min_steps=2)
        rho = seqs[int(rng.integers(0, len(seqs)))]
        ell = int(rng.integers(0, rho.m))
        l = int(rng.integers(ell + 1, rho.m + 1))
        C = _random_tensor(n, r, int(rng.integers(0, 2**31)))
        out.append((C, rho, UniversalBundleSpec(rho, ell, l)))
    return out


def curvature_center_checks(cases=20, seed=20240401, tol=1e-5):
    """Finite-difference curvature at the chart center against the exact
    formula, relative error <= tol."""
    worst = 0.0
    for C, rho, spec in _config_stream(seed, cases):
        chart = chart_for(spec, C.n)
        exact = curvature_center(spec, C)
        fd = curvature_at(spec, C, ChartPoint.center(chart))
        diff = 0.0
        norm = 0.0
        for b in range(spec.rank):
            for a in range(spec.rank):
                diff += (exact.entries[b][a] - fd.entries[b][a]).norm() ** 2
                norm += exact.entries[b][a].norm() ** 2
        rel = (diff**0.5) / max(norm**0.5, 1e-300)
        worst = max(worst, rel)
    return [
        _check(
            f"curvature center vs finite differences ({cases} random configs)",
            worst <= tol,
            worst_rel_error=worst,
            tol=tol,
        )
    ]


def theta_invariance_checks(trials=50, seed=20240402, tol=1e-12):
    """Block-diagonal unitary reframings leave the horizontal tensor fixed."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    C, rho, spec = _config_stream(seed + 1, 1, max_n=3, max_r=4)[0]
    r = rho.r
    base_V = _random_unitary(rng, r)
    ref = theta_intrinsic(spec, base_V, C)
    blocks = []
    bounds = [r - rho[i] for i in range(rho.m, -1, -1)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        blocks.append((lo, hi))
    for _ in range(trials):
        U = np.zeros((r, r), dtype=complex)
        for lo, hi in blocks:
            U[lo:hi, lo:hi] = _random_unitary(rng, hi - lo)
        other = theta_intrinsic(spec, base_V @ U, C)
        diff = 0.0
        for b in range(r):
            for a in range(r):
                diff = max(diff, (ref.entries[b][a] - other.entries[b][a]).norm())
        worst = max(worst, diff)
    return [
        _check(
            f"theta invariance under {trials} block reframings",
            worst <= tol,
            worst_change=worst,
            tol=tol,
        )
    ]


def _random_unitary(rng, k):
    raw = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def mixed_block_checks(points=10, seed=20240403, tol=1e-6):
    """Mixed base-fiber coefficients of the finite-difference curvature stay
    below tol times the curvature scale at random chart points."""
    checks = []
    for C, rho, spec in _config_stream(seed, 4, max_n=3, max_r=4):
        chart = chart_for(spec, C.n)
        rng = np.random.default_rng(seed + spec.rho.r)
        worst = 0.0
        for _ in range(points):
            zeta = 0.7 * (
                rng.standard_normal(chart.d) + 1j * rng.standard_normal(chart.d)
            )
            fm = curvature_at(spec, C, ChartPoint(zeta))
            scale = fm.norm()
            mixed = 0.0
            base_mask = chart.base_mask()
            for b in range(spec.rank):
                for a in range(spec.rank):
                    for (s, t), v in fm.entries[b][a].terms.items():
                        s_base = bool(s & base_mask)
                        t_base = bool(t & base_mask)
                        if s_base != t_base:
                            mixed = max(mixed, abs(v))
            worst = max(worst, mixed / max(scale, 1e-300))
        checks.append(
            _check(
                f"mixed blocks rho={spec.rho.rho} spec=({spec.ell},{spec.l})",
                worst <= tol,
                worst_ratio=worst,
                tol=tol,
            )
        )
    return checks


def splitting_checks(seed=20240404, min_slope=1.9):
    """First-order coefficient of the quotient splitting equals minus the
    conjugate fiber coordinate, with at least quadratically small residual."""
    checks = []
    configs = []
    seen = set()
    for C, rho, spec in _config_stream(seed, 8, max_n=3, max_r=4):
        if spec.ell == 0:
            spec = UniversalBundleSpec(rho, rho.m - 1, rho.m)
        if (rho.rho, spec.ell, spec.l) in seen:
            continue
        seen.add((rho.rho, spec.ell, spec.l))
        configs.append((C, rho, spec))
    # a mid-filtration quotient, whose residual is genuinely quadratic
    rho_mid = as_dimension_sequence((0, 1, 2, 3))
    configs.append(
        (_random_tensor(2, 3, seed + 99), rho_mid, UniversalBundleSpec(rho_mid, 1, 2))
    )
    for C, rho, spec in configs:
        chart = chart_for(spec, C.n)
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(chart.d) + 1j * rng.standard_normal(chart.d)
        direction /= np.linalg.norm(direction)
        scales = np.logspace(-1, -3, 9)
        residuals = []
        for t in scales:
            zeta = t * direction
            u = splitting_u(spec, C, None, ChartPoint(zeta))
            expected = _expected_first_order_u(spec, chart, zeta)
            residuals.append(np.abs(u - expected).max())
        logs = np.log(np.maximum(residuals, 1e-300))
        slope = np.polyfit(np.log(scales), logs, 1)[0]
        checks.append(
            _check(
                f"splitting rho={rho.rho} spec=({spec.ell},{spec.l})",
                slope >= min_slope,
                slope=float(slope),
                min_slope=min_slope,
            )
        )
    return checks


def _expected_first_order_u(spec, chart, zeta):
    q_idx, s_idx = _bundle_slices(spec)
    expected = np.zeros((len(q_idx), len(s_idx)), dtype=complex)
    for qi, alpha0 in enumerate(q_idx):
        for si, mu0 in enumerate(s_idx):
            pair = (alpha0 + 1, mu0 + 1)
            if pair in chart._pair_index:
                expected[qi, si] = -np.conj(zeta[chart.pair_index(*pair)])
    return expected


# -- numeric Gysin suite --------------------------------------------------------


def fs_calibration_check(samples=10**6, seed=11, tol=5e-3):
    """The volume of the projective line in the induced normalization is 1."""
    rho = as_dimension_sequence((0, 1, 2))
    chart = FlagChart(rho, 1)
    C = CurvatureTensor.zero(1, 2)
    est = pushforward_numeric(
        chart, "0 - c1(U1)", C, SamplerConfig(num_samples=samples, seed=seed)
    )
    val = complex(est.form.coeff(0, 0))
    err = abs(val - 1.0)
    se = est.stderr.get((0, 0), 0.0)
    return [
        _check(
            f"fiber volume calibration ({samples} samples)",
            err <= tol and err <= max(3 * se, 1e-6),
            value=[val.real, val.imag],
            abs_error=err,
            stderr=se,
            tol=tol,
        )
    ]


def main_theorem_checks(samples=10**6, seed=12):
    """Monte Carlo fiber integration against the symbolic push-forward."""
    checks = []
    cases = [
        ("c1(U2/U1)^3", (0, 1, 2), 2, 0.02),
        ("c1(Q1)^2*c2(Q1)", (0, 1, 3), 2, 0.03),
    ]
    for expr, rho, n, tol in cases:
        rho = as_dimension_sequence(rho)
        C = _griffiths_like(n, rho.r, seed + rho.r)
        chart = FlagChart(rho, n)
        report = verify_main_theorem(
            chart, expr, C, SamplerConfig(num_samples=samples, seed=seed)
        )
        checks.append(
            _check(
                f"main theorem {expr} rho={rho.rho}",
                report.residual_rel <= tol and report.consistent_within <= 3.0,
                residual_rel=report.residual_rel,
                residual_over_stderr=report.consistent_within,
                tol=tol,
            )
        )
    return checks


def _griffiths_like(n, r, seed):
    return griffiths_sample(n, r, terms=max(3, n * r // 2), seed=seed)


# -- positivity / cone suite ------------------------------------------------


def admissible_grassmann_cases(r, n):
    out = []
    for s in range(1, r):
        d = s * (r - s)
        for beta in range(0, 3):
            for alpha in range(0, n + d + 1):
                if d <= alpha + 2 * beta <= n + d:
                    out.append((s, alpha, beta))
    return out


def grassmann_cone_checks(seed=20240405, tensors=5, frames=10**4, tol_scale=1e-9):
    """Every admissible Grassmann push-forward for r = n = 4 lands in the
    Schur cone (exact) and evaluates positively on sampled frames of
    Griffiths-semipositive curvature tensors."""
    r = n = 4
    checks = []
    cases = admissible_grassmann_cases(r, n)
    cone_failures = []
    for s, alpha, beta in cases:
        try:
            _, vec = grassmann_c1c2_pushforward(r, n, s, alpha, beta)
        except ArithmeticError as exc:
            cone_failures.append(((s, alpha, beta), str(exc)))
            continue
        ok, witness = in_schur_cone(vec)
        if not ok:
            cone_failures.append(((s, alpha, beta), witness))
    checks.append(
        _check(
            f"schur cone membership ({len(cases)} admissible triples)",
            not cone_failures,
            failures=cone_failures[:5],
        )
    )

    worst = 0.0
    min_ratio = math.inf
    base_space = GeneratorSpace.base(n)
    tensor_list = [
        griffiths_sample(n, r, terms=4, seed=seed + i) for i in range(tensors)
    ]
    cf_per_tensor = [
        chern_forms(base_curvature_matrix(C, base_space)) for C in tensor_list
    ]
    for s, alpha, beta in cases:
        pushed, _ = grassmann_c1c2_pushforward(r, n, s, alpha, beta)
        for t_idx, cf in enumerate(cf_per_tensor):
            gamma = pushed.evaluate(cf, lambda q: ExtForm.scalar(base_space, q))
            vals = positivity_values(gamma, samples=frames, seed=seed + 31 * t_idx)
            scale = max(float(np.abs(vals).max(initial=0.0)), 1.0)
            min_ratio = min(min_ratio, float(vals.min(initial=0.0)) / scale)
            if vals.min(initial=0.0) < -tol_scale * scale:
                worst = max(worst, float(-vals.min()) / scale)
    checks.append(
        _check(
            f"sampled positivity over {tensors} tensors x {frames} frames",
            worst == 0.0,
            worst_negative_ratio=worst,
            min_value_ratio=min_ratio,
            seed=seed,
            frames=frames,
        )
    )
    return checks


def cone_comparison_checks(denom=64):
    """The second Chern class ray lies outside the sampled hull of the
    three rank-3 families; the rank-2 family leaves the S_(1,1) axis."""
    fams = builtin_families()
    merged = ray_hull_2d(
        [fams["fcone-r3-proj"], fams["fcone-r3-hyper"], fams["fcone-r3-complete"]],
        denom=denom,
    )
    inside, margin = cone_membership_2d((1, 0), merged)
    check1 = _check(
        f"c2 outside rank-3 sampled hull (denom {denom})",
        (not inside) and margin < 0,
        margin=str(margin),
        hull_lo=list(merged.lo),
        hull_hi=list(merged.hi),
    )
    rank2 = ray_hull_2d(fams["fcone-r2"], denom=denom)
    off_axis = [ray for ray in rank2.rays if ray[0] > 0]
    inside_axis, _ = cone_membership_2d((0, 1), rank2)
    check2 = _check(
        "rank-2 family contains rays off the S_(1,1) axis",
        bool(off_axis) and inside_axis,
        off_axis_count=len(off_axis),
        axis_ray_included=inside_axis,
    )
    return [check1, check2]


SUITES = {
    "identities": lambda **kw: rank4_identity_checks() + jacobi_trudi_checks(),
    "oracle": lambda **kw: oracle_checks() + schur_via_flag_checks(),
    "curvature": lambda **kw: (
        curvature_center_checks()
        + theta_invariance_checks()
        + mixed_block_checks()
        + splitting_checks()
    ),
    "gysin-numeric": lambda seed=11, samples=10**6, **kw: (
        fs_calibration_check(samples=samples, seed=seed)
        + main_theorem_checks(samples=samples, seed=seed + 1)
    ),
    "positivity": lambda seed=20240405, samples=10**4, **kw: (
        grassmann_cone_checks(seed=seed, frames=samples) + cone_comparison_checks()
    ),
}


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    return SUITES[name](**kwargs)
