"""The three workloads: inputs made from a seed, the timed operations, and
the checks of their outputs against routes separate from the code under
test.

A workload is built by ``WORKLOADS[name](seed)``.  Its ``ops`` is a list of
(name, call) pairs; ``call(results)`` makes one call into a public flagforms
function, possibly on the outputs of earlier operations.  ``check(results)``
maps each operation name to None when its output is right, or to a reason.
The checks run after the timed region.  Every workload does the same work
whatever the seed: the seed picks coefficients, points, tensors and random
streams, never how many of them there are.
"""

import math
import random
import re
from fractions import Fraction

import numpy as np

from flagforms import charpoly, combinat, conegeom, exprs, flagnum, formlab, gysin, rootcalc
from flagforms.rootcalc import UniversalBundleSpec


def _form_gap(a, b):
    """Largest coefficient difference of two ExtForms, and their scale."""
    keys = set(a.terms) | set(b.terms)
    gap = max((abs(a.terms.get(k, 0) - b.terms.get(k, 0)) for k in keys), default=0.0)
    scale = max((abs(v) for v in list(a.terms.values()) + list(b.terms.values())), default=0.0)
    return gap, scale


def _matrix_gap(m1, m2):
    worst, scale = 0.0, 0.0
    for row1, row2 in zip(m1.entries, m2.entries):
        for e1, e2 in zip(row1, row2):
            gap, sc = _form_gap(e1, e2)
            worst, scale = max(worst, gap), max(scale, sc)
    return worst, scale


def eval_in_forms(poly, cf, space):
    """A ChernPoly evaluated in the Chern forms cf[1..r] of the base."""
    acc = formlab.ExtForm.zero(space)
    for exps, coeff in poly.terms.items():
        piece = formlab.ExtForm.scalar(space, complex(coeff))
        for j, a in enumerate(exps, start=1):
            for _ in range(a):
                piece = piece.wedge(cf[j])
        acc = acc + piece
    return acc


# -- exact-push ----------------------------------------------------------------

#: (rho, template, E-free template, power of c1(E)); {a} and {b} are positive
#: rationals drawn from the seed.  The rank-4 Grassmann identities are the
#: paper's; (0,2,5,7) expands to 1063 non-partition index sequences;
#: (0,4,8) is a large push over partitions only; (0,2,5,8) has degree 17,
#: below the fiber dimension 21.
PUSH_CASES = [
    ((0, 1, 4), "c1(Q1)^2*c2(Q1)^2", None, 0),
    ((0, 1, 4), "c1(Q1)^3*c2(Q1)^2", None, 0),
    ((0, 2, 4), "c1(Q2)^3*c2(Q2)^2", None, 0),
    ((0, 2, 4), "c1(Q2)^4*c2(Q2)^2", None, 0),
    ((0, 1, 2, 4), "{a}*c1(U2/U1)^3*c1(U1)^2*c2(E) - {b}*c1(U1)^4*c2(U3/U2)*c1(E)", None, 0),
    ((0, 1, 2, 3, 4), "{a}*c1(U2/U1)^4*c1(U1)^3*c1(U3/U2) + {b}*c1(U3/U2)^2*c1(U2/U1)^5*c1(E)", None, 0),
    ((0, 2, 5), "{a}*c1(Q2)^5*c2(Q2)^2*c3(Q2) - {b}*c1(Q2)^4*c2(Q2)^3*c2(E)", None, 0),
    ((0, 1, 3, 5), "{a}*c1(U3/U1)^6*c2(U3/U1)*c1(U1)^2 + {b}*c2(U3/U1)^4*c1(E)^2", None, 0),
    ((0, 3, 6), "{a}*c1(Q3)^9*c2(Q3)", None, 0),
    ((0, 2, 5, 7), "{a}*c1(U2/U1)^10*c2(U1)^5*c1(E)^2", "{a}*c1(U2/U1)^10*c2(U1)^5", 2),
    ((0, 4, 8), "{a}*c1(Q4)^16*c2(Q4)^2", None, 0),
    ((0, 2, 5, 8), "{a}*c1(U2/U1)^6*c2(U1)^4*c1(E)^3", "{a}*c1(U2/U1)^6*c2(U1)^4", 3),
]

#: Schur coordinates of the four rank-4 identities, in order
RANK4_SCHUR = [
    {(3,): 2, (2, 1): 4, (1, 1, 1): 1},
    {(3, 1): 6, (2, 2): 5, (2, 1, 1): 6, (1, 1, 1, 1): 1},
    {(2, 1): 2, (1, 1, 1): 1},
    {(2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1},
]

#: the sign epsilon(r) of the Schur-as-push-forward construction
EPSILON = {2: -1, 3: -1, 4: 1}

#: partitions pushed from the complete flag by schur_via_flag, per rank
FLAG_SIGMAS = {
    4: [tuple(p.parts) for k in range(1, 6) for p in combinat.partitions_of(k, max_part=4)],
    5: [tuple(p.parts) for p in combinat.partitions_of(4, max_part=5)],
}


#: a positive multiple of c1(Q)^a c2(Q)^b, whose push has Schur coordinates >= 0
_GRASSMANN_MONOMIAL = re.compile(r"^(\d+(/\d+)?\*)?c1\(Q\d+\)\^\d+\*c2\(Q\d+\)\^\d+$")


def _coeff(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


class ExactPush:
    def __init__(self, seed):
        rng = random.Random(seed)
        self.cases = []
        for rho, template, e_free, e_power in PUSH_CASES:
            a, b = _coeff(rng), _coeff(rng)
            text = template.format(a=a, b=b)
            free = e_free.format(a=a, b=b) if e_free else None
            rho = combinat.as_dimension_sequence(rho)
            k = self._degree(text) - combinat.relative_dimension(rho)
            self.cases.append((rho, text, free, e_power, k))
        self.ops = []
        for i, (rho, text, _, _, k) in enumerate(self.cases):
            self.ops += [
                (f"parse:{i}", lambda res, text=text: exprs.parse(text)),
                (f"expand:{i}", lambda res, i=i, rho=rho: rootcalc.expand_expression(res[f"parse:{i}"], rho)),
                (f"push:{i}", lambda res, i=i, rho=rho: gysin.pushforward_dp(res[f"expand:{i}"], rho)),
            ]
            if k >= 0:
                self.ops.append(
                    (f"decompose:{i}", lambda res, i=i, k=k: charpoly.schur_decompose(res[f"push:{i}"], k))
                )
        for r, sigmas in FLAG_SIGMAS.items():
            for sigma in sigmas:
                self.ops.append(
                    (f"flag:{r}:{sigma}", lambda res, s=sigma, r=r: gysin.schur_via_flag(s, r))
                )

    @staticmethod
    def _degree(text):
        degs = exprs.degrees(exprs.parse(text))
        (deg,) = degs
        return deg

    def check(self, res):
        import symref  # sympy loads after the timed region, outside setup_s

        bad = {}
        for i, (rho, text, free, e_power, k) in enumerate(self.cases):
            r = rho.r
            F, P = res.get(f"expand:{i}"), res.get(f"push:{i}")
            if F is None or P is None:
                continue
            if r <= gysin.ORACLE_MAX_RANK and symref.sympy.expand(symref.from_roots(F, r) - symref.expand(text, rho.rho)) != 0:
                bad[f"parse:{i}"] = bad[f"expand:{i}"] = "root expansion differs from sympy"
            if r <= 4 and symref.sympy.expand(symref.from_chern(P) - symref.weyl_push(symref.expand(text, rho.rho), rho.rho)) != 0:
                bad[f"push:{i}"] = "push differs from the sympy Weyl symmetrizer"
            if r <= gysin.ORACLE_MAX_RANK and P != gysin.pushforward_oracle(F, rho):
                bad[f"push:{i}"] = "push differs from pushforward_oracle"
            if k < 0 and not P.is_zero():
                bad[f"push:{i}"] = "push of a class below the fiber dimension is not zero"
            if free is not None:
                base = gysin.pushforward_dp(rootcalc.expand_expression(free, rho), rho)
                if P != base * charpoly.ChernPoly.gen(r, 1) ** e_power:
                    bad[f"push:{i}"] = "projection formula for c1(E) fails"
            vec = res.get(f"decompose:{i}")
            if vec is not None:
                rebuilt = sum(
                    (symref.jacobi_trudi(s.parts, r) * symref.sympy.Rational(str(c)) for s, c in vec.items()),
                    symref.sympy.Integer(0),
                )
                if symref.sympy.expand(rebuilt - symref.from_chern(P)) != 0:
                    bad[f"decompose:{i}"] = "Schur coordinates do not rebuild the push"
                if _GRASSMANN_MONOMIAL.match(text) and any(c < 0 for _, c in vec.items()):
                    bad[f"decompose:{i}"] = "negative Schur coordinate of a Grassmann push"
                if i < len(RANK4_SCHUR) and {s.parts: c for s, c in vec.items() if c} != RANK4_SCHUR[i]:
                    bad[f"decompose:{i}"] = "rank-4 identity has the wrong Schur coordinates"
        for r, sigmas in FLAG_SIGMAS.items():
            signs = set()
            for sigma in sigmas:
                name = f"flag:{r}:{sigma}"
                if name not in res:
                    continue
                pushed, report = res[name]
                eps = report["epsilon"]
                signs.add(eps)
                jt = symref.jacobi_trudi(sigma, r)
                if symref.sympy.expand(symref.from_chern(pushed) - eps * jt) != 0:
                    bad[name] = "flag push is not epsilon * Jacobi-Trudi"
                elif r in EPSILON and eps != EPSILON[r]:
                    bad[name] = f"epsilon({r}) = {eps}, expected {EPSILON[r]}"
            if len(signs) > 1:
                for sigma in sigmas:
                    bad.setdefault(f"flag:{r}:{sigma}", f"epsilon({r}) is not constant")
        return bad


# -- mc-fiber -----------------------------------------------------------------

#: (rho, expression, base dimension, samples, proposal, fixed seed); the
#: first fiber is projective, with bounded importance weights, and takes its
#: tensor and sample stream from --seed.  The second is the d = 4 fiber of
#: (0,2,4) under the product proposal, whose weights are heavy-tailed: with
#: a seed-dependent stream its error went past 6 reported standard errors on
#: two seeds in 300, so the failed count would differ between runs.
#: Its tensor and stream therefore use seed 0 on every run.
MC_CASES = [
    ((0, 1, 3), "c1(Q1)^2*c2(Q1)", 2, 4000, "auto", None),
    ((0, 2, 4), "c1(Q2)^4*c2(Q2)", 2, 4000, "product", 0),
]
#: samples of the projective-line volume calibration
MC_CALIBRATION_SAMPLES = 20000
#: an estimate passes when each coefficient is within this many standard
#: errors of the symbolic push ...
MC_SIGMAS = 6.0
#: ... and its largest coefficient error is at most this share of the
#: largest coefficient of the push, whatever its standard errors say
MC_REL = 0.25


class McFiber:
    def __init__(self, seed):
        self.cases = []
        self.ops = []
        for i, (rho, expr, n, samples, proposal, fixed) in enumerate(MC_CASES):
            rho = combinat.as_dimension_sequence(rho)
            case_seed = seed * 31 + i if fixed is None else fixed
            C = formlab.griffiths_sample(n, rho.r, terms=4, seed=case_seed)
            chart = flagnum.FlagChart(rho, n)
            node = exprs.parse(expr)
            cfg = flagnum.SamplerConfig(num_samples=samples, seed=case_seed, proposal=proposal)
            self.cases.append((rho, node, C, n))
            self.ops.append(
                (f"verify:{rho.rho}", lambda res, a=(chart, node, C, cfg): flagnum.verify_main_theorem(*a))
            )
        line = flagnum.FlagChart((0, 1, 2), 1)
        volume = exprs.parse("0 - c1(U1)")
        cfg = flagnum.SamplerConfig(num_samples=MC_CALIBRATION_SAMPLES, seed=seed)
        flat = formlab.CurvatureTensor.zero(1, 2)
        self.ops.append(
            ("calibrate:P1", lambda res: flagnum.pushforward_numeric(line, volume, flat, cfg))
        )

    def check(self, res):
        bad = {}
        for rho, node, C, n in self.cases:
            name = f"verify:{rho.rho}"
            rep = res.get(name)
            if rep is None:
                continue
            phi = gysin.pushforward_oracle(rootcalc.expand_expression(node, rho), rho)
            space = formlab.GeneratorSpace.base(n)
            truth = eval_in_forms(phi, formlab.chern_forms(formlab.base_curvature_matrix(C, space)), space)
            gap, scale = _form_gap(truth, rep.truth)
            if gap > 1e-9 * max(scale, 1.0):
                bad[name] = "symbolic truth differs from the oracle push"
                continue
            est = rep.estimate
            for key in set(truth.terms) | set(est.form.terms):
                err = abs(est.form.terms.get(key, 0) - truth.terms.get(key, 0))
                if err > MC_SIGMAS * est.stderr.get(key, 0.0) + 1e-12 * max(scale, 1.0):
                    bad[name] = f"estimate off by {err:.3g}, over {MC_SIGMAS} standard errors"
            truth_scale = max((abs(v) for v in truth.terms.values()), default=0.0)
            gap, _ = _form_gap(est.form, truth)
            if not truth_scale or gap > MC_REL * truth_scale:
                bad[name] = f"estimate off by {gap:.3g}, over {MC_REL} of the push's scale {truth_scale:.3g}"
            if est.n_samples + est.n_nonfinite != est.n_requested:
                bad[name] = "sample count does not add up"
        est = res.get("calibrate:P1")
        if est is not None:
            value = complex(est.form.coeff(0, 0))
            if abs(value - 1) > max(MC_SIGMAS * est.stderr.get((0, 0), 0.0), 1e-9):
                bad["calibrate:P1"] = f"projective line volume {value} is not 1"
        return bad


# -- pointwise-forms --------------------------------------------------------------

#: frames per positivity evaluation, Griffiths tensors per positivity pass
POS_FRAMES = 400
POS_TENSORS = 2
#: reframings of the horizontal tensor
THETA_FRAMES = 4


def curvature_specs():
    """Every universal bundle of every flag type with r <= 4."""
    out = []
    for r in (2, 3, 4):
        for rho in combinat.dimension_sequences(r, min_steps=2):
            for ell in range(rho.m):
                for l in range(ell + 1, rho.m + 1):
                    out.append(UniversalBundleSpec(rho, ell, l))
    return out


def grassmann_cases(r, n):
    out = []
    for s in range(1, r):
        d = s * (r - s)
        for beta in range(3):
            for alpha in range(n + d + 1):
                if d <= alpha + 2 * beta <= n + d:
                    out.append((s, alpha, beta))
    return out


def _unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _logdet_laplacian(metric, coords, idx, h):
    """(1/4) of the Laplacian of log det metric in complex coordinate idx,
    by the fourth-order five-point stencil on each real axis."""
    acc = 0.0
    for unit in (1.0, 1j):
        vals = []
        for m in (-2, -1, 0, 1, 2):
            x = coords.copy()
            x[idx] += m * h * unit
            vals.append(np.log(np.linalg.det(metric(x)).real))
        acc += (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    return acc / 4


class PointwiseForms:
    R = N = 4

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.ops = []
        self.curv = []
        for i, spec in enumerate(curvature_specs()):
            C = formlab.griffiths_sample(1, spec.rho.r, terms=3, seed=seed * 1009 + i)
            chart = flagnum.chart_for(spec, 1)
            zeta = 0.5 * (rng.standard_normal(chart.d) + 1j * rng.standard_normal(chart.d))
            point = flagnum.ChartPoint(zeta)
            self.curv.append((spec, C, point))
            self.ops.append((f"curv:{i}", lambda res, a=(spec, C, point): flagnum.curvature_at(*a)))
            self.ops.append((f"center:{i}", lambda res, a=(spec, C): flagnum.curvature_center(*a)))
        self.grass = grassmann_cases(self.R, self.N)
        for case in self.grass:
            self.ops.append(
                (f"grass:{case}", lambda res, c=case: gysin.grassmann_c1c2_pushforward(self.R, self.N, *c))
            )
            self.ops.append((f"cone:{case}", lambda res, c=case: conegeom.in_schur_cone(res[f"grass:{c}"][1])))
        spec = UniversalBundleSpec(combinat.as_dimension_sequence((0, 1, 3, 4)), 1, 3)
        C = formlab.griffiths_sample(2, 4, terms=3, seed=seed * 1013)
        V = _unitary(rng, 4)
        self.theta = (spec, C)
        for j in range(THETA_FRAMES):
            U = np.zeros((4, 4), dtype=complex)
            for lo, hi in ((0, 1), (1, 3), (3, 4)):
                U[lo:hi, lo:hi] = _unitary(rng, hi - lo) if j else np.eye(hi - lo)
            self.ops.append((f"theta:{j}", lambda res, W=V @ U: flagnum.theta_intrinsic(spec, W, C)))
        self.space = formlab.GeneratorSpace.base(self.N)
        self.tensors = [
            formlab.griffiths_sample(self.N, self.R, terms=4, seed=seed * 1019 + t) for t in range(POS_TENSORS)
        ]
        for t, Ct in enumerate(self.tensors):
            self.ops.append(
                (f"chern:{t}", lambda res, Ct=Ct: formlab.chern_forms(formlab.base_curvature_matrix(Ct, self.space)))
            )
        for t in range(POS_TENSORS):
            for case in self.grass:
                s, alpha, beta = case
                if alpha + 2 * beta == s * (self.R - s):
                    continue  # a constant
                self.ops.append((f"pos:{case}:{t}", lambda res, c=case, t=t, sd=seed * 37 + t: formlab.positivity_values(
                    eval_in_forms(res[f"grass:{c}"][0], res[f"chern:{t}"], self.space), samples=POS_FRAMES, seed=sd)))
        fams = conegeom.builtin_families()
        rank3 = [fams["fcone-r3-proj"], fams["fcone-r3-hyper"], fams["fcone-r3-complete"]]
        self.rank3 = rank3
        self.ops.append(("hull", lambda res: conegeom.ray_hull_2d(rank3, denom=64)))

    def check(self, res):
        import symref  # sympy loads after the timed region, outside setup_s

        bad = {}
        for i, (spec, C, point) in enumerate(self.curv):
            chart = flagnum.chart_for(spec, C.n)
            exact = res.get(f"center:{i}")
            if exact is not None:
                fd = flagnum.curvature_at(spec, C, flagnum.ChartPoint.center(chart))
                gap, scale = _matrix_gap(exact, fd)
                if gap > 1e-5 * max(scale, 1.0):
                    bad[f"center:{i}"] = f"center formula differs from finite differences by {gap:.3g}"
            M = res.get(f"curv:{i}")
            if M is not None:
                bad_trace = self._trace_check(spec, C, point, chart, M)
                if bad_trace:
                    bad[f"curv:{i}"] = bad_trace
        for case in self.grass:
            out = res.get(f"grass:{case}")
            if out is None:
                continue
            pushed, vec = out
            s, alpha, beta = case
            rho = combinat.as_dimension_sequence((0, s, self.R))
            if beta and self.R - s < 2:
                expected = charpoly.ChernPoly.zero(self.R)
            else:
                text = f"c1(Q{s})^{alpha}" + (f"*c2(Q{s})^{beta}" if beta else "")
                expected = gysin.pushforward_oracle(rootcalc.expand_expression(text, rho), rho)
            if pushed != expected:
                bad[f"grass:{case}"] = "Grassmann push differs from pushforward_oracle"
            rebuilt = sum(
                (symref.jacobi_trudi(p.parts, self.R) * symref.sympy.Rational(str(c)) for p, c in vec.items()),
                symref.sympy.Integer(0),
            )
            if symref.sympy.expand(rebuilt - symref.from_chern(pushed)) != 0:
                bad[f"grass:{case}"] = "Schur coordinates do not rebuild the push"
            inside = all(c >= 0 for _, c in vec.items())
            if res.get(f"cone:{case}") != (inside, []) or not inside:
                bad[f"cone:{case}"] = "Schur-cone membership is wrong"
        thetas = [res.get(f"theta:{j}") for j in range(THETA_FRAMES)]
        for j in range(1, THETA_FRAMES):
            if thetas[0] is not None and thetas[j] is not None and _matrix_gap(thetas[0], thetas[j])[0] > 1e-12:
                bad[f"theta:{j}"] = "horizontal tensor changed under a block-unitary reframing"
        for t, Ct in enumerate(self.tensors):
            cf = res.get(f"chern:{t}")
            if cf is None:
                continue
            trace = np.einsum("jkaa->jk", Ct.coeffs) * (1j / (2 * math.pi))
            expected = formlab.ExtForm(self.space, {(1 << j, 1 << k): trace[j, k] for j in range(self.N) for k in range(self.N)})
            gap, scale = _form_gap(cf[1], expected)
            if gap > 1e-12 * max(scale, 1.0) or not all(c.is_real(1e-12) for c in cf):
                bad[f"chern:{t}"] = "first Chern form is not the trace, or a Chern form is not real"
            for case in self.grass:
                vals = res.get(f"pos:{case}:{t}")
                if vals is None:
                    continue
                if res[f"grass:{case}"][0].is_zero():
                    # the zero form may be evaluated once, as a 0-form
                    if len(vals) not in (1, POS_FRAMES) or np.abs(vals).max() > 1e-12:
                        bad[f"pos:{case}:{t}"] = f"zero push gave {len(vals)} values, not 1 or {POS_FRAMES} zeros"
                    continue
                scale = max(float(np.abs(vals).max(initial=0.0)), 1.0)
                if len(vals) != POS_FRAMES or vals.min() < -1e-9 * scale:
                    bad[f"pos:{case}:{t}"] = f"{len(vals)} values, least {vals.min():.3g} at scale {scale:.3g}"
        hull = res.get("hull")
        if hull is not None:
            lo, hi = self._slope_extremes()
            inside, margin = hull.contains((1, 0))
            if (tuple(hull.lo), tuple(hull.hi)) != (lo, hi) or inside or margin >= 0:
                bad["hull"] = "sampled rank-3 hull has the wrong extreme rays or contains c2"
        return bad

    def _trace_check(self, spec, C, point, chart, M):
        """The trace of the curvature in each diagonal direction is minus
        (1/4) the Laplacian of log det of the induced metric there."""
        zeta0 = point.zeta
        z0 = np.zeros(C.n, dtype=complex)
        scale = max(e.norm() for row in M.entries for e in row)
        worst = 0.0
        trace = M.trace()
        for p in range(chart.d):
            h = 3e-3 * math.sqrt(1 + abs(zeta0[p]) ** 2)
            lap = _logdet_laplacian(lambda x: flagnum.metric_universal(spec, C, z0, x), zeta0, p, h)
            g = 1 << (chart.n + p)
            worst = max(worst, abs(trace.terms.get((g, g), 0) + lap))
        for j in range(chart.n):
            lap = _logdet_laplacian(lambda z: flagnum.metric_universal(spec, C, z, zeta0), z0, j, 1e-3)
            worst = max(worst, abs(trace.terms.get((1 << j, 1 << j), 0) + lap))
        if worst > 1e-6 * max(scale, 1.0):
            return f"trace differs from the log-det Laplacian by {worst:.3g}"
        return None

    def _slope_extremes(self):
        """The extreme rays of the rank-3 families on the same grid, found
        by comparing exact slopes."""
        rays = set()
        for fam in self.rank3:
            for i in range(65):
                for j in range(i + 1 if fam.nparams == 3 else 1):
                    b, c = Fraction(i, 64), Fraction(j, 64)
                    params = (1 - b, b) if fam.nparams == 2 else (1 - b - c, b, c)
                    if not fam.domain(params):
                        continue
                    x, y = fam.coords(params)
                    if x == 0 and y == 0:
                        continue
                    g = Fraction(x).denominator * Fraction(y).denominator
                    ix, iy = int(x * g), int(y * g)
                    d = math.gcd(ix, iy)
                    rays.add((ix // d, iy // d))
        key = lambda v: (1, 0) if v[0] == 0 else (0, Fraction(v[1], v[0]))
        ordered = sorted(rays, key=key)
        return ordered[0], ordered[-1]


WORKLOADS = {"exact-push": ExactPush, "mc-fiber": McFiber, "pointwise-forms": PointwiseForms}
