"""Flag-bundle charts, induced metrics of universal bundles, pointwise
curvature, and Monte Carlo fiber integration.

All pointwise work happens over the chart center of the base (z = 0); the
ambient metric is the synthetic truncation delta - sum c[j,k,a,b] z_j
conj(z_k), exactly quadratic in z, so z-derivatives of metrics are
analytic.  Fiber-direction derivatives are exact, from the frames being
affine in zeta (``_exact_coeffs``, behind both ``curvature_at`` and the
Monte Carlo integrand).  Fourth-order central finite differences on the
metric are the oracle only: the audit of the first Monte Carlo chunk, the
curvature suite and the tests.

Curvature coefficients are dicts keyed by pairs (a, b) of chart
generator indices: z_1..z_n, then one zeta per admissible pair.  The
finite-difference stencils (``_Stencils``) take the same index, shift
generator a (and b) by its own step and evaluate the metric by ``gram``.

Monte Carlo samples are drawn in fixed-size chunks with per-chunk
counter-keyed random streams, so an estimate is bit-reproducible for a
given seed no matter how the chunks would be distributed over workers.
"""

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import exprs
from .combinat import admissible_pairs, as_dimension_sequence, bitmask, mask_indices
from .formlab import (
    ExtForm,
    FormMatrix,
    GeneratorSpace,
    base_curvature_matrix,
    chern_forms,
)
from .gysin import pushforward_dp
from .rootcalc import bundles_in_expression, expand_expression

#: default fourth-order finite-difference step of the oracle stencils
FD_STEP = 1e-3
#: Monte Carlo chunk size (fixed so results never depend on a worker split)
MC_CHUNK = 65536
#: samples of the first chunk on which the exact curvature is audited by
#: finite differences, and the relative defect at which the audit fails
AUDIT_SAMPLES = 64
AUDIT_TOL = 1e-6


class FlagChart:
    """Chart of a flag bundle over the center point of the base.

    Coordinates are z_1..z_n on the base and one zeta per admissible index
    pair, in lexicographic pair order; the generator space carries both
    families, base first.
    """

    __slots__ = ("rho", "n", "pairs", "d", "space", "_pair_index")

    def __init__(self, rho, n):
        self.rho = as_dimension_sequence(rho)
        self.n = int(n)
        self.pairs = admissible_pairs(self.rho)
        self.d = len(self.pairs)
        names = [f"z{j}" for j in range(1, self.n + 1)]
        names += [f"zeta_{lam}_{mu}" for lam, mu in self.pairs]
        self.space = GeneratorSpace(names)
        self._pair_index = {p: i for i, p in enumerate(self.pairs)}

    @property
    def r(self):
        return self.rho.r

    def pair_index(self, lam, mu):
        return self._pair_index[(lam, mu)]

    def zeta_gen_index(self, lam, mu):
        """Index of the zeta_(lam,mu) generator inside the chart space."""
        return self.n + self._pair_index[(lam, mu)]

    def base_mask(self):
        return (1 << self.n) - 1

    def vertical_mask(self):
        return ((1 << self.d) - 1) << self.n

    def __repr__(self):
        return f"FlagChart(rho={self.rho.rho}, n={self.n}, d={self.d})"


@dataclass
class ChartPoint:
    """A point of the center fiber, given by its zeta coordinates."""

    zeta: np.ndarray

    def __post_init__(self):
        self.zeta = np.asarray(self.zeta, dtype=complex)
        if not np.all(np.isfinite(self.zeta)):
            raise ValueError("chart point has non-finite coordinates")

    @classmethod
    def center(cls, chart):
        return cls(np.zeros(chart.d, dtype=complex))


_CHART_CACHE = {}


def chart_for(spec, n):
    key = (spec.rho.rho, n)
    if key not in _CHART_CACHE:
        _CHART_CACHE[key] = FlagChart(spec.rho, n)
    return _CHART_CACHE[key]


# -- frames and metrics ------------------------------------------------------


def _zeta(chart, p):
    """The zeta coordinates of a ChartPoint or of an array whose last axis
    runs over the fiber coordinates; raises unless there are d of them."""
    zeta = p.zeta if isinstance(p, ChartPoint) else np.asarray(p, dtype=complex)
    if zeta.shape[-1:] != (chart.d,):
        got = zeta.shape[-1] if zeta.ndim else 0
        raise ValueError(f"a point of this fiber has {chart.d} coordinates, got {got}")
    return zeta


def frames_eps(chart, p):
    """Frame coefficients at a chart point or a batch of them: column alpha
    holds epsilon_alpha in the ambient basis, i.e. the identity plus
    zeta_(lam,mu) at (lam-1, mu-1)."""
    zeta = _zeta(chart, p)
    V = np.zeros(zeta.shape[:-1] + (chart.r, chart.r), dtype=complex)
    V[...] = np.eye(chart.r)
    for idx, (lam, mu) in enumerate(chart.pairs):
        V[..., lam - 1, mu - 1] = zeta[..., idx]
    return V


def _ambient_metric(C, z):
    """Synthetic ambient metric delta - sum c[j,k,a,b] z_j conj(z_k)."""
    z = np.asarray(z, dtype=complex)
    He = np.zeros(z.shape[:-1] + (C.r, C.r), dtype=complex)
    He[...] = np.eye(C.r)
    if np.any(z != 0):
        n, r = C.n, C.r
        zz = (z[..., :, None] * np.conj(z)[..., None, :]).reshape(z.shape[:-1] + (n * n,))
        He = He - (zz @ C.coeffs.reshape(n * n, r * r)).reshape(He.shape)
    return He


def gram(chart, p, C=None, z=None):
    """Gram matrix G[a,b] = <eps_a, eps_b> of the frame at a chart point;
    the metric of the ambient basis is flat unless (C, z) are supplied."""
    V = frames_eps(chart, p)
    Vbar = np.conj(V)
    if C is not None and z is not None and np.any(z):
        Vbar = np.einsum("...lm,...mb->...lb", _ambient_metric(C, z), Vbar)
    return np.einsum("...la,...lb->...ab", V, Vbar)


def _bundle_slices(spec):
    """0-based frame index lists: the quotient block and the sub block."""
    return [i - 1 for i in spec.block()], [i - 1 for i in spec.sub_block()]


def _metric_from_gram(G, q_idx, s_idx):
    """Sub-bundle metric is a Gram sub-block; a proper quotient metric is
    the Schur complement of the sub block."""
    if not s_idx:
        return G[..., q_idx, :][..., :, q_idx]
    A = G[..., q_idx, :][..., :, q_idx]
    B = G[..., q_idx, :][..., :, s_idx]
    D = G[..., s_idx, :][..., :, s_idx]
    X = np.linalg.solve(D, np.conj(np.swapaxes(B, -1, -2)))
    return A - B @ X


def metric_universal(spec, C, z, p):
    """Induced metric of the universal bundle at base offset z and fiber
    point p; raises when the synthetic ambient metric stops being positive
    definite (z too large)."""
    z = np.zeros(C.n, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    He = _ambient_metric(C, z)
    try:
        np.linalg.cholesky(He)
    except np.linalg.LinAlgError:
        raise ValueError(
            "synthetic ambient metric is not positive definite at this z"
        ) from None
    G = gram(chart_for(spec, C.n), p, C, z)
    return _metric_from_gram(G, *_bundle_slices(spec))


def splitting_u(spec, C, z, p):
    """Coefficients u[alpha, mu] of the smooth orthogonal splitting of the
    quotient projection: the lift of the alpha-th quotient frame vector is
    eps_alpha + sum_mu u[alpha, mu] eps_mu over the sub-bundle frame.  To
    first order at the chart center, u[alpha, mu] = -conj(zeta_(alpha,mu))."""
    if spec.ell == 0:
        raise ValueError("splitting coefficients need a proper quotient (ell >= 1)")
    chart = chart_for(spec, C.n)
    z = np.zeros(C.n, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    G = gram(chart, p, C, z)
    q_idx, s_idx = _bundle_slices(spec)
    B = G[..., q_idx, :][..., :, s_idx]
    D = G[..., s_idx, :][..., :, s_idx]
    X = np.linalg.solve(D, np.conj(np.swapaxes(B, -1, -2)))
    return -np.conj(np.swapaxes(X, -1, -2))


# -- curvature ---------------------------------------------------------------

_W1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # f' stencil, / 12h
_W2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))  # f'', / 12h^2


def _herm_t(X):
    return np.conj(np.swapaxes(X, -1, -2))


def _mm(A, B):
    """A @ B over stacks of small matrices.  Batched matmul pays a fixed
    cost per matrix, so below four columns of A one broadcast product per
    column is several times faster; larger factors use matmul."""
    if A.shape[-1] > 3:
        return A @ B
    acc = A[..., :, :1] * B[..., :1, :]
    for l in range(1, A.shape[-1]):
        acc = acc + A[..., :, l : l + 1] * B[..., l : l + 1, :]
    return acc


class _Stencils:
    """Fourth-order Wirtinger derivatives of the universal-bundle metric
    around a batch of fiber points, along the chart generators a (z_1..z_n,
    then zeta_p) that key the coefficient dicts: the independent route that
    audits the exact curvature.

    Steps are relative: the step of every fiber coordinate is
    fd_step * sqrt(1 + |zeta|^2) per sample, the scale on which the induced
    metrics vary around that point, so the audit of Monte Carlo samples
    with large importance weights does not drown in rounding noise.  The
    step is shared by all fiber coordinates, so far out in the chart, where
    one coordinate is much larger than another, the stencils lose accuracy.
    The base coordinates keep the plain step fd_step.
    """

    def __init__(self, spec, C, zeta, fd_step):
        self.C = C
        self.chart = chart_for(spec, C.n)
        self.slices = _bundle_slices(spec)
        n = self.chart.n
        self.x = np.concatenate([np.zeros(zeta.shape[:-1] + (n,), dtype=complex), zeta], axis=-1)
        scale = np.sqrt(1.0 + np.sum(np.abs(zeta) ** 2, axis=-1))
        self.h = [np.full(scale.shape, fd_step)] * n + [fd_step * scale] * self.chart.d

    def _sums(self, moves, weights, denom):
        """Weighted stencil sums of the metric, one per consecutive block of
        len(weights) moves, each divided by the per-sample denom.  A move is
        a tuple of (generator, shift) pairs whose shifts add up."""
        x = np.repeat(self.x[None], len(moves), axis=0)
        for i, move in enumerate(moves):
            for a, shift in move:
                x[i, ..., a] = x[i, ..., a] + shift
        n = self.chart.n
        F = _metric_from_gram(gram(self.chart, x[..., n:], self.C, x[..., :n]), *self.slices)
        return [
            sum(w * f for w, f in zip(weights, block)) / denom[..., None, None]
            for block in np.split(F, len(moves) // len(weights))
        ]

    def d1(self, a):
        """d/dg_a of the metric."""
        h = self.h[a]
        dx, dy = self._sums(
            [((a, m * h * unit),) for unit in (1, 1j) for m, _ in _W1], [w for _, w in _W1], 12 * h
        )
        return 0.5 * (dx - 1j * dy)

    def d2(self, a, b):
        """d/dg_a d/dgbar_b of the metric."""
        h_a, h_b = self.h[a], self.h[b]
        if a == b:
            dxx, dyy = self._sums(
                [((a, m * h_a * unit),) for unit in (1, 1j) for m, _ in _W2],
                [w for _, w in _W2],
                12 * h_a * h_a,
            )
            return 0.25 * (dxx + dyy)
        units = ((1, 1), (1, 1j), (1j, 1), (1j, 1j))
        moves = [
            ((a, ma * h_a * dir_a), (b, mb * h_b * dir_b))
            for dir_a, dir_b in units
            for ma, _ in _W1
            for mb, _ in _W1
        ]
        mixed = self._sums(moves, [wa * wb for _, wa in _W1 for _, wb in _W1], 144 * h_a * h_b)
        return 0.25 * (mixed[0] + 1j * mixed[1] - 1j * mixed[2] + mixed[3])


def _bundle_projector(spec, G):
    """The r-column matrix K with H = K G K^H for the induced metric H of
    the bundle, the inverse of the sub block D of G embedded in an r x r
    zero matrix (both zero outside the bundle's frame block), and H.

    K is the identity on the quotient block and -B D^-1 on the sub block,
    so K G K^H = A - B D^-1 B^H, the Schur complement.  For a sub-bundle
    there is no sub block: K selects the Gram block and D^-1 is empty.
    """
    q_idx, s_idx = _bundle_slices(spec)
    r = G.shape[-1]
    shape = G.shape[:-2]
    quot = slice(q_idx[0], q_idx[-1] + 1)
    K = np.zeros(shape + (len(q_idx), r), dtype=complex)
    K[..., :, quot] = np.eye(len(q_idx))
    Dinv = np.zeros(shape + (r, r), dtype=complex)
    H = G[..., quot, quot]
    if s_idx:
        sub = slice(s_idx[0], r)
        D_inv = np.linalg.inv(G[..., sub, sub])
        Dinv[..., sub, sub] = D_inv
        K[..., :, sub] = -_mm(G[..., quot, sub], D_inv)
        H = H + _mm(K[..., :, sub], G[..., sub, quot])
    return K, Dinv, H


def _z_hessian(K, V, C):
    """Analytic coefficient of z_j conj(z_k) in the metric K G K^H at
    z = 0, shaped (..., n, n, rk, rk): -W c[j,k] W^H with W = K V^T, since
    the ambient metric enters the Gram matrix as V^T He conj(V)."""
    W = _mm(K, np.swapaxes(V, -1, -2))  # (..., rk, r)
    WC = np.moveaxis(np.tensordot(W, C.coeffs, axes=([-1], [2])), -4, -2)
    return -_mm(WC, _herm_t(W)[..., None, None, :, :])


def _exact_coeffs(spec, C, zeta):
    """Curvature coefficients at z = 0 over a batch of fiber points, with
    the vertical block from the exact derivatives of the induced metric.

    Same layout and meaning as ``_curvature_coeffs``, less its mixed blocks.
    The frames are affine in zeta, V = I + sum_p zeta_p E_p with E_p the
    single 1 at (lam_p - 1, mu_p - 1), so the Gram matrix G = V^T conj(V)
    has dG/dzeta_p = E_p^T conj(V) (row mu_p - 1 only), the conjugate
    derivative its adjoint, and the constant mixed derivative E_p^T E_q.
    With H = K G K^H (see ``_bundle_projector``), c_p = K e_(mu_p) and
    g_p = conj(K) conj(V)[lam_p] this gives

        dH/dzeta_p                = c_p g_p^T
        d^2 H/dzeta_p dzetabar_q  = a_pq c_p c_q^H - b_pq conj(g_q) g_p^T

    with a_pq = [lam_p = lam_q] - conj(V)[lam_p]^T D^-1 V[lam_q] and
    b_pq = D^-1[mu_q, mu_p]; the terms with D^-1 come from the product
    rule on the Schur complement, d(D^-1) = -D^-1 dD D^-1.  The curvature
    coefficient -d dbar H H^-1 + dH H^-1 dbar H H^-1 is then a sum of two
    outer products per pair (p, q), built for all pairs at once.
    """
    chart = chart_for(spec, C.n)
    n, d = chart.n, chart.d
    V = frames_eps(chart, zeta)
    K, Dinv, H0 = _bundle_projector(spec, np.einsum("...la,...lb->...ab", V, np.conj(V)))
    H0inv = np.linalg.inv(H0)

    coeffs = {}
    if d:
        lam = [pair[0] - 1 for pair in chart.pairs]
        mu = [pair[1] - 1 for pair in chart.pairs]
        w = np.conj(V[..., lam, :])  # (..., d, r): rows of conj(V)
        c = np.swapaxes(K[..., :, mu], -1, -2)  # (..., d, rk)
        g = _mm(w, _herm_t(K))  # (..., d, rk)
        g_inv = _mm(g, H0inv)
        gamma = _mm(g_inv, _herm_t(g))
        alpha = np.equal.outer(lam, lam).astype(float) - _mm(_mm(w, Dinv), _herm_t(w))
        beta = np.swapaxes(Dinv[..., mu, :][..., :, mu], -1, -2)
        M = np.einsum("...pq,...pa,...qb->...pqab", gamma - alpha, c, _mm(np.conj(c), H0inv))
        M += np.einsum("...pq,...qa,...pb->...pqab", beta, np.conj(g), g_inv)
        for p in range(d):
            for q in range(d):
                coeffs[(n + p, n + q)] = M[..., p, q, :, :]

    M_z = -_mm(_z_hessian(K, V, C), H0inv[..., None, None, :, :])
    for j in range(n):
        for k in range(n):
            coeffs[(j, k)] = M_z[..., j, k, :, :]
    return coeffs, H0, H0inv


def _curvature_coeffs(spec, C, zeta, fd_step=FD_STEP):
    """Coefficient arrays of the curvature at z = 0 over a batch of fiber
    points.

    Returns (coeffs, H0, H0inv): a dict keyed by generator-index pairs
    (a, b) of the chart with values shaped (..., rk, rk) -- the coefficient
    of dg_a ^ dgbar_b of the matrix-valued (1,1)-form dbar(dH H^-1), whose
    (alpha, beta) entry feeds the FormMatrix entry (beta, alpha) -- plus
    the metric and its inverse at the points (needed downstream for the
    frame-weighted Hermitian symmetrization).
    """
    chart = chart_for(spec, C.n)
    zeta = _zeta(chart, zeta)
    n, d = chart.n, chart.d
    G = gram(chart, zeta)
    H0 = _metric_from_gram(G, *_bundle_slices(spec))
    H0inv = np.linalg.inv(H0)
    K, _, _ = _bundle_projector(spec, G)
    Hhat = _z_hessian(K, frames_eps(chart, zeta), C)
    ev = _Stencils(spec, C, zeta, fd_step)
    base, fiber = range(n), range(n, n + d)
    P = {a: ev.d1(a) for a in range(n + d)}
    # the pair order is the term order of the forms built from these
    # coefficients, which fixes the rounding of sums over their terms: the
    # vertical block with each pair beside its mirror, the horizontal block,
    # then the mixed blocks
    pairs = sorted(product(fiber, fiber), key=lambda ab: (min(ab), max(ab), ab[0] > ab[1]))
    pairs += list(product(base, base)) + list(product(base, fiber)) + list(product(fiber, base))
    coeffs, S = {}, {}
    for a, b in pairs:
        if a < n and b < n:
            # analytic: the metric is exactly quadratic in z and its first
            # z-derivatives vanish at z = 0
            coeffs[(a, b)] = -(Hhat[..., a, b, :, :] @ H0inv)
            continue
        # the metric is Hermitian: the vertical lower triangle mirrors the upper
        S[a, b] = _herm_t(S[b, a]) if n <= b < a else ev.d2(a, b)
        coeffs[(a, b)] = -(S[a, b] @ H0inv) + P[a] @ H0inv @ _herm_t(P[b]) @ H0inv
    return coeffs, H0, H0inv


def _audit_coeffs(spec, C, zeta, exact, fd_step):
    """Finite-difference audit of exact coefficients at the points zeta
    (a prefix of the batch that ``exact`` was computed on).

    Returns (mixed, vertical), both relative to the largest stencil
    coefficient at these points: the largest mixed base-fiber coefficient,
    which must vanish in this metric model, and the largest deviation of
    the exact vertical block from the stencils.  The scale is shared by
    all points because the stencils lose relative accuracy far out in the
    chart, where the two terms of each coefficient nearly cancel.  A NaN
    anywhere makes the defects NaN.
    """
    n = chart_for(spec, C.n).n
    count = len(zeta)
    fd, _, _ = _curvature_coeffs(spec, C, zeta, fd_step)
    scale = np.max([np.abs(v).max() for v in fd.values()], initial=1e-300)
    mixed = [np.abs(v).max() for (a, b), v in fd.items() if (a < n) != (b < n)]
    vertical = [np.abs(exact[key][:count] - v).max() for key, v in fd.items() if min(key) >= n]
    return float(np.max(mixed, initial=0.0) / scale), float(np.max(vertical, initial=0.0) / scale)


def _symmetrize_coeffs(coeffs, H0, H0inv):
    """Enforce the Hermitian symmetry of a Chern curvature in a holomorphic
    frame, M[b,a] = H M[a,b]^H H^-1 (the plain conjugate-transpose relation
    holds only in frames that are unitary at the point).  Returns the
    symmetrized dict and the worst pre-symmetrization defect relative to
    the overall scale."""
    scale = max(
        (float(np.abs(v).max()) for v in coeffs.values() if v.size), default=0.0
    )
    defect = 0.0
    out = {}
    for (a, b), M_ab in coeffs.items():
        M_ba = coeffs.get((b, a))
        if M_ba is None:
            out[(a, b)] = M_ab
            continue
        partner = _mm(_mm(H0, _herm_t(M_ba)), H0inv)
        defect = max(defect, float(np.abs(M_ab - partner).max()))
        out[(a, b)] = 0.5 * (M_ab + partner)
    rel = defect / scale if scale > 0 else 0.0
    return out, rel


def curvature_at(spec, C, p, with_report=False):
    """Full curvature matrix at a fiber point from the exact derivatives of
    the induced metric; Hermiticity is symmetrized and the
    pre-symmetrization defect reported as a quality metric.  Raises
    ArithmeticError when the frame's Gram matrix is not finite, or when
    eps * cond(H0) exceeds AUDIT_TOL: the induced metric H0, a Schur
    complement, loses about that much relative accuracy."""
    chart = chart_for(spec, C.n)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(gram(chart, p)).all():
            raise ArithmeticError("the frame's Gram matrix is not finite (too far out in the chart)")
        try:
            coeffs, H0, H0inv = _exact_coeffs(spec, C, p)
            loss = np.finfo(float).eps * np.linalg.cond(H0)
        except np.linalg.LinAlgError:  # a Gram block is singular in floating point
            loss = np.inf
        if not loss <= AUDIT_TOL:
            raise ArithmeticError(
                f"the induced metric loses {loss:.3g} relative accuracy, beyond the "
                f"tolerance {AUDIT_TOL:g} (too far out in the chart)"
            )
    coeffs, defect = _symmetrize_coeffs(coeffs, H0, H0inv)
    matrix = FormMatrix.from_coeffs(chart.space, spec.rank, coeffs)
    if with_report:
        return matrix, {"hermitian_defect": defect}
    return matrix


def curvature_center(spec, C):
    """Exact curvature matrix at the chart center: the ambient curvature
    block, minus the sub-side vertical sum, plus the quotient-side one."""
    chart = chart_for(spec, C.n)
    block, sub = spec.block(), spec.sub_block()
    entries = []
    for beta in block:
        row = []
        for alpha in block:
            terms = {}
            for j in range(chart.n):
                for k in range(chart.n):
                    v = C.coeffs[j, k, alpha - 1, beta - 1]
                    if v != 0:
                        terms[(1 << j, 1 << k)] = v
            for lam in range(1, block[0]):
                sa = 1 << chart.zeta_gen_index(lam, alpha)
                tb = 1 << chart.zeta_gen_index(lam, beta)
                terms[(sa, tb)] = terms.get((sa, tb), 0.0) - 1.0
            for mu in sub:
                sb = 1 << chart.zeta_gen_index(beta, mu)
                ta = 1 << chart.zeta_gen_index(alpha, mu)
                terms[(sb, ta)] = terms.get((sb, ta), 0.0) + 1.0
            row.append(ExtForm(chart.space, terms))
        entries.append(row)
    return FormMatrix(chart.space, entries)


def theta_intrinsic(spec, V, C):
    """Horizontal curvature tensor of the universal bundle at the flag
    spanned by the trailing column blocks of the unitary matrix V, returned
    as the full r x r matrix Pi Theta Pi in the ambient frame (Pi the
    orthogonal projector onto the bundle's column block).  Invariant under
    right multiplication of V by block-diagonal unitaries, which is exactly
    frame independence of the underlying tensor."""
    V = np.asarray(V, dtype=complex)
    r = spec.rho.r
    if V.shape != (r, r):
        raise ValueError(f"expected a {r} x {r} matrix")
    if np.abs(V @ _herm_t(V) - np.eye(r)).max() > 1e-10:
        raise ValueError("matrix is not unitary within 1e-10")
    chart = chart_for(spec, C.n)
    q_idx, _ = _bundle_slices(spec)
    P = np.zeros((r, r), dtype=complex)
    P[q_idx, q_idx] = 1.0
    Pi = V @ P @ _herm_t(V)
    # entry (b, a) of the form matrix is (Pi c[j,k]^T Pi)[b, a]
    projected = {
        (j, k): (Pi @ C.coeffs[j, k].T @ Pi).T
        for j in range(chart.n)
        for k in range(chart.n)
    }
    return FormMatrix.from_coeffs(chart.space, r, projected)


# -- Monte Carlo fiber integration -------------------------------------------


@dataclass
class SamplerConfig:
    """Monte Carlo settings.  ``fd_step`` is the step of the finite-difference
    audit on the first chunk; the integrand itself uses the exact
    curvature."""

    num_samples: int
    seed: int
    chunk: int = MC_CHUNK
    fd_step: float = FD_STEP
    proposal: str = "auto"  # "auto" | "projective" | "product"

    def to_json(self):
        return {
            "num_samples": self.num_samples,
            "seed": self.seed,
            "chunk": self.chunk,
            "fd_step": self.fd_step,
            "proposal": self.proposal,
        }


def _as_sampler(sampler):
    if isinstance(sampler, SamplerConfig):
        return sampler
    if isinstance(sampler, dict):
        return SamplerConfig(
            num_samples=int(sampler["num_samples"]),
            seed=int(sampler["seed"]),
            chunk=int(sampler.get("chunk", MC_CHUNK)),
            fd_step=float(sampler.get("fd_step", FD_STEP)),
            proposal=str(sampler.get("proposal", "auto")),
        )
    raise TypeError("sampler must be a SamplerConfig or a dict")


def _is_projective_fiber(rho):
    """Whether the fiber is a projective space in the standard affine chart
    (lines or hyperplanes), where the chart coordinates jointly carry the
    invariant Fubini-Study density."""
    return rho.m == 2 and (rho[1] == 1 or rho[1] == rho.r - 1)


def _pick_proposal(cfg, chart):
    if cfg.proposal == "auto":
        return "projective" if _is_projective_fiber(chart.rho) else "product"
    if cfg.proposal not in ("projective", "product"):
        raise ValueError(f"unknown proposal {cfg.proposal!r}")
    if cfg.proposal == "projective" and not _is_projective_fiber(chart.rho):
        raise ValueError("projective proposal needs a projective fiber")
    return cfg.proposal


def _draw_fs(rng, count, d, kind):
    """Fubini-Study style proposals built from ratios of standard complex
    Gaussians; returns (points, importance_weights).

    * "product": independent per coordinate, density
      1/(pi (1+|w|^2)^2) each.  The importance ratio against a smooth form
      on the fiber is unbounded for non-projective charts of dimension
      >= 2, so this proposal can be heavy-tailed; standard errors remain
      honest.
    * "projective": the invariant chart density d!/(pi^d (1+|zeta|^2)^{d+1})
      of projective space, sampled as u_i / u_0 with a common denominator;
      for projective fibers the importance ratio is bounded.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "projective":
            u = rng.standard_normal((count, d + 1)) + 1j * rng.standard_normal(
                (count, d + 1)
            )
            zeta = u[:, 1:] / u[:, :1]
            norm2 = np.sum(np.abs(zeta) ** 2, axis=1)
            weight = (np.pi**d / math.factorial(d)) * (1.0 + norm2) ** (d + 1)
            return zeta, weight
        u = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        v = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        zeta = u / v
        weight = np.prod(np.pi * (1.0 + np.abs(zeta) ** 2) ** 2, axis=1)
        return zeta, weight


@dataclass
class PushforwardEstimate:
    """Monte Carlo fiber integral with per-coefficient standard errors."""

    form: ExtForm
    stderr: dict
    n_samples: int
    n_requested: int
    n_nonfinite: int
    degree: int
    fiber_dim: int
    mixed_block_defect: float = 0.0
    vertical_audit_defect: float = 0.0
    hermitian_defect: float = 0.0

    def stderr_total(self):
        return math.sqrt(sum(se**2 for se in self.stderr.values()))

    def to_json(self):
        coefficients = []
        for (s, t), val in sorted(self.form.terms.items()):
            val = complex(val)
            coefficients.append(
                {
                    "holo": mask_indices(s),
                    "anti": mask_indices(t),
                    "re": val.real,
                    "im": val.imag,
                    "stderr": self.stderr.get((s, t), 0.0),
                }
            )
        return {
            "coefficients": coefficients,
            "n_samples": self.n_samples,
            "n_requested": self.n_requested,
            "n_nonfinite": self.n_nonfinite,
            "degree": self.degree,
            "fiber_dim": self.fiber_dim,
            "mixed_block_defect": self.mixed_block_defect,
            "vertical_audit_defect": self.vertical_audit_defect,
            "hermitian_defect": self.hermitian_defect,
        }


def pushforward_numeric(chart, F_expr, C, sampler):
    """Monte Carlo fiber integral of a polynomial in the Chern forms of
    universal bundles, as a (k, k)-form on the base generators.

    Per sample, the fiber point is drawn from a Fubini-Study proposal,
    every universal curvature in the expression is built from the exact
    derivatives of the induced metric, Chern forms are wedged per the
    expression, the coefficient of each dz_J ^ dzbar_K against the
    canonical vertical volume prod_p (i/2) dzeta_p ^ dzetabar_p is
    extracted, importance weighted, and averaged.  Mixed base-fiber
    curvature blocks vanish identically at z = 0 in this metric model and
    are set to zero.

    A chunk of samples is one computation: each curvature is a FormMatrix
    whose coefficients are per-sample arrays, assembled by
    ``FormMatrix.from_coeffs`` and passed to ``formlab.chern_forms``, the
    same code that ``curvature_at`` and the base Chern forms use at a point.

    On the first AUDIT_SAMPLES points of the first chunk, finite
    differences with step ``fd_step`` recompute the curvature: the mixed
    blocks must vanish and the exact vertical block must match, both to
    AUDIT_TOL relative, or ArithmeticError is raised.  Both defects are
    reported on the estimate, with the Hermitian defect of the exact
    curvature before symmetrization.
    """
    cfg = _as_sampler(sampler)
    if isinstance(F_expr, str):
        F_expr = exprs.parse(F_expr)
    rho = chart.rho
    degs = exprs.degrees(F_expr)
    if len(degs) != 1:
        raise ValueError(f"expression is not weighted-homogeneous: degrees {sorted(degs)}")
    deg = next(iter(degs))
    d = chart.d
    n = chart.n
    k = deg - d
    base_space = GeneratorSpace.base(n)
    if k < 0:
        return PushforwardEstimate(
            form=ExtForm.zero(base_space),
            stderr={},
            n_samples=0,
            n_requested=cfg.num_samples,
            n_nonfinite=0,
            degree=deg,
            fiber_dim=d,
        )
    if k > n:
        raise ValueError(f"output degree {k} exceeds base dimension {n}")
    specs = bundles_in_expression(F_expr, rho)

    from itertools import combinations

    keys = [
        (bitmask(J), bitmask(K))
        for J in combinations(range(n), k)
        for K in combinations(range(n), k)
    ]
    vmask = chart.vertical_mask()
    sums = {key: 0.0 + 0.0j for key in keys}
    sumsq = {key: 0.0 for key in keys}
    n_finite = 0
    n_nonfinite = 0
    audit = np.zeros(2)  # mixed and vertical defects; np.maximum carries a NaN
    hermitian_defect = 0.0

    total = cfg.num_samples
    n_chunks = (total + cfg.chunk - 1) // cfg.chunk
    extract_sign = {}
    for key in keys:
        _, K = key
        kk = K.bit_count()
        extract_sign[key] = ((-2j) ** d) * ((-1.0) ** ((d * (d - 1)) // 2 + kk * d))

    proposal = _pick_proposal(cfg, chart)
    for chunk_idx in range(n_chunks):
        count = min(cfg.chunk, total - chunk_idx * cfg.chunk)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, chunk_idx], dtype=np.uint64))
        )
        zeta, weight = _draw_fs(rng, count, d, proposal)

        curv = {}
        for spec in specs:
            coeffs, H0, H0inv = _exact_coeffs(spec, C, zeta)
            if chunk_idx == 0:
                audit = np.maximum(
                    audit, _audit_coeffs(spec, C, zeta[:AUDIT_SAMPLES], coeffs, cfg.fd_step)
                )
            coeffs, herm = _symmetrize_coeffs(coeffs, H0, H0inv)
            hermitian_defect = max(hermitian_defect, herm)
            curv[spec] = chern_forms(FormMatrix.from_coeffs(chart.space, spec.rank, coeffs))

        def chern_atom(j, ref):
            from .rootcalc import _resolve_bundle

            spec = _resolve_bundle(ref, rho)
            return curv[spec][j]

        value = exprs.evaluate(
            F_expr, const=lambda q: ExtForm.scalar(chart.space, q), chern=chern_atom
        )

        contrib = {}
        finite = np.isfinite(weight)
        for key in keys:
            J, K = key
            full = (J | vmask, K | vmask)
            arr = value.terms.get(full)
            if arr is None:
                contrib[key] = np.zeros(count, dtype=complex)
            else:
                contrib[key] = arr * extract_sign[key] * weight
            finite &= np.isfinite(contrib[key])
        n_bad = int(count - finite.sum())
        n_nonfinite += n_bad
        n_finite += int(finite.sum())
        for key in keys:
            vals = np.where(finite, contrib[key], 0.0)
            sums[key] += complex(vals.sum())
            sumsq[key] += float((np.abs(vals) ** 2).sum())

    mixed_defect, vertical_defect = audit.tolist()
    if not mixed_defect <= AUDIT_TOL:
        raise ArithmeticError(
            f"mixed base-fiber curvature blocks do not vanish (defect {mixed_defect:g}); "
            "the pointwise model assumption is violated"
        )
    if not vertical_defect <= AUDIT_TOL:
        raise ArithmeticError(
            f"exact vertical curvature differs from finite differences "
            f"(relative defect {vertical_defect:g})"
        )

    terms = {}
    stderr = {}
    for key in keys:
        if n_finite == 0:
            continue
        mean = sums[key] / n_finite
        var = max(sumsq[key] / n_finite - abs(mean) ** 2, 0.0)
        se = math.sqrt(var / n_finite)
        if mean != 0 or se != 0:
            terms[key] = mean
        stderr[key] = se
    return PushforwardEstimate(
        form=ExtForm(base_space, terms),
        stderr=stderr,
        n_samples=n_finite,
        n_requested=cfg.num_samples,
        n_nonfinite=n_nonfinite,
        degree=deg,
        fiber_dim=d,
        mixed_block_defect=mixed_defect,
        vertical_audit_defect=vertical_defect,
        hermitian_defect=hermitian_defect,
    )


@dataclass
class MainTheoremReport:
    """Comparison of the Monte Carlo fiber integral against the symbolic
    push-forward evaluated in the base Chern forms."""

    estimate: PushforwardEstimate
    truth: ExtForm
    residual_abs: float
    residual_rel: float
    stderr_total: float
    per_coefficient: list = field(default_factory=list)

    @property
    def consistent_within(self):
        """Residual measured in units of the total Monte Carlo error."""
        if self.stderr_total == 0:
            return 0.0 if self.residual_abs == 0 else math.inf
        return self.residual_abs / self.stderr_total

    def to_json(self):
        return {
            "residual_abs": self.residual_abs,
            "residual_rel": self.residual_rel,
            "stderr_total": self.stderr_total,
            "residual_over_stderr": self.consistent_within,
            "n_samples": self.estimate.n_samples,
            "per_coefficient": self.per_coefficient,
        }


def verify_main_theorem(chart, F_expr, C, sampler):
    """Check that fiber integration of a universal Chern-form polynomial
    reproduces the symbolic push-forward evaluated in the Chern forms of
    the base metric, and report the residual against the Monte Carlo
    standard error."""
    if isinstance(F_expr, str):
        F_expr = exprs.parse(F_expr)
    rho = chart.rho
    phi = pushforward_dp(expand_expression(F_expr, rho), rho)
    base_space = GeneratorSpace.base(chart.n)
    cf = chern_forms(base_curvature_matrix(C, base_space))
    truth = phi.evaluate(cf, lambda q: ExtForm.scalar(base_space, q))
    est = pushforward_numeric(chart, F_expr, C, sampler)

    keys = set(est.form.terms) | set(truth.terms) | set(est.stderr)
    diff_sq = 0.0
    truth_sq = 0.0
    per_coeff = []
    for key in sorted(keys):
        e = est.form.terms.get(key, 0.0)
        t = truth.terms.get(key, 0.0)
        se = est.stderr.get(key, 0.0)
        diff_sq += abs(e - t) ** 2
        truth_sq += abs(t) ** 2
        per_coeff.append(
            {
                "holo": mask_indices(key[0]),
                "anti": mask_indices(key[1]),
                "estimate": [complex(e).real, complex(e).imag],
                "truth": [complex(t).real, complex(t).imag],
                "stderr": se,
            }
        )
    residual_abs = math.sqrt(diff_sq)
    truth_norm = math.sqrt(truth_sq)
    residual_rel = residual_abs / truth_norm if truth_norm > 0 else residual_abs
    return MainTheoremReport(
        estimate=est,
        truth=truth,
        residual_abs=residual_abs,
        residual_rel=residual_rel,
        stderr_total=est.stderr_total(),
        per_coefficient=per_coeff,
    )
