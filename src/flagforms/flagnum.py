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
finite-difference stencils (``_Stencils``) take the same index and shift
generator a (and b) by its own step.  Induced metrics, at stencil points
and in ``metric_universal``, come from one samples-last kernel
(``_induced_metric``): elementwise arithmetic on length-N vectors over
the frame entries that are not structurally zero, with the quotient
metric as a Schur complement taken one pivot at a time.

Per-sample arrays are laid out samples last: N fiber points are (d, N),
and small matrices (rank, rank, ..., N), matrix axes first, so a product
of small matrices (``_dot``) is a sum of broadcast products of contiguous
length-N vectors.  A curvature coefficient is such a (rank, rank, N)
array, the layout ``FormMatrix.from_coeffs`` reads; at a single point it
is (rank, rank).

Monte Carlo samples are drawn in fixed-size chunks with per-chunk
counter-keyed random streams, so an estimate is bit-reproducible for a
given seed no matter how the chunks would be distributed over workers.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, product

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
from .rootcalc import _resolve_bundle, bundles_in_expression, expand_expression

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
    shape = zeta.shape[:-1]
    V = _frames(chart, _samples_last(zeta, shape))
    return np.moveaxis(V, -1, 0).reshape(shape + V.shape[:2])


def _frames(chart, Z):
    """Frames samples last, (r, r, N), from (d, N) fiber coordinates."""
    r = chart.r
    V = np.zeros((r, r, Z.shape[1]), dtype=complex)
    V[range(r), range(r)] = 1.0
    if chart.d:
        V[[lam - 1 for lam, _ in chart.pairs], [mu - 1 for _, mu in chart.pairs]] = Z
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


def _induced_metric(chart, spec, zeta, C=None, z=None):
    """Induced metric of the universal bundle, samples last: zeta is a
    (d, N) array, one length-N vector per fiber coordinate, and z an
    (n, N) array of base offsets, or None when z = 0; returns (rk, rk, N).

    Only the frame columns of the bundle's block and of its sub block
    enter, and of those only the entries that are not structurally zero:
    column a of V = I + zeta holds the 1 at row a and zeta_p at row
    lam_p - 1 for every pair p with mu_p - 1 = a.  The ambient metric
    delta - sum c[j,k] z_j conj(z_k) enters only when z is given.
    The Gram matrix G = V^T He conj(V) is Hermitian, so only its upper
    triangle is formed.  A proper quotient's metric is the Schur complement
    A - B D^-1 B^H of the sub block D, taken one pivot at a time; D is a
    Gram block, Hermitian positive definite, so no pivoting is needed.  A
    point whose Gram matrix is not finite gives NaN.
    """
    q_idx, s_idx = _bundle_slices(spec)
    idx = q_idx + s_idx
    col = {a: {a: 1.0} for a in idx}  # column a of V as {row: entry}
    for p, (lam, mu) in enumerate(chart.pairs):
        if mu - 1 in col:
            col[mu - 1][lam - 1] = zeta[p]
    if z is not None:
        n, r = C.n, chart.r
        zz = (z[:, None] * np.conj(z)[None, :]).reshape(n * n, z.shape[1])
        delta = C.coeffs.reshape(n * n, r * r).T @ zz  # Delta[l, m] at row l * r + m
    G = {}
    for i, b in enumerate(idx):
        # He conj(V) at column b, on the rows that columns a <= b hold
        he = {l: np.conj(v) for l, v in col[b].items()}
        if z is not None:
            rows = set().union(*(col[a] for a in idx[: i + 1]))
            he = {l: he.get(l, 0.0) - sum(delta[l * r + m] * v for m, v in he.items()) for l in rows}
        for a in idx[: i + 1]:
            G[a, b] = sum(col[a][l] * he[l] for l in sorted(col[a].keys() & he.keys()))
    # |G[a, b]|^2 <= G[a, a] G[b, b], so an entry that is not finite shows
    # on the diagonal
    finite = np.isfinite(sum(G[a, a].real for a in idx))

    rest = list(idx)
    for k in s_idx:
        rest.remove(k)
        inv = 1 / G[k, k]
        # column k and row k of G over the indices left: the quotient
        # indices come before k, the sub-block indices left after it
        col_k = {j: G[j, k] if j < k else np.conj(G[k, j]) for j in rest}
        row_k = {j: np.conj(G[j, k]) if j < k else G[k, j] for j in rest}
        for i_pos, i in enumerate(rest):
            u = col_k[i] * inv
            for j in rest[i_pos:]:
                G[i, j] = G[i, j] - u * row_k[j]

    rk = len(q_idx)
    H = np.empty((rk, rk, zeta.shape[1]), dtype=complex)
    for i, a in enumerate(q_idx):
        H[i, i] = G[a, a]
        for j, b in enumerate(q_idx[i + 1 :], i + 1):
            H[i, j] = G[a, b]
            H[j, i] = np.conj(G[a, b])
    if not finite.all():
        H = np.where(finite, H, np.nan)
    return H


def _samples_last(x, shape):
    """(k, N): the last axis of x, broadcast to shape + (k,), turned into
    one contiguous length-N row per entry, N = prod(shape)."""
    k = x.shape[-1]
    return np.ascontiguousarray(np.broadcast_to(x, shape + (k,)).reshape(math.prod(shape), k).T)


def metric_universal(spec, C, z, p):
    """Induced metric of the universal bundle at base offset z and fiber
    point p, either of them batched; raises when the synthetic ambient
    metric stops being positive definite (z too large)."""
    chart = chart_for(spec, C.n)
    zeta = _zeta(chart, p)
    z = np.zeros(C.n, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    try:
        np.linalg.cholesky(_ambient_metric(C, z))
    except np.linalg.LinAlgError:
        raise ValueError(
            "synthetic ambient metric is not positive definite at this z"
        ) from None
    shape = np.broadcast_shapes(zeta.shape[:-1], z.shape[:-1])
    z = _samples_last(z, shape) if np.any(z) else None
    H = _induced_metric(chart, spec, _samples_last(zeta, shape), C, z)
    return np.moveaxis(H, -1, 0).reshape(shape + H.shape[:2])


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
    """Conjugate transpose over the matrix axes, the first two."""
    return np.conj(np.swapaxes(X, 0, 1))


def _dot(A, B):
    """Products of samples-last small matrices, A (i, l, ...) by B (l, j, ...),
    the trailing axes broadcast: one multiply-add per inner index."""
    acc = A[:, 0, None] * B[None, 0]
    for l in range(1, A.shape[1]):
        acc += A[:, l, None] * B[None, l]
    return acc


def _sweep(A, pivots):
    """Sweep the samples-last array A (m, m, ...) in place on the pivots of
    a block D: [[A, B], [B^H, D]] becomes [[A - B D^-1 B^H, B D^-1],
    [D^-1 B^H, -D^-1]], and -A^-1 after every pivot.  Gauss-Jordan without
    pivoting, stable on the positive definite Gram blocks and metrics here."""
    for k in pivots:
        inv = 1 / A[k, k]
        row, col = A[k] * inv, A[:, k] * inv
        A -= A[:, k, None] * row[None]
        A[k], A[:, k], A[k, k] = row, col, -inv
    return A


def _inverse(H):
    """Inverses of samples-last positive definite matrices."""
    return -_sweep(H.copy(), range(len(H)))


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

    The points are kept samples last, one row per chart generator; each
    stencil batch shifts them and evaluates the metric at every shifted
    point of every sample in one call of ``_induced_metric``.
    """

    def __init__(self, spec, C, Z, fd_step):
        self.spec, self.C = spec, C
        self.chart = chart_for(spec, C.n)
        n, count = self.chart.n, Z.shape[1]
        self.x = np.concatenate([np.zeros((n, count), dtype=complex), Z])
        scale = np.sqrt(1.0 + np.sum(np.abs(Z) ** 2, axis=0))
        self.h = np.concatenate([np.full((n, count), fd_step), np.tile(fd_step * scale, (len(Z), 1))])

    def _sums(self, moves, weights, denom):
        """Weighted stencil sums of the metric, one per consecutive block of
        len(weights) moves, each divided by the per-sample denom.  A move is
        a tuple of (a, m, unit) triples, each shifting generator a by m of
        its steps along unit (1 or 1j).  All moves of all samples go through
        one call of the metric kernel."""
        steps = np.zeros((len(self.x), len(moves)), dtype=complex)
        for i, move in enumerate(moves):
            for a, m, unit in move:
                steps[a, i] = m * unit
        x = self.x[:, None, :] + steps[:, :, None] * self.h[:, None, :]  # (n + d, moves, N)
        n = self.chart.n
        x = x.reshape(len(x), x.shape[1] * x.shape[2])
        z = x[:n] if any(a < n for move in moves for a, _, _ in move) else None
        F = _induced_metric(self.chart, self.spec, x[n:], self.C, z)
        F = F.reshape(F.shape[:2] + (len(moves) // len(weights), len(weights), -1))
        acc = weights[0] * F[..., 0, :]
        for i in range(1, len(weights)):
            acc = acc + weights[i] * F[..., i, :]
        acc = acc / denom
        return [acc[:, :, block] for block in range(acc.shape[2])]

    def d1(self, a):
        """d/dg_a of the metric."""
        moves = [((a, m, unit),) for unit in (1, 1j) for m, _ in _W1]
        dx, dy = self._sums(moves, [w for _, w in _W1], 12 * self.h[a])
        return 0.5 * (dx - 1j * dy)

    def d2(self, a, b):
        """d/dg_a d/dgbar_b of the metric."""
        h_a, h_b = self.h[a], self.h[b]
        if a == b:
            moves = [((a, m, unit),) for unit in (1, 1j) for m, _ in _W2]
            dxx, dyy = self._sums(moves, [w for _, w in _W2], 12 * h_a * h_a)
            return 0.25 * (dxx + dyy)
        units = ((1, 1), (1, 1j), (1j, 1), (1j, 1j))
        moves = [
            ((a, ma, unit_a), (b, mb, unit_b))
            for unit_a, unit_b in units
            for ma, _ in _W1
            for mb, _ in _W1
        ]
        mixed = self._sums(moves, [wa * wb for _, wa in _W1 for _, wb in _W1], 144 * h_a * h_b)
        return 0.25 * (mixed[0] + 1j * mixed[1] - 1j * mixed[2] + mixed[3])


def _bundle_projector(spec, V):
    """(K, D^-1, H0) at samples-last frames V (r, r, N): the (rk, r, N)
    matrix K with H0 = K G K^H the induced metric of the bundle, and the
    inverse of the sub block D of G = V^T conj(V) in an (r, r, N) zero array.

    K is the identity on the quotient block and -B D^-1 on the sub block,
    so K G K^H = A - B D^-1 B^H, the Schur complement; all three come from
    one sweep of the bundle's Gram block.  A sub-bundle has no sub block.
    """
    q_idx, _ = _bundle_slices(spec)
    r, lo, rk = len(V), q_idx[0], len(q_idx)
    hi = lo + rk
    Vb = V[:, lo:]
    G = _sweep(_dot(np.swapaxes(Vb, 0, 1), np.conj(Vb)), range(rk, r - lo))
    K = np.zeros((rk,) + V.shape[1:], dtype=complex)
    K[:, lo:hi] = np.eye(rk)[:, :, None]
    K[:, hi:] = -G[:rk, rk:]
    Dinv = np.zeros_like(V)
    Dinv[hi:, hi:] = -G[rk:, rk:]
    return K, Dinv, G[:rk, :rk]


def _base_coeffs(W, C, H0inv):
    """The base block of the curvature at z = 0, (rk, rk, n, n, N):
    -(d_j dbar_k H) H0^-1 = W c[j,k] W^H H0^-1 with W = K V^T, since the
    ambient metric enters the Gram matrix as V^T He conj(V)."""
    X = _dot(_herm_t(W), H0inv)  # W^H H0^-1
    M = [[_dot(W, _dot(c[..., None], X)) for c in row] for row in C.coeffs]
    return np.moveaxis(np.array(M), (0, 1), (2, 3))


def _unfold(X, shape):
    """X with its sample axis unfolded to the batch shape of the points."""
    return X.reshape(X.shape[:2] + shape)


def _exact_coeffs(spec, C, zeta):
    """Curvature coefficients at z = 0 over a batch of fiber points, with
    the vertical block from the exact derivatives of the induced metric.

    Same keys, meaning and layout as ``_curvature_coeffs``, less its mixed
    blocks: for points shaped shape + (d,) each coefficient is (rk, rk) +
    shape, samples last.  The frames are affine in zeta, V = I + sum_p
    zeta_p E_p with E_p the single 1 at (lam_p - 1, mu_p - 1), so the Gram
    matrix G = V^T conj(V) has dG/dzeta_p = E_p^T conj(V) (row mu_p - 1
    only), the conjugate derivative its adjoint, and the constant mixed
    derivative E_p^T E_q.  With H = K G K^H (see ``_bundle_projector``),
    c_p = K e_(mu_p) and g_p = conj(K) conj(V)[lam_p] this gives

        dH/dzeta_p                = c_p g_p^T
        d^2 H/dzeta_p dzetabar_q  = a_pq c_p c_q^H - b_pq conj(g_q) g_p^T

    with a_pq = [lam_p = lam_q] - conj(V)[lam_p]^T D^-1 V[lam_q] and
    b_pq = D^-1[mu_q, mu_p]; the terms with D^-1 come from the product
    rule on the Schur complement, d(D^-1) = -D^-1 dD D^-1.  The curvature
    coefficient -d dbar H H^-1 + dH H^-1 dbar H H^-1 is then a sum of two
    outer products per pair (p, q), built for all pairs at once as one
    (rk, rk, d, d, N) array.
    """
    chart = chart_for(spec, C.n)
    n, d = chart.n, chart.d
    zeta = _zeta(chart, zeta)
    shape = zeta.shape[:-1]
    V = _frames(chart, _samples_last(zeta, shape))
    K, Dinv, H0 = _bundle_projector(spec, V)
    H0inv = _inverse(H0)
    lo = _bundle_slices(spec)[0][0]
    W = _dot(K[:, lo:], np.swapaxes(V, 0, 1)[lo:])  # K V^T

    blocks = []
    if d:
        lam = [pair[0] - 1 for pair in chart.pairs]
        mu = [pair[1] - 1 for pair in chart.pairs]
        c = K[:, mu]  # (rk, d, N): column p is c_p
        g = np.conj(W[:, lam])  # (rk, d, N): column p is g_p
        g_inv = _dot(np.swapaxes(H0inv, 0, 1), g)  # column p is (g_p^T H0^-1)^T
        gamma = _dot(np.swapaxes(g_inv, 0, 1), np.conj(g))  # (d, d, N)
        alpha = np.equal.outer(lam, lam)[:, :, None] - _dot(_dot(np.conj(V[lam]), Dinv), np.swapaxes(V[lam], 0, 1))
        beta = np.swapaxes(Dinv[np.ix_(mu, mu)], 0, 1)
        e = _dot(np.swapaxes(H0inv, 0, 1), np.conj(c))  # column q is (c_q^H H0^-1)^T
        M = (gamma - alpha) * c[:, None, :, None] * e[None, :, None, :]
        M += beta * np.conj(g)[:, None, None, :] * g_inv[None, :, :, None]
        blocks.append((n, M))
    blocks.append((0, _base_coeffs(W, C, H0inv)))
    pairs = [(off, B, p, q) for off, B in blocks for p in range(B.shape[2]) for q in range(B.shape[3])]
    coeffs = {(off + p, off + q): _unfold(B[:, :, p, q], shape) for off, B, p, q in pairs}
    return coeffs, _unfold(H0, shape), _unfold(H0inv, shape)


def _curvature_coeffs(spec, C, zeta, fd_step=FD_STEP):
    """Coefficient arrays of the curvature at z = 0 over a batch of fiber
    points, from the finite-difference stencils (the base block analytic).

    Returns (coeffs, H0, H0inv): a dict keyed by generator-index pairs
    (a, b) of the chart with values shaped (rk, rk) + shape, samples last --
    the coefficient of dg_a ^ dgbar_b of the matrix-valued (1,1)-form
    dbar(dH H^-1), whose (alpha, beta) entry feeds the FormMatrix entry
    (beta, alpha) -- plus the metric and its inverse at the points.
    """
    chart = chart_for(spec, C.n)
    zeta = _zeta(chart, zeta)
    shape = zeta.shape[:-1]
    Z = _samples_last(zeta, shape)
    n, d = chart.n, chart.d
    H0 = _induced_metric(chart, spec, Z)
    H0inv = _inverse(H0)
    V = _frames(chart, Z)
    K, _, _ = _bundle_projector(spec, V)
    Hz = _base_coeffs(_dot(K, np.swapaxes(V, 0, 1)), C, H0inv)
    ev = _Stencils(spec, C, Z, fd_step)
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
            coeffs[(a, b)] = Hz[:, :, a, b]
            continue
        # the metric is Hermitian: the vertical lower triangle mirrors the upper
        S[a, b] = _herm_t(S[b, a]) if n <= b < a else ev.d2(a, b)
        coeffs[(a, b)] = _dot(_dot(_dot(P[a], H0inv), _herm_t(P[b])) - S[a, b], H0inv)
    return {key: _unfold(v, shape) for key, v in coeffs.items()}, _unfold(H0, shape), _unfold(H0inv, shape)


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
    vertical = [np.abs(exact[key][..., :count] - v).max() for key, v in fd.items() if min(key) >= n]
    return float(np.max(mixed, initial=0.0) / scale), float(np.max(vertical, initial=0.0) / scale)


def _symmetrize_coeffs(coeffs, H0, H0inv, n):
    """Enforce the Hermitian symmetry of a Chern curvature in a holomorphic
    frame, M[b,a] = H M[a,b]^H H^-1 (the plain conjugate-transpose relation
    holds only in frames that are unitary at the point), on the two full
    squares of ``_exact_coeffs``, fiber and base (a < n), each as one
    (rk, rk, g, g, ...) array.  Returns the symmetrized dict, in the same
    order, and the worst pre-symmetrization defect relative to the overall
    scale (NaN if any coefficient is NaN)."""
    out = {}
    defect = scale = 0.0
    gens = sorted({a for a, _ in coeffs})
    for block in ([a for a in gens if a >= n], [a for a in gens if a < n]):
        if not block:
            continue
        M = np.moveaxis(np.array([[coeffs[(a, b)] for b in block] for a in block]), (0, 1), (2, 3))
        partner = _dot(_dot(H0[:, :, None, None], _herm_t(np.swapaxes(M, 2, 3))), H0inv[:, :, None, None])
        defect = np.maximum(defect, np.abs(M - partner).max())
        scale = np.maximum(scale, np.abs(M).max())
        sym = 0.5 * (M + partner)
        out.update({(a, b): sym[:, :, i, j] for i, a in enumerate(block) for j, b in enumerate(block)})
    rel = defect / scale if scale != 0 else 0.0
    return out, float(rel)


def curvature_at(spec, C, p, with_report=False):
    """Full curvature matrix at a fiber point from the exact derivatives of
    the induced metric; Hermiticity is symmetrized and the
    pre-symmetrization defect reported as a quality metric.  Raises
    ArithmeticError when the frame's Gram matrix is not finite, or when
    eps * cond(H0) exceeds AUDIT_TOL: the induced metric H0, a Schur
    complement, loses about that much relative accuracy."""
    chart = chart_for(spec, C.n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not np.isfinite(gram(chart, p)).all():
            raise ArithmeticError("the frame's Gram matrix is not finite (too far out in the chart)")
        coeffs, H0, H0inv = _exact_coeffs(spec, C, p)
        try:
            loss = np.finfo(float).eps * np.linalg.cond(H0)
        except np.linalg.LinAlgError:  # H0 is not finite: a Gram block is singular in floating point
            loss = np.inf
        if not loss <= AUDIT_TOL:
            raise ArithmeticError(
                f"the induced metric loses {loss:.3g} relative accuracy, beyond the "
                f"tolerance {AUDIT_TOL:g} (too far out in the chart)"
            )
    coeffs, defect = _symmetrize_coeffs(coeffs, H0, H0inv, chart.n)
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
        return PushforwardEstimate(form=ExtForm.zero(base_space), stderr={}, n_samples=0,
                                   n_requested=cfg.num_samples, n_nonfinite=0, degree=deg, fiber_dim=d)
    if k > n:
        raise ValueError(f"output degree {k} exceeds base dimension {n}")
    specs = bundles_in_expression(F_expr, rho)
    spec_of = {ref: _resolve_bundle(ref, rho) for _, ref in exprs.chern_symbols(F_expr)}

    keys = [(bitmask(J), bitmask(K)) for J in combinations(range(n), k) for K in combinations(range(n), k)]
    # the sign of the canonical vertical volume against dz_J ^ dzbar_K
    extract_sign = np.array([(-2j) ** d * (-1.0) ** ((d * (d - 1)) // 2 + K.bit_count() * d) for _, K in keys])
    vmask = chart.vertical_mask()
    sums = np.zeros(len(keys), dtype=complex)
    sumsq = np.zeros(len(keys))
    n_finite = 0
    audit = np.zeros(3)  # mixed, vertical and Hermitian defects; np.maximum carries a NaN

    proposal = _pick_proposal(cfg, chart)
    for chunk_idx in range(-(-cfg.num_samples // cfg.chunk)):
        count = min(cfg.chunk, cfg.num_samples - chunk_idx * cfg.chunk)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, chunk_idx], dtype=np.uint64))
        )
        zeta, weight = _draw_fs(rng, count, d, proposal)

        curv = {}
        for spec in specs:
            coeffs, H0, H0inv = _exact_coeffs(spec, C, zeta)
            if chunk_idx == 0:
                audit[:2] = np.maximum(
                    audit[:2], _audit_coeffs(spec, C, zeta[:AUDIT_SAMPLES], coeffs, cfg.fd_step)
                )
            coeffs, herm = _symmetrize_coeffs(coeffs, H0, H0inv, n)
            audit[2] = np.maximum(audit[2], herm)
            curv[spec] = chern_forms(FormMatrix.from_coeffs(chart.space, spec.rank, coeffs))

        value = exprs.evaluate(
            F_expr,
            const=lambda q: ExtForm.scalar(chart.space, q),
            chern=lambda j, ref: curv[spec_of[ref]][j],
        )

        zero = np.zeros(count, dtype=complex)
        arrs = np.array([value.terms.get((J | vmask, K | vmask), zero) for J, K in keys])
        # the algebra keeps all-zero arrays: read as absent, they add no NaN
        # where the weight is infinite
        present = arrs.any(axis=1)
        contrib = np.zeros_like(arrs)
        contrib[present] = arrs[present] * extract_sign[present, None] * weight
        finite = np.isfinite(weight) & np.isfinite(contrib).all(axis=0)
        n_finite += int(finite.sum())
        vals = np.where(finite, contrib, 0.0)
        sums += vals.sum(axis=1)
        sumsq += (np.abs(vals) ** 2).sum(axis=1)

    mixed_defect, vertical_defect, hermitian_defect = audit.tolist()
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

    terms, stderr = {}, {}
    for key, total, total_sq in (zip(keys, sums.tolist(), sumsq.tolist()) if n_finite else ()):
        mean = total / n_finite
        se = math.sqrt(max(total_sq / n_finite - abs(mean) ** 2, 0.0) / n_finite)
        if mean != 0 or se != 0:
            terms[key] = mean
        stderr[key] = se
    return PushforwardEstimate(
        form=ExtForm(base_space, terms),
        stderr=stderr,
        n_samples=n_finite,
        n_requested=cfg.num_samples,
        n_nonfinite=cfg.num_samples - n_finite,
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
