"""Flag-bundle charts, induced metrics of universal bundles, pointwise
curvature, and Monte Carlo fiber integration.

All pointwise work happens over the chart center of the base (z = 0); the
ambient metric is the synthetic truncation delta - sum c[j,k,a,b] z_j
conj(z_k), exactly quadratic in z, so z-derivatives of metrics are
analytic.  The curvature is the paper's center formula
(``_center_coeffs``) everywhere: at the chart center it is read directly
(``curvature_center``); at a fiber point the unitary rotation that makes
the point a chart center carries it there (``_exact_coeffs``, behind
``curvature_at``); over Haar-random rotations it is the Monte Carlo
integrand, and with a given unitary frame ``theta_intrinsic``.
Fourth-order central finite differences on the metric are the oracle
only: the audit of every Monte Carlo run, the curvature suite and the
tests.

Curvature coefficients are dicts keyed by pairs (a, b) of chart
generator indices: z_1..z_n, then one zeta per admissible pair.  The
finite-difference stencils (``_Stencils``) take the same index and shift
generator a (and b) by its own step, every stencil of an audit in one call
of the samples-last metric kernel (``_induced_metric``), which also serves
``metric_universal``: elementwise arithmetic on length-N vectors over
the frame entries that are not structurally zero, with the quotient
metric as a Schur complement taken one pivot at a time.

Per-sample arrays are laid out samples last: N fiber points are (d, N),
and small matrices (rank, rank, ..., N), matrix axes first, so a product
of small matrices (``_dot``) is a sum of broadcast products of contiguous
length-N vectors.  A curvature coefficient is such a (rank, rank, N)
array, the layout ``FormMatrix.from_coeffs`` reads; at a single point it
is (rank, rank).

Monte Carlo fiber integrals average the center formula over Haar-random
rotations, drawn in fixed-size chunks with per-chunk counter-keyed random
streams, so an estimate is bit-reproducible for a given seed no matter how
the chunks would be distributed over workers.
"""

import math
from dataclasses import dataclass, field
from functools import reduce
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
#: relative defect at which the finite-difference audit fails, and relative
#: accuracy loss at which ``curvature_at`` refuses a point
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

#: most shifted points that one metric-kernel call of the stencils holds;
#: the kernel's temporaries grow with them
_STENCIL_COLUMNS = 6144
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
    """Inverses of samples-last positive definite or triangular matrices."""
    return -_sweep(H.copy(), range(len(H)))


def _qr(X):
    """QR factorizations X = Q R of samples-last square matrices (r, r, N),
    R upper triangular with a positive diagonal, by Gram-Schmidt with every
    projection done twice, which keeps ill-conditioned columns orthonormal
    to rounding.  Inner products add row by row, the order of numpy's sum
    over the first axis for N >= 2 but not N = 1: a point rounds as in a batch.
    The complex array X is overwritten with Q."""
    R = np.zeros_like(X)
    for a in range(len(X)):
        v = X[:, a]  # (r, N), becomes column a of Q
        for _ in range(2):
            for b in range(a):
                c = reduce(np.add, np.conj(X[:, b]) * v)
                v -= c * X[:, b]
                R[b, a] += c
        R[a, a] = norm = np.sqrt(reduce(np.add, v.real**2 + v.imag**2))
        v /= norm
    return X, R


class _Stencils:
    """Fourth-order Wirtinger derivatives of the universal-bundle metric
    around a batch of fiber points, along the chart generators a (z_1..z_n,
    then zeta_p) that key the coefficient dicts: the independent route that
    audits the exact curvature.

    Steps are relative: the step of every fiber coordinate is
    FD_STEP * sqrt(1 + |zeta|^2) per sample, the scale on which the induced
    metrics vary around that point, so the audit of points far out in the
    chart does not drown in rounding noise.  The step is shared by all
    fiber coordinates, so far out in the chart, where one coordinate is
    much larger than another, the stencils lose accuracy.
    The base coordinates keep the plain step FD_STEP.

    The points are kept samples last, one row per chart generator;
    ``derivatives`` shifts them by every stencil of every derivative that
    the curvature reads, with z = 0 where no base generator moves, and
    evaluates the metric at the shifted points by ``_induced_metric`` on
    slices of whole samples: at most ``_STENCIL_COLUMNS`` shifted points
    per call, or one sample that alone has more.
    """

    def __init__(self, spec, C, Z):
        self.spec, self.C = spec, C
        self.chart = chart_for(spec, C.n)
        n, count = self.chart.n, Z.shape[1]
        self.x = np.concatenate([np.zeros((n, count), dtype=complex), Z])
        scale = np.sqrt(1.0 + np.sum(np.abs(Z) ** 2, axis=0))
        self.h = np.concatenate([np.full((n, count), FD_STEP), np.tile(FD_STEP * scale, (len(Z), 1))])

    def derivatives(self, pairs):
        """d/dg_a of the metric for every generator a, as one (rk, rk, n + d, N)
        array, and d/dg_a d/dgbar_b for every (a, b) in pairs, as a dict.

        A family of derivatives moves the generators of each of its tuples
        along the product of one stencil per generator, once per part: the
        units (1 or 1j, the x or y direction) of every generator.  A part
        is the weighted sum over its moves in stencil order, divided by the
        per-sample denominator before the parts are combined."""
        h, n = self.h, self.chart.n
        diag, mixed = [ab for ab in pairs if ab[0] == ab[1]], [ab for ab in pairs if ab[0] != ab[1]]
        da, ia, ib = [a for a, _ in diag], [a for a, _ in mixed], [b for _, b in mixed]
        families = [  # (generator tuples, stencil, units per part, denominators, combination)
            ([(a,) for a in range(len(h))], _W1, [(1,), (1j,)], 12 * h, lambda dx, dy: 0.5 * (dx - 1j * dy)),
            ([(a,) for a in da], _W2, [(1,), (1j,)], 12 * h[da] * h[da], lambda dxx, dyy: 0.25 * (dxx + dyy)),
            (mixed, _W1, list(product((1, 1j), repeat=2)), 144 * h[ia] * h[ib],
             lambda xx, xy, yx, yy: 0.25 * (xx + 1j * xy - 1j * yx + yy)),
        ]
        steps = []
        for gens, W, units, *_ in families:
            moves = [(u, ms) for u in units for ms in product([m for m, _ in W], repeat=len(u))]
            block = np.zeros((len(h), len(gens), len(moves)), dtype=complex)
            for j in range(len(units[0])):  # generator j of every tuple moves by ms[j] * u[j]
                block[[g[j] for g in gens], range(len(gens))] = [ms[j] * u[j] for u, ms in moves]
            steps.append(block.reshape(len(h), -1))
        steps = np.concatenate(steps, axis=1)
        moves = steps.shape[1]
        x = self.x[:, None, :] + steps[:, :, None] * h[:, None, :]  # (n + d, moves, N)
        per = max(1, _STENCIL_COLUMNS // moves)  # whole points per kernel call
        F = []
        for i in range(0, x.shape[2], per):
            xs = x[:, :, i : i + per].reshape(len(h), -1)
            Fs = _induced_metric(self.chart, self.spec, xs[n:], self.C, xs[:n])
            F.append(Fs.reshape(Fs.shape[:2] + (moves, -1)))
        F = np.concatenate(F, axis=3) if len(F) > 1 else F[0]
        out = []
        for gens, W, units, denom, combine in families:
            weights = [math.prod(ws) for ws in product([w for _, w in W], repeat=len(units[0]))]
            G, F = np.split(F, [len(gens) * len(units) * len(weights)], axis=2)
            G = G.reshape(G.shape[:2] + (len(gens), len(units), len(weights), -1))
            acc = weights[0] * G[..., 0, :]
            for i in range(1, len(weights)):
                acc = acc + weights[i] * G[..., i, :]
            out.append(combine(*np.moveaxis(acc / denom[:, None], 3, 0)))
        return out[0], dict(zip(diag + mixed, np.moveaxis(np.concatenate(out[1:], axis=2), 2, 0)))


def _bundle_projector(spec, V):
    """The (rk, r, N) matrix K at samples-last frames V (r, r, N) with
    H0 = K G K^H the induced metric of the bundle, G = V^T conj(V).

    K is the identity on the quotient block and -B D^-1 on the sub block
    D of G, so K G K^H = A - B D^-1 B^H, the Schur complement, from one
    sweep of the bundle's Gram block.  A sub-bundle has no sub block.
    """
    q_idx, _ = _bundle_slices(spec)
    r, lo, rk = len(V), q_idx[0], len(q_idx)
    hi = lo + rk
    Vb = V[:, lo:]
    G = _sweep(_dot(np.swapaxes(Vb, 0, 1), np.conj(Vb)), range(rk, r - lo))
    K = np.zeros((rk,) + V.shape[1:], dtype=complex)
    K[:, lo:hi] = np.eye(rk)[:, :, None]
    K[:, hi:] = -G[:rk, rk:]
    return K


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
    """Curvature coefficients at z = 0 over a batch of fiber points: the
    center formula carried to each point by the rotation that makes it a
    chart center.  Same keys, meaning and layout as ``_curvature_coeffs``
    less its mixed blocks, which vanish: (rk, rk) + shape for points shaped
    shape + (d,); returned with the metric H0 and its inverse.

    The frames V = I + zeta are upper unipotent, the flag on their trailing
    columns.  Their QR factorization V = g L, g unitary and L lower
    triangular (a QR of V reversed in rows and columns), makes the flag at
    zeta the center of the chart rotated by g, where the curvature is the
    center formula with the tensor g^T C conj(g).  Two holomorphic factors
    carry it back:

    - the frame: the bundle's frame at zeta is the rotated chart's times
      T = L[block, block], so each coefficient M becomes T^T M T^-T, and
      H0 = T^T conj(T);
    - the chart: V(zeta + dzeta) = g V(dzeta') B with B block lower
      triangular, so dzeta' is the admissible part of g^H dV L^-1:
      dzeta'_q = sum_p J[q, p] dzeta_p, J[q, p] = conj(g[lam_p, lam_q])
      L^-1[mu_p, mu_q], and the vertical coefficient (a, b) is
      sum J[a', a] conj(J[b', b]) M[(a', b')].

    Both charts share the base coordinates, so the base block changes with
    the frame alone and the mixed blocks stay zero.  Every factor is a
    product; the loss is that of the QR, about eps * cond(V).
    """
    chart = chart_for(spec, C.n)
    n, d = chart.n, chart.d
    zeta = _zeta(chart, zeta)
    shape = zeta.shape[:-1]
    Q, R = _qr(_frames(chart, _samples_last(zeta, shape))[::-1, ::-1])
    g, L = Q[::-1, ::-1], R[::-1, ::-1]
    Linv = _inverse(L)
    q_idx, _ = _bundle_slices(spec)
    block = slice(q_idx[0], q_idx[-1] + 1)
    T, Tinv = L[block, block], Linv[block, block]
    center = _center_coeffs(spec, C, g)

    lam = [pair[0] - 1 for pair in chart.pairs]
    mu = [pair[1] - 1 for pair in chart.pairs]
    Jt = np.conj(g[lam][:, lam]) * Linv[mu][:, mu]  # Jt[p, q] = J[q, p]
    vertical = np.zeros(T.shape[:2] + (d, d) + T.shape[2:], dtype=complex)
    for (a, b), M in center.items():
        if a >= n:
            vertical += M[:, :, None, None, None] * (Jt[:, a - n, None] * np.conj(Jt[None, :, b - n]))
    base = np.moveaxis(np.array([[center[j, k] for k in range(n)] for j in range(n)]), (0, 1), (2, 3))

    Tt, Tinvt = (np.swapaxes(X, 0, 1)[:, :, None, None] for X in (T, Tinv))
    blocks = [(off, _dot(_dot(Tt, B), Tinvt)) for off, B in ((n, vertical), (0, base))]
    pairs = [(off, B, p, q) for off, B in blocks for p in range(B.shape[2]) for q in range(B.shape[3])]
    coeffs = {(off + p, off + q): _unfold(B[:, :, p, q], shape) for off, B, p, q in pairs}
    H0 = _dot(np.swapaxes(T, 0, 1), np.conj(T))
    H0inv = _dot(np.conj(Tinv), np.swapaxes(Tinv, 0, 1))
    return coeffs, _unfold(H0, shape), _unfold(H0inv, shape)


def _curvature_coeffs(spec, C, zeta):
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
    Hz = _base_coeffs(_dot(_bundle_projector(spec, V), np.swapaxes(V, 0, 1)), C, H0inv)
    base, fiber = range(n), range(n, n + d)
    # the pair order is the term order of the forms built from these
    # coefficients, which fixes the rounding of sums over their terms: the
    # vertical block with each pair beside its mirror, the horizontal block,
    # then the mixed blocks
    pairs = sorted(product(fiber, fiber), key=lambda ab: (min(ab), max(ab), ab[0] > ab[1]))
    pairs += list(product(base, base)) + list(product(base, fiber)) + list(product(fiber, base))
    fd, coeffs = [(a, b) for a, b in pairs if max(a, b) >= n], {}
    if fd:  # none on a point fiber
        # the metric is Hermitian: the vertical lower triangle mirrors the upper
        P, S = _Stencils(spec, C, Z).derivatives([(a, b) for a, b in fd if not n <= b < a])
        S = np.stack([_herm_t(S[b, a]) if n <= b < a else S[a, b] for a, b in fd], axis=2)
        # all pairs at once: (P_a H0^-1 P_b^H - S_ab) H0^-1
        ia, ib = np.array(fd).T
        M = _dot(_dot(_dot(P, H0inv[:, :, None])[:, :, ia], _herm_t(P[:, :, ib])) - S, H0inv[:, :, None])
        coeffs = dict(zip(fd, np.moveaxis(M, 2, 0)))
    coeffs = {(a, b): Hz[:, :, a, b] if max(a, b) < n else coeffs[a, b] for a, b in pairs}
    return {key: _unfold(v, shape) for key, v in coeffs.items()}, _unfold(H0, shape), _unfold(H0inv, shape)


def _audit_coeffs(spec, C, zeta, exact):
    """Finite-difference audit of closed-form coefficients at the points
    zeta; a vertical key that ``exact`` lacks stands for a zero coefficient.

    Returns (mixed, vertical), both relative to the largest stencil
    coefficient at these points: the largest mixed base-fiber coefficient,
    which must vanish in this metric model, and the largest deviation of
    the exact vertical block from the stencils.  The scale is shared by
    all points because the stencils lose relative accuracy far out in the
    chart, where the two terms of each coefficient nearly cancel.  A NaN
    anywhere makes the defects NaN.
    """
    n = chart_for(spec, C.n).n
    fd, _, _ = _curvature_coeffs(spec, C, zeta)
    scale = np.max([np.abs(v).max() for v in fd.values()], initial=1e-300)
    mixed = [np.abs(v).max() for (a, b), v in fd.items() if (a < n) != (b < n)]
    vertical = [np.abs(exact[key] - v if key in exact else v).max() for key, v in fd.items() if min(key) >= n]
    return float(np.max(mixed, initial=0.0) / scale), float(np.max(vertical, initial=0.0) / scale)


def _hermitian_defect(coeffs, H0=None, H0inv=None):
    """Worst gap from M[(b, a)] = H0 M[(a, b)]^H H0^-1, the Hermitian
    symmetry of a Chern curvature in a frame with metric H0 (the identity
    when H0 is not given: a unitary frame), relative to the largest
    coefficient; NaN if one is NaN."""
    if H0 is None:
        gaps = [np.abs(M - _herm_t(coeffs[b, a])).max() for (a, b), M in coeffs.items()]
    else:  # every coefficient has the per-sample shape of H0: one stacked computation
        M = np.stack(list(coeffs.values()), axis=2)
        partner = _herm_t(np.stack([coeffs[b, a] for a, b in coeffs], axis=2))
        gaps = [np.abs(M - _dot(_dot(H0[:, :, None], partner), H0inv[:, :, None])).max()]
    scale = np.max([np.abs(M).max() for M in coeffs.values()])
    return float(np.max(gaps) / scale) if scale else 0.0


def curvature_at(spec, C, p, with_report=False):
    """Full curvature matrix at a fiber point: the center formula carried
    there by a rotation (``_exact_coeffs``).  The result is Hermitian by
    construction; its Hermitian defect is measured and, with with_report,
    reported.  Raises ArithmeticError when the frame's Gram matrix is not
    finite, or when eps * cond(V) exceeds AUDIT_TOL, with V the frame at
    the point: its QR factorization, which the rotation comes from, loses
    about that much relative accuracy."""
    chart = chart_for(spec, C.n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not np.isfinite(gram(chart, p)).all():
            raise ArithmeticError("the frame's Gram matrix is not finite (too far out in the chart)")
        loss = np.finfo(float).eps * np.linalg.cond(frames_eps(chart, p))
        if not loss <= AUDIT_TOL:
            raise ArithmeticError(
                f"the frame loses {loss:.3g} relative accuracy, beyond the "
                f"tolerance {AUDIT_TOL:g} (too far out in the chart)"
            )
    coeffs, H0, H0inv = _exact_coeffs(spec, C, p)
    matrix = FormMatrix.from_coeffs(chart.space, spec.rank, coeffs)
    if with_report:
        return matrix, {"hermitian_defect": _hermitian_defect(coeffs, H0, H0inv)}
    return matrix


def _center_coeffs(spec, C, g=None):
    """The paper's center formula: curvature coefficients at the chart
    center, keyed and laid out like those of ``_curvature_coeffs`` less
    the mixed blocks, which vanish there.  Entry
    (beta, alpha) is c[j,k,alpha,beta] dz_j ^ dzbar_k, minus
    dzeta_(lam,alpha) ^ dzetabar_(lam,beta) for each index lam before the
    bundle's block, plus dzeta_(beta,mu) ^ dzetabar_(alpha,mu) for each
    index mu of its sub block.

    With samples-last unitaries g (r, r, N) the tensor is the rotated one,
    C_g[j,k] = g^T C[j,k] conj(g), whose center is the flag g (standard
    flag) in the frame of g's columns; then the base coefficients are
    (rk, rk, N), and the vertical ones stay constant (rk, rk) arrays.
    It is the one curvature formula here: ``curvature_center`` reads it at
    g = 1, the Monte Carlo integrand and ``theta_intrinsic`` at unitaries,
    ``curvature_at`` through ``_exact_coeffs``.
    """
    chart = chart_for(spec, C.n)
    block, sub = spec.block(), spec.sub_block()
    rk = len(block)
    coeffs = {}
    for i, alpha in enumerate(block):
        for j, beta in enumerate(block):
            terms = [((lam, alpha), (lam, beta), -1.0) for lam in range(1, block[0])]
            terms += [((beta, mu), (alpha, mu), 1.0) for mu in sub]
            for p, q, v in terms:  # each pair of generators meets one entry
                M = coeffs[chart.zeta_gen_index(*p), chart.zeta_gen_index(*q)] = np.zeros((rk, rk))
                M[i, j] = v
    lo, hi = block[0] - 1, block[-1]
    if g is None:
        base = C.coeffs[:, :, lo:hi, lo:hi].transpose(2, 3, 0, 1)
    else:  # W = K V^T for the unitary frame V = g, where H0 = 1
        base = _base_coeffs(np.swapaxes(g[:, lo:hi], 0, 1), C, np.eye(rk)[:, :, None])
    coeffs.update({(j, k): base[:, :, j, k] for j in range(chart.n) for k in range(chart.n)})
    return coeffs


def curvature_center(spec, C):
    """Exact curvature matrix at the chart center (``_center_coeffs``)."""
    chart = chart_for(spec, C.n)
    return FormMatrix.from_coeffs(chart.space, spec.rank, _center_coeffs(spec, C))


def theta_intrinsic(spec, V, C):
    """Horizontal curvature tensor of the universal bundle at the flag
    spanned by the trailing column blocks of the unitary matrix V, returned
    as the full r x r matrix Pi Theta Pi in the ambient frame (Pi the
    orthogonal projector onto the bundle's column block).  The flag is the
    center of the chart rotated by V, so Theta is the base block of the
    center formula with the rotated tensor in the frame V_b, the bundle's
    columns of V; in the ambient frame it is conj(V_b) Theta V_b^T.
    Invariant under right multiplication of V by block-diagonal unitaries,
    which is exactly frame independence of the underlying tensor."""
    V = np.asarray(V, dtype=complex)
    r = spec.rho.r
    if V.shape != (r, r):
        raise ValueError(f"expected a {r} x {r} matrix")
    if np.abs(V @ _herm_t(V) - np.eye(r)).max() > 1e-10:
        raise ValueError("matrix is not unitary within 1e-10")
    chart = chart_for(spec, C.n)
    Vb = V[:, _bundle_slices(spec)[0]]
    center = _center_coeffs(spec, C, V[..., None])
    projected = {
        (j, k): np.conj(Vb) @ center[j, k][..., 0] @ Vb.T
        for j in range(chart.n)
        for k in range(chart.n)
    }
    return FormMatrix.from_coeffs(chart.space, r, projected)


# -- Monte Carlo fiber integration -------------------------------------------


@dataclass
class SamplerConfig:
    """Monte Carlo settings.  ``seed`` keys 64-bit random streams.
    ``proposal`` is accepted for older callers and ignored: every run
    draws Haar-random rotations."""

    num_samples: int
    seed: int
    chunk: int = MC_CHUNK
    proposal: str = "auto"

    def to_json(self):
        return {"num_samples": self.num_samples, "seed": self.seed, "chunk": self.chunk}


def _as_sampler(sampler):
    if isinstance(sampler, dict):
        return SamplerConfig(**sampler)
    if isinstance(sampler, SamplerConfig):
        return sampler
    raise TypeError("sampler must be a SamplerConfig or a dict")


def _haar_unitaries(rng, r, count):
    """count Haar-random r x r unitaries, samples last (r, r, count): the Q
    factor, with a positive diagonal of R, of complex Ginibre matrices
    (Mezzadri, Notices AMS 54, 2007)."""
    x = rng.standard_normal((2, r, r, count))
    x = x[0] + 1j * x[1]  # the real draws are freed before the factorization
    return _qr(x)[0]


def _fiber_volume(rho):
    """c_rho, the volume of the fiber in the invariant metric whose volume
    form at every chart center is the canonical vertical volume:
    pi^d prod_b sf(n_b - 1) / sf(r - 1), with n_b the block sizes of rho
    and sf(k) = 0! 1! ... k!."""
    blocks = [rho[i + 1] - rho[i] for i in range(rho.m)]
    d = sum(a * b for a, b in combinations(blocks, 2))
    sf = [math.prod(map(math.factorial, range(k + 1))) for k in range(rho.r)]
    return math.pi**d * math.prod(sf[b - 1] for b in blocks) / sf[rho.r - 1]


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

    At z = 0 the ambient metric is flat, so U(r) acts on the fiber by
    isometries and every fiber point is the center of a rotated chart.  Per
    sample a Haar-random unitary g is drawn, every universal curvature is
    the center formula with the rotated tensor (``_center_coeffs``), whose
    mixed base-fiber blocks vanish, and Chern forms are wedged per the
    expression, through ``FormMatrix.from_coeffs`` and
    ``formlab.chern_forms`` on per-sample base coefficients beside constant
    vertical ones.  The coefficient of each dz_J ^ dzbar_K against the
    canonical vertical volume prod_p (i/2) dzeta_p ^ dzetabar_p, times the
    fiber volume c_rho, is averaged with equal weights.  Standard errors
    come from centered per-chunk sums, so an integrand that does not depend
    on g reports 0, and are NaN with fewer than two finite samples; a sample
    that is not finite is dropped and counted.

    Once per bundle, finite differences with step FD_STEP recompute the
    curvature at the chart center, where neither the vertical nor the mixed
    blocks depend on g: the mixed blocks must vanish and the vertical block
    must match the center formula, both to AUDIT_TOL relative, or
    ArithmeticError is raised.  Both defects are reported on the estimate,
    with the Hermitian defect of the rotated center coefficients.
    """
    cfg = _as_sampler(sampler)
    if isinstance(F_expr, str):
        F_expr = exprs.parse(F_expr)
    rho = chart.rho
    degs = exprs.degrees(F_expr)
    if len(degs) != 1:
        raise ValueError(f"expression is not weighted-homogeneous: degrees {sorted(degs)}")
    deg = next(iter(degs))
    d, n = chart.d, chart.n
    k = deg - d
    base_space = GeneratorSpace.base(n)
    if k < 0:
        return PushforwardEstimate(form=ExtForm.zero(base_space), stderr={}, n_samples=0,
                                   n_requested=cfg.num_samples, n_nonfinite=0, degree=deg, fiber_dim=d)
    if k > n:
        raise ValueError(f"output degree {k} exceeds base dimension {n}")
    specs = bundles_in_expression(F_expr, rho)
    spec_of = {ref: _resolve_bundle(ref, rho) for _, ref in exprs.chern_symbols(F_expr)}

    center = np.zeros((1, d))
    audits = [
        _audit_coeffs(spec, C, center, {key: v[..., None] for key, v in _center_coeffs(spec, C).items()})
        for spec in specs
    ]
    mixed_defect, vertical_defect = np.max([(0.0, 0.0)] + audits, axis=0).tolist()  # a NaN stays
    if not mixed_defect <= AUDIT_TOL:
        raise ArithmeticError(
            f"mixed base-fiber curvature blocks do not vanish (defect {mixed_defect:g}); "
            "the pointwise model assumption is violated"
        )
    if not vertical_defect <= AUDIT_TOL:
        raise ArithmeticError(
            f"the center formula's vertical curvature differs from finite differences "
            f"(relative defect {vertical_defect:g})"
        )

    keys = [(bitmask(J), bitmask(K)) for J in combinations(range(n), k) for K in combinations(range(n), k)]
    # the sign of the canonical vertical volume against dz_J ^ dzbar_K, and
    # the equal weight of every sample
    weight = _fiber_volume(rho) * np.array(
        [(-2j) ** d * (-1.0) ** ((d * (d - 1)) // 2 + K.bit_count() * d) for _, K in keys]
    )
    vmask = chart.vertical_mask()
    mean = np.zeros(len(keys), dtype=complex)
    m2 = np.zeros(len(keys))  # summed squared deviations from the mean
    n_finite = 0
    hermitian_defect = 0.0  # np.maximum carries a NaN
    for chunk_idx in range(-(-cfg.num_samples // cfg.chunk)):
        count = min(cfg.chunk, cfg.num_samples - chunk_idx * cfg.chunk)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, chunk_idx], dtype=np.uint64))
        )
        g = _haar_unitaries(rng, chart.r, count)

        curv = {}
        for spec in specs:
            coeffs = _center_coeffs(spec, C, g)
            hermitian_defect = np.maximum(hermitian_defect, _hermitian_defect(coeffs))
            curv[spec] = chern_forms(FormMatrix.from_coeffs(chart.space, spec.rank, coeffs))

        value = exprs.evaluate(
            F_expr,
            const=lambda q: ExtForm.scalar(chart.space, q),
            chern=lambda j, ref: curv[spec_of[ref]][j],
        )

        # a coefficient that does not depend on g is a number
        vals = np.array([np.broadcast_to(value.terms.get((J | vmask, K | vmask), 0.0), (count,)) for J, K in keys])
        vals = vals[:, np.isfinite(vals).all(axis=0)] * weight[:, None]
        m = vals.shape[1]
        if not m:
            continue
        # centered sums, shifted by the first sample so that a constant integrand
        # has exactly zero spread, merged as in Chan, Golub and LeVeque (1983)
        dev = vals - vals[:, :1]
        chunk_mean = dev.mean(axis=1)
        chunk_m2 = (np.abs(dev - chunk_mean[:, None]) ** 2).sum(axis=1)
        delta = vals[:, 0] + chunk_mean - mean
        total = n_finite + m
        mean = mean + delta * (m / total)
        m2 = m2 + chunk_m2 + np.abs(delta) ** 2 * (n_finite * m / total)
        n_finite = total

    # fewer than two finite samples measure no spread: the error is unknown
    stderr = {key: math.sqrt(sq) / n_finite if n_finite > 1 else math.nan for key, sq in zip(keys, m2.tolist())}
    return PushforwardEstimate(
        form=ExtForm(base_space, dict(zip(keys, mean.tolist()))),
        stderr=stderr,
        n_samples=n_finite,
        n_requested=cfg.num_samples,
        n_nonfinite=cfg.num_samples - n_finite,
        degree=deg,
        fiber_dim=d,
        mixed_block_defect=mixed_defect,
        vertical_audit_defect=vertical_defect,
        hermitian_defect=float(hermitian_defect),
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
        """Residual measured in units of the total Monte Carlo error.  A
        residual within rounding, 1e-12 of the truth's scale, counts as 0:
        the standard error measures sampling noise only, and an integrand
        that does not depend on the rotation varies by rounding alone, or
        not at all.  A larger residual with no sampling error is infinite,
        and with an unknown one (fewer than two samples) NaN, never within."""
        if self.residual_abs <= 1e-12 * max(1.0, self.truth.norm()):
            return 0.0
        if self.stderr_total == 0:
            return math.inf
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
