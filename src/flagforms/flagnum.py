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

The metric model is written once, in the samples-last metric kernel
(``_induced_metric``): the Gram matrix of the bundle's frame columns in the
ambient metric and the Schur complement of its sub block, products and an
inverse of small matrices, as in the transport.  It gives the plain metric
(``metric_universal``, ``splitting_u``, the stencils) and, run on jets,
C[eps_a, epsbar_b] / (eps_a eps_c, epsbar_b epsbar_d) with one eps per
chart generator, the metric with its first and mixed second derivatives,
exact up to rounding.

The jets are the independent route (``_curvature_coeffs``): they share no
formula with the center formula and give every block of the curvature, the
base block too.  They audit every Monte Carlo run and serve the curvature
suite's mixed-block checks and the tests.  Fourth-order central finite
differences on the metric (``_Stencils``, behind ``_stencil_coeffs``)
remain as the route of the curvature suite's "vs finite differences" check
and as the jets' test oracle.

Curvature coefficients are dicts keyed by pairs (a, b) of chart
generator indices: z_1..z_n, then one zeta per admissible pair.  The
finite-difference stencils take the same index and shift generator a
(and b) by its own step, every stencil in one plain call of the kernel.

Per-sample arrays are laid out samples last: N fiber points are (d, N),
and small matrices (rank, rank, ..., N), matrix axes first, so a product
of small matrices (``_dot``) is a sum of broadcast products of contiguous
length-N vectors.  A curvature coefficient is such a (rank, rank, N)
array, the layout ``FormMatrix.from_coeffs`` reads; at a single point it
is (rank, rank).

Monte Carlo fiber integrals average the center formula over Haar-random
rotations, drawn in fixed-size chunks with per-chunk counter-keyed random
streams, so an estimate is bit-reproducible for a given seed no matter how
the chunks would be distributed over workers.  An integrand of output
degree 0 reads only the vertical block, which no rotation changes; it is
evaluated once and draws nothing, with the estimate of the sampled route.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
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
from .rootcalc import UniversalBundleSpec, _resolve_symbol, expand_expression

#: default fourth-order finite-difference step of the oracle stencils
FD_STEP = 1e-3
#: Monte Carlo chunk size (fixed so results never depend on a worker split)
MC_CHUNK = 65536
#: relative defect at which the audit fails, and relative accuracy loss at
#: which ``curvature_at`` refuses a point
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


def chart_for(spec, n):
    return _chart(spec.rho.rho, n)


@lru_cache(maxsize=256)
def _chart(rho, n):
    return FlagChart(rho, n)


# -- small matrices and their jets -------------------------------------------


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


def _inverse(H):
    """Inverses of samples-last positive definite or triangular matrices
    (m, m, ...): a Gauss-Jordan sweep on every pivot turns a copy of H into
    -H^-1.  No pivoting, stable on the positive definite metrics and the
    triangular factors here."""
    A = H.copy()
    for k in range(len(A)):
        inv = 1 / A[k, k]
        row, col = A[k] * inv, A[:, k] * inv
        A -= A[:, k, None] * row[None]
        A[k], A[:, k], A[k, k] = row, col, -inv
    return -A


def _jet_dot(A, B):
    """Products of samples-last matrix jets by the Leibniz rule.  A jet
    (value, d, dbar, d dbar) of shapes (i, j, ...), (i, j, G, ...) twice and
    (i, j, G, G, ...) is a matrix over C[eps_a, epsbar_b] / (eps_a eps_c,
    epsbar_b epsbar_d), one eps per chart generator g_a."""
    (v, d, e, s), (w, f, g, t) = A, B
    v1, w1 = v[:, :, None], w[:, :, None]
    return (
        _dot(v, w),
        _dot(d, w1) + _dot(v1, f),
        _dot(e, w1) + _dot(v1, g),
        _dot(s, w1[:, :, None]) + _dot(d[:, :, :, None], g[:, :, None])
        + _dot(e[:, :, None], f[:, :, :, None]) + _dot(v1[:, :, None], t),
    )


def _jet_conj(A):
    """The complex conjugate of a jet: conjugation swaps d and dbar."""
    v, d, e, s = A
    return np.conj(v), np.conj(e), np.conj(d), np.conj(np.swapaxes(s, 2, 3))


def _jet_t(A):
    """The transpose of a matrix jet."""
    return tuple(np.swapaxes(x, 0, 1) for x in A)


def _jet_inverse(A):
    """Inverses of jets of positive definite matrices: X = A^-1,
    X_a = -X A_a X, X_b = -X A_b X and X_ab = -X (A_ab X + A_a X_b + A_b X_a)
    for d_a, dbar_b and d_a dbar_b."""
    v, d, e, s = A
    X = _inverse(v)
    X1 = X[:, :, None]
    Xd, Xe = (-_dot(_dot(X1, y), X1) for y in (d, e))
    cross = _dot(d[:, :, :, None], Xe[:, :, None]) + _dot(e[:, :, None], Xd[:, :, :, None])
    return X, Xd, Xe, -_dot(X1[:, :, None], _dot(s, X1[:, :, None]) + cross)


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
    return _samples_first(_frames(chart, _samples_last(zeta, shape)), shape)


def _frames(chart, Z):
    """Frames samples last, (r, r, N), from (d, N) fiber coordinates."""
    r = chart.r
    V = np.zeros((r, r, Z.shape[1]), dtype=complex)
    V[range(r), range(r)] = 1.0
    if chart.d:
        V[[lam - 1 for lam, _ in chart.pairs], [mu - 1 for _, mu in chart.pairs]] = Z
    return V


def _bundle_slices(spec):
    """0-based frame index lists: the quotient block and the sub block."""
    return [i - 1 for i in spec.block()], [i - 1 for i in spec.sub_block()]


def _delta(C, z):
    """delta = sum c[j,k] z_j conj(z_k), (r, r, N), at samples-last base
    offsets z (n, N): the synthetic ambient metric is I - delta."""
    n, r = C.n, C.r
    zz = (z[:, None] * np.conj(z)[None, :]).reshape(n * n, -1)
    return _dot(C.coeffs.reshape(n * n, r * r).T, zz).reshape(r, r, -1)


def _induced_metric(chart, spec, Z, C=None, z=None, jet=False):
    """Induced metric of the universal bundle, samples last: Z is a (d, N)
    array, one length-N vector per fiber coordinate, and z an (n, N) array
    of base offsets, or None when z = 0; returns (rk, rk, N).

    Only the frame columns V of the bundle's block and of its sub block
    enter, which are contiguous up to r, the block first.  Their Gram
    matrix is G = V^T W with W = He conj(V), where the ambient metric
    He = I - delta enters only when z is given.  A proper quotient's metric
    is the Schur complement A - B D^-1 B^H of the sub block D, a Gram
    block, Hermitian positive definite.  A point whose Gram matrix is not
    finite gives NaN.

    With jet, at z = 0, the same steps run on jets in the n + d chart
    generators, hyper-dual numbers (Fike and Alonso, AIAA paper 2011-886),
    and return the exact (H, dH, dbarH, d dbarH), shaped (rk, rk, N),
    (rk, rk, n + d, N) twice and (rk, rk, n + d, n + d, N): d V = 1 at
    (lam - 1, mu - 1) along zeta_(lam,mu), and d_j dbar_k He = -c[j,k].
    Without it the derivative parts have no generator, and H is the value.
    """
    q_idx, s_idx = _bundle_slices(spec)
    n, d, r, N = chart.n, chart.d, chart.r, Z.shape[1]
    dV = np.zeros((r, r, n + d if jet else 0, N), dtype=complex)
    if jet and d:
        dV[[lam - 1 for lam, _ in chart.pairs], [mu - 1 for _, mu in chart.pairs], range(n, n + d)] = 1.0
    cols = slice(q_idx[0], None)
    dV = dV[:, cols]
    V = (_frames(chart, Z)[:, cols], dV, np.zeros_like(dV), np.zeros(dV.shape[:3] + dV.shape[2:], dtype=complex))
    W = _jet_conj(V)
    if z is not None and n:
        W[0][:] -= _dot(_delta(C, z), W[0])
    if jet and n:
        c = np.moveaxis(C.coeffs, (0, 1), (2, 3))[..., None]  # (r, r, n, n, 1)
        W[3][:, :, :n, :n] -= _dot(c, W[0][:, :, None, None])
    G = _jet_dot(_jet_t(V), W)
    rk = len(q_idx)
    H = A = tuple(x[:rk, :rk] for x in G)
    if s_idx:
        B, D = tuple(x[:rk, rk:] for x in G), tuple(x[rk:, rk:] for x in G)
        BXBh = _jet_dot(_jet_dot(B, _jet_inverse(D)), _jet_t(_jet_conj(B)))
        H = tuple(a - b for a, b in zip(A, BXBh))
    # an entry that is not finite shows on the diagonal: |G[a, b]|^2 <= G[a, a] G[b, b]
    finite = np.isfinite(np.trace(G[0]).real)
    H = H if finite.all() else tuple(np.where(finite, x, np.nan) for x in H)
    return H if jet else H[0]


def _samples_last(x, shape):
    """(k, N): the last axis of x, broadcast to shape + (k,), turned into
    one contiguous length-N row per entry, N = prod(shape)."""
    k = x.shape[-1]
    return np.ascontiguousarray(np.broadcast_to(x, shape + (k,)).reshape(math.prod(shape), k).T)


def _samples_first(X, shape):
    """Samples-last small matrices (i, j, N) as shape + (i, j)."""
    return np.moveaxis(X, -1, 0).reshape(shape + X.shape[:2])


def _metric(spec, C, z, p):
    """``metric_universal`` samples last, with the batch shape."""
    chart = chart_for(spec, C.n)
    zeta = _zeta(chart, p)
    z = np.zeros(C.n, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    if np.any(z):
        He = np.eye(C.r)[:, :, None] - _delta(C, _samples_last(z, z.shape[:-1]))
        if not np.all(np.linalg.eigvalsh(np.moveaxis(He, -1, 0)) > 0):
            raise ValueError("synthetic ambient metric is not positive definite at this z")
    shape = np.broadcast_shapes(zeta.shape[:-1], z.shape[:-1])
    z = _samples_last(z, shape) if np.any(z) else None
    return _induced_metric(chart, spec, _samples_last(zeta, shape), C, z), shape


def metric_universal(spec, C, z, p):
    """Induced metric of the universal bundle at base offset z and fiber
    point p, either of them batched; raises when the synthetic ambient
    metric stops being positive definite (z too large)."""
    return _samples_first(*_metric(spec, C, z, p))


def splitting_u(spec, C, z, p):
    """Coefficients u[alpha, mu] of the smooth orthogonal splitting of the
    quotient projection: the lift of the alpha-th quotient frame vector is
    eps_alpha + sum_mu u[alpha, mu] eps_mu over the sub-bundle frame.  To
    first order at the chart center, u[alpha, mu] = -conj(zeta_(alpha,mu)).
    It is -B D^-1 in the metric of U_l, whose Gram matrix has the bundle's
    block, then its sub block."""
    if spec.ell == 0:
        raise ValueError("splitting coefficients need a proper quotient (ell >= 1)")
    G, shape = _metric(UniversalBundleSpec(spec.rho, 0, spec.l), C, z, p)
    rk = spec.rank
    return _samples_first(-_dot(G[:rk, rk:], _inverse(G[rk:, rk:])), shape)


# -- curvature ---------------------------------------------------------------

#: most shifted points that one metric-kernel call of the stencils holds;
#: the kernel's temporaries grow with them
_STENCIL_COLUMNS = 6144
_W1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # f' stencil, / 12h
_W2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))  # f'', / 12h^2


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
    then zeta_p) that key the coefficient dicts, in every block: the route
    of the curvature suite's "vs finite differences" check
    (``_stencil_coeffs``) and the test oracle of the jets.

    Steps are relative: the step of every fiber coordinate is
    FD_STEP * sqrt(1 + |zeta|^2) per sample, the scale on which the induced
    metrics vary around that point, so points far out in the chart do not
    drown in rounding noise.  The step is shared by all
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

    def jet(self):
        """The metric and its derivatives at the points in the jet layout
        of ``_induced_metric``, (H, dH, dbarH, d dbarH).  The metric is
        Hermitian: dbarH is (dH)^H, and the lower triangles of the vertical
        and the horizontal block of d dbarH mirror the upper ones."""
        n = self.chart.n
        H0 = _induced_metric(self.chart, self.spec, self.x[n:])
        pairs = _curvature_pairs(self.chart)
        if not pairs:  # a point fiber over a point base
            return H0, None, None, None
        mirror = [b < a and (a < n) == (b < n) for a, b in pairs]
        P, S = self.derivatives([ab for ab, m in zip(pairs, mirror) if not m])
        full = np.empty(P.shape[:3] + P.shape[2:], dtype=complex)
        for (a, b), m in zip(pairs, mirror):
            full[:, :, a, b] = _herm_t(S[b, a]) if m else S[a, b]
        return H0, P, _herm_t(P), full


def _base_coeffs(W, C, H0inv):
    """The base block of the curvature at z = 0, (rk, rk, n, n, N), of a
    bundle whose metric is H = W He W^H with samples-last W (rk, r, N), the
    transposed frame columns of the bundle when they are orthogonal to its
    sub-bundle, as in a unitary frame: -(d_j dbar_k H) H0^-1 =
    W c[j,k] W^H H0^-1."""
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
    zeta = _zeta(chart, zeta)
    shape = zeta.shape[:-1]
    return _transport(spec, C, _frames(chart, _samples_last(zeta, shape)), shape)


def _transport(spec, C, V, shape):
    """``_exact_coeffs`` from the samples-last frames V (r, r, N) of the
    points, which it overwrites, with the batch shape of the points."""
    chart = chart_for(spec, C.n)
    n, d = chart.n, chart.d
    Q, R = _qr(V[::-1, ::-1])
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


def _curvature_pairs(chart):
    """Every pair (a, b) of chart generators, in the term order of the forms
    built from the coefficients, which fixes the rounding of sums over their
    terms: the vertical block with each pair beside its mirror, the
    horizontal block, then the mixed blocks."""
    n, d = chart.n, chart.d
    base, fiber = range(n), range(n, n + d)
    pairs = sorted(product(fiber, fiber), key=lambda ab: (min(ab), max(ab), ab[0] > ab[1]))
    return pairs + list(product(base, base)) + list(product(base, fiber)) + list(product(fiber, base))


def _coeffs_from(spec, C, zeta, route):
    """Curvature coefficients at z = 0 over a batch of fiber points from a
    route to the metric and its derivatives: ``route(chart, Z)`` takes the
    points samples last, (d, N), and returns the jet layout of
    ``_induced_metric``, (H, dH, dbarH, d dbarH)."""
    chart = chart_for(spec, C.n)
    zeta = _zeta(chart, zeta)
    shape = zeta.shape[:-1]
    H0, P, Pbar, S = route(chart, _samples_last(zeta, shape))
    H0inv = _inverse(H0)
    pairs = _curvature_pairs(chart)
    coeffs = {}
    if pairs:  # else a point fiber over a point base
        # all pairs at once: (d_a H H0^-1 dbar_b H - d_a dbar_b H) H0^-1
        ia, ib = np.array(pairs).T
        M = _dot(_dot(_dot(P, H0inv[:, :, None])[:, :, ia], Pbar[:, :, ib]) - S[:, :, ia, ib], H0inv[:, :, None])
        coeffs = {ab: _unfold(v, shape) for ab, v in zip(pairs, np.moveaxis(M, 2, 0))}
    return coeffs, _unfold(H0, shape), _unfold(H0inv, shape)


def _curvature_coeffs(spec, C, zeta):
    """Coefficient arrays of the curvature at z = 0 over a batch of fiber
    points, every block from one jet evaluation of the metric kernel
    (``_induced_metric``): exact up to rounding, and sharing no formula with
    the center formula.

    Returns (coeffs, H0, H0inv): a dict keyed by generator-index pairs
    (a, b) of the chart with values shaped (rk, rk) + shape, samples last --
    the coefficient of dg_a ^ dgbar_b of the matrix-valued (1,1)-form
    dbar(dH H^-1), whose (alpha, beta) entry feeds the FormMatrix entry
    (beta, alpha) -- plus the metric and its inverse at the points.
    """
    return _coeffs_from(spec, C, zeta, lambda chart, Z: _induced_metric(chart, spec, Z, C, jet=True))


def _stencil_coeffs(spec, C, zeta):
    """``_curvature_coeffs`` with every derivative from the finite-difference
    stencils (``_Stencils``): the route of criterion 5, "curvature formula
    vs finite differences at the center", and the jets' test oracle."""
    return _coeffs_from(spec, C, zeta, lambda chart, Z: _Stencils(spec, C, Z).jet())


def _audit_coeffs(spec, C, zeta, exact):
    """Audit of closed-form coefficients at the points zeta against the
    jets (``_curvature_coeffs``); a vertical key that ``exact`` lacks
    stands for a zero coefficient.

    Returns (mixed, vertical), both relative to the largest jet coefficient
    at these points: the largest mixed base-fiber coefficient, which must
    vanish in this metric model, and the largest deviation of the exact
    vertical block from the jets.  A NaN anywhere makes the defects NaN.
    """
    n = chart_for(spec, C.n).n
    jet, _, _ = _curvature_coeffs(spec, C, zeta)
    scale = np.max([np.abs(v).max() for v in jet.values()], initial=1e-300)
    mixed = [np.abs(v).max() for (a, b), v in jet.items() if (a < n) != (b < n)]
    vertical = [np.abs(exact[key] - v if key in exact else v).max() for key, v in jet.items() if min(key) >= n]
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
    V = frames_eps(chart, p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not np.isfinite(np.einsum("...la,...lb->...ab", V, np.conj(V))).all():
            raise ArithmeticError("the frame's Gram matrix is not finite (too far out in the chart)")
        loss = np.finfo(float).eps * np.linalg.cond(V)
        if not loss <= AUDIT_TOL:
            raise ArithmeticError(
                f"the frame loses {loss:.3g} relative accuracy, beyond the "
                f"tolerance {AUDIT_TOL:g} (too far out in the chart)"
            )
    shape = V.shape[:-2]
    coeffs, H0, H0inv = _transport(spec, C, np.moveaxis(V.reshape((-1,) + V.shape[-2:]), 0, -1), shape)
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
    else:  # the bundle's columns of the unitary frame g, where H0 = 1
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
    base = _base_coeffs(Vb.T[..., None], C, np.eye(spec.rank)[:, :, None])
    projected = {
        (j, k): np.conj(Vb) @ base[:, :, j, k, 0] @ Vb.T
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

    At output degree k = 0 the integrand reads only the top vertical
    coefficient, built from the vertical block, which does not depend on g.
    Then it is evaluated once, at g = 1, and merged as every chunk's equal
    samples: no rotation is drawn, and form, standard errors and sample
    counts are those of the sampled route, bit for bit.

    Once per bundle, the jets (``_curvature_coeffs``) recompute the
    curvature at the chart center, where neither the vertical nor the mixed
    blocks depend on g: the mixed blocks must vanish and the vertical block
    must match the center formula, both to AUDIT_TOL relative, or
    ArithmeticError is raised.  Both defects are reported on the estimate,
    with the Hermitian defect of the rotated center coefficients (of the
    one evaluation at g = 1 when k = 0).
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
    spec_of = {ref: _resolve_symbol(j, ref, rho) for j, ref in exprs.chern_symbols(F_expr)}
    specs = list(dict.fromkeys(spec_of.values()))

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
            f"the center formula's vertical curvature differs from the metric's jets "
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

    def integrand(g):
        nonlocal hermitian_defect
        curv = {}
        for spec in specs:
            coeffs = _center_coeffs(spec, C, g)
            hermitian_defect = np.maximum(hermitian_defect, _hermitian_defect(coeffs))
            curv[spec] = chern_forms(FormMatrix.from_coeffs(chart.space, spec.rank, coeffs))
        return exprs.evaluate(
            F_expr,
            const=lambda q: ExtForm.scalar(chart.space, q),
            chern=lambda j, ref: curv[spec_of[ref]][j],
        )

    value = None
    for chunk_idx in range(-(-cfg.num_samples // cfg.chunk)):
        count = min(cfg.chunk, cfg.num_samples - chunk_idx * cfg.chunk)
        if k:
            rng = np.random.Generator(
                np.random.Philox(key=np.array([cfg.seed, chunk_idx], dtype=np.uint64))
            )
            value = integrand(_haar_unitaries(rng, chart.r, count))
        elif value is None:
            # a degree-0 integrand reads only the vertical block, which no
            # rotation changes: every sample equals its value at g = 1
            value = integrand(np.eye(chart.r, dtype=complex)[:, :, None])

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
