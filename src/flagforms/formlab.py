"""Exterior algebra and Chern-Weil constructions, at a point or over a
batch of sample points.

ExtForm models an element of the exterior algebra on holomorphic generators
g_1..g_N and their conjugates.  Terms are keyed by a pair of index bitsets
(holomorphic, anti-holomorphic); the canonical basis element for (S, T) is
dg_{s_1} ^ ... ^ dg_{s_p} ^ dgbar_{t_1} ^ ... ^ dgbar_{t_q} with ascending
indices and the holomorphic block first.  Anticommutativity is tracked by
sign normalization at insertion.

A coefficient is either a complex number (a form at one point) or a 1-D
complex array holding one value per sample (the same form at a batch of
points, as in Monte Carlo fiber integration).  The algebra -- sums, wedge
products, FormMatrix assembly, Chern forms -- is the same code for both;
the diagnostics (norm, equality, repr) and positivity evaluation need
number coefficients.

Unlike the symbolic modules this one runs on floating point, since its
inputs (curvature tensors) are numeric.  Tolerances are module constants.
"""

import math

import numpy as np

from .combinat import bitmask, mask_indices, perm_sign

#: tolerance for Hermitian-symmetry validation of curvature tensors
HERMITIAN_TOL = 1e-10
#: tolerance under which a sampled positivity value counts as non-negative
POSITIVITY_TOL = 1e-12

TWO_PI = 2.0 * math.pi


class GeneratorSpace:
    """Ordered list of holomorphic generator names (each has a conjugate)."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        self._index = {name: i for i, name in enumerate(self.names)}

    @classmethod
    def base(cls, n):
        """Horizontal generators z1..zn."""
        return cls(tuple(f"z{j}" for j in range(1, n + 1)))

    def index(self, name):
        return self._index[name]

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, GeneratorSpace):
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"GeneratorSpace({self.names!r})"


def _merge_sign(a, b):
    """Sign of sorting the concatenation of two disjoint ascending index
    sets (a then b) into ascending order."""
    sign = 1
    bb = b
    while bb:
        y = (bb & -bb).bit_length() - 1
        if ((a >> (y + 1)).bit_count()) & 1:
            sign = -sign
        bb &= bb - 1
    return sign


class ExtForm:
    """Sparse exterior-algebra element with complex coefficients, each a
    number or a per-sample array.  Zero numbers are dropped; arrays are
    kept unscanned (``FormMatrix.from_coeffs`` drops all-zero ones)."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        self.space = space
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                if isinstance(coeff, np.ndarray) and coeff.ndim:  # 0-d: a number
                    self.terms[key] = coeff
                    continue
                coeff = 0.0 + complex(coeff)
                if coeff != 0:
                    self.terms[key] = coeff

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, space):
        return cls(space)

    @classmethod
    def scalar(cls, space, value):
        return cls(space, {(0, 0): value})

    @classmethod
    def one(cls, space):
        return cls.scalar(space, 1.0)

    @classmethod
    def d(cls, space, name):
        """The holomorphic 1-form dg for the named generator."""
        return cls(space, {(1 << space.index(name), 0): 1.0})

    @classmethod
    def dbar(cls, space, name):
        """The anti-holomorphic 1-form conj(dg) for the named generator."""
        return cls(space, {(0, 1 << space.index(name)): 1.0})

    # -- linear structure -------------------------------------------------

    def _check_space(self, other):
        if self.space != other.space:
            raise ValueError("generator spaces do not match")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ExtForm.scalar(self.space, other)
        if not isinstance(other, ExtForm):
            return NotImplemented
        self._check_space(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms[key] + coeff if key in terms else coeff
        return ExtForm(self.space, terms)

    __radd__ = __add__

    def __neg__(self):
        return ExtForm(self.space, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ExtForm.scalar(self.space, other)
        if not isinstance(other, ExtForm):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Wedge product with a form, or scaling by a number."""
        if isinstance(other, (int, float, complex)):
            return ExtForm(self.space, {k: v * other for k, v in self.terms.items()})
        if not isinstance(other, ExtForm):
            return NotImplemented
        return self.wedge(other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ExtForm.one(self.space)
        for _ in range(n):
            result = result.wedge(self)
        return result

    # -- graded structure --------------------------------------------------

    def wedge(self, other):
        """Graded anticommutative product."""
        if not isinstance(other, ExtForm):
            raise TypeError(f"cannot wedge with {type(other)!r}")
        self._check_space(other)
        terms = {}
        for (s1, t1), c1 in self.terms.items():
            n_t1 = t1.bit_count()
            for (s2, t2), c2 in other.terms.items():
                if s1 & s2 or t1 & t2:
                    continue
                sign = _merge_sign(s1, s2) * _merge_sign(t1, t2)
                if (n_t1 * s2.bit_count()) & 1:
                    sign = -sign
                key = (s1 | s2, t1 | t2)
                piece = c1 * c2
                if key in terms:
                    terms[key] = terms[key] + piece if sign > 0 else terms[key] - piece
                else:
                    terms[key] = piece if sign > 0 else -piece
        return ExtForm(self.space, terms)

    def conj(self):
        """Complex conjugate form: (S, T) terms map to conjugated (T, S)."""
        terms = {}
        for (s, t), coeff in self.terms.items():
            sign = -1 if (s.bit_count() * t.bit_count()) & 1 else 1
            terms[(t, s)] = sign * coeff.conjugate()
        return ExtForm(self.space, terms)

    def bidegrees(self):
        return {(s.bit_count(), t.bit_count()) for s, t in self.terms}

    def bidegree(self):
        """The (p, q) bidegree of a pure form; raises when mixed."""
        degs = self.bidegrees()
        if len(degs) > 1:
            raise ValueError(f"form has mixed bidegrees {sorted(degs)}")
        return next(iter(degs)) if degs else (0, 0)

    def coeff(self, holo, anti):
        """Coefficient of the canonical basis element for generator index
        sets ``holo`` and ``anti`` (iterables of indices or bitmasks)."""
        s = holo if isinstance(holo, int) else bitmask(holo)
        t = anti if isinstance(anti, int) else bitmask(anti)
        return self.terms.get((s, t), 0.0)

    # -- diagnostics ----------------------------------------------------------

    def norm(self):
        return math.sqrt(sum(abs(c) ** 2 for c in self.terms.values()))

    def is_real(self, tol=1e-14):
        return (self - self.conj()).norm() <= tol * max(1.0, self.norm())

    def allclose(self, other, tol=1e-12):
        return (self - other).norm() <= tol * max(1.0, self.norm(), other.norm())

    def __eq__(self, other):
        if not isinstance(other, ExtForm):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "ExtForm(0)"
        names = self.space.names
        pieces = []
        for (s, t), coeff in sorted(self.terms.items()):
            gens = [f"d{names[i]}" for i in mask_indices(s)]
            gens += [f"d{names[i]}~" for i in mask_indices(t)]
            body = "^".join(gens) if gens else "1"
            pieces.append(f"({coeff:.6g})*{body}")
        return "ExtForm(" + " + ".join(pieces) + ")"


def wedge(a, b):
    """Module-level wedge, graded anticommutative; errors on mismatched
    generator spaces."""
    return a.wedge(b)


class CurvatureTensor:
    """Coefficients c[j,k,alpha,beta] of a curvature tensor at a point,
    with the Hermitian symmetry conj(c[j,k,a,b]) = c[k,j,b,a]."""

    __slots__ = ("n", "r", "coeffs")

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 4 or coeffs.shape[0] != coeffs.shape[1] or coeffs.shape[2] != coeffs.shape[3]:
            raise ValueError(f"expected shape (n, n, r, r), got {coeffs.shape}")
        self.n = coeffs.shape[0]
        self.r = coeffs.shape[2]
        defect = np.abs(np.conj(coeffs) - coeffs.transpose(1, 0, 3, 2)).max()
        scale = max(1.0, np.abs(coeffs).max())
        if defect > HERMITIAN_TOL * scale:
            raise ValueError(f"coefficients violate Hermitian symmetry by {defect:g}")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n, r):
        return cls(np.zeros((n, n, r, r), dtype=complex))

    def scale(self):
        return float(np.abs(self.coeffs).max())

    def __neg__(self):
        return CurvatureTensor(-self.coeffs)

    def __add__(self, other):
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        return CurvatureTensor(self.coeffs + other.coeffs)

    def to_json(self):
        entries = []
        for j in range(self.n):
            for k in range(self.n):
                for a in range(self.r):
                    for b in range(self.r):
                        v = self.coeffs[j, k, a, b]
                        if v != 0:
                            entries.append(
                                {
                                    "j": j + 1,
                                    "k": k + 1,
                                    "alpha": a + 1,
                                    "beta": b + 1,
                                    "re": v.real,
                                    "im": v.imag,
                                }
                            )
        return {"n": self.n, "r": self.r, "entries": entries}

    @classmethod
    def from_json(cls, data):
        """Load coefficients, applying Hermitian completion: an entry
        (j,k,a,b) also sets its partner (k,j,b,a) to the conjugate, and
        inconsistent duplicates are rejected by the constructor check."""
        n, r = int(data["n"]), int(data["r"])
        coeffs = np.zeros((n, n, r, r), dtype=complex)
        given = np.zeros((n, n, r, r), dtype=bool)
        for e in data["entries"]:
            j, k = e["j"] - 1, e["k"] - 1
            a, b = e["alpha"] - 1, e["beta"] - 1
            v = complex(e["re"], e.get("im", 0.0))
            if given[j, k, a, b] and coeffs[j, k, a, b] != v:
                raise ValueError(f"conflicting duplicate entry at {(j, k, a, b)}")
            coeffs[j, k, a, b] = v
            given[j, k, a, b] = True
        for j in range(n):
            for k in range(n):
                for a in range(r):
                    for b in range(r):
                        if given[j, k, a, b] and not given[k, j, b, a]:
                            coeffs[k, j, b, a] = np.conj(coeffs[j, k, a, b])
                            given[k, j, b, a] = True
        return cls(coeffs)


class FormMatrix:
    """Square matrix of (1,1)-forms; entry (b, a) holds the form paired
    with the elementary endomorphism e_a^dual (x) e_b.

    For a curvature matrix the Hermitian property reads
    conj(entry[b][a]) == -entry[a][b] (equivalently, i times the matrix is
    Hermitian as a form-valued matrix).
    """

    __slots__ = ("space", "entries")

    def __init__(self, space, entries):
        self.space = space
        self.entries = [list(row) for row in entries]
        size = len(self.entries)
        for row in self.entries:
            if len(row) != size:
                raise ValueError("entries must form a square matrix")

    @classmethod
    def from_coeffs(cls, space, rank, coeffs):
        """Assemble a matrix of (1,1)-forms from coefficient arrays.

        ``coeffs`` maps generator-index pairs (a, b) to arrays shaped
        (rank, rank, ...); entry (beta, alpha) of the matrix collects
        M[alpha, beta] dg_a ^ dgbar_b over all pairs.  With a trailing
        sample axis the coefficients are per-sample arrays, and those zero
        at every sample are left out, once; without it they are numbers.
        """
        terms = [[{} for _ in range(rank)] for _ in range(rank)]
        for (a, b), M in coeffs.items():
            key = (1 << a, 1 << b)
            for alpha in range(rank):
                for beta in range(rank):
                    if np.ndim(M[alpha, beta]) == 0 or M[alpha, beta].any():
                        terms[beta][alpha][key] = M[alpha, beta]
        return cls(space, [[ExtForm(space, t) for t in row] for row in terms])

    @property
    def rank(self):
        return len(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx[0]][idx[1]]

    def hermitian_defect(self):
        worst = 0.0
        for b in range(self.rank):
            for a in range(self.rank):
                worst = max(
                    worst,
                    (self.entries[b][a].conj() + self.entries[a][b]).norm(),
                )
        return worst

    def check_hermitian(self, tol=1e-8):
        scale = max(1.0, self.norm())
        defect = self.hermitian_defect()
        if defect > tol * scale:
            raise ValueError(f"form matrix is not Hermitian: defect {defect:g}")
        return defect

    def norm(self):
        return math.sqrt(sum(e.norm() ** 2 for row in self.entries for e in row))

    def trace(self):
        acc = ExtForm.zero(self.space)
        for i in range(self.rank):
            acc = acc + self.entries[i][i]
        return acc

    def scaled(self, factor):
        return FormMatrix(
            self.space, [[e * factor for e in row] for row in self.entries]
        )

    def __add__(self, other):
        if not isinstance(other, FormMatrix):
            return NotImplemented
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FormMatrix(
            self.space,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        return self + other.scaled(-1.0)


def base_curvature_matrix(C, space=None):
    """The matrix of (1,1)-forms of a curvature tensor on the horizontal
    generators: entry (b, a) is sum_{j,k} c[j,k,a,b] dz_j ^ dzbar_k."""
    if space is None:
        space = GeneratorSpace.base(C.n)
    z = [space.index(f"z{j + 1}") for j in range(C.n)]
    return FormMatrix.from_coeffs(
        space, C.r, {(z[j], z[k]): C.coeffs[j, k] for j in range(C.n) for k in range(C.n)}
    )


def wedge_det(entries, one, zero):
    """Determinant of a small matrix of commuting even-degree elements,
    generic in the algebra."""
    from itertools import permutations

    k = len(entries)
    if k == 0:
        return one
    acc = zero
    for perm in permutations(range(k)):
        sign = perm_sign(perm)
        prod = one
        for i in range(k):
            prod = prod * entries[i][perm[i]]
        acc = acc + prod * sign
    return acc


def chern_forms(M):
    """Chern forms c_0..c_rank of a curvature FormMatrix.

    The i/(2 pi) normalization is applied here: c_s is the sum over
    s-element index subsets of the wedge-determinant of the corresponding
    submatrix of (i/2pi) M.  Each c_s is a real (s, s)-form, with
    per-sample coefficients when M has them.
    """
    from itertools import combinations

    N = M.scaled(1j / TWO_PI)
    one = ExtForm.one(M.space)
    zero = ExtForm.zero(M.space)
    out = [one]
    for s in range(1, M.rank + 1):
        acc = zero
        for subset in combinations(range(M.rank), s):
            sub = [[N.entries[i][j] for j in subset] for i in subset]
            acc = acc + wedge_det(sub, one, zero)
        out.append(acc)
    return out


# -- Griffiths positivity ----------------------------------------------------


def _unit_rows(rng, count, dim):
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return v / norms


def griffiths_sample(n, r, terms=3, seed=0):
    """A Griffiths-semipositive curvature tensor built as a sum of
    rank-one squares c = sum_q u^q (x) conj(u^q) (x) w^q (x) conj(w^q)."""
    if terms < 0:
        raise ValueError("terms must be >= 0")
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((n, n, r, r), dtype=complex)
    for _ in range(terms):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        coeffs += np.einsum("j,k,a,b->jkab", u, np.conj(u), w, np.conj(w))
    return CurvatureTensor(coeffs)


def griffiths_form_values(C, samples=2000, seed=0):
    """Values of the bi-quadratic form sum c[j,k,a,b] tau_j conj(tau_k)
    v_a conj(v_b) on random unit pairs (tau, v)."""
    rng = np.random.default_rng(seed)
    tau = _unit_rows(rng, samples, C.n)
    v = _unit_rows(rng, samples, C.r)
    vals = np.einsum(
        "jkab,sj,sk,sa,sb->s", C.coeffs, tau, np.conj(tau), v, np.conj(v)
    )
    if np.abs(vals.imag).max(initial=0.0) > 1e-8 * max(1.0, np.abs(vals.real).max(initial=0.0)):
        raise ArithmeticError("Griffiths form is not real; tensor symmetry broken")
    return vals.real


def griffiths_check(C, samples=2000, seed=0):
    """Minimum of the Griffiths bi-quadratic form over sampled unit pairs;
    a value >= -1e-12 * scale certifies sampled semipositivity."""
    return float(griffiths_form_values(C, samples, seed).min())


# -- positivity of (k,k)-forms -----------------------------------------------

_KAPPA_CACHE = {}


def _kappa(k):
    """Modulus-one constant making evaluation of a positive (k,k)-form on a
    holomorphic k-frame positive real; calibrated on (sum_j i dz_j^dzbar_j)^k."""
    if k == 0:
        return 1.0 + 0j
    if k not in _KAPPA_CACHE:
        space = GeneratorSpace.base(k)
        omega = ExtForm.zero(space)
        for j in range(1, k + 1):
            omega = omega + ExtForm.d(space, f"z{j}").wedge(
                ExtForm.dbar(space, f"z{j}")
            ) * 1j
        cal = omega**k
        frame = np.eye(k, dtype=complex)
        val = _evaluate_on_frame(cal, frame[None, :, :])[0]
        if abs(val) < 1e-12:
            raise ArithmeticError("positivity calibration value vanished")
        _KAPPA_CACHE[k] = np.conj(val) / abs(val)
    return _KAPPA_CACHE[k]


def _evaluate_on_frame(gamma, frames):
    """Evaluate a (k,k)-form on batched k-frames.

    ``frames`` has shape (N, k, n) with rows the frame vectors; the value
    for term (S, T) is coeff * det(V[:, S]) * conj(det(V[:, T])).  Each
    column subset's minors are computed once per call.
    """
    N = frames.shape[0]
    vals = np.zeros(N, dtype=complex)
    minors = {}

    def minor(mask):
        if mask not in minors:
            minors[mask] = np.linalg.det(frames[:, :, mask_indices(mask)])
        return minors[mask]

    for (s, t), coeff in gamma.terms.items():
        vals += coeff * minor(s) * np.conj(minor(t))
    return vals


def positivity_values(gamma, samples=1000, seed=0):
    """Calibrated evaluation of a (k,k)-form on ``samples`` random
    holomorphic k-frames; a (0,0)-form, the zero form included, is its
    constant on every frame."""
    p, q = gamma.bidegree()
    if p != q:
        raise ValueError(f"positivity needs a (k,k)-form, got bidegree ({p},{q})")
    k = p
    if k == 0:
        return np.full(samples, complex(gamma.coeff(0, 0)).real)
    n = len(gamma.space)
    if k > n:
        raise ValueError(f"frame dimension {k} exceeds generator count {n}")
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((samples, k, n)) + 1j * rng.standard_normal(
        (samples, k, n)
    )
    vals = _kappa(k) * _evaluate_on_frame(gamma, frames)
    scale = np.abs(vals).max(initial=0.0)
    if np.abs(vals.imag).max(initial=0.0) > 1e-8 * max(1.0, scale):
        raise ArithmeticError("positivity values are not real; form is not real")
    return vals.real


def positivity_check(gamma, samples=1000, seed=0):
    """Minimum calibrated value of a (k,k)-form over sampled k-frames;
    min >= -tolerance certifies sampled positivity.  This is a sampling
    test, not an exact certificate."""
    return float(positivity_values(gamma, samples, seed).min())
