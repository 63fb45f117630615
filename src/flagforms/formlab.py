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
points, as in Monte Carlo fiber integration).  Sums, FormMatrix assembly
and Chern forms are the same code for both; the diagnostics (norm,
equality, repr) and positivity evaluation need number coefficients.

Wedge products take one of two kernels, chosen by the coefficient type
and the number of term pairs, and both give the same bits.  Forms at one
point repeat a few key layouts hundreds of times (the Chern forms of a
tensor and their products), so number forms multiply through a wedge plan
cached per pair of layouts: the compatible term pairs, their signs and
output slots, computed once, then applied as one numpy gather-multiply
and one ``np.bincount``.  A batch of samples makes each layout pair once
or twice per process, so planning it would cost more than it saves, and
forms with per-sample arrays keep the term loop, as do number forms with
few term pairs, where numpy's per-call cost exceeds the loop's.  The loop
is also the plan kernel's test oracle.

Determinants come from ``combinat.laplace_minors``, the Laplace expansion
along the rows with the minors memoized by column subset that also gives
the exact layer its Jacobi-Trudi determinants.  Chern forms
take the (s, s) pieces of the wedge determinant det(1 + (i/2 pi) M), and
positivity sampling takes the k x k minors of batched k-frames from it.
The random frames of a positivity sample depend on (k, n, samples, seed)
alone, so their minors are cached under that key.  Both caches are bounded
by bytes (``WEDGE_PLAN_BYTES``, ``FRAME_CACHE_BYTES``) and hold read-only
arrays.

Unlike the symbolic modules this one runs on floating point, since its
inputs (curvature tensors) are numeric.  Tolerances are module constants.
"""

import math
import sys
import threading
from functools import lru_cache
from itertools import repeat

import numpy as np

from .combinat import bitmask, laplace_minors, mask_indices

#: tolerance for Hermitian-symmetry validation of curvature tensors
HERMITIAN_TOL = 1e-10
#: tolerance under which a sampled positivity value counts as non-negative
POSITIVITY_TOL = 1e-12
#: bytes held at most by the cached wedge plans of number forms
WEDGE_PLAN_BYTES = 1 << 22
#: bytes held at most by the cached minors of positivity frames
FRAME_CACHE_BYTES = 1 << 25

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


@lru_cache(maxsize=1 << 16)
def _merge_sign(a, b):
    """Sign of sorting the concatenation of two disjoint ascending index
    sets (a then b) into ascending order.  Memoized: N generators give at
    most 3^N disjoint pairs."""
    sign = 1
    bb = b
    while bb:
        y = (bb & -bb).bit_length() - 1
        if ((a >> (y + 1)).bit_count()) & 1:
            sign = -sign
        bb &= bb - 1
    return sign


class _ByteLRU:
    """Least-recently-used cache of read-only values, bounded by the bytes
    that ``build`` reports with each value.  A value larger than the bound
    is returned without being kept."""

    def __init__(self, limit):
        self.limit, self.size = limit, 0
        self._items = {}  # key -> (value, nbytes), least recently used first
        self._lock = threading.Lock()

    def get(self, key, build):
        """The value under ``key``, made by ``build()`` -> (value, nbytes)
        when missing."""
        with self._lock:
            item = self._items.pop(key, None)
            if item is not None:
                self._items[key] = item
                return item[0]
        value, nbytes = build()
        with self._lock:
            if nbytes <= self.limit and key not in self._items:
                self._items[key] = (value, nbytes)
                self.size += nbytes
                while self.size > self.limit:
                    self.size -= self._items.pop(next(iter(self._items)))[1]
        return value


def _readonly(arrays):
    for a in arrays:
        a.flags.writeable = False


# -- wedge kernels -------------------------------------------------------------


def _numbers(terms):
    """True when every coefficient is a number, not a per-sample array."""
    return all(map(isinstance, terms.values(), repeat(complex)))


def _loop_wedge(left, right):
    """The wedge of two term dicts, term pair by term pair: the kernel of
    forms with per-sample arrays and of small products, and the reference
    of the plan kernel.  Returns the raw sums, before the constructor's
    zero dropping."""
    rows = [(s2, t2, c2, s2.bit_count() & 1) for (s2, t2), c2 in right.items()]
    terms = {}
    for (s1, t1), c1 in left.items():
        odd_t1 = t1.bit_count() & 1
        for s2, t2, c2, odd_s2 in rows:
            if s1 & s2 or t1 & t2:
                continue
            sign = _merge_sign(s1, s2) * _merge_sign(t1, t2)
            if odd_t1 & odd_s2:
                sign = -sign
            key = (s1 | s2, t1 | t2)
            piece = c1 * c2
            if key in terms:
                terms[key] = terms[key] + piece if sign > 0 else terms[key] - piece
            else:
                terms[key] = piece if sign > 0 else -piece
    return terms


#: bytes counted for each key tuple that a cached plan holds
_KEY_BYTES = 128
#: fewest term pairs, len(left) * len(right), that number forms wedge
#: through a plan; below it the term loop is faster even with a warm plan
_PLAN_MIN_PAIRS = 64


def _prefix_parity(v):
    """Bit x of each result is the parity of the bits of v below x."""
    v = v << 1
    for shift in (1, 2, 4, 8, 16, 32):
        v = v ^ (v << shift)
    return v


def _parity(v):
    """The parity of the number of set bits of each entry."""
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def _build_wedge_plan(left, right):
    """The wedge plan of two key layouts, the key tuples of two forms in
    dict order: the left and right index of each compatible term pair,
    left-major as ``_loop_wedge`` visits them; whether the pair's sign is
    negative; the pair's output slot; and the output keys in order of first
    appearance.  Returns the plan and the bytes it holds."""
    L = np.array(left, dtype=np.uint64).reshape(-1, 2)
    R = np.array(right, dtype=np.uint64).reshape(-1, 2)
    li, ri = np.nonzero(((L[:, None, 0] & R[None, :, 0]) | (L[:, None, 1] & R[None, :, 1])) == 0)
    s1, t1, s2, t2 = L[li, 0], L[li, 1], R[ri, 0], R[ri, 1]
    # the merge sign of (a, b) is the parity of a & _prefix_parity(b), and
    # parities add over xor, so one parity gives both merge signs
    below = _prefix_parity(R)[ri]
    odd = _parity((s1 & below[:, 0]) ^ (t1 & below[:, 1])) ^ (_parity(t1) & _parity(s2))
    slots = {}
    slot = [slots.setdefault(key, len(slots)) for key in zip((s1 | s2).tolist(), (t1 | t2).tolist())]
    # the real part of a piece goes to bin 2 * slot, its imaginary part to
    # bin 2 * slot + 1, so the bin sums read as complex numbers
    bins = 2 * np.repeat(np.array(slot, dtype=np.intp), 2)
    bins[1::2] += 1
    plan = (li, ri, odd.astype(bool), bins)
    _readonly(plan)
    keys = tuple(slots)
    nbytes = sum(a.nbytes for a in plan) + _KEY_BYTES * (len(left) + len(right) + len(keys))
    return plan + (keys,), nbytes


_PLANS = _ByteLRU(WEDGE_PLAN_BYTES)


def _plan_wedge(left, right):
    """The wedge of two term dicts of Python complex numbers through the
    wedge plan of their key layouts: one gather-multiply, with the real and
    imaginary parts formed as Python's complex product forms them, then one
    ``np.bincount``, which adds the parts of the pieces of each key in the
    loop's order from 0.0.  The sums therefore equal ``_loop_wedge``'s bit
    for bit, but for the sign of a zero, which is always +0.0 here; zeros
    are dropped."""
    layouts = (tuple(left), tuple(right))
    li, ri, neg, bins, keys = _PLANS.get(layouts, lambda: _build_wedge_plan(*layouts))
    a = np.fromiter(left.values(), complex, len(left))[li]
    b = np.fromiter(right.values(), complex, len(right))[ri]
    # -(x * y) is (-x) * y exactly, and the sign of a zero piece never
    # shows in a sum that starts at 0.0, so the sign goes on the factor
    np.negative(a, out=a, where=neg)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    pieces = np.empty((len(li), 2))
    np.subtract(ar * br, ai * bi, out=pieces[:, 0])
    np.add(ar * bi, ai * br, out=pieces[:, 1])
    sums = np.bincount(bins, pieces.reshape(-1), 2 * len(keys)).view(complex)
    terms = dict(zip(keys, sums.tolist()))
    if not sums.all():
        terms = {key: c for key, c in terms.items() if c}
    return terms


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

    @classmethod
    def _of(cls, space, terms):
        """The form owning ``terms``, which an internal builder has already
        put in the constructor's normal form: nonzero Python complex numbers
        with no negative-zero part, or per-sample arrays."""
        form = cls.__new__(cls)
        form.space, form.terms = space, terms
        return form

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
            if key not in terms:
                terms[key] = coeff
                continue
            # a sum of normal-form numbers has no negative-zero part
            total = terms[key] + coeff
            if type(total) is complex and not total:
                del terms[key]
            else:
                terms[key] = total
        return ExtForm._of(self.space, terms)

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
        """Graded anticommutative product.  Number forms with at least
        ``_PLAN_MIN_PAIRS`` term pairs multiply through the cached wedge
        plan of their key layouts, other forms through the term loop; both
        give the same bits."""
        if not isinstance(other, ExtForm):
            raise TypeError(f"cannot wedge with {type(other)!r}")
        self._check_space(other)
        left, right = self.terms, other.terms
        if len(left) * len(right) >= _PLAN_MIN_PAIRS and _numbers(left) and _numbers(right):
            return ExtForm._of(self.space, _plan_wedge(left, right))
        return ExtForm(self.space, _loop_wedge(left, right))

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


def _json_index(obj, key, top=None):
    """obj[key] of a tensor document: an integer in 1..top, or any
    positive integer when top is None."""
    value = obj[key]
    if type(value) is not int or not 1 <= value <= (top or value):
        within = f"in 1..{top}" if top else ">= 1"
        raise ValueError(f"tensor field {key!r} must be an integer {within}, got {value!r}")
    return value


def _json_real(value, key):
    """The value of field ``key`` of a tensor entry: a finite real number."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"tensor field {key!r} must be a finite real number, got {value!r}")
    return value


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
        defect = np.abs(np.conj(coeffs) - coeffs.transpose(1, 0, 3, 2)).max(initial=0)
        scale = max(1.0, np.abs(coeffs).max(initial=0))
        if defect > HERMITIAN_TOL * scale:
            raise ValueError(f"coefficients violate Hermitian symmetry by {defect:g}")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n, r):
        return cls(np.zeros((n, n, r, r), dtype=complex))

    def scale(self):
        return float(np.abs(self.coeffs).max(initial=0))

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
        inconsistent duplicates are rejected by the constructor check.

        A document that is not an object with a list of entry objects, an
        index that is not an integer in 1..n (j, k) or 1..r (alpha, beta),
        or a value that is not a finite real number raises ValueError."""
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("a curvature tensor must be a JSON object with a list of entry objects")
        n, r = _json_index(data, "n"), _json_index(data, "r")
        coeffs = np.zeros((n, n, r, r), dtype=complex)
        given = np.zeros((n, n, r, r), dtype=bool)
        for e in entries:
            j, k = _json_index(e, "j", n) - 1, _json_index(e, "k", n) - 1
            a, b = _json_index(e, "alpha", r) - 1, _json_index(e, "beta", r) - 1
            v = complex(_json_real(e["re"], "re"), _json_real(e.get("im", 0.0), "im"))
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
            numbers = np.ndim(M) == 2
            rows = M.tolist() if numbers else M
            for alpha in range(rank):
                for beta in range(rank):
                    v = rows[alpha][beta]
                    if not numbers:
                        if v.any():
                            terms[beta][alpha][key] = v
                    elif v:  # a number in the constructor's normal form
                        terms[beta][alpha][key] = 0.0 + complex(v)
        return cls(space, [[ExtForm._of(space, t) for t in row] for row in terms])

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
    generic in the algebra: 2^k memoized minors, not k! products."""
    return laplace_minors(entries, len(entries), one, zero)[(1 << len(entries)) - 1]


def chern_forms(M):
    """Chern forms c_0..c_rank of a curvature FormMatrix.

    det(1 + (i/2 pi) M) is the sum of all principal minors of (i/2 pi) M,
    so c_s is its (s, s) piece and one wedge determinant gives them all.
    c_0 is ``ExtForm.one``, and each c_s is a real (s, s)-form, with
    per-sample coefficients when M has them.
    """
    one = ExtForm.one(M.space)
    N = M.scaled(1j / TWO_PI).entries
    for i in range(M.rank):
        N[i][i] = one + N[i][i]
    pieces = [{} for _ in range(M.rank + 1)]
    for key, coeff in wedge_det(N, one, ExtForm.zero(M.space)).terms.items():
        pieces[key[0].bit_count()][key] = coeff
    return [ExtForm._of(M.space, terms) for terms in pieces]


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

@lru_cache(maxsize=64)
def _kappa(k):
    """Modulus-one constant making evaluation of a positive (k,k)-form on a
    holomorphic k-frame positive real; calibrated on (sum_j i dz_j^dzbar_j)^k."""
    if k == 0:
        return 1.0 + 0j
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
    return np.conj(val) / abs(val)


def _frame_minors(frames):
    """The k x k minors of batched k-frames, stacked: (rows, M, conj(M))
    with row rows[cols] of M (C(n, k), N) the minors of column mask cols.

    ``frames`` has shape (N, k, n) with rows the frame vectors.  All minors
    come from one Laplace expansion along the rows, with the samples on the
    last axis; those of fewer columns are dropped.
    """
    k = frames.shape[1]
    V = np.ascontiguousarray(frames.transpose(1, 2, 0))  # (k, n, N)
    minors = laplace_minors(V, V.shape[1], 1.0, 0.0)
    minors = {cols: m for cols, m in minors.items() if cols.bit_count() == k}
    M = np.array(list(minors.values()))
    return dict(zip(minors, range(len(M)))), M, np.conj(M)


def _evaluate_on_minors(gamma, rows, M, conj):
    """The value of a (k,k)-form on frames with stacked k x k minors M and
    their conjugates ``conj`` (``_frame_minors``): sum_s M_s (Gamma conj(M))_s,
    with Gamma the C(n, k)-square coefficient matrix of the form, whose
    entry (S, T) is the coefficient of its term (S, T)."""
    gamma_matrix = np.zeros((len(M), len(M)), dtype=complex)
    for (s, t), coeff in gamma.terms.items():
        gamma_matrix[rows[s], rows[t]] = coeff
    return (M * (gamma_matrix @ conj)).sum(axis=0)


def _evaluate_on_frame(gamma, frames):
    """Evaluate a (k,k)-form on batched k-frames of shape (N, k, n)."""
    return _evaluate_on_minors(gamma, *_frame_minors(frames))


_FRAMES = _ByteLRU(FRAME_CACHE_BYTES)


def _random_frame_minors(k, n, samples, seed):
    """The stacked k x k minors of ``samples`` random holomorphic k-frames
    in C^n drawn from ``seed`` (``_frame_minors``), the arrays read-only.
    They depend on (k, n, samples, seed) alone, so for an integer seed they
    are cached under that key."""

    def build():
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((samples, k, n)) + 1j * rng.standard_normal((samples, k, n))
        rows, M, conj = _frame_minors(frames)
        _readonly([M, conj])
        return (rows, M, conj), M.nbytes + conj.nbytes

    if not isinstance(seed, (int, np.integer)):  # a Generator draws anew on each call
        return build()[0]
    return _FRAMES.get((k, n, samples, int(seed)), build)


def positivity_values(gamma, samples=1000, seed=0):
    """Calibrated evaluation of a (k,k)-form on ``samples`` random
    holomorphic k-frames; a (0,0)-form, the zero form included, is its
    constant on every frame.  ``samples`` must be an integer >= 1."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    p, q = gamma.bidegree()
    if p != q:
        raise ValueError(f"positivity needs a (k,k)-form, got bidegree ({p},{q})")
    k = p
    if k == 0:
        return np.full(samples, complex(gamma.coeff(0, 0)).real)
    n = len(gamma.space)
    if k > n:
        raise ValueError(f"frame dimension {k} exceeds generator count {n}")
    vals = _kappa(k) * _evaluate_on_minors(gamma, *_random_frame_minors(k, n, int(samples), seed))
    scale = np.abs(vals).max(initial=0.0)
    if np.abs(vals.imag).max(initial=0.0) > 1e-8 * max(1.0, scale):
        raise ArithmeticError("positivity values are not real; form is not real")
    return vals.real


def positivity_check(gamma, samples=1000, seed=0):
    """Minimum calibrated value of a (k,k)-form over sampled k-frames;
    min >= -tolerance certifies sampled positivity.  This is a sampling
    test, not an exact certificate."""
    return float(positivity_values(gamma, samples, seed).min())
