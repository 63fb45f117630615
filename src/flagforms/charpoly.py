"""Exact polynomial ring in the Chern variables c_1..c_r, Segre and
(generalized) Schur polynomials, and decomposition in the Schur basis.

Coefficients are exact rationals throughout (Python int / Fraction); no
floating point enters this module.  Monomials are keyed by exponent tuples
(a_1, ..., a_r) and the weighted degree of c_1^{a_1}...c_r^{a_r} is
sum(i * a_i).  The stored order for serialization is graded lexicographic.

Terms are read-only mappings, so the polynomials that ``schur``,
``gen_schur`` and ``segre_polys`` keep in module caches cannot be changed by
a caller.  A product of two polynomials runs on packed monomials: each
exponent tuple becomes one int with an exponent in each little-endian field
of equal byte width, so multiplying monomials is adding ints, and the
coefficients are integer numerators over one common denominator per
operand (Monagan & Pearce, "Polynomial division using dynamic arrays,
heaps, and packed exponent vectors", CASC 2007).

A Schur polynomial S_sigma is the Jacobi-Trudi determinant of size
len(sigma).  Schur coordinates need no linear solve: the Schur basis is
unitriangular against the monomials c^mu = prod c_{mu_i} in lexicographic
order (Macdonald, Symmetric Functions and Hall Polynomials, I.6), so one
sweep peels off each S_sigma at its leading monomial c^sigma.
"""

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import attrgetter
from types import MappingProxyType

from .combinat import Partition, partitions_of, perm_sign

_denominator = attrgetter("denominator")


def _pack(exps, width):
    """Packed keys of exponent tuples, each exponent in a little-endian
    field of ``width`` bytes.  One-byte fields, the common case, are the
    bytes of the tuple itself."""
    if width == 1:
        return [int.from_bytes(bytes(e), "little") for e in exps]
    return [
        int.from_bytes(b"".join([a.to_bytes(width, "little") for a in e]), "little")
        for e in exps
    ]


def _unpack(keys, r, width):
    """Exponent tuples of packed keys; inverse of ``_pack``."""
    size = r * width
    if width == 1:
        return [tuple(k.to_bytes(size, "little")) for k in keys]
    return [
        tuple(int.from_bytes(b[i : i + width], "little") for i in range(0, size, width))
        for b in (k.to_bytes(size, "little") for k in keys)
    ]


def _over(numerators, den):
    """The coefficients numerator / den: an int where den divides the
    numerator, a Fraction only where it does not."""
    if den == 1:
        return numerators
    return [n // den if not n % den else Fraction(n, den) for n in numerators]


def _norm_coeff(c):
    # keep plain ints when exact, Fractions otherwise
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


class ChernPoly:
    """Sparse polynomial in c_1..c_r with exact rational coefficients.

    ``terms`` is a read-only mapping from exponent tuples of length ``r`` to
    nonzero coefficients, e.g. for r = 3 the polynomial c_1^3 + 2 c_1 c_2 -
    c_3 has terms {(3,0,0): 1, (1,1,0): 2, (0,0,1): -1}.
    """

    __slots__ = ("r", "_terms", "_packing", "_numer")

    #: variable name stem, and the key of the exponent lists in JSON
    _var, _exps_key = "c", "exps"

    #: weight of variable i (1-based) in the graded degree
    @staticmethod
    def _weight(i):
        return i

    def __init__(self, r, terms=None):
        self.r = int(r)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.r:
                    raise ValueError(
                        f"exponent vector {exps!r} has length != rank {self.r}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps!r}")
                coeff = _norm_coeff(coeff)
                if coeff != 0:
                    clean[exps] = coeff
        self._terms = MappingProxyType(clean)
        self._packing = self._numer = None

    @property
    def terms(self):
        return self._terms

    @classmethod
    def _wrap(cls, r, terms):
        """An instance that takes ownership of a checked terms dict."""
        out = cls.__new__(cls)
        out.r = r
        out._terms = MappingProxyType(terms)
        out._packing = out._numer = None
        return out

    def _packed(self, width=1):
        """(width, keys, numerators, denominator) of the terms, in order.

        The coefficients are integer numerators over one common denominator.
        The keys pack the exponents in fields of ``width`` or more bytes,
        wide enough for twice the largest exponent, so that adding two keys
        never carries from one field into the next.  The narrowest such
        packing is cached: the terms cannot change.
        """
        packing = self._packing
        if packing is None:
            terms = self._terms
            top = max(chain.from_iterable(terms), default=0)
            natural = max(1, ((2 * top).bit_length() + 7) // 8)
            packing = self._packing = (natural, _pack(terms, natural)) + self._numerators()
        if width > packing[0]:
            return (width, _pack(self._terms, width)) + packing[2:]
        return packing

    def _numerators(self):
        """(numerators, denominator): the coefficients as integer numerators
        over their least common denominator, in term order.  Cached apart
        from the packing, so that a caller that needs no keys packs none."""
        numer = self._numer
        if numer is None:
            coeffs = self._terms.values()
            den = lcm(*map(_denominator, coeffs))
            if den != 1:
                coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
            numer = self._numer = (coeffs, den)
        return numer

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, r):
        return cls(r, {})

    @classmethod
    def one(cls, r):
        return cls.const(r, 1)

    @classmethod
    def const(cls, r, value):
        return cls(r, {(0,) * r: value} if value != 0 else {})

    @classmethod
    def gen(cls, r, j):
        """The variable c_j (1 <= j <= r)."""
        if not 1 <= j <= r:
            raise ValueError(f"{cls._var}_{j} is not a variable for rank {r}")
        exps = [0] * r
        exps[j - 1] = 1
        return cls(r, {tuple(exps): 1})

    # -- ring operations ----------------------------------------------

    def _check_rank(self, other):
        if self.r != other.r:
            raise ValueError(f"rank mismatch: {self.r} vs {other.r}")

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.const(self.r, other)
        self._check_rank(other)
        terms = self._terms.copy()
        for exps, coeff in other._terms.items():
            new = terms.get(exps, 0) + coeff
            if new == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = new
        return self._wrap(self.r, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self.r, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.const(self.r, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                return type(self)(self.r, {})
            return self._wrap(
                self.r, {e: _norm_coeff(c * other) for e, c in self._terms.items()}
            )
        self._check_rank(other)
        a = self._packing or self._packed()
        b = other._packing or other._packed()
        if a[0] != b[0]:
            a, b = self._packed(b[0]), other._packed(a[0])
        width, keys1, nums1, den1 = a
        _, keys2, nums2, den2 = b
        acc = {}
        get = acc.get
        for k1, n1 in zip(keys1, nums1):
            for k2, n2 in zip(keys2, nums2):
                k = k1 + k2
                new = get(k, 0) + n1 * n2
                # a sum that cancels drops its key, so a later term of that
                # monomial goes to the end, as in the tuple-key product
                if new:
                    acc[k] = new
                else:
                    del acc[k]
        coeffs = _over(acc.values(), den1 * den2)
        return self._wrap(self.r, dict(zip(_unpack(acc, self.r, width), coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = type(self).const(self.r, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.const(self.r, other)
        return self.r == other.r and self.terms == other.terms

    def __hash__(self):
        return hash((self.r, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def evaluate(self, images, const):
        """The polynomial with each c_j replaced by ``images[j]`` (j >= 1;
        ``images[0]`` is not read), in any commutative ring.  ``const`` maps
        a coefficient to a ring element, as in ``exprs.evaluate``."""
        acc = const(0)
        for exps, coeff in self.terms.items():
            piece = const(coeff)
            for j, a in enumerate(exps, start=1):
                for _ in range(a):
                    piece = piece * images[j]
            acc = acc + piece
        return acc

    # -- grading -------------------------------------------------------

    def monomial_degree(self, exps):
        return sum(self._weight(i + 1) * a for i, a in enumerate(exps))

    def degree(self):
        """Largest weighted degree of a monomial; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.monomial_degree(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {self.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    def graded_part(self, k):
        return type(self)(
            self.r,
            {e: c for e, c in self.terms.items() if self.monomial_degree(e) == k},
        )

    # -- presentation ---------------------------------------------------

    def sorted_terms(self):
        """Terms in graded lexicographic order (degree, then exponents)."""
        return sorted(
            self.terms.items(), key=lambda item: (self.monomial_degree(item[0]), item[0])
        )

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{self._var}{i + 1}^{a}" if a > 1 else f"{self._var}{i + 1}"
                for i, a in enumerate(exps)
                if a
            ]
            mono = "*".join(factors)
            if not mono:
                pieces.append((coeff, str(coeff)))
                continue
            if coeff == 1:
                pieces.append((coeff, mono))
            elif coeff == -1:
                pieces.append((coeff, f"-{mono}"))
            else:
                pieces.append((coeff, f"{coeff}*{mono}"))
        out = pieces[0][1]
        for coeff, text in pieces[1:]:
            out += f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        return out

    def __repr__(self):
        return f"{type(self).__name__}(r={self.r}, {self})"

    def to_json(self):
        return {
            "rank": self.r,
            "terms": [
                {"coeff": str(Fraction(c)), self._exps_key: list(e)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["rank"],
            {tuple(t[cls._exps_key]): Fraction(t["coeff"]) for t in data["terms"]},
        )


def det_poly(rows, one, zero):
    """Determinant of a square matrix with commuting ring entries.

    Expansion along the first remaining row with memoized minors keyed on
    column subsets; fine for the sizes used here (k <= 8 or so).
    """
    if not rows:
        return one
    return _minor(rows, {}, one, zero, 0, (1 << len(rows)) - 1)


# the minor on rows row.. and columns cols; not a closure of det_poly: a recursive
# closure is a reference cycle, which keeps the memo until a cyclic collection
def _minor(rows, memo, one, zero, row, cols):
    if cols == 0:
        return one
    cached = memo.get(cols)
    if cached is not None:
        return cached
    total = zero
    sign = 1
    for j in range(len(rows)):
        bit = 1 << j
        if not cols & bit:
            continue
        entry = rows[row][j]
        if entry is not None and not entry.is_zero():
            sub = _minor(rows, memo, one, zero, row + 1, cols & ~bit)
            if not sub.is_zero():
                term = entry * sub
                total = total + term if sign > 0 else total - term
        sign = -sign
    memo[cols] = total
    return total


_SEGRE_CACHE = {}


def segre_polys(r, max_deg):
    """Segre polynomials s_0..s_max_deg of a rank-r bundle.

    Convention: the generating series s(t) is the formal inverse of the
    total Chern polynomial 1 + c_1 t + ... + c_r t^r, so s_0 = 1,
    s_1 = -c_1, s_2 = c_1^2 - c_2, and so on.
    """
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    cached = _SEGRE_CACHE.get(r, [])
    if len(cached) > max_deg:
        return cached[: max_deg + 1]
    segre = list(cached) or [ChernPoly.one(r)]
    for k in range(len(segre), max_deg + 1):
        acc = ChernPoly.zero(r)
        for i in range(1, min(k, r) + 1):
            acc = acc + ChernPoly.gen(r, i) * segre[k - i]
        segre.append(-acc)
    _SEGRE_CACHE[r] = segre
    return segre[: max_deg + 1]


def _chern_entry(r, idx):
    if idx == 0:
        return ChernPoly.one(r)
    if idx < 0 or idx > r:
        return None
    return ChernPoly.gen(r, idx)


_SCHUR_CACHE = {}


def schur(sigma, r):
    """Schur polynomial S_sigma as the Jacobi-Trudi determinant
    det(c_{sigma_i + j - i}) of size len(sigma), with c_0 = 1 and c_s = 0
    for s < 0 or s > r.

    Padding sigma with zero parts, to size |sigma| or any other, adds rows
    c_{j-i}: they are 0 left of the diagonal and 1 on it, so the padded
    matrix is block upper triangular with a unitriangular corner, and its
    determinant is this one."""
    sigma = Partition(sigma)
    key = (sigma.parts, r)
    cached = _SCHUR_CACHE.get(key)
    if cached is not None:
        return cached
    parts = sigma.parts
    size = len(parts)
    rows = [
        [_chern_entry(r, parts[i] + j - i) for j in range(size)] for i in range(size)
    ]
    result = det_poly(rows, ChernPoly.one(r), ChernPoly.zero(r))
    _SCHUR_CACHE[key] = result
    return result


_GEN_SCHUR_CACHE = {}


def gen_schur(sigma, r):
    """Generalized Schur polynomial det(s_{sigma_i + j - i}) for an
    arbitrary integer sequence, with s_0 = 1 and s_{<0} = 0.

    Homogeneous of weighted degree sum(sigma); identically zero whenever
    that total is negative (every determinant term then hits a negative
    Segre index).  The push-forward only evaluates it on partitions, after
    ``straighten``; on other sequences it is the reference that the
    straightening rule is tested against.
    """
    sigma = tuple(int(x) for x in sigma)
    key = (sigma, r)
    cached = _GEN_SCHUR_CACHE.get(key)
    if cached is not None:
        return cached
    k = len(sigma)
    if k == 0:
        result = ChernPoly.one(r)
    elif sum(sigma) < 0:
        result = ChernPoly.zero(r)
    else:
        top = max((sigma[i] + (k - 1) - i for i in range(k)), default=0)
        segre = segre_polys(r, max(top, 0))
        rows = []
        for i in range(k):
            row = []
            for j in range(k):
                idx = sigma[i] + j - i
                row.append(segre[idx] if 0 <= idx <= top else None)
            rows.append(row)
        result = det_poly(rows, ChernPoly.one(r), ChernPoly.zero(r))
    _GEN_SCHUR_CACHE[key] = result
    return result


def straighten(sigma):
    """Straighten an integer sequence for ``gen_schur``: returns
    (sign, partition) with gen_schur(sigma) == sign * gen_schur(partition),
    the partition a tuple without trailing zeros, or (0, ()) when
    gen_schur(sigma) vanishes.

    Row i of the determinant depends on sigma_i only through l_i =
    sigma_i - i, so the determinant is antisymmetric in the l_i
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3): it vanishes
    when two l_i coincide, and otherwise sorting the l_i decreasingly gives
    a weakly decreasing sequence whose last row is zero when its last entry
    is negative.  Trailing zero parts add unit diagonal blocks.
    """
    shifted = [x - i for i, x in enumerate(sigma)]
    if len(set(shifted)) < len(shifted):
        return 0, ()
    # sorting decreasingly is sorting the negated values increasingly
    sign = perm_sign(-x for x in shifted)
    parts = [x + i for i, x in enumerate(sorted(shifted, reverse=True))]
    while parts and parts[-1] == 0:
        parts.pop()
    if parts and parts[-1] < 0:
        return 0, ()
    return sign, tuple(parts)


class SchurVector:
    """Coordinates of a weighted-homogeneous polynomial in the basis of
    Schur polynomials {S_sigma : |sigma| = degree, parts <= rank}."""

    __slots__ = ("degree", "rank", "coords")

    def __init__(self, degree, rank, coords=None):
        self.degree = int(degree)
        self.rank = int(rank)
        self.coords = {}
        if coords:
            for sigma, coeff in coords.items():
                sigma = Partition(sigma)
                if sigma.weight() != self.degree:
                    raise ValueError(
                        f"partition {sigma.parts!r} has weight != degree {self.degree}"
                    )
                if sigma.parts and sigma.parts[0] > self.rank:
                    raise ValueError(
                        f"partition {sigma.parts!r} has a part exceeding rank {self.rank}"
                    )
                coeff = _norm_coeff(coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff))
                if coeff != 0:
                    self.coords[sigma] = coeff

    def reconstruct(self):
        acc = ChernPoly.zero(self.rank)
        for sigma, coeff in self.coords.items():
            acc = acc + schur(sigma, self.rank) * coeff
        return acc

    def __getitem__(self, sigma):
        return self.coords.get(Partition(sigma), 0)

    def __eq__(self, other):
        if not isinstance(other, SchurVector):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.rank == other.rank
            and self.coords == other.coords
        )

    def items(self):
        return sorted(self.coords.items(), key=lambda kv: kv[0].parts)

    def __repr__(self):
        inner = ", ".join(f"{s.parts}: {c}" for s, c in self.items())
        return f"SchurVector(deg={self.degree}, r={self.rank}, {{{inner}}})"

    def to_json(self):
        return {
            "degree": self.degree,
            "rank": self.rank,
            "coords": [
                {"partition": list(s.parts), "coeff": str(Fraction(c))}
                for s, c in self.items()
            ],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["degree"],
            data["rank"],
            {tuple(c["partition"]): Fraction(c["coeff"]) for c in data["coords"]},
        )


def schur_decompose(poly, k=None):
    """Exact coordinates of a weighted-homogeneous ChernPoly in the Schur
    basis of its degree; reconstruction is exact by construction.

    The basis is unitriangular against the monomials: with c^mu the
    product of the c_{mu_i}, S_sigma = c^sigma + sum a_mu c^mu over the
    partitions mu that strictly dominate sigma, the transition from the
    elementary symmetric functions to the Schur functions (Macdonald,
    Symmetric Functions and Hall Polynomials, I.6).  Lexicographic order
    refines dominance, so sweeping the partitions of k with parts <= r
    upwards in it, the coefficient of c^sigma left in the remainder is the
    coordinate of S_sigma, and subtracting that multiple of S_sigma clears
    it.  The remainder is kept as integer numerators over the input's
    common denominator: Schur polynomials have integer coefficients.
    """
    if not poly.is_homogeneous():
        raise ValueError("schur_decompose needs a weighted-homogeneous polynomial")
    if k is None:
        k = poly.degree()
        if k is None:
            raise ValueError("zero polynomial needs an explicit degree")
    elif poly.degree() not in (None, k):
        raise ValueError(f"polynomial has degree {poly.degree()}, expected {k}")
    r = poly.r
    nums, den = poly._numerators()
    rest = ChernPoly._wrap(r, dict(zip(poly.terms, nums)))
    coords = {}
    for sigma in reversed(list(partitions_of(k, max_part=r))):
        lead = rest.terms.get(tuple(sigma.parts.count(j) for j in range(1, r + 1)))
        if lead:
            coords[sigma] = lead
            rest = rest - schur(sigma, r) * lead
    if not rest.is_zero():
        raise ArithmeticError(f"Schur peeling left a remainder {rest}")
    return SchurVector(k, r, dict(zip(coords, _over(coords.values(), den))))
