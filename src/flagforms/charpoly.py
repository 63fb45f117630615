"""Exact polynomial ring in the Chern variables c_1..c_r, Segre and
(generalized) Schur polynomials, and decomposition in the Schur basis.

Coefficients are exact rationals throughout (Python int / Fraction); no
floating point enters this module.  Monomials are keyed by exponent tuples
(a_1, ..., a_r) and the weighted degree of c_1^{a_1}...c_r^{a_r} is
sum(i * a_i).  The stored order for serialization is graded lexicographic.
"""

from fractions import Fraction

from .combinat import Partition, partitions_of, perm_sign


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

    ``terms`` maps exponent tuples of length ``r`` to nonzero coefficients,
    e.g. for r = 3 the polynomial c_1^3 + 2 c_1 c_2 - c_3 is stored as
    {(3,0,0): 1, (1,1,0): 2, (0,0,1): -1}.
    """

    __slots__ = ("r", "terms")

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
        self.terms = clean

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
            raise ValueError(f"c_{j} is not a variable for rank {r}")
        exps = [0] * r
        exps[j - 1] = 1
        return cls(r, {tuple(exps): 1})

    # -- ring operations ----------------------------------------------

    def _check_rank(self, other):
        if self.r != other.r:
            raise ValueError(f"rank mismatch: {self.r} vs {other.r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self).const(self.r, other)
        if type(other) is not type(self):
            return NotImplemented
        self._check_rank(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = terms.get(exps, 0) + coeff
            if new == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = new
        out = type(self).__new__(type(self))
        out.r = self.r
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = type(self).__new__(type(self))
        out.r = self.r
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self).const(self.r, other)
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return type(self)(self.r, {})
            out = type(self).__new__(type(self))
            out.r = self.r
            out.terms = {e: _norm_coeff(c * other) for e, c in self.terms.items()}
            return out
        if type(other) is not type(self):
            return NotImplemented
        self._check_rank(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(e, 0) + c1 * c2
                if new == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = new
        out = type(self).__new__(type(self))
        out.r = self.r
        out.terms = terms
        return out

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
        if isinstance(other, (int, Fraction)):
            other = type(self).const(self.r, other)
        if type(other) is not type(self):
            return NotImplemented
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

    def _varname(self, j):
        return f"c{j}"

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{self._varname(i + 1)}^{a}" if a > 1 else self._varname(i + 1)
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
                {"coeff": str(Fraction(c)), "exps": list(e)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["rank"],
            {tuple(t["exps"]): Fraction(t["coeff"]) for t in data["terms"]},
        )


def det_poly(rows, one, zero):
    """Determinant of a square matrix with commuting ring entries.

    Expansion along the first remaining row with memoized minors keyed on
    column subsets; fine for the sizes used here (k <= 8 or so).
    """
    k = len(rows)
    if k == 0:
        return one
    full = (1 << k) - 1
    memo = {}

    def minor(row, cols):
        if cols == 0:
            return one
        key = cols
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = zero
        sign = 1
        for j in range(k):
            bit = 1 << j
            if not cols & bit:
                continue
            entry = rows[row][j]
            if entry is not None and not (hasattr(entry, "is_zero") and entry.is_zero()):
                sub = minor(row + 1, cols & ~bit)
                term = entry * sub
                total = total + term if sign > 0 else total - term
            sign = -sign
        memo[key] = total
        return total

    return minor(0, full)


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
    det(c_{sigma_i + j - i}) of size |sigma|, with c_0 = 1 and c_s = 0
    for s < 0 or s > r."""
    sigma = Partition(sigma)
    key = (sigma.parts, r)
    cached = _SCHUR_CACHE.get(key)
    if cached is not None:
        return cached
    k = sigma.weight()
    if k == 0:
        result = ChernPoly.one(r)
    else:
        parts = sigma.padded(k)
        rows = [
            [_chern_entry(r, parts[i] + j - i) for j in range(k)] for i in range(k)
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


def _monomials_of_degree(r, k):
    """Exponent tuples of weighted degree k, in graded-lex order."""
    out = []

    def rec(pos, remaining, acc):
        if pos == r:
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = pos + 1
        for a in range(remaining // w, -1, -1):
            acc.append(a)
            rec(pos + 1, remaining - w * a, acc)
            acc.pop()

    rec(0, k, [])
    return sorted(out)


def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; raises on singular input."""
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular transition matrix in Schur basis solve")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[-1] for row in aug]


def schur_decompose(poly, k=None):
    """Exact coordinates of a weighted-homogeneous ChernPoly in the Schur
    basis of its degree; reconstruction is exact by construction."""
    if not poly.is_homogeneous():
        raise ValueError("schur_decompose needs a weighted-homogeneous polynomial")
    if k is None:
        k = poly.degree()
        if k is None:
            raise ValueError("zero polynomial needs an explicit degree")
    elif poly.degree() not in (None, k):
        raise ValueError(f"polynomial has degree {poly.degree()}, expected {k}")
    r = poly.r
    basis = list(partitions_of(k, max_part=r))
    monomials = _monomials_of_degree(r, k)
    index = {m: i for i, m in enumerate(monomials)}
    if len(basis) != len(monomials):
        raise ArithmeticError(
            f"Schur basis size {len(basis)} != monomial count {len(monomials)}"
        )
    cols = []
    for sigma in basis:
        s = schur(sigma, r)
        col = [0] * len(monomials)
        for exps, coeff in s.terms.items():
            col[index[exps]] = coeff
        cols.append(col)
    matrix = [[cols[j][i] for j in range(len(basis))] for i in range(len(monomials))]
    rhs = [0] * len(monomials)
    for exps, coeff in poly.terms.items():
        rhs[index[exps]] = coeff
    solution = _solve_exact(matrix, rhs)
    return SchurVector(k, r, dict(zip(basis, solution)))
