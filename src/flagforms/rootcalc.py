"""Polynomials in the Chern roots xi_1..xi_r of the pulled-back dual bundle,
and expansion of Chern-class expressions of universal bundles into roots.

Root-block convention: the tautological sub-bundle of filtration index l has
total Chern class prod_{i > r - rho_l} (1 - xi_i), so the quotient
U_l / U_ell carries the root block r - rho_l < i <= r - rho_ell and its j-th
Chern class is the j-th elementary symmetric polynomial of the negated roots
in that block.  In particular, over the complete flag the successive
quotient U_{r-l+1}/U_{r-l} has first Chern class -xi_l.

An expression is expanded in two stages.  It is first evaluated in the
Chern classes of the successive quotients, its quotient form: by the
Whitney formula c_j(U_l/U_ell) is the sum over the ways to split j among
the blocks of the products of their Chern classes, so the quotient form is
one ChernPoly of rank r whose variable at root index block[k-1] stands for
c_k of that block.  The root terms are built from it only when they are
first read, by putting e_k of the block's negated roots for c_k.  The
push-forward reads the quotient form itself (``gysin.pushforward_dp``), so
an expansion that is only pushed never builds its root terms.
"""

from fractions import Fraction
from itertools import chain, combinations, permutations, product
from operator import itemgetter

from . import exprs
from .charpoly import ChernPoly
from .combinat import as_dimension_sequence, root_blocks


class RootPoly(ChernPoly):
    """Sparse polynomial in xi_1..xi_r; exponent tuples are plain degrees
    (no Chern weighting), coefficients exact rationals.

    ``_quotient`` is set only on an ``expand_expression`` result, to
    (rho, quotient form).  Such a polynomial holds no terms until they or
    their numerators are read; they are then built from the quotient form
    once, and it is symmetric in the blocks of rho.
    """

    __slots__ = ("_quotient",)
    _var, _exps_key = "xi", "xi_exps"

    @staticmethod
    def _weight(i):
        return 1

    @classmethod
    def _of_quotient(cls, rho, quotient):
        """The unbuilt root expansion of a quotient form over rho."""
        out = cls.__new__(cls)
        out.r = quotient.r
        out._terms = out._numer = None
        out._quotient = (rho.rho, quotient)
        return out

    def _build(self):
        """Build the root terms of an unbuilt expansion, c_k of a block
        becoming e_k of its negated roots."""
        if self._terms is None:
            rho, quotient = self._quotient
            r = self.r
            images = [None] * (r + 1)
            for block in root_blocks(rho):
                for k, i in enumerate(block, start=1):
                    images[i] = _elementary(r, block, k)
            built = quotient.evaluate(images, lambda q: RootPoly.const(r, q))
            self._terms, self._numer = built._terms, built._numer

    @property
    def terms(self):
        self._build()
        return super().terms

    def _numerators(self):
        self._build()
        return super()._numerators()

    def is_zero(self):
        if self._terms is None:
            # the e_k of the blocks are algebraically independent, so the
            # substitution maps only zero to zero
            return self._quotient[1].is_zero()
        return super().is_zero()


class UniversalBundleSpec:
    """A universal bundle U_{rho,l} / U_{rho,ell} selected by 0 <= ell < l <= m."""

    __slots__ = ("rho", "ell", "l")

    def __init__(self, rho, ell, l):
        self.rho = as_dimension_sequence(rho)
        self.ell = int(ell)
        self.l = int(l)
        if not 0 <= self.ell < self.l <= self.rho.m:
            raise ValueError(
                f"need 0 <= ell < l <= m={self.rho.m}, got ell={ell}, l={l}"
            )

    @property
    def rank(self):
        return self.rho[self.l] - self.rho[self.ell]

    def block(self):
        """1-based root indices i with r - rho_l < i <= r - rho_ell."""
        r = self.rho.r
        return tuple(range(r - self.rho[self.l] + 1, r - self.rho[self.ell] + 1))

    def sub_block(self):
        """1-based root indices of the sub-bundle U_ell (i > r - rho_ell)."""
        r = self.rho.r
        return tuple(range(r - self.rho[self.ell] + 1, r + 1))

    def __eq__(self, other):
        if not isinstance(other, UniversalBundleSpec):
            return NotImplemented
        return (self.rho, self.ell, self.l) == (other.rho, other.ell, other.l)

    def __hash__(self):
        return hash((self.rho, self.ell, self.l))

    def __repr__(self):
        return f"UniversalBundleSpec(rho={self.rho.rho}, ell={self.ell}, l={self.l})"


def _elementary(r, indices, j, negate=True):
    """e_j over {-xi_i : i in indices} (or {+xi_i} with negate=False)."""
    if j == 0:
        return RootPoly.one(r)
    if j > len(indices):
        return RootPoly.zero(r)
    sign = (-1) ** j if negate else 1
    terms = {}
    for combo in combinations(indices, j):
        exps = [0] * r
        for i in combo:
            exps[i - 1] = 1
        terms[tuple(exps)] = sign
    return RootPoly(r, terms)


def universal_chern_class(spec, j):
    """j-th Chern class of the universal bundle as a RootPoly."""
    if not 0 <= j <= spec.rank:
        raise ValueError(f"c_{j} out of range for bundle of rank {spec.rank}")
    return _elementary(spec.rho.r, spec.block(), j)


def universal_total_chern(spec):
    """Total Chern class prod over the root block of (1 - xi_i); graded
    components are recoverable via RootPoly.graded_part."""
    r = spec.rho.r
    acc = RootPoly.one(r)
    for i in spec.block():
        acc = acc * (RootPoly.one(r) - RootPoly.gen(r, i))
    return acc


def apply_permutation(poly, w):
    """Relabel variables by xi_i -> xi_{w(i)} (w a 1-based permutation tuple)."""
    # exponent k of the image is exponent w^-1(k) of the input; a
    # permutation maps distinct monomials to distinct monomials
    inverse = [0] * poly.r
    for i, image in enumerate(w):
        inverse[image - 1] = i
    terms = {tuple(map(e.__getitem__, inverse)): c for e, c in poly.terms.items()}
    return type(poly)._wrap(poly.r, terms)


def is_block_symmetric(poly, rho):
    """Whether the polynomial is invariant under permutations of the roots
    within each rho-block (checked on adjacent transpositions).

    A transposition maps the terms to themselves exactly when every term's
    swapped exponent carries the same coefficient, so each term is looked
    up once per transposition and the first mismatch ends the check.  The
    coefficients are compared as integer numerators over one common
    denominator.
    """
    nums, den = poly._numerators()
    terms = poly.terms if den == 1 else dict(zip(poly.terms, nums))
    for block in root_blocks(rho):
        for a, b in zip(block, block[1:]):
            i, j = a - 1, b - 1
            order = list(range(poly.r))
            order[i], order[j] = j, i
            swap = itemgetter(*order)
            for exps, coeff in terms.items():
                if exps[i] != exps[j] and terms.get(swap(exps)) != coeff:
                    return False
    return True


def block_symmetrize(poly, rho):
    """Average of the polynomial over the within-block permutation group."""
    rho = as_dimension_sequence(rho)
    acc = RootPoly.zero(rho.r)
    count = 0
    for w in product(*(permutations(b) for b in root_blocks(rho))):
        # the blocks run from the last roots to the first
        acc = acc + apply_permutation(poly, tuple(chain.from_iterable(reversed(w))))
        count += 1
    return acc * Fraction(1, count)


def _resolve_bundle(ref, rho):
    """Map a parsed bundle reference to a UniversalBundleSpec."""
    rho = as_dimension_sequence(rho)
    m = rho.m
    if ref.kind == "E":
        return UniversalBundleSpec(rho, 0, m)
    if ref.kind == "U":
        if not 1 <= ref.a <= m:
            raise ValueError(f"U{ref.a}: filtration index out of range 1..{m}")
        return UniversalBundleSpec(rho, 0, ref.a)
    if ref.kind == "UQ":
        if not 0 <= ref.b < ref.a <= m:
            raise ValueError(f"U{ref.a}/U{ref.b}: need 0 <= {ref.b} < {ref.a} <= {m}")
        return UniversalBundleSpec(rho, ref.b, ref.a)
    if ref.kind == "Q":
        if rho.rho != (0, ref.a, rho.r):
            raise ValueError(
                f"Q{ref.a} requires rho = (0, {ref.a}, r); got {rho.rho}"
            )
        return UniversalBundleSpec(rho, 1, 2)
    raise ValueError(f"unknown bundle reference {ref!r}")


def _resolve_symbol(j, ref, rho):
    """The UniversalBundleSpec of the Chern symbol c_j(ref); raises unless
    j is at most the bundle's rank."""
    spec = _resolve_bundle(ref, rho)
    if j > spec.rank:
        raise ValueError(f"c{j}({exprs.bundle_text(ref)}): rank of the bundle is {spec.rank}")
    return spec


def _quotient_chern_class(spec, j):
    """c_j of the universal bundle in the quotient form: by the Whitney
    formula, the sum over the ways to split j among the blocks it spans of
    the products of the blocks' Chern classes, as a ChernPoly of rank r
    whose variable at root index block[k-1] is c_k of that block."""
    r = spec.rho.r
    blocks = root_blocks(spec.rho)[spec.ell : spec.l]
    terms = {}
    for split in product(*(range(len(block) + 1) for block in blocks)):
        if sum(split) == j:
            exps = [0] * r
            for block, k in zip(blocks, split):
                if k:
                    exps[block[k - 1] - 1] = 1
            terms[tuple(exps)] = 1
    return ChernPoly(r, terms)


def expand_expression(expr, rho):
    """Expand a polynomial expression in Chern classes of universal bundles
    into a RootPoly; ring homomorphism on expressions.

    The expression is evaluated in its quotient form; the root terms are
    built from it when they are first read."""
    if isinstance(expr, str):
        expr = exprs.parse(expr)
    rho = as_dimension_sequence(rho)
    r = rho.r
    quotient = exprs.evaluate(
        expr,
        const=lambda q: ChernPoly.const(r, q),
        chern=lambda j, ref: _quotient_chern_class(_resolve_symbol(j, ref, rho), j),
    )
    return RootPoly._of_quotient(rho, quotient)
