"""Property tests of the exterior algebra, of the exact polynomial ring and
its push-forward, of ChernPoly evaluation, of the batched exact curvature
and of the expression parser.

Form coefficients are small Gaussian integers, so every product and sum is
exact in floating point and the laws can be checked with equality.  The
profile is derandomized: the examples are the same on every run.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flagforms import exprs, flagnum, gysin
from flagforms.charpoly import ChernPoly, SchurVector, schur_decompose
from flagforms.combinat import (
    bitmask,
    complete_sequence,
    dimension_sequences,
    nu_from_rho,
    partitions_of,
    perm_sign,
    root_blocks,
)
from flagforms.formlab import ExtForm, GeneratorSpace, griffiths_sample
from flagforms.gysin import pushforward_dp
from flagforms.rootcalc import (
    RootPoly,
    UniversalBundleSpec,
    apply_permutation,
    block_symmetrize,
    universal_chern_class,
)

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

N_GEN = 4
SAMPLES = 3
SPACE = GeneratorSpace.base(N_GEN)

small = st.integers(-3, 3)


@st.composite
def coefficients(draw, batched):
    """A Gaussian integer, or with ``batched`` possibly one per sample."""
    if batched and draw(st.booleans()):
        return np.array([complex(draw(small), draw(small)) for _ in range(SAMPLES)])
    return complex(draw(small), draw(small))


@st.composite
def forms(draw, batched, degree=None):
    """A form with up to four terms; all of total degree ``degree`` when
    given, of mixed degrees otherwise."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        total = draw(st.integers(0, 4)) if degree is None else degree
        p = draw(st.integers(max(0, total - N_GEN), min(total, N_GEN)))
        gens = st.integers(0, N_GEN - 1)
        holo = draw(st.lists(gens, min_size=p, max_size=p, unique=True))
        anti = draw(st.lists(gens, min_size=total - p, max_size=total - p, unique=True))
        terms[(bitmask(holo), bitmask(anti))] = draw(coefficients(batched))
    return ExtForm(SPACE, terms)


def _per_sample(form):
    """Coefficients as arrays of one value per sample, numbers broadcast."""
    return {key: np.broadcast_to(v, (SAMPLES,)) for key, v in form.terms.items()}


def assert_same(f, g):
    fv, gv = _per_sample(f), _per_sample(g)
    assert fv.keys() == gv.keys()
    for key in fv:
        assert np.array_equal(fv[key], gv[key]), key


def at_sample(form, i):
    return ExtForm(SPACE, {k: v[i] if np.ndim(v) else v for k, v in form.terms.items()})


@DERANDOMIZED
@given(st.booleans(), st.data())
def test_wedge_is_associative(batched, data):
    a, b, c = (data.draw(forms(batched)) for _ in range(3))
    assert_same((a * b) * c, a * (b * c))


@DERANDOMIZED
@given(st.booleans(), st.integers(0, 3), st.integers(0, 3), st.data())
def test_wedge_is_graded_commutative(batched, da, db, data):
    a = data.draw(forms(batched, da))
    b = data.draw(forms(batched, db))
    assert_same(a * b, (b * a) * (-1) ** (da * db))


def reference_wedge(a, b):
    """The wedge with the bit counts and merge signs recomputed for every
    pair of terms, nothing memoized."""

    def merge_sign(x, y):
        sign = 1
        while y:
            low = (y & -y).bit_length() - 1
            if (x >> (low + 1)).bit_count() & 1:
                sign = -sign
            y &= y - 1
        return sign

    terms = {}
    for (s1, t1), c1 in a.terms.items():
        for (s2, t2), c2 in b.terms.items():
            if s1 & s2 or t1 & t2:
                continue
            sign = merge_sign(s1, s2) * merge_sign(t1, t2) * (-1) ** (t1.bit_count() * s2.bit_count())
            key = (s1 | s2, t1 | t2)
            piece = c1 * c2
            if key in terms:
                terms[key] = terms[key] + piece if sign > 0 else terms[key] - piece
            else:
                terms[key] = piece if sign > 0 else -piece
    return ExtForm(a.space, terms)


@DERANDOMIZED
@given(st.booleans(), st.data())
def test_memoized_wedge_equals_the_unmemoized_reference(batched, data):
    a, b = data.draw(forms(batched)), data.draw(forms(batched))
    got, want = a * b, reference_wedge(a, b)
    assert list(got.terms) == list(want.terms)
    assert_same(got, want)


@DERANDOMIZED
@given(st.data())
def test_batched_wedge_is_the_wedge_of_each_sample(data):
    a, b = data.draw(forms(True)), data.draw(forms(True))
    product = a * b + a
    for i in range(SAMPLES):
        assert at_sample(product, i) == at_sample(a, i) * at_sample(b, i) + at_sample(a, i)


@st.composite
def chern_polys(draw):
    r = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 2)] * r)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return ChernPoly(r, draw(st.dictionaries(exps, coeffs, max_size=5)))


@DERANDOMIZED
@given(chern_polys())
def test_chern_poly_evaluated_at_its_variables_is_itself(p):
    r = p.r
    images = [None] + [ChernPoly.gen(r, j) for j in range(1, r + 1)]
    assert p.evaluate(images, lambda q: ChernPoly.const(r, q)) == p


@DERANDOMIZED
@given(chern_polys(), st.integers(-2, 2))
def test_chern_poly_evaluated_at_constants_is_a_number(p, x):
    # c_j -> x^j, in the ring of rationals
    images = [None] + [Fraction(x) ** j for j in range(1, p.r + 1)]
    expected = sum(
        (c * Fraction(x) ** sum(j * a for j, a in enumerate(e, start=1)) for e, c in p.terms.items()),
        Fraction(0),
    )
    assert p.evaluate(images, Fraction) == expected


def reference_product(p, q):
    """The terms of p * q, one pair of exponent tuples at a time: a sum that
    cancels drops its key, so a later term of that monomial goes to the
    end, and an integral coefficient is an int."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            new = terms.get(e, 0) + c1 * c2
            if new == 0:
                terms.pop(e, None)
            else:
                terms[e] = new
    return {e: int(c) if Fraction(c).denominator == 1 else c for e, c in terms.items()}


#: small exponents, whose monomials collide, and large ones up to past 2**63
EXPONENTS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([127, 128, 255, 256, 32767, 32768, 2**31 - 1, 2**31, 2**63 - 1, 2**63]),
)
RING_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def ring_polys(draw, cls, r, exponents=EXPONENTS):
    exps = st.tuples(*[exponents] * r)
    return cls(r, draw(st.dictionaries(exps, RING_COEFFS, max_size=5)))


@st.composite
def ring_pairs(draw):
    """Two polynomials of one class and rank.  The second one is often the
    first with some signs flipped, so that cross terms cancel."""
    cls = draw(st.sampled_from([ChernPoly, RootPoly]))
    r = draw(st.integers(1, 3))
    p = draw(ring_polys(cls, r))
    if draw(st.booleans()):
        flips = draw(st.lists(st.sampled_from([1, -1]), min_size=len(p.terms), max_size=len(p.terms)))
        return p, cls(r, {e: c * f for (e, c), f in zip(p.terms.items(), flips)})
    return p, draw(ring_polys(cls, r))


@DERANDOMIZED
@given(ring_pairs())
def test_product_equals_the_tuple_key_product_in_order(pair):
    p, q = pair
    product = p * q
    assert type(product) is type(p)
    assert list(product.terms.items()) == list(reference_product(p, q).items())
    # the result is itself an operand, with exponents up to twice as large
    assert list((product * q).terms.items()) == list(reference_product(product, q).items())
    assert list((product * product).terms.items()) == list(reference_product(product, product).items())


def test_product_of_cancelling_factors_keeps_the_reference_order():
    x, y, z = (RootPoly.gen(3, j) for j in (1, 2, 3))
    p = x * Fraction(1, 2) + y * 3 + z
    q = x * Fraction(1, 2) - y * 3 + z * Fraction(-1, 5)
    assert list((p * q).terms.items()) == list(reference_product(p, q).items())
    assert (p - p) * q == RootPoly.zero(3)
    assert (x + y) * (x - y) == x * x - y * y


@DERANDOMIZED
@given(st.data())
def test_product_is_a_commutative_ring_law(data):
    cls = data.draw(st.sampled_from([ChernPoly, RootPoly]))
    r = data.draw(st.integers(1, 3))
    p, q, s = (data.draw(ring_polys(cls, r)) for _ in range(3))
    assert p * q == q * p
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s


FLAG_TYPES = [rho for r in (2, 3, 4) for rho in dimension_sequences(r, min_steps=2)]
SMALL_EXPS = st.integers(0, 2)


@DERANDOMIZED
@given(st.sampled_from(FLAG_TYPES), st.data())
def test_pushforward_is_linear(rho, data):
    r = rho.r
    F, G = (block_symmetrize(data.draw(ring_polys(RootPoly, r, SMALL_EXPS)), rho) for _ in range(2))
    a, b = data.draw(RING_COEFFS), data.draw(RING_COEFFS)
    assert pushforward_dp(F * a + G * b, rho) == pushforward_dp(F, rho) * a + pushforward_dp(G, rho) * b


@DERANDOMIZED
@given(st.sampled_from(FLAG_TYPES), st.integers(0, 3), st.data())
def test_pushforward_obeys_the_projection_formula(rho, p, data):
    # c1(E) is pulled back from the base: pi_*(c1(E)^p F) = c1^p pi_*(F);
    # block symmetrizing makes the coefficients of F fractions
    F = block_symmetrize(data.draw(ring_polys(RootPoly, rho.r, SMALL_EXPS)), rho)
    c1 = universal_chern_class(UniversalBundleSpec(rho, 0, rho.m), 1)
    assert pushforward_dp(c1**p * F, rho) == ChernPoly.gen(rho.r, 1) ** p * pushforward_dp(F, rho)


def block_divided_differences(F, rho):
    """The push from the complete flag bundle to the rho-flag bundle, up to
    a sign: F antisymmetrized over the permutations within each root block
    and divided, exactly, by the within-block Vandermonde."""
    r = rho.r
    # in increasing order the blocks list 1..r, so the images of a block
    # permutation, concatenated, are its one-line notation
    blocks = sorted(root_blocks(rho))
    acc = RootPoly.zero(r)
    for perms in product(*map(permutations, blocks)):
        w = [image for perm in perms for image in perm]
        acc = acc + apply_permutation(F, tuple(w)) * perm_sign(w)
    for block in blocks:
        for i, j in combinations(block, 2):
            acc = gysin._divide_linear(acc, i, j)
    return acc


@lru_cache(maxsize=None)
def functoriality_sign(rho):
    """The sign of the two-step push on xi^nu of the complete flag, whose
    push from the complete flag bundle is 1; calibrated once per rho, as
    the Weyl oracle calibrates its own."""
    r = rho.r
    reference = RootPoly(r, {nu_from_rho(complete_sequence(r)): 1})
    pushed = pushforward_dp(block_divided_differences(reference, rho), rho)
    assert pushed in (ChernPoly.one(r), -ChernPoly.one(r)), (rho, pushed)
    return 1 if pushed == ChernPoly.one(r) else -1


@DERANDOMIZED
@given(st.sampled_from(FLAG_TYPES), st.data())
def test_pushforward_from_the_complete_flag_factors_through_rho(rho, data):
    # Fl(E) -> Fl_rho(E) -> base: the first push is the block divided
    # differences, the second the determinantal rule at rho
    r = rho.r
    F = data.draw(ring_polys(RootPoly, r, st.integers(0, r)))
    two_step = pushforward_dp(block_divided_differences(F, rho), rho)
    assert pushforward_dp(F, complete_sequence(r)) == two_step * functoriality_sign(rho)


def _monomial(sigma, r):
    """The exponents of c^sigma, the product of the c_{sigma_i}."""
    exps = [0] * r
    for part in sigma.parts:
        exps[part - 1] += 1
    return tuple(exps)


@DERANDOMIZED
@given(st.integers(1, 4), st.integers(0, 7), st.data())
def test_schur_decompose_round_trips(r, k, data):
    basis = list(partitions_of(k, max_part=r))
    v = SchurVector(k, r, data.draw(st.dictionaries(st.sampled_from(basis), RING_COEFFS, max_size=4)))
    assert schur_decompose(v.reconstruct(), k) == v
    monomials = st.sampled_from([_monomial(sigma, r) for sigma in basis])
    p = ChernPoly(r, data.draw(st.dictionaries(monomials, RING_COEFFS, max_size=5)))
    assert schur_decompose(p, k).reconstruct() == p


BUNDLES = [
    UniversalBundleSpec(rho, ell, l)
    for r in (2, 3, 4)
    for rho in dimension_sequences(r, min_steps=2)
    for ell in range(rho.m)
    for l in range(ell + 1, rho.m + 1)
]


@DERANDOMIZED
@given(st.sampled_from(BUNDLES), st.integers(1, 2), st.integers(1, 4), st.data())
def test_exact_curvature_of_a_batch_is_that_of_each_point(spec, n, count, data):
    # the samples-last route must keep samples apart: the coefficients of
    # a batch equal those of each point on its own
    d = flagnum.chart_for(spec, n).d
    zeta = np.array([[complex(data.draw(small), data.draw(small)) for _ in range(d)] for _ in range(count)])
    C = griffiths_sample(n, spec.rho.r, terms=2, seed=data.draw(st.integers(0, 99)))
    batch = flagnum._exact_coeffs(spec, C, zeta)
    for i in range(count):
        point = flagnum._exact_coeffs(spec, C, zeta[i])
        assert batch[0].keys() == point[0].keys()
        for key in point[0]:
            assert np.array_equal(batch[0][key][..., i], point[0][key]), key
        assert np.array_equal(batch[1][..., i], point[1])


# -- the expression parser -----------------------------------------------------

nats = st.integers(0, 12)
bundle_refs = st.one_of(
    st.just(exprs.BundleRef("E")),
    st.builds(exprs.BundleRef, st.just("U"), nats),
    st.builds(exprs.BundleRef, st.just("UQ"), nats, nats),
    st.builds(exprs.BundleRef, st.just("Q"), nats),
)


@st.composite
def expressions(draw, depth=3):
    """An expression tree of the shapes that the parser builds: a sum of two
    or three items whose first is added, a product of two or three factors
    none of which is a product, and a power of anything but a power."""
    kind = draw(st.integers(0, 4 if depth else 1))
    if kind == 0:
        return exprs.Lit(Fraction(draw(st.integers(0, 50)), draw(st.integers(1, 12))))
    if kind == 1:
        return exprs.ChernSym(draw(nats), draw(bundle_refs))
    count = draw(st.integers(2, 3)) if kind < 4 else 1
    children = [draw(expressions(depth - 1)) for _ in range(count)]
    if kind == 2:
        signs = [1] + [draw(st.sampled_from([1, -1])) for _ in children[1:]]
        return exprs.Sum(tuple(zip(signs, children)))
    if kind == 3:
        return exprs.Product(
            tuple(exprs.Power(c, 1) if isinstance(c, exprs.Product) else c for c in children)
        )
    (base,) = children
    return exprs.Power(base.base if isinstance(base, exprs.Power) else base, draw(nats))


@DERANDOMIZED
@given(expressions())
def test_parse_inverts_to_text(node):
    text = exprs.to_text(node)
    assert exprs.parse(text) == node
    assert exprs.to_text(exprs.parse(text)) == text
