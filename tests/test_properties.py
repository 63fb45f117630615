"""Property tests of the exterior algebra and of ChernPoly evaluation.

Coefficients are small Gaussian integers, so every product and sum is
exact in floating point and the laws can be checked with equality.  The
profile is derandomized: the examples are the same on every run.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flagforms.charpoly import ChernPoly
from flagforms.combinat import bitmask
from flagforms.formlab import ExtForm, GeneratorSpace

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
