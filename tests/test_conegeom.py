from fractions import Fraction

import pytest

from flagforms import conegeom
from flagforms.charpoly import SchurVector
from flagforms.conegeom import (
    builtin_families,
    cone_membership_2d,
    in_schur_cone,
    ray_hull_2d,
)


def test_in_schur_cone():
    ok, witness = in_schur_cone(SchurVector(3, 4, {(3,): 2, (2, 1): 4, (1, 1, 1): 1}))
    assert ok and witness == []
    ok, witness = in_schur_cone(SchurVector(2, 4, {(2,): 1, (1, 1): -1}))
    assert not ok and witness == [(1, 1)]
    ok, witness = in_schur_cone(SchurVector(2, 4, {}))
    assert ok


def test_builtin_families_present():
    fams = builtin_families()
    assert set(fams) == {
        "fcone-r3-proj",
        "fcone-r3-hyper",
        "fcone-r3-complete",
        "fcone-r2",
    }


def test_rank2_family_contains_axis_ray():
    fams = builtin_families()
    hull = ray_hull_2d(fams["fcone-r2"], denom=16)
    inside, margin = cone_membership_2d((0, 1), hull)
    assert inside
    # attained at b = 0, so the boundary passes through the axis
    assert margin == 0


def test_family_proj_b0_ray():
    fams = builtin_families()
    vec = fams["fcone-r3-proj"].coords((Fraction(1), Fraction(0)))
    assert vec == (2, 3)


def test_membership_scale_invariant():
    fams = builtin_families()
    hull = ray_hull_2d(fams["fcone-r3-proj"], denom=16)
    for target in [(5, 7), (1, 1), (3, 1)]:
        base = cone_membership_2d(target, hull)
        scaled = cone_membership_2d((9 * target[0], 9 * target[1]), hull)
        assert base == scaled


def test_hull_monotone_in_grid():
    fams = builtin_families()
    prev = None
    for denom in (4, 8, 16, 32):
        hull = ray_hull_2d(fams["fcone-r3-complete"], denom=denom)
        if prev is not None:
            # every previous boundary ray stays inside the finer hull
            for ray in (prev.lo, prev.hi):
                inside, _ = cone_membership_2d(ray, hull)
                assert inside
        prev = hull


def test_generator_membership_zero_margin():
    fams = builtin_families()
    hull = ray_hull_2d(fams["fcone-r3-proj"], denom=8)
    inside, margin = cone_membership_2d(hull.lo, hull)
    assert inside and margin == 0


def test_c2_outside_merged_hull():
    fams = builtin_families()
    merged = ray_hull_2d(
        [fams["fcone-r3-proj"], fams["fcone-r3-hyper"], fams["fcone-r3-complete"]],
        denom=32,
    )
    inside, margin = cone_membership_2d((1, 0), merged)
    assert not inside and margin < 0


def test_zero_target_rejected():
    fams = builtin_families()
    hull = ray_hull_2d(fams["fcone-r2"], denom=8)
    with pytest.raises(ValueError):
        cone_membership_2d((0, 0), hull)


def test_all_zero_family_rejected():
    from flagforms.conegeom import RayFamily2D

    fam = RayFamily2D("null", 2, lambda p: (0 * p[0], 0 * p[1]), lambda p: True)
    with pytest.raises(ValueError):
        ray_hull_2d(fam, denom=4)


def fraction_grid(nparams, denom):
    """The rational points on the slice a + b (+ c) = 1 with denominators
    <= denom, in the order of the integer grid."""
    if nparams == 2:
        for i in range(0, denom + 1):
            b = Fraction(i, denom)
            yield (1 - b, b)
    else:
        for i in range(0, denom + 1):
            for j in range(0, i + 1):
                b, c = Fraction(i, denom), Fraction(j, denom)
                yield (1 - b - c, b, c)


def _hull_or_error(family, denom):
    try:
        hull = ray_hull_2d(family, denom=denom)
    except ValueError as exc:
        return str(exc)
    return hull.lo, hull.hi, hull.rays, hull.denom


def test_integer_grid_hulls_equal_the_fraction_grid_hulls(monkeypatch):
    fams = builtin_families()
    cases = [(fam, denom) for fam in fams.values() for denom in range(1, 65)]
    fast = [_hull_or_error(fam, denom) for fam, denom in cases]
    monkeypatch.setattr(conegeom, "_simplex_grid", fraction_grid)
    for (fam, denom), got in zip(cases, fast):
        assert got == _hull_or_error(fam, denom), (fam.name, denom)
