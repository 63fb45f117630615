"""Schur-cone membership and exact two-dimensional cone comparisons.

The 2D machinery compares rays in the plane of Schur coordinates
[S_(2,0), S_(1,1)] (or any other fixed 2D slice).  All evaluations are
exact over the rationals and angles are ordered by cross-product sign; no
trigonometry or floating point is involved.  A sampled hull is an inner
approximation of the true cone, so non-membership of a target is reported
as "not in the sampled hull, with margin m", not as a certificate.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd


@dataclass(frozen=True)
class RayFamily2D:
    """A parametric family of rays in the plane.

    ``coords`` maps a tuple of exact numbers (the ordered parameters) to
    an exact coordinate pair; ``domain`` is the parameter-domain predicate,
    e.g. a > b >= 0.  Coordinate polynomials are homogeneous in the
    parameters and domains are cones, so sampling the integer points of a
    scaled simplex slice sees every ray.
    """

    name: str
    nparams: int
    coords: object  # Callable[tuple[int | Fraction, ...]] -> (number, number)
    domain: object  # Callable[tuple[int | Fraction, ...]] -> bool
    description: str = ""


def builtin_families():
    """The shipped ray families, keyed by their dataset names.

    The three rank-3 families give the Schur coordinates in the basis
    [S_(2,0) = c2, S_(1,1) = c1^2 - c2] of the degree-2 push-forwards of
    products of first Chern forms of universal quotient line bundles for
    the flag types (0,1,3), (0,2,3) and (0,1,2,3); the rank-2 family is the
    analogous (2,2)-slice for rho = (0,1,2).
    """

    def proj(p):
        a, b = p
        return (
            2 * a * (a**3 - 3 * a * b**2 + 2 * b**3),
            3 * a**4 - 4 * a**3 * b + b**4,
        )

    def hyper(p):
        a, b = p
        return (
            2 * b * (2 * a**3 - 3 * a**2 * b + b**3),
            a**4 - 4 * a * b**3 + 3 * b**4,
        )

    def complete(p):
        a, b, c = p
        return (
            10 * (a**2 * b**2 * (a - b) - a**2 * c**2 * (a - c) + b**2 * c**2 * (b - c)),
            5 * (a * b * (a**3 - b**3) - a * c * (a**3 - c**3) + b * c * (b**3 - c**3)),
        )

    def rank2(p):
        a, b = p
        return (3 * a * b * (a - b), a**3 - b**3)

    def dom2(p):
        a, b = p
        return a > b >= 0

    def dom3(p):
        a, b, c = p
        return a > b > c >= 0

    return {
        "fcone-r3-proj": RayFamily2D("fcone-r3-proj", 2, proj, dom2),
        "fcone-r3-hyper": RayFamily2D("fcone-r3-hyper", 2, hyper, dom2),
        "fcone-r3-complete": RayFamily2D("fcone-r3-complete", 3, complete, dom3),
        "fcone-r2": RayFamily2D("fcone-r2", 2, rank2, dom2),
    }


def in_schur_cone(vec):
    """Whether every Schur coordinate is >= 0; the witness lists the
    negative partitions."""
    witnesses = [sigma.parts for sigma, coeff in vec.items() if coeff < 0]
    return (not witnesses), witnesses


def _primitive(ray):
    """Scale an exact rational ray to a primitive integer vector; a pair of
    ints only divides by its gcd."""
    if type(ray[0]) is int and type(ray[1]) is int:
        ix, iy = ray
        if ix == 0 and iy == 0:
            raise ValueError("zero ray")
        g = gcd(ix, iy)
        return (ix // g, iy // g)
    x, y = Fraction(ray[0]), Fraction(ray[1])
    if x == 0 and y == 0:
        raise ValueError("zero ray")
    scale = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    ix, iy = int(x * scale), int(y * scale)
    g = gcd(abs(ix), abs(iy))
    return (ix // g, iy // g)


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _in_right_upper_half(ray):
    x, y = ray
    return x > 0 or (x == 0 and y > 0)


def _simplex_grid(nparams, denom):
    """Integer points on the slice a + b (+ c) = denom: the homogeneous
    coordinates of the rational slice a + b (+ c) = 1 with denominators
    <= denom, ordered as that slice."""
    if nparams == 2:
        for i in range(0, denom + 1):
            yield (denom - i, i)
    elif nparams == 3:
        for i in range(0, denom + 1):
            for j in range(0, i + 1):
                yield (denom - i - j, i, j)
    else:
        raise ValueError(f"unsupported parameter count {nparams}")


@dataclass
class RayHull:
    """Closed angular interval [lo, hi] of sampled rays (all in the closed
    right-upper half plane, spread under pi), plus the sample inventory."""

    lo: tuple
    hi: tuple
    rays: list
    denom: int

    def contains(self, target):
        """Exact membership of a ray in the sampled hull, with the signed
        cross-product margin to the nearest boundary ray (computed on
        L1-normalized vectors; positive inside)."""
        t = _primitive(target)
        if not _in_right_upper_half(t) and not _in_right_upper_half((-t[0], -t[1])):
            raise ValueError("zero target")
        lo_m = _normalized_cross(self.lo, t)
        hi_m = _normalized_cross(t, self.hi)
        margin = min(lo_m, hi_m)
        return (lo_m >= 0 and hi_m >= 0), margin


def _normalized_cross(u, v):
    nu = abs(u[0]) + abs(u[1])
    nv = abs(v[0]) + abs(v[1])
    return Fraction(_cross(u, v), nu * nv)


def ray_hull_2d(families, denom=64):
    """Sampled convex-cone hull of one or more ray families.

    Each family is evaluated exactly on the rational simplex slice with the
    given denominator; zero samples are dropped.  Families merge by taking
    the hull of the union of their rays.  Raises if every sample is zero or
    if the rays do not fit in the right-upper half plane (the shipped
    families always do).
    """
    if isinstance(families, RayFamily2D):
        families = [families]
    rays = set()
    for fam in families:
        for params in _simplex_grid(fam.nparams, denom):
            if not fam.domain(params):
                continue
            vec = fam.coords(params)
            if vec[0] == 0 and vec[1] == 0:
                continue
            rays.add(_primitive(vec))
    if not rays:
        raise ValueError("all sampled rays are zero")
    for ray in rays:
        if not _in_right_upper_half(ray):
            raise ValueError(f"sampled ray {ray} leaves the right-upper half plane")
    # counterclockwise: v follows u when their cross product is positive;
    # distinct primitive rays in the half plane have distinct angles
    ordered = sorted(rays, key=cmp_to_key(lambda u, v: -_cross(u, v)))
    return RayHull(lo=ordered[0], hi=ordered[-1], rays=ordered, denom=denom)


def cone_membership_2d(target, hull):
    """Membership of an exact 2-vector's ray in a sampled hull; returns
    (inside, margin) with the margin exact."""
    return hull.contains(target)
