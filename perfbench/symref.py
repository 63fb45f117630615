"""Reference routes in sympy, independent of the flagforms code under test.

* ``expand``: a Chern-class expression of universal bundles as a
  polynomial in the roots x_1..x_r, with c_j(U_l/U_ell) the j-th elementary
  symmetric polynomial of the negated roots x_i, r - rho_l < i <= r - rho_ell.
* ``weyl_push``: the push-forward by Weyl symmetrization, sum over coset
  representatives w of sgn(w) w(F * Delta_within) / Delta, rewritten in
  c_j = e_j(-x).  Its one global sign per flag type is fixed by pushing
  x^nu, the monomial whose push is 1.
* ``jacobi_trudi``: S_sigma = det(c_{sigma_i + j - i}) of size len(sigma).
"""

import re
from functools import lru_cache
from itertools import combinations, permutations

import sympy
from sympy.polys.polyfuncs import symmetrize

_CHERN = re.compile(r"c(\d+)\(\s*(E|U\d+/U\d+|U\d+|Q\d+)\s*\)")


def roots(r):
    return sympy.symbols(f"x1:{r + 1}")


def cvars(r):
    return sympy.symbols(f"c1:{r + 1}")


def _block(bundle, rho):
    """0-based root indices of a bundle U_l/U_ell."""
    r, m = rho[-1], len(rho) - 1
    if bundle == "E":
        ell, l = 0, m
    elif bundle.startswith("Q"):
        ell, l = 1, 2
    elif "/" in bundle:
        a, b = bundle.split("/")
        ell, l = int(b[1:]), int(a[1:])
    else:
        ell, l = 0, int(bundle[1:])
    return range(r - rho[l], r - rho[ell])


def _elementary(values, j):
    return sympy.Add(*[sympy.Mul(*c) for c in combinations(values, j)])


def expand(text, rho):
    """The expression as an expanded sympy polynomial in the roots."""
    x = roots(rho[-1])
    names = {}

    def chern(match):
        j, bundle = int(match.group(1)), match.group(2)
        name = f"C{len(names)}"
        names[name] = _elementary([-x[i] for i in _block(bundle, rho)], j)
        return name

    body = _CHERN.sub(chern, text).replace("^", "**")
    return sympy.expand(sympy.sympify(body, locals=names))


def _blocks(rho):
    r = rho[-1]
    return [list(range(r - rho[l], r - rho[l - 1])) for l in range(len(rho) - 1, 0, -1)]


def _coset_reps(rho):
    """Permutations of the roots, as index tuples, increasing on each block."""
    r = rho[-1]
    blocks = _blocks(rho)
    for perm in permutations(range(r)):
        if all(perm[a] < perm[b] for blk in blocks for a, b in zip(blk, blk[1:])):
            yield perm


def _sign(perm):
    inv = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def _raw_push(F, rho):
    r = rho[-1]
    x = roots(r)
    within = sympy.Mul(*[x[i] - x[j] for blk in _blocks(rho) for i, j in combinations(blk, 2)])
    G = sympy.expand(F * within)
    num = 0
    for perm in _coset_reps(rho):
        num += _sign(perm) * G.xreplace({x[i]: x[perm[i]] for i in range(r)})
    vandermonde = sympy.Mul(*[x[i] - x[j] for i, j in combinations(range(r), 2)])
    quotient = sympy.cancel(sympy.expand(num) / vandermonde)
    if quotient == 0:
        return sympy.Integer(0)
    sym, rest, mapping = symmetrize(sympy.expand(quotient), *x, formal=True)
    if rest != 0:
        raise ArithmeticError("symmetrized push is not symmetric")
    c = cvars(r)
    return sympy.expand(sym.subs({s: (-1) ** j * c[j - 1] for j, (s, _) in enumerate(mapping, 1)}))


@lru_cache(maxsize=None)
def _calibration(rho):
    r = rho[-1]
    x = roots(r)
    nu = [0] * r
    for l in range(1, len(rho)):
        for i in range(r - rho[l], r - rho[l - 1]):
            nu[i] = r - rho[l]
    ref = _raw_push(sympy.Mul(*[x[i] ** nu[i] for i in range(r)]), rho)
    if ref not in (1, -1):
        raise ArithmeticError(f"reference push for rho={rho} is {ref}, not +-1")
    return int(ref)


def weyl_push(F, rho):
    """Push-forward of a root polynomial, as a polynomial in c_1..c_r."""
    rho = tuple(rho)
    return sympy.expand(_calibration(rho) * _raw_push(F, rho))


def jacobi_trudi(sigma, r):
    c = cvars(r)

    def entry(k):
        if k == 0:
            return sympy.Integer(1)
        return c[k - 1] if 0 < k <= r else sympy.Integer(0)

    n = len(sigma)
    if n == 0:
        return sympy.Integer(1)
    return sympy.expand(sympy.Matrix(n, n, lambda i, j: entry(sigma[i] + j - i)).det())


def from_roots(poly, r):
    """A flagforms RootPoly as a sympy expression in the roots."""
    x = roots(r)
    return sympy.Add(*[sympy.Rational(str(c)) * sympy.Mul(*[v**e for v, e in zip(x, exps)])
                       for exps, c in poly.terms.items()])


def from_chern(poly):
    """A flagforms ChernPoly as a sympy expression in c_1..c_r."""
    c = cvars(poly.r)
    return sympy.Add(*[sympy.Rational(str(k)) * sympy.Mul(*[v**e for v, e in zip(c, exps)])
                       for exps, k in poly.terms.items()])
