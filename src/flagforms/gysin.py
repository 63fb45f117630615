"""Gysin push-forward engine for flag bundles.

Three routes are implemented:

* ``pushforward_dp`` on an ``expand_expression`` result pushes it in the
  basis of block Schur polynomials.  Its quotient form is a polynomial in
  the Chern classes of the root blocks, that is in the elementary
  symmetric functions of each block's negated roots, and these are
  algebraically independent.  The Pieri rule expands each block's product
  of e_k into Schur polynomials of the block, and each product
  prod_b s_lambda(b) is pushed as the one monomial of the determinantal
  rule that puts lambda(b) on block b in decreasing order (Darondeau and
  Pragacz, "Universal Gysin formulas for flag bundles", Int. J. Math. 28,
  2017).  The root terms of the expansion are never built.

* ``pushforward_dp`` on any other root polynomial, such as one a caller
  built, applies the determinantal rule monomial by monomial: the
  coefficient b_lambda of xi^lambda contributes
  b_lambda * gen_schur(reverse(lambda - nu)), where nu is the sequence
  determined by the dimension sequence.  This route is the test oracle of
  the first.

  Both routes share one tail.  An index sequence with two equal shifted
  entries sigma_i - i vanishes and is dropped first; the others are
  straightened to +-1 times a partition, or to 0, as
  ``charpoly.straighten`` does, so only one determinant per distinct
  partition is evaluated, and ``gen_schur`` takes the smaller of its two
  Jacobi-Trudi determinants for it.

* ``pushforward_oracle`` symmetrizes with the Weyl group: summing
  sgn(w) * w(F * Delta_within) over the sorted-block coset representatives
  of S_r modulo the block Young subgroup, dividing exactly by the full
  Vandermonde, and rewriting the symmetric result in c_1..c_r via
  e_j(-xi) -> c_j.  A single global sign per (r, rho) is calibrated once
  against ``pushforward_dp`` on the reference monomial xi^nu (whose push
  is 1) and then held fixed for all inputs.

The oracle's symmetrizing operator only computes a fiber integral on
block-symmetric input; a non-symmetric input is averaged over the block
group first (with a warning), which changes nothing when the blocks are
singletons (complete flag) but differs from the monomial-wise determinantal
rule on coarser flags.
"""

import warnings
from functools import lru_cache, reduce
from itertools import chain, combinations, product
from operator import mul, sub

from .charpoly import (
    ChernPoly,
    SchurVector,
    _over,
    _straighten_shifted,
    gen_schur,
    schur,
    schur_decompose,
)
from .combinat import (
    Partition,
    as_dimension_sequence,
    complete_sequence,
    dimension_sequences,
    lambda_from_sigma_tilde,
    nu_from_rho,
    partitions_of,
    perm_sign,
    root_blocks,
    sigma_tilde,
)
from .rootcalc import (
    RootPoly,
    _elementary,
    apply_permutation,
    block_symmetrize,
    expand_expression,
    is_block_symmetric,
)

ORACLE_MAX_RANK = 6


def pushforward_dp(F, rho):
    """Push a RootPoly down to the base via the determinantal rule.

    An ``expand_expression`` result for this rho is pushed from its
    quotient form by ``_block_schur_rows``, without building its root
    terms.  Any other input is pushed monomial by monomial: only
    block-symmetric input represents an actual class on the flag bundle,
    and anything else is pushed formally (with a warning), which matters
    for the oracle comparison on flags with blocks of size above one.

    A monomial whose index sequence sigma has two equal shifted entries
    sigma_i - i vanishes and is dropped first.  Both routes end in
    ``_push_shifted``.
    """
    rho = as_dimension_sequence(rho)
    r = rho.r
    if F.r != r:
        raise ValueError(f"root polynomial rank {F.r} != rho rank {r}")
    # sigma = reverse(exps) - reverse(nu), so l_i = exps[r-1-i] - offsets[i]
    offsets = [x + i for i, x in enumerate(nu_from_rho(rho)[::-1])]
    form = getattr(F, "_quotient", None)
    if form is not None and form[0] == rho.rho:
        return _push_shifted(*_block_schur_rows(form[1], rho, offsets), r)
    if rho.m < r and not is_block_symmetric(F, rho):
        warnings.warn(
            "input is not block-symmetric; the determinantal rule is applied "
            "formally, monomial by monomial",
            stacklevel=2,
        )
    nums, den = F._numerators()
    rows = {}
    for exps, num in zip(F.terms, nums):
        row = tuple(map(sub, exps[::-1], offsets))
        if len(set(row)) == r:
            rows[row] = num
    return _push_shifted(rows, rows.values(), den, r)


def _push_shifted(rows, nums, den, r):
    """The push of the index sequences whose shifted entries are ``rows``,
    with integer numerators ``nums`` over the common denominator ``den``;
    the entries of each row are distinct.

    Each row is straightened to a signed partition or to zero, and
    ``gen_schur`` is evaluated once for each partition whose signed
    numerators do not cancel, taking the smaller of its two Jacobi-Trudi
    determinants.  The sums run on the integer numerators, as ``gen_schur``
    has integer coefficients; each coefficient of the result is divided by
    ``den`` once.
    """
    by_partition = {}
    for row, num in zip(rows, nums):
        sign, parts = _straighten_shifted(row)
        if sign:
            by_partition[parts] = by_partition.get(parts, 0) + sign * num
    acc = ChernPoly.zero(r)
    for parts, num in by_partition.items():
        if num:
            acc = acc + gen_schur(parts, r) * num
    return ChernPoly._wrap(r, dict(zip(acc.terms, _over(acc.terms.values(), den))))


@lru_cache(maxsize=1 << 14)
def _pieri(lam, k):
    """The partitions mu with mu / lam a vertical strip of k boxes and no
    more parts than lam has entries, lam padded with zeros to the block
    size: s_lam * e_k = sum of s_mu over the block (Macdonald, Symmetric
    Functions and Hall Polynomials, I (5.17))."""
    out = []
    for rows in combinations(range(len(lam)), k):
        mu = list(lam)
        for i in rows:
            mu[i] += 1
        if mu == sorted(mu, reverse=True):
            out.append(tuple(mu))
    return tuple(out)


@lru_cache(maxsize=1 << 12)
def _block_schur(exps):
    """prod_k c_k^{exps[k-1]} over a block of len(exps) roots in the Schur
    basis of the block: (lam padded to the block size, coefficient) pairs.

    c_k is e_k of the negated roots, so the product is (-1)^|lam| times the
    Pieri expansion of the e_k; a vertical strip adds to distinct rows, so
    the length never exceeds the block size."""
    out = {(0,) * len(exps): 1}
    for k, a in enumerate(exps, start=1):
        for _ in range(a):
            grown = {}
            for lam, coeff in out.items():
                for mu in _pieri(lam, k):
                    grown[mu] = grown.get(mu, 0) + coeff
            out = grown
    return tuple((lam, -c if sum(lam) & 1 else c) for lam, c in out.items())


def _block_schur_rows(quotient, rho, offsets):
    """(rows, numerators, denominator) of a quotient form for
    ``_push_shifted``: the shifted index sequences of its products of block
    Schur polynomials, prod_b s_lam(b), whose entries are distinct.

    The push of prod_b s_lam(b) is that of the one monomial that puts lam(b)
    on block b in decreasing order along the root indices, the largest
    index taking lam(b)_1: s_lam is the divided difference of x^(lam+delta)
    (Macdonald I.3), and the determinantal rule is antisymmetric under the
    dot action.  The blocks of ``root_blocks`` run from the largest root
    indices down, so the reversed exponents are the lam(b) in block order.
    """
    blocks = root_blocks(rho)
    r = rho.r
    nums, den = quotient._numerators()
    rows = {}
    for exps, num in zip(quotient.terms, nums):
        schur_terms = [_block_schur(tuple(exps[i - 1] for i in block)) for block in blocks]
        for combo in product(*schur_terms):
            row = tuple(map(sub, chain.from_iterable(lam for lam, _ in combo), offsets))
            if len(set(row)) == r:
                rows[row] = rows.get(row, 0) + reduce(mul, (c for _, c in combo), num)
    return rows, rows.values(), den


# -- Weyl symmetrizer ------------------------------------------------------


def _coset_representatives(blocks, r):
    """Permutations of {1..r} increasing on each block, i.e. the canonical
    representatives of S_r modulo the block Young subgroup."""

    def rec(remaining, block_idx):
        if block_idx == len(blocks):
            yield ()
            return
        size = len(blocks[block_idx])
        for chosen in combinations(sorted(remaining), size):
            rest = remaining - set(chosen)
            for tail in rec(rest, block_idx + 1):
                yield chosen + tail

    reps = []
    for values in rec(set(range(1, r + 1)), 0):
        w = [0] * r
        pos = 0
        for block in blocks:
            for position in block:
                w[position - 1] = values[pos]
                pos += 1
        reps.append(tuple(w))
    return reps


def _vandermonde_within(blocks, r):
    """prod over same-block pairs i<j of (xi_i - xi_j)."""
    acc = RootPoly.one(r)
    for block in blocks:
        for a_idx in range(len(block)):
            for b_idx in range(a_idx + 1, len(block)):
                i, j = block[a_idx], block[b_idx]
                acc = acc * (RootPoly.gen(r, i) - RootPoly.gen(r, j))
    return acc


def _divide_linear(poly, i, j):
    """Exact division by (xi_i - xi_j); raises if the remainder is nonzero.

    Dividing out a term whose xi_i-exponent is e leaves a carry at
    exponent e - 1, so one pass over the exponent levels, from the top,
    meets every term once.
    """
    levels = {}
    for exps, coeff in poly.terms.items():
        levels.setdefault(exps[i - 1], {})[exps] = coeff
    out = {}
    for level in range(max(levels, default=0), 0, -1):
        below = levels.setdefault(level - 1, {})
        for exps, coeff in levels.pop(level, {}).items():
            if coeff:
                # subtract (xi_i - xi_j) * coeff * xi^q: the xi_i part cancels exps
                q = list(exps)
                q[i - 1] -= 1
                out[tuple(q)] = coeff
                q[j - 1] += 1
                carry = tuple(q)
                below[carry] = below.get(carry, 0) + coeff
    if any(levels.get(0, {}).values()):
        raise ArithmeticError(
            "symmetrization is not a polynomial (non-exact Vandermonde division)"
        )
    # exact nonzero sums; a Fraction that became integral is still exact
    return RootPoly._wrap(poly.r, out)


@lru_cache(maxsize=1024)
def _elementary_power(r, j, mult):
    """e_j(xi_1..xi_r)^mult, shared between calls: its terms are frozen."""
    return _elementary(r, range(1, r + 1), j, negate=False) ** mult


def _symmetric_to_chern(poly):
    """Rewrite a symmetric RootPoly in the elementary symmetric polynomials
    of the negated roots, i.e. as a ChernPoly via e_j(-xi) -> c_j.

    The lex-leading monomial is peeled off one working dict in place, and
    each power e_j^m is computed once per rank.
    """
    r = poly.r
    # work in eta = -xi so that c_j = e_j(eta)
    work = {exps: -coeff if sum(exps) & 1 else coeff for exps, coeff in poly.terms.items()}
    out = {}
    while work:
        # leading monomial in lex order has weakly decreasing exponents
        exps = max(work)
        coeff = work[exps]
        if any(exps[i] < exps[i + 1] for i in range(r - 1)):
            raise ArithmeticError(
                f"polynomial is not symmetric (leading monomial {exps})"
            )
        chern_exps = tuple(exps[i] - exps[i + 1] for i in range(r - 1)) + exps[r - 1:]
        out[chern_exps] = coeff
        powers = [_elementary_power(r, j, m) for j, m in enumerate(chern_exps, start=1) if m]
        prod = reduce(mul, powers) if powers else RootPoly.one(r)
        for e, c in prod.terms.items():
            new = work.get(e, 0) - coeff * c
            if new:
                work[e] = new
            else:
                del work[e]
    return ChernPoly(r, out)


def _oracle_raw(F, rho):
    rho = as_dimension_sequence(rho)
    r = rho.r
    blocks = root_blocks(rho)
    F_delta = F * _vandermonde_within(blocks, r)
    numerator = RootPoly.zero(r)
    for w in _coset_representatives(blocks, r):
        term = apply_permutation(F_delta, w)
        numerator = numerator + term * perm_sign(w)
    if numerator.is_zero():
        return ChernPoly.zero(r)
    quotient = numerator
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            quotient = _divide_linear(quotient, i, j)
    return _symmetric_to_chern(quotient)


def oracle_calibration_sign(rho):
    """The global sign making the symmetrizer agree with the determinantal
    rule on the reference monomial xi^nu (whose push-forward is 1)."""
    return _calibration_sign(as_dimension_sequence(rho).rho)


@lru_cache(maxsize=256)
def _calibration_sign(rho):
    rho = as_dimension_sequence(rho)
    r = rho.r
    raw = _oracle_raw(RootPoly(r, {tuple(nu_from_rho(rho)): 1}), rho)
    if raw == ChernPoly.one(r):
        return 1
    if raw == -ChernPoly.one(r):
        return -1
    raise ArithmeticError(f"calibration failed for rho={rho.rho}: reference push = {raw}")


def pushforward_oracle(F, rho):
    """Push a RootPoly down to the base by Weyl-group symmetrization.

    Exact; cost grows with r! so ranks above ORACLE_MAX_RANK are rejected.
    Non-block-symmetric input is averaged over the block group first and a
    warning is emitted, since only the symmetric part has a fiber integral.
    """
    rho = as_dimension_sequence(rho)
    r = rho.r
    if r > ORACLE_MAX_RANK:
        raise ValueError(f"oracle limited to rank <= {ORACLE_MAX_RANK}, got {r}")
    if F.r != r:
        raise ValueError(f"root polynomial rank {F.r} != rho rank {r}")
    if not is_block_symmetric(F, rho):
        warnings.warn(
            "input is not block-symmetric; symmetrizing before push-forward",
            stacklevel=2,
        )
        F = block_symmetrize(F, rho)
    return pushforward_oracle_symmetric(F, rho)


def pushforward_oracle_symmetric(F, rho):
    """Symmetrizer push-forward without the block-symmetry guard."""
    rho = as_dimension_sequence(rho)
    sign = oracle_calibration_sign(rho)
    result = _oracle_raw(F, rho)
    return result * sign


# -- derived push-forward statements ---------------------------------------


def schur_via_flag(sigma, r):
    """Produce the Schur polynomial S_sigma as a push-forward from the
    complete flag bundle, together with a sign report.

    The pushed monomial is built literally from the first Chern classes of
    the successive quotients, Xi_j = -xi_{r-j+1}, with exponent
    sigma_tilde_{r-j+1} + j - 1 on Xi_j and the prefactor
    (-1)^{|lambda| + |sigma|}.  The result equals epsilon(r) * S_sigma for a
    global sign epsilon(r) that this function measures and reports rather
    than assuming; the indexing of the quotient classes hides a reversal
    that makes epsilon depend on r (it comes out as -1 for r in {2, 3} and
    +1 for r = 4).
    """
    sigma = Partition(sigma)
    k = sigma.weight()
    if sigma.parts and sigma.parts[0] > r:
        raise ValueError(f"{sigma!r} is not a partition with parts <= {r}")
    rho = complete_sequence(r)
    st = sigma_tilde(sigma, r)
    lam = lambda_from_sigma_tilde(st)
    # Xi_j^{lam_j} with Xi_j = -xi_{r-j+1}: exponent lam_j lands on root
    # r-j+1 and the conversion to roots contributes (-1)^{|lam|}
    exps = [0] * r
    for j in range(1, r + 1):
        exps[r - j] = lam[j - 1]
    monomial = RootPoly(r, {tuple(exps): (-1) ** sum(lam)})
    prefactor = (-1) ** (sum(lam) + k)
    pushed = pushforward_dp(monomial, rho) * prefactor
    target = schur(sigma, r)
    epsilon = None
    for candidate in (1, -1):
        if pushed == target * candidate:
            epsilon = candidate
            break
    if epsilon is None:
        raise ArithmeticError(
            f"push-forward of the flag monomial is not +-S_sigma for sigma={sigma.parts}"
        )
    report = {
        "sigma": list(sigma.parts),
        "r": r,
        "sigma_tilde": list(st),
        "lambda": list(lam),
        "epsilon": epsilon,
    }
    return pushed, report


def epsilon_for_rank(r, max_weight=4):
    """Measure the global sign epsilon(r) over all partitions of weight up
    to ``max_weight`` with parts <= r, asserting it is constant."""
    epsilon = None
    for k in range(0, max_weight + 1):
        for sigma in partitions_of(k, max_part=r):
            _, report = schur_via_flag(sigma, r)
            if epsilon is None:
                epsilon = report["epsilon"]
            elif epsilon != report["epsilon"]:
                raise ArithmeticError(
                    f"inconsistent epsilon at r={r}: {epsilon} vs "
                    f"{report['epsilon']} for sigma={sigma.parts}"
                )
    return epsilon


def grassmann_c1c2_pushforward(r, n, s, alpha, beta):
    """Push c_1(Q_s)^alpha * c_2(Q_s)^beta down from the Grassmann bundle
    of s-planes and decompose the result in the Schur basis.

    Constraints: 0 <= beta <= 2 and s(r-s) <= alpha + 2 beta <= n + s(r-s).
    All Schur coordinates of the result must be non-negative; a negative
    coordinate raises, since these pushes generate a sub-cone of the Schur
    cone.
    """
    if not 1 <= s <= r - 1:
        raise ValueError(f"need 1 <= s <= r-1, got s={s}")
    if not 0 <= beta <= 2:
        raise ValueError(f"need 0 <= beta <= 2, got beta={beta}")
    if alpha < 0:
        raise ValueError(f"need alpha >= 0, got alpha={alpha}")
    d = s * (r - s)
    total = alpha + 2 * beta
    if not d <= total <= n + d:
        raise ValueError(
            f"need s(r-s) <= alpha + 2*beta <= n + s(r-s): "
            f"{d} <= {total} <= {n + d} fails"
        )
    rho = as_dimension_sequence((0, s, r))
    k = total - d
    if beta > 0 and r - s < 2:
        # c_2 of a line bundle vanishes, so the whole form is zero
        return ChernPoly.zero(r), SchurVector(k, r, {})
    text = f"c1(Q{s})^{alpha}" + (f"*c2(Q{s})^{beta}" if beta else "")
    F = expand_expression(text, rho)
    pushed = pushforward_dp(F, rho)
    vec = schur_decompose(pushed, k)
    negative = [sigma.parts for sigma, coeff in vec.items() if coeff < 0]
    if negative:
        raise ArithmeticError(
            f"negative Schur coordinates {negative} for (r={r}, n={n}, s={s}, "
            f"alpha={alpha}, beta={beta})"
        )
    return pushed, vec


#: ranks whose conventions the report lists: the oracle calibration sign of
#: every flag type of these ranks, and epsilon(r)
_REPORTED_RANKS = (2, 3, 4)


@lru_cache(maxsize=1)
def _reported_conventions():
    flag_types = sorted(
        rho.rho for r in _REPORTED_RANKS for rho in dimension_sequences(r, min_steps=2)
    )
    calibration = tuple((str(rho), oracle_calibration_sign(rho)) for rho in flag_types)
    epsilon = tuple((str(r), epsilon_for_rank(r, max_weight=2)) for r in _REPORTED_RANKS)
    return calibration, epsilon


def convention_report():
    """The engine's sign conventions, for embedding into CLI reports.

    The same in every call: the calibration sign of every flag type of
    rank 2 to 4 and epsilon(2..4), computed once per process.
    """
    calibration, epsilon = _reported_conventions()
    return {
        "segre": "s(t) = c(t)^-1, so s_1 = -c_1",
        "oracle_calibration": dict(calibration),
        "epsilon": dict(epsilon),
    }
