"""Partitions, dimension sequences, and the index recipes feeding the
push-forward and curvature machinery.

Everything here is pure and operates on immutable values, so the functions
are safe to call from any number of concurrent workers.
"""

from itertools import combinations


class Partition:
    """A weakly decreasing tuple of non-negative integers.

    Trailing zeros are stripped on construction, so Partition([2, 1, 0])
    equals Partition([2, 1]).  Serialization keeps that normal form.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts!r}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    def weight(self):
        return sum(self.parts)

    def length(self):
        return len(self.parts)

    def conjugate(self):
        """Transpose of the Young diagram."""
        if not self.parts:
            return Partition(())
        cols = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                cols[i] += 1
        return Partition(cols)

    def to_json(self):
        return list(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, (tuple, list)):
            return self == Partition(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts!r}"


class DimensionSequence:
    """Strictly increasing integers 0 = rho_0 < rho_1 < ... < rho_m = r."""

    __slots__ = ("rho",)

    def __init__(self, rho):
        if isinstance(rho, DimensionSequence):
            rho = rho.rho
        rho = tuple(int(x) for x in rho)
        if len(rho) < 2:
            raise ValueError(f"dimension sequence needs m >= 1: {rho!r}")
        if rho[0] != 0:
            raise ValueError(f"dimension sequence must start at 0: {rho!r}")
        if any(rho[i] >= rho[i + 1] for i in range(len(rho) - 1)):
            raise ValueError(f"dimension sequence not strictly increasing: {rho!r}")
        self.rho = rho

    @property
    def r(self):
        return self.rho[-1]

    @property
    def m(self):
        return len(self.rho) - 1

    def __getitem__(self, i):
        return self.rho[i]

    def __len__(self):
        return len(self.rho)

    def __iter__(self):
        return iter(self.rho)

    def __eq__(self, other):
        if isinstance(other, DimensionSequence):
            return self.rho == other.rho
        if isinstance(other, (tuple, list)):
            return self.rho == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.rho)

    def __repr__(self):
        return f"DimensionSequence{self.rho!r}"

    def to_json(self):
        return list(self.rho)


def as_dimension_sequence(rho):
    return rho if isinstance(rho, DimensionSequence) else DimensionSequence(rho)


def complete_sequence(r):
    """The complete dimension sequence (0, 1, ..., r)."""
    return DimensionSequence(range(r + 1))


def conjugate(sigma):
    """Transpose of the Young diagram of ``sigma``; an involution."""
    return Partition(sigma).conjugate()


def sigma_tilde(sigma, r):
    """Embed the conjugate of ``sigma`` as a length-r integer sequence.

    For weight k < r the conjugate is padded with zeros, for k = r it is
    taken as is, and for k > r it is truncated to its first r entries.  The
    truncation loses nothing because parts of ``sigma`` are required to be
    at most r, which forces the conjugate to vanish beyond position r.
    """
    sigma = Partition(sigma)
    if sigma.parts and sigma.parts[0] > r:
        raise ValueError(f"partition {sigma.parts!r} has a part exceeding r={r}")
    conj = sigma.conjugate().parts
    if len(conj) <= r:
        return conj + (0,) * (r - len(conj))
    return conj[:r]


def lambda_from_sigma_tilde(st):
    """The exponent sequence lambda_j = st[r-j+1] + j - 1 for j = 1..r."""
    st = tuple(st)
    r = len(st)
    return tuple(st[r - j] + j - 1 for j in range(1, r + 1))


def nu_from_rho(rho):
    """The non-decreasing length-r sequence with nu_i = r - rho_l on the
    index block r - rho_l < i <= r - rho_{l-1}; its entries sum to the
    relative dimension of the flag bundle."""
    rho = as_dimension_sequence(rho)
    r = rho.r
    nu = [0] * r
    for ell in range(1, rho.m + 1):
        lo = r - rho[ell]
        hi = r - rho[ell - 1]
        for i in range(lo, hi):
            nu[i] = r - rho[ell]
    return tuple(nu)


def admissible_pairs(rho):
    """Chart coordinate index pairs (lam, mu), 1-based, in lexicographic
    order: the pairs with 1 <= lam <= r - rho_{m-l} < mu <= r for some
    l = 1..m-1."""
    rho = as_dimension_sequence(rho)
    r = rho.r
    pairs = set()
    for ell in range(1, rho.m):
        cut = r - rho[rho.m - ell]
        for lam in range(1, cut + 1):
            for mu in range(cut + 1, r + 1):
                pairs.add((lam, mu))
    return sorted(pairs)


def relative_dimension(rho):
    """Complex dimension of the flag-bundle fiber = chart coordinate count."""
    return len(admissible_pairs(rho))


def reverse(seq):
    """Entry-wise reversal of an integer sequence."""
    return tuple(reversed(tuple(seq)))


def perm_sign(seq):
    """Sign of the permutation that sorts a sequence of distinct values
    into increasing order: (-1) to the number of inversions.  For a
    permutation w, in 0- or 1-based one-line notation, this is sgn(w)."""
    seq = tuple(seq)
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return -1 if inversions % 2 else 1


def bitmask(indices):
    """The bitset of a collection of non-negative integers."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_indices(mask):
    """The set bits of a bitset, in increasing order; inverse of bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def root_blocks(rho):
    """The intervals of root indices carried by the successive quotients.

    Block l (l = 1..m) is the 1-based index range (r - rho_l, r - rho_{l-1}],
    returned as a tuple of tuples covering {1, ..., r}.
    """
    rho = as_dimension_sequence(rho)
    r = rho.r
    return tuple(
        tuple(range(r - rho[ell] + 1, r - rho[ell - 1] + 1))
        for ell in range(1, rho.m + 1)
    )


def partitions_of(k, max_part=None, max_length=None):
    """Yield the partitions of k with bounded part size and length."""
    if max_part is None:
        max_part = k
    if max_length is None:
        max_length = k if k > 0 else 0

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    for parts in rec(k, max_part, max_length):
        yield Partition(parts)


def dimension_sequences(r, min_steps=1):
    """All dimension sequences ending at r with at least ``min_steps`` steps."""
    out = []
    for size in range(max(0, min_steps - 1), r):
        for mids in combinations(range(1, r), size):
            out.append(DimensionSequence((0,) + mids + (r,)))
    return out
