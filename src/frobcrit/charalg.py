"""Exact character computations: weight multiplicities and branching.

Multiplicities come from one Freudenthal recursion over the dominant
weights of the module, for simple and product systems alike: each root
string is read up to its first dominant point, whose stored string tail
supplies the rest; full characters are recovered by Weyl-orbit expansion
when asked for.  Branching through an embedding never builds a
full character: the W_G-orbit of each dominant weight is read off the
orbit table of its stabiliser type (``rootsys.orbit_table``, kept across
calls), with every restricted weight packed into one int, so restricting
an orbit is one integer combination per element.  The restricted multiset
is checked to be integral and W_H-invariant and then decomposed by the
Racah-Speiser (Brauer-Klimyk) count, which needs no H-character at all.
A refused restriction names its witness by ``_height_order``, the order in
which constituents are listed, so the witness does not depend on the order
in which the tables list an orbit.  Every reflection here is
``rootsys.reflect`` or ``rootsys.descend``; ``weyl_orbit`` reads the orbit
tables too.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .embed import Embedding
from .rootsys import (
    RootSystem,
    Weight,
    build_root_system,
    coords_text,
    descend,
    fundamental_orbit,
    index_set,
    orbit_table,
    parabolic_weyl_order,
    reflect,
)
from .weyl import _resolve_cap

DEFAULT_BRANCH_CAP = 50_000
_BRANCH_CAP_ENV = "FROBCRIT_BRANCH_CAP"

# the character of each simple factor that branch reads, for every G; a
# plain dict in insertion order, whose oldest entries are dropped past
# _CHAR_CACHE_SIZE (a branch-sweep round of 140 queries held at most 156
# over seeds 1-5)
_char_cache: dict[tuple, "DominantCharacter"] = {}
_CHAR_CACHE_SIZE = 512


def _dimension_text(dim: int) -> str:
    """'is <dim>', or 'has <n> digits' past the 4 300 digits Python prints by
    default; converted 600 digits at a time, under any setting of its limit (>= 640)."""
    pieces = []
    while dim >= 10 ** 600:
        dim, low = divmod(dim, 10 ** 600)
        pieces.append(f"{low:0600d}")
    text = str(dim) + "".join(reversed(pieces))
    return f"is {text}" if len(text) <= 4300 else f"has {len(text)} digits"


class BranchCapExceeded(ValueError):
    """Raised instead of branching a G-module above the dimension cap."""

    def __init__(self, rs: RootSystem, lam: "Weight", dim: int, cap: int) -> None:
        self.dim = dim
        self.cap = cap
        super().__init__(
            f"refusing to branch the module of {rs.spec_string()} with highest "
            f"weight {coords_text(lam.coords)}: dimension {_dimension_text(dim)}, "
            f"cap is {cap}")


def dominant_conjugate(rs: RootSystem, weight: Weight) -> Weight:
    """The unique dominant element of the Weyl orbit."""
    return Weight(descend(rs, weight.coords)[0])


def weyl_orbit(rs: RootSystem, weight: Weight) -> set[tuple[Fraction, ...]]:
    """All coordinate tuples in the Weyl orbit of the weight: with mu its
    dominant conjugate, w mu = sum_k mu_k w omega_k row by row of the orbit
    table of mu's support."""
    mu = descend(rs, weight.coords)[0]
    support = tuple([k for k, c in enumerate(mu) if c])
    if not support:
        return {mu}
    scaled = [[tuple([mu[k] * x for x in p]) for p in fundamental_orbit(rs, k)[0]]
              for k in support]
    return {tuple(map(sum, zip(*map(list.__getitem__, scaled, row))))
            for row in zip(*orbit_table(rs, support))}


def _height_order(h: RootSystem):
    """The key (<nu, 2 rho_vee>, nu) on H-weight tuples, in which ``branch``
    lists constituents and names the witness of a refusal; <nu, 2 rho_vee> =
    sum_gamma <nu, gamma_vee> is twice the height of nu."""
    hv = tuple(map(sum, zip(*h.coroots)))
    return lambda t: (sum(map(operator.mul, hv, t)), t)


class DominantCharacter:
    """Character of an irreducible module, stored on dominant weights only."""

    def __init__(self, rs: RootSystem, highest: Weight,
                 multiplicities: dict[Weight, int]) -> None:
        self.rs = rs
        self.highest = highest
        self.multiplicities = multiplicities
        self._full: dict[Weight, int] | None = None
        self._dim: int | None = None

    def dimension(self) -> int:
        """sum_mu m(mu) |W| / |W_{J0(mu)}|, J0(mu) the zero coordinates of mu."""
        if self._dim is None:
            by_zeros: Counter = Counter()
            for mu, m in self.multiplicities.items():
                by_zeros[tuple([i for i, c in enumerate(mu.coords, 1) if not c])] += m
            order = parabolic_weyl_order(self.rs, index_set(self.rs))
            self._dim = sum(m * (order // parabolic_weyl_order(self.rs, zeros))
                            for zeros, m in by_zeros.items())
        return self._dim

    def weights(self) -> dict[Weight, int]:
        """The full character: every weight with its multiplicity."""
        if self._full is None:
            full: dict[Weight, int] = {}
            for mu, m in self.multiplicities.items():
                for coords in weyl_orbit(self.rs, mu):
                    full[Weight(coords)] = m
            self._full = full
        return self._full


def freudenthal(rs: RootSystem, lam: Weight) -> DominantCharacter:
    """Weight multiplicities of the irreducible module with highest weight lam.

    One recursion for every root system, simple or a product, over the
    dominant weights of the module from the top.  The sum at mu runs over
    the strings mu + k beta (k >= 1) of the positive roots; a string is read
    up to its first dominant point nu, and the rest of it is the tail
    S_beta(nu) = sum_{k>=1} m(nu + k beta)(nu + k beta, beta), stored when nu,
    which is higher than mu, was reached.  A string that starts outside the
    dominant chamber never re-enters it, so every weight costs one step per
    root except near the walls.
    """
    if len(lam) != rs.rank:
        raise ValueError("highest weight rank mismatch")
    if not lam.is_integral() or not lam.is_dominant():
        raise ValueError(f"highest weight must be dominant integral, got {lam!r}")

    # the symmetrizer is integral, so both sides of the recursion scale
    # together and everything below is plain integer arithmetic on tuples:
    # each positive root in weight coordinates, its root coordinates, and the
    # coefficients of (nu, beta) = sum_k coef_k nu_k
    n = rs.rank
    isym = rs.symmetrizer
    pos = [(bw, beta, tuple(map(operator.mul, beta, isym)))
           for beta, bw in zip(rs.positive_roots, rs.positive_weights)]

    # all dominant weights of the module: close lam under subtracting positive
    # roots while staying dominant, tracking the root coordinates of lam - mu
    # (integers, since the difference lies in the root lattice)
    lam_t = tuple(int(c) for c in lam.coords)
    dom = {lam_t: (0,) * n}
    frontier = [lam_t]
    while frontier:
        nxt = []
        for mu_t in frontier:
            diff = dom[mu_t]
            for bw, beta, _ in pos:
                cand = tuple(map(operator.sub, mu_t, bw))
                if min(cand) >= 0 and cand not in dom:
                    dom[cand] = tuple(map(operator.add, diff, beta))
                    nxt.append(cand)
        frontier = nxt

    # by height from the top, so every dominant nu on a string above mu comes
    # before mu; tails[nu][b] is S_beta(nu) for the b-th positive root
    ordered = sorted(dom, key=lambda t: (sum(dom[t]), t))
    mults: dict[tuple, int] = {lam_t: 1}
    tails = {lam_t: [0] * len(pos)}
    for mu_t in ordered[1:]:
        row = []
        for b, (bw, _, coef) in enumerate(pos):
            tail = 0
            nu = tuple(map(operator.add, mu_t, bw))
            while True:
                dominant = min(nu) >= 0
                m = mults.get(nu if dominant else descend(rs, nu)[0])
                if m is None:
                    break  # weight strings are saturated, nothing further up
                tail += m * sum(map(operator.mul, coef, nu))
                if dominant:
                    tail += tails[nu][b]
                    break
                nu = tuple(map(operator.add, nu, bw))
            row.append(tail)
        tails[mu_t] = row
        # (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu), and
        # the second factor carries the integer root coordinates tracked above
        diff = dom[mu_t]
        denom = sum(diff[k] * isym[k] * (lam_t[k] + mu_t[k] + 2)
                    for k in range(n))
        value, remainder = divmod(2 * sum(row), denom)
        if remainder or value <= 0:
            raise AssertionError(f"non-positive-integer multiplicity at {mu_t!r}")
        mults[mu_t] = value
    return DominantCharacter(rs, lam,
                             {Weight(t): m for t, m in mults.items()})


def _cached_character(rs: RootSystem, lam: Weight) -> DominantCharacter:
    key = (rs.components, lam.coords)
    char = _char_cache.get(key)
    if char is None:
        char = _char_cache[key] = freudenthal(rs, lam)
        if len(_char_cache) > _CHAR_CACHE_SIZE:
            del _char_cache[next(iter(_char_cache))]
    return char


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension by the Weyl dimension formula; independent of freudenthal.

    prod <lam + rho, beta_vee> / prod <rho, beta_vee> over the positive
    roots, on the integer coroot table, with one exact division.
    """
    if len(lam) != rs.rank:
        raise ValueError("highest weight rank mismatch")
    if not lam.is_integral() or not lam.is_dominant():
        raise ValueError(f"highest weight must be dominant integral, got {lam!r}")
    shifted = [c + 1 for c in lam.coords]
    numer = denom = 1
    for co in rs.coroots:
        numer *= sum(x * c for x, c in zip(shifted, co))
        denom *= sum(co)
    dim, remainder = divmod(numer, denom)
    if remainder:
        raise AssertionError("Weyl dimension formula returned a non-integer")
    return dim


def _orbit_counts(g: RootSystem, f: list[int], mults: dict[Weight, int]) -> Counter:
    """{sum_k f_k (w mu)_k: multiplicity} over every W_G-orbit of ``mults``,
    read off the orbit tables: w mu = sum_k mu_k w omega_k, so each orbit
    element is one integer combination of the fundamental orbits' values."""
    values: dict[tuple, list[int]] = {}  # (k, c) -> c f(w omega_k) over its orbit
    tables: dict[tuple, list] = {}
    by_mult: dict[int, list[int]] = {}
    for weight, m in mults.items():
        mu = weight.coords
        support = tuple([k for k, c in enumerate(mu) if c])
        cols = tables.get(support)
        if cols is None:
            cols = tables[support] = orbit_table(g, support)
        keys = None
        for k, col in zip(support, cols):
            vk = values.get((k, mu[k]))
            if vk is None:
                if (k, 1) not in values:
                    values[k, 1] = [sum(map(operator.mul, f, p))
                                    for p in fundamental_orbit(g, k)[0]]
                vk = values[k, mu[k]] = list(map(mu[k].__mul__, values[k, 1]))
            term = map(vk.__getitem__, col)
            keys = term if keys is None else map(operator.add, keys, term)
        by_mult.setdefault(m, []).extend((0,) if keys is None else keys)
    counts = Counter(by_mult.pop(1, ()))
    for m, keys in by_mult.items():
        for key, c in Counter(keys).items():
            counts[key] += m * c
    return counts


def _convolve(a: dict[int, int], b: dict[int, int]) -> Counter:
    """{x + y: sum of a[x] b[y]}, counted by pairs of multiplicities."""
    def by_mult(counts):
        groups: dict[int, list[int]] = {}
        for key, m in counts.items():
            groups.setdefault(m, []).append(key)
        return groups.items()

    out: Counter = Counter()
    for ma, xs in by_mult(a):
        for mb, ys in by_mult(b):
            pairs = Counter(itertools.starmap(operator.add, itertools.product(xs, ys)))
            for key, c in pairs.items():
                out[key] += ma * mb * c
    return out


def restricted_character(emb: Embedding, lam: Weight) -> dict[tuple, int]:
    """The restriction to H of the irreducible G-module with highest weight
    lam, as {H-weight coordinates: multiplicity}, in no particular order.

    Each restricted weight is packed into one int, in base 2 bound + 1 with
    bound at least every coordinate: |<w mu, alpha_k_vee>| <= max_gamma
    <lam, gamma_vee> for every weight mu of the module.  Packing is linear,
    so pack(Res(v)) = sum_k f_k v_k, and ``_orbit_counts`` counts those ints.
    A fractional restriction matrix is scaled to integers and the scale
    divided out at the end, which raises at the non-integral weight highest
    in ``_height_order`` (the same order on the scaled weights, scale > 0).
    """
    g, hn = emb.g, emb.h.rank
    scale = math.lcm(*(x.denominator for row in emb.restriction for x in row))
    rows = [[int(x * scale) for x in row] for row in emb.restriction]
    top = max(sum(map(operator.mul, lam.coords, co)) for co in g.coroots)
    bound = top * max(sum(map(abs, row)) for row in rows)
    radix = 2 * bound + 1
    f = [sum(row[k] * radix ** j for j, row in enumerate(rows)) for k in range(g.rank)]
    # a product's character is the product of its factors', and packing
    # adds over the factors, so the factors' counts convolve
    counts = None
    for (lo, hi), comp in zip(g.component_spans, g.components):
        factor = _cached_character(build_root_system([comp]), Weight(lam.coords[lo:hi]))
        part = _orbit_counts(factor.rs, f[lo:hi], factor.multiplicities)
        counts = part if counts is None else _convolve(counts, part)

    # digit j of key + offset is coordinate j + bound, in 0..2 bound
    rest = list(map((sum(bound * radix ** j for j in range(hn))).__add__, counts))
    digits = []
    for _ in range(hn):
        digits.append(map(bound.__rsub__, map(radix.__rmod__, rest)))
        rest = list(map(radix.__rfloordiv__, rest))
    restricted = dict(zip(zip(*digits), counts.values()))
    if scale == 1:
        return restricted
    fractional = [r for r in restricted if any(x % scale for x in r)]
    if fractional:
        r = max(fractional, key=_height_order(emb.h))
        raise ValueError(
            f"restriction of the module with highest weight {coords_text(lam.coords)} "
            f"has the non-integral H-weight "
            f"{coords_text(Fraction(x, scale) for x in r)}")
    return {tuple(x // scale for x in r): m for r, m in restricted.items()}


def _broken_pairs(h: RootSystem, restricted: dict) -> list:
    """(nu, s_i nu) with nu_i < 0 where the two multiplicities differ."""
    broken = []
    for nu, m in restricted.items():
        for i, c in enumerate(nu, 1):
            if c:
                image = reflect(h, nu, i)
                if restricted.get(image, 0) != m:
                    broken.append((nu, image) if c < 0 else (image, nu))
    return broken


def branch(emb: Embedding, lam: Weight) -> dict[Weight, int]:
    """Decompose the restriction of the irreducible G-module to H.

    Returns {H-highest-weight: multiplicity}, insertion-ordered from the
    top.  Raises when the restricted character is not a character of H
    (non-integral weights, a multiset that is not W_H-invariant, or a
    negative coefficient in its decomposition, each named at the witness
    highest in ``_height_order``), which is how inconsistent embeddings
    surface.  A module whose dimension exceeds FROBCRIT_BRANCH_CAP (default
    50 000) is refused before any multiplicity is computed, and the
    exception carries the exact dimension.
    """
    cap = _resolve_cap(None, _BRANCH_CAP_ENV, DEFAULT_BRANCH_CAP)
    dim = weyl_dim(emb.g, lam)
    if dim > cap:
        raise BranchCapExceeded(emb.g, lam, dim, cap)
    h = emb.h
    restricted = restricted_character(emb, lam)
    key = _height_order(h)

    # H-characters are W_H-invariant, so a sum of them is too; the count
    # below decomposes an invariant multiset only, so this is checked first
    broken = _broken_pairs(h, restricted)
    if broken:
        low, up = max(broken, key=lambda pair: (key(pair[0]), key(pair[1])))
        raise ValueError(
            f"weight {coords_text(low)} of the restricted character is not "
            f"dominant and has multiplicity {restricted.get(low, 0)}, but its "
            f"reflection {coords_text(up)} has {restricted.get(up, 0)}; "
            f"restriction is not a character of H")

    # Racah-Speiser: a W_H-invariant multiset is sum_nu n_nu ch V(nu) with
    # n_nu = sum_w eps(w) m(nu + rho - w rho), so each weight kappa adds its
    # multiplicity, signed by the parity of the reflections that bring
    # kappa + rho to nu + rho, and nothing when kappa + rho lies on a wall
    virtual: dict[tuple, int] = {}
    for kappa, m in restricted.items():
        shifted = tuple([x + 1 for x in kappa])
        if 0 in shifted:
            continue  # fixed by a simple reflection, so on a wall
        end, letters = descend(h, shifted)
        if 0 in end:
            continue
        nu = tuple([x - 1 for x in end])
        virtual[nu] = virtual.get(nu, 0) + (-m if len(letters) % 2 else m)
    negative = [nu for nu, n in virtual.items() if n < 0]
    if negative:
        worst = max(negative, key=key)
        raise ValueError(
            f"negative residual multiplicity {virtual[worst]} at {coords_text(worst)}")
    return {Weight(nu): virtual[nu]
            for nu in sorted(virtual, key=key, reverse=True) if virtual[nu]}


@dataclass
class SurjectivityScanRow:
    index: int                 # 1-based fundamental weight index on G
    top_weight: Weight         # leading H-constituent of the restriction
    top_multiplicity: int
    multiplicity_one: bool


def fundamental_weight_surjectivity_scan(emb: Embedding) -> list[SurjectivityScanRow]:
    """Leading branching multiplicity for each fundamental weight of G.

    Multiplicity one for the top constituent is the numerical shadow of the
    restriction map on sections being surjective at that weight.
    """
    rows = []
    for i in range(1, emb.g.rank + 1):
        lam = Weight([1 if k == i - 1 else 0 for k in range(emb.g.rank)])
        decomposition = branch(emb, lam)
        top, mult = next(iter(decomposition.items()))
        rows.append(SurjectivityScanRow(i, top, mult, mult == 1))
    return rows
