"""Exact character computations: weight multiplicities and branching.

Multiplicities come from one Freudenthal recursion over the dominant
weights of the module, for simple and product systems alike, orbit-reduced:
at mu, one root string per W_mu-orbit of positive roots, weighted by the
orbit's size, is read up to its first dominant point, whose stored string
tail supplies the rest.  Full characters come from Weyl-orbit expansion.

``branch`` has two kernels, both on packed keys in the one layout of
``rootsys._layout``: an H-weight nu is the int pack(nu) = sum_j nu_j radix^j,
so a restriction or a reflection is integer arithmetic.  ``_orbit_keys`` is
the one orbit sum, read off the W_G orbit tables (``rootsys.orbit_table``,
kept across calls).  An embedding is certified when every simple reflection
of H lifts to W_G (``Embedding.reflection_lifts``, one descent per coweight,
read once per embedding); then every restricted G-character is
W_H-invariant, and that certificate is the one place where ``branch`` learns
it.
``_branch_by_numerator`` runs only on certified embeddings and builds no
character of G: it divides the restricted Weyl numerator by the factors
that are not over positive H-roots, read off the embedding's
``root_images`` on every call, and reads the multiplicities off the
H-dominant keys of the quotient.
``_branch_by_restriction`` runs every other call, and every call the
numerator declines: it restricts the dominant multiplicities orbit by
orbit and checks that the result is integral.  On an uncertified embedding
``_broken_pair`` compares every key with its image under each simple
reflection of H, one pass per root, and refuses the multiset at a broken
pair.  An invariant multiset is decomposed on its H-dominant keys alone,
about 4 % of the keys on the branch-sweep benchmark, which one mask on the
top bits of the digits finds: by the Racah-Speiser (Brauer-Klimyk) sum,
which needs no H-character, when W_H is listed and no more of its w lie
under the span of the keys' heights than there are keys, and else peeled
by H-characters from the top.  A refusal names its witness by
``_height_order``, the order in which constituents are listed, so it does
not depend on the order of the tables.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .embed import Embedding
from .rootsys import (
    RootSystem,
    Weight,
    _layout,
    _nonnegative,
    _pack,
    _resolve_cap,
    _unpack,
    build_root_system,
    coords_text,
    descend,
    fundamental_orbit,
    orbit_layers,
    orbit_size,
    orbit_table,
    require_dominant_integral,
    root_classes,
)
from .weyl import rho_shifts

DEFAULT_BRANCH_CAP = 50_000
_BRANCH_CAP_ENV = "FROBCRIT_BRANCH_CAP"

# the character of each simple factor that branch reads, for every G; a
# plain dict in insertion order, whose oldest entries are dropped past
# _CHAR_CACHE_SIZE (a branch-sweep round of 140 queries held at most 156
# over seeds 1-5)
_char_cache: dict[tuple, "DominantCharacter"] = {}
_CHAR_CACHE_SIZE = 512

# where ``branch`` takes the divided-numerator kernel (see its docstring);
# the per-item timings behind both numbers are in CHANGES.md
_NUMERATOR_MAX_ORDER = 200
_NUMERATOR_DIM_PER_ELEMENT = 2


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


def _zeros(coords) -> tuple[int, ...]:
    """The 1-based indices of the zero coordinates."""
    return tuple([j for j, c in enumerate(coords, 1) if not c])


def weyl_orbit(rs: RootSystem, weight: Weight) -> set[tuple[Fraction, ...]]:
    """All coordinate tuples in the Weyl orbit of the weight: with mu its
    dominant conjugate, w mu = sum_k mu_k w omega_k row by row of the orbit
    table of mu's support.  An orbit larger than FROBCRIT_ENUM_CAP (default
    10^6) is refused before any table is built, with its exact size."""
    mu = descend(rs, weight.coords)[0]
    size, cap = orbit_size(rs, _zeros(mu)), _resolve_cap(None)
    if size > cap:
        raise ValueError(f"refusing to list the Weyl orbit of {coords_text(mu)} in "
                         f"{rs.spec_string()}: it has {size} points, cap is {cap}")
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
    return lambda t: (sum(map(operator.mul, h.two_rho_vee, t)), t)


class DominantCharacter:
    """Character of an irreducible module, stored on its dominant weights, int tuples."""

    def __init__(self, rs: RootSystem, highest: Weight,
                 multiplicities: dict[tuple, int]) -> None:
        self.rs = rs
        self.highest = highest
        self.multiplicities = multiplicities
        self._full: dict[tuple, int] | None = None

    def dimension(self) -> int:
        """sum_mu m(mu) |W| / |W_{J0(mu)}|, J0(mu) the zero coordinates of mu."""
        return sum(m * orbit_size(self.rs, _zeros(mu)) for mu, m in self.multiplicities.items())

    def weights(self) -> dict[tuple, int]:
        """The full character: every weight, an int tuple, with its
        multiplicity.  A module of dimension above FROBCRIT_ENUM_CAP (default
        10^6) is refused before any orbit is listed, with its exact dimension."""
        if self._full is None:
            dim, cap = self.dimension(), _resolve_cap(None)
            if dim > cap:
                raise ValueError(
                    f"refusing to list the weights of the module of {self.rs.spec_string()} "
                    f"with highest weight {coords_text(self.highest.coords)}: its dimension "
                    f"is {dim}, cap is {cap}")
            self._full = {nu: m for mu, m in self.multiplicities.items()
                          for nu in weyl_orbit(self.rs, Weight(mu))}
        return self._full


def freudenthal(rs: RootSystem, lam: Weight, depth: int | None = None) -> DominantCharacter:
    """Weight multiplicities of the irreducible module with highest weight lam.

    One recursion for every root system, simple or a product, over the
    dominant weights of the module from the top.  The sum at mu runs over
    the strings mu + k beta (k >= 1) of the positive roots; a string is read
    up to its first dominant point nu, and the rest of it is the tail
    S_beta(nu) = sum_{k>=1} m(nu + k beta)(nu + k beta, beta), stored when nu,
    which is higher than mu, was reached.  A string that starts outside the
    dominant chamber never re-enters it, so every weight costs one step per
    root except near the walls.  The sum is orbit-reduced (Moody-Patera):
    w in W_mu, generated by the s_i with mu_i = 0, fixes mu, so
    S_{w beta}(mu) = S_beta(mu), and S_beta(mu) = S_{-beta}(mu) when
    <mu, beta_vee> = 0; so one string is walked per W_mu-orbit of positive
    roots (``root_classes``), weighted by the orbit's size.  With ``depth``,
    only the mu with lam - mu at most ``depth`` simple roots deep are listed,
    each exact: the recursion at mu reads only weights above it.  A closure
    that grows past FROBCRIT_ENUM_CAP (default 10^6) dominant weights is
    refused as it grows.
    """
    require_dominant_integral(rs, lam, "highest weight")
    cap = _resolve_cap(None)

    # the symmetrizer is integral, so everything below is integer arithmetic
    # on tuples: each positive root in weight and in root coordinates, and
    # the coefficients of (nu, beta) = sum_k coef_k nu_k
    pos = list(zip(rs.positive_weights, rs.positive_roots, rs.root_forms))

    # all dominant weights of the module: close lam under subtracting positive
    # roots while staying dominant, tracking the root coordinates of lam - mu
    # (integers, since the difference lies in the root lattice)
    lam_t = tuple(int(c) for c in lam.coords)
    dom = {lam_t: (0,) * rs.rank}
    frontier = [lam_t]
    while frontier:
        nxt = []
        for mu_t in frontier:
            if len(dom) > cap:
                raise ValueError(
                    f"refusing the module of {rs.spec_string()} with highest weight "
                    f"{coords_text(lam.coords)}: it has more than {cap} dominant "
                    f"weights, cap is {cap}")
            diff = dom[mu_t]
            for bw, beta, _ in pos:
                cand = tuple(map(operator.sub, mu_t, bw))
                if min(cand) >= 0 and cand not in dom:
                    below = tuple(map(operator.add, diff, beta))
                    if depth is None or sum(below) <= depth:
                        dom[cand] = below
                        nxt.append(cand)
        frontier = nxt

    # by height from the top, so every dominant nu on a string above mu comes
    # before mu; tails[nu][b] is S_beta(nu) for the b-th positive root
    ordered = sorted(dom, key=lambda t: (sum(dom[t]), t))
    mults: dict[tuple, int] = {lam_t: 1}
    tails = {lam_t: [0] * len(pos)}
    regular = (range(len(pos)), None, None)  # a regular mu walks every root
    for mu_t in ordered[1:]:
        reps, sizes, where = root_classes(rs, _zeros(mu_t)) if 0 in mu_t else regular
        row = []
        for b in reps:
            bw, _, coef = pos[b]
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
        total = sum(row) if sizes is None else sum(map(operator.mul, sizes, row))
        tails[mu_t] = row if sizes is None else list(map(row.__getitem__, where))
        # (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu), and
        # the second factor carries the integer root coordinates tracked above
        denom = sum(d * s * (x + y + 2)
                    for d, s, x, y in zip(dom[mu_t], rs.symmetrizer, lam_t, mu_t))
        value, remainder = divmod(2 * total, denom)
        if remainder or value <= 0:
            raise AssertionError(f"non-positive-integer multiplicity at {coords_text(mu_t)}")
        mults[mu_t] = value
    return DominantCharacter(rs, lam, mults)


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
    require_dominant_integral(rs, lam, "highest weight")
    shifted = [c + 1 for c in lam.coords]
    numer = math.prod(sum(map(operator.mul, shifted, co)) for co in rs.coroots)
    dim, remainder = divmod(numer, math.prod(map(sum, rs.coroots)))
    if remainder:
        raise AssertionError("Weyl dimension formula returned a non-integer")
    return dim


def _orbit_keys(g: RootSystem, mu: tuple, f: list[int], memo: dict):
    """sum_k mu_k f(w omega_k), f(v) = sum_k f_k v_k, for each row w of
    ``orbit_table(g, support of mu)``: w mu = sum_k mu_k w omega_k, so each
    orbit element is one integer combination of the fundamental orbits'
    values, which ``memo`` keeps under (k, mu_k) for calls with the same f."""
    support = tuple([k for k, c in enumerate(mu) if c])
    if not support:
        return (0,)
    keys = None
    for k, col in zip(support, orbit_table(g, support)):
        vk = memo.get((k, mu[k]))
        if vk is None:
            if (k, 1) not in memo:
                memo[k, 1] = [sum(map(operator.mul, f, p)) for p in fundamental_orbit(g, k)[0]]
            vk = memo[k, mu[k]] = list(map(mu[k].__mul__, memo[k, 1]))
        term = map(vk.__getitem__, col)
        keys = term if keys is None else map(operator.add, keys, term)
    return keys


def _orbit_counts(g: RootSystem, f: list[int], mults: dict[tuple, int]) -> Counter:
    """{sum_k f_k (w mu)_k: multiplicity} over every W_G-orbit of ``mults``."""
    memo: dict[tuple, list[int]] = {}
    by_mult: dict[int, list[int]] = {}
    for mu, m in mults.items():
        by_mult.setdefault(m, []).extend(_orbit_keys(g, mu, f, memo))
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


def _restricted_counts(emb: Embedding, lam: Weight):
    """The restriction to H of the irreducible G-module with highest weight
    lam as packed counts {pack(nu): multiplicity}, and their layout.

    bound is at least every coordinate of a key: |<w mu, alpha_k_vee>| <=
    max_gamma <lam, gamma_vee> for every weight mu of the module.  With h
    the height of the highest coroot of H, the layout's reach
    max(4, h) bound + h + 1 leaves room for a simple reflection of a key
    (|nu_j - nu_i a_ij| <= 4 bound, ``_broken_pair``), for every W_H-image of
    an H-dominant key (|<kappa, beta_vee>| <= h bound) and for
    nu + rho - w rho at a dominant key nu (its coordinates are 1 - h to
    bound + h + 1).  Packing is linear, so pack(Res(v)) = sum_k f_k v_k, and
    ``_orbit_counts`` counts those ints.  A fractional restriction matrix is
    scaled to integers and the scale divided out at the end, which unpacks
    every key and raises at the non-integral weight highest in
    ``_height_order`` (the same order on the scaled weights, scale > 0); a
    key whose digits all divide by scale does too.
    """
    g, h = emb.g, emb.h
    scale = math.lcm(*(x.denominator for row in emb.restriction for x in row))
    rows = [[int(x * scale) for x in row] for row in emb.restriction]
    top = max(sum(map(operator.mul, lam.coords, co)) for co in g.coroots)
    bound = top * max(sum(map(abs, row)) for row in rows)
    reach = h.coroot_height
    layout = _layout(h.rank, max(4, reach) * bound + reach + 1)
    f = [_pack(col, layout[1]) for col in zip(*rows)]
    # a product's character is the product of its factors', and packing
    # adds over the factors, so the factors' counts convolve
    counts = None
    for (lo, hi), comp in zip(g.component_spans, g.components):
        factor = _cached_character(build_root_system([comp]), Weight(lam.coords[lo:hi]))
        part = _orbit_counts(factor.rs, f[lo:hi], factor.multiplicities)
        counts = part if counts is None else _convolve(counts, part)

    if scale > 1:
        fractional = [r for r in zip(*_unpack(counts, layout))
                      if any(x % scale for x in r)]
        if fractional:
            r = max(fractional, key=_height_order(h))
            raise ValueError(
                f"restriction of the module with highest weight {coords_text(lam.coords)} "
                f"has the non-integral H-weight "
                f"{coords_text(Fraction(x, scale) for x in r)}")
        counts = {key // scale: m for key, m in counts.items()}
    return counts, layout


def restricted_character(emb: Embedding, lam: Weight) -> dict[tuple, int]:
    """The restriction to H of the irreducible G-module with highest weight
    lam, as {H-weight coordinates: multiplicity}, in no particular order;
    raises at the non-integral weight highest in ``_height_order``."""
    counts, layout = _restricted_counts(emb, lam)
    return dict(zip(zip(*_unpack(counts, layout)), counts.values()))


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

    An embedding whose simple reflections of H all lift to W_G
    (``Embedding.reflection_lifts``), with |W_G| <= _NUMERATOR_MAX_ORDER, at
    a module of dimension at least _NUMERATOR_DIM_PER_ELEMENT |W_G|, goes to
    ``_branch_by_numerator``; every other call, and every call it declines,
    to ``_branch_by_restriction``, which names the witness of a refusal.
    Only an embedding without that certificate has its restricted character
    checked for W_H-invariance (``_broken_pair``).
    """
    cap = _resolve_cap(None, _BRANCH_CAP_ENV, DEFAULT_BRANCH_CAP)
    dim = weyl_dim(emb.g, lam)
    if dim > cap:
        raise BranchCapExceeded(emb.g, lam, dim, cap)
    order = emb.g.weyl_order
    if order <= _NUMERATOR_MAX_ORDER and dim >= _NUMERATOR_DIM_PER_ELEMENT * order:
        result = _branch_by_numerator(emb, lam)
        if result is not None:
            return result
    return _branch_by_restriction(emb, lam)


def _branch_by_restriction(emb: Embedding, lam: Weight) -> dict[Weight, int]:
    """``branch`` from the restricted character: a multiset through an
    embedding without ``Embedding.reflection_lifts`` is first refused at a
    broken pair if it has one (``_broken_pair``); a W_H-invariant multiset,
    sum_nu n_nu ch V(nu), is decomposed by ``_dominant_count``.  Raises at a
    negative n_nu."""
    h = emb.h
    counts, layout = _restricted_counts(emb, lam)
    if not all(emb.reflection_lifts):
        broken = _broken_pair(h, counts, layout)
        if broken is not None:
            raise broken
    virtual = _dominant_count(h, counts, layout)
    key = _height_order(h)
    negative = [nu for nu, n in virtual.items() if n < 0]
    if negative:
        worst = max(negative, key=key)
        raise ValueError(
            f"negative residual multiplicity {virtual[worst]} at {coords_text(worst)}")
    return {Weight(nu): virtual[nu]
            for nu in sorted(virtual, key=key, reverse=True) if virtual[nu]}


def _dominant_count(h: RootSystem, counts: dict, layout: tuple) -> dict:
    """{nu: n_nu} at the H-dominant keys of ``counts``, a W_H-invariant
    multiset (by ``Embedding.reflection_lifts``, or else by ``_broken_pair``
    finding no broken pair), packed with room for every nu + rho - w rho
    (``_restricted_counts``); or the first negative n_nu of the peel alone.

    The dominant keys are read off by one mask, as a coordinate is >= 0
    exactly when the top bit of its digit is set, and only they are
    unpacked; no W_H-orbit is listed.  Keys holding kappa - beta at each
    dominant key kappa and positive root beta with <kappa, beta_vee> > 0
    (checked once per W_kappa-orbit of beta, ``root_classes``) are
    saturated, and every dominant weight below a key is a key (Humphreys,
    Introduction to Lie Algebras and Representation Theory, 13.4 Lemma B);
    so is every nu with n_nu != 0.
    The Racah-Speiser sum runs over the w with <rho - w rho, 2 rho_vee> at
    most the span of the keys' heights (``rho_shifts``), each over the
    dominant keys low enough for nu + rho - w rho to be a key; it is taken
    when W_H is listed and no more w lie under the span than there are keys.
    Any other multiset, as the adjoint module of a large H, is peeled
    (``_peeled_count``).
    """
    _, powers, offset = layout
    dominant = list(itertools.compress(counts, _nonnegative(counts, offset)))
    digits = _unpack(dominant, layout)
    nus = list(zip(*digits))
    mults = list(map(counts.__getitem__, dominant))
    lower = [kappa - _pack(h.positive_weights[b], powers)
             for kappa, nu in zip(dominant, nus) for b in root_classes(h, _zeros(nu))[0]
             if sum(map(operator.mul, h.coroots[b], nu)) > 0]
    missing = list(itertools.filterfalse(counts.__contains__, lower))
    heights = [sum(map(operator.mul, h.two_rho_vee, nu)) for nu in nus]
    shifts = None if missing else rho_shifts(h, len(counts))
    if shifts is None or len(counts) < bisect.bisect_right(
            shifts, max(heights) - min(heights), key=operator.itemgetter(0)):
        key = _height_order(h)
        below = zip(*_unpack(missing, layout))
        floor = max([key(descend(h, mu)[0])[0] for mu in below], default=None)
        return _peeled_count(h, nus, mults, floor)

    order = sorted(range(len(nus)), key=heights.__getitem__)
    heights = [heights[i] for i in order]
    keys = [dominant[i] for i in order]
    total = [mults[i] for i in order]
    top = heights[-1]
    for height, shift, odd in shifts[1:]:
        cut = bisect.bisect_right(heights, top - height)
        if not cut:
            break
        step = _pack(shift, powers)
        found = map(counts.get, map(step.__add__, itertools.islice(keys, cut)),
                    itertools.repeat(0))
        total[:cut] = map(operator.sub if odd else operator.add, total, found)
    return {nus[i]: n for i, n in zip(order, total)}


def _peeled_count(h: RootSystem, nus: list, mults: list, floor: int | None) -> dict:
    """{nu: n_nu} for the W_H-invariant multiset with dominant weights ``nus``
    and multiplicities ``mults``, peeled: the dominant weight nu highest in
    ``_height_order`` holds n_nu, so n_nu ch V(nu) is subtracted on the
    dominant weights, and so on down; the expansion in the ch V(nu) is
    unique (Humphreys, 22.5).  The walk stops at the first negative n_nu,
    final when reached, and returns it alone; until then a dominant weight
    of a V(nu) that is not a key reads < 0 when reached.  So on keys that
    are not saturated, with ``floor`` the highest <mu, 2 rho_vee> of the
    dominant conjugate mu of a kappa - beta missing from them, the walk stops
    at mu or above, and each V(nu) is built down to the floor only: A1 in A1
    through [[10^9]] builds two weights of V(10^9), not 5 10^8.
    """
    key = _height_order(h)
    residual = dict(zip(nus, mults))
    order = sorted(residual, key=key)
    virtual = {}
    while order:
        nu = order.pop()
        n = virtual[nu] = residual[nu]
        if n < 0:
            return {nu: n}
        if n and any(nu):  # V(0) has no weight below 0
            char = (_cached_character(h, Weight(nu)) if floor is None
                    else freudenthal(h, Weight(nu), (key(nu)[0] - floor) // 2))
            for mu, m in char.multiplicities.items():
                if mu not in residual:
                    residual[mu] = 0
                    bisect.insort(order, mu, key=key)
                residual[mu] -= n * m
    return virtual


def _broken_pair(h: RootSystem, counts: dict, layout: tuple) -> ValueError | None:
    """The refusal of ``counts`` at the broken pair highest in
    ``_height_order``, or None when there is none.  A broken pair is a key
    nu and its image s_i nu = nu - nu_i pack(alpha_i) under a simple
    reflection of H whose counts differ (a missing image reads None), found
    in one pass per simple root; with none, every s_i maps the keys onto
    themselves with their counts, and the s_i generate W_H, so the multiset
    is W_H-invariant.  The layout has room for every image
    (``_restricted_counts``)."""
    expected = list(counts.values())
    broken = []
    for alpha, d in zip(h.alphas, _unpack(counts, layout)):
        a = _pack(alpha, layout[1])
        images = [k - x * a for k, x in zip(counts, d)]
        found = list(map(counts.get, images))
        if found != expected:
            broken += [(k, image) for k, image, v, e in zip(counts, images, found, expected)
                       if v != e]
    if not broken:
        return None
    key = _height_order(h)
    flat = [k for pair in broken for k in pair]
    weight = dict(zip(flat, zip(*_unpack(flat, layout))))
    # s_i nu - nu is a multiple of alpha_i, so the lower weight of a pair
    # in this order is the one with nu_i < 0
    low, up = max((sorted(pair, key=lambda k: key(weight[k])) for pair in broken),
                  key=lambda pair: [key(weight[k]) for k in pair])
    return ValueError(
        f"weight {coords_text(weight[low])} of the restricted character is not "
        f"dominant and has multiplicity {counts.get(low, 0)}, but its "
        f"reflection {coords_text(weight[up])} has {counts.get(up, 0)}; "
        f"restriction is not a character of H")


def _numerator_certificate(emb: Embedding) -> tuple | None:
    """The restrictions Q of the positive G-roots left once one is taken over
    each positive H-root, when the restriction matrix is integral, no
    positive G-root restricts to 0 and every positive H-root is the
    restriction of a positive G-root; None otherwise."""
    if any(type(x) is not int for row in emb.restriction for x in row):
        return None  # Embedding keeps an integral entry as an int
    images = list(emb.root_images)
    if not all(map(any, images)):
        return None
    for target in emb.h.positive_weights:
        if target not in images:
            return None
        images.remove(target)
    return tuple(images)


def _divide(poly: dict, gamma: tuple, layout: tuple) -> dict | None:
    """poly / (1 - e^{-gamma}) on packed keys, or None when a gamma-line of
    poly does not sum to 0.  The quotient at x is the sum of poly over x,
    x + gamma, x + 2 gamma, ...; a line is named by its point x - k gamma,
    k = floor(x_j / gamma_j) for j the largest |gamma_j|, so keys are grouped
    by digit j and not by their residue mod pack(gamma), which aliases every
    key when pack(gamma) is 1."""
    half, powers, offset = layout
    j = max(range(len(gamma)), key=lambda i: abs(gamma[i]))
    step, gamma_j, radix, shift = powers[j], gamma[j], 2 * half, _pack(gamma, powers)
    lines: dict[int, dict[int, int]] = {}
    for key, c in poly.items():
        k = ((key + offset) // step % radix - half) // gamma_j
        line = lines.get(key - k * shift)
        if line is None:
            lines[key - k * shift] = {k: c}
        else:
            line[k] = c
    out: dict[int, int] = {}
    for base, line in lines.items():
        ks = sorted(line, reverse=True)
        total = 0
        for a, b in zip(ks, ks[1:]):
            total += line[a]
            if total:  # constant between two points of the line
                out.update(dict.fromkeys(range(base + a * shift, base + b * shift, -shift),
                                         total))
        if total + line[ks[-1]]:
            return None
    return out


def _branch_by_numerator(emb: Embedding, lam: Weight) -> dict[Weight, int] | None:
    """``branch`` by Weyl's character formula, restricted: Res is a ring map, so

        Res(ch V(lam)) prod_{beta > 0} (1 - e^{-Res beta})
            = sum_{w in W_G} eps(w) e^{Res(w(lam + rho)) - Res(rho)},

    and dividing the right side by the factors over Q (``_numerator_
    certificate``) leaves Res(ch V(lam)) prod_{alpha > 0} (1 - e^{-alpha})
    over the positive H-roots.  On an embedding certified by
    ``Embedding.reflection_lifts``, Res(ch V(lam)) is W_H-invariant, so that
    quotient is alternating under the rho_H-shifted simple reflections by
    itself, and its value at each H-dominant nu is the multiplicity n_nu.
    No character of G is computed.  None when the embedding lacks either
    certificate, a division is not exact or some n_nu is negative:
    ``_branch_by_restriction`` then names the witness.
    """
    g, h, rows = emb.g, emb.h, emb.restriction
    extra = _numerator_certificate(emb) if all(emb.reflection_lifts) else None
    if extra is None:
        return None
    # |<w(lam + rho), alpha_k_vee>| <= top, so every coordinate of the
    # numerator, and of each partial quotient (in its convex hull), is at
    # most bound in size; a line's base point, |x_j / gamma_j| + 1 steps
    # of gamma from x with |gamma_j| the largest entry, stays within
    # 2 bound + max|gamma|
    top = max(sum(map(operator.mul, lam.coords, co)) + sum(co) for co in g.coroots)
    bound = (top + 1) * max(sum(map(abs, row)) for row in rows)
    layout = _layout(h.rank, 2 * bound + max(
        [abs(x) for gamma in extra for x in gamma], default=0))
    f = [_pack(col, layout[1]) for col in zip(*rows)]  # pack(Res omega_k)
    keys = _orbit_keys(g, [c + 1 for c in lam.coords], f, {})
    keys = list(map((-sum(f)).__add__, keys))
    starts = orbit_layers(g, tuple(range(g.rank)))
    poly = Counter()
    for layer, (a, b) in enumerate(zip(starts, starts[1:])):
        (poly.subtract if layer % 2 else poly.update)(keys[a:b])
    poly = {key: c for key, c in poly.items() if c}

    for gamma in extra:
        poly = _divide(poly, gamma, layout)
        if poly is None:
            return None

    found = [(nu, n) for nu, n in zip(zip(*_unpack(poly, layout)), poly.values())
             if min(nu) >= 0]
    if any(n < 0 for _, n in found):
        return None
    key = _height_order(h)
    found.sort(key=lambda item: key(item[0]), reverse=True)
    return {Weight(nu): n for nu, n in found}


class SurjectivityScanRow(NamedTuple):
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
