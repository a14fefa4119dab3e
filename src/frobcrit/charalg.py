"""Exact character computations: weight multiplicities and branching.

Multiplicities come from Freudenthal's recursion evaluated over the
dominant weights of the module; full characters are recovered by Weyl-orbit
expansion when asked for.  Branching through an embedding never builds one:
it walks each W_G-orbit of the dominant multiplicities on integer tuples,
carrying the restricted coordinates along, checks that the restricted
multiset is integral and W_H-invariant, and then strips H-characters
greedily from the top on the H-dominant weights only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterable

from .embed import Embedding
from .rootsys import (
    RootSystem,
    Weight,
    build_root_system,
    cartan_pairing,
    rho,
    root_to_weight,
)

_char_cache: dict[tuple, "DominantCharacter"] = {}
_factor_systems: dict[tuple, RootSystem] = {}


def dominant_conjugate(rs: RootSystem, weight: Weight) -> Weight:
    """The unique dominant element of the Weyl orbit."""
    coords = list(weight.coords)
    n = rs.rank
    while True:
        i = next((i for i in range(n) if coords[i] < 0), None)
        if i is None:
            return Weight(coords)
        c = coords[i]
        for k in range(n):
            coords[k] -= c * rs.cartan[k][i]


def weyl_orbit(rs: RootSystem, weight: Weight) -> set[tuple[Fraction, ...]]:
    """All coordinate tuples in the Weyl orbit of the weight."""
    start = weight.coords
    seen = {start}
    frontier = [start]
    n = rs.rank
    while frontier:
        nxt = []
        for coords in frontier:
            for i in range(n):
                if coords[i] == 0:
                    continue
                c = coords[i]
                image = tuple(coords[k] - c * rs.cartan[k][i] for k in range(n))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


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
        if self._dim is None:
            self._dim = sum(m * len(weyl_orbit(self.rs, mu))
                            for mu, m in self.multiplicities.items())
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


def _factor_system(component: tuple) -> RootSystem:
    sub = _factor_systems.get(component)
    if sub is None:
        sub = _factor_systems[component] = build_root_system([component])
    return sub


def freudenthal(rs: RootSystem, lam: Weight) -> DominantCharacter:
    """Weight multiplicities of the irreducible module with highest weight lam."""
    if len(lam) != rs.rank:
        raise ValueError("highest weight rank mismatch")
    if not lam.is_integral() or not lam.is_dominant():
        raise ValueError(f"highest weight must be dominant integral, got {lam!r}")

    if len(rs.components) > 1:
        # characters of product systems factor, so combine the per-component
        # dominant maps instead of running the recursion on the product
        factor_maps = []
        for (lo, hi), comp in zip(rs.component_spans, rs.components):
            piece = Weight(lam.coords[lo:hi])
            factor_maps.append(_cached_character(_factor_system(comp), piece)
                               .multiplicities)
        mults: dict[Weight, int] = {}
        for combo in itertools.product(*(fm.items() for fm in factor_maps)):
            coords = tuple(c for w, _ in combo for c in w.coords)
            m = 1
            for _, factor_mult in combo:
                m *= factor_mult
            mults[Weight(coords)] = m
        return DominantCharacter(rs, lam, mults)

    # one common denominator clears the symmetrizer, after which both sides
    # of the recursion scale together and everything below is plain integer
    # arithmetic on coordinate tuples
    n = rs.rank
    cartan = rs.cartan
    scale = math.lcm(*(d.denominator for d in rs.symmetrizer))
    isym = [int(d * scale) for d in rs.symmetrizer]
    pos = []
    for beta in rs.positive_roots:
        bw = tuple(int(c) for c in root_to_weight(rs, beta).coords)
        # root coordinates of bw are beta itself, so (bw, bw) is immediate
        coef = tuple(beta[k] * isym[k] for k in range(n))
        ip_bb = sum(coef[k] * bw[k] for k in range(n))
        pos.append((bw, beta, coef, ip_bb))

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
            for bw, beta, _, _ in pos:
                cand = tuple(mu_t[k] - bw[k] for k in range(n))
                if min(cand) >= 0 and cand not in dom:
                    dom[cand] = tuple(diff[k] + beta[k] for k in range(n))
                    nxt.append(cand)
        frontier = nxt

    ordered = sorted(dom, key=lambda t: (sum(dom[t]), t))
    mults: dict[tuple, int] = {lam_t: 1}
    for mu_t in ordered:
        if mu_t == lam_t:
            continue
        acc = 0
        for bw, _, coef, ip_bb in pos:
            # along the string nu = mu + k*bw the form is affine in k:
            # (nu, bw) = (mu, bw) + k (bw, bw)
            base = sum(coef[k] * mu_t[k] for k in range(n))
            k = 1
            nu = tuple(mu_t[j] + bw[j] for j in range(n))
            while True:
                if min(nu) >= 0:
                    key = nu
                else:
                    v = list(nu)
                    lowered = True
                    while lowered:
                        lowered = False
                        for i in range(n):
                            c = v[i]
                            if c < 0:
                                for j in range(n):
                                    v[j] -= c * cartan[j][i]
                                lowered = True
                    key = tuple(v)
                m = mults.get(key)
                if m is None:
                    break  # weight strings are saturated, nothing further up
                acc += m * (base + k * ip_bb)
                k += 1
                nu = tuple(nu[j] + bw[j] for j in range(n))
        # (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu), and
        # the second factor carries the integer root coordinates tracked above
        diff = dom[mu_t]
        denom = sum(diff[k] * isym[k] * (lam_t[k] + mu_t[k] + 2)
                    for k in range(n))
        value, remainder = divmod(2 * acc, denom)
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
    return char


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """Dimension by the Weyl dimension formula; independent of freudenthal."""
    if not lam.is_integral() or not lam.is_dominant():
        raise ValueError(f"highest weight must be dominant integral, got {lam!r}")
    rho_w = rho(rs)
    out = Fraction(1)
    for beta in rs.positive_roots:
        out *= cartan_pairing(rs, lam + rho_w, beta) / cartan_pairing(rs, rho_w, beta)
    if out.denominator != 1:
        raise AssertionError("Weyl dimension formula returned a non-integer")
    return int(out)


def branch(emb: Embedding, lam: Weight) -> dict[Weight, int]:
    """Decompose the restriction of the irreducible G-module to H.

    Returns {H-highest-weight: multiplicity}, insertion-ordered from the
    top.  Raises when the restricted character is not a character of H
    (non-integral weights, a multiset that is not W_H-invariant, or a
    negative residual multiplicity), which is how inconsistent embeddings
    surface.
    """
    # The restricted character is summed over each W_G-orbit of the dominant
    # multiplicities without building a Weight: s_i mu = mu - mu_i alpha_i, so
    # Res(s_i mu) = Res(mu) - mu_i Res(alpha_i).  The walk is a tree: the
    # parent of a non-dominant mu is s_j mu, j its first negative coordinate,
    # so no weight is visited twice and no seen-set is kept.  A fractional
    # restriction matrix is scaled to integers for the walk and the scale is
    # divided out after it, which is where non-integral weights show up.
    g, h = emb.g, emb.h
    gn, hn = g.rank, h.rank
    scale = math.lcm(*(x.denominator for row in emb.restriction for x in row))
    rows = [[int(x * scale) for x in row] for row in emb.restriction]
    alphas = [[g.cartan[k][i] for k in range(gn)] for i in range(gn)]
    res_alphas = [[sum(row[k] * alpha[k] for k in range(gn)) for row in rows]
                  for alpha in alphas]
    steps: dict[tuple, tuple] = {}  # (i, c) -> (c alpha_i, c Res(alpha_i))
    restricted: dict[tuple, int] = {}
    for mu, m in freudenthal(g, lam).multiplicities.items():
        start = mu.coords
        stack = [(start, tuple([sum(row[k] * start[k] for k in range(gn))
                                for row in rows]), gn)]
        while stack:
            nu, r, first = stack.pop()
            restricted[r] = restricted.get(r, 0) + m
            for i, c in enumerate(nu):
                if c <= 0:
                    continue
                step = steps.get((i, c))
                if step is None:
                    step = steps[i, c] = (tuple(c * a for a in alphas[i]),
                                          tuple(c * a for a in res_alphas[i]))
                down, res_down = step
                # nu is the parent of s_i nu only if i is the first negative
                # coordinate of s_i nu; below `first` that holds by itself
                if i > first and nu[first] < down[first]:
                    continue
                child = tuple(map(sub, nu, down))
                if i > first and min(child[:i]) < 0:
                    continue
                stack.append((child, tuple(map(sub, r, res_down)), i))
    if scale != 1:
        for r in restricted:
            if any(x % scale for x in r):
                raise ValueError(
                    f"restriction of the module with highest weight "
                    f"{lam.coords} has the non-integral H-weight "
                    f"{tuple(Fraction(x, scale) for x in r)}")
        restricted = {tuple(x // scale for x in r): m
                      for r, m in restricted.items()}

    heights = []
    for j in range(hn):
        basis = Weight([1 if k == j else 0 for k in range(hn)])
        heights.append(sum(h.root_coordinates(basis), Fraction(0)))
    hscale = math.lcm(*(x.denominator for x in heights))
    hv = tuple(int(x * hscale) for x in heights)

    def key(t: tuple):
        return (sum(a * b for a, b in zip(hv, t)), t)

    # H-characters are W_H-invariant, so a sum of them is too; checking that
    # first lets the subtraction below look at H-dominant weights only
    h_alphas = [[h.cartan[k][i] for k in range(hn)] for i in range(hn)]
    broken = []  # (nu, s_i nu) with nu_i < 0 and unequal multiplicities
    for nu, m in restricted.items():
        for i, c in enumerate(nu):
            if c:
                image = tuple([x - c * a for x, a in zip(nu, h_alphas[i])])
                if restricted.get(image, 0) != m:
                    broken.append((nu, image) if c < 0 else (image, nu))
    if broken:
        low, up = max(broken, key=lambda pair: key(pair[0]))
        raise ValueError(
            f"weight {low} of the restricted character is not dominant and "
            f"has multiplicity {restricted.get(low, 0)}, but its reflection "
            f"{up} has {restricted.get(up, 0)}; restriction is not a "
            f"character of H")

    # subtracting a character only touches weights strictly lower in the
    # (height, coords) order, so one descending pass over the dominant
    # weights visits every top that the repeated-argmax formulation would;
    # the residual stays W_H-invariant, so its dominant part determines it
    residual = {t: m for t, m in restricted.items() if min(t) >= 0}
    out: dict[Weight, int] = {}
    for top in sorted(residual, key=key, reverse=True):
        mult = residual.get(top, 0)
        if mult == 0:
            continue
        if mult < 0:
            raise ValueError(
                f"negative residual multiplicity {mult} at {top}")
        for w, k in _cached_character(h, Weight(top)).multiplicities.items():
            wc = w.coords
            left = residual.get(wc, 0) - mult * k
            if left == 0:
                residual.pop(wc, None)
            else:
                residual[wc] = left
        out[Weight(top)] = mult
    if residual:
        worst = max(residual, key=key)
        raise ValueError(
            f"negative residual multiplicity {residual[worst]} at {worst}")
    return out


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
