"""Frobenius-splitting criteria for spherical subgroup orbit closures.

Everything is phrased on the weight level.  For an embedding H -> G, a
parabolic index set J and a prime p, the central test is dominance of

    2 rho_H - (rho_J)|_H

together with surjectivity of restriction on Steinberg-type sections; the
conclusions are emitted as tagged statements about the induced varieties
H x_{B_H} (P_J/B), their images in G/B, and the H-orbit closures inside.
All geometry lives in those statement strings: this module never
manipulates varieties, only exact weight data.  Every report is an
immutable NamedTuple, built once when everything in it is known.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

from .embed import (CriterionInput, Embedding, detect_twist, restrict, rho_h,
                    root_fiber, validate)
from .registry import lookup_donkin
from .rootsys import (Weight, _exact, _keep, _kept, _require_int, _resolve_cap, coords_text,
                      index_set, parabolic_weyl_order, require_dominant_integral, rho_J)
from .weyl import WeylElement, walk_parabolic

ORBIT_LABEL_CAP = 100

SURJECTIVITY_SOURCES = ("donkin-registry", "large-p", "user-asserted", "none")

# every tag a conclusion can carry, as report_schema.json lists them: the six
# that a splitting gives, in the order a CONDITIONAL statement names them
CONCLUSION_TAGS = ("SPLIT_PJ", "GLOBALLY_F_REGULAR", "CANONICAL_SPLIT", "COR72_HPJ",
                   "COR73_FLAG", "COHOMOLOGY_VANISHING", "CONDITIONAL")


# Miller-Rabin on the first k prime bases decides primality exactly below
# psi_k, the least strong pseudoprime to all of them (OEIS A014233; Jaeschke,
# Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86 (2017)):
#   k       1     2          3           4              5                  6
#   psi_k   2047  1373653    25326001    3215031751     2152302898747      3474749660383
#   k       7, 8              9, 10, 11              12                         13
#   psi_k   341550071728321   3825123056546413051    318665857834031151167461   PRIMALITY_BOUND
# so each n is tested on the first k bases for the least k with n < psi_k
PRIMALITY_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
             (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
             (318665857834031151167461, 12), (PRIMALITY_BOUND, 13))


def _is_prime(n: int) -> bool:
    """Deterministic primality test; raises ValueError at or above PRIMALITY_BOUND."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(
            f"p = {n} is too large: primality is decided only below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 1849:  # 43 ** 2, and no prime below 43 divides n
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    k = next(k for psi, k in _MR_TIERS if n < psi)
    for b in _MR_BASES[:k]:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class SurjectivityStatus(NamedTuple):
    status: str    # "holds" | "unknown"
    source: str
    detail: str

    @property
    def holds(self) -> bool:
        return self.status == "holds"


class LieSeparabilityStatus(NamedTuple):
    status: str    # "holds" | "fails" | "unknown"
    source: str


class Conclusion(NamedTuple):
    tag: str
    statement: str
    theorem: str
    orbit_count: int | None = None
    orbit_labels: tuple[tuple[int, ...], ...] | None = None


class DivisorData(NamedTuple):
    weight: Weight           # (p-1) rho_J on G
    multiplicity: int        # p-1, the coefficient of each component
    indices: tuple[int, ...]  # J: one divisor component per index


class CriterionReport(NamedTuple):
    input: CriterionInput
    condition1_weight: Weight
    condition1_dominant: bool
    condition1_regular: bool
    surjectivity: SurjectivityStatus
    lie_separability: LieSeparabilityStatus
    lemma53_min_p: int
    conclusions: list[Conclusion]
    divisor: DivisorData | None = None

    def tags(self) -> tuple[str, ...]:
        return tuple(c.tag for c in self.conclusions)


def lemma53_min_p(emb: Embedding) -> int:
    """Prime bound above which restriction surjectivity holds unconditionally.

    The bound is the ceiling of max <rho_H + omega_i|_H, gamma_vee> over the
    fundamental weights omega_i of G and positive roots gamma of H (and 0):
    omega_i|_H is column i of the restriction matrix, and each pairing is
    read off the coroot table.
    """
    shifted = [[1 + x for x in col] for col in zip(*emb.restriction)]
    best = max(sum(x * c for x, c in zip(col, co))
               for col in shifted for co in emb.h.coroots)
    return math.ceil(max(best, 0))


@functools.lru_cache(maxsize=64)
def _embedding_facts(emb: Embedding) -> tuple[tuple[str, ...], int]:
    """``validate``'s problems and ``lemma53_min_p``, once per embedding object."""
    return tuple(validate(emb)), lemma53_min_p(emb)


def _valid_min_p(emb: Embedding) -> int:
    problems, min_p = _embedding_facts(emb)
    if problems:
        raise ValueError("embedding fails validation: " + "; ".join(problems))
    return min_p


def _resolve_surjectivity(inp: CriterionInput, min_p: int) -> SurjectivityStatus:
    source = inp.surjectivity_source
    if source not in SURJECTIVITY_SOURCES:
        raise ValueError(
            f"unknown surjectivity source {source!r}; expected one of "
            f"{', '.join(SURJECTIVITY_SOURCES)}")
    p = inp.p
    if source == "user-asserted":
        return SurjectivityStatus("holds", "user-asserted", "asserted by the caller")
    if source == "large-p":
        if p >= min_p:
            return SurjectivityStatus("holds", "large-p", f"p={p} >= {min_p}")
        return SurjectivityStatus("unknown", "large-p", f"p={p} < {min_p}")
    if source == "none":
        return SurjectivityStatus("unknown", "none", "no surjectivity source requested")
    # donkin-registry, falling through to the large-p bound on a miss
    hit = lookup_donkin(inp.embedding, p)
    if hit.status == "yes":
        return SurjectivityStatus("holds", "donkin-registry", hit.detail)
    if p >= min_p:
        return SurjectivityStatus(
            "holds", "large-p", f"registry miss; p={p} >= {min_p}")
    return SurjectivityStatus(
        "unknown", "donkin-registry",
        f"registry does not match {inp.embedding.label!r} at p={p} and p < {min_p}")


def _resolve_lie(inp: CriterionInput) -> LieSeparabilityStatus:
    if inp.lie_separability not in (None, "holds", "fails"):
        raise ValueError(
            f"lie_separability flag must be 'holds' or 'fails', got {inp.lie_separability!r}")
    if len(inp.J) == inp.embedding.g.rank:
        # p_J = g, the containment of Lie algebras is the definition of H in G
        return LieSeparabilityStatus("holds", "parabolic-is-full")
    if detect_twist(inp.embedding, inp.p):
        return LieSeparabilityStatus("fails", "frobenius-twist")
    if inp.lie_separability is not None:
        return LieSeparabilityStatus(inp.lie_separability, "user-flag")
    return LieSeparabilityStatus("unknown", "undetermined")


def _orbit_words(g, J: tuple[int, ...]) -> tuple[int, tuple | None]:
    """(|W_J|, the words of W_J), the words None above ORBIT_LABEL_CAP or
    FROBCRIT_ENUM_CAP: |W_J| is the number of kept words, if any, else read
    off R_J^+, and the cap is read, and a bad one refused, only under the
    label cap.  One walk per (G, J), kept with the root data of G."""
    key = (g.components, J, "words")
    words = _kept(key)
    count = len(words) if words is not None else parabolic_weyl_order(g, J)
    if count > ORBIT_LABEL_CAP or count > _resolve_cap(None):
        return count, None
    if words is None:
        words = tuple(walk_parabolic(g, J, ORBIT_LABEL_CAP)[1])
        _keep(key, words, len(words) + sum(map(len, words)))
    return count, words


def check_main(inp: CriterionInput) -> CriterionReport:
    """Evaluate the splitting criterion and assemble tagged conclusions."""
    emb = inp.embedding
    min_p = _valid_min_p(emb)
    if not _is_prime(inp.p):
        raise ValueError(f"p must be prime, got {inp.p}")

    p, J = inp.p, inp.J
    # rho_H = (1, ..., 1) and rho_J = sum of omega_j over J, so with s_i the sum of
    # row i of the restriction over J, 2 rho_H - rho_J|_H = (2 - s_i)_i and
    # rho_H - rho_J|_H = (1 - s_i)_i; a whole Fraction s_i is kept as an int
    sums = [_exact(sum([row[j - 1] for j in J])) for row in emb.restriction]
    cond1 = Weight._of(tuple([2 - s for s in sums]))
    top = max(sums)
    dominant, regular = top <= 2, top < 2
    surjectivity = _resolve_surjectivity(inp, min_p)
    lie = _resolve_lie(inp)

    conclusions, divisor = [], None
    if dominant:
        # which conclusions hold once the splitting exists, in the order the
        # CONDITIONAL statement lists them
        full = len(J) == emb.g.rank
        holds = {
            "SPLIT_PJ": True,
            "GLOBALLY_F_REGULAR": regular,
            "CANONICAL_SPLIT": top <= 1,
            "COR72_HPJ": lie.status == "holds",
            "COR73_FLAG": full,
            "COHOMOLOGY_VANISHING": full,
        }
        count, words = _orbit_words(emb.g, J)
        if not surjectivity.holds:
            would = ", ".join(tag for tag, on in holds.items() if on)
            statements = [(
                "CONDITIONAL",
                f"2 rho_H - rho_J|_H = {coords_text(cond1.coords)} is dominant, but "
                f"surjectivity of restriction on sections of weight (p-1) rho_J is unresolved "
                f"({surjectivity.detail}); if it holds, these follow: {would}",
                "pending-surjectivity")]
        else:
            divisor = DivisorData(Weight._of(tuple(
                [p - 1 if i in J else 0 for i in range(1, emb.g.rank + 1)])), p - 1, J)
            # each statement is formatted only when its tag holds
            statements = [(tag, text(), theorem) for tag, text, theorem in (
                ("SPLIT_PJ",
                 lambda: f"the induced variety H x_BH (P_J/B) is Frobenius split by a "
                 f"splitting of weight (p-1)(2 rho_H - rho_J|_H) with p={p}, J={list(J)}, "
                 f"compatibly with every induced Schubert variety H x_BH X(w), w in W_J",
                 "induced-parabolic-splitting"),
                ("CANONICAL_SPLIT",
                 lambda: f"rho_H - rho_J|_H = {coords_text(1 - s for s in sums)} is dominant, so the "
                 f"splitting of H x_BH (P_J/B) can be chosen B_H-canonical",
                 "canonical-splitting"),
                ("GLOBALLY_F_REGULAR",
                 lambda: f"2 rho_H - rho_J|_H = {coords_text(cond1.coords)} is regular dominant, "
                 f"so H x_BH (P_J/B) and every induced Schubert variety H x_BH X(w), "
                 f"w in W_J, is globally F-regular",
                 "induced-parabolic-splitting"),
                ("COR72_HPJ",
                 lambda: f"Lie(H) + Lie(P_J) separability holds ({lie.source}), so the "
                 f"splitting descends: H P_J/B is Frobenius split compatibly with the H-orbit "
                 f"closures H.X(w) for all w in W_J"
                 f"{'; each orbit closure is globally F-regular' if regular else ''}",
                 "separable-descent"),
                ("COR73_FLAG",
                 lambda: "J is the full index set, so G/B itself is Frobenius split compatibly "
                 "with the closure of every H-orbit H.X(w), w in W",
                 "full-flag-descent"),
                ("COHOMOLOGY_VANISHING",
                 lambda: "for every dominant lambda and every w in W: H^i of the orbit closure "
                 "H.X(w) with coefficients in L(lambda) vanishes for i > 0, and "
                 "H^0(G/B, L(lambda)) -> H^0 of the orbit closure is surjective",
                 "full-flag-descent"),
            ) if holds[tag]]
        conclusions = [Conclusion(*s, count, words) for s in statements]
    return CriterionReport(inp, cond1, dominant, regular, surjectivity, lie, min_p,
                           conclusions, divisor)


class Thm41Report(NamedTuple):
    weight: Weight
    p: int
    condition2_weight: Weight      # 2(p-1) rho_H - lambda|_H
    condition2_holds: bool
    canonical_weight: Weight       # (p-1) rho_H - lambda|_H
    canonical_holds: bool
    surjectivity: SurjectivityStatus
    condition1_status: str         # "steinberg-supplied" | "assumed"
    steinberg_J: tuple[int, ...] | None


def thm41_hypotheses(emb: Embedding, lam: Weight, p: int) -> Thm41Report:
    """Audit the hypotheses of the general splitting theorem at weight lam.

    Condition (1) is supplied automatically when lam has Steinberg shape
    (p-1) rho_J for some J; otherwise the caller must argue it separately.
    """
    min_p = _valid_min_p(emb)
    p = _require_int(p, "p")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    require_dominant_integral(emb.g, lam, "lambda")
    lam_res = restrict(emb, lam)
    cond2 = 2 * (p - 1) * rho_h(emb) - lam_res
    canonical = (p - 1) * rho_h(emb) - lam_res
    steinberg_J: tuple[int, ...] | None = None
    if all(c in (0, p - 1) for c in lam.coords):
        steinberg_J = tuple(i + 1 for i, c in enumerate(lam.coords) if c == p - 1)
    probe = CriterionInput(emb, steinberg_J or (), p, "donkin-registry")
    surjectivity = _resolve_surjectivity(probe, min_p)
    return Thm41Report(
        weight=lam,
        p=p,
        condition2_weight=cond2,
        condition2_holds=cond2.is_dominant(),
        canonical_weight=canonical,
        canonical_holds=canonical.is_dominant(),
        surjectivity=surjectivity,
        condition1_status="steinberg-supplied" if steinberg_J is not None else "assumed",
        steinberg_J=steinberg_J,
    )


def conjugated_borel_check(emb: Embedding, x: WeylElement, J: Iterable[int]) -> bool:
    """Dominance test for the conjugated Borel B_x = x B x^{-1}.

    Requires B_x cap H to be a Borel subgroup of H: for each positive H-root
    the lifted G-root spaces must land entirely on one side of x(R+).  The
    signs carve out the positive system P_x inside the restrictions of
    x(R+), and the test is dominance of 2 rho_H - (x . rho_J)|_H against
    P_x.  For x the identity this is exactly condition (1) of check_main.
    """
    _valid_min_p(emb)  # refuses an embedding that fails validation
    if x.rs != emb.g:
        raise ValueError("conjugating element does not act on the source group")
    members = index_set(emb.g, J)

    x_positive = {x.act_root(beta) for beta in emb.g.positive_roots}
    signs = []  # one per positive H-root, in the order of the coroot table
    for gamma in emb.h.positive_roots:
        fiber = root_fiber(emb, gamma)
        plus = all(r in x_positive for r in fiber)
        minus = all(tuple(-c for c in r) in x_positive for r in fiber)
        if plus == minus:
            raise ValueError(
                f"B_x cap H is not a Borel subgroup of H: the root spaces over "
                f"{gamma} are split by x (word {x.word})")
        signs.append(1 if plus else -1)

    target = 2 * rho_h(emb) - restrict(emb, x.act(rho_J(emb.g, members)))
    return all(sign * sum(t * c for t, c in zip(target.coords, co)) >= 0
               for sign, co in zip(signs, emb.h.coroots))
