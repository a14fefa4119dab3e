"""Independent reference implementations backing the derived test values.

Deliberately naive re-derivations: epsilon-coordinate root models for the
classical types, reflection-orbit root generation, the inverse Cartan matrix,
root coordinates and the pairing <lam, beta_vee> over Fraction, a tree
walk of a Weyl orbit, a brute-force Weyl group closure with determinant
signs, the closed-form
order of each simple Weyl group, Kostant partition counting, the alternating-sum Weyl character formula, Freudenthal's
recursion with every string summed to its top, the W_H-invariance check
of a restricted character on tuples, the lift of each simple reflection
of H to W_G by search over every Weyl matrix, and the coroot sweep for the
length of a Weyl element and the column scan for R_J^+ that the packed
product and the support masks replaced, and the report dict that the
CLI's direct report writer replaced.  None of it reuses the package's
Weyl-group or character machinery beyond single reflections and the
unpacking of an element's key.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

from frobcrit.rootsys import RootSystem, Weight, _unpack, build_root_system, descend, reflect


# ---------------------------------------------------------------------------
# epsilon-coordinate models of the classical root systems


def eps_simple_roots(letter: str, n: int) -> list[tuple[int, ...]]:
    def e(i: int, dim: int, c: int = 1) -> tuple[int, ...]:
        return tuple(c if k == i else 0 for k in range(dim))

    def pair(i: int, j: int, dim: int, cj: int) -> tuple[int, ...]:
        return tuple((1 if k == i else 0) + (cj if k == j else 0) for k in range(dim))

    if letter == "A":
        return [pair(i, i + 1, n + 1, -1) for i in range(n)]
    if letter == "B":
        return [pair(i, i + 1, n, -1) for i in range(n - 1)] + [e(n - 1, n)]
    if letter == "C":
        return [pair(i, i + 1, n, -1) for i in range(n - 1)] + [e(n - 1, n, 2)]
    if letter == "D":
        return [pair(i, i + 1, n, -1) for i in range(n - 1)] + [pair(n - 2, n - 1, n, 1)]
    raise ValueError(letter)


def eps_positive_roots(letter: str, n: int) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()

    def vec(entries: dict[int, int], dim: int) -> tuple[int, ...]:
        return tuple(entries.get(k, 0) for k in range(dim))

    if letter == "A":
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                out.add(vec({i: 1, j: -1}, n + 1))
        return out
    for i in range(n):
        for j in range(i + 1, n):
            if letter in ("B", "C", "D"):
                out.add(vec({i: 1, j: -1}, n))
                out.add(vec({i: 1, j: 1}, n))
        if letter == "B":
            out.add(vec({i: 1}, n))
        if letter == "C":
            out.add(vec({i: 2}, n))
    return out


def _dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def eps_cartan(letter: str, n: int) -> list[list[int]]:
    simple = eps_simple_roots(letter, n)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = 2 * _dot(simple[j], simple[i]) / _dot(simple[i], simple[i])
            assert v.denominator == 1
            row.append(int(v))
        out.append(row)
    return out


def eps_vector_of_root(letter: str, n: int, coords) -> tuple[Fraction, ...]:
    """Map simple-root coordinates to the epsilon model."""
    simple = eps_simple_roots(letter, n)
    dim = len(simple[0])
    return tuple(sum((Fraction(coords[k]) * simple[k][d] for k in range(n)),
                     Fraction(0)) for d in range(dim))


# ---------------------------------------------------------------------------
# reflection-orbit root generation (works for every type)


def reflection_orbit_positive_roots(rs: RootSystem) -> set[tuple[int, ...]]:
    """All positive roots as the W-orbit of the simple roots."""
    n = rs.rank

    def reflect(i: int, c):
        pairing = sum(rs.cartan[i][j] * c[j] for j in range(n))
        return tuple(c[k] - (pairing if k == i else 0) for k in range(n))

    simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(n):
                image = reflect(i, c)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return {c for c in seen if all(x >= 0 for x in c)}


# ---------------------------------------------------------------------------
# the simple-root basis and the pairing over Fraction, and Weyl orbits as a tree


@functools.lru_cache(maxsize=None)
def cartan_inverse(rs: RootSystem) -> tuple[tuple[Fraction, ...], ...]:
    """The inverse Cartan matrix, by Gauss-Jordan elimination over Fraction."""
    n = rs.rank
    aug = [[Fraction(rs.cartan[i][j]) for j in range(n)]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def root_coordinates(rs: RootSystem, weight: Weight) -> tuple[Fraction, ...]:
    """A weight in the simple-root basis (rational in general)."""
    if len(weight) != rs.rank:
        raise ValueError("weight rank mismatch")
    inv = cartan_inverse(rs)
    return tuple(sum(inv[i][j] * weight.coords[j] for j in range(rs.rank))
                 for i in range(rs.rank))


def cartan_pairing(rs: RootSystem, lam: Weight, root) -> Fraction:
    """<lam, beta_vee> for beta given in root coordinates, by its definition.

    With the symmetrizer d, (lam, beta) = sum_i lam_i c_i d_i up to the global
    form scale, and (beta, beta) = sum_j c_j d_j (A c)_j; the pairing
    2 (lam, beta) / (beta, beta) is scale-free.
    """
    if len(lam) != rs.rank or len(root) != rs.rank:
        raise ValueError("rank mismatch in pairing")
    d = rs.symmetrizer
    numer = 2 * sum(lam.coords[i] * root[i] * d[i] for i in range(rs.rank))
    denom = sum(root[j] * d[j]
                * sum(rs.cartan[j][k] * root[k] for k in range(rs.rank))
                for j in range(rs.rank))
    if denom == 0:
        raise ValueError("pairing against the zero vector")
    return Fraction(numer, 1) / denom


def orbit_walk(rs: RootSystem, start, alphas=None):
    """Yield each element of the W-orbit of the dominant ``start`` once.

    A tree walk (Stembridge, MSJ Memoirs 11, 2001): the parent of a
    non-dominant mu is s_j mu, j its first negative coordinate, so no
    seen-set is kept.  Coordinates that ``start`` and ``alphas`` (default
    ``rs.alphas``) carry past the rank follow linearly, e.g. Res(mu).
    """
    n = rs.rank
    alphas = rs.alphas if alphas is None else alphas
    stack = [(tuple(start), n)]
    while stack:
        nu, first = stack.pop()
        yield nu
        for i in range(n):
            c = nu[i]
            if c <= 0:
                continue
            # nu is the parent of s_i nu only if i is the first negative
            # coordinate of s_i nu; below `first` that holds by itself
            if i > first and nu[first] < c * alphas[i][first]:
                continue
            child = tuple([x - c * a for x, a in zip(nu, alphas[i])])
            if i > first and min(child[:i]) < 0:
                continue
            stack.append((child, i))


# ---------------------------------------------------------------------------
# brute-force Weyl group with signs, Kostant partitions, character formula


def brute_weyl_with_signs(rs: RootSystem) -> dict[tuple, int]:
    """{fundamental-coordinate matrix: det} for every Weyl element."""
    n = rs.rank
    gens = []
    for i in range(n):
        gens.append(tuple(tuple((1 if r == c else 0) - (rs.cartan[r][i] if c == i else 0)
                                for c in range(n)) for r in range(n)))

    def mul(a, b):
        return tuple(tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
                     for r in range(n))

    ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    out = {ident: 1}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                cand = mul(m, g)
                if cand not in out:
                    out[cand] = -out[m]
                    nxt.append(cand)
        frontier = nxt
    return out


class KostantCounter:
    """Number of ways to write a root-lattice vector as a nonnegative sum
    of positive roots."""

    def __init__(self, rs: RootSystem) -> None:
        self.positives = list(rs.positive_roots)
        self.memo: dict[tuple[tuple[int, ...], int], int] = {}

    def count(self, vec: tuple[int, ...], idx: int = 0) -> int:
        if all(x == 0 for x in vec):
            return 1
        if any(x < 0 for x in vec) or idx >= len(self.positives):
            return 0
        key = (vec, idx)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        total = 0
        current = vec
        while True:
            total += self.count(current, idx + 1)
            current = tuple(a - b for a, b in zip(current, self.positives[idx]))
            if any(x < 0 for x in current):
                break
        self.memo[key] = total
        return total


def character_multiplicity_oracle(rs: RootSystem, lam: Weight, mu: Weight,
                                  weyl=None, kostant: KostantCounter | None = None) -> int:
    """Alternating-sum Weyl character formula:
    m(mu) = sum_w sign(w) P(w(lam + rho) - (mu + rho))."""
    n = rs.rank
    if weyl is None:
        weyl = brute_weyl_with_signs(rs)
    if kostant is None:
        kostant = KostantCounter(rs)
    rho = Weight([1] * n)
    shifted = (lam + rho).coords
    target = (mu + rho).coords
    inv = cartan_inverse(rs)
    total = 0
    for matrix, sign in weyl.items():
        moved = tuple(sum(matrix[r][c] * shifted[c] for c in range(n)) for r in range(n))
        diff = tuple(m - t for m, t in zip(moved, target))
        coords = []
        ok = True
        for i in range(n):
            x = sum((inv[i][j] * diff[j] for j in range(n)), Fraction(0))
            if x.denominator != 1 or x < 0:
                ok = False
                break
            coords.append(int(x))
        if ok:
            total += sign * kostant.count(tuple(coords))
    return total


def a1_tensor(a: int, b: int) -> list[int]:
    """Clebsch-Gordan for sl2: highest weights of (a) x (b)."""
    return list(range(abs(a - b), a + b + 1, 2))


_EXCEPTIONAL_WEYL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                            ("F", 4): 1152, ("G", 2): 12}


def closed_weyl_order(letter: str, n: int) -> int:
    """|W| of a simple type in closed form, as Bourbaki's Plates I-IX give
    it: (n + 1)! for A_n, 2^n n! for B_n and C_n, 2^(n-1) n! for D_n, and
    the five exceptional orders."""
    if letter == "A":
        return math.factorial(n + 1)
    if letter in "BC":
        return 2 ** n * math.factorial(n)
    if letter == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return _EXCEPTIONAL_WEYL_ORDERS[(letter, n)]


def permutation_inversion_histogram(n: int) -> dict[int, int]:
    """Length distribution of S_n as inversion counts."""
    hist: dict[int, int] = {}
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        hist[inv] = hist.get(inv, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# Freudenthal's recursion with every string summed to its top


def reference_freudenthal(rs: RootSystem, lam: Weight) -> dict[tuple, int]:
    """{dominant weight coordinates: multiplicity} of the module with highest
    weight lam.

    Freudenthal's recursion as it was written before string tails were
    stored: each string mu + k beta is summed to its top, point by point;
    sl2 is answered directly (every multiplicity is one), and a product
    multiplies its factors' dominant maps.
    """
    if rs.components == (("A", 1),):
        return {(c,): 1 for c in range(lam.coords[0], -1, -2)}
    if len(rs.components) > 1:
        factor_maps = [reference_freudenthal(build_root_system([comp]),
                                             Weight(lam.coords[lo:hi]))
                       for (lo, hi), comp in zip(rs.component_spans, rs.components)]
        mults: dict[tuple, int] = {}
        for combo in itertools.product(*(fm.items() for fm in factor_maps)):
            m = 1
            for _, factor_mult in combo:
                m *= factor_mult
            mults[tuple(c for w, _ in combo for c in w)] = m
        return mults

    n = rs.rank
    isym = rs.symmetrizer
    pos = []
    for beta, bw in zip(rs.positive_roots, rs.positive_weights):
        coef = tuple(beta[k] * isym[k] for k in range(n))
        ip_bb = sum(coef[k] * bw[k] for k in range(n))
        pos.append((bw, beta, coef, ip_bb))

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
    mults_t: dict[tuple, int] = {lam_t: 1}
    for mu_t in ordered[1:]:
        acc = 0
        for bw, _, coef, ip_bb in pos:
            base = sum(coef[k] * mu_t[k] for k in range(n))
            k = 1
            nu = tuple(mu_t[j] + bw[j] for j in range(n))
            while True:
                key = nu if min(nu) >= 0 else descend(rs, nu)[0]
                m = mults_t.get(key)
                if m is None:
                    break
                acc += m * (base + k * ip_bb)
                k += 1
                nu = tuple(nu[j] + bw[j] for j in range(n))
        diff = dom[mu_t]
        denom = sum(diff[k] * isym[k] * (lam_t[k] + mu_t[k] + 2) for k in range(n))
        value, remainder = divmod(2 * acc, denom)
        assert remainder == 0 and value > 0, mu_t
        mults_t[mu_t] = value
    return mults_t


# ---------------------------------------------------------------------------
# W_H-invariance of a restricted character, one reflection at a time


def reference_broken_pairs(h: RootSystem, restricted: dict) -> list:
    """(nu, s_i nu) with nu_i < 0 where the two multiplicities differ, for
    every weight nu of ``restricted`` ({H-weight tuple: multiplicity}) and
    every i with nu_i != 0: the check ``charalg.branch`` made on tuples before
    it made it on packed keys."""
    broken = []
    for nu, m in restricted.items():
        for i, c in enumerate(nu, 1):
            if c:
                image = reflect(h, nu, i)
                if restricted.get(image, 0) != m:
                    broken.append((nu, image) if c < 0 else (image, nu))
    return broken


def reference_numerator_certificate(emb) -> tuple | None:
    """The restrictions of the positive G-roots, in ``g.positive_roots``
    order, with the first one over each positive H-root struck out; None
    for a fractional restriction matrix, a positive G-root restricting to
    0, or a positive H-root over which no positive G-root is left."""
    def weight(rs, root):  # root coordinates to fundamental ones, by the Cartan matrix
        return tuple(sum(rs.cartan[i][j] * root[j] for j in range(rs.rank))
                     for i in range(rs.rank))

    if any(Fraction(x).denominator != 1 for row in emb.restriction for x in row):
        return None
    images = [tuple(sum(row[j] * w[j] for j in range(emb.g.rank)) for row in emb.restriction)
              for w in (weight(emb.g, beta) for beta in emb.g.positive_roots)]
    if any(all(c == 0 for c in image) for image in images):
        return None
    wanted = collections.Counter(weight(emb.h, gamma) for gamma in emb.h.positive_roots)
    kept = []
    for image in images:
        if wanted[image]:
            wanted[image] -= 1
        else:
            kept.append(image)
    if any(wanted.values()):
        return None
    return tuple(kept)


@functools.lru_cache(maxsize=None)
def _weyl_matrices(rs: RootSystem) -> tuple:
    return tuple(brute_weyl_with_signs(rs))


def reference_lifts(emb) -> tuple[bool, ...]:
    """For each simple root alpha_i of H, whether some w in W_G has
    R w = s_i R, R the restriction matrix: every w of ``brute_weyl_with_signs``
    on fundamental coordinates is tried, so |W_G| is kept small by callers."""
    g, h, rows = emb.g, emb.h, emb.restriction
    products = {tuple(tuple(sum(row[r] * w[r][c] for r in range(g.rank)) for c in range(g.rank))
                      for row in rows)
                for w in _weyl_matrices(g)}
    # (s_i nu)_j = nu_j - a_ji nu_i on H fundamental coordinates
    return tuple(tuple(tuple(rows[j][c] - h.cartan[j][i] * rows[i][c] for c in range(g.rank))
                       for j in range(h.rank)) in products
                 for i in range(h.rank))


# ---------------------------------------------------------------------------
# Weyl-element length and R_J^+, one root at a time


def reference_length(w) -> int:
    """l(w) as the number of coroots beta_vee with <w rho, beta_vee> < 0,
    one dot product per positive root, w rho unpacked from w's key."""
    rs = w.rs
    x = next(zip(*_unpack([w.key], rs.rho_layout)))
    return sum(1 for c in rs.coroots if sum(map(operator.mul, x, c)) < 0)


def reference_positive_roots_on(rs: RootSystem, members: tuple[int, ...]) -> list:
    """R_J^+ in the order of ``rs.positive_roots``: the columns of the root
    table outside J are read, and a root is kept where they are all 0."""
    roots = rs.positive_roots
    outside = [col for k, col in enumerate(zip(*roots)) if k + 1 not in members]
    if not outside:
        return list(roots)
    return list(itertools.compress(roots, map(operator.not_, map(any, zip(*outside)))))


# ---------------------------------------------------------------------------
# the frobcrit-report/1 object of a criterion report


def report_dict(report) -> dict:
    """The report as the plain dict whose ``json.dumps(..., indent=2,
    sort_keys=True)`` the CLI prints: the dict the CLI built and serialised
    before it wrote the text directly.  Every rational is ``str(Fraction)``."""
    inp, emb = report.input, report.input.embedding

    def labels(words):
        return [list(w) for w in words] if words is not None else None

    def numbers(w):
        return [str(Fraction(c)) for c in w.coords]

    return {
        "schema": "frobcrit-report/1",
        "input": {
            "embedding": {
                "label": emb.label,
                "g": emb.g.spec_string(),
                "h": emb.h.spec_string(),
                "restriction": [[str(Fraction(x)) for x in row] for row in emb.restriction],
                "twist_exponent": emb.twist_exponent,
            },
            "J": list(inp.J),
            "p": inp.p,
            "surjectivity_source": inp.surjectivity_source,
            "lie_separability_flag": inp.lie_separability,
        },
        "lemma53_min_p": report.lemma53_min_p,
        "condition1": {
            "weight": numbers(report.condition1_weight),
            "dominant": report.condition1_dominant,
            "regular": report.condition1_regular,
        },
        "surjectivity": {
            "status": report.surjectivity.status,
            "source": report.surjectivity.source,
            "detail": report.surjectivity.detail,
        },
        "lie_separability": {
            "status": report.lie_separability.status,
            "source": report.lie_separability.source,
        },
        "conclusions": [
            {
                "tag": c.tag,
                "statement": c.statement,
                "theorem": c.theorem,
                "orbit_count": c.orbit_count,
                "orbit_labels": labels(c.orbit_labels),
            }
            for c in report.conclusions
        ],
        "divisor": {
            "weight": numbers(report.divisor.weight),
            "multiplicity": report.divisor.multiplicity,
            "indices": list(report.divisor.indices),
        } if report.divisor is not None else None,
    }
