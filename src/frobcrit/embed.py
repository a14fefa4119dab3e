"""Embeddings of reductive subgroups, described on the weight level.

An embedding H -> G is recorded by the linear map that restriction of
characters induces on fundamental-weight coordinates: a rank(H) x rank(G)
rational matrix.  Torus factors are never represented; builders that would
produce one (a Levi with nontrivial center, the orthogonal groups inside
special linear groups) project to the semisimple coordinates, i.e. row k of
the matrix is the pairing of the restricted weight with the k-th simple
coroot of H.

Borel compatibility (B_H = B cap H) makes every positive H-root the
restriction of a positive G-root.  ``Embedding.root_images`` restricts the
positive G-roots once, on first read; ``validate``, ``root_fiber`` and the
numerator certificate of ``charalg`` all read that one table.
``Embedding.reflection_lifts``, also read once, certifies that every
restricted G-character is W_H-invariant, which ``charalg.branch`` then
does not check.

Each builder stamps a structured ``label`` used by the Donkin-pair registry
for provenance matching, e.g. ``"levi:C2:J=[1]"`` or ``"so_in_sl:n=6"``.

``CriterionInput`` adds the index set J and the prime p; it sits here so that
``registry`` can build inputs while ``criteria`` imports ``registry``.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property

from .rootsys import (
    RootSystem,
    RootVector,
    Weight,
    _exact,
    _pack,
    _require_int,
    build_root_system,
    descend,
    index_set,
    require_rank,
    root_to_weight,
    subsystem_components,
)


class Embedding:
    """H -> G with restriction matrix on fundamental coordinates.

    ``root_lift``, when given, maps each positive root of H (root
    coordinates) to the tuple of G-roots whose root spaces span the
    corresponding root space of Lie(H).  When absent, the fiber of the
    restriction map over the root is used.  ``twist_exponent`` marks
    factors embedded through a power of Frobenius.
    """

    def __init__(self, g: RootSystem, h: RootSystem, restriction, label: str,
                 twist_exponent: int | None = None,
                 root_lift: dict[RootVector, tuple[RootVector, ...]] | None = None) -> None:
        self.g = g
        self.h = h
        rows = tuple(tuple(_exact(x) for x in row) for row in restriction)
        if len(rows) != h.rank or any(len(r) != g.rank for r in rows):
            if len(set(map(len, rows))) > 1:  # ragged: name its first row of the wrong length
                i = next(i for i, r in enumerate(rows, 1) if len(r) != g.rank)
                got = f"row {i} of length {len(rows[i - 1])}"
            else:
                got = f"{len(rows)} x {len(rows[0]) if rows else 0}"
            raise ValueError(f"restriction matrix must be {h.rank} x {g.rank}, got {got}")
        self.restriction = rows
        self.label = str(label)
        self.twist_exponent = twist_exponent
        self.root_lift = root_lift

    def restrict_coords(self, coords: Sequence) -> tuple:
        """The restriction matrix times G fundamental-weight coordinates."""
        return tuple(sum(r * c for r, c in zip(row, coords)) for row in self.restriction)

    @cached_property
    def root_images(self) -> tuple[tuple, ...]:
        """The restriction of each positive G-root, in H fundamental
        coordinates and ``g.positive_roots`` order, restricted on first read."""
        return tuple(map(self.restrict_coords, self.g.positive_weights))

    @cached_property
    def integer_rows(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(scale, rows): the least positive integer that makes the
        restriction matrix integral, and the matrix times it, as int rows;
        computed on first read, for ``reflection_lifts``, both ``charalg.branch``
        kernels and the key of their kept tables."""
        scale = math.lcm(*(x.denominator for row in self.restriction for x in row))
        return scale, tuple(tuple(int(x * scale) for x in row) for row in self.restriction)

    @cached_property
    def reflection_lifts(self) -> tuple[bool, ...]:
        """For each simple root alpha_i of H, whether some w in W_G has
        R w = s_i R on G-weights, R the restriction matrix; decided on first read.

        Where every entry holds, Res(e^{w mu}) = e^{s_i Res mu}, so every
        restricted G-character is W_H-invariant.  R w = s_i R says that
        x = w^{-1} maps the G-coweight h_j = R^T alpha_j_vee of each row j to
        h'_j = h_j - a_ji h_i, a the Cartan matrix of H.  With R scaled to
        integers (``integer_rows``), the rows are packed as z = sum_j B^j h_j and
        z' = sum_j B^j h'_j; x exists exactly when z and z' descend to the
        same dominant point, since a W_G-orbit meets the dominant chamber
        once (Humphreys, Reflection Groups and Coxeter Groups, 1.12), and
        then u z = u' z' for the descents u, u' gives u h_j = u' h'_j digit
        by digit, so x = u'^{-1} u: <alpha_l, u h_j> = <u^{-1} alpha_l, h_j>
        pairs h_j with a root, so it is at most M = 3 max_j sum_k |R_jk| in
        size, as |<beta, alpha_k_vee>| <= 3, that of u' h'_j at most 4 M,
        and B = 10 M + 1.  A coweight h is descended by ``rootsys.descend``
        as the weight nu with (nu, beta) = <beta, h>, which W_G moves with
        it: nu_l = <alpha_l, h> / d_l, scaled by lcm(d) to integers.  One
        descent of at most |Phi_G^+| steps per coweight, and no Weyl group
        is walked.
        """
        g, h, rows = self.g, self.h, self.integer_rows[1]
        powers = [(30 * max(sum(map(abs, row)) for row in rows) + 1) ** j for j in range(h.rank)]
        unit = math.lcm(*g.symmetrizer)
        units = [unit // d for d in g.symmetrizer]

        def weight(f):  # nu for the coweight mu -> sum_k f_k mu_k, times lcm(d)
            return [u * sum(map(operator.mul, f, alpha)) for u, alpha in zip(units, g.alphas)]

        z = weight([_pack(col, powers) for col in zip(*rows)])
        top = descend(g, z)[0]
        # z' = z - pack(alpha_i) h_i, alpha_i holding the a_ji
        return tuple(descend(g, [a - _pack(alpha, powers) * b for a, b in zip(z, weight(row))])[0]
                     == top for alpha, row in zip(h.alphas, rows))

    def __repr__(self) -> str:
        return f"Embedding({self.label!r})"


# lie_separability is an optional caller assertion: "holds" | "fails"
class CriterionInput(namedtuple("CriterionInput", "embedding J p surjectivity_source "
                                "lie_separability", defaults=("donkin-registry", None))):
    """One criterion instance: embedding, parabolic index set, prime.

    Every construction path, ``_replace`` and ``_make`` included, runs J
    through ``index_set`` and refuses a p that is not an int.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        emb, J, p, *rest = super().__new__(cls, *args, **kwargs)
        return super().__new__(cls, emb, index_set(emb.g, tuple(J)), _require_int(p, "p"), *rest)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)


def restrict(emb: Embedding, weight: Weight) -> Weight:
    """Restriction of a G-weight to H, in H fundamental coordinates."""
    if len(weight) != emb.g.rank:
        raise ValueError(
            f"weight has rank {len(weight)}, embedding source has rank {emb.g.rank}")
    return Weight(emb.restrict_coords(weight.coords))


def rho_h(emb: Embedding) -> Weight:
    """rho of the subgroup: all H fundamental coordinates equal 1."""
    return Weight([1] * emb.h.rank)


def validate(emb: Embedding) -> list[str]:
    """Sanity checks; returns a list of violation strings, empty when clean.

    The load-bearing check: every positive root of H must be the restriction
    of at least one positive root of G, otherwise Borel compatibility
    (B_H = B cap H) is broken and every criterion downstream is meaningless.
    A ``root_lift`` must lift every positive root gamma of H to at least one
    vector, and each must be a G-root restricting to gamma.
    """
    violations: list[str] = []
    g_restrictions = set(emb.root_images)
    for gamma, target in zip(emb.h.positive_roots, emb.h.positive_weights):
        if target not in g_restrictions:
            violations.append(
                f"positive root {gamma} of {emb.h.spec_string()} is not the "
                f"restriction of any positive root of {emb.g.spec_string()}")
    if emb.root_lift is not None:
        images = dict(zip(emb.g.positive_roots, emb.root_images))
        images.update({tuple(-c for c in beta): tuple(-x for x in image)
                       for beta, image in images.items()})
        for gamma, target in zip(emb.h.positive_roots, emb.h.positive_weights):
            if gamma not in emb.root_lift:
                violations.append(f"root_lift is missing the positive root {gamma}")
                continue
            if not emb.root_lift[gamma]:
                violations.append(f"root_lift lifts the positive root {gamma} to no vector")
            for beta in emb.root_lift[gamma]:
                if images.get(tuple(beta)) != target:
                    violations.append(
                        f"root_lift lifts the positive root {gamma} to {beta}, which is "
                        f"not a root of {emb.g.spec_string()} restricting to it")
    return violations


def root_fiber(emb: Embedding, gamma: Sequence[int]) -> tuple[RootVector, ...]:
    """G-roots spanning the gamma root space of Lie(H) inside Lie(G).

    Uses the explicit lift when the builder supplied one, else the full
    restriction fiber over gamma among all (positive and negative) G-roots,
    read off ``root_images``.
    """
    gamma = tuple(gamma)
    target = root_to_weight(emb.h, gamma).coords  # refuses a gamma of the wrong rank
    if emb.root_lift is not None and gamma in emb.root_lift:
        return emb.root_lift[gamma]
    negated = tuple(-c for c in target)
    fiber = []
    for beta, image in zip(emb.g.positive_roots, emb.root_images):
        if image == target:
            fiber.append(beta)
        if image == negated:
            fiber.append(tuple(-c for c in beta))
    if not fiber:
        raise ValueError(f"no G-root restricts to the H-root {gamma}")
    return tuple(fiber)


def detect_twist(emb: Embedding, p: int) -> bool:
    """Whether some factor of G acts on H-weights through Frobenius mod p.

    True when the builder recorded a twist exponent, or when the restriction
    columns of an entire component of G are nonzero integers all divisible
    by p (the weight-level shadow of a p-th power map); requires p >= 2.
    """
    if _require_int(p, "p") < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if emb.twist_exponent is not None:
        return True
    for lo, hi in emb.g.component_spans:
        block = [emb.restriction[i][j] for i in range(emb.h.rank) for j in range(lo, hi)]
        if all(x == 0 for x in block):
            continue
        if all(x.denominator == 1 and x.numerator % p == 0 for x in block):
            return True
    return False


# ---------------------------------------------------------------------------
# builders


def identity(h) -> Embedding:
    h = _as_root_system(h)
    eye = [[1 if i == j else 0 for j in range(h.rank)] for i in range(h.rank)]
    return Embedding(h, h, eye, f"identity:{h.spec_string()}")


def levi(rs, J: Iterable[int]) -> Embedding:
    """The semisimple part of the standard Levi subgroup L_J inside G.

    H-coordinates are pairings with the simple coroots indexed by J, so the
    central character of L_J is dropped.  The root spaces of H are literally
    root spaces of G, recorded in ``root_lift``.
    """
    g = _as_root_system(rs)
    members = index_set(g, tuple(J))  # refusing None, which index_set reads as every node
    if not members:
        raise ValueError("a Levi embedding needs a nonempty index set J")
    pieces = subsystem_components(g, members)
    order = [v for _, _, verts in pieces for v in verts]
    h = build_root_system([(letter, rank) for letter, rank, _ in pieces])
    rows = [[1 if j == v else 0 for j in range(g.rank)] for v in order]
    # gamma's coordinates on the vertices J; ``validate`` checks each lift
    lift: dict[RootVector, tuple[RootVector, ...]] = {}
    for gamma in h.positive_roots:
        beta = [0] * g.rank
        for k, v in enumerate(order):
            beta[v] = gamma[k]
        lift[gamma] = (tuple(beta),)
    label = f"levi:{g.spec_string()}:J={list(members)}"
    return Embedding(g, h, rows, label, root_lift=lift)


def diagonal(h, k: int) -> Embedding:
    """H diagonally inside H x ... x H (k factors); k = 1 is the identity."""
    h = _as_root_system(h)
    k = _require_int(k, "k")
    if k < 1:
        raise ValueError("diagonal embedding needs k >= 1")
    require_rank(h.rank * k)  # before the k-fold component list is made
    g = build_root_system(list(h.components) * k)
    eye = [[1 if i == j else 0 for j in range(h.rank)] for i in range(h.rank)]
    rows = [row * k for row in eye]
    return Embedding(g, h, rows, f"diagonal:{h.spec_string()}:k={k}")


def folding_AC(m: int) -> Embedding:
    """Sp_2m inside SL_2m: fold A_{2m-1} by its diagram involution."""
    m = _require_int(m, "m")
    if m < 2:
        raise ValueError("folding_AC needs m >= 2")
    g = build_root_system([("A", 2 * m - 1)])
    h = build_root_system([("C", m)])
    rows = []
    for i in range(1, m):
        rows.append([1 if j + 1 in (i, 2 * m - i) else 0 for j in range(g.rank)])
    rows.append([1 if j + 1 == m else 0 for j in range(g.rank)])
    return Embedding(g, h, rows, f"folding_AC:m={m}")


def folding_DB(n: int) -> Embedding:
    """SO_{2n-1} inside SO_2n: fold D_n by the swap of the fork vertices."""
    n = _require_int(n, "n")
    if n < 4:
        raise ValueError("folding_DB needs n >= 4")
    g = build_root_system([("D", n)])
    h = build_root_system([("B", n - 1)])
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n - 2)]
    rows.append([1 if j >= n - 2 else 0 for j in range(n)])
    return Embedding(g, h, rows, f"folding_DB:n={n}")


def folding_E6F4() -> Embedding:
    """F4 inside E6, folding by the diagram involution 1<->6, 3<->5."""
    g = build_root_system([("E", 6)])
    h = build_root_system([("F", 4)])
    rows = [
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 1, 0],
        [1, 0, 0, 0, 0, 1],
    ]
    return Embedding(g, h, rows, "folding_E6F4")


def folding_B3G2() -> Embedding:
    """G2 inside Spin_7 (the fixed points of triality, seen from B3)."""
    g = build_root_system([("B", 3)])
    h = build_root_system([("G", 2)])
    rows = [
        [1, 0, 1],
        [0, 1, 0],
    ]
    return Embedding(g, h, rows, "folding_B3G2")


def _so_coords(lam: Sequence[int], n: int) -> tuple[int, ...]:
    # epsilon-coordinates of the restricted weight: c_k = lam_k + ... + lam_{n-1}
    c = [sum(lam[k:]) for k in range(n - 1)] + [0]
    m = n // 2
    a = [c[k] - c[n - 1 - k] for k in range(m)]
    if n % 2 == 1:
        if m == 1:
            return (2 * a[0],)
        return tuple(a[k] - a[k + 1] for k in range(m - 1)) + (2 * a[m - 1],)
    if m == 2:
        return (a[0] - a[1], a[0] + a[1])
    return tuple(a[k] - a[k + 1] for k in range(m - 1)) + (a[m - 2] + a[m - 1],)


def so_in_sl(n: int) -> Embedding:
    """SO_n inside SL_n (fixed points of the transpose-inverse involution).

    H is the semisimple type B_{(n-1)/2} or D_{n/2}, with the low-rank
    aliases so_3 = A1, so_4 = A1 x A1, so_6 = D3.
    """
    n = _require_int(n, "n")
    if n < 3:
        raise ValueError("so_in_sl needs n >= 3")
    g = build_root_system([("A", n - 1)])
    m = n // 2
    if n % 2 == 1:
        comps = [("B", m)] if m >= 2 else [("A", 1)]
    else:
        comps = [("D", m)] if m >= 3 else [("A", 1), ("A", 1)]
    h = build_root_system(comps)
    cols = []
    for i in range(n - 1):
        lam = [0] * (n - 1)
        lam[i] = 1
        cols.append(_so_coords(lam, n))
    rows = [[cols[j][i] for j in range(n - 1)] for i in range(h.rank)]
    return Embedding(g, h, rows, f"so_in_sl:n={n}")


def frobenius_twisted_diagonal(h, p: int) -> Embedding:
    """H in H x H by (id, Frobenius^p) on the weight level: lam + p mu."""
    h = _as_root_system(h)
    p = _require_int(p, "p")
    if p < 2:
        raise ValueError("frobenius twist needs p >= 2")
    g = build_root_system(list(h.components) * 2)
    rows = [[0] * (2 * h.rank) for _ in range(h.rank)]
    for i in range(h.rank):
        rows[i][i] = 1
        rows[i][h.rank + i] = p
    label = f"frobenius_twisted_diagonal:{h.spec_string()}:p={p}"
    return Embedding(g, h, rows, label, twist_exponent=p)


def _as_root_system(spec) -> RootSystem:
    if isinstance(spec, RootSystem):
        return spec
    return build_root_system(spec)
