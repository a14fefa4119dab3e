"""Exact root-system kernel.

Root systems are built from Bourbaki data for the simple types A-G and
finite products thereof.  ``_simple_type`` is the one table of it: each
simple type's Dynkin edges and the half squared lengths d_i of its simple
roots, short roots d = 1 (Bourbaki, Lie Groups and Lie Algebras, Ch. VI,
Plates I-IX).  ``_cartan`` is the one Cartan builder, a_ij =
-max(d_i, d_j) / d_i on an edge; a product puts its components' edges and d
side by side and is built by it once, and its positive roots are the
closure of that matrix.  Roots are integer vectors in the simple-root basis;
weights are rational vectors in the fundamental-weight basis, so coords[i]
is the pairing with the i-th simple coroot.  Everything is exact
(``fractions.Fraction``); no floats anywhere.

Simple roots are numbered 1..rank in all public interfaces.  The Cartan
matrix convention is ``cartan[i][j] = <alpha_j, alpha_i_vee>`` (0-based
internally), so the j-th column of the Cartan matrix is alpha_j written in
fundamental-weight coordinates (``RootSystem.alphas``).  Every Weyl-group
step s_i mu = mu - mu_i alpha_i is ``reflect``, and ``descend`` repeats it
toward dominance.  ``orbit_table`` lists the orbit of every dominant weight
with a given support at once, as indices into the fundamental orbits
(``fundamental_orbit``), and keeps it across calls; it is the one orbit
enumerator of the package, and it and ``fundamental_orbit`` are each one
breadth-first pass; ``orbit_layers`` gives where each layer starts, so on
the regular orbit the sign eps(w) of every row; an orbit above
FROBCRIT_ENUM_CAP (``_resolve_cap``) is refused before its table is built.
The same cache keeps ``weyl.rho_shifts``, every w of W with rho - w rho,
its height and its sign, for the Racah-Speiser sum, and the orbit labels of
``criteria``.
``parabolic_weyl_order`` is |W_J| from the heights of R_J^+, the positive
roots supported on J (``positive_roots_on``, one AND per root against its
bitmask in ``RootSystem.support_masks``), ``RootSystem.weyl_order`` is
|W|, and ``orbit_size`` the size of the orbit of a dominant weight; no
subdiagram is classified for them.  ``subsystem_components`` classifies one,
in Bourbaki's vertex order, for ``embed.levi``.  ``_layout`` is
the one layout of packed int keys, for ``weyl`` and both ``charalg.branch``
kernels, beside its packer, unpacker and top-bit test; the coroot table is
kept packed by columns in it too (``RootSystem.coroot_columns``), for
``weyl``'s length.

The symmetrizer and the coroot table are integers, and every pairing
<lam, gamma_vee> in the package reads ``RootSystem.coroots`` as
sum_k lam_k c_k(gamma).  A product's symmetrizer is its components' d,
concatenated, each component on its own scale: a pairing reads one
component, where it is scale-free, and Freudenthal's recursion holds for
any positive scale of each component's form, so no output depends on it.
``cartan_pairing`` is the Fraction definition, kept as public API.
"""

from __future__ import annotations

import operator
import os
import re
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterable, Sequence

RootVector = tuple[int, ...]

_SPEC_RE = re.compile(r"^([A-G])([0-9]+)$")

# the largest rank of a root system that is built at all: check_main's cost
# grows about as rank^3.5 (0.07 s on identity:B16, 0.8 s on identity:B32,
# Python 3.11 on 2 vCPUs)
MAX_RANK = 16

DEFAULT_ENUM_CAP = 10 ** 6
_ENUM_CAP_ENV = "FROBCRIT_ENUM_CAP"


def _simple_type(letter: str, rank: int) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """One simple component's Bourbaki data (Plates I-IX): its Dynkin edges,
    0-based, and the half squared lengths d_i of its simple roots, short
    roots d = 1."""
    chain = [(i, i + 1) for i in range(rank - 1)]
    if letter == "A" and rank >= 1:
        return chain, (1,) * rank
    if letter == "B" and rank >= 2:
        return chain, (2,) * (rank - 1) + (1,)
    if letter == "C" and rank >= 2:
        return chain, (1,) * (rank - 1) + (2,)
    if letter == "D" and rank >= 3:  # the fork edge (rank-2, rank); D3 = A3
        return chain[:-1] + [(rank - 3, rank - 1)], (1,) * rank
    if letter == "E" and rank in (6, 7, 8):  # alpha_2 hangs off alpha_4
        return [(0, 2), (1, 3)] + chain[2:], (1,) * rank
    if letter == "F" and rank == 4:
        return chain, (2, 2, 1, 1)
    if letter == "G" and rank == 2:
        return chain, (1, 3)
    raise ValueError(f"invalid simple component {letter}{rank}")


def _cartan(edges: Iterable[tuple[int, int]], d: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of a Dynkin diagram with root lengths d: 2 on the
    diagonal, a_ij = -max(d_i, d_j) / d_i on an edge, 0 elsewhere."""
    a = [[2 * (i == j) for j in range(len(d))] for i in range(len(d))]
    for i, j in edges:
        long = max(d[i], d[j])
        a[i][j], a[j][i] = -(long // d[i]), -(long // d[j])
    return tuple(map(tuple, a))


def _positive_closure(cartan: Sequence[Sequence[int]]) -> list[RootVector]:
    """All positive roots by height: the simple roots closed under the steps
    beta -> s_i beta = beta - <beta, alpha_i_vee> alpha_i that raise beta
    (pairing < 0).  A positive root that is not simple has some pairing > 0,
    and s_i beta is then a positive root of lower height, so every positive
    root is reached from a simple one by raising steps."""
    n = len(cartan)
    rows = [[(k, a) for k, a in enumerate(row) if a] for row in cartan]  # i and its neighbours
    roots = {tuple(int(k == i) for k in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i, row in enumerate(rows):
            c = sum(a * beta[k] for k, a in row)
            if c < 0:
                up = beta[:i] + (beta[i] - c,) + beta[i + 1:]
                if up not in roots:
                    roots.add(up)
                    frontier.append(up)
    return sorted(roots, key=lambda r: (sum(r), r))


def _exact(c):
    """An int, or a Fraction for a genuinely fractional entry (ints hash and
    add an order of magnitude faster); a float is a binary approximation and
    a bool is no number, so both are refused rather than converted."""
    if type(c) is int:
        return c
    if isinstance(c, (bool, float)):
        raise TypeError(f"{c!r} is not an exact number: give an int, a Fraction "
                        f"or a string such as '1/2'")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Weight:
    """A weight in fundamental-weight coordinates, exact rational entries."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable) -> None:
        self.coords: tuple[int | Fraction, ...] = tuple(_exact(c) for c in coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise ValueError("weight rank mismatch")
        return Weight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise ValueError("weight rank mismatch")
        return Weight(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Weight":
        return Weight(-c for c in self.coords)

    def __mul__(self, scalar) -> "Weight":
        scalar = _exact(scalar)
        return Weight(c * scalar for c in self.coords)

    __rmul__ = __mul__

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def is_regular_dominant(self) -> bool:
        return all(c > 0 for c in self.coords)

    def __repr__(self) -> str:
        return "Weight(%s)" % ", ".join(str(c) for c in self.coords)


def coords_text(coords: Iterable) -> str:
    """Weight coordinates as the package prints them in texts: ``(7/2)``,
    ``(1, 0)``, with no trailing comma for rank 1."""
    return "(" + ", ".join(map(str, coords)) + ")"


def _require_int(value, what: str) -> int:
    # bools are ints to Python but not to a JSON reader; floats would truncate
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def _resolve_cap(cap: int | None, env_name: str = _ENUM_CAP_ENV,
                 default: int = DEFAULT_ENUM_CAP) -> int:
    """The positive cap argument, else the positive integer in env_name, else
    default: the one parser of FROBCRIT_ENUM_CAP and FROBCRIT_BRANCH_CAP, for
    this module, ``weyl``, ``charalg`` and ``criteria``."""
    if cap is not None:
        if _require_int(cap, "cap") < 1:
            raise ValueError(f"cap must be a positive integer, got {cap!r}")
        return cap
    env = os.environ.get(env_name)
    if env is None:
        return default
    try:
        value = int(env)
    except ValueError:
        value = 0  # refused below, like any value under 1
    if value < 1:
        raise ValueError(f"{env_name} must be a positive integer, got {env!r}")
    return value


def require_rank(rank: int) -> int:
    """The rank of a root system about to be built, refused above MAX_RANK."""
    if rank > MAX_RANK:
        raise ValueError(f"refusing a root system of rank {rank}: the cap is {MAX_RANK}")
    return rank


def require_dominant_integral(rs: RootSystem, lam: Weight, what: str) -> None:
    """Refuse lam unless it is a dominant integral weight of rs; ``what``
    names it in the message."""
    if len(lam) != rs.rank:
        raise ValueError(f"{what} rank mismatch")
    if not lam.is_integral() or not lam.is_dominant():
        raise ValueError(f"{what} must be dominant integral, got {coords_text(lam.coords)}")


def _components(spec: Sequence[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """The (letter, rank) pairs of a root system about to be built, letters
    upper-cased; a malformed pair or a total rank above MAX_RANK is refused."""
    comps = []
    for comp in spec:
        try:
            letter, rank = comp
        except (TypeError, ValueError):
            raise ValueError(f"component must be a (letter, rank) pair, got {comp!r}")
        if not isinstance(letter, str):
            raise TypeError(f"root-system letter must be a string, got {letter!r}")
        if _require_int(rank, "rank") < 1:  # else a negative rank could offset a large one
            raise ValueError(f"invalid simple component {letter}{rank}")
        comps.append((letter.upper(), require_rank(rank)))
    if not comps:
        raise ValueError("a root system needs at least one component")
    require_rank(sum(r for _, r in comps))
    return tuple(comps)


class RootSystem:
    """A reduced root system, possibly a product of simple components."""

    def __init__(self, components: Sequence[tuple[str, int]]) -> None:
        self.components: tuple[tuple[str, int], ...] = _components(components)
        self.rank: int = sum(r for _, r in self.components)

        edges: list[tuple[int, int]] = []
        spans: list[tuple[int, int]] = []
        d: tuple[int, ...] = ()
        for letter, rank in self.components:
            block, lengths = _simple_type(letter, rank)
            edges += [(i + len(d), j + len(d)) for i, j in block]
            spans.append((len(d), len(d) + rank))
            d += lengths
        self.cartan: tuple[tuple[int, ...], ...] = _cartan(edges, d)
        # alphas[j] is alpha_{j+1} in fundamental-weight coordinates, and
        # alpha_support[j] its nonzero entries (k, a): j and its neighbours
        self.alphas: tuple[tuple[int, ...], ...] = tuple(zip(*self.cartan))
        self.alpha_support = tuple(tuple((k, a) for k, a in enumerate(alpha) if a)
                                   for alpha in self.alphas)
        self.positive_roots: tuple[RootVector, ...] = tuple(_positive_closure(self.cartan))
        # support_masks[i] has bit k set where positive_roots[i] has a nonzero entry k
        self.support_masks: tuple[int, ...] = tuple(
            sum(1 << k for k, c in enumerate(beta) if c) for beta in self.positive_roots)
        # positive_weights[i] is positive_roots[i] in fundamental-weight coordinates
        self.positive_weights: tuple[RootVector, ...] = tuple(
            tuple(sum(a * b for a, b in zip(row, beta)) for row in self.cartan)
            for beta in self.positive_roots)
        self.component_spans: tuple[tuple[int, int], ...] = tuple(spans)
        self.symmetrizer: tuple[int, ...] = d
        # coroots[i] is beta_vee = 2 beta / (beta, beta) in simple-coroot coordinates,
        # with (alpha_k, alpha_k) = 2 d_k, so <lam, beta_vee> = sum_k lam_k c_k(beta)
        coroots = []
        for beta, bw in zip(self.positive_roots, self.positive_weights):
            norm = sum(b * dk * w for b, dk, w in zip(beta, d, bw))
            co = [divmod(2 * b * dk, norm) for b, dk in zip(beta, d)]
            if any(r for _, r in co):
                raise AssertionError(f"non-integral coroot of {beta}")
            coroots.append(tuple(q for q, _ in co))
        self.coroots: tuple[RootVector, ...] = tuple(coroots)
        # (lam, beta) = sum_k lam_k root_forms[i][k], beta = positive_roots[i]
        self.root_forms: tuple[RootVector, ...] = tuple(
            tuple(map(int.__mul__, beta, d)) for beta in self.positive_roots)
        # the height of the highest coroot: |<w rho, alpha_k_vee>| is at most it
        self.coroot_height: int = max(map(sum, coroots))
        # <lam, 2 rho_vee> = sum_k lam_k two_rho_vee[k], twice the height of lam
        self.two_rho_vee: tuple[int, ...] = tuple(map(sum, zip(*coroots)))
        # the layout of the packed w rho keys of ``weyl``: (w rho)_k is a coroot height up to sign
        self.rho_layout = _layout(self.rank, self.coroot_height)
        # coroot_columns[k] packs the c_k(beta) of every positive root beta, one
        # digit each in coroot_layout, so sum_k lam_k coroot_columns[k] packs
        # every <lam, beta_vee>; for lam = w rho each is a coroot height up to sign
        self.coroot_layout = _layout(len(coroots), self.coroot_height)
        self.coroot_columns: tuple[int, ...] = tuple(
            _pack(col, self.coroot_layout[1]) for col in zip(*coroots))
        self.weyl_order: int = parabolic_weyl_order(self, None)

    def spec_string(self) -> str:
        return ",".join(f"{letter}{rank}" for letter, rank in self.components)

    def simple_root(self, i: int) -> RootVector:
        """The i-th simple root (1-based) in root coordinates."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range 1..{self.rank}")
        return tuple(int(k == i - 1) for k in range(self.rank))

    def __eq__(self, other) -> bool:
        return isinstance(other, RootSystem) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return f"RootSystem({self.spec_string()!r})"


def parse_spec(spec: str) -> list[tuple[str, int]]:
    """Parse a component list such as ``"C2"`` or ``"A3,A3,A3"``."""
    comps = []
    for piece in spec.split(","):
        m = _SPEC_RE.match(piece.strip())
        if not m:
            raise ValueError(f"cannot parse root-system component {piece.strip()!r}")
        comps.append((m.group(1), int(m.group(2))))
    return comps


# one system per component tuple; 30 rounds of any benchmark workload build at most 31
_shared_root_system = lru_cache(maxsize=64)(RootSystem)


def build_root_system(spec) -> RootSystem:
    """The root system of a spec string or a list of (letter, rank), one
    shared object per component tuple; ``RootSystem(...)`` builds a fresh one."""
    return _shared_root_system(_components(parse_spec(spec) if isinstance(spec, str) else spec))


def root_to_weight(rs: RootSystem, root: Sequence[int]) -> Weight:
    """A root in root coordinates, rewritten in fundamental coordinates."""
    if len(root) != rs.rank:
        raise ValueError("root rank mismatch")
    return Weight(sum(rs.cartan[i][j] * root[j] for j in range(rs.rank))
                  for i in range(rs.rank))


def cartan_pairing(rs: RootSystem, lam: Weight, root: Sequence[int]) -> Fraction:
    """<lam, beta_vee> for beta given in root coordinates.

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


def rho(rs: RootSystem) -> Weight:
    """The half-sum of positive roots: all fundamental coordinates 1."""
    return Weight([1] * rs.rank)


def index_set(rs: RootSystem, J: Iterable[int] | None = None) -> tuple[int, ...]:
    """J as a sorted tuple of distinct 1-based nodes, None meaning all; a
    float, bool or out-of-range entry is refused, never truncated."""
    members = tuple(range(1, rs.rank + 1) if J is None else J)
    for j in members:
        if not 1 <= _require_int(j, "J entry") <= rs.rank:
            raise ValueError(f"J index {j} outside 1..{rs.rank}")
    return tuple(sorted(set(members)))


def reflect(rs: RootSystem, v: Sequence, j: int) -> tuple:
    """s_j v = v - v_j alpha_j (j 1-based), on the nonzero entries of alpha_j."""
    out = list(v)
    c = out[j - 1]
    for k, a in rs.alpha_support[j - 1]:
        out[k] -= c * a
    return tuple(out)


def reflect_word(rs: RootSystem, v: Sequence, letters: Iterable[int]) -> tuple:
    """s_{j_k} ... s_{j_1} v: the ``reflect`` step by each letter in turn, on
    one list (a letter loop in ``reflect`` cost ~3 % on branch-sweep, 2 vCPUs)."""
    out = list(v)
    for j in letters:
        c = out[j - 1]
        for k, a in rs.alpha_support[j - 1]:
            out[k] -= c * a
    return tuple(out)


def _layout(n: int, reach: int) -> tuple[int, tuple[int, ...], int]:
    """(half, powers, offset), the one layout of packed keys: an int n-vector
    x is ``_pack(x, powers)`` = sum_j x_j radix^j, with half the power of two
    above ``reach``, the largest |coordinate| that a caller's keys or their
    images reach, radix = 2 half and powers the radix^j.  Digit j of
    key + offset, offset = half sum_j radix^j, is x_j + half, so x_j >= 0
    exactly when its top bit, a bit of offset, is set (``_nonnegative``)."""
    half = 1 << reach.bit_length()
    powers = tuple([(2 * half) ** j for j in range(n)])
    return half, powers, half * sum(powers)


def _pack(x: Iterable[int], powers: tuple[int, ...]) -> int:
    return sum(map(operator.mul, x, powers))


def _unpack(keys, layout: tuple) -> list[list[int]]:
    """Coordinate j of every packed key as one list per j."""
    half, powers, offset = layout
    radix = 2 * half
    rest = list(map(offset.__add__, keys))
    digits = []
    for _ in powers:
        digits.append(list(map(half.__rsub__, map(radix.__rmod__, rest))))
        rest = list(map(radix.__rfloordiv__, rest))
    return digits


def _nonnegative(keys, offset: int):
    """Whether every coordinate of each key is >= 0: the top-bit test."""
    return map(offset.__eq__, map(offset.__and__, map(offset.__add__, keys)))


def descend(rs: RootSystem, v: Sequence, J: Iterable[int] | None = None):
    """Reflect v by s_j, j the first member of J with v_j < 0, until none is left.

    Returns the end point, a tuple, and the 1-based letters applied, in
    order.  J is an ``index_set``, by default all nodes, when the end point
    is the dominant conjugate.
    """
    order = range(1, rs.rank + 1) if J is None else J
    v = tuple(v)
    letters = []
    while True:
        for j in order:
            if v[j - 1] < 0:
                break
        else:
            return v, letters
        v = reflect(rs, v, j)
        letters.append(j)


# Root data kept across calls, as (value, ints stored): fundamental orbits,
# orbit tables, root classes, orbit sizes, ``weyl.rho_shifts`` and the words
# of ``criteria._orbit_words``, keyed by components and k, support, zeros,
# "rho" or J.
# Past _TABLE_BUDGET ints in all, the oldest are dropped; a dropped entry is
# rebuilt the same, so the indices of a table still kept stay valid.
_orbit_tables: dict[tuple, tuple] = {}
_TABLE_BUDGET = 2_000_000
_table_total = 0


def _keep(key: tuple, value, size: int):
    global _table_total
    _table_total -= _orbit_tables.pop(key, (None, 0))[1]  # an entry rebuilt larger
    if size <= _TABLE_BUDGET:
        _orbit_tables[key] = (value, size)
        _table_total += size
        while _table_total > _TABLE_BUDGET:
            _table_total -= _orbit_tables.pop(next(iter(_orbit_tables)))[1]
    return value


def _kept(key: tuple):
    """The value kept under ``key``, or None."""
    entry = _orbit_tables.get(key)
    return entry and entry[0]


def fundamental_orbit(rs: RootSystem, k: int):
    """The W-orbit of omega_{k+1} (k 0-based) breadth first from omega_{k+1}
    by ``reflect``, and its action table: ``act[i][x]`` is the index of
    s_{i+1} applied to point x."""
    key = (rs.components, k)
    if key in _orbit_tables:
        return _orbit_tables[key][0]
    start = tuple([int(i == k) for i in range(rs.rank)])
    points, index = [start], {start: 0}
    act = [[] for _ in range(rs.rank)]
    for x, p in enumerate(points):  # grows while it is read: the breadth-first queue
        for i, row in enumerate(act):
            if not p[i]:  # s_{i+1} p = p - p_i alpha_{i+1} = p
                row.append(x)
                continue
            q = reflect(rs, p, i + 1)
            y = index.get(q)
            if y is None:
                y = index[q] = len(points)
                points.append(q)
            row.append(y)
    return _keep(key, (points, act), (rs.rank + 1) * len(points))


def orbit_table(rs: RootSystem, support: tuple[int, ...]):
    """The orbit of a dominant weight mu whose nonzero coordinates are
    ``support`` (0-based, increasing): one column per k in ``support``,
    holding the index of w omega_{k+1} in ``fundamental_orbit(rs, k)`` for
    each coset w W_{J0}, J0 the nodes outside ``support``, so that
    w mu = sum_k mu_k w omega_{k+1} row by row.  Rows are listed breadth
    first from mu's row, all zeros, one layer per reflection (on the regular
    orbit, the layer of w is its length); s_i moves each column through its
    fundamental orbit's action table.  The table is root data of rs, kept
    across calls.  An orbit of more than FROBCRIT_ENUM_CAP (default 10^6)
    points, its size read off ``orbit_size`` before any work is done, is
    refused with its exact size, whether or not its table is kept.
    """
    return _orbit_rows(rs, support)[0]


def orbit_layers(rs: RootSystem, support: tuple[int, ...]) -> list[int]:
    """The row at which each breadth-first layer of ``orbit_table(rs,
    support)`` starts, and its row count last.  On the regular orbit (support
    every node) the rows of layer l are the w of length l, so the sign
    eps(w) of a row is the parity of its layer.  Refused like ``orbit_table``."""
    return _orbit_rows(rs, support)[1]


def _orbit_rows(rs: RootSystem, support: tuple[int, ...]):
    key = (rs.components, support)
    kept, cap = _kept(key), _resolve_cap(None)
    size = kept[1][-1] if kept else orbit_size(
        rs, tuple([i for i in range(1, rs.rank + 1) if i - 1 not in support]))
    if size > cap:
        raise ValueError(f"refusing the orbit table of {rs.spec_string()} on the support "
                         f"{[k + 1 for k in support]}: the orbit has {size} points, cap is {cap}")
    if kept:
        return kept
    acts = [fundamental_orbit(rs, k)[1] for k in support]
    start = (0,) * len(support)
    rows, seen, layer, starts = [start], {start}, [start], [0]
    while layer:
        starts.append(len(rows))
        cols = list(zip(*layer))
        found = []
        for i in range(rs.rank):
            for row in zip(*[map(act[i].__getitem__, col) for act, col in zip(acts, cols)]):
                if row not in seen:
                    seen.add(row)
                    found.append(row)
        rows += found
        layer = found
    cols = [list(col) for col in zip(*rows)]
    return _keep(key, (cols, starts), len(rows) * len(cols) + len(starts))


def root_classes(rs: RootSystem, zeros: tuple[int, ...]):
    """The W_J0-orbits of positive roots, J0 = ``zeros`` (1-based, increasing):
    the index of each orbit's representative, its W_J0-dominant root (by
    ``descend`` on J0), which is positive; each orbit's size; and the orbit
    of every positive root, as a position in the first list."""
    key = (rs.components, zeros, "roots")
    if key in _orbit_tables:
        return _orbit_tables[key][0]
    roots = rs.positive_weights
    of = [roots.index(descend(rs, bw, zeros)[0]) for bw in roots]
    reps = sorted(set(of))
    value = (reps, list(map(of.count, reps)), list(map(reps.index, of)))
    return _keep(key, value, len(of) + 2 * len(reps))


def orbit_size(rs: RootSystem, zeros: tuple[int, ...]) -> int:
    """|W| / |W_J0|, the size of the W-orbit of a dominant weight whose zero
    coordinates are J0 = ``zeros`` (1-based, increasing)."""
    key = (rs.components, zeros, "size")
    if key in _orbit_tables:
        return _orbit_tables[key][0]
    return _keep(key, rs.weyl_order // parabolic_weyl_order(rs, zeros), 1)


def rho_J(rs: RootSystem, J: Iterable[int]) -> Weight:
    """Sum of the fundamental weights indexed by J (1-based indices)."""
    members = index_set(rs, J)
    return Weight([1 if i + 1 in members else 0 for i in range(rs.rank)])


def is_dominant(weight: Weight) -> bool:
    return weight.is_dominant()


def is_regular_dominant(weight: Weight) -> bool:
    return weight.is_regular_dominant()


def subsystem_components(rs: RootSystem, J: Iterable[int]):
    """Classify the Dynkin subdiagram on the vertex set J (1-based), for
    ``embed.levi``, which needs Bourbaki's vertex order.

    Returns a list of (letter, rank, vertices) triples where vertices are
    0-based original indices arranged in Bourbaki order for the detected
    type.  The arrangement is checked against the Cartan matrix that
    ``_cartan`` builds from the type's table.
    """
    verts0 = [j - 1 for j in index_set(rs, J)]
    pieces = []
    seen: set[int] = set()
    for v in verts0:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in verts0:
                if w not in comp and rs.cartan[u][w] != 0:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        pieces.append(_classify_piece(rs.cartan, sorted(comp)))
    for letter, rank, order in pieces:
        ref = _cartan(*_simple_type(letter, rank))
        for a in range(rank):
            for b in range(rank):
                if rs.cartan[order[a]][order[b]] != ref[a][b]:
                    raise AssertionError(
                        f"subdiagram classification {letter}{rank} inconsistent at {order}")
    return pieces


def _classify_piece(cartan, verts: list[int]) -> tuple[str, int, tuple[int, ...]]:
    n = len(verts)
    if n == 1:
        return ("A", 1, (verts[0],))
    adj = {v: [u for u in verts if u != v and cartan[v][u] != 0] for v in verts}
    if n == 2:
        u, v = verts
        m = cartan[u][v] * cartan[v][u]
        if m == 1:
            return ("A", 2, (u, v))
        if m == 2:  # canonical order short, long
            return ("C", 2, (u, v) if cartan[u][v] == -2 else (v, u))
        if m == 3:
            return ("G", 2, (u, v) if cartan[u][v] == -3 else (v, u))
        raise ValueError(f"invalid bond multiplicity {m}")
    branch = [v for v in verts if len(adj[v]) == 3]
    if branch:
        b = branch[0]
        legs = []
        for nb in sorted(adj[b]):
            leg, prev = [nb], b
            while True:
                ahead = [u for u in adj[leg[-1]] if u != prev]
                if not ahead:
                    break
                prev = leg[-1]
                leg.append(ahead[0])
            legs.append(leg)
        legs.sort(key=lambda leg: (len(leg), leg[0]))
        lengths = tuple(len(leg) for leg in legs)
        if lengths[0] == 1 and lengths[1] == 1:
            order = list(reversed(legs[2])) + [b, legs[0][0], legs[1][0]]
            return ("D", n, tuple(order))
        if lengths[:2] == (1, 2) and lengths[2] in (2, 3, 4):
            order = [legs[1][1], legs[0][0], legs[1][0], b] + legs[2]
            return ("E", n, tuple(order))
        raise ValueError(f"unclassifiable branch diagram with legs {lengths}")
    ends = sorted(v for v in verts if len(adj[v]) == 1)
    path, prev = [ends[0]], None
    while len(path) < n:
        nxt = [u for u in adj[path[-1]] if u != prev][0]
        prev = path[-1]
        path.append(nxt)
    doubles = [k for k in range(n - 1)
               if cartan[path[k]][path[k + 1]] * cartan[path[k + 1]][path[k]] == 2]
    if not doubles:
        return ("A", n, tuple(path))
    k = doubles[0]
    if 0 < k < n - 2:  # interior double bond: F4, long pair first
        if cartan[path[k + 1]][path[k]] != -2:
            path.reverse()
        return ("F", 4, tuple(path))
    if k == 0:
        path.reverse()
    u, v = path[-2], path[-1]
    if cartan[v][u] == -2:  # final vertex short
        return ("B", n, tuple(path))
    return ("C", n, tuple(path))


def positive_roots_on(rs: RootSystem, members: tuple[int, ...]) -> list[RootVector]:
    """R_J^+, the positive roots supported on J = ``members`` (an
    ``index_set``), in the order of ``positive_roots``: a root is kept where
    its support mask meets no node outside J."""
    outside = (1 << rs.rank) - 1 - sum(1 << (j - 1) for j in members)
    return [beta for beta, mask in zip(rs.positive_roots, rs.support_masks) if not mask & outside]


def parabolic_weyl_order(rs: RootSystem, J: Iterable[int] | None) -> int:
    """|W_J| = prod over beta in R_J^+ of (ht beta + 1) / ht beta, None
    meaning all nodes (Macdonald, Math. Ann. 199 (1972); Kostant, Amer. J.
    Math. 81 (1959)): the heights of R_J^+ alone decide it, so no subdiagram
    is classified."""
    heights = list(map(sum, positive_roots_on(rs, index_set(rs, J))))
    return prod(h + 1 for h in heights) // prod(heights)
