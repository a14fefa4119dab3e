"""Weyl group elements, enumeration and Steinberg-type weight identities.

An element is stored as its integer matrix acting on fundamental-weight
coordinates; that matrix is the canonical form used for equality and
hashing.  Enumeration deduplicates on the integer tuple w^{-1}(rho) instead,
which determines w because rho is regular, and builds each element's matrix
once, from its parent's, by ``_times_reflection`` (as ``from_word`` does);
the step on v is ``rootsys.reflect``.  Words are tuples of 1-based indices
and compose left to right, i.e. ``from_word(rs, (1, 2))`` is s_1 composed
with s_2, applied as s_1(s_2(v)).
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Sequence

from .rootsys import (
    RootSystem,
    RootVector,
    Weight,
    _invert,
    _require_int,
    descend,
    index_set,
    parabolic_weyl_order,
    reflect,
    rho_J,
    root_to_weight,
)

DEFAULT_ENUM_CAP = 10 ** 6
_ENUM_CAP_ENV = "FROBCRIT_ENUM_CAP"


class EnumerationCapExceeded(ValueError):
    """Raised instead of attempting to materialize an oversized Weyl group."""

    def __init__(self, rs: RootSystem, J, order: int, cap: int) -> None:
        self.order = order
        self.cap = cap
        super().__init__(
            f"refusing to enumerate W_J of {rs.spec_string()} with J={sorted(J)}: "
            f"order is {order}, cap is {cap}")


def _identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _times_reflection(rs: RootSystem, cols, j: int):
    """The columns of w s_j from those of w: as s_j omega_k = omega_k -
    delta_jk alpha_j, only column j changes, to -col_j - sum_{c != j} a_cj col_c."""
    col = [-x for x in cols[j - 1]]
    for c, a in rs.alpha_support[j - 1]:
        if c != j - 1:
            col = [x - a * y for x, y in zip(col, cols[c])]
    return cols[:j - 1] + (tuple(col),) + cols[j:]


class WeylElement:
    """Group element of W(rs) with matrix canonical form."""

    __slots__ = ("rs", "matrix", "word", "_root_matrix")

    def __init__(self, rs: RootSystem, matrix, word: tuple[int, ...] | None = None) -> None:
        self.rs = rs
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self.word = word  # some reduced word when produced by enumerate/from_word
        self._root_matrix = None

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement)
                and self.rs == other.rs and self.matrix == other.matrix)

    def __hash__(self) -> int:
        return hash((self.rs.components, self.matrix))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs != other.rs:
            raise ValueError("cannot multiply elements of different Weyl groups")
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word  # not necessarily reduced
        return WeylElement(self.rs, _mat_mul(self.matrix, other.matrix), word)

    def act(self, weight: Weight) -> Weight:
        if len(weight) != self.rs.rank:
            raise ValueError("weight rank mismatch")
        n = self.rs.rank
        return Weight(sum(self.matrix[i][j] * weight.coords[j] for j in range(n))
                      for i in range(n))

    def _ensure_root_matrix(self):
        # action on root coordinates: A^{-1} M A, integral for Weyl matrices
        if self._root_matrix is None:
            n = self.rs.rank
            inv = self.rs.cartan_inverse
            ma = _mat_mul(self.matrix, self.rs.cartan)
            rm = []
            for i in range(n):
                row = []
                for j in range(n):
                    x = sum(inv[i][k] * ma[k][j] for k in range(n))
                    if isinstance(x, Fraction):
                        if x.denominator != 1:
                            raise AssertionError("non-integral root action")
                        x = x.numerator
                    row.append(int(x))
                rm.append(tuple(row))
            self._root_matrix = tuple(rm)
        return self._root_matrix

    def act_root(self, root: Sequence[int]) -> RootVector:
        """Image of a vector given in root coordinates."""
        if len(root) != self.rs.rank:
            raise ValueError("root rank mismatch")
        rm = self._ensure_root_matrix()
        n = self.rs.rank
        return tuple(sum(rm[i][j] * root[j] for j in range(n)) for i in range(n))

    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        count = 0
        for beta in self.rs.positive_roots:
            image = self.act_root(beta)
            if all(c <= 0 for c in image):
                count += 1
        return count

    def inverse(self) -> "WeylElement":
        word = tuple(reversed(self.word)) if self.word is not None else None
        inv = _invert(self.matrix)
        return WeylElement(self.rs,
                           tuple(tuple(int(x) for x in row) for row in inv),
                           word)

    def is_identity(self) -> bool:
        return self.matrix == _identity_matrix(self.rs.rank)

    def __repr__(self) -> str:
        if self.word is not None:
            return f"WeylElement(word={self.word})"
        return f"WeylElement(matrix={self.matrix})"


def _element(rs: RootSystem, matrix, word) -> WeylElement:
    """A WeylElement from a matrix that is already a tuple of int tuples."""
    el = object.__new__(WeylElement)
    el.rs, el.matrix, el.word, el._root_matrix = rs, matrix, word, None
    return el


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, _identity_matrix(rs.rank), ())


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Compose simple reflections; indices are 1-based, leftmost applied last.

    ``from_word(rs, (1, 2)).act(v)`` is s_1(s_2(v)).
    """
    letters = tuple(word)
    for i in letters:
        if not 1 <= _require_int(i, "simple reflection index") <= rs.rank:
            raise ValueError(f"simple reflection index {i} outside 1..{rs.rank}")
    cols = _identity_matrix(rs.rank)
    for i in letters:  # I @ S_{i_1} @ ... @ S_{i_k}
        cols = _times_reflection(rs, cols, i)
    return WeylElement(rs, tuple(zip(*cols)), letters)


def _resolve_cap(cap: int | None, env_name: str = _ENUM_CAP_ENV,
                 default: int = DEFAULT_ENUM_CAP) -> int:
    """The cap argument, else the positive integer in env_name, else default."""
    if cap is not None:
        return _require_int(cap, "cap")
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


def enumerate_parabolic(rs: RootSystem, J: Iterable[int] | None = None,
                        cap: int | None = None) -> list[WeylElement]:
    """All elements of W_J with reduced words, breadth-first by length.

    The order |W_J| is computed in closed form first; if it exceeds the cap
    (argument, else FROBCRIT_ENUM_CAP, else 10^6) the enumeration is refused
    and the exception carries the exact order.
    """
    members = index_set(rs, J)
    order = parabolic_weyl_order(rs, members)
    eff_cap = _resolve_cap(cap)
    if order > eff_cap:
        raise EnumerationCapExceeded(rs, members, order, eff_cap)
    # Breadth-first on v = w^{-1} rho: w s_j has v' = s_j v, and rho is
    # regular, so v determines w.  w s_j is longer than w exactly when
    # v_j > 0, so only those candidates can be new, and each lands on the
    # next layer: a seen-set per layer suffices.
    start = identity(rs)
    out = [start]
    frontier = [((1,) * rs.rank, _identity_matrix(rs.rank), ())]
    while frontier:
        nxt = []
        seen = set()
        for v, cols, word in frontier:
            for j in members:
                if v[j - 1] < 0:
                    continue
                sv = reflect(rs, v, j)
                if sv in seen:
                    continue
                seen.add(sv)
                new_cols = _times_reflection(rs, cols, j)
                new_word = word + (j,)
                out.append(_element(rs, tuple(zip(*new_cols)), new_word))
                nxt.append((sv, new_cols, new_word))
        frontier = nxt
    if len(out) != order:
        raise AssertionError(
            f"enumerated {len(out)} elements of W_J, closed form says {order}")
    return out


def _positive_roots_of(rs: RootSystem, members: tuple[int, ...]) -> list[RootVector]:
    """R_J^+: the positive roots supported on J."""
    outside = [k for k in range(rs.rank) if k + 1 not in members]
    return [beta for beta in rs.positive_roots if not any(beta[k] for k in outside)]


def longest_element(rs: RootSystem, J: Iterable[int] | None = None) -> WeylElement:
    """w_0^J, by the greedy descent: repeatedly reflect -rho_J toward dominance."""
    members = index_set(rs, J)
    _, applied = descend(rs, (-rho_J(rs, members)).coords, members)
    w = from_word(rs, reversed(applied))
    if w.length() != len(_positive_roots_of(rs, members)):
        raise AssertionError("greedy longest element has wrong length")
    return w


def verify_st_decomp(rs: RootSystem, J: Iterable[int]) -> tuple[Weight, Weight, bool]:
    """Check sum of R_J^+ == rho_J - w_0^J(rho_J); returns (lhs, rhs, equal)."""
    members = index_set(rs, J)
    total = [0] * rs.rank
    for beta in _positive_roots_of(rs, members):
        for k in range(rs.rank):
            total[k] += beta[k]
    lhs = root_to_weight(rs, tuple(total))
    rj = rho_J(rs, members)
    rhs = rj - longest_element(rs, members).act(rj)
    return lhs, rhs, lhs == rhs


def steinberg_weights(rs: RootSystem, J: Iterable[int], p: int) -> tuple[Weight, Weight]:
    """((p-1) rho_J, (1-p) w_0^J rho_J); requires p >= 2."""
    if _require_int(p, "p") < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    members = index_set(rs, J)
    rj = rho_J(rs, members)
    return (p - 1) * rj, (1 - p) * longest_element(rs, members).act(rj)
