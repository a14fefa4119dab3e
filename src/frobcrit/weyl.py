"""Weyl group elements, enumeration and Steinberg-type weight identities.

An element w is keyed by the integer tuple v = w^{-1}(rho), which determines
w because rho is regular (Stembridge, MSJ Memoirs 11, 2001): equality,
hashing, ``length`` and ``is_identity`` read v, and enumeration and
``from_word`` step on it by ``rootsys.reflect`` and ``reflect_word``.  The
integer matrix of w on fundamental-weight coordinates is built only when
``.matrix`` is read: its column k is w omega_k, reflected along the word by
``reflect_word``.  Words are tuples of 1-based indices and compose left to
right, i.e. ``from_word(rs, (1, 2))`` is s_1 composed with s_2, applied as
s_1(s_2(v)).
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from .rootsys import (
    RootSystem,
    RootVector,
    Weight,
    _require_int,
    descend,
    index_set,
    parabolic_weyl_order,
    reflect,
    reflect_word,
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


class WeylElement:
    """An element w of W(rs), keyed by v = w^{-1} rho, with a word spelling it.

    ``WeylElement(rs, matrix, word)`` takes w's integer matrix on fundamental
    coordinates and keeps the word it is given, or else the reduced word that
    ``descend`` reads off w rho; it refuses a matrix outside W(rs), or one
    that the word does not build.  Every element carries a word, and
    products, inverses and both actions step along it.
    """

    __slots__ = ("rs", "v", "word", "_matrix")

    def __init__(self, rs: RootSystem, matrix, word: tuple[int, ...] | None = None) -> None:
        matrix = tuple(tuple(_require_int(x, "matrix entry") for x in row) for row in matrix)
        # descending w rho to rho spells w, so a matrix that those letters
        # (or the given word) do not rebuild is not w's
        built = from_word(rs, word if word is not None
                          else descend(rs, [sum(row) for row in matrix])[1])
        if built.matrix != matrix:
            raise ValueError(f"{matrix} is not the matrix of "
                             + (f"the word {word}" if word is not None
                                else f"an element of W({rs.spec_string()})"))
        self.rs, self.v, self.word, self._matrix = rs, built.v, built.word, matrix

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """w on fundamental-weight coordinates, built from the word when first read."""
        if self._matrix is None:
            n = self.rs.rank
            # column k is w omega_k = s_{i_1}(...(s_{i_k}(omega_k)))
            self._matrix = tuple(zip(*(
                reflect_word(self.rs, [int(i == k) for i in range(n)], reversed(self.word))
                for k in range(n))))
        return self._matrix

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeylElement)
                and self.rs == other.rs and self.v == other.v)

    def __hash__(self) -> int:
        return hash((self.rs.components, self.v))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs != other.rs:
            raise ValueError("cannot multiply elements of different Weyl groups")
        return from_word(self.rs, self.word + other.word)  # not necessarily reduced

    def act(self, weight: Weight) -> Weight:
        if len(weight) != self.rs.rank:
            raise ValueError("weight rank mismatch")
        # s_{i_1}(...(s_{i_k}(lam)))
        return Weight(reflect_word(self.rs, weight.coords, reversed(self.word)))

    def act_root(self, root: Sequence[int]) -> RootVector:
        """Image of a vector given in root coordinates, reflected along the
        word: s_j beta changes only beta_j, by -<beta, alpha_j_vee>."""
        if len(root) != self.rs.rank:
            raise ValueError("root rank mismatch")
        out = list(root)
        for j in reversed(self.word):
            out[j - 1] -= sum(a * b for a, b in zip(self.rs.cartan[j - 1], out))
        return tuple(out)

    def length(self) -> int:
        """Number of positive roots beta sent to negative roots: as
        <v, beta_vee> = <rho, (w beta)_vee>, those with <v, beta_vee> < 0."""
        v = self.v
        return sum(1 for c in self.rs.coroots if sum(x * y for x, y in zip(v, c)) < 0)

    def inverse(self) -> "WeylElement":
        return from_word(self.rs, reversed(self.word))

    def is_identity(self) -> bool:
        return self.v == (1,) * self.rs.rank

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word})"


def _element(rs: RootSystem, v: tuple[int, ...], word: tuple[int, ...]) -> WeylElement:
    """The WeylElement with w^{-1} rho = v and the word that spells it."""
    el = object.__new__(WeylElement)
    el.rs, el.v, el.word, el._matrix = rs, v, word, None
    return el


def identity(rs: RootSystem) -> WeylElement:
    return _element(rs, (1,) * rs.rank, ())


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Compose simple reflections; indices are 1-based, leftmost applied last.

    ``from_word(rs, (1, 2)).act(v)`` is s_1(s_2(v)).  No matrix is built:
    w^{-1} rho = s_{i_k} ... s_{i_1} rho is reflected letter by letter.
    """
    letters = tuple(word)
    for i in letters:
        if not 1 <= _require_int(i, "simple reflection index") <= rs.rank:
            raise ValueError(f"simple reflection index {i} outside 1..{rs.rank}")
    return _element(rs, reflect_word(rs, (1,) * rs.rank, letters), letters)


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
    out = [identity(rs)]
    frontier = out[:]
    while frontier:
        nxt = []
        seen = set()
        for w in frontier:
            v = w.v
            for j in members:
                if v[j - 1] < 0:
                    continue
                sv = reflect(rs, v, j)
                if sv in seen:
                    continue
                seen.add(sv)
                nxt.append(_element(rs, sv, w.word + (j,)))
        out += nxt
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
    total = map(sum, zip((0,) * rs.rank, *_positive_roots_of(rs, members)))
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
