"""Weyl group elements, enumeration and Steinberg-type weight identities.

An element w is keyed by x = w rho packed into one int, sum_k x_k radix^k,
which determines w because rho is regular (Stembridge, MSJ Memoirs 11,
2001).  Every x_k = <rho, w^{-1} alpha_k_vee> is the height of a coroot up
to sign, so with half a power of two above the height of the highest coroot
and radix = 2 half, digit k of key + half sum_k radix^k is x_k + half, and
its top bit is set exactly when x_k > 0 (x_k is never 0).  Equality, hashing
and ``is_identity`` read the key, and ``length`` unpacks it.  ``from_word``
reflects rho along the reversed word by ``rootsys.reflect_word``; the
integer matrix of w on fundamental-weight coordinates is built only when
``.matrix`` is read: its column k is w omega_k, reflected the same way.
Words are tuples of 1-based indices and compose left to right, i.e.
``from_word(rs, (1, 2))`` is s_1 composed with s_2, applied as s_1(s_2(v)).
``walk_parabolic``, the one walker of W, lists W_J as the tree of
lexicographically first reduced words, one top-bit test and one mask per
child, with no seen-set; ``enumerate_parabolic`` and ``rho_shifts`` read it.
"""

from __future__ import annotations

import operator
import os
from typing import Iterable, Sequence

from .rootsys import (
    RootSystem,
    RootVector,
    Weight,
    _keep,
    _kept,
    _require_int,
    _unpack,
    descend,
    index_set,
    parabolic_weyl_order,
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


def _radix(rs: RootSystem) -> tuple[int, int]:
    """(radix, half) of the w rho keys of rs: half is a power of two above
    the height of the highest coroot, and radix = 2 half."""
    half = 1 << rs.coroot_height.bit_length()
    return 2 * half, half


def _pack(x: Sequence[int], radix: int) -> int:
    """sum_k x_k radix^k."""
    key = 0
    for c in reversed(x):
        key = key * radix + c
    return key


class WeylElement:
    """An element w of W(rs), keyed by x = w rho packed, with a word spelling it.

    ``WeylElement(rs, matrix, word)`` takes w's integer matrix on fundamental
    coordinates and keeps the word it is given, or else the reduced word that
    ``descend`` reads off w rho; it refuses a matrix outside W(rs), or one
    that the word does not build.  Every element carries a word, and
    products, inverses and both actions step along it.
    """

    __slots__ = ("rs", "key", "word", "_matrix")

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
        self.rs, self.key, self.word, self._matrix = rs, built.key, built.word, matrix

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
                and self.key == other.key and self.rs == other.rs)

    def __hash__(self) -> int:
        return hash(self.key)

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
        """Number of positive roots beta that w^{-1} sends to negative roots,
        those with <w rho, beta_vee> = <rho, w^{-1} beta_vee> < 0."""
        rs = self.rs
        x = next(zip(*_unpack([self.key], rs.rank, *_radix(rs))))
        return sum(1 for c in rs.coroots if sum(map(operator.mul, x, c)) < 0)

    def inverse(self) -> "WeylElement":
        return from_word(self.rs, reversed(self.word))

    def is_identity(self) -> bool:
        return self.key == _pack((1,) * self.rs.rank, _radix(self.rs)[0])

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word})"


def _element(rs: RootSystem, key: int, word: tuple[int, ...]) -> WeylElement:
    """The WeylElement with packed w rho = key and the word that spells it."""
    el = object.__new__(WeylElement)
    el.rs, el.key, el.word, el._matrix = rs, key, word, None
    return el


def identity(rs: RootSystem) -> WeylElement:
    return _element(rs, _pack((1,) * rs.rank, _radix(rs)[0]), ())


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Compose simple reflections; indices are 1-based, leftmost applied last.

    ``from_word(rs, (1, 2)).act(v)`` is s_1(s_2(v)).  No matrix is built:
    w rho = s_{i_1} ... s_{i_k} rho is reflected letter by letter.
    """
    letters = tuple(word)
    for i in letters:
        if not 1 <= _require_int(i, "simple reflection index") <= rs.rank:
            raise ValueError(f"simple reflection index {i} outside 1..{rs.rank}")
    x = reflect_word(rs, (1,) * rs.rank, reversed(letters))
    return _element(rs, _pack(x, _radix(rs)[0]), letters)


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


def walk_parabolic(rs: RootSystem, J: Iterable[int] | None = None,
                   cap: int | None = None) -> tuple[list[int], list[tuple[int, ...]]]:
    """The keys (packed w rho) and lexicographically first reduced words of
    the elements of W_J, in shortlex order of the words.

    The order |W_J| is computed in closed form first; if it exceeds the cap
    (argument, else FROBCRIT_ENUM_CAP, else 10^6) the walk is refused and
    the exception carries the exact order.
    """
    members = index_set(rs, J)
    order = parabolic_weyl_order(rs, members)
    eff_cap = _resolve_cap(cap)
    if order > eff_cap:
        raise EnumerationCapExceeded(rs, members, order, eff_cap)
    # Each u != 1 of W_J has one parent q = s_a u, a the least left descent
    # of u, and u's lexicographically first reduced word is (a,) + q's.  On
    # biased keys b = pack(w rho + half), s_a q is longer than q exactly when
    # (q rho)_a > 0, the top bit of digit a, and a is then its least left
    # descent exactly when (s_a q rho)_i > 0 for every member i < a, one AND
    # against the top bits of those digits.  Listing the children letter by
    # letter, each over the previous layer in its order, keeps every layer
    # in lexicographic order of the words.
    radix, half = _radix(rs)
    bits = radix.bit_length() - 1
    mask = radix - 1
    offset = _pack((half,) * rs.rank, radix)
    steps = []
    below = 0
    for a in members:
        shift = (a - 1) * bits
        steps.append((a, half << shift, shift, _pack(rs.alphas[a - 1], radix), below))
        below |= half << shift
    keys, words = [_pack((1,) * rs.rank, radix)], [()]
    layer = [offset + keys[0]], [()]
    while layer[0]:
        next_keys, next_words = [], []
        for a, top, shift, alpha, lower in steps:
            for b, word in zip(*layer):
                if b & top:
                    c = b - ((b >> shift & mask) - half) * alpha
                    if c & lower == lower:
                        next_keys.append(c)
                        next_words.append((a,) + word)
        keys += [c - offset for c in next_keys]
        words += next_words
        layer = next_keys, next_words
    if len(keys) != order:
        raise AssertionError(
            f"enumerated {len(keys)} elements of W_J, closed form says {order}")
    return keys, words


def enumerate_parabolic(rs: RootSystem, J: Iterable[int] | None = None,
                        cap: int | None = None) -> list[WeylElement]:
    """All elements of W_J in shortlex order of their words, each with its
    lexicographically first reduced word, built from ``walk_parabolic``."""
    return [_element(rs, key, word) for key, word in zip(*walk_parabolic(rs, J, cap))]


def rho_shifts(rs: RootSystem, most: int):
    """(<rho - w rho, 2 rho_vee>, rho - w rho, whether l(w) is odd) for every w
    in W, ascending in the first entry, w = 1 first, read off the keys and
    words of ``walk_parabolic``.  Root data of rs, kept across calls; None
    while it is not kept and |W| > ``most``."""
    key = (rs.components, "rho")
    rows = _kept(key)
    if rows is not None or rs.weyl_order > most:
        return rows
    keys, words = walk_parabolic(rs, cap=rs.weyl_order)
    shifts = zip(*[list(map((1).__sub__, d)) for d in _unpack(keys, rs.rank, *_radix(rs))])
    rows = sorted([(sum(map(operator.mul, rs.two_rho_vee, shift)), shift, len(word) % 2 == 1)
                   for shift, word in zip(shifts, words)], key=operator.itemgetter(0))
    return _keep(key, rows, (rs.rank + 2) * len(rows))


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
