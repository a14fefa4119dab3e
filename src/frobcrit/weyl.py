"""Weyl group elements, enumeration and Steinberg-type weight identities.

An element w is keyed by x = w rho packed into one int, sum_k x_k radix^k,
which determines w because rho is regular (Stembridge, MSJ Memoirs 11,
2001).  Every x_k = <rho, w^{-1} alpha_k_vee> is the height of a coroot up
to sign, so in the layout ``RootSystem.rho_layout`` (``rootsys._layout``,
reach the height of the highest coroot) the top bit of digit k of
key + offset is set exactly when x_k > 0 (x_k is never 0).  Equality, hashing
and ``is_identity`` read the key.  ``length`` unpacks it and forms one packed
product sum_k x_k ``RootSystem.coroot_columns[k]``, whose digit for beta is
<w rho, beta_vee>, again a nonzero coroot height up to sign, so ``coroot_layout``
(the same reach) has room for it: l(w) is |Phi^+| less the top bits set
(Humphreys, Reflection Groups and Coxeter Groups, 1.6-1.7).  ``from_word``
reflects rho along the reversed word by ``rootsys.reflect_word``; the
integer matrix of w on fundamental-weight coordinates is built only when
``.matrix`` is read: its column k is w omega_k, reflected the same way.
Words are tuples of 1-based indices and compose left to right, i.e.
``from_word(rs, (1, 2))`` is s_1 composed with s_2, applied as s_1(s_2(v)).
``walk_parabolic``, the one walker of W, lists W_J as the tree of
lexicographically first reduced words, one top-bit test and one mask per
child, with no seen-set; ``enumerate_parabolic`` (which builds its elements
inline) and ``rho_shifts`` read it.  R_J^+ is read by support mask
(``rootsys.positive_roots_on``), and once per call: ``verify_st_decomp``
normalises J and reads R_J^+ once, for the sum and for w_0^J's length check.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .rootsys import (
    RootSystem,
    RootVector,
    Weight,
    _keep,
    _kept,
    _pack,
    _require_int,
    _resolve_cap,
    _unpack,
    descend,
    index_set,
    parabolic_weyl_order,
    positive_roots_on,
    reflect_word,
    root_to_weight,
)


class EnumerationCapExceeded(ValueError):
    """Raised instead of attempting to materialize an oversized Weyl group."""

    def __init__(self, rs: RootSystem, J, order: int, cap: int) -> None:
        self.order = order
        self.cap = cap
        super().__init__(
            f"refusing to enumerate W_J of {rs.spec_string()} with J={sorted(J)}: "
            f"order is {order}, cap is {cap}")


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
        those with <w rho, beta_vee> = <rho, w^{-1} beta_vee> < 0: every
        pairing is packed in one product sum_k (w rho)_k coroot_columns[k],
        and the top bits of its digits mark the pairings > 0 (none is 0)."""
        rs = self.rs
        half, powers, offset = rs.rho_layout
        rest, x = self.key + offset, []
        for _ in powers:
            rest, digit = divmod(rest, 2 * half)
            x.append(digit - half)
        top = rs.coroot_layout[2]
        pairings = sum(map(operator.mul, x, rs.coroot_columns)) + top
        return len(rs.coroots) - (pairings & top).bit_count()

    def inverse(self) -> "WeylElement":
        return from_word(self.rs, reversed(self.word))

    def is_identity(self) -> bool:
        return self.key == _pack((1,) * self.rs.rank, self.rs.rho_layout[1])

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word})"


def _element(rs: RootSystem, key: int, word: tuple[int, ...]) -> WeylElement:
    """The WeylElement with packed w rho = key and the word that spells it."""
    el = object.__new__(WeylElement)
    el.rs, el.key, el.word, el._matrix = rs, key, word, None
    return el


def identity(rs: RootSystem) -> WeylElement:
    return _element(rs, _pack((1,) * rs.rank, rs.rho_layout[1]), ())


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
    return _element(rs, _pack(x, rs.rho_layout[1]), letters)


def walk_parabolic(rs: RootSystem, J: Iterable[int] | None = None,
                   cap: int | None = None) -> tuple[list[int], list[tuple[int, ...]]]:
    """The keys (packed w rho) and lexicographically first reduced words of
    the elements of W_J, in shortlex order of the words.

    The order |W_J| is read off the heights of R_J^+ first
    (``rootsys.parabolic_weyl_order``); if it exceeds the cap
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
    half, powers, offset = rs.rho_layout
    bits, mask = half.bit_length(), 2 * half - 1
    steps = []
    below = 0
    for a in members:
        shift = (a - 1) * bits
        steps.append((a, half << shift, shift, _pack(rs.alphas[a - 1], powers), below))
        below |= half << shift
    keys, words = [_pack((1,) * rs.rank, powers)], [()]
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
            f"enumerated {len(keys)} elements of W_J, the root heights say {order}")
    return keys, words


def enumerate_parabolic(rs: RootSystem, J: Iterable[int] | None = None,
                        cap: int | None = None) -> list[WeylElement]:
    """All elements of W_J in shortlex order of their words, each with its
    lexicographically first reduced word, built from ``walk_parabolic``."""
    new, elements = object.__new__, []
    # ``_element`` inlined, saving a call per element (51 840 of them on W(E6))
    for key, word in zip(*walk_parabolic(rs, J, cap)):
        el = new(WeylElement)
        el.rs, el.key, el.word, el._matrix = rs, key, word, None
        elements.append(el)
    return elements


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
    shifts = zip(*[list(map((1).__sub__, d)) for d in _unpack(keys, rs.rho_layout)])
    rows = sorted([(sum(map(operator.mul, rs.two_rho_vee, shift)), shift, len(word) % 2 == 1)
                   for shift, word in zip(shifts, words)], key=operator.itemgetter(0))
    return _keep(key, rows, (rs.rank + 2) * len(rows))


def _longest(rs: RootSystem, members: tuple[int, ...], count: int) -> tuple[Weight, WeylElement]:
    """rho_J and w_0^J for J = ``members`` (an ``index_set``) with
    |R_J^+| = ``count``, by the greedy descent: repeatedly reflect -rho_J
    toward dominance."""
    rj = Weight([int(k in members) for k in range(1, rs.rank + 1)])
    _, applied = descend(rs, (-rj).coords, members)
    w = from_word(rs, reversed(applied))
    if w.length() != count:
        raise AssertionError("greedy longest element has wrong length")
    return rj, w


def longest_element(rs: RootSystem, J: Iterable[int] | None = None) -> WeylElement:
    """w_0^J, by the greedy descent: repeatedly reflect -rho_J toward dominance."""
    members = index_set(rs, J)
    return _longest(rs, members, len(positive_roots_on(rs, members)))[1]


def verify_st_decomp(rs: RootSystem, J: Iterable[int]) -> tuple[Weight, Weight, bool]:
    """Check sum of R_J^+ == rho_J - w_0^J(rho_J); returns (lhs, rhs, equal).
    J is normalised and R_J^+ read once, for the sum and w_0^J's length."""
    members = index_set(rs, J)
    roots = positive_roots_on(rs, members)
    lhs = root_to_weight(rs, tuple(map(sum, zip((0,) * rs.rank, *roots))))
    rj, w0 = _longest(rs, members, len(roots))
    rhs = rj - w0.act(rj)
    return lhs, rhs, lhs == rhs


def steinberg_weights(rs: RootSystem, J: Iterable[int], p: int) -> tuple[Weight, Weight]:
    """((p-1) rho_J, (1-p) w_0^J rho_J); requires p >= 2."""
    if _require_int(p, "p") < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    members = index_set(rs, J)
    rj, w0 = _longest(rs, members, len(positive_roots_on(rs, members)))
    return (p - 1) * rj, (1 - p) * w0.act(rj)
