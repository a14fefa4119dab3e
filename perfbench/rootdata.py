"""The benchmark's own root data, kept apart from the package under test.

The correctness checks must not trust the code they check, so this module
rebuilds what they need from the Gram matrices of the simple roots:
positive roots by reflection closure, the Weyl dimension product, Weyl
group orders and the large-p bound of the criterion.  Numbering is
Bourbaki's, which is the package's documented convention.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

_COMPONENT = re.compile(r"^([A-G])([0-9]+)$")

# |W| of each simple type; the classical ones follow from the rank.
_EXCEPTIONAL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040,
                       ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}


def parse_spec(spec: str) -> tuple[tuple[str, int], ...]:
    comps = []
    for piece in spec.split(","):
        m = _COMPONENT.match(piece.strip())
        if m is None:
            raise ValueError(f"cannot parse component {piece!r}")
        comps.append((m.group(1), int(m.group(2))))
    return tuple(comps)


def simple_order(letter: str, rank: int) -> int:
    """Order of the Weyl group of one simple type."""
    if letter == "A":
        return math.factorial(rank + 1)
    if letter in ("B", "C"):
        return 2 ** rank * math.factorial(rank)
    if letter == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return _EXCEPTIONAL_ORDERS[(letter, rank)]


def _gram(letter: str, n: int) -> list[list[Fraction]]:
    """(alpha_i, alpha_j) for one simple type, long roots of squared length 2."""
    g = [[Fraction(0)] * n for _ in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    lengths = [Fraction(2)] * n
    if letter == "B":
        lengths[n - 1] = Fraction(1)
    elif letter == "C":
        lengths = [Fraction(1)] * (n - 1) + [Fraction(2)]
    elif letter == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif letter == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)][: n - 2] + [(1, 3)]
    elif letter == "F":
        lengths = [Fraction(2), Fraction(2), Fraction(1), Fraction(1)]
    elif letter == "G":
        lengths = [Fraction(2, 3), Fraction(2)]
    for i in range(n):
        g[i][i] = lengths[i]
    for i, j in edges:
        # single, double and triple bonds alike: (alpha_i, alpha_j) is minus
        # half the longer squared length
        g[i][j] = g[j][i] = -max(lengths[i], lengths[j]) / 2
    return g


class RootData:
    """Simple-root Gram matrix and positive roots of a product of simple types."""

    def __init__(self, spec: str) -> None:
        self.components = parse_spec(spec)
        self.rank = sum(r for _, r in self.components)
        n = self.rank
        self.gram = [[Fraction(0)] * n for _ in range(n)]
        offset = 0
        for letter, r in self.components:
            block = _gram(letter, r)
            for i in range(r):
                for j in range(r):
                    self.gram[offset + i][offset + j] = block[i][j]
            offset += r
        self.positive_roots = self._reflection_closure()
        # 3 (alpha_i, alpha_i) is an integer for every type, G2 included
        lengths = [int(3 * self.gram[i][i]) for i in range(n)]
        self._dim_vectors = [[b * lengths[i] for i, b in enumerate(beta)]
                             for beta in self.positive_roots]
        self._dim_denominator = math.prod(sum(v) for v in self._dim_vectors)
        self._orders: dict[tuple[int, ...], int] = {}

    def norm(self, beta) -> Fraction:
        n = self.rank
        return sum(beta[i] * self.gram[i][j] * beta[j]
                   for i in range(n) for j in range(n) if beta[i] and beta[j])

    def _reflection_closure(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for beta in frontier:
                for i in range(n):
                    # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
                    c = 2 * sum(beta[j] * self.gram[j][i] for j in range(n)) / self.gram[i][i]
                    image = tuple(beta[k] - (int(c) if k == i else 0) for k in range(n))
                    if image not in roots and all(x >= 0 for x in image):
                        roots.add(image)
                        nxt.append(image)
            frontier = nxt
        return tuple(sorted(roots, key=lambda r: (sum(r), r)))

    def coroot_pairing(self, coords, beta) -> Fraction:
        """<mu, beta^vee> for mu in fundamental-weight coordinates."""
        num = sum(Fraction(coords[i]) * beta[i] * self.gram[i][i]
                  for i in range(self.rank) if beta[i])
        return num / self.norm(beta)

    def weyl_dim(self, coords) -> int:
        """Dimension of the irreducible module of highest weight ``coords``.

        <lam + rho, beta^vee> / <rho, beta^vee> with both pairings scaled by
        the same factor, so that the product stays in integers.
        """
        num = 1
        for v in self._dim_vectors:
            num *= sum((c + 1) * x for c, x in zip(coords, v))
        dim, rest = divmod(num, self._dim_denominator)
        if rest:
            raise AssertionError(f"Weyl dimension of {coords} is not an integer")
        return dim

    def weyl_order(self) -> int:
        return math.prod(simple_order(letter, r) for letter, r in self.components)

    def parabolic_order(self, J) -> int:
        """|W_J|, by classifying each component of the subdiagram on J."""
        key = tuple(sorted(set(J)))
        if key not in self._orders:
            self._orders[key] = self._parabolic_order(key)
        return self._orders[key]

    def _parabolic_order(self, J) -> int:
        members = set(J)
        sub = [beta for beta in self.positive_roots
               if all(beta[k] == 0 for k in range(self.rank) if k + 1 not in members)]
        order, seen = 1, set()
        for start in sorted(members):
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                u = stack.pop()
                for v in members:
                    if v not in comp and self.gram[u - 1][v - 1] != 0:
                        comp.add(v)
                        stack.append(v)
            seen |= comp
            roots = [b for b in sub if all(b[k] == 0 for k in range(self.rank) if k + 1 not in comp)]
            laced = len({self.norm(b) for b in roots}) == 1
            order *= simple_order(*_classify(len(comp), len(roots), laced))
        return order


def _classify(rank: int, npos: int, laced: bool) -> tuple[str, int]:
    """A connected Dynkin type from its rank, root count and root lengths."""
    if laced and npos == rank * (rank + 1) // 2:
        return "A", rank
    if laced and npos == rank * (rank - 1):
        return "D", rank
    if laced and (rank, npos) in ((6, 36), (7, 63), (8, 120)):
        return "E", rank
    if not laced and npos == rank * rank:
        return "B", rank
    if not laced and (rank, npos) == (4, 24):
        return "F", 4
    if not laced and (rank, npos) == (2, 6):
        return "G", 2
    raise AssertionError(f"no Dynkin type of rank {rank} with {npos} positive roots")


@lru_cache(maxsize=None)
def root_data(spec: str) -> RootData:
    return RootData(spec)


def large_p_bound(h_spec: str, restriction) -> int:
    """ceil max <rho_H + omega_i|_H, gamma^vee> over i and positive H-roots gamma."""
    h = root_data(h_spec)
    best = Fraction(0)
    for i in range(len(restriction[0])):
        shifted = [1 + Fraction(row[i]) for row in restriction]
        for gamma in h.positive_roots:
            best = max(best, h.coroot_pairing(shifted, gamma))
    return math.ceil(best)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
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
