"""The orbit-table restriction in ``charalg`` against the orbit walk it replaced.

``walk_restriction`` and ``walk_branch`` below are ``charalg.branch`` as it
was while every W_G-orbit of the dominant multiplicities was walked by the
reference ``orbit_walk`` (``tests/oracles.py``) on (G-weight || Res(G-weight))
tuples, except that a refusal names its witness by the rule ``branch``
follows, applied to the walk's full multiset: the non-integral weight, or
the broken pair (low, up) of ``reference_broken_pairs``, highest by
(<nu, 2 rho_vee>, nu).  They are the reference for the restricted multiset
and for every result and error text, which therefore cannot depend on the
order in which an orbit is listed.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from frobcrit import charalg, rootsys
from frobcrit.charalg import branch, freudenthal, restricted_character, weyl_dim, weyl_orbit
from frobcrit.embed import Embedding, diagonal, folding_E6F4, so_in_sl
from frobcrit.rootsys import (
    Weight,
    build_root_system,
    descend,
    fundamental_orbit,
    index_set,
    orbit_layers,
    orbit_table,
    parabolic_weyl_order,
    reflect,
)
from frobcrit.weyl import enumerate_parabolic

from oracles import orbit_walk, reference_broken_pairs
from test_acceptance import dominant_weights_upto, registry_embeddings
from test_charalg import EDGE_EMBEDDINGS, NON_CHARACTERS
from test_weyl import _systems_up_to_rank


def _text(coords):
    """A weight as every refusal prints it: (7), (1, -2), (1/2, 3)."""
    return "(%s)" % ", ".join(str(c) for c in coords)


def _height_key(h):
    hv = tuple(map(sum, zip(*h.coroots)))
    return lambda t: (sum(a * b for a, b in zip(hv, t)), t)


def walk_restriction(emb, lam):
    g = emb.g
    gn = g.rank
    scale = math.lcm(*(x.denominator for row in emb.restriction for x in row))
    rows = [[int(x * scale) for x in row] for row in emb.restriction]

    def res(v):
        return tuple([sum(r * x for r, x in zip(row, v)) for row in rows])

    extended = [alpha + res(alpha) for alpha in g.alphas]
    restricted = {}
    for mu, m in freudenthal(g, lam).multiplicities.items():
        for nu in orbit_walk(g, mu.coords + res(mu.coords), extended):
            r = nu[gn:]
            restricted[r] = restricted.get(r, 0) + m
    if scale != 1:
        fractional = [r for r in restricted if any(x % scale for x in r)]
        if fractional:
            key = _height_key(emb.h)
            r = max(fractional, key=lambda r: key(tuple(Fraction(x, scale) for x in r)))
            raise ValueError(
                f"restriction of the module with highest weight "
                f"{_text(lam.coords)} has the non-integral H-weight "
                f"{_text(Fraction(x, scale) for x in r)}")
        restricted = {tuple(x // scale for x in r): m
                      for r, m in restricted.items()}
    return restricted


def walk_branch(emb, lam, restrict=walk_restriction):
    h = emb.h
    restricted = restrict(emb, lam)
    key = _height_key(h)

    broken = reference_broken_pairs(h, restricted)
    if broken:
        low, up = max(broken, key=lambda pair: (key(pair[0]), key(pair[1])))
        raise ValueError(
            f"weight {_text(low)} of the restricted character is not dominant and "
            f"has multiplicity {restricted.get(low, 0)}, but its reflection "
            f"{_text(up)} has {restricted.get(up, 0)}; restriction is not a "
            f"character of H")
    virtual = {}
    for kappa, m in restricted.items():
        shifted = tuple([x + 1 for x in kappa])
        if 0 in shifted:
            continue
        end, letters = descend(h, shifted)
        if 0 in end:
            continue
        nu = tuple([x - 1 for x in end])
        virtual[nu] = virtual.get(nu, 0) + (-m if len(letters) % 2 else m)
    negative = [nu for nu, n in virtual.items() if n < 0]
    if negative:
        worst = max(negative, key=key)
        raise ValueError(
            f"negative residual multiplicity {virtual[worst]} at {_text(worst)}")
    return {Weight(nu): virtual[nu]
            for nu in sorted(virtual, key=key, reverse=True) if virtual[nu]}


def outcome(fn, emb, lam):
    """The result as an ordered list of items, or the exception's type and text."""
    try:
        return list(fn(emb, lam).items())
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def as_multiset(fn):
    def call(emb, lam):
        return dict(sorted(fn(emb, lam).items()))
    return call


def assert_matches_walk(emb, lam):
    expect = walk_restriction(emb, lam)
    assert restricted_character(emb, lam) == expect, (emb.label, lam)
    assert outcome(branch, emb, lam) == outcome(walk_branch, emb, lam), (emb.label, lam)


def _custom(g, h, matrix, label):
    return Embedding(build_root_system(g), build_root_system(h),
                     [[Fraction(x) for x in row] for row in matrix], label)


def _fundamental(rank):
    return [Weight([int(k == i) for k in range(rank)]) for i in range(rank)]


def _heavy(rs, bound):
    """The largest multiples of rho, omega_1 and omega_1 + omega_rank whose
    modules have dimension at most ``bound``."""
    steps = {(1,) * rs.rank, (1,) + (0,) * (rs.rank - 1),
             (1,) + (0,) * (rs.rank - 2) + (1,) if rs.rank > 1 else (1,)}
    out = []
    for step in sorted(steps):
        t = 0
        while weyl_dim(rs, Weight([(t + 1) * c for c in step])) <= bound:
            t += 1
        if t:
            out.append(Weight([t * c for c in step]))
    return out


@pytest.mark.parametrize("emb", registry_embeddings(), ids=lambda e: e.label)
def test_restriction_matches_the_walk_on_registry_embeddings(emb):
    for lam in _fundamental(emb.g.rank) + _heavy(emb.g, 4000):
        assert_matches_walk(emb, lam)


@pytest.mark.parametrize("emb", registry_embeddings(), ids=lambda e: e.label)
def test_zero_weight_restricts_to_the_zero_weight(emb):
    lam = Weight([0] * emb.g.rank)
    assert restricted_character(emb, lam) == {(0,) * emb.h.rank: 1}
    assert_matches_walk(emb, lam)


FRACTIONAL = [
    _custom("A1", "A1", [["1/2"]], "half"),
    _custom("A1", "A1", [["-7/2"]], "negative"),
    _custom("A2", "A1", [["1/2", "3/2"]], "A2-A1"),
    _custom("B3", "G2", [["1/3", 0, "5/2"], [0, "-7/4", 1]], "B3-G2"),
    _custom("C2", "A1,A1", [["-1/2", 2], ["2/3", "1/5"]], "C2-A1A1"),
    _custom("G2", "B2", [["5/3", 1], ["-1/6", "9/4"]], "G2-B2"),
    _custom("B3", "A2", [["1/2", 0, 1], [0, 1, "-1/2"]], "B3-A2"),
    _custom("A3", "A2", [["1/2", "1/2", 0], [0, "1/2", "1/2"]], "A3-A2"),
    # the tables and the walk meet another non-integral weight first on these
    _custom("B2", "A2", [["2/3", "-2/3"], [0, 1]], "B2-A2"),
    _custom("A1,A2", "A1", [[-1, 0, "2/3"]], "A1A2-A1"),
]


@pytest.mark.parametrize("emb", FRACTIONAL + [e for e, _ in EDGE_EMBEDDINGS + NON_CHARACTERS],
                         ids=lambda e: e.label)
def test_custom_matrices_keep_every_result_and_error_text(emb):
    for lam in dominant_weights_upto(emb.g, 60):
        assert outcome(as_multiset(restricted_character), emb, lam) == \
            outcome(as_multiset(walk_restriction), emb, lam), (emb.label, lam)
        assert outcome(branch, emb, lam) == outcome(walk_branch, emb, lam), (emb.label, lam)


NEGATIVE = [
    _custom("A2", "A1", [[1, -1]], "skew"),
    _custom("A3", "A2", [[1, -2, 0], [0, 1, 1]], "A3-A2"),
    _custom("C3", "A1,A1", [[-1, 2, 0], [0, -1, -3]], "C3-A1A1"),
    _custom("G2", "A2", [[-2, 1], [3, -1]], "G2-A2"),
    # at (0, 0, 1) the highest weight (-1, -2) of a broken pair has two
    # broken images, (1, -2) by s_1 and (-1, 2) by s_2: the higher one, by
    # s_2, is named whatever the order in which the pairs are found
    _custom("A3", "A1,A1", [[1, 1, -2], [2, -2, -2]], "A3-A1A1"),
]


@pytest.mark.parametrize("emb", NEGATIVE, ids=lambda e: e.label)
def test_negative_restriction_entries(emb):
    for lam in _fundamental(emb.g.rank) + _heavy(emb.g, 400):
        assert_matches_walk(emb, lam)


def test_entries_near_a_million_at_a_weight_near_the_cap():
    big = 10 ** 6
    emb = _custom("A3", "A3", [[big, 1 - big, 0], [0, 3, big + 1], [big, 0, -big]], "big")
    lam = Weight([5, 5, 5])
    assert 45_000 < weyl_dim(emb.g, lam) <= charalg.DEFAULT_BRANCH_CAP
    expect = walk_restriction(emb, lam)
    # every digit of the packed weight spans at least the coordinates seen,
    # so the packed ints are wider than 64 bits
    assert (2 * max(abs(x) for r in expect for x in r) + 1) ** 3 > 2 ** 64
    assert restricted_character(emb, lam) == expect
    assert outcome(branch, emb, lam) == outcome(walk_branch, emb, lam)
    half = _custom("A3", "A1", [[f"{big}/2", f"{1 - big}/2", 7]], "big-half")
    assert outcome(as_multiset(restricted_character), half, lam) == \
        outcome(as_multiset(walk_restriction), half, lam)


# -- witnesses by rule, one restriction per call ------------------------------------

# at (1) the top weight (3, 1) has the broken image s_2 (3, 1) = (4, -1),
# one past the largest coordinate: digits with no room for it would carry
# into the next and name another witness
CROWDED = [_custom("A1", "A2", [[3], [1]], "A1-A2:[3,1]")]

WITNESS_CASES = FRACTIONAL + NEGATIVE + CROWDED + [e for e, _ in EDGE_EMBEDDINGS + NON_CHARACTERS]


def _reversed(fn):
    def call(*args):
        return Counter(dict(reversed(fn(*args).items())))
    return call


@pytest.mark.parametrize("emb", WITNESS_CASES, ids=lambda e: e.label)
def test_error_texts_do_not_depend_on_the_order_of_the_restriction(emb, monkeypatch):
    weights = dominant_weights_upto(emb.g, 30)
    expect = [outcome(branch, emb, lam) for lam in weights]
    restricted_counts = charalg._restricted_counts

    def reversed_counts(*args):
        counts, digits, radix, half = restricted_counts(*args)
        return dict(reversed(counts.items())), [col[::-1] for col in digits], radix, half

    # the tables list each orbit, and _restricted_counts its keys, the other way round
    monkeypatch.setattr(charalg, "_orbit_counts", _reversed(charalg._orbit_counts))
    monkeypatch.setattr(charalg, "_convolve", _reversed(charalg._convolve))
    monkeypatch.setattr(charalg, "_restricted_counts", reversed_counts)
    assert [outcome(branch, emb, lam) for lam in weights] == expect, emb.label


@pytest.mark.parametrize("emb", WITNESS_CASES, ids=lambda e: e.label)
def test_invariance_check_matches_the_tuple_reference(emb):
    # branch checks W_H-invariance on packed keys: the image of key nu under
    # s_i is read at key - nu_i pack(alpha_i), which is pack(s_i nu) only if
    # every digit of s_i nu lies within half.  For |nu_j| <= bound and
    # |a_ij| <= 3, |(s_i nu)_j| = |nu_j - nu_i a_ij| <= 4 bound, so the keys
    # are packed with half = 4 bound; with less room a reflected key could
    # alias another key and hide a broken pair.  The reference reflects
    # tuples one at a time on the library's own restriction.
    def reference_kernel(e, lam):
        return walk_branch(e, lam, restricted_character)

    for lam in dominant_weights_upto(emb.g, 60):
        assert outcome(branch, emb, lam) == outcome(reference_kernel, emb, lam), (emb.label, lam)


@pytest.mark.parametrize("emb,lam,text", [
    (diagonal("A1", 2), (1, 1), None),
    (EDGE_EMBEDDINGS[0][0], (1,), "non-integral H-weight (1/2)"),
    (EDGE_EMBEDDINGS[2][0], (1, 0), "is not dominant"),
    (NON_CHARACTERS[0][0], (1,), "negative residual multiplicity"),
], ids=["character", "non-integral", "not-invariant", "negative-residual"])
def test_branch_restricts_once_on_every_path(emb, lam, text, monkeypatch):
    calls = []
    restricted_counts = charalg._restricted_counts

    def counted(*args):
        calls.append(args)
        return restricted_counts(*args)

    monkeypatch.setattr(charalg, "_restricted_counts", counted)
    result = outcome(branch, emb, Weight(lam))
    assert len(calls) == 1
    assert (result[0] == "ValueError" and text in result[1]) if text else result


# -- the orbit tables --------------------------------------------------------------

def _supports(rank):
    for size in range(1, rank + 1):
        yield from itertools.combinations(range(rank), size)


@pytest.mark.parametrize("spec", _systems_up_to_rank(4) + ["E6", "B5"])
def test_orbit_tables_list_each_orbit_once(spec):
    rs = build_root_system(spec)
    order = parabolic_weyl_order(rs, index_set(rs))
    for support in _supports(rs.rank):
        if spec in ("E6", "B5") and len(support) > 3:
            continue
        cols = orbit_table(rs, support)
        points = [fundamental_orbit(rs, k)[0] for k in support]
        # the same dominant weight with other nonzero coordinates
        mu = [0] * rs.rank
        for k in support:
            mu[k] = 1 + k % 3
        rows = [tuple(sum(mu[k] * pts[x][i] for k, pts, x in zip(support, points, row))
                      for i in range(rs.rank)) for row in zip(*cols)]
        zeros = [i + 1 for i in range(rs.rank) if i not in support]
        assert len(rows) == order // parabolic_weyl_order(rs, zeros), (spec, support)
        assert set(rows) == set(orbit_walk(rs, mu)) and len(set(rows)) == len(rows)


@pytest.mark.parametrize("spec", _systems_up_to_rank(4) + ["E6"])
def test_regular_orbit_layers_are_the_lengths(spec):
    # layer l of the regular orbit holds the w of length l, so the layer
    # sizes are the counts of enumerate_parabolic's elements by length
    rs = build_root_system(spec)
    assert rs.weyl_order == parabolic_weyl_order(rs, index_set(rs))
    starts = orbit_layers(rs, tuple(range(rs.rank)))
    sizes = [b - a for a, b in zip(starts, starts[1:])]
    if spec != "E6":
        lengths = Counter(w.length() for w in enumerate_parabolic(rs))
        assert sizes == [lengths[n] for n in range(len(lengths))]
    assert len(sizes) == len(rs.positive_roots) + 1 and sizes == sizes[::-1]
    assert starts[0] == 0 and starts[-1] == rs.weyl_order


@pytest.mark.parametrize("spec", _systems_up_to_rank(4))
def test_weyl_orbit_matches_the_walk(spec):
    rs = build_root_system(spec)
    box = list(itertools.product(range(2), repeat=rs.rank))
    halves = [tuple(Fraction(c, 2) for c in lam) for lam in box[1:4]]
    for lam in box + halves:
        orbit = set(orbit_walk(rs, lam))
        assert weyl_orbit(rs, Weight(lam)) == orbit, (spec, lam)
        # from a non-dominant member of the orbit, the lowest one included
        for nu in (max(orbit), min(orbit)):
            assert weyl_orbit(rs, Weight(nu)) == orbit, (spec, nu)


def test_fundamental_orbit_actions_are_the_reflections():
    for spec in ["A3", "C3", "G2", "F4", "A1,B2"]:
        rs = build_root_system(spec)
        for k in range(rs.rank):
            points, act = fundamental_orbit(rs, k)
            assert len(set(points)) == len(points)
            for i in range(rs.rank):
                assert [points[y] for y in act[i]] == [reflect(rs, p, i + 1) for p in points]


@pytest.mark.parametrize("spec", ["E6", "F4", "A1,B2"])
def test_tables_are_rebuilt_the_same_after_the_cache_is_cleared(spec, monkeypatch):
    # the cache may drop a fundamental orbit while a table that indexes it is
    # kept, so every rebuild has to list the same points in the same order
    rs = build_root_system(spec)
    supports = [s for s in _supports(rs.rank) if len(s) <= 3]

    def build():
        monkeypatch.setattr(rootsys, "_orbit_tables", {})
        monkeypatch.setattr(rootsys, "_table_total", 0)
        orbits = [fundamental_orbit(rs, k) for k in range(rs.rank)]
        return orbits, [set(zip(*orbit_table(rs, s))) for s in supports]

    assert build() == build()


def test_orbit_table_cache_stays_inside_its_budget(monkeypatch):
    cases = [(folding_E6F4(), (0, 1, 0, 0, 0, 1)), (so_in_sl(6), (1, 1, 0, 1, 0)),
             (diagonal("A2", 3), (1, 0, 2, 1, 1, 1)), (folding_E6F4(), (1, 0, 0, 0, 1, 0))]
    expect = [branch(emb, Weight(lam)) for emb, lam in cases]
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    monkeypatch.setattr(rootsys, "_TABLE_BUDGET", 3000)
    for _ in range(2):
        assert [branch(emb, Weight(lam)) for emb, lam in cases] == expect
        held = sum(size for _, size in rootsys._orbit_tables.values())
        assert held == rootsys._table_total <= 3000


def test_char_cache_stays_at_its_bound(monkeypatch):
    emb = diagonal("A2", 3)
    weights = [Weight(lam) for lam in itertools.product(range(2), repeat=6)]
    expect = [branch(emb, lam) for lam in weights]
    monkeypatch.setattr(charalg, "_char_cache", {})
    monkeypatch.setattr(charalg, "_CHAR_CACHE_SIZE", 3)
    assert [branch(emb, lam) for lam in weights] == expect
    assert len(charalg._char_cache) == 3
