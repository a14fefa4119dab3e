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

import bisect
import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import pytest

from frobcrit import charalg, embed, rootsys
from frobcrit.charalg import branch, freudenthal, restricted_character, weyl_dim, weyl_orbit
from frobcrit.embed import Embedding, diagonal, folding_E6F4, levi, so_in_sl
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

# the highest coroot of F4 has height 11: at (1), with bound = 3, the
# dominant key (3, 3, 3, 3) has a W_H-image with the coordinate
# <(3, 3, 3, 3), theta_vee> = 33, outside the 4 bound = 12 a simple
# reflection needs, and outside digits of half 16, the power of two above it
ROOMY = [_custom("A1", "F4", [[3]] * 4, "A1-F4:3rho")]

# at (2, 2) the keys (0), (+-2), (+-4), (+-6) are W_H-invariant and
# saturated, and n at (0) is 1 - 2: a refusal on the dominant keys alone
SATURATED = [_custom("A1,A1", "A1", [[2, 1]], "A1xA1:[2,1]")]

WITNESS_CASES = (FRACTIONAL + NEGATIVE + CROWDED + ROOMY + SATURATED
                 + [e for e, _ in EDGE_EMBEDDINGS + NON_CHARACTERS])


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
        counts, radix, half = restricted_counts(*args)
        return dict(reversed(counts.items())), radix, half

    # the tables list each orbit, and _restricted_counts its keys, the other way round
    monkeypatch.setattr(charalg, "_orbit_counts", _reversed(charalg._orbit_counts))
    monkeypatch.setattr(charalg, "_convolve", _reversed(charalg._convolve))
    monkeypatch.setattr(charalg, "_restricted_counts", reversed_counts)
    assert [outcome(branch, emb, lam) for lam in weights] == expect, emb.label


def reference_kernel(emb, lam):
    """``walk_branch`` on the library's own restriction: every weight
    unpacked, broken pairs found by reflecting tuples one at a time, and
    every weight descended for the Racah-Speiser count."""
    return walk_branch(emb, lam, restricted_character)


def _spied_dominant_count(monkeypatch):
    """Record, for each call of ``_dominant_count``, whether it decomposed."""
    taken = []
    dominant_count = charalg._dominant_count

    def spy(*args):
        out = dominant_count(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(charalg, "_dominant_count", spy)
    return taken


@functools.lru_cache(maxsize=None)
def _rho_shift_heights(h):
    """<rho - w rho, 2 rho_vee> for every w in W_H, ascending."""
    hv = [sum(col) for col in zip(*h.coroots)]
    rho_h = Weight([1] * h.rank)
    return sorted(sum(map(operator.mul, hv, (rho_h - w.act(rho_h)).coords))
                  for w in enumerate_parabolic(h))


def _no_more_w_than_keys(h, multiset):
    """Whether at most as many w lie under the span of the dominant keys'
    heights as there are keys: the sum at the dominant keys is taken."""
    hv = [sum(col) for col in zip(*h.coroots)]
    heights = [sum(map(operator.mul, hv, nu)) for nu in multiset if min(nu) >= 0]
    span = max(heights) - min(heights)
    return bisect.bisect_right(_rho_shift_heights(h), span) <= len(multiset)


def assert_matches_tuple_reference(emb, weights, monkeypatch):
    """``branch`` and the restriction kernel against ``reference_kernel``, in
    value and order, and, with every w of W_H listed, every character
    decomposed on the dominant keys unless more w lie under their span than
    there are keys."""
    order = emb.h.weyl_order
    assert rootsys.rho_shifts(emb.h, 10 ** 9, order, order) is not None
    taken = _spied_dominant_count(monkeypatch)
    for lam in weights:
        expect = outcome(reference_kernel, emb, lam)
        assert outcome(branch, emb, lam) == expect, (emb.label, lam)
        taken.clear()
        assert outcome(charalg._branch_by_restriction, emb, lam) == expect, (emb.label, lam)
        if isinstance(expect, list):
            summed = _no_more_w_than_keys(emb.h, restricted_character(emb, lam))
            assert taken == [summed], (emb.label, lam)


@pytest.mark.parametrize("emb", WITNESS_CASES, ids=lambda e: e.label)
def test_invariance_check_matches_the_tuple_reference(emb, monkeypatch):
    # branch checks W_H-invariance on packed keys: the image of key nu under
    # s_i is read at key - nu_i pack(alpha_i), which is pack(s_i nu) only if
    # every digit of s_i nu lies within half.  For |nu_j| <= bound and
    # |a_ij| <= 3, |(s_i nu)_j| = |nu_j - nu_i a_ij| <= 4 bound, so the keys
    # are packed with half > 4 bound; with less room a reflected key could
    # alias another key and hide a broken pair.
    assert_matches_tuple_reference(emb, dominant_weights_upto(emb.g, 60), monkeypatch)


@pytest.mark.parametrize("emb,lam,text", [
    (diagonal("A1", 2), (1, 1), None),
    (EDGE_EMBEDDINGS[0][0], (1,), "non-integral H-weight (1/2)"),
    (EDGE_EMBEDDINGS[2][0], (1, 0), "is not dominant"),
    (NON_CHARACTERS[0][0], (1,), "negative residual multiplicity -1 at (0)"),
    (SATURATED[0], (2, 2), "negative residual multiplicity -1 at (0)"),
], ids=["character", "non-integral", "not-invariant", "not-saturated", "negative-residual"])
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


# -- the H side on dominant keys ---------------------------------------------------

# the embeddings of the branch-sweep benchmark workload
SWEEP = [getattr(embed, name)(*args) for name, args in (
    ("folding_E6F4", ()), ("folding_B3G2", ()),
    ("folding_AC", (2,)), ("folding_AC", (3,)), ("folding_AC", (4,)),
    ("folding_DB", (4,)), ("folding_DB", (5,)),
    ("so_in_sl", (5,)), ("so_in_sl", (6,)), ("so_in_sl", (8,)),
    ("diagonal", ("A1", 2)), ("diagonal", ("A1", 3)), ("diagonal", ("A2", 2)),
    ("diagonal", ("A2", 3)), ("diagonal", ("B2", 2)), ("diagonal", ("G2", 3)),
    ("levi", ("E6", (1, 3, 4, 5, 6))), ("levi", ("B4", (2, 3, 4))),
    ("levi", ("A5", (1, 2, 4, 5))), ("levi", ("F4", (1, 2, 3))))]


@pytest.mark.parametrize("emb", SWEEP, ids=lambda e: e.label)
def test_sweep_embeddings_match_the_tuple_reference(emb, monkeypatch):
    # every weight of dimension <= 2 000, or every k-th one where there are
    # more than 120 (the diagonal embeddings have up to 70 000)
    weights = dominant_weights_upto(emb.g, 2000)
    assert_matches_tuple_reference(emb, weights[::-(-len(weights) // 120)], monkeypatch)


@pytest.mark.parametrize("emb,lam,text", [
    (NON_CHARACTERS[0][0], (1,), "negative residual multiplicity -1 at (0)"),
    (NON_CHARACTERS[1][0], (2,), "negative residual multiplicity -1 at (4)"),
    (CROWDED[0], (1,), "weight (4, -1) of the restricted character is not dominant"),
    (_custom("A1", "E8", [[1]] * 8, "A1-E8:rho"), (1,),
     "weight (2, 1, -1, 2, 1, 1, 1, 1) of the restricted character is not dominant"),
], ids=["double", "triple", "not-invariant", "E8-orbit"])
def test_keys_that_are_not_saturated_or_invariant_go_to_the_descent(emb, lam, text, monkeypatch):
    # double restricts to the keys (+-2) at (1), triple to (+-6), (0) at (2):
    # invariant, but n_nu < 0 at a weight that is not a key.  The dominant
    # key rho of E8 has an orbit of 696 729 600 weights against 2 keys, and
    # is declined before any orbit is listed
    taken = _spied_dominant_count(monkeypatch)
    with pytest.raises(ValueError) as caught:
        charalg._branch_by_restriction(emb, Weight(lam))
    assert str(caught.value).startswith(text) and taken == [False]


def test_every_w_h_image_of_a_dominant_key_has_room_in_its_digits():
    emb, kappa = ROOMY[0], (3, 3, 3, 3)
    h = emb.h
    counts, radix, half = charalg._restricted_counts(emb, Weight([1]))
    powers = [radix ** j for j in range(h.rank)]
    assert sum(map(operator.mul, kappa, powers)) in counts
    orbit = weyl_orbit(h, Weight(kappa))
    assert max(max(map(abs, nu)) for nu in orbit) == 33 > 16
    keys = list(charalg._orbit_keys(h, kappa, powers, {}))
    assert len(set(keys)) == len(orbit) == 1152
    assert set(zip(*charalg._unpack(keys, h.rank, radix, half))) == orbit


def test_a_cold_branch_lists_only_the_w_under_its_height_span(monkeypatch):
    # (0, 0, 0, 0, 0, 2) of E6 restricted to A5: the Racah-Speiser sum needs
    # the w with <rho - w rho, 2 rho_vee> at most the span of the dominant
    # keys' heights, not all 720 elements of W(A5).  A cold call lists no
    # more of them than 1 + keys / 16 and descends every key if that is not
    # all; the calls after it go on listing, and take the sum once all are
    # listed.  No call builds the regular orbit table of A5
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    taken = _spied_dominant_count(monkeypatch)
    emb = levi("E6", (1, 3, 4, 5, 6))
    h, lam = emb.h, Weight([0, 0, 0, 0, 0, 2])
    multiset = restricted_character(emb, lam)
    hv = [sum(col) for col in zip(*h.coroots)]
    heights = [sum(map(operator.mul, hv, nu)) for nu in multiset if min(nu) >= 0]
    span = max(heights) - min(heights)
    rho_h = Weight([1] * h.rank)
    under = [w for w in enumerate_parabolic(h)
             if sum(map(operator.mul, hv, (rho_h - w.act(rho_h)).coords)) <= span]
    assert len(under) == 49 < h.weyl_order == 720
    expect, budget = branch(emb, lam), 1 + len(multiset) // 16
    for calls in range(1, 20):
        listed = len(rootsys._orbit_tables[h.components, "rho"][0][0])
        assert listed == min(calls * budget, len(under))
        if listed == len(under):
            break
        taken.clear()
        assert charalg._branch_by_restriction(emb, lam) == expect
        assert taken == [listed + budget >= len(under)]
    rows, waiting, _ = rootsys._orbit_tables[h.components, "rho"][0]
    assert min(row[0] for row in waiting) > span
    assert (h.components, tuple(range(h.rank))) not in rootsys._orbit_tables


@pytest.mark.parametrize("spec", _systems_up_to_rank(3) + ["A5", "G2", "A1,B2"])
def test_rho_shifts_are_every_w_under_the_height_in_height_order(spec, monkeypatch):
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    rs = build_root_system(spec)
    hv = [sum(col) for col in zip(*rs.coroots)]
    rho_rs = Weight([1] * rs.rank)
    every = sorted((sum(map(operator.mul, hv, shift)), shift, w.length() % 2 == 1)
                   for w in enumerate_parabolic(rs)
                   for shift in [(rho_rs - w.act(rho_rs)).coords])
    full = every[-1][0]
    big = len(every) + 1
    # a fresh table declines past its count: once w = 1 is listed, the
    # simple reflections wait under the height, so it lists no more
    assert rootsys.rho_shifts(rs, full, 1, big) is None
    assert len(rootsys._orbit_tables[rs.components, "rho"][0][0]) == 1
    # past its budget: it lists that many w more, and the next call goes on
    assert (rootsys.rho_shifts(rs, full, big, 1) is None) == (len(every) > 2)
    assert len(rootsys._orbit_tables[rs.components, "rho"][0][0]) == 2
    # a lower height, a higher one (listing only the w it adds), then all;
    # each declined by a count one short, then listed
    for height in (full // 4, full // 2 + 1, 10 * full):
        under = [row for row in every if row[0] <= height]
        assert rootsys.rho_shifts(rs, height, len(under) - 1, big) is None
        rows = rootsys.rho_shifts(rs, height, len(under), big)
        assert rows[0] == (0, (0,) * rs.rank, False)
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)
        assert sorted(rows) == under
        assert rootsys.rho_shifts(rs, height // 2, len(under), 0) == rows[:len(
            [row for row in under if row[0] <= height // 2])]
    assert rootsys._table_total == sum(size for _, size in rootsys._orbit_tables.values())


@pytest.mark.parametrize("spec,lam", [
    ("B16", (0, 1) + (0,) * 14), ("A16", (1,) + (0,) * 14 + (1,)), ("E8", (0,) * 7 + (1,))])
def test_more_w_under_the_span_than_keys_descend_every_key(spec, lam, monkeypatch):
    # the adjoint module of a large H: its dominant keys' heights span
    # 2 ht(theta), and far more w of W_H lie under that than the module has
    # weights (tens of thousands on B16 against 513 keys), so every call
    # declines the sum and descends every key.  Each lists at most
    # 1 + keys / 16 more w, and the listing stops for good once the w listed
    # and the w waiting under the span outnumber the keys
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    taken = _spied_dominant_count(monkeypatch)
    emb, lam = embed.identity(spec), Weight(lam)
    keys = len(charalg._restricted_counts(emb, lam)[0])
    budget, listed = 1 + keys // 16, [0]
    for _ in range(6):
        taken.clear()
        assert charalg._branch_by_restriction(emb, lam) == {lam: 1} and taken == [False]
        listed.append(len(rootsys._orbit_tables[emb.h.components, "rho"][0][0]))
    assert listed[1] == budget and all(0 <= b - a <= budget for a, b in zip(listed, listed[1:]))
    assert listed[-1] == listed[-2] < keys


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
