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
import gc
import itertools
import math
import operator
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from frobcrit import charalg, embed, rootsys, weyl
from frobcrit.charalg import branch, freudenthal, weyl_dim, weyl_orbit
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
from frobcrit.weyl import enumerate_parabolic, rho_shifts

from oracles import orbit_walk, reference_broken_pairs, reference_lifts
from test_acceptance import SWEEP, dominant_weights_upto, registry_embeddings
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
        for nu in orbit_walk(g, mu + res(mu), extended):
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


def restricted_character(emb, lam):
    """The library's restriction to H of the irreducible G-module with highest
    weight lam, as {H-weight coordinates: multiplicity}, in no particular
    order; raises at the non-integral weight highest in ``_height_order``."""
    counts, layout = charalg._restricted_counts(emb, lam)
    return dict(zip(zip(*rootsys._unpack(counts, layout)), counts.values()))


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
        counts, layout = restricted_counts(*args)
        return dict(reversed(counts.items())), layout

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


def _spied(monkeypatch, name):
    """The output of every call of ``charalg.<name>``, in the order made."""
    outputs = []
    fn = getattr(charalg, name)

    def spy(*args):
        outputs.append(fn(*args))
        return outputs[-1]

    monkeypatch.setattr(charalg, name, spy)
    return outputs


def _calls(monkeypatch, module, name):
    """The arguments of every call of ``module.<name>``, in the order made."""
    calls = []
    fn = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


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
    value and order, and, with all of W_H listed, every character summed on
    the dominant keys unless more w lie under their span than there are
    keys, and peeled otherwise."""
    assert rho_shifts(emb.h, emb.h.weyl_order) is not None
    peeled = _spied(monkeypatch, "_peeled_count")
    for lam in weights:
        expect = outcome(reference_kernel, emb, lam)
        assert outcome(branch, emb, lam) == expect, (emb.label, lam)
        peeled.clear()
        assert outcome(charalg._branch_by_restriction, emb, lam) == expect, (emb.label, lam)
        if isinstance(expect, list):
            summed = _no_more_w_than_keys(emb.h, restricted_character(emb, lam))
            assert len(peeled) == (not summed), (emb.label, lam)


def peeled_outcome(emb, lam):
    """``outcome`` of ``_peeled_count`` called on the dominant part of the
    restricted multiset, with every H-character built whole."""
    multiset = restricted_character(emb, lam)
    nus = [nu for nu in multiset if min(nu) >= 0]
    virtual = charalg._peeled_count(emb.h, nus, [multiset[nu] for nu in nus], None)
    negative = [(nu, n) for nu, n in virtual.items() if n < 0]
    if negative:
        ((nu, n),) = negative  # the walk stops at the first one
        return "ValueError", f"negative residual multiplicity {n} at {_text(nu)}"
    key = _height_key(emb.h)
    return [(Weight(nu), virtual[nu]) for nu in sorted(virtual, key=key, reverse=True)
            if virtual[nu]]


@pytest.mark.parametrize("emb", WITNESS_CASES, ids=lambda e: e.label)
def test_invariance_check_matches_the_tuple_reference(emb, monkeypatch):
    # branch checks W_H-invariance on packed keys: the image of key nu under
    # s_i is read at key - nu_i pack(alpha_i), which is pack(s_i nu) only if
    # every digit of s_i nu lies within half.  For |nu_j| <= bound and
    # |a_ij| <= 3, |(s_i nu)_j| = |nu_j - nu_i a_ij| <= 4 bound, so the keys
    # are packed with half > 4 bound; with less room a reflected key could
    # alias another key and hide a broken pair.
    assert_matches_tuple_reference(emb, dominant_weights_upto(emb.g, 60), monkeypatch)


@pytest.mark.parametrize("emb,lam,text,restrictions", [
    (diagonal("A1", 2), (1, 1), None, 1),
    (EDGE_EMBEDDINGS[0][0], (1,), "non-integral H-weight (1/2)", 1),
    (EDGE_EMBEDDINGS[2][0], (1, 0), "is not dominant", 1),
    (NON_CHARACTERS[0][0], (1,), "negative residual multiplicity -1 at (0)", 1),
    # certified, |W_G| = 4 and dimension 9: the divided numerator refuses it
    # and restricts no character
    (SATURATED[0], (2, 2), "negative residual multiplicity -1 at (0)", 0),
], ids=["character", "non-integral", "not-invariant", "not-saturated", "negative-residual"])
def test_branch_restricts_once_on_every_path(emb, lam, text, restrictions, monkeypatch):
    calls = []
    restricted_counts = charalg._restricted_counts

    def counted(*args):
        calls.append(args)
        return restricted_counts(*args)

    monkeypatch.setattr(charalg, "_restricted_counts", counted)
    result = outcome(branch, emb, Weight(lam))
    assert len(calls) == restrictions
    assert (result[0] == "ValueError" and text in result[1]) if text else result


# -- the H side on dominant keys ---------------------------------------------------

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
    # keys that are not saturated are peeled, and keys that are not
    # W_H-invariant refused at a broken pair before _dominant_count is
    # called.  double restricts to the keys (+-2) at (1), triple to (+-6),
    # (0) at (2): invariant, but n_nu < 0 at a weight that is not a key.  The
    # dominant key rho of E8 has an orbit of 696 729 600 weights against 2
    # keys, and the broken-pair scan lists no orbit of W_H
    counted = _spied(monkeypatch, "_dominant_count")
    peeled = _spied(monkeypatch, "_peeled_count")
    tables = _calls(monkeypatch, charalg, "orbit_table")
    with pytest.raises(ValueError) as caught:
        charalg._branch_by_restriction(emb, Weight(lam))
    assert str(caught.value).startswith(text)
    invariant = text.startswith("negative")
    assert len(counted) == len(peeled) == invariant
    assert invariant or [args for args in tables if args[0] == emb.h] == []


def test_unsaturated_keys_build_no_character_larger_than_the_module():
    # A1 in A1 through [[k]] restricts V(lam) to the keys k (lam - 2 j): the
    # top key's V(k lam) has k lam / 2 + 1 dominant weights, and the peel
    # stops at the first of them below the top, k lam - 2, which is not a
    # key.  Each V(nu) is built only down to the highest dominant
    # kappa - beta missing from the keys, so this is two weights, not 10^9
    for k, lam, text in ((3, 6000, "-1 at (17998)"), (10 ** 9, 1, "-1 at (999999998)"),
                         (10 ** 99, 2, f"-1 at ({2 * 10 ** 99 - 2})")):
        emb = _custom("A1", "A1", [[k]], f"A1-A1:[{k}]")
        with pytest.raises(ValueError, match=re.escape(f"multiplicity {text}")):
            branch(emb, Weight([lam]))


def test_every_w_h_image_of_a_dominant_key_has_room_in_its_digits():
    emb, kappa = ROOMY[0], (3, 3, 3, 3)
    h = emb.h
    counts, layout = charalg._restricted_counts(emb, Weight([1]))
    powers = layout[1]
    assert sum(map(operator.mul, kappa, powers)) in counts
    orbit = weyl_orbit(h, Weight(kappa))
    assert max(max(map(abs, nu)) for nu in orbit) == 33 > 16
    eye = tuple(tuple(int(i == k) for i in range(h.rank)) for k in range(h.rank))
    keys = list(charalg._orbit_keys(charalg._orbit_values(h, eye, layout), kappa))
    assert len(set(keys)) == len(orbit) == 1152
    assert set(zip(*charalg._unpack(keys, layout))) == orbit


@pytest.mark.parametrize("spec,lam", [("A2", (3, 2)), ("B3", (1, 0, 2)), ("G2", (2, 1)),
                                      ("A1,B2", (3, 1, 1))])
def test_freudenthal_to_a_depth_is_the_character_above_it(spec, lam):
    rs = build_root_system(spec)
    whole = freudenthal(rs, Weight(lam)).multiplicities
    hv = [sum(col) for col in zip(*rs.coroots)]
    top = sum(map(operator.mul, hv, lam))
    for depth in range(8):
        # lam - mu of height h has root coordinates adding up to h / 2
        expect = {mu: m for mu, m in whole.items()
                  if top - sum(map(operator.mul, hv, mu)) <= 2 * depth}
        assert freudenthal(rs, Weight(lam), depth).multiplicities == expect, (spec, depth)


def _invariant_inputs():
    """(embedding, weight) for every registry and branch-sweep embedding at
    every weight of dimension <= 200, and every weight of dimension <= 60 of
    the double, triple and saturated witnesses."""
    embeddings = {emb.label: emb for emb in registry_embeddings() + SWEEP}
    for emb in embeddings.values():
        for lam in dominant_weights_upto(emb.g, 200):
            yield emb, lam
    for emb in (NON_CHARACTERS[0][0], NON_CHARACTERS[1][0], SATURATED[0]):
        for lam in dominant_weights_upto(emb.g, 60):
            yield emb, lam


def test_the_peel_matches_the_descent_on_every_invariant_multiset():
    # the expansion of a W_H-invariant multiset in the ch V(nu) is unique, so
    # peeling gives the descent's n_nu, and the first negative one it meets
    # is the highest; both read the library's restriction, which the tests
    # above check against the walk
    compared, products = 0, set()
    for emb, lam in _invariant_inputs():
        expect = outcome(reference_kernel, emb, lam)
        if expect[0] == "ValueError" and "is not dominant" in expect[1]:
            continue  # not W_H-invariant: refused before any count
        assert peeled_outcome(emb, lam) == expect, (emb.label, lam)
        compared += 1
        if len(emb.h.components) > 1:
            products.add(emb.label)
    assert {"so_in_sl:n=4", "levi:A5:J=[1, 2, 4, 5]"} <= products
    assert compared > 1000


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
    # a fresh table lists nothing for a count short of |W|
    assert rho_shifts(rs, len(every) - 1) is None
    assert (rs.components, "rho") not in rootsys._orbit_tables
    rows = rho_shifts(rs, len(every))
    assert rows[0] == (0, (0,) * rs.rank, False)
    assert [row[0] for row in rows] == [row[0] for row in every]
    assert sorted(rows) == every
    # once kept, every call reads the same list, whatever its count
    assert rho_shifts(rs, 0) is rows
    assert rootsys._table_total == sum(size for _, size in rootsys._orbit_tables.values())


def test_a_cold_branch_lists_only_the_w_under_its_height_span(monkeypatch):
    # (0, 0, 0, 0, 0, 2) of E6 restricted to A5: the Racah-Speiser sum needs
    # only the w with <rho - w rho, 2 rho_vee> at most the span of the
    # dominant keys' heights, fewer than its 162 keys, but W(A5) is listed
    # only whole, by a call with at least 720 keys.  A cold call with fewer keys lists nothing and peels; once a
    # larger module has listed W(A5), the same call takes the sum.  No call
    # builds the regular orbit table of A5
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    peeled = _spied(monkeypatch, "_peeled_count")
    emb = levi("E6", (1, 3, 4, 5, 6))
    h, lam, large = emb.h, Weight([0, 0, 0, 0, 0, 2]), Weight([0, 0, 0, 0, 0, 3])
    multiset = restricted_character(emb, lam)
    assert _no_more_w_than_keys(h, multiset)
    assert len(multiset) < h.weyl_order == 720 <= len(restricted_character(emb, large))
    expect = reference_kernel(emb, lam)
    assert charalg._branch_by_restriction(emb, lam) == expect and len(peeled) == 1
    assert (h.components, "rho") not in rootsys._orbit_tables
    assert charalg._branch_by_restriction(emb, large) == reference_kernel(emb, large)
    assert len(rootsys._orbit_tables[h.components, "rho"][0]) == 720
    peeled.clear()
    assert charalg._branch_by_restriction(emb, lam) == expect and not peeled
    assert (h.components, tuple(range(h.rank))) not in rootsys._orbit_tables


@pytest.mark.parametrize("spec,lam", [
    ("B16", (0, 1) + (0,) * 14), ("A16", (1,) + (0,) * 14 + (1,)), ("E8", (0,) * 7 + (1,))])
def test_more_w_under_the_span_than_keys_descend_every_key(spec, lam, monkeypatch):
    # the adjoint module of a large H: far more w of W_H lie under the span
    # of its dominant keys' heights than the module has weights (tens of
    # thousands on B16 against 513 keys), and W_H is larger still, so every
    # call lists no w and peels the one constituent
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    peeled = _spied(monkeypatch, "_peeled_count")
    emb, lam = embed.identity(spec), Weight(lam)
    for calls in range(1, 4):
        assert charalg._branch_by_restriction(emb, lam) == {lam: 1}
        assert len(peeled) == calls
        assert (emb.h.components, "rho") not in rootsys._orbit_tables


# -- the invariance certificate ----------------------------------------------------

def _principal(spec):
    """The principal A1 in G: Res mu = <mu, 2 rho_vee>."""
    g = build_root_system(spec)
    return Embedding(g, build_root_system("A1"), [g.two_rho_vee], f"principal:{spec}")


def _small_builder_embeddings():
    """Every builder at every parameter whose G has rank <= 4, Levi
    subgroups at every J."""
    out = [embed.identity(spec) for spec in _systems_up_to_rank(4)]
    for spec in _systems_up_to_rank(4):
        rank = build_root_system(spec).rank
        out += [levi(spec, J) for size in range(1, rank + 1)
                for J in itertools.combinations(range(1, rank + 1), size)]
    for spec in _systems_up_to_rank(2):
        rank = build_root_system(spec).rank
        out += [diagonal(spec, k) for k in range(2, 4 // rank + 1)]
        out += [embed.frobenius_twisted_diagonal(spec, p) for p in (2, 3)]
    out += [embed.folding_AC(2), embed.folding_DB(4), embed.folding_B3G2()]
    out += [so_in_sl(n) for n in (3, 4, 5)]
    return out + [_principal(spec) for spec in _systems_up_to_rank(4)]


def test_the_certificate_is_the_brute_force_lift_on_every_small_embedding():
    embeddings = [emb for emb in registry_embeddings() if emb.g.rank <= 4]
    embeddings += _small_builder_embeddings()
    assert len(embeddings) > 500
    for emb in embeddings:
        assert emb.reflection_lifts == reference_lifts(emb), emb.label


_SIMPLE_UP_TO_8 = [s for s in _systems_up_to_rank(8) if "," not in s] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("emb", [
    *(embed.identity(spec) for spec in _SIMPLE_UP_TO_8 + ["B16", "C16", "D16", "A16"]),
    *(_principal(spec) for spec in _SIMPLE_UP_TO_8),
    embed.folding_DB(16), folding_E6F4(), *registry_embeddings(), *SWEEP,
    *(levi("E8", J) for J in itertools.combinations(range(1, 9), 4)),
], ids=lambda e: e.label)
def test_every_builder_embedding_is_certified(emb, monkeypatch):
    # one descent per coweight: no Weyl group is walked and no table kept
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    walks = _calls(monkeypatch, weyl, "walk_parabolic")
    fresh = Embedding(emb.g, emb.h, emb.restriction, emb.label)
    assert all(fresh.reflection_lifts)
    assert not walks and not rootsys._orbit_tables


def test_no_witness_with_a_broken_pair_is_certified():
    broken = []
    for emb in WITNESS_CASES:
        for lam in dominant_weights_upto(emb.g, 60):
            try:
                pairs = reference_broken_pairs(emb.h, restricted_character(emb, lam))
            except ValueError:  # a non-integral weight
                continue
            if pairs:
                broken.append(emb.label)
                assert not all(emb.reflection_lifts), (emb.label, lam)
                break
        if emb.g.weyl_order <= 1152:
            assert emb.reflection_lifts == reference_lifts(emb), emb.label
    assert len(broken) >= 5


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_systems_up_to_rank(3)), st.sampled_from(_systems_up_to_rank(2)),
       st.data())
def test_the_certificate_is_the_brute_force_lift_on_small_matrices(g_spec, h_spec, data):
    g, h = build_root_system(g_spec), build_root_system(h_spec)
    row = st.lists(st.integers(-2, 2), min_size=g.rank, max_size=g.rank)
    emb = Embedding(g, h, data.draw(st.lists(row, min_size=h.rank, max_size=h.rank)), "fuzz")
    assert emb.reflection_lifts == reference_lifts(emb)
    if all(emb.reflection_lifts):
        for lam in _fundamental(g.rank):
            assert reference_broken_pairs(h, restricted_character(emb, lam)) == [], lam


def test_a_certified_count_is_the_checked_count():
    # the broken-pair scan, which a certified call skips, finds a pair
    # exactly where the tuple oracle does, and so none on a certified case:
    # every case of this file, at every weight of dimension <= 200 (every
    # k-th one past 60 weights)
    cases = {id(emb): emb for emb in registry_embeddings() + SWEEP + WITNESS_CASES}
    compared, broken = Counter(), 0
    for emb in cases.values():
        weights = dominant_weights_upto(emb.g, 200)
        for lam in weights[::-(-len(weights) // 60)]:
            try:
                counts, layout = charalg._restricted_counts(emb, lam)
            except ValueError:  # a non-integral weight
                continue
            restricted = dict(zip(zip(*charalg._unpack(counts, layout)), counts.values()))
            pairs = reference_broken_pairs(emb.h, restricted)
            found = charalg._broken_pair(emb.h, counts, layout)
            assert (found is None) == (pairs == []), (emb.label, lam)
            compared[all(emb.reflection_lifts)] += 1
            broken += found is not None
    assert compared[True] > 1000 and compared[False] > 100 and broken >= 10


def test_a_certified_branch_builds_no_w_h_orbit_table(monkeypatch):
    # levi:E6 restricted to A5 with cold tables: the certificate stands in
    # for any invariance check, and no table of W(A5) is built or read
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    monkeypatch.setattr(charalg, "_char_cache", {})
    tables = _calls(monkeypatch, charalg, "orbit_table")
    sizes = _calls(monkeypatch, charalg, "orbit_size")
    emb = levi("E6", (1, 3, 4, 5, 6))
    for lam in (Weight([0, 0, 0, 0, 0, 2]), Weight([1, 0, 0, 0, 0, 1])):
        assert branch(emb, lam) == reference_kernel(emb, lam)
    assert all(emb.reflection_lifts)
    # nor does an uncertified one whose restriction is W_H-invariant: the
    # broken-pair scan finds no pair, and n_(1) = -2 is refused
    skew = _custom("A2", "A1", [[1, -1]], "skew")
    assert not all(skew.reflection_lifts)
    with pytest.raises(ValueError, match=r"^negative residual multiplicity -2 at \(1\)$"):
        branch(skew, Weight([1, 1]))
    assert [args for args in tables + sizes if args[0] in (emb.h, skew.h)] == []
    assert any(args[0] == emb.g for args in tables)  # the G side reads its tables


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


def test_orbit_tables_refuse_an_orbit_above_the_enumeration_cap(monkeypatch):
    # a weight of A3 with support {1, 2} has an orbit of 24 / 2 = 12 points:
    # refused at a cap of 11 before its table is built, built at 12, and
    # refused again at 11 once the table is kept
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    a3 = build_root_system("A3")
    text = (r"^refusing the orbit table of A3 on the support \[1, 2\]: the orbit has "
            r"12 points, cap is 11$")
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "11")
    for entry in (orbit_table, orbit_layers):
        with pytest.raises(ValueError, match=text):
            entry(a3, (0, 1))
    assert [key[-1] for key in rootsys._orbit_tables] == ["size"]
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "12")
    assert len(orbit_table(a3, (0, 1))[0]) == orbit_layers(a3, (0, 1))[-1] == 12
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "11")
    for entry in (orbit_table, orbit_layers):
        with pytest.raises(ValueError, match=text):
            entry(a3, (0, 1))
    # by default the regular orbit of E8 is refused by its size alone
    monkeypatch.delenv("FROBCRIT_ENUM_CAP")
    with pytest.raises(ValueError, match=r"the orbit has 696729600 points, cap is 1000000$"):
        orbit_layers(build_root_system("E8"), tuple(range(8)))


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
    # branch's packed tables at four radices (half 16 to 256, and 16 to
    # 4096), each grown by the multiples that the next weight reads
    cases += [(embed.folding_AC(2), lam) for lam in ((1, 0, 0), (3, 0, 0), (9, 0, 2), (30, 0, 1))]
    cases += [(diagonal("A1", 2), lam) for lam in ((1, 1), (6, 2), (40, 3), (300, 5))]
    expect = [branch(emb, Weight(lam)) for emb, lam in cases]
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    monkeypatch.setattr(rootsys, "_TABLE_BUDGET", 3000)
    packed = 0
    for _ in range(2):
        for (emb, lam), want in zip(cases, expect):
            assert branch(emb, Weight(lam)) == want
            held = sum(size for _, size in rootsys._orbit_tables.values())
            assert held == rootsys._table_total <= 3000
            packed += any(isinstance(value, charalg._OrbitValues)
                          for value, _ in rootsys._orbit_tables.values())
    assert packed >= len(cases)


# -- branch's kept tables ----------------------------------------------------------

def _store_cases():
    """Every registry embedding, every embedding of the branch-sweep
    benchmark, two identities and a Frobenius twist, which branch refuses,
    each at four weights of dimension <= 400, spread from the lowest up."""
    embs = registry_embeddings() + SWEEP + [
        embed.identity("B2"), embed.identity("A1,G2"), embed.frobenius_twisted_diagonal("A1", 2)]
    cases = []
    for emb in embs:
        weights = dominant_weights_upto(emb.g, 400)
        cases += [(emb, lam) for lam in weights[1::-(-len(weights) // 4)]]
    return cases


def test_branch_is_the_same_with_its_tables_cold_warm_or_dropped(monkeypatch):
    # the kept tables only save work: with an empty store, a full one, and
    # a budget that drops tables mid-sweep, every outcome is the tuple
    # oracle's, in value and order
    cases = _store_cases()
    expect = [outcome(walk_branch, emb, lam) for emb, lam in cases]
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    monkeypatch.setattr(charalg, "_char_cache", {})
    assert [outcome(branch, emb, lam) for emb, lam in cases] == expect
    assert [outcome(branch, emb, lam) for emb, lam in cases] == expect
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    monkeypatch.setattr(rootsys, "_TABLE_BUDGET", 5000)
    seen, dropped = set(), set()
    for (emb, lam), want in zip(cases, expect):
        assert outcome(branch, emb, lam) == want, (emb.label, lam)
        now = {key for key, (value, _) in rootsys._orbit_tables.items()
               if isinstance(value, charalg._OrbitValues)}
        dropped |= seen - now
        seen |= now
    assert len(dropped) > 10


def test_branch_tables_are_keyed_by_value_and_not_by_the_embedding(monkeypatch):
    # embeddings built, branched and dropped one at a time: a freed
    # embedding's id is often the next one's, and a table keyed by it would
    # restrict the next matrix by the last one's columns.  The matrices of
    # equal row sums share each call's layout
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    g, h = build_root_system("A1,A1"), build_root_system("A1")
    weights = [Weight(lam) for lam in ((1, 1), (2, 1), (3, 2), (1, 4))]
    for rows in ([[1, 1]], [[2, 0]], [[1, 0]], [[0, 2]], [[1, 1]], [[0, 1]], [[2, 0]]):
        emb = Embedding(g, h, rows, "custom")
        assert ([outcome(branch, emb, lam) for lam in weights]
                == [outcome(walk_branch, emb, lam) for lam in weights]), rows
        del emb
        gc.collect()
    # an equal matrix in a new embedding finds every table it reads kept
    before = dict(rootsys._orbit_tables)
    emb = Embedding(g, h, [[Fraction(2, 2), 1]], "equal")
    assert [outcome(branch, emb, lam) for lam in weights] == [
        outcome(walk_branch, emb, lam) for lam in weights]
    assert rootsys._orbit_tables.keys() == before.keys()
    assert all(rootsys._orbit_tables[key][0] is value for key, (value, _) in before.items())


def test_char_cache_stays_at_its_bound(monkeypatch):
    emb = diagonal("A2", 3)
    weights = [Weight(lam) for lam in itertools.product(range(2), repeat=6)]
    expect = [branch(emb, lam) for lam in weights]
    monkeypatch.setattr(charalg, "_char_cache", {})
    monkeypatch.setattr(charalg, "_CHAR_CACHE_SIZE", 3)
    assert [branch(emb, lam) for lam in weights] == expect
    assert len(charalg._char_cache) == 3
