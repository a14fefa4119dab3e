import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from frobcrit import rootsys, weyl
from frobcrit.rootsys import (
    DEFAULT_ENUM_CAP,
    RootSystem,
    Weight,
    build_root_system,
    parabolic_weyl_order,
    reflect,
    reflect_word,
    rho,
    rho_J,
    root_to_weight,
)
from frobcrit.weyl import (
    EnumerationCapExceeded,
    WeylElement,
    enumerate_parabolic,
    from_word,
    identity,
    longest_element,
    verify_st_decomp,
)

from oracles import (
    brute_weyl_with_signs,
    cartan_pairing,
    permutation_inversion_histogram,
    reference_length,
    root_coordinates,
)


# -- elements and words ------------------------------------------------------

def test_identity():
    rs = build_root_system("C2")
    e = identity(rs)
    assert e.is_identity() and e.length() == 0 and e.word == ()
    assert e.act(Weight([3, -1])).coords == (3, -1)


def test_simple_reflection_action():
    rs = build_root_system("C2")
    s1 = from_word(rs, (1,))
    # s_i fixes omega_j for j != i and sends omega_i to omega_i - alpha_i
    assert s1.act(Weight([0, 1])).coords == (0, 1)
    assert s1.act(Weight([1, 0])).coords == (-1, 1)
    assert s1.length() == 1


def test_from_word_composition_order():
    rs = build_root_system("A2")
    s1 = from_word(rs, (1,))
    s2 = from_word(rs, (2,))
    assert from_word(rs, (1, 2)) == s1 * s2
    assert from_word(rs, (1, 2)) != s2 * s1
    # actions compose right-to-left: (s1 s2).lam = s1(s2(lam))
    lam = Weight([1, 0])
    assert from_word(rs, (1, 2)).act(lam) == s1.act(s2.act(lam))


def test_from_word_rejects_bad_letters():
    rs = build_root_system("A2")
    for bad in ((0,), (3,), (-1,)):
        with pytest.raises(ValueError):
            from_word(rs, bad)


@pytest.mark.parametrize("bad", [(1.5, 2.9), (True,), (1, 2.0), ("1",)])
def test_from_word_refuses_non_int_letters(bad):
    # int() would truncate (1.5, 2.9) to the word (1, 2)
    with pytest.raises(TypeError, match="simple reflection index must be an integer"):
        from_word(build_root_system("C2"), bad)


def test_braid_relations():
    a2 = build_root_system("A2")
    assert from_word(a2, (1, 2, 1)) == from_word(a2, (2, 1, 2))
    c2 = build_root_system("C2")
    assert from_word(c2, (1, 2, 1, 2)) == from_word(c2, (2, 1, 2, 1))
    g2 = build_root_system("G2")
    assert from_word(g2, (1, 2, 1, 2, 1, 2)) == from_word(g2, (2, 1, 2, 1, 2, 1))


def test_involution_and_inverse():
    rs = build_root_system("G2")
    s2 = from_word(rs, (2,))
    assert (s2 * s2).is_identity()
    w = from_word(rs, (1, 2, 1))
    assert (w * w.inverse()).is_identity()
    assert w.inverse().word == (1, 2, 1)[::-1]


def test_length_counts_inverted_positives():
    rs = build_root_system("C2")
    assert from_word(rs, (1, 2)).length() == 2
    assert from_word(rs, (1, 2, 1)).length() == 3
    assert from_word(rs, (1, 1)).length() == 0  # non-reduced word collapses


def test_act_root():
    rs = build_root_system("A2")
    s1 = from_word(rs, (1,))
    assert s1.act_root((1, 0)) == (-1, 0)
    assert s1.act_root((0, 1)) == (1, 1)
    assert s1.act_root((1, 1)) == (0, 1)


# every simple type of rank <= 4, G2, F4 and two products
LENGTH_SPECS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
                "G2", "F4", "A2,B2", "G2,A1"]


@pytest.mark.parametrize("spec", LENGTH_SPECS)
def test_packed_length_matches_the_coroot_sweep_on_every_element(spec):
    rs = build_root_system(spec)
    for w in enumerate_parabolic(rs):
        assert w.length() == reference_length(w) == len(w.word), (spec, w.word)


@pytest.mark.parametrize("spec", ["E6", "E7", "E8"])
def test_packed_length_matches_the_coroot_sweep_on_sampled_parabolics(spec):
    # 12 index sets with |W_J| <= 1 500, drawn per system, and the longest
    # element of W, every one of whose pairings <w rho, beta_vee> is negative
    rs = build_root_system(spec)
    index_sets = [J for size in range(1, rs.rank + 1)
                  for J in itertools.combinations(range(1, rs.rank + 1), size)
                  if parabolic_weyl_order(rs, J) <= 1500]
    for J in random.Random(spec).sample(index_sets, 12):
        for w in enumerate_parabolic(rs, J):
            assert w.length() == reference_length(w) == len(w.word), (spec, J, w.word)
    w0 = longest_element(rs)
    assert w0.length() == reference_length(w0) == len(rs.positive_roots)


# -- enumeration -------------------------------------------------------------

@pytest.mark.parametrize("spec,order", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("C2", 8), ("B3", 48),
    ("G2", 12), ("D4", 192), ("A1,C2", 16),
])
def test_enumerate_full_group(spec, order):
    rs = build_root_system(spec)
    elems = enumerate_parabolic(rs)
    assert len(elems) == order
    assert len({w.matrix for w in elems}) == order


def _right_multiply_generator(rs, mat, j0):
    """mat @ S_j in O(rank^2): only column j changes."""
    n = rs.rank
    col = [sum(mat[k][c] * rs.cartan[c][j0] for c in range(n)) for k in range(n)]
    return tuple(tuple(mat[k][b] - col[k] if b == j0 else mat[k][b] for b in range(n))
                 for k in range(n))


def reference_enumerate(rs, J=None):
    """The matrix breadth-first search that enumerate_parabolic replaced.

    It keeps its own matrix step, so the package's shared one is checked
    against an independent copy.
    """
    members = tuple(range(1, rs.rank + 1)) if J is None else tuple(sorted(set(J)))
    start = identity(rs)
    seen = {start.matrix: start}
    out = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for j in members:
                mat = _right_multiply_generator(rs, w.matrix, j - 1)
                if mat not in seen:
                    elem = WeylElement(rs, mat, w.word + (j,))
                    seen[mat] = elem
                    out.append(elem)
                    nxt.append(elem)
        frontier = nxt
    return out


def _systems_up_to_rank(max_rank):
    simple = [f"{letter}{r}" for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
              for r in range(low, max_rank + 1)] + ["G2", "F4"]
    simple = [c for c in simple if int(c[1:]) <= max_rank]
    found = []

    def extend(prefix, start, rank):
        if prefix:
            found.append(",".join(prefix))
        for i in range(start, len(simple)):
            if rank + int(simple[i][1:]) <= max_rank:
                extend(prefix + [simple[i]], i, rank + int(simple[i][1:]))
    extend([], 0, 0)
    return found


def _words_and_matrices(elements):
    return [(w.word, w.matrix) for w in elements]


@pytest.mark.parametrize("spec", _systems_up_to_rank(5))
def test_enumeration_matches_reference_for_every_J(spec):
    rs = build_root_system(spec)
    for mask in range(2 ** rs.rank):
        J = tuple(j + 1 for j in range(rs.rank) if mask >> j & 1)
        assert _words_and_matrices(enumerate_parabolic(rs, J)) == \
            _words_and_matrices(reference_enumerate(rs, J)), (spec, J)


@pytest.mark.parametrize("spec", ["F4", "E6"])
def test_enumeration_matches_reference_full_group(spec):
    rs = build_root_system(spec)
    ours = enumerate_parabolic(rs)
    assert _words_and_matrices(ours) == _words_and_matrices(reference_enumerate(rs))
    assert all(type(x) is int for w in ours[:50] for row in w.matrix for x in row)


def _lex_first_reduced_words(rs, members):
    """{w^{-1} rho: the lexicographically least reduced word of w} over W_J.

    A depth-first search over the reduced words on ``members``, letters in
    ascending order, meets words in lexicographic order, and all reduced
    words of one element have the same length, so the first one to reach an
    element is its least.  Once a prefix reaches an element met before, by
    a lesser word p', every extension of it has the lesser reduced word p'
    plus the same suffix, so the search skips it.  The word w s_j is reduced
    exactly when w alpha_j > 0, i.e. when <w^{-1} rho, alpha_j_vee> > 0.
    """
    first = {}

    def visit(v, word):
        if v in first:
            return
        first[v] = word
        for j in members:
            if v[j - 1] > 0:
                visit(reflect(rs, v, j), word + (j,))

    visit((1,) * rs.rank, ())
    return first


@pytest.mark.parametrize("spec", _systems_up_to_rank(4) + ["G2,A1"])
def test_enumerated_words_are_lex_first_in_shortlex_order(spec):
    rs = build_root_system(spec)
    for mask in range(2 ** rs.rank):
        J = tuple(j + 1 for j in range(rs.rank) if mask >> j & 1)
        words = [w.word for w in enumerate_parabolic(rs, J)]
        assert words == sorted(words, key=lambda w: (len(w), w)), (spec, J)
        assert {reflect_word(rs, (1,) * rs.rank, w): w for w in words} == \
            _lex_first_reduced_words(rs, J), (spec, J)


def test_enumeration_matches_brute_closure():
    for spec in ("A2", "C2", "G2", "B3"):
        rs = build_root_system(spec)
        ours = {w.matrix for w in enumerate_parabolic(rs)}
        brute = set(brute_weyl_with_signs(rs))
        assert ours == brute


def test_enumerated_words_are_reduced():
    rs = build_root_system("B3")
    for w in enumerate_parabolic(rs):
        assert len(w.word) == w.length()


def test_s4_length_histogram():
    rs = build_root_system("A3")
    hist: dict[int, int] = {}
    for w in enumerate_parabolic(rs):
        hist[w.length()] = hist.get(w.length(), 0) + 1
    assert hist == permutation_inversion_histogram(4)


def test_enumerate_proper_parabolic():
    rs = build_root_system("F4")
    assert len(enumerate_parabolic(rs, (2, 3, 4))) == 48  # C3
    assert len(enumerate_parabolic(rs, (1, 3))) == 4
    assert len(enumerate_parabolic(rs, ())) == 1


def test_parabolic_elements_fix_complementary_weights():
    rs = build_root_system("A3")
    for w in enumerate_parabolic(rs, (1, 2)):
        assert w.act(Weight([0, 0, 5])).coords == (0, 0, 5)


def test_cap_refusal_carries_exact_order():
    rs = build_root_system("E7")
    with pytest.raises(EnumerationCapExceeded) as exc:
        enumerate_parabolic(rs)
    assert exc.value.order == 2903040
    assert exc.value.cap == DEFAULT_ENUM_CAP
    assert "2903040" in str(exc.value)


def test_cap_argument_and_env(monkeypatch):
    rs = build_root_system("A3")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_parabolic(rs, cap=23)
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "23")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_parabolic(rs)
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "24")
    assert len(enumerate_parabolic(rs)) == 24
    # explicit argument wins over the environment
    with pytest.raises(EnumerationCapExceeded):
        enumerate_parabolic(rs, cap=5)


def test_cap_argument_must_be_an_int():
    with pytest.raises(TypeError, match="cap must be an integer"):
        enumerate_parabolic(build_root_system("A3"), cap=23.9)


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_argument_below_one_is_refused_like_the_env_value(cap):
    with pytest.raises(ValueError, match=f"^cap must be a positive integer, got {cap}$"):
        enumerate_parabolic(build_root_system("A2"), cap=cap)


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
def test_bad_cap_env_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", value)
    with pytest.raises(ValueError, match="FROBCRIT_ENUM_CAP must be a positive integer"):
        enumerate_parabolic(build_root_system("A2"))


# -- longest elements --------------------------------------------------------

@pytest.mark.parametrize("spec,word", [
    ("A2", (1, 2, 1)),
    ("C2", (2, 1, 2, 1)),
    ("G2", (2, 1, 2, 1, 2, 1)),
    ("A3", (1, 2, 3, 1, 2, 1)),
])
def test_longest_element_words(spec, word):
    rs = build_root_system(spec)
    w0 = longest_element(rs)
    assert w0.word == word
    assert w0.length() == len(rs.positive_roots)
    assert (w0 * w0).is_identity()


def test_longest_element_negates_all_positives():
    for spec in ("A3", "C3", "G2", "D4"):
        rs = build_root_system(spec)
        w0 = longest_element(rs)
        for beta in rs.positive_roots:
            image = w0.act_root(beta)
            assert all(x <= 0 for x in image)


def test_longest_element_a3_is_antidiagonal_on_fundamentals():
    rs = build_root_system("A3")
    w0 = longest_element(rs)
    assert w0.act(Weight([1, 2, 3])).coords == (-3, -2, -1)


def test_parabolic_longest_element():
    rs = build_root_system("C3")
    w = longest_element(rs, (1, 2))  # A2 inside C3
    assert w.length() == 3
    assert w.act(rho_J(rs, (1, 2))).coords[0] < 0
    with pytest.raises(ValueError):
        longest_element(rs, (4,))


def test_longest_element_is_maximal():
    rs = build_root_system("C2")
    w0 = longest_element(rs)
    assert max(w.length() for w in enumerate_parabolic(rs)) == w0.length()


# -- Steinberg decomposition -------------------------------------------------

def test_verify_st_decomp_frozen_c2():
    rs = build_root_system("C2")
    lhs, rhs, ok = verify_st_decomp(rs, (1,))
    assert ok
    assert lhs.coords == (2, -1)
    assert rhs == lhs


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "B3", "C3", "D4", "G2", "F4"])
def test_verify_st_decomp_all_subsets(spec):
    rs = build_root_system(spec)
    n = rs.rank
    for mask in range(2 ** n):
        J = tuple(j + 1 for j in range(n) if mask >> j & 1)
        lhs, rhs, ok = verify_st_decomp(rs, J)
        assert ok, (spec, J, lhs.coords, rhs.coords)


_RANK8_TYPES = ([f"{letter}{n}" for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                 for n in range(low, 9)] + ["G2", "F4", "E6", "E7", "E8"])


def test_verify_st_decomp_equals_the_weight_path_up_to_rank_8():
    # the tuple sums against Weight arithmetic: sum R_J^+ through root_to_weight, and
    # rho_J - w_0^J rho_J through longest_element's action, on every (type, J)
    pairs = 0
    for spec in _RANK8_TYPES:
        rs = build_root_system(spec)
        for mask in range(1 << rs.rank):
            J = tuple(j + 1 for j in range(rs.rank) if mask >> j & 1)
            lhs, rhs, equal = verify_st_decomp(rs, J)
            roots = rootsys.positive_roots_on(rs, J)
            ref_lhs = root_to_weight(rs, [sum(r[k] for r in roots) for k in range(rs.rank)])
            rj = rho_J(rs, J)
            ref_rhs = rj - longest_element(rs, J).act(rj)
            assert (lhs, rhs, equal) == (ref_lhs, ref_rhs, True), (spec, J)
            assert {type(c) for c in lhs.coords + rhs.coords} == {int}
            pairs += 1
    assert pairs == 2498  # 2 114 as verify-identities --max-rank 8 counts them, and E7, E8


def test_verify_st_decomp_reads_J_and_R_J_once(monkeypatch):
    e8 = build_root_system("E8")  # building it reads R^+ too
    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("index_set", "positive_roots_on"):
        wrapper = counted(name, getattr(rootsys, name))
        for module in (rootsys, weyl):
            monkeypatch.setattr(module, name, wrapper)
    lhs, rhs, equal = verify_st_decomp(e8, (4, 1, 3, 1))
    assert equal and calls == {"index_set": 1, "positive_roots_on": 1}


def _steinberg_weights(rs, J, p):
    """((p-1) rho_J, (1-p) w_0^J rho_J)."""
    rj = rho_J(rs, J)
    return (p - 1) * rj, (1 - p) * longest_element(rs, J).act(rj)


def test_steinberg_weights_frozen():
    rs = build_root_system("C2")
    first, second = _steinberg_weights(rs, (1,), 3)
    assert first.coords == (2, 0)
    assert second.coords == (2, -2)
    first, second = _steinberg_weights(rs, (1, 2), 2)
    assert first.coords == (1, 1)
    assert second.coords == (1, 1)  # -w_0 rho = rho for the full group


def test_steinberg_weights_sum_to_decomposition():
    # (p-1)rho_J + (1-p) w_0^J rho_J == (p-1) sum R_J^+ as weights
    rs = build_root_system("B3")
    p = 5
    for J in ((1,), (2, 3), (1, 2, 3)):
        a, b = _steinberg_weights(rs, J, p)
        lhs, _, _ = verify_st_decomp(rs, J)
        assert (a + b).coords == ((p - 1) * lhs).coords


# -- property tests ----------------------------------------------------------

SMALL_SPECS = ["A2", "C2", "G2", "A3", "B3"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.data())
def test_action_preserves_pairing(spec, data):
    rs = build_root_system(spec)
    word = data.draw(st.lists(st.integers(1, rs.rank), max_size=6))
    w = from_word(rs, word)
    lam = Weight(data.draw(st.lists(st.integers(-3, 3), min_size=rs.rank,
                                    max_size=rs.rank)))
    beta = data.draw(st.sampled_from(rs.positive_roots))
    assert cartan_pairing(rs, w.act(lam), w.act_root(beta)) == \
        cartan_pairing(rs, lam, beta)


@pytest.mark.parametrize("spec", _systems_up_to_rank(3))
def test_act_root_matches_the_action_on_weights(spec):
    rs = build_root_system(spec)
    for w in enumerate_parabolic(rs):
        for beta in rs.positive_roots:
            assert w.act_root(beta) == root_coordinates(rs, w.act(root_to_weight(rs, beta)))


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_simple_reflection_permutes_other_positives(spec):
    rs = build_root_system(spec)
    positives = set(rs.positive_roots)
    for i in range(1, rs.rank + 1):
        s = from_word(rs, (i,))
        alpha = tuple(int(k == i - 1) for k in range(rs.rank))
        others = positives - {alpha}
        assert {s.act_root(beta) for beta in others} == others
        assert s.act_root(alpha) == tuple(-x for x in alpha)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.data())
def test_length_via_word_roundtrip(spec, data):
    rs = build_root_system(spec)
    word = tuple(data.draw(st.lists(st.integers(1, rs.rank), max_size=8)))
    w = from_word(rs, word)
    again = from_word(rs, w.word) if w.word else identity(rs)
    assert again == w
    assert w.length() <= len(word)


def test_stabilizer_of_regular_weight_is_trivial():
    rs = build_root_system("C2")
    r = rho(rs)
    fixers = [w for w in enumerate_parabolic(rs) if w.act(r) == r]
    assert len(fixers) == 1 and fixers[0].is_identity()


# -- the key: w rho packed into one int --------------------------------------

def test_enumeration_builds_no_matrix():
    rs = build_root_system("F4")
    elements = enumerate_parabolic(rs)
    assert all(w._matrix is None for w in elements)
    for w in elements:
        w.act(rho(rs))  # act on a word caches no matrix either
    assert all(w._matrix is None for w in elements)
    last = elements[-1]
    assert last.matrix is last._matrix is not None
    assert all(w._matrix is None for w in elements[:-1])


def _length_through_root_matrix(w):
    return sum(1 for beta in w.rs.positive_roots if all(c <= 0 for c in w.act_root(beta)))


def _check_canonical_form(rs, w):
    lam = Weight([k - 2 for k in range(rs.rank)])
    assert w._matrix is None
    image = w.act(lam)
    assert w._matrix is None
    m = w.matrix
    assert image.coords == tuple(sum(m[i][j] * lam.coords[j] for j in range(rs.rank))
                                 for i in range(rs.rank))
    assert w.length() == _length_through_root_matrix(w) == len(w.word)
    again = from_word(rs, w.word)
    assert again == w and hash(again) == hash(w)
    rebuilt = WeylElement(rs, m)
    assert rebuilt == w and hash(rebuilt) == hash(w)
    assert len(rebuilt.word) == rebuilt.length() and from_word(rs, rebuilt.word) == rebuilt
    assert w.is_identity() == (w.word == ())


@pytest.mark.parametrize("spec", _systems_up_to_rank(4))
def test_canonical_form_on_every_J(spec):
    rs = build_root_system(spec)
    for mask in range(2 ** rs.rank):
        J = tuple(j + 1 for j in range(rs.rank) if mask >> j & 1)
        for w in enumerate_parabolic(rs, J):
            _check_canonical_form(rs, w)


def test_canonical_form_on_e6():
    rs = build_root_system("E6")
    elements = enumerate_parabolic(rs)
    assert all(from_word(rs, w.word) == w for w in elements)
    assert len(set(elements)) == len(elements)
    # the matrix checks cost ~1 ms an element: every 61st, and w_0
    for w in elements[::61] + elements[-1:]:
        _check_canonical_form(rs, w)


@pytest.mark.parametrize("spec,matrix", [
    ("A1,A1", [[2, 0], [0, 2]]),    # w rho = 2 rho descends to no rho
    ("A1,A1", [[0, 1], [1, 0]]),    # fixes rho, but is not the identity
    ("A2", [[0, 1], [1, 0]]),       # the diagram automorphism
    ("C2", [[1, 0], [1, 1]]),
])
def test_constructor_refuses_non_weyl_matrices(spec, matrix):
    with pytest.raises(ValueError, match="is not the matrix of an element of W"):
        WeylElement(build_root_system(spec), matrix)


@pytest.mark.parametrize("entry", [1.0, 1.5, True, "1"])
def test_constructor_refuses_non_int_entries(entry):
    # int() would truncate [[1.5, 0], [0, 1]] to the identity
    with pytest.raises(TypeError, match="matrix entry must be an integer"):
        WeylElement(build_root_system("A1,A1"), [[entry, 0], [0, 1]])


def test_constructor_checks_the_word_and_keeps_it():
    rs = build_root_system("A2")
    w0 = from_word(rs, (2, 1, 2)).matrix
    kept = WeylElement(rs, w0, (1, 2, 1))  # another reduced word of w_0
    assert kept.word == (1, 2, 1) and kept == longest_element(rs)
    with pytest.raises(ValueError, match=r"is not the matrix of the word \(1, 2\)"):
        WeylElement(rs, w0, (1, 2))


def test_products_and_inverses_without_words():
    rs = build_root_system("B3")
    x = WeylElement(rs, from_word(rs, (1, 2, 3)).matrix)
    y = from_word(rs, (3, 2))
    assert x * y == from_word(rs, (1, 2, 3, 3, 2)) == from_word(rs, (1,))
    assert (x * x.inverse()).is_identity()
    inv = x.inverse()
    assert len(inv.word) == inv.length() and from_word(rs, inv.word) == inv
    assert x.inverse() == from_word(rs, (3, 2, 1))


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "A1,C2", "D4"])
def test_equal_elements_have_equal_keys_and_hashes(spec):
    rs = build_root_system(spec)
    fresh = RootSystem(rs.components)
    assert fresh is not rs
    e = identity(rs)
    for w in enumerate_parabolic(rs)[::5]:
        same = [from_word(rs, w.word + (j, j)) for j in range(1, rs.rank + 1)]
        same += [WeylElement(rs, w.matrix), w.inverse().inverse(), w * e,
                 from_word(fresh, w.word)]
        for u in same:
            assert u == w and hash(u) == hash(w) and u.key == w.key, (w.word, u.word)


@pytest.mark.parametrize("first,second", [("B3", "C3"), ("A2", "A1,A1"), ("A3", "A1,A2")])
def test_elements_of_different_systems_of_one_rank_differ(first, second):
    a, b = build_root_system(first), build_root_system(second)
    assert identity(a) != identity(b)
    for u in enumerate_parabolic(a):
        v = from_word(b, u.word)
        assert u != v and v != u
