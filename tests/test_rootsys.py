import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from frobcrit.criteria import thm41_hypotheses
from frobcrit.embed import Embedding, identity
from frobcrit.rootsys import (
    MAX_RANK,
    RootSystem,
    Weight,
    _layout,
    _nonnegative,
    _pack,
    _unpack,
    build_root_system,
    parabolic_weyl_order,
    parse_spec,
    positive_roots_on,
    rho,
    rho_J,
    root_classes,
    root_to_weight,
    subsystem_components,
)

from oracles import (
    cartan_pairing,
    closed_weyl_order,
    eps_cartan,
    eps_positive_roots,
    eps_simple_roots,
    eps_vector_of_root,
    reference_positive_roots_on,
    reflection_orbit_positive_roots,
)
from test_weyl import _systems_up_to_rank

ALL_SPECS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
             "D3", "D4", "D5", "G2", "F4", "E6"]


# -- construction and parsing ------------------------------------------------

def test_parse_spec_basic():
    assert parse_spec("C2") == [("C", 2)]
    assert parse_spec("A1,C2") == [("A", 1), ("C", 2)]
    assert parse_spec("A1,A1,A1") == [("A", 1)] * 3


@pytest.mark.parametrize("bad", ["", "H3", "A0", "B1", "C1", "D2", "E5", "E9",
                                 "F3", "G3", "a2", "A2,", "A-1", "A2 C2"])
def test_parse_spec_rejects(bad):
    with pytest.raises(ValueError):
        build_root_system(bad)


def test_build_accepts_pairs():
    assert build_root_system([("A", 1), ("C", 2)]) == build_root_system("A1,C2")


def test_build_root_system_shares_one_system_per_component_tuple():
    rs = build_root_system("A2")
    assert all(build_root_system(spec) is rs
               for spec in ([("A", 2)], [["a", 2]], (("A", 2),), "A2"))
    assert build_root_system("A1,C2") is build_root_system([("a", 1), ["C", 2]])
    fresh = RootSystem([("A", 2)])
    assert fresh is not rs and fresh == rs


@pytest.mark.parametrize("spec, error, message", [
    ("A17", ValueError, "refusing a root system of rank 17: the cap is 16"),
    ([("A", 0)], ValueError, "invalid simple component A0"),
    ("B1", ValueError, "invalid simple component B1"),
    ("D2", ValueError, "invalid simple component D2"),
    ("E5", ValueError, "invalid simple component E5"),
    ("E9", ValueError, "invalid simple component E9"),
    ("F3", ValueError, "invalid simple component F3"),
    ("G3", ValueError, "invalid simple component G3"),
    ([("A", True)], TypeError, "rank must be an integer, got True"),
    ([], ValueError, "a root system needs at least one component"),
    ("X2", ValueError, "cannot parse root-system component 'X2'"),
], ids=repr)
def test_refused_spec_raises_on_every_call(spec, error, message):
    for _ in range(2):
        with pytest.raises(error) as caught:
            build_root_system(spec)
        assert str(caught.value) == message


def test_spec_string_roundtrip():
    for spec in ("A1", "C2", "A1,C2", "A1,A1"):
        assert build_root_system(spec).spec_string() == spec


# -- Cartan matrices ---------------------------------------------------------

def test_cartan_g2():
    assert build_root_system("G2").cartan == ((2, -3), (-1, 2))


def test_cartan_f4():
    assert build_root_system("F4").cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )


def test_cartan_b3_c3_transposes():
    b = build_root_system("B3").cartan
    c = build_root_system("C3").cartan
    assert all(b[i][j] == c[j][i] for i in range(3) for j in range(3))


@pytest.mark.parametrize("letter,lo,hi", [("A", 1, 4), ("B", 2, 4),
                                          ("C", 2, 4), ("D", 3, 5)])
def test_cartan_matches_epsilon_model(letter, lo, hi):
    for n in range(lo, hi + 1):
        rs = build_root_system(f"{letter}{n}")
        assert [list(r) for r in rs.cartan] == eps_cartan(letter, n)


def test_product_cartan_is_block_diagonal():
    rs = build_root_system("A1,C2")
    assert rs.cartan == ((2, 0, 0), (0, 2, -2), (0, -1, 2))
    assert rs.component_spans == ((0, 1), (1, 3))


# -- positive roots ----------------------------------------------------------

@pytest.mark.parametrize("spec,count", [
    ("A1", 1), ("A2", 3), ("A3", 6), ("A4", 10),
    ("B2", 4), ("B3", 9), ("B4", 16),
    ("C2", 4), ("C3", 9), ("C4", 16),
    ("D3", 6), ("D4", 12), ("D5", 20),
    ("G2", 6), ("F4", 24), ("E6", 36),
    ("A1,C2", 5),
])
def test_positive_root_counts(spec, count):
    assert len(build_root_system(spec).positive_roots) == count


@pytest.mark.parametrize("letter,lo,hi", [("A", 1, 4), ("B", 2, 4),
                                          ("C", 2, 4), ("D", 3, 5)])
def test_positive_roots_match_epsilon_model(letter, lo, hi):
    for n in range(lo, hi + 1):
        rs = build_root_system(f"{letter}{n}")
        model = {eps_vector_of_root(letter, n, c) for c in rs.positive_roots}
        expect = {tuple(Fraction(x) for x in v)
                  for v in eps_positive_roots(letter, n)}
        assert model == expect


@pytest.mark.parametrize("spec", ALL_SPECS + ["A1,C2", "A2,G2"])
def test_positive_roots_match_reflection_orbit(spec):
    rs = build_root_system(spec)
    assert set(rs.positive_roots) == reflection_orbit_positive_roots(rs)


@pytest.mark.parametrize("spec", ALL_SPECS + ["A1,C2", "A2,G2", "B2,A1,G2"])
def test_highest_coroots_give_the_largest_pairing_with_a_dominant_weight(spec):
    # the bound of both branch kernels, and the denominator of weyl_dim
    rs = build_root_system(spec)
    assert len(rs.highest_coroots) == len(rs.components)
    for co in rs.coroots:  # under its own component's highest coroot, entry by entry
        assert sum(all(map(operator.le, co, top)) for top in rs.highest_coroots) == 1, co
    rng = random.Random(spec)
    for _ in range(40):
        lam = Weight([rng.randint(0, 5) for _ in range(rs.rank)])
        expect = max(cartan_pairing(rs, lam, beta) for beta in rs.positive_roots)
        assert max(sum(map(operator.mul, lam.coords, co)) for co in rs.highest_coroots) == expect
    assert rs.dim_denominator == math.prod(
        cartan_pairing(rs, Weight([1] * rs.rank), beta) for beta in rs.positive_roots)


@pytest.mark.parametrize("spec", [s for s in _systems_up_to_rank(4) if "," not in s]
                         + ["E6", "G2,A1"])
def test_root_classes_pick_one_dominant_positive_root_per_orbit(spec):
    rs = build_root_system(spec)
    roots = rs.positive_weights
    for size in range(rs.rank + 1):
        for zeros in itertools.combinations(range(1, rs.rank + 1), size):
            reps, sizes, where = root_classes(rs, zeros)
            assert sum(sizes) == len(roots), zeros
            assert sizes == [where.count(i) for i in range(len(reps))], zeros
            for beta, i in zip(roots, where):
                # the W_J0-orbit of beta under s_j v = v - v_j alpha_j, j in J0
                orbit, frontier = {beta}, [beta]
                while frontier:
                    u = frontier.pop()
                    for j in zeros:
                        v = tuple(x - u[j - 1] * a for x, a in zip(u, rs.alphas[j - 1]))
                        if v not in orbit:
                            orbit.add(v)
                            frontier.append(v)
                rep = roots[reps[i]]
                assert rep in orbit and all(rep[j - 1] >= 0 for j in zeros), (zeros, beta)
            if not zeros:
                assert reps == list(range(len(roots))) and sizes == [1] * len(roots)


def test_positive_roots_sorted_by_height():
    rs = build_root_system("G2")
    heights = [sum(c) for c in rs.positive_roots]
    assert heights == sorted(heights)
    assert rs.positive_roots[0] == (0, 1)
    assert rs.positive_roots[-1] == (3, 2)  # highest root of G2


def test_highest_root_f4():
    assert build_root_system("F4").positive_roots[-1] == (2, 3, 4, 2)


# -- pairings and weights ----------------------------------------------------

def test_pairing_c2_reference_values():
    rs = build_root_system("C2")
    r = rho(rs)
    assert cartan_pairing(rs, r, (1, 1)) == 3
    assert cartan_pairing(rs, r, (2, 1)) == 2


def _simple_root(rs, i):
    """alpha_{i+1} in root coordinates."""
    return tuple(int(k == i) for k in range(rs.rank))


def test_pairing_simple_roots_recover_cartan():
    for spec in ("A3", "B3", "C3", "G2", "F4"):
        rs = build_root_system(spec)
        for j in range(rs.rank):
            alpha = root_to_weight(rs, _simple_root(rs, j))
            for i in range(rs.rank):
                got = cartan_pairing(rs, alpha, _simple_root(rs, i))
                assert got == rs.cartan[i][j]


def test_fundamental_weights_dual_to_coroots():
    for spec in ("A2", "C2", "G2", "D4"):
        rs = build_root_system(spec)
        for i in range(rs.rank):
            omega = Weight([int(k == i) for k in range(rs.rank)])
            for j in range(rs.rank):
                got = cartan_pairing(rs, omega, _simple_root(rs, j))
                assert got == int(i == j)


def test_rho_and_rho_J():
    rs = build_root_system("C3")
    assert rho(rs).coords == (1, 1, 1)
    assert rho_J(rs, (1, 3)).coords == (1, 0, 1)
    assert rho_J(rs, ()).coords == (0, 0, 0)
    with pytest.raises(ValueError):
        rho_J(rs, (0,))
    with pytest.raises(ValueError):
        rho_J(rs, (4,))


def test_rho_is_half_sum_of_positive_roots():
    # <rho, alpha_i^vee> = 1 for all i is the defining property; cross-check
    # the half-sum form in fundamental coordinates.
    for spec in ("A2", "B3", "C2", "G2", "F4", "D4"):
        rs = build_root_system(spec)
        total = Weight([0] * rs.rank)
        for c in rs.positive_roots:
            total = total + root_to_weight(rs, c)
        assert total.coords == tuple(2 * x for x in rho(rs).coords)


def test_weight_arithmetic():
    a = Weight([1, 2])
    b = Weight([0, 5])
    assert (a + b).coords == (1, 7)
    assert (a - b).coords == (1, -3)
    assert (-a).coords == (-1, -2)
    assert (3 * a).coords == (3, 6)
    assert (a * Fraction(1, 2)).coords == (Fraction(1, 2), 1)
    assert a != b and hash(Weight([1, 2])) == hash(a)


def test_floats_and_bools_are_refused_where_exact_numbers_are_taken():
    assert Weight([2, Fraction(6, 4), "1/2", "3"]).coords == (2, Fraction(3, 2), Fraction(1, 2), 3)
    assert (Weight([1, 2]) * "1/2").coords == (Fraction(1, 2), 1)
    a1 = build_root_system("A1")
    for bad in (0.1, 1.0, True, False):
        with pytest.raises(TypeError, match=repr(bad)):
            Weight([bad])
        with pytest.raises(TypeError, match=repr(bad)):
            Weight([1]) * bad
        with pytest.raises(TypeError, match=repr(bad)):
            bad * Weight([1])
        with pytest.raises(TypeError, match=repr(bad)):
            Embedding(a1, a1, [[bad]], "custom")
    with pytest.raises(TypeError, match="True"):
        thm41_hypotheses(identity("A1"), Weight([True]), 2)


def test_dominance_predicates():
    assert Weight([0, 0]).is_dominant()
    assert Weight([2, 0]).is_dominant()
    assert not Weight([2, -1]).is_dominant()
    assert Weight([1, 1]).is_regular_dominant()
    assert not Weight([2, 0]).is_regular_dominant()
    assert not Weight([Fraction(1, 2)]).is_integral()
    assert Weight([4]).is_integral()


# -- subdiagram classification -----------------------------------------------

def test_classify_levi_pieces():
    f4 = build_root_system("F4")
    assert subsystem_components(f4, (2, 3, 4)) == [("C", 3, (3, 2, 1))]
    assert subsystem_components(f4, (1, 2, 3)) == [("B", 3, (0, 1, 2))]
    assert subsystem_components(f4, (1, 2)) == [("A", 2, (0, 1))]
    assert subsystem_components(f4, (2, 3)) == [("C", 2, (2, 1))]

    b3 = build_root_system("B3")
    assert subsystem_components(b3, (2, 3)) == [("C", 2, (2, 1))]
    assert subsystem_components(b3, (1, 2)) == [("A", 2, (0, 1))]

    e6 = build_root_system("E6")
    assert subsystem_components(e6, (1, 2, 3, 4, 5, 6)) == [("E", 6, (0, 1, 2, 3, 4, 5))]
    assert subsystem_components(e6, (1, 3, 4, 5, 6)) == [("A", 5, (0, 2, 3, 4, 5))]
    assert subsystem_components(e6, (2, 3, 4, 5)) == [("D", 4, (4, 3, 1, 2))]

    d4 = build_root_system("D4")
    # triality: any arm ordering is a valid D4 arrangement, this is the one
    # the classifier settles on
    assert subsystem_components(d4, (1, 2, 3, 4)) == [("D", 4, (3, 1, 0, 2))]
    assert subsystem_components(d4, (1, 2, 4)) == [("A", 3, (0, 1, 3))]


def test_classify_disconnected():
    a4 = build_root_system("A4")
    assert subsystem_components(a4, (1, 3, 4)) == [("A", 1, (0,)), ("A", 2, (2, 3))]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_classification_of_full_diagram_is_identity(spec):
    rs = build_root_system(spec)
    [(letter, rank, order)] = subsystem_components(rs, range(1, rs.rank + 1))
    # rank-2 doubles canonicalize to C2 and D3 to A3
    aliases = {"B2": ("C", 2), "D3": ("A", 3)}
    assert (letter, rank) == aliases.get(spec, (spec[0], rs.rank))
    assert sorted(order) == list(range(rs.rank))


# -- Weyl group orders from the heights of the positive roots ----------------

@pytest.mark.parametrize("letter,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 24),
    ("B", 2, 8), ("B", 3, 48), ("C", 4, 384),
    ("D", 4, 192), ("D", 5, 1920),
    ("G", 2, 12), ("F", 4, 1152),
    ("E", 6, 51840), ("E", 7, 2903040), ("E", 8, 696729600),
])
def test_component_weyl_order(letter, rank, order):
    assert build_root_system([(letter, rank)]).weyl_order == order


def _simple_types_up_to_rank(max_rank):
    return [f"{letter}{n}" for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
            for n in range(low, max_rank + 1)]


SIMPLE_TYPES = _simple_types_up_to_rank(MAX_RANK) + ["E6", "E7", "E8", "F4", "G2"]


# every J of these: 2 626 index sets, 256 of them of E8
ORDER_SPECS = (_simple_types_up_to_rank(8) + ["E6", "E7", "E8", "F4", "G2"]
               + ["A2,B2", "G2,A1,C3", "B3,G2", "A1,A1,A1,A1"])


def _every_J(rs):
    return itertools.chain.from_iterable(
        itertools.combinations(range(1, rs.rank + 1), size) for size in range(rs.rank + 1))


@pytest.mark.parametrize("spec", ORDER_SPECS)
def test_parabolic_weyl_order_is_the_closed_form_over_the_classified_pieces(spec):
    rs = build_root_system(spec)
    for J in _every_J(rs):
        pieces = subsystem_components(rs, J)
        expected = math.prod(closed_weyl_order(letter, rank) for letter, rank, _ in pieces)
        assert parabolic_weyl_order(rs, J) == expected, (spec, J)


@pytest.mark.parametrize("spec", ORDER_SPECS)
def test_positive_roots_on_J_are_the_roots_supported_on_J_in_order(spec):
    rs = build_root_system(spec)
    for J in _every_J(rs):
        supported = [beta for beta in rs.positive_roots
                     if all(beta[k] == 0 for k in range(rs.rank) if k + 1 not in J)]
        # the support masks against the column scan they replaced, too
        assert positive_roots_on(rs, J) == supported == reference_positive_roots_on(rs, J), \
            (spec, J)


@pytest.mark.parametrize("spec", SIMPLE_TYPES)
def test_weyl_order_of_every_simple_type_is_the_closed_form(spec):
    # B6 and E6 both have 36 positive roots, and |W| 46 080 and 51 840:
    # the heights decide it, not the number of roots
    assert build_root_system(spec).weyl_order == closed_weyl_order(spec[0], int(spec[1:]))


def test_parabolic_weyl_order():
    f4 = build_root_system("F4")
    assert parabolic_weyl_order(f4, ()) == 1
    assert parabolic_weyl_order(f4, (1, 2, 3, 4)) == 1152
    assert parabolic_weyl_order(f4, (2, 3, 4)) == 48     # C3
    assert parabolic_weyl_order(f4, (1, 3)) == 4         # A1 x A1
    e6 = build_root_system("E6")
    assert parabolic_weyl_order(e6, (1, 3, 4, 5, 6)) == 720  # A5


# -- property tests ----------------------------------------------------------

@given(st.sampled_from(ALL_SPECS), st.data())
def test_pairing_linear_in_first_argument(spec, data):
    rs = build_root_system(spec)
    coords = st.integers(min_value=-4, max_value=4)
    lam = Weight(data.draw(st.lists(coords, min_size=rs.rank, max_size=rs.rank)))
    mu = Weight(data.draw(st.lists(coords, min_size=rs.rank, max_size=rs.rank)))
    beta = data.draw(st.sampled_from(rs.positive_roots))
    assert (cartan_pairing(rs, lam + mu, beta)
            == cartan_pairing(rs, lam, beta) + cartan_pairing(rs, mu, beta))


@pytest.mark.parametrize("spec", list(dict.fromkeys(
    ALL_SPECS + ["A1,C2", "A2,G2", "E7", "E8"] + _systems_up_to_rank(4))))
def test_coroot_table_gives_the_pairing(spec):
    rs = build_root_system(spec)
    assert len(rs.coroots) == len(rs.positive_weights) == len(rs.positive_roots)
    for beta, bw, co in zip(rs.positive_roots, rs.positive_weights, rs.coroots):
        assert bw == root_to_weight(rs, beta).coords and all(type(c) is int for c in bw)
        assert all(type(c) is int and c >= 0 for c in co)
        for i in range(rs.rank):
            omega = Weight([int(k == i) for k in range(rs.rank)])
            assert cartan_pairing(rs, omega, beta) == co[i]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_simple_coroot_pairing_integrality(spec):
    rs = build_root_system(spec)
    for beta in rs.positive_roots:
        for i in range(rs.rank):
            omega = Weight([int(k == i) for k in range(rs.rank)])
            v = cartan_pairing(rs, omega, beta)
            assert isinstance(v, int) or v.denominator == 1
            assert v >= 0


@pytest.mark.parametrize("spec", _systems_up_to_rank(4) + ["E6", "E7", "E8", "G2,F4"])
def test_symmetrizer_is_positive_ints_symmetrizing_the_cartan_matrix(spec):
    rs = build_root_system(spec)
    d, a = rs.symmetrizer, rs.cartan
    assert type(d) is tuple and len(d) == rs.rank
    assert all(type(x) is int and x > 0 for x in d)
    assert all(d[i] * a[i][j] == d[j] * a[j][i]
               for i in range(rs.rank) for j in range(rs.rank))


@pytest.mark.parametrize("spec", SIMPLE_TYPES)
def test_symmetrizer_is_half_the_squared_lengths_of_the_simple_roots(spec):
    letter, n = spec[0], int(spec[1:])
    if letter in "ABCD":  # the epsilon model, scaled so that a short root has d = 1
        squares = [sum(x * x for x in alpha) for alpha in eps_simple_roots(letter, n)]
        lengths = tuple(Fraction(s, min(squares)) for s in squares)
    else:
        lengths = {"E": (1,) * n, "F": (2, 2, 1, 1), "G": (1, 3)}[letter]
    assert build_root_system(spec).symmetrizer == lengths


@pytest.mark.parametrize("spec", ["B2,A1", "A2,B2", "F4,A1", "G2,F4", "C2,B2", "B3,G2",
                                  "D4,B4,C4,A4", ",".join(["A1"] * 16)])
def test_product_tables_are_the_factors_padded_into_place(spec):
    rs = build_root_system(spec)
    factors = [build_root_system([comp]) for comp in rs.components]
    assert rs.symmetrizer == sum((f.symmetrizer for f in factors), ())
    cartan = [[0] * rs.rank for _ in range(rs.rank)]
    padded = []
    for (lo, hi), f in zip(rs.component_spans, factors):
        for i, row in enumerate(f.cartan):
            cartan[lo + i][lo:hi] = row
        head, tail = (0,) * lo, (0,) * (rs.rank - hi)
        padded += [(head + beta + tail, head + co + tail)
                   for beta, co in zip(f.positive_roots, f.coroots)]
    assert rs.cartan == tuple(map(tuple, cartan))
    padded.sort(key=lambda pair: (sum(pair[0]), pair[0]))
    assert list(zip(rs.positive_roots, rs.coroots)) == padded


# -- the rank cap ----------------------------------------------------------------

def test_rank_cap_admits_max_rank_and_refuses_above():
    assert MAX_RANK >= 8  # E8 and every bundled input
    assert build_root_system(f"A{MAX_RANK}").rank == MAX_RANK
    for spec in (f"A{MAX_RANK + 1}", f"A{MAX_RANK},A1", [("A", 10 ** 9), ("A", 1 - 10 ** 9)]):
        with pytest.raises(ValueError, match=r"refusing a root system of rank \d+: the cap is"):
            build_root_system(spec)


@pytest.mark.parametrize("spec", [[("A", 3), ("B", -1)], [("A", 0)], [("C", -2), ("A", 3)]])
def test_non_positive_component_rank_refused(spec):
    with pytest.raises(ValueError, match="invalid simple component"):
        build_root_system(spec)


# -- the packed-key layout ----------------------------------------------------------

@pytest.mark.parametrize("n,reach", [(1, 0), (1, 7), (2, 1), (3, 8), (4, 100), (2, 10 ** 30)])
def test_layout_round_trips_every_digit_at_its_ends_and_the_top_bits_read_the_signs(n, reach):
    half, powers, offset = _layout(n, reach)
    assert half > reach and half & (half - 1) == 0  # the power of two above reach
    assert powers == tuple((2 * half) ** j for j in range(n))
    assert offset == half * sum(powers)
    # -half and half - 1 in every digit, with -1 and 0 next to the sign change
    vectors = list(itertools.product(sorted({-half, -1, 0, half - 1}), repeat=n))
    keys = [_pack(x, powers) for x in vectors]
    assert len(set(keys)) == len(vectors)
    assert list(zip(*_unpack(keys, (half, powers, offset)))) == vectors
    assert list(_nonnegative(keys, offset)) == [min(x) >= 0 for x in vectors]
