"""The shared reflection primitives against closed forms, and the J normaliser.

``reflect`` and ``descend`` in ``rootsys`` carry every Weyl-group loop of
the package, so they are checked here, with the reference ``orbit_walk`` of
``tests/oracles.py``, against |W| / |W_{J0}| and against ``from_word``, on
every root system of rank at most 4 (products included) at each dominant
weight of a small box.
"""

import itertools

import pytest

from frobcrit.charalg import weyl_orbit
from frobcrit.criteria import conjugated_borel_check
from frobcrit.embed import levi
from frobcrit.rootsys import (
    Weight,
    build_root_system,
    descend,
    index_set,
    parabolic_weyl_order,
    reflect,
    rho_J,
    subsystem_components,
)
from frobcrit.weyl import (
    enumerate_parabolic,
    from_word,
    longest_element,
    verify_st_decomp,
)

from oracles import orbit_walk
from test_weyl import _systems_up_to_rank


def _box(rank):
    return itertools.product(range(3) if rank <= 2 else range(2), repeat=rank)


@pytest.mark.parametrize("spec", _systems_up_to_rank(4))
def test_walk_and_descent_match_closed_forms(spec):
    rs = build_root_system(spec)
    full = parabolic_weyl_order(rs, index_set(rs))
    for lam in _box(rs.rank):
        orbit = list(orbit_walk(rs, lam))
        assert len(orbit) == len(set(orbit)), (spec, lam)
        zeros = [i + 1 for i, c in enumerate(lam) if c == 0]
        assert len(orbit) == full // parabolic_weyl_order(rs, zeros), (spec, lam)
        for mu in orbit:
            end, letters = descend(rs, mu)
            assert end == lam, (spec, lam, mu)
            # the descent applies s_{j1} first, so the letters in order
            # rebuild mu from lam, and reversed they take mu back to lam
            assert from_word(rs, letters).act(Weight(lam)).coords == mu
            assert from_word(rs, reversed(letters)).act(Weight(mu)).coords == lam


@pytest.mark.parametrize("spec", ["A1", "B3", "C2,G2", "D4", "F4"])
def test_reflect_is_the_matrix_of_s_j(spec):
    rs = build_root_system(spec)
    for v in itertools.product((-2, 0, 1), repeat=rs.rank):
        for j in range(1, rs.rank + 1):
            image = reflect(rs, v, j)
            assert image == from_word(rs, (j,)).act(Weight(v)).coords
            assert image[j - 1] == -v[j - 1] and reflect(rs, image, j) == v


def test_walk_carries_extra_coordinates_linearly():
    rs = build_root_system("B3")
    lam = (1, 0, 2)
    extended = [alpha + (sum(alpha), -alpha[0]) for alpha in rs.alphas]
    for nu in orbit_walk(rs, lam + (sum(lam), -lam[0]), extended):
        assert nu[3:] == (sum(nu[:3]), -nu[0])


def test_descent_restricted_to_J_stops_at_J_dominance():
    rs = build_root_system("A3")
    end, letters = descend(rs, (-1, -1, -1), (1, 3))
    assert end[0] >= 0 and end[2] >= 0 and set(letters) <= {1, 3}
    assert descend(rs, (2, -1, 0), (1,)) == ((2, -1, 0), [])


def test_weyl_orbit_of_a_non_dominant_weight():
    rs = build_root_system("G2")
    assert weyl_orbit(rs, Weight([-1, 1])) == weyl_orbit(rs, Weight([1, 0]))


def test_alphas_are_cartan_columns():
    rs = build_root_system("G2")
    assert rs.alphas == ((2, -1), (-3, 2))


def _index_set_calls(J):
    rs = build_root_system("C3")
    return [
        lambda: index_set(rs, J),
        lambda: enumerate_parabolic(rs, J),
        lambda: longest_element(rs, J),
        lambda: verify_st_decomp(rs, J),
        lambda: rho_J(rs, J),
        lambda: subsystem_components(rs, J),
        lambda: levi(rs, J),
        lambda: conjugated_borel_check(levi(rs, [1]), from_word(rs, ()), J),
    ]


@pytest.mark.parametrize("J", [[1.5], [True], ["1"], [1, 2.0]])
def test_index_sets_refuse_non_integers(J):
    for call in _index_set_calls(J):
        with pytest.raises(TypeError, match="J entry must be an integer"):
            call()


@pytest.mark.parametrize("J", [[0], [4], [1, -2]])
def test_index_sets_refuse_out_of_range(J):
    for call in _index_set_calls(J):
        with pytest.raises(ValueError, match="outside 1..3"):
            call()


def test_index_set_sorts_and_deduplicates():
    rs = build_root_system("C3")
    assert index_set(rs, [3, 1, 3]) == (1, 3)
    assert index_set(rs) == (1, 2, 3)
    assert index_set(rs, ()) == ()


@pytest.mark.parametrize("components", [
    [("A", 2.5)], [("A", True)], [("A", "2")], [(1, 2)], [("A", 1), ("B", 2.0)],
])
def test_root_system_refuses_non_integer_rank_and_non_string_letter(components):
    with pytest.raises(TypeError):
        build_root_system(components)
