from fractions import Fraction

import pytest

from frobcrit.charalg import (
    branch,
    dominant_conjugate,
    freudenthal,
    fundamental_weight_surjectivity_scan,
    weyl_dim,
    weyl_orbit,
)
from frobcrit.embed import (
    Embedding,
    diagonal,
    folding_B3G2,
    folding_E6F4,
    frobenius_twisted_diagonal,
    identity,
    levi,
    so_in_sl,
)
from frobcrit.rootsys import Weight, build_root_system

from oracles import (
    KostantCounter,
    a1_tensor,
    brute_weyl_with_signs,
    character_multiplicity_oracle,
)
from test_acceptance import dominant_weights_upto, registry_embeddings


def W(*coords):
    return Weight(coords)


# -- orbits and dominant conjugates --------------------------------------------

def test_dominant_conjugate():
    c2 = build_root_system("C2")
    assert dominant_conjugate(c2, W(-1, -1)) == W(1, 1)
    assert dominant_conjugate(c2, W(2, 0)) == W(2, 0)
    a2 = build_root_system("A2")
    assert dominant_conjugate(a2, W(-1, 0)) == W(0, 1)


def test_weyl_orbit_sizes():
    a2 = build_root_system("A2")
    assert len(weyl_orbit(a2, W(1, 0))) == 3
    assert len(weyl_orbit(a2, W(1, 1))) == 6
    assert len(weyl_orbit(a2, W(0, 0))) == 1
    c2 = build_root_system("C2")
    assert len(weyl_orbit(c2, W(1, 1))) == 8
    assert len(weyl_orbit(c2, W(1, 0))) == 4
    g2 = build_root_system("G2")
    assert len(weyl_orbit(g2, W(1, 1))) == 12


# -- dimensions (frozen values, classical tables) ------------------------------

@pytest.mark.parametrize("spec,lam,dim", [
    ("A1", (1,), 2), ("A1", (6,), 7),
    ("A2", (1, 0), 3), ("A2", (1, 1), 8), ("A2", (3, 0), 10),
    ("C2", (1, 0), 4), ("C2", (0, 1), 5), ("C2", (1, 1), 16), ("C2", (0, 2), 14),
    ("G2", (1, 0), 7), ("G2", (0, 1), 14), ("G2", (1, 1), 64),
    ("A3", (0, 1, 0), 6), ("A3", (1, 0, 1), 15),
    ("B3", (0, 0, 1), 8), ("B3", (1, 0, 0), 7),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("A1,A1", (1, 2), 6),
])
def test_dimension_table(spec, lam, dim):
    rs = build_root_system(spec)
    assert freudenthal(rs, Weight(lam)).dimension() == dim
    assert weyl_dim(rs, Weight(lam)) == dim


def test_zero_weight_is_trivial_character():
    rs = build_root_system("F4")
    ch = freudenthal(rs, Weight([0, 0, 0, 0]))
    assert ch.dimension() == 1
    assert ch.weights() == {Weight([0, 0, 0, 0]): 1}


# -- frozen multiplicities ------------------------------------------------------

def test_a2_adjoint_multiplicities():
    rs = build_root_system("A2")
    ch = freudenthal(rs, W(1, 1)).weights()
    assert ch[W(1, 1)] == 1
    assert ch[W(0, 0)] == 2
    assert sum(ch.values()) == 8  # six roots + twice zero


def test_g2_adjoint_zero_multiplicity():
    rs = build_root_system("G2")
    ch = freudenthal(rs, W(0, 1)).weights()
    assert ch[W(0, 0)] == 2
    assert ch[W(1, 0)] == 1


def test_c2_16_dimensional():
    rs = build_root_system("C2")
    ch = freudenthal(rs, W(1, 1)).weights()
    assert ch[W(1, 1)] == 1
    assert ch[W(1, 0)] == 2


def test_freudenthal_rejects_bad_input():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        freudenthal(rs, W(-1, 0))
    with pytest.raises(ValueError):
        freudenthal(rs, Weight([Fraction(1, 2), 0]))
    with pytest.raises(ValueError):
        freudenthal(rs, W(1,))


# -- oracle agreement -----------------------------------------------------------

@pytest.mark.parametrize("spec,lam", [
    ("A2", (2, 1)), ("A2", (2, 2)),
    ("C2", (1, 1)), ("C2", (2, 1)),
    ("G2", (1, 1)), ("G2", (2, 0)),
    ("A3", (1, 1, 1)),
])
def test_multiplicities_match_character_formula(spec, lam):
    rs = build_root_system(spec)
    weyl = brute_weyl_with_signs(rs)
    kostant = KostantCounter(rs)
    ch = freudenthal(rs, Weight(lam)).weights()
    for mu, mult in ch.items():
        if mu.is_dominant():
            assert character_multiplicity_oracle(rs, Weight(lam), mu, weyl,
                                                 kostant) == mult


def test_product_system_character_factorizes():
    rs = build_root_system("A1,A1")
    ch = freudenthal(rs, W(2, 1))
    assert ch.dimension() == 6
    assert ch.weights()[W(0, 1)] == 1
    assert ch.weights()[W(0, -1)] == 1


# -- branching -------------------------------------------------------------------

def test_branch_identity_is_trivial():
    emb = identity("C2")
    assert branch(emb, W(1, 1)) == {W(1, 1): 1}


def test_branch_clebsch_gordan_sweep():
    emb = diagonal("A1", 2)
    for a in range(5):
        for b in range(5):
            got = branch(emb, Weight([a, b]))
            expect = {Weight([c]): 1 for c in a1_tensor(a, b)}
            assert got == expect, (a, b)


def test_branch_frozen_cases():
    assert branch(diagonal("A1", 2), W(1, 1)) == {W(2): 1, W(0): 1}
    assert branch(so_in_sl(4), W(1, 0, 0)) == {W(1, 1): 1}
    assert branch(folding_B3G2(), W(0, 0, 1)) == {W(1, 0): 1, W(0, 0): 1}
    assert branch(folding_E6F4(), W(1, 0, 0, 0, 0, 0)) == \
        {W(0, 0, 0, 1): 1, W(0, 0, 0, 0): 1}
    assert branch(levi(build_root_system("A3"), (1, 3)), W(0, 1, 0)) == \
        {W(1, 1): 1, W(0, 0): 2}


def test_branch_so7_vector_representation():
    got = branch(so_in_sl(7), W(1, 0, 0, 0, 0, 0))
    assert got == {W(1, 0, 0): 1}  # 7 of sl7 stays the vector rep of so7


def test_branch_conserves_dimension():
    cases = [
        (so_in_sl(6), W(0, 1, 0, 0, 0)),
        (so_in_sl(5), W(1, 1, 0, 0)),
        (folding_B3G2(), W(1, 0, 1)),
        (folding_E6F4(), W(0, 0, 0, 0, 0, 1)),
        (diagonal("A2", 2), W(1, 0, 0, 1)),
        (levi(build_root_system("F4"), (2, 3, 4)), W(1, 0, 0, 0)),
    ]
    for emb, lam in cases:
        total = freudenthal(emb.g, lam).dimension()
        parts = sum(mult * weyl_dim(emb.h, top)
                    for top, mult in branch(emb, lam).items())
        assert parts == total, emb.label


def test_branch_rejects_non_integral_restriction():
    emb = Embedding(build_root_system("A1"), build_root_system("A1"),
                    [[Fraction(1, 2)]], label="half")
    with pytest.raises(ValueError, match="non-integral"):
        branch(emb, W(1))


def test_branch_rejects_non_dominant_top():
    emb = Embedding(build_root_system("A2"), build_root_system("A1"),
                    [[1, -1]], label="skew")
    with pytest.raises(ValueError, match="not dominant"):
        branch(emb, W(1, 0))


def reference_branch(emb, lam):
    """Greedy branching on full characters: expand the G-character, restrict
    every weight, and strip whole H-characters from the top."""
    h = emb.h
    residual = {}
    for w, m in freudenthal(emb.g, lam).weights().items():
        rw = tuple(sum(row[j] * w.coords[j] for j in range(emb.g.rank))
                   for row in emb.restriction)
        if not all(Fraction(c).denominator == 1 for c in rw):
            raise ValueError(f"restriction of the weight {w.coords} is the "
                             f"non-integral H-weight {rw}")
        residual[rw] = residual.get(rw, 0) + m
    heights = []
    for j in range(h.rank):
        basis = Weight([1 if k == j else 0 for k in range(h.rank)])
        heights.append(sum(h.root_coordinates(basis), Fraction(0)))

    def key(t):
        return (sum(a * b for a, b in zip(heights, t)), t)

    out = {}
    for top in sorted(residual, key=key, reverse=True):
        mult = residual.get(top, 0)
        if mult == 0:
            continue
        if min(top) < 0:
            raise ValueError(f"maximal weight {top} of the restricted character "
                             f"is not dominant; restriction is not a character of H")
        if mult < 0:
            raise ValueError(f"negative residual multiplicity {mult} at {top}")
        for w, m in freudenthal(h, Weight(top)).weights().items():
            left = residual.get(w.coords, 0) - mult * m
            if left == 0:
                residual.pop(w.coords, None)
            else:
                residual[w.coords] = left
        out[Weight(top)] = mult
    if residual:
        worst = max(residual, key=key)
        raise ValueError(f"negative residual multiplicity {residual[worst]} at {worst}")
    return out


@pytest.mark.parametrize("emb", registry_embeddings(), ids=lambda e: e.label)
def test_branch_matches_full_character_reference(emb):
    for lam in dominant_weights_upto(emb.g, 200):
        got = branch(emb, lam)
        expect = reference_branch(emb, lam)
        assert list(got.items()) == list(expect.items()), (emb.label, lam)


EDGE_EMBEDDINGS = [
    (Embedding(build_root_system("A1"), build_root_system("A1"), [[Fraction(1, 2)]],
               label="half"), [(1,), (2,)]),
    (Embedding(build_root_system("A1"), build_root_system("A1"), [[2]],
               label="double"), [(1,), (2,), (3,)]),
    (Embedding(build_root_system("A2"), build_root_system("A1"), [[1, -1]],
               label="skew"), [(1, 0), (1, 1), (2, 1)]),
    (Embedding(build_root_system("A2"), build_root_system("A1"),
               [[Fraction(1, 2), Fraction(1, 2)]], label="halves"), [(1, 0), (1, 1)]),
    (Embedding(build_root_system("A2"), build_root_system("A1"), [[1, 1]],
               label="sum"), [(1, 0), (1, 1), (2, 1)]),
    (Embedding(build_root_system("B2"), build_root_system("A1"), [[1, 0]],
               label="first"), [(1, 0), (0, 1)]),
    (diagonal("A1", 2), [(0, 0), (3, 2)]),
    (frobenius_twisted_diagonal("A1", 2), [(1, 1), (0, 1), (3, 1)]),
    (frobenius_twisted_diagonal("A2", 3), [(1, 0, 1, 0), (0, 0, 1, 1)]),
]


@pytest.mark.parametrize("emb,weights", EDGE_EMBEDDINGS,
                         ids=[emb.label for emb, _ in EDGE_EMBEDDINGS])
def test_branch_raises_exactly_where_reference_raises(emb, weights):
    for coords in weights:
        lam = Weight(coords)
        try:
            expect = reference_branch(emb, lam)
        except ValueError as err:
            with pytest.raises(ValueError) as caught:
                branch(emb, lam)
            for text in ("non-integral", "not a character of H",
                         "negative residual multiplicity"):
                assert (text in str(err)) == (text in str(caught.value)), coords
        else:
            assert list(branch(emb, lam).items()) == list(expect.items())


def test_branch_rejects_invariant_non_character():
    # Res is doubling: {2, -2} is W_H-invariant, yet stripping L(2) leaves -1 at 0
    emb = Embedding(build_root_system("A1"), build_root_system("A1"), [[2]],
                    label="double")
    with pytest.raises(ValueError, match="negative residual multiplicity"):
        branch(emb, W(1))


# -- surjectivity scan -------------------------------------------------------------

def test_scan_b3g2():
    rows = fundamental_weight_surjectivity_scan(folding_B3G2())
    assert [r.index for r in rows] == [1, 2, 3]
    assert [r.top_weight for r in rows] == [W(1, 0), W(0, 1), W(1, 0)]
    assert all(r.top_multiplicity == 1 and r.multiplicity_one for r in rows)


def test_scan_diagonal():
    rows = fundamental_weight_surjectivity_scan(diagonal("A1", 2))
    assert [r.top_weight for r in rows] == [W(1), W(1)]
    assert all(r.multiplicity_one for r in rows)
