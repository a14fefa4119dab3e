import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from frobcrit import charalg, rootsys
from frobcrit.charalg import (
    DEFAULT_BRANCH_CAP,
    BranchCapExceeded,
    _branch_by_numerator,
    _branch_by_restriction,
    _numerator_certificate,
    branch,
    freudenthal,
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
from frobcrit.rootsys import Weight, build_root_system, descend, rho
from frobcrit.weyl import rho_shifts

from oracles import (
    KostantCounter,
    a1_tensor,
    brute_weyl_with_signs,
    cartan_pairing,
    character_multiplicity_oracle,
    reference_freudenthal,
    reference_numerator_certificate,
    root_coordinates,
)
from test_acceptance import SWEEP, dominant_weights_upto, registry_embeddings


def W(*coords):
    return Weight(coords)


# -- orbits and dominant conjugates --------------------------------------------

def test_dominant_conjugate():
    c2 = build_root_system("C2")
    assert descend(c2, (-1, -1))[0] == (1, 1)
    assert descend(c2, (2, 0))[0] == (2, 0)
    a2 = build_root_system("A2")
    assert descend(a2, (-1, 0))[0] == (0, 1)


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


def test_weyl_orbit_refuses_an_orbit_above_the_enumeration_cap(monkeypatch):
    a3 = build_root_system("A3")
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "11")  # the orbit of (1, 1, 0) has 24 / 2 points
    with pytest.raises(ValueError, match=r"refusing to list the Weyl orbit of \(1, 1, 0\) "
                                         r"in A3: it has 12 points, cap is 11$"):
        weyl_orbit(a3, W(1, 1, 0))
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "12")
    assert len(weyl_orbit(a3, W(2, -1, 1))) == 12  # s_2 (1, 1, 0)
    # by default E8 at rho, |W(E8)| points, is refused before any table but
    # its orbit size is built
    monkeypatch.delenv("FROBCRIT_ENUM_CAP")
    monkeypatch.setattr(rootsys, "_orbit_tables", {})
    monkeypatch.setattr(rootsys, "_table_total", 0)
    with pytest.raises(ValueError, match="it has 696729600 points, cap is 1000000$"):
        weyl_orbit(build_root_system("E8"), Weight([1] * 8))
    assert [key[-1] for key in rootsys._orbit_tables] == ["size"]


def test_weights_refuses_a_module_above_the_enumeration_cap(monkeypatch):
    # E6 at omega_1 + omega_6 has dimension 650: refused at a cap of 649 before
    # any orbit is listed, with the exact dimension, and listed at 650
    ch = freudenthal(build_root_system("E6"), W(1, 0, 0, 0, 0, 1))
    listed = []
    orbit = charalg.weyl_orbit
    monkeypatch.setattr(charalg, "weyl_orbit", lambda *args: listed.append(args) or orbit(*args))
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "649")
    with pytest.raises(ValueError, match=r"refusing to list the weights of the module of E6 with "
                                         r"highest weight \(1, 0, 0, 0, 0, 1\): its dimension "
                                         r"is 650, cap is 649$"):
        ch.weights()
    assert not listed
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "650")
    assert sum(ch.weights().values()) == ch.dimension() == 650 and listed


def test_freudenthal_refuses_a_closure_above_the_enumeration_cap(monkeypatch):
    # A1 at (198) has the 100 dominant weights (198), (196), ..., (0), and (200) has 101
    a1 = build_root_system("A1")
    monkeypatch.setenv("FROBCRIT_ENUM_CAP", "100")
    assert len(freudenthal(a1, W(198)).multiplicities) == 100
    for top in (200, 10 ** 7):
        with pytest.raises(ValueError, match=rf"^refusing the module of A1 with highest weight "
                                             rf"\({top}\): it has more than 100 dominant "
                                             rf"weights, cap is 100$"):
            freudenthal(a1, W(top))
    # the peel's calls, bounded by depth, stay under the cap
    assert len(freudenthal(a1, W(10 ** 7), depth=10).multiplicities) == 11


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


@pytest.mark.parametrize("emb", registry_embeddings(), ids=lambda e: e.label)
def test_closed_form_dimension_matches_weyl_dim(emb):
    # sum of m(mu) |W| / |W_{J0(mu)}| against the Weyl dimension formula
    for lam in dominant_weights_upto(emb.g, 200):
        assert freudenthal(emb.g, lam).dimension() == weyl_dim(emb.g, lam), lam


# -- the recursion with stored string tails against the whole-string one -------

# every simple system of rank <= 4 with G2, the G of every registry and
# branch-sweep embedding, and four products that put a B or F component next
# to another type, whose symmetrizer scales each component on its own; each
# with the largest dimension it is compared up to: 2 000, except A1, taken at
# 0..300, the four products that would walk 1 to 55 million string starts
# there (0.2 to 18 million dominant weights), which stop at 200, and A2,B2
# and F4,A1, which stop at 1 000 and 500 (about 1 s and 2 s)
REFERENCE_SYSTEMS = {
    "A1": 301, "A2": 2000, "A3": 2000, "A4": 2000, "A5": 2000, "A6": 2000, "A7": 2000,
    "B2": 2000, "B3": 2000, "B4": 2000, "C2": 2000, "C3": 2000, "C4": 2000,
    "D4": 2000, "D5": 2000, "D6": 2000, "E6": 2000, "F4": 2000, "G2": 2000,
    "B2,B2": 2000, "G2,G2,G2": 2000,
    "A1,A1": 200, "A1,A1,A1": 200, "A2,A2": 200, "A2,A2,A2": 200,
    "A2,B2": 1000, "C2,B2": 2000, "B3,G2": 2000, "F4,A1": 500,
}


@pytest.mark.parametrize("spec", REFERENCE_SYSTEMS)
def test_freudenthal_matches_whole_string_recursion(spec):
    rs = build_root_system(spec)
    for lam in dominant_weights_upto(rs, REFERENCE_SYSTEMS[spec]):
        assert freudenthal(rs, lam).multiplicities == reference_freudenthal(rs, lam), lam


# the orbit reduction acts at weights with zero coordinates, where W_mu is
# not trivial; on a product freudenthal reads the orbits of the product's
# zero sets, while the reference multiplies its factors' maps
WALL_SYSTEMS = {"A2,B2": 1000, "G2,A1": 500}


@pytest.mark.parametrize("spec", WALL_SYSTEMS)
def test_freudenthal_matches_whole_string_recursion_on_walls_of_mixed_products(spec):
    rs = build_root_system(spec)
    walls = [lam for lam in dominant_weights_upto(rs, WALL_SYSTEMS[spec]) if 0 in lam.coords]
    assert len(walls) > 400
    for lam in walls:
        assert freudenthal(rs, lam).multiplicities == reference_freudenthal(rs, lam), lam


@pytest.mark.parametrize("spec", ["E7", "E8", "B8"])
def test_closed_form_dimension_matches_weyl_dim_on_walls_of_rank_7_and_8(spec):
    # every omega_i + omega_j has at least rank - 2 zero coordinates
    rs = build_root_system(spec)
    for i, j in itertools.combinations_with_replacement(range(rs.rank), 2):
        coords = [int(k == i) + int(k == j) for k in range(rs.rank)]
        lam = Weight(coords)
        assert freudenthal(rs, lam).dimension() == weyl_dim(rs, lam), coords


def fraction_weyl_dim(rs, lam):
    """prod <lam + rho, beta_vee> / <rho, beta_vee> on Fractions."""
    out = Fraction(1)
    for beta in rs.positive_roots:
        out *= (cartan_pairing(rs, lam + rho(rs), beta)
                / cartan_pairing(rs, rho(rs), beta))
    return out


@pytest.mark.parametrize("spec", ["A1", "A4", "B3", "C4", "D5", "G2", "F4",
                                  "E6", "E7", "A2,A2,A2", "B2,G2"])
def test_integer_weyl_dim_matches_fraction_formula(spec):
    rs = build_root_system(spec)
    rng = random.Random(spec)
    for _ in range(60):
        lam = Weight([rng.randint(0, 12) for _ in range(rs.rank)])
        assert weyl_dim(rs, lam) == fraction_weyl_dim(rs, lam), lam


def test_weyl_dim_rejects_bad_input():
    rs = build_root_system("A2")
    for bad in (W(-1, 0), Weight([Fraction(1, 2), 0]), W(1,)):
        with pytest.raises(ValueError):
            weyl_dim(rs, bad)


def test_zero_weight_is_trivial_character():
    rs = build_root_system("F4")
    ch = freudenthal(rs, Weight([0, 0, 0, 0]))
    assert ch.dimension() == 1
    assert ch.weights() == {(0, 0, 0, 0): 1}


# -- frozen multiplicities ------------------------------------------------------

def test_a2_adjoint_multiplicities():
    rs = build_root_system("A2")
    ch = freudenthal(rs, W(1, 1)).weights()
    assert ch[(1, 1)] == 1
    assert ch[(0, 0)] == 2
    assert sum(ch.values()) == 8  # six roots + twice zero


def test_g2_adjoint_zero_multiplicity():
    rs = build_root_system("G2")
    ch = freudenthal(rs, W(0, 1)).weights()
    assert ch[(0, 0)] == 2
    assert ch[(1, 0)] == 1


def test_c2_16_dimensional():
    rs = build_root_system("C2")
    ch = freudenthal(rs, W(1, 1)).weights()
    assert ch[(1, 1)] == 1
    assert ch[(1, 0)] == 2


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
        if min(mu) >= 0:
            assert character_multiplicity_oracle(rs, Weight(lam), Weight(mu), weyl,
                                                 kostant) == mult


def test_product_system_character_factorizes():
    rs = build_root_system("A1,A1")
    ch = freudenthal(rs, W(2, 1))
    assert ch.dimension() == 6
    assert ch.weights()[(0, 1)] == 1
    assert ch.weights()[(0, -1)] == 1


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


@functools.lru_cache(maxsize=1024)
def full_character(rs, coords):
    """{weight coordinates: multiplicity} over every weight of the module with
    highest weight ``coords``: a product's character is the product of its
    factors' full characters."""
    if len(rs.components) == 1:
        return freudenthal(rs, Weight(coords)).weights()
    char = {(): 1}
    for (lo, hi), comp in zip(rs.component_spans, rs.components):
        factor = full_character(build_root_system([comp]), coords[lo:hi])
        char = {w + v: m * n for w, m in char.items() for v, n in factor.items()}
    return char


def reference_branch(emb, lam):
    """Greedy branching on full characters: expand the G-character, restrict
    every weight, and strip whole H-characters from the top."""
    h = emb.h
    residual = {}
    for w, m in full_character(emb.g, lam.coords).items():
        rw = tuple(sum(row[j] * w[j] for j in range(emb.g.rank))
                   for row in emb.restriction)
        if not all(Fraction(c).denominator == 1 for c in rw):
            raise ValueError(f"restriction of the weight {w} is the "
                             f"non-integral H-weight {rw}")
        residual[rw] = residual.get(rw, 0) + m
    heights = []
    for j in range(h.rank):
        basis = Weight([1 if k == j else 0 for k in range(h.rank)])
        heights.append(sum(root_coordinates(h, basis), Fraction(0)))
    # scaled to integers, which keeps their order and sorts faster
    scale = math.lcm(*(x.denominator for x in heights))
    heights = [int(x * scale) for x in heights]

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
        for w, m in full_character(h, top).items():
            left = residual.get(w, 0) - mult * m
            if left == 0:
                residual.pop(w, None)
            else:
                residual[w] = left
        out[Weight(top)] = mult
    if residual:
        worst = max(residual, key=key)
        raise ValueError(f"negative residual multiplicity {residual[worst]} at {worst}")
    return out


def certified(emb):
    """Whether the divided numerator takes the embedding: both certificates."""
    return _numerator_certificate(emb) is not None and all(emb.reflection_lifts)


def numerator(emb, lam):
    """The divided-numerator kernel on a certified embedding, called on its own."""
    return _branch_by_numerator(emb, lam, _numerator_certificate(emb))


def refusal(kernel, emb, lam):
    """The text of the ValueError that the kernel raises on (emb, lam)."""
    with pytest.raises(ValueError) as caught:
        kernel(emb, lam)
    return str(caught.value)


def kernel_spy(monkeypatch):
    """A function of (emb, lam) that calls ``branch``, answer or refusal, and
    returns the names of the kernels the call ran, in order."""
    ran = []
    for name in ("_branch_by_numerator", "_branch_by_orbit_sums", "_branch_by_restriction"):
        def spy(*args, kernel=getattr(charalg, name), name=name):
            ran.append(name)
            return kernel(*args)
        monkeypatch.setattr(charalg, name, spy)

    def kernels(emb, lam):
        ran.clear()
        try:
            branch(emb, lam)
        except ValueError:
            pass
        return ran
    return kernels


def orbit_sums_qualify(emb, lam):
    """Whether the orbit-sum kernel may take the call: the reflection
    certificate, a simple G, an integral matrix and W_H listed for the
    module's dimension."""
    return (all(emb.reflection_lifts) and len(emb.g.components) == 1
            and emb.integer_rows[0] == 1
            and rho_shifts(emb.h, weyl_dim(emb.g, lam)) is not None)


def numerator_size(emb, lam):
    """The least dimension at which ``branch`` takes the divided numerator:
    |W_G|^2 where the orbit sums qualify, else _NUMERATOR_DIM_PER_ELEMENT |W_G|."""
    order = emb.g.weyl_order
    return order * (order if orbit_sums_qualify(emb, lam) else charalg._NUMERATOR_DIM_PER_ELEMENT)


def expected_kernel(emb, lam):
    """``branch``'s choice: the divided numerator on both certificates and
    the size rule, else the orbit sums where they qualify, else the
    restriction kernel."""
    if (certified(emb) and emb.g.weyl_order <= charalg._NUMERATOR_MAX_ORDER
            and weyl_dim(emb.g, lam) >= numerator_size(emb, lam)):
        return "_branch_by_numerator"
    return "_branch_by_orbit_sums" if orbit_sums_qualify(emb, lam) else "_branch_by_restriction"


@pytest.mark.parametrize("emb", registry_embeddings(), ids=lambda e: e.label)
def test_branch_matches_full_character_reference(emb):
    # branch, and each kernel called on its own whatever branch would choose
    for lam in dominant_weights_upto(emb.g, 200):
        expect = list(reference_branch(emb, lam).items())
        assert list(branch(emb, lam).items()) == expect, (emb.label, lam)
        assert list(_branch_by_restriction(emb, lam).items()) == expect, (emb.label, lam)
        if certified(emb):
            assert list(numerator(emb, lam).items()) == expect, (emb.label, lam)


def test_registry_embeddings_are_certified_but_the_levis():
    embs = registry_embeddings()
    assert [e.label for e in embs if _numerator_certificate(e) is None] == ["levi:C2:J=[1]"]
    assert [e.label for e in embs if not certified(e)] == ["levi:C2:J=[1]"]


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
    # a numerator certificate without reflection_lifts: the restriction
    # kernel answers, refusing at a broken pair or a negative coefficient,
    # and at (5, 5), an invariant character, decomposing
    (Embedding(build_root_system("A2"), build_root_system("A1"), [[3, -1]],
               label="A2:[3,-1]"), [(2, 1), (4, 0), (2, 2), (3, 3), (5, 5)]),
]


def random_certified(seed, count):
    """``count`` custom embeddings of A1, drawn with ``seed`` (G of rank <= 3,
    matrix entries -3..4), that hold both certificates, each with three
    weights drawn from those of dimension <= 1 000, entries 0..4."""
    rng = random.Random(seed)
    specs = ["A1", "A2", "B2", "G2", "A1,A1", "A3", "B3", "C3", "A1,A1,A1", "A2,A1"]
    h, out = build_root_system("A1"), []
    while len(out) < count:
        g = build_root_system(rng.choice(specs))
        matrix = [[rng.randint(-3, 4) for _ in range(g.rank)]]
        emb = Embedding(g, h, matrix, label=f"random:{g.spec_string()}:{matrix[0]}")
        if certified(emb):
            weights = [w.coords for w in dominant_weights_upto(g, 1000) if max(w.coords) <= 4]
            out.append((emb, rng.sample(weights, 3)))
    return out


# about a third of the draws are refused, each by both kernels with one text
RANDOM_CERTIFIED = random_certified(37, 24)


@pytest.mark.parametrize("emb,weights", EDGE_EMBEDDINGS + RANDOM_CERTIFIED,
                         ids=[emb.label for emb, _ in EDGE_EMBEDDINGS + RANDOM_CERTIFIED])
def test_branch_raises_exactly_where_reference_raises(emb, weights):
    # on a certified embedding the divided numerator raises the restriction
    # kernel's text wherever the reference raises, and agrees with it elsewhere
    for coords in weights:
        lam = Weight(coords)
        try:
            expect = reference_branch(emb, lam)
        except ValueError as err:
            for kernel in (branch, _branch_by_restriction):
                text = refusal(kernel, emb, lam)
                for part in ("non-integral", "not a character of H",
                             "negative residual multiplicity"):
                    assert (part in str(err)) == (part in text), coords
            if certified(emb):
                assert "negative residual multiplicity" in str(err), coords
                assert refusal(numerator, emb, lam) == refusal(
                    _branch_by_restriction, emb, lam), coords
        else:
            expect = list(expect.items())
            assert list(branch(emb, lam).items()) == expect
            assert list(_branch_by_restriction(emb, lam).items()) == expect
            if certified(emb):
                assert list(numerator(emb, lam).items()) == expect


@pytest.mark.parametrize("emb,weights", [
    (emb, [w.coords for w in dominant_weights_upto(emb.g, 200)])
    for emb in registry_embeddings()] + EDGE_EMBEDDINGS + RANDOM_CERTIFIED,
    ids=[e.label for e in registry_embeddings()]
    + [e.label for e, _ in EDGE_EMBEDDINGS + RANDOM_CERTIFIED])
def test_each_branch_call_runs_exactly_one_kernel(emb, weights, monkeypatch):
    # some of the random calls are refused on the numerator's path, and
    # more on the orbit sums'
    kernels = kernel_spy(monkeypatch)
    for coords in weights:
        lam = Weight(coords)
        assert kernels(emb, lam) == [expected_kernel(emb, lam)], (emb.label, coords)


def test_every_kernel_is_taken_and_refuses_somewhere():
    # the calls above, whose kernels that test pins, reach each of the three
    # kernels both answering and refusing
    seen = set()
    for emb, weights in ([(e, [w.coords for w in dominant_weights_upto(e.g, 200)])
                          for e in registry_embeddings()] + EDGE_EMBEDDINGS + RANDOM_CERTIFIED):
        for coords in weights:
            lam = Weight(coords)
            try:
                branch(emb, lam)
                refused = False
            except ValueError:
                refused = True
            seen.add((expected_kernel(emb, lam), refused))
    assert seen == {(name, refused) for name in ("_branch_by_numerator", "_branch_by_orbit_sums",
                                                 "_branch_by_restriction")
                    for refused in (False, True)}


def test_branch_rejects_invariant_non_character():
    # Res is doubling: {2, -2} is W_H-invariant, yet stripping L(2) leaves -1 at 0
    emb = Embedding(build_root_system("A1"), build_root_system("A1"), [[2]],
                    label="double")
    with pytest.raises(ValueError, match="negative residual multiplicity"):
        branch(emb, W(1))


# -- Racah-Speiser against independent oracles -------------------------------------

@pytest.mark.parametrize("a,b", [(180, 180), (180, 0), (0, 180), (179, 1),
                                 (97, 180), (150, 151), (123, 57)])
def test_branch_clebsch_gordan_at_benchmark_sizes(a, b):
    got = branch(diagonal("A1", 2), Weight([a, b]))
    expect = [(Weight([c]), 1) for c in reversed(a1_tensor(a, b))]
    assert list(got.items()) == expect


def virtual_coefficients(emb, lam):
    """{nu: n_nu} for every H-dominant nu with n_nu != 0, where
    n_nu = sum_{w in W_H} eps(w) m(nu + rho - w rho) and m is the
    restriction of the full G-character, weight by weight."""
    h = emb.h
    restricted = {}
    for w, m in freudenthal(emb.g, lam).weights().items():
        rw = tuple(sum(row[j] * w[j] for j in range(emb.g.rank))
                   for row in emb.restriction)
        assert all(Fraction(c).denominator == 1 for c in rw)
        rw = tuple(int(c) for c in rw)
        restricted[rw] = restricted.get(rw, 0) + m
    n = h.rank
    shifts = []  # (rho - w rho, eps(w)); rho has every coordinate 1
    for matrix, sign in brute_weyl_with_signs(h).items():
        shifts.append((tuple(1 - sum(matrix[r]) for r in range(n)), sign))
    out = {}
    for kappa in restricted:
        for shift, _ in shifts:
            nu = tuple(k - s for k, s in zip(kappa, shift))
            if min(nu) < 0 or nu in out:
                continue
            out[nu] = sum(sign * restricted.get(
                tuple(x + s for x, s in zip(nu, shift)), 0) for shift, sign in shifts)
    return {nu: c for nu, c in out.items() if c}


def h_height(h, nu):
    return sum(root_coordinates(h, Weight(nu)))


NON_CHARACTERS = [
    (Embedding(build_root_system("A1"), build_root_system("A1"), [[2]],
               label="double"), [(1,), (2,), (5,)]),
    (Embedding(build_root_system("A1"), build_root_system("A1"), [[3]],
               label="triple"), [(1,), (2,), (4,)]),
    (Embedding(build_root_system("A2"), build_root_system("A1"), [[3, 2]],
               label="A2:[3,2]"), [(1, 1), (2, 2)]),
    (Embedding(build_root_system("A2"), build_root_system("A1"), [[2, 1]],
               label="A2:[2,1]"), [(1, 1), (2, 2)]),
    (Embedding(build_root_system("B2"), build_root_system("A1"), [[3, 1]],
               label="B2:[3,1]"), [(0, 1)]),
    (Embedding(build_root_system("A1,A1"), build_root_system("A1"), [[1, 3]],
               label="A1xA1:[1,3]"), [(0, 1), (0, 2), (1, 2)]),
    (Embedding(build_root_system("A3"), build_root_system("A1,A1"),
               [[1, 0, 1], [0, 1, 1]], label="A3:A1xA1"),
     [(0, 1, 0), (1, 0, 1), (2, 0, 2)]),
    (Embedding(build_root_system("A2"), build_root_system("A2"),
               [[2, 0], [0, 2]], label="A2:double"), [(1, 1), (2, 2)]),
    (Embedding(build_root_system("G2"), build_root_system("G2"),
               [[2, 0], [0, 2]], label="G2:double"), [(1, 0), (0, 1)]),
]


@pytest.mark.parametrize("emb,weights", NON_CHARACTERS,
                         ids=[emb.label for emb, _ in NON_CHARACTERS])
def test_refusal_names_the_highest_negative_virtual_coefficient(emb, weights):
    for coords in weights:
        virtual = virtual_coefficients(emb, Weight(coords))
        negative = [nu for nu, c in virtual.items() if c < 0]
        assert negative, coords  # each case is an invariant non-character
        top = max(negative, key=lambda nu: (h_height(emb.h, nu), nu))
        with pytest.raises(ValueError) as caught:
            branch(emb, Weight(coords))
        assert str(caught.value) == f"negative residual multiplicity {virtual[top]} at " \
            f"({', '.join(map(str, top))})", coords


@pytest.mark.parametrize("emb,lam", [
    (diagonal("A1", 3), (2, 1, 3)),
    (so_in_sl(5), (1, 0, 1, 0)),
    (folding_B3G2(), (1, 1, 0)),
    (levi(build_root_system("C3"), (2, 3)), (1, 1, 1)),
    (diagonal("A2", 2), (1, 0, 1, 1)),
], ids=lambda x: getattr(x, "label", str(x)))
def test_branch_equals_virtual_coefficients_on_characters(emb, lam):
    virtual = virtual_coefficients(emb, Weight(lam))
    assert all(c > 0 for c in virtual.values())
    assert branch(emb, Weight(lam)) == {Weight(nu): c for nu, c in virtual.items()}


# every refusal text on EDGE_EMBEDDINGS and NON_CHARACTERS, as the kernel
# without the divided numerator gave them
REFUSAL_TEXTS = {
    ("half", (1,)): "restriction of the module with highest weight (1) has the "
                    "non-integral H-weight (1/2)",
    ("skew", (1, 0)): "weight (-1) of the restricted character is not dominant and has "
                      "multiplicity 0, but its reflection (1) has 2; restriction is not "
                      "a character of H",
    ("skew", (1, 1)): "negative residual multiplicity -2 at (1)",
    ("skew", (2, 1)): "weight (-1) of the restricted character is not dominant and has "
                      "multiplicity 0, but its reflection (1) has 6; restriction is not "
                      "a character of H",
    ("halves", (1, 0)): "restriction of the module with highest weight (1, 0) has the "
                        "non-integral H-weight (1/2)",
    ("halves", (1, 1)): "restriction of the module with highest weight (1, 1) has the "
                        "non-integral H-weight (1/2)",
    ("frobenius_twisted_diagonal:A1:p=2", (0, 1)): "negative residual multiplicity -1 at (0)",
    ("frobenius_twisted_diagonal:A2:p=3", (1, 0, 1, 0)):
        "negative residual multiplicity -1 at (0, 2)",
    ("frobenius_twisted_diagonal:A2:p=3", (0, 0, 1, 1)):
        "negative residual multiplicity -1 at (4, 1)",
    ("double", (1,)): "negative residual multiplicity -1 at (0)",
    ("double", (2,)): "negative residual multiplicity -1 at (2)",
    ("double", (3,)): "negative residual multiplicity -1 at (4)",
    ("double", (5,)): "negative residual multiplicity -1 at (8)",
    ("triple", (1,)): "negative residual multiplicity -1 at (1)",
    ("triple", (2,)): "negative residual multiplicity -1 at (4)",
    ("triple", (4,)): "negative residual multiplicity -1 at (10)",
    ("A2:[3,2]", (1, 1)): "negative residual multiplicity -1 at (3)",
    ("A2:[3,2]", (2, 2)): "negative residual multiplicity -1 at (7)",
    ("A2:[2,1]", (1, 1)): "negative residual multiplicity -2 at (1)",
    ("A2:[2,1]", (2, 2)): "negative residual multiplicity -3 at (4)",
    ("B2:[3,1]", (0, 1)): "negative residual multiplicity -1 at (0)",
    ("A1xA1:[1,3]", (0, 1)): "negative residual multiplicity -1 at (1)",
    ("A1xA1:[1,3]", (0, 2)): "negative residual multiplicity -1 at (4)",
    ("A1xA1:[1,3]", (1, 2)): "negative residual multiplicity -1 at (3)",
    ("A3:A1xA1", (0, 1, 0)): "negative residual multiplicity -1 at (0, 0)",
    ("A3:A1xA1", (1, 0, 1)): "negative residual multiplicity -2 at (0, 1)",
    ("A3:A1xA1", (2, 0, 2)): "negative residual multiplicity -3 at (2, 2)",
    ("A2:double", (1, 1)): "negative residual multiplicity -1 at (3, 0)",
    ("A2:double", (2, 2)): "negative residual multiplicity -1 at (5, 2)",
    ("G2:double", (1, 0)): "negative residual multiplicity -1 at (0, 1)",
    ("G2:double", (0, 1)): "negative residual multiplicity -1 at (3, 0)",
    ("A2:[3,-1]", (2, 1)): "weight (-1) of the restricted character is not dominant and has "
                           "multiplicity 1, but its reflection (1) has 2; restriction is not "
                           "a character of H",
    ("A2:[3,-1]", (4, 0)): "weight (-2) of the restricted character is not dominant and has "
                           "multiplicity 1, but its reflection (2) has 0; restriction is not "
                           "a character of H",
    ("A2:[3,-1]", (2, 2)): "negative residual multiplicity -1 at (8)",
    ("A2:[3,-1]", (3, 3)): "negative residual multiplicity -1 at (13)",
}


@pytest.mark.parametrize("emb,weights", EDGE_EMBEDDINGS + NON_CHARACTERS,
                         ids=[emb.label for emb, _ in EDGE_EMBEDDINGS + NON_CHARACTERS])
def test_refusal_texts_are_pinned_and_the_numerator_declines_them(emb, weights):
    # on a certified embedding the divided numerator refuses with the pinned text too
    for coords in weights:
        lam = Weight(coords)
        text = REFUSAL_TEXTS.get((emb.label, coords))
        if text is None:
            if certified(emb):
                assert list(numerator(emb, lam).items()) == list(branch(emb, lam).items())
            continue
        assert refusal(branch, emb, lam) == text, coords
        if certified(emb):
            assert refusal(numerator, emb, lam) == text, coords


UNCERTIFIED = [
    levi(build_root_system("E6"), (1, 3, 4, 5, 6)),
    levi(build_root_system("B4"), (2, 3, 4)),
    levi(build_root_system("F4"), (1, 2, 3)),
] + [emb for emb, _ in EDGE_EMBEDDINGS + NON_CHARACTERS
     if emb.label in ("half", "double", "skew", "A2:[3,2]")]


@pytest.mark.parametrize("emb", UNCERTIFIED, ids=lambda e: e.label)
def test_numerator_certificate_fails(emb, monkeypatch):
    # a fractional matrix, a positive G-root restricting to 0, or an H-root
    # that is the restriction of no positive G-root; branch then runs the
    # orbit sums where they qualify and the restriction kernel elsewhere,
    # here at the largest module of dimension <= 2 000, which the size rule
    # admits wherever |W_G| <= 200
    assert _numerator_certificate(emb) is None
    lam = max(dominant_weights_upto(emb.g, 2000), key=functools.partial(weyl_dim, emb.g))
    assert emb.g.weyl_order > 200 or weyl_dim(emb.g, lam) >= numerator_size(emb, lam)
    expect = "_branch_by_orbit_sums" if orbit_sums_qualify(emb, lam) else "_branch_by_restriction"
    assert kernel_spy(monkeypatch)(emb, lam) == [expect]


def test_a_numerator_certificate_without_reflection_lifts_is_declined(monkeypatch):
    # the divided numerator needs both certificates, even where the
    # restriction is a character of H, and |W_G| = 6 and each dimension
    # (15, 27, 216) admit it
    emb = next(e for e, _ in EDGE_EMBEDDINGS if e.label == "A2:[3,-1]")
    assert _numerator_certificate(emb) is not None and not all(emb.reflection_lifts)
    assert not certified(emb)
    kernels = kernel_spy(monkeypatch)
    for coords in [(2, 1), (2, 2), (5, 5)]:
        assert kernels(emb, Weight(coords)) == ["_branch_by_restriction"], coords
    assert branch(emb, W(5, 5)) == _branch_by_restriction(emb, W(5, 5)) != {}


@pytest.mark.parametrize("emb", list({e.label: e for e in registry_embeddings() + SWEEP
                                       + UNCERTIFIED}.values()), ids=lambda e: e.label)
def test_numerator_certificate_is_the_images_less_one_per_h_root(emb):
    assert _numerator_certificate(emb) == reference_numerator_certificate(emb)


def test_twisted_diagonal_enters_the_numerator_and_declines(monkeypatch):
    # n_0 = -1 at (1, 1), and 0 is not a weight of the restriction
    emb = frobenius_twisted_diagonal("A1", 3)
    assert certified(emb)
    text = "negative residual multiplicity -1 at (0)"
    assert refusal(numerator, emb, W(1, 1)) == refusal(branch, emb, W(1, 1)) == text
    # at (1, 3), dimension 8 = 2 |W_G|, branch runs the divided numerator
    # alone, which names the restriction kernel's witness itself
    assert kernel_spy(monkeypatch)(emb, W(1, 3)) == ["_branch_by_numerator"]
    assert refusal(branch, emb, W(1, 3)) == "negative residual multiplicity -1 at (6)"
    assert refusal(_branch_by_restriction, emb, W(1, 3)) == refusal(numerator, emb, W(1, 3))


def test_divide_is_exact_or_asserts():
    # e^1 - e^-1 = (1 - e^-2) e^1; a line that does not sum to 0 cannot come
    # from a numerator, as Res is a ring map, and is an internal fault
    layout = rootsys._layout(1, 8)
    one = rootsys._pack((1,), layout[1])
    assert charalg._divide({one: 1, -one: -1}, (2,), layout) == {one: 1}
    with pytest.raises(AssertionError, match=r"^the numerator is not divisible by 1 - e\^-\(2\)$"):
        charalg._divide({one: 1}, (2,), layout)


@pytest.mark.parametrize("spec,lam", [("A1", (49999,)), ("A1,A1,A1", (49999, 0, 0)),
                                      ("A2", (314, 0)), ("A3", (0, 0, 64))])
def test_largest_identity_inputs_run_no_freudenthal(spec, lam, monkeypatch):
    def refuse(*args):
        raise AssertionError("freudenthal was called")

    monkeypatch.setattr(charalg, "freudenthal", refuse)
    assert branch(identity(spec), Weight(lam)) == {Weight(lam): 1}


@pytest.mark.parametrize("spec,lam", [("A1", (49999,)), ("A1,A1,A1", (49999, 0, 0)),
                                      ("A2", (314, 0)), ("A3", (0, 0, 64)), ("B3", (17, 0, 0))])
def test_kernels_agree_at_the_largest_certified_inputs_under_the_branch_cap(spec, lam):
    # the widest digits the divided numerator packs: each module's dimension
    # is within 7 % of DEFAULT_BRANCH_CAP
    emb, lam = identity(spec), Weight(lam)
    assert 0.93 * DEFAULT_BRANCH_CAP < weyl_dim(emb.g, lam) <= DEFAULT_BRANCH_CAP
    assert list(numerator(emb, lam).items()) == list(_branch_by_restriction(emb, lam).items())


def test_refusal_text_names_the_highest_weight():
    # n_7 = -1, no higher weight has a negative coefficient, and 7 is not a
    # weight of the restriction, so stripping from the top never visits it
    emb = Embedding(build_root_system("A2"), build_root_system("A1"), [[3, 2]],
                    label="custom")
    with pytest.raises(ValueError) as caught:
        branch(emb, W(2, 2))
    assert str(caught.value) == "negative residual multiplicity -1 at (7)"


# -- bounded work -------------------------------------------------------------------

def test_branch_cap_refuses_before_freudenthal_with_the_exact_dimension():
    emb = folding_E6F4()
    lam = W(5, 5, 5, 5, 5, 5)
    dim = weyl_dim(emb.g, lam)
    assert dim > DEFAULT_BRANCH_CAP
    with pytest.raises(BranchCapExceeded) as caught:
        branch(emb, lam)
    assert caught.value.dim == dim and caught.value.cap == DEFAULT_BRANCH_CAP
    assert f"dimension is {dim}, cap is {DEFAULT_BRANCH_CAP}" in str(caught.value)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_branch_cap_text_does_not_depend_on_the_int_digit_limit():
    emb = identity("A16")
    default = sys.get_int_max_str_digits()
    for digits in (15, 99):  # about 2 000 and 13 500 digits of dimension
        lam = Weight([10 ** digits - 1 - k for k in range(16)])
        dim = weyl_dim(emb.g, lam)
        texts = set()
        try:
            for limit in (640, 0, default):
                sys.set_int_max_str_digits(limit)
                with pytest.raises(BranchCapExceeded) as caught:
                    branch(emb, lam)
                assert caught.value.dim == dim
                texts.add(str(caught.value))
            sys.set_int_max_str_digits(0)
            shown = str(dim)
        finally:
            sys.set_int_max_str_digits(default)
        size = f"is {shown}" if len(shown) <= 4300 else f"has {len(shown)} digits"
        assert texts == {f"refusing to branch the module of A16 with highest weight "
                         f"({', '.join(map(str, lam.coords))}): dimension {size}, "
                         f"cap is {DEFAULT_BRANCH_CAP}"}


def test_branch_cap_env(monkeypatch):
    emb = diagonal("A1", 2)
    lam = W(2, 2)  # dimension 9
    monkeypatch.setenv("FROBCRIT_BRANCH_CAP", "8")
    with pytest.raises(BranchCapExceeded, match="dimension is 9, cap is 8"):
        branch(emb, lam)
    monkeypatch.setenv("FROBCRIT_BRANCH_CAP", "9")
    assert branch(emb, lam) == {W(4): 1, W(2): 1, W(0): 1}


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5", ""])
def test_bad_branch_cap_env_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("FROBCRIT_BRANCH_CAP", value)
    with pytest.raises(ValueError, match="FROBCRIT_BRANCH_CAP must be a positive integer"):
        branch(diagonal("A1", 2), W(1, 1))


# -- top constituents at the fundamental weights -----------------------------------

def _tops(emb):
    """The first constituent of ``branch`` at each fundamental weight of G,
    with its multiplicity, in the order of the weights."""
    rank = emb.g.rank
    return [next(iter(branch(emb, W(*(int(k == i) for k in range(rank)))).items()))
            for i in range(rank)]


def test_scan_b3g2():
    assert _tops(folding_B3G2()) == [(W(1, 0), 1), (W(0, 1), 1), (W(1, 0), 1)]


def test_scan_diagonal():
    assert _tops(diagonal("A1", 2)) == [(W(1), 1), (W(1), 1)]
