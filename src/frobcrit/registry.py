"""Registered good-filtration pairs and worked example inputs.

``lookup_donkin`` answers "is (G, H) known to be a Donkin pair at p" from a
small table keyed on builder provenance labels.  Answers are "yes" or
"unknown", never "no": absence from the table is not a counterexample.

Each worked example is one ``ExampleRecord`` in ``EXAMPLES``: how to build
its criterion inputs, and what every report on them must show, in the
vocabulary of the ``check`` command's expect block.  The records are the one
source of truth: ``frobcrit examples`` judges them with the same code as
``check``, and the tests read the same table.
"""

from __future__ import annotations

from collections import namedtuple

from . import embed
from .embed import CriterionInput, Embedding
from .rootsys import _require_int
from .weyl import from_word

_INVOLUTION_BUILDERS = (
    "folding_AC", "folding_DB", "folding_E6F4", "folding_B3G2", "so_in_sl",
)


# matches: label -> bool, whether an embedding's builder label is covered
DonkinPairRecord = namedtuple("DonkinPairRecord", "name min_p citation matches")


def _match_levi(label: str) -> bool:
    return label.split(":", 1)[0] in ("levi", "identity")


def _match_involution(label: str) -> bool:
    head = label.split(":", 1)[0]
    if head in _INVOLUTION_BUILDERS:
        return True
    return head == "diagonal" and label.endswith(":k=2")


DONKIN_RECORDS: tuple[DonkinPairRecord, ...] = (
    DonkinPairRecord(
        "levi-subgroup", 2,
        "Levi subgroups are good-filtration pairs in every characteristic",
        _match_levi),
    DonkinPairRecord(
        "involution-fixed-points", 3,
        "centralizers of involutions (symmetric pairs, two-factor diagonals, "
        "folded subgroups) are good-filtration pairs for p > 2",
        _match_involution),
)


# status: "yes" | "unknown"; record: the matching DonkinPairRecord or None
DonkinLookup = namedtuple("DonkinLookup", "status record detail")


def lookup_donkin(emb: Embedding, p: int) -> DonkinLookup:
    """The first record matching ``emb.label``, judged at p.  Library callers'
    labels are trusted as builder provenance; the CLI refuses custom ones."""
    p = _require_int(p, "p")
    for record in DONKIN_RECORDS:
        if record.matches(emb.label):
            if p >= record.min_p:
                return DonkinLookup("yes", record, record.citation)
            return DonkinLookup(
                "unknown", record,
                f"{record.name} requires p >= {record.min_p}, got p={p}")
    return DonkinLookup("unknown", None, f"no registry entry matches {emb.label!r}")


# ---------------------------------------------------------------------------
# worked examples


def _full_J(e: Embedding) -> tuple[int, ...]:
    return tuple(range(1, e.g.rank + 1))


def minimal_rank_suite() -> list[tuple[Embedding, bool]]:
    """Benchmark embeddings with the expected dominance of 2 rho_H - rho|_H."""
    dominant = EXAMPLES["minimal-rank"].expect["condition1_dominant"]
    suite = [
        embed.identity("A2"),
        embed.diagonal("B2", 2),
        embed.folding_AC(2),
        embed.folding_AC(3),
        embed.folding_AC(4),
        embed.folding_DB(4),
        embed.folding_DB(5),
        embed.folding_DB(6),
        embed.folding_E6F4(),
        embed.folding_B3G2(),
    ]
    return [(e, dominant) for e in suite]


# closure diagram of the orbit poset: nodes, covers, and annotations; edges are
# (upper, lower, single|double), closed_orbit_conjugator maps node -> 1-based
# conjugator index
OrbitDiagram = namedtuple("OrbitDiagram", "nodes edges closed_orbit_conjugator split_compatible "
                          "pairwise_split unresolved")

# conjugators: WeylElements, one per closed orbit; expected_verdicts: one bool each
Sp4Example = namedtuple("Sp4Example", "embedding J conjugators expected_verdicts diagram")


def example_sp4() -> Sp4Example:
    """The short-root Levi SL2 inside Sp4, with the 11-orbit closure poset.

    The four conjugated Borel checks correspond to the four closed orbits of
    the diagram (J = I, acting on the full flag variety); only the first and
    last positive systems pass dominance.
    """
    emb = embed.levi("C2", [1])
    c2 = emb.g
    conjugators = (
        from_word(c2, ()),
        from_word(c2, (2,)),
        from_word(c2, (2, 1)),
        from_word(c2, (2, 1, 2)),
    )
    diagram = OrbitDiagram(
        nodes=tuple(f"X{i}" for i in range(1, 12)),
        edges=(
            ("X1", "X2", "single"),
            ("X1", "X3", "double"),
            ("X1", "X4", "single"),
            ("X2", "X5", "single"),
            ("X3", "X6", "single"),
            ("X4", "X7", "single"),
            ("X5", "X8", "single"),
            ("X5", "X9", "single"),
            ("X6", "X9", "single"),
            ("X6", "X10", "single"),
            ("X7", "X10", "single"),
            ("X7", "X11", "single"),
        ),
        closed_orbit_conjugator={"X8": 1, "X9": 2, "X10": 3, "X11": 4},
        split_compatible=(("X2", "X5", "X8"), ("X4", "X7", "X11")),
        pairwise_split=(("X5", "X9"), ("X6", "X9"), ("X7", "X10"), ("X6", "X10")),
        unresolved=("X3",),
    )
    return Sp4Example(emb, (1, 2), conjugators, (True, False, False, True), diagram)


def example_sln_son(n: int, p: int = 3) -> list[CriterionInput]:
    """SO_n in SL_n with the hyperplane parabolic(s): J drops the middle node.

    For odd n both near-middle choices are returned.  Expected outcome:
    condition (1) holds with equality (the difference is the zero weight).
    """
    n = _require_int(n, "n")
    if n < 4:
        raise ValueError("example needs n >= 4")
    e = embed.so_in_sl(n)
    drops = [n // 2] if n % 2 == 0 else [n // 2, n // 2 + 1]
    return [
        CriterionInput(e, tuple(j for j in _full_J(e) if j != drop), p, "donkin-registry")
        for drop in drops
    ]


def example_triple_diagonal(h) -> CriterionInput:
    """H diagonally in H^3 at p=2: condition (1) fails, nothing is concluded."""
    e = embed.diagonal(h, 3)
    return CriterionInput(e, _full_J(e), 2, "donkin-registry")


def example_frobenius_twist(primes: tuple[int, ...] = (2, 3, 5)) -> list[CriterionInput]:
    """SL2 -> SL2 x SL2 by (g, g^(p)): separability fails, splitting survives.

    J keeps only the untwisted factor; surjectivity must be user-asserted
    because the twist pushes the large-p bound to p+1.
    """
    return [
        CriterionInput(embed.frobenius_twisted_diagonal("A1", p), (1,), p,
                       "user-asserted")
        for p in primes
    ]


# a worked example: its criterion inputs and what each report must show.
# inputs(*args) returns a list of CriterionInput; a name ending in ``:<...>``
# takes one argument, parsed by param(str).  Only sp4 has no inputs (None):
# its conjugated Borel checks are not reports.
ExampleRecord = namedtuple("ExampleRecord", "name inputs expect param", defaults=(None,))


EXAMPLES: dict[str, ExampleRecord] = {r.name: r for r in (
    ExampleRecord(
        "minimal-rank",
        lambda: [CriterionInput(e, _full_J(e), 3) for e, _ in minimal_rank_suite()],
        {"condition1_dominant": True}),
    ExampleRecord("sp4", None, {}),
    ExampleRecord("sln-son:<n>", example_sln_son, {"condition1_dominant": True}, int),
    ExampleRecord(
        "triple-diagonal:<type><rank>", lambda h: [example_triple_diagonal(h)],
        {"condition1_dominant": False}, str),
    ExampleRecord(
        "frobenius-twist", example_frobenius_twist,
        {"lie_separability": "fails", "tags_include": ["SPLIT_PJ", "GLOBALLY_F_REGULAR"],
         "tags_exclude": ["COR72_HPJ"]}),
)}
