"""The three workloads: seeded item generation, the timed call, and checks.

Each workload hands out its items in rounds.  A round has a fixed make-up
of strata (cost classes, builders, invalid kinds) and the seed only draws
within a stratum, so two seeds load the program alike while feeding it
different inputs.  Items are plain data; nothing the program computes
feeds back into which items are drawn.

Checks do not trust the code under test: dimensions, group orders, the
criterion's weights and its large-p bound come from ``rootdata``.  Only
the restriction matrices are taken from the package's builders.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import rootdata
from frobcrit import charalg, cli, embed, rootsys, weyl
from frobcrit.rootsys import Weight

# outcome of one item: right, an invalid input not refused with exit 2
# (counted as failed), or a wrong answer (the run is incorrect)
OK, MISHANDLED, WRONG = "ok", "mishandled", "wrong"

# builder name -> parameter names, in the order the builder takes them
BUILDER_PARAMS = {
    "identity": ("h",), "levi": ("g", "J"), "diagonal": ("h", "k"),
    "folding_AC": ("m",), "folding_DB": ("n",), "folding_E6F4": (),
    "folding_B3G2": (), "so_in_sl": ("n",),
    "frobenius_twisted_diagonal": ("h", "p"),
}


def descriptor(builder: str, args: tuple) -> dict:
    """The CLI's embedding descriptor for a builder call."""
    if not args:
        return {"builder": builder}
    params = dict(zip(BUILDER_PARAMS[builder], args))
    if "J" in params:
        params["J"] = list(params["J"])
    return {"builder": builder, "params": params}


def build(builder: str, args: tuple):
    return getattr(embed, builder)(*args)


def _frac(x) -> str:
    return str(Fraction(x))


class Workload:
    """Base: items come in rounds drawn from ``random.Random(name:seed:round)``."""

    name = ""
    digest_items = 20   # the run's first items, whose outputs go into the digest

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rounds: dict[int, list] = {}

    def with_seed(self, seed: int) -> "Workload":
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.seed = seed
        other._rounds = {}
        return other

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, k: int) -> list:
        """Round k's items, drawn once."""
        if k not in self._rounds:
            self._rounds[k] = self.draw_round(k)
        return self._rounds[k]

    def draw_round(self, k: int) -> list:
        raise NotImplementedError

    def start_round(self) -> None:
        """Called before the first item of every round, outside the timing."""

    def checkpoint(self):
        """A function that takes the state back to now, for retiming a call."""
        return None

    def tail(self) -> list:
        """Items run once, after the last round."""
        return []

    def run(self, item):
        """The timed call; returns the raw output."""
        raise NotImplementedError

    def check(self, item, out) -> tuple[str, str]:
        """(OK | MISHANDLED | WRONG, detail) for one output, outside the timed loop."""
        raise NotImplementedError

    def digest_bytes(self, item, out) -> bytes:
        raise NotImplementedError

    def size(self, item) -> dict[str, int]:
        raise NotImplementedError

    def cli_sample(self) -> list:
        """[(argv, check(returncode, stdout, stderr) -> (status, detail))]."""
        raise NotImplementedError

    def defect_probe(self) -> list:
        """Items the program is known to mishandle: run once, outside the loop."""
        return []


def _captured_main(argv):
    """cli.main in-process; returns (exit status or exception name, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except Exception as exc:  # an escaped traceback is an outcome to record
            status = type(exc).__name__
    return status, out.getvalue()


# ---------------------------------------------------------------------------
# branch-sweep


BRANCH_EMBEDDINGS = (
    ("folding_E6F4", ()), ("folding_B3G2", ()),
    ("folding_AC", (2,)), ("folding_AC", (3,)), ("folding_AC", (4,)),
    ("folding_DB", (4,)), ("folding_DB", (5,)),
    ("so_in_sl", (5,)), ("so_in_sl", (6,)), ("so_in_sl", (8,)),
    ("diagonal", ("A1", 2)), ("diagonal", ("A1", 3)), ("diagonal", ("A2", 2)),
    ("diagonal", ("A2", 3)), ("diagonal", ("B2", 2)), ("diagonal", ("G2", 3)),
    ("levi", ("E6", (1, 3, 4, 5, 6))), ("levi", ("B4", (2, 3, 4))),
    ("levi", ("A5", (1, 2, 4, 5))), ("levi", ("F4", (1, 2, 3))),
)

# G-side dimension bands, and how many weights of each embedding every round
# draws from each band.  Narrow bands make the items of one embedding and
# band cost alike whatever the seed.  The median item falls in the middle
# band, which gets three draws, so that it sits among many items of like
# cost rather than on a gap between two bands.
DIM_BANDS = (((50, 150), 1), ((300, 700), 1), ((1200, 2700), 3),
             ((6000, 10000), 1), ((15000, 25000), 1))
BOX = {2: 180, 3: 30, 4: 7, 5: 4, 6: 2, 7: 2}  # coordinate bound by G rank
MAX_DRAWS = 100_000


class BranchSweep(Workload):
    """Each round is 140 queries, seven on every embedding, that
    starts with an empty character cache: rounds cost alike however many
    came before, and queries on one embedding share their H-characters."""

    name = "branch-sweep"

    def setup(self) -> None:
        self.embeddings = [build(b, a) for b, a in BRANCH_EMBEDDINGS]
        self.g_data = [rootdata.root_data(e.g.spec_string()) for e in self.embeddings]
        self.h_data = [rootdata.root_data(e.h.spec_string()) for e in self.embeddings]
        # dimensions seen by the draws: a narrow band in a small box takes
        # thousands of draws, mostly of weights drawn before
        self.g_dims = [{} for _ in self.embeddings]

    def _draw(self, rng, e: int, lo: int, hi: int) -> tuple[int, ...]:
        """A dominant weight in the box of embedding e with lo <= dim < hi."""
        rd, dims = self.g_data[e], self.g_dims[e]
        for _ in range(MAX_DRAWS):
            coords = tuple(rng.randint(0, BOX[rd.rank]) for _ in range(rd.rank))
            dim = dims.get(coords)
            if dim is None:
                dim = dims[coords] = rd.weyl_dim(coords)
            if lo <= dim < hi:
                return coords
        raise AssertionError(f"no weight of dimension in [{lo}, {hi}) for {BRANCH_EMBEDDINGS[e]}")

    def draw_round(self, k: int) -> list:
        rng = self.rng(k)
        items = [(e, self._draw(rng, e, lo, hi))
                 for e in range(len(BRANCH_EMBEDDINGS))
                 for (lo, hi), draws in DIM_BANDS for _ in range(draws)]
        rng.shuffle(items)
        return items

    def start_round(self) -> None:
        charalg._char_cache.clear()

    def checkpoint(self):
        # a retimed call must not find the H-characters of its first attempt
        cache = charalg._char_cache
        size = len(cache)

        def undo():
            for key in list(cache)[size:]:
                del cache[key]
        return undo

    def run(self, item):
        e, coords = item
        return charalg.branch(self.embeddings[e], Weight(coords))

    def check(self, item, out):
        e, coords = item
        if isinstance(out, Exception):
            return WRONG, f"{self.embeddings[e].label} {coords}: {out!r}"
        g_dim = self.g_data[e].weyl_dim(coords)
        total = 0
        for mu, mult in out.items():
            if not (mu.is_integral() and mu.is_dominant()) or mult <= 0:
                return WRONG, f"{self.embeddings[e].label} {coords}: bad constituent {mu} x{mult}"
            total += mult * self.h_data[e].weyl_dim(mu.coords)
        if total != g_dim:
            return WRONG, f"{self.embeddings[e].label} {coords}: sum {total} != dim {g_dim}"
        return OK, ""

    def digest_bytes(self, item, out) -> bytes:
        e, coords = item
        rows = sorted((tuple(_frac(c) for c in mu.coords), m) for mu, m in out.items())
        return json.dumps([self.embeddings[e].label, list(coords), rows]).encode()

    def size(self, item):
        e, coords = item
        return {"g_dim": self.g_data[e].weyl_dim(coords)}

    def cli_sample(self) -> list:
        cheap = [item for item in self.round(0)
                 if self.size(item)["g_dim"] < DIM_BANDS[1][0][1]][:11]
        sample = []
        for e, coords in cheap:
            argv = ["branch", json.dumps(descriptor(*BRANCH_EMBEDDINGS[e])),
                    ",".join(str(c) for c in coords)]
            sample.append((argv, self._cli_checker((e, coords))))
        return sample

    def _cli_checker(self, item):
        def check(returncode, stdout, stderr):
            if returncode != 0:
                return WRONG, f"exit {returncode}: {stderr.strip()[-200:]}"
            got = {tuple(Fraction(c) for c in row["weight"]): row["multiplicity"]
                   for row in json.loads(stdout)["branching"]}
            out = self.run(item)
            if got != {mu.coords: m for mu, m in out.items()}:
                return WRONG, f"CLI branching differs from the library for {item}"
            return self.check(item, out)
        return check


# ---------------------------------------------------------------------------
# weyl-sweep


WEYL_SYSTEMS = tuple([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
                     + [f"C{r}" for r in range(3, 9)] + [f"D{r}" for r in range(4, 9)]
                     + ["E6", "E7", "E8", "F4", "G2"])
# Items drawn per cost bin each round.  The matrix BFS costs about
# |W_J| * |J| * rank^2, and narrow bins make the round's cost profile the
# same for every seed, so that p50 and p90 do not hinge on the draw.  The
# extra draws put p50 in the middle of bin 7 and p90 in the middle of bin
# 13, among many items of like cost rather than on the edge of a bin.
COST_BINS = tuple((round(800 * 2 ** (2 * b / 3)), round(800 * 2 ** (2 * (b + 1) / 3)))
                  for b in range(15))
BIN_DRAWS = (1, 1, 1, 1, 1, 1, 2, 4, 1, 1, 1, 1, 1, 2, 1)
MIN_ORDER = 10
# one item of 51840 elements per run, after the rounds: the number of
# rounds that fit in a run must not depend on this item's time, and its
# time is reported apart from the item metrics, which it would swamp
ANCHOR = ("E6", (1, 2, 3, 4, 5, 6))
FROM_WORD_SAMPLE = 8


class WeylSweep(Workload):
    name = "weyl-sweep"

    def setup(self) -> None:
        self.systems = {s: rootsys.build_root_system(s) for s in WEYL_SYSTEMS}
        self.data = {s: rootdata.root_data(s) for s in WEYL_SYSTEMS}

    def _draw(self, rng, lo, hi):
        for _ in range(MAX_DRAWS):
            spec = rng.choice(WEYL_SYSTEMS)
            rd = self.data[spec]
            J = tuple(j for j in range(1, rd.rank + 1) if rng.random() < 0.5)
            order = rd.parabolic_order(J)
            if order >= MIN_ORDER and lo <= self._cost(spec, J) < hi:
                return spec, J
        raise AssertionError(f"no (system, J) in the cost bin [{lo}, {hi})")

    def draw_round(self, k: int) -> list:
        rng = self.rng(k)
        items = [self._draw(rng, lo, hi)
                 for (lo, hi), draws in zip(COST_BINS, BIN_DRAWS) for _ in range(draws)]
        rng.shuffle(items)
        return items

    def tail(self) -> list:
        return [ANCHOR]

    def run(self, item):
        spec, J = item
        rs = self.systems[spec]
        return weyl.enumerate_parabolic(rs, J), weyl.verify_st_decomp(rs, J)

    def check(self, item, out):
        spec, J = item
        if isinstance(out, Exception):
            return WRONG, f"{spec} J={J}: {out!r}"
        elements, (lhs, rhs, equal) = out
        rs, rd = self.systems[spec], self.data[spec]
        order = rd.parabolic_order(J)
        if len(elements) != order or len(elements) != rootsys.parabolic_weyl_order(rs, J):
            return WRONG, f"{spec} J={J}: {len(elements)} elements, order {order}"
        if len(J) == rd.rank and order != rd.weyl_order():
            return WRONG, f"{spec}: full W has {order} elements, table says {rd.weyl_order()}"
        rho = Weight([1] * rd.rank)
        if len({w.act(rho) for w in elements}) != order:
            return WRONG, f"{spec} J={J}: the images w(rho) are not distinct"
        rng = random.Random(f"from_word:{self.seed}:{spec}:{J}")
        for w in rng.sample(elements, min(FROM_WORD_SAMPLE, order)):
            if weyl.from_word(rs, w.word) != w:
                return WRONG, f"{spec} J={J}: word {w.word} does not rebuild its element"
        if not equal or lhs != rhs:
            return WRONG, f"{spec} J={J}: verify_st_decomp fails, {lhs} != {rhs}"
        return OK, ""

    def digest_bytes(self, item, out) -> bytes:
        elements, (lhs, rhs, equal) = out
        return json.dumps([item[0], list(item[1]), [list(w.word) for w in elements],
                           [_frac(c) for c in rhs.coords], equal]).encode()

    def size(self, item):
        spec, J = item
        return {"w_j": self.data[spec].parabolic_order(J)}

    def _cost(self, spec, J) -> int:
        return self.data[spec].parabolic_order(J) * len(J) * self.data[spec].rank ** 2

    def cli_sample(self) -> list:
        # rank <= 2 plus the G2, F4 and E6 that the sweep always appends
        want = sum(2 ** rootdata.root_data(s).rank
                   for s in ("A1", "A2", "B2", "C2", "G2", "F4", "E6"))

        def check(returncode, stdout, stderr):
            if returncode != 0:
                return WRONG, f"verify-identities exit {returncode}: {stderr.strip()[-200:]}"
            summary = json.loads(stdout)
            if summary["failures"] or summary["checked"] != want:
                return WRONG, f"verify-identities checked {summary['checked']} of {want}"
            return OK, ""
        return [(["verify-identities", "--max-rank", "2"], check)] * 11


# ---------------------------------------------------------------------------
# criterion-sweep


CRITERION_EMBEDDINGS = (
    ("identity", ("A2",)), ("identity", ("B3",)),
    ("levi", ("C2", (1,))), ("levi", ("E7", (1, 2, 3))), ("levi", ("F4", (2, 3))),
    ("diagonal", ("A1", 2)), ("diagonal", ("A2", 3)), ("diagonal", ("G2", 2)),
    ("folding_AC", (2,)), ("folding_AC", (3,)), ("folding_DB", (4,)), ("folding_DB", (5,)),
    ("folding_E6F4", ()), ("folding_B3G2", ()),
    ("so_in_sl", (5,)), ("so_in_sl", (6,)), ("so_in_sl", (8,)),
    ("frobenius_twisted_diagonal", ("A1", 2)), ("frobenius_twisted_diagonal", ("A2", 3)),
    ("custom", ("A1,A1", "A1", ((1, 1),))), ("custom", ("A2", "A1", ((2, 2),))),
)
SOURCES = ("donkin-registry", "large-p", "user-asserted", "none")
SMALL_PRIMES = tuple(p for p in range(2, 98) if rootdata.is_prime(p))
LARGE_P = (10 ** 11, 10 ** 12)
# per round of 20: 15 ordinary items, 4 with a large prime, 1 invalid
ROUND_KINDS = ("valid",) * 15 + ("large-p",) * 4 + ("invalid",)
# invalid inputs that the CLI refuses with exit 2; one kind per round
INVALID_KINDS = ("non-prime-p", "J-out-of-range", "unknown-builder", "missing-key",
                 "bad-json", "bad-lie-flag", "bad-source")
# invalid inputs that the CLI does not refuse with exit 2: malformed J, p or
# parameters raise, and an unknown lie_separability flag passes when J is
# full or the embedding is Frobenius-twisted.  Every run sends each of them
# once, outside the timed loop, and reports the ones still not refused as
# known defects; they are not operations of the workload, so that its
# failure count stays that of the loop's own items.
DEFECT_KINDS = ("J-not-int", "p-not-int", "param-null", "matrix-entry-object",
                "lie-flag-twisted", "lie-flag-full-J")
TAG_ORDER = ("SPLIT_PJ", "CANONICAL_SPLIT", "GLOBALLY_F_REGULAR", "COR72_HPJ",
             "COR73_FLAG", "COHOMOLOGY_VANISHING")


class CriterionSweep(Workload):
    name = "criterion-sweep"

    def setup(self) -> None:
        self.targets = []
        for builder, args in CRITERION_EMBEDDINGS:
            if builder == "custom":
                g, h, matrix = args
                desc = {"custom": {"g": g, "h": h,
                                   "matrix": [[str(x) for x in row] for row in matrix]}}
                rows, twisted = matrix, False
            else:
                desc = descriptor(builder, args)
                emb = build(builder, args)
                g, h, rows = emb.g.spec_string(), emb.h.spec_string(), emb.restriction
                twisted = emb.twist_exponent is not None
            spans, offset = [], 0
            for _, r in rootdata.parse_spec(g):
                spans.append((offset, offset + r))
                offset += r
            self.targets.append({
                "desc": desc, "g": g, "rank": offset, "spans": spans,
                "rows": [[Fraction(x) for x in row] for row in rows],
                "twisted": twisted,
                "min_p": rootdata.large_p_bound(h, rows),
            })

    @staticmethod
    def _twisted(t, p) -> bool:
        """Whether the criterion sees a Frobenius twist at p."""
        return t["twisted"] or any(
            any(row[j] != 0 for row in t["rows"] for j in range(lo, hi))
            and all(row[j].denominator == 1 and row[j].numerator % p == 0
                    for row in t["rows"] for j in range(lo, hi))
            for lo, hi in t["spans"])

    # the criterion, restated on weight data for the checks
    def model(self, t, J, p, source, flag):
        res = [sum(row[j - 1] for j in J) for row in t["rows"]]
        cond1 = [2 - x for x in res]
        dominant = all(c >= 0 for c in cond1)
        regular = all(c > 0 for c in cond1)
        canonical = all(1 - x >= 0 for x in res)
        full = len(J) == t["rank"]
        lie = "holds" if full else "fails" if self._twisted(t, p) else flag or "unknown"
        holds = [tag for tag, on in (
            ("SPLIT_PJ", True), ("CANONICAL_SPLIT", canonical),
            ("GLOBALLY_F_REGULAR", regular), ("COR72_HPJ", lie == "holds"),
            ("COR73_FLAG", full), ("COHOMOLOGY_VANISHING", full)) if on]
        if not dominant:
            outcomes = [[]]
        elif source == "user-asserted" or p >= t["min_p"] and source != "none":
            outcomes = [holds]
        elif source == "donkin-registry":
            # the registry may or may not know the pair; either answer is sound
            outcomes = [holds, ["CONDITIONAL"]]
        else:
            outcomes = [["CONDITIONAL"]]
        return {"cond1": [_frac(c) for c in cond1], "dominant": dominant,
                "regular": regular, "min_p": t["min_p"], "outcomes": outcomes,
                "w_j": rootdata.root_data(t["g"]).parabolic_order(J), "p": p}

    def _valid(self, rng, large: bool):
        t = rng.choice(self.targets)
        J = [j for j in range(1, t["rank"] + 1) if rng.random() < 0.5]
        if large:
            p = rng.randrange(*LARGE_P) | 1
            while not rootdata.is_prime(p):
                p += 2
        else:
            p = rng.choice(SMALL_PRIMES)
        source = rng.choice(SOURCES)
        flag = rng.choice(("holds", "fails")) if rng.random() < 0.25 else None
        data = {"embedding": t["desc"], "J": J, "p": p, "surjectivity_source": source}
        if flag:
            data["lie_separability"] = flag
        model = self.model(t, J, p, source, flag)
        status = 0
        if len(model["outcomes"]) == 1 and rng.random() < 0.35:
            tags = model["outcomes"][0]
            absent = [x for x in TAG_ORDER + ("CONDITIONAL",) if x not in tags]
            expect = {"condition1_dominant": model["dominant"],
                      "tags_include": rng.sample(tags, min(len(tags), 2)),
                      "tags_exclude": rng.sample(absent, min(len(absent), 2))}
            if rng.random() < 0.5:
                # break one expectation, so that the CLI must exit 1
                status = 1
                broken = rng.choice(("condition1_dominant", "tags_include", "tags_exclude"))
                if broken == "tags_exclude" and not tags:
                    broken = "condition1_dominant"
                if broken == "condition1_dominant":
                    expect[broken] = not model["dominant"]
                elif broken == "tags_include":
                    expect[broken] = expect[broken] + [rng.choice(absent)]
                else:
                    expect[broken] = expect[broken] + [rng.choice(tags)]
            data["expect"] = expect
        return json.dumps(data), status, model

    def _invalid(self, rng, kind: str):
        t = rng.choice([t for t in self.targets if "builder" in t["desc"]])
        data = {"embedding": t["desc"], "J": [1], "p": rng.choice(SMALL_PRIMES)}
        if kind == "bad-lie-flag":
            # J not full and no twist, so that the flag is read and refused
            while t["rank"] == 1 or self._twisted(t, data["p"]):
                t = rng.choice([t for t in self.targets if "builder" in t["desc"]])
            data["embedding"] = t["desc"]
        if kind == "non-prime-p":
            data["p"] = rng.choice((0, 1, 4, 9, 15, 21, 25, 91, 100))
        elif kind == "J-out-of-range":
            data["J"] = [rng.choice((0, t["rank"] + 1))]
        elif kind == "unknown-builder":
            data["embedding"] = {"builder": rng.choice(("folding_XY", "levy", ""))}
        elif kind == "missing-key":
            del data[rng.choice(("embedding", "J", "p"))]
        elif kind == "bad-json":
            return json.dumps(data)[:-1], 2, None
        elif kind == "bad-lie-flag":
            data["lie_separability"] = "maybe"
        elif kind == "bad-source":
            data["surjectivity_source"] = "oracle"
        elif kind == "J-not-int":
            data["J"] = ["x"]
        elif kind == "p-not-int":
            data["p"] = "two"
        elif kind == "param-null":
            data["embedding"] = {"builder": "folding_AC", "params": {"m": None}}
        elif kind == "matrix-entry-object":
            data["embedding"] = {"custom": {"g": "A1,A1", "h": "A1",
                                            "matrix": [[{"a": 1}, "1"]]}}
        elif kind == "lie-flag-twisted":
            t = rng.choice([t for t in self.targets if t["twisted"]])
            data.update(embedding=t["desc"], lie_separability="maybe")
        elif kind == "lie-flag-full-J":
            data.update(J=list(range(1, t["rank"] + 1)), lie_separability="maybe")
        return json.dumps(data), 2, None

    def defect_probe(self) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:probe")
        return [self._invalid(rng, kind) for kind in DEFECT_KINDS]

    def draw_round(self, k: int) -> list:
        rng = self.rng(k)
        offset = random.Random(f"{self.name}:{self.seed}").randrange(len(INVALID_KINDS))
        kinds = list(ROUND_KINDS)
        rng.shuffle(kinds)
        return [self._invalid(rng, INVALID_KINDS[(k + offset) % len(INVALID_KINDS)])
                if kind == "invalid" else self._valid(rng, kind == "large-p")
                for kind in kinds]

    def run(self, item):
        return _captured_main(["check", item[0]])

    def check(self, item, out):
        text, want, model = item
        status, stdout = out
        if model is None:
            if status != 2:
                how = f"raised {status}" if isinstance(status, str) else f"exit {status}"
                return MISHANDLED, f"{how} instead of exit 2: {text}"
            return OK, ""
        if status != want:
            return WRONG, f"exit {status}, expected {want}: {text}"
        report = json.loads(stdout)
        tags = [c["tag"] for c in report["conclusions"]]
        cond1 = report["condition1"]
        if (cond1["weight"] != model["cond1"] or cond1["dominant"] != model["dominant"]
                or cond1["regular"] != model["regular"]):
            return WRONG, f"condition (1) is {cond1}, expected {model['cond1']}: {text}"
        if report["lemma53_min_p"] != model["min_p"]:
            return WRONG, f"large-p bound {report['lemma53_min_p']} != {model['min_p']}: {text}"
        if tags not in model["outcomes"]:
            return WRONG, f"tags {tags}, expected one of {model['outcomes']}: {text}"
        if tags == ["CONDITIONAL"]:
            follow = report["conclusions"][0]["statement"].split("these follow: ")[1]
            asserted = dict(json.loads(text), surjectivity_source="user-asserted")
            asserted.pop("expect", None)
            _, stdout2 = _captured_main(["check", json.dumps(asserted)])
            tags2 = [c["tag"] for c in json.loads(stdout2)["conclusions"]]
            if sorted(follow.split(", ")) != sorted(tags2):
                return WRONG, f"CONDITIONAL lists {follow}, user-asserted gives {tags2}: {text}"
        return OK, ""

    def digest_bytes(self, item, out) -> bytes:
        status, stdout = out
        return json.dumps([item[0], status, stdout]).encode()

    def size(self, item):
        model = item[2]
        return {"w_j": model["w_j"], "p": model["p"]} if model else {"w_j": 0, "p": 0}

    def cli_sample(self) -> list:
        # a fixed make-up, so that the median call is an ordinary one
        stream = [item for k in range(3) for item in self.round(k)]
        ordinary = [i for i in stream if i[2] is not None and i[2]["p"] < LARGE_P[0]]
        large = [i for i in stream if i[2] is not None and i[2]["p"] >= LARGE_P[0]]
        invalid = [i for i in stream if i[2] is None]
        sample = []
        for item in ordinary[:9] + large[:1] + invalid[:1]:
            expected = self.run(item)

            def check(returncode, stdout, stderr, item=item, expected=expected):
                if item[2] is None:
                    if returncode != 2:
                        return MISHANDLED, f"CLI exit {returncode} instead of 2: {item[0]}"
                    return OK, ""
                if returncode != item[1]:
                    return WRONG, f"CLI exit {returncode}, expected {item[1]}: {item[0]}"
                if stdout != expected[1]:
                    return WRONG, f"CLI stdout differs from the in-process run: {item[0]}"
                return OK, ""
            sample.append((["check", item[0]], check))
        return sample


WORKLOADS = {w.name: w for w in (BranchSweep, WeylSweep, CriterionSweep)}


def safe_run(wl: Workload, item):
    """wl.run, with an exception returned as the output."""
    try:
        return wl.run(item)
    except Exception as exc:
        return exc


def output_bytes(wl: Workload, item, out) -> bytes:
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}".encode()
    return wl.digest_bytes(item, out)


def digest_of_first_items(wl: Workload) -> str:
    """sha256 over the outputs of the run's first digest_items items,
    computed from scratch."""
    h = hashlib.sha256()
    done, k = 0, 0
    while done < wl.digest_items:
        wl.start_round()
        for item in wl.round(k)[:wl.digest_items - done]:
            h.update(output_bytes(wl, item, safe_run(wl, item)))
            done += 1
        k += 1
    return h.hexdigest()
