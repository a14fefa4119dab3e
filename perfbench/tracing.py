"""Spans around the package's public functions, installed from outside.

A module that did ``from .embed import restrict`` holds its own reference,
so a wrapper replaces the name in every ``frobcrit`` module whose attribute
is the original function.  Spans stay in memory; ``aggregate`` turns them
into per-layer metrics and ``write_spans`` writes them out at the end.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
import types
from collections import defaultdict

MODULES = ("frobcrit", "frobcrit.rootsys", "frobcrit.weyl", "frobcrit.embed",
           "frobcrit.charalg", "frobcrit.criteria", "frobcrit.registry",
           "frobcrit.cli")


# (module, attribute, work count taken from the result or None)
TARGETS = (
    ("rootsys", "build_root_system", None),
    ("weyl", "enumerate_parabolic", len),
    ("weyl", "longest_element", None),
    ("weyl", "verify_st_decomp", None),
    ("charalg", "freudenthal", lambda r: len(r.multiplicities)),
    ("charalg", "DominantCharacter.weights", None),
    ("charalg", "weyl_orbit", len),
    ("charalg", "branch", len),
    ("embed", "validate", None),
    ("embed", "restrict", None),
    ("embed", "detect_twist", None),
    ("criteria", "check_main", None),
    ("criteria", "lemma53_min_p", None),
    ("registry", "lookup_donkin", None),
    ("cli", "main", None),
    ("cli", "embedding_from_descriptor", None),
    ("cli", "report_to_json", None),
)


def _modules():
    return [sys.modules[name] for name in MODULES]


def snapshot():
    """Every function, class and module bound in the package, plus class members."""
    out = {}
    for mod in _modules():
        for key, value in vars(mod).items():
            if isinstance(value, (types.FunctionType, type, types.ModuleType)):
                out[(mod.__name__, key)] = value
                if isinstance(value, type) and value.__module__.startswith("frobcrit"):
                    for member, obj in vars(value).items():
                        out[(mod.__name__, f"{key}.{member}")] = obj
    return out


def changed_since(before) -> list[str]:
    """Names whose binding differs from the snapshot ``before``."""
    after = snapshot()
    return sorted(f"{m}.{k}" for (m, k) in before.keys() | after.keys()
                  if before.get((m, k)) is not after.get((m, k)))


class Tracer:
    """Records one span per wrapped call: (id, parent, name, start, end, work, item)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.item = -1
        self.cache_lookups = 0
        self._stack = [0]
        self._ids = itertools.count(1)

    def _wrap(self, name, fn, work):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), 0, self.item))
                raise
            finally:
                stack.pop()
            end = clock()
            spans.append((sid, parent, name, start, end,
                          work(result) if work else 0, self.item))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target in every package module that binds it."""
        mods = _modules()
        for short, path, work in TARGETS:
            owner = sys.modules[f"frobcrit.{short}"]
            name = f"{short}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), work))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, work)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

        charalg = sys.modules["frobcrit.charalg"]
        lookup = charalg._cached_character

        def counted(*args, **kwargs):
            self.cache_lookups += 1
            return lookup(*args, **kwargs)

        charalg._cached_character = counted


def _self_times(spans):
    """(span, self time) pairs: each span's duration minus its direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end, _, _ in spans:
        child_time[parent] += end - start
    return [(span, span[4] - span[3] - child_time.get(span[0], 0.0)) for span in spans]


def aggregate(names, spans, cache_lookups: int, cache_misses: int) -> dict[str, float]:
    """The per-layer metrics ``names`` from the spans and the cache counters.

    A name is ``<module>.<function>.<counter>``; calls and self_s come from
    the spans of that function, the other counters are computed below.
    """
    span_names = {span[0]: span[2] for span in spans}
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    expanded = 0
    for (sid, parent, name, _, _, w, _), own in _self_times(spans):
        calls[name] += 1
        self_s[name] += own
        work[name] += w
        if (name == "charalg.weyl_orbit"
                and span_names.get(parent) == "charalg.DominantCharacter.weights"):
            expanded += w

    values: dict[str, float] = {}
    for metric in names:
        layer, counter = metric.rsplit(".", 1)
        if counter == "calls":
            values[metric] = calls[layer]
        elif counter == "self_s":
            values[metric] = self_s[layer]
    ep = "weyl.enumerate_parabolic"
    values[f"{ep}.elements"] = work[ep]
    values[f"{ep}.elements_per_s"] = work[ep] / self_s[ep] if self_s[ep] > 0 else 0.0
    values["charalg.freudenthal.dominant_weights"] = work["charalg.freudenthal"]
    values["charalg.DominantCharacter.weights.weights_expanded"] = expanded
    values["charalg.branch.constituents"] = work["charalg.branch"]
    values["charalg.char_cache.misses"] = cache_misses
    values["charalg.char_cache.hit_ratio"] = (
        (cache_lookups - cache_misses) / cache_lookups if cache_lookups else 0.0)
    return values


def module_shares(spans, wall_s: float) -> dict[str, float]:
    """Share of the loop's wall time spent as self time in each module."""
    by_module: dict[str, float] = defaultdict(float)
    for span, own in _self_times(spans):
        if span[6] >= 0:
            by_module[span[2].split(".")[0]] += own
    return {m: t / wall_s for m, t in sorted(by_module.items())}


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        for sid, parent, name, start, end, w, item in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end, "work": w,
                                 "item": item}) + "\n")
