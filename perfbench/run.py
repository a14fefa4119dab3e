"""frobcrit benchmark: closed-loop, single-client sweeps over the package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload branch-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py ... --out bench-results/parent   # keep a result file
    python3 perfbench/compare.py bench-results/parent bench-results/change

Workloads (``workloads.py``): ``branch-sweep`` (charalg), ``weyl-sweep``
(weyl) and ``criterion-sweep`` (cli, criteria, embed, registry).  One
process, no threads: the next item starts when the previous one returned.
The seed picks the inputs; the program sees only those inputs.

A run takes, in order: the timed loop (checks run between items, outside
the timing), an output digest recomputed in a fresh process, the
workload's probe of known defects, set-up times of fresh processes, and a
fixed sample of CLI subprocess calls.  Timings are scaled to a reference
machine speed measured next to each of them (``gate.py``), so that a
shared host's slow spells do not show.  With
``--trace 1``, two more fresh processes repeat the loop's items, one with
spans around the package's public functions (``tracing.py``), and the
per-layer metrics are reported instead of the end-to-end ones.

Metric names and units come from BENCHMARK.json.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 1 when a correctness check failed and 2
on a usage error, such as a directory without ``src/frobcrit``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 5          # set-up times reported, as their median
CLI_ATTEMPTS = 3
CHILD_TIMEOUT_S = 150

# metric names and units are defined once, in BENCHMARK.json
_SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def _usage_error(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _child(role: str, args, *extra, env=None) -> dict:
    """Run this script in a fresh interpreter; returns its last stdout line as JSON."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=env or _child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# roles run in fresh processes


def role_setup_probe(args) -> dict:
    before = gate.probe()
    start = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    elapsed = time.perf_counter() - start
    return {"setup_s": gate.scale(elapsed, before, gate.probe())}


def role_digest(args) -> dict:
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    return {"digest": workloads.digest_of_first_items(wl)}


def role_replay(args) -> dict:
    """The first ``--rounds`` rounds and the tail again, from a cold start;
    traced if asked."""
    import workloads
    from frobcrit import charalg
    tracer = tracing.Tracer()
    if args.role == "traced":
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    misses = 0          # the growth of the character cache, round by round
    wall_s = scaled_s = 0.0
    tracer.item = 0     # spans of set-up keep item -1
    for k, items in enumerate([wl.round(k) for k in range(args.rounds)] + [wl.tail()]):
        if k < args.rounds:
            wl.start_round()
        cached = len(charalg._char_cache)
        for item in items:
            _, elapsed, scaled, _ = gate.timed(workloads.safe_run, wl, item)
            wall_s += elapsed
            scaled_s += scaled
            tracer.item += 1
        misses += len(charalg._char_cache) - cached
    out = {"wall_s": wall_s, "scaled_s": scaled_s}
    if args.role == "traced":
        if args.spans:
            tracing.write_spans(tracer.spans, args.spans)
        out["per_layer"] = tracing.aggregate(PER_LAYER, tracer.spans, tracer.cache_lookups,
                                             misses)
        out["module_shares"] = tracing.module_shares(tracer.spans, wall_s)
    return out


# ---------------------------------------------------------------------------
# the measured run


def timed_loop(wl, seconds: float):
    """Whole rounds until the loop's wall time, checks and probes
    included, reaches ``seconds``, and at least the digest items.

    Item times are scaled to the reference speed (``gate.py``); when the
    machine changed speed during a call, the item is retimed.  A
    slow spell of the machine thus costs items, not run time.  The
    workload's tail items run once after the last round; their times are
    returned apart from the rounds' item times.
    """
    import workloads
    times, walls, outcomes, sizes = [], [], [], []
    digest = hashlib.sha256()

    def run_one(item, retime: bool = True) -> float:
        if retime:
            out, elapsed, scaled, _ = gate.retimed(workloads.safe_run, wl, item,
                                                   undo=wl.checkpoint())
        else:
            out, elapsed, scaled, _ = gate.timed(workloads.safe_run, wl, item)
        walls.append(elapsed)
        outcomes.append(wl.check(item, out))
        sizes.append(wl.size(item))
        if len(walls) <= wl.digest_items:
            digest.update(workloads.output_bytes(wl, item, out))
        return scaled

    start, k = time.perf_counter(), 0
    while len(walls) < wl.digest_items or time.perf_counter() - start < seconds:
        wl.start_round()
        times += [run_one(item) for item in wl.round(k)]
        k += 1
    # timed once, as a call of seconds rarely keeps the machine's speed, and
    # kept out of the item statistics, which one such time would swamp
    tail = [run_one(item, retime=False) for item in wl.tail()]
    return times, tail, walls, outcomes, sizes, digest.hexdigest(), k


def setup_times(args) -> list[float]:
    """Set-up times of SETUP_RUNS fresh processes, each scaled by its own probes."""
    return [_child("setup-probe", args)["setup_s"] for _ in range(SETUP_RUNS)]


def _cli(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "frobcrit.cli", *argv],
                          capture_output=True, text=True, cwd=ROOT, env=_child_env(),
                          stdin=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def cli_calls(wl):
    """Time of each sampled CLI call, interpreter start-up included: the
    fastest of CLI_ATTEMPTS, as process start-up adds noise of its own that
    the probes do not see."""
    times, outcomes = [], []
    for argv, check in wl.cli_sample():
        attempts = []
        for _ in range(CLI_ATTEMPTS):
            proc, _, scaled, _ = gate.timed(_cli, argv)
            attempts.append(scaled)
            outcomes.append(check(proc.returncode, proc.stdout, proc.stderr))
        times.append(min(attempts))
    return times, outcomes


def seed_checks(wl) -> list[str]:
    same = wl.with_seed(wl.seed)
    other = wl.with_seed(wl.seed + 1)
    rounds = range(1)
    problems = []
    if [wl.round(k) for k in rounds] != [same.round(k) for k in rounds]:
        problems.append("the same seed drew different items")
    if [wl.round(k) for k in rounds] == [other.round(k) for k in rounds]:
        problems.append("a different seed drew the same items")
    return problems


def measure(args) -> dict:
    started = time.time()
    import frobcrit
    if not Path(frobcrit.__file__).resolve().is_relative_to(SRC.resolve()):
        _usage_error(f"frobcrit was imported from {frobcrit.__file__}, not from ./src")
    import workloads
    imported = tracing.snapshot()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    problems = seed_checks(wl)

    times, tail, walls, outcomes, sizes, digest, rounds = timed_loop(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rebound = tracing.changed_since(imported)
    if rebound:
        problems.append(f"the untraced run rebound module attributes: {rebound}")

    fresh = _child("digest", args, env=_child_env(PYTHONHASHSEED=str(1 + args.seed % 4000)))
    if fresh["digest"] != digest:
        problems.append(f"output digest {digest} differs from a fresh process's {fresh['digest']}")

    probed = [wl.check(item, workloads.safe_run(wl, item)) for item in wl.defect_probe()]
    known_defects = [d for status, d in probed if status == workloads.MISHANDLED]
    problems += [d for status, d in probed if status == workloads.WRONG]

    setups = setup_times(args)
    cli_times, cli_outcomes = cli_calls(wl)
    outcomes += cli_outcomes

    quantiles = statistics.quantiles(times, n=10)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "items_per_s": (len(times) / sum(times), len(times)),
        "item_p50_ms": (statistics.median(times) * 1e3, len(times)),
        "item_p90_ms": (quantiles[8] * 1e3, len(times)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "cli_call_p50_ms": (statistics.median(cli_times) * 1e3, len(cli_times)),
    }
    failed = [d for status, d in outcomes if status != workloads.OK]
    wrong = [d for status, d in outcomes if status == workloads.WRONG]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started,
        "python": platform.python_version(), "commit": _commit(),
        "nproc": os.cpu_count(),
        "rounds": rounds, "loop_wall_s": sum(walls), "tail_ms": [t * 1e3 for t in tail],
        "inputs": {
            "items": len(sizes),
            **{f"{key}_{agg.__name__}": agg(s.get(key, 0) for s in sizes)
               for key in ("g_dim", "w_j") for agg in (sum, max)},
            "p_max": max(s.get("p", 0) for s in sizes),
        },
        "digest": digest,
        "metrics": {name: {"value": metrics[name][0], "unit": unit, "n": metrics[name][1]}
                    for name, unit in END_TO_END.items()},
        # error_rate counts the probe's inputs too; failed only the workload's
        "error_rate": {"value": (len(failed) + len(known_defects)) / (len(outcomes) + len(probed)),
                       "n": len(outcomes) + len(probed)},
        "known_defects": known_defects, "probed": len(probed),
        "attempted": len(outcomes), "failed": len(failed),
        "correct": not wrong and not problems,
        "problems": problems + wrong[:20],
        "mishandled": [d for status, d in outcomes if status == workloads.MISHANDLED][:20],
    }
    if args.trace:
        args.rounds = rounds
        result.update(traced_run(args, started))
        result["per_layer"]["cli.main.invalid_not_refused"] = len(known_defects)
    return result


def traced_run(args, started: float) -> dict:
    """Per-layer numbers from a traced replay, and its cost against an untraced one."""
    spans = str(_result_path(args, started).with_suffix(".spans.jsonl")) if args.out else None
    rounds = ["--rounds", str(args.rounds)]
    untraced = _child("replay", args, *rounds)
    traced = _child("traced", args, *rounds, *(["--spans", spans] if spans else []))
    traced["per_layer"]["trace.overhead_frac"] = traced["scaled_s"] / untraced["scaled_s"] - 1
    return {"per_layer": traced["per_layer"], "module_shares": traced["module_shares"],
            "traced_wall_s": traced["wall_s"], "replay_wall_s": untraced["wall_s"]}


def _result_path(args, started: float) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    Path(args.out).mkdir(parents=True, exist_ok=True)
    return Path(args.out) / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"


def report(result: dict) -> dict:
    """Print the human-readable lines; return the JSON summary for the last line."""
    print(f"workload {result['workload']} seed {result['seed']} "
          f"seconds {result['seconds']} trace {result['trace']}")
    print(f"env python {result['python']} commit {result['commit']} nproc {result['nproc']}")
    print("inputs " + " ".join(f"{k}={v}" for k, v in result["inputs"].items())
          + f" rounds={result['rounds']}")
    print(f"digest {result['digest']}")
    if result["tail_ms"]:
        print("tail items (not in the item metrics) "
              + " ".join(f"{t:.6g}" for t in result["tail_ms"]) + " ms")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']} n={m['n']}")
    er = result["error_rate"]
    print(f"metric error_rate {er['value']:.6g} ratio n={er['n']}")
    for detail in result["mishandled"][:3]:
        print(f"mishandled: {detail}")
    if result["probed"]:
        print(f"known defects: {len(result['known_defects'])} of {result['probed']} probed "
              f"invalid inputs not refused with exit 2")
    for detail in result["known_defects"]:
        print(f"known defect: {detail}")
    for detail in result["problems"]:
        print(f"FAILED: {detail}")
    if result["trace"]:
        for name, unit in PER_LAYER.items():
            print(f"layer {name} {result['per_layer'][name]:.6g} {unit}")
        shares = " ".join(f"{m}={s:.3f}" for m, s in result["module_shares"].items())
        print(f"self-time share of the traced loop: {shares}")
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory to keep the full result file in")
    parser.add_argument("--role", default="main", help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "frobcrit" / "__init__.py").is_file():
        _usage_error(f"no package source at {SRC / 'frobcrit'}; run from a frobcrit checkout")
    sys.path.insert(0, str(SRC))
    if args.role == "main":
        # one CPU for the run and every process it starts, so that the gate's
        # probes see the state of the CPU that the measurements ran on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        # byte-compile first, so that no run pays for compilation in its timings
        for directory in (SRC / "frobcrit", BENCH):
            compileall.compile_dir(str(directory), quiet=1)
        import workloads
        if args.workload not in workloads.WORKLOADS:
            _usage_error(f"unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(workloads.WORKLOADS)}")
        result = measure(args)
        if args.out:
            _result_path(args, result["started"]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        line = report(result)
        print(json.dumps(line))
        return 0 if result["correct"] else 1

    roles = {"setup-probe": role_setup_probe, "digest": role_digest,
             "replay": role_replay, "traced": role_replay}
    print(json.dumps(roles[args.role](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
