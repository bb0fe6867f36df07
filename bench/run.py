"""slopecalc benchmark: one seeded closed-loop run of one workload.

    python3 bench/run.py --workload {cli-mix,arith,enumerate} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; it benchmarks the sources in ``src/`` next to this
directory.  One client runs ops back to back from a pool built from the seed
until the ops' own time adds up to S seconds; checking each result (outside
the timed region) adds wall time on top.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, where
metrics are the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The line before it is an ``info`` object (output
digest, sample count, interpreter version, src/ line count) that nothing
gates on.

``setup_s`` is the median of several cold set-ups: the one of this run, and
SETUP_CHILDREN more in fresh processes (``--setup-only``) after the loop.

``--trace 1`` first runs the workload untraced for S/2 seconds, then replays
the same ops with a span around each call into a layer.  The difference is
the tracing overhead.  It then probes the CLI layer: interpreter start,
import, parser construction, and an in-process ``run(argv)`` over the
cli-mix queries with every library call it makes wrapped.  So every per-layer
metric has a value on every workload.  Spans go to
``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import redirect_stdout, suppress
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

from tracing import Tracer

WORKLOADS = ("cli-mix", "arith", "enumerate")
SETUP_CHILDREN = 4
PROBE_REPS = 7
PARSER_REPS = 20
SEGMENT_NS = 50_000_000
MIN_OPS = 100  # so op_p90_ms has at least ten samples beyond it
LAYERS = ("cli", "farey", "seifert", "branched_surface", "multicurve")

# Which end-to-end metric, on which workload, each per-layer metric should move.
PREDICTS = {
    "cli.interpreter_ms": ["cli-mix:op_p50_ms", "cli-mix:ops_per_s", "*:setup_s"],
    "cli.import_ms": ["cli-mix:op_p50_ms", "cli-mix:ops_per_s", "*:setup_s"],
    "cli.build_parser_ms": ["cli-mix:op_p50_ms", "cli-mix:ops_per_s", "*:setup_s"],
    "cli.run_ms": ["cli-mix:op_p50_ms"],
    "cli.render_ms": ["cli-mix:op_p50_ms"],
    "farey.successor.us": ["arith:ops_per_s", "arith:op_p90_ms"],
    "farey.greatest_neighbor_below.us": ["arith:ops_per_s", "arith:op_p90_ms"],
    "farey.shortest_increasing_path.s": ["arith:ops_per_s", "arith:op_p90_ms"],
    "farey.path_vertices": ["arith:ops_per_s", "arith:op_p90_ms"],
    "farey.us_per_vertex": ["arith:ops_per_s", "arith:op_p90_ms"],
    "seifert.analyze.s": ["arith:op_p90_ms", "arith:ops_per_s"],
    "seifert.rows": ["arith:op_p90_ms", "arith:ops_per_s"],
    "seifert.us_per_row": ["arith:op_p90_ms", "arith:ops_per_s"],
    "branched_surface.enumerate_weights.s": ["enumerate:ops_per_s", "enumerate:op_p90_ms"],
    "branched_surface.solutions": ["enumerate:ops_per_s", "enumerate:op_p90_ms"],
    "branched_surface.grid_points": ["enumerate:ops_per_s", "enumerate:op_p90_ms"],
    "branched_surface.load_us": ["cli-mix:op_p50_ms"],
    "multicurve.enumerate_multicurves.s": ["enumerate:op_p50_ms", "enumerate:peak_rss_mb"],
    "multicurve.coordinates": ["enumerate:op_p50_ms", "enumerate:peak_rss_mb"],
    "multicurve.us_per_coordinate": ["enumerate:op_p50_ms", "enumerate:peak_rss_mb"],
    "cli.self_pct": ["cli-mix:op_p50_ms"],
    "farey.self_pct": ["arith:ops_per_s"],
    "seifert.self_pct": ["arith:op_p90_ms"],
    "branched_surface.self_pct": ["enumerate:ops_per_s"],
    "multicurve.self_pct": ["enumerate:op_p50_ms"],
    "trace.overhead_pct": [],
}


def grid_points(args, kwargs) -> int:
    """(max - lo + 1) ** sectors: the grid enumerate_weights searches, computed, not counted."""
    surface, max_weight = args[0], args[1]
    positivity = args[2] if len(args) > 2 else kwargs.get("positivity", "nonnegative")
    return (max_weight - (positivity == "positive") + 1) ** len(set(surface.sector_ids()))


# The library entry points the in-process workloads call, by their name in
# workloads.py, and the span each gets in a traced replay.
ENTRY_POINTS = (
    ("successor", "farey.successor"),
    ("greatest_neighbor_below", "farey.greatest_neighbor_below"),
    ("shortest_increasing_path", "farey.shortest_increasing_path"),
    ("analyze", "seifert.analyze"),
    ("enumerate_weights", "branched_surface.enumerate_weights"),
    ("enumerate_multicurves", "multicurve.enumerate_multicurves"),
)

WORKS = {
    "farey.shortest_increasing_path": lambda a, kw, r: {"vertices": len(r)},
    "seifert.analyze": lambda a, kw, r: {"rows": len(r.rows)},
    "branched_surface.enumerate_weights":
        lambda a, kw, r: {"solutions": len(r), "grid_points": grid_points(a, kw)},
    "multicurve.enumerate_multicurves": lambda a, kw, r: {"coordinates": len(r)},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up, print {\"setup_s\": ...} and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_op(wl, op, tracer=None):
    """The op's result, or None if it raised (the traceback goes to stderr)."""
    try:
        if tracer is None:
            return wl.run(op)
        return tracer.call(wl.root, wl.run, op)
    except Exception:  # a failing op is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None


def checked(wl, op, result, errors) -> bool:
    try:
        return result is not None and bool(wl.check(op, result))
    except errors:
        return False


def closed_loop(wl, pool, errors, *, seconds=None, count=None, tracer=None, digest=None):
    """Run pool ops in order, cycling, for `count` ops or else for `seconds`
    of op time and at least MIN_OPS ops.

    Ops are timed in segments of at least SEGMENT_NS.  The workload's
    reference runs between segments, and each op's latency is scaled by the
    mean of the two reference timings around its segment (see
    workloads.kernel_ns).  Only the first pass over the pool feeds the
    digest, so the digest does not depend on speed.
    """
    loop = SimpleNamespace(raw=[], scaled=[], refs=[wl.reference_ns()], failed=0)
    segment, timed, i = [], 0, 0

    def close_segment():
        loop.refs.append(wl.reference_ns())
        factor = 2 * wl.REF_NS / (loop.refs[-2] + loop.refs[-1])
        loop.scaled.extend(ns * factor for ns in segment)
        segment.clear()

    while (i < count) if count is not None else (i < MIN_OPS or timed < seconds * 1e9):
        op = pool[i % len(pool)]
        start = perf_counter_ns()
        result = run_op(wl, op, tracer)
        elapsed = perf_counter_ns() - start
        loop.raw.append(elapsed)
        segment.append(elapsed)
        timed += elapsed
        ok = checked(wl, op, result, errors)
        loop.failed += not ok
        if digest is not None and i < len(pool):
            digest.update((wl.canon(op, result) if ok else "FAILED").encode() + b"\n")
        del result  # so peak memory is one op's, not two ops'
        if sum(segment) >= SEGMENT_NS:  # segments hold few ops: the sum is cheap
            close_segment()
        i += 1
    if segment:
        close_segment()
    return loop


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (children run one at a time)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def latency_stats(latencies) -> tuple[float, float, float]:
    """ops per second, p50 ms and p90 ms of a list of ns latencies."""
    return (
        len(latencies) / (sum(latencies) / 1e9),
        statistics.median(latencies) / 1e6,
        statistics.quantiles(latencies, n=10)[8] / 1e6,
    )


def end_to_end(loop, setup_s, rss_mb) -> dict:
    ops_per_s, p50, p90 = latency_stats(loop.scaled)
    n = len(loop.scaled)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_ratio": ((n - loop.failed) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run: CLI probes and per-layer metrics
# ---------------------------------------------------------------------------

def timed_child(argv, env) -> tuple[float, str]:
    start = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
    return (perf_counter() - start) * 1e3, proc.stdout


def probe_cli(tracer, cli_pool, env, workloads) -> tuple[dict, int]:
    """Interpreter, import and parser probes, and run(argv) over cli_pool with spans.

    Returns the probe timings in ms and the number of failed queries.
    """
    from slopecalc import branched_surface, cli, multicurve, seifert

    exe = sys.executable
    timings = {
        "interpreter": [timed_child([exe, "-c", "pass"], env)[0] for _ in range(PROBE_REPS)],
        "import": [
            float(timed_child([exe, "-c", "import time; t = time.perf_counter(); "
                               "import slopecalc.cli; print((time.perf_counter() - t) * 1e3)"],
                              env)[1])
            for _ in range(PROBE_REPS)
        ],
        "build_parser": [],
    }
    for _ in range(PARSER_REPS):
        start = perf_counter()
        cli.build_parser()
        timings["build_parser"].append((perf_counter() - start) * 1e3)

    def run_captured(argv):
        with redirect_stdout(io.StringIO()) as out:
            code = cli.run(argv)
        return code, out.getvalue()

    targets = [
        (cli, name, f"farey.{name}")
        for name in ("successor", "greatest_neighbor_below", "shortest_increasing_path",
                     "mediant", "is_edge", "intersection_number")
    ] + [
        (branched_surface, name, f"branched_surface.{name}")
        for name in ("enumerate_weights", "check_weights", "carried_euler", "amputate",
                     "check_degree_consistency", "surface_from_dict", "validate_surface")
    ] + [
        (seifert, "analyze", "seifert.analyze"),
        (multicurve, "enumerate_multicurves", "multicurve.enumerate_multicurves"),
    ]
    failed = 0
    with tracer.patched(targets, WORKS):
        for q in cli_pool:
            code, out = tracer.call("cli.run", run_captured, q["argv"])
            try:
                failed += not (code == 0 and workloads.check_cli_output(q, out))
            except workloads.CHECK_ERRORS:
                failed += 1

    def load(path):
        return branched_surface.validate_surface(branched_surface.load_surface(path))

    for q in cli_pool:
        if "surface" in q:
            tracer.call("branched_surface.load", load, q["surface"])
    return timings, failed


def layer_metrics(tracer, timings, scale, overhead_pct) -> dict:
    """Per-layer metrics from the spans; times are multiplied by scale (see kernel_ns)."""
    own = tracer.self_times()
    spans = defaultdict(list)  # name -> [(duration ns, self ns, work)]
    for (name, start, end, _, work), self_ns in zip(tracer.spans, own):
        spans[name].append(((end - start) * scale, self_ns * scale, work or {}))
    timings = {name: [t * scale for t in ts] for name, ts in timings.items()}

    def median_of(name, unit_ns):
        return statistics.median(d for d, _, _ in spans[name]) / unit_ns

    def total(name, key):
        return sum(w[key] for _, _, w in spans[name])

    def mean_work(name, key):
        return total(name, key) / len(spans[name])

    def us_per(name, key):
        return sum(d for d, _, _ in spans[name]) / 1e3 / total(name, key)

    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    layer_self = defaultdict(int)
    for span, self_ns in zip(tracer.spans, own):
        layer_self[span[0].split(".")[0]] += self_ns

    path, analyze = "farey.shortest_increasing_path", "seifert.analyze"
    weights, curves = "branched_surface.enumerate_weights", "multicurve.enumerate_multicurves"
    metrics = {
        "cli.interpreter_ms": (statistics.median(timings["interpreter"]), "ms"),
        "cli.import_ms": (statistics.median(timings["import"]), "ms"),
        "cli.build_parser_ms": (statistics.median(timings["build_parser"]), "ms"),
        "cli.run_ms": (median_of("cli.run", 1e6), "ms"),
        "cli.render_ms": (statistics.median(s for _, s, _ in spans["cli.run"]) / 1e6, "ms"),
        "farey.successor.us": (median_of("farey.successor", 1e3), "us"),
        "farey.greatest_neighbor_below.us": (median_of("farey.greatest_neighbor_below", 1e3), "us"),
        "farey.shortest_increasing_path.s": (median_of(path, 1e9), "s"),
        "farey.path_vertices": (mean_work(path, "vertices"), "count"),
        "farey.us_per_vertex": (us_per(path, "vertices"), "us"),
        "seifert.analyze.s": (median_of(analyze, 1e9), "s"),
        "seifert.rows": (mean_work(analyze, "rows"), "count"),
        "seifert.us_per_row": (us_per(analyze, "rows"), "us"),
        "branched_surface.enumerate_weights.s": (median_of(weights, 1e9), "s"),
        "branched_surface.solutions": (mean_work(weights, "solutions"), "count"),
        "branched_surface.grid_points": (mean_work(weights, "grid_points"), "count"),
        "branched_surface.load_us": (median_of("branched_surface.load", 1e3), "us"),
        "multicurve.enumerate_multicurves.s": (median_of(curves, 1e9), "s"),
        "multicurve.coordinates": (mean_work(curves, "coordinates"), "count"),
        "multicurve.us_per_coordinate": (us_per(curves, "coordinates"), "us"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (100 * layer_self[layer] / roots, "%")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


# ---------------------------------------------------------------------------

def cold_setup(args, src: Path, workdir: str, start_ns: int):
    """Import the workloads, build the pool and warm up, once, in this process.

    start_ns was taken before the package import.  Nothing has run before,
    so first-call costs count.  Returns the workload, the shuffled pool and
    the set-up time in s, scaled by two reference timings taken after it.
    """
    import workloads

    wl = workloads.make_workload(args.workload, str(src))
    rng = random.Random(args.seed)
    pool = wl.build(rng, workdir)
    # The first ops are the same shapes for every seed, so warm-up cost is too.
    for op in pool[: wl.warmup]:
        run_op(wl, op)  # failures here are counted again by the timed loop
    rng.shuffle(pool)
    elapsed = perf_counter_ns() - start_ns
    refs = wl.reference_ns() + wl.reference_ns()
    return wl, pool, elapsed * 2 * wl.REF_NS / refs / 1e9


def child_setup_s(args) -> float:
    """The scaled time of one cold set-up in a fresh process."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)["setup_s"]


def measure(args, root: Path, src: Path, workdir: str, wl, pool, setup_s) -> tuple[dict, dict]:
    import workloads

    digest = hashlib.sha256()
    errors = workloads.CHECK_ERRORS
    seconds = args.seconds / 2 if args.trace else args.seconds
    loop = closed_loop(wl, pool, errors, seconds=seconds, digest=digest)
    raw = latency_stats(loop.raw)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "src_lines": src_lines(src),
        "pool": len(pool),
        "samples": len(loop.raw),
        "failed_ratio": loop.failed / len(loop.raw),
        "digest": digest.hexdigest()[:16],
        "digest_items": min(len(loop.raw), len(pool)),
        "reference_ms": statistics.median(loop.refs) / 1e6,
        "unscaled": {"ops_per_s": raw[0], "op_p50_ms": raw[1], "op_p90_ms": raw[2]},
    }
    if not args.trace:
        rss_mb = peak_rss_mb()  # before the set-up children, which would count in it
        setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
        info.update(attempted=len(loop.raw), failed=loop.failed, setup_runs_s=setups)
        return end_to_end(loop, statistics.median(setups), rss_mb), info

    tracer = Tracer()
    entry_points = [(workloads, attr, name) for attr, name in ENTRY_POINTS]
    with tracer.patched(entry_points, WORKS):
        replay = closed_loop(wl, pool, errors, count=len(loop.raw), tracer=tracer)
    overhead_pct = 100 * (sum(replay.scaled) / sum(loop.scaled) - 1)
    if args.workload == "cli-mix":
        cli, cli_pool = wl, pool
    else:
        cli = workloads.CliMix(str(src))
        cli_pool = cli.build(random.Random(args.seed), workdir)
    timings, probe_failed = probe_cli(tracer, cli_pool, cli.env, workloads)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json")
    kernel_ns = statistics.median(workloads.kernel_ns() for _ in range(PROBE_REPS))
    scale = workloads.InProcess.REF_NS / kernel_ns
    failed = loop.failed + replay.failed + probe_failed
    attempted = len(loop.raw) + len(replay.raw) + len(cli_pool)
    info.update(attempted=attempted, failed=failed, spans=len(tracer.spans),
                time_scale=scale, predicts=PREDICTS)
    return layer_metrics(tracer, timings, scale, overhead_pct), info


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "slopecalc" / "__init__.py").is_file():
        print(f"bench: no slopecalc sources under {src}", file=sys.stderr)
        return 2
    # One CPU for this process and its children, so the reference and the ops
    # run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start_ns = perf_counter_ns()
    sys.path.insert(0, str(src))
    import slopecalc

    if Path(slopecalc.__file__).resolve().parent != (src / "slopecalc").resolve():
        print(f"bench: imported slopecalc from {slopecalc.__file__}, not {src}", file=sys.stderr)
        return 2
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        wl, pool, setup_s = cold_setup(args, src, workdir, start_ns)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        metrics, info = measure(args, root, src, workdir, wl, pool, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
