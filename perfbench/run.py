"""graphqss benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search_n6 --seed 0 --seconds 40 --trace 0

Run from the root of a graphqss checkout; the package is imported from its
``src/``.  A run sets up, then repeats full passes of the workload for
``--seconds``, checking every output.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics.  Stdout ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (environment, calibration, raw samples).  Traced runs also
write their spans to ``.bench_out/``.

The end-to-end times are scaled to a reference host speed.  The host is
shared and its speed drifts by tens of percent within seconds, so a fixed
pure-Python loop is timed right before and right after every segment of a
pass and, inside the set-up interpreter, every set-up sample; each sample
is multiplied by ``REFERENCE_MS`` over the mean of its two loop times.  A
slower host slows the loop and the sample alike; a slower commit slows
only the sample.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7

# the calibration loop: CAL_STEPS steps, timed at least CAL_REPEATS times
# and for about CAL_SHARE of the segment before it; the median of the repeats
CAL_STEPS = 100_000
CAL_REPEATS = 3
CAL_SHARE = 0.1
# its time on the reference host; a scaled time is the time the sample
# would have taken on a host where the loop takes this long
REFERENCE_MS = 10.0
# the host's speed holds for a few seconds at a time, so a pass is cut into
# segments of at least this many seconds of operations, calibrated around
SEGMENT_S = 0.5

clock = time.perf_counter


def _import_program() -> None:
    init = SRC / "graphqss" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init.relative_to(ROOT)} not found; run from the root of a graphqss checkout")
    sys.path.insert(0, str(SRC))
    import graphqss

    if Path(graphqss.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported graphqss from {graphqss.__file__}, not {init}")


# -- environment record --------------------------------------------------------


def calibrate(repeats: int = CAL_REPEATS) -> float:
    """Median milliseconds of the calibration loop; tracks the host, not the code."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        x = 0
        for i in range(CAL_STEPS):
            x ^= (i * 2654435761) & 0xFFFF
        times.append((clock() - t0) * 1e3)
    return statistics.median(times)


def _blas() -> dict:
    import numpy as np

    info: dict = {"name": None, "threads": None}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "graphqss").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# -- passes --------------------------------------------------------------------


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def execute_pass(wl, cal: list[float] | None = None) -> dict:
    """Run every operation of one pass; time, CPU and outputs, no checks.

    With ``cal``, the loop times so far (the last taken just before the
    pass), the calibration loop also runs after each segment of operations,
    outside the timed regions, and each segment's wall, CPU and latencies
    are also given scaled by the loop times around it.
    """
    p = {"wall": 0.0, "cpu": 0.0, "outcomes": [],
         "scaled_wall": 0.0, "scaled_cpu": 0.0, "scaled_latencies": []}
    ops, i = wl.ops, 0
    while i < len(ops):
        self0, child0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = clock()
        segment = []
        while i < len(ops) and (cal is None or not segment or clock() - t0 < SEGMENT_S):
            segment.append(wl.run_op(ops[i], clock))
            i += 1
        wall = clock() - t0
        cpu = _cpu(resource.RUSAGE_SELF) - self0 + _cpu(resource.RUSAGE_CHILDREN) - child0
        p["wall"] += wall
        p["cpu"] += cpu
        p["outcomes"] += segment
        if cal is not None:
            cal.append(calibrate(cal_repeats(wall, cal[-1])))
            f = scale(cal[-2], cal[-1])
            p["scaled_wall"] += wall * f
            p["scaled_cpu"] += cpu * f
            p["scaled_latencies"] += [oc.seconds * f for oc in segment]
    return p


def check_pass(wl, p: dict) -> None:
    """Record the reason for every failed operation of a pass, and its work."""
    failures = []
    for oc in p["outcomes"]:
        reason = oc.error
        if reason is None:
            try:
                reason = wl.check(oc)
            except Exception as exc:  # a check that cannot run fails its operation
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{oc.op.kind}: {reason}")
    p["failures"] = failures
    p["work"] = wl.work(p["outcomes"]) if not failures else 0


def tail(sorted_values: list[float], median: float) -> tuple[float, float]:
    """(q, value): p99 by nearest rank when at least ten samples lie beyond
    it (1,000 samples or more), else ``median``.  A percentile in between
    would move with the number of passes in the run, not with the program."""
    if len(sorted_values) < 1000:
        return 0.5, median
    return 0.99, sorted_values[math.ceil(0.99 * len(sorted_values)) - 1]


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Fresh interpreters timed from spawn until ready to pass.

    Each times the calibration loop itself, at its start and once ready, and
    reports the loop times and the seconds they took; those seconds are not
    counted in ``seconds``.
    """
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = clock()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = clock() - t0
            child.stdout.read()
            code = child.wait()
        try:
            report = json.loads(line)
        except json.JSONDecodeError:
            report = {}
        if not report.get("ready") or code != 0:
            raise RuntimeError(f"set-up child exited {code} before it was ready")
        samples.append({"seconds": ready - report["calibration_s"], "loop_ms": report["loop_ms"]})
    return samples


def cal_repeats(seconds: float, loop_ms: float) -> int:
    """Repeats of the loop that take about CAL_SHARE of ``seconds``."""
    return max(CAL_REPEATS, round(CAL_SHARE * seconds * 1e3 / loop_ms))


def scale(before_ms: float, after_ms: float) -> float:
    """REFERENCE_MS over the mean of the loop times around a sample."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)


def end_to_end(wl, seconds: float) -> tuple[dict, list[dict], dict]:
    setup = measure_setup(wl.name, wl.seed)
    setup_scaled = [x["seconds"] * scale(*x["loop_ms"]) for x in setup]
    if wl.one_thread:
        # the calibration loop then runs on the CPU the pass runs on; the
        # host's CPUs change speed independently
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    passes, cal = [], [calibrate()]
    deadline = clock() + seconds
    # start a pass only if a pass as long as the median so far ends in time
    while not passes or clock() + statistics.median(p["span"] for p in passes) <= deadline:
        t0 = clock()
        p = execute_pass(wl, cal)
        p["span"] = clock() - t0
        check_pass(wl, p)
        passes.append(p)
    latencies = sorted(x for p in passes for x in p["scaled_latencies"])
    # the median of each pass, then over passes: a pass of min_k_bounds has
    # two short and two long operations, and the median of all of them would
    # be the slowest short one
    p50 = statistics.median(statistics.median(p["scaled_latencies"]) for p in passes)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    q, p99 = tail(latencies, p50)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_s": (statistics.median(p["scaled_wall"] for p in passes), "s"),
        "throughput": (statistics.median(p["work"] / p["scaled_wall"] for p in passes), "1/s"),
        "cpu_s": (statistics.median(p["scaled_cpu"] for p in passes), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p99_ms": (p99 * 1e3, "ms"),
    }
    record = {
        "setup_samples": setup,
        "pass_raw_walls_s": [p["wall"] for p in passes],
        "pass_raw_cpu_s": [p["cpu"] for p in passes],
        "calibration_ms": cal,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "op_samples": len(latencies),
        "op_p99_quantile": q,
        "op_samples_beyond_p99": sum(1 for x in latencies if x > p99),
    }
    return metrics, passes, record


# -- traced run ----------------------------------------------------------------


def q_accessing_us(sample_size: int = 4_000, repeats: int = 5) -> float:
    """Serial microseconds per ``q_accessing`` call on a fixed sample of
    17-sets of C5^2 (the same sample in every run); median of the repeats."""
    import random

    from graphqss import access, graphs

    g = graphs.c5_power(2)
    a = graphs.VertexSet.full(g.n)
    rng = random.Random(0)
    sample = [graphs.VertexSet.from_iterable(g.n, rng.sample(range(g.n), 17)) for _ in range(sample_size)]
    fn = access.q_accessing
    times = []
    for _ in range(repeats):
        t0 = clock()
        for b in sample:
            fn(g, a, b)
        times.append((clock() - t0) / sample_size * 1e6)
    return statistics.median(times)


CLI_COMMANDS = ("classify", "witness", "simulate", "protocol-run", "threshold", "search", "bound")


def layer_metrics(tracer, start: int, p: dict, cache: tuple[int, int], us_per_call: float) -> dict:
    """Per-layer figures of one traced pass, from its spans and counters."""
    s = tracer.summarize(start)

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def self_s(name):
        return s[name]["self_s"] if name in s else 0.0

    scans = tracer.observations(start, "access.scan_size_k")
    pass_s = sum((d for d, (ok, _) in scans if ok), 0.0)
    fail_s = sum((d for d, (ok, _) in scans if not ok), 0.0)
    all_sets = sum(n for _, (_, n) in scans)
    hits, misses = cache
    m = {
        "access.scan_size_k.pass_s": (pass_s, "s"),
        "access.scan_size_k.fail_s": (fail_s, "s"),
        "access.sets_per_s": (all_sets / (pass_s + fail_s) if scans else 0.0, "1/s"),
        "access.q_accessing.us_per_call": (us_per_call, "us"),
        "access.qstar_threshold.calls": (calls("access.qstar_threshold"), "count"),
        "access.qstar_threshold.self_s": (self_s("access.qstar_threshold"), "s"),
        "access.classify_c.calls": (calls("access.classify_c"), "count"),
        "access.classify_c.self_ms": (self_s("access.classify_c") * 1e3, "ms"),
        "access.reconstruction_witnesses.self_ms": (self_s("access.reconstruction_witnesses") * 1e3, "ms"),
        "access.access_report.self_ms": (self_s("access.access_report") * 1e3, "ms"),
        "gf2.solve.calls": (calls("gf2.solve"), "count"),
        "gf2.solve.self_ms": (self_s("gf2.solve") * 1e3, "ms"),
        "gf2.echelon_basis.self_ms": (self_s("gf2.echelon_basis") * 1e3, "ms"),
        "quantum.graph_state.calls": (calls("quantum.graph_state"), "count"),
        "quantum.graph_state.self_ms": (self_s("quantum.graph_state") * 1e3, "ms"),
        "quantum.apply_isometry_UD.self_ms": (self_s("quantum.apply_isometry_UD") * 1e3, "ms"),
        "quantum.apply_controlled_VC.self_ms": (self_s("quantum.apply_controlled_VC") * 1e3, "ms"),
        "quantum.apply_pauli.calls": (calls("quantum.apply_pauli"), "count"),
        "quantum.reduced_density.calls": (calls("quantum.reduced_density"), "count"),
        "quantum.reduced_density.self_ms": (self_s("quantum.reduced_density") * 1e3, "ms"),
        "quantum.trace_distance.self_ms": (self_s("quantum.trace_distance") * 1e3, "ms"),
        "quantum.overlap.self_ms": (self_s("quantum.overlap") * 1e3, "ms"),
        "protocol.privacy_probe.self_ms": (self_s("protocol.privacy_probe") * 1e3, "ms"),
        "protocol.privacy_probe.views": (tracer.children_of(start, "protocol.privacy_probe", "quantum.trace_distance"), "count"),
        "protocol.deal.self_ms": (self_s("protocol.deal") * 1e3, "ms"),
        "protocol.reconstruct.self_ms": (self_s("protocol.reconstruct") * 1e3, "ms"),
        "protocol.threshold_cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "shamir.share.self_ms": (self_s("shamir.share") * 1e3, "ms"),
        "shamir.reconstruct.self_ms": (self_s("shamir.reconstruct") * 1e3, "ms"),
        "bounds.min_feasible_k.self_s": (self_s("bounds.min_feasible_k"), "s"),
        "bounds.min_feasible_k.k_scanned": (sum(k for _, k in tracer.observations(start, "bounds.min_feasible_k")), "count"),
        "bounds.counting_inequality.calls": (calls("bounds.counting_inequality"), "count"),
        "bounds.counting_inequality.self_ms": (self_s("bounds.counting_inequality") * 1e3, "ms"),
        "bounds.pure_qss_feasibility.self_ms": (self_s("bounds.pure_qss_feasibility") * 1e3, "ms"),
        "graphs.family.self_ms": (self_s("graphs.family") * 1e3, "ms"),
        "graphs.parse_graph.self_ms": (self_s("graphs.parse_graph") * 1e3, "ms"),
        "graphs.serialize_graph.self_ms": (self_s("graphs.serialize_graph") * 1e3, "ms"),
        "graphs.odd_neighborhood.calls": (calls("graphs.odd_neighborhood"), "count"),
        "cli.run.self_ms": (self_s("cli.run") * 1e3, "ms"),
        "cli.build_parser.self_ms": (self_s("cli.build_parser") * 1e3, "ms"),
    }
    for command in CLI_COMMANDS:
        durations = s[f"cli.{command}"]["durations"] if f"cli.{command}" in s else []
        m[f"cli.{command}.p50_ms"] = (statistics.median(durations) * 1e3 if durations else 0.0, "ms")
    m["cli.stdout_bytes"] = (sum(len(oc.out.encode()) for oc in p["outcomes"]), "bytes")
    return m


# counts taken at the traced entry points, from each call's arguments and result
OBSERVERS = {
    "access.scan_size_k": lambda args, kwargs, res: (res.all_accessing, res.checked),
    "bounds.min_feasible_k": lambda args, kwargs, k: k - args[0] // 2,
}


def traced(wl, seconds: float) -> tuple[dict, list[dict], dict]:
    """Alternate untraced and traced passes; per-layer metrics from the traced."""
    import tracing
    from graphqss import protocol

    tracer = tracing.Tracer(OBSERVERS)
    us = q_accessing_us()
    cache = protocol._threshold_feasible.cache_info
    untraced, traced_passes, layer, spans = [], [], [], []
    calibration = [calibrate()]
    deadline = clock() + seconds
    # start an untraced and traced pair only if it ends in time
    while not spans or clock() + statistics.median(spans) <= deadline:
        t0 = clock()
        p = execute_pass(wl)
        check_pass(wl, p)
        untraced.append(p)

        start = tracer.begin_pass()
        c0 = cache()
        tracer.install()
        try:
            p = execute_pass(wl)
        finally:
            tracer.uninstall()
        c1 = cache()
        tracer.passes.append({"first_span": start, "spans": len(tracer.ids) - start, "wall_s": p["wall"]})
        layer.append(layer_metrics(tracer, start, p, (c1.hits - c0.hits, c1.misses - c0.misses), us))
        check_pass(wl, p)
        traced_passes.append(p)
        spans.append(clock() - t0)
    calibration.append(calibrate())

    metrics = {name: (statistics.median(m[name][0] for m in layer), unit) for name, (_, unit) in layer[0].items()}
    overhead = statistics.median(p["wall"] for p in traced_passes) / statistics.median(p["wall"] for p in untraced)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}-seed{wl.seed}.json.gz"
    tracer.dump(trace_file)
    record = {
        "calibration_ms": calibration,
        "untraced_walls_s": [p["wall"] for p in untraced],
        "traced_walls_s": [p["wall"] for p in traced_passes],
        "spans": len(tracer.ids),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, untraced + traced_passes, record


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        # the loop runs in this process, on the CPU the set-up runs on
        t0 = clock()
        loop_ms = [calibrate()]
        spent = clock() - t0
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    if args.setup_only:
        t0 = clock()
        loop_ms.append(calibrate())
        spent += clock() - t0
        print(json.dumps({"ready": True, "loop_ms": loop_ms, "calibration_s": spent}), flush=True)
        return 0

    from graphqss import protocol

    cache0 = protocol._threshold_feasible.cache_info()
    if args.trace:
        metrics, passes, extra = traced(wl, args.seconds)
    else:
        metrics, passes, extra = end_to_end(wl, args.seconds)
    cache1 = protocol._threshold_feasible.cache_info()

    attempted = sum(len(p["outcomes"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record = {
        "environment": environment(args.workload, args.seed),
        "calibration": {"steps": CAL_STEPS, "min_repeats": CAL_REPEATS, "share": CAL_SHARE,
                        "segment_s": SEGMENT_S, "reference_ms": REFERENCE_MS},
        **extra,
    }
    runs = [oc.op for p in passes for oc in p["outcomes"] if oc.op.kind == "protocol-run"]
    if runs:
        # every protocol-run deals once, and each deal looks up the cache once
        hits = cache1.hits - cache0.hits
        record["deal_cache"] = {
            "protocol_runs": len(runs),
            "hits": hits,
            "misses": cache1.misses - cache0.misses,
            "hit_share": hits / len(runs),
            "distinct_configs": len({op.meta["instance"].label for op in runs}),
        }
    if failures:
        record["failures"] = failures[:20]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
