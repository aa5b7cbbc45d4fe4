"""Request-to-result RMCRT benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gray_distinct --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one timed closed loop of ``--seconds`` with no
wrappers and prints the end-to-end metrics; ``--trace 1`` runs the
traced breakdown over fixed request lists (so its counts repeat for a
seed, and ``--seconds`` does not apply) and prints the per-layer
metrics. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
show every metric with its unit. Workloads, metric definitions and the
predictions they test are in ``perfbench/DESIGN.md``.
"""

import time

#: set-up is timed from here: the first statement of the benchmark
_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: set-ups per run: this process's own plus fresh-process repeats
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("gray_distinct", "spool_ensemble"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, report setup_s, tear down (used by the benchmark "
                   "itself to repeat set-up in a fresh process)")
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def open_target(workload, seed: int, work: Path, traced_spans: Path = None):
    """Start the service for a workload and warm it: the first request
    per distinct scene and model. Returns (target, warm-up records)."""
    from loop import InProcessTarget, SpoolTarget, run_closed_loop
    from workloads import warmup_requests

    if workload.transport == "inprocess":
        target = InProcessTarget()
    elif traced_spans is None:
        target = SpoolTarget(work / "spool", SRC, ["-m", "repro", "serve"])
    else:
        target = SpoolTarget(
            work / "spool-traced", SRC,
            [str(HERE / "serve_traced.py"), "--spans", str(traced_spans)],
        )
    try:
        warm = warmup_requests(workload.name, seed)
        records = run_closed_loop(target, [warm], len(warm), "w")
    except BaseException:
        target.close()
        raise
    return target, records


def probe_setup(args) -> tuple:
    """One set-up in a fresh process (imports included): its duration
    and the ``perf_counter`` interval it spanned (the clock is
    system-wide on Linux, so the gauge's samples line up with it)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "0", "--setup-probe",
    ]
    out = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    return float(doc["setup_s"]), float(doc["t0"]), float(doc["t1"])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), pct))


def e2e_metrics(workload, records, setups, peak_rss_mb, samples) -> tuple:
    """End-to-end metrics. Given the gauge's ``samples`` (workloads that
    keep both cores busy; DESIGN.md says why only those), every timing
    is at the reference host speed: durations divided by the host's
    slowness over the interval they measured (``calibrate.slowness``),
    rates multiplied by it. ``info`` keeps the figures as measured."""
    from calibrate import slowness

    def slow(a: float, b: float) -> float:
        return 1.0 if samples is None else slowness(samples, a, b)

    done = [r for r in records if r.outcome is not None and r.outcome.ok]
    t0 = min(r.t_submit for r in records)
    t1 = max(r.t_done for r in records)
    run_slow = slow(t0, t1)
    span = (t1 - t0) / run_slow
    lat_ms = [r.latency_s * 1e3 / run_slow for r in done]
    tail = _percentile(lat_ms, workload.tail_pct)
    setup_slow = [slow(a, b) for _, a, b in setups]
    return {
        "throughput_rps": (len(done) / span, "1/s"),
        "latency_p50_ms": (_percentile(lat_ms, 50), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "cell_rays_per_s": (sum(r.outcome.rays_traced for r in done) / span, "1/s"),
        "setup_s": (
            statistics.median(raw / v for (raw, _, _), v in zip(setups, setup_slow)),
            "s",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {
        "tail_percentile": workload.tail_pct,
        "tail_samples": len(lat_ms),
        "tail_beyond": sum(1 for v in lat_ms if v > tail),
        "timed_span_s": t1 - t0,
        "slowness": run_slow,
        "raw_throughput_rps": len(done) / (t1 - t0),
        "raw_latency_p50_ms": _percentile(lat_ms, 50) * run_slow,
        "raw_latency_tail_ms": tail * run_slow,
        "raw_setup_s": [raw for raw, _, _ in setups],
        "setup_slowness": setup_slow,
    }


def run_checks(records) -> list:
    from checks import OutputChecker

    checker = OutputChecker()
    failures = []
    for r in records:
        problem = checker.check(r.request, r.outcome)
        if problem is not None:
            failures.append(f"{r.ticket} ({r.request.kind}): {problem}")
    return failures


def emit(correct, attempted, failed, metrics, notes=()) -> None:
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))


# ----------------------------------------------------------------------
# the two run kinds
# ----------------------------------------------------------------------
def timed_run(args, workload, work: Path, gauge) -> int:
    from loop import run_closed_loop
    from workloads import client_streams, gold_request

    target, warm = open_target(workload, args.seed, work)
    t_setup = time.perf_counter()
    if args.setup_probe:
        target.close()
        print(json.dumps({"setup_s": t_setup - _T_START, "t0": _T_START, "t1": t_setup}))
        return 0
    try:
        timed = run_closed_loop(
            target, client_streams(workload, args.seed), workload.outstanding, "t",
            seconds=args.seconds, round_size=workload.round_size,
        )
        extra = []
        if workload.name == "gray_distinct":
            extra = run_closed_loop(target, [[gold_request()]], 1, "g")
    finally:
        target.close()
    peak_rss = target.peak_rss_mb()
    everything = warm + timed + extra
    failures = run_checks(everything)
    setups = [(t_setup - _T_START, _T_START, t_setup)] + [
        probe_setup(args) for _ in range(SETUP_REPEATS - 1)
    ]
    measured = [r for r in timed if r.measured]
    samples = None if gauge is None else gauge.samples()
    metrics, info = e2e_metrics(workload, measured, setups, peak_rss, samples)
    ok = sum(1 for r in everything if r.outcome is not None and r.outcome.ok)
    notes = [
        f"workload {workload.name} seed {args.seed}: {len(measured)} timed requests "
        f"over {info['timed_span_s']:.3f} s; sent {len(everything)} (warm-up "
        f"{len(warm)}, fillers {len(timed) - len(measured)}, checks {len(extra)}), "
        f"succeeded {ok}, "
        f"failed checks {len(failures)}",
        f"latency_tail_ms is p{info['tail_percentile']} of {info['tail_samples']} "
        f"samples ({info['tail_beyond']} beyond it)",
        "setup_s repeats, as measured: "
        + ", ".join(f"{v:.4f}" for v in info["raw_setup_s"]),
    ]
    if gauge is None:
        notes.append("timings below are as measured (not corrected for host speed)")
    else:
        notes += [
            f"host slowness over the timed phase {info['slowness']:.4f}, over the "
            "set-ups " + ", ".join(f"{v:.4f}" for v in info["setup_slowness"]),
            f"timings below are at reference host speed; as measured: "
            f"throughput_rps {info['raw_throughput_rps']:.6g}, latency_p50_ms "
            f"{info['raw_latency_p50_ms']:.6g}, latency_tail_ms "
            f"{info['raw_latency_tail_ms']:.6g}",
        ]
    notes += [f"FAILED {f}" for f in failures[:20]]
    emit(not failures, len(everything), len(failures), metrics, notes)
    return 0


def traced_run(args, workload, work: Path) -> int:
    import tracing
    from loop import run_closed_loop
    from workloads import take

    n = workload.traced_requests
    untraced_reqs = take(workload.name, args.seed, 0, n)
    traced_reqs = take(workload.name, args.seed, n, n)
    spool = workload.transport == "spool"

    target, warm = open_target(workload, args.seed, work)
    try:
        untraced = run_closed_loop(
            target, [untraced_reqs], workload.traced_outstanding, "u"
        )
        if not spool:
            # same warm service: the wrappers go in after set-up, so the
            # traced pass sees the state the timed runs measure
            rec = tracing.SpanRecorder()
            tracing.install(rec)
            try:
                traced = run_closed_loop(
                    target, [traced_reqs], workload.traced_outstanding, "x"
                )
            finally:
                rec.uninstall()
            spans = rec.spans
    finally:
        target.close()

    if spool:
        # the wrappers must live in the serve process: a second child
        # through the benchmark's traced entry point, warmed the same way
        spans_path = work / "spans.json"
        target, warm2 = open_target(workload, args.seed, work, traced_spans=spans_path)
        try:
            traced = run_closed_loop(
                target, [traced_reqs], workload.traced_outstanding, "x"
            )
        finally:
            target.close()
        warm += warm2
        spans = tracing.load_spans(spans_path)

    t0 = min(r.t_submit for r in traced)
    t1 = max(r.t_done for r in traced)
    spans = tracing.select_pass(spans, (r.ticket for r in traced), t0, t1)
    missing = tracing.missing_wrappers(workload.name, spans)
    layers = tracing.layer_metrics(spans, traced, spool)

    def rps(records):
        return len(records) / (
            max(r.t_done for r in records) - min(r.t_submit for r in records)
        )

    layers["trace.throughput_untraced_rps"] = rps(untraced)
    layers["trace.throughput_traced_rps"] = rps(traced)
    layers["trace.overhead_frac"] = rps(untraced) / rps(traced) - 1.0
    layers["plain.run_prepared_rps"] = (
        plain_pass(traced_reqs) if workload.name == "gray_distinct" else 0.0
    )

    everything = warm + untraced + traced
    failures = run_checks(everything)
    failures += [f"wrapper {name} never fired" for name in missing]
    write_trace(workload.name, args.seed, spans, traced, layers)
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    notes = [
        f"workload {workload.name} seed {args.seed}: traced pass of {n} requests, "
        f"{len(spans)} spans; sent {len(everything)}, failed checks {len(failures)}",
        f"unattributed remainder: {layers['trace.unattributed_s']:.4f} s of "
        f"{layers['trace.latency_sum_s']:.4f} s summed latency "
        f"({100 * layers['trace.unattributed_frac']:.1f}%)",
    ] + [f"FAILED {f}" for f in failures[:20]]
    emit(not failures, len(everything), len(failures), metrics, notes)
    return 0


def plain_pass(requests) -> float:
    """Service-free baseline: ``run_prepared`` on the same specs,
    single-threaded, scenes prepared once outside the timing."""
    from repro.ups import prepare_scene, run_prepared, scene_fingerprint

    scenes = {}
    for r in requests:
        key = scene_fingerprint(r.spec)
        if key not in scenes:
            scenes[key] = prepare_scene(r.spec)
    t0 = time.perf_counter()
    for r in requests:
        run_prepared(r.spec, scenes[scene_fingerprint(r.spec)])
    return len(requests) / (time.perf_counter() - t0)


def _unit(name: str) -> str:
    if name.endswith("_rps") or name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name == "comm.bytes":
        return "B"
    if name == "service.batch_size_mean":
        return "requests"
    return "count"


def write_trace(workload, seed, spans, records, layers) -> None:
    """Spans with self times, and each request's breakdown, as JSON."""
    import tracing

    selfs = tracing.self_times(spans)
    out = WORK / "traces"
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "metrics": layers,
        "requests": [
            {"ticket": r.ticket, "kind": r.request.kind,
             "t_submit": r.t_submit, "t_done": r.t_done}
            for r in records
        ],
        "spans": [
            {"sid": s.sid, "name": s.name, "t0": s.t0, "t1": s.t1,
             "self_s": selfs[s.sid], "parent": s.parent, "request": s.request,
             "thread": s.thread, **({"extra": s.extra} if s.extra else {})}
            for s in spans
        ],
    }
    (out / f"trace_{workload}_seed{seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            return traced_run(args, workload, work)
        if args.setup_probe or not workload.host_corrected:
            return timed_run(args, workload, work, None)
        from calibrate import Gauge

        with Gauge(work / "gauge.txt") as gauge:
            return timed_run(args, workload, work, gauge)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
