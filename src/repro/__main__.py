"""Command-line front end.

``python -m repro <input.ups>`` runs a Burns & Christon RMCRT problem
from a Uintah-style UPS input file and prints solve statistics plus the
centreline del.q profile — the closest thing to ``sus input.ups`` this
reproduction offers.

``python -m repro profile`` runs a small instrumented simulation and
writes ``trace.json`` (Chrome trace-event JSON — load in
chrome://tracing or Perfetto) and ``metrics.json`` (every runtime
metric series).

``python -m repro serve --spool DIR`` runs the radiation-solve service
against a spool directory; ``python -m repro submit file.ups ...``
pushes requests through it (in-process, or cross-process via
``--spool``). See :mod:`repro.service.cli`.

``python -m repro status --spool DIR`` renders the service's SLO
dashboard (p50/p95/p99, error-budget burn, breaches) one-shot or with
``--watch``.

``python -m repro analyze`` runs the trace analytics engine — critical
path, per-rank compute/comm-wait/idle attribution, speedup bounds —
over a merged trace, a fresh profile run, or a tracesim simulation,
and writes ``analysis_report.json``. See :mod:`repro.perf.analyze`.

``python -m repro perfgate`` compares fresh ``BENCH_<name>.json``
artifacts against the committed baselines in ``benchmarks/baselines/``
and fails on regression. See :mod:`repro.perf.baseline`.

``python -m repro check [lint|graph|races|leaks|fs|protocol|all]``
runs the correctness tooling — the CI gate (``--list-rules``
enumerates every rule). See :mod:`repro.check.cli`.

``python -m repro resilience [checkpoint|restore|drill]`` exercises
checkpoint/restart and the kill-and-recover drill. See
:mod:`repro.resilience.cli`.

``python -m repro fabric [up|route|status|down|drill]`` runs the
multi-shard service fabric: scene-affinity routing across N serve
shards, work stealing, heartbeat-based failure recovery, and
SLO-driven autoscaling. See :mod:`repro.fabric.cli`.

``python -m repro spectral [smoke|run|enclosure]`` exercises the
wavelength-sampled spectral radiation subsystem: the CI smoke
cross-check, named spectral scenarios, and the view-factor enclosure
solver. See :mod:`repro.radiation.spectral.cli`.

``python -m repro doctor [live|postmortem|drill]`` runs the automated
root-cause doctor: it correlates streaming anomaly detections (tsdb
replay through :mod:`repro.perf.detect`), fabric supervisor events,
flight-recorder postmortems, and status facts into a ranked hypothesis
list, and its ``drill`` mode injects three known causes and requires
the top hypothesis to name each one. See :mod:`repro.perf.doctor`.
"""

from __future__ import annotations

import argparse
import sys

from repro.util.errors import ReproError


def _run_ups(argv) -> int:
    from repro.radiation.benchmark import BurnsChristonBenchmark
    from repro.ups import parse_ups, run_ups

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run an RMCRT benchmark from a UPS input file.",
    )
    parser.add_argument("ups", help="path to the UPS XML input file")
    parser.add_argument(
        "--centerline",
        action="store_true",
        help="print the centreline del.q profile",
    )
    args = parser.parse_args(argv)

    try:
        spec = parse_ups(args.ups)
        result = run_ups(spec)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    g, r, s = spec.grid, spec.rmcrt, spec.scheduler
    print(
        f"grid {g.resolution}^3 x {g.levels} level(s) RR:{g.refinement_ratio}"
        + (f", patches {g.patch_size}^3" if g.patch_size else "")
    )
    print(f"RMCRT: {r.n_divq_rays} rays/cell, threshold {r.threshold}, "
          f"halo {r.halo}, scheduler {s.type}"
          + (f" x{s.ranks} ranks ({s.pool})" if s.type == "distributed" else ""))
    print(f"rays traced: {result.rays_traced:,}")
    print(f"solve time:  {result.solve_time_s:.3f} s")
    print(f"del.q: mean {result.divq.mean():.4f}, max {result.divq.max():.4f}")

    if args.centerline:
        bench = BurnsChristonBenchmark(resolution=g.resolution)
        x, line = bench.centerline(result.divq)
        print(f"\n{'x':>8} {'divQ':>10}")
        for xi, v in zip(x, line):
            print(f"{xi:8.3f} {v:10.4f}")
    return 0


def _run_profile(argv) -> int:
    from repro.perf.profile import format_summary, run_profile

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Run an instrumented RMCRT simulation and write "
        "trace.json + metrics.json.",
    )
    parser.add_argument("--steps", type=int, default=2, help="timesteps to run")
    parser.add_argument(
        "--resolution", type=int, default=12, help="fine-level cells per edge"
    )
    parser.add_argument(
        "--rays-per-cell", type=int, default=4, help="rays per cell"
    )
    parser.add_argument(
        "--ranks", type=int, default=2, help="simulated MPI ranks"
    )
    parser.add_argument(
        "--pool",
        choices=("waitfree", "locked", "locked-racy"),
        default="waitfree",
        help="communication request pool variant",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--trace", default="trace.json", help="Chrome trace output path"
    )
    parser.add_argument(
        "--metrics", default="metrics.json", help="metrics snapshot output path"
    )
    parser.add_argument(
        "--merge",
        action="store_true",
        help="write per-rank trace files and stitch them into one "
        "cross-rank trace with send/recv flow arrows",
    )
    parser.add_argument(
        "--rank-trace-dir",
        default=None,
        help="directory for the per-rank trace files (default: next to "
        "the --trace output)",
    )
    args = parser.parse_args(argv)

    try:
        summary = run_profile(
            steps=args.steps,
            resolution=args.resolution,
            rays_per_cell=args.rays_per_cell,
            num_ranks=args.ranks,
            pool_kind=args.pool,
            seed=args.seed,
            trace_path=args.trace,
            metrics_path=args.metrics,
            merge=args.merge,
            rank_trace_dir=args.rank_trace_dir,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_summary(summary))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "profile":
        return _run_profile(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.cli import cmd_serve

        return cmd_serve(argv[1:])
    if argv and argv[0] == "submit":
        from repro.service.cli import cmd_submit

        return cmd_submit(argv[1:])
    if argv and argv[0] == "status":
        from repro.service.cli import cmd_status

        return cmd_status(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.perf.analyze import cmd_analyze

        return cmd_analyze(argv[1:])
    if argv and argv[0] == "perfgate":
        from repro.perf.baseline import main as perfgate_main

        return perfgate_main(argv[1:])
    if argv and argv[0] == "check":
        from repro.check.cli import run_check

        return run_check(argv[1:])
    if argv and argv[0] == "resilience":
        from repro.resilience.cli import run_resilience

        return run_resilience(argv[1:])
    if argv and argv[0] == "fabric":
        from repro.fabric.cli import cmd_fabric

        return cmd_fabric(argv[1:])
    if argv and argv[0] == "spectral":
        from repro.radiation.spectral.cli import cmd_spectral

        return cmd_spectral(argv[1:])
    if argv and argv[0] == "doctor":
        from repro.perf.doctor import cmd_doctor

        return cmd_doctor(argv[1:])
    return _run_ups(argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
