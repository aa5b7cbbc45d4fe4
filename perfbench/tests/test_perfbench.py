"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.

The smoke and traced tests run the real command (a few minutes in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, trace, seconds=1, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


# ----------------------------------------------------------------------
# the seeded generator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_requests(name):
    def texts(seed):
        return [(r.kind, r.ups_text()) for r in workloads.take(name, seed, 0, 40)]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)
    warm = [r.ups_text() for r in workloads.warmup_requests(name, 5)]
    assert warm == [r.ups_text() for r in workloads.warmup_requests(name, 5)]


def test_gray_distinct_never_repeats_a_spec():
    name = "gray_distinct"
    reqs = workloads.take(name, 3, 0, 200) + workloads.warmup_requests(name, 3)
    texts = [r.ups_text() for r in reqs] + [workloads.gold_request().ups_text()]
    assert len(set(texts)) == len(texts)


def test_spool_stream_shape():
    reqs = workloads.take("spool_ensemble", 3, 0, 2 * workloads.SPECTRAL_EVERY)
    hot = {workloads.spec_to_ups(spec) for _, spec in workloads.hot_set(3)}
    fresh = [r for r in reqs if r.kind.startswith("fresh")]
    spectral = [r for r in reqs if r.kind == "fresh-spectral"]
    assert len(fresh) == len(reqs) // workloads.FRESH_EVERY
    assert all(r.index % workloads.FRESH_EVERY == 4 for r in fresh)
    assert [r.index for r in spectral] == [399, 799]
    assert all(r.spec.spectral.bands == 1 for r in spectral)
    assert all(r.ups_text() in hot for r in reqs if not r.kind.startswith("fresh"))
    assert len({r.ups_text() for r in fresh}) == len(fresh)


# ----------------------------------------------------------------------
# the host-speed gauge
# ----------------------------------------------------------------------
def test_slowness_is_the_median_unit_time_over_the_reference():
    ref = calibrate.REF_UNIT_S
    samples = [(t * 0.1, ref * (2.0 if 10 <= t < 20 else 1.0)) for t in range(40)]
    assert calibrate.slowness(samples, 1.0, 1.95) == pytest.approx(2.0)
    assert calibrate.slowness(samples, 0.0, 3.95) == pytest.approx(1.0)
    # too short an interval: the samples nearest its middle
    assert calibrate.slowness(samples, 1.42, 1.44) == pytest.approx(2.0)
    with pytest.raises(RuntimeError):
        calibrate.slowness(samples[:3], 0.0, 1.0)


# ----------------------------------------------------------------------
# span derivation
# ----------------------------------------------------------------------
def _span(sid, name, t0, t1, parent=None, request="r"):
    return tracing.Span(sid, name, t0, t1, parent, request, "t")


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, "core.solve", 0.0, 10.0),
        _span(2, "core.march", 1.0, 5.0, parent=1),
        _span(3, "core.march", 4.0, 6.0, parent=1),  # overlaps: rank threads
        _span(4, "core.reduce", 8.0, 12.0, parent=1),  # clipped to the parent
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(4.0)


def test_layer_metrics_add_up_to_latency():
    class Rec:
        ticket, t_submit, t_done, outcome = "r", 0.0, 12.0, None
        latency_s = 12.0

    spans = [
        _span(1, "service.submit", 0.0, 0.5),
        _span(2, "core.solve", 1.0, 10.0),
        _span(3, "core.march", 1.0, 5.0, parent=2),
        _span(4, "core.march", 4.0, 6.0, parent=2),
    ]
    m = tracing.layer_metrics(spans, [Rec()], spool=False)
    assert m["core.march_s"] == pytest.approx(5.0)
    assert m["core.march_thread_s"] == pytest.approx(6.0)
    assert m["core.unattributed_s"] == pytest.approx(9.0 - 5.0)
    covered = 0.5 + 9.0
    assert m["trace.unattributed_s"] == pytest.approx(12.0 - covered)
    assert m["service.queue_wait_span_s"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# the real command
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_every_check(name):
    doc, text = run_bench(name, seed=2, trace=0)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert "FAILED" not in text


#: per-layer counts that must repeat exactly for a seed
EXACT = {
    "gray_distinct": ["service.solves", "core.march_rays", "core.march_calls",
                      "comm.messages", "comm.bytes"],
    # spool: fresh solves are seed-determined; batch sizes and loop
    # passes depend on timing and are not compared
    "spool_ensemble": ["service.solves", "core.march_rays", "trace.requests",
                       "spectral.fraction_inverse_calls", "ups.spectral_model_calls"],
}


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_for_a_seed(name):
    first, _ = run_bench(name, seed=4, trace=1)
    second, _ = run_bench(name, seed=4, trace=1)
    assert first["correct"] and second["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    for key in EXACT[name]:
        a = first["metrics"][key]["value"]
        assert a > 0 and a == second["metrics"][key]["value"], key


def test_every_metric_is_documented():
    design = (BENCH / "DESIGN.md").read_text()
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert f"`{metric['name']}`" in design, metric["name"]
    assert NAMES == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
