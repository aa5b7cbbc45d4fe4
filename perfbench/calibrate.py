"""Host-speed gauge: a side process that times a fixed unit of work.

The shared 2-vCPU hosts this benchmark runs on change speed by 30-50%
within tens of seconds, in process CPU time as much as in wall time, so
a run's timings follow the host more than the program. This process
runs a fixed unit of interpreter and numpy work (benchmark code, not
the program's) every ``--period`` seconds and appends
``<perf_counter at the end> <CPU seconds of the unit>`` lines to
``--out``. For a workload that keeps both cores busy, ``run.py``
divides its timings by the host's slowness over the same interval
(:func:`slowness`), which turns them into timings at a fixed reference
speed.

Run by ``run.py``; it stops when its standard input closes.
"""

import argparse
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

#: CPU seconds one unit takes at the reference speed: about the median
#: on a 2-vCPU Intel Xeon 2.1 GHz VM beside the benchmark's own load, so
#: there the reported timings sit close to the measured ones
REF_UNIT_S = 0.0043
#: fewest unit timings one slowness figure rests on
MIN_SAMPLES = 5


def make_unit():
    """The fixed work: a march-like numpy step over 16k rays (gather,
    arithmetic, masks) plus a short interpreter loop."""
    rng = np.random.default_rng(0)
    field = rng.random(24 ** 3)
    pos = rng.random((16384, 3)) * 23.0
    dirs = rng.standard_normal((16384, 3))

    def unit() -> float:
        p = pos.copy()
        acc = np.zeros(len(p))
        for _ in range(6):
            idx = p.astype(np.int64)
            flat = (idx[:, 0] * 24 + idx[:, 1]) * 24 + idx[:, 2]
            acc += field[flat] * np.exp(-acc)
            p += dirs * 0.5
            np.clip(p, 0.0, 23.0, out=p)
            alive = np.nonzero(acc < 3.0)[0]
        s = 0
        for i in range(6000):
            s += i * i
        return float(acc.sum()) + s + len(alive)

    return unit


def gauge(out_path: str, period: float) -> None:
    unit = make_unit()
    unit()
    with open(out_path, "w") as out:
        while True:
            c0 = time.thread_time()
            unit()
            dt = time.thread_time() - c0
            out.write(f"{time.perf_counter():.6f} {dt:.7f}\n")
            out.flush()
            ready, _, _ = select.select([sys.stdin], [], [], period)
            if ready and not os.read(sys.stdin.fileno(), 4096):
                return


class Gauge:
    """The gauge as a child process for the lifetime of a ``with``."""

    def __init__(self, out_path, period: float = 0.1) -> None:
        self.out_path = out_path
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--out", str(out_path), "--period", str(period)],
            stdin=subprocess.PIPE,
        )

    def samples(self) -> list:
        return read_samples(self.out_path)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def read_samples(path) -> list:
    samples = []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2:
                samples.append((float(parts[0]), float(parts[1])))
    return samples


def slowness(samples, t0: float, t1: float) -> float:
    """Median unit time over ``[t0, t1]`` relative to the reference:
    2.0 means the host ran at half the reference speed. An interval
    holding fewer than :data:`MIN_SAMPLES` samples (a set-up that began
    before the gauge did) uses the samples nearest its middle."""
    inside = [dt for t, dt in samples if t0 <= t <= t1]
    if len(inside) < MIN_SAMPLES:
        mid = 0.5 * (t0 + t1)
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        inside = [dt for _, dt in nearest]
    if len(inside) < MIN_SAMPLES:
        raise RuntimeError(f"host-speed gauge: only {len(inside)} samples")
    return statistics.median(inside) / REF_UNIT_S


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--period", type=float, default=0.1)
    a = p.parse_args()
    gauge(a.out, a.period)
