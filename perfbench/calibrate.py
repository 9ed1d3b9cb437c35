"""The reference loop: measures how fast the measured process's core runs.

    python3 perfbench/calibrate.py --cpu N

The CPU speed of a shared virtual machine swings by tens of percent over
seconds to minutes, and CPU time swings with it, so neither wall time nor
CPU time of one run can be compared with another run's. This process runs a
fixed unit of work (mostly a scatter-add into an array larger than the
core's caches, then a short interpreter loop: of the kinds of work tried,
the scatter-add's speed followed the program's most closely) on the same
core as the measured process, pausing between units, so that its units
interleave with the program's work. A unit takes about 3 ms, shorter than a
scheduler slice, so it runs uninterrupted and what the program leaves in
the caches bears little on it. The CPU time one unit takes over an
interval is the core's speed over that interval; `scale` turns a CPU time
measured in the measured process into seconds at the speed where one unit
takes `REF_UNIT_S`.

It prints `ready` once warmed up and, when stopped by SIGTERM (or when its
parent is gone, or after `MAX_LIFE_S`), one JSON line with every unit:
[start, end, cpu seconds], start and end on CLOCK_MONOTONIC.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

import numpy as np

# CPU time of one unit at the reference speed: the median of the units that
# shared a core with the benchmark on a 2-vCPU KVM guest of a Xeon
# (Sapphire Rapids, family 6 model 143), numpy 2.4.6, one BLAS thread.
# Fixed: every result is in seconds at this speed.
REF_UNIT_S = 0.0029
PAUSE_S = 0.020  # between units, so the loop takes about an eighth of the core
MIN_UNITS = 20  # an interval is widened until it holds this many units
MAX_OFF_CPU_S = 0.0005  # a unit that spent this long off the core is not counted
MAX_LIFE_S = 600.0


def make_unit():
    rng = np.random.default_rng(20240301)
    acc = np.zeros((40000, 32))  # 10 MB, larger than the core's caches
    rows = rng.integers(0, acc.shape[0], 3000)
    vals = rng.standard_normal((rows.size, acc.shape[1]))
    keys = [int(k) for k in rng.integers(0, 61, 2000)]

    def unit() -> float:
        np.add.at(acc, rows, vals)
        counts: dict = {}
        for k in keys:
            counts[k] = counts.get(k, 0) + 1
        return float(acc[rows[0], 0]) + len(counts)

    return unit


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    parent = os.getppid()
    unit = make_unit()
    for _ in range(5):  # warm up caches and lazy set-up
        unit()
    print("ready", flush=True)
    units = []
    born = time.monotonic()
    while not stop and os.getppid() == parent and time.monotonic() - born < MAX_LIFE_S:
        t0, c0 = time.monotonic(), time.process_time()
        unit()
        units.append((t0, time.monotonic(), time.process_time() - c0))
        time.sleep(PAUSE_S)
    print(json.dumps(units), flush=True)
    return 0


def speed(units: list, t0: float, t1: float) -> float | None:
    """Mean CPU time of the units run within [t0, t1], the interval widened
    on both sides until it holds `MIN_UNITS` units. A unit that was taken
    off the core while it ran (wall time over CPU time by `MAX_OFF_CPU_S`
    or more) is left out: a third task ran on the core meanwhile, and its
    cache traffic slowed such units more than it slowed the program."""
    clean = [(s, e, c) for s, e, c in units if e - s - c < MAX_OFF_CPU_S]
    if len(clean) < MIN_UNITS:
        return None
    pad = 0.0
    while True:
        inside = [c for s, e, c in clean if s >= t0 - pad and e <= t1 + pad]
        if len(inside) >= MIN_UNITS:
            return sum(inside) / len(inside)
        pad = 2 * pad + PAUSE_S


def scale(units: list, t0: float, t1: float, cpu_s: float) -> float | None:
    """CPU seconds spent during [t0, t1], in seconds at the reference speed."""
    unit_s = speed(units, t0, t1)
    return cpu_s * REF_UNIT_S / unit_s if unit_s else None


if __name__ == "__main__":
    sys.exit(main())
