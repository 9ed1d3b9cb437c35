"""graphsfda benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is imported
from `src/`. The seed picks a workload instance (see workloads.py). Its
inputs are made once, in a process of their own, under `.perfbench/inputs/`.
A fresh measured process (measure.py) then loads them and runs the timed
public calls in rounds for up to `--seconds`, checking each result against
`perfbench/reference.json`. It runs on one core beside the reference loop
(calibrate.py), and every time reported is the measured process's CPU time
over a call, in seconds at the reference speed of that core (see
calibrate.py and NOTES.md).

`--trace 0` reports the end-to-end metrics: `adapt_epoch_s` is the run's
time in `adapt` over the epochs it ran after the first (warm-up) round,
`setup_s` the median time of a load of the inputs (see `setup_time`),
`peak_rss_mb` the measured process's `ru_maxrss`.
`--trace 1` alternates traced and untraced rounds and reports the per-layer
metrics of the first (traced) round, the tracing overhead per adapt epoch
and the pretraining time per epoch; spans go to `.perfbench/spans/`. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
import workloads as W

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # a run ends well within 180 s, input generation included

END_TO_END = {
    "setup_s": "s",
    "adapt_epoch_s": "s",
    "peak_rss_mb": "MB",
    "final_acc_rel": "ratio",
}
LAYER_UNITS = {
    ".s": "s", ".self_s": "s", ".calls": "count", ".rss_growth_mb": "MB", ".flops": "flop",
    ".bytes_computed": "bytes", ".nodes": "count", ".mb": "MB", ".confident_frac": "ratio",
    ".spans": "count", ".adapt_coverage": "ratio", ".overhead_s": "s", ".epoch_s": "s",
}


def layer_unit(name: str) -> str:
    return next(u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix))


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def ensure_inputs(root: Path, workload: str, instance: int, timeout: float) -> Path:
    """Make the instance's inputs unless a complete copy exists."""
    final = root / ".perfbench" / "inputs" / W.input_key(workload, instance)
    if (final / "done").exists():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    log(f"making inputs {final.relative_to(root)}")
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "gen_inputs.py"), "--workload", workload,
         "--instance", str(instance), "--out", str(tmp)],
        env=child_env(root), cwd=root, check=True, timeout=timeout,
    )
    tmp.rename(final)
    log(f"inputs made in {time.perf_counter() - t0:.1f} s")
    return final


def start_reference_loop(root: Path, cpu: int) -> subprocess.Popen:
    """Start calibrate.py on `cpu` and wait until it is warmed up."""
    proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py"), "--cpu", str(cpu)],
                            env=child_env(root), cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline().strip() != "ready":
        log("the reference loop did not start")
    return proc


def stop_reference_loop(proc: subprocess.Popen) -> list:
    """Stop the reference loop, wait for it to end and return its units."""
    proc.terminate()
    try:
        out, _ = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("[") else []


def measure(root: Path, args, instance: int, inputs: Path, timeout: float, cpu: int) -> list:
    """Run the measured process; return its records. If it crashes, is
    killed or times out, the round it was in fails with all its calls."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--instance", str(instance), "--inputs", str(inputs),
           "--seconds", str(args.seconds), "--cpu", str(cpu)]
    if args.trace:
        spans = root / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--spans-dir", str(spans)]
    try:
        proc = subprocess.run(cmd, env=child_env(root), cwd=root, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
        stdout, reason = proc.stdout, f"exit code {proc.returncode}"
        if proc.returncode == -9:
            reason += " (killed, likely out of memory)"
    except subprocess.TimeoutExpired as exc:
        stdout, reason = exc.stdout or "", f"timed out after {timeout:.0f} s"
        if isinstance(stdout, bytes):
            stdout = stdout.decode()
    records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if not (records and records[-1].get("end")):
        calls = W.calls_per_round(args.workload)
        records.append({"round": len(records), "attempted": calls,
                        "failures": {f"call {k}": [reason] for k in range(calls)}})
    return records


def per_epoch(units: list, rounds: list, key: str):
    """Time of the `key` calls of `rounds` over the epochs they ran, at the
    reference speed; None if there is none or the speed is unknown."""
    calls = [r[key] for r in rounds if key in r]
    times = [calibrate.scale(units, *call[:3]) for call in calls]
    if not calls or None in times:
        return None
    return sum(times) / sum(call[3] for call in calls)


def setup_time(units: list, loads: list):
    """Median over blocks of consecutive loads, each lasting at least
    `SETUP_BLOCK_S`, of the block's time per load at the reference speed:
    a load of a small input is too short for the reference loop to time the
    core's speed over it."""
    blocks, block = [], []
    for load in loads:
        block.append(load)
        if block[-1][1] - block[0][0] >= W.SETUP_BLOCK_S:
            blocks.append(block)
            block = []
    if block and blocks:
        blocks[-1] += block  # too short to stand alone
    elif block:
        blocks.append(block)
    times = [calibrate.scale(units, b[0][0], b[-1][1], sum(load[2] for load in b)) for b in blocks]
    if not times or None in times:
        return None
    return statistics.median(t / len(b) for t, b in zip(times, blocks))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "graphsfda" / "__init__.py").is_file():
        log(f"run from the root of a graphsfda checkout: no src/graphsfda under {root}")
        return 2

    instance = W.instance_of(args.seed)
    inputs = ensure_inputs(root, args.workload, instance, DEADLINE_S)
    left = DEADLINE_S - (time.perf_counter() - started)
    cpu = max(os.sched_getaffinity(0))
    loop = start_reference_loop(root, cpu)
    try:
        records = measure(root, args, instance, inputs, left, cpu)
    finally:
        units = stop_reference_loop(loop)
    rounds = [r for r in records if "round" in r]
    end = records[-1] if records[-1].get("end") else {}
    plain = [r for r in rounds if not r.get("traced")]
    traced = [r for r in rounds if r.get("traced")]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    for r in rounds:
        times = [f"{key} wall={(c[1] - c[0]) / c[3]:.4g} cpu={c[2] / c[3]:.4g} "
                 f"scaled={per_epoch(units, [r], key) or float('nan'):.4g} s/epoch"
                 for key, c in ((k, r.get(k)) for k in ("pretrain", "adapt")) if c]
        log(f"round {r['round']}{' traced' if r.get('traced') else ''}: " + ", ".join(
            times + [f"final_acc_rel={r['final_acc_rel']:.6g}"] * ("final_acc_rel" in r))
            + "".join(f"; {op} FAILED: {'; '.join(w)}" for op, w in r["failures"].items()))
    if args.trace:
        names = tracer.metric_names()
        # the first round is traced and is the only one that sets up and
        # pretrains, and ru_maxrss only rises, so its spans give the layers
        first = traced[0].get("layer", {}) if traced else {}
        values = {n: first.get(n) for n in names}
        # span times are CPU seconds: put them at the reference speed too
        unit_s = calibrate.speed(units, *traced[0]["interval"][:2]) if traced else None
        for n in names:
            if layer_unit(n) == "s" and values[n] is not None:
                values[n] = values[n] * calibrate.REF_UNIT_S / unit_s if unit_s else None
        names.append("trace.overhead_s")
        a = per_epoch(units, traced, "adapt")
        b = per_epoch(units, plain, "adapt")
        values["trace.overhead_s"] = a - b if a is not None and b is not None else None
        # time per pretraining epoch (first round); zero where adapt starts
        # from the input checkpoint
        names.append("gnn.pretrain_source.epoch_s")
        checkpoint = W.WORKLOADS[args.workload]["input_pretrain_epochs"]
        values[names[-1]] = 0.0 if checkpoint else per_epoch(units, rounds, "pretrain")
        metric_units = {n: layer_unit(n) for n in names}
    else:
        names = list(END_TO_END)
        # every round makes the same call, so this is the run's time in
        # adapt over the epochs it ran, after the first round (warm-up)
        values = {"adapt_epoch_s": per_epoch(units, plain[1:], "adapt")}
        accs = [r["final_acc_rel"] for r in plain if "final_acc_rel" in r]
        values["final_acc_rel"] = statistics.median(accs) if accs else None
        values["setup_s"] = setup_time(units, [load for r in plain for load in r.get("setup", ())])
        values["peak_rss_mb"] = end.get("peak_rss_mb")
        metric_units = END_TO_END

    print("env: " + ", ".join(f"{k}={v}" for k, v in end.get("env", {}).items()))
    print(f"reference loop: cpu={cpu} units={len(units)} median_unit_s="
          f"{statistics.median(c for _, _, c in units) if units else None} "
          f"reference_unit_s={calibrate.REF_UNIT_S}")
    print(f"workload={args.workload} seed={args.seed} instance={instance} "
          f"rounds={len(plain)} traced={len(traced)} attempted={attempted} failed={failed}")
    for r in rounds:
        if "final_acc" in r:
            print(f"check: final_acc={r['final_acc']:.6f} epochs={r['epochs_run']} "
                  f"pred_hash={r['pred_hash']} matches_reference={r.get('pred_hash_match')}")
    for n in names:
        print(f"{n} = {values[n]} {metric_units[n]}")
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "instance": instance, "records": records,
                    "reference_units": units}),
        encoding="utf-8")

    complete = all(v is not None for v in values.values())
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": metric_units[n]}
                    for n in names if values[n] is not None},
    }
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    raise SystemExit(main())
