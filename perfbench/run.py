#!/usr/bin/env python3
"""End-to-end benchmark of the time-protection reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fleet --steady 10     # steadiness report
    python3 perfbench/run.py --pin                            # re-pin seed-0 fingerprints

It builds the worker (a Rust package next to this file) in release mode,
then runs the workload in fresh worker processes until `--seconds` is
spent, timing each process from outside: wall time of the timed section,
CPU seconds and peak memory from `wait4`, and set-up time from spawn to
the start of the timed section. With `--trace 1` it alternates plain and
traced workers and reports the per-layer ledger instead. The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Every workload runs on two worker threads; TP_SAMPLES is the scale the
# workload's results are pinned at.
THREADS = "2"
WORKLOADS = {"campaign": "0.25", "fleet": "1", "splash": "1"}

# The end-to-end metrics; BENCHMARK.json gives every metric's unit.
END_TO_END = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]

SETUP_SAMPLES = 15  # set-up-only workers per run, besides each timed worker's own
CHILD_TIMEOUT_S = 150  # a worker that takes longer is killed and the run fails


class BenchError(Exception):
    pass


def say(line):
    print(line, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def tool_version(cmd, cwd=ROOT):
    try:
        r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def header(args, workload):
    say(f"# perfbench workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    say(f"# TP_SAMPLES={WORKLOADS[workload]} TP_THREADS={THREADS} nproc={os.cpu_count()} build=release")
    top = tool_version(["git", "rev-parse", "--show-toplevel"])
    in_git = top is not None and os.path.samefile(top, ROOT)
    git = (in_git and tool_version(["git", "rev-parse", "HEAD"])) or "none (not a git checkout)"
    say(f"# git={git} rustc={tool_version(['rustc', '-V']) or 'unknown'}")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")


def build():
    for need in ("Cargo.toml", "crates", os.path.join("goldens", "verdicts.json")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a full checkout of the repository")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise BenchError("building the worker failed")
    return os.path.join(target_dir(), "release", "perfbench")


def spawn(binary, workload, seed, extra):
    """Run one worker; return (its JSON line, spawn time in ns, rusage)."""
    env = dict(os.environ, TP_SAMPLES=WORKLOADS[workload], TP_THREADS=THREADS)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--scratch", os.path.join(target_dir(), "perfbench-scratch")] + extra
    spawned_ns = time.time_ns()
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    killer.start()
    try:
        out = p.stdout.read().decode()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    finally:
        killer.cancel()
    if p.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[1:])} exited with {p.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned_ns, usage


def check_cells(workload, seed, runs, pins):
    """Count each run's failed operations, adding whole cells whose outputs
    differ from the pinned seed-0 fingerprint or from the first run."""
    attempted = failed = 0
    first = {c["name"]: c["fp"] for c in runs[0]["cells"]}
    pinned = pins.get(workload, {}) if seed == 0 else {}
    for r in runs:
        for c in r["cells"]:
            attempted += c["ops"]
            bad = c["fp"] != first.get(c["name"])
            if seed == 0:
                bad = bad or c["fp"] != pinned.get(c["name"])
            failed += c["ops"] if bad else c["failed"]
    return attempted, failed


def median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(binary, workload, seed, seconds, trace):
    """One benchmark run: the result object printed as the last line."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        r, spawned, _ = spawn(binary, workload, seed, ["--setup-only"])
        setups.append((r["start_unix_ns"] - spawned) / 1e9)
    runs, plain, traced = [], [], []
    t0 = time.monotonic()
    while True:
        tracing = trace and len(runs) % 2 == 1
        started = time.monotonic()
        r, spawned, usage = spawn(binary, workload, seed, ["--trace"] if tracing else [])
        runs.append(r)
        setups.append((r["start_unix_ns"] - spawned) / 1e9)
        (traced if tracing else plain).append(
            (r, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0))
        last = time.monotonic() - started
        if len(runs) >= 2 and time.monotonic() - t0 + last > seconds:
            break
    # The first plain worker's notes, and any other notes the first traced one adds.
    for note in dict.fromkeys(n for r in runs[:2] for n in r["notes"]):
        say(f"# {note}")
    pins = load_json(PINS) if os.path.exists(PINS) else {}
    attempted, failed = check_cells(workload, seed, runs, pins)
    wall = median([r["wall_s"] for r, _, _ in plain])
    if trace:
        names = runs[1]["layers"].keys()
        metrics = {n: median([r["layers"][n] for r, _, _ in traced]) for n in names}
        metrics["sim_mcyc_per_s"] = metrics["sim.mcycles"] / wall
        traced_wall = median([r["wall_s"] for r, _, _ in traced])
        metrics["trace.overhead_pct"] = (traced_wall / wall - 1.0) * 100.0
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": wall,
            "cpu_s": median([cpu for _, cpu, _ in plain]),
            "peak_rss_mb": median([rss for _, _, rss in plain]),
        }
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchError(f"printed metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def metric_units(kind):
    """{name: unit} of the `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in load_json(SPEC)[kind]}


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def steady(binary, args):
    bounds = {m["name"]: m["bound"] for m in load_json(SPEC)["end_to_end"]}
    seeds = [args.seed + i + 1 for i in range(args.steady)]
    values = {n: [] for n in END_TO_END}
    for seed in seeds:
        res = measure(binary, args.workload, seed, args.seconds, False)
        if not res["correct"]:
            raise BenchError(f"seed {seed}: {res['failed']} of {res['attempted']} operations failed")
        for n in values:
            values[n].append(res["metrics"][n]["value"])
        say(f"# seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()))
    say(f"steadiness of {args.workload} over seeds {seeds[0]}..{seeds[-1]}:")
    say(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  verdict")
    for n, vs in values.items():
        med, q1, q3, spread = quartile_spread(vs)
        bound = bounds[n]
        verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
        say(f"{n:<14}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}{bound:>8.2f}  {verdict}")


def pin(binary):
    pins = {}
    for workload in WORKLOADS:
        r, _, _ = spawn(binary, workload, 0, [])
        if any(c["failed"] for c in r["cells"]):
            raise BenchError(f"{workload} at seed 0 has failed operations; not pinning")
        pins[workload] = {c["name"]: c["fp"] for c in r["cells"]}
        say(f"pinned {len(pins[workload])} {workload} cells")
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N", help="report the spread over N seeds")
    ap.add_argument("--pin", action="store_true", help="re-pin the seed-0 fingerprints")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.pin and not args.workload:
        ap.error("--workload is required")
    try:
        if args.workload:
            header(args, args.workload)
        binary = build()
        if args.pin:
            pin(binary)
        elif args.steady:
            steady(binary, args)
        else:
            say(json.dumps(measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
