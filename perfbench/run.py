#!/usr/bin/env python3
"""The PIC-PRK benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds the kernel and the benchmark from source (once per checkout),
      probes the host's triad bandwidth, measures workload W and prints, as
      the last stdout line, one JSON object {"correct", "attempted",
      "failed", "metrics"}. --trace 0 gives the end-to-end metrics of dark
      runs; --trace 1 the per-layer metrics of the traced run, plus a span
      trace next to the report.
      --seed heldout selects the held-out seed.

  python3 perfbench/run.py --steadiness N --workload W [--seed N0] [--seconds S]
      Runs W N times with seeds N0..N0+N-1 and prints, per end-to-end
      metric, the median, quartiles, min/max and the spread (q3-q1)/median
      against the metric's bound in BENCHMARK.json.

  python3 perfbench/run.py --selftest
      Builds and runs the self-tests of the benchmark's arithmetic.

Exit code 0 when every run verified against the kernel's oracle.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["uniform-mover", "geometric-drift", "burst-checkpoint", "serve-mixed"]
# Mirrors kHeldOutSeed in src/workloads.hpp: used only for held-out checks.
HELDOUT_SEED = 0x48454C444F5554
RUN_TIMEOUT_S = 175


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (first time) and builds; returns the binary directory.

    The directory is keyed by the source root: CMake keeps building the
    sources it was first configured with, so a build directory shared by two
    checkouts would otherwise measure the first one's program."""
    key = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    bdir = os.path.join(build_root(), "perfbench-" + key)
    if not any(os.path.exists(os.path.join(bdir, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("perfbench: configuring", " ".join(cmd))
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "perfbench_selftest",
           "-j", str(min(os.cpu_count() or 1, 4))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return bdir


def triad_gbs(bdir, deadline):
    """The host's triad bandwidth, measured afresh by every invocation (host
    speed drifts) in a process of its own, so that the probe's arrays stay
    out of the measured process's peak resident set."""
    out = subprocess.run([os.path.join(bdir, "perfbench"), "--triad-probe"],
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=deadline - time.monotonic()).stdout
    return float(out.split()[-1])


def measure(bdir, workload, seed, seconds, trace, echo=True):
    """One measuring invocation; returns (exit code, result dict or None)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = os.path.join(bdir, "out", f"{workload}-seed{seed}-trace{trace}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", out_dir,
           "--triad-gbs", repr(triad_gbs(bdir, deadline))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=deadline - time.monotonic())
    lines = proc.stdout.rstrip("\n").splitlines()
    if echo:
        print(proc.stdout, end="", flush=True)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def steadiness(bdir, workload, first_seed, runs, seconds):
    """Per-metric spread over `runs` seeds, judged against the bounds."""
    values = {}
    ok = True
    for i in range(runs):
        seed = first_seed + i
        code, result = measure(bdir, workload, seed, seconds, 0, echo=False)
        if code != 0 or result is None or not result["correct"]:
            log(f"perfbench: {workload} seed {seed} failed (exit {code})")
            ok = False
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        log(f"perfbench: {workload} seed {seed} done")
    with open(os.path.join(bdir, f"steadiness-{workload}.json"), "w") as f:
        json.dump(values, f)
    spec = bounds()
    print(f"steadiness of {workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
          f"{seconds} s each")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = spec.get(name, {}).get("bound")
        if bound is None:
            verdict = "no bound"
        elif spread < bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
            ok = False
        print(f"{name:24} {q2:12.6g} {q1:12.6g} {q3:12.6g} {min(xs):12.6g} {max(xs):12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}  {verdict}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    seed = HELDOUT_SEED if args.seed == "heldout" else int(args.seed)
    if seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = build()
    if args.selftest:
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if args.steadiness:
        return steadiness(bdir, args.workload, seed, args.steadiness, args.seconds)
    code, result = measure(bdir, args.workload, seed, args.seconds, int(args.trace))
    if result is None:
        log("perfbench: no result line")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
