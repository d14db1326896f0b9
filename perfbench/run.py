#!/usr/bin/env python3
"""Build and run the simulator's benchmark.

Single run (the form BENCHMARK.json names), from the repository root:

    python3 perfbench/run.py --workload race-write-skew --seed 1 \\
        --seconds 10 --trace 0

builds perfbench/ and ../src as Release+LTO into .bench_build (once),
runs the oracle self-tests, then runs one workload and relays its result:
the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. Argument errors exit 2.

Repeat mode runs every workload (or those given) N times and prints each
end-to-end metric's median and quartiles:

    python3 perfbench/run.py --repeat 10 [--workload NAME ...]

With --against PATH it also builds PATH/src (another checkout, e.g. the
parent commit) with this same benchmark code, alternates which build runs
first in each pair, and judges each metric by the rule of the
choosing-metrics method: a gain needs the change to win at least 9 of 10
pairs and the medians to differ by more than the base's quartile spread;
a metric whose spread exceeds its bound is "unresolved".
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SRC = os.path.join(ROOT, "src")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def configured_src(build_dir):
    """The SMART_SRC a build directory was configured with, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("SMART_SRC:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir, src):
    """Configure (when new or pointed at other sources) and build the
    benchmark against the simulator sources in src; return its binary."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if configured_src(build_dir) != src:
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release", "-DSMART_SRC=" + src]
            if shutil.which("ninja") and not os.path.exists(
                    os.path.join(build_dir, "CMakeCache.txt")):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                sys.exit("perfbench: configure failed")
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        cmd = ["cmake", "--build", build_dir, "-j", jobs,
               "--target", "perfbench", "history_test"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    test = subprocess.run([os.path.join(build_dir, "history_test")],
                          stdout=subprocess.PIPE, text=True)
    if test.returncode != 0:
        sys.stderr.write(test.stdout)
        sys.exit("perfbench: oracle self-tests failed")
    return os.path.join(build_dir, "perfbench")


def run_once(binary, args, timeout=600):
    """Run the binary; return (exit code, parsed result or None)."""
    p = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                       timeout=timeout)
    lines = p.stdout.strip().splitlines()
    result = None
    if p.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return p.returncode, result, p.stdout


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def judge(metric, base, change):
    """Verdict for one metric from paired runs (lists in pair order)."""
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(1 for b, c in zip(base, change) if better(c, b))
    mb, mc = statistics.median(base), statistics.median(change)
    b1, _, b3 = quartiles(base)
    bound = metric["bound"]
    worse_by = ((mc - mb) if lower else (mb - mc)) / mb if mb else 0.0
    if wins >= 0.9 * len(base) and abs(mc - mb) > (b3 - b1):
        return "gain", wins
    if max(spread(base), spread(change)) > bound:
        if all(better(c, b) for c in change for b in base):
            return "better", wins
        return "unresolved", wins
    if worse_by > bound:
        return "regression", wins
    return "unchanged", wins


def repeat_mode(opts):
    spec = load_spec()
    names = opts.workload or [w["name"] for w in spec["workloads"]]
    seconds = str(spec["run_seconds"])
    sides = [("change", build(BUILD, SRC))]
    if opts.against:
        src = os.path.join(os.path.realpath(opts.against), "src")
        sides.insert(0, ("base", build(os.path.join(BUILD, "against"), src)))
    for name in names:
        results = {side: [] for side, _ in sides}
        for i in range(opts.repeat):
            order = sides if i % 2 == 0 else sides[::-1]
            for side, binary in order:
                args = ["--workload", name, "--seed", str(opts.seed + i),
                        "--seconds", seconds, "--trace", "0"]
                t0 = time.monotonic()
                code, res, _ = run_once(binary, args)
                if res is None:
                    sys.exit("perfbench: %s run failed (exit %d)" %
                             (name, code))
                results[side].append(res)
                log("%s %s run %d: correct=%s, %.1f s" %
                    (name, side, i + 1, res["correct"],
                     time.monotonic() - t0))
        print("== %s (%d runs per side, seeds %d..%d)" %
              (name, opts.repeat, opts.seed, opts.seed + opts.repeat - 1))
        for side, _ in sides:
            rs = results[side]
            print("  %s: correct %d/%d, failed share %s" % (
                side, sum(r["correct"] for r in rs), len(rs),
                sorted({r["failed"] / r["attempted"] for r in rs})))
        for m in spec["end_to_end"]:
            row = "  %-16s" % m["name"]
            vals = {}
            for side, _ in sides:
                v = [r["metrics"][m["name"]]["value"] for r in results[side]]
                vals[side] = v
                q1, q2, q3 = quartiles(v)
                tag = "" if spread(v) <= m["bound"] else " unresolved"
                row += "  %s %.6g [%.6g, %.6g] spread %.3f%s" % (
                    side, q2, q1, q3, spread(v), tag)
            if opts.against:
                verdict, wins = judge(m, vals["base"], vals["change"])
                row += "  -> %s (wins %d/%d)" % (verdict, wins, opts.repeat)
            print(row + "  " + m["unit"])
        sys.stdout.flush()


def main():
    argv = sys.argv[1:]
    if "--repeat" not in argv:
        # Single run: the binary validates the arguments (exit 2).
        binary = build(BUILD, SRC)
        code, _, out = run_once(binary, argv)
        sys.stdout.write(out)
        sys.exit(code)
    ap = argparse.ArgumentParser(description="repeat the benchmark")
    ap.add_argument("--repeat", type=int, required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--against", metavar="CHECKOUT")
    opts = ap.parse_args(argv)
    if opts.repeat < 1 or opts.seed < 0:
        ap.error("--repeat must be >= 1 and --seed >= 0")
    repeat_mode(opts)


if __name__ == "__main__":
    main()
