#!/usr/bin/env python3
"""Builds and runs the collabsim benchmark, and compares result sets.

Run one workload (from the repository root):

    python3 collabbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

The benchmark binary is built from source first (`cargo build --release`
of collabbench/Cargo.toml, into $CARGO_TARGET_DIR when set). Its last
stdout line is the result: {"correct", "attempted", "failed", "metrics"}.
Every run is also appended, with the machine fingerprint (cores, CPU
model, rustc version) and the workload seed, to collabbench/out/results.jsonl
(or the file named by --record).

Compare two result sets (JSON-lines files of such records):

    python3 collabbench/run.py compare before.jsonl after.jsonl

prints, per workload and end-to-end metric, each side's median and
quartiles and a verdict against the metric's bound in BENCHMARK.json:
"agrees", "differs", or "unresolved" when either side's quartile spread
is wider than the bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def flag(args, name, default=None):
    if name in args:
        at = args.index(name)
        if at + 1 < len(args):
            return args[at + 1]
    return default


def build():
    """Builds the benchmark; returns the binary's path or None."""
    command = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    except OSError as error:
        print(f"run.py: cannot run cargo: {error}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    for line in done.stdout.splitlines():
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if message.get("reason") == "compiler-artifact" and message.get("executable"):
            if message["target"]["name"] == "collabbench":
                return message["executable"]
    return None


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE,
                               text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"cores": len(os.sched_getaffinity(0)), "cpu_model": cpu, "rustc": rustc}


def run(args):
    binary = build()
    if binary is None:
        print("run.py: the benchmark does not build", file=sys.stderr)
        return 1
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    passed = [a for i, a in enumerate(args)
              if a != "--record" and (i == 0 or args[i - 1] != "--record")]
    try:
        done = subprocess.run([binary, *passed, "--out-dir", out_dir],
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark timed out", file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines), file=sys.stderr)
        return done.returncode or 1
    result = json.loads(lines[-1])
    record = {
        "workload": flag(args, "--workload"),
        "seed": int(flag(args, "--seed")),
        "seconds": float(flag(args, "--seconds")),
        "trace": int(flag(args, "--trace")),
        "fingerprint": fingerprint(),
        "result": result,
    }
    with open(flag(args, "--record", os.path.join(out_dir, "results.jsonl")), "a") as sink:
        sink.write(json.dumps(record) + "\n")
    for line in lines[:-1]:
        print(line)
    print("fingerprint: " + json.dumps({**record["fingerprint"], "seed": record["seed"]}))
    print(lines[-1])
    return 0


def load(path):
    with open(path) as source:
        return [json.loads(line) for line in source if line.strip()]


def summary(values):
    """(median, first quartile, third quartile, spread) of a sample."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def compare(paths, bench_path):
    with open(bench_path) as source:
        bench = json.load(source)
    sides = [load(path) for path in paths]
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':<16} {'metric':<14} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'delta':>8}  verdict")
    unresolved = 0
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            for records in sides:
                values = [r["result"]["metrics"][name]["value"] for r in records
                          if r["workload"] == workload and r["trace"] == 0
                          and name in r["result"]["metrics"]]
                cols.append(summary(values) + (len(values),) if values else None)
            if None in cols:
                print(f"{workload:<16} {name:<14} (missing on one side)")
                continue
            (ma, qa1, qa3, sa, na), (mb, qb1, qb3, sb, nb) = cols
            delta = (mb - ma) / ma if ma else 0.0
            if sa > bound or sb > bound:
                verdict = "unresolved"
                unresolved += 1
            elif abs(delta) <= bound:
                verdict = "agrees"
            else:
                verdict = "differs"
            a = f"{ma:.6g} [{qa1:.6g}, {qa3:.6g}] n={na}"
            b = f"{mb:.6g} [{qb1:.6g}, {qb3:.6g}] n={nb}"
            print(f"{workload:<16} {name:<14} {a:<34} {b:<34} {delta:>+8.2%}  {verdict}"
                  f" (bound {bound:.0%}, spread {sa:.1%} / {sb:.1%})")
    mismatched = compare_counts(bench, sides)
    return 1 if unresolved or mismatched else 0


def compare_counts(bench, sides):
    """Count metrics of traced runs must repeat exactly for a workload and
    seed, across runs and across both sides. Returns the mismatches."""
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    seen = {}
    for records in sides:
        for record in records:
            if record["trace"] != 1:
                continue
            metrics = record["result"]["metrics"]
            for name in counts:
                key = (record["workload"], record["seed"], name)
                seen.setdefault(key, set()).add(metrics.get(name, {}).get("value"))
    mismatched = [(key, values) for key, values in sorted(seen.items()) if len(values) > 1]
    for (workload, seed, name), values in mismatched:
        print(f"count mismatch: {workload} seed {seed} {name}: {sorted(values, key=str)}")
    groups = len({key[:2] for key in seen})
    print(f"counts: {groups} traced workload/seed groups, {len(mismatched)} mismatched")
    return mismatched


def main(argv):
    if argv[:1] == ["compare"]:
        paths = [a for a in argv[1:] if not a.startswith("--")
                 and a != flag(argv, "--bench")]
        if len(paths) != 2:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(paths, flag(argv, "--bench", os.path.join(ROOT, "BENCHMARK.json")))
    if not all(flag(argv, name) for name in ("--workload", "--seed", "--seconds", "--trace")):
        print(__doc__, file=sys.stderr)
        return 2
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
