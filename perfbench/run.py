#!/usr/bin/env python3
"""Builds and runs the Mirage workload benchmark, and compares results.

Run one workload (the form BENCHMARK.json's command takes), from the
root of the repository:

    python3 perfbench/run.py --workload serve_quiet --seed 7 --seconds 10 --trace 0 [--out FILE]

The benchmark is built from source first (`cargo build --release
--offline`, into $CARGO_TARGET_DIR or `.bench_build`). The last line of
standard output is the result object. `--out` also saves the run, its
machine fingerprint and its workload figures as JSON.

Run a workload over several seeds, saving each run and printing each
end-to-end metric's median and quartile spread against its bound:

    python3 perfbench/run.py sweep --workload serve_quiet --seeds 1-10 --out-dir DIR [--trace 1]

Compare two sets of saved runs (files, or directories of them):

    python3 perfbench/run.py compare BASE NEW [--allow-machine-mismatch]

Comparison is refused when the machine fingerprints differ (CPU model,
core count, target, target features, compiler), unless
--allow-machine-mismatch is given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Fingerprint fields that name the machine and toolchain; `code` names
# the program under test and is expected to differ between compared sets.
MACHINE_FIELDS = ("cpu_model", "nproc", "target", "target_features", "rustc")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def check_result(result, trace, spec):
    """Returns a list of problems with a result object."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ set(names))}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
    return problems


def run_once(args):
    """Runs one workload; returns the process exit code."""
    spec = load_spec()
    binary = build()
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        problems = check_result(result, args.trace, spec)
    except (IndexError, ValueError) as e:
        result, problems = None, [f"no result line: {e}"]
    if problems:
        print("\n".join(lines[:-1]))
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        return 4
    print(done.stdout, end="")
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": None,
            "named": {},
            "result": result,
        }
        for line in lines:
            if line.startswith("fingerprint "):
                record["fingerprint"] = json.loads(line[len("fingerprint "):])
            elif line.startswith("named "):
                name, rest = line[len("named "):].split(" = ")
                value, unit = rest.rsplit(" ", 1)
                record["named"][name] = {"value": float(value), "unit": unit}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return done.returncode


def load_records(path):
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    else:
        files = [path]
    records = []
    for f in files:
        with open(f) as fh:
            records.append(json.load(fh))
    return records


def machine(record):
    fp = record.get("fingerprint") or {}
    return tuple((k, fp.get(k)) for k in MACHINE_FIELDS)


def spread(values):
    """Quartile distance as a share of the median (None when undefined)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def metric_table(records, trace):
    """{(workload, metric): [values]} over the records of one trace mode."""
    table = {}
    for r in records:
        if r["trace"] != trace:
            continue
        for name, m in r["result"]["metrics"].items():
            table.setdefault((r["workload"], name), []).append(m["value"])
    return table


def fmt(x):
    return "-" if x is None else f"{x:.4g}"


def compare(args):
    spec = load_spec()
    base, new = load_records(args.base), load_records(args.new)
    machines = {machine(r) for r in base + new}
    if len(machines) > 1:
        print("run.py: refusing to compare results from different machines:", file=sys.stderr)
        for m in sorted(machines, key=str):
            print(f"  {dict(m)}", file=sys.stderr)
        if not args.allow_machine_mismatch:
            return 5
        print("run.py: compared anyway (--allow-machine-mismatch)", file=sys.stderr)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0
    for trace, kind in ((0, "end-to-end"), (1, "per-layer")):
        b, n = metric_table(base, trace), metric_table(new, trace)
        keys = sorted(set(b) & set(n))
        if not keys:
            continue
        print(f"== {kind}: workload metric base_median new_median change base_spread new_spread verdict")
        for key in keys:
            mb, mn = statistics.median(b[key]), statistics.median(n[key])
            change = (mn - mb) / abs(mb) if mb else None
            verdict = ""
            meta = e2e.get(key[1]) if trace == 0 else None
            if meta and change is not None:
                worse = change if meta["better"] == "lower" else -change
                verdict = "WORSE" if worse > meta["bound"] else "ok"
                worst = max(worst, 1 if verdict == "WORSE" else 0)
            print(f"{key[0]} {key[1]} {fmt(mb)} {fmt(mn)} {fmt(change)} "
                  f"{fmt(spread(b[key]))} {fmt(spread(n[key]))} {verdict}")
    return worst


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep(args):
    spec = load_spec()
    os.makedirs(args.out_dir, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        out = os.path.join(args.out_dir, f"{args.workload}-t{args.trace}-s{seed}.json")
        once = argparse.Namespace(workload=args.workload, seed=seed, seconds=args.seconds,
                                  trace=args.trace, out=out)
        with open(os.devnull, "w") as devnull:
            saved, sys.stdout = sys.stdout, devnull
            try:
                code = run_once(once)
            finally:
                sys.stdout = saved
        if code != 0:
            print(f"run.py: seed {seed} exited {code}", file=sys.stderr)
            return code
    records = [r for r in load_records(args.out_dir)
               if r["workload"] == args.workload and r["trace"] == args.trace]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{args.workload}: {len(records)} runs; metric median spread bound")
    for (_, name), values in sorted(metric_table(records, args.trace).items()):
        print(f"  {name} {fmt(statistics.median(values))} {fmt(spread(values))} "
              f"{fmt(bounds.get(name))}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("compare", "sweep"):
        p = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "compare":
            p.add_argument("base")
            p.add_argument("new")
            p.add_argument("--allow-machine-mismatch", action="store_true")
            return compare(p.parse_args(sys.argv[2:]))
        p.add_argument("--workload", required=True)
        p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,42")
        p.add_argument("--seconds", type=int, default=load_spec()["run_seconds"])
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out-dir", required=True)
        return sweep(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out")
    return run_once(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
