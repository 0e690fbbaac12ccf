#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or collect one.

    compare.py collect OUT.json [--runs N] [--seeds 42,43] [--trace] [--seconds S]
    compare.py A.json B.json [--same-commit]

`collect` runs every workload N times per seed through benchmark/run.sh (from
the checkout root) and stores each result line. Comparing prints, per workload
and end-to-end metric, the median and quartiles of A (the parent) and B (the
change), B's change against A, the bound from BENCHMARK.json, and a verdict:

  improved      B's median is better by more than the bound
  within-bound  B's median is no worse than A's by more than the bound
  regressed     B's median is worse by more than the bound
  unresolved    the spread of either set (quartile distance over median) is
                wider than the bound, and the runs of one side are not all
                better than the runs of the other

With --same-commit the two sets come from one commit: any difference in a
simulated metric or in sim_digest for the same workload and seed is an error
(exit 1), and so is a median that moved by more than its bound (improved or
regressed). An unresolved row is only a wide spread; it is printed, not
counted.
Standard library only.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Simulated: exact for a fixed workload and seed, on any host.
SIMULATED = {"llc_hit_pct", "isolation_pct", "heap_mb"}
SIMULATED_TRACED = {
    "run.sim_digest48", "run.llc_hit_pct", "run.failed_share", "run.slices", "sim.ipc_sum",
    "sim.steps_per_kinstr", "sim.l2_acc_per_kinstr", "ucp.epochs", "core.managed_evict_pct",
    "core.size_overshoot_pct", "core.demotions_per_kacc", "core.promotions_per_kacc",
    "core.setpoint_adj_per_kacc", "core.throttled_per_kacc", "snapshot.bytes",
    "snapshot.roundtrip_identical", "partitioning.engine_digests_equal",
}


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(out_path, runs, seeds, trace, seconds):
    spec = benchmark_json()
    results = []
    for rep in range(runs):
        for seed in seeds:
            for w in spec["workloads"]:
                cmd = spec["command"] + [
                    "--workload", w["name"], "--seed", str(seed),
                    "--seconds", str(seconds or spec["run_seconds"]), "--trace", str(int(trace)),
                ]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    sys.exit(f"{w['name']} seed {seed}: no result line (exit {proc.returncode})")
                if proc.returncode != 0 or not result["correct"] or result["failed"]:
                    sys.exit(f"{w['name']} seed {seed}: failed checks (exit {proc.returncode})")
                results.append({"workload": w["name"], "seed": seed, "rep": rep, "result": result})
                print(f"run {rep + 1}/{runs} seed {seed} {w['name']}: ok", file=sys.stderr)
    with open(out_path, "w") as f:
        json.dump({"trace": trace, "results": results}, f, indent=1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def by_key(data):
    """(workload, metric) -> values, and (workload, seed, metric) -> values."""
    pooled, per_seed = {}, {}
    for r in data["results"]:
        for name, m in r["result"]["metrics"].items():
            pooled.setdefault((r["workload"], name), []).append(m["value"])
            per_seed.setdefault((r["workload"], r["seed"], name), []).append(m["value"])
    return pooled, per_seed


def verdict(a, b, better, bound):
    """a: parent's values, b: change's values."""
    sign = 1.0 if better == "higher" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / abs(ma) if ma else 0.0  # > 0 is better
    if max(spread(a), spread(b)) > bound:
        all_better = min(sign * x for x in b) > max(sign * x for x in a)
        all_worse = max(sign * x for x in b) < min(sign * x for x in a)
        if not (all_better or all_worse):
            return change, "unresolved"
    if change > bound:
        return change, "improved"
    if change < -bound:
        return change, "regressed"
    return change, "within-bound"


def compare(path_a, path_b, same_commit):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if a["trace"] != b["trace"]:
        sys.exit("one set is traced and the other is not")
    spec = benchmark_json()
    pooled_a, seed_a = by_key(a)
    pooled_b, seed_b = by_key(b)
    errors = []

    exact = SIMULATED_TRACED if a["trace"] else SIMULATED
    for key in sorted(set(seed_a) & set(seed_b)):
        workload, seed, name = key
        if name not in exact:
            continue
        values = set(seed_a[key]) | set(seed_b[key])
        if len(values) > 1:
            msg = f"{workload} seed {seed}: simulated metric {name} differs: {sorted(values)}"
            if same_commit:
                errors.append(msg)
            else:
                print("note: " + msg)

    if not a["trace"]:
        print(f"{'workload':<16} {'metric':<14} {'A q1/median/q3':>38} {'B q1/median/q3':>38} "
              f"{'change':>8} {'bound':>6}  verdict")
        for w in spec["workloads"]:
            for m in spec["end_to_end"]:
                key = (w["name"], m["name"])
                if key not in pooled_a or key not in pooled_b:
                    errors.append(f"{key} is missing from a set")
                    continue
                va, vb = pooled_a[key], pooled_b[key]
                change, v = verdict(va, vb, m["better"], m["bound"])
                fmt = lambda q: "/".join(f"{x:.6g}" for x in q)
                print(f"{w['name']:<16} {m['name']:<14} {fmt(quartiles(va)):>38} "
                      f"{fmt(quartiles(vb)):>38} {change:>+8.2%} {m['bound']:>6}  {v}")
                if same_commit and v in ("improved", "regressed"):
                    errors.append(f"{w['name']} {m['name']}: {v} between two sets of one commit")
    for e in errors:
        print("ERROR: " + e)
    sys.exit(1 if errors else 0)


def main(argv):
    if len(argv) >= 2 and argv[0] == "collect":
        opts = argv[2:]
        value = lambda flag, default: opts[opts.index(flag) + 1] if flag in opts else default
        collect(argv[1], int(value("--runs", "5")),
                [int(s) for s in value("--seeds", "42,43").split(",")],
                "--trace" in opts, value("--seconds", None))
    elif len(argv) >= 2:
        compare(argv[0], argv[1], "--same-commit" in argv[2:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
