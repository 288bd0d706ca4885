#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize it.

Run from the root of a checkout:

    python3 perfbench/summarize.py --seeds 10 --out results.json
    python3 perfbench/summarize.py --compare first.json second.json

For every workload in BENCHMARK.json it runs the benchmark command once
per seed with --trace 0, then once with --trace 1 (seed 1), and writes
per metric the median, the spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles), the sample
count and the values, together with each run's record (host, Go
version, commit, seed, input counts and bytes, output digest, and the
share of host CPU ticks stolen by other guests during the run). It exits
non-zero if a run fails or reports correct=false.

--compare checks two such files of the same code against each other:
every end-to-end median of the second within its bound of the first,
identical output digests per workload and seed, and identical engine
counts in the traced corpus runs. It exits non-zero on a difference.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    record = json.loads(lines[-2])["run"]
    record["elapsed_s"] = round(elapsed, 1)
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: correct=false")
    return record, result


def summarize(values):
    med = statistics.median(values)
    spread = None
    if len(values) >= 2 and med:
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / med
    return {"median": med, "spread": spread, "n": len(values), "values": values}


# Per-layer counts of the traced corpus run that must repeat exactly.
EXACT_COUNTS = [
    "psparser.parse_calls", "psparser.guard_parse_calls",
    "psfront.pieces_attempted", "psfront.pieces_recovered_ratio",
    "psfront.layers_unwrapped", "psfront.iterations",
    "pipeline.splices_applied", "pipeline.splice_fallback_ratio",
    "pipeline.eval_cache_hit_ratio", "psinterp.evals",
]


def compare(first, second):
    bench = json.load(open("BENCHMARK.json"))
    a, b = json.load(open(first)), json.load(open(second))
    ok = True
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for w in a["workloads"]:
            x = a["workloads"][w]["end_to_end"][name]["median"]
            y = b["workloads"][w]["end_to_end"][name]["median"]
            worse = (y - x) / x if lower else (x - y) / x
            flag = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            print(f"{w:9s} {name:15s} {x:.6g} -> {y:.6g} ({worse:+.3f} worse, bound {bound}) {flag}")
    for w in a["workloads"]:
        da = {r["seed"]: r["digest"] for r in a["workloads"][w]["runs"]}
        db = {r["seed"]: r["digest"] for r in b["workloads"][w]["runs"]}
        same = all(da[s] == db[s] for s in da if s in db)
        ok = ok and same
        print(f"{w:9s} output digests {'identical' if same else 'DIFFER'}")
    pa = a["workloads"]["corpus"].get("per_layer", {})
    pb = b["workloads"]["corpus"].get("per_layer", {})
    diff = [k for k in EXACT_COUNTS if pa.get(k) != pb.get(k)]
    ok = ok and not diff
    print(f"corpus    traced counts {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}")
    return ok


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        raise SystemExit(0 if compare(sys.argv[2], sys.argv[3]) else 1)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for w in [w["name"] for w in bench["workloads"]]:
        runs, metrics = [], {}
        for seed in range(1, 1 + a.seeds):
            rec, res = run(bench["command"], w, seed, bench["run_seconds"], 0)
            runs.append(rec)
            for name, m in res["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
        summary = {name: summarize(v) for name, v in sorted(metrics.items())}
        entry = {"end_to_end": summary, "runs": runs}
        rec, res = run(bench["command"], w, 1, bench["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in sorted(res["metrics"].items())}
        entry["traced_run"] = rec
        out["workloads"][w] = entry
        steal = statistics.median(r["steal_share"] for r in runs)
        print(f"{w:9s} host CPU stolen by other guests: median {steal:.3f} of ticks", flush=True)
        for name, s in summary.items():
            flag = ""
            if s["spread"] is not None and s["spread"] > bounds[name] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{w:9s} {name:15s} median {s['median']:.6g} spread {s['spread'] or 0:.4f}{flag}", flush=True)
    with open(a.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
