"""Steadiness tool for the hopfcleft benchmark.

    python3 bench/steady.py run --workload census --seeds 1-10 --out a.json
    python3 bench/steady.py run --seeds 1-10 --traced --out baseline.json
    python3 bench/steady.py compare a.json b.json

``run`` runs ``bench/run.py`` once per seed and workload (all workloads when
none is named), with the run length from ``BENCHMARK.json``, and prints per
end-to-end metric the sample count, median, quartiles and spread: the
distance between the quartiles as a share of the median. ``--traced`` adds
one ``--trace 1`` run per workload for the per-layer metrics. ``compare``
checks a second set of runs against a first: each spread (but set-up time's)
must stay within the metric's bound, and no median may be worse than the
first set's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench_once(spec, workload, seed, trace) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_run(opts) -> int:
    spec = load_spec()
    workloads = opts.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        runs = {name: [] for name in bounds}
        for seed in opts.seeds:
            for name, value in bench_once(spec, workload, seed, 0).items():
                runs[name].append(value)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v[-1]:.4f}" for k, v in runs.items()), file=sys.stderr)
        entry = {"seeds": opts.seeds, "runs": runs,
                 "summary": {k: summary(v) for k, v in runs.items()}}
        if opts.traced:
            entry["traced"] = {"seed": opts.seeds[0],
                               "metrics": bench_once(spec, workload, opts.seeds[0], 1)}
        out["workloads"][workload] = entry
        print_summary(workload, entry["summary"], bounds)
    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


def print_summary(workload, summ, bounds):
    print(f"{workload}:")
    print(f"  {'metric':14s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>8s} {'bound':>6s}  steady")
    for name, s in summ.items():
        steady = "yes" if s["spread"] < bounds[name] / 3 else "NO"
        print(f"  {name:14s} {s['n']:3d} {s['median']:12.5f} {s['q1']:12.5f} {s['q3']:12.5f}"
              f" {s['spread']:8.4f} {bounds[name]:6.2f}  {steady}")


def cmd_compare(opts) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(opts.first, encoding="utf-8") as fh:
        first = json.load(fh)["workloads"]
    with open(opts.second, encoding="utf-8") as fh:
        second = json.load(fh)["workloads"]
    bad = 0
    for workload in sorted(set(first) & set(second)):
        print(f"{workload}:")
        for name, m in metrics.items():
            a, b = first[workload]["summary"][name], second[workload]["summary"][name]
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            problems = []
            if worse > m["bound"]:
                problems.append("median worse than bound")
            if name != "setup_s" and max(a["spread"], b["spread"]) > m["bound"]:
                problems.append("spread above bound")
            bad += bool(problems)
            print(f"  {name:14s} {a['median']:12.5f} -> {b['median']:12.5f}"
                  f"  worse {worse:+.4f}  spreads {a['spread']:.4f}/{b['spread']:.4f}"
                  f"  bound {m['bound']:.2f}  {'; '.join(problems) or 'ok'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="repeat the benchmark over seeds")
    run.add_argument("--workload", action="append")
    run.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    run.add_argument("--traced", action="store_true")
    run.add_argument("--out")
    compare = sub.add_parser("compare", help="check a second set against a first")
    compare.add_argument("first")
    compare.add_argument("second")
    opts = parser.parse_args(argv)
    return cmd_run(opts) if opts.cmd == "run" else cmd_compare(opts)


if __name__ == "__main__":
    sys.exit(main())
