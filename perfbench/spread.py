"""Repeat the benchmark over several workload seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1 2 3 ... [--workloads NAME ...]
                                [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per workload and seed, in sequence, with the
run_seconds of BENCHMARK.json.  For every metric it reports the median and
the spread, the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, which is the figure
the bounds of BENCHMARK.json are set against.  --out writes every run and
the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from run import machine  # noqa: E402


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        spread = None
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        out[name] = {"median": med, "spread": spread, "min": min(vals),
                     "max": max(vals), "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    doc = {"machine": machine(), "run_seconds": spec["run_seconds"],
           "trace": args.trace, "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable] + spec["command"][1:] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            runs.append({"seed": seed,
                         "result": json.loads(proc.stdout.splitlines()[-1])})
        summary = summarise([r["result"] for r in runs])
        doc["workloads"][name] = {"runs": runs, "summary": summary}
        print(name)
        for metric, s in summary.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:34s} median {s['median']:.6g} {s['unit']}, "
                  f"spread {spread}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
