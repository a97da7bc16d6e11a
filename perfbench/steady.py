"""Run workloads several times with different seeds and print each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workload decode_gop30 ...]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json and a third of it; the bounds are set from this output.
Runs use seeds 1, 2, ... and the run length of BENCHMARK.json, and are
sequential, one process at a time.  The raw results go to
.perfbench-out/steady-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, bounds):
    failed_shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"  correct: {all(r['correct'] for r in results)}   failed share: {failed_shares}")
    print(f"  {'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  ok")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        ok = "" if bound is None else ("yes" if abs(spread) < bound / 3 else "NO")
        print(f"  {name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound or '':>6}  {ok}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: attempted {results[-1]['attempted']}", file=sys.stderr, flush=True)
        (OUT / f"steady-{workload}.json").write_text(json.dumps(results, indent=1))
        print(f"{workload} ({args.runs} runs, seeds 1..{args.runs}, {spec['run_seconds']} s)")
        summarize(results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
