"""Run one workload on several seeds and report each metric's spread.

    python3 bench/spread.py --workload quad-smooth --seeds 101-110 --seconds 38

Each seed is one run of ``bench/run.py --trace 0``, one after another.  For
every metric the output gives the values, their median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median``; for every run, the unscaled medians, the speed
factor and the number of passes.  The summary is printed as JSON and, with
``--out``, written to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="first-last, e.g. 101-110")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    results, details, codes = [], [], []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        codes.append(proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results.append(json.loads(lines[-1]))
        details.append(next((json.loads(x[len("# detail "):]) for x in lines if x.startswith("# detail ")), {}))
        print(f"# seed {seed}: exit {proc.returncode} {results[-1]['metrics']}", file=sys.stderr)
    names = list(results[0]["metrics"])
    summary = {
        "seeds": args.seeds,
        "exit_codes": codes,
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": {k: summarize([r["metrics"][k]["value"] for r in results]) for k in names},
        "raw": {k: [d.get(k) for d in details] for k in ("speed_p50", "raw_wall_s", "raw_rep_s_p50", "raw_setup_s", "passes")},
    }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(json.dumps({k: round(v["spread"], 4) for k, v in summary["metrics"].items()}))
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
