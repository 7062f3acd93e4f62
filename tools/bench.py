"""Run the benchmark's three workloads, traced and untraced, into one JSON file.

Run from the repository root, naming the file after the change measured:

    python tools/bench.py --seconds 8 --seed 1 --out BENCH_<n>.json

Each of the six runs is one ``perfbench/run.py`` process.  The file keeps
each run's final JSON line (``result``) and its ``detail`` object (medians,
counters, trace digests, static counts and environment stamp) as perfbench
printed them, with the commit measured and the settings.  It only reads
perfbench's output.  Exit status: 0 when every run reports ``failed`` 0,
1 otherwise; the file is written either way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("lasso_l1", "sparse_lphalf", "desk_configs")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def run_one(root: Path, workload: str, trace: int, seed: int, seconds: float) -> dict:
    """One perfbench run: its settings, exit code, result line and detail object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    detail = next((json.loads(ln[len("detail "):]) for ln in lines if ln.startswith("detail ")),
                  None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"workload": workload, "trace": trace, "exit": proc.returncode, "result": result,
            "detail": detail, "stderr": proc.stderr.strip().splitlines()[-5:]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, required=True, help="perfbench's measuring time")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    runs, failed = [], 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_one(root, workload, trace, args.seed, args.seconds)
            ok = isinstance(run["result"], dict) and run["result"].get("failed") == 0
            print(f"{workload} --trace {trace}: exit {run['exit']}, "
                  f"{'ok' if ok else 'FAILED'}", flush=True)
            runs.append(run)
            failed += not ok
    bench = {"commit": git(root, "rev-parse", "HEAD"),
             "uncommitted_changes": bool(git(root, "status", "--porcelain", "--", "src",
                                             "perfbench")),
             "seconds": args.seconds, "seed": args.seed, "runs": runs}
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
