"""cropkge benchmark: one workload per invocation.

    python3 perfbench/run.py --workload synth-train --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from --seed under perfbench/.work, then starts
perfbench/workload.py in a fresh process, which measures for --seconds and
prints the result as its last line. The fresh process makes set-up time
cold and peak memory the workload's own. With --trace 1 the same run is
traced and reports per-layer metrics; its spans go to perfbench/traces/.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175.0


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="run one cropkge benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cropkge" / "__init__.py").is_file():
        print(f"error: no cropkge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    work = HERE / ".work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        data = work / "data"
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload, "--data", str(data),
               "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.workload == "synth-train":
            inputs.synth_dataset(data, args.seed)
        else:
            ckpt = work / "input.ckpt"
            inputs.large_inputs(data, ckpt, HERE / ".cache", args.seed)
            cmd += ["--checkpoint", str(ckpt)]
        if args.trace:
            cmd += ["--trace-out", str(HERE / "traces" / f"{args.workload}-s{args.seed}.jsonl.gz")]
        budget = DEADLINE_S - (time.monotonic() - started)
        cmd += ["--t0", repr(time.time())]
        proc = subprocess.run(cmd, timeout=budget)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
