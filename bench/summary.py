"""Run every workload once, untraced, and print the end-to-end metrics side by
side, each by name and unit.

    python3 bench/summary.py [--seed N] [--seconds S]

Each workload's throughput is printed under its own name
(decisions_per_s, entries_per_s, witness_cells_per_s, samples_per_s), both
normalised (the value run.py reports as norm_work_per_s) and wall clock.
Exits non-zero when a run fails or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gen import GENERATORS  # noqa: E402
from run import OUT, WORK_NAMES  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    ok = True
    for workload in GENERATORS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print("%s: run failed\n%s" % (workload, proc.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        path = OUT / ("report-%s-%d-0.json" % (workload, args.seed))
        report = json.loads(path.read_text(encoding="utf-8"))
        m = result["metrics"]
        print("%s" % workload)
        print("  %-20s %12.6g 1/s normalised, %.6g 1/s wall clock"
              % (WORK_NAMES[workload], m["norm_work_per_s"]["value"], report["work_per_s"]))
        print("  %-20s %12.6g s normalised, %.6g s wall clock"
              % ("setup_s", m["setup_s"]["value"], report["setup_raw_s"]))
        print("  %-20s %12.6g MB" % ("peak_rss_mb", m["peak_rss_mb"]["value"]))
        print("  %-20s %12.6g (%d of %d ops)" % ("failed_frac", report["failed_frac"],
                                                 result["failed"], result["attempted"]))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
