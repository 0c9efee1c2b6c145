"""Benchmark for the besovmorrey CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from the seed
into a directory under ``.bench_out/``; the workload then runs in a fresh
child interpreter that calls ``besovmorrey.cli.main(argv)`` in a closed
loop with one caller (see child.py).  After the child has exited, every
call's first output is checked by an independent route (checks.py) and every
repetition is compared with the first, since the CLI promises deterministic
output.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (work_per_s, setup_s,
peak_rss_mb); ``--trace 1`` reports the per-layer metrics from the
outside-in tracer (tracer.py), including the tracing overhead.  The lines
before it are a readable report, which is also written as JSON to
``.bench_out/report-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed for set-up in one run; setup_s is their median.
SETUP_SAMPLES = 7
#: Every run must end within this many seconds.
RUN_LIMIT_S = 175.0

WORK_NAMES = {
    "sweep_grid": "decisions_per_s",
    "norm_files": "entries_per_s",
    "witness_scan": "witness_cells_per_s",
    "analyze_grid": "samples_per_s",
}


def _fail(message):
    sys.stderr.write("bench: %s\n" % message)
    sys.exit(2)


def _import_checkout():
    """Put the checkout's src first on sys.path and make sure the package
    comes from there."""
    if not (SRC / "besovmorrey" / "__init__.py").is_file():
        _fail("no besovmorrey package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import besovmorrey

    if Path(besovmorrey.__file__).resolve().parent != (SRC / "besovmorrey").resolve():
        _fail("besovmorrey was imported from %s" % besovmorrey.__file__)
    return besovmorrey


def _child(plan, workdir, tag, deadline):
    plan_path = workdir / ("%s.plan.json" % tag)
    result_path = workdir / ("%s.result.json" % tag)
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)],
            cwd=str(workdir), env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        _fail("the %s child did not finish in time" % tag)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        _fail("the %s child exited with %d" % (tag, proc.returncode))
    return json.loads(result_path.read_text(encoding="utf-8"))


def _filter_orders(workload, calls):
    """Filter orders the workload's calls need; building their taps is part
    of set-up."""
    if workload != "analyze_grid":
        return []
    from besovmorrey.dyadic import parse_space_params
    from besovmorrey.wavelet import min_vanishing_moments

    orders = set()
    for call in calls:
        info = call["check"]
        if info["moments"] is not None:
            orders.add(info["moments"])
        else:
            sp = parse_space_params(info["space"])
            orders.add(min_vanishing_moments(sp.s, sp.p, sp.d))
    return sorted(orders)


def account(workload, calls, stats, checker):
    """Check every call's first output and count failed repetitions.

    A repetition fails on an unexpected exit code, an exception or a
    traceback, output that differs from the first repetition's, or a first
    output that fails its check.  Returns (attempted, failed, problems,
    props)."""
    attempted = failed = 0
    problems, props = {}, {}
    workdir = Path(checker.workdir)
    for call in calls:
        name = call["name"]
        st = stats[name]
        out = None
        if call["out"]:
            path = workdir / (name + ".first")
            out = path.read_text(encoding="utf-8") if path.exists() else ""
        stdout = (workdir / (name + ".stdout")).read_text(encoding="utf-8")
        try:
            found, measured = checker.check(workload, call, out, stdout)
            found = list(found)
        except Exception as exc:  # a malformed output can break a checker
            found, measured = ["checker raised %s: %s" % (type(exc).__name__, exc)], {}
        props[name] = measured
        for code, digest, error in zip(st["codes"], st["digests"], st["errors"]):
            attempted += 1
            failed += bool(found) or code != 0 or error is not None or digest != st["digests"][0]
        if any(code != 0 for code in st["codes"]):
            found.append("exit codes %s" % sorted(set(map(str, st["codes"]))))
        errors = [e for e in st["errors"] if e is not None]
        if errors:
            found.append("%d exceptions, last: %s" % (len(errors), errors[-1]))
        if len(set(st["digests"])) > 1:
            found.append("repetitions printed different output")
        if found:
            problems[name] = found
    return attempted, failed, problems, props


def _quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.seconds < 1:
        _fail("--seconds must be at least 1")
    besovmorrey = _import_checkout()

    import checks
    import gen

    if args.workload not in gen.GENERATORS:
        _fail("unknown workload %r; choose from %s" % (args.workload, ", ".join(gen.GENERATORS)))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=OUT))
    try:
        return _run(args, workdir, deadline, besovmorrey, checks, gen)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir, deadline, besovmorrey, checks, gen):
    import mpmath
    import numpy

    workload = args.workload
    calls, input_props = gen.GENERATORS[workload](args.seed, workdir, gen.SIZES[args.size])
    checker = checks.Checker(workdir)
    if workload == "witness_scan":
        for call in calls:
            call["work"] = checker.witness_cells(call)
    base = {"workload": workload, "src": str(SRC), "orders": _filter_orders(workload, calls)}

    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setups.append(_child(dict(base, mode="setup"), workdir, "setup%d" % i, deadline))
    plan = dict(base, mode="measure", calls=calls, seconds=args.seconds, trace=bool(args.trace),
                spans=str(OUT / ("spans-%s.csv" % workload)))
    result = _child(plan, workdir, "measure", deadline)
    setups.append(result)

    attempted, failed, problems, props = account(workload, calls, result["calls"], checker)

    per_call = {}
    for call in calls:
        times = result["calls"][call["name"]]["times"]
        norm = result["calls"][call["name"]]["norm_times"]
        per_call[call["name"]] = {
            "work": call["work"], "reps": len(times), "median_s": statistics.median(times),
            "spread": _quartile_spread(times), "norm_times": norm,
            "norm_median_s": statistics.median(norm), "norm_spread": _quartile_spread(norm),
        }
    report = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "besovmorrey": besovmorrey.__version__, "nproc": os.cpu_count(),
        "inputs": input_props, "checked": props, "calls": per_call, "problems": problems,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
    }
    if args.trace:
        untraced = statistics.median(result["untraced_pass_s"])
        traced = statistics.median(result["traced_pass_s"])
        layers = dict(result["layers"])
        layers["trace.overhead_s"] = traced - untraced
        layers["trace.overhead_frac"] = (traced - untraced) / untraced
        import tracer

        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracer.metric_names()}
        report.update(untraced_pass_s=result["untraced_pass_s"],
                      traced_pass_s=result["traced_pass_s"],
                      zero_calls=result["zero_calls"], spans_kept=result["spans_kept"],
                      spans_dropped=result["spans_dropped"])
    else:
        total_work = sum(c["work"] for c in per_call.values())
        metrics = {
            "norm_work_per_s": {
                "value": total_work / sum(c["norm_median_s"] for c in per_call.values()),
                "unit": "1/s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        report.update(
            work_per_s=total_work / sum(c["median_s"] for c in per_call.values()),
            setup_samples_s=[s["setup_s"] for s in setups],
            setup_raw_s=statistics.median(s["setup_raw_s"] for s in setups),
            loop_s=result["loop_s"])
    report["metrics"] = metrics
    (OUT / ("report-%s-%d-%d.json" % (workload, args.seed, args.trace))).write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    _print_report(report)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_report(r):
    print("workload %s seed %d seconds %d trace %d | python %s numpy %s mpmath %s nproc %s"
          % (r["workload"], r["seed"], r["seconds"], r["trace"], r["python"], r["numpy"],
             r["mpmath"], r["nproc"]))
    for name, props in sorted(r["inputs"].items()):
        print("  input %s: %s" % (name, json.dumps(props, sort_keys=True)))
    for name, c in r["calls"].items():
        print("  call %-18s work %7d reps %3d median %.4f s (normalised %.4f s)"
              " quartile spread %.3f (normalised %.3f) %s"
              % (name, c["work"], c["reps"], c["median_s"], c["norm_median_s"], c["spread"],
                 c["norm_spread"], json.dumps(r["checked"].get(name, {}), sort_keys=True)))
    for name, found in r["problems"].items():
        for problem in found:
            print("  PROBLEM %s: %s" % (name, problem))
    for name in r.get("zero_calls", ()):
        print("  FLAG %s made no calls on %s" % (name, r["workload"]))
    if "work_per_s" in r:
        print("  %s = %.6g 1/s wall clock, %.6g 1/s normalised (norm_work_per_s)"
              % (WORK_NAMES[r["workload"]], r["work_per_s"],
                 r["metrics"]["norm_work_per_s"]["value"]))
        print("  setup = %.6g s wall clock, %.6g s normalised (setup_s)"
              % (r["setup_raw_s"], r["metrics"]["setup_s"]["value"]))
    print("  ops %d failed %d failed_frac %.6g" % (r["attempted"], r["failed"], r["failed_frac"]))
    for name, m in r["metrics"].items():
        print("  %s = %.6g %s" % (name, m["value"], m["unit"]))


if __name__ == "__main__":
    sys.exit(main())
