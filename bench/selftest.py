"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs every workload at the tiny size, traced and untraced, and checks
   the last output line against the schema and the metric names in
   BENCHMARK.json.
2. Runs each workload's calls once in-process, plants a wrong answer in the
   kept output of one call (a perturbed norm, a flipped verdict, a bent
   witness ratio, a nudged wavelet coefficient), and checks that the
   accounting in run.py counts it as a failed operation; likewise for an
   exit code, an exception and a repetition whose output differs.
3. Runs the benchmark in a copy holding only BENCHMARK.json and the
   benchmark's files and checks that it fails without printing a result.

Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

FAILURES = []


def report(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def _bench_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_schema():
    spec = _bench_spec()
    for workload in gen.GENERATORS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=170,
            )
            what = "schema %s trace %d" % (workload, trace)
            if proc.returncode != 0:
                report(False, "%s: exit %d: %s" % (what, proc.returncode, proc.stderr[-500:]))
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            metrics = result.get("metrics", {})
            ok = (
                set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and isinstance(result["attempted"], int) and result["attempted"] >= 1
                and result["failed"] == 0
                and set(metrics) == set(want)
                and all(metrics[n]["unit"] == u and set(metrics[n]) == {"value", "unit"}
                        and isinstance(metrics[n]["value"], (int, float))
                        and math.isfinite(metrics[n]["value"]) for n, u in want.items())
            )
            report(ok, what)


# ---------------------------------------------------------------------------
# planted wrong answers


def _edit(path, change):
    text = path.read_text(encoding="utf-8")
    new = change(text)
    assert new != text, "the plant changed nothing in %s" % path.name
    path.write_text(new, encoding="utf-8")
    return text


def _flip_sweep_exact(checker, call):
    def change(text):
        lines = text.splitlines()
        for i, line in enumerate(lines[1:], start=1):
            rec = json.loads(line)
            if rec["method"] == "profile" and rec["outcome"] in ("holds", "fails") \
                    and checker._specialised_outcomes(rec, call["check"]["d"]):
                rec["outcome"] = "fails" if rec["outcome"] == "holds" else "holds"
                lines[i] = json.dumps(rec, sort_keys=True)
                return "\n".join(lines) + "\n"
        raise AssertionError("no exact record with a specialised decider")
    return change


def _flip_sweep_table(call):
    def change(text):
        lines = text.splitlines()
        for i, line in enumerate(lines[1:], start=1):
            rec = json.loads(line)
            if rec["source.phi"] == call["check"]["twin"]["table"]:
                rec["outcome"] = "fails" if rec["outcome"] == "holds" else "holds"
                lines[i] = json.dumps(rec, sort_keys=True)
                return "\n".join(lines) + "\n"
        raise AssertionError("no tabulated record")
    return change


def _sweep_error(text):
    lines = text.splitlines()
    rec = json.loads(lines[1])
    rec["outcome"] = "error"
    lines[1] = json.dumps(rec, sort_keys=True)
    return "\n".join(lines) + "\n"


def _perturb_norm(text):
    out = []
    for line in text.splitlines():
        if line.startswith("norm="):
            line = "norm=%r" % (float(line[5:]) * (1.0 + 1e-9))
        out.append(line)
    return "\n".join(out) + "\n"


def _bend_ratio(text):
    lines = text.splitlines()
    idx = lines.index("index,ratio") + 2
    i, r = lines[idx].split(",")
    lines[idx] = "%s,%r" % (i, float(r) * (1.0 + 1e-6))
    return "\n".join(lines) + "\n"


def _reverse_ratios(text):
    lines = text.splitlines()
    start = lines.index("index,ratio") + 1
    rows = [line.split(",") for line in lines[start:]]
    ratios = [r for _, r in rows][::-1]
    lines[start:] = ["%s,%s" % (i, r) for (i, _), r in zip(rows, ratios)]
    return "\n".join(lines) + "\n"


def _nudge_coefficient(text):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split(",")
        if line.startswith("#") or parts[0] in ("gender",) or set(parts[0]) == {"F"}:
            continue
        value = float(parts[-1])
        parts[-1] = repr(value + 1e-3 * max(abs(value), 1e-6))
        lines[i] = ",".join(parts)
        return "\n".join(lines) + "\n"
    raise AssertionError("no detail row")


def _plants(workload, checker, calls):
    """(call name, file suffix, change, description) for each plant."""
    by = {c["name"]: c for c in calls}
    if workload == "sweep_grid":
        call = by["sweep_d1"]
        return [("sweep_d1", ".first", _flip_sweep_exact(checker, call),
                 "flipped exact verdict"),
                ("sweep_d2", ".first", _flip_sweep_table(by["sweep_d2"]),
                 "tabulated verdict contradicting its twin"),
                ("sweep_d1", ".first", _sweep_error, "error record")]
    if workload == "norm_files":
        return [(name, ".stdout", _perturb_norm, "norm off by 1e-9") for name in by]
    if workload == "witness_scan":
        return [(name, ".first", _bend_ratio if by[name]["check"]["family"] == "simple"
                 else _reverse_ratios, "bent witness ratios") for name in by]
    return [(name, ".first", _nudge_coefficient, "nudged wavelet coefficient") for name in by]


def check_plants():
    out = run.OUT
    out.mkdir(exist_ok=True)
    cwd = os.getcwd()
    for workload, make in gen.GENERATORS.items():
        workdir = Path(tempfile.mkdtemp(prefix="selftest-%s-" % workload, dir=out))
        try:
            calls, _ = make(1, workdir, gen.SIZES["tiny"])
            checker = checks.Checker(workdir)
            if workload == "witness_scan":
                for call in calls:
                    call["work"] = checker.witness_cells(call)
            os.chdir(workdir)
            try:
                loop = child.Loop(calls)
                for call in calls:
                    loop.run(call)
                    loop.run(call)
            finally:
                os.chdir(cwd)
            attempted, failed, problems, _ = run.account(workload, calls, loop.stats, checker)
            report(attempted == 2 * len(calls) and failed == 0 and not problems,
                   "%s: clean outputs pass (%s)" % (workload, problems or "no problems"))
            for name, suffix, change, what in _plants(workload, checker, calls):
                path = workdir / (name + suffix)
                original = _edit(path, change)
                _, failed, problems, _ = run.account(workload, calls, loop.stats, checker)
                path.write_text(original, encoding="utf-8")
                report(failed == 2 and name in problems,
                       "%s: %s in %s counts as failed" % (workload, what, name))
            name = calls[0]["name"]
            st = loop.stats[name]
            for field, bad, what in (("codes", 70, "unexpected exit code"),
                                     ("errors", "Traceback ...", "exception"),
                                     ("digests", "different", "repetition that differs")):
                keep = st[field][1]
                st[field][1] = bad
                _, failed, problems, _ = run.account(workload, calls, loop.stats, checker)
                st[field][1] = keep
                report(failed == 1 and name in problems, "%s: %s counts as failed" % (workload, what))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_bare_copy():
    """Without the package next to it the benchmark must fail, quietly."""
    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", "sweep_grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=170,
        )
        printed = proc.stdout.strip().splitlines()
        report(proc.returncode != 0 and not (printed and printed[-1].startswith("{")),
               "bare copy exits %d without a result" % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    check_plants()
    check_bare_copy()
    check_schema()
    print("%d failure(s)" % len(FAILURES))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
