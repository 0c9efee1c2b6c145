import contextlib
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovmorrey import cli, wavelet
from besovmorrey import phi as phimod
from besovmorrey.cli import main
from besovmorrey.dyadic import DyadicSequence, save_csv
from besovmorrey.wavelet import SampledFunction, daubechies_system, save_samples
from besovmorrey.witness import greedy_distribution

HOLD_SRC = "s=1,p=2,q=2,phi=power(2),d=1"
HOLD_TGT = "s=0,p=2,q=2,phi=power(2),d=1"


def test_check_holds(capsys):
    code = main(["check", "--source", HOLD_SRC, "--target", HOLD_TGT])
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome=holds" in out
    assert "method=profile" in out
    assert "note=the embedding is not compact" in out


def test_check_fails(capsys):
    code = main(["check", "--source", HOLD_TGT, "--target", HOLD_SRC])
    out = capsys.readouterr().out
    assert code == 1
    assert "outcome=fails" in out


def test_check_json(capsys):
    code = main(["check", "--json", "--source", HOLD_SRC, "--target", HOLD_TGT])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    header = json.loads(lines[0])
    record = json.loads(lines[1])
    assert header["command"] == "check"
    assert header["jmax"] == 64
    assert record["outcome"] == "holds"
    assert record["source"].startswith("s=1.0,")
    assert record["q_star"] == "inf"


def test_check_undetermined_for_tables(tmp_path, capsys):
    table = tmp_path / "profile.csv"
    rows = ["t,value"]
    for k in range(-48, 9):
        t = 2.0 ** k
        rows.append("%r,%r" % (t, math.sqrt(t)))
    table.write_text("\n".join(rows) + "\n")
    space = "s=0.5,p=2,q=2,phi=table(%s),d=1" % table
    code = main(["check", "--source", space, "--target", space])
    out = capsys.readouterr().out
    assert code == 2
    assert "outcome=undetermined" in out
    assert "method=sampled" in out


def test_check_config_file(tmp_path, capsys):
    cfg = tmp_path / "pair.ini"
    cfg.write_text(
        "[source]\ns = 1\np = 2\nq = 2\nphi = power(2)\nd = 1\n"
        "[target]\ns = 0\np = 2\nq = 2\nphi = power(2)\nd = 1\n"
        "[run]\njmax = 32\n"
    )
    assert main(["check", "--config", str(cfg)]) == 0
    capsys.readouterr()
    # explicit flags override the config blocks
    assert main(["check", "--config", str(cfg),
                 "--target", "s=2,p=2,q=2,phi=power(2),d=1"]) == 1
    out = capsys.readouterr().out
    assert "outcome=fails" in out


def test_check_rejects_bad_input(tmp_path, capsys):
    assert main(["check", "--source", HOLD_SRC]) == 64
    assert main(["check", "--source", "s=1,p=2,q=2,phi=power(oops),d=1",
                 "--target", HOLD_TGT]) == 64
    assert main(["check", "--config", str(tmp_path / "missing.ini")]) == 64
    # a referenced table file that cannot be read is a data problem
    assert main(["check", "--source", "s=1,p=2,q=2,phi=table(%s),d=1" % (tmp_path / "no.csv"),
                 "--target", HOLD_TGT]) == 65
    err = capsys.readouterr().err
    assert err.strip()


_BAD_CONFIGS = {
    "no section header": b"[source\ns = 0\n",
    "a parse error": b"[source]\nfoo\n",
    "a duplicate section": b"[source]\ns = 0\n[source]\ns = 1\n",
    "a duplicate option": b"[source]\ns = 0\ns = 1\n",
    "bytes that are not UTF-8": b"[source]\ns=0\xff\n",
}


@pytest.mark.parametrize("name", sorted(_BAD_CONFIGS))
def test_bad_config_file_exits_64_with_one_line(name, tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.ini").write_bytes(_BAD_CONFIGS[name])
    monkeypatch.chdir(tmp_path)
    for argv in (["check"], ["sweep"], ["norm", "--seq", "x.csv"], ["witness"],
                 ["analyze", "--samples", "x.csv"]):
        assert main(argv + ["--config", "bad.ini"]) == 64
        err = capsys.readouterr().err
        assert err.startswith("bad config 'bad.ini': ") and err.count("\n") == 1, (argv, err)
        if name == "bytes that are not UTF-8":
            assert err == "bad config 'bad.ini': not UTF-8 text (invalid start byte)\n"


_PAIR_CONFIG = ("[source]\ns=1\np=2\nq=2\nphi=power(2)\nd=1\n"
                "[target]\ns=0\np=2\nq=2\nphi=power(2)\nd=1\n")


@pytest.mark.parametrize("argv, config, line", [
    (["check"], "[source]\nbogus = 1\n", "unknown key(s) bogus in [source]"),
    (["witness"], _PAIR_CONFIG + "[run]\ndepth = x\n", "[run] depth must be an integer"),
    (["sweep"], _PAIR_CONFIG, "config has no [sweep] section"),
    (["sweep"], "[source]\ns = 1\n[sweep]\nsource.s = 1\n",
     "config is missing the [target] section"),
    (["check", "--source", "s=0,p=2,q=2,phi=power(2,d=1"], _PAIR_CONFIG,
     "source space: unbalanced parentheses in 's=0,p=2,q=2,phi=power(2,d=1'"),
    (["check", "--source", "s=0,p=2,q=2,phi=power(2)),d=1"], _PAIR_CONFIG,
     "source space: unbalanced parentheses in 's=0,p=2,q=2,phi=power(2)),d=1'"),
    (["check", "--source", "s=0,p=2,q,phi=power(2),d=1"], _PAIR_CONFIG,
     "source space: expected key=value, got 'q'"),
    (["check", "--source", "s=x,p=2,q=2,phi=power(2),d=1"], _PAIR_CONFIG,
     "source space: expected a number or inf, got 'x'"),
    (["check", "--source", "s=1,p=2,q=2,phi=power(2),d=1,s=-5"], _PAIR_CONFIG,
     "source space: repeated key 's' in space block 's=1,p=2,q=2,phi=power(2),d=1,s=-5'"),
    (["check", "--source", "s=1,p=2,q=2,phi=power(2),d=1,sigma=9"], _PAIR_CONFIG,
     "source space: unknown key 'sigma' in space block 's=1,p=2,q=2,phi=power(2),d=1,sigma=9'"),
    (["check"], _PAIR_CONFIG.replace("d=1\n", "d = 1,s=-5\n", 1),
     "source space: repeated key 's' in space block 's=1,p=2,q=2,phi=power(2),d=1,s=-5'"),
])
def test_config_and_block_errors_exit_64_with_their_line(argv, config, line, tmp_path,
                                                         monkeypatch, capsys):
    (tmp_path / "run.ini").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--config", "run.ini"]) == 64
    assert capsys.readouterr().err == line + "\n"


def test_norm_command(tmp_path, capsys):
    path = tmp_path / "seq.csv"
    save_csv(DyadicSequence(1, {(0, (0,)): 1.0}), str(path))
    code = main(["norm", "--space", "s=0.5,p=2,q=inf,phi=power(2),d=1",
                 "--seq", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "entries=1" in out
    assert "norm=1.0" in out
    assert main(["norm", "--space", "s=0.5,p=2,q=inf,phi=power(2),d=1",
                 "--seq", str(tmp_path / "gone.csv")]) == 65
    assert main(["norm", "--space", "s=0.5,p=2,q=inf,phi=power(2),d=2",
                 "--seq", str(path)]) == 64


def test_witness_produces_certificate(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code = main([
        "witness",
        "--source", "s=0,p=2,q=2,phi=capped(2),d=1",
        "--target", "s=0,p=2,q=2,phi=power(2),d=1",
        "--depth", "6",
        "--out", str(out_path),
    ])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# besovmorrey witness")
    assert "family=simple" in text
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body[0] == "index,ratio"
    assert len(body) == 8
    ratios = [float(line.split(",")[1]) for line in body[1:]]
    assert ratios[-1] > ratios[0]
    capsys.readouterr()


def test_witness_refuses_holding_pair(capsys):
    code = main(["witness", "--source", HOLD_SRC, "--target", HOLD_TGT])
    captured = capsys.readouterr()
    assert code == 1
    assert "divergence witnesses exist only for failing pairs" in captured.err


def test_analyze_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(5)
    f = SampledFunction(d=1, js=3, offset=(0,), values=rng.uniform(-1, 1, size=8))
    samples = tmp_path / "samples.csv"
    save_samples(f, str(samples))
    space = "s=0.5,p=2,q=2,phi=power(2),d=1"
    out1 = tmp_path / "coeffs1.csv"
    out2 = tmp_path / "coeffs2.csv"
    assert main(["analyze", "--samples", str(samples), "--space", space,
                 "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--samples", str(samples), "--space", space,
                 "--out", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "norm_estimate=" in first
    text1 = out1.read_text()
    assert text1 == out2.read_text()
    assert text1.startswith("# besovmorrey analyze")
    assert "gender,j,m_1,value" in text1


def test_analyze_errors(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(6)
    f = SampledFunction(d=1, js=2, offset=(0,), values=rng.uniform(-1, 1, size=4))
    samples = tmp_path / "samples.csv"
    save_samples(f, str(samples))
    space = "s=0.5,p=2,q=2,phi=power(2),d=1"
    # no moment count and no space to derive one from
    assert main(["analyze", "--samples", str(samples)]) == 64
    # the space needs two vanishing moments
    assert main(["analyze", "--samples", str(samples), "--space", space,
                 "--moments", "1"]) == 64
    assert main(["analyze", "--samples", str(tmp_path / "gone.csv"),
                 "--moments", "2"]) == 65
    assert main(["analyze", "--samples", str(samples), "--moments", "2",
                 "--depth", "9"]) == 64
    capsys.readouterr()
    # a --prune that is not a finite number >= 0 is refused before any
    # cascade runs, that of the norm estimate included
    steps = []
    step = wavelet._analysis_step
    monkeypatch.setattr(wavelet, "_analysis_step", lambda *a: steps.append(a) or step(*a))
    for prune in ("nan", "-1", "-0.5e-300", "inf", "-inf"):
        for flags in (["--space", space], ["--moments", "2", "--depth", "0"]):
            out = tmp_path / "coeffs.csv"
            assert main(["analyze", "--samples", str(samples), *flags, "--prune=" + prune,
                         "--out", str(out)]) == 64
            assert "prune must be a finite number >= 0" in capsys.readouterr().err
            assert not steps and not out.exists()
    assert main(["analyze", "--samples", str(samples), "--space", space,
                 "--prune", "0"]) == 0 and steps


def _sweep_config(tmp_path, sweep_lines):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[source]\ns = 1\np = 2\nq = 2\nphi = power(2)\nd = 1\n"
        "[target]\ns = 0\np = 2\nq = 2\nphi = power(2)\nd = 1\n"
        "[sweep]\n" + "\n".join(sweep_lines) + "\n"
    )
    return cfg


def test_sweep_grid(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, ["target.s = 0;2"])
    out_path = tmp_path / "grid.jsonl"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["command"] == "sweep"
    assert header["count"] == 2
    assert header["keys"] == ["target.s"]
    records = [json.loads(line) for line in lines[1:]]
    assert [r["outcome"] for r in records] == ["holds", "fails"]
    assert records[0]["index"] == 0
    capsys.readouterr()


def test_sweep_records_per_combo_errors(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, ["target.p = 2;-1"])
    out_path = tmp_path / "grid.jsonl"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert records[0]["outcome"] == "holds"
    assert records[1]["outcome"] == "error"
    assert records[1]["error"]
    capsys.readouterr()


def test_sweep_guards(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, ["bogus.s = 1;2"])
    assert main(["sweep", "--config", str(cfg)]) == 64
    values = ";".join(str(k) for k in range(320))
    cfg = _sweep_config(tmp_path, ["source.s = %s" % values, "target.s = %s" % values])
    assert main(["sweep", "--config", str(cfg)]) == 66
    err = capsys.readouterr().err
    assert "cap" in err


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_sweep_bad_table_keeps_the_records_before_it(tmp_path, monkeypatch, capsys, to_file):
    # a bad data file ends the sweep at the first point that names it: the
    # header and every earlier record are written, then one stderr line, 65
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("t,value\n1,abc\n", encoding="utf-8")
    cfg = _sweep_config(tmp_path, ["source.phi = power(2); table(bad.csv)",
                                   "target.s = 0; 0.5"])
    out_path = tmp_path / "grid.jsonl"
    argv = ["sweep", "--config", str(cfg)] + (["--out", str(out_path)] if to_file else [])
    assert main(argv) == 65
    captured = capsys.readouterr()
    text = out_path.read_text(encoding="utf-8") if to_file else captured.out
    lines = [json.loads(line) for line in text.splitlines()]
    assert text.endswith("\n") and len(lines) == 3
    assert (lines[0]["command"], lines[0]["count"]) == ("sweep", 4)
    assert [(r["index"], r["source.phi"], r["target.s"], r["outcome"]) for r in lines[1:]] \
        == [(0, "power(2)", "0", "holds"), (1, "power(2)", "0.5", "holds")]
    assert captured.err == "source space: bad.csv:2: malformed row '1,abc'\n"



@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_sweep_bad_target_table_keeps_the_records_before_it(tmp_path, monkeypatch, capsys,
                                                            to_file):
    # the first source block is not a space, so its points are error records
    # and no target is parsed for them; the bad table then ends the sweep in
    # the middle of the second source block, after that block's first records
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("t,value\n1,abc\n", encoding="utf-8")
    cfg = _sweep_config(tmp_path, ["source.p = -1; 2", "target.phi = power(2); table(bad.csv)",
                                   "target.s = 0; 0.5"])
    out_path = tmp_path / "grid.jsonl"
    argv = ["sweep", "--config", str(cfg)] + (["--out", str(out_path)] if to_file else [])
    assert main(argv) == 65
    captured = capsys.readouterr()
    text = out_path.read_text(encoding="utf-8") if to_file else captured.out
    lines = [json.loads(line) for line in text.splitlines()]
    assert text.endswith("\n") and len(lines) == 7
    assert (lines[0]["command"], lines[0]["count"]) == ("sweep", 8)
    assert [(r["index"], r["source.p"], r["target.phi"], r["target.s"], r["outcome"])
            for r in lines[1:]] == [
        (0, "-1", "power(2)", "0", "error"), (1, "-1", "power(2)", "0.5", "error"),
        (2, "-1", "table(bad.csv)", "0", "error"), (3, "-1", "table(bad.csv)", "0.5", "error"),
        (4, "2", "power(2)", "0", "holds"), (5, "2", "power(2)", "0.5", "holds"),
    ]
    assert len({r["error"] for r in lines[1:5]}) == 1
    assert captured.err == "target space: bad.csv:2: malformed row '1,abc'\n"


def _sweep_exit_65(cfg, out_path, capsys):
    """A sweep that a bad data file ends: its output records and stderr."""
    argv = ["sweep", "--config", str(cfg)] + (["--out", str(out_path)] if out_path else [])
    assert main(argv) == 65
    captured = capsys.readouterr()
    text = out_path.read_text(encoding="utf-8") if out_path else captured.out
    assert text.endswith("\n")
    return [json.loads(line) for line in text.splitlines()], captured.err


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_sweep_bad_first_target_table_after_error_sources(tmp_path, monkeypatch, capsys,
                                                         to_file):
    # two source blocks that are not spaces write their error records and
    # parse no target; the first decided source then meets the bad table at
    # its first target, so its block writes no record before the one line
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_text("t,value\n1,abc\n", encoding="utf-8")
    cfg = _sweep_config(tmp_path, ["source.p = -1; 0; 2",
                                   "target.phi = table(bad.csv); power(2)", "target.s = 0; 0.5"])
    lines, err = _sweep_exit_65(cfg, tmp_path / "grid.jsonl" if to_file else None, capsys)
    assert (lines[0]["command"], lines[0]["count"]) == ("sweep", 12)
    assert [(r["index"], r["source.p"], r["outcome"]) for r in lines[1:]] \
        == [(i, "-1" if i < 4 else "0", "error") for i in range(8)]
    assert err == "target space: bad.csv:2: malformed row '1,abc'\n"


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_sweep_bad_table_in_the_second_dimensions_plan(tmp_path, monkeypatch, capsys, to_file):
    # the target takes the source's dimension, so d = 2 has a plan of its
    # own, filled only after every d = 1 block was written; the table goes
    # missing after the d = 1 plan read it, so the d = 2 plan cannot
    monkeypatch.chdir(tmp_path)
    shutil.copy(_SQRT_TABLE, tmp_path / "tab.csv")
    load_table = phimod.load_table

    def read_once(path, d=1):
        table = load_table(path, d=d)
        os.remove(path)
        return table

    monkeypatch.setattr(phimod, "load_table", read_once)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[source]\ns = 1\np = 2\nq = 2\nphi = power(2)\nd = 1\n"
                   "[target]\ns = 0\np = 2\nq = 2\nphi = power(2)\n"
                   "[sweep]\nsource.d = 1; 2\nsource.s = 1; 0.5\n"
                   "target.phi = power(2); table(tab.csv)\ntarget.s = 0; 0.5\n")
    lines, err = _sweep_exit_65(cfg, tmp_path / "grid.jsonl" if to_file else None, capsys)
    assert (lines[0]["command"], lines[0]["count"]) == ("sweep", 16)
    assert [(r["index"], r["source.d"], r["target.phi"], r["target.s"]) for r in lines[1:]] == [
        (i, "1", ("power(2)", "table(tab.csv)")[i % 4 // 2], ("0", "0.5")[i % 2])
        for i in range(8)] + [(8, "2", "power(2)", "0"), (9, "2", "power(2)", "0.5")]
    assert all(r["outcome"] in ("holds", "fails", "undetermined") for r in lines[1:])
    assert err.startswith("target space: cannot read table 'tab.csv': ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_sweep_reads_each_table_once_per_call(tmp_path, monkeypatch, capsys):
    # two source blocks name each table, and each source block meets two
    # target blocks: one read per distinct table and call, so a table
    # edited between calls is read again by the next
    monkeypatch.chdir(tmp_path)

    def write_table(name, low, power):
        rows = ["%r,%r" % (2.0 ** k, 2.0 ** (k * power)) for k in range(low, 4)]
        (tmp_path / name).write_text("t,value\n" + "\n".join(rows) + "\n", encoding="utf-8")

    write_table("a.csv", -30, 0.5)
    write_table("b.csv", -30, 0.25)
    cfg = _sweep_config(tmp_path, ["source.phi = table(a.csv); power(2); table(b.csv)",
                                   "source.s = 1; 2", "target.s = 0; 0.5"])
    reads = []
    load_table = phimod.load_table
    monkeypatch.setattr(phimod, "load_table",
                        lambda path, d=1: reads.append(path) or load_table(path, d=d))
    out_path = tmp_path / "grid.jsonl"
    argv = ["sweep", "--config", str(cfg), "--out", str(out_path)]
    assert main(argv) == 0
    assert sorted(reads) == ["a.csv", "b.csv"]
    records = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert [r["outcome"] for r in records[1:]].count("error") == 0
    write_table("a.csv", -30, -0.5)  # decreasing: not admissible
    reads.clear()
    assert main(argv) == 0
    assert sorted(reads) == ["a.csv", "b.csv"]
    records = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    errors = [r["source.phi"] for r in records[1:] if r["outcome"] == "error"]
    assert errors == ["table(a.csv)"] * 4


@pytest.mark.parametrize("target_lines, targets, crossed", [
    (["target.phi = power(2); power(4)"], 2, 0),
    (["target.d = 1; 2", "target.phi = power(2); power(4)"], 4, 12),
], ids=["target-inherits-d", "target-d-swept"])
def test_sweep_across_source_dimensions(tmp_path, monkeypatch, capsys, target_lines, targets,
                                        crossed):
    # the target blocks are parsed once per source dimension; a point whose
    # target names another dimension is an error record, and every other
    # point is the verdict check gives for the same pair
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[source]\ns = 1\np = 2\nq = 2\nphi = power(2)\n"
        "[target]\ns = 0\np = 2\nq = 2\nphi = power(2)\n"
        "[sweep]\nsource.d = 1; 2\nsource.s = 0.5; 1; 1.5\n" + "\n".join(target_lines) + "\n"
    )
    calls = []
    parse = cli.parse_space_params
    monkeypatch.setattr(cli, "parse_space_params",
                        lambda *a, **kw: calls.append(a) or parse(*a, **kw))
    out_path = tmp_path / "grid.jsonl"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 0
    records = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()[1:]]
    # 6 source blocks, each parsed once, and the target blocks once per dimension
    assert len(records) == 6 * targets
    assert len(calls) == 6 + targets * 2
    errors = 0
    for r in records:
        source = "s=%s,p=2,q=2,phi=power(2),d=%s" % (r["source.s"], r["source.d"])
        target = "s=0,p=2,q=2,phi=%s" % r["target.phi"]
        if r.get("target.d", r["source.d"]) != r["source.d"]:
            errors += 1
            assert r["outcome"] == "error"
            assert r["error"] == "source and target dimensions differ"
            continue
        if "target.d" in r:
            target += ",d=%s" % r["target.d"]
        capsys.readouterr()
        main(["check", "--source", source, "--target", target, "--json"])
        expected = json.loads(capsys.readouterr().out.splitlines()[1])
        assert [r[key] for key in ("outcome", "method", "rho", "q_star")] \
            == [expected[key] for key in ("outcome", "method", "rho", "q_star")]
    assert errors == crossed
    capsys.readouterr()


def test_cli_surface(capsys):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,0,nan\n1,0,1.0\n", "not finite"),
        ("0,0,inf\n", "not finite"),
        ("70,9300000000000000000000,1.0\n", "too large"),
        ("5,4611686018427387905,1.0\n", "outside +-2^62"),
        ("2000,0,1.0\n", "levels run from 0 to 1022"),
    ],
)
def test_norm_rejects_unrepresentable_rows(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    path.write_text("# d=1\nj,m_1,value\n" + row)
    code = main(["norm", "--space", "s=0.5,p=2,q=inf,phi=power(2),d=1",
                 "--seq", str(path)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert message in captured.err
    assert str(path) in captured.err


def test_witness_past_the_old_cell_cap_scans_to_depth(capsys):
    # index 23 used to be refused as a witness of 2^23 cells, though the
    # scan builds none
    code = main([
        "witness",
        "--source", "s=0,p=2,q=2,phi=capped(2),d=1",
        "--target", "s=0,p=2,q=2,phi=power(2),d=1",
        "--depth", "40",
    ])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines() if not line.startswith("#")]
    assert [int(index) for index, _ in rows[1:]] == list(range(41))
    ratios = [float(ratio) for _, ratio in rows[1:]]
    assert all(math.isfinite(r) for r in ratios)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_witness_skips_levels_where_a_profile_overflows(capsys):
    # powerlog(2,0.5) in d = 2 is inf near 2^1020; the lattice used to keep
    # that inf, so R(nu) was inf/inf = nan and no level was selected (exit 70)
    code = main([
        "witness",
        "--source", "s=-1.5,p=1,q=inf,phi=powerlog(2,0.5),d=2",
        "--target", "s=0.25,p=0.5,q=4,phi=powerlog(2,0.5),d=2",
        "--depth", "30", "--numin", "-1074",
    ])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "# family=beta outcome=fails\n" in captured.out
    rows = [line.split(",") for line in captured.out.splitlines() if not line.startswith("#")]
    assert [int(index) for index, _ in rows[1:]] == list(range(31))
    ratios = [float(ratio) for _, ratio in rows[1:]]
    assert all(math.isfinite(r) for r in ratios)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("d", [40, 300])
def test_witness_in_high_dimension_scans_without_allocating(capsys, d):
    # placement used to list all 2^d children of a cube before any check;
    # the cells array `m` marks the placement that makes only the children
    # receiving load, so this never runs the old allocation
    assert greedy_distribution(1, 1, 0, 1).shape == (1, 1)
    tracemalloc.start()
    try:
        code = main([
            "witness",
            "--source", "s=0,p=12,q=1,phi=const(1),d=%d" % d,
            "--target", "s=0,p=24,q=1,phi=floorone(1e4),d=%d" % d,
            "--depth", "3",
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0 and peak < 1 << 24 and captured.err == ""
    body = [line for line in captured.out.splitlines() if not line.startswith("#")]
    assert [line.split(",")[0] for line in body] == ["index", "0", "1", "2", "3"]


def test_witness_block_in_64_dimensions(capsys):
    # a block's cells came from np.indices, whose output has d + 1 axes:
    # past 63 axes the one-cell witness at index 0 exited 70
    code = main(["witness", "--source", "s=0,p=64,q=2,phi=capped(64),d=64",
                 "--target", "s=0,p=64,q=2,phi=power(64),d=64", "--depth", "0"])
    assert code == 0 and capsys.readouterr().out.endswith("index,ratio\n0,1.0\n")


def test_analyze_norm_outside_float_range_exits_65(tmp_path, capsys):
    # the estimate used to exit 64, after the --out file had been written
    samples = tmp_path / "samples.csv"
    samples.write_text("# d=1 js=1022\n0,1.0\n1,-2.0\n")
    out = tmp_path / "F"
    code = main(["analyze", "--samples", str(samples),
                 "--space", "s=-3,p=0.5,q=2,phi=power(4),d=1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 65 and not out.exists()
    assert err == "%s: the norm, about 2^-2650, is outside the float range\n" % samples


def _norm(tmp_path, space, rows):
    path = tmp_path / "coeffs.csv"
    path.write_text("# d=1\nj,m_1,value\n" + rows)
    return main(["norm", "--space", space, "--seq", str(path)]), path


def test_norm_weights_levels_without_overflow(tmp_path, capsys):
    # 2^(600*2) overflows a float; the term 2^1200 * phi(2^-600) = 2^600 does not
    code, _ = _norm(tmp_path, "s=2,p=1,q=1,phi=power(1),d=1", "600,0,1.0\n")
    assert code == 0
    assert "norm=%r\n" % 2.0 ** 600 in capsys.readouterr().out
    # (1e200)^2 overflows; the ell_2 sum is taken relative to the largest term
    code, _ = _norm(tmp_path, "s=0.5,p=2,q=2,phi=power(2),d=1", "0,0,1e200\n1,0,1.0\n")
    assert code == 0
    assert "norm=1e+200\n" in capsys.readouterr().out


def test_norm_with_a_small_q_leaves_the_float_range_with_exit_65(tmp_path, capsys):
    # the ell_q sum's 1/q-th power overflowed before its scale applied: exit 70
    code, path = _norm(tmp_path, "s=3,p=2,q=0.001,phi=floorone(2),d=1",
                       "0,0,1.5\n3,0,7e300\n60,0,0.25\n")
    captured = capsys.readouterr()
    assert code == 65 and captured.out == ""
    assert captured.err == "%s: the norm, about 2^2050, is outside the float range\n" % path


@pytest.mark.parametrize("q", ["1100", "2000", "1e20"])
def test_norm_with_a_large_q_prints_the_norm(tmp_path, capsys, q):
    # the ell_q sum of terms scaled into [0.5, 1) underflowed: exit 65
    code, _ = _norm(tmp_path, "s=0,p=2,q=%s,phi=power(2),d=1" % q, "0,0,1.0\n1,0,0.5\n")
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.endswith("entries=2\nnorm=1.0\n")


@pytest.mark.parametrize(
    "space, rows, message",
    [
        # the norm itself is 2^1201
        ("s=3,p=1,q=1,phi=power(1),d=1", "600,0,1.0\n", "outside the float range"),
        # the level-600 supremum 2^-600 * 1e-200 underflows
        ("s=-3,p=1,q=1,phi=power(1),d=1", "600,0,1e-200\n", "level 600"),
    ],
)
def test_norm_outside_float_range_exits_65(tmp_path, capsys, space, rows, message):
    code, path = _norm(tmp_path, space, rows)
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert message in captured.err and str(path) in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_norm_beyond_table_knots_exits_65(tmp_path, capsys):
    table = tmp_path / "t.csv"
    knots = [10.0 ** k for k in range(-3, 4)]
    table.write_text("t,value\n" + "".join("%r,%r\n" % (t, t ** 0.5) for t in knots))
    code, path = _norm(tmp_path, "s=0.5,p=2,q=2,phi=table(%s),d=1" % table, "20,0,1.0\n")
    captured = capsys.readouterr()
    assert code == 65
    assert "level 20" in captured.err and str(path) in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("dim", ["inf", "1.7", "nan", "0", "-1", "two"])
def test_dimension_must_be_an_integer(capsys, dim):
    code = main(["check", "--source", "s=1,p=2,q=2,phi=power(2),d=%s" % dim,
                 "--target", "s=0,p=2,q=2,phi=power(2),d=%s" % dim])
    captured = capsys.readouterr()
    assert code == 64
    assert "dimension must be an integer >= 1" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_integral_float_dimension_is_accepted(capsys):
    code = main(["check", "--source", "s=1,p=2,q=2,phi=power(2),d=2.0",
                 "--target", "s=0,p=2,q=2,phi=power(2),d=2"])
    assert code == 0
    assert ",d=2\n" in capsys.readouterr().out


# the INI example of the README: the target block gives no d
README_INI = (
    "[source]\ns = 1\np = 2\nq = 2\nphi = power(2)\nd = 1\n\n"
    "[target]\ns = 0\np = 2\nq = 2\nphi = power(4)\n\n"
    "[run]\njmax = 32\nnumin = -32\n"
)


def test_target_inherits_dimension(tmp_path, capsys):
    cfg = tmp_path / "pair.ini"
    cfg.write_text(README_INI)
    assert main(["check", "--config", str(cfg)]) == 0
    assert "target=s=0.0,p=2.0,q=2.0,phi=power(4.0),d=1\n" in capsys.readouterr().out
    cfg.write_text(README_INI + "\n[sweep]\nsource.s = 0.5; 1.0; 1.5\n"
                   "target.phi = power(2); power(4)\n")
    out_path = tmp_path / "grid.jsonl"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()[1:]]
    assert len(records) == 6
    assert all(r["outcome"] in ("holds", "fails") for r in records)
    # a target that names its own, different dimension is still refused
    assert main(["check", "--config", str(cfg),
                 "--target", "s=0,p=2,q=2,phi=power(4),d=2"]) == 64
    assert "dimensions differ" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, source, target",
    [
        # 2^(64*20) is beyond the float range: the split form gives inf terms
        ([], "s=0,p=2,q=2,phi=power(2),d=1", "s=20,p=2,q=2,phi=power(2),d=1"),
        ([], "s=0,p=2,q=inf,phi=power(2),d=1", "s=20,p=2,q=inf,phi=power(2),d=1"),
        # the term 2^1000 is a float, its square in the ell_2 sum is not
        (["--jmax", "1"], "s=0,p=2,q=2,phi=power(2),d=1", "s=1000,p=2,q=1,phi=power(2),d=1"),
    ],
    ids=["q*=2", "q*=inf", "square-overflows"],
)
def test_check_huge_smoothness_gap_fails_exactly(capsys, args, source, target):
    code = main(["check", "--source", source, "--target", target] + args)
    captured = capsys.readouterr()
    assert code == 1
    assert "outcome=fails\n" in captured.out
    assert "cond2=violated value=inf (cross-level decay" in captured.out
    assert captured.err == ""


def test_sweep_survives_huge_smoothness_gap(tmp_path, capsys):
    cfg = _sweep_config(tmp_path, ["target.s = 0; 20"])
    out_path = tmp_path / "grid.jsonl"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 0
    records = [json.loads(line) for line in out_path.read_text().splitlines()[1:]]
    assert [r["outcome"] for r in records] == ["holds", "fails"]
    assert records[1]["cond2_value"] == "inf"
    assert capsys.readouterr().err == ""


# in d=40, power(2) is t^20: phi(2^-64) underflows to 0 and phi(2^64) overflows
D40_LOW = "s=0,p=2,q=2,phi=power(2),d=40"
D40_HIGH = "s=1,p=2,q=2,phi=power(2),d=40"


def test_profiles_leaving_the_float_range_keep_exact_verdicts(capsys):
    assert main(["check", "--source", D40_HIGH, "--target", D40_LOW]) == 0
    assert main(["check", "--source", D40_LOW, "--target", D40_HIGH]) == 1
    assert "method=profile" in capsys.readouterr().out
    assert main(["witness", "--source", D40_LOW, "--target", D40_HIGH, "--depth", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("index,ratio\n0,1.0\n1,2.0\n2,4.0\n3,8.0\n")
    assert captured.err == ""
    # at level 52 the witness coefficient 1/phi(2^-52) is no longer a float
    assert main(["witness", "--source", D40_LOW, "--target", D40_HIGH, "--depth", "60"]) == 66
    err = capsys.readouterr().err
    assert "not finite" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "source",
    [
        "s=0,p=0.001,q=2,phi=power(0.001),d=1",  # phi(2^40) = 2^40000
        "s=0,p=0.01,q=2,phi=power(0.04),d=1",  # 2^(40*100) in t^(-d/p)
    ],
    ids=["phi", "damped"],
)
def test_profile_outside_float_range_exits_64(capsys, source):
    code = main(["check", "--source", source, "--target", HOLD_TGT])
    captured = capsys.readouterr()
    assert code == 64
    assert "leaves the float range at t=" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("# d=x js=3\nm_1,value\n0,1.0\n1,2.0\n", "samples.csv:1: 'd=x'"),
        ("# note\n# d=1 js=y\nm_1,value\n0,1.0\n1,2.0\n", "samples.csv:2: 'js=y'"),
        ("# d=1 js=1\nm_1,value\n0,1.0\n1,nan\n", "cell (1,) is not finite"),
        ("# d=1 js=1\nm_1,value\n0,inf\n1,1.0\n", "cell (0,) is not finite"),
    ],
    ids=["bad-d", "bad-js", "nan", "inf"],
)
def test_analyze_rejects_bad_sample_files(tmp_path, capsys, text, message):
    samples = tmp_path / "samples.csv"
    samples.write_text(text)
    out = tmp_path / "coeffs.csv"
    code = main(["analyze", "--samples", str(samples), "--moments", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 65
    assert message in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, order",
    [(["--moments", "1000000"], 1000000), (["--space", "s=300,p=2,q=2,phi=power(2),d=1"], 302)],
)
def test_analyze_refuses_filter_orders_above_the_cap(tmp_path, capsys, flags, order):
    # order 30 factorises in seconds and higher ones take longer, so they
    # are refused before any factorisation starts
    samples = tmp_path / "samples.csv"
    save_samples(SampledFunction(d=1, js=2, offset=(0,), values=[1.0, 2.0, 0.5, -1.0]), samples)
    start = time.perf_counter()
    code = main(["analyze", "--samples", str(samples), *flags])
    assert time.perf_counter() - start < 1.0
    assert code == 64
    assert capsys.readouterr().err == (
        "filter order %d is above the cap of 30 vanishing moments\n" % order
    )


@pytest.mark.parametrize(
    "values, message",
    [
        ([1e308] * 8, "a level-1 wavelet coefficient is outside the float range"),
        ([1e308, -1e308] * 4,
         "a level-2 detail coefficient times 2^(j d/2) is outside the float range"),
    ],
    ids=["cascade", "rescaled-detail"],
)
def test_analyze_coefficients_outside_float_range_exit_65(tmp_path, capsys, values, message):
    # an overflow must reach neither the output, as inf or nan, nor the norm
    # estimate, as 0.0
    samples = tmp_path / "samples.csv"
    save_samples(SampledFunction(d=1, js=3, offset=(0,), values=values), samples)
    out = tmp_path / "coeffs.csv"
    code = main(["analyze", "--samples", str(samples), "--moments", "1", "--out", str(out)])
    assert code == 65
    assert capsys.readouterr().err == "%s: %s\n" % (samples, message)
    assert not out.exists()


_PLAIN = [1.0, -2.0, 0.5, 3.0, 0.0, 1.0, 2.0, -1.0]
# the cascade overflows going to level 1; rescaled detail levels 2 (js=3) or
# 4 and 3 (js=5) overflow
_CASCADE, _RESCALED, _TWO_LEVELS = [1e308] * 8, [1e308, -1e308] * 4, [1e308, 0.0, -1e308, 0.0] * 2
_NEEDS_TWO = ["--space", "s=0.5,p=2,q=2,phi=power(2),d=1"]
_NEEDS_ONE = ["--space", "s=-0.5,p=4,q=2,phi=power(4),d=1"]
_DEPTH = "depth 4 not available from sampling level 3"
_INSUFFICIENT = "the space needs at least 2 vanishing moments, the system has 1"
_CASCADE_65 = "{}: a level-1 wavelet coefficient is outside the float range"
_RESCALED_65 = "{}: a level-2 detail coefficient times 2^(j d/2) is outside the float range"
_FINEST_65 = _RESCALED_65.replace("level-2", "level-4")


@pytest.mark.parametrize(
    "values, js, flags, code, message",
    [
        (_PLAIN, 3, [*_NEEDS_TWO, "--moments", "1", "--depth", "4"], 64, _DEPTH),
        (_CASCADE, 3, [*_NEEDS_TWO, "--depth", "4"], 64, _DEPTH),
        (_CASCADE, 3, _NEEDS_TWO, 65, _CASCADE_65),
        (_CASCADE, 3, [*_NEEDS_TWO, "--moments", "1"], 65, _CASCADE_65),
        (_CASCADE, 3, [*_NEEDS_TWO, "--depth", "1"], 65, _CASCADE_65),
        (_RESCALED, 3, _NEEDS_TWO, 65, _RESCALED_65),
        (_RESCALED, 3, [*_NEEDS_TWO, "--moments", "1"], 64, _INSUFFICIENT),
        (_RESCALED, 3, [*_NEEDS_TWO, "--depth", "1"], 65, _RESCALED_65),
        (_TWO_LEVELS, 5, ["--moments", "1"], 65, _FINEST_65),
        (_TWO_LEVELS, 5, [*_NEEDS_ONE, "--moments", "1"], 65, _FINEST_65),
    ],
    ids=["depth-over-moments", "depth-over-cascade", "cascade-with-space",
         "cascade-over-moments", "estimate-cascade-below-depth", "rescaled-with-space",
         "moments-over-rescaled", "estimate-rescaled-below-depth", "finest-rescaled-level",
         "finest-rescaled-level-with-space"],
)
def test_analyze_error_precedence(tmp_path, capsys, values, js, flags, code, message):
    # the --depth refusal, then the cascade, then the estimate, then the
    # rescaled details; the first refusal is the one reported, with no --out
    samples = tmp_path / "samples.csv"
    save_samples(SampledFunction(d=1, js=js, offset=(0,), values=values), samples)
    out = tmp_path / "coeffs.csv"
    got = main(["analyze", "--samples", str(samples), *flags, "--out", str(out)])
    assert (got, capsys.readouterr().err) == (code, message.format(samples) + "\n")
    assert not out.exists()


def test_witness_on_a_table_skips_unsampled_levels(capsys):
    # the knots of t^(1/2) span [2^-40, 2^48]; the scan window reaches 2^64
    table = Path(__file__).parent / "data" / "sweep_small" / "sqrt_table.csv"
    code = main(["witness", "--source", "s=0,p=2,q=2,phi=table(%s),d=1" % table,
                 "--target", "s=1,p=2,q=2,phi=power(2),d=1", "--depth", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.endswith("index,ratio\n0,1.0\n1,2.0\n2,4.0\n3,8.0\n4,16.0\n")
    assert captured.err == ""


CLI_SMALL = Path(__file__).parent / "data" / "cli_small"
CLI_CASES = json.loads((CLI_SMALL / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CLI_CASES, ids=[c["name"] for c in CLI_CASES])
def test_cli_small_golden(case, tmp_path, monkeypatch, capsys):
    # cases.json holds, per command line, the exit code, stdout, stderr and
    # --out file that the cli wrote before its handlers were folded together;
    # "{out}" in an argv stands for a fresh output path
    monkeypatch.chdir(CLI_SMALL)
    out_path = tmp_path / "out.csv"
    argv = [str(out_path) if a == "{out}" else a for a in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == case["code"]
    assert captured.out.encode() == case["stdout"].encode()
    assert captured.err.encode() == case["stderr"].encode()
    if "out" in case:
        assert out_path.read_bytes() == case["out"].encode()
    else:
        assert not out_path.exists()


def test_check_small_q_star_reports_an_infinite_sum(capsys):
    # q* = 1/999: the sampled ell_{q*} sum of the terms is a float, its
    # q*-th root is not
    code = main(["check", "--source", "s=300,p=8,q=1,phi=power(1e6),d=1",
                 "--target", "s=0.5,p=2.5,q=1e-3,phi=floorone(1e6),d=1"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    # the exact verdict holds; cond2's value is that sampled sum's root, not a bound
    assert captured.out == (
        "source=s=300.0,p=8.0,q=1.0,phi=power(1000000.0),d=1\n"
        "target=s=0.5,p=2.5,q=0.001,phi=floorone(1000000.0),d=1\n"
        "outcome=holds\n"
        "method=profile\n"
        "rho=1.0\n"
        "q_star=0.001001001001001001\n"
        "cond0=satisfied value=1.0 (large-cube ratio exponent 0.0, log order gap 0.0)\n"
        "cond2=satisfied value=inf (cross-level decay 2^(-j*299.499999)*(1+j)^0.0"
        " against q*=0.001001001001001001)\n"
        "note=the embedding is not compact\n"
    )


@pytest.mark.parametrize(
    "phi, p, message",
    [
        # exp(a/|beta| - 1) with a = 50, |beta| = 2/1000 - 2/100
        ("powerlog(1000,50)", "100", "is not admissible for p=100"),
        # log(1001)^1000 overflows, log(1001)^-1000 underflows to 0
        ("powerlog(1,1000,1000)", "2", "leaves the positive floats at t=1 (phi(1) = inf)"),
        ("powerlog(1,-1000,1000)", "2", "leaves the positive floats at t=1 (phi(1) = 0.0)"),
    ],
    ids=["damped-critical-point", "phi1-overflows", "phi1-underflows"],
)
def test_powerlog_outside_float_range_exits_64(capsys, phi, p, message):
    source = "s=0,p=%s,q=2,phi=%s,d=2" % (p, phi)
    code = main(["check", "--source", source, "--target", source])
    captured = capsys.readouterr()
    assert code == 64
    assert message in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_witness_refuses_positive_numin(tmp_path, capsys):
    pair = ["--source", "s=0,p=2,q=2,phi=power(2),d=1",
            "--target", "s=0.5,p=2,q=2,phi=power(2),d=1"]
    assert main(["witness", *pair, "--depth", "3", "--numin", "5"]) == 64
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nnumin = 1\n")
    assert main(["witness", *pair, "--config", str(cfg)]) == 64
    assert main(["witness", *pair, "--depth", "3", "--numin", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "numin must be <= 0\n" * 2


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("check", "numin", "-1075", "numin must be >= -1074"),
        ("check", "numin", "1", "numin must be <= 0"),
        ("check", "jmax", "1075", "jmax must be <= 1074"),
        ("check", "jmax", "-1", "jmax must be >= 0"),
        ("witness", "numin", "-1075", "numin must be >= -1074"),
        ("sweep", "numin", "-1075", "numin must be >= -1074"),
        ("sweep", "jmax", "1075", "jmax must be <= 1074"),
    ],
)
def test_sampled_window_is_bounded(tmp_path, capsys, command, flag, value, message):
    # the window stops at level 1074, that of the smallest float 2**-1074,
    # on both sides; past it, numin used to fill memory and jmax to print a
    # silent cond2 value=0.0
    cfg = tmp_path / "pair.ini"
    cfg.write_text(README_INI + "\n[sweep]\nsource.s = 1; 2\n")
    out = tmp_path / "out.jsonl"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "check":
        argv = argv[:3]
    assert main([*argv, "--" + flag, value]) == 64
    run = "[run]\n%s = %s\n" % (flag, value)
    cfg.write_text(README_INI.replace("[run]\njmax = 32\nnumin = -32\n", run)
                   + "\n[sweep]\nsource.s = 1; 2\n")
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (message + "\n") * 2)
    assert not out.exists()


def test_sampled_window_edges_are_accepted(capsys):
    pair = ["--source", HOLD_SRC, "--target", HOLD_TGT]
    assert main(["check", *pair, "--jmax", "1074", "--numin", "-1074"]) == 0
    assert main(["check", *pair, "--jmax", "0", "--numin", "0"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "exc, line",
    [
        (RuntimeError("broken\n  handler"), "RuntimeError: broken handler"),
        (KeyError(), "KeyError"),
    ],
)
def test_unexpected_exception_exits_70(monkeypatch, capsys, exc, line):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_norm", broken)
    assert cli.EXIT_INTERNAL == 70
    assert main(["norm", "--space", "s=0,p=2,q=2,phi=power(2),d=1", "--seq", "x.csv"]) == 70
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: %s\n" % line)


def test_analyze_returns_the_free_heap_when_it_ends(tmp_path, monkeypatch, capsys):
    # the freed heap one analyze call leaves behind would otherwise sit under
    # the next call's peak RSS in a process that calls main repeatedly
    trims = []
    monkeypatch.setattr(cli, "_malloc_trim", trims.append)
    samples = tmp_path / "samples.csv"
    save_samples(SampledFunction(d=1, js=3, offset=(0,), values=np.arange(8.0)), str(samples))
    space = "s=0.5,p=2,q=2,phi=power(2),d=1"
    assert main(["check", "--source", HOLD_SRC, "--target", HOLD_TGT]) == 0
    assert trims == []
    for extra in ([], ["--space", space]):
        assert main(["analyze", "--samples", str(samples), "--out", str(tmp_path / "c.csv"),
                     "--moments", "2", *extra]) == 0
    assert trims == [0, 0]
    assert "norm_estimate=" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cdll",
    [
        "raise OSError('no C library')",
        "raise TypeError('no handle for the program')",
        "return object()",
    ],
    ids=["no-library", "no-dlopen", "no-malloc-trim"],
)
def test_analyze_runs_without_malloc_trim(tmp_path, cdll):
    samples = tmp_path / "samples.csv"
    save_samples(SampledFunction(d=1, js=2, offset=(0,), values=[1.0, 2.0, 0.5, -1.0]), samples)
    code = "\n".join([
        "import ctypes, sys",
        "def cdll(name):",
        "    " + cdll,
        "ctypes.CDLL = cdll",
        "from besovmorrey import cli",
        "sys.exit(cli.main(%r))" % ["analyze", "--samples", str(samples), "--moments", "2"],
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("# besovmorrey analyze\n")


def test_one_parser_serves_every_call(tmp_path):
    # the parser is built once per process; a second run of the same calls,
    # an argparse error and --version among them, prints the same
    seq = tmp_path / "seq.csv"
    seq.write_text("# d=1\n0,0,1.0\n2,1,-0.5\n")
    calls = [
        ["check", "--source", HOLD_SRC, "--target", HOLD_TGT],
        ["witness", "--source", HOLD_TGT, "--target", HOLD_SRC, "--depth", "3"],
        ["norm", "--space", HOLD_SRC, "--seq", str(seq)],
        ["norm", "--space", HOLD_SRC],
        ["--version"],
    ]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
        return code, out.getvalue(), err.getvalue()

    first = [run(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 64, ("exit", 0)]
    assert "the following arguments are required: --seq" in first[3][2]
    assert [run(argv) for argv in calls + calls[:1]] == first + first[:1]
    assert cli._build_parser() is cli._build_parser()


def test_witness_past_the_old_cell_cap_builds_no_cell(capsys):
    # index 12, a block of 2^24 cells, used to be refused; each witness is
    # normed from its cube counts, so the scan runs to depth 40
    tracemalloc.start()
    try:
        code = main([
            "witness",
            "--source", "s=0,p=2,q=2,phi=capped(2),d=2",
            "--target", "s=0,p=2,q=2,phi=power(2),d=2",
            "--depth", "40",
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines()[-1].startswith("40,")
    assert peak < 1 << 24


def test_beta_witness_scan_reads_each_profile_level_once(capsys):
    # a scan that read R(nu) over nu_min..i afresh at each index i left the
    # profile cache holding 512 such windows: 19.5 MB here
    tracemalloc.start()
    try:
        code = main([
            "witness",
            "--source", "s=0,p=1,q=inf,phi=floorone(1),d=1",
            "--target", "s=0,p=1,q=0.5,phi=capped(4),d=1",
            "--depth", "300", "--numin", "-1074",
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "" and "family=beta" in captured.out
    assert captured.out.splitlines()[-1].startswith("300,")
    assert peak < 1 << 24


def test_witness_at_any_depth_ends_at_the_float_range(capsys):
    # 2^(2 i) cells leave the floats at index 512; the scan used to list
    # every index up to the depth first, and ran out of memory
    tracemalloc.start()
    try:
        code = main([
            "witness",
            "--source", "s=0,p=2,q=2,phi=capped(2),d=2",
            "--target", "s=0,p=2,q=2,phi=power(2),d=2",
            "--depth", "1000000000",
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 66 and captured.out == ""
    assert captured.err == (
        "witness: the index-512 witness leaves the float range; lower --depth\n"
    )
    assert peak < 1 << 24


@pytest.mark.parametrize(
    "source, target, depth, value",
    [
        ("s=-300,p=2,q=0.5,phi=powerlog(2000.0,0),d=1",
         "s=0.5,p=1,q=2,phi=twopower(1000.0,2000.0),d=1", ["--depth", "12"], "inf"),
        ("s=-300,p=1,q=inf,phi=capped(1),d=1",
         "s=0.5,p=100,q=2,phi=capped(1000),d=1", [], "inf"),
        ("s=300,p=1,q=0.5,phi=const(1),d=1",
         "s=300,p=1000000.0,q=0.001,phi=const(1),d=1", ["--depth", "12"], "0.0"),
    ],
    ids=["rho-1-overflows", "rho-below-1-overflows", "underflows-to-empty"],
)
def test_witness_coefficient_outside_float_range_exits_66(capsys, source, target, depth, value):
    # 2**(-i*s) used to raise OverflowError, and a coefficient that underflowed
    # to 0 left an empty witness whose norm ratio was 0/0; both exited 70
    assert main(["witness", "--source", source, "--target", target, *depth]) == 66
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "witness: index 4: the level-4 witness coefficient %s is not finite and positive; "
        "lower --depth\n" % value
    )


@pytest.mark.parametrize(
    "source, target, depth, index",
    [
        ("s=1.25,p=0.5,q=2,phi=power(0.5),d=3",
         "s=2.0,p=1.0,q=2,phi=capped(2),d=3", "200", 180),
        ("s=0.5,p=0.25,q=2,phi=power(0.5),d=2",
         "s=-0.75,p=0.5,q=inf,phi=twopower(2,4),d=2", "300", 269),
    ],
    ids=["d3", "d2"],
)
def test_witness_source_profile_underflowing_at_a_beta_level_exits_66(
        capsys, source, target, depth, index):
    # phi1(2^-i) = 2^(-6 i) or 2^(-4 i) underflows to 0 and the beta
    # coefficient divides by it: that raised ZeroDivisionError and exited 70
    assert main(["witness", "--source", source, "--target", target, "--depth", depth]) == 66
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "witness: index %d: the level-%d witness coefficient leaves the float range: it "
        "divides by phi1(2^-%d), which underflows to 0; lower --depth\n" % (index, index, index)
    )


_USUAL = {
    "s": ["0", "0.5", "-2", "3"],
    "p": ["2", "1", "0.5", "4"],
    "q": ["2", "1", "0.5", "inf"],
    "arg": ["2", "1", "4", "0.5", "1000.0"],
}
_ODD = {
    "s": ["-1e308", "-300", "300", "1e308", "inf", "nan"],
    "p": ["5e-324", "0.001", "100", "1000000.0", "0", "-1", "inf"],
    "q": ["0.001", "1e308", "0", "-1", "nan"],
    "arg": ["0", "-1", "5e-324", "1e308", "inf", "nan", "x"],
}


_SQRT_TABLE = Path(__file__).parent / "data" / "sweep_small" / "sqrt_table.csv"


def _space_strategies(odd):
    """Draws for s, p, q and the profile: usual values only, or odd ones
    among them, malformed profiles included.  The knot table t^(1/2) on
    [2^-40, 2^48] makes exit 2 and the per-level extrapolation error
    reachable."""
    value = {key: st.sampled_from(_USUAL[key] + (_ODD[key] if odd else [])) for key in _USUAL}
    profiles = [
        st.just("table(%s)" % _SQRT_TABLE),
        st.builds("{}({})".format, st.sampled_from(["power", "capped", "floorone", "const"]),
                  value["arg"]),
        st.builds("{}({},{})".format, st.sampled_from(["twopower", "powerlog", "cappedlog"]),
                  value["arg"], value["arg"]),
    ]
    if odd:
        profiles += [
            st.builds("powerlog({},{},{})".format, value["arg"], value["arg"], value["arg"]),
            st.sampled_from(["power()", "power(1,2,3)", "nope(1)", "table(missing.csv)", ""]),
        ]
    return value, st.one_of(profiles)


_SPACES = (_space_strategies(False), _space_strategies(True))
_TIED = st.sampled_from(["power", "capped", "floorone"])


@st.composite
def _block(draw):
    """A space block without d, odd one block in three.  Half the profiles
    are t^(d/p), capped or floored at 1, which is admissible for that p
    wherever p is."""
    value, profiles = _SPACES[draw(st.integers(0, 2)) == 2]
    p = draw(value["p"])
    phi = draw(profiles) if draw(st.booleans()) else "%s(%s)" % (draw(_TIED), p)
    return "s=%s,p=%s,q=%s,phi=%s" % (draw(value["s"]), p, draw(value["q"]), phi)


@st.composite
def _command_lines(draw):
    """A check or witness command line: two space blocks of one dimension
    (the target's sometimes left to inherit it) and the window flags at
    their edges."""
    command = draw(st.sampled_from(["check", "witness"]))
    d = draw(st.sampled_from(["1", "2", "3"] * 2 + ["40", "300"]))
    argv = [command, "--source", draw(_block()) + ",d=" + d,
            "--target", draw(_block()) + draw(st.sampled_from([",d=" + d, ""]))]
    edges = {
        "--numin": ["-1075", "-1074", "-64", "-1", "0", "1"],
        "--jmax": ["-1", "0", "1", "64", "1074", "1075"],
        "--depth": ["-1", "0", "1", "12", "40", "300"],
    }
    for flag in ("--numin", "--jmax" if command == "check" else "--depth"):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(edges[flag]))]
    if command == "check" and draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(derandomize=True, deadline=None, max_examples=150)
@given(argv=_command_lines())
def test_fuzz_check_and_witness_command_lines(argv):
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = err.getvalue()
    assert code in (0, 1, 2, 64, 65, 66), (argv, err)
    assert "Traceback" not in err
    one_line = err.endswith("\n") and err.count("\n") == 1
    assert one_line if code >= 64 else err == "" or one_line, (argv, err)
    assert peak < 1 << 24, (argv, peak)


# coefficient files for the norm fuzz: per dimension, cells near the +-2^62
# coordinate bound, and levels 0 and 1022, with values far from 1
_NORM_FILES = {
    "far": lambda d: [
        (j, [sign * ((1 << 62) - k) for k in range(d)], value)
        for j, sign, value in [(0, 1, 1.5), (3, -1, -2e-300), (3, 1, 7e300), (60, -1, 0.25)]
    ],
    "deep": lambda d: [
        (j, [k - 1 for k in range(d)], value)
        for j, value in [(0, 1.0), (0, -3e-300), (1022, 2e300), (1022, 5e-324)]
    ],
    "mixed": lambda d: [
        (j, [sign * (1 << 62)] + [k for k in range(1, d)], value)
        for j, sign, value in [(0, -1, 1.0), (1022, 1, -1e-5), (511, -1, 1e10)]
    ],
}


@pytest.fixture(scope="module")
def norm_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("norm_fuzz")
    paths = {}
    for d in (1, 2, 3):
        for name, rows in _NORM_FILES.items():
            path = root / ("%s_d%d.csv" % (name, d))
            with path.open("w") as fh:
                fh.write("# d=%d\n" % d)
                for j, m, value in rows(d):
                    fh.write("%d,%s,%r\n" % (j, ",".join(map(str, m)), value))
            paths[name, d] = str(path)
    return paths


@st.composite
def _norm_command_lines(draw, files):
    """A norm command line over one of the fuzz files: a space block of the
    file's dimension, of another one or of none."""
    d = draw(st.sampled_from([1, 2, 3]))
    path = files[draw(st.sampled_from(sorted(_NORM_FILES))), d]
    dim = draw(st.sampled_from([",d=%d" % d] * 4 + [",d=%d" % (d % 3 + 1), ""]))
    return ["norm", "--space", draw(_block()) + dim, "--seq", path]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_fuzz_norm_command_lines(norm_files, data):
    argv = data.draw(_norm_command_lines(norm_files))
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = err.getvalue()
    assert code in (0, 64, 65), (argv, err)
    assert "Traceback" not in err
    assert err == "" if code == 0 else err.endswith("\n") and err.count("\n") == 1, (argv, err)
    assert peak < 1 << 24, (argv, peak)


# sample files for the analyze fuzz: per dimension and sampling level, boxes
# of cells cycling through plain values, values at the float edges, only
# subnormals, and only the largest float; the second cell is missing from
# each, so it reads as zero
_SAMPLE_FILLS = {
    "plain": [1.0, -2.5, 0.5, 0.0],
    "edges": [1.0, -2.5, 5e-324, 1e308, 0.0, -1e308],
    "tiny": [5e-324, -5e-324, 0.0],
    "huge": [1e308],
}


@pytest.fixture(scope="module")
def sample_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("analyze_fuzz")
    paths = {}
    for (name, fill), d, js in itertools.product(_SAMPLE_FILLS.items(), (1, 2, 3), range(5)):
        cells = list(itertools.product(range(2 ** js), repeat=d))
        rows = [(m, fill[i % len(fill)]) for i, m in enumerate(cells) if i != 1]
        path = root / ("%s_d%d_js%d.csv" % (name, d, js))
        with path.open("w") as fh:
            fh.write("# d=%d js=%d\n" % (d, js))
            fh.writelines("%s,%r\n" % (",".join(map(str, m)), value) for m, value in rows)
        paths[name, d, js] = str(path)
    # order 11 is the first factorised one; its 60-digit arithmetic runs
    # once per process and takes seconds under tracemalloc, so it runs here
    # rather than in the first command line that asks for it
    daubechies_system(11)
    return paths


@st.composite
def _analyze_command_lines(draw, files, out):
    """An analyze command line over one of the fuzz files: a space block of
    the file's dimension, of another one or of none; --moments, --depth and
    --prune at their edges, the refused ones drawn less often; and --out to
    a fresh file or not given.  One draw in ten has neither a space nor
    --moments."""
    d, js = draw(st.sampled_from([1, 2, 3])), draw(st.integers(0, 4))
    argv = ["analyze", "--samples", files[draw(st.sampled_from(sorted(_SAMPLE_FILLS))), d, js]]
    given = draw(st.sampled_from([("--space",), ("--moments",), ("--space", "--moments")] * 3
                                 + [()]))
    if "--space" in given:
        dim = draw(st.sampled_from([",d=%d" % d] * 4 + [",d=%d" % (d % 3 + 1), ""]))
        argv += ["--space", draw(_block()) + dim]
    edges = {
        "--moments": ["1", "2", "10", "11"] * 3 + ["-1", "0", "31", "1000000"],
        "--depth": ["0", "1", str(js)] * 2 + ["-1", str(js + 1)],
        "--prune": ["0", "1e-11", "1", "-1", "5e-324", "inf", "nan"],
    }
    for flag, values in edges.items():
        if flag in given or flag != "--moments" and draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        out.unlink(missing_ok=True)
        argv += ["--out", str(out)]
    return argv


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_fuzz_analyze_command_lines(sample_files, tmp_path_factory, data):
    out_path = tmp_path_factory.getbasetemp() / "out.csv"
    argv = data.draw(_analyze_command_lines(sample_files, out_path))
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = err.getvalue()
    assert code in (0, 64, 65), (argv, err)
    assert "Traceback" not in err
    assert err == "" if code == 0 else err.endswith("\n") and err.count("\n") == 1, (argv, err)
    assert peak < 1 << 24, (argv, peak)


@pytest.mark.parametrize("space", [[], ["--space", "s=0.5,p=2,q=2,phi=power(2),d=3"]],
                         ids=["no-space", "space"])
def test_analyze_memory_corner(sample_files, tmp_path, capsys, space):
    # the fuzz gate's largest draw: 208837 rows from a d=3, js=4 box at
    # order 11; the rows stream from the dense bands, so the peak is set by
    # the cascade and the norm estimate, at under half of the gate's 2^24
    out = tmp_path / "coeffs.csv"
    argv = ["analyze", "--samples", sample_files["plain", 3, 4], "--moments", "11", *space,
            "--out", str(out)]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().err) == (0, "")
    assert peak < 1 << 23, peak
    assert len(out.read_text().splitlines()) == 5 + 208837


def _outcome_by_rule(cond0, cond2):
    """The outcome the two condition statuses give."""
    if "violated" in (cond0, cond2):
        return "fails"
    return "holds" if cond0 == cond2 == "satisfied" else "undetermined"


def _ini_lines(block):
    """An inline space block as INI key = value lines."""
    return ["%s = %s" % tuple(item.split("=", 1)) for item in re.split(r",(?=\w+=)", block)]


def _sweep_values(value, profiles):
    """Per sweep field, one to three alternatives from the pools, and "x"
    for a field that does not exist."""
    pools = dict(value, phi=profiles, d=st.sampled_from(["1", "2", "3", "0", "1.5"]),
                 x=value["s"])
    return {field: st.lists(pool, min_size=1, max_size=3) for field, pool in pools.items()}


_SWEEP_VALUES = [_sweep_values(*spaces) for spaces in _SPACES]
_SWEEP_KEYS = st.lists(
    st.tuples(st.sampled_from(["source", "target"] * 8 + ["other"]),
              st.sampled_from(["s", "p", "q", "phi", "phi", "d"] * 4 + ["x"])),
    min_size=1, max_size=3, unique=True,
)
_RARELY = st.sampled_from([False] * 15 + [True])
# the window edges: in range three draws in four, "x" only from the config
_WINDOW_EDGES = {
    key: st.sampled_from(inside * 3 + outside)
    for key, inside, outside in [
        ("numin", ["-1074", "-64", "-1", "0"], ["-1075", "1"]),
        ("jmax", ["0", "1", "64", "1074"], ["-1", "1075"]),
    ]
}


@st.composite
def _sweep_configs(draw):
    """A sweep config: [source] and [target] from two space blocks (the
    target's d sometimes left to inherit), a [sweep] of one to three keys
    with one to three alternatives each (an odd key or an empty one now
    and then), a window from [run] or the flags at their edges, and now
    and then a byte that is not UTF-8."""
    bad_byte = draw(_RARELY)  # drawn first: drawn last, it was False in all 150 examples
    d = draw(st.sampled_from(["1", "2", "3"]))
    lines = ["[source]"] + _ini_lines(draw(_block())) + ["d = " + d]
    lines += ["[target]"] + _ini_lines(draw(_block()))
    if draw(st.booleans()):
        lines.append("d = " + d)
    lines.append("[sweep]")
    for side, field in draw(_SWEEP_KEYS):
        values = draw(_SWEEP_VALUES[draw(st.integers(0, 3)) == 3][field])
        if draw(_RARELY):
            values = []
        lines.append("%s.%s = %s" % (side, field, "; ".join(values)))
    lines.append("[run]")
    argv = ["sweep"]
    for key in ("jmax", "numin"):
        where = draw(st.sampled_from(["run", "flag", None]))
        edge = draw(_WINDOW_EDGES[key])
        if where == "run":
            lines.append("%s = %s" % (key, "x" if draw(_RARELY) else edge))
        elif where == "flag":
            argv += ["--" + key, edge]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if bad_byte:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, argv


@pytest.fixture(scope="module")
def sweep_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep_fuzz") / "grid.ini"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(config=_sweep_configs())
def test_fuzz_sweep_command_lines(sweep_config_path, config):
    # the grid cap is lowered so that small grids reach it; every decided
    # point must follow the outcome rule from its two condition statuses
    data, argv = config
    # a fresh file each time: rewriting one in place can be slow on some file systems
    sweep_config_path.unlink(missing_ok=True)
    sweep_config_path.write_bytes(data)
    with mock.patch.object(cli, "MAX_SWEEP", 12):
        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--config", str(sweep_config_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    err = err.getvalue()
    assert code in (0, 64, 65, 66), (data, argv, err)
    assert "Traceback" not in err
    assert err == "" if code == 0 else err.endswith("\n") and err.count("\n") == 1, (data, err)
    assert peak < 1 << 24, (data, argv, peak)
    for line in out.getvalue().splitlines()[1:]:
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True), line  # a spliced record
        if record["outcome"] != "error":
            rule = _outcome_by_rule(record["cond0_status"], record["cond2_status"])
            assert record["outcome"] == rule, (data, record)


def test_witness_goldens_match_byte_for_byte(tmp_path, monkeypatch, capsys):
    # the argv list CI runs: one pair per family in d = 1 and d = 2, a
    # table pair, and two depths that end with exit 66 and write no file
    data = Path(__file__).parent / "data" / "witness_scans"
    monkeypatch.chdir(data)
    for line in (data / "argv.txt").read_text().splitlines():
        name, *args = line.split()
        out = tmp_path / (name + ".csv")
        code = cli.main(["witness", *args, "--out", str(out)])
        assert "%d\n" % code == (data / (name + ".code")).read_text(), name
        assert capsys.readouterr().err == (data / (name + ".err")).read_text(), name
        expected = data / (name + ".csv")
        assert out.exists() == expected.exists(), name
        if expected.exists():
            assert out.read_bytes() == expected.read_bytes(), name
