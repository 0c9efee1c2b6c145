"""The benchmark's tracer against the package's call graph.

``bench/tracer.py`` wraps the functions it traces at every module that
binds them, and refuses to install when a binding it relies on is gone.
Installing a fresh tracer here makes a deletion that drops such a name fail
the tier-1 suite, not only a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from besovmorrey import cli, dyadic
from besovmorrey.wavelet import SampledFunction, save_samples
from besovmorrey.witness import simple_witness

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package():
    original = dyadic.n_norm
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.n_norm is not original and dyadic.n_norm is not original
    finally:
        tracer.uninstall()
    assert cli.n_norm is original and dyadic.n_norm is original


def test_tracer_counts_the_norms_of_a_witness_scan(capsys):
    # n_norm reaches level_quantity through the module's binding, so the
    # trace counts every norm of a built witness; the scan norms its
    # witnesses from their plans, and the trace counts the scan and its
    # verdict
    spaces = [dyadic.parse_space_params("s=0,p=2,q=2,phi=%s,d=1" % phi)
              for phi in ("power(2)", "capped(2)")]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        seq = simple_witness(0, -3, spaces[1].phi)
        norms = [dyadic.n_norm(seq, params) for params in spaces]
        code = cli.main(["witness", "--source", "s=0,p=2,q=2,phi=capped(2),d=1",
                         "--target", "s=0,p=2,q=2,phi=power(2),d=1", "--depth", "3"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0 and norms[0] > norms[1]
    calls = dict(zip(tracer.names, (row[0] for row in tracer.agg)))
    assert calls["dyadic.n_norm"] == 2 and calls["dyadic.level_quantity"] == 2
    assert calls["witness.divergence_scan"] == 1 and calls["embedding.decide"] >= 1


def test_tracer_counts_one_decide_per_sweep_question(tmp_path, monkeypatch, capsys):
    # tests/data/sweep_small has 72 grid points, 18 of them error records,
    # and its 54 decided points ask 36 distinct questions; a table source is
    # decided inside decide too, so the trace sees every decision sweep makes
    monkeypatch.chdir(Path(__file__).parent / "data" / "sweep_small")
    out = tmp_path / "out.jsonl"
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["sweep", "--config", "grid.ini", "--out", str(out)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    decided = [r for r in records if r["outcome"] != "error"]
    assert (len(records), len(decided)) == (72, 54)
    assert any(r["method"] == "sampled" for r in decided)
    calls = dict(zip(tracer.names, (row[0] for row in tracer.agg)))
    assert calls["embedding.decide"] == 36


def test_tracer_sees_every_wavelet_layer_of_an_analyze_run(tmp_path, capsys):
    # the analyze workload's per-layer rows: the estimate's cascade, its
    # sequences and their norm, besides the output cascade
    samples = tmp_path / "samples.csv"
    save_samples(SampledFunction(d=2, js=3, offset=(0, 0),
                                 values=np.arange(64.0).reshape(8, 8) % 5), samples)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["analyze", "--samples", str(samples), "--space",
                         "s=0.5,p=2,q=2,phi=power(2),d=2", "--out", str(tmp_path / "c.csv")])
    finally:
        tracer.uninstall()
    assert code == 0 and capsys.readouterr().out.startswith("norm_estimate=")
    calls = dict(zip(tracer.names, (row[0] for row in tracer.agg)))
    for name in ("wavelet.analyze", "wavelet.function_norm_estimate",
                 "wavelet.detail_sequences", "dyadic.tilde_norm"):
        assert calls[name] >= 1, name
