"""The benchmark's tracer against the package's call graph.

``bench/tracer.py`` wraps the functions it traces at every module that
binds them, and refuses to install when a binding it relies on is gone.
Installing a fresh tracer here makes a deletion that drops such a name fail
the tier-1 suite, not only a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

from besovmorrey import cli, dyadic

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
    # n_norms reaches n_norm and level_quantity through the module's
    # bindings, so the trace counts every norm of every witness
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["witness", "--source", "s=0,p=2,q=2,phi=capped(2),d=1",
                         "--target", "s=0,p=2,q=2,phi=power(2),d=1", "--depth", "3"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    calls = dict(zip(tracer.names, (row[0] for row in tracer.agg)))
    assert calls["dyadic.n_norm"] > 0 and calls["dyadic.level_quantity"] > 0


def test_tracer_counts_one_decide_per_sweep_point(tmp_path, monkeypatch, capsys):
    # tests/data/sweep_small has 72 grid points, 18 of them error records; a
    # table source is decided inside decide too, so the trace sees every point
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
    assert calls["embedding.decide"] == 54
