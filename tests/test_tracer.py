"""The benchmark's tracer against the package's call graph.

``bench/tracer.py`` wraps the functions it traces at every module that
binds them, and refuses to install when a binding it relies on is gone.
Installing a fresh tracer here makes a deletion that drops such a name fail
the tier-1 suite, not only a traced benchmark run.
"""

import importlib.util
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
