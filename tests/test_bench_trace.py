"""The benchmark's layer tracer still finds every traced function.

bench/tracing.py wraps deci's public functions by module and name, and
raises TraceCoverageError when one is missing or still reachable unwrapped.
Installing it here makes a refactor that removes or rebinds a traced layer
fail the fast test suite, not only a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import deci.cli  # noqa: F401  (imports every layer module)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _deci_bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "deci" or name.startswith("deci.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    before = _deci_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert set(tracer.bindings) == {tracing._base_name(m, a) for m, a in tracing.TARGETS}
        assert all(tracer.bindings.values())
        assert _deci_bindings() != before
    finally:
        tracer.uninstall()
    assert _deci_bindings() == before
