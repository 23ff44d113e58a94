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
from deci.cli import main

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


def test_traced_train_counts_clipping_backward_and_steps(monkeypatch, tmp_path):
    # the tracer reads backward_batch's branch from args[1] and the clip
    # bound from clip_gradients' args[1]; a tiny train run exercises both
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    small = ["--data.n_labels", "4", "--data.vocab_size", "60", "--data.n_train", "40",
             "--data.n_dev", "8", "--data.n_test", "0", "--model.embed_dim", "6",
             "--model.hidden_dim", "6", "--model.n_experts", "2", "--train.epochs", "1"]
    data = tmp_path / "data"
    assert main(["gen-data", *small, "--out", str(data)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["train", *small, "--train.grad_clip_norm", "1e-9", "--data.dir", str(data),
                     "--run.dir", str(tmp_path / "run")]) == 0
    finally:
        tracer.uninstall()
    metrics = {name: m["value"] for name, m in tracer.metrics(1.0, 0.0).items()}
    steps = 2  # 40 notes, batches of 32
    assert metrics["training.clip_gradients.calls"] == steps
    assert metrics["training.clipped_ratio"] == 1.0
    assert metrics["model.backward_batch.full.calls"] == steps
    assert metrics["model.backward_batch.demo.calls"] == steps
    assert metrics["training.step_ms_p50"] > 0
    # the demographic view is forwarded on distinct (age, gender) cells only
    assert metrics["model.forward_batch.demo.rows_per_cell"] == 1.0
