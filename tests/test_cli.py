"""End-to-end command line flows: gen-data, train, eval, predict.

Everything runs in-process through main(argv) so exit codes are asserted
directly. A small corpus and model keep the whole module fast.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import deci
from deci import training
from deci.cli import DEFAULTS, main
from deci.corpus import load_jsonl
from deci.training import load_checkpoint

SRC_DIR = str(Path(deci.__file__).resolve().parent.parent)

TINY = [
    "--data.n_labels", "6",
    "--data.vocab_size", "80",
    "--data.n_train", "80",
    "--data.n_dev", "30",
    "--data.n_test", "30",
    "--data.doc_len", "8",
    "--model.embed_dim", "12",
    "--model.hidden_dim", "12",
    "--model.n_experts", "2",
    "--model.max_len", "10",
    "--train.epochs", "2",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated corpus and one trained checkpoint, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", *TINY, "--out", str(data)]) == 0
    assert main(["train", *TINY, "--data.dir", str(data), "--run.dir", str(run)]) == 0
    return data, run


def test_gen_data_writes_expected_files(pipeline):
    data, _ = pipeline
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "labels.txt", "manifest.json"):
        assert (data / name).exists(), name
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["counts"] == {"train": 80, "dev": 30, "test": 30}
    assert manifest["config"]["data.n_labels"] == 6
    assert len((data / "labels.txt").read_text().splitlines()) == 6
    assert sum(1 for _ in open(data / "train.jsonl")) == 80


def test_gen_data_deterministic(pipeline, tmp_path):
    data, _ = pipeline
    again = tmp_path / "again"
    assert main(["gen-data", *TINY, "--out", str(again)]) == 0
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "labels.txt"):
        assert (again / name).read_bytes() == (data / name).read_bytes(), name


def test_gen_data_validates_before_writing(tmp_path):
    out = tmp_path / "never"
    # vocab budget cannot hold the keyword table: config error, nothing written
    assert main(["gen-data", *TINY, "--data.vocab_size", "10", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--train.lr", "nan"],
    ["--model.max_len", "1"],
    ["--model.n_experts", "0"],
    ["--train.lr", "nan", "--model.max_len", "1"],
])
def test_gen_data_refuses_what_train_refuses(tmp_path, capsys, flags):
    # the manifest echoes every key, so gen-data checks the model and train
    # sections too, before anything is written
    out = tmp_path / "never"
    assert main(["gen-data", *TINY, *flags, "--out", str(out)]) == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--model.max_len", "1"], ["--model.n_experts", "0"]])
def test_train_checks_the_model_config_before_loading_data(tmp_path, capsys, flags):
    # the data dir does not exist: a config error is reported, not a missing file
    assert main(["train", "--data.dir", str(tmp_path / "absent"), "--run.dir", str(tmp_path / "run"),
                 *flags]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_outputs(pipeline):
    _, run = pipeline
    assert (run / "checkpoint.deci").exists()
    assert (run / "train_manifest.json").exists()
    records = [json.loads(ln) for ln in open(run / "epochs.jsonl")]
    assert [r["epoch"] for r in records] == [1, 2]
    assert all(r["dev_metrics"] is not None for r in records)


def test_train_reports_the_saved_epoch(pipeline, tmp_path, monkeypatch, capsys):
    # dev micro-F1 is made to peak at epoch 1 of 3, so the checkpoint holds
    # epoch 1, and train reports that epoch's dev metrics on the saved float32
    # parameters rather than the last epoch's
    data, _ = pipeline
    real = training.dev_metrics
    calls = []

    def peaks_first(*args):
        calls.append(None)
        return {**real(*args), "micro_f1": 1.0 / len(calls)}

    monkeypatch.setattr(training, "dev_metrics", peaks_first)
    run = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", *TINY, "--epochs", "3", "--data.dir", str(data),
                 "--run.dir", str(run)]) == 0
    assert len(calls) == 3
    summary = json.loads(capsys.readouterr().out)
    ckpt = load_checkpoint(run / "checkpoint.deci")
    dev = load_jsonl(data / "dev.jsonl", ckpt.label_space)
    expected = real(dev, ckpt.params, ckpt.vocab, ckpt.label_space, ckpt.max_len)
    assert summary == {"final_dev_metrics": expected, "selected_epoch": 1, "epochs": 3}
    manifest = json.loads((run / "train_manifest.json").read_text())
    assert manifest["selected_epoch"] == 1
    assert manifest["final_dev_metrics"] == expected
    # a one-epoch run saves the same arrays
    monkeypatch.undo()
    one = tmp_path / "one"
    assert main(["train", *TINY, "--epochs", "1", "--data.dir", str(data),
                 "--run.dir", str(one)]) == 0
    for name, arr in load_checkpoint(one / "checkpoint.deci").params.named_arrays().items():
        np.testing.assert_array_equal(arr, ckpt.params.named_arrays()[name])


def test_train_aliases_and_keys_resolve_in_order(pipeline, tmp_path, capsys):
    data, _ = pipeline
    run = tmp_path / "run"
    assert main(["train", *TINY, "--train.alpha", "0.9", "--alpha", "0.25", "--beta=0.75",
                 "--train.epochs=1", "--data.dir", str(data), "--run.dir", str(run)]) == 0
    config = json.loads((run / "train_manifest.json").read_text())["config"]
    assert (config["train.alpha"], config["train.beta"], config["train.epochs"]) == (0.25, 0.75, 1)
    # the manifest echoes every key in the order of DEFAULTS
    assert list(config) == list(DEFAULTS)
    assert json.loads(capsys.readouterr().out)["epochs"] == 1


def test_eval_single_mode(pipeline, capsys):
    data, run = pipeline
    assert main(["eval", "--data.dir", str(data), "--run.dir", str(run)]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["report"]
    assert report["mode"] == "deci"
    assert report["n_docs"] == 30
    assert report["disparity"]["label"] == "C000"
    assert set(report["p_at_k"]) == {"5"}


def test_eval_deci_and_knowledge_only_threshold_identically(pipeline, capsys):
    data, run = pipeline
    base = ["eval", "--data.dir", str(data), "--run.dir", str(run)]
    assert main([*base, "--mode", "deci"]) == 0
    deci = json.loads(capsys.readouterr().out)["report"]
    assert main([*base, "--mode", "knowledge-only"]) == 0
    ko = json.loads(capsys.readouterr().out)["report"]
    assert deci["micro_f1"] == ko["micro_f1"]
    assert deci["per_label_f1"] == ko["per_label_f1"]
    # ranking metrics may differ between the two scores; micro AUC is not tied


def test_eval_ablation_table(pipeline, capsys):
    data, run = pipeline
    assert main(["eval", "--ablate", "--data.dir", str(data), "--run.dir", str(run),
                 "--out", "/dev/null"]) == 0
    table = capsys.readouterr().out
    for mode in ("deci", "naive", "knowledge-only", "wo-zd", "wo-ze"):
        assert mode in table
    assert "fpr_gap" in table


def test_eval_ablation_json_payload(pipeline, tmp_path, capsys):
    data, run = pipeline
    out = tmp_path / "report.json"
    assert main(["eval", "--ablate", "--data.dir", str(data), "--run.dir", str(run),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert set(payload["ablation"]) == {"deci", "naive", "knowledge-only", "wo-zd", "wo-ze"}


def test_eval_rejects_unknown_mode(pipeline):
    data, run = pipeline
    assert main(["eval", "--mode", "oracle", "--data.dir", str(data), "--run.dir", str(run)]) == 1


def test_eval_rejects_missing_checkpoint(pipeline, tmp_path):
    data, _ = pipeline
    assert main(["eval", "--data.dir", str(data), "--run.dir", str(tmp_path)]) == 2


def test_eval_rejects_corrupt_checkpoint(pipeline, tmp_path):
    data, run = pipeline
    bad_run = tmp_path / "run"
    bad_run.mkdir()
    blob = (run / "checkpoint.deci").read_bytes()
    (bad_run / "checkpoint.deci").write_bytes(b"XXXX" + blob[4:])
    assert main(["eval", "--data.dir", str(data), "--run.dir", str(bad_run)]) == 2
    # truncation is also a format error, not a crash
    (bad_run / "checkpoint.deci").write_bytes(blob[: len(blob) // 2])
    assert main(["eval", "--data.dir", str(data), "--run.dir", str(bad_run)]) == 2


def test_eval_rejects_label_space_mismatch(pipeline, tmp_path):
    data, run = pipeline
    other = tmp_path / "data"
    other.mkdir()
    for name in ("test.jsonl",):
        (other / name).write_bytes((data / name).read_bytes())
    (other / "labels.txt").write_text("C000\nC001\n")
    assert main(["eval", "--data.dir", str(other), "--run.dir", str(run)]) == 2


def test_predict_scores_every_document(pipeline, capsys):
    data, run = pipeline
    assert main(["predict", "--run.dir", str(run), str(data / "test.jsonl")]) == 0
    out = capsys.readouterr().out
    # the input may also come first, and the key may take its value after "="
    assert main(["predict", str(data / "test.jsonl"), f"--run.dir={run}"]) == 0
    assert capsys.readouterr().out == out
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert len(lines) == 30
    labels = set((data / "labels.txt").read_text().split())
    for line in lines:
        assert set(line) == {"doc_id", "codes", "scores"}
        assert len(line["scores"]) == 6
        assert set(line["codes"]) <= labels
        assert all(0.0 <= s <= 1.0 for s in line["scores"])


def test_predict_handles_unknown_tokens(pipeline, tmp_path, capsys):
    _, run = pipeline
    path = tmp_path / "docs.jsonl"
    rec = {"id": "x", "text": "totally unseen words only", "age": 80, "gender": "F", "codes": []}
    path.write_text(json.dumps(rec) + "\n")
    assert main(["predict", "--run.dir", str(run), str(path)]) == 0
    line = json.loads(capsys.readouterr().out)
    assert line["doc_id"] == "x"
    assert all(0.0 <= s <= 1.0 for s in line["scores"])


def test_predict_accepts_notes_without_codes(pipeline, tmp_path, capsys):
    _, run = pipeline
    rec = {"id": "u", "text": "k000w0 k001w0", "age": 70, "gender": "M"}
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text(json.dumps(rec) + "\n")
    labeled = tmp_path / "labeled.jsonl"
    labeled.write_text(json.dumps({**rec, "codes": ["C000"]}) + "\n")
    assert main(["predict", "--run.dir", str(run), str(unlabeled)]) == 0
    out = capsys.readouterr().out
    line = json.loads(out)
    assert line["doc_id"] == "u"
    assert len(line["scores"]) == 6
    # gold codes never reach the scores
    assert main(["predict", "--run.dir", str(run), str(labeled)]) == 0
    assert capsys.readouterr().out == out


def test_predict_empty_input(pipeline, tmp_path, capsys):
    _, run = pipeline
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["predict", "--run.dir", str(run), str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_predict_rejects_malformed_jsonl(pipeline, tmp_path):
    _, run = pipeline
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n")
    assert main(["predict", "--run.dir", str(run), str(path)]) == 2


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["gen-data", "--no-such-flag", "1"]) == 1
    assert main([]) == 1
    # config flags follow the command
    assert main(["--seed", "1", "gen-data"]) == 1
    # aliases belong to one command each
    assert main(["train", "--mode", "deci"]) == 1
    assert main(["eval", "--alpha", "0.3"]) == 1
    # keys are exact names, not prefixes
    assert main(["gen-data", "--data.n_lab", "6"]) == 1
    # after "--" nothing is a flag
    assert main(["gen-data", "--", "--seed", "1"]) == 1
    capsys.readouterr()
    assert main(["gen-data", "--seed"]) == 1
    assert capsys.readouterr().err == "error: argument --seed: expected one argument\n"
    assert main(["gen-data", "--data.dir", "--out", "x"]) == 1
    assert capsys.readouterr().err == "error: argument --data.dir: expected one argument\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "{gen-data,train,eval,predict}" in capsys.readouterr().out
    assert main(["train", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: deci train [-h] [--config PATH] [--out PATH]\n")


def test_bad_flag_value_exits_one(tmp_path):
    assert main(["gen-data", "--train.alpha", "notanumber", "--out", str(tmp_path / "d")]) == 1
    assert main(["gen-data", "--data.n_labels", "2.5", "--out", str(tmp_path / "d")]) == 1


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train.alpha": 0.9, "data.n_labels": 6,
                                    "data.vocab_size": 80, "data.n_train": 20,
                                    "data.n_dev": 0, "data.n_test": 0,
                                    "data.doc_len": 8}))
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg_path), "--alpha", "0.3",
                 "--out", str(out)]) == 1  # --alpha is a train alias, not global
    capsys.readouterr()
    assert main(["gen-data", "--config", str(cfg_path), "--train.alpha", "0.3",
                 "--data.doc_len=9", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train.alpha"] == 0.3  # flag beats file
    assert manifest["config"]["data.doc_len"] == 9  # so does a --key=value flag
    assert manifest["config"]["data.n_labels"] == 6  # file beats default
    assert manifest["config"]["train.beta"] == DEFAULTS["train.beta"]


def test_defaults_keep_their_keys_order_and_values():
    # manifests echo the config in this order, so it is part of the output
    expected = [
        ("seed", 0), ("data.dir", "data"),
        ("data.n_labels", 20), ("data.vocab_size", 1000), ("data.n_train", 2000),
        ("data.n_dev", 500), ("data.n_test", 500), ("data.doc_len", 24),
        ("data.keywords_per_label", 1), ("data.confounded_label", 0),
        ("data.confound_attribute", "age>=65"), ("data.p_conf_train", 0.9),
        ("data.p_conf_test", 0.5), ("data.noise_rate", 0.9), ("data.label_skew", 1.25),
        ("model.embed_dim", 100), ("model.hidden_dim", 100), ("model.n_experts", 4),
        ("model.max_len", 16),
        ("train.alpha", 0.5), ("train.beta", 0.5), ("train.lr", 1e-3), ("train.epochs", 6),
        ("train.batch_size", 32), ("train.adam_beta1", 0.9), ("train.adam_beta2", 0.999),
        ("train.adam_eps", 1e-8), ("train.grad_clip_norm", 5.0),
        ("run.dir", "run"), ("eval.mode", "deci"), ("eval.ks", [5]),
    ]
    assert len(expected) == 31
    assert list(DEFAULTS.items()) == expected
    # the type of a default decides how its flag is parsed
    assert [type(v) for v in DEFAULTS.values()] == [type(v) for _, v in expected]


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    bad.write_text(json.dumps({"data.unknown_knob": 1}))
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    bad.write_text(json.dumps(["not", "an", "object"]))
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    # list elements follow the int rule: no truncated float, no bool
    for ks in ([2.7], [True]):
        capsys.readouterr()
        bad.write_text(json.dumps({"eval.ks": ks}))
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
        assert "bad value for eval.ks" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("key", ["model.gate_per_label", "train.stop_bias_encoder_grad"])
def test_removed_config_keys_are_unknown(tmp_path, capsys, key):
    # the model has one gate and one objective: no flag or config file may
    # ask for the pooled gate or the encoder gradient stop
    assert main(["train", f"--{key}", "true", "--out", str(tmp_path / "r")]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: True}))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not (tmp_path / "r").exists()


def test_clip_norm_accepts_inf_not_null(tmp_path):
    # inf disables clipping; no key takes null
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train.grad_clip_norm": "inf", "data.n_labels": 6,
                                    "data.vocab_size": 80, "data.n_train": 20,
                                    "data.n_dev": 0, "data.n_test": 0,
                                    "data.doc_len": 8}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["config"]["train.grad_clip_norm"] == "inf"
    for value in (None, "none"):
        cfg_path.write_text(json.dumps({"train.grad_clip_norm": value}))
        assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d2")]) == 1
    assert main(["gen-data", "--train.grad_clip_norm", "null", "--out", str(tmp_path / "d2")]) == 1
    cfg_path.write_text(json.dumps({"train.alpha": None}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d2")]) == 1
    assert not (tmp_path / "d2").exists()


@pytest.mark.parametrize("command, key", [
    ("train", "train.alpha"), ("train", "train.beta"), ("train", "train.lr"),
    ("train", "train.adam_eps"), ("train", "train.grad_clip_norm"),
    ("gen-data", "data.label_skew"),
])
def test_nan_config_values_exit_one_before_writing(pipeline, tmp_path, capsys, command, key):
    data, _ = pipeline
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *TINY, f"--{key}", "nan", "--data.dir", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_config_echo_is_strict_json_and_reruns(pipeline, tmp_path):
    # a non-finite value is echoed as the string "inf", never as Infinity
    data, _ = pipeline
    run, again, gen = tmp_path / "run", tmp_path / "again", tmp_path / "gen"
    inf = ["--train.grad_clip_norm", "inf"]
    assert main(["gen-data", *TINY, *inf, "--out", str(gen)]) == 0
    assert main(["train", *TINY, *inf, "--data.dir", str(data), "--run.dir", str(run)]) == 0
    ckpt = (run / "checkpoint.deci").read_bytes()
    texts = [(gen / "manifest.json").read_text(), (run / "train_manifest.json").read_text(),
             *(run / "epochs.jsonl").read_text().splitlines(),
             ckpt[ckpt.index(b'{"config": '):].decode("utf-8")]  # sort_keys puts config first
    parsed = [json.loads(text, parse_constant=_reject_constant) for text in texts]
    for doc in (parsed[0], parsed[1], parsed[-1]):
        assert doc["config"]["train.grad_clip_norm"] == "inf"
    (tmp_path / "echo.json").write_text(json.dumps(parsed[1]["config"]))
    # the echo reproduces the run; --out keeps run.dir, and so the echo, unchanged
    assert main(["train", "--config", str(tmp_path / "echo.json"), "--out", str(again)]) == 0
    assert (again / "checkpoint.deci").read_bytes() == ckpt


def test_eval_ks_parse_from_flag(pipeline, capsys):
    data, run = pipeline
    assert main(["eval", "--eval.ks", "1,3", "--data.dir", str(data),
                 "--run.dir", str(run)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["report"]["p_at_k"]) == {"1", "3"}


def test_eval_rejects_out_of_range_k(pipeline, capsys):
    data, run = pipeline
    capsys.readouterr()
    assert main(["eval", "--eval.ks", "0", "--data.dir", str(data), "--run.dir", str(run)]) == 1
    assert capsys.readouterr().err.startswith("error: k must be in")


def test_train_rejects_missing_data_dir(tmp_path):
    assert main(["train", "--data.dir", str(tmp_path / "nowhere"),
                 "--run.dir", str(tmp_path / "run")]) == 2


def test_train_rejects_empty_training_set(pipeline, tmp_path, capsys):
    data, _ = pipeline
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "labels.txt").write_bytes((data / "labels.txt").read_bytes())
    (empty / "train.jsonl").write_text("")
    capsys.readouterr()
    assert main(["train", *TINY, "--data.dir", str(empty), "--run.dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: empty training set\n"


def _blas_pinned_outputs(root, threads: int):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    # default model width, so the encoder GEMMs are large enough to be split
    # across threads; a small corpus and two epochs keep it to a few seconds
    sizes = ["--data.n_train", "256", "--data.n_dev", "64", "--data.n_test", "64",
             "--train.epochs", "2"]
    root.mkdir()
    for argv in (["gen-data"], ["train"], ["eval", "--ablate", "--out", "ablate.json"]):
        subprocess.run([sys.executable, "-m", "deci.cli", *argv, *sizes], cwd=root, env=env,
                       check=True, capture_output=True, timeout=300)
    return (root / "run" / "checkpoint.deci").read_bytes(), (root / "ablate.json").read_bytes()


def test_closed_stdout_exits_1_without_traceback(pipeline):
    # as under `deci eval --ablate | head -3`: the reader closes the pipe at once
    data, run = pipeline
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "deci.cli", "eval", "--ablate", *TINY,
         "--data.dir", str(data), "--run.dir", str(run)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=300)
    assert proc.returncode == 1
    assert b"Traceback" not in err


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    one = _blas_pinned_outputs(tmp_path / "one", 1)
    two = _blas_pinned_outputs(tmp_path / "two", 2)
    assert one[0] == two[0]
    assert one[1] == two[1]
