"""End-to-end command line flows: gen-data, train, eval, predict.

Everything runs in-process through main(argv) so exit codes are asserted
directly. A small corpus and model keep the whole module fast.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deci
from deci.cli import DEFAULTS, main

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


def test_train_outputs(pipeline):
    _, run = pipeline
    assert (run / "checkpoint.deci").exists()
    assert (run / "train_manifest.json").exists()
    records = [json.loads(ln) for ln in open(run / "epochs.jsonl")]
    assert [r["epoch"] for r in records] == [1, 2]
    assert all(r["dev_metrics"] is not None for r in records)


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
    lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
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
    capsys.readouterr()


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
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train.alpha"] == 0.3  # flag beats file
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
        ("model.max_len", 16), ("model.gate_per_label", True),
        ("train.alpha", 0.5), ("train.beta", 0.5), ("train.lr", 1e-3), ("train.epochs", 6),
        ("train.batch_size", 32), ("train.adam_beta1", 0.9), ("train.adam_beta2", 0.999),
        ("train.adam_eps", 1e-8), ("train.grad_clip_norm", 5.0),
        ("train.stop_bias_encoder_grad", False),
        ("run.dir", "run"), ("eval.mode", "deci"), ("eval.ks", [5]),
    ]
    assert list(DEFAULTS.items()) == expected
    # the type of a default decides how its flag is parsed
    assert [type(v) for v in DEFAULTS.values()] == [type(v) for _, v in expected]


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    bad.write_text(json.dumps({"data.unknown_knob": 1}))
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1
    bad.write_text(json.dumps(["not", "an", "object"]))
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")]) == 1


def test_optional_clip_norm_accepts_none(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train.grad_clip_norm": None, "data.n_labels": 6,
                                    "data.vocab_size": 80, "data.n_train": 20,
                                    "data.n_dev": 0, "data.n_test": 0,
                                    "data.doc_len": 8}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d")]) == 0
    # but a required key cannot be nulled
    cfg_path.write_text(json.dumps({"train.alpha": None}))
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "d2")]) == 1


def test_eval_ks_parse_from_flag(pipeline, capsys):
    data, run = pipeline
    assert main(["eval", "--eval.ks", "1,3", "--data.dir", str(data),
                 "--run.dir", str(run)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["report"]["p_at_k"]) == {"1", "3"}


def test_train_rejects_missing_data_dir(tmp_path):
    assert main(["train", "--data.dir", str(tmp_path / "nowhere"),
                 "--run.dir", str(tmp_path / "run")]) == 2


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


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    one = _blas_pinned_outputs(tmp_path / "one", 1)
    two = _blas_pinned_outputs(tmp_path / "two", 2)
    assert one[0] == two[0]
    assert one[1] == two[1]
