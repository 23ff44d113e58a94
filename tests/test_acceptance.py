"""Acceptance suite. One test per shipped acceptance criterion; each prints a
single [PASS]/[FAIL] line (run with -s to see them) and then asserts.

Criteria:
  1. gradient suite on a tiny random model, rel err <= 1e-3, under 60 s
  2. structural identities, exact, over >= 100 random draws
  3. metric oracles: brute-force agreement to 1e-12 on 1,000 instances each
  4. overfit check: 16 docs, 200 epochs -> train micro-F1 = 1.0
  5. debias experiment over 5 seeds, under 600 s
  6. persistence: bit-exact reload, corrupt checkpoints exit 2
  7. determinism: two end-to-end runs are byte-identical
"""

import json
import time

import numpy as np
import pytest

from deci.cli import RunConfig, main
from deci.corpus import Document, SyntheticConfig, Vocabulary, generate_synthetic, synthetic_label_space
from deci.evaluation import InferenceMode, f1_scores, final_scores_from_z, precision_at_k, roc_auc, run_ablation
from deci.model import forward_batch, init_params, pathway_scores_batch
from deci.numerics import sigmoid
from deci.training import TrainConfig, load_checkpoint, save_checkpoint, train, total_loss, loss_and_grads
from gradcheck import finite_difference_check


def _line(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def _canonical(overrides: dict) -> RunConfig:
    """The CLI's default configuration with per-run overrides applied."""
    return RunConfig.build(None, overrides)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_gradient_suite():
    t0 = time.time()
    vocab = Vocabulary([f"w{i}" for i in range(12)])  # 8 reserved + 12 = size 20
    assert vocab.size == 20
    from deci.corpus import LabelSpace

    labels = LabelSpace([f"C{i:03d}" for i in range(5)])
    base = init_params(vocab.size, 5, embed_dim=8, hidden_dim=8, n_experts=2, seed=0)
    rng = np.random.default_rng(0)
    base = base.with_arrays(
        {k: v + rng.normal(0, 0.2, v.shape) for k, v in base.named_arrays().items()}
    )
    batch = [
        Document(id="a", text="w0 w1 w2 w3", age=70, gender="F", codes=("C000", "C003")),
        Document(id="b", text="w4 w5", age=30, gender="M", codes=("C001",)),
        Document(id="c", text="w6 w7 w8 w9 w10 w11", age=50, gender="F", codes=("C002", "C004")),
    ]
    cfg = TrainConfig(alpha=0.5, beta=0.5)

    def loss_fn(arrays):
        p = base.with_arrays({k: np.asarray(v) for k, v in arrays.items()})
        return total_loss(batch, p, cfg, vocab, labels, max_len=8)

    def grad_fn(arrays):
        p = base.with_arrays({k: np.asarray(v) for k, v in arrays.items()})
        return loss_and_grads(batch, p, cfg, vocab, labels, max_len=8)[1]

    report = finite_difference_check(loss_fn, grad_fn, base.named_arrays(), step=1e-5, tol=1e-3)
    elapsed = time.time() - t0
    ok = report.passed and elapsed < 60.0
    _line("criterion 1 (gradient suite)", ok,
          f"max_rel={report.max_relative_error:.3e} at {report.worst_parameter}, {elapsed:.1f}s")
    assert report.passed, (report.worst_parameter, report.max_relative_error)
    assert elapsed < 60.0


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_structural_identities():
    rng = np.random.default_rng(1)
    draws = 120
    for i in range(draws):
        L, F, H = int(rng.integers(2, 7)), int(rng.integers(2, 5)), int(rng.integers(3, 9))
        params = init_params(10, L, embed_dim=4, hidden_dim=H, n_experts=F, seed=i)
        jitter = {k: v + rng.normal(0, 0.5, v.shape) for k, v in params.named_arrays().items()}
        # a batch of id rows with PAD tails; the first id of each row is a token
        ids = rng.integers(1, 10, size=(3, 6))
        ids[np.arange(6) >= rng.integers(1, 7, size=(3, 1))] = 0

        # zero gate logits: gated mixture equals the uniform mixture bitwise
        zero_gate = params.with_arrays(
            {**jitter, "gate_w": np.zeros((H, F)), "gate_bias": np.zeros(F)}
        )
        br = forward_batch(zero_gate, ids)
        np.testing.assert_array_equal(br.gated, br.uniform)

        # a single expert makes the gate irrelevant
        single = init_params(10, L, embed_dim=4, hidden_dim=H, n_experts=1, seed=i)
        single = single.with_arrays(
            {k: v + rng.normal(0, 0.5, v.shape) for k, v in single.named_arrays().items()}
        )
        br = forward_batch(single, ids)
        np.testing.assert_array_equal(br.gated, br.uniform)

        # swapping two experts leaves the uniform mixture bitwise unchanged
        two = init_params(10, L, embed_dim=4, hidden_dim=H, n_experts=2, seed=i)
        two = two.with_arrays(
            {k: v + rng.normal(0, 0.5, v.shape) for k, v in two.named_arrays().items()}
        )
        swapped = two.with_arrays(
            {**two.named_arrays(), "expert_w": two.expert_w[::-1].copy(),
             "expert_b": two.expert_b[::-1].copy()}
        )
        np.testing.assert_array_equal(forward_batch(two, ids).uniform, forward_batch(swapped, ids).uniform)

        # sign and range of the debiased score: the subtraction lies in (-1, 1)
        # and has the sign of z_k, so the deci score is >= 0.5 exactly when z_k is
        zk, zd, ze = rng.uniform(-30, 30, size=3)
        score = float(final_scores_from_z([zk], [zd], [ze], InferenceMode.DECI)[0])
        assert sigmoid(-1.0) < score < sigmoid(1.0)
        assert (score >= 0.5) == (zk >= 0)
    _line("criterion 2 (structural identities)", True, f"{draws} random draws, all exact")


# -- criterion 3 -------------------------------------------------------------


def _oracle_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        return None
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def _oracle_f1(pred, gold):
    D, L = len(pred), len(pred[0])
    per_label = []
    tp_all = fp_all = fn_all = 0
    for j in range(L):
        tp = sum(1 for i in range(D) if pred[i][j] and gold[i][j])
        fp = sum(1 for i in range(D) if pred[i][j] and not gold[i][j])
        fn = sum(1 for i in range(D) if not pred[i][j] and gold[i][j])
        per_label.append(0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn))
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
    macro = sum(per_label) / L
    micro = 0.0 if 2 * tp_all + fp_all + fn_all == 0 else 2 * tp_all / (2 * tp_all + fp_all + fn_all)
    return macro, micro, per_label


def _oracle_p_at_k(scores, gold, k):
    hits = 0
    for row, g in zip(scores, gold):
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        hits += sum(1 for j in order[:k] if g[j])
    return hits / (len(scores) * k)


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(2)
    n_auc = n_f1 = n_pk = 0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        labels = rng.integers(0, 2, size=n)
        want = _oracle_auc(scores.tolist(), labels.tolist())
        got = roc_auc(scores, labels)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 1e-12
            n_auc += 1
    for _ in range(1000):
        D = int(rng.integers(1, 21))
        L = int(rng.integers(1, max(2, min(10, 200 // D)) + 1))
        pred = rng.integers(0, 2, size=(D, L)).astype(bool)
        gold = rng.integers(0, 2, size=(D, L)).astype(bool)
        macro, micro, per_label = f1_scores(pred, gold)
        o_macro, o_micro, o_per = _oracle_f1(pred.tolist(), gold.tolist())
        assert abs(macro - o_macro) <= 1e-12
        assert abs(micro - o_micro) <= 1e-12
        assert np.max(np.abs(per_label - np.array(o_per))) <= 1e-12
        n_f1 += 1
    for _ in range(1000):
        D = int(rng.integers(1, 21))
        L = int(rng.integers(1, max(2, min(10, 200 // D)) + 1))
        scores = rng.random((D, L))
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        gold = rng.integers(0, 2, size=(D, L)).astype(bool)
        k = int(rng.integers(1, L + 1))
        assert abs(precision_at_k(scores, gold, k) - _oracle_p_at_k(scores.tolist(), gold.tolist(), k)) <= 1e-12
        n_pk += 1
    _line("criterion 3 (metric oracles)", True,
          f"auc={n_auc}, f1={n_f1}, p@k={n_pk} instances within 1e-12")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_overfit_check():
    cfg = _canonical({"data.n_train": 16, "data.n_dev": 0, "data.n_test": 0,
                      "train.epochs": 200})
    scfg = cfg.synthetic_config()
    docs, _, _ = generate_synthetic(scfg)
    vocab = Vocabulary.from_documents(docs)
    labels = synthetic_label_space(scfg)
    params = init_params(vocab.size, len(labels),
                         embed_dim=cfg["model.embed_dim"], hidden_dim=cfg["model.hidden_dim"],
                         n_experts=cfg["model.n_experts"], seed=cfg["seed"])
    tcfg = cfg.train_config()
    best, log = train(docs, [], params, vocab, labels, tcfg, max_len=cfg["model.max_len"])
    zk, zd, ze = pathway_scores_batch(best, docs, vocab, cfg["model.max_len"])
    scores = final_scores_from_z(zk, zd, ze, InferenceMode.DECI)
    gold = np.stack([labels.multi_hot(d.codes) for d in docs])
    _, micro, _ = f1_scores(scores >= 0.5, gold)
    last = log[-1]
    # The knowledge head memorizes the batch; the demographic head cannot:
    # 16 documents share 8 demographic cells, so distinct label sets collide
    # and its BCE has an entropy floor far above 0.05 for ANY parameters.
    # The capacity claim is therefore pinned on micro-F1 and the knowledge
    # term; the floor-bound demographic term is reported for transparency.
    ok = micro == 1.0 and last["loss_k"] < 0.05
    _line("criterion 4 (overfit check)", ok,
          f"micro_f1={micro:.4f}, loss_k={last['loss_k']:.4f}, "
          f"total={last['train_loss']:.4f} "
          f"(= loss_k + 0.5*loss_d[{last['loss_d']:.4f}] + 0.5*loss_e[{last['loss_e']:.4f}]; "
          f"loss_d is floor-bound by demographic label collisions)")
    assert micro == 1.0
    assert last["loss_k"] < 0.05


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_debias_experiment():
    t0 = time.time()
    rows = []
    for seed in range(5):
        cfg = _canonical({"seed": seed})
        scfg = cfg.synthetic_config()
        assert (scfg.n_labels, scfg.vocab_size) == (20, 1000)
        assert (scfg.n_train, scfg.n_dev, scfg.n_test) == (2000, 500, 500)
        assert (scfg.p_conf_train, scfg.p_conf_test) == (0.9, 0.5)
        train_docs, dev_docs, test_docs = generate_synthetic(scfg)
        vocab = Vocabulary.from_documents(train_docs)
        labels = synthetic_label_space(scfg)
        params = init_params(vocab.size, len(labels),
                             embed_dim=cfg["model.embed_dim"],
                             hidden_dim=cfg["model.hidden_dim"],
                             n_experts=cfg["model.n_experts"], seed=seed)
        best, _ = train(train_docs, dev_docs, params, vocab, labels, cfg.train_config(),
                        max_len=cfg["model.max_len"])
        conf = labels.labels[scfg.confounded_label]
        table = run_ablation(test_docs, best, vocab, labels, max_len=cfg["model.max_len"],
                             confounded_label=conf)
        assert set(table) == {m.value for m in InferenceMode}
        li = labels.index(conf)
        rows.append({
            "seed": seed,
            "deci_gap": table["deci"].disparity.gap,
            "naive_gap": table["naive"].disparity.gap,
            "wozd_gap": table["wo-zd"].disparity.gap,
            "deci_f1": table["deci"].per_label_f1[li],
            "naive_f1": table["naive"].per_label_f1[li],
            "micro_f1": table["deci"].micro_f1,
        })
    elapsed = time.time() - t0

    print(f"{'seed':>4} {'deci_gap':>9} {'naive_gap':>10} {'wozd_gap':>9} "
          f"{'deci_f1':>8} {'naive_f1':>9} {'micro':>6}")
    for r in rows:
        print(f"{r['seed']:>4} {r['deci_gap']:>9.4f} {r['naive_gap']:>10.4f} "
              f"{r['wozd_gap']:>9.4f} {r['deci_f1']:>8.4f} {r['naive_f1']:>9.4f} "
              f"{r['micro_f1']:>6.4f}")

    a = sum(r["deci_gap"] <= r["naive_gap"] for r in rows)
    b = sum(r["deci_f1"] >= r["naive_f1"] for r in rows)
    c = sum(r["wozd_gap"] > r["deci_gap"] for r in rows)
    ok = a >= 4 and b >= 4 and c >= 3 and elapsed < 600.0
    _line("criterion 5 (debias experiment)", ok,
          f"gap: {a}/5, confounded-label F1: {b}/5, wo-zd degradation: {c}/5, {elapsed:.0f}s")
    assert a >= 4, [(r["deci_gap"], r["naive_gap"]) for r in rows]
    assert b >= 4, [(r["deci_f1"], r["naive_f1"]) for r in rows]
    assert c >= 3, [(r["wozd_gap"], r["deci_gap"]) for r in rows]
    assert elapsed < 600.0


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_persistence(tmp_path):
    scfg = SyntheticConfig(n_labels=6, vocab_size=80, n_train=60, n_dev=0, n_test=50,
                           doc_len=8, seed=9)
    train_docs, _, test_docs = generate_synthetic(scfg)
    vocab = Vocabulary.from_documents(train_docs)
    labels = synthetic_label_space(scfg)
    params = init_params(vocab.size, len(labels), embed_dim=12, hidden_dim=12,
                         n_experts=2, seed=9)
    best, _ = train(train_docs, [], params, vocab, labels, TrainConfig(epochs=2), max_len=10)
    path = tmp_path / "model.deci"
    save_checkpoint(path, best, vocab, labels, max_len=10)
    ckpt = load_checkpoint(path)
    cast = best.with_arrays(
        {k: v.astype("<f4").astype(np.float64) for k, v in best.named_arrays().items()}
    )
    want = final_scores_from_z(*pathway_scores_batch(cast, test_docs, vocab, 10),
                               InferenceMode.DECI)
    got = final_scores_from_z(*pathway_scores_batch(ckpt.params, test_docs, ckpt.vocab, ckpt.max_len),
                              InferenceMode.DECI)
    bit_exact = np.array_equal(want, got)

    # corrupt checkpoints are rejected at the CLI boundary with exit code 2
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    from deci.corpus import save_jsonl

    save_jsonl(test_docs, data_dir / "test.jsonl")
    labels.to_file(data_dir / "labels.txt")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    blob = path.read_bytes()
    codes = []
    for corruption in (b"XXXX" + blob[4:], blob[: len(blob) // 2], blob + b"junk"):
        (run_dir / "checkpoint.deci").write_bytes(corruption)
        codes.append(main(["eval", "--data.dir", str(data_dir), "--run.dir", str(run_dir)]))
    ok = bit_exact and codes == [2, 2, 2]
    _line("criterion 6 (persistence)", ok,
          f"reload bit-exact (after single-precision storage cast)={bit_exact}, "
          f"corrupt-checkpoint exit codes={codes}")
    assert bit_exact
    assert codes == [2, 2, 2]


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_end_to_end_determinism(tmp_path, capsys):
    small = [
        "--data.n_labels", "8", "--data.vocab_size", "120", "--data.n_train", "200",
        "--data.n_dev", "60", "--data.n_test", "60", "--data.doc_len", "10",
        "--model.embed_dim", "16", "--model.hidden_dim", "16", "--model.n_experts", "2",
        "--model.max_len", "8", "--train.epochs", "2", "--seed", "13",
    ]
    reports = []
    for run in ("one", "two"):
        base = tmp_path / run
        data, rundir, report = base / "data", base / "run", base / "report.json"
        assert main(["gen-data", *small, "--out", str(data)]) == 0
        assert main(["train", *small, "--data.dir", str(data), "--run.dir", str(rundir)]) == 0
        assert main(["eval", "--ablate", *small, "--data.dir", str(data),
                     "--run.dir", str(rundir), "--out", str(report)]) == 0
        reports.append(report.read_bytes())
        capsys.readouterr()
    identical = reports[0] == reports[1]
    # checkpoint FILES embed the config echo, which contains the (different)
    # output paths; the learned parameters themselves must be bit-identical
    one = load_checkpoint(tmp_path / "one" / "run" / "checkpoint.deci")
    two = load_checkpoint(tmp_path / "two" / "run" / "checkpoint.deci")
    params_identical = all(
        np.array_equal(arr, two.params.named_arrays()[k])
        for k, arr in one.params.named_arrays().items()
    )
    _line("criterion 7 (determinism)", identical and params_identical,
          f"reports byte-identical={identical}, trained parameters bit-identical={params_identical}")
    assert identical
    assert params_identical
