"""Command line interface: gen-data, train, eval, predict.

Configuration is a flat map of dotted keys. Values come from built-in
defaults, then an optional JSON config file, then CLI flags; later sources
win. The defaults are the fields of SyntheticConfig ("data.*"), ModelConfig
("model.*") and TrainConfig ("train.*"), and they are the only list of keys.
After the command, every key is a flag of its exact name, as
"--data.n_labels 30" or "--data.n_labels=30"; train also takes --alpha,
--beta, --epochs and --lr, and eval takes --mode.

Exit codes: 0 success, 1 usage or configuration error or stdout closed
early, 2 data, file format or file system error, 3 numerical failure.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .corpus import (
    LabelSpace, SyntheticConfig, Vocabulary, confound_predicate, generate_synthetic,
    load_jsonl, save_jsonl, synthetic_label_space,
)
from .errors import (
    ConfigError, DimensionError, EvaluationError, FormatError, NumericalError,
    ParseError, ValidationError,
)
from .evaluation import InferenceMode, final_scores_from_z, run_ablation
from .model import ModelConfig, batch_inputs, init_params, pathway_scores_batch
from .training import (
    TrainConfig, dev_metrics, load_checkpoint, save_checkpoint, selected_epoch, train,
)

# Each dataclass field is the config key "<section>.<field>", except the seed
# that the corpus and the trainer share, which is the one key "seed", and
# TrainConfig.learning_rate, which is "train.lr".
_KEY_OF_FIELD = {"seed": "seed", "learning_rate": "train.lr"}

# dataclass -> {field name: config key}, in field order.
_FIELD_KEYS = {
    cls: {f.name: _KEY_OF_FIELD.get(f.name, f"{prefix}.{f.name}") for f in fields(cls)}
    for prefix, cls in (("data", SyntheticConfig), ("model", ModelConfig), ("train", TrainConfig))
}


def _defaults() -> dict:
    # Key order is the order of the config echo in every manifest.
    derived = {key: getattr(cls, name)
               for cls, keys in _FIELD_KEYS.items() for name, key in keys.items()}
    return {"seed": derived.pop("seed"), "data.dir": "data", **derived,
            "run.dir": "run", "eval.mode": "deci", "eval.ks": [5]}


DEFAULTS = _defaults()

# Short flags for config keys, each accepted only after its own command.
_ALIASES = {
    "train": {"--alpha": "train.alpha", "--beta": "train.beta",
              "--epochs": "train.epochs", "--lr": "train.lr"},
    "eval": {"--mode": "eval.mode"},
}


def _as_int(raw) -> int:
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError
    return int(raw)


def _coerce(key: str, raw):
    """Check raw against the default's type; strings are parsed."""
    default = DEFAULTS[key]
    try:
        if isinstance(default, int):
            return _as_int(raw)
        if isinstance(default, float):
            if isinstance(raw, bool):
                raise ValueError
            return float(raw)
        if isinstance(default, str):
            if not isinstance(raw, str):
                raise ValueError
            return raw
        if isinstance(default, list):
            if isinstance(raw, str):
                raw = [p for p in raw.split(",") if p.strip()]
            if not isinstance(raw, list) or not raw:
                raise ValueError
            return [_as_int(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    raise ConfigError(f"unhandled config key {key}")


def build_config(config_path: str | None, overrides: dict) -> dict:
    """Resolved configuration: defaults, then file values, then flag values."""
    values = dict(DEFAULTS)
    if config_path is not None:
        try:
            raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path}: invalid JSON: {exc.msg}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        for key, val in raw.items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, val)
    for key, val in overrides.items():
        values[key] = _coerce(key, val)
    return values


def echo(cfg: dict) -> dict:
    """cfg as strict JSON: a non-finite float is written as its string
    ("inf"), which _coerce reads back, so an echo is a config file."""
    return {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in cfg.items()}


def section(cfg: dict, cls):
    """The SyntheticConfig, ModelConfig or TrainConfig that cfg holds."""
    return cls(**{name: cfg[key] for name, key in _FIELD_KEYS[cls].items()})


def _split_config_flags(argv: list[str]) -> tuple[dict, list[str]]:
    """Take the config flags that follow the command out of argv.

    Returns ({key: raw value}, the remaining arguments). Flags are read in
    order, so the last one for a key wins. Arguments before the command and
    after "--" are left to argparse, which rejects an unknown flag.
    """
    if not argv or argv[0].startswith("-"):
        return {}, argv
    flags = {f"--{key}": key for key in DEFAULTS} | _ALIASES.get(argv[0], {})
    overrides, rest = {}, argv[:1]
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            rest += [arg, *args]
            break
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            rest.append(arg)
            continue
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"argument {flag}: expected one argument")
        overrides[flags[flag]] = value
    return overrides, rest


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="deci", description="Counterfactually debiased multi-label classifier")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("gen-data", cmd_gen_data, "generate the synthetic confounded corpus"),
        ("train", cmd_train, "train a model on generated data"),
        ("eval", cmd_eval, "evaluate a checkpoint on the test split"),
        ("predict", cmd_predict, "score documents from a JSONL file"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON file of dotted config keys")
        p.add_argument("--out", metavar="PATH", help="output directory or file")
        p.set_defaults(func=func)
    sub.choices["eval"].add_argument("--ablate", action="store_true", help="report every inference mode")
    sub.choices["predict"].add_argument("input", help="JSONL file of documents to score")
    return parser


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def cmd_gen_data(cfg: dict, args) -> int:
    scfg = section(cfg, SyntheticConfig)
    # Every section is checked before any directory or file is touched, so
    # the manifest never echoes a config that train would refuse.
    for part in (scfg, section(cfg, ModelConfig), section(cfg, TrainConfig)):
        part.validate()
    out_dir = Path(args.out or cfg["data.dir"])
    splits = dict(zip(("train", "dev", "test"), generate_synthetic(scfg)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, docs in splits.items():
        save_jsonl(docs, out_dir / f"{name}.jsonl")
    synthetic_label_space(scfg).to_file(out_dir / "labels.txt")
    manifest = {
        "command": "gen-data",
        "seed": cfg["seed"],
        "config": echo(cfg),
        "files": {name: f"{name}.jsonl" for name in splits} | {"labels": "labels.txt"},
        "counts": {name: len(docs) for name, docs in splits.items()},
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {sum(len(d) for d in splits.values())} documents to {out_dir}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    data_dir = Path(cfg["data.dir"])
    out_dir = Path(args.out or cfg["run.dir"])
    mcfg = section(cfg, ModelConfig)
    mcfg.validate()  # before any data is loaded
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(f"output path {out_dir} is not a directory")
    label_space = LabelSpace.from_file(data_dir / "labels.txt")
    train_docs = load_jsonl(data_dir / "train.jsonl", label_space)
    dev_path = data_dir / "dev.jsonl"
    dev_docs = load_jsonl(dev_path, label_space) if dev_path.exists() else []
    vocab = Vocabulary.from_documents(train_docs)
    params = init_params(
        vocab.size, len(label_space),
        embed_dim=mcfg.embed_dim, hidden_dim=mcfg.hidden_dim,
        n_experts=mcfg.n_experts, seed=cfg["seed"],
    )
    # tokenized once, for every epoch's dev score and the saved model's
    dev = None
    if dev_docs:
        dev = (*batch_inputs(dev_docs, vocab, mcfg.max_len), label_space.multi_hot_rows(dev_docs))
    best, log = train(train_docs, dev, params, vocab, label_space, section(cfg, TrainConfig),
                      max_len=mcfg.max_len)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "epochs.jsonl", "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(json.dumps(record) + "\n")
    save_checkpoint(out_dir / "checkpoint.deci", best, vocab, label_space,
                    max_len=mcfg.max_len, config=echo(cfg))
    # report the model the checkpoint holds: the selected epoch, as read back
    saved = load_checkpoint(out_dir / "checkpoint.deci").params
    final_dev = None if dev is None else dev_metrics(saved, *dev)
    summary = {"final_dev_metrics": final_dev, "selected_epoch": selected_epoch(log)}
    _write_json(out_dir / "train_manifest.json", {"command": "train", "config": echo(cfg), **summary})
    print(json.dumps({**summary, "epochs": len(log)}))
    return 0


def _mode_from(cfg: dict) -> InferenceMode:
    try:
        return InferenceMode(cfg["eval.mode"])
    except ValueError:
        valid = ", ".join(m.value for m in InferenceMode)
        raise ConfigError(f"unknown eval mode {cfg['eval.mode']!r}; expected one of: {valid}") from None


def _confound(cfg: dict, label_space: LabelSpace):
    idx = cfg["data.confounded_label"]
    if not 0 <= idx < len(label_space):
        raise ConfigError(f"data.confounded_label must index one of the checkpoint's "
                          f"{len(label_space)} labels, got {idx}")
    return label_space.labels[idx], confound_predicate(cfg["data.confound_attribute"])


def cmd_eval(cfg: dict, args) -> int:
    ckpt = load_checkpoint(Path(cfg["run.dir"]) / "checkpoint.deci")
    confounded_label, predicate = _confound(cfg, ckpt.label_space)  # before any note is read
    data_dir = Path(cfg["data.dir"])
    labels_path = data_dir / "labels.txt"
    if labels_path.exists() and LabelSpace.from_file(labels_path) != ckpt.label_space:
        raise ValidationError(f"label space in {labels_path} does not match the checkpoint")
    docs = load_jsonl(data_dir / "test.jsonl", ckpt.label_space)
    modes = tuple(InferenceMode) if args.ablate else (_mode_from(cfg),)
    reports = run_ablation(ckpt.params, *batch_inputs(docs, ckpt.vocab, ckpt.max_len),
                           ckpt.label_space.multi_hot_rows(docs), ckpt.label_space,
                           ks=tuple(cfg["eval.ks"]), confounded_label=confounded_label,
                           in_group_a=[predicate(d.age, d.gender) for d in docs], modes=modes)
    if args.ablate:
        _print_ablation_table(reports)
        payload = {"command": "eval", "ablation": {m: asdict(r) for m, r in reports.items()}}
    else:
        payload = {"command": "eval", "report": asdict(reports[modes[0].value])}
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _print_ablation_table(reports: dict) -> None:
    def fmt(v):
        return "   n/a" if v is None else f"{v:.4f}"

    ks = sorted(next(iter(reports.values())).p_at_k)
    header = ["mode", "micro_f1", "macro_f1", "micro_auc"] + [f"p@{k}" for k in ks] + ["fpr_gap"]
    print("  ".join(f"{h:>15}" if i == 0 else f"{h:>9}" for i, h in enumerate(header)))
    for name, rep in reports.items():
        gap = rep.disparity.gap if rep.disparity is not None else None
        cells = [fmt(rep.micro_f1), fmt(rep.macro_f1), fmt(rep.micro_auc)]
        cells += [fmt(rep.p_at_k[k]) for k in ks]
        cells.append(fmt(gap))
        print("  ".join([f"{name:>15}"] + [f"{c:>9}" for c in cells]))


def cmd_predict(cfg: dict, args) -> int:
    ckpt = load_checkpoint(Path(cfg["run.dir"]) / "checkpoint.deci")
    docs = load_jsonl(args.input)
    lines = []
    if docs:
        z_k, z_d, z_e = pathway_scores_batch(ckpt.params, *batch_inputs(docs, ckpt.vocab, ckpt.max_len))
        scores = final_scores_from_z(z_k, z_d, z_e, InferenceMode.DECI)
        for doc, row, hits in zip(docs, scores.tolist(), (scores >= 0.5).tolist()):
            predicted = [label for label, hit in zip(ckpt.label_space.labels, hits) if hit]
            lines.append(json.dumps({"doc_id": doc.id, "codes": predicted, "scores": row}))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        overrides, rest = _split_config_flags(argv)
        try:
            args = build_parser().parse_args(rest)
        except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
            return 1 if exc.code else 0
        cfg = build_config(args.config, overrides)
        code = args.func(cfg, args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader of stdout has gone, as under `| head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, FormatError, EvaluationError,
            UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
