"""Command line interface: gen-data, train, eval, predict.

Configuration is a flat map of dotted keys. Values come from built-in
defaults, then an optional JSON config file, then CLI flags; later sources
win. The defaults are the fields of SyntheticConfig ("data.*"), ModelConfig
("model.*") and TrainConfig ("train.*"). Every key has a flag of the same
name (--data.n_labels 30), and the common knobs have short aliases (--alpha,
--lr, ...).

Exit codes: 0 success, 1 usage or configuration error, 2 data or file
format error, 3 numerical failure.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .corpus import (
    LabelSpace, SyntheticConfig, Vocabulary, generate_synthetic, load_jsonl,
    save_jsonl, synthetic_label_space,
)
from .errors import (
    ConfigError, DimensionError, EvaluationError, FormatError, NumericalError,
    ParseError, ValidationError,
)
from .evaluation import InferenceMode, final_scores_from_z, run_ablation
from .model import ModelConfig, init_params, pathway_scores_batch
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

# Each dataclass field is the config key "<section>.<field>", except the seed
# that the corpus and the trainer share, which is the one key "seed", and
# TrainConfig.learning_rate, which is "train.lr".
_KEY_OF_FIELD = {"seed": "seed", "learning_rate": "train.lr"}

# dataclass -> {field name: config key}, in field order.
_FIELD_KEYS = {
    cls: {f.name: _KEY_OF_FIELD.get(f.name, f"{section}.{f.name}") for f in fields(cls)}
    for section, cls in (("data", SyntheticConfig), ("model", ModelConfig), ("train", TrainConfig))
}


def _defaults() -> dict:
    # Key order is the order of the config echo in every manifest.
    derived = {key: getattr(cls, name)
               for cls, keys in _FIELD_KEYS.items() for name, key in keys.items()}
    return {"seed": derived.pop("seed"), "data.dir": "data", **derived,
            "run.dir": "run", "eval.mode": "deci", "eval.ks": [5]}


DEFAULTS = _defaults()

# Keys where JSON null / "none" is a legal value: fields annotated "... | None".
_OPTIONAL_KEYS = {
    keys[name] for cls, keys in _FIELD_KEYS.items()
    for name, hint in get_type_hints(cls).items() if type(None) in get_args(hint)
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _coerce(key: str, raw):
    """Check raw against the default's type; strings are parsed."""
    if raw is None or (isinstance(raw, str) and raw.strip().lower() == "none"):
        if key in _OPTIONAL_KEYS:
            return None
        raise ConfigError(f"{key} must not be null")
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            return raw if isinstance(raw, bool) else _parse_bool(str(raw))
        if isinstance(default, int):
            if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
                raise ValueError
            return int(raw)
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
            return [int(v) for v in raw]
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key}: {raw!r}") from None
    raise ConfigError(f"unhandled config key {key}")


class RunConfig:
    """Resolved configuration: defaults, then file values, then flag values."""

    def __init__(self, values: dict):
        self._values = values

    def __getitem__(self, key: str):
        return self._values[key]

    @classmethod
    def build(cls, config_path: str | None, overrides: dict) -> "RunConfig":
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
        return cls(values)

    def echo(self) -> dict:
        return dict(self._values)

    def _dataclass(self, cls):
        return cls(**{name: self._values[key] for name, key in _FIELD_KEYS[cls].items()})

    def synthetic_config(self) -> SyntheticConfig:
        return self._dataclass(SyntheticConfig)

    def model_config(self) -> ModelConfig:
        return self._dataclass(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._dataclass(TrainConfig)


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; argparse's default of 2 is reserved for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


_ALIASES = {
    "train.alpha": "--alpha",
    "train.beta": "--beta",
    "train.epochs": "--epochs",
    "train.lr": "--lr",
    "eval.mode": "--mode",
}


def _add_config_flags(parser: argparse.ArgumentParser, aliases: tuple[str, ...] = ()) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON file of dotted config keys")
    parser.add_argument("--out", metavar="PATH", help="output directory or file")
    for key in DEFAULTS:
        flags = [f"--{key}"]
        if key in _ALIASES and key in aliases:
            flags.append(_ALIASES[key])
        parser.add_argument(*flags, dest=key, default=None, metavar="V", help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deci", description="Counterfactually debiased multi-label classifier")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate the synthetic confounded corpus")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on generated data")
    _add_config_flags(p, aliases=("train.alpha", "train.beta", "train.epochs", "train.lr"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _add_config_flags(p, aliases=("eval.mode",))
    p.add_argument("--ablate", action="store_true", help="report every inference mode")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="score documents from a JSONL file")
    _add_config_flags(p)
    p.add_argument("input", help="JSONL file of documents to score")
    p.set_defaults(func=cmd_predict)
    return parser


def _overrides(args) -> dict:
    return {key: getattr(args, key) for key in DEFAULTS if getattr(args, key, None) is not None}


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def cmd_gen_data(cfg: RunConfig, args) -> int:
    scfg = cfg.synthetic_config()
    scfg.validate()  # before any directory or file is touched
    out_dir = Path(args.out or cfg["data.dir"])
    splits = dict(zip(("train", "dev", "test"), generate_synthetic(scfg)))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, docs in splits.items():
        save_jsonl(docs, out_dir / f"{name}.jsonl")
    synthetic_label_space(scfg).to_file(out_dir / "labels.txt")
    manifest = {
        "command": "gen-data",
        "seed": cfg["seed"],
        "config": cfg.echo(),
        "files": {name: f"{name}.jsonl" for name in splits} | {"labels": "labels.txt"},
        "counts": {name: len(docs) for name, docs in splits.items()},
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote {sum(len(d) for d in splits.values())} documents to {out_dir}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    data_dir = Path(cfg["data.dir"])
    out_dir = Path(args.out or cfg["run.dir"])
    label_space = LabelSpace.from_file(data_dir / "labels.txt")
    train_docs = load_jsonl(data_dir / "train.jsonl", label_space)
    dev_path = data_dir / "dev.jsonl"
    dev_docs = load_jsonl(dev_path, label_space) if dev_path.exists() else []
    vocab = Vocabulary.from_documents(train_docs)
    mcfg = cfg.model_config()
    params = init_params(
        vocab.size, len(label_space),
        embed_dim=mcfg.embed_dim, hidden_dim=mcfg.hidden_dim,
        n_experts=mcfg.n_experts, seed=cfg["seed"],
        gate_per_label=mcfg.gate_per_label,
    )
    best, log = train(train_docs, dev_docs, params, vocab, label_space, cfg.train_config(),
                      max_len=mcfg.max_len)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "epochs.jsonl", "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(json.dumps(record) + "\n")
    save_checkpoint(out_dir / "checkpoint.deci", best, vocab, label_space,
                    max_len=mcfg.max_len, config=cfg.echo())
    _write_json(out_dir / "train_manifest.json", {"command": "train", "config": cfg.echo()})
    final_dev = log[-1]["dev_metrics"]
    print(json.dumps({"final_dev_metrics": final_dev, "epochs": len(log)}))
    return 0


def _mode_from(cfg: RunConfig) -> InferenceMode:
    try:
        return InferenceMode(cfg["eval.mode"])
    except ValueError:
        valid = ", ".join(m.value for m in InferenceMode)
        raise ConfigError(f"unknown eval mode {cfg['eval.mode']!r}; expected one of: {valid}") from None


def _confounded_label_name(cfg: RunConfig, label_space: LabelSpace) -> str | None:
    idx = cfg["data.confounded_label"]
    if not 0 <= idx < len(label_space):
        return None
    return label_space.labels[idx]


def cmd_eval(cfg: RunConfig, args) -> int:
    ckpt = load_checkpoint(Path(cfg["run.dir"]) / "checkpoint.deci")
    data_dir = Path(cfg["data.dir"])
    labels_path = data_dir / "labels.txt"
    if labels_path.exists() and LabelSpace.from_file(labels_path) != ckpt.label_space:
        raise ValidationError(f"label space in {labels_path} does not match the checkpoint")
    docs = load_jsonl(data_dir / "test.jsonl", ckpt.label_space)
    modes = tuple(InferenceMode) if args.ablate else (_mode_from(cfg),)
    reports = run_ablation(docs, ckpt.params, ckpt.vocab, ckpt.label_space,
                           ks=tuple(cfg["eval.ks"]), max_len=ckpt.max_len,
                           confounded_label=_confounded_label_name(cfg, ckpt.label_space),
                           confound_attribute=cfg["data.confound_attribute"], modes=modes)
    if args.ablate:
        _print_ablation_table(reports)
        payload = {"command": "eval", "ablation": {m: r.to_dict() for m, r in reports.items()}}
    else:
        payload = {"command": "eval", "report": reports[modes[0].value].to_dict()}
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


def cmd_predict(cfg: RunConfig, args) -> int:
    ckpt = load_checkpoint(Path(cfg["run.dir"]) / "checkpoint.deci")
    docs = load_jsonl(args.input)
    lines = []
    if docs:
        z_k, z_d, z_e = pathway_scores_batch(ckpt.params, docs, ckpt.vocab, ckpt.max_len)
        scores = final_scores_from_z(z_k, z_d, z_e, InferenceMode.DECI)
        for i, doc in enumerate(docs):
            predicted = [ckpt.label_space.labels[j] for j in np.flatnonzero(scores[i] >= 0.5)]
            lines.append(json.dumps({"doc_id": doc.id, "codes": predicted,
                                     "scores": [float(s) for s in scores[i]]}))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig.build(args.config, _overrides(args))
        return args.func(cfg, args)
    except (ConfigError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError, FormatError, EvaluationError,
            FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
