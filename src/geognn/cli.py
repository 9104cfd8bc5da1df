"""Command-line front end.

Each command takes only the flags it reads:

    featurize  --input --out --strict
    pretrain   --input --out --config --seed --precision --epochs --batch
               --lr-body --lr-head --mask-ratio --tasks --metric
    finetune   the pretrain flags and --checkpoint
    evaluate   --input --out --checkpoint --config --metric --split
    embed      --input --out --checkpoint

Inputs are SDF or JSON lines. featurize logs and lists each bad record and
skips it unless --strict is given; every other command exits 2 on the first.

A JSON config file has a "model" and a "run" section. Each config is merged
in one step: the defaults (the checkpoint's model config, when finetuning
from one), then the file, then the flags. Model keys other than dropout
and precision must match a loaded checkpoint. The model's num_tasks comes
from the labels (pretraining has none), so a config file that sets it is a
config error. The run's task type follows from its metric.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import codecs
import json
import logging
import sys
from pathlib import Path

from .checkpoint import load_checkpoint
from .errors import ConfigError, DataError, GeoGnnError, NumericalError, ParseError
from .features import FeatureConfig
from .model import ModelConfig
from .molio import Molecule, parse_jsonl, parse_jsonl_lenient, parse_sdf, parse_sdf_lenient
from .training import (
    METRICS,
    DatasetSplit,
    RunConfig,
    embed_molecules,
    evaluate,
    featurized_packs,
    finetune,
    pretrain,
    write_report,
)

logger = logging.getLogger("geognn")

# the only model-config keys that may differ from a loaded checkpoint's
_RUNTIME_KEYS = ("dropout", "precision")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_io(p: argparse.ArgumentParser, checkpoint: bool | None = None):
    """--input and --out, and --checkpoint unless ``checkpoint`` is None."""
    p.add_argument("--input", nargs="+", required=True, metavar="PATH",
                   help="input molecule files (SDF or JSONL)")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    if checkpoint is not None:
        p.add_argument("--checkpoint", required=checkpoint, metavar="PATH",
                       help="checkpoint to load")


def _task_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _add_training_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--precision", choices=("f32", "f64"))
    # each dest is the RunConfig field the flag sets; a flag not given sets nothing
    unset = argparse.SUPPRESS
    p.add_argument("--seed", type=int, default=unset, metavar="U64")
    p.add_argument("--epochs", type=int, default=unset)
    p.add_argument("--batch", dest="batch_size", type=int, default=unset)
    p.add_argument("--lr-body", type=float, default=unset)
    p.add_argument("--lr-head", type=float, default=unset)
    p.add_argument("--mask-ratio", type=float, default=unset)
    p.add_argument("--tasks", type=_task_list, default=unset,
                   help="comma list from: length,angle,distance,fingerprint")
    p.add_argument("--metric", choices=tuple(METRICS), default=unset)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geognn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="parse and encode molecules and write a summary")
    _add_io(p)
    p.add_argument("--strict", action="store_true",
                   help="exit 2 on the first bad record instead of skipping it")

    p = sub.add_parser("pretrain", help="self-supervised pretraining")
    _add_io(p)
    _add_training_flags(p)

    p = sub.add_parser("finetune", help="supervised training with best-epoch selection")
    _add_io(p, checkpoint=False)
    _add_training_flags(p)

    p = sub.add_parser("evaluate", help="metric report for a checkpoint on a split")
    _add_io(p, checkpoint=True)
    p.add_argument("--config", metavar="PATH", help="JSON config file (reads run.metric)")
    p.add_argument("--metric", choices=tuple(METRICS))
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")

    p = sub.add_parser("embed", help="write per-molecule graph vectors as JSONL")
    _add_io(p, checkpoint=True)
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise ConfigError(f"config file {path}: cannot read ({err.strerror})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path}: not UTF-8") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path}: invalid JSON ({err.msg})") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    for key in ("model", "run"):
        if not isinstance(obj.get(key, {}), dict):
            raise ConfigError(f"config file {path}: {key!r} must be a JSON object")
    return obj


def _read_molecules(paths: list[str], strict: bool = True):
    molecules: list[Molecule] = []
    errors: list[ParseError] = []
    for path in paths:
        p = Path(path)
        try:
            data = p.read_bytes()
        except OSError as err:
            raise DataError(f"input file {path}: cannot read ({err.strerror})") from None
        sniff = data.removeprefix(codecs.BOM_UTF8).lstrip()[:1]
        is_jsonl = p.suffix.lower() in (".jsonl", ".json") or sniff == b"{"
        if strict:
            molecules.extend((parse_jsonl if is_jsonl else parse_sdf)(data))
            continue
        mols, errs = (parse_jsonl_lenient if is_jsonl else parse_sdf_lenient)(data)
        molecules.extend(mols)
        for e in errs:
            logger.warning("%s: %s", path, e)
        errors.extend(errs)
    return molecules, errors


def _build_run_config(args, file_cfg: dict) -> RunConfig:
    fields = RunConfig.__dataclass_fields__
    run = {**file_cfg.get("run", {}), **{k: v for k, v in vars(args).items() if k in fields}}
    try:
        return RunConfig.from_dict(run)
    except TypeError as err:
        raise ConfigError(f"bad run config: {err}") from None


def _build_model_config(args, file_cfg: dict, base: ModelConfig | None = None) -> ModelConfig:
    if "num_tasks" in file_cfg.get("model", {}):
        raise ConfigError("model.num_tasks is set by the labels, not by a config file")
    start = (base or ModelConfig()).to_dict()
    merged = {**start, **file_cfg.get("model", {})}
    if args.precision is not None:
        merged["precision"] = args.precision
    if base is not None:
        conflicts = [k for k, v in start.items() if k not in _RUNTIME_KEYS and merged[k] != v]
        if conflicts:
            raise ConfigError(f"config conflicts with the checkpoint on keys: {conflicts}")
    try:
        return ModelConfig.from_dict(merged)
    except TypeError as err:
        raise ConfigError(f"bad model config: {err}") from None


def _check_out(path: str) -> None:
    """--out must be a directory or a path one can be made at: neither it nor
    the nearest of its parents that exists may be anything else."""
    for p in (Path(path), *Path(path).parents):
        if p.exists():
            if not p.is_dir():
                raise ConfigError(f"--out {path}: {p} exists and is not a directory")
            return


def cmd_featurize(args) -> int:
    molecules, errors = _read_molecules(args.input, strict=args.strict)
    features = FeatureConfig()
    counts = {"atoms": {}, "bonds": {}, "angles": {}}
    for _, g, _ in featurized_packs(molecules, features):
        for key, ns in zip(counts, (g.atom_counts, g.bond_counts, g.angle_counts)):
            for n in ns.tolist():
                counts[key][str(n)] = counts[key].get(str(n), 0) + 1
    summary = {
        "molecules": len(molecules),
        "ids": [mol.id for mol in molecules],
        "histograms": counts,
        "widths": {
            "atom": features.atom_width,
            "bond": features.bond_width,
            "angle": features.angle_width,
        },
        "manifest": features.manifest(),
        "parse_errors": [str(e) for e in errors],
    }
    path = Path(args.out) / "summary.json"
    write_report(path, summary)
    print(f"featurized {len(molecules)} molecules -> {path}")
    return 0


def cmd_pretrain(args) -> int:
    file_cfg = _load_config_file(args.config)
    run_cfg = _build_run_config(args, file_cfg)
    model_cfg = _build_model_config(args, file_cfg)
    molecules, _ = _read_molecules(args.input)
    result = pretrain(molecules, model_cfg, run_cfg, out_dir=args.out)
    final = result.history[-1]["loss"] if result.history else float("nan")
    print(f"pretrained {run_cfg.epochs} epochs on {len(molecules)} molecules; "
          f"final loss {final:.6f}; checkpoints in {args.out}")
    return 0


def cmd_finetune(args) -> int:
    file_cfg = _load_config_file(args.config)
    run_cfg = _build_run_config(args, file_cfg)
    init_store = base_cfg = None
    if args.checkpoint:
        init_store, base_cfg, _, _ = load_checkpoint(args.checkpoint)
    model_cfg = _build_model_config(args, file_cfg, base=base_cfg)
    molecules, _ = _read_molecules(args.input)
    split = DatasetSplit.from_tags(molecules)
    result = finetune(split, model_cfg, run_cfg, init_store=init_store, out_dir=args.out)
    valid = result.report["valid_metric"]  # None when no epoch ran
    print(
        f"finetuned {run_cfg.epochs} epochs; best epoch {result.report['selected_epoch']} "
        f"(valid {run_cfg.metric} {'none' if valid is None else f'{valid:.6f}'}); "
        f"test {run_cfg.metric} {result.report['test_metric']:.6f}"
    )
    return 0


def cmd_evaluate(args) -> int:
    file_cfg = _load_config_file(args.config)
    store, model_cfg, _, extra = load_checkpoint(args.checkpoint)
    metric = args.metric or file_cfg.get("run", {}).get("metric")
    if metric is None:
        raise ConfigError("evaluate requires --metric (or run.metric in the config)")
    molecules, _ = _read_molecules(args.input)
    split = DatasetSplit.from_tags(molecules)
    part = getattr(split, args.split)
    names = extra.get("task_names")
    if names is not None and not (isinstance(names, list) and len(names) == model_cfg.num_tasks
                                  and all(isinstance(n, str) for n in names)):
        raise DataError(f"{args.checkpoint}: checkpoint task_names is not a list of "
                        f"{model_cfg.num_tasks} strings")
    report = evaluate(store, model_cfg, part, metric, names=names)
    report["split"] = args.split
    write_report(Path(args.out) / "evaluate_report.json", report)
    print(f"{args.split} {metric}: {report['value']:.6f} ({report['count']} molecules)")
    return 0


def cmd_embed(args) -> int:
    store, model_cfg, _, _ = load_checkpoint(args.checkpoint)
    molecules, _ = _read_molecules(args.input)
    rows = embed_molecules(store, model_cfg, molecules)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "embeddings.jsonl"
    with path.open("w") as fh:
        for mol_id, vec in rows:
            fh.write(json.dumps({"id": mol_id, "h_G": [float(x) for x in vec]}) + "\n")
    print(f"wrote {len(rows)} embeddings -> {path}")
    return 0


_COMMANDS = {
    "featurize": cmd_featurize,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "embed": cmd_embed,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 1
    except (ParseError, DataError) as err:
        sys.stderr.write(f"data error: {err}\n")
        return 2
    except NumericalError as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return 3
    except GeoGnnError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
