"""Command-line front end.

Subcommands: featurize, pretrain, finetune, evaluate, embed. A JSON config
file (keys "model" and "run") supplies defaults; explicit flags win.

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

from .checkpoint import check_manifest, load_checkpoint
from .errors import ConfigError, DataError, GeoGnnError, NumericalError, ParseError
from .features import FeatureConfig
from .model import ModelConfig
from .molio import Molecule, parse_jsonl, parse_sdf, parse_sdf_lenient
from .pretrain import in_packs
from .training import (
    DatasetSplit,
    RunConfig,
    embed_molecules,
    evaluate,
    finetune,
    prepare_molecules,
    pretrain,
    write_report,
)

logger = logging.getLogger("geognn")

# model-config keys that must agree with a loaded checkpoint
_STRUCTURAL = ("num_blocks", "hidden", "distance_bins", "geom_head_hidden",
               "down_head_hidden", "fingerprint_bits")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(p: argparse.ArgumentParser, checkpoint: bool | None = None):
    """The flags every command takes; ``checkpoint`` adds --checkpoint,
    required if True and optional if False."""
    p.add_argument("--input", nargs="+", required=True, metavar="PATH",
                   help="input molecule files (SDF or JSONL)")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--seed", type=int, default=None, metavar="U64")
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    if checkpoint is not None:
        p.add_argument("--checkpoint", required=checkpoint, metavar="PATH",
                       help="checkpoint to load")


def _add_training_flags(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--lr-body", type=float, default=None)
    p.add_argument("--lr-head", type=float, default=None)
    p.add_argument("--mask-ratio", type=float, default=None)
    p.add_argument("--tasks", default=None,
                   help="comma list from: length,angle,distance,fingerprint")
    p.add_argument("--metric", choices=("rmse", "mae", "rocauc"), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geognn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("featurize", help="parse and encode molecules and write a summary")
    _add_common(p)
    p.add_argument("--strict", action="store_true", help="abort on the first parse error")

    p = sub.add_parser("pretrain", help="self-supervised pretraining")
    _add_common(p)
    _add_training_flags(p)

    p = sub.add_parser("finetune", help="supervised training with best-epoch selection")
    _add_common(p, checkpoint=False)
    _add_training_flags(p)

    p = sub.add_parser("evaluate", help="metric report for a checkpoint on a split")
    _add_common(p, checkpoint=True)
    p.add_argument("--metric", choices=("rmse", "mae", "rocauc"), default=None)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")

    p = sub.add_parser("embed", help="write per-molecule graph vectors as JSONL")
    _add_common(p, checkpoint=True)
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
        if is_jsonl:
            molecules.extend(parse_jsonl(data))
        elif strict:
            molecules.extend(parse_sdf(data))
        else:
            mols, errs = parse_sdf_lenient(data)
            molecules.extend(mols)
            for e in errs:
                logger.warning("%s: %s", path, e)
            errors.extend(errs)
    return molecules, errors


def _build_run_config(args, file_cfg: dict) -> RunConfig:
    base = dict(file_cfg.get("run", {}))
    overrides = {
        "epochs": args.epochs if hasattr(args, "epochs") else None,
        "batch_size": args.batch if hasattr(args, "batch") else None,
        "lr_body": getattr(args, "lr_body", None),
        "lr_head": getattr(args, "lr_head", None),
        "mask_ratio": getattr(args, "mask_ratio", None),
        "seed": args.seed,
        "metric": getattr(args, "metric", None),
    }
    if getattr(args, "tasks", None):
        overrides["tasks"] = [t.strip() for t in args.tasks.split(",") if t.strip()]
    base.update({k: v for k, v in overrides.items() if v is not None})
    if "metric" in base and "task_type" not in base:
        base["task_type"] = "classification" if base["metric"] == "rocauc" else "regression"
    try:
        return RunConfig.from_dict(base)
    except TypeError as err:
        raise ConfigError(f"bad run config: {err}") from None


def _build_model_config(args, file_cfg: dict, base: ModelConfig | None = None) -> ModelConfig:
    file_model = dict(file_cfg.get("model", {}))
    if base is not None:
        conflicts = [
            k for k in _STRUCTURAL
            if k in file_model and file_model[k] != getattr(base, k)
        ]
        if conflicts:
            raise ConfigError(
                f"config conflicts with the checkpoint on structural keys: {conflicts}"
            )
        merged = base.to_dict()
        for k in ("dropout", "precision", "num_tasks"):
            if k in file_model:
                merged[k] = file_model[k]
    else:
        merged = ModelConfig().to_dict()
        merged.update(file_model)
    if args.precision is not None:
        merged["precision"] = args.precision
    try:
        return ModelConfig.from_dict(merged)
    except TypeError as err:
        raise ConfigError(f"bad model config: {err}") from None


def _load_checkpoint_checked(path: str, features: FeatureConfig):
    store, model_cfg, manifest, extra = load_checkpoint(path)
    check_manifest(features, manifest, str(path))
    return store, model_cfg, extra


def cmd_featurize(args) -> int:
    molecules, errors = _read_molecules(args.input, strict=args.strict)
    features = FeatureConfig()
    counts = {"atoms": {}, "bonds": {}, "angles": {}}
    # prepared a pack at a time, so the encodings do not pile up; encoding
    # raises DataError for a value outside the layout
    for chunk in in_packs(molecules):
        for item in prepare_molecules(chunk, features):
            g = item.graph
            for key, n in (("atoms", g.num_atoms), ("bonds", g.num_bonds), ("angles", g.num_angles)):
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
    if "fingerprint" in run_cfg.tasks and model_cfg.fingerprint_bits == 0:
        widths = {len(m.fingerprint) for m in molecules if m.fingerprint is not None}
        if len(widths) > 1:
            raise DataError(f"inconsistent fingerprint widths: {sorted(widths)}")
        if widths:
            model_cfg = ModelConfig.from_dict(
                {**model_cfg.to_dict(), "fingerprint_bits": widths.pop()}
            )
    result = pretrain(molecules, model_cfg, run_cfg, out_dir=args.out)
    final = result.history[-1]["loss"] if result.history else float("nan")
    print(f"pretrained {run_cfg.epochs} epochs on {len(molecules)} molecules; "
          f"final loss {final:.6f}; checkpoints in {args.out}")
    return 0


def cmd_finetune(args) -> int:
    file_cfg = _load_config_file(args.config)
    run_cfg = _build_run_config(args, file_cfg)
    features = FeatureConfig()
    init_store = None
    base_cfg = None
    if args.checkpoint:
        init_store, base_cfg, _ = _load_checkpoint_checked(args.checkpoint, features)
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
    features = FeatureConfig()
    store, model_cfg, extra = _load_checkpoint_checked(args.checkpoint, features)
    metric = args.metric or file_cfg.get("run", {}).get("metric")
    if metric is None:
        raise ConfigError("evaluate requires --metric (or run.metric in the config)")
    molecules, _ = _read_molecules(args.input)
    split = DatasetSplit.from_tags(molecules)
    part = getattr(split, args.split)
    names = extra.get("task_names")
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(n, str) for n in names)):
        raise DataError(f"{args.checkpoint}: checkpoint task_names is not a list of strings")
    report = evaluate(store, model_cfg, part, metric, names=names)
    report["split"] = args.split
    write_report(Path(args.out) / "evaluate_report.json", report)
    print(f"{args.split} {metric}: {report['value']:.6f} ({report['count']} molecules)")
    return 0


def cmd_embed(args) -> int:
    features = FeatureConfig()
    store, model_cfg, _ = _load_checkpoint_checked(args.checkpoint, features)
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
