"""Geometry-aware molecular graph networks with self-supervised pretraining."""

from .errors import (
    ConfigError,
    DataError,
    GeoGnnError,
    NumericalError,
    ParseError,
    ShapeError,
)
from .features import EncodedGraph, FeatureConfig, encode, rbf_expand
from .geometry import DualGraph, build_dual_graph
from .masking import MaskTargets, mask_context
from .model import GeoGNN, GraphEmbedding, ModelConfig, ParamStore
from .molio import (
    Atom,
    Bond,
    Molecule,
    parse_jsonl,
    parse_sdf,
    ring_membership,
    write_jsonl,
)
from .rng import Rng
from .tensor import Tape, Tensor
from .training import (
    DatasetSplit,
    RunConfig,
    adam_step,
    evaluate,
    finetune,
    metric_mae,
    metric_rmse,
    metric_rocauc,
    pretrain,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Bond",
    "ConfigError",
    "DataError",
    "DatasetSplit",
    "DualGraph",
    "EncodedGraph",
    "FeatureConfig",
    "GeoGNN",
    "GeoGnnError",
    "GraphEmbedding",
    "MaskTargets",
    "ModelConfig",
    "Molecule",
    "NumericalError",
    "ParamStore",
    "ParseError",
    "Rng",
    "RunConfig",
    "ShapeError",
    "Tape",
    "Tensor",
    "adam_step",
    "build_dual_graph",
    "encode",
    "evaluate",
    "finetune",
    "mask_context",
    "metric_mae",
    "metric_rmse",
    "metric_rocauc",
    "parse_jsonl",
    "parse_sdf",
    "pretrain",
    "rbf_expand",
    "ring_membership",
    "write_jsonl",
]
