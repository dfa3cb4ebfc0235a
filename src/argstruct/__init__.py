"""Predict message-level hatefulness from argument-component structure and
annotations: feature encodings, small from-scratch classifiers, stratified
cross-validation, and a synthetic corpus generator."""

from .data import (
    ArgComponent,
    Checkworthiness,
    ComponentHate,
    Dataset,
    Message,
    MessageLabel,
    Role,
    dataset_stats,
    load_dataset,
    parse_dataset,
    validate_message,
    write_dataset,
)
from .encodings import FAMILIES, EncodingSpec, encode, encode_dataset
from .evaluation import (
    ConfusionMatrix,
    FoldAssignment,
    MetricSet,
    aggregate,
    confusion,
    macro_metrics,
    stratified_kfold,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    run_cell,
    run_grid,
)
from .models import ModelSpec, fit
from .synth import GeneratorConfig, generate

__version__ = "0.1.0"

__all__ = [
    "ArgComponent",
    "Checkworthiness",
    "ComponentHate",
    "ConfusionMatrix",
    "Dataset",
    "EncodingSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "FAMILIES",
    "FoldAssignment",
    "GeneratorConfig",
    "Message",
    "MessageLabel",
    "MetricSet",
    "ModelSpec",
    "Role",
    "aggregate",
    "confusion",
    "dataset_stats",
    "emit_report",
    "encode",
    "encode_dataset",
    "fit",
    "generate",
    "load_dataset",
    "macro_metrics",
    "parse_dataset",
    "run_cell",
    "run_grid",
    "stratified_kfold",
    "validate_message",
    "write_dataset",
    "__version__",
]
