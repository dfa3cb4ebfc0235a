"""Annotated-message domain model, dataset interchange format, and corpus statistics.

A message is an ordered list of argument components: one or more premises
followed by exactly one conclusion. Each component carries a checkworthiness
label and (for hateful messages) a component-level hatefulness annotation.

Interchange format: one JSON object per line, UTF-8::

    {"id": "...", "label": "hate"|"nohate",
     "components": [{"role": "premise"|"conclusion", "cw": "NFS"|"UFS"|"CFS",
                     "hate": "hate"|"nohate"|null, "text": "..."}]}

``"hate": null`` (or an absent key) means the component is unannotated.
"""

import io
import json
import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path


class Checkworthiness(str, Enum):
    """ClaimBuster checkworthiness labels. Canonical one-hot order is (NFS, UFS, CFS)."""

    NFS = "NFS"
    UFS = "UFS"
    CFS = "CFS"


CW_ORDER = (Checkworthiness.NFS, Checkworthiness.UFS, Checkworthiness.CFS)


class ComponentHate(Enum):
    """Component-level hatefulness; UNANNOTATED serializes as JSON null."""

    HATEFUL = "hate"
    NON_HATEFUL = "nohate"
    UNANNOTATED = "unannotated"


class Role(str, Enum):
    PREMISE = "premise"
    CONCLUSION = "conclusion"


class MessageLabel(str, Enum):
    HATEFUL = "hate"
    NON_HATEFUL = "nohate"


class DataError(Exception):
    """Input data the toolkit cannot use; the CLI reports it as a data error (exit 2)."""


class ValidationError(DataError):
    """A message violates a structural invariant.

    ``code`` identifies the invariant: NO_PREMISE, NO_CONCLUSION,
    MULTIPLE_CONCLUSIONS, CONCLUSION_NOT_LAST, NON_CONTIGUOUS_POSITIONS.
    """

    def __init__(self, code: str, message_id: str, detail: str = ""):
        self.code = code
        self.message_id = message_id
        super().__init__(f"{code} in message {message_id!r}" + (f": {detail}" if detail else ""))


class MalformedRecordError(DataError):
    """A dataset line could not be decoded into a message."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


class EmptyDatasetError(DataError):
    """No valid messages; carries any per-record issues seen while parsing."""

    def __init__(self, message: str, skipped: tuple = ()):
        self.skipped = skipped
        super().__init__(message)


class PartialAnnotationWarning(UserWarning):
    """A hateful-labeled message carries unannotated components (encoded as 0 downstream)."""


@dataclass(frozen=True)
class ArgComponent:
    """One premise or conclusion with its annotations. ``text`` is carried but never used."""

    role: Role
    position: int
    cw: Checkworthiness
    hate: ComponentHate = ComponentHate.UNANNOTATED
    text: str | None = None


@dataclass(frozen=True)
class Message:
    id: str
    components: tuple[ArgComponent, ...]
    label: MessageLabel

    @property
    def premises(self) -> tuple[ArgComponent, ...]:
        return tuple(c for c in self.components if c.role is Role.PREMISE)

    @property
    def premise_count(self) -> int:
        return sum(1 for c in self.components if c.role is Role.PREMISE)

    @property
    def conclusion(self) -> ArgComponent:
        for c in self.components:
            if c.role is Role.CONCLUSION:
                return c
        raise ValidationError("NO_CONCLUSION", self.id)


def validate_message(m: Message) -> None:
    """Raise ValidationError unless ``m`` satisfies all structural invariants.

    Invariants: at least one premise, exactly one conclusion in the final
    position, contiguous 0-based positions. A hateful message containing
    unannotated components is accepted with a PartialAnnotationWarning.
    """
    conclusions = [c for c in m.components if c.role is Role.CONCLUSION]
    premises = [c for c in m.components if c.role is Role.PREMISE]
    if not conclusions:
        raise ValidationError("NO_CONCLUSION", m.id)
    if len(conclusions) > 1:
        raise ValidationError("MULTIPLE_CONCLUSIONS", m.id, f"found {len(conclusions)}")
    if not premises:
        raise ValidationError("NO_PREMISE", m.id)
    positions = [c.position for c in m.components]
    if positions != list(range(len(m.components))):
        raise ValidationError("NON_CONTIGUOUS_POSITIONS", m.id, f"positions {positions}")
    if m.components[-1].role is not Role.CONCLUSION:
        raise ValidationError("CONCLUSION_NOT_LAST", m.id)
    if m.label is MessageLabel.HATEFUL and any(
        c.hate is ComponentHate.UNANNOTATED for c in m.components
    ):
        warnings.warn(
            PartialAnnotationWarning(
                f"hateful message {m.id!r} has unannotated components (treated as 0)"
            ),
            stacklevel=2,
        )


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of validated messages."""

    messages: tuple[Message, ...]

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    @cached_property
    def premise_capacity(self) -> int:
        """Slot capacity L: the maximum premise count over all messages."""
        return max(m.premise_count for m in self.messages)

    @cached_property
    def class_counts(self) -> dict[MessageLabel, int]:
        counts = {MessageLabel.HATEFUL: 0, MessageLabel.NON_HATEFUL: 0}
        for m in self.messages:
            counts[m.label] += 1
        return counts

    def labels(self) -> list[int]:
        """Binary gold labels, 1 = hateful."""
        return [1 if m.label is MessageLabel.HATEFUL else 0 for m in self.messages]


def message_from_dict(record: dict, line_no: int = 0) -> Message:
    try:
        msg_id = str(record["id"])
        label = MessageLabel(record["label"])
        raw_components = record["components"]
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedRecordError(line_no, f"bad record: {exc!r}") from exc
    if not isinstance(raw_components, list):
        raise MalformedRecordError(line_no, "components must be a list")
    components = []
    for pos, raw in enumerate(raw_components):
        try:
            hate_raw = raw.get("hate")
            component = ArgComponent(
                role=Role(raw["role"]),
                position=pos,
                cw=Checkworthiness(raw["cw"]),
                hate=ComponentHate.UNANNOTATED if hate_raw is None else ComponentHate(hate_raw),
                text=raw.get("text"),
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise MalformedRecordError(line_no, f"bad component {pos}: {exc!r}") from exc
        components.append(component)
    return Message(id=msg_id, components=tuple(components), label=label)


def message_to_dict(m: Message) -> dict:
    components = []
    for c in m.components:
        entry: dict = {
            "role": c.role.value,
            "cw": c.cw.value,
            "hate": None if c.hate is ComponentHate.UNANNOTATED else c.hate.value,
        }
        if c.text is not None:
            entry["text"] = c.text
        components.append(entry)
    return {"id": m.id, "label": m.label.value, "components": components}


@dataclass(frozen=True)
class RecordIssue:
    line_no: int
    error: Exception

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.error}"


@dataclass(frozen=True)
class ParseResult:
    dataset: "Dataset"
    skipped: tuple[RecordIssue, ...]


def _iter_lines(source) -> Iterator[str | bytes]:
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from fh
    elif isinstance(source, bytes):
        yield from io.BytesIO(source)
    elif isinstance(source, Iterable):
        yield from source
    else:
        raise TypeError(f"unsupported dataset source: {type(source)!r}")


def parse_dataset(source, strict: bool = True) -> ParseResult:
    """Parse line-delimited message records into a validated Dataset.

    ``source`` may be a path, bytes, or an iterable of lines. In strict mode
    the first malformed or invalid record raises; in lenient mode such records
    are skipped and reported in ``ParseResult.skipped``; a line that is not
    UTF-8 is malformed. Blank lines are ignored. Raises EmptyDatasetError
    when no valid message remains.
    """
    messages: list[Message] = []
    skipped: list[RecordIssue] = []
    for line_no, line in enumerate(_iter_lines(source), start=1):
        try:
            try:
                line = line.decode("utf-8") if isinstance(line, bytes) else line
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(line_no, f"invalid UTF-8: {exc.reason}") from exc
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise MalformedRecordError(line_no, "record is not an object")
            message = message_from_dict(record, line_no)
            validate_message(message)
        except (MalformedRecordError, ValidationError) as exc:
            if strict:
                raise
            skipped.append(RecordIssue(line_no, exc))
            continue
        messages.append(message)
    if not messages:
        raise EmptyDatasetError("no valid messages in input", tuple(skipped))
    return ParseResult(Dataset(tuple(messages)), tuple(skipped))


def load_dataset(path, strict: bool = True) -> Dataset:
    return parse_dataset(path, strict=strict).dataset


def dataset_to_jsonl(d: Dataset) -> str:
    return "".join(json.dumps(message_to_dict(m), ensure_ascii=False) + "\n" for m in d.messages)


def write_dataset(d: Dataset, path) -> None:
    Path(path).write_text(dataset_to_jsonl(d), encoding="utf-8")


@dataclass(frozen=True)
class StatsReport:
    """Corpus statistics: class counts, premise-count moments, and the
    (message label x role x checkworthiness x component hate) contingency table."""

    n_messages: int
    n_components: int
    premise_capacity: int
    class_counts: dict = field(repr=False)
    premise_mean: dict = field(repr=False)   # per MessageLabel
    premise_std: dict = field(repr=False)    # population std, per MessageLabel
    cells: dict = field(repr=False)          # (label, role, cw, hate) -> count
    cw_totals: dict = field(repr=False)      # cw -> count over all components

    def to_dict(self) -> dict:
        return {
            "n_messages": self.n_messages,
            "n_components": self.n_components,
            "premise_capacity": self.premise_capacity,
            "class_counts": {k.value: v for k, v in self.class_counts.items()},
            "premise_mean": {k.value: v for k, v in self.premise_mean.items()},
            "premise_std": {k.value: v for k, v in self.premise_std.items()},
            "cw_totals": {k.value: v for k, v in self.cw_totals.items()},
            "cells": [
                {
                    "label": label.value,
                    "role": role.value,
                    "cw": cw.value,
                    "hate": None if hate is ComponentHate.UNANNOTATED else hate.value,
                    "count": count,
                }
                for (label, role, cw, hate), count in sorted(
                    self.cells.items(),
                    key=lambda kv: (kv[0][0].value, kv[0][1].value, kv[0][2].value, kv[0][3].value),
                )
            ],
        }

    def to_markdown(self) -> str:
        def row(cw):
            vals = [
                self.cells.get((MessageLabel.HATEFUL, Role.PREMISE, cw, ComponentHate.NON_HATEFUL), 0),
                self.cells.get((MessageLabel.HATEFUL, Role.PREMISE, cw, ComponentHate.HATEFUL), 0),
                self.cells.get((MessageLabel.HATEFUL, Role.CONCLUSION, cw, ComponentHate.NON_HATEFUL), 0),
                self.cells.get((MessageLabel.HATEFUL, Role.CONCLUSION, cw, ComponentHate.HATEFUL), 0),
                sum(self.cells.get((MessageLabel.NON_HATEFUL, Role.PREMISE, cw, h), 0) for h in ComponentHate),
                sum(self.cells.get((MessageLabel.NON_HATEFUL, Role.CONCLUSION, cw, h), 0) for h in ComponentHate),
                self.cw_totals.get(cw, 0),
            ]
            return f"| {cw.value} | " + " | ".join(str(v) for v in vals) + " |"

        lines = [
            f"Messages: {self.n_messages} "
            f"(hate {self.class_counts.get(MessageLabel.HATEFUL, 0)}, "
            f"nohate {self.class_counts.get(MessageLabel.NON_HATEFUL, 0)}); "
            f"components: {self.n_components}; premise capacity L={self.premise_capacity}",
            "",
            "Premise count per message: "
            + "; ".join(
                f"{label.value} {self.premise_mean[label]:.3f} ± {self.premise_std[label]:.3f}"
                for label in (MessageLabel.HATEFUL, MessageLabel.NON_HATEFUL)
                if label in self.premise_mean
            ),
            "",
            "| CW | hate-msg premise non-hs | hate-msg premise hs | hate-msg concl non-hs "
            "| hate-msg concl hs | nohate-msg premises | nohate-msg conclusions | all |",
            "|---|---|---|---|---|---|---|---|",
        ]
        lines += [row(cw) for cw in CW_ORDER]
        return "\n".join(lines) + "\n"


def dataset_stats(d: Dataset) -> StatsReport:
    """Compute corpus statistics. Raises EmptyDatasetError on an empty dataset."""
    if not d.messages:
        raise EmptyDatasetError("cannot compute statistics of an empty dataset")
    cells: dict = {}
    cw_totals = {cw: 0 for cw in CW_ORDER}
    premise_counts: dict = {MessageLabel.HATEFUL: [], MessageLabel.NON_HATEFUL: []}
    n_components = 0
    for m in d.messages:
        premise_counts[m.label].append(m.premise_count)
        for c in m.components:
            n_components += 1
            key = (m.label, c.role, c.cw, c.hate)
            cells[key] = cells.get(key, 0) + 1
            cw_totals[c.cw] += 1
    mean: dict = {}
    std: dict = {}
    for label, counts in premise_counts.items():
        if not counts:
            continue
        mu = sum(counts) / len(counts)
        mean[label] = mu
        std[label] = math.sqrt(sum((c - mu) ** 2 for c in counts) / len(counts))
    return StatsReport(
        n_messages=len(d.messages),
        n_components=n_components,
        premise_capacity=d.premise_capacity,
        class_counts=dict(d.class_counts),
        premise_mean=mean,
        premise_std=std,
        cells=cells,
        cw_totals=cw_totals,
    )
