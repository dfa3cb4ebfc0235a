"""The object-per-message data layer: the reference for the columnar one.

``message_from_dict``, ``validate_message``, ``message_to_dict``,
``_iter_lines``, the loop of ``parse_dataset``, ``dataset_to_jsonl`` and
``dataset_stats`` are the original implementation, which built a frozen
``Message`` per record and walked those objects in Python. Only their inputs and outputs changed: ``parse_dataset``
returns its messages and skipped records as tuples, and ``dataset_stats`` and
``dataset_to_jsonl`` take a sequence of messages. The domain classes, the
error classes and ``StatsReport`` come from the library, so a test can
compare messages, errors and reports directly.
"""

import io
import json
import math
import warnings
from collections.abc import Iterable, Iterator
from pathlib import Path

from argstruct.data import (
    ArgComponent,
    Checkworthiness,
    ComponentHate,
    EmptyDatasetError,
    MalformedRecordError,
    Message,
    MessageLabel,
    PartialAnnotationWarning,
    RecordIssue,
    Role,
    StatsReport,
    ValidationError,
)

CW_ORDER = (Checkworthiness.NFS, Checkworthiness.UFS, Checkworthiness.CFS)


def validate_message(m: Message) -> None:
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


def parse_dataset(source, strict: bool = True):
    """(messages, skipped) of ``source``; raises as the original parser did."""
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
            except ValueError as exc:  # an integer past CPython's int-string digit limit
                raise MalformedRecordError(line_no, f"invalid JSON: {exc}") from exc
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
    return tuple(messages), tuple(skipped)


def dataset_to_jsonl(messages) -> str:
    return "".join(json.dumps(message_to_dict(m), ensure_ascii=False) + "\n" for m in messages)


def dataset_stats(messages) -> StatsReport:
    if not messages:
        raise EmptyDatasetError("cannot compute statistics of an empty dataset")
    cells: dict = {}
    cw_totals = {cw: 0 for cw in CW_ORDER}
    premise_counts: dict = {MessageLabel.HATEFUL: [], MessageLabel.NON_HATEFUL: []}
    class_counts = {MessageLabel.HATEFUL: 0, MessageLabel.NON_HATEFUL: 0}
    n_components = 0
    for m in messages:
        class_counts[m.label] += 1
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
        n_messages=len(messages),
        n_components=n_components,
        premise_capacity=max(m.premise_count for m in messages),
        class_counts=class_counts,
        premise_mean=mean,
        premise_std=std,
        cells=cells,
        cw_totals=cw_totals,
    )
