"""Annotated-message domain model, dataset interchange format, and corpus statistics.

A message is an ordered list of argument components: one or more premises
followed by exactly one conclusion. Each component carries a checkworthiness
label and (for hateful messages) a component-level hatefulness annotation.

A ``Dataset`` is columnar: one label code per message and one role,
checkworthiness and hatefulness code per component, each the member's index
in ``LABEL_ORDER``, ``ROLE_ORDER``, ``CW_ORDER`` or ``HATE_ORDER``. Parsing,
statistics, encoding and the generator read and write these codes;
``Message`` objects are built only for the API that returns them.

Interchange format: one JSON object per line, UTF-8::

    {"id": "...", "label": "hate"|"nohate",
     "components": [{"role": "premise"|"conclusion", "cw": "NFS"|"UFS"|"CFS",
                     "hate": "hate"|"nohate"|null, "text": "..."}]}

``"hate": null`` (or an absent key) means the component is unannotated. An id
is a string or an integer (read as its decimal string), and no two messages
share one; ``text`` is a string or null.

Parsing a path or bytes reads the bytes once, decodes them as UTF-8 once and
walks the text with the json module's C scanner, the one ``json.loads`` uses.
Each record must start at the first character of its line and end just
before its ``"\n"`` or at the end of the text. Checks over all records then
require string ids that are unique, messages of premises then one conclusion,
texts that are strings or null, and no hateful message with an unannotated
component. On any miss (a UTF-8 or scanner error, any error in a record, an
integer id, a CRLF line end, a blank line, whitespace around a record, a
failed check, an empty file) the per-line loop parses the same bytes; it
alone reports errors, warnings and skipped records, and it is the only path
for an iterable of lines. Nesting within a few levels of the interpreter's
recursion limit, where either path's outcome already depends on the caller's
stack depth, is the one input the two may judge differently.
"""

import io
import itertools
import json
import json.scanner
import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np


class Checkworthiness(str, Enum):
    """ClaimBuster checkworthiness labels. Canonical one-hot order is (NFS, UFS, CFS)."""

    NFS = "NFS"
    UFS = "UFS"
    CFS = "CFS"


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


# a column's code is its member's index in that column's order
LABEL_ORDER = (MessageLabel.NON_HATEFUL, MessageLabel.HATEFUL)  # 1 = hateful
ROLE_ORDER = (Role.PREMISE, Role.CONCLUSION)
CW_ORDER = (Checkworthiness.NFS, Checkworthiness.UFS, Checkworthiness.CFS)
HATE_ORDER = (ComponentHate.UNANNOTATED, ComponentHate.NON_HATEFUL, ComponentHate.HATEFUL)
PREMISE, CONCLUSION = 0, 1  # role codes
UNANNOTATED, HATEFUL = 0, 2  # hate codes


_ORDERS = (LABEL_ORDER, ROLE_ORDER, CW_ORDER, HATE_ORDER)
LABEL_CODES, ROLE_CODES, CW_CODES, HATE_CODES = (
    {member: i for i, member in enumerate(order)} for order in _ORDERS
)


class DataError(Exception):
    """Input data the toolkit cannot use; the CLI reports it as a data error (exit 2)."""


class ValidationError(DataError):
    """A message violates a structural invariant.

    ``code`` identifies the invariant: NO_PREMISE, NO_CONCLUSION,
    MULTIPLE_CONCLUSIONS, CONCLUSION_NOT_LAST, NON_CONTIGUOUS_POSITIONS, or
    DUPLICATE_ID (an earlier record of the same dataset has this id).
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


def _check_roles(msg_id, roles: list, positions=None) -> None:
    """Raise ValidationError unless the role codes ``roles`` lay out a message.
    ``positions`` is checked when given; a parsed message's are its indices."""
    n_conclusions = roles.count(CONCLUSION)
    if not n_conclusions:
        raise ValidationError("NO_CONCLUSION", msg_id)
    if n_conclusions > 1:
        raise ValidationError("MULTIPLE_CONCLUSIONS", msg_id, f"found {n_conclusions}")
    if len(roles) == 1:
        raise ValidationError("NO_PREMISE", msg_id)
    if positions is not None and positions != list(range(len(roles))):
        raise ValidationError("NON_CONTIGUOUS_POSITIONS", msg_id, f"positions {positions}")
    if roles[-1] != CONCLUSION:
        raise ValidationError("CONCLUSION_NOT_LAST", msg_id)


def _warn_if_partial(msg_id, label: int, hates: list, stacklevel: int) -> None:
    """Warn if a hateful message has unannotated components; ``stacklevel``
    is the warning's, counted from the caller."""
    if label == LABEL_CODES[MessageLabel.HATEFUL] and UNANNOTATED in hates:
        warnings.warn(
            PartialAnnotationWarning(
                f"hateful message {msg_id!r} has unannotated components (treated as 0)"
            ),
            stacklevel=stacklevel + 1,
        )


def validate_message(m: Message) -> None:
    """Raise ValidationError unless ``m`` satisfies all structural invariants.

    Invariants: at least one premise, exactly one conclusion in the final
    position, contiguous 0-based positions. A hateful message containing
    unannotated components is accepted with a PartialAnnotationWarning.
    """
    _check_roles(
        m.id, [ROLE_CODES[c.role] for c in m.components], [c.position for c in m.components]
    )
    _warn_if_partial(
        m.id, LABEL_CODES[m.label], [HATE_CODES[c.hate] for c in m.components], stacklevel=2
    )


_COLUMN_TYPES = {"label": np.int8, "offsets": np.intp, "role": np.int8, "cw": np.int8,
                 "hate": np.int8}


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable, columnar collection of validated messages.

    Message i has id ``ids[i]`` and label code ``label[i]`` (1 = hateful).
    Its components, in order, are rows ``offsets[i]:offsets[i + 1]`` of the
    component columns: the codes ``role``, ``cw`` and ``hate``, and ``texts``
    (None where a component has no text). The code columns are read-only
    int8 arrays. ``from_messages`` builds a dataset from ``Message``
    objects; ``messages`` builds them back on first use.
    """

    ids: tuple[str, ...]
    label: np.ndarray
    offsets: np.ndarray
    role: np.ndarray
    cw: np.ndarray
    hate: np.ndarray
    texts: tuple[str | None, ...]

    def __post_init__(self):
        for name, dtype in _COLUMN_TYPES.items():
            column = np.array(getattr(self, name), dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "texts", tuple(self.texts))

    @classmethod
    def from_messages(cls, messages: Iterable[Message]) -> "Dataset":
        """Raises ValidationError for a message that is not premises, then one conclusion."""
        messages = tuple(messages)
        for m in messages:
            _check_roles(m.id, [ROLE_CODES[c.role] for c in m.components])
        components = [c for m in messages for c in m.components]
        return cls(
            ids=[m.id for m in messages],
            label=[LABEL_CODES[m.label] for m in messages],
            offsets=np.cumsum([0] + [len(m.components) for m in messages]),
            role=[ROLE_CODES[c.role] for c in components],
            cw=[CW_CODES[c.cw] for c in components],
            hate=[HATE_CODES[c.hate] for c in components],
            texts=[c.text for c in components],
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.ids, self.texts) == (other.ids, other.texts) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMN_TYPES
        )

    @cached_property
    def messages(self) -> tuple[Message, ...]:
        roles = [ROLE_ORDER[code] for code in self.role.tolist()]
        cws = [CW_ORDER[code] for code in self.cw.tolist()]
        hates = [HATE_ORDER[code] for code in self.hate.tolist()]
        offsets = self.offsets.tolist()
        return tuple(
            Message(
                msg_id,
                tuple(
                    ArgComponent(roles[j], j - start, cws[j], hates[j], self.texts[j])
                    for j in range(start, end)
                ),
                LABEL_ORDER[label],
            )
            for msg_id, label, start, end in zip(
                self.ids, self.label.tolist(), offsets, offsets[1:]
            )
        )

    @cached_property
    def message_of(self) -> np.ndarray:
        """Each component's message index."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    @cached_property
    def premise_counts(self) -> np.ndarray:
        return np.bincount(self.message_of[self.role == PREMISE], minlength=len(self))

    @cached_property
    def premise_capacity(self) -> int:
        """Slot capacity L: the maximum premise count over all messages."""
        return int(self.premise_counts.max())

    @cached_property
    def class_counts(self) -> dict[MessageLabel, int]:
        hateful = int(np.count_nonzero(self.label))
        return {MessageLabel.HATEFUL: hateful, MessageLabel.NON_HATEFUL: len(self) - hateful}

    def labels(self) -> list[int]:
        """Binary gold labels, 1 = hateful."""
        return self.label.tolist()


def _code(codes: dict, enum: type[Enum], value) -> int:
    """The code of ``enum(value)``: a dict lookup, or the enum's own error."""
    try:
        return codes[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        return codes[enum(value).value]


_LABEL_VALUES, _ROLE_VALUES, _CW_VALUES, _HATE_VALUES = (
    {member.value: i for i, member in enumerate(order)} for order in _ORDERS
)


def _record_codes(record: dict, line_no: int):
    """One decoded record as (id, label code, roles, cws, hates, texts)."""
    try:
        msg_id = record["id"]
        if isinstance(msg_id, bool) or not isinstance(msg_id, (str, int)):
            raise TypeError(f"id must be a string or an integer, not {type(msg_id).__name__}")
        msg_id = str(msg_id)
        label = _code(_LABEL_VALUES, MessageLabel, record["label"])
        raw_components = record["components"]
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedRecordError(line_no, f"bad record: {exc!r}") from exc
    if not isinstance(raw_components, list):
        raise MalformedRecordError(line_no, "components must be a list")
    roles, cws, hates, texts = [], [], [], []
    for pos, raw in enumerate(raw_components):
        try:
            hate = raw.get("hate")
            roles.append(_code(_ROLE_VALUES, Role, raw["role"]))
            cws.append(_code(_CW_VALUES, Checkworthiness, raw["cw"]))
            hates.append(UNANNOTATED if hate is None else _code(_HATE_VALUES, ComponentHate, hate))
            text = raw.get("text")
            if not (text is None or isinstance(text, str)):
                raise TypeError(f"text must be a string or null, not {type(text).__name__}")
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise MalformedRecordError(line_no, f"bad component {pos}: {exc!r}") from exc
        texts.append(text)
    return msg_id, label, roles, cws, hates, texts


_SCAN = json.scanner.make_scanner(json.JSONDecoder())  # json.loads's scanner
# each (role, cw, hate) value triple a component may carry, and its row of codes
_HATE_OR_NULL = {None: UNANNOTATED, **_HATE_VALUES}
_TRIPLES = list(itertools.product(_ROLE_VALUES, _CW_VALUES, _HATE_OR_NULL))
_TRIPLE_ROW = {triple: row for row, triple in enumerate(_TRIPLES)}
_TRIPLE_CODES = np.array(
    [(_ROLE_VALUES[r], _CW_VALUES[c], _HATE_OR_NULL[h]) for r, c, h in _TRIPLES], dtype=np.int8
)


def _scan_dataset(text: str) -> Dataset | None:
    """The Dataset of ``text`` from one scan, or None when any record is one
    the per-line loop of ``parse_dataset`` must judge."""
    ids, labels, sizes, rows, texts = [], [], [], [], []
    scan, row_of, label_of = _SCAN, _TRIPLE_ROW, _LABEL_VALUES
    start, n = 0, len(text)
    try:
        while start < n:
            record, end = scan(text, start)
            if text.find("\n", start, end) != -1:  # the record spans lines
                return None
            if end < n and text[end] != "\n":  # more follows the record on its line
                return None
            components = record["components"]
            ids.append(record["id"])
            labels.append(label_of[record["label"]])
            sizes.append(len(components))
            for c in components:
                rows.append(row_of[c["role"], c["cw"], c.get("hate")])
                texts.append(c.get("text"))
            start = end + 1
    # no JSON value (StopIteration), invalid JSON, or a record that is no plain message
    except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
        return None
    if set(map(type, ids)) != {str} or not set(map(type, texts)) <= {str, type(None)}:
        return None
    if len(set(ids)) != len(ids):  # a duplicate id
        return None
    role, cw, hate = _TRIPLE_CODES[rows].T
    label = np.array(labels, dtype=np.int8)
    offsets = np.cumsum([0] + sizes)
    # premises, then one conclusion: one conclusion per message, at its end
    conclusions = role == CONCLUSION
    if min(sizes) < 2 or conclusions.sum() != len(ids) or not conclusions[offsets[1:] - 1].all():
        return None
    if (np.repeat(label, sizes).astype(bool) & (hate == UNANNOTATED)).any():  # it would warn
        return None
    return Dataset(ids=ids, label=label, offsets=offsets, role=role, cw=cw, hate=hate, texts=texts)


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
    if isinstance(source, bytes):
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
    UTF-8 is malformed, and so is a record whose id an earlier record has.
    Blank lines are ignored. Raises EmptyDatasetError when no valid message
    remains. A path or bytes whose records are all valid, one to a line, is
    parsed in one scan of its text; see the module docstring.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            source = fh.read()
    if isinstance(source, bytes):
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError:  # the per-line loop reports the line
            pass
        else:
            source = None  # the scan holds the text alone
            dataset = _scan_dataset(text)
            if dataset is not None:
                return ParseResult(dataset, ())
            source = text.encode("utf-8")  # the same bytes again, for the per-line loop
            del text
    columns = {name: [] for name in ("label", "role", "cw", "hate", "texts")}
    lines_of: dict[str, int] = {}  # each accepted id's line
    sizes: list[int] = []
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
            # an integer past CPython's int-string digit limit, or nesting past
            # the interpreter's recursion limit
            except (ValueError, RecursionError) as exc:
                raise MalformedRecordError(line_no, f"invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise MalformedRecordError(line_no, "record is not an object")
            msg_id, label, roles, cws, hates, texts = _record_codes(record, line_no)
            _check_roles(msg_id, roles)
            if msg_id in lines_of:
                raise ValidationError(
                    "DUPLICATE_ID", msg_id, f"line {lines_of[msg_id]} has the same id"
                )
            _warn_if_partial(msg_id, label, hates, stacklevel=1)
        except (MalformedRecordError, ValidationError) as exc:
            if strict:
                raise
            skipped.append(RecordIssue(line_no, exc))
            continue
        lines_of[msg_id] = line_no
        sizes.append(len(roles))
        columns["label"].append(label)
        columns["role"] += roles
        columns["cw"] += cws
        columns["hate"] += hates
        columns["texts"] += texts
    if not sizes:
        raise EmptyDatasetError("no valid messages in input", tuple(skipped))
    dataset = Dataset(ids=tuple(lines_of), offsets=np.cumsum([0] + sizes), **columns)
    return ParseResult(dataset, tuple(skipped))


def load_dataset(path, strict: bool = True) -> Dataset:
    return parse_dataset(path, strict=strict).dataset


def dataset_to_jsonl(d: Dataset) -> str:
    """``d`` in the interchange format: one record per message and line, as
    ``json.dumps(record, ensure_ascii=False)`` writes it."""
    roles = [role.value for role in ROLE_ORDER]
    cws = [cw.value for cw in CW_ORDER]
    hates = [None if hate is ComponentHate.UNANNOTATED else hate.value for hate in HATE_ORDER]
    components = []
    for role, cw, hate, text in zip(d.role.tolist(), d.cw.tolist(), d.hate.tolist(), d.texts):
        entry = {"role": roles[role], "cw": cws[cw], "hate": hates[hate]}
        if text is not None:
            entry["text"] = text
        components.append(entry)
    offsets = d.offsets.tolist()
    encode = json.JSONEncoder(ensure_ascii=False).encode
    return "".join(
        encode(
            {"id": msg_id, "label": LABEL_ORDER[label].value, "components": components[start:end]}
        ) + "\n"
        for msg_id, label, start, end in zip(d.ids, d.label.tolist(), offsets, offsets[1:])
    )


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
    cells: dict = field(repr=False)          # (label, role, cw, hate) -> count, nonzero only
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
    if not len(d):
        raise EmptyDatasetError("cannot compute statistics of an empty dataset")
    shape = (len(LABEL_ORDER), len(ROLE_ORDER), len(CW_ORDER), len(HATE_ORDER))
    cell = np.ravel_multi_index((d.label[d.message_of], d.role, d.cw, d.hate), shape)
    counts = np.bincount(cell, minlength=math.prod(shape)).reshape(shape)
    cells = {
        (LABEL_ORDER[l], ROLE_ORDER[r], CW_ORDER[c], HATE_ORDER[h]): int(counts[l, r, c, h])
        for l, r, c, h in zip(*np.nonzero(counts))
    }
    mean: dict = {}
    std: dict = {}
    for label in (MessageLabel.HATEFUL, MessageLabel.NON_HATEFUL):
        # Python sums, in message order: np.sum is pairwise, and numpy's
        # ** 2 and C pow differ in the last bit of some values
        counts_of = d.premise_counts[d.label == LABEL_CODES[label]].tolist()
        if not counts_of:
            continue
        mu = sum(counts_of) / len(counts_of)
        mean[label] = mu
        std[label] = math.sqrt(sum((c - mu) ** 2 for c in counts_of) / len(counts_of))
    return StatsReport(
        n_messages=len(d),
        n_components=len(d.role),
        premise_capacity=d.premise_capacity,
        class_counts=dict(d.class_counts),
        premise_mean=mean,
        premise_std=std,
        cells=cells,
        cw_totals=dict(zip(CW_ORDER, counts.sum(axis=(0, 1, 3)).tolist())),
    )
