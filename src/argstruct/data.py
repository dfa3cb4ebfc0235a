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

Parsing a path or bytes reads it once, front to back, in blocks of whole
lines (``BLOCK_BYTES`` and the rest of the line they end in), so no more than
a block of the source is held as bytes and text at once. Each block is
decoded as UTF-8 and walked with the json module's C scanner, the one
``json.loads`` uses. A line the scan cannot take (invalid JSON, a key, value
or type the format does not allow, or not one record on its line; a CRLF
line end is fine) goes alone to the per-line decoder, which an iterable of
lines and a block that is not UTF-8 take line by line; the scan resumes at
the next line. Both write into the same columns, line numbers run on across
blocks, and one check of the record rules judges all records.
Nesting within a few levels of the interpreter's recursion limit, where
either path's outcome already depends on the caller's stack depth, is the
one input the two may judge differently.
"""

import io
import itertools
import json
import json.scanner
import math
import warnings
from array import array
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


def _record_rules(d: "Dataset", lines=None, positions=None):
    """The record rules over the unchecked records of ``d``: each record's first
    broken rule, in the order of ``rules`` and then, given each record's
    ``lines``, DUPLICATE_ID against the earlier accepted records. An accepted
    hateful message with an unannotated component warns. Returns {record:
    ValidationError} and {record: PartialAnnotationWarning}, in line order."""
    sizes, record_of = np.diff(d.offsets), d.message_of

    def per_record(mask):
        return np.bincount(record_of[mask], minlength=len(d))

    conclusions = sizes - d.premise_counts
    last = np.zeros(len(d), dtype=bool)  # the record's last component is a conclusion
    filled = sizes > 0
    last[filled] = d.role[d.offsets[1:][filled] - 1] == CONCLUSION
    moved = positions is not None and per_record(  # a position is not its index in the record
        np.asarray(positions) != np.arange(len(d.role)) - d.offsets[record_of]
    ) > 0
    rules = (  # (code, broken, detail); NON_CONTIGUOUS_POSITIONS needs ``positions``
        ("NO_CONCLUSION", conclusions == 0, ""),
        ("MULTIPLE_CONCLUSIONS", conclusions > 1, "found {n}"),
        ("NO_PREMISE", sizes == 1, ""),
        ("NON_CONTIGUOUS_POSITIONS", moved, "positions {positions}"),
        ("CONCLUSION_NOT_LAST", ~last, ""),
    )
    broken = np.select([rule[1] for rule in rules], range(1, len(rules) + 1))
    errors = {}
    for i in np.flatnonzero(broken).tolist():
        code, _, detail = rules[broken[i] - 1]
        own = positions[d.offsets[i]:d.offsets[i + 1]] if positions is not None else None
        errors[i] = ValidationError(code, d.ids[i], detail.format(n=conclusions[i], positions=own))
    accepted = broken == 0
    if lines is not None and _may_repeat(d.ids):
        first: dict = {}  # each id's first accepted record
        for i in np.flatnonzero(accepted).tolist():
            if (j := first.setdefault(d.ids[i], i)) != i:
                detail = f"line {lines[j]} has the same id"
                errors[i], accepted[i] = ValidationError("DUPLICATE_ID", d.ids[i], detail), False
    partial = accepted & d.label.astype(bool) & (per_record(d.hate == UNANNOTATED) > 0)
    text = "hateful message {!r} has unannotated components (treated as 0)"
    warns = {i: PartialAnnotationWarning(text.format(d.ids[i])) for i in np.flatnonzero(partial)}
    return dict(sorted(errors.items())), warns


def _may_repeat(ids) -> bool:
    """Whether two of ``ids`` hash alike, as two equal ones do; their sorted
    hashes take a fraction of the memory of a set of them."""
    hashes = np.sort(np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids)))
    return bool((hashes[1:] == hashes[:-1]).any())


def validate_message(m: Message) -> None:
    """Raise ValidationError unless ``m`` satisfies all structural invariants.

    Invariants: at least one premise, exactly one conclusion in the final
    position, contiguous 0-based positions. A hateful message containing
    unannotated components is accepted with a PartialAnnotationWarning.
    """
    for warning in _record_rules(Dataset.from_messages((m,)))[1].values():
        warnings.warn(warning, stacklevel=2)


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
        """Raises the ValidationError of the first message ``validate_message`` rejects."""
        messages = tuple(messages)
        components = [c for m in messages for c in m.components]
        d = cls(
            ids=[m.id for m in messages],
            label=[LABEL_CODES[m.label] for m in messages],
            offsets=np.cumsum([0] + [len(m.components) for m in messages]),
            role=[ROLE_CODES[c.role] for c in components],
            cw=[CW_CODES[c.cw] for c in components],
            hate=[HATE_CODES[c.hate] for c in components],
            texts=[c.text for c in components],
        )
        errors, _ = _record_rules(d, positions=[c.position for c in components])
        if errors:
            raise next(iter(errors.values()))
        return d

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
# each (role, cw, hate) value triple a component may carry: (role * 3 + cw) * 3 + hate, in codes
_HATE_OR_NULL = {None: UNANNOTATED, **_HATE_VALUES}
_TRIPLE_CODE = {(r, c, h): (_ROLE_VALUES[r] * 3 + _CW_VALUES[c]) * 3 + _HATE_OR_NULL[h]
                for r, c, h in itertools.product(_ROLE_VALUES, _CW_VALUES, _HATE_OR_NULL)}


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


BLOCK_BYTES = 1 << 18  # a path or bytes is read 256 KiB at a time, plus the rest of a line


class _Records:
    """The decoded records of a source, in line order, as unchecked columns:
    each record's id, label code, line number and end offset into the
    component columns, and each component's ``_TRIPLE_CODE`` and text; and
    the issues of the lines that did not decode to a record."""

    def __init__(self):
        self.ids, self.texts, self.issues = [], [], []
        self.labels, self.codes = bytearray(), bytearray()
        self.offsets, self.lines = array("q", [0]), array("q")

    def scan_text(self, text: str, line_no: int) -> int:
        """Add the lines of ``text``, the first line ``line_no``, in one scan; a
        line that is not one plain record goes alone to ``decode_line``.
        Returns the number of the line after ``text``."""
        ids, labels, codes, texts = self.ids, self.labels, self.codes, self.texts
        offsets, scan, code_of, label_of = self.offsets, _SCAN, _TRIPLE_CODE, _LABEL_VALUES
        start, n = 0, len(text)
        while start < n:
            first = len(ids)
            try:
                while start < n:
                    record, end = scan(text, start)
                    line_end = text.find("\n", start) % (n + 1)  # n on a last line with no "\n"
                    # the record fills its line, up to the "\r" json.loads skips in a CRLF
                    if end != line_end and text[end:line_end] != "\r":
                        break
                    msg_id, components = record["id"], record["components"]
                    label = label_of[record["label"]]
                    if type(msg_id) is int:  # read as its decimal string
                        msg_id = str(msg_id)
                    if type(msg_id) is not str or type(components) is not list:
                        break
                    for c in components:
                        codes.append(code_of[c["role"], c["cw"], c.get("hate")])
                        t = c.get("text")
                        if t is not None and type(t) is not str:
                            raise TypeError("text must be a string or null")
                        texts.append(t)
                    ids.append(msg_id)
                    labels.append(label)
                    offsets.append(len(texts))
                    start = line_end + 1
            # no JSON value (StopIteration), invalid JSON, or a record that is no plain message
            except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
                pass
            del codes[offsets[-1]:], texts[offsets[-1]:]  # the components of a record it left
            self.lines.extend(range(line_no, line_no + len(ids) - first))
            line_no += len(ids) - first
            if start < n:
                end = text.find("\n", start) % (n + 1) + 1
                self.decode_line(text[start:end], line_no)
                start, line_no = end, line_no + 1
        return line_no

    def decode_line(self, line: str | bytes, line_no: int) -> None:
        """Add the record on ``line``, line ``line_no``, decoded by ``json.loads``,
        or its issue; a blank line adds nothing."""
        try:
            try:
                line = line.decode("utf-8") if isinstance(line, bytes) else line
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(line_no, f"invalid UTF-8: {exc.reason}") from exc
            if not line.strip():
                return
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
        except MalformedRecordError as exc:
            self.issues.append(RecordIssue(line_no, exc))
            return
        self.ids.append(msg_id)
        self.labels.append(label)
        self.codes.extend((r * 3 + c) * 3 + h for r, c, h in zip(roles, cws, hates))
        self.texts.extend(texts)
        self.offsets.append(len(self.texts))
        self.lines.append(line_no)

    def dataset(self) -> "Dataset":
        role, rest = np.divmod(np.frombuffer(self.codes, np.int8), 9)
        cw, hate = np.divmod(rest, 3)
        return Dataset(ids=self.ids, label=np.frombuffer(self.labels, np.int8),
                       offsets=np.frombuffer(self.offsets, np.int64), role=role, cw=cw, hate=hate,
                       texts=self.texts)


def _checked(dataset: Dataset, lines, issues: list, strict: bool) -> ParseResult:
    """The ParseResult of the decoded records ``dataset``, on ``lines``, and of
    ``issues``, the lines that did not decode; strict mode raises the first issue."""
    errors, warns = _record_rules(dataset, lines)
    issues = sorted(issues + [RecordIssue(int(lines[i]), e) for i, e in errors.items()],
                    key=lambda issue: issue.line_no)
    end = issues[0].line_no if strict and issues else math.inf  # warn only before it
    for warning in (w for i, w in warns.items() if lines[i] < end):
        warnings.warn(warning, stacklevel=2)
    if strict and issues:
        raise issues[0].error
    if len(errors) == len(dataset):
        raise EmptyDatasetError("no valid messages in input", tuple(issues))
    if errors:
        keep = np.isin(np.arange(len(dataset)), list(errors), invert=True)
        rows = keep[dataset.message_of]
        dataset = Dataset(
            ids=itertools.compress(dataset.ids, keep), label=dataset.label[keep],
            offsets=np.append(0, np.cumsum(np.diff(dataset.offsets)[keep])),
            role=dataset.role[rows], cw=dataset.cw[rows], hate=dataset.hate[rows],
            texts=itertools.compress(dataset.texts, rows),
        )
    return ParseResult(dataset, tuple(issues))


def parse_dataset(source, strict: bool = True) -> ParseResult:
    """Parse line-delimited message records into a validated Dataset.

    ``source`` may be a path, bytes, or an iterable of lines. In strict mode
    the first malformed or invalid record raises; in lenient mode such records
    are skipped and reported in ``ParseResult.skipped``. A line that does not
    decode to a record (not UTF-8 or JSON, or a key, value or type the format
    does not allow) is malformed (``MalformedRecordError``). A record that
    breaks a structural rule is invalid (``ValidationError``), and so, with
    code DUPLICATE_ID, is a record whose id an earlier accepted record has.
    Blank lines are ignored. Raises EmptyDatasetError when no valid message
    remains. A path or bytes is read once, in blocks of whole lines, each
    parsed in one scan of its text; a line the scan cannot take goes alone
    to the per-line decoder. See the module docstring.
    """
    records = _Records()
    if isinstance(source, (str, Path, bytes)):
        with io.BytesIO(source) if isinstance(source, bytes) else open(source, "rb") as fh:
            line_no = 1
            while block := fh.read(BLOCK_BYTES):
                if not block.endswith(b"\n"):
                    block += fh.readline()  # a line longer than a block joins it whole
                try:
                    line_no = records.scan_text(block.decode("utf-8"), line_no)
                except UnicodeDecodeError:  # the per-line decoder reports the line
                    for line in io.BytesIO(block):
                        records.decode_line(line, line_no)
                        line_no += 1
    elif isinstance(source, Iterable):
        for line_no, line in enumerate(source, start=1):
            records.decode_line(line, line_no)
    else:
        raise TypeError(f"unsupported dataset source: {type(source)!r}")
    dataset, lines, issues = records.dataset(), records.lines, records.issues
    del records  # its columns, copied into the dataset
    return _checked(dataset, lines, issues, strict)


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
