"""Tabular data model: typed columns, conditions, explanations, selections.

A dataset is a fixed table of rows over named attributes. Each attribute is
either numeric (finite floats) or categorical (opaque tokens). Conditions
restrict one attribute each; an explanation is a set of conditions with at
most one condition per attribute. Selecting with an explanation yields a
read-only view of the matching rows in their original order.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import MissingValueError, ParseError, SchemaError

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_KINDS = (NUMERIC, CATEGORICAL)


@dataclass(frozen=True)
class Attribute:
    """One column of the schema: position, name, and kind."""

    index: int
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown attribute kind {self.kind!r}")


@dataclass(frozen=True)
class Condition:
    """Restriction on a single attribute.

    Numeric conditions are closed intervals (both bounds inclusive);
    categorical conditions require equality with a single token.
    """

    attribute: int
    lower: float | None = None
    upper: float | None = None
    value: str | None = None

    @classmethod
    def interval(cls, attribute: int, lower: float, upper: float) -> "Condition":
        lower = float(lower)
        upper = float(upper)
        if not (lower <= upper):
            raise ValueError(f"invalid interval [{lower}, {upper}]")
        return cls(attribute=attribute, lower=lower, upper=upper)

    @classmethod
    def equality(cls, attribute: int, value: str) -> "Condition":
        return cls(attribute=attribute, value=value)

    @property
    def is_interval(self) -> bool:
        return self.value is None

    def describe(self, schema: tuple[Attribute, ...]) -> str:
        name = schema[self.attribute].name
        if self.is_interval:
            return f"{name} in [{self.lower!r}, {self.upper!r}]"
        return f"{name} = {self.value}"


@dataclass(frozen=True)
class Explanation:
    """A set of conditions, at most one per attribute, kept in index order."""

    conditions: tuple[Condition, ...]

    def __post_init__(self):
        attrs = [c.attribute for c in self.conditions]
        if len(set(attrs)) != len(attrs):
            raise ValueError("explanation holds two conditions on one attribute")
        ordered = tuple(sorted(self.conditions, key=lambda c: c.attribute))
        object.__setattr__(self, "conditions", ordered)

    @classmethod
    def of(cls, *conditions: Condition) -> "Explanation":
        return cls(tuple(conditions))

    @classmethod
    def empty(cls) -> "Explanation":
        return cls(())

    @property
    def attributes(self) -> frozenset[int]:
        return frozenset(c.attribute for c in self.conditions)

    def __len__(self) -> int:
        return len(self.conditions)

    def __iter__(self) -> Iterator[Condition]:
        return iter(self.conditions)

    def describe(self, schema: tuple[Attribute, ...]) -> str:
        if not self.conditions:
            return "(empty)"
        return "; ".join(c.describe(schema) for c in self.conditions)


@dataclass(frozen=True)
class DataObject:
    """One row, with a reference to the schema its cells follow."""

    values: tuple
    schema: tuple[Attribute, ...]

    def __getitem__(self, index: int):
        return self.values[index]


class Dataset:
    """Immutable table with typed columns.

    Numeric columns are float64 arrays of finite values; categorical columns
    are object arrays of tokens. Rows are a multiset: duplicates are kept.
    Each categorical column is also held as integer codes into a vocabulary
    of its distinct tokens, numbered in order of first appearance, so
    equality masks and token counts run on integers.
    """

    def __init__(self, schema: Iterable[Attribute], columns: Iterable[np.ndarray]):
        self.schema: tuple[Attribute, ...] = tuple(schema)
        self.columns: tuple[np.ndarray, ...] = tuple(columns)
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names")
        if len(self.schema) != len(self.columns):
            raise SchemaError("schema and columns disagree in length")
        if not self.columns:
            raise SchemaError("a dataset needs at least one attribute")
        lengths = {len(c) for c in self.columns}
        if len(lengths) != 1:
            raise SchemaError("columns differ in length")
        self._n = lengths.pop()
        if self._n < 1:
            raise SchemaError("a dataset needs at least one row")
        for a, col in zip(self.schema, self.columns):
            if a.kind == NUMERIC:
                if col.dtype != np.float64:
                    raise SchemaError(f"numeric column {a.name!r} must be float64")
                if not np.all(np.isfinite(col)):
                    raise SchemaError(f"numeric column {a.name!r} holds non-finite values")
        self._by_name = {a.name: a for a in self.schema}
        encoded = [
            _encode(col) if a.kind == CATEGORICAL else (None, None)
            for a, col in zip(self.schema, self.columns)
        ]
        self._vocabularies: tuple[dict | None, ...] = tuple(v for v, _ in encoded)
        self.codes: tuple[np.ndarray | None, ...] = tuple(c for _, c in encoded)

    @classmethod
    def from_arrays(cls, names, kinds, columns) -> "Dataset":
        schema = [Attribute(i, n, k) for i, (n, k) in enumerate(zip(names, kinds))]
        cols = []
        for a, col in zip(schema, columns):
            if a.kind == NUMERIC:
                cols.append(np.asarray(col, dtype=np.float64))
            else:
                cols.append(np.asarray(col, dtype=object))
        return cls(schema, cols)

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def n_attributes(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return self._n

    def attribute(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def code(self, attribute_index: int, token) -> int:
        """Integer code of a categorical token; -1 for a token not in the column."""
        return self._vocabularies[attribute_index].get(token, -1)

    def row(self, index: int) -> DataObject:
        if not 0 <= index < self._n:
            raise IndexError(f"row index {index} out of range for {self._n} rows")
        values = tuple(
            float(col[index]) if a.kind == NUMERIC else col[index]
            for a, col in zip(self.schema, self.columns)
        )
        return DataObject(values=values, schema=self.schema)


def _encode(col: np.ndarray) -> tuple[dict, np.ndarray]:
    """Vocabulary (token -> code, by first appearance) and per-row codes."""
    vocabulary: dict = {}
    codes = np.fromiter(
        (vocabulary.setdefault(v, len(vocabulary)) for v in col), dtype=np.intp, count=len(col)
    )
    return vocabulary, codes


@dataclass(frozen=True)
class SelectionView:
    """Read-only view of the rows of a dataset that satisfy an explanation."""

    base: Dataset
    indices: np.ndarray = field(repr=False)
    explanation: Explanation

    def __len__(self) -> int:
        return int(len(self.indices))

    def column(self, attribute_index: int) -> np.ndarray:
        return self.base.columns[attribute_index][self.indices]

    def codes(self, attribute_index: int) -> np.ndarray:
        """Integer codes of the selected rows on a categorical attribute."""
        return self.base.codes[attribute_index][self.indices]

    @property
    def fraction(self) -> float:
        return len(self.indices) / self.base.n_rows


def _check_condition(condition: Condition, schema: tuple[Attribute, ...]) -> Attribute:
    if not 0 <= condition.attribute < len(schema):
        raise SchemaError(f"condition refers to attribute {condition.attribute}, outside the schema")
    attr = schema[condition.attribute]
    if condition.is_interval and attr.kind != NUMERIC:
        raise SchemaError(f"interval condition on categorical attribute {attr.name!r}")
    if not condition.is_interval and attr.kind != CATEGORICAL:
        raise SchemaError(f"equality condition on numeric attribute {attr.name!r}")
    return attr


def satisfies(o: DataObject, explanation: Explanation) -> bool:
    """True when every condition of the explanation holds for row o."""
    for condition in explanation:
        attr = _check_condition(condition, o.schema)
        cell = o.values[attr.index]
        if condition.is_interval:
            if not (condition.lower <= cell <= condition.upper):
                return False
        elif cell != condition.value:
            return False
    return True


def condition_mask(db: Dataset, condition: Condition) -> np.ndarray:
    """Boolean mask of the rows of db that satisfy one condition."""
    attr = _check_condition(condition, db.schema)
    if condition.is_interval:
        col = db.columns[attr.index]
        return (col >= condition.lower) & (col <= condition.upper)
    return db.codes[attr.index] == db.code(attr.index, condition.value)


def select(db: Dataset, explanation: Explanation) -> SelectionView:
    """Rows of db satisfying the explanation, in original order."""
    mask = np.ones(db.n_rows, dtype=bool)
    for condition in explanation:
        mask &= condition_mask(db, condition)
    return SelectionView(base=db, indices=np.nonzero(mask)[0], explanation=explanation)


def support(db: Dataset, explanation: Explanation) -> float:
    """Fraction of rows of db selected by the explanation."""
    return select(db, explanation).fraction


# A plain decimal or exponent literal in ASCII digits, or an inf/nan word
# (those parse, and are then rejected as non-finite). float() also takes
# padding, digit-group underscores and non-ASCII digits; this does not.
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.IGNORECASE,
)
# the ASCII characters [\s_] matches: str.isspace() ones and the underscore
_PADDING_OR_GROUPING = "_" + "".join(c for c in map(chr, range(128)) if c.isspace())


def _parse_cells(tokens: list[str]) -> list[float | None]:
    """Each token as a float, or None where it is not a number literal."""
    # fast path: an ASCII token without padding or underscores that float()
    # accepts is exactly a _NUMBER literal
    joined = "".join(tokens)
    if joined.isascii() and not any(c in joined for c in _PADDING_OR_GROUPING):
        try:
            return list(map(float, tokens))
        except ValueError:
            pass
    return [float(t) if m else None for t, m in zip(tokens, map(_NUMBER.fullmatch, tokens))]


def read_schema_file(path: str) -> dict[str, str]:
    """Read a sidecar schema file with one ``name:kind`` line per attribute."""
    hint: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                name, sep, kind = line.rpartition(":")
                if not sep or kind not in _KINDS:
                    raise ParseError(f"bad schema line {line!r}", row=lineno)
                hint[name] = kind
        except UnicodeDecodeError as exc:
            raise _not_utf8("schema file", exc) from None
    return hint


def _not_utf8(what: str, exc: UnicodeDecodeError) -> ParseError:
    # no row: the fault surfaces where the stream decodes its next buffer,
    # which need not be the line that holds it
    return ParseError(f"{what} is not valid UTF-8 ({exc.reason})")


def parse_csv(source: str | IO[str], hint: dict[str, str] | None = None) -> Dataset:
    """Parse comma-separated text into a Dataset.

    Parameters
    ----------
    source : str or text stream
        CSV content. The first row is a header of unique attribute names.
    hint : dict, optional
        Kind overrides keyed by attribute name. Columns without an override
        are numeric when every cell parses as a number, else categorical.

    Returns
    -------
    Dataset

    Raises
    ------
    ParseError
        Empty input, duplicate header names, ragged rows, unparseable or
        non-finite cells in a numeric column, a stream that is not valid
        UTF-8, or a record the csv module rejects (such as a cell longer
        than its field limit).
    MissingValueError
        An empty cell anywhere in the data.
    SchemaError
        A hint names an attribute the header does not have.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    reader = csv.reader(stream)
    header: list[str] | None = None
    cells: list[list[str]] = []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input")
        if len(set(header)) != len(header):
            raise ParseError("duplicate attribute names in header")
        if hint:
            for name in hint:
                if name not in header:
                    raise SchemaError(f"schema hint names unknown attribute {name!r}")
                if hint[name] not in _KINDS:
                    raise SchemaError(f"schema hint has unknown kind {hint[name]!r}")

        m = len(header)
        for i, row in enumerate(reader):
            if len(row) != m:
                raise ParseError(f"expected {m} cells, found {len(row)}", row=i)
            if "" in row:
                raise MissingValueError(row=i, column=header[row.index("")])
            cells.append(row)
    except UnicodeDecodeError as exc:
        raise _not_utf8("input", exc) from None
    except csv.Error as exc:
        # the record the reader failed on is the header or the next data row
        raise ParseError(f"malformed CSV: {exc}", row=None if header is None else len(cells)) from None
    if not cells:
        raise ParseError("no data rows")

    columns: list[np.ndarray] = []
    kinds: list[str] = []
    for j, name in enumerate(header):
        tokens = [row[j] for row in cells]
        parsed = _parse_cells(tokens)
        # rows before the first token that is not a number literal
        numbers = parsed.index(None) if None in parsed else len(parsed)
        wanted = hint.get(name) if hint else None
        if wanted is None:
            wanted = NUMERIC if numbers == len(parsed) else CATEGORICAL
        if wanted == NUMERIC:
            col = np.array(parsed[:numbers], dtype=np.float64)
            # a non-finite value before the first non-literal is the first fault
            nonfinite = np.flatnonzero(~np.isfinite(col))
            if nonfinite.size:
                i = int(nonfinite[0])
                raise ParseError(f"non-finite numeric value {tokens[i]!r}", row=i, column=name)
            if numbers < len(parsed):
                raise ParseError(f"cannot parse {tokens[numbers]!r} as a number", row=numbers, column=name)
            columns.append(col)
        else:
            columns.append(np.array(tokens, dtype=object))
        kinds.append(wanted)

    schema = [Attribute(j, name, kind) for j, (name, kind) in enumerate(zip(header, kinds))]
    return Dataset(schema, columns)
