"""Tabular data model: typed columns, conditions, explanations, selections.

A dataset is a fixed table of rows over named attributes. Each attribute is
either numeric (finite floats) or categorical (opaque tokens). Conditions
restrict one attribute each; an explanation is a set of conditions with at
most one condition per attribute. Selecting with an explanation yields a
read-only view of the matching rows in their original order.

``parse_csv`` reads a table in chunks of rows and never holds it as rows of
strings: each chunk's cells are coded (categorical) or parsed (numeric)
column by column, into one growing buffer per column, and a parsed
categorical column holds one ``str`` object per distinct token.
"""

from __future__ import annotations

import csv
import io
import re
from array import array
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import MissingValueError, ParseError, PreconditionError, SchemaError

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
        return self.lower is not None

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


class Dataset:
    """Immutable table with typed columns.

    Numeric columns are float64 arrays of finite values; categorical columns
    are object arrays of tokens. Rows are a multiset: duplicates are kept.
    Each categorical column is also held as integer codes into a vocabulary
    of its distinct tokens, numbered in order of first appearance, so
    equality masks and token counts run on integers. Tokens that compare
    equal share a code (``1``, ``True`` and ``1.0`` do) but each row keeps
    the object it was given; a column built by ``parse_csv`` holds one
    ``str`` object per distinct token.
    """

    def __init__(self, schema: Iterable[Attribute], columns: Iterable[np.ndarray]):
        self._check(schema, columns)
        vocabularies = [_Vocabulary() if a.kind == CATEGORICAL else None for a in self.schema]
        self._vocabularies: tuple[dict | None, ...] = tuple(vocabularies)
        self.codes: tuple[np.ndarray | None, ...] = tuple(
            None if v is None else _code(v, col) for v, col in zip(vocabularies, self.columns)
        )

    @classmethod
    def _coded(cls, schema, columns, vocabularies, codes) -> "Dataset":
        """A dataset whose categorical columns come with their vocabularies and codes."""
        db = cls.__new__(cls)
        db._check(schema, columns)
        db._vocabularies = tuple(vocabularies)
        db.codes = tuple(codes)
        return db

    def _check(self, schema: Iterable[Attribute], columns: Iterable[np.ndarray]) -> None:
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

    def attribute(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def code(self, attribute_index: int, token) -> int:
        """Integer code of a categorical token; -1 for a token not in the column."""
        return self._vocabularies[attribute_index].get(token, -1)


class _Vocabulary(dict):
    """Token -> code, numbered by first appearance: a new token gets the next code."""

    def __missing__(self, token) -> int:
        code = self[token] = len(self)
        return code


def _code(vocabulary: _Vocabulary, tokens) -> np.ndarray:
    """The codes of tokens, adding each new token to the vocabulary."""
    return np.fromiter(map(vocabulary.__getitem__, tokens), dtype=np.intp, count=len(tokens))


@dataclass(frozen=True)
class SelectionView:
    """Rows of ``base`` that satisfy an explanation, as ``mask``: one bool per row."""

    base: Dataset
    mask: np.ndarray = field(repr=False)
    explanation: Explanation

    def __post_init__(self):
        mask = self.mask
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (self.base.n_rows,)):
            raise PreconditionError(f"a selection mask must be {self.base.n_rows} bools, one per row")

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def column(self, attribute_index: int) -> np.ndarray:
        return self.base.columns[attribute_index].compress(self.mask)

    def codes(self, attribute_index: int) -> np.ndarray:
        """Integer codes of the selected rows on a categorical attribute."""
        return self.base.codes[attribute_index].compress(self.mask)

    @property
    def fraction(self) -> float:
        return len(self) / self.base.n_rows


def _check_condition(condition: Condition, schema: tuple[Attribute, ...]) -> Attribute:
    if not 0 <= condition.attribute < len(schema):
        raise SchemaError(f"condition refers to attribute {condition.attribute}, outside the schema")
    attr = schema[condition.attribute]
    if condition.is_interval and attr.kind != NUMERIC:
        raise SchemaError(f"interval condition on categorical attribute {attr.name!r}")
    if not condition.is_interval and attr.kind != CATEGORICAL:
        raise SchemaError(f"equality condition on numeric attribute {attr.name!r}")
    return attr


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
    return SelectionView(base=db, mask=mask, explanation=explanation)


# A plain decimal or exponent literal in ASCII digits, or an inf/nan word
# (those parse, and are then rejected as non-finite). float() also takes
# padding, digit-group underscores and non-ASCII digits; this does not.
_NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.IGNORECASE,
)
# the ASCII characters [\s_] matches: str.isspace() ones and the underscore
_PADDING_OR_GROUPING = "_" + "".join(c for c in map(chr, range(128)) if c.isspace())


def _parse_cells(tokens: Sequence[str]) -> list[float]:
    """The tokens before the first that is not a number literal, as floats."""
    # fast path: an ASCII token without padding or underscores that float()
    # accepts is exactly a _NUMBER literal; a word in the column fails
    # float() at once, before the whole column is joined
    try:
        numbers = list(map(float, tokens))
    except ValueError:
        pass
    else:
        joined = "".join(tokens)
        if joined.isascii() and not any(c in joined for c in _PADDING_OR_GROUPING):
            return numbers
    numbers = []
    for t in tokens:
        if not _NUMBER.fullmatch(t):
            break
        numbers.append(float(t))
    return numbers


def read_schema_file(path: str) -> dict[str, str]:
    """Read a sidecar schema file with one ``name:kind`` line per attribute.

    A UTF-8 byte order mark at the start is skipped, as in the data file.
    """
    hint: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
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


class _ColumnReader:
    """One column of a table that is read in chunks of rows.

    A categorical column keeps its vocabulary and the codes of the rows read
    so far, a numeric one their floats, each in one buffer that grows in
    place. While its kind is open (no hint, and only number literals so far)
    a column keeps its tokens as well, joined by commas into one string per
    chunk, so that a word in a later chunk makes it categorical with the
    original strings. A numeric column's first fault is kept, not raised.
    """

    def __init__(self, name: str, kind: str | None):
        self.name = name
        self.kind = kind
        self.vocabulary: _Vocabulary | None = None
        self.values = array("d")
        self.tokens: list[str] = []
        self.fault: ParseError | None = None
        self.rows = 0
        if kind == CATEGORICAL:
            self._categorical()

    def _categorical(self) -> None:
        """Turn categorical: code the tokens kept so far, drop the floats."""
        self.kind = CATEGORICAL
        self.vocabulary = _Vocabulary()
        self.values = array(np.dtype(np.intp).char)
        for kept in self.tokens:
            self._extend(_code(self.vocabulary, kept.split(",")))
        self.tokens = []
        self.fault = None

    def add(self, tokens: tuple[str, ...]) -> None:
        """Take the column's cells of the next chunk of rows."""
        start = self.rows
        self.rows += len(tokens)
        if self.vocabulary is None:
            if self.kind == NUMERIC and self.fault is not None:
                return
            parsed = _parse_cells(tokens)
            if self.kind == NUMERIC or len(parsed) == len(tokens):
                self._add_numbers(tokens, parsed, start)
                return
            self._categorical()
        self._extend(_code(self.vocabulary, tokens))

    def _extend(self, values: np.ndarray) -> None:
        self.values.frombytes(memoryview(values).cast("B"))

    def _add_numbers(self, tokens: tuple[str, ...], parsed: list[float], start: int) -> None:
        # parsed holds the rows before the first token that is not a number literal
        numbers = len(parsed)
        col = np.array(parsed, dtype=np.float64)
        if self.fault is None:
            # a non-finite value before the first non-literal is the first fault
            nonfinite = np.flatnonzero(~np.isfinite(col))
            if nonfinite.size:
                i = int(nonfinite[0])
                self.fault = ParseError(
                    f"non-finite numeric value {tokens[i]!r}", row=start + i, column=self.name
                )
            elif numbers < len(tokens):
                self.fault = ParseError(
                    f"cannot parse {tokens[numbers]!r} as a number", row=start + numbers, column=self.name
                )
        self._extend(col)
        if self.kind is None:
            # a number literal holds no comma and is ASCII: one byte a
            # character, where a str a cell would take some 50 more
            self.tokens.append(",".join(tokens))

    def column(self) -> tuple[str, np.ndarray, _Vocabulary | None, np.ndarray | None]:
        """Kind, values, vocabulary and codes once every row is read; or the first fault."""
        if self.fault is not None:
            raise self.fault
        self.tokens = []
        if self.vocabulary is None:
            return NUMERIC, np.frombuffer(self.values, dtype=np.float64), None, None
        codes = np.frombuffer(self.values, dtype=np.intp)
        # one str object per distinct token
        tokens = np.array(list(self.vocabulary), dtype=object)[codes]
        return CATEGORICAL, tokens, self.vocabulary, codes


# rows read before their cells are coded or parsed column by column
_PARSE_ROWS = 8192


def _add_rows(readers: list[_ColumnReader], rows: list[list[str]]) -> None:
    for column, tokens in zip(readers, zip(*rows)):
        column.add(tokens)


def parse_csv(source: str | IO[str], hint: dict[str, str] | None = None) -> Dataset:
    """Parse comma-separated text into a Dataset.

    The rows are read in chunks of ``_PARSE_ROWS``: the cells of a chunk are
    coded or parsed column by column, so the table is never held as rows of
    strings, and a categorical column keeps one ``str`` per distinct token.

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
        than its field limit). A fault met while reading a row is raised
        at once; a numeric column's first fault is raised once every row
        is read, in header order.
    MissingValueError
        An empty cell anywhere in the data.
    SchemaError
        A hint names an attribute the header does not have.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    reader = csv.reader(stream)
    header: list[str] | None = None
    chunk: list[list[str]] = []
    # data rows read before the current chunk
    read = 0
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

        readers = [_ColumnReader(name, hint.get(name) if hint else None) for name in header]
        m = len(header)
        for i, row in enumerate(reader):
            if len(row) != m:
                raise ParseError(f"expected {m} cells, found {len(row)}", row=i)
            if "" in row:
                raise MissingValueError(row=i, column=header[row.index("")])
            chunk.append(row)
            if len(chunk) == _PARSE_ROWS:
                _add_rows(readers, chunk)
                read += len(chunk)
                chunk = []
    except UnicodeDecodeError as exc:
        raise _not_utf8("input", exc) from None
    except csv.Error as exc:
        # the record the reader failed on is the header or the next data row
        raise ParseError(f"malformed CSV: {exc}", row=None if header is None else read + len(chunk)) from None
    if not read + len(chunk):
        raise ParseError("no data rows")
    _add_rows(readers, chunk)
    # the last chunk's strings go before the columns are built
    del chunk

    # a column's fault is raised in header order
    kinds, columns, vocabularies, codes = zip(*(column.column() for column in readers))
    schema = [Attribute(j, name, kind) for j, (name, kind) in enumerate(zip(header, kinds))]
    return Dataset._coded(schema, columns, vocabularies, codes)
