"""Reading and writing prockb's files: every input is opened, decoded, split
and checked here, and every TSV, JSON and vector artifact is written here.

Shared rules: files are UTF-8, blank lines are skipped, a key that an earlier
row of a keyed file has is an error, and every error is a DataError that
starts with the path and, where there is one, the line (``path: line N: ...``).
Readers stream line by line. Writers take rows or values from the modules
that own the data types and write them in one of three formats: tab-separated
rows, indented JSON, and the ``dim=<d>`` vector format that embeddings and
pair features share.
"""

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError


def fail(path, lineno: int, message: str) -> DataError:
    return DataError(f"{path}: line {lineno}: {message}")


@contextmanager
def _reading(path):
    """Turn a file that cannot be opened or decoded into a DataError."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise fail(path, lineno, f"not valid UTF-8 (byte {exc.start})") from None
        raise


def lines(path) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a text file, without newline, with 1-based numbers."""
    with _reading(path), open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if line.strip():
                yield lineno, line.rstrip("\n")


def read_text(path) -> str:
    with _reading(path):
        return Path(path).read_text(encoding="utf-8")


def read_json(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON: {exc}") from None


def json_lines(path) -> Iterator[tuple[int, object]]:
    """One JSON value per non-blank line, with its line number."""
    for lineno, line in lines(path):
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            raise fail(path, lineno, f"malformed JSON: {exc.msg}") from None
        yield lineno, value


def tab_rows(
    path, columns: int, exact: bool = False, unique: str | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Tab-separated rows with `columns` fields, or more unless `exact`, with
    their line numbers. With `unique`, the name of the first column, a first
    field that an earlier row has is an error."""
    seen = set()
    for lineno, line in lines(path):
        fields = line.split("\t")
        if len(fields) != columns and (exact or len(fields) < columns):
            more = "" if exact else " or more"
            raise fail(path, lineno, f"expected {columns} columns{more}, got {len(fields)}")
        if unique:
            if fields[0] in seen:
                raise fail(path, lineno, f"duplicate {unique} {fields[0]!r}")
            seen.add(fields[0])
        yield lineno, fields


def read_vectors(path, n_ids: int) -> tuple[int, dict]:
    """Read a ``dim=<d>`` header, then rows of `n_ids` id fields and d finite
    numbers, separated by whitespace. Returns d and {id: vector}, where an id
    is its one field, or the tuple of its fields; ids are unique."""
    rows = lines(path)
    lineno, header = next(rows, (1, ""))
    header = header.strip()
    dim = int(header[4:]) if header.startswith("dim=") and header[4:].isdecimal() else 0
    if dim < 1:
        raise fail(path, lineno, f"expected header 'dim=<d>' with d >= 1, got {header!r}")
    table: dict = {}
    for lineno, line in rows:
        fields = line.split()
        row_id = fields[0] if n_ids == 1 else tuple(fields[:n_ids])
        row = f"row {' '.join(fields[:n_ids])!r}"
        if len(fields) - n_ids != dim:
            raise fail(path, lineno, f"{row} has {len(fields) - n_ids} values, expected {dim}")
        try:
            vec = np.array([float(x) for x in fields[n_ids:]], dtype=np.float64)
        except ValueError:
            raise fail(path, lineno, f"{row} has a non-numeric value") from None
        if not np.all(np.isfinite(vec)):
            raise fail(path, lineno, f"{row} has a non-finite value")
        if row_id in table:
            raise fail(path, lineno, f"duplicate {row}")
        table[row_id] = vec
    return dim, table


def write_vectors(path, dim: int, rows: Iterable[tuple[str, np.ndarray]]) -> None:
    """Write the ``dim=<d>`` format; each row's id is written as given."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"dim={dim}\n")
        for row_id, vec in rows:
            values = " ".join(repr(float(x)) for x in vec)
            handle.write(f"{row_id} {values}\n")


def write_rows(path, rows: Iterable[Iterable]) -> None:
    """Write tab-separated rows, each field as `str` gives it (for a float, its repr)."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write("\t".join(map(str, row)) + "\n")


def write_json(path, value) -> None:
    """Write `value` as JSON: sorted keys, indent 2, non-ASCII characters kept, final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, sort_keys=True, ensure_ascii=False, indent=2)
        handle.write("\n")
