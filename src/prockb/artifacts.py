"""Reading and writing prockb's files: every input is opened, decoded, split
and checked here, and every TSV, JSON and vector artifact is written here.

Shared rules: files are UTF-8, blank lines are skipped, a key that an earlier
row of a keyed file has is an error, and every error is a DataError that
starts with the path and, where there is one, the line (``path: line N: ...``).
Readers stream the file. Tab-separated files are read and written a block of
BLOCK lines at a time: a block's lines are split once, and its columns are
parsed or formatted each in one pass, so memory stays that of one block
however long the file is. Writers take rows, columns or values from the
modules that own the data types and write them in one of three formats:
tab-separated rows, indented JSON, and the ``dim=<d>`` vector format that
embeddings and pair features share.
"""

import hashlib
import json
from array import array
from contextlib import contextmanager
from itertools import compress, islice, repeat
from math import isfinite, nan
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

BLOCK = 256  # lines per block of a tab-separated read or write; memory stays flat


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


def sha256(path) -> str:
    """The hex sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with _reading(path), open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def line_blocks(path) -> Iterator[tuple[Sequence[int], list[str]]]:
    """The non-blank lines of a text file, without newline, up to BLOCK
    lines of the file at a time: each block's 1-based line numbers and its
    lines. Bytes that are not UTF-8 are an error, raised after the block of
    the lines above them."""
    with _reading(path), open(path, encoding="utf-8") as handle:
        start = 1
        while True:
            chunk: list[str] = []
            try:
                chunk.extend(islice(handle, BLOCK))
            except UnicodeDecodeError:
                yield _non_blank(start, chunk)
                raise
            if not chunk:
                return
            yield _non_blank(start, chunk)
            start += len(chunk)


def _non_blank(start: int, chunk: list[str]) -> tuple[Sequence[int], list[str]]:
    """The line numbers and texts of the lines of `chunk` that are not blank."""
    linenos: Sequence[int] = range(start, start + len(chunk))
    blank = list(map(str.isspace, chunk))
    if True in blank:
        keep = [not b for b in blank]
        linenos, chunk = list(compress(linenos, keep)), list(compress(chunk, keep))
    return linenos, list(map(str.rstrip, chunk, repeat("\n")))


def lines(path) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a text file, without newline, with 1-based numbers."""
    for linenos, texts in line_blocks(path):
        yield from zip(linenos, texts)


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


def tab_blocks(
    path, columns: int, most: int | None = None
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """The rows of a tab-separated file, a block of lines at a time
    (`line_blocks`): each block's line numbers and its lines, each split into
    its fields once. A line with fewer than `columns` fields, or more than
    `most`, is an error, raised after the lines above it have been yielded,
    so that a check on those lines comes first."""
    for linenos, texts in line_blocks(path):
        if not texts:
            continue
        rows = list(map(str.split, texts, repeat("\t")))
        widths = list(map(len, rows))
        high = max(widths) if most is None else most
        if columns <= min(widths) and max(widths) <= high:
            yield linenos, rows
            continue
        cut = next(i for i, n in enumerate(widths) if not columns <= n <= high)
        if cut:
            yield linenos[:cut], rows[:cut]
        if most == columns:
            expected = f"{columns} columns"
        elif widths[cut] < columns:
            expected = f"{columns} columns or more"
        else:
            expected = f"{columns} or {most} columns"
        raise fail(path, linenos[cut], f"expected {expected}, got {widths[cut]}")


def tab_rows(
    path, columns: int, exact: bool = False, unique: str | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Tab-separated rows with `columns` fields, or more unless `exact`, with
    their line numbers. With `unique`, the name of the first column, a first
    field that an earlier row has is an error."""
    seen = set()
    for linenos, rows in tab_blocks(path, columns, columns if exact else None):
        for lineno, fields in zip(linenos, rows):
            if unique:
                if fields[0] in seen:
                    raise fail(path, lineno, f"duplicate {unique} {fields[0]!r}")
                seen.add(fields[0])
            yield lineno, fields


def _int(text: str) -> int | None:
    try:
        return int(text)
    except ValueError:
        return None


def _float(text: str | None) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return nan


def int_column(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """`texts` parsed by `int` into int64 in one pass, then None, None; or,
    when some do not parse, zeros and the masks of the texts that are not
    integers and of those out of int64's range."""
    try:
        return np.fromiter(map(int, texts), np.int64, len(texts)), None, None
    except (ValueError, OverflowError):
        values = list(map(_int, texts))
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    not_int = np.array([value is None for value in values])
    out_of_range = np.array([value is not None and not low <= value <= high for value in values])
    return np.zeros(len(texts), dtype=np.int64), not_int, out_of_range


def float_column(texts: Sequence[str | None]) -> np.ndarray:
    """`texts` parsed by `float` into float64, in one pass when all of them
    parse; a text that is not a number, or None, reads as nan."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))
    except (TypeError, ValueError):
        return np.fromiter(map(_float, texts), np.float64, len(texts))


def check_rows(path, linenos: Sequence[int],
               checks: Iterable[tuple[np.ndarray | None, Callable[[int], str]]]) -> None:
    """Raise the error of the first line of a block that fails a check. A
    check is a mask over the block's rows, True where a row fails (None: no
    row does), and the message of row i; where one line fails several
    checks, the first check's message is raised."""
    failed = [(int(np.argmax(bad)), order, message)
              for order, (bad, message) in enumerate(checks) if bad is not None and bad.any()]
    if failed:
        row, _, message = min(failed, key=lambda item: item[:2])
        raise fail(path, linenos[row], message(row))


def read_vectors(path, n_ids: int) -> tuple[list, np.ndarray]:
    """Read a ``dim=<d>`` header, then rows of `n_ids` id fields and d finite
    numbers, separated by whitespace. Returns the ids, each its one field or
    the tuple of its fields, and the float64 matrix of their rows, in file
    order; the values are parsed into one buffer. A row's faults are checked
    in the order width, non-numeric, non-finite, duplicate id."""
    rows = lines(path)
    lineno, header = next(rows, (1, ""))
    header = header.strip()
    dim = int(header[4:]) if header.startswith("dim=") and header[4:].isdecimal() else 0
    if dim < 1:
        raise fail(path, lineno, f"expected header 'dim=<d>' with d >= 1, got {header!r}")
    ids: list = []
    seen: set = set()
    values = array("d")
    for lineno, line in rows:
        fields = line.split()
        row_id = fields[0] if n_ids == 1 else tuple(fields[:n_ids])
        row = f"row {' '.join(fields[:n_ids])!r}"
        if len(fields) - n_ids != dim:
            raise fail(path, lineno, f"{row} has {len(fields) - n_ids} values, expected {dim}"
                       if len(fields) >= n_ids else  # a lone id of a two-id row
                       f"{row} has 1 field, expected {n_ids} ids and {dim} values")
        try:
            vec = list(map(float, fields[n_ids:]))
        except ValueError:
            raise fail(path, lineno, f"{row} has a non-numeric value") from None
        if not all(map(isfinite, vec)):
            raise fail(path, lineno, f"{row} has a non-finite value")
        if row_id in seen:
            raise fail(path, lineno, f"duplicate {row}")
        seen.add(row_id)
        ids.append(row_id)
        values.extend(vec)
    return ids, np.frombuffer(values, dtype=np.float64).reshape(len(ids), dim)


def write_vectors(path, dim: int, rows: Iterable[tuple[str, np.ndarray]]) -> None:
    """Write the ``dim=<d>`` format; each row's id is written as given, and
    each value as the repr of its float."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"dim={dim}\n")
        for row_id, vec in rows:
            values = " ".join(map(repr, np.asarray(vec, dtype=np.float64).tolist()))
            handle.write(f"{row_id} {values}\n")


def write_columns(path, n_rows: int, block: Callable[[slice], Iterable[Iterable]]) -> None:
    """Write `n_rows` tab-separated rows, BLOCK at a time: `block(rows)` gives
    the columns of the rows in the slice `rows`. Each column is formatted in
    one pass, each field as `str` gives it, an array's after one `tolist`
    (for a float, its repr)."""
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, n_rows, BLOCK):
            texts = [map(str, column.tolist() if isinstance(column, np.ndarray) else column)
                     for column in block(slice(start, min(start + BLOCK, n_rows)))]
            handle.write("\n".join(map("\t".join, zip(*texts, strict=True))) + "\n")


def write_rows(path, rows: Iterable[Sequence]) -> None:
    """Write tab-separated rows of one width, each field as `str` gives it."""
    rows = list(rows)
    write_columns(path, len(rows), lambda part: zip(*rows[part], strict=True))


def write_json(path, value) -> None:
    """Write `value` as JSON: sorted keys, indent 2, non-ASCII characters kept, final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, sort_keys=True, ensure_ascii=False, indent=2)
        handle.write("\n")
