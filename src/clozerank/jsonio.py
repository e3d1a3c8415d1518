"""The JSON artifact format: every JSON and JSONL file is read and written here.

JSON files hold one object, indented, with sorted keys and a final newline;
JSONL files hold one compact object per line. Read errors name path[:line].
"""

import json
import operator
import os
import re
from contextlib import contextmanager
from pathlib import Path

# A str holding a surrogate code point has no UTF-8 encoding.
_SURROGATE = re.compile("[\ud800-\udfff]")
# JSONEncoder.encode builds a C encoder per call; every JSONL row shares this one,
# which keeps no circular-reference markers, as no row holds itself.
_row_chunks = json.encoder.c_make_encoder(None, json.JSONEncoder().default,
    json.encoder.encode_basestring, None, ": ", ", ", False, False, True)
# One decoder call per JSONL row; unlike json.loads it skips no whitespace.
_decode_row = json.JSONDecoder().raw_decode


def encode_row(row) -> str:
    """The text json.dumps(row, ensure_ascii=False) gives: a JSONL line without its
    newline, or a fragment that joins into one."""
    return "".join(_row_chunks(row, 0))


def is_utf8_text(value) -> bool:
    """Whether value is a str that UTF-8 can encode."""
    return isinstance(value, str) and (value.isascii() or not _SURROGATE.search(value))


def is_number(value) -> bool:
    """Whether a value parsed from JSON is a number: an int or a float, not a bool."""
    return type(value) in (int, float)


class RowError(ValueError):
    """A rejected row of a table or vocabulary; row is its 0-based index, which
    the reader of the file turns into path:LINE."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; bytes that are not UTF-8 name path:line."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            yield f
            return
        except UnicodeDecodeError as exc:
            error = exc
    # Rescan only on error; no UTF-8 character holds a newline byte.
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
    raise error


def read_jsonl(path, *fields, text=()):
    """Yield (lineno, row, values) for each non-blank line of a JSONL file.

    Every line must be a JSON object holding all of fields (two or more);
    values is the tuple of those fields. The keys named in text must, where
    present, hold strings that UTF-8 can encode. Errors name path:line.
    """
    pick = operator.itemgetter(*fields)
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            try:  # a value that fills the line, as json.loads reads it
                row, end = _decode_row(line)
                if line[end:] not in ("\n", ""):
                    raise ValueError
            except ValueError:  # blank, padded or malformed: json.loads decides
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except ValueError as exc:  # also an integer too long to convert
                    raise ValueError(f"{path}:{lineno}: malformed JSON line: {exc}") from None
            if not isinstance(row, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, got {type(row).__name__}"
                )
            try:
                values = pick(row)
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from None
            for name in text:
                value = row.get(name, "")
                if not is_utf8_text(value):
                    raise ValueError(f"{path}:{lineno}: {name} must be a UTF-8 string, "
                                     f"got {value!r}")
            yield lineno, row, values


def write_jsonl(path, lines) -> int:
    """Write each encoded line, as encode_row gives it, with a newline; return the count.

    The lines go to path.part, which replaces path only after the last line,
    so lines that fail part way leave path as it was and no .part behind.
    """
    count, part = 0, f"{path}.part"
    f = open(part, "w", encoding="utf-8")
    try:
        with f:
            for line in lines:
                f.write(line + "\n")
                count += 1
    except BaseException:
        os.remove(part)
        raise
    os.replace(part, path)
    return count


def read_json(path) -> dict:
    """Read a file holding one JSON object; errors name the path."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
            raise ValueError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def write_json(path, obj, ensure_ascii: bool = False) -> None:
    Path(path).write_text(json.dumps(obj, ensure_ascii=ensure_ascii, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")
