"""JSONL rows go through one decoder call and one shared encoder, and every line
reads and writes as a per-line json.loads and json.dumps would."""

import json
import math
import re

import pytest

from clozerank.jsonio import encode_row, read_jsonl, write_jsonl

SURROGATE = re.compile("[\ud800-\udfff]")


def per_line_reference(path, *fields, text=()):
    """read_jsonl as one json.loads per line, after a str.strip() blank check."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON line: {exc}") from None
            if not isinstance(row, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, got {type(row).__name__}")
            missing = [name for name in fields if name not in row]
            if missing:
                raise ValueError(f"{path}:{lineno}: missing field {missing[0]!r}")
            for name in text:
                value = row.get(name, "")
                if not isinstance(value, str) or SURROGATE.search(value):
                    raise ValueError(f"{path}:{lineno}: {name} must be a UTF-8 string, "
                                     f"got {value!r}")
            rows.append((lineno, row, tuple(row[name] for name in fields)))
    return rows


def outcome(read, path):
    """The rows read, or the message that rejected the file, as a repr: NaN and
    -0.0 compare by their text, not by ==."""
    try:
        return repr(list(read(path, "a", "b", text=("a",))))
    except ValueError as exc:
        return f"ValueError: {exc}"


ROW = '{"a": "x", "b": 1}'
LINES = {
    "blank-empty": [ROW, "", ROW],
    "blank-spaces": [ROW, "  ", ROW],
    "blank-form-feed": [ROW, "\x0c", ROW],
    "blank-nbsp": [ROW, "\xa0", ROW],
    "trailing-space": [ROW + " ", ROW],
    "trailing-tab": [ROW + "\t", ROW],
    "trailing-cr": [ROW + "\r", ROW],
    # str.isspace() holds for the next two, but neither is JSON whitespace.
    "trailing-form-feed": [ROW + "\x0c", ROW],
    "trailing-nbsp": [ROW + "\xa0", ROW],
    "leading-spaces": ["   " + ROW],
    "two-objects": [ROW + " " + ROW],
    "nan": ['{"a": "x", "b": NaN}'],
    "infinity": ['{"a": "x", "b": [Infinity, -Infinity]}'],
    "negative-zero": ['{"a": "x", "b": -0.0}'],
    "huge-integer": ['{"a": "x", "b": 1' + "0" * 4400 + "}"],
    "top-level-list": ['["a", "b"]'],
    "surrogate-escape": ['{"a": "\\ud800", "b": 1}'],
    "missing-field": ['{"a": "x"}'],
}


@pytest.mark.parametrize("final_newline", [True, False], ids=["newline", "no-newline"])
@pytest.mark.parametrize("case", sorted(LINES))
def test_rows_and_messages_match_per_line_json_loads(tmp_path, case, final_newline):
    path = tmp_path / "rows.jsonl"
    content = "\n".join(LINES[case]) + ("\n" if final_newline else "")
    path.write_text(content, encoding="utf-8", newline="")
    assert outcome(read_jsonl, path) == outcome(per_line_reference, path)



@pytest.mark.parametrize("row", [
    {"a": "é \u3000 \\ \" \n", "b": [1.0, -0.0, 1e-07, 1e300, 10 ** 30, True, None]},
    {"b": [math.nan, math.inf, -math.inf]},
    {"ranked": [("x", -1.0), ("y", 0.5)], "flags": {"zero_norm": False}},
    {},
], ids=["text-and-numbers", "non-finite", "tuples-and-nesting", "empty"])
def test_rows_written_as_json_dumps_writes_them(tmp_path, row):
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, map(encode_row, [row, row])) == 2
    assert path.read_text(encoding="utf-8") == 2 * (json.dumps(row, ensure_ascii=False) + "\n")


def test_unencodable_row_fails_as_json_dumps_does(tmp_path):
    path = tmp_path / "rows.jsonl"
    with pytest.raises(TypeError) as err:
        write_jsonl(path, map(encode_row, [{"a": 1}, {"a": {1, 2}}]))
    with pytest.raises(TypeError) as expected:
        json.dumps({"a": {1, 2}})
    assert str(err.value) == str(expected.value)
    assert not path.exists() and not (tmp_path / "rows.jsonl.part").exists()


def test_encoded_lines_take_the_same_part_file_rule(tmp_path):
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, ['{"a": 1}', '{"b": "é"}']) == 2
    assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": "é"}\n'

    def failing():
        yield '{"c": 2}'
        raise ValueError("stop")
    with pytest.raises(ValueError, match="stop"):
        write_jsonl(path, failing())
    assert path.read_text(encoding="utf-8") == '{"a": 1}\n{"b": "é"}\n'
    assert not (tmp_path / "rows.jsonl.part").exists()
