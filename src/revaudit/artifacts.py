"""Artifact formats: every file the pipeline saves or loads goes through here.

- JSON: sorted keys, 2-space indent, trailing newline: the bytes of
  ``json.dump(obj, fh, sort_keys=True, indent=2)`` plus ``"\n"``, written
  through the C encoder (``json.dump`` with an indent runs the pure-Python
  one, which is slower and leaves reference cycles behind).
- JSON Lines: one compact object per line, sorted keys, ``,``/``:`` separators.
- CSV: the csv module's default dialect (comma-separated, CRLF line endings),
  one header row.  The one exception is the CLI's ``sweep.csv``, written with
  LF line endings.

Fixed formats are what make reruns byte-identical.  Loaders read inside
:func:`parsing`, the one place that formats where bad input is: the file, and
the line while a JSON Lines or CSV record is being read.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import fields
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping

from .errors import ParseError, RevauditError

# Configured as json.loads's decoder; raw_decode also says where the value ended.
_raw_decode = json.JSONDecoder().raw_decode
# What json.dumps(obj, sort_keys=True, separators=(",", ":")) builds on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Source:
    """A file being loaded, and the line of the record being read, if any."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.line: int | None = None

    @property
    def where(self) -> str:
        name = self.path.name
        return name if self.line is None else f"{name}:{self.line}"

    def json(self):
        return json.loads(self.path.read_text(encoding="utf-8"))

    def jsonl(self) -> Iterator[dict]:
        """Yield the object on each non-blank line; that line is current until the next.

        A line is decoded once when only JSON whitespace follows its value;
        any other line (leading whitespace, a BOM, bad JSON) goes through
        ``json.loads``, whose result or error it gets.
        """
        with self.path.open("r", encoding="utf-8") as fh:
            for self.line, text in enumerate(fh, start=1):
                if not text.strip():
                    continue
                try:
                    obj, end = _raw_decode(text)
                except ValueError:
                    end = None
                if end is None or text[end:].strip(" \t\n\r"):
                    obj = json.loads(text)
                if not isinstance(obj, dict):
                    raise ParseError("expected a JSON object")
                yield obj
        self.line = None

    def csv(self) -> Iterator[dict[str, str]]:
        """Yield one dict per data row, keyed by the header row; that row is current."""
        with self.path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                self.line = reader.line_num
                yield row
        self.line = None


@contextmanager
def parsing(path: Path | str) -> Iterator[Source]:
    """Read ``path`` in this block; an error raised in it says where the input is bad.

    Malformed JSON is a ParseError.  So is a missing key, a list where an
    object belongs or a value of the wrong type, which surface as KeyError,
    TypeError, AttributeError or ValueError.  A toolkit error keeps its type.
    The message gains ``<file>:<line>: `` while a record is current, else
    ``<file>: ``.
    """
    source = Source(path)
    try:
        yield source
    except RevauditError as exc:
        exc.args = (f"{source.where}: {exc}",)
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source.where}: malformed JSON ({exc.msg})") from exc
    except KeyError as exc:
        raise ParseError(f"{source.where}: missing key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"{source.where}: wrong shape ({exc})") from exc


_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean"}


def require_types(obj: Mapping, kinds: Mapping[str, type], optional: Collection[str] = ()) -> None:
    """Each key of ``kinds`` present in ``obj`` holds exactly that type (``true``
    is no integer, nor is ``3.5``); ``float`` means any number, ``3`` included,
    but not ``true``.  A key named in ``optional`` may be null."""
    for name, value in obj.items():
        kind = kinds.get(name)
        if (
            kind
            and type(value) is not kind
            and not (kind is float and type(value) is int)
            and not (value is None and name in optional)
        ):
            raise ParseError(f"{name} must be {_KIND_NAMES[kind]}, not {type(value).__name__}")


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in fields(cls))


def record_fields(record) -> dict:
    """A dataclass record as a JSON object: its fields, less optional ones that are None."""
    names = _field_names(type(record))
    return {name: value for name in names if (value := getattr(record, name)) is not None}


# The values of a flat container, or the rows of a list of flat objects,
# encoded per call: write_json's memory is O(block), not O(file).  A block of
# pair rows is about 40 kB of text, under glibc's 128 KiB mmap threshold.  At
# 1024 rows blocks were mmapped, and freeing them raised the threshold, which
# at times left peak RSS about 3 MB higher after a 3,000-submission simulate.
ROW_BLOCK = 256
_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset({str, int, float, bool, type(None)})


@cache
def _flat_encoder(level: int, sort_keys: bool) -> json.JSONEncoder:
    """Encodes a container of scalars at depth ``level`` as ``indent=2`` lays
    it out, except that its brackets hug its first and last item."""
    return json.JSONEncoder(sort_keys=sort_keys, separators=(",\n" + "  " * (level + 1), ": "))


def _is_flat(obj) -> bool:
    """Whether every value is of a JSON scalar type (a subclass goes the slower way)."""
    return _SCALARS.issuperset(map(type, obj.values() if isinstance(obj, dict) else obj))


def _key(key) -> str:
    """A dict key as json.dump writes it: str, int, float, bool and None keys become text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _ENCODER.encode(key)
    return encode_basestring_ascii(key)


def _blocks(values):
    return (values[start:start + ROW_BLOCK] for start in range(0, len(values), ROW_BLOCK))


def _encoded_blocks(obj, level: int):
    """The items of ``obj`` at depth ``level``, block by block, each text laid
    out as ``indent=2`` lays it out; None unless ``obj`` is flat or a list of
    flat, non-empty dicts."""
    if _is_flat(obj):
        encode = _flat_encoder(level, False).encode
        if isinstance(obj, dict):
            # Sorted here, as json.dump sorts, so that each block keeps the order.
            # Distinct keys never compare equal, so the keys alone sort as the items do.
            return (
                encode({key: obj[key] for key in block})[1:-1] for block in _blocks(sorted(obj))
            )
        return (encode(block)[1:-1] for block in _blocks(obj))
    if isinstance(obj, dict) or not all(type(row) is dict and row and _is_flat(row) for row in obj):
        return None
    # A block encodes as "[{...},<newline><pad>{...}]", its rows laid out one
    # level deeper.  Encoded text holds no raw newline, so that row separator
    # occurs only between rows.
    encode = _flat_encoder(level + 1, True).encode
    inner, row_inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    between, relaid = "}," + row_inner + "{", inner + "}," + inner + "{" + row_inner
    return (
        "{" + row_inner + encode(block)[2:-2].replace(between, relaid) + inner + "}"
        for block in _blocks(obj)
    )


def _write_value(fh, obj, level: int) -> None:
    """Write ``obj`` as ``json.dump(sort_keys=True, indent=2)`` does at depth ``level``."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        fh.write(_ENCODER.encode(obj))
        return
    is_dict = isinstance(obj, dict)
    inner = "\n" + "  " * (level + 1)
    separator = ("{" if is_dict else "[") + inner
    texts = _encoded_blocks(obj, level)
    if texts is not None:
        for text in texts:
            fh.write(separator + text)
            separator = "," + inner
    else:
        entries = (
            ((_key(key) + ": ", value) for key, value in sorted(obj.items())) if is_dict
            else (("", value) for value in obj)
        )
        for prefix, value in entries:
            fh.write(separator + prefix)
            _write_value(fh, value, level + 1)
            separator = "," + inner
    fh.write("\n" + "  " * level + ("}" if is_dict else "]"))


def write_json(path: Path | str, obj) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        _write_value(fh, obj, 0)
        fh.write("\n")


def _json_line(obj: dict) -> str:
    return _ENCODER.encode(obj) + "\n"


def write_jsonl(path: Path | str, rows: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map(_json_line, rows))


def write_csv(path: Path | str, header: list[str], rows: Iterable) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
