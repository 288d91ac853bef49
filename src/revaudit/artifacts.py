"""Artifact formats: every file the pipeline saves or loads goes through here.

- JSON: sorted keys, 2-space indent, trailing newline.
- JSON Lines: one compact object per line, sorted keys, ``,``/``:`` separators.
- CSV: the csv module's default dialect (comma-separated, CRLF line endings),
  one header row.  The one exception is the CLI's ``sweep.csv``, written with
  LF line endings.

Fixed formats are what make reruns byte-identical.  Malformed JSON raises
:class:`ParseError` naming the file (and the line, for JSON Lines); so does a
well-formed file of the wrong shape, when its loader reads it inside
:func:`parsing`.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError


@contextmanager
def parsing(path: Path | str) -> Iterator[None]:
    """Turn a wrong-shaped record read in this block into a ParseError naming the file.

    A missing key, a list where an object belongs or a value of the wrong
    type surfaces in a loader as KeyError, TypeError, AttributeError or
    ValueError.
    """
    name = Path(path).name
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{name}: missing key {exc.args[0]!r}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"{name}: wrong shape ({exc})") from exc


def write_json(path: Path | str, obj) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: Path | str):
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path.name}: malformed JSON ({exc.msg})") from exc


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_jsonl(path: Path | str, rows: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map(_json_line, rows))


def read_jsonl(path: Path | str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path.name}:{lineno}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise ParseError(f"{path.name}:{lineno}: expected a JSON object")
            yield lineno, obj


def write_csv(path: Path | str, header: list[str], rows: Iterable) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: Path | str) -> Iterator[dict[str, str]]:
    """Yield one dict per data row, keyed by the header row."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        yield from csv.DictReader(fh)
