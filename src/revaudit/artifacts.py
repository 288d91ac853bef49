"""Artifact formats: every file the pipeline saves or loads goes through here.

- JSON: sorted keys, 2-space indent, trailing newline.
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
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError, RevauditError


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
        """Yield the object on each non-blank line; that line is current until the next."""
        with self.path.open("r", encoding="utf-8") as fh:
            for self.line, text in enumerate(fh, start=1):
                if not text.strip():
                    continue
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


def write_json(path: Path | str, obj) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_jsonl(path: Path | str, rows: Iterable[dict]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map(_json_line, rows))


def write_csv(path: Path | str, header: list[str], rows: Iterable) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
