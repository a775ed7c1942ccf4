"""CSV dataset access with explicit pass accounting.

Training reads the data several times; :class:`PassStats` on a
:class:`CsvDataset` handle counts every complete iteration so the
four-pass budget can be asserted rather than trusted.

Data files are RFC-4180-style CSV with a header row.  The single
missing-value token is ``?``.  Rows whose field count does not match the
header are counted as rejected and skipped; blank lines are ignored.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import DatasetError
from .schema import Schema

MISSING = "?"

DEFAULT_CHUNK_ROWS = 65536


@dataclass
class PassStats:
    """Pass counter: complete iterations, rows seen and rows rejected last pass."""

    passes: int = 0
    rows: int = 0
    rejected: int = 0


@dataclass
class Chunk:
    """A block of parsed rows, column-major: column name -> list of raw strings."""

    columns: dict[str, list[str]]
    size: int


class CsvDataset:
    """Re-readable CSV source. Every complete iteration bumps ``stats.passes``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.stats = PassStats()
        self._header: list[str] | None = None

    def header(self) -> list[str]:
        if self._header is None:
            try:
                with open(self.path, newline="", encoding="utf-8") as fh:
                    row = next(csv.reader(fh), None)
            except OSError as exc:
                raise DatasetError(f"cannot read {self.path}: {exc}") from exc
            if not row:
                raise DatasetError(f"{self.path} has no header row")
            self._header = row
        return self._header

    def require_columns(self, names: list[str]) -> None:
        header = self.header()
        missing = [n for n in names if n not in header]
        if missing:
            raise DatasetError(
                f"{self.path} header lacks required column(s): {', '.join(missing)}"
            )

    def schema_columns(self, schema: Schema, require_class: bool = True) -> list[str]:
        """Columns a pass needs: fields, group key, and (usually) the class."""
        cols = list(schema.var_names)
        if schema.group_key:
            cols.append(schema.group_key)
        if require_class or schema.class_var in self.header():
            cols.append(schema.class_var)
        return cols

    def iter_rows(self) -> Iterator[dict[str, str]]:
        """Yield well-formed rows as header-keyed dicts; count one pass at the end.

        The package reads through :meth:`iter_chunks`; this row-wise reader
        stays because ``perfbench/layertrace.py`` wraps it by name.
        """
        header = self.header()
        width = len(header)
        rows = rejected = 0
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    rejected += 1
                    continue
                rows += 1
                yield dict(zip(header, row))
        self.stats.passes += 1
        self.stats.rows = rows
        self.stats.rejected = rejected

    def iter_chunks(
        self,
        wanted: list[str],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> Iterator[Chunk]:
        """Yield column-major chunks of the requested columns; count one pass."""
        header = self.header()
        self.require_columns(wanted)
        width = len(header)
        idx = [header.index(name) for name in wanted]
        rows = rejected = 0
        with open(self.path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            buffer: list[list[str]] = []
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    rejected += 1
                    continue
                buffer.append(row)
                if len(buffer) >= chunk_rows:
                    rows += len(buffer)
                    yield _to_chunk(buffer, wanted, idx)
                    buffer = []
            if buffer:
                rows += len(buffer)
                yield _to_chunk(buffer, wanted, idx)
        self.stats.passes += 1
        self.stats.rows = rows
        self.stats.rejected = rejected


def _to_chunk(buffer: list[list[str]], wanted: list[str], idx: list[int]) -> Chunk:
    cols = {name: [row[i] for row in buffer] for name, i in zip(wanted, idx)}
    return Chunk(columns=cols, size=len(buffer))


def as_dataset(data: str | Path | CsvDataset) -> CsvDataset:
    return data if isinstance(data, CsvDataset) else CsvDataset(data)

