r"""CSV dataset access with explicit pass accounting.

Training reads the data several times; :class:`PassStats` on a
:class:`CsvDataset` handle counts every complete iteration so the
four-pass budget can be asserted rather than trusted.  The handle also
holds every pass to its first complete one: a pass that opens the file
at a different size or modification time, or that ends with different
row or rejected-row counts, raises :class:`DatasetError`, so all passes
of one training run see the same unchanged file.

Data files are RFC-4180-style CSV in UTF-8 with a header row.  Rows
whose field count does not match the header are counted as rejected and
skipped; blank lines are ignored.

The one missing-cell rule, which every training pass, scorer and
baseline applies, lives here.  A class or field cell is MISSING when it
is ``?`` or empty (:func:`missing_mask`).  A continuous cell is also
MISSING when it does not parse to a finite float: garbage, ``nan`` and
``±inf``; :func:`parse_float_column`, the one float parser, returns NaN
for each.  Entropy cuts are defined over finite values only (Fayyad &
Irani, IJCAI 1993), so a non-finite number can only be MISSING.  Group
keys are opaque identifiers: a ``?`` or empty key is a group like any other.

:meth:`CsvDataset.iter_chunks` is the one reader.  It speculates that the
file holds no quotes, as in Mühlbauer et al., *Instant Loading for Main
Memory Databases* (PVLDB 2013), and Ge et al., *Speculative Distributed
CSV Data Parsing for Big Data Analytics* (SIGMOD 2019).  It reads text
blocks of ``_BLOCK_CHARS`` characters, each extended to the end of its
last line.  A block takes the fast path when it has no ``"``, no lone
``\r`` (one not followed by ``\n``), and, once ``\r\n`` is folded to
``\n`` and the block split on ``\n``, no empty line, no line longer than
``csv.field_size_limit()`` and exactly ``width - 1`` commas on every
line.  The fast path joins the lines with commas, splits once, and
slices out only the wanted columns.
(``str.splitlines`` is not used: it also breaks on ``\x0c``, ``\u2028``
and others, which ``csv`` keeps inside a field.)
The rest falls back to ``csv.reader`` with the same blank-line and
field-count rules:

- a quote-free block with a blank, ragged, over-long or lone-``\r`` line
  is parsed by ``csv.reader`` as one block, so a field longer than
  ``csv.field_size_limit()`` raises :class:`DatasetError` on either path;
- from the line holding the first ``"`` on (the header included), because
  a quoted field can span lines, ``csv.reader`` reads the rest of the file.

Either way the wanted columns collect in pending lists that are cut into
chunks of exactly ``chunk_rows`` rows, so the chunk split, on which
reservoir sampling's random draws depend, does not depend on the path.

:func:`write_rows` is the one bulk writer.  Output files are in
``csv.writer``'s default dialect (minimal quoting, ``\r\n`` line ends),
but the cells arrive already formatted: :func:`csv_cell` quotes a value
as ``csv.writer`` would, so callers quote each distinct value of a small
alphabet once, and numbers, which never need quoting, are not scanned.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DatasetError
from .schema import Schema

MISSING = "?"
# Raw class or field cells that are MISSING: the token and the empty cell.
MISSING_CELLS = frozenset((MISSING, ""))

DEFAULT_CHUNK_ROWS = 65536

# Characters per text block on the quote-free fast path; each block is
# extended to the next line end.
_BLOCK_CHARS = 1 << 17

# Rows joined per write by write_rows, which bounds the text held at once.
_WRITE_ROWS = 4096


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
        # (st_size, st_mtime_ns, rows, rejected) of the first complete pass;
        # kept out of PassStats, which the model file records
        self._first_pass: tuple[int, int, int, int] | None = None

    def header(self) -> list[str]:
        if self._header is None:
            try:
                with open(self.path, newline="", encoding="utf-8") as fh:
                    row = next(csv.reader(fh), None)
            except OSError as exc:
                raise DatasetError(f"cannot read {self.path}: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise DatasetError(f"{self.path} is not UTF-8 text: {exc}") from exc
            except csv.Error as exc:
                raise DatasetError(f"{self.path} is not readable CSV: {exc}") from exc
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
            stat = self._begin_pass(fh)
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
        self._end_pass(stat, rows, rejected)

    def iter_chunks(
        self,
        wanted: list[str],
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
    ) -> Iterator[Chunk]:
        """Yield column-major chunks of the requested columns; count one pass.

        Every chunk holds exactly ``chunk_rows`` rows but the last.
        """
        header = self.header()
        self.require_columns(wanted)
        idx = [header.index(name) for name in wanted]
        pending: list[list[str]] = [[] for _ in idx]
        held = rows = rejected = 0
        with open(self.path, newline="", encoding="utf-8") as fh:
            stat = self._begin_pass(fh)
            try:
                for size, columns, dropped in _pieces(fh, len(header), idx, chunk_rows):
                    rejected += dropped
                    held += size
                    for col, part in zip(pending, columns):
                        col.extend(part)
                    while held >= chunk_rows:
                        yield Chunk(
                            {name: col[:chunk_rows] for name, col in zip(wanted, pending)},
                            chunk_rows,
                        )
                        for col in pending:
                            del col[:chunk_rows]
                        held -= chunk_rows
                        rows += chunk_rows
            except UnicodeDecodeError as exc:
                raise DatasetError(f"{self.path} is not UTF-8 text: {exc}") from exc
            except csv.Error as exc:
                raise DatasetError(f"{self.path} is not readable CSV: {exc}") from exc
            if held:
                rows += held
                yield Chunk(dict(zip(wanted, pending)), held)
        self._end_pass(stat, rows, rejected)

    def _begin_pass(self, fh) -> os.stat_result:
        """Stat the opened file; raise if it differs from the first pass's."""
        stat = os.fstat(fh.fileno())
        first = self._first_pass
        if first is not None and (stat.st_size, stat.st_mtime_ns) != first[:2]:
            raise DatasetError(
                f"{self.path} changed between passes: pass {self.stats.passes + 1} "
                f"opened {stat.st_size} bytes modified at {stat.st_mtime_ns} ns, "
                f"pass 1 read {first[0]} bytes modified at {first[1]} ns"
            )
        return stat

    def _end_pass(self, stat: os.stat_result, rows: int, rejected: int) -> None:
        """Count a complete pass; raise if its row counts differ from the first's."""
        if self._first_pass is None:
            self._first_pass = (stat.st_size, stat.st_mtime_ns, rows, rejected)
        elif (rows, rejected) != self._first_pass[2:]:
            raise DatasetError(
                f"{self.path} changed between passes: pass {self.stats.passes + 1} "
                f"read {rows} rows ({rejected} rejected), pass 1 read "
                f"{self._first_pass[2]} rows ({self._first_pass[3]} rejected)"
            )
        self.stats.passes += 1
        self.stats.rows = rows
        self.stats.rejected = rejected


_Piece = tuple[int, list[list[str]], int]


def _pieces(fh, width: int, idx: list[int], chunk_rows: int) -> Iterator[_Piece]:
    """Parse the rows after the header as (rows, wanted columns, rejected) pieces.

    Reads text blocks of ``_BLOCK_CHARS`` that end on a line end; from the
    first ``"`` on, ``csv.reader`` reads the rest of the file.
    """
    if '"' in fh.readline():
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        yield from _csv_pieces(reader, width, idx, chunk_rows)
        return
    while block := fh.read(_BLOCK_CHARS):
        if block[-1] != "\n":
            block += fh.readline()
        quote = block.find('"')
        if quote < 0:
            yield _block_piece(block, width, idx)
            continue
        cut = block.rfind("\n", 0, quote) + 1
        yield _block_piece(block[:cut], width, idx)
        reader = csv.reader(chain(io.StringIO(block[cut:], newline=""), fh))
        yield from _csv_pieces(reader, width, idx, chunk_rows)
        return


def _block_piece(block: str, width: int, idx: list[int]) -> _Piece:
    """Split a quote-free block of whole lines; ``csv.reader`` takes odd blocks,
    including any with a line longer than ``csv.field_size_limit()``."""
    if "\r" in block:
        block = block.replace("\r\n", "\n")
    lines = block.split("\n")
    if lines[-1] == "":
        lines.pop()
    if (
        "\r" in block
        or "" in lines
        or max(map(len, lines), default=0) > csv.field_size_limit()
        or set(map(str.count, lines, repeat(","))) != {width - 1}
    ):
        return _csv_piece(list(csv.reader(io.StringIO(block, newline=""))), width, idx)
    flat = ",".join(lines).split(",")
    return len(lines), [flat[i::width] for i in idx], 0


def _csv_pieces(reader, width: int, idx: list[int], chunk_rows: int) -> Iterator[_Piece]:
    while records := list(islice(reader, chunk_rows)):
        yield _csv_piece(records, width, idx)


def _csv_piece(records: list[list[str]], width: int, idx: list[int]) -> _Piece:
    """Skip blank records and count those whose field count is not ``width``."""
    good = [row for row in records if len(row) == width]
    rejected = len(records) - len(good) - records.count([])
    return len(good), [[row[i] for row in good] for i in idx], rejected


def as_dataset(data: str | Path | CsvDataset) -> CsvDataset:
    return data if isinstance(data, CsvDataset) else CsvDataset(data)


def csv_cell(text: str) -> str:
    """``text`` as ``csv.writer``'s default dialect writes it in a row of
    two or more cells: quoted and with ``"`` doubled when it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # the empty last cell's "," and the "\r\n"


def write_rows(fh, columns: Sequence[Iterable[str]]) -> None:
    """Write rows of pre-formatted cells, given column by column, as
    ``csv.writer(fh).writerows`` would write the unquoted values.

    Cells must already be quoted by :func:`csv_cell` where needed.  The
    columns are consumed lazily and must be equally long; ``_WRITE_ROWS``
    rows are joined per ``fh.write``.
    """
    lines = map(",".join, zip(*columns, strict=True))
    if len(columns) == 1:
        # csv.writer quotes a row that is one empty cell, which would
        # otherwise read back as a blank line
        lines = (line or '""' for line in lines)
    while batch := list(islice(lines, _WRITE_ROWS)):
        batch.append("")
        fh.write("\r\n".join(batch))


def missing_mask(col: Sequence[str]) -> np.ndarray:
    """True where a raw class or field cell is MISSING."""
    return np.fromiter(map(MISSING_CELLS.__contains__, col), dtype=bool, count=len(col))


def parse_float_column(col: Sequence[str]) -> np.ndarray:
    """Raw continuous cells as float64, NaN for every MISSING cell; a column
    holding garbage falls back to ``float()`` per cell."""
    try:
        # the MISSING_CELLS, compared directly: hashing each fresh cell costs more
        values = np.array(
            [x if x != "" and x != MISSING else "nan" for x in col], dtype=np.float64
        )
    except (TypeError, ValueError):
        values = np.fromiter(map(_to_float, col), dtype=np.float64, count=len(col))
    values[~np.isfinite(values)] = np.nan
    return values


def _to_float(cell) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return np.nan
