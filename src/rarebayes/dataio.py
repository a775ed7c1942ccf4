r"""CSV dataset access with explicit pass accounting.

Training reads the data several times; :class:`PassStats` on a
:class:`CsvDataset` handle counts every complete iteration so the
four-pass budget can be asserted rather than trusted.  The handle also
holds every pass to its first complete one: a pass that opens the file
at a different size or modification time, or that ends with different
row or rejected-row counts or a different CRC-32 of the bytes it read
(the header and any ``csv.reader`` tail included), raises
:class:`DatasetError`, so all passes of one training run see the same
unchanged file.  Every pass also parses the header row it reads and
raises unless it equals the cached :meth:`CsvDataset.header` that the
wanted columns were indexed by, and a column a pass requires may occur
only once in the header.

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
Where a class cell is compared rather than looked up in a model,
:class:`ClassCodes` turns it into a small integer code, -1 when MISSING;
group keys become integer ids the same way, with no cell MISSING.

:func:`parse_float_column` parses the whole column at once first, so a
column with no missing cell is touched once.  It substitutes ``nan`` for
``?`` and blank cells only when that fails, and calls ``float()`` per
cell only when the column also holds garbage.

:meth:`CsvDataset.iter_chunks` is the one reader.  It speculates that the
file holds no quotes, as in Mühlbauer et al., *Instant Loading for Main
Memory Databases* (PVLDB 2013), and Ge et al., *Speculative Distributed
CSV Data Parsing for Big Data Analytics* (SIGMOD 2019).  It opens the
file in binary and reads blocks of ``_BLOCK_BYTES`` bytes, each extended
to the next ``\n`` byte and decoded from UTF-8 once; a ``\n`` byte is
never part of a multi-byte sequence, so every block decodes whole.  A
block ending in ``\r\n`` is split on ``\r\n``, any other on ``\n``.
The fast path joins the lines with ``",\n"`` and splits once on ``,``;
that one split also checks the block's line structure.  Each inserted
``\n`` follows an inserted comma, so it starts a cell and no cell holds
two.  So when the ``n`` lines give exactly ``n * width``
cells, the ``n - 1`` inserted ``\n`` are the only ones and all of them
sit in the cells at ``width, 2 * width, ...``, line ``k`` starts at cell
``k * width`` and every line has exactly ``width`` fields.  The block
takes the fast path when that holds, it has no ``"``, no ``\r`` is left
after the split, and no line is empty or longer than
``csv.field_size_limit()``.  It then splits each line as ``csv.reader``
would.  The wanted columns are sliced out of the one split; column 0
carries the inserted ``\n`` and is stripped of them only when wanted.
(``str.splitlines`` is not used: it also breaks on ``\x0c``, ``\u2028``
and others, which ``csv`` keeps inside a field.)
The rest falls back to ``csv.reader`` with the same blank-line and
field-count rules:

- a quote-free block with a blank, ragged or over-long line, or a stray
  or mixed line end, is parsed by ``csv.reader`` as one block, so a field
  longer than ``csv.field_size_limit()`` raises :class:`DatasetError` on
  either path;
- from the line holding the first ``"`` on (the header included), because
  a quoted field can span lines, ``csv.reader`` reads the rest of the
  file, ``_CSV_ROWS`` records at a time, from the same decoded blocks;
- a header line holding a ``\r`` other than its line end's sends the
  whole file to ``csv.reader``, which ends a record there, where a byte
  ``readline`` does not.

Each block's wanted cells go through the caller's decoder as soon as the
block is split, while they are still in cache, so raw cells never outlive
their block: a pass holds one block of ``str`` cells and the decoded
columns (mostly one-byte codes, 8-byte floats in pass 1) of one chunk,
not a chunk of ``str`` cells.  Whole decoded blocks are joined into a
chunk once they hold at least ``_CHUNK_ROWS`` rows.  Where a chunk ends
changes no result: window lags carry across chunk ends, and pass 1's
reservoirs make one draw per arrival, in turn from one generator.  The
decoded blocks are dropped once joined, before the caller gets a chunk,
so they and their join are never alive together while the caller works.

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
import zlib
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DatasetError
from .schema import Schema

MISSING = "?"
# Raw class or field cells that are MISSING: the token and the empty cell.
MISSING_CELLS = frozenset((MISSING, ""))

# Rows a reader's chunk holds at least, the last chunk excepted.
_CHUNK_ROWS = 65536

# Bytes per block read; each block is extended to the next line end and
# decoded once.
_BLOCK_BYTES = 1 << 17

# Records per piece once csv.reader reads the rest of a file.
_CSV_ROWS = 1024

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
    """A block of parsed rows, column-major.

    ``columns`` maps each wanted column name to its raw ``str`` cells, or
    holds what the reader's decoder made of them.
    """

    columns: dict[str, Any]
    size: int


# A decoder maps a block of raw rows to a dict whose values are arrays
# (one row per element along axis 0), lists, None, or dicts of these.
Decoder = Callable[[Chunk], dict[str, Any]]


class CsvDataset:
    """Re-readable CSV source. Every complete iteration bumps ``stats.passes``."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.stats = PassStats()
        self._header: list[str] | None = None
        # (st_size, st_mtime_ns, rows, rejected, CRC-32 of the bytes read) of
        # the first complete pass; kept out of PassStats, which the model
        # file records
        self._first_pass: tuple[int, int, int, int, int] | None = None

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
        repeated = [n for n in dict.fromkeys(names) if header.count(n) > 1]
        if repeated:
            raise DatasetError(
                f"{self.path} header repeats required column(s): {', '.join(repeated)}"
            )

    def schema_columns(self, schema: Schema, require_class: bool = True) -> list[str]:
        """Columns a pass needs: fields, group key, and with ``require_class`` the class."""
        cols = list(schema.var_names)
        if schema.group_key:
            cols.append(schema.group_key)
        if require_class:
            cols.append(schema.class_var)
        return cols

    def iter_rows(self) -> Iterator[dict[str, str]]:
        """Yield well-formed rows as header-keyed dicts; count one pass at the end.

        The package reads through :meth:`iter_chunks`, which this wraps; it
        stays because ``perfbench/layertrace.py`` wraps it by name.
        """
        header = self.header()
        for chunk in self.iter_chunks(header):
            columns = [chunk.columns[name] for name in header]
            yield from (dict(zip(header, row)) for row in zip(*columns))

    def iter_chunks(self, wanted: list[str], decode: Decoder | None = None) -> Iterator[Chunk]:
        """Yield column-major chunks of the requested columns; count one pass.

        A chunk is whole blocks joined once they hold at least
        ``_CHUNK_ROWS`` rows; the last chunk holds the rest.  Without
        ``decode`` its columns are lists of raw cells.  With it, each block
        of raw rows goes through ``decode`` as soon as it is split, and the
        chunk's ``columns`` are the decoded blocks joined: arrays
        concatenated, lists chained, dicts joined key by key.
        """
        header = self.header()
        self.require_columns(wanted)
        idx = [header.index(name) for name in wanted]
        parts: list[dict[str, Any]] = []
        held = rows = rejected = 0
        with open(self.path, "rb") as fh:
            stat = self._begin_pass(fh)
            reader = _ByteReader(fh)
            try:
                for size, columns, dropped in _pieces(reader, header, idx):
                    rejected += dropped
                    if not size:
                        continue
                    block = dict(zip(wanted, columns))
                    parts.append(block if decode is None else decode(Chunk(block, size)))
                    del block, columns  # raw cells do not outlive their block
                    held += size
                    if held >= _CHUNK_ROWS:
                        rows += held
                        # the blocks go once joined, before the caller gets a chunk
                        chunk, parts, held = Chunk(_join(parts), held), [], 0
                        yield chunk
            except UnicodeDecodeError as exc:
                raise DatasetError(f"{self.path} is not UTF-8 text: {exc}") from exc
            except csv.Error as exc:
                raise DatasetError(f"{self.path} is not readable CSV: {exc}") from exc
            if held:
                rows += held
                chunk, parts = Chunk(_join(parts), held), []
                yield chunk
        self._end_pass(stat, rows, rejected, reader.crc)

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

    def _end_pass(self, stat: os.stat_result, rows: int, rejected: int, crc: int) -> None:
        """Count a complete pass; raise if its row counts or the checksum of
        the bytes it read differ from the first's."""
        first = self._first_pass
        if first is None:
            self._first_pass = (stat.st_size, stat.st_mtime_ns, rows, rejected, crc)
        elif (rows, rejected) != first[2:4]:
            raise DatasetError(
                f"{self.path} changed between passes: pass {self.stats.passes + 1} "
                f"read {rows} rows ({rejected} rejected), pass 1 read "
                f"{first[2]} rows ({first[3]} rejected)"
            )
        elif crc != first[4]:
            raise DatasetError(
                f"{self.path} changed between passes: pass {self.stats.passes + 1} "
                f"read bytes with CRC-32 {crc:08x}, pass 1 read {first[4]:08x}"
            )
        self.stats.passes += 1
        self.stats.rows = rows
        self.stats.rejected = rejected


class _ByteReader:
    r"""A binary file read as UTF-8 text blocks that end on a line end.

    ``crc`` is the running CRC-32 of every byte read so far.  Each block of
    ``_BLOCK_BYTES`` is extended to the next ``\n`` and decoded once; a
    ``\n`` byte is never part of a multi-byte UTF-8 sequence, so a block
    of a valid file always decodes whole.
    """

    def __init__(self, fh):
        self.fh = fh
        self.crc = 0

    def _checked(self, data: bytes) -> str:
        self.crc = zlib.crc32(data, self.crc)
        return data.decode("utf-8")

    def line(self) -> str:
        r"""The next line, up to and including its ``\n``."""
        return self._checked(self.fh.readline())

    def blocks(self) -> Iterator[str]:
        """The rest of the file, block by block."""
        fh = self.fh
        while data := fh.read(_BLOCK_BYTES):
            if data[-1] != 0x0A:
                data += fh.readline()
            text = self._checked(data)
            del data  # the bytes go before the caller splits the text
            yield text


_Piece = tuple[int, list[list[str]], int]


def _pieces(reader: _ByteReader, header: list[str], idx: list[int]) -> Iterator[_Piece]:
    r"""Parse the rows after the header as (rows, wanted columns, rejected) pieces.

    The header row read is parsed as ``csv.reader`` would and must equal
    ``header``, the one the columns were indexed by, or
    :class:`DatasetError` is raised.  Reads text blocks of ``_BLOCK_BYTES``
    that end on a line end; from the first ``"`` on, ``csv.reader`` reads
    the rest of the file.  A header holding a ``"``, or a ``\r`` other than
    its line end's, sends the whole file to ``csv.reader``: ``csv`` ends a
    record at a lone ``\r``, which a byte ``readline`` reads past.
    """
    head = reader.line()
    blocks = reader.blocks()
    width = len(header)
    if '"' in head or "\r" in head.removesuffix("\r\n"):
        records = csv.reader(_lines(chain([head], blocks)))
        _check_header(reader, next(records, None), header)
        yield from _csv_pieces(records, width, idx)
        return
    _check_header(reader, head.removesuffix("\n").removesuffix("\r").split(","), header)
    for block in blocks:
        quote = block.find('"')
        if quote < 0:
            yield _block_piece(block, width, idx)
            continue
        cut = block.rfind("\n", 0, quote) + 1
        yield _block_piece(block[:cut], width, idx)
        yield from _csv_pieces(csv.reader(_lines(chain([block[cut:]], blocks))), width, idx)
        return


def _check_header(reader: _ByteReader, row: list[str] | None, header: list[str]) -> None:
    if row != header:
        raise DatasetError(
            f"{reader.fh.name} changed: its header row reads {row}, "
            f"but the columns were found in {header}"
        )


def _lines(texts: Iterable[str]) -> Iterator[str]:
    r"""The lines of ``texts`` as a text file opened with ``newline=""`` reads
    them; every text but the last ends in ``\n``, so no line spans two."""
    return chain.from_iterable(io.StringIO(text, newline="") for text in texts)


def _block_piece(block: str, width: int, idx: list[int]) -> _Piece:
    r"""Split a quote-free block of whole lines; ``csv.reader`` takes odd blocks.

    The lines are joined with ``",\n"`` and split once on ``,``.  Each
    ``\n`` marker so inserted follows a comma, so it starts a cell and no
    cell holds two.  The block is accepted when it has ``n * width`` cells,
    its ``n - 1`` markers are its only ``\n`` and all sit in the cells at
    ``width, 2 * width, ...``, no ``\r`` is left, and no line is blank or
    longer than ``csv.field_size_limit()``.  Then line ``k`` starts at cell
    ``k * width``, so every line has exactly ``width`` fields and ``csv``
    would split it the same way.  Column 0 carries the markers; it is
    stripped of them only when it is wanted.
    """
    lines = block.split("\r\n" if block.endswith("\r\n") else "\n")
    if lines[-1] == "":
        lines.pop()
    n = len(lines)
    text = ",\n".join(lines)
    flat = text.split(",")
    starts = "".join(flat[::width])  # column 0: the first cell and the n - 1 markers
    if (
        len(flat) != n * width
        or "\r" in text
        or starts.count("\n") != n - 1
        or text.count("\n") != n - 1
        or "" in lines
        or max(map(len, lines), default=0) > csv.field_size_limit()
    ):
        return _csv_piece(list(csv.reader(io.StringIO(block, newline=""))), width, idx)
    return n, [starts.split("\n") if i == 0 else flat[i::width] for i in idx], 0


def _csv_pieces(reader, width: int, idx: list[int]) -> Iterator[_Piece]:
    while records := list(islice(reader, _CSV_ROWS)):
        yield _csv_piece(records, width, idx)


def _csv_piece(records: list[list[str]], width: int, idx: list[int]) -> _Piece:
    """Skip blank records and count those whose field count is not ``width``."""
    good = [row for row in records if len(row) == width]
    rejected = len(records) - len(good) - records.count([])
    return len(good), [[row[i] for row in good] for i in idx], rejected


def _join(parts: list) -> Any:
    """One decoded value from the decoded blocks ``parts``, in order."""
    first = parts[0]
    if isinstance(first, dict):
        return {key: _join([part[key] for part in parts]) for key in first}
    if first is None or len(parts) == 1:
        return first
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    return list(chain.from_iterable(parts))


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


class ClassCodes:
    """Small integer codes for raw class cells or group keys, one dict per run.

    Each label gets the next code the first time it is seen, so
    ``labels[code]`` reads a code back; a cell in ``missing`` (by default
    the MISSING cells, none for group keys) codes -1.  Codes come in the
    narrowest signed dtype that holds them (``int8`` for up to 126 labels).
    A reader's decoder calls it on each block, so raw cells never outlive
    their block.
    """

    def __init__(self, missing: Iterable[str] = MISSING_CELLS):
        self.labels: list[str] = []
        self.index: dict[str, int] = dict.fromkeys(missing, -1)

    def __call__(self, col: Sequence[str]) -> np.ndarray:
        index = self.index
        codes = np.fromiter(map(index.get, col, repeat(-2)), dtype=self.dtype, count=len(col))
        if (codes == -2).any():
            for label in dict.fromkeys(compress(col, codes == -2)):
                index[label] = len(self.labels)
                self.labels.append(label)
            codes = np.fromiter(map(index.get, col), dtype=self.dtype, count=len(col))
        return codes

    @property
    def dtype(self) -> np.dtype:
        return np.min_scalar_type(-2 - len(self.labels))


def parse_float_column(col: Sequence[str]) -> np.ndarray:
    """Raw continuous cells as float64, NaN for every MISSING cell.

    The whole column is parsed first, touching each cell once.  Only when
    that fails is each ``?`` or blank cell replaced by ``nan`` and the
    column parsed again, and only when that fails too (garbage) is each
    cell parsed by ``float()`` on its own.  Every path reads a cell the
    same way, so the order decides the cost, never the value.
    """
    try:
        values = np.array(col, dtype=np.float64)
    except (TypeError, ValueError):
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
