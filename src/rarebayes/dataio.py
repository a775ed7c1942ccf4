r"""CSV dataset access with explicit pass accounting.

Training reads the data several times; :class:`PassStats` on a
:class:`CsvDataset` handle counts every complete iteration so the
four-pass budget can be asserted rather than trusted.  The handle also
holds every pass to its first complete one: a pass that opens the file
at a different size or modification time, or that ends with different
row or rejected-row counts or a different CRC-32 of the bytes it read
(the header and any ``csv.reader`` tail included), raises
:class:`DatasetError`, so all passes of one training run see the same
unchanged file.  :meth:`CsvDataset.header` reads the header row with
the same byte reader and the same header rule as every pass, and every
pass raises unless the header it reads equals that one, which the
wanted columns were indexed by; a column a pass requires may occur only
once in the header.  The reader knows no schema: a caller names the
columns it requires (:meth:`rarebayes.schema.Schema.columns` for a
schema's).

Data files are RFC-4180-style CSV in UTF-8 with a header row; a file
whose first line is blank or that is empty has none.  Rows whose field
count does not match the header are counted as rejected and skipped;
blank lines are ignored.

The one missing-cell rule, which every training pass, scorer and
baseline applies, lives here.  A class or field cell is MISSING when it
is ``?`` or empty (``MISSING_CELLS``).  A continuous cell is also
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
file in binary and reads ``_BLOCK_BYTES`` bytes at a time, in one read
loop for the header and every block.  It cuts what it holds at the last
line end, where ``csv`` ends a record (``\r\n``, ``\n`` or a lone
``\r``), and decodes each block from UTF-8 once; a line end is never part
of a multi-byte sequence, so every block decodes whole.  A block is split
on its own line end: ``\r\n`` when it ends in one, a lone ``\r`` when it
ends in one, ``\n`` otherwise.  Blank lines are dropped, as ``csv`` skips
them, so a block of blank lines alone holds no rows.
The fast path joins the lines with ``",\n"`` and splits once on ``,``;
that one split also checks the block's line structure.  Each inserted
``\n`` follows an inserted comma, so it starts a cell and no cell holds
two.  So when the ``n`` lines give exactly ``n * width``
cells, the ``n - 1`` inserted ``\n`` are the only ones and all of them
sit in the cells at ``width, 2 * width, ...``, line ``k`` starts at cell
``k * width`` and every line has exactly ``width`` fields.  The block
takes the fast path when that holds, it has no ``"``, no ``\r`` is left
after the split, and no line is longer than ``csv.field_size_limit()``.
It then splits each line as ``csv.reader`` would.  The wanted columns
are sliced out of the one split; column 0 carries the inserted ``\n``
and is stripped of them only when wanted.
(``str.splitlines`` is not used: it also breaks on ``\x0c``, ``\u2028``
and others, which ``csv`` keeps inside a field.)
The rest falls back to ``csv.reader`` with the same blank-line and
field-count rules:

- a quote-free block falls back for three reasons only, a ragged line,
  a line longer than ``csv.field_size_limit()``, or a stray or mixed
  line end; it is parsed by ``csv.reader`` as one block, so a field
  longer than ``csv.field_size_limit()`` raises :class:`DatasetError` on
  either path;
- from the line holding the first ``"`` on, because a quoted field can
  span lines, ``csv.reader`` reads the rest of the file, ``_CSV_ROWS``
  records at a time, from the same decoded blocks;
- the header rule: a header line holding a ``"`` or more than
  ``csv.field_size_limit()`` characters sends the whole file to
  ``csv.reader``; any other is split on ``,``.

Every line, up to its line end, is read only up to a bound: the
header's width times the bytes of the longest field ``csv`` accepts,
quoting and UTF-8 included (:func:`_line_bytes`), or ``_HEADER_BYTES``
while the header record is read.  No well-formed row is longer, so a
longer line raises :class:`DatasetError` rather than count as a rejected
row, and memory stays bounded however long the line is.

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

Every file a command reads or writes is opened here: a whole document by
:func:`read_text`, with the CSV passes' error mapping, and every output by
:func:`output`, JSON as :func:`json_text`.  An output appears whole, only
on success: a new sibling ``.<name>.<pid>.<random>.tmp`` replaces the path
once written, so a failed command leaves an existing output untouched, a
killed one may leave the sibling, which no later run opens or removes, and
a previous file's hard links and mode are not kept.
Every output CSV -- ``gen``'s data file, ``sweep --csv``, and the
prediction files of ``classify`` and ``baseline``, which share one writer
(:func:`rarebayes.evaluation.write_predictions`) -- is opened by
:func:`csv_output`, which writes its header row, all in ``csv.writer``'s
default dialect (minimal quoting, ``\r\n`` line ends).  ``gen``, which
formats every number itself, renders each block of its body as one byte
matrix (``synthgen._render_block``); every other body joins ``str`` cells
in :func:`write_rows`, which is faster for rows like ``classify``'s, whose
long endings repeat.  Those cells arrive already formatted:
:func:`csv_cell` quotes a value as ``csv.writer`` would, so callers quote
each distinct value of a small alphabet once, and numbers, which never
need quoting, are not scanned.
"""

from __future__ import annotations

import csv
import io
import json
import os
import secrets
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DatasetError

MISSING = "?"
# Raw class or field cells that are MISSING: the token and the empty cell.
MISSING_CELLS = frozenset((MISSING, ""))

# Rows a reader's chunk holds at least, the last chunk excepted.
_CHUNK_ROWS = 65536

# Bytes per read; the reader cuts what it holds at the last line end and
# decodes each cut once.
_BLOCK_BYTES = 1 << 17

# Bytes the header's line may take, its line end included: the header of
# 100,000 columns of 20-byte names fits.
_HEADER_BYTES = 1 << 21

# Records per piece once csv.reader reads the rest of a file.
_CSV_ROWS = 1024

# Rows joined per write by write_rows, and rows per block synthgen.generate
# renders; either way it bounds the text held at once.
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
            with _file_errors(self.path), open(self.path, "rb") as fh:
                row, _ = _ByteReader(fh).header()
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
        with _file_errors(self.path), open(self.path, "rb") as fh:
            reader = _ByteReader(fh)
            stat = self._begin_pass(fh)
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
    r"""A binary file read as UTF-8 text: its header, then blocks that end on a line end.

    A line ends where ``csv`` ends a record: at ``\r\n``, ``\n`` or a lone
    ``\r``.  One read loop (:meth:`_fill`) serves the header and every
    block.  A line end is one ASCII byte or two, never part of a multi-byte
    UTF-8 sequence, so every cut of a valid file decodes whole.  ``crc`` is
    the running CRC-32 of every byte read so far.
    """

    def __init__(self, fh):
        self.fh = fh
        self.crc = 0
        self.width: int | None = None  # the header's field count, once read
        self.held = bytearray()  # bytes read and not yet handed out

    def _fill(self) -> int:
        r"""How many held bytes the next cut hands out: up to their last line
        end, or all at the end of the file.  More bytes are read only while
        the held bytes hold no line end; a ``\r`` that ends them is none yet,
        as it may begin a ``\r\n``.  Only the first held line can span reads,
        so it alone is held to a bound: ``_HEADER_BYTES`` until the header
        record is read, then :func:`_line_bytes` of its width.  A longer line
        raises :class:`DatasetError` rather than be read on."""
        held, start = self.held, 0
        bound = _HEADER_BYTES if self.width is None else _line_bytes(self.width)
        while not (cut := max(held.rfind(b"\n", start), held.rfind(b"\r", start, -1)) + 1):
            if len(held) > bound or not (data := self.fh.read(_BLOCK_BYTES)):
                break
            start = max(len(held) - 1, 0)  # a held-back \r is decided by the next byte
            self.crc = zlib.crc32(data, self.crc)
            held += data
        cut = cut or len(held)
        if _first_end(held, cut) > bound:
            what = ("the header" if self.width is None
                    else f"a well-formed row of {self.width} fields")
            raise DatasetError(f"{self.fh.name} has a line longer than {bound} bytes, "
                               f"more than {what} can take")
        return cut

    def _take(self, size: int) -> str:
        """The first ``size`` held bytes, decoded and no longer held."""
        text = str(memoryview(self.held)[:size], "utf-8")
        del self.held[:size]  # the bytes go before the caller splits the text
        return text

    def header(self) -> tuple[list[str] | None, Iterator[list[str]] | None]:
        r"""The first record as ``csv.reader`` parses it (None if blank or absent),
        and the ``csv.reader`` reading on if the first line holds a ``"`` (a
        quoted name can span lines) or more than ``csv.field_size_limit()``
        characters; any other line is split on ``,``.  Only the first line is
        decoded; the bytes after it stay held for :meth:`blocks`."""
        head = self._take(_first_end(self.held, self._fill()))
        line = head.removesuffix("\n").removesuffix("\r")
        if '"' in line or len(line) > csv.field_size_limit():
            records = csv.reader(_lines(chain([head], self.blocks())))
            row = next(records, None)
        else:
            row, records = (line.split(",") if line else None), None
        self.width = len(row or ())
        return row, records

    def blocks(self) -> Iterator[str]:
        """The rest of the file, cut by cut."""
        while cut := self._fill():
            yield self._take(cut)


def _first_end(held: bytearray, cut: int) -> int:
    r"""The length of the first line of ``held[:cut]``, its line end included:
    up to its first ``\n``, ``\r\n`` or lone ``\r``, or ``cut`` if it has none."""
    n, r = held.find(b"\n", 0, cut), held.find(b"\r", 0, cut)
    return (n if r < 0 or 0 <= n <= r + 1 else r) + 1 or cut


def _line_bytes(width: int) -> int:
    r"""The most bytes a well-formed line of ``width`` fields takes, its line
    end included, but never less than ``_BLOCK_BYTES``: each field holds at
    most ``csv.field_size_limit()`` characters of at most 4 UTF-8 bytes (a
    doubled ``"`` takes 2) inside two quotes, and a ``,`` or ``\r\n`` ends it.
    A lower bound would miss a long line inside one read, since the reader
    bounds only the line that spans reads."""
    return max(width * (4 * csv.field_size_limit() + 3) + 1, _BLOCK_BYTES)


_Piece = tuple[int, list[list[str]], int]


def _pieces(reader: _ByteReader, header: list[str], idx: list[int]) -> Iterator[_Piece]:
    """Parse the rows after the header as (rows, wanted columns, rejected) pieces.

    The header row read must equal ``header``, the one the columns were
    indexed by, or :class:`DatasetError` is raised.  Reads text blocks of
    ``_BLOCK_BYTES`` that end on a line end; ``csv.reader`` reads the rest
    of the file from the first ``"`` on, or from the header.
    """
    row, records = reader.header()
    _check_header(reader, row, header)
    width = len(header)
    blocks = reader.blocks() if records is None else ()
    for block in blocks:
        quote = block.find('"')
        if quote < 0:
            yield _block_piece(block, width, idx)
            continue
        cut = max(block.rfind("\n", 0, quote), block.rfind("\r", 0, quote)) + 1
        yield _block_piece(block[:cut], width, idx)
        records = csv.reader(_lines(chain([block[cut:]], blocks)))
        break
    if records is not None:
        yield from _csv_pieces(records, width, idx)


def _check_header(reader: _ByteReader, row: list[str] | None, header: list[str]) -> None:
    if row != header:
        raise DatasetError(
            f"{reader.fh.name} changed: its header row reads {row}, "
            f"but the columns were found in {header}"
        )


def _lines(texts: Iterable[str]) -> Iterator[str]:
    r"""The lines of ``texts`` as a text file opened with ``newline=""`` reads
    them; every text but the last ends on a line end and none starts with
    the ``\n`` of a ``\r\n``, so no line spans two."""
    return chain.from_iterable(io.StringIO(text, newline="") for text in texts)


def _block_piece(block: str, width: int, idx: list[int]) -> _Piece:
    r"""Split a quote-free block of whole lines; ``csv.reader`` takes odd blocks.

    The block is split on the line end it ends in (``\r\n``, a lone ``\r``,
    else ``\n``) and its blank lines are dropped, as ``csv`` skips them; a
    block of blank lines alone is a piece of no rows.  The ``n`` lines left
    are joined with ``",\n"`` and split once on ``,``.  Each ``\n`` marker
    so inserted follows a comma, so it starts a cell and no cell holds two.
    The block is accepted when it has ``n * width`` cells, its ``n - 1``
    markers are its only ``\n`` and all sit in the cells at ``width, 2 *
    width, ...``, no ``\r`` is left, and no line is longer than
    ``csv.field_size_limit()``.  Then line ``k`` starts at cell ``k *
    width``, so every line has exactly ``width`` fields and ``csv`` would
    split it the same way.  So a ragged line, an over-long line or a stray
    or mixed line end sends the block to ``csv.reader``, and nothing else
    does.  Column 0 carries the markers; it is stripped of them only when
    it is wanted.
    """
    end = "\r\n" if block.endswith("\r\n") else "\r" if block.endswith("\r") else "\n"
    lines = list(filter(None, block.split(end)))  # csv skips blank lines
    if not lines:
        return 0, [[] for _ in idx], 0
    n = len(lines)
    text = ",\n".join(lines)
    flat = text.split(",")
    starts = "".join(flat[::width])  # column 0: the first cell and the n - 1 markers
    if (
        len(flat) != n * width
        or "\r" in text
        or starts.count("\n") != n - 1
        or text.count("\n") != n - 1
        or max(map(len, lines)) > csv.field_size_limit()
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


@contextmanager
def _file_errors(path: str | Path, verb: str = "read") -> Iterator[None]:
    """Raise an error reading (or writing) ``path`` in the block as a :class:`DatasetError`."""
    try:
        yield
    except OSError as exc:
        raise DatasetError(f"cannot {verb} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DatasetError(f"{path} is not readable CSV: {exc}") from exc


def read_text(path: str | Path) -> str:
    """The whole UTF-8 document at ``path``."""
    with _file_errors(path):
        return Path(path).read_text(encoding="utf-8")


def output_dir(path: str | Path) -> Path:
    """``path`` made a directory, with any missing parents."""
    with _file_errors(path, "write"):
        Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


@contextmanager
def output(path: str | Path) -> Iterator[TextIO]:
    """A new UTF-8 file beside ``path`` that replaces it if the block ends normally."""
    path = Path(path)
    if path.is_dir():  # found now, not at the replace after all the work
        raise DatasetError(f"cannot write {path}: Is a directory")
    with _file_errors(path, "write"):
        tmp, fh = _sibling(path)
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _sibling(path: Path) -> tuple[Path, TextIO]:
    """A new file ``.<name>.<pid>.<random>.tmp`` beside ``path``, opened for
    writing.  A name that exists, such as a sibling a killed run left, is
    neither opened nor removed: another of the 2**32 names is drawn."""
    while True:
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        try:
            return tmp, open(tmp, "x", newline="", encoding="utf-8")
        except FileExistsError:
            continue


def json_text(doc: Any) -> str:
    """``doc`` as the text of a JSON output file."""
    return json.dumps(doc, indent=2) + "\n"


def as_dataset(data: str | Path | CsvDataset) -> CsvDataset:
    return data if isinstance(data, CsvDataset) else CsvDataset(data)


def csv_cell(text: str) -> str:
    """``text`` as ``csv.writer``'s default dialect writes it in a row of
    two or more cells: quoted and with ``"`` doubled when it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # the empty last cell's "," and the "\r\n"


@contextmanager
def csv_output(path: str | Path, header: Sequence[str]) -> Iterator[TextIO]:
    """:func:`output` at ``path`` for :func:`write_rows`, its header row written."""
    with output(path) as fh:
        write_rows(fh, [[csv_cell(name)] for name in header])
        yield fh


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
