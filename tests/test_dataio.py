import csv
import io
import math
import os
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rarebayes import DatasetError, classify_file, dataio, generate, parse_schema, structure, train
from rarebayes.baselines import fit_from_csv, score_to_csv
from rarebayes.dataio import CsvDataset
from rarebayes.synthgen import CategoricalSpec, ContinuousSpec, GenConfig

from fixture_configs import messy_config

SCHEMA = parse_schema("class y\nvar a categorical\nvar b categorical\n")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_records(ds):
    """One full pass over every column, after checking the header covers
    SCHEMA; returns the rows as header-keyed dicts."""
    ds.require_columns(ds.schema_columns(SCHEMA))
    header = ds.header()
    records = []
    for chunk in ds.iter_chunks(header):
        records.extend(
            dict(zip(header, row)) for row in zip(*(chunk.columns[c] for c in header))
        )
    return records


def test_pass_accounting_clean_file(tmp_path, sizes):
    rows = "\n".join(f"g,v{i},w{i}" for i in range(1000))
    ds = CsvDataset(write(tmp_path, f"y,a,b\n{rows}\n"))
    sizes(chunk_rows=300, block_bytes=1)
    read_records(ds)
    stats = ds.stats
    assert (stats.passes, stats.rows, stats.rejected) == (1, 1000, 0)


def test_wrong_arity_rows_rejected(tmp_path):
    lines = ["y,a,b"] + [f"g,v{i},w{i}" for i in range(10)]
    lines[3] = "g,only-two"            # arity 2
    lines[7] = "g,v,w,extra"           # arity 4
    ds = CsvDataset(write(tmp_path, "\n".join(lines) + "\n"))
    read_records(ds)
    assert (ds.stats.rows, ds.stats.rejected) == (8, 2)


def test_header_missing_class_column(tmp_path):
    ds = CsvDataset(write(tmp_path, "a,b\nv,w\n"))
    with pytest.raises(DatasetError, match="y"):
        read_records(ds)


def test_header_missing_field_column(tmp_path):
    ds = CsvDataset(write(tmp_path, "y,a\ng,v\n"))
    with pytest.raises(DatasetError, match="b"):
        read_records(ds)


def test_unreadable_source():
    ds = CsvDataset("/nonexistent/nowhere.csv")
    with pytest.raises(DatasetError, match="nowhere.csv"):
        ds.header()


def test_two_passes_visit_identical_sequences(tmp_path, sizes):
    ds = CsvDataset(write(tmp_path, "y,a,b\ng,1,2\nb,3,4\ng,5,6\n"))
    first = read_records(ds)
    sizes(chunk_rows=2, block_bytes=1)
    second = read_records(ds)
    assert first == second
    assert list(ds.iter_rows()) == first
    assert ds.stats.passes == 3


def test_visitor_sees_full_records(tmp_path):
    ds = CsvDataset(write(tmp_path, "y,a,b,extra\ng,1,2,9\n"))
    assert read_records(ds) == [{"y": "g", "a": "1", "b": "2", "extra": "9"}]


def test_quoted_fields_rfc4180(tmp_path):
    ds = CsvDataset(write(tmp_path, 'y,a,b\ng,"v,1","w""x"\n'))
    seen = read_records(ds)
    assert seen[0]["a"] == "v,1"
    assert seen[0]["b"] == 'w"x'


def test_blank_lines_skipped_silently(tmp_path):
    ds = CsvDataset(write(tmp_path, "y,a,b\ng,1,2\n\nb,3,4\n"))
    assert len(read_records(ds)) == 2
    assert (ds.stats.rows, ds.stats.rejected) == (2, 0)


def test_chunked_matches_row_wise(tmp_path, sizes):
    text = "y,a,b\n" + "".join(f"g,v{i},w{i % 3}\n" for i in range(257))
    ds = CsvDataset(write(tmp_path, text))
    sizes(chunk_rows=1, block_bytes=1)
    rows = read_records(ds)
    chunked_a = []
    sizes(chunk_rows=100)
    for chunk in ds.iter_chunks(["a"]):
        chunked_a.extend(chunk.columns["a"])
    assert chunked_a == [r["a"] for r in rows]
    assert ds.stats.passes == 2


def test_abandoned_iteration_counts_no_pass(tmp_path, sizes):
    ds = CsvDataset(write(tmp_path, "y,a,b\ng,1,2\nb,3,4\n"))
    sizes(chunk_rows=1, block_bytes=1)
    it = ds.iter_chunks(["a"])
    next(it)
    del it
    assert ds.stats.passes == 0


@pytest.mark.parametrize("quoted", [False, True])
def test_pass_reading_another_header_raises(tmp_path, quoted):
    """A pass indexes the columns by the header read first, so a file whose
    header changed before the pass raises rather than reading another
    column's cells, on the block path and on the csv.reader path alike."""
    path = write(tmp_path, "a,b\n1,x\n2,y\n")
    ds = CsvDataset(path)
    assert ds.header() == ["a", "b"]
    head = '"b",a' if quoted else "b,a"
    path.write_text(f"{head}\nx,1\ny,2\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=r"header row reads \['b', 'a'\]"):
        list(ds.iter_chunks(["a"]))
    assert ds.stats.passes == 0


def test_header_repeating_a_required_column_raises(tmp_path):
    """A required column named twice is an error; a repeated column no pass
    requires is read past."""
    ds = CsvDataset(write(tmp_path, "y,a,a,b,c,c\ng,1,2,3,4,5\n"))
    with pytest.raises(DatasetError, match="repeats required column.s.: a$"):
        ds.require_columns(["y", "a", "b", "a"])
    ds.require_columns(["y", "b"])
    assert [chunk.columns for chunk in ds.iter_chunks(["b", "y"])] == [
        {"b": ["3"], "y": ["g"]}]


def test_same_size_and_mtime_with_other_rows_raises(tmp_path):
    path = write(tmp_path, "y,a,b\ng,1,2\nb,3,4\n")
    ds = CsvDataset(path)
    read_records(ds)
    stat = path.stat()
    # same byte count, but the last row now has the wrong arity
    path.write_text("y,a,b\ng,1,2\nb,3,,\n", encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    with pytest.raises(DatasetError, match="1 rejected"):
        read_records(ds)


@pytest.mark.parametrize("quoted", [False, True])
def test_same_size_mtime_and_rows_with_other_cells_raises(tmp_path, quoted):
    """A cell rewritten to another of the same length, with the mtime put
    back, leaves size, mtime and row counts as they were; the checksum of
    the bytes read still tells the passes apart, on the block path and on
    the csv.reader path alike."""
    head = '"y",a,b' if quoted else "y,a,b"
    path = write(tmp_path, f"{head}\ng,1,2\nb,3,4\n")
    ds = CsvDataset(path)
    read_records(ds)
    stat = path.stat()
    path.write_text(f"{head}\ng,1,2\nb,5,4\n", encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    with pytest.raises(DatasetError, match="changed between passes: pass 2 read bytes"):
        read_records(ds)
    assert ds.stats.passes == 1


@pytest.mark.parametrize("schema, rows, rewritten", [
    # a field cell
    (SCHEMA, "g,1,2\nb,3,4\n", "g,1,2\nb,3,5\n"),
    # a class cell, to a label pass 1 never saw
    (SCHEMA, "g,1,2\nb,3,4\n", "g,1,2\nx,3,4\n"),
    # a group key, to a new key, where the group key is read in every pass
    (parse_schema("class y\ngroup a\nvar b categorical\nwindow 2\n"),
     "g,1,2\nb,3,4\n", "g,1,2\nb,5,4\n"),
], ids=["field", "class", "group"])
def test_training_rejects_a_cell_rewritten_between_passes(tmp_path, schema, rows, rewritten):
    """``train`` raises when one cell changes after pass 1 and the file
    keeps its size and mtime."""
    path = write(tmp_path, "y,a,b\n" + rows * 50)
    real_count_pass = structure._count_pass

    def rewrite_then_count(ds, *args):
        stat = path.stat()
        path.write_text("y,a,b\n" + rows * 49 + rewritten, encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        return real_count_pass(ds, *args)

    with (mock.patch.object(structure, "_count_pass", rewrite_then_count),
          pytest.raises(DatasetError, match="pass 2 read bytes with CRC-32")):
        train(schema, path, seed=1)


def test_non_utf8_data_is_dataset_error(tmp_path):
    path = tmp_path / "data.csv"
    # the bad byte lies past the header's first read buffer
    path.write_bytes(b"y,a,b\n" + b"g,1,2\n" * 5000 + b"g,\xff,3\n")
    ds = CsvDataset(path)
    assert ds.header() == ["y", "a", "b"]
    with pytest.raises(DatasetError, match="data.csv is not UTF-8"):
        read_records(ds)
    path.write_bytes(b"y,\xff,b\ng,1,2\n")
    with pytest.raises(DatasetError, match="data.csv is not UTF-8"):
        CsvDataset(path).header()


def test_oversized_quoted_field_is_dataset_error(tmp_path):
    field = "x" * (csv.field_size_limit() + 1)
    ds = CsvDataset(write(tmp_path, f'y,a,b\ng,1,2\ng,"{field}",3\n'))
    with pytest.raises(DatasetError, match="data.csv is not readable CSV"):
        read_records(ds)
    ds = CsvDataset(write(tmp_path, f'y,"{field}",b\n', name="head.csv"))
    with pytest.raises(DatasetError, match="head.csv is not readable CSV"):
        ds.header()


def test_oversized_field_is_dataset_error_quoted_or_not(tmp_path):
    field = "x" * 200_000
    for name, cell in (("bare.csv", field), ("quoted.csv", f'"{field}"')):
        ds = CsvDataset(write(tmp_path, f"y,a,b\ng,1,2\ng,{cell},3\n", name=name))
        with pytest.raises(DatasetError, match=f"{name} is not readable CSV.*field limit"):
            read_records(ds)
    # a line past the limit whose fields all fit still reads
    half = "x" * (csv.field_size_limit() // 2 + 1)
    ds = CsvDataset(write(tmp_path, f"y,a,b\ng,{half},{half}\n", name="long.csv"))
    assert read_records(ds) == [{"y": "g", "a": half, "b": half}]


# --- the block reader against csv.reader --------------------------------

CELL = st.text(alphabet='ab ,"\r\n\x0c\u2028', max_size=3)
TERMINATOR = st.sampled_from(["\n", "\r\n", "\r"])


def oracle(path, wanted):
    """csv.reader over the whole file: wanted columns, row and rejected counts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        records = [row for row in reader if row]
    good = [row for row in records if len(row) == len(header)]
    columns = {name: [row[header.index(name)] for row in good] for name in wanted}
    return columns, len(good), len(records) - len(good)


def csv_line(cells):
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(cells)
    return out.getvalue()


@st.composite
def csv_files(draw):
    """A header of 1-4 columns (sometimes quoted) over a body that is either
    rows of mostly plain cells, with blank and ragged lines, or raw text."""
    width = draw(st.integers(1, 4))
    names = [f"c{i}" for i in range(width)]
    if draw(st.booleans()):
        head = csv_line(names)
    else:
        head = ",".join(f'"{name}"' for name in names)
    text = head + draw(TERMINATOR)
    if draw(st.booleans()):
        text += draw(st.text(alphabet='ab,"\r\n\x0c\u2028', max_size=40))
    else:
        plain = st.sampled_from(["", "a", "b", "ab", "?", " a", "a\x0cb", "\u2028"])
        cell = st.one_of(plain, plain, plain, CELL)
        for _ in range(draw(st.integers(0, 12))):
            kind = draw(st.sampled_from(["row", "row", "row", "blank", "ragged"]))
            if kind == "blank":
                line = ""
            else:
                n = width if kind == "row" else draw(
                    st.sampled_from([k for k in (width - 1, width + 1) if k > 0]))
                line = csv_line(draw(st.lists(cell, min_size=n, max_size=n)))
            text += line + draw(TERMINATOR)
        if draw(st.booleans()):
            text = text.rstrip("\r\n")
    wanted = draw(st.lists(st.sampled_from(names), unique=True))
    return text, wanted


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


def decode_rows(wanted):
    """A test decoder: each row's wanted cells as a tuple (a list column) and
    their summed length (an ``int64`` column)."""
    def decode(block):
        rows = [tuple(block.columns[name][i] for name in wanted) for i in range(block.size)]
        return {"chars": np.array([sum(map(len, row)) for row in rows], dtype=np.int64),
                "rows": rows}
    return decode


@settings(max_examples=400, deadline=None)
@given(
    case=csv_files(),
    chunk_rows=st.integers(1, 8),
    block_chars=st.one_of(st.integers(1, 48), st.just(dataio._BLOCK_BYTES)),
    csv_rows=st.one_of(st.integers(1, 4), st.just(dataio._CSV_ROWS)),
    decoded=st.booleans(),
)
@example(case=("c0\n\na\n\n\nb\n", ["c0"]), chunk_rows=1, block_chars=1,
         csv_rows=1, decoded=False)
@example(case=("c0\r\na\r\nb\r\n", ["c0"]), chunk_rows=2, block_chars=4,
         csv_rows=1, decoded=True)
@example(case=("c0,c1\na,b\nc\x0cd,e\u2028f\n", ["c1", "c0"]), chunk_rows=3,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
@example(case=('c0,c1\na,b\nc,d\n"e\nf",g\nh,i\n', ["c0"]), chunk_rows=2,
         block_chars=5, csv_rows=1, decoded=True)
@example(case=('"c0","c1"\na,b\nc\rd,e\n', ["c1"]), chunk_rows=1, block_chars=3,
         csv_rows=2, decoded=False)
@example(case=("c0,c1\r\na,b\r\nc\nd,e\r\nf,g\r\n", ["c0", "c1"]), chunk_rows=2,
         block_chars=1 << 20, csv_rows=1024, decoded=True)
@example(case=("c0,c1\r\na,b\r\nc,d\re,f\r\n", ["c1"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=True)
# ragged lines whose field counts cancel: the block's comma count is right
@example(case=("c0,c1\r\na,b,c\r\nd\r\ne,f\r\n", ["c1"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
# a bare \n in a \r\n block, with every marker where a line should start
@example(case=("c0,c1\r\na,b,\nx\r\nd\r\n", ["c1"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
@example(case=("c0,c1\r\na,b\nc\r\nd,e\r\n", ["c0", "c1"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
# a lone \r
@example(case=("c0,c1\na\rb,c\n", ["c0", "c1"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
# a blank line in a one-column file
@example(case=("c0\na\n\nb\n", ["c0"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
# a last block with no line end
@example(case=("c0,c1\r\na,b\r\nc,d", ["c0", "c1"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
@example(case=("c0,c1\na,b\nc,d", ["c0"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=True)
# the fast path, reading the column that carries its line-start markers
@example(case=("c0,c1,c2\r\na,b,c\r\n?,,e\r\nf,g,h\r\n", ["c2", "c0"]), chunk_rows=2,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
# a lone \r inside the header line, where csv ends the header record
@example(case=("c0,c1\rx,y\na,b\n", ["c1"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=False)
# multi-byte characters cut by 1-byte blocks
@example(case=("c0,c1\n\u00e9,b\nc,\u20ac\u2028\n", ["c0", "c1"]), chunk_rows=1,
         block_chars=1, csv_rows=1, decoded=False)
# a header that starts with a UTF-8 byte order mark, which stays in its first name
@example(case=("\ufeffc0,c1\r\na,b\r\n", ["c1"]), chunk_rows=8,
         block_chars=1 << 20, csv_rows=1024, decoded=True)
def test_reader_matches_csv_module(case_dir, case, chunk_rows, block_chars, csv_rows,
                                   decoded):
    """Raw and decoded chunks hold the csv.reader oracle's rows, and every
    chunk but the last holds at least ``chunk_rows`` of them, whatever the
    block sizes."""
    text, wanted = case
    path = case_dir / "case.csv"
    path.write_bytes(text.encode("utf-8"))
    columns, rows, rejected = oracle(path, wanted)
    ds = CsvDataset(path)
    with (mock.patch.object(dataio, "_BLOCK_BYTES", block_chars),
          mock.patch.object(dataio, "_CSV_ROWS", csv_rows),
          mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows)):
        chunks = list(ds.iter_chunks(wanted, decode_rows(wanted) if decoded else None))
    sizes = [chunk.size for chunk in chunks]
    assert sum(sizes) == rows and all(sizes)
    assert all(size >= chunk_rows for size in sizes[:-1])
    if decoded:
        expected = list(zip(*(columns[name] for name in wanted))) if wanted else [()] * rows
        for chunk in chunks:
            assert sorted(chunk.columns) == ["chars", "rows"]
            assert chunk.columns["chars"].dtype == np.int64
            assert len(chunk.columns["chars"]) == len(chunk.columns["rows"]) == chunk.size
        assert [row for chunk in chunks for row in chunk.columns["rows"]] == expected
        assert np.concatenate([np.zeros(0, np.int64)] + [
            chunk.columns["chars"] for chunk in chunks]).tolist() == [
            sum(map(len, row)) for row in expected]
    else:
        for chunk in chunks:
            assert sorted(chunk.columns) == sorted(wanted)
            assert all(len(col) == chunk.size for col in chunk.columns.values())
        got = {name: [v for chunk in chunks for v in chunk.columns[name]] for name in wanted}
        assert got == columns
    assert (ds.stats.passes, ds.stats.rows, ds.stats.rejected) == (1, rows, rejected)


@pytest.mark.parametrize("line_end", ["\r\n", "\n"])
def test_generated_files_take_the_fast_path(tmp_path, sizes, line_end):
    r"""A generated file (``\r\n`` line ends) and a ``\n`` copy of it are
    read without ``csv.reader``, every column as the csv module reads it.
    The equivalence property cannot see a fast path that never fires."""
    data = generate(messy_config(n=3000), tmp_path / "fixture").data_path
    raw = data.read_bytes()
    assert raw.count(b"\r\n") == 3001 and b'"' not in raw
    path = tmp_path / "data.csv"
    path.write_bytes(raw.replace(b"\r\n", line_end.encode()))
    ds = CsvDataset(path)
    wanted = ds.header()
    columns, rows, rejected = oracle(path, wanted)
    sizes(chunk_rows=1000)
    with (mock.patch.object(dataio, "_BLOCK_BYTES", 4096),  # about 20 blocks
          mock.patch.object(dataio, "_csv_piece", wraps=dataio._csv_piece) as slow):
        chunks = list(ds.iter_chunks(wanted))
    got = {name: [v for chunk in chunks for v in chunk.columns[name]] for name in wanted}
    assert slow.call_count == 0
    assert (got, rows, rejected) == (columns, 3000, 0)


@pytest.mark.parametrize("chunk_rows", [300, 65536])
def test_decoded_blocks_released_once_joined(tmp_path, sizes, chunk_rows):
    """When a chunk reaches the caller, no decoded block it was joined
    from is still alive, the last chunk's included."""
    path = write(tmp_path, "a\n" + "".join(f"{i}\n" for i in range(1000)))
    blocks = []

    def decode(block):
        arr = np.array(block.columns["a"], dtype=np.int64)
        blocks.append(weakref.ref(arr))
        return {"a": arr}

    got = []
    sizes(chunk_rows=chunk_rows)
    with mock.patch.object(dataio, "_BLOCK_BYTES", 64):
        for chunk in CsvDataset(path).iter_chunks(["a"], decode):
            assert len(blocks) > 2
            assert all(ref() is None for ref in blocks)
            got += chunk.columns["a"].tolist()
    assert got == list(range(1000))


def test_outputs_do_not_depend_on_block_size(tmp_path):
    """The model file and the classification file are the same bytes
    whatever the block size, on a fixture with missing continuous cells
    and lagged nodes from a ``window 3`` group."""
    config = messy_config(n=1500)
    data = generate(config, tmp_path / "fixture").data_path
    # t_prime 1.0 keeps every candidate node, the lagged ones included
    schema = replace(config.to_schema(), window=3, t_prime=1.0)
    outputs = {}
    for block_chars in (64, 4096, dataio._BLOCK_BYTES):
        model_path = tmp_path / f"model{block_chars}.json"
        pred = tmp_path / f"pred{block_chars}.csv"
        with mock.patch.object(dataio, "_BLOCK_BYTES", block_chars):
            model = train(schema, data, seed=1)
            model.save(model_path)
            classify_file(model, data, pred, 0.5)
        outputs[block_chars] = (model_path.read_bytes(), pred.read_bytes())
    assert any(rf.slot > 0 for rf in model.ranked_fields)
    assert b",?," in data.read_bytes() or b",?\r\n" in data.read_bytes()
    assert len(set(outputs.values())) == 1


# --- the bulk writer against csv.writer ---------------------------------

WRITER_CELL = st.one_of(st.just(""), st.text(alphabet=' ab,"\r\n\u00e9\u2028', max_size=5))


@st.composite
def cell_rows(draw):
    width = draw(st.integers(1, 6))
    row = st.lists(WRITER_CELL, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=60))


@settings(max_examples=300, deadline=None)
@given(rows=cell_rows(), batch_rows=st.integers(1, 70))
@example(rows=[[""]], batch_rows=1)
@example(rows=[["a"], [""], ['"']], batch_rows=2)
@example(rows=[["", ""], [" ", "a,b"]], batch_rows=1)
def test_write_rows_matches_csv_writer(rows, batch_rows):
    expected = io.StringIO()
    csv.writer(expected).writerows(rows)
    got = io.StringIO()
    with mock.patch.object(dataio, "_WRITE_ROWS", batch_rows):
        dataio.write_rows(got, [map(dataio.csv_cell, col) for col in zip(*rows)])
    assert got.getvalue() == expected.getvalue()


def test_output_files_quote_like_csv_writer(tmp_path):
    """Class symbols, outcomes and a variable name that need quoting come
    out of every writer as csv.writer writes the rows read back."""
    good, bad = "go od", 'ba,"d"'
    name = 'c,"1"x'
    config = GenConfig(
        n=600, seed=5, class_labels=(good, bad), positive_rate=0.3,
        categorical=(CategoricalSpec(
            name, ("a b", "x,y", 'q"r'),
            {good: (0.7, 0.2, 0.1), bad: (0.1, 0.2, 0.7)}, missing_rate=0.1,
        ),),
        continuous=(
            ContinuousSpec("v;1", {good: 0.0, bad: 1.5}, {good: 1.0, bad: 2.0}),
            ContinuousSpec("w,2", {good: 1.0, bad: -1.0}, {good: 1.0, bad: 0.5}),
        ),
    )
    data = generate(config, tmp_path / "fixture").data_path
    schema = config.to_schema()
    pred = tmp_path / "pred.csv"
    classify_file(train(schema, data, seed=1), data, pred, 0.5)
    base = tmp_path / "base.csv"
    score_to_csv(fit_from_csv(schema, data, "quadratic"), schema, data, base)
    read = {}
    for path in (data, pred, base):
        with open(path, newline="", encoding="utf-8") as fh:
            read[path] = list(csv.reader(fh))
        again = io.StringIO()
        csv.writer(again).writerows(read[path])
        assert path.read_bytes().decode("utf-8") == again.getvalue()
    header, *rows = read[data]
    assert {row[header.index(name)] for row in rows} == {"a b", "x,y", 'q"r', "?"}
    assert {row[0] for row in rows} == {good, bad}
    for path in (pred, base):
        header, *rows = read[path]
        assert header == ["record_id", f"p_{bad}", f"p_{good}", "label", "skipped_nodes"]
        assert {row[3] for row in rows} == {good, bad}
    assert f"{name}:missing" in {row[4] for row in read[pred][1:]}


def test_missing_cell_rule():
    """``?`` and the empty cell are MISSING; nothing else is, not even a
    blank-looking or ``nan`` category."""
    cells = ["?", "", " ", "a", "??", "nan", "inf", "0"]
    assert dataio.missing_mask(cells).tolist() == [True, True] + [False] * 6
    assert dataio.missing_mask([]).shape == (0,)


NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(lambda i: f" {i}\t"),
    st.sampled_from(["?", "", " ", "nan", "-NaN", "inf", "-inf", "+Infinity", "1e999",
                     "-1e999", "1_000", "0x10", "abc", "1,5"]),
)


def oracle_float(cell):
    """A continuous cell's value by the rule: ``float()`` when that gives a
    finite number, else NaN (MISSING)."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return math.nan
    return value if math.isfinite(value) else math.nan


@given(st.lists(NUMBER_TEXT, max_size=30))
@settings(max_examples=300, deadline=None)
def test_parse_float_column_matches_rule(col):
    """Both parse paths (the whole-column one, and the per-cell one that a
    garbage cell forces) give the rule's value for every cell."""
    out = dataio.parse_float_column(col)
    assert out.dtype == np.float64 and out.shape == (len(col),)
    expect = np.array([oracle_float(cell) for cell in col], dtype=np.float64)
    assert np.array_equal(out, expect, equal_nan=True)
