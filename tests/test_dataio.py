import os

import pytest

from rarebayes import DatasetError, parse_schema
from rarebayes.dataio import CsvDataset

SCHEMA = parse_schema("class y\nvar a categorical\nvar b categorical\n")


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def read_records(ds, chunk_rows=65536):
    """One full pass over every column, after checking the header covers
    SCHEMA; returns the rows as header-keyed dicts."""
    ds.require_columns(ds.schema_columns(SCHEMA))
    header = ds.header()
    records = []
    for chunk in ds.iter_chunks(header, chunk_rows):
        records.extend(
            dict(zip(header, row)) for row in zip(*(chunk.columns[c] for c in header))
        )
    return records


def test_pass_accounting_clean_file(tmp_path):
    rows = "\n".join(f"g,v{i},w{i}" for i in range(1000))
    ds = CsvDataset(write(tmp_path, f"y,a,b\n{rows}\n"))
    read_records(ds, chunk_rows=300)
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


def test_two_passes_visit_identical_sequences(tmp_path):
    ds = CsvDataset(write(tmp_path, "y,a,b\ng,1,2\nb,3,4\ng,5,6\n"))
    first = read_records(ds)
    second = read_records(ds, chunk_rows=2)
    assert first == second
    assert ds.stats.passes == 2


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


def test_chunked_matches_row_wise(tmp_path):
    text = "y,a,b\n" + "".join(f"g,v{i},w{i % 3}\n" for i in range(257))
    ds = CsvDataset(write(tmp_path, text))
    rows = read_records(ds, chunk_rows=1)
    chunked_a = []
    for chunk in ds.iter_chunks(["a"], chunk_rows=100):
        chunked_a.extend(chunk.columns["a"])
    assert chunked_a == [r["a"] for r in rows]
    assert ds.stats.passes == 2


def test_abandoned_iteration_counts_no_pass(tmp_path):
    ds = CsvDataset(write(tmp_path, "y,a,b\ng,1,2\nb,3,4\n"))
    it = ds.iter_chunks(["a"], chunk_rows=1)
    next(it)
    del it
    assert ds.stats.passes == 0


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
