"""tables.write_csv writes the bytes csv.writer writes for the same cells."""

import csv
import io

import numpy as np
import pytest

from cellfree_maxmin.tables import write_csv

FLOATS = [0.1, float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16,
          1.0 / 3.0, -2.5e-300, 123456789.0]


def old_fmt(x) -> str:
    """The cell rules the experiment writers used with csv.writer."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else old_fmt(v) for v in row])
    return buf.getvalue().encode()


def written(tmp_path, header, columns) -> bytes:
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    return path.read_bytes()


def test_mixed_columns_match_csv_writer(tmp_path):
    n = len(FLOATS)
    mixed = [True, np.bool_(False), np.int64(-7), 3, "objective_plateau", *FLOATS]
    columns = [
        list(range(len(mixed))),
        mixed,
        [np.float64(v) for v in mixed[5:]] + ["x"] * 5,
        [np.bool_(i % 2) for i in range(n)] + [False, True, np.int64(2**62), 0, "s"],
    ]
    header = ["i", "value", "np_value", "other"]
    assert written(tmp_path, header, columns) == csv_writer_bytes(header, zip(*columns))


def test_array_columns_match_csv_writer(tmp_path):
    floats = np.array(FLOATS)
    ints = np.array([0, -1, 2**62, 7, -(2**63), 5, 6, 7, 8, 9, 10], dtype=np.int64)
    uints = np.arange(len(FLOATS), dtype=np.uint32)
    bools = np.arange(len(FLOATS)) % 3 == 0
    columns = [ints, floats, uints, bools, floats.astype(np.float32)]
    header = ["a", "b", "c", "d", "e"]
    rows = zip(ints.tolist(), floats.tolist(), uints.tolist(), bools.tolist(),
               floats.astype(np.float32).tolist())
    assert written(tmp_path, header, columns) == csv_writer_bytes(header, rows)


def test_no_rows_writes_the_header(tmp_path):
    assert written(tmp_path, ["a", "b"], [np.empty(0), []]) == b"a,b\r\n"


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_cell_that_needs_quoting_raises(tmp_path, cell):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow(["k", cell])
    assert '"' in buf.getvalue()  # csv.writer would quote it
    with pytest.raises(ValueError, match="quoting"):
        write_csv(tmp_path / "t.csv", ["key", "value"], [["k"], [cell]])
    with pytest.raises(ValueError, match="quoting"):
        write_csv(tmp_path / "t.csv", ["key", cell], [["k"], ["v"]])


def test_lone_empty_cell_raises(tmp_path):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerow([""])
    assert buf.getvalue() == '""\r\n'
    with pytest.raises(ValueError, match="quoting"):
        write_csv(tmp_path / "t.csv", ["only"], [["a", ""]])


def test_ragged_columns_raise(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])
