import struct

import numpy as np
import pytest

from senselect.core import Dataset
from senselect.io import (MAGIC, REPORT_SCHEMA_VERSION, DataFormatError,
                          load_losses, load_matrix, load_report, load_sample,
                          save_matrix, save_report, save_sample)
from senselect.selection import WeightedSample


class TestMatrixRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        data = Dataset(rng.normal(size=(7, 3)))
        path = tmp_path / "m.csv"
        save_matrix(data, path)
        loaded = load_matrix(path)
        np.testing.assert_array_equal(loaded.rows, data.rows)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        data = Dataset(rng.normal(size=(9, 4)))
        path = tmp_path / "m.bin"
        save_matrix(data, path, binary=True)
        loaded = load_matrix(path)
        np.testing.assert_array_equal(loaded.rows, data.rows)

    def test_binary_layout_bytes(self, tmp_path):
        # magic, u64 n, u64 d (little-endian), then row-major float64
        data = Dataset([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "m.bin"
        save_matrix(data, path, binary=True)
        raw = path.read_bytes()
        assert raw[:5] == MAGIC == b"CSEL1"
        assert struct.unpack("<QQ", raw[5:21]) == (2, 2)
        np.testing.assert_array_equal(
            np.frombuffer(raw[21:], dtype="<f8"), [1.0, 2.0, 3.0, 4.0])
        assert len(raw) == 5 + 16 + 4 * 8

    def test_csv_header_detected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x,y\n1,2\n3,4\n")
        loaded = load_matrix(path)
        np.testing.assert_array_equal(loaded.rows, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("first", ["1.0,abc,3", "abc,2,3", "1,2,x"])
    def test_garbled_first_row_is_not_a_header(self, tmp_path, first):
        # a first line with any numeric field is a data row, so a garbled
        # one is rejected rather than dropped as a header
        path = tmp_path / "g.csv"
        path.write_text(f"{first}\n4,5,6\n7,8,9\n")
        with pytest.raises(DataFormatError, match="unparsable row"):
            load_matrix(path)

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(DataFormatError):
            load_matrix(path)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(MAGIC + struct.pack("<QQ", 5, 5) + b"\x00" * 8)
        with pytest.raises(DataFormatError):
            load_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            load_matrix(path)


class TestLosses:
    def test_plain_lines(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0.5\n1.5\n2.5\n")
        losses = load_losses(path, n=3)
        np.testing.assert_array_equal(losses.values, [0.5, 1.5, 2.5])

    def test_named_column(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,loss\n0,0.5\n1,1.5\n")
        losses = load_losses(path, column="loss")
        np.testing.assert_array_equal(losses.values, [0.5, 1.5])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,loss\n0,0.5\n")
        with pytest.raises(DataFormatError):
            load_losses(path, column="nope")

    def test_named_column_short_row(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("id,loss\n0,0.5\n1\n")
        with pytest.raises(DataFormatError, match="no 'loss' column"):
            load_losses(path, column="loss")

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0.5\n1.5\n")
        with pytest.raises(DataFormatError):
            load_losses(path, n=3)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("-1.0\n")
        with pytest.raises(DataFormatError):
            load_losses(path)


class TestSample:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(32)
        sample = WeightedSample(rng.integers(100, size=20),
                                rng.random(20) * 7)
        path = tmp_path / "s.csv"
        save_sample(sample, path)
        loaded = load_sample(path)
        np.testing.assert_array_equal(loaded.indices, sample.indices)
        # repr round-trips float64 exactly
        np.testing.assert_array_equal(loaded.weights, sample.weights)

    def test_header_line(self, tmp_path):
        path = tmp_path / "s.csv"
        save_sample(WeightedSample(np.array([3]), np.array([0.5])), path)
        assert path.read_text().splitlines()[0] == "index,weight"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("idx,w\n1,2\n")
        with pytest.raises(DataFormatError):
            load_sample(path)

    def test_index_range_checked(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("index,weight\n2,1.0\n")
        assert load_sample(path, n=3).indices.tolist() == [2]
        with pytest.raises(DataFormatError, match="out of range"):
            load_sample(path, n=2)
        path.write_text("index,weight\n-1,1.0\n")
        with pytest.raises(DataFormatError, match="out of range"):
            load_sample(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("index,weight\n1,2,3\n")
        with pytest.raises(DataFormatError):
            load_sample(path)


class TestReport:
    def test_round_trip_with_schema_version(self, tmp_path):
        path = tmp_path / "r.json"
        save_report({"k": 4, "lambda": [0.5, 1.5]}, path)
        doc = load_report(path)
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert doc["k"] == 4
        assert doc["lambda"] == [0.5, 1.5]
