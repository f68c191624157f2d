import math
import string
import struct
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from senselect.core import Dataset
from senselect.io import (MAGIC, REPORT_SCHEMA_VERSION, DataFormatError,
                          _load_csv_matrix, load_losses, load_matrix,
                          load_report, load_sample, read_vector, save_matrix,
                          save_report, save_sample)
from senselect.selection import WeightedSample


def is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def reference_matrix(path):
    """The CSV matrix loader before numpy's reader: ``float`` per field."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    start = 0 if any(is_number(tok) for tok in lines[0].split(",")) else 1
    rows = []
    width = None
    for ln in lines[start:]:
        try:
            row = [float(tok) for tok in ln.split(",")]
        except ValueError as exc:
            raise DataFormatError(f"{path}: unparsable row {ln!r}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataFormatError(f"{path}: ragged rows")
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.asarray(rows)


def reference_vector(path):
    """`read_vector` before numpy's reader: ``float`` per value."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    try:
        return np.asarray([float(v) for v in lines])
    except ValueError as exc:
        raise DataFormatError(f"{path}: unparsable value") from exc


def outcome(fn, *args, **kwargs):
    """The array's dtype, shape and bytes, or the DataFormatError message."""
    try:
        a = fn(*args, **kwargs)
    except DataFormatError as exc:
        return str(exc)
    return a.dtype, a.shape, a.tobytes()


# numbers as files hold them: repr (-0.0, subnormals, 17 digits, inf, nan),
# fixed exponent widths and the spellings float() and numpy both accept
NUMBER = st.one_of(
    st.floats().map(repr),
    st.builds(lambda x, d: f"{x:.{d}e}", st.floats(allow_nan=False),
              st.integers(0, 24)),
    st.integers(-10 ** 20, 10 ** 20).map(str),
    st.sampled_from(["inf", "-Infinity", "NaN", "+1", ".5", "5.", "1e400",
                     "4.9e-324", "-0", "1E5", "+.5e-3"]),
)
# no underscores, which float() reads as digit groups and numpy rejects
GARBAGE = st.text(string.ascii_letters + string.digits + ".+-#;:\"'/ \t",
                  max_size=5)
PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def csv_text(draw):
    """CSV text: optional header, numeric rows with padded fields, maybe a
    garbage field and a ragged row, blank and whitespace-only lines, LF or
    CRLF endings."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(NUMBER, min_size=width, max_size=width),
                         max_size=6))
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(GARBAGE)
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append(draw(NUMBER))
        else:
            row.pop()
    lines = [",".join(draw(PAD) + tok + draw(PAD) for tok in row)
             for row in rows]
    if draw(st.booleans()):
        lines.insert(0, ",".join(draw(st.lists(
            st.sampled_from(["x", "y", " id ", "loss", "1", "nan"]),
            min_size=width, max_size=width))))
    out = []
    for ln in lines:
        out.append(ln)
        out.extend(draw(st.lists(st.sampled_from(["", "   ", "\t"]),
                                 max_size=1)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(out) + draw(st.sampled_from(["", end]))


@contextmanager
def written(text: str):
    """A temporary file holding ``text`` byte for byte (CRLF kept)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(text.encode())
        yield path


@pytest.mark.filterwarnings("error")
class TestCsvParserMatchesTheReference:
    """numpy's reader gives every value bit for bit and every error with
    the message of the float()-per-field loader it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(csv_text())
    def test_matrix(self, text):
        with written(text) as path:
            assert outcome(_load_csv_matrix, path) == outcome(
                reference_matrix, path)

    @settings(max_examples=100, deadline=None)
    @given(csv_text())
    def test_vector_one_value_per_line(self, text):
        with written(text) as path:
            assert outcome(read_vector, path) == outcome(reference_vector,
                                                         path)

    @pytest.mark.parametrize("text", [
        "1,2\n3,4,5\nx,y\n", "1,2\n3,x\n4,5,6\n", "a,b\n", "a,b\n\n  \n",
        "1,\n", ",1\n", "1, ,2\n", "-0.0\r\n 5e-324 \r\n", "1 2\n",
        "\"1\",2\n", "#1,2\n", "0x10\n", "nan(1)\n", "1e\n"])
    def test_tricky_inputs(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        assert outcome(_load_csv_matrix, path) == outcome(reference_matrix,
                                                          path)
        assert outcome(read_vector, path) == outcome(reference_vector, path)

    @pytest.mark.parametrize("token", ["1_000", "\uff11", "\u0661.5"])
    def test_digit_groups_and_non_ascii_digits_are_rejected(self, tmp_path,
                                                            token):
        # float() reads both; numpy's reader does not
        path = tmp_path / "in.csv"
        path.write_text(f"1,2\n3,{token}\n", encoding="utf-8")
        assert not isinstance(outcome(reference_matrix, path), str)
        with pytest.raises(DataFormatError,
                           match=f"unparsable row '3,{token}'"):
            load_matrix(path)
        path.write_text(f"1\n{token}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="unparsable value"):
            read_vector(path)

    def test_separator_controls_pad_a_field(self, tmp_path):
        # U+001C..U+001F are whitespace to str.isspace and to numpy, not to
        # float(): a field padded with one now parses
        path = tmp_path / "in.csv"
        path.write_text("1\x1c,2\n3,\x1f4\n")
        assert isinstance(outcome(reference_matrix, path), str)
        np.testing.assert_array_equal(load_matrix(path).rows,
                                      [[1, 2], [3, 4]])


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


class TestCsvLoadCost:
    def test_peak_memory_below_six_times_the_array(self, tmp_path):
        # float() per field held ~10x the array in Python objects
        rng = np.random.default_rng(34)
        path = tmp_path / "m.csv"
        save_matrix(Dataset(rng.normal(size=(20000, 9))), path)
        tracemalloc.start()
        try:
            rows = load_matrix(path).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * rows.nbytes

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, load, message", [
        ("x,y\n", load_matrix, "no data rows"),
        ("", load_matrix, "empty file"),
        ("\n  \n", load_losses, "empty file"),
    ])
    def test_no_data_raises_without_a_warning(self, tmp_path, text, load,
                                              message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            load(path)


class TestFirstBadRow:
    """The first bad line of a CSV that fails to load is found with about
    2 sqrt(n) reader calls, blocks first and then the failing block line by
    line, and named as the line-by-line check names it."""

    N = 2000

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        calls = []
        real = np.loadtxt

        def counting(lines, *args, **kwargs):
            calls.append(len(lines))
            return real(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        return calls

    @pytest.mark.parametrize("where", [0, 1, N // 2, N - 1])
    @pytest.mark.parametrize("bad, message", [
        ("1.5,abc,3", "unparsable row '1.5,abc,3'"),
        ("1.5,2", "ragged rows"),
        ("1,2,3,4", "ragged rows"),
    ])
    def test_message_and_reader_calls(self, tmp_path, loadtxt_calls, where,
                                      bad, message):
        lines = [f"{i},{i + 0.5},-{i}" for i in range(self.N)]
        lines[where] = bad
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: {message}"
        # the whole file once, then at most sqrt(N) blocks and one block's
        # lines
        assert len(loadtxt_calls) <= 1 + 2 * math.isqrt(self.N) + 1
        assert max(loadtxt_calls[1:]) <= math.isqrt(self.N)

    def test_first_of_two_bad_lines_is_named(self, tmp_path, loadtxt_calls):
        lines = [f"{i},{i}" for i in range(self.N)]
        lines[700], lines[701], lines[1500] = "7,x", "1,2,3", "y,1"
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="unparsable row '7,x'"):
            load_matrix(path)


class TestLosses:
    def test_plain_lines(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0.5\n1.5\n2.5\n")
        losses = load_losses(path, n=3)
        np.testing.assert_array_equal(losses.values, [0.5, 1.5, 2.5])

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

    def test_non_finite_values_are_written_as_null(self, tmp_path):
        path = tmp_path / "r.json"
        save_report({"denom": math.inf, "x": np.float64(-np.inf),
                     "rounds": [{"phi": math.nan, "s": 3}, (1.5, math.inf)]},
                    path)
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert load_report(path) == {
            "schema_version": REPORT_SCHEMA_VERSION, "denom": None,
            "x": None, "rounds": [{"phi": None, "s": 3}, [1.5, None]]}
