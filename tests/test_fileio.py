"""Round-trip and error-reporting tests for the CSV/JSON writers."""

import numpy as np
import pytest

from medsampler.density import EvaluationLedger
from medsampler.errors import FileFormatError
from medsampler.fileio import (
    fmt,
    ledger_digest,
    point_stages,
    read_design,
    read_ledger,
    read_samples,
    write_design,
    write_json,
    write_ledger,
    write_samples,
)


def fill_ledger(rng, n=7, p=3):
    ledger = EvaluationLedger()
    for i in range(n):
        if i == n // 2:
            ledger.begin_stage(2)
        ledger.append(rng.random(p), float(rng.normal()), float(rng.random()))
    return ledger


class TestFloatFormat:
    @pytest.mark.parametrize(
        "value",
        [0.1, 1.0 / 3.0, 1e-17, 2.0**-1074, 1e300, -0.0, 123456789.123456789],
    )
    def test_round_trips_exactly(self, value):
        assert float(fmt(value)) == value

    def test_shortest_form(self):
        assert fmt(0.1) == "0.1"
        assert fmt(0.5) == "0.5"


EDGE_VALUES = [-0.0, 5e-324, 1e308, 0.1, 1.0, float("inf"), float("-inf")]


def fmt_rows(head, rows):
    """The file text the writers produce, built one ``fmt`` call per value."""
    return "\n".join([head] + [",".join(row) for row in rows]) + "\n"


class TestWriterBytes:
    """Whole-row ``repr`` formatting writes the bytes of ``fmt`` value by value."""

    def test_samples_and_design(self, tmp_path):
        points = np.array(EDGE_VALUES[:6]).reshape(3, 2)
        logf = np.array(EDGE_VALUES[4:])
        tags = np.array([0, 7, 123456789])
        want = fmt_rows(
            "x1,x2,logf,{tag}",
            [[fmt(c) for c in points[i]] + [fmt(logf[i]), str(tags[i])] for i in range(3)],
        )
        write_samples(tmp_path / "s.csv", points, logf, tags)
        write_design(tmp_path / "d.csv", points, logf, tags.tolist())
        assert (tmp_path / "s.csv").read_text() == want.format(tag="chain")
        assert (tmp_path / "d.csv").read_text() == want.format(tag="stage")

    def test_ledger(self, tmp_path):
        ledger = EvaluationLedger()
        for i, v in enumerate(EDGE_VALUES):
            ledger.append(np.array([v, EDGE_VALUES[-1 - i]]), v, EDGE_VALUES[(i + 3) % 7])
        want = fmt_rows(
            "seq,stage,x1,x2,logf,duration_ms",
            [
                [str(r.seq), str(r.stage)] + [fmt(c) for c in r.x] + [fmt(r.logf), fmt(r.duration_ms)]
                for r in ledger.records
            ],
        )
        write_ledger(tmp_path / "l.csv", ledger)
        assert (tmp_path / "l.csv").read_text() == want


class TestDesignRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        points = rng.random((9, 4))
        logf = rng.normal(size=9)
        stages = rng.integers(1, 5, size=9)
        path = tmp_path / "design.csv"
        write_design(path, points, logf, stages)
        back = read_design(path)
        np.testing.assert_array_equal(back.points, points)
        np.testing.assert_array_equal(back.logf, logf)
        np.testing.assert_array_equal(back.stages, stages)

    def test_no_temp_file_left_behind(self, tmp_path):
        write_design(tmp_path / "d.csv", np.zeros((2, 2)), np.zeros(2), np.ones(2))
        assert sorted(f.name for f in tmp_path.iterdir()) == ["d.csv"]

    def test_header_names_dimensions(self, tmp_path):
        path = tmp_path / "d.csv"
        write_design(path, np.zeros((1, 3)), np.zeros(1), np.ones(1))
        assert path.read_text().splitlines()[0] == "x1,x2,x3,logf,stage"

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,logf,stage\n0.5,oops,1.0,1\n")
        with pytest.raises(FileFormatError, match=r"line 2 column 'x2'"):
            read_design(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,logf,stage\n0.5,0.5,1.0\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_design(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FileFormatError, match="header"):
            read_design(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty"):
            read_design(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileFormatError, match="cannot read"):
            read_design(tmp_path / "nope.csv")


class TestLedgerRoundTrip:
    def test_records_survive(self, tmp_path):
        ledger = fill_ledger(np.random.default_rng(1))
        path = tmp_path / "ledger.csv"
        write_ledger(path, ledger)
        back = read_ledger(path)
        assert back.count == ledger.count
        for a, b in zip(ledger.records, back.records):
            assert a.seq == b.seq
            assert a.stage == b.stage
            np.testing.assert_array_equal(a.x, b.x)
            assert a.logf == b.logf
            assert a.duration_ms == b.duration_ms

    def test_digest_survives_round_trip(self, tmp_path):
        ledger = fill_ledger(np.random.default_rng(2))
        path = tmp_path / "ledger.csv"
        write_ledger(path, ledger)
        assert ledger_digest(read_ledger(path)) == ledger_digest(ledger)

    def test_digest_is_order_sensitive(self):
        rng = np.random.default_rng(3)
        a = fill_ledger(rng, n=4)
        b = EvaluationLedger()
        for rec in reversed(a.records):
            b.append(rec.x, rec.logf, rec.duration_ms)
        assert ledger_digest(a) != ledger_digest(b)

    def test_digest_ignores_durations(self):
        rng = np.random.default_rng(4)
        a = fill_ledger(rng, n=5)
        b = EvaluationLedger()
        b.stage = 1
        for rec in a.records:
            b.append(rec.x, rec.logf, rec.duration_ms + 17.0)
        assert ledger_digest(a) == ledger_digest(b)

    def test_out_of_order_sequence_rejected(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_text(
            "seq,stage,x1,logf,duration_ms\n0,1,0.5,0.0,0.1\n2,1,0.6,0.0,0.1\n"
        )
        with pytest.raises(FileFormatError, match="sequence"):
            read_ledger(path)

    def test_empty_ledger_refused(self, tmp_path):
        with pytest.raises(FileFormatError, match="empty"):
            write_ledger(tmp_path / "ledger.csv", EvaluationLedger())


class TestSamplesRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        samples = rng.random((11, 2))
        logf = rng.normal(size=11)
        ids = np.repeat([0, 1, 2], [4, 4, 3])
        path = tmp_path / "samples.csv"
        write_samples(path, samples, logf, ids)
        s2, l2, i2 = read_samples(path)
        np.testing.assert_array_equal(s2, samples)
        np.testing.assert_array_equal(l2, logf)
        np.testing.assert_array_equal(i2, ids)


class TestPointStages:
    def test_maps_points_to_their_stage(self):
        ledger = fill_ledger(np.random.default_rng(6), n=6, p=2)
        pts = np.array([ledger.records[4].x, ledger.records[0].x])
        np.testing.assert_array_equal(point_stages(pts, ledger), [2, 1])

    def test_unknown_point_rejected(self):
        ledger = fill_ledger(np.random.default_rng(7), n=3, p=2)
        with pytest.raises(FileFormatError, match="not found"):
            point_stages(np.array([[0.123, 0.456]]), ledger)


class TestJson:
    def test_byte_stable_and_sorted(self, tmp_path):
        obj = {"zeta": 1.5, "alpha": [1, 2], "mid": {"b": 2, "a": 1}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, obj)
        write_json(p2, obj)
        text = p1.read_text()
        assert text == p2.read_text()
        assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')
        assert text.endswith("\n")
