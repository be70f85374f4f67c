import json

import numpy as np
import pytest

from gbv import (IntervalCollection, ResolutionError, StepFunction,
                 ValidationError, generate_block, ingest)


class TestStepFunction:
    def test_m_and_increment(self):
        f = StepFunction([0.0, 1.0, 0.5])
        assert f.m == 2
        assert IntervalCollection.from_pairs(f, [(0, 1), (1, 2)]).increments == (1.0, 0.5)

    def test_bad_indices(self):
        f = StepFunction([0.0, 1.0])
        for pair in [(1, 1), (0, 2), (-1, 1), (1, 0)]:
            with pytest.raises(ValidationError, match=rf"^bad interval \({pair[0]}, "
                               rf"{pair[1]}\) for m=1$"):
                IntervalCollection.from_pairs(f, [pair])

    def test_immutable(self):
        f = StepFunction([0.0, 1.0])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_rejects_nan_and_short(self):
        with pytest.raises(ValidationError):
            StepFunction([0.0, float("nan")])
        with pytest.raises(ValidationError):
            StepFunction([1.0])

    @pytest.mark.parametrize("samples, read", [
        (["1", "2"], "'1'"), ([True, False], "True"), (["a", "b"], "'a'"), ([0.0, "1"], "'1'"),
        ([0.0, True], "True"), ((1, 2.5, False), "False")],
        ids=["digits", "bools", "letters", "mixed", "mixed-bool", "tuple-bool"])
    def test_rejects_samples_that_are_no_numbers(self, samples, read):
        # checked before the float conversion, which would read '1' as 1.0
        with pytest.raises(ValidationError, match=f"^a sample must be a number, not {read}$"):
            StepFunction(samples)

    def test_round_trip_json(self, tmp_path):
        f = StepFunction([0.0, 0.25, 1.0, 0.0])
        path = tmp_path / "f.json"
        f.write(path)
        g = ingest(path, "json")
        assert np.array_equal(f.values, g.values)

    def test_round_trip_csv(self, tmp_path):
        # the samples written one repr a line, as a user's CSV holds them
        f = StepFunction([0.0, 1 / 3, 1.0])
        path = tmp_path / "f.csv"
        path.write_text("".join(f"{v!r}\n" for v in f.values.tolist()))
        g = ingest(path, "csv")
        assert np.array_equal(f.values, g.values)


class TestIngest:
    def test_bad_csv_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0\nnope\n")
        with pytest.raises(ValidationError):
            ingest(path, "csv")

    def test_json_m_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"m": 5, "values": [0.0, 1.0]}))
        with pytest.raises(ValidationError):
            ingest(path, "json")

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0.0\nnan\n")
        with pytest.raises(ValidationError, match="samples must be finite"):
            ingest(path, "csv")

    def test_too_few_samples(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.5\n")
        with pytest.raises(ValidationError):
            ingest(path, "csv")


class TestGenerateBlock:
    def test_level1_delta4_m8(self):
        # plateau 1 covers [1/2, 3/4): grid points 4 and 5 carry the height,
        # the closing point 6 is back at zero
        f = generate_block(1, 0.5, 1, 4, 8)
        assert list(f.values) == [0, 0, 0, 0, 0.5, 0.5, 0, 0, 0]

    def test_two_plateaus(self):
        f = generate_block(2, 1.0, 2, 8, 16)
        # base = 4, step = 2; plateaus at [4,6) and [8,10)
        expected = np.zeros(17)
        expected[4:6] = 1.0
        expected[8:10] = 1.0
        assert np.array_equal(f.values, expected)

    def test_support_inside_dyadic_band(self):
        for n in (1, 2, 3):
            f = generate_block(n, 1.0, 2, 1 << (n + 2), 1 << (n + 2))
            m = f.m
            nz = np.nonzero(f.values)[0]
            assert nz.min() >= m >> n
            assert nz.max() < m >> (n - 1)

    def test_misaligned_grid(self):
        with pytest.raises(ResolutionError):
            generate_block(1, 1.0, 1, 4, 6)
        with pytest.raises(ResolutionError):
            generate_block(2, 1.0, 1, 3, 8)

    def test_overflow_detected(self):
        with pytest.raises(ResolutionError):
            generate_block(1, 1.0, 5, 4, 8)

    def test_empty_train(self):
        f = generate_block(1, 1.0, 0, 4, 8)
        assert not np.any(f.values)

    def test_designated_increments(self):
        # every edge of the train is a full-height jump
        f = generate_block(1, 0.7, 2, 8, 16)
        base, step = 8, 2
        idx = base + step * np.arange(4)
        incs = np.abs(np.diff(f.values[idx]))
        assert np.allclose(incs, 0.7)


class TestIntervalCollection:
    def test_from_pairs(self):
        f = StepFunction([0.0, 1.0, 0.0, 2.0])
        c = IntervalCollection.from_pairs(f, [(0, 1), (1, 3)])
        assert c.increments == (1.0, 1.0)
        assert len(c) == 2 and c.pairs == ((0, 1), (1, 3))

    def test_overlap_rejected(self):
        f = StepFunction([0.0, 1.0, 0.0, 2.0])
        with pytest.raises(ValidationError):
            IntervalCollection.from_pairs(f, [(0, 2), (1, 3)])

    def test_empty(self):
        f = StepFunction([0.0, 1.0])
        c = IntervalCollection.from_pairs(f, [])
        assert len(c) == 0 and c.increments == ()
