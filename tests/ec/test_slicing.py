"""Segment arithmetic."""

import pytest

from repro.ec import Segment, slicing


class TestSegment:
    def test_length(self):
        assert Segment(2.0, 5.0).length == 3.0

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            Segment(5.0, 2.0)


class TestPartition:
    def test_proportional(self):
        segs = slicing.partition(100.0, [1, 1, 2])
        assert [round(s.length) for s in segs] == [25, 25, 50]

    def test_tiles_exactly(self):
        segs = slicing.partition(1.0, [3, 7, 11, 0.5])
        assert segs[0].start == 0.0
        assert segs[-1].stop == 1.0
        for a, b in zip(segs, segs[1:]):
            assert a.stop == b.start

    def test_zero_weights(self):
        segs = slicing.partition(10.0, [0, 1, 0])
        assert segs[0].length == 0.0
        assert segs[1].length == 10.0
        assert segs[2].length == 0.0

    def test_all_zero_weights(self):
        segs = slicing.partition(10.0, [0, 0])
        assert all(s.length == 0 for s in segs)

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            slicing.partition(10.0, [1, -1])

    def test_negative_total_raises(self):
        with pytest.raises(ValueError):
            slicing.partition(-1.0, [1])
