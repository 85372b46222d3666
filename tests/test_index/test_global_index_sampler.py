"""Tests for GlobalIndex lookups and reservoir sampling."""

import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rectangle
from repro.index import Cell, GlobalIndex, reservoir_sample


def make_index(disjoint=True):
    cells = [
        Cell(cell_id=0, mbr=Rectangle(0, 0, 10, 10), num_records=5),
        Cell(cell_id=1, mbr=Rectangle(10, 0, 20, 10), num_records=7),
        Cell(cell_id=2, mbr=Rectangle(0, 10, 10, 20), num_records=0),
        Cell(cell_id=3, mbr=Rectangle(10, 10, 20, 20), num_records=3),
    ]
    return GlobalIndex(cells=cells, technique="grid", disjoint=disjoint)


class TestGlobalIndex:
    def test_len_iter_cell(self):
        gi = make_index()
        assert len(gi) == 4
        assert [c.cell_id for c in gi] == [0, 1, 2, 3]
        assert gi.cell(1).num_records == 7

    def test_duplicate_ids_rejected(self):
        cells = [
            Cell(cell_id=0, mbr=Rectangle(0, 0, 1, 1)),
            Cell(cell_id=0, mbr=Rectangle(1, 0, 2, 1)),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            GlobalIndex(cells=cells)

    def test_mbr_union(self):
        assert make_index().mbr == Rectangle(0, 0, 20, 20)

    def test_mbr_of_empty_raises(self):
        with pytest.raises(ValueError):
            GlobalIndex(cells=[]).mbr

    def test_total_records(self):
        assert make_index().total_records == 15

    def test_overlapping(self):
        gi = make_index()
        hits = gi.overlapping(Rectangle(5, 5, 15, 15))
        assert {c.cell_id for c in hits} == {0, 1, 2, 3}
        hits = gi.overlapping(Rectangle(1, 1, 2, 2))
        assert {c.cell_id for c in hits} == {0}

    def test_containing(self):
        gi = make_index()
        assert {c.cell_id for c in gi.containing(Point(15, 5))} == {1}
        # A corner shared by all four cells is contained in all of them
        # under the closed semantics used for pruning.
        assert len(gi.containing(Point(10, 10))) == 4

    def test_nearest_cell_skips_empty(self):
        gi = make_index()
        # Point inside the empty cell 2: the nearest *non-empty* cell wins.
        nearest = gi.nearest_cell(Point(5, 15))
        assert nearest.cell_id in (0, 3)

    def test_nearest_cell_none_when_all_empty(self):
        cells = [Cell(cell_id=0, mbr=Rectangle(0, 0, 1, 1), num_records=0)]
        assert GlobalIndex(cells=cells).nearest_cell(Point(0, 0)) is None

    def test_tight_mbr_fallback(self):
        cell = Cell(cell_id=0, mbr=Rectangle(0, 0, 10, 10))
        assert cell.tight_mbr == cell.mbr
        tight = Cell(
            cell_id=1,
            mbr=Rectangle(0, 0, 10, 10),
            content_mbr=Rectangle(2, 2, 8, 8),
        )
        assert tight.tight_mbr == Rectangle(2, 2, 8, 8)


class TestReservoirSample:
    def test_small_input_returned_whole(self):
        assert sorted(reservoir_sample(range(5), 10, seed=0)) == list(range(5))

    def test_size_respected(self):
        assert len(reservoir_sample(range(1000), 50, seed=1)) == 50

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            reservoir_sample([1, 2], 0)

    def test_deterministic_with_seed(self):
        a = reservoir_sample(range(500), 20, seed=7)
        b = reservoir_sample(range(500), 20, seed=7)
        assert a == b

    def test_sample_elements_from_input(self):
        sample = reservoir_sample(range(300), 30, seed=2)
        assert all(0 <= v < 300 for v in sample)
        assert len(set(sample)) == 30  # distinct positions

    def test_roughly_uniform(self):
        # Each element appears with probability ~k/n across many draws.
        counts = [0] * 20
        for seed in range(400):
            for v in reservoir_sample(range(20), 5, seed=seed):
                counts[v] += 1
        expected = 400 * 5 / 20
        assert all(0.5 * expected < c < 1.5 * expected for c in counts)

    @given(
        n=st.integers(0, 300),
        k=st.integers(1, 50),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60)
    def test_size_invariant(self, n, k, seed):
        sample = reservoir_sample(range(n), k, seed=seed)
        assert len(sample) == min(n, k)
        assert len(set(sample)) == len(sample)

    def test_same_positions_from_range_and_records(self):
        # The index build draws row numbers; the scalar oracle draws
        # records. Both must pick the same rows in the same order.
        records = [Point(float(i), -float(i)) for i in range(1000)]
        for seed in range(5):
            rows = reservoir_sample(range(1000), 37, seed=seed)
            assert reservoir_sample(records, 37, seed=seed) == [
                records[i] for i in rows
            ]

    def test_draw_is_order_size_not_order_n(self):
        class Rows(Sequence):
            """A billion rows that refuse to be walked."""

            def __len__(self):
                return 10**9

            def __getitem__(self, i):
                if not 0 <= i < len(self):
                    raise IndexError(i)
                return i

            def __iter__(self):
                raise AssertionError("the draw iterated its input")

        sample = reservoir_sample(Rows(), 25, seed=3)
        assert sample == reservoir_sample(range(10**9), 25, seed=3)
        assert len(set(sample)) == 25
