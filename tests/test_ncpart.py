import pytest
from conftest import all_set_partitions, catalan, motzkin

from freemeixner import (
    EnumerationCapError,
    Partition,
    enumerate_nc,
    enumerate_nc_le2,
    is_crossing,
    singleton_count,
)


def P(n, *blocks):
    return Partition.from_blocks(n, blocks)


class TestPartition:
    def test_canonicalization(self):
        p = Partition.from_blocks(4, [(4, 2), (3, 1)])
        assert p.blocks == ((1, 3), (2, 4))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partition(3, ((1, 2), (2, 3)))

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Partition(3, ((1, 2),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Partition(2, ((1, 2, 3),))

    def test_empty_ground_set(self):
        assert Partition(0, ()).blocks == ()

    def test_hashable(self):
        assert P(3, (1, 2), (3,)) == P(3, (3,), (2, 1))
        assert len({P(2, (1,), (2,)), P(2, (1, 2))}) == 2


class TestIsCrossing:
    def test_singletons_never_cross(self):
        assert not is_crossing(P(3, (1,), (2,), (3,)))

    def test_canonical_crossing(self):
        assert is_crossing(P(4, (1, 3), (2, 4)))

    def test_nested_blocks(self):
        assert not is_crossing(P(4, (1, 4), (2, 3)))

    def test_longer_interleave(self):
        assert is_crossing(P(6, (1, 4, 5), (2, 3, 6)))


class TestEnumeration:
    def test_n0(self):
        assert enumerate_nc(0) == [Partition(0, ())]
        assert enumerate_nc_le2(0) == [Partition(0, ())]

    def test_n3_count(self):
        assert len(enumerate_nc(3)) == 5

    def test_n4_count(self):
        assert len(enumerate_nc(4)) == 14

    def test_le2_counts(self):
        assert len(enumerate_nc_le2(1)) == 1
        assert len(enumerate_nc_le2(3)) == 4
        assert len(enumerate_nc_le2(4)) == 9

    @pytest.mark.parametrize("n", range(13))
    def test_catalan_count(self, n):
        assert len(enumerate_nc(n)) == catalan(n)

    @pytest.mark.parametrize("n", range(13))
    def test_motzkin_count(self, n):
        assert len(enumerate_nc_le2(n)) == motzkin(n)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_brute_force(self, n):
        brute = {
            Partition(n, blocks)
            for blocks in all_set_partitions(n)
            if not is_crossing(Partition(n, blocks))
        }
        assert set(enumerate_nc(n)) == brute

    @pytest.mark.parametrize("n", range(7))
    def test_le2_is_filtered_nc(self, n):
        filtered = {
            p for p in enumerate_nc(n) if all(len(b) <= 2 for b in p.blocks)
        }
        assert set(enumerate_nc_le2(n)) == filtered

    def test_no_duplicates(self):
        parts = enumerate_nc(8)
        assert len(parts) == len(set(parts))

    def test_all_valid(self):
        # the enumerators skip validation; the public constructor re-checks
        # every invariant of what they built
        for n in range(10):
            for p in enumerate_nc(n) + enumerate_nc_le2(n):
                assert Partition(p.n, p.blocks) == p

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_nc(15)
        with pytest.raises(EnumerationCapError):
            enumerate_nc_le2(15)
        with pytest.raises(EnumerationCapError):
            enumerate_nc(6, cap=5)

    def test_negative(self):
        with pytest.raises(ValueError):
            enumerate_nc(-1)


class TestSingletonCount:
    def test_all_singletons(self):
        assert singleton_count(P(3, (1,), (2,), (3,))) == 3

    def test_mixed(self):
        assert singleton_count(P(3, (1, 2), (3,))) == 1
        assert singleton_count(P(3, (1, 3), (2,))) == 1

    def test_none(self):
        assert singleton_count(P(4, (1, 2), (3, 4))) == 0
