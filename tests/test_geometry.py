"""Unit tests for flash geometry and address arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, InvalidAddressError
from repro.flash.geometry import FlashGeometry


class TestDerivedSizes:
    def test_paper_defaults(self):
        geometry = FlashGeometry()
        assert geometry.planes == 10
        assert geometry.blocks_per_plane == 256
        assert geometry.pages_per_block == 64
        assert geometry.page_size == 4096
        assert geometry.total_blocks == 2560
        assert geometry.total_pages == 2560 * 64
        assert geometry.block_size == 256 * 1024
        assert geometry.capacity_bytes == 2560 * 64 * 4096

    @pytest.mark.parametrize(
        "field", ["planes", "blocks_per_plane", "pages_per_block", "page_size"]
    )
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ConfigError):
            FlashGeometry(**{field: 0})

    def test_negative_oob_rejected(self):
        with pytest.raises(ConfigError):
            FlashGeometry(oob_bytes=-1)


class TestAddressing:
    def setup_method(self):
        self.geometry = FlashGeometry(planes=2, blocks_per_plane=4, pages_per_block=8)

    def test_ppn_round_trip(self):
        for ppn in range(self.geometry.total_pages):
            pbn, offset = divmod(ppn, self.geometry.pages_per_block)
            assert self.geometry.make_ppn(pbn, offset) == ppn

    def test_pbn_round_trip(self):
        for plane in range(2):
            for pbn in self.geometry.blocks_in_plane(plane):
                self.geometry.check_pbn(pbn)
                assert pbn // self.geometry.blocks_per_plane == plane

    def test_blocks_in_plane(self):
        assert list(self.geometry.blocks_in_plane(0)) == [0, 1, 2, 3]
        assert list(self.geometry.blocks_in_plane(1)) == [4, 5, 6, 7]

    @pytest.mark.parametrize("ppn", [-1, 64])
    def test_bad_ppn(self, ppn):
        with pytest.raises(InvalidAddressError):
            self.geometry.check_ppn(ppn)

    @pytest.mark.parametrize("pbn", [-1, 8])
    def test_bad_pbn(self, pbn):
        with pytest.raises(InvalidAddressError):
            self.geometry.check_pbn(pbn)

    def test_bad_offset(self):
        with pytest.raises(InvalidAddressError):
            self.geometry.make_ppn(0, 8)

    def test_bad_plane(self):
        with pytest.raises(InvalidAddressError):
            self.geometry.blocks_in_plane(2)


class TestForCapacity:
    def test_meets_requested_capacity(self):
        geometry = FlashGeometry.for_capacity(100 << 20)  # 100 MiB
        assert geometry.capacity_bytes >= 100 << 20

    def test_scales_plane_size_not_count(self):
        small = FlashGeometry.for_capacity(10 << 20)
        large = FlashGeometry.for_capacity(1 << 30)
        assert small.planes == large.planes == 10
        assert large.blocks_per_plane > small.blocks_per_plane

    def test_tiny_capacity(self):
        geometry = FlashGeometry.for_capacity(1)
        assert geometry.capacity_bytes >= 1
        assert geometry.blocks_per_plane >= 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            FlashGeometry.for_capacity(0)


@given(
    planes=st.integers(min_value=1, max_value=8),
    blocks=st.integers(min_value=1, max_value=32),
    pages=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_property_address_round_trip(planes, blocks, pages, seed):
    geometry = FlashGeometry(planes=planes, blocks_per_plane=blocks, pages_per_block=pages)
    ppn = seed % geometry.total_pages
    pbn, offset = divmod(ppn, geometry.pages_per_block)
    assert geometry.make_ppn(pbn, offset) == ppn
    assert pbn in geometry.blocks_in_plane(pbn // geometry.blocks_per_plane)
