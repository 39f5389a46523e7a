"""The shared 64-bit mixers, pinned: probe counts, set choice and hash
routing all depend on their exact outputs."""

import pytest

from repro.util.hashing import mix64, splitmix64

MASK = (1 << 64) - 1


@pytest.mark.parametrize("value,expected", [
    (0, 0xE220A8397B1DCDAF),
    (1, 0x910A2DEC89025CC1),
    (2, 0x975835DE1C9756CE),
    (12345, 0x22118258A9D111A0),
    (0xDEADBEEF, 0x4ADFB90F68C9EB9B),
    (MASK, 0xE4D971771B652C20),
])
def test_splitmix64_outputs(value, expected):
    assert splitmix64(value) == expected


@pytest.mark.parametrize("value,expected", [
    (0, 0x0),
    (1, 0xB456BCFC34C2CB2C),
    (2, 0x3ABF2A20650683E7),
    (12345, 0x17D2ABFBF90BAEF9),
    (0xDEADBEEF, 0xD24BD59F862A1DAC),
    (MASK, 0x64B5720B4B825F21),
])
def test_mix64_outputs(value, expected):
    assert mix64(value) == expected
