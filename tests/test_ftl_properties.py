"""Property-based tests of the hybrid FTL's block-device contract.

Whatever garbage collection does internally, the FTL must behave
observationally like a dict: a read returns exactly the last value
written (or None after trim / before any write), and the free-block
pool never underflows.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import HybridFTL, HybridFTLConfig


def make_ftl():
    chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8))
    return HybridFTL(chip, HybridFTLConfig())


class FTLMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ftl = make_ftl()
        self.shadow = {}
        self.counter = 0

    def _lpn(self, seed):
        return seed % self.ftl.logical_pages

    @rule(seed=st.integers(min_value=0))
    def write(self, seed):
        lpn = self._lpn(seed)
        self.counter += 1
        value = ("v", lpn, self.counter)
        self.ftl.write(lpn, value)
        self.shadow[lpn] = value

    @rule(seed=st.integers(min_value=0))
    def trim(self, seed):
        lpn = self._lpn(seed)
        self.ftl.trim(lpn)
        self.shadow.pop(lpn, None)

    @rule(seed=st.integers(min_value=0))
    def read(self, seed):
        lpn = self._lpn(seed)
        data, _cost = self.ftl.read(lpn)
        assert data == self.shadow.get(lpn)

    @invariant()
    def free_pool_never_empty(self):
        assert self.ftl.chip.free_total >= 1

    @invariant()
    def mapping_agrees_with_shadow(self):
        for lpn in list(self.shadow)[:5]:
            assert self.ftl.is_mapped(lpn)


FTLMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=80, deadline=None
)
TestFTLContract = FTLMachine.TestCase


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=300))
def test_property_sequential_consistency(operations):
    """Linear scan of mixed writes/trims ends in a dict-consistent state."""
    ftl = make_ftl()
    shadow = {}
    for index, (is_trim, seed) in enumerate(operations):
        lpn = seed % ftl.logical_pages
        if is_trim:
            ftl.trim(lpn)
            shadow.pop(lpn, None)
        else:
            ftl.write(lpn, index)
            shadow[lpn] = index
    for lpn in {seed % ftl.logical_pages for _t, seed in operations}:
        data, _ = ftl.read(lpn)
        assert data == shadow.get(lpn)
