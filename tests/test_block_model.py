"""Model-based tests: EraseBlock's page columns vs a per-page dict model.

An erase block keeps its pages as columns (payload, logical block, write
sequence, checksum) plus written/valid/dirty bitmaps, with running
counts and sequential-run tracking beside them.  These tests drive
random program / invalidate / mark_clean / mark_dirty / erase sequences
against an obviously-correct model that stores one dict per programmed
page, and compare every page and every derived field after each step,
including the NAND-order rejections.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import WriteToNonErasedPageError
from repro.flash.block import EraseBlock

FREE, VALID, INVALID = "free", "valid", "invalid"


class BlockModel:
    """One dict per programmed page; everything else derived from them."""

    def __init__(self, pages_per_block: int):
        self.num_pages = pages_per_block
        self.pages = {}
        self.write_pointer = 0
        self.erase_count = 0

    def erase(self):
        self.pages = {}
        self.write_pointer = 0
        self.erase_count += 1

    def program(self, offset, data, lbn, dirty, seq, checksum):
        if offset < self.write_pointer or offset in self.pages:
            raise WriteToNonErasedPageError(offset)
        self.pages[offset] = dict(
            state=VALID, data=data, lbn=lbn, dirty=dirty, seq=seq, checksum=checksum
        )
        self.write_pointer = offset + 1

    def invalidate(self, offset):
        page = self.pages.get(offset)
        if page is not None and page["state"] == VALID:
            page["state"] = INVALID

    def set_dirty(self, offset, dirty):
        page = self.pages.get(offset)
        if page is not None:
            page["dirty"] = dirty

    def state(self, offset):
        page = self.pages.get(offset)
        return FREE if page is None else page["state"]

    def valid_offsets(self):
        return sorted(o for o, page in self.pages.items() if page["state"] == VALID)

    def sequential(self):
        if any(offset not in self.pages for offset in range(self.write_pointer)):
            return False
        lbns = [self.pages[offset]["lbn"] for offset in range(self.write_pointer)]
        if any(lbn is None for lbn in lbns):
            return False
        return all(lbn == lbns[0] + offset for offset, lbn in enumerate(lbns))

    def first_lbn(self):
        return self.pages[0]["lbn"] if 0 in self.pages else None


def assert_matches(block: EraseBlock, model: BlockModel) -> None:
    for offset in range(model.num_pages):
        bit = 1 << offset
        state = model.state(offset)
        written, valid = bool(block.written & bit), bool(block.valid & bit)
        assert (written, valid) == {
            FREE: (False, False), VALID: (True, True), INVALID: (True, False)
        }[state], offset
        page = model.pages.get(offset)
        if page is None:
            assert not block.dirty & bit
            assert block.data[offset] is None
            assert block.lbns[offset] is None
            assert block.seqs[offset] == 0
            assert block.checksums[offset] is None
        else:
            assert bool(block.dirty & bit) == page["dirty"], offset
            assert block.data[offset] == page["data"]
            assert block.lbns[offset] == page["lbn"]
            assert block.seqs[offset] == page["seq"]
            assert block.checksums[offset] == page["checksum"]
    live = model.valid_offsets()
    assert block.valid_offsets() == live
    assert block.valid_count == len(live)
    assert block.dirty_count == sum(model.pages[o]["dirty"] for o in live)
    assert block.write_pointer == model.write_pointer
    assert block.is_full == (model.write_pointer >= model.num_pages)
    assert block.free_pages == model.num_pages - model.write_pointer
    assert block.erase_count == model.erase_count
    assert block.sequential == model.sequential()
    assert block.first_lbn == model.first_lbn()


def _ops(pages_per_block):
    offsets = st.integers(0, pages_per_block - 1)
    # "run" programs the lbn a sequential run from 100 would hold, so
    # whole-block sequential runs are common, not a lucky draw.
    lbns = st.one_of(st.none(), st.just("run"), st.integers(0, 7))
    return st.lists(
        st.one_of(
            st.tuples(st.just("program"), offsets, lbns, st.booleans(),
                      st.sampled_from([None, 0, 12345])),
            st.tuples(st.just("next"), lbns, st.booleans()),
            st.tuples(st.just("invalidate"), offsets),
            st.tuples(st.just("clean"), offsets),
            st.tuples(st.just("dirty"), offsets),
            st.tuples(st.just("erase")),
        ),
        max_size=120,
    )


@st.composite
def _scenarios(draw):
    pages_per_block = draw(st.sampled_from([1, 4, 8, 64, 65, 130]))
    return pages_per_block, draw(_ops(pages_per_block))


@given(scenario=_scenarios())
@settings(max_examples=300, deadline=None)
def test_random_sequences_match_model(scenario):
    pages_per_block, ops = scenario
    block = EraseBlock(pbn=3, pages_per_block=pages_per_block)
    model = BlockModel(pages_per_block)
    for step, op in enumerate(ops):
        kind = op[0]
        if kind in ("program", "next"):
            if kind == "next":
                # Program the next page in order, when one is left.
                if model.write_pointer >= pages_per_block:
                    continue
                _, lbn, dirty = op
                offset, checksum = model.write_pointer, step
            else:
                _, offset, lbn, dirty, checksum = op
            if lbn == "run":
                lbn = 100 + offset
            data = ("d", step)
            try:
                model.program(offset, data, lbn, dirty, step, checksum)
            except WriteToNonErasedPageError:
                with pytest.raises(WriteToNonErasedPageError):
                    block.program(offset, data, lbn, dirty, step, checksum)
            else:
                block.program(offset, data, lbn, dirty, step, checksum)
        elif kind == "invalidate":
            block.invalidate(op[1])
            model.invalidate(op[1])
        elif kind == "clean":
            block.mark_clean(op[1])
            model.set_dirty(op[1], False)
        elif kind == "dirty":
            block.mark_dirty(op[1])
            model.set_dirty(op[1], True)
        else:
            block.erase()
            model.erase()
        assert_matches(block, model)


def test_rejections_leave_the_block_untouched():
    block = EraseBlock(pbn=0, pages_per_block=8)
    block.program(0, "a", 100, dirty=True, seq=1, checksum=7)
    block.program(3, "b", 103, seq=2)
    before = (block.written, block.valid, block.dirty, list(block.data),
              list(block.lbns), list(block.seqs), list(block.checksums),
              block.write_pointer, block.valid_count, block.dirty_count,
              block.sequential, block.first_lbn)
    for offset in (0, 1, 2, 3):
        with pytest.raises(WriteToNonErasedPageError):
            block.program(offset, "c", 200, dirty=True, seq=3)
    after = (block.written, block.valid, block.dirty, list(block.data),
             list(block.lbns), list(block.seqs), list(block.checksums),
             block.write_pointer, block.valid_count, block.dirty_count,
             block.sequential, block.first_lbn)
    assert after == before
