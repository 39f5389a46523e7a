"""FlashChip.copy_pages against a per-page read_page + program_page loop.

Every merge copies its live pages with one ``copy_pages`` call.  These
tests run the same copies both ways on identically-prepared chips and
require the same ops, cost, statistics, page columns and block state,
including when the copy is rejected or a crash fires mid-copy.  A copy
that keeps the source's logical block carries its stored checksum, so
damage the source already holds survives the copy.
"""

from dataclasses import asdict

import pytest

from repro.errors import CrashError, WriteToNonErasedPageError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import TimingModel
from repro.ftl.ssd import SSD
from repro.sim.completion import DeviceOp
from repro.sim.crash import CrashInjector
from repro.ssc.recovery import _page_intact
from repro.util.checksum import crc32_of_payload

PPB = 8
DST_PBN = 17  # plane 1; the sources live on planes 0 and 2


def _prepared_chip(timing=None) -> FlashChip:
    """A chip whose blocks 2 (plane 0) and 33 (plane 2) hold a mix of
    clean, dirty and invalidated pages."""
    chip = FlashChip(
        FlashGeometry(planes=4, blocks_per_plane=16, pages_per_block=PPB), timing
    )
    for pbn, first_lbn in ((2, 100), (33, 200)):
        for offset in range(6):
            chip.program_page(
                pbn * PPB + offset,
                f"data-{first_lbn + offset}",
                first_lbn + offset,
                dirty=offset % 2 == 0,
                seq=chip.next_seq(),
            )
        chip.block(pbn).invalidate(4)
    return chip


def _per_page_copy(chip, dst_pbn, copies):
    """Reference: the same copies, one read_page + program_page each."""
    cost = 0.0
    for src_ppn, offset, lbn in copies:
        src, src_offset = chip.locate(src_ppn)
        data, read_cost = chip.read_page(src_ppn)
        cost += read_cost
        cost += chip.program_page(
            dst_pbn * PPB + offset,
            data,
            lbn,
            dirty=bool(src.dirty >> src_offset & 1),
            seq=chip.next_seq(),
        )
    return cost


def _bulk_copy(chip, dst_pbn, copies):
    return chip.copy_pages(dst_pbn, copies)


def _chip_state(chip):
    """Everything a copy can change, in comparable form."""
    pages = [
        (block.written, block.valid, block.dirty, block.data, block.lbns,
         block.seqs, block.checksums)
        for plane in chip.planes
        for block in plane.blocks.values()
    ]
    blocks = [
        (block.write_pointer, block.valid_count, block.dirty_count,
         block.sequential, block.first_lbn)
        for plane in chip.planes
        for block in plane.blocks.values()
    ]
    return asdict(chip.stats), chip.next_seq(), pages, blocks


def _run(copy, copies, dst_pbn=DST_PBN, prepare=None, injector=None):
    chip = _prepared_chip()
    if prepare is not None:
        prepare(chip)
    if injector is not None:
        chip.crash_injector = injector
    chip.op_recorder.begin()
    error = cost = None
    try:
        cost = copy(chip, dst_pbn, copies)
    except (CrashError, WriteToNonErasedPageError) as exc:
        error = type(exc)
    ops = chip.op_recorder.end()
    return cost, error, ops, _chip_state(chip)


#: (source ppn, destination offset, logical block) runs: a whole-group
#: sequential copy, one with holes (skipped offsets), and one from two
#: source blocks on different planes.
RUNS = {
    "sequential": [(2 * PPB + o, o, 100 + o) for o in (0, 1, 2, 3, 5)],
    "holes": [(2 * PPB + 1, 1, 101), (2 * PPB + 3, 3, 103), (33 * PPB + 5, 7, 107)],
    "two_planes": [(33 * PPB + 0, 0, 300), (2 * PPB + 2, 1, 301),
                   (33 * PPB + 2, 2, 302), (33 * PPB + 4, 3, 303)],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_bulk_copy_matches_per_page_loop(name):
    copies = RUNS[name]
    bulk = _run(_bulk_copy, copies)
    per_page = _run(_per_page_copy, copies)
    assert bulk[1] is None
    assert bulk == per_page
    cost, _error, ops, _state = bulk
    assert [op.kind for op in ops] == ["page_read", "page_write"] * len(copies)
    assert {op.resource for op in ops[1::2]} == {"plane:1"}
    assert type(cost) is float


def test_empty_copy_changes_nothing():
    assert _run(_bulk_copy, []) == _run(_per_page_copy, [])
    assert _prepared_chip().copy_pages(DST_PBN, [], 12.5) == 12.5


def test_cost_accumulates_onto_caller_total():
    copies = RUNS["holes"]
    chip = _prepared_chip()
    expected = start = 1234.25
    for _copy in copies:
        expected += chip.timing.read_cost()
        expected += chip.timing.write_cost()
    assert chip.copy_pages(DST_PBN, copies, start) == expected


def test_float_sums_match_per_page_loop_for_any_timing():
    """Non-integral op costs: cost and busy_us must be summed op by op."""
    timing = TimingModel(page_read_us=65.3, page_write_us=85.1, bus_delay_us=0.7)
    sums = []
    for copy in (_bulk_copy, _per_page_copy):
        chip = _prepared_chip(timing)
        cost = copy(chip, DST_PBN, RUNS["two_planes"])
        sums.append((cost, chip.stats.busy_us))
    assert sums[0] == sums[1]
    for total in sums[0]:
        assert total != round(total, 3)  # the sums carry float error


#: A page read (77 us) and program (97 us) on the test chip's planes.
_READ = {plane: DeviceOp(f"plane:{plane}", "page_read", 77.0) for plane in (0, 2)}
_WRITE = DeviceOp("plane:1", "page_write", 97.0)


def _advance_write_pointer(chip):
    for offset in range(3):
        chip.program_page(DST_PBN * PPB + offset, "old", offset, seq=chip.next_seq())


def test_copy_below_write_pointer_is_rejected_like_per_page():
    copies = [(2 * PPB + 0, 3, 100), (2 * PPB + 1, 1, 101), (2 * PPB + 2, 5, 102)]
    bulk = _run(_bulk_copy, copies, prepare=_advance_write_pointer)
    per_page = _run(_per_page_copy, copies, prepare=_advance_write_pointer)
    assert bulk[1] is WriteToNonErasedPageError
    assert bulk == per_page
    # The first copy landed; the rejected one was read but not programmed.
    assert bulk[2] == (_READ[0], _WRITE, _READ[0])


def _crash_boundaries(copies):
    probe = CrashInjector()
    _run(_bulk_copy, copies, injector=probe)
    return probe.ticks


@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_crash_at_every_program_boundary_matches_per_page(torn):
    copies = RUNS["two_planes"]
    boundaries = _crash_boundaries(copies)
    assert boundaries == 2 * len(copies)  # BEFORE + AFTER per program
    for after in range(boundaries):
        results = []
        for copy in (_bulk_copy, _per_page_copy):
            injector = CrashInjector()
            injector.arm(after_events=after, torn=torn)
            results.append(_run(copy, copies, injector=injector))
        bulk, per_page = results
        assert bulk[1] is CrashError, after
        assert bulk == per_page, after


@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_copy_interrupted_before_a_program_records_its_read(torn):
    """A crash at the third page's BEFORE_DATA_WRITE boundary: two whole
    copies, then the third page's read alone (ops pinned as a per-op
    recording gave them)."""
    injector = CrashInjector()
    injector.arm(after_events=4, torn=torn)
    _cost, error, ops, _state = _run(_bulk_copy, RUNS["two_planes"], injector=injector)
    assert error is CrashError
    assert ops == (_READ[2], _WRITE, _READ[0], _WRITE, _READ[2])


def _full_merge_ssd(shard=None):
    ssd = SSD(geometry=FlashGeometry(planes=4, blocks_per_plane=32, pages_per_block=16))
    if shard is not None:
        ssd.chip.set_resource_shard(shard)
    return ssd


def _write_until_full_merge(ssd, capture):
    """Random-order writes until one causes a full merge; returns the
    ops that write recorded (empty when not capturing)."""
    recorder = ssd.chip.op_recorder
    for i in range(20_000):
        lpn = (i * 7919) % ssd.capacity_pages
        merges = ssd.stats.full_merges
        if capture:
            recorder.begin()
        ssd.write(lpn, f"v{i}")
        ops = recorder.end() if capture else ()
        if ssd.stats.full_merges > merges:
            return ops
    raise AssertionError("workload never triggered a full merge")


def test_full_merge_ops_carry_shard_plane_keys():
    ssd = _full_merge_ssd(shard=3)
    ops = _write_until_full_merge(ssd, capture=True)
    kinds = {op.kind for op in ops}
    assert {"page_read", "page_write", "erase"} <= kinds
    assert {op.resource for op in ops} <= {f"s3:plane:{n}" for n in range(4)}


def test_merge_without_capture_leaves_nothing_recorded():
    ssd = _full_merge_ssd()
    _write_until_full_merge(ssd, capture=False)
    assert ssd.stats.gc_page_writes > 0
    recorder = ssd.chip.op_recorder
    recorder.begin()
    assert recorder.end() == ()


def _rot(chip, ppn):
    """Damage a page's payload as faults.flip_page_data does."""
    block, offset = chip.locate(ppn)
    block.data[offset] = ("<bitrot>", block.data[offset])


@pytest.mark.parametrize("injector", [False, True], ids=["plain", "injector"])
def test_copyback_keeps_bit_rot_detectable(injector):
    chip = _prepared_chip()
    if injector:
        chip.crash_injector = CrashInjector()
    src_ppn = 2 * PPB + 3
    _rot(chip, src_ppn)
    assert not _page_intact(*chip.locate(src_ppn))
    chip.copy_pages(DST_PBN, [(2 * PPB + 1, 0, 101), (src_ppn, 1, 103)])
    dst = chip.block(DST_PBN)
    assert dst.data[1] == ("<bitrot>", "data-103")
    assert not _page_intact(dst, 1)
    assert _page_intact(dst, 0)


def test_relabelling_copy_restamps_its_checksum():
    chip = _prepared_chip()
    src, src_offset = chip.locate(33 * PPB + 2)
    chip.copy_pages(DST_PBN, [(33 * PPB + 2, 0, 302)])
    dst = chip.block(DST_PBN)
    assert dst.lbns[0] == 302 != src.lbns[src_offset]
    assert dst.checksums[0] == crc32_of_payload(302, "data-202")
    assert dst.checksums[0] != src.checksums[src_offset]
    assert _page_intact(dst, 0)
