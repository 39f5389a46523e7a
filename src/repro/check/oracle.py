"""The SSC oracle: a pure model of what a crash may legally leave behind.

The oracle tracks, per logical block, the *committed* state implied by
the sequence of completed operations, plus the single operation that was
in flight when a crash struck.  From those it derives the set of states
the device may legally present after recovery:

===============  =====================================================
committed state  legal post-crash states
===============  =====================================================
never written    absent
write-dirty v    present, value v, dirty   (must survive — §3.5 G1)
write-clean v    present, value v, clean; or absent (silent eviction)
dirty v, then    present, value v, dirty or clean; or absent
``clean``        (clean is asynchronous — the flag may revert, §4.2.1)
evicted          absent (evict is synchronous — never resurrects)
===============  =====================================================

An operation in flight at the crash may or may not have taken effect, so
its target block's legal set is the *union* of the before and after
sets.  Internal device activity (garbage collection, checkpointing,
group commit) never changes the logical contents, so no other block's
set is affected.

The legal-state sets are deliberately independent of the device
implementation: they derive from the operation stream alone, never from
flash pages, logs or checkpoints.  Anything the recovered device
presents outside these sets is a bug in the device's durability
discipline, not in the model.  One further check looks inside: the
recovered engine's block map, block kinds and free lists must agree,
because a mapping into a free block is served until the block is
reused, and then routes reads to another block's data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import NotPresentError
from repro.flash.block import TORN_PAGE, BlockKind

#: Sentinel member of a legal-state set meaning "block is absent".
#: Present states are ``(value, dirty)`` tuples.
ABSENT = None


@dataclass(frozen=True)
class Violation:
    """One observed breach of the SSC durability contract."""

    rule: str          # short machine-readable rule name
    lbn: Optional[int]
    detail: str
    trial: str = ""    # which exploration trial observed it

    def __str__(self) -> str:
        where = f" [{self.trial}]" if self.trial else ""
        return f"{self.rule}(lbn={self.lbn}): {self.detail}{where}"


# Committed per-block kinds.
_DIRTY = "dirty"      # write-dirty completed; must survive as-is
_CLEAN = "clean"      # write-clean completed; droppable, never corrupt
_CLEANED = "cleaned"  # was dirty, clean() completed; flag may revert


class SSCOracle:
    """Tracks committed logical state and derives legal crash outcomes."""

    def __init__(self):
        #: lbn -> (kind, value) for blocks the model believes present.
        self.committed: Dict[int, Tuple[str, Any]] = {}
        #: lbn -> every value ever written to it (relaxed-check universe).
        self.history: Dict[int, Set[Any]] = {}
        #: The operation begun but not yet committed (None if quiescent).
        self.in_flight = None

    # ------------------------------------------------------------------
    # Operation lifecycle
    # ------------------------------------------------------------------

    def begin(self, op) -> None:
        """Record that ``op`` is about to be issued to the device."""
        self.in_flight = op
        if op.lbn is not None and op.kind in ("write_dirty", "write_clean"):
            self.history.setdefault(op.lbn, set()).add(op.data)
        elif op.lbn is not None and op.kind in ("read", "evict", "clean"):
            self.history.setdefault(op.lbn, set())

    def commit(self) -> None:
        """The in-flight operation completed; fold it into committed state."""
        op = self.in_flight
        self.in_flight = None
        if op is None:
            return
        if op.kind == "write_dirty":
            self.committed[op.lbn] = (_DIRTY, op.data)
        elif op.kind == "write_clean":
            self.committed[op.lbn] = (_CLEAN, op.data)
        elif op.kind == "evict":
            self.committed.pop(op.lbn, None)
        elif op.kind == "clean":
            current = self.committed.get(op.lbn)
            if current is not None and current[0] == _DIRTY:
                self.committed[op.lbn] = (_CLEANED, current[1])
        # read / exists / gc / checkpoint change no logical state

    def observe_absent(self, lbn: int) -> None:
        """A live read found ``lbn`` absent (silently evicted).

        Eviction is durable — the mapping-removal records are flushed
        before the erase — so the block can never reappear; committed
        state collapses to absent.
        """
        current = self.committed.get(lbn)
        if current is not None and current[0] in (_CLEAN, _CLEANED):
            del self.committed[lbn]

    # ------------------------------------------------------------------
    # Legal-state computation
    # ------------------------------------------------------------------

    def _legal_committed(self, lbn: int) -> Set:
        entry = self.committed.get(lbn)
        if entry is None:
            return {ABSENT}
        kind, value = entry
        if kind == _DIRTY:
            return {(value, True)}
        if kind == _CLEAN:
            return {(value, False), ABSENT}
        return {(value, True), (value, False), ABSENT}  # _CLEANED

    def _legal_completed(self, op) -> Set:
        """Legal states of ``op.lbn`` had the in-flight op fully committed."""
        if op.kind == "write_dirty":
            return {(op.data, True)}
        if op.kind == "write_clean":
            return {(op.data, False), ABSENT}
        if op.kind == "evict":
            return {ABSENT}
        if op.kind == "clean":
            current = self.committed.get(op.lbn)
            if current is None:
                return {ABSENT}
            value = current[1]
            return {(value, True), (value, False), ABSENT}
        return self._legal_committed(op.lbn)

    def legal_states(self, lbn: int) -> Set:
        """Every state ``lbn`` may legally hold after crash + recovery."""
        legal = self._legal_committed(lbn)
        op = self.in_flight
        if op is not None and op.lbn == lbn:
            legal = legal | self._legal_completed(op)
        return legal

    # ------------------------------------------------------------------
    # Post-recovery verification
    # ------------------------------------------------------------------

    def check(self, ssc, strict: bool = True, trial: str = "") -> List[Violation]:
        """Diff the recovered device against the legal-state sets.

        ``strict`` applies the full contract.  With ``strict=False``
        (used after bit-flip fault injection, where the contract's
        no-loss guarantees legitimately do not hold — see
        docs/crash_testing.md) only the *integrity* rules are enforced:
        every readable value must be one this block actually held, torn
        pages must never surface, and no unknown block may appear.
        """
        violations: List[Violation] = []
        known = set(self.history)

        for lbn in sorted(known):
            legal = self.legal_states(lbn)
            try:
                value, _cost = ssc.read(lbn)
                present = True
            except NotPresentError:
                present = False
            if present:
                if value == TORN_PAGE:
                    violations.append(Violation(
                        "torn-page-surfaced", lbn,
                        "read returned the torn-program sentinel", trial,
                    ))
                    continue
                dirty = ssc.is_dirty(lbn)
                if strict:
                    if (value, dirty) not in legal:
                        violations.append(Violation(
                            "illegal-state", lbn,
                            f"recovered ({value!r}, dirty={dirty}) not in "
                            f"legal set {_fmt(legal)}", trial,
                        ))
                elif value not in self.history[lbn]:
                    violations.append(Violation(
                        "garbage-value", lbn,
                        f"recovered {value!r} was never written here", trial,
                    ))
            elif strict and ABSENT not in legal:
                violations.append(Violation(
                    "lost-dirty", lbn,
                    f"block absent but legal set {_fmt(legal)} requires "
                    "it present", trial,
                ))

        violations.extend(self._check_exists(ssc, strict, known, trial))
        violations.extend(self._check_unknown(ssc, known, trial))
        for member in getattr(ssc, "shards", (ssc,)):
            violations.extend(_check_structure(member, trial))
        return violations

    def _check_exists(self, ssc, strict: bool, known: Set[int],
                      trial: str) -> List[Violation]:
        """``exists`` must agree with the recovered mapping's dirty view."""
        violations: List[Violation] = []
        if not known:
            return violations
        reported, _cost = ssc.exists(0, max(known) + 1)
        reported_set = set(reported)
        for lbn in sorted(reported_set):
            if lbn not in known:
                violations.append(Violation(
                    "exists-unknown", lbn,
                    "exists reported a block never written", trial,
                ))
            elif strict and not any(
                state is not ABSENT and state[1]
                for state in self.legal_states(lbn)
            ):
                violations.append(Violation(
                    "exists-false-dirty", lbn,
                    "exists reported dirty but no legal state is dirty",
                    trial,
                ))
        if strict:
            for lbn in sorted(known):
                legal = self.legal_states(lbn)
                must_be_dirty = all(
                    state is not ABSENT and state[1] for state in legal
                )
                if must_be_dirty and lbn not in reported_set:
                    violations.append(Violation(
                        "exists-missing-dirty", lbn,
                        "every legal state is present-dirty but exists "
                        "omitted the block", trial,
                    ))
        return violations

    def _check_unknown(self, ssc, known: Set[int],
                       trial: str) -> List[Violation]:
        """The cache must not materialize blocks that were never written."""
        violations: List[Violation] = []
        for member in getattr(ssc, "shards", (ssc,)):
            for lbn in member.engine.iter_cached_lbns():
                if lbn not in known:
                    violations.append(Violation(
                        "unknown-lbn", lbn,
                        "recovered mapping contains a block never written",
                        trial,
                    ))
        return violations


def _check_structure(ssc, trial: str) -> List[Violation]:
    """One device's recovered maps, block kinds and free lists agree:
    every block-map target is an allocated DATA block, and every block
    on a plane's free list is FREE and holds no valid page.

    These rules hold after any fault, bit flips included, so they are
    checked in strict and relaxed mode alike.
    """
    violations: List[Violation] = []
    where = f"{ssc.name}: " if ssc.name else ""
    mapped = {pbn: group for group, pbn in ssc.engine.data_map.items()}
    for plane in ssc.chip.planes:
        for pbn, block in plane.blocks.items():
            free = plane.is_free(pbn)
            group = mapped.get(pbn)
            if group is not None and block.kind is not BlockKind.DATA:
                violations.append(Violation(
                    "mapped-block-not-data", None,
                    f"{where}group {group} maps to pbn {pbn} of kind "
                    f"{block.kind.name}", trial,
                ))
            if group is not None and free:
                violations.append(Violation(
                    "mapped-block-free", None,
                    f"{where}group {group} maps to pbn {pbn} on the free "
                    "list", trial,
                ))
            if free and (block.kind is not BlockKind.FREE or block.valid):
                violations.append(Violation(
                    "free-block-in-use", None,
                    f"{where}free-list pbn {pbn} is {block.kind.name} with "
                    f"{block.valid_count} valid pages", trial,
                ))
    return violations


def _fmt(legal: Set) -> str:
    parts = []
    for state in sorted(legal, key=repr):
        if state is ABSENT:
            parts.append("absent")
        else:
            parts.append(f"({state[0]!r}, {'dirty' if state[1] else 'clean'})")
    return "{" + ", ".join(parts) + "}"
