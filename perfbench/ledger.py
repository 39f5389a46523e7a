"""Per-layer host-time ledger for the traced benchmark run.

:class:`Ledger` wraps the public entry points of each layer, listed in
:data:`ENTRY_POINTS`, from outside the program: it replaces each method
on its class (or each function in its module) with a wrapper that counts
the call and reads ``time.perf_counter_ns`` on entry and on exit.  Every
nanosecond between two such readings is charged to the layer on top of
the stack of open spans, so a layer's *self time* is its own work only
and the wrappers' bookkeeping is charged to the span it serves.  What a
wrapper costs outside its two clock readings (the call into it and the
return from it) would still land in the caller; :meth:`Ledger.calibrate`
measures that cost, and the cost inside the readings, on a no-op, and
:meth:`Ledger.metrics` subtracts both per call.  The ledger is installed
in the traced process only, before the system is built, and removed
afterwards; the program's source is not edited.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layers in report order, named after the modules that hold them.
LAYERS = (
    "engine",
    "manager",
    "sharding",
    "ssc",
    "ssc.engine",
    "ssc.sparse_map",
    "ssc.log",
    "ssc.recovery",
    "ftl",
    "flash",
    "disk",
    "sim",
    "traces",
)

_SSC_OPS = ("read", "write_dirty", "write_clean", "evict", "clean", "exists")

#: (layer, module, class name or None for module functions, entry points).
#: ``traces`` has no row: the benchmark wraps its own ``generate_trace``
#: call with :meth:`Ledger.wrap`.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("engine", "repro.engine.replay", "ReplayEngine", ("run",)),
    ("engine", "repro.core.flashtier", None, ("replay_trace",)),
    ("manager", "repro.manager.base", "CacheManager", ("read", "write")),
    ("sharding", "repro.core.sharding", "ShardedSSC", _SSC_OPS),
    ("ssc", "repro.ssc.device", "SolidStateCache", _SSC_OPS),
    ("ssc.engine", "repro.ssc.engine", "CacheFTL",
     ("write", "trim", "current_location", "set_clean")),
    ("ssc.sparse_map", "repro.ssc.sparse_map", "SparseHashMap",
     ("lookup", "insert", "remove")),
    ("ssc.log", "repro.ssc.log", "OperationLog", ("append", "flush")),
    ("ssc.log", "repro.ssc.checkpoint", "CheckpointStore", ("write",)),
    ("ssc.recovery", "repro.ssc.recovery", None, ("recover_device",)),
    ("ftl", "repro.ftl.ssd", "SSD", ("read", "write", "trim")),
    ("ftl", "repro.ftl.hybrid", "HybridFTL", ("read", "write")),
    ("flash", "repro.flash.chip", "FlashChip",
     ("read_page", "program_page", "erase_block")),
    ("disk", "repro.disk.model", "Disk", ("read", "write")),
    ("sim", "repro.sim.completion", "OpRecorder", ("record",)),
    ("sim", "repro.sim.events", "EventScheduler", ("schedule_at", "pop")),
)


class Ledger:
    """Per-layer call counts and self time, from class-level wrappers.

    Use it as a context manager around the traced work; entering it
    calibrates the wrapper cost and wraps every entry point, and fails
    if the program lacks one.  Setting ``enabled`` to False stops
    counting without unwrapping.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.enabled = True
        self.clock = clock
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Wrapped calls made from inside each layer's spans.
        self.child_calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Wrapper cost per call in ns: (charged to the callee's span,
        #: charged to the caller's span).
        self.overhead_ns: Tuple[float, float] = (0.0, 0.0)
        self._layer_of: Dict[str, str] = {}
        self._stack: List[str] = []
        self._last = [0]
        self._installed: List[Tuple[object, str, Callable]] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls as ``name`` in ``layer``."""
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(layer, 0)
        self.child_calls.setdefault(layer, 0)
        self._layer_of[name] = layer
        calls, self_ns, child_calls = self.calls, self.self_ns, self.child_calls
        stack, last = self._stack, self._last
        clock = self.clock
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not ledger.enabled:
                return fn(*args, **kwargs)
            now = clock()
            if stack:
                caller = stack[-1]
                self_ns[caller] += now - last[0]
                child_calls[caller] += 1
            stack.append(layer)
            last[0] = now
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                calls[name] += 1
                now = clock()
                self_ns[layer] += now - last[0]
                last[0] = now

        return traced

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> Tuple[float, float]:
        """Wrapper cost per call in ns, measured on a no-op callee.

        Returns (the part charged to the callee's span, the part charged
        to the caller's span beyond what calling the bare no-op costs),
        each the median over ``rounds``.
        """
        probe = Ledger(self.clock)

        def noop(_a, _b):
            pass

        def loop(call):
            for _ in range(calls):
                call(None, 1)

        traced_noop = probe.wrap("callee", "noop", noop)
        traced_loop = probe.wrap("caller", "loop", loop)
        inside, outside = [], []
        for _ in range(rounds):
            start = self.clock()
            loop(noop)
            bare = self.clock() - start
            probe.self_ns.update(callee=0, caller=0)
            traced_loop(traced_noop)
            inside.append(probe.self_ns["callee"] / calls)
            outside.append((probe.self_ns["caller"] - bare) / calls)
        return statistics.median(inside), statistics.median(outside)

    def install(self) -> None:
        """Wrap every entry point of :data:`ENTRY_POINTS` in place."""
        for layer, module_name, owner_name, attrs in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            for attr in attrs:
                name = f"{owner_name or module_name}.{attr}"
                # The owner's own attribute only: wrapping an inherited
                # one would shadow the base and count its calls twice.
                if attr not in vars(owner):
                    raise AttributeError(
                        f"ledger entry point {name} does not exist; update "
                        "ENTRY_POINTS to follow the program"
                    )
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(layer, name, original))
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Ledger":
        self.overhead_ns = self.calibrate()
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def metrics(self, requests: int) -> Dict[str, float]:
        """Calls and self time per request of every layer, the wrapper
        cost of each call subtracted."""
        calls = dict.fromkeys(LAYERS, 0)
        for name, count in self.calls.items():
            calls[self._layer_of[name]] += count
        inside, outside = self.overhead_ns
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            own_ns = (
                self.self_ns[layer]
                - calls[layer] * inside
                - self.child_calls[layer] * outside
            )
            metrics[f"{layer}.calls_per_req"] = calls[layer] / requests
            metrics[f"{layer}.self_us_per_req"] = own_ns / 1e3 / requests
        metrics["sim.op_records_per_req"] = (
            self.calls.get("OpRecorder.record", 0) / requests
        )
        metrics["sim.events_per_req"] = (
            self.calls.get("EventScheduler.schedule_at", 0) / requests
        )
        return metrics
