"""Command-line interface.

Everything the examples and benchmarks do, driveable from a shell::

    python -m repro workloads
    python -m repro generate --workload homes --scale 0.1 -o homes.trace
    python -m repro analyze homes.trace
    python -m repro replay --workload mail --system ssc-r --mode wb
    python -m repro compare --workload homes --scale 0.1
    python -m repro recover --workload homes --scale 0.1

External traces work too: ``analyze``, ``replay``, ``compare`` and
``recover`` accept a trace file (``--trace``) in the native line
format, MSR Cambridge CSV or FIU (SyLab) text (``--format
{native,msr,fiu}``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from typing import Optional, Sequence

from repro import CacheMode, SystemConfig, SystemKind, build_system
from repro.core.flashtier import member_cache_blocks
from repro.errors import ConfigError
from repro.stats.report import format_table
from repro.traces.analyze import analyze
from repro.traces.filefmt import FORMATS, TraceFormatError, read_trace, write_trace
from repro.traces.record import Trace
from repro.traces.synthetic import PROFILES, generate_trace


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", choices=sorted(PROFILES), default="homes",
        help="synthetic workload profile (Table 3)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="profile scale factor (1.0 = full synthetic size)",
    )
    parser.add_argument("--seed", type=int, default=1, help="trace RNG seed")


def _add_trace_source_args(parser: argparse.ArgumentParser) -> None:
    _add_workload_args(parser)
    parser.add_argument(
        "--trace", help="replay a trace file instead of a synthetic workload"
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="native",
        help="format of the --trace file: native, MSR Cambridge CSV or "
             "FIU (SyLab) text (default native)",
    )
    parser.add_argument(
        "--limit", type=_non_negative_int, default=None,
        help="cap the number of requests taken from --trace",
    )


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _load_records(args) -> Trace:
    if args.trace:
        return read_trace(args.trace, args.format, args.limit)
    profile = PROFILES[args.workload].scaled(args.scale)
    return generate_trace(profile, seed=args.seed).records


def _system_config(args, records) -> SystemConfig:
    """A one-device SSC system in the arguments' mode, sized for
    ``records``; commands ``replace`` its kind and shards.  A trace file
    is analyzed here, so each command sizes its cache once."""
    if args.trace:
        stats = analyze(records)
        cache_blocks = max(256, stats.unique_blocks // 4)
        disk_blocks = stats.max_lbn + 1
    else:
        profile = PROFILES[args.workload].scaled(args.scale)
        cache_blocks = profile.cache_blocks()
        disk_blocks = profile.address_range_blocks
    return SystemConfig(
        mode=CacheMode(args.mode),
        cache_blocks=cache_blocks,
        disk_blocks=disk_blocks,
        consistency=not args.no_consistency,
    )


def _add_shard_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=1,
        help="split an SSC cache into this many devices at fixed total "
             "capacity (default 1: a single device)",
    )


def _add_mode_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode", choices=[mode.value for mode in CacheMode], default="wb"
    )


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _runs_on_records(command):
    """Make ``command`` run as ``command(args, records)`` on the trace
    its arguments name.

    A ``--trace`` file that cannot be read or parsed, and a
    :class:`ConfigError` (a cache too small for its system, a bad shard
    count), print as ``error: ...`` and return 1.
    """
    @functools.wraps(command)
    def run(args) -> int:
        try:
            records = _load_records(args)
        except OSError as exc:
            return _error(f"cannot read {args.trace}: {exc.strerror or exc}")
        except TraceFormatError as exc:
            return _error(str(exc))
        try:
            return command(args, records)
        except ConfigError as exc:
            return _error(str(exc))
    return run


def cmd_workloads(_args) -> int:
    rows = []
    for name in sorted(PROFILES):
        profile = PROFILES[name]
        rows.append([
            name,
            f"{profile.address_range_blocks * 4096 / 1e9:.1f} GB",
            f"{profile.unique_blocks:,}",
            f"{profile.total_ops:,}",
            f"{profile.write_fraction:.1%}",
        ])
    print(format_table(
        ["workload", "range", "unique blocks", "ops", "writes"],
        rows,
        title="Synthetic workload profiles (scaled from Table 3)",
    ))
    return 0


def cmd_generate(args) -> int:
    profile = PROFILES[args.workload].scaled(args.scale)
    trace = generate_trace(profile, seed=args.seed)
    count = write_trace(args.output, trace.records)
    print(f"wrote {count:,} requests to {args.output}")
    return 0


@_runs_on_records
def cmd_analyze(args, records) -> int:
    if not records:
        print("trace is empty", file=sys.stderr)
        return 1
    print(analyze(records).summary())
    return 0


@_runs_on_records
def cmd_replay(args, records) -> int:
    kind = SystemKind(args.system)
    system = build_system(
        replace(_system_config(args, records), kind=kind, shards=args.shards))

    # Observability is opt-in: without these flags no tracer is
    # attached and the replay runs the zero-cost default path.
    # (--trace names the *input* trace file; the capture outputs are
    # --trace-out / --events-out / --metrics.)
    tracer = None
    sinks = []
    if args.trace_out or args.events_out:
        from repro.obs import JsonlSink, RingBufferSink, Tracer, instrument_system

        if args.trace_out:
            sinks.append(RingBufferSink())
        if args.events_out:
            sinks.append(JsonlSink(args.events_out))
        tracer = Tracer(*sinks)
        instrument_system(system, tracer)

    try:
        stats = system.replay(
            records,
            warmup_fraction=args.warmup,
            queue_depth=args.queue_depth,
            open_loop=args.open_loop,
            keep_latencies=bool(args.metrics),
        )
    except ValueError as exc:
        return _error(str(exc))
    finally:
        if tracer is not None:
            tracer.close()

    if tracer is not None:
        from repro.obs import write_chrome_trace

        if args.trace_out:
            entries = write_chrome_trace(tracer.ring.events, args.trace_out)
            dropped = tracer.ring.dropped
            note = f" ({dropped:,} oldest events dropped)" if dropped else ""
            print(f"wrote {entries:,} Chrome trace entries to "
                  f"{args.trace_out}{note}")
        if args.events_out:
            print(f"wrote {tracer.events_emitted:,} events to {args.events_out}")
    if args.metrics:
        import json

        from repro.obs import collect

        snapshot = collect(system, stats)
        with open(args.metrics, "w") as handle:
            json.dump(snapshot.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote metrics snapshot to {args.metrics}")
    device = system.device
    loop = "open loop" if args.open_loop else f"QD={stats.queue_depth}"
    if args.shards > 1:
        loop += f", {args.shards} shards"
    print(f"system:              {kind.value} ({args.mode}, {loop})")
    config = system.config
    provisioned = config.shards * member_cache_blocks(config, config.shards)
    print(f"cache blocks:        {config.cache_blocks:,} requested, "
          f"{provisioned:,} provisioned")
    print(f"requests measured:   {stats.ops:,}")
    print(f"IOPS:                {stats.iops():,.0f}")
    print(f"mean latency:        {stats.latency.mean_us:.0f} us")
    print(f"  service time:      {stats.service.mean_us:.0f} us")
    print(f"  queueing delay:    {stats.queue_wait.mean_us:.0f} us")
    print(f"read miss rate:      {stats.miss_rate():.1f} %")
    print(f"write amplification: {device.stats.write_amplification():.2f}")
    print(f"erases:              {device.chip.stats.block_erases:,}")
    print(f"device memory:       {device.device_memory_bytes() / 1024:.0f} KiB")
    print(f"host memory:         {system.manager.host_memory_bytes() / 1024:.1f} KiB")
    utilization = stats.utilization()
    if utilization:
        disk_util = utilization.get("disk", 0.0)
        plane_utils = [
            value for key, value in utilization.items()
            if key.startswith("plane:") or ":plane:" in key
        ]
        if plane_utils:
            mean_plane = sum(plane_utils) / len(plane_utils)
            print(f"plane utilization:   {100 * mean_plane:.1f} % "
                  f"(mean of {len(plane_utils)} active planes)")
        print(f"disk utilization:    {100 * disk_util:.1f} %")
    return 0


@_runs_on_records
def cmd_compare(args, records) -> int:
    # Build every system first, so a configuration error fails before
    # any replay has run.
    config = _system_config(args, records)
    systems = [
        (kind, build_system(replace(config, kind=kind)))
        for kind in (SystemKind.NATIVE, SystemKind.SSC, SystemKind.SSC_R)
    ]
    rows = []
    base_iops = None
    for kind, system in systems:
        stats = system.replay(records, warmup_fraction=args.warmup)
        if base_iops is None:
            base_iops = stats.iops()
        rows.append([
            kind.value,
            f"{stats.iops():,.0f}",
            f"{100 * stats.iops() / base_iops:.0f}%",
            f"{stats.miss_rate():.1f}%",
            f"{system.device.stats.write_amplification():.2f}",
            f"{system.device.chip.stats.block_erases:,}",
        ])
    print(format_table(
        ["system", "IOPS", "vs native", "miss", "write amp", "erases"],
        rows,
        title=f"System comparison ({args.mode} mode)",
    ))
    return 0


@_runs_on_records
def cmd_recover(args, records) -> int:
    config = _system_config(args, records)
    system = build_system(replace(config, shards=args.shards))
    system.replay(records, warmup_fraction=0.0)
    assert system.ssc is not None
    cached = system.ssc.cached_blocks()
    lost = system.ssc.crash()
    recovery_us = system.ssc.recover()
    print(f"cache held {cached:,} blocks at the crash "
          f"({lost} buffered log records lost)")
    print(f"FlashTier recovery:  {recovery_us / 1000:.2f} ms (simulated)")
    per_shard = getattr(system.ssc, "last_recovery_costs", ())
    if len(per_shard) > 1:
        rows = [
            [f"shard{shard_id}", f"{cost / 1000:.2f} ms"]
            for shard_id, cost in enumerate(per_shard)
        ]
        rows.append(["serial total", f"{sum(per_shard) / 1000:.2f} ms"])
        print(format_table(
            ["shard", "recovery"], rows,
            title=f"Parallel recovery across {len(per_shard)} shards",
        ))

    # The comparison is the paper's single-SSD native baseline.
    native = build_system(replace(config, kind=SystemKind.NATIVE))
    native.replay(records, warmup_fraction=0.0)
    print(f"Native-FC reload:    {native.manager.recover_manager_us() / 1000:.2f} ms")
    print(f"Native-SSD OOB scan: {native.device.oob_recovery_scan_us() / 1000:.2f} ms")
    return 0


def cmd_trace_report(args) -> int:
    from repro.obs import format_report, load_events, summarize

    try:
        events = load_events(args.events)
    except (OSError, ValueError) as exc:
        return _error(str(exc))
    if not events:
        print("trace is empty", file=sys.stderr)
        return 1
    print(format_report(summarize(events), top=args.top))
    return 0


def cmd_obs_schema(args) -> int:
    from repro.obs import metrics_markdown

    rendered = metrics_markdown()
    if args.check:
        target = args.output or "docs/metrics.md"
        try:
            with open(target) as handle:
                committed = handle.read()
        except OSError as exc:
            return _error(f"cannot read {target}: {exc}")
        if committed != rendered:
            print(
                f"{target} is stale: regenerate with\n"
                f"  python -m repro obs schema -o {target}",
                file=sys.stderr,
            )
            return 1
        print(f"{target} matches the catalog")
        return 0
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        print(f"wrote {args.output}")
    else:
        print(rendered, end="")
    return 0


def cmd_crashcheck(args) -> int:
    from repro.check.explorer import explore

    report = explore(
        ops=args.ops,
        seed=args.seed,
        stride=args.stride,
        torn=not args.no_torn,
        bitflips=args.bitflips,
        shards=args.shards,
    )
    shard_note = f", {args.shards} shards" if args.shards > 1 else ""
    print(f"workload:            {args.ops} ops (seed {args.seed}{shard_note})")
    print(f"durability boundaries: {report.boundaries}")
    print(f"trials run:          {report.trials} "
          f"(stride {args.stride}, torn={'off' if args.no_torn else 'on'}, "
          f"bitflips {report.bitflip_trials})")
    print(f"crashes explored:    {report.explored}")
    for name in sorted(report.fired_counts):
        print(f"  {name:<20} {report.fired_counts[name]}")
    if report.violations:
        print(f"\nVIOLATIONS ({len(report.violations)}):")
        for violation in report.violations:
            print(f"  {violation}")
        return 1
    print("no contract violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlashTier (EuroSys 2012) reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "workloads", help="list the synthetic workload profiles"
    ).set_defaults(func=cmd_workloads)

    generate = subparsers.add_parser("generate", help="write a trace file")
    _add_workload_args(generate)
    generate.add_argument("-o", "--output", required=True, help="output path")
    generate.set_defaults(func=cmd_generate)

    analyze_cmd = subparsers.add_parser("analyze", help="trace statistics")
    _add_trace_source_args(analyze_cmd)
    analyze_cmd.set_defaults(func=cmd_analyze)

    replay = subparsers.add_parser("replay", help="replay through one system")
    _add_trace_source_args(replay)
    replay.add_argument(
        "--system", choices=[kind.value for kind in SystemKind], default="ssc-r"
    )
    _add_mode_arg(replay)
    replay.add_argument("--warmup", type=float, default=0.15)
    replay.add_argument("--no-consistency", action="store_true")
    replay.add_argument(
        "--queue-depth", type=int, default=1,
        help="outstanding requests in closed-loop replay (default 1)",
    )
    replay.add_argument(
        "--open-loop", action="store_true",
        help="dispatch at recorded arrival_us timestamps instead",
    )
    _add_shard_args(replay)
    replay.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="capture a Chrome trace (Perfetto / chrome://tracing) of "
             "the replay to FILE",
    )
    replay.add_argument(
        "--events-out", default=None, metavar="FILE",
        help="stream trace events as JSON Lines to FILE "
             "(input of 'repro trace report')",
    )
    replay.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the metrics snapshot (JSON) to FILE",
    )
    replay.set_defaults(func=cmd_replay)

    trace_cmd = subparsers.add_parser(
        "trace", help="work with captured trace-event files"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report",
        help="summarize a JSONL event capture: GC cost, write "
             "amplification, recovery phases",
    )
    trace_report.add_argument("events", help="JSONL file from --events-out")
    trace_report.add_argument(
        "--top", type=int, default=10,
        help="rows in the top-GC-cost table (default 10)",
    )
    trace_report.set_defaults(func=cmd_trace_report)

    obs = subparsers.add_parser(
        "obs", help="observability schema utilities"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    schema = obs_sub.add_parser(
        "schema",
        help="render the event/metric catalog as Markdown "
             "(docs/metrics.md source)",
    )
    schema.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )
    schema.add_argument(
        "--check", action="store_true",
        help="compare against FILE (default docs/metrics.md) and fail "
             "on drift instead of writing",
    )
    schema.set_defaults(func=cmd_obs_schema)

    compare = subparsers.add_parser("compare", help="native vs SSC vs SSC-R")
    _add_trace_source_args(compare)
    _add_mode_arg(compare)
    compare.add_argument("--warmup", type=float, default=0.15)
    compare.add_argument("--no-consistency", action="store_true")
    compare.set_defaults(func=cmd_compare)

    crashcheck = subparsers.add_parser(
        "crashcheck",
        help="explore every crash point of a workload against the SSC oracle",
    )
    crashcheck.add_argument("--ops", type=int, default=200,
                            help="workload length (default 200)")
    crashcheck.add_argument("--seed", type=int, default=0,
                            help="workload RNG seed (default 0)")
    crashcheck.add_argument("--stride", type=int, default=1,
                            help="sample every Nth boundary (default 1: all)")
    crashcheck.add_argument("--bitflips", type=int, default=12,
                            help="bit-flip fault trials (default 12)")
    crashcheck.add_argument("--no-torn", action="store_true",
                            help="skip the torn-write variant of each boundary")
    crashcheck.add_argument("--shards", type=int, default=1,
                            help="explore against a sharded cache array "
                                 "(default 1: a single device)")
    crashcheck.set_defaults(func=cmd_crashcheck)

    recover = subparsers.add_parser("recover", help="crash-recovery timing demo")
    _add_trace_source_args(recover)
    _add_shard_args(recover)
    _add_mode_arg(recover)
    recover.set_defaults(func=cmd_recover, no_consistency=False)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
