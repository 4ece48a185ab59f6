"""The daemon process of the ``serve`` workload.

Builds the world (the same code path the generator uses), serves
the PRD policy with an :class:`AlarmDaemon` on a Unix socket, prints
``ready <registry digest>`` once listening, and serves until a SHUTDOWN
frame arrives.  It then prints one JSON line: the engine counters and,
with ``--trace 1``, the span totals and the phase profile of its own
layers (telemetry on, ``Transport.request`` wrapped, phases profiled).

Run from the repository root::

    python3 perfbench/daemon_main.py --uds .perfbench/d.sock
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(os.path.dirname(_HERE), "src")]

from repro.engine import AlarmServer, Metrics  # noqa: E402
from repro.net import AlarmDaemon  # noqa: E402
from repro.protocol.transport import InProcessTransport  # noqa: E402
from repro.protocol.wire import WireCodec  # noqa: E402
from repro.strategies import PeriodicStrategy  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.telemetry.sinks import NullSink  # noqa: E402

from ledger import SpanProfiler, Spans, Wrappers  # noqa: E402
from world import SCALES, build_world, registry_digest  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--uds", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    world = build_world(SCALES[args.scale], Spans(False))
    spans = Spans(traced)
    metrics = Metrics()
    server = AlarmServer(
        world.registry, world.grid, metrics, sizes=world.sizes,
        profiler=SpanProfiler(spans) if traced else None,
        telemetry=Telemetry.capture(sink=NullSink()) if traced else None)
    daemon = AlarmDaemon(server, PeriodicStrategy().server_policy(),
                         WireCodec.from_sizes(world.sizes))

    async def serve() -> None:
        await daemon.start_unix(args.uds)
        print("ready %s" % registry_digest(world.registry), flush=True)
        await daemon.serve_until_stopped()

    with Wrappers(spans) as wrappers:
        if traced:
            wrappers.wrap(InProcessTransport, "request", "protocol.request")
        try:
            asyncio.run(serve())
        finally:
            server.close()
    report = {"counters": metrics.counters()}
    if traced:
        report["spans"] = [[name, tag, count, total, self_s]
                           for (name, tag), (count, total, self_s)
                           in sorted(spans.totals().items())]
        report["profile"] = server.profiler.report()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
