"""The ``serve`` workload: an open-loop generator against a daemon process.

The daemon (:mod:`daemon_main`) runs in its own process, fresh for every
ladder, so its one-shot trigger state starts empty and the notifications
it delivers can be checked against the static ground truth.  One asyncio
process drives it over :data:`CONNECTIONS` Unix-socket connections, each
user pinned to one connection.  The load is the time-major stream of
every raw location report, cut into consecutive slices; each slice is
offered open loop at the next rate of :func:`ladder`, and the daemon is
drained before the next rung starts.  Each request is timed from the
moment it was due, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net import histogram_percentile, scrape_stats
from repro.protocol.framing import (FrameDecoder, FrameKind, encode_frame,
                                    encode_hello, reply_summary)
from repro.telemetry.metrics import Histogram

from world import Rung

#: Load connections; the box this benchmark targets has two cores.
CONNECTIONS = 2
#: The fixed rate at which report latency is quoted, reports/s.
REFERENCE_RATE = 5000.0
#: Rising rates of the ladder; the reference rate recurs between them.
RAMP = (6000.0, 8000.0, 10000.0, 12000.0, 14000.0, 16000.0, 20000.0,
        24000.0, 28000.0)
#: The p99 latency a rung must meet to count as sustained.
P99_LIMIT_MS = 20.0
#: No reply progress for this long fails the outstanding requests.
REPLY_TIMEOUT_S = 10.0
#: Daemon start-up budget (it builds its own world first).
READY_TIMEOUT_S = 120.0
_READ_CHUNK = 1 << 16
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def ladder() -> List[float]:
    """The reference rate, then two ramp rates, repeated."""
    rates: List[float] = []
    for index, rate in enumerate(RAMP):
        if index % 2 == 0:
            rates.append(REFERENCE_RATE)
        rates.append(rate)
    return rates


# ----------------------------------------------------------------------
# The daemon process
# ----------------------------------------------------------------------
class DaemonProcess:
    """One daemon process: spawn, readiness, outside probes, shutdown."""

    def __init__(self, root: str, path: str, scale: str,
                 traced: bool) -> None:
        self.path = path
        command = [sys.executable,
                   os.path.join(root, "perfbench", "daemon_main.py"),
                   "--scale", scale, "--uds", path,
                   "--trace", "1" if traced else "0"]
        self.proc = subprocess.Popen(command, cwd=root,
                                     stdout=subprocess.PIPE, text=True)
        self.digest = ""
        self.report: Dict[str, object] = {}

    def wait_ready(self) -> None:
        """Block until the daemon prints its ready line."""
        stdout = self.proc.stdout
        assert stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            if not selector.select(READY_TIMEOUT_S):
                raise RuntimeError("daemon not ready in %.0f s"
                                   % READY_TIMEOUT_S)
        line = stdout.readline()
        if not line.startswith("ready "):
            raise RuntimeError("daemon failed to start: %r" % line)
        self.digest = line.split()[1]

    def cpu_s(self) -> float:
        """User plus system CPU time, read from ``/proc``."""
        with open("/proc/%d/stat" % self.proc.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open("/proc/%d/status" % self.proc.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def shutdown(self) -> None:
        """SHUTDOWN frame, then collect the daemon's final report."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(self.path)
            sock.sendall(encode_frame(FrameKind.HELLO, encode_hello())
                         + encode_frame(FrameKind.SHUTDOWN, b""))
        out, _ = self.proc.communicate(timeout=60.0)
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError("daemon exited with %s"
                               % self.proc.returncode)
        self.report = json.loads(lines[-1])

    def kill(self) -> None:
        """Stop the process if it is still running and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30.0)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


# ----------------------------------------------------------------------
# The open-loop generator
# ----------------------------------------------------------------------
@dataclass
class RungResult:
    """What one rung measured, from the generator's side."""

    rate: float
    reports: int
    latencies_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    errors: int = 0
    notifications: int = 0
    bytes_received: int = 0
    wall_s: float = 0.0
    drain_s: float = 0.0
    daemon_cpu_s: float = 0.0
    queue_depth_max: int = 0
    batch_size_mean: float = 0.0
    batch_handle_us_p50: float = 0.0
    backpressure_stalls: int = 0

    def percentile_ms(self, q: float) -> float:
        return percentile(self.latencies_s, q) * 1e3

    @property
    def sustained(self) -> bool:
        """Met the p99 limit with no failure and no left-over backlog."""
        return (self.errors == 0
                and self.percentile_ms(0.99) <= P99_LIMIT_MS
                and self.drain_s * 1e3 <= P99_LIMIT_MS)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of unsorted ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _Conn:
    __slots__ = ("reader", "writer", "decoder", "next_seq", "alive")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.next_seq = 1
        self.alive = True

    def close(self) -> None:
        self.alive = False
        self.writer.close()


async def _read_replies(conn: _Conn, due: List[float], rung: RungResult,
                        last_reply: List[float]) -> None:
    """Collect one REPLY per request sent on ``conn``, in FIFO order.

    ``due`` holds the scheduled send times of this connection's requests
    in send order.  Each REPLY must echo the next sequence number; a
    reply out of order, an ERROR frame, end of stream or a timeout
    fails the requests still outstanding.
    """
    got = 0
    while got < len(due) and conn.alive:
        try:
            chunk = await asyncio.wait_for(conn.reader.read(_READ_CHUNK),
                                           REPLY_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            chunk = b""
        now = time.perf_counter()
        if not chunk:
            conn.close()
            break
        rung.bytes_received += len(chunk)
        for frame in conn.decoder.feed(chunk):
            if frame.kind is not FrameKind.REPLY \
                    or frame.span_id != conn.next_seq:
                conn.close()
                break
            rung.latencies_s.append(now - due[got])
            rung.notifications += reply_summary(frame.payload)[1]
            conn.next_seq += 1
            got += 1
        last_reply[0] = now
    rung.errors += len(due) - got


async def _poll_queue_depth(path: str, rung: RungResult,
                            stop: asyncio.Event) -> None:
    loop = asyncio.get_running_loop()
    scrape = functools.partial(scrape_stats, path=path)
    while not stop.is_set():
        snapshot = await loop.run_in_executor(None, scrape)
        depth = int(snapshot.live().get("queue_depth_total", 0))
        rung.queue_depth_max = max(rung.queue_depth_max, depth)
        try:
            await asyncio.wait_for(stop.wait(), 0.05)
        except asyncio.TimeoutError:
            pass


async def _offer_rung(conns: List[_Conn], rung: Rung, result: RungResult,
                      close_after: Optional[int], poll_path: Optional[str]
                      ) -> None:
    rate = rung.rate
    start = time.perf_counter() + 0.002
    due: List[List[float]] = [[] for _ in conns]
    for index, (conn_index, _k) in enumerate(rung.order):
        due[conn_index].append(start + index / rate)
    last_reply = [start]
    readers = [asyncio.ensure_future(_read_replies(conn, due[c], result,
                                                   last_reply))
               for c, conn in enumerate(conns)]
    stop = asyncio.Event()
    poller = (asyncio.ensure_future(_poll_queue_depth(poll_path, result,
                                                      stop))
              if poll_path is not None else None)
    try:
        index = 0
        total = rung.reports
        while index < total:
            now = time.perf_counter()
            target = start + index / rate
            if target > now:
                await asyncio.sleep(target - now)
                now = time.perf_counter()
            while index < total and start + index / rate <= now:
                conn_index, k = rung.order[index]
                conn = conns[conn_index]
                if conn.alive:
                    conn.writer.write(rung.frames[conn_index][k])
                    if close_after is not None and conn_index == 0:
                        close_after -= 1
                        if close_after == 0:
                            conn.close()
                result.late_s.append(now - (start + index / rate))
                index += 1
            for conn in conns:
                if conn.alive and \
                        conn.writer.transport.get_write_buffer_size() \
                        > _READ_CHUNK:
                    await conn.writer.drain()
        sent_done = time.perf_counter()
        await asyncio.gather(*readers)
    finally:
        for task in readers:
            task.cancel()
        stop.set()
        if poller is not None:
            await poller
    result.wall_s = last_reply[0] - start
    result.drain_s = max(0.0, last_reply[0] - sent_done)


async def _offer_ladder(path: str, rungs: List[Rung],
                        daemon: DaemonProcess, traced: bool,
                        close_after: Optional[int]) -> List[RungResult]:
    loop = asyncio.get_running_loop()
    conns: List[_Conn] = []
    results: List[RungResult] = []
    try:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(encode_frame(FrameKind.HELLO, encode_hello()))
            conns.append(_Conn(reader, writer))
        previous = (await loop.run_in_executor(
            None, functools.partial(scrape_stats, path=path))
            if traced else None)
        for rung in rungs:
            result = RungResult(rung.rate, rung.reports)
            cpu_before = daemon.cpu_s()
            await _offer_rung(conns, rung, result, close_after,
                              path if traced else None)
            close_after = None
            result.daemon_cpu_s = daemon.cpu_s() - cpu_before
            if previous is not None:
                current = await loop.run_in_executor(
                    None, functools.partial(scrape_stats, path=path))
                _batch_stats(previous, current, result)
                previous = current
            results.append(result)
    finally:
        for conn in conns:
            conn.writer.close()
        for conn in conns:
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return results


def _delta(previous, current, name: str) -> Optional[Histogram]:
    after = current.registry().get(name)
    if after is None:
        return None
    before = previous.registry().get(name)
    delta = Histogram(name, after.buckets)
    delta.bucket_counts = list(after.bucket_counts)
    delta.count, delta.sum, delta.max = after.count, after.sum, after.max
    if before is not None:
        delta.bucket_counts = [a - b for a, b in zip(after.bucket_counts,
                                                     before.bucket_counts)]
        delta.count -= before.count
        delta.sum -= before.sum
    return delta


def _batch_stats(previous, current, result: RungResult) -> None:
    """The rung's share of the daemon's own batch instruments."""
    sizes = _delta(previous, current, "net_batch_size")
    if sizes is not None and sizes.count:
        result.batch_size_mean = sizes.sum / sizes.count
    handle = _delta(previous, current, "net_batch_handle_us")
    if handle is not None and handle.count:
        result.batch_handle_us_p50 = histogram_percentile(handle, 0.5)

    def stalls(snapshot) -> int:
        counter = snapshot.registry().get("net_backpressure_stalls")
        return int(counter.value) if counter is not None else 0

    result.backpressure_stalls = stalls(current) - stalls(previous)


def offer_ladder(path: str, rungs: List[Rung], daemon: DaemonProcess,
                 traced: bool, close_after: Optional[int] = None
                 ) -> List[RungResult]:
    """Offer every rung in turn; ``close_after`` closes connection 0
    after that many requests (the generator fault the tests inject)."""
    return asyncio.run(_offer_ladder(path, rungs, daemon, traced,
                                     close_after))


def sustained_rate(results: Sequence[RungResult]) -> float:
    """The highest rate that met the limit, interpolated to the limit.

    Between the last ramp rung that met the limit and the first that
    did not, the rate is interpolated in log p99, so the figure moves
    continuously with the latency curve instead of jumping a rung.
    """
    ramp = sorted((r for r in results if r.rate != REFERENCE_RATE),
                  key=lambda r: r.rate)
    best: Optional[RungResult] = next(
        (r for r in results if r.rate == REFERENCE_RATE and r.sustained),
        None)
    for result in ramp:
        if not result.sustained:
            if best is None:
                return 0.0
            lo, hi = best.percentile_ms(0.99), result.percentile_ms(0.99)
            if result.errors or hi <= lo:
                return best.rate
            share = ((math.log(P99_LIMIT_MS) - math.log(max(lo, 1e-3)))
                     / (math.log(hi) - math.log(max(lo, 1e-3))))
            share = min(1.0, max(0.0, share))
            return best.rate + (result.rate - best.rate) * share
        best = result
    return best.rate if best is not None else 0.0
