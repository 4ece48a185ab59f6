"""Alarm workload persistence.

One JSON object per line, one line per alarm, with a versioned header —
the same philosophy as :mod:`repro.mobility.io`: a workload generated
(or curated) once replays identically everywhere.  Gzip-compressed when
the path ends in ``.gz``.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from typing import List, TextIO, Union

from ..geometry import Rect
from .alarm import AlarmScope
from .registry import AlarmRegistry, AlarmSpec

_HEADER = {"format": "repro-alarms", "version": 1}

PathLike = Union[str, "os.PathLike[str]"]


def _open_text(path: PathLike, mode: str) -> TextIO:
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, mode + "b"),
                                encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_alarms(registry: AlarmRegistry, path: PathLike) -> None:
    """Write every installed alarm to ``path`` (JSON lines)."""
    with _open_text(path, "w") as stream:
        stream.write(json.dumps(_HEADER) + "\n")
        for alarm in registry.all_alarms():
            record = {
                "region": [alarm.region.min_x, alarm.region.min_y,
                           alarm.region.max_x, alarm.region.max_y],
                "scope": alarm.scope.value,
                "owner_id": alarm.owner_id,
            }
            if alarm.subscribers:
                record["subscribers"] = sorted(alarm.subscribers)
            if alarm.moving_target:
                record["moving_target"] = True
            if alarm.label is not None:
                record["label"] = alarm.label
            stream.write(json.dumps(record) + "\n")


def load_alarms(path: PathLike,
                registry: AlarmRegistry = None) -> AlarmRegistry:
    """Install alarms from ``path`` into ``registry`` (a new one if None).

    Alarm ids are reassigned by the target registry; everything else —
    regions, scopes, owners, subscriber lists, labels — round-trips
    exactly.  The file is read whole and installed in one
    :meth:`AlarmRegistry.install_many` batch, so a malformed file
    installs nothing.
    """
    if registry is None:
        registry = AlarmRegistry()
    with _open_text(path, "r") as stream:
        header_line = stream.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as error:
            raise ValueError("not a repro alarm file") from error
        if (header.get("format") != _HEADER["format"]
                or header.get("version") != _HEADER["version"]):
            raise ValueError("unsupported alarm file header: %r" % header)
        specs: List[AlarmSpec] = []
        for line_number, line in enumerate(stream, start=2):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            try:
                region = Rect(*record["region"])
                scope = AlarmScope(record["scope"])
                owner = record["owner_id"]
            except (KeyError, TypeError, ValueError) as error:
                raise ValueError("line %d: malformed alarm record"
                                 % line_number) from error
            specs.append(AlarmSpec(region, scope, owner,
                                   record.get("subscribers", ()),
                                   record.get("moving_target", False),
                                   record.get("label")))
    registry.install_many(specs)
    return registry
