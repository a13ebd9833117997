"""A fixed pure-Python probe of how fast the host runs right now.

On a shared host, neighbours slow the processor down: for seconds at a time,
and by tens of percent over tens of minutes.  The benchmark times this probe
between rounds of operations and scales each round's latencies by
``REFERENCE_S / probe time``, which reports them at the speed the host has
when nothing else runs on it.

The probe does the kind of work an explore does (render XML with
``quoteattr``, parse it with ElementTree, MD5 node signatures, JSON encode)
but calls nothing in scenetg, so a change to the package never changes it.
Never edit it either: scaled results are only comparable under one probe.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import xml.etree.ElementTree as ET
from time import perf_counter
from xml.sax.saxutils import quoteattr

# About one call's time on an idle 2-vCPU Intel Xeon virtual machine
# (Python 3.11), so scaled and raw times agree on an idle host.
REFERENCE_S = 0.002
CALLS = 8


def _work() -> int:
    lines = ["<hierarchy>"]
    for i in range(150):
        attrs = (("index", str(i)), ("class", "android.widget.TextView"), ("text", f"row{i}"), ("bounds", "[0,0][9,9]"))
        lines.append("<node " + " ".join(f"{k}={quoteattr(v)}" for k, v in attrs) + " />")
    lines.append("</hierarchy>")
    root = ET.fromstring("\n".join(lines))
    digests = "".join(hashlib.md5(f"{e.get('class')}|{e.get('index')}".encode()).hexdigest() for e in root)
    return len(json.dumps({"digests": [digests] * 10}))


def probe() -> float:
    """Median seconds of one probe call, over CALLS calls."""
    times = []
    for _ in range(CALLS):
        start = perf_counter()
        _work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(probe_s: float) -> float:
    """Factor that turns a time measured next to ``probe_s`` into reference-host time."""
    return REFERENCE_S / probe_s
