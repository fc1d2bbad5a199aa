"""Google Trace Event export.

Converts a :class:`~repro.core.timeline.TimelineTrace` into the Trace
Event JSON format (the paper's Section VI cites the Google Trace Events
document as a planned target).  Mapping:

* pid = node, tid = PE (so the viewer groups PE rows under node groups),
* MAIN/PROC/FINISH spans → complete events (``ph: "X"``),
* network operations → instant events (``ph: "i"``) on the source PE,
  plus flow events (``ph: "s"``/``"f"``) connecting local_send /
  nonblock_send source and destination rows,
* timestamps are microseconds: cycles / (clock_ghz × 1000).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.conveyors.hooks import SEND_TYPES
from repro.core.timeline import NET_COLUMNS, REGIONS, SPAN_COLUMNS, TimelineTrace
from repro.machine.spec import MachineSpec


def _us(cycles: int, clock_ghz: float) -> float:
    return cycles / (clock_ghz * 1000.0)


def to_chrome_trace(
    timeline: TimelineTrace,
    spec: MachineSpec,
    clock_ghz: float = 2.0,
    include_flows: bool = True,
) -> dict:
    """Build the Trace Event JSON object (as a dict)."""
    if clock_ghz <= 0:
        raise ValueError("clock_ghz must be positive")
    events: list[dict] = []
    # metadata: name the process/thread rows
    for node in range(spec.nodes):
        events.append({
            "name": "process_name", "ph": "M", "pid": node, "tid": 0,
            "args": {"name": f"node {node}"},
        })
    for pe in range(spec.n_pes):
        events.append({
            "name": "thread_name", "ph": "M",
            "pid": spec.node_of(pe), "tid": pe,
            "args": {"name": f"PE {pe}"},
        })
    spans = timeline.span_columns()
    for pe, code, start, end, mailbox in zip(
            *(spans[c].tolist() for c in SPAN_COLUMNS)):
        ev = {
            "name": REGIONS[code],
            "cat": "region",
            "ph": "X",
            "ts": _us(start, clock_ghz),
            "dur": _us(end - start, clock_ghz),
            "pid": spec.node_of(pe),
            "tid": pe,
        }
        if mailbox >= 0:
            ev["args"] = {"mailbox": mailbox}
        events.append(ev)
    flow_id = 0
    net = timeline.net_columns()
    for time, code, src, dst, nbytes in zip(
            *(net[c].tolist() for c in NET_COLUMNS)):
        kind = SEND_TYPES[code]
        ts = _us(time, clock_ghz)
        events.append({
            "name": kind,
            "cat": "network",
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": ts,
            "pid": spec.node_of(src),
            "tid": src,
            "args": {"dst": dst, "bytes": nbytes},
        })
        if include_flows and kind in ("local_send", "nonblock_send") \
                and src != dst:
            flow_id += 1
            common = {"cat": "network", "name": kind, "id": flow_id}
            events.append({**common, "ph": "s", "ts": ts,
                           "pid": spec.node_of(src), "tid": src})
            events.append({**common, "ph": "f", "bp": "e", "ts": ts + 0.001,
                           "pid": spec.node_of(dst), "tid": dst})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "ActorProf (repro)",
            "clock_ghz": clock_ghz,
            "dropped_spans": timeline.dropped_spans,
        },
    }


def timeline_from_chrome(path: str | Path, clock_ghz: float = 2.0) -> tuple[TimelineTrace, MachineSpec]:
    """Reload a Trace Event JSON file back into a timeline.

    Returns (timeline, machine spec).  Only the events this exporter emits
    are understood; flow events are skipped (they duplicate instants).
    """
    obj = json.loads(Path(path).read_text())
    events = obj["traceEvents"]
    ghz = float(obj.get("otherData", {}).get("clock_ghz", clock_ghz))

    def cycles(us: float) -> int:
        return int(round(us * ghz * 1000.0))

    pes = {e["tid"] for e in events if e["ph"] == "X"}
    pes |= {e["tid"] for e in events if e["ph"] == "i"}
    nodes = {e["pid"] for e in events if e["ph"] in ("X", "i")}
    n_pes = (max(pes) + 1) if pes else 1
    n_nodes = (max(nodes) + 1) if nodes else 1
    ppn = n_pes // n_nodes if n_nodes and n_pes % n_nodes == 0 else n_pes
    spec = MachineSpec(max(1, n_pes // max(ppn, 1)), max(ppn, 1))
    tl = TimelineTrace(n_pes)
    for e in events:
        if e["ph"] == "X":
            start = cycles(e["ts"])
            tl.add_span(e["tid"], e["name"], start, start + cycles(e["dur"]),
                        mailbox=e.get("args", {}).get("mailbox", -1))
        elif e["ph"] == "i" and e.get("cat") == "network":
            tl.add_net_event(cycles(e["ts"]), e["name"], e["tid"],
                             e["args"]["dst"], e["args"]["bytes"])
    return tl, spec


def write_chrome_trace(
    timeline: TimelineTrace,
    spec: MachineSpec,
    path: str | Path,
    clock_ghz: float = 2.0,
    include_flows: bool = True,
) -> Path:
    """Write the trace to ``path`` (open it in chrome://tracing/Perfetto)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    obj = to_chrome_trace(timeline, spec, clock_ghz, include_flows)
    path.write_text(json.dumps(obj, indent=None, separators=(",", ":")))
    return path
