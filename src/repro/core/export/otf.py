"""Simplified Open Trace Format (OTF) writer.

OTF (Knüpfer et al., ICCS 2006 — the paper's reference [36]) organizes a
trace into a master control file plus per-stream event files, each built
from definition records and timestamped event records.  This writer emits
a faithful-in-structure, human-readable subset:

* ``<name>.otf`` — master file listing streams (one per PE),
* ``<name>.0.def`` — global definitions: timer resolution, processes
  (PEs), process groups (nodes), functions (MAIN/PROC/FINISH), and
  message kinds,
* ``<name>.<pe+1>.events`` — per-PE event stream with ENTER/LEAVE records
  for region spans and SEND records for network operations, sorted by
  timestamp.

Real OTF is a binary/zlib format with a C API; the record *semantics*
(definitions + per-stream timestamped events) are preserved, and
``tests/test_core_timeline.py`` parses the output back as its oracle.
"""

from __future__ import annotations

from pathlib import Path

from repro.conveyors.hooks import SEND_TYPES
from repro.core.timeline import NET_COLUMNS, REGIONS, TimelineTrace
from repro.machine.spec import MachineSpec

#: Function ids for region records (stable across files): a span's
#: region code + 1.
FUNCTION_IDS = {name: code + 1 for code, name in enumerate(REGIONS)}


def write_otf(
    timeline: TimelineTrace,
    spec: MachineSpec,
    directory: str | Path,
    name: str = "actorprof",
    timer_resolution: int = 2_000_000_000,
) -> list[Path]:
    """Write the OTF file set; returns every path written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    # master control file: stream id -> process (PE) mapping
    master = directory / f"{name}.otf"
    with master.open("w") as f:
        for pe in range(spec.n_pes):
            # stream ids are 1-based in OTF; process ids too
            f.write(f"{pe + 1}:{pe + 1}\n")
    written.append(master)

    # global definitions
    defs = directory / f"{name}.0.def"
    with defs.open("w") as f:
        f.write(f"DEFTIMERRESOLUTION {timer_resolution}\n")
        f.write('DEFCREATOR "ActorProf (repro)"\n')
        for node in range(spec.nodes):
            members = " ".join(str(pe + 1) for pe in spec.node_pes(node))
            f.write(f'DEFPROCESSGROUP {node + 1} "node {node}" {members}\n')
        for pe in range(spec.n_pes):
            f.write(f'DEFPROCESS {pe + 1} "PE {pe}"\n')
        f.write('DEFFUNCTIONGROUP 1 "FA-BSP regions"\n')
        for fn, fid in FUNCTION_IDS.items():
            f.write(f'DEFFUNCTION {fid} "{fn}" 1\n')
    written.append(defs)

    # per-PE event streams: (time, order, line) records
    records: list[list[tuple[int, int, str]]] = [[] for _ in range(spec.n_pes)]
    net = timeline.net_columns()
    for time, kind, src, dst, nbytes in zip(
            *(net[c].tolist() for c in NET_COLUMNS)):
        if 0 <= src < spec.n_pes:
            records[src].append((time, 2, f'SEND {time} {src + 1} {dst + 1} '
                                 f'{nbytes} "{SEND_TYPES[kind]}"'))
    spans = timeline.span_columns()
    bounds = timeline.span_bounds().tolist()
    region, start, end = (spans[c].tolist() for c in ("region", "start", "end"))
    for pe in range(spec.n_pes):
        for i in range(bounds[pe], bounds[pe + 1]):
            fid = region[i] + 1
            records[pe].append((start[i], 0, f"ENTER {fid} {start[i]} {pe + 1}"))
            records[pe].append((end[i], 1, f"LEAVE {fid} {end[i]} {pe + 1}"))
        records[pe].sort()
        stream = directory / f"{name}.{pe + 1}.events"
        with stream.open("w") as f:
            for _, _, line in records[pe]:
                f.write(line + "\n")
        written.append(stream)
    return written

