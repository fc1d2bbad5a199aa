"""Oracles: what each output must equal, computed without the program.

Query answers come from plain numpy over the generator's own arrays,
the triangle workloads' logical matrix from the graph's CSR arrays, and
SVG well-formedness from the stdlib XML parser — none of it goes
through ``repro.core.query``, ``Frame`` or the codec.
"""

from __future__ import annotations

import hashlib
import operator
from xml.parsers import expat

import numpy as np

_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def query_text(metric: str, where=None, group_by: str | None = None,
               top: int | None = None) -> str:
    """The query-language spelling of one oracle-checkable query."""
    text = metric
    if where is not None:
        text += " where {} {} {}".format(*where)
    if group_by is not None:
        text += f" group by {group_by}"
    if top is not None:
        text += f" top {top}"
    return text


def query_oracle(cols: dict, metric: str, where=None,
                 group_by: str | None = None, top: int | None = None):
    """Answer of ``query_text(...)`` over flat ``src/dst/size/count``
    arrays: an int, or ``[[key, amount], ...]`` ranked like the engine
    ranks (amount descending, then key as text)."""
    weights = cols["count"].astype(np.int64)
    if metric == "bytes":
        weights = weights * cols["size"]
    if where is not None:
        field, op, value = where
        mask = _OPS[op](cols[field], value)
    else:
        mask = np.ones(len(weights), dtype=bool)
    if group_by is None:
        return int(weights[mask].sum())
    keys = cols[group_by][mask]
    # float64 bincount is exact here: every sum stays far below 2**53
    sums = np.bincount(keys, weights=weights[mask]).astype(np.int64)
    seen = np.bincount(keys) > 0
    ranked = sorted(([int(k), int(sums[k])] for k in np.flatnonzero(seen)),
                    key=lambda kv: (-kv[1], str(kv[0])))
    return ranked[:top] if top is not None else ranked


def as_pairs(result):
    """Engine/HTTP group-by results (tuples or lists) as list of lists."""
    if isinstance(result, list):
        return [list(kv) for kv in result]
    return result


def matrix_columns(count: np.ndarray, nbytes: np.ndarray) -> dict:
    """A ``(src, dst)`` count matrix + byte matrix as flat oracle columns
    (one row per non-empty pair; ``size`` is bytes per message)."""
    src, dst = np.nonzero(count)
    c = count[src, dst].astype(np.int64)
    return {"src": src.astype(np.int64), "dst": dst.astype(np.int64),
            "count": c, "size": nbytes[src, dst].astype(np.int64) // c}


def triangle_logical_matrix(graph, n_pes: int) -> np.ndarray:
    """Expected logical send matrix of Algorithm 1 under 1D cyclic.

    Row ``i`` with sorted lower neighbours ``ns`` sends one message per
    pair ``(ns[b], ns[a])``, ``a < b``, to the owner of ``ns[b]`` — so
    the neighbour at position ``b`` of its row receives ``b`` messages
    from ``owner(i)``; owners are ``vertex % n_pes``.
    """
    position = np.arange(graph.nnz, dtype=np.int64) - graph.row_ptr[graph.rows]
    expected = np.zeros((n_pes, n_pes), dtype=np.int64)
    np.add.at(expected, (graph.rows % n_pes, graph.cols % n_pes), position)
    return expected


def svg_ok(svg: str) -> bool:
    """Is ``svg`` one well-formed XML document rooted at ``<svg>``?

    Streams through expat without building a tree: the 1024-PE heatmap
    is ~146 MB of ``<rect>`` elements.
    """
    roots: list[str] = []
    parser = expat.ParserCreate()

    def start(name, _attrs) -> None:
        if not roots:
            roots.append(name)

    parser.StartElementHandler = start
    try:
        parser.Parse(svg, True)
    except expat.ExpatError:
        return False
    return bool(roots) and roots[0].rpartition(":")[2] == "svg"


def sha256_of(data) -> str:
    """Digest of bytes, a file path, or an int64 array's raw bytes."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.int64).tobytes()
    elif not isinstance(data, (bytes, bytearray)):
        with open(data, "rb") as f:
            data = f.read()
    return hashlib.sha256(data).hexdigest()
