"""Reference oracle for the trace query language: a plain row walk.

This is the evaluator in-memory traces used before every input moved
onto the columnar :class:`~repro.core.store.frame.Frame`: one Python
dict per aggregated route, conditions tested row by row, sums kept in
Python ints.  It shares only the parser with production, so the
differential tests (``test_query_differential.py``) compare the
vectorized evaluator against an independent implementation of the
query semantics.
"""

import operator

from repro.conveyors.hooks import SEND_TYPES
from repro.core.logical import LogicalTrace
from repro.core.physical import PhysicalTrace
from repro.core.query import FieldRef, QueryError, parse

_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _rows(trace):
    """The trace's aggregated rows as Python tuples, in section order."""
    columns, _attrs = trace.to_columns()
    return zip(*(col.tolist() for col in columns.values()))


def _logical_rows(trace: LogicalTrace):
    spec = trace.spec
    for src, dst, size, n in _rows(trace):
        yield {
            "src": src,
            "dst": dst,
            "size": size,
            "src_node": spec.node_of(src),
            "dst_node": spec.node_of(dst),
        }, n, n * size


def _physical_rows(trace: PhysicalTrace):
    spec = trace.spec
    for code, nbytes, src, dst, n in _rows(trace):
        row = {
            "src": src,
            "dst": dst,
            "size": nbytes,
            "kind": SEND_TYPES[code],
        }
        if spec is not None:
            row["src_node"] = spec.node_of(src)
            row["dst_node"] = spec.node_of(dst)
        yield row, n, n * nbytes


def _matches(cond, row: dict) -> bool:
    if cond.field not in row:
        raise QueryError(
            f"field {cond.field!r} does not exist on this trace "
            f"(have {sorted(row)})"
        )
    rhs = cond.value
    if isinstance(rhs, FieldRef):
        if rhs.name not in row:
            raise QueryError(
                f"field {rhs.name!r} does not exist on this trace "
                f"(have {sorted(row)})"
            )
        rhs = row[rhs.name]
    return _OPS[cond.op](row[cond.field], rhs)


def row_walk_query(trace: LogicalTrace | PhysicalTrace, text: str):
    """Evaluate ``text`` over an in-memory trace, one row at a time."""
    q = parse(text)
    rows = (_logical_rows(trace) if isinstance(trace, LogicalTrace)
            else _physical_rows(trace))
    groups: dict = {}
    total = 0
    for row, count, nbytes in rows:
        if not all(_matches(c, row) for c in q.conditions):
            continue
        amount = nbytes if q.metric == "bytes" else count
        if q.group_by is None:
            total += amount
        else:
            key = row[q.group_by]
            groups[key] = groups.get(key, 0) + amount
    if q.group_by is None:
        return total
    ranked = sorted(groups.items(), key=lambda kv: (-kv[1], str(kv[0])))
    return ranked[: q.top] if q.top is not None else ranked
