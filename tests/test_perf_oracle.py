"""Differential test: counter charging and PAPI event sets against the
bulk-charge / whole-bank-snapshot reference in ``tests/perf_oracle.py``.

Random sequences of ``work``/``memcpy``/``stall`` charges interleaved
with ``start``/``read``/``accum``/``reset``/``stop`` on two event sets
run against both implementations under random cost models (non-integer
CPI, load penalties, miss rates) and core rates.  After every step the
counters, residues, clock, returned value and any error must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import CostModel, PerfCore
from repro.machine.counters import COUNTER_NAMES
from repro.papi import PAPI, PAPIError
from repro.sim.clock import CycleClock

from tests.perf_oracle import OracleEventSet, OraclePerfCore

#: Often zero, else small or large; now and then negative.
amounts = st.one_of(st.just(0), st.integers(1, 64), st.integers(0, 10**7),
                    st.just(-1))

charges = st.one_of(
    st.tuples(st.just("work"), st.tuples(*[amounts] * 7)),
    st.tuples(st.just("memcpy"), st.one_of(st.integers(0, 10**5), st.just(-1))),
    st.tuples(st.just("stall"), st.one_of(st.integers(0, 10**5), st.just(-1))),
    st.tuples(st.just("stall_until"), st.integers(0, 10**8)),
)
eventset_ops = st.tuples(
    st.sampled_from(("start", "read", "accum", "reset", "stop")),
    st.integers(0, 1),          # which event set
    st.sampled_from((0, 0, 0, 1)),  # accum buffer entries beyond the events
)
#: Each event-set operation is followed by a charge, so every read,
#: accum and stop has something to count.
steps = st.lists(st.tuples(eventset_ops, charges), max_size=30).map(
    lambda pairs: [step for pair in pairs for step in pair])

costs = st.builds(
    CostModel,
    cpi=st.one_of(st.just(1.0), st.floats(0.25, 4.0)),
    load_fraction_penalty=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    l1_miss_rate=st.floats(0.0, 1.0),
    l2_miss_rate=st.floats(0.0, 1.0),
    branch_misp_rate=st.floats(0.0, 1.0),
    cache_line_bytes=st.sampled_from((32, 64, 128)),
    memcpy_cycles_per_byte=st.floats(0.0, 4.0),
)
rates = st.one_of(st.just(1.0), st.floats(0.5, 4.0))
event_lists = st.lists(st.sampled_from(COUNTER_NAMES), min_size=1,
                       max_size=4, unique=True)


def _apply(core, sets, step):
    """One step; returns its value or the error it raised."""
    op = step[0]
    try:
        if op == "work":
            return core.work(*step[1])
        if op in ("memcpy", "stall", "stall_until"):
            return getattr(core, op)(step[1])
        es = sets[step[1]]
        if op == "accum":
            return es.accum(list(range(len(es.events) + step[2])))
        return getattr(es, op)()
    except (ValueError, PAPIError) as exc:
        return (type(exc).__name__, str(exc))


def _state(core, counters):
    return (dict(counters), core._l1_resid, core._l2_resid, core._br_resid,
            core.clock.now)


@settings(max_examples=300)
@given(costs, rates, event_lists, event_lists, steps)
def test_charging_and_event_sets_match_the_reference(cost, rate, ev_a, ev_b,
                                                     sequence):
    core = PerfCore(CycleClock(), cost)
    oracle = OraclePerfCore(CycleClock(), cost)
    core.rate = oracle.rate = rate
    papi = PAPI(core)
    sets = [papi.create_eventset(), papi.create_eventset()]
    oracle_sets = [OracleEventSet(oracle.counters),
                   OracleEventSet(oracle.counters)]
    for es, oes, events in zip(sets, oracle_sets, (ev_a, ev_b)):
        es.add_events(events)
        for name in events:
            oes.add_event(name)
    for i, step in enumerate(sequence):
        got = _apply(core, sets, step)
        want = _apply(oracle, oracle_sets, step)
        assert got == want, (i, step)
        assert _state(core, core.counters.live()) == \
            _state(oracle, oracle.counters.values), (i, step)
        assert [es.running for es in sets] == \
            [oes.running for oes in oracle_sets], (i, step)
