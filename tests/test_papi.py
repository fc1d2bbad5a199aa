"""Unit tests for the simulated PAPI layer."""

import pytest

from repro.machine import CostModel, CounterBank, PerfCore
from repro.papi import (
    MAX_EVENTS,
    PAPI,
    PAPIError,
    PRESET_EVENTS,
    describe_event,
    is_preset,
)
from repro.sim.clock import CycleClock


def make_papi():
    core = PerfCore(CycleClock(), CostModel())
    return PAPI(core), core


def test_preset_catalogue():
    assert "PAPI_TOT_INS" in PRESET_EVENTS
    assert is_preset("PAPI_LST_INS")
    assert not is_preset("PAPI_MADE_UP")
    assert "Instructions" in describe_event("PAPI_TOT_INS")
    with pytest.raises(KeyError):
        describe_event("PAPI_MADE_UP")


def test_start_stop_measures_delta():
    papi, core = make_papi()
    es = papi.create_eventset()
    es.add_event("PAPI_TOT_INS")
    core.work(ins=100)  # before start: must not count
    es.start()
    core.work(ins=42, loads=7)
    assert es.stop() == [42]


def test_multiple_events_ordered():
    papi, core = make_papi()
    es = papi.create_eventset()
    es.add_events(["PAPI_TOT_INS", "PAPI_LST_INS"])
    es.start()
    core.work(ins=10, loads=3, stores=2)
    assert es.stop() == [10, 5]


def test_read_does_not_stop():
    papi, core = make_papi()
    es = papi.create_eventset()
    es.add_event("PAPI_TOT_INS")
    es.start()
    core.work(ins=5)
    assert es.read() == [5]
    core.work(ins=5)
    assert es.read() == [10]
    assert es.running
    assert es.stop() == [10]
    assert not es.running


def test_accum_adds_and_rebases():
    papi, core = make_papi()
    es = papi.create_eventset()
    es.add_event("PAPI_TOT_INS")
    es.start()
    core.work(ins=10)
    vals = es.accum([100])
    assert vals == [110]
    core.work(ins=1)
    assert es.read() == [1]  # baseline was reset by accum


def test_accum_wrong_length_rejected():
    papi, core = make_papi()
    es = papi.create_eventset()
    es.add_event("PAPI_TOT_INS")
    es.start()
    with pytest.raises(PAPIError):
        es.accum([1, 2])


def test_reset_rebaselines():
    papi, core = make_papi()
    es = papi.create_eventset()
    es.add_event("PAPI_TOT_INS")
    es.start()
    core.work(ins=50)
    es.reset()
    core.work(ins=3)
    assert es.stop() == [3]


def test_four_event_limit():
    """Paper: "ActorProf only allows up to four concurrent recording
    events with the limitation from PAPI"."""
    papi, _ = make_papi()
    es = papi.create_eventset()
    es.add_events(["PAPI_TOT_INS", "PAPI_LST_INS", "PAPI_L1_DCM", "PAPI_BR_MSP"])
    assert len(es.events) == MAX_EVENTS == 4
    with pytest.raises(PAPIError):
        es.add_event("PAPI_TOT_CYC")


def test_api_misuse_errors():
    papi, _ = make_papi()
    es = papi.create_eventset()
    with pytest.raises(PAPIError):
        es.start()  # empty
    es.add_event("PAPI_TOT_INS")
    with pytest.raises(PAPIError):
        es.add_event("PAPI_TOT_INS")  # duplicate
    with pytest.raises(PAPIError):
        es.add_event("PAPI_FAKE")  # unknown
    with pytest.raises(PAPIError):
        es.read()  # not running
    with pytest.raises(PAPIError):
        es.reset()  # not running
    es.start()
    with pytest.raises(PAPIError):
        es.start()  # double start
    with pytest.raises(PAPIError):
        es.add_event("PAPI_LST_INS")  # add while running


def test_papi_over_bare_bank():
    bank = CounterBank()
    papi = PAPI(bank)
    es = papi.create_eventset()
    es.add_event("PAPI_L1_DCM")
    es.start()
    bank.add("PAPI_L1_DCM", 9)
    assert es.stop() == [9]
    assert bank.read("PAPI_L1_DCM") == 9


def test_independent_eventsets_on_same_bank():
    papi, core = make_papi()
    a = papi.create_eventset()
    b = papi.create_eventset()
    a.add_event("PAPI_TOT_INS")
    b.add_event("PAPI_TOT_INS")
    a.start()
    core.work(ins=5)
    b.start()
    core.work(ins=5)
    assert a.stop() == [10]
    assert b.stop() == [5]
