"""Tests for profiling flags (compile-macro equivalents)."""

import pytest

from repro.core import ProfileFlags


def test_defaults_all_off():
    f = ProfileFlags()
    assert not f.enable_trace
    assert not f.enable_tcomm_profiling
    assert not f.enable_trace_physical


def test_all_factory():
    f = ProfileFlags.all()
    assert f.enable_trace and f.enable_tcomm_profiling and f.enable_trace_physical


def test_default_papi_events_are_the_papers():
    f = ProfileFlags()
    assert f.papi_events == ("PAPI_TOT_INS", "PAPI_LST_INS")


def test_papi_event_limit_enforced():
    with pytest.raises(ValueError):
        ProfileFlags(papi_events=(
            "PAPI_TOT_INS", "PAPI_LST_INS", "PAPI_L1_DCM",
            "PAPI_BR_MSP", "PAPI_TOT_CYC",
        ))


def test_four_events_allowed():
    f = ProfileFlags(papi_events=(
        "PAPI_TOT_INS", "PAPI_LST_INS", "PAPI_L1_DCM", "PAPI_BR_MSP",
    ))
    assert len(f.papi_events) == 4


def test_unknown_event_rejected():
    with pytest.raises(ValueError):
        ProfileFlags(papi_events=("PAPI_BOGUS",))


def test_sample_interval_validation():
    with pytest.raises(ValueError):
        ProfileFlags(papi_sample_interval=0)
    assert ProfileFlags(papi_sample_interval=10).papi_sample_interval == 10
