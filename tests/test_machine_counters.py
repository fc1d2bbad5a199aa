"""Unit tests for the counter bank."""

import pytest

from repro.machine import CounterBank
from repro.machine.counters import COUNTER_NAMES


def test_counters_start_at_zero():
    bank = CounterBank()
    for name in COUNTER_NAMES:
        assert bank.read(name) == 0


def test_add_and_read():
    bank = CounterBank()
    bank.add("PAPI_TOT_INS", 10)
    bank.add("PAPI_TOT_INS", 5)
    assert bank.read("PAPI_TOT_INS") == 15


def test_unknown_counter_rejected():
    bank = CounterBank()
    with pytest.raises(KeyError):
        bank.add("PAPI_NOPE", 1)
    with pytest.raises(KeyError):
        bank.read("PAPI_NOPE")


def test_negative_increment_rejected():
    bank = CounterBank()
    with pytest.raises(ValueError):
        bank.add("PAPI_TOT_INS", -1)


def test_snapshot_is_immutable_copy():
    bank = CounterBank()
    bank.add("PAPI_TOT_INS", 7)
    snap = bank.snapshot()
    bank.add("PAPI_TOT_INS", 3)
    assert snap["PAPI_TOT_INS"] == 7
    assert bank.read("PAPI_TOT_INS") == 10


def test_missing_key_in_snapshot_reads_zero():
    from repro.machine import CounterSnapshot

    snap = CounterSnapshot({})
    assert snap["PAPI_TOT_INS"] == 0
