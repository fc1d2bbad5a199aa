"""Tests for the PAPI region trace and its file format."""

import numpy as np
import pytest

from repro.core.papi_trace import PAPITrace, parse_papi_dir
from repro.machine import MachineSpec

EVENTS = ("PAPI_TOT_INS", "PAPI_LST_INS")


def make_trace():
    t = PAPITrace(MachineSpec(2, 2), EVENTS)
    t.record(0, 1, 8, 0, 1, [100, 30])
    t.record(0, 3, 8, 0, 2, [250, 80])
    t.record(2, 0, 8, 0, 1, [50, 10])
    t.region_totals["MAIN"][0, :] = [250, 80]
    t.region_totals["PROC"][0, :] = [40, 12]
    return t


def test_rows_recorded():
    t = make_trace()
    rows = t.rows(0)
    # CSV column order: src node, src PE, dst node, dst PE, pkt size,
    # mailbox, num sends, event values
    assert rows.tolist() == [[0, 0, 0, 1, 8, 0, 1, 100, 30],
                             [0, 0, 1, 3, 8, 0, 2, 250, 80]]


def test_totals_per_pe_combines_regions():
    t = make_trace()
    totals = t.totals_per_pe("PAPI_TOT_INS")
    assert totals[0] == 290  # 250 MAIN + 40 PROC
    totals_main = t.totals_per_pe("PAPI_TOT_INS", regions=("MAIN",))
    assert totals_main[0] == 250


def test_totals_unknown_event_rejected():
    with pytest.raises(KeyError):
        make_trace().totals_per_pe("PAPI_L1_DCM")


def test_csv_format_matches_paper(tmp_path):
    t = make_trace()
    t.write(tmp_path)
    lines = (tmp_path / "PE0_PAPI.csv").read_text().strip().splitlines()
    assert "NUM_SENDS" in lines[0] and "PAPI_TOT_INS" in lines[0]
    # src node, src PE, dst node, dst PE, pkt, mailbox, num_sends, events...
    assert lines[1] == "0,0,0,1,8,0,1,100,30"
    assert lines[2] == "0,0,1,3,8,0,2,250,80"


def test_write_parse_roundtrip(tmp_path):
    t = make_trace()
    t.write(tmp_path)
    parsed = parse_papi_dir(tmp_path, 4)
    assert parsed.events == EVENTS
    assert np.array_equal(parsed.rows(0), t.rows(0))
    # reconstruction uses each PE's final row as its totals
    assert parsed.totals_per_pe("PAPI_TOT_INS")[0] == 250


def test_parse_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_papi_dir(tmp_path, 1)
