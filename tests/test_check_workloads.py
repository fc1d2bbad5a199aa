"""Tests for ActorCheck's auditable workloads and the generative builder."""

import numpy as np
import pytest

from repro.check.policies import make_schedules
from repro.check.workloads import (
    GeneratedWorkload,
    HistogramWorkload,
    ProgramSpec,
    generate_spec,
)
from repro.machine.spec import MachineSpec


@pytest.fixture()
def default_schedule():
    return make_schedules(0, 1)[0]


# ----------------------------------------------------------------------
# ProgramSpec validation
# ----------------------------------------------------------------------

def test_spec_rejects_zero_mailboxes():
    with pytest.raises(ValueError, match="at least one mailbox"):
        ProgramSpec(mailboxes=0, payload_words=())


def test_spec_rejects_payload_length_mismatch():
    with pytest.raises(ValueError, match="payload_words has 1 entries"):
        ProgramSpec(mailboxes=2, payload_words=(2,))


def test_spec_rejects_single_word_payload():
    with pytest.raises(ValueError, match=">= 2 words"):
        ProgramSpec(mailboxes=1, payload_words=(1,))


def test_spec_rejects_negative_sends():
    with pytest.raises(ValueError, match="negative send count"):
        ProgramSpec(mailboxes=1, payload_words=(2,), sends_per_pe=-1)


def test_spec_rejects_bad_forward_mod():
    with pytest.raises(ValueError, match="forward_mod"):
        ProgramSpec(mailboxes=1, payload_words=(2,), forward_mod=0)


# ----------------------------------------------------------------------
# generate_spec
# ----------------------------------------------------------------------

def test_generate_spec_is_deterministic():
    assert generate_spec(11, 3) == generate_spec(11, 3)


def test_generate_spec_varies_with_index():
    specs = [generate_spec(11, i) for i in range(6)]
    assert len(set(specs)) > 1


def test_generate_spec_varies_with_seed():
    specs = {generate_spec(s, 0) for s in range(6)}
    assert len(specs) > 1


def test_generated_specs_are_always_valid():
    for seed in range(3):
        for i in range(8):
            spec = generate_spec(seed, i)  # __post_init__ validates
            assert 1 <= spec.mailboxes <= 3
            assert all(2 <= w <= 4 for w in spec.payload_words)
            assert spec.mult % 2 == 1
            assert not spec.planted_race


# ----------------------------------------------------------------------
# running workloads
# ----------------------------------------------------------------------

def test_generated_workload_receipts_match_logical(default_schedule, tmp_path):
    spec = ProgramSpec(mailboxes=2, payload_words=(2, 3), sends_per_pe=40)
    wl = GeneratedWorkload(spec, machine=MachineSpec(1, 4), seed=5)
    art = wl.run(default_schedule, tmp_path / "gen.aptrc")
    assert art.receipts is not None
    assert np.array_equal(art.receipts, art.profiler.logical.matrix())
    assert art.receipts.sum() > 0


def test_generated_workload_is_reproducible(default_schedule, tmp_path):
    spec = generate_spec(0, 0)
    wl = GeneratedWorkload(spec, machine=MachineSpec(1, 4), seed=0)
    a = wl.run(default_schedule, tmp_path / "a.aptrc")
    b = wl.run(default_schedule, tmp_path / "b.aptrc")
    assert a.archive_sha256 == b.archive_sha256
    assert a.result_fingerprint == b.result_fingerprint


def test_histogram_workload_conserves_updates(default_schedule, tmp_path):
    wl = HistogramWorkload(updates=120, table_size=16,
                           machine=MachineSpec(1, 4), seed=1)
    art = wl.run(default_schedule, tmp_path / "hist.aptrc")
    assert sum(art.received_per_pe) == 120 * 4
    assert art.archive_path.exists()


def test_default_schedule_matches_bare_run(default_schedule, tmp_path):
    """The policy seam's default is byte-identical to passing no policy."""
    from repro.apps.histogram import histogram
    from repro.core.flags import ProfileFlags
    from repro.core.profiler import ActorProf

    wl = HistogramWorkload(updates=120, table_size=16,
                           machine=MachineSpec(1, 4), seed=1)
    art = wl.run(default_schedule, tmp_path / "seamed.aptrc")

    profiler = ActorProf(ProfileFlags.all())
    histogram(120, 16, machine=MachineSpec(1, 4), profiler=profiler, seed=1)
    bare = profiler.export_archive(
        tmp_path / "bare.aptrc", meta=wl.archive_meta(default_schedule))
    assert bare.read_bytes() == art.archive_path.read_bytes()


def test_buffer_override_changes_config(tmp_path):
    plans = make_schedules(0, 3)
    wl = HistogramWorkload(machine=MachineSpec(1, 2))
    assert wl._config_for(plans[0]).buffer_items == wl.base_config.buffer_items
    assert wl._config_for(plans[2]).buffer_items == plans[2].buffer_items
