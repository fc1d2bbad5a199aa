"""Reference oracle for the scheduler's selection rule: a plain linear scan.

This is the selection loop :class:`~repro.sim.scheduler.CoopScheduler`
ran before the numpy candidate index: every scheduling point walks all
PE records, evaluates every blocked predicate, and fires pending crashes
one at a time.  :class:`LinearScheduler` overrides only ``_select_locked`` — the
index bookkeeping in ``yield_pe``/``block``/``_resume_locked`` keeps
running underneath and is simply never read — so the differential tests
(``test_sim_scheduler_core.py``) and the golden-archive rebuilds
(``test_golden_archives.py``) compare the indexed selection against an
independent implementation of the same rule.
"""

from repro.sim.errors import DeadlockError, SimulationError
from repro.sim.scheduler import CoopScheduler, PEState, _PERecord


class LinearScheduler(CoopScheduler):
    """``CoopScheduler`` with the pre-index O(n_pes) selection scan."""

    def _select_locked(self) -> _PERecord | None:
        self.stats.selections += 1
        while True:
            best_time: int | None = None
            tied: list[_PERecord] = []  # candidates at best_time, rank-ascending
            any_blocked = False
            for rec in self._pes:
                if rec.state is PEState.RUNNABLE:
                    t = self.clocks[rec.rank].now
                elif rec.state is PEState.BLOCKED:
                    any_blocked = True
                    if rec.predicate is not None and self._safe_pred(rec):
                        t = self.clocks[rec.rank].now
                    elif rec.wakeup_time is not None:
                        t = max(self.clocks[rec.rank].now, rec.wakeup_time)
                    else:
                        continue
                else:
                    continue
                if best_time is None or t < best_time:
                    best_time, tied = t, [rec]
                elif t == best_time:
                    tied.append(rec)
            if self._crashes and (best_time is None
                                  or self._crashes[0][0] < best_time):
                self._crash_locked(*self._crashes.pop(0))
                self.stats.events_fired += 1
                continue  # re-evaluate: the crash may have changed the world
            if tied:
                if len(tied) == 1:
                    return tied[0]
                assert best_time is not None
                ranks = [rec.rank for rec in tied]
                chosen = self.policy.tie_break(best_time, ranks)
                for rec in tied:
                    if rec.rank == chosen:
                        return rec
                raise SimulationError(
                    f"schedule policy {self.policy!r} picked PE {chosen}, "
                    f"which is not among the tied candidates {ranks}"
                )
            if any_blocked:
                raise DeadlockError(self._deadlock_report_locked())
            # No runnable, no blocked, no crashes: everything is DONE/FAILED.
            return None


def use_scheduler(monkeypatch, cls) -> None:
    """Make every ``World`` built during the test schedule with ``cls``
    (``monkeypatch`` is pytest's fixture, so the patch ends with the test)."""
    monkeypatch.setattr("repro.hclib.world.CoopScheduler", cls)
