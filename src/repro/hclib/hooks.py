"""Tracing hook points placed inside the HClib-Actor runtime.

The paper (Section III): "ActorProf begins the trace generation by using
tracing hooks placed inside run-time system HClib-Actor, and the
aggregation library Conveyors."  These are those hooks.  The runtime calls
them unconditionally; the disabled default (:class:`NullHooks`) makes them
no-ops, mirroring compiled-out macros.

Region protocol
---------------
``main_enter``/``main_exit`` bracket user code in the finish body — entered
when the body starts, *exited* while the runtime is inside ``send``
internals or draining, and re-entered afterwards, so accumulated
MAIN time is exactly "body minus send" (Table I).  ``proc_enter``/
``proc_exit`` bracket each message-handler invocation (or batch).  COMM is
everything else and is derived, never measured directly — exactly like the
paper's ``T_COMM = T_TOTAL − T_MAIN − T_PROC``.

The user application is prohibited from calling these APIs (Table I,
"Region"); only the runtime does.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.sim.errors import SimulationError


class RuntimeHooks(Protocol):
    """Receiver of HClib-Actor runtime events (implemented by ActorProf)."""

    def finish_start(self, pe: int) -> None:
        """A finish scope opened on ``pe`` (T_TOTAL measurement starts)."""

    def finish_end(self, pe: int) -> None:
        """The finish scope on ``pe`` completed (all messages processed)."""

    def main_enter(self, pe: int) -> None:
        """``pe`` (re-)entered user MAIN code."""

    def main_exit(self, pe: int) -> None:
        """``pe`` left user MAIN code (entering runtime internals)."""

    def proc_enter(self, pe: int, mailbox: int) -> None:
        """``pe`` is about to run message handler(s) for ``mailbox``."""

    def proc_exit(self, pe: int, mailbox: int, n_items: int) -> None:
        """Handler(s) for ``mailbox`` finished; ``n_items`` were processed."""

    def send(self, pe: int, mailbox: int, dst: int, nbytes: int) -> None:
        """One asynchronous point-to-point send (pre-aggregation)."""

    def send_batch(self, pe: int, mailbox: int, dsts: np.ndarray, nbytes: int) -> None:
        """A vectorized batch of sends; ``nbytes`` is the per-message size."""


class NullHooks:
    """All hooks compiled out (no profiling flags enabled)."""

    def finish_start(self, pe: int) -> None:  # noqa: D102
        pass

    def finish_end(self, pe: int) -> None:  # noqa: D102
        pass

    def main_enter(self, pe: int) -> None:  # noqa: D102
        pass

    def main_exit(self, pe: int) -> None:  # noqa: D102
        pass

    def proc_enter(self, pe: int, mailbox: int) -> None:  # noqa: D102
        pass

    def proc_exit(self, pe: int, mailbox: int, n_items: int) -> None:  # noqa: D102
        pass

    def send(self, pe: int, mailbox: int, dst: int, nbytes: int) -> None:  # noqa: D102
        pass

    def send_batch(self, pe: int, mailbox: int, dsts: np.ndarray, nbytes: int) -> None:  # noqa: D102
        pass


class ForwardingHooks:
    """Base of the profiler decorators: forwards everything to ``inner``.

    Attaches the inner profiler (or none) exactly once and forwards every
    runtime hook and the Conveyors ``record`` unmodified; a subclass
    overrides only the events it observes and passes them on via
    ``super()``.
    """

    def __init__(self, inner=None) -> None:
        self.inner = inner
        self._world = None
        self._hooks = NullHooks()
        self._tracer = None

    def attach(self, world):
        """Wire into the world; returns (hooks, tracer) like ActorProf."""
        if self._world is not None:
            raise SimulationError(
                f"a {type(self).__name__} instance profiles exactly one run")
        self._world = world
        if self.inner is not None:
            hooks, self._tracer = self.inner.attach(world)
            if hooks is not None:
                self._hooks = hooks
        return self, self._tracer

    def finish_start(self, pe: int) -> None:  # noqa: D102
        self._hooks.finish_start(pe)

    def finish_end(self, pe: int) -> None:  # noqa: D102
        self._hooks.finish_end(pe)

    def main_enter(self, pe: int) -> None:  # noqa: D102
        self._hooks.main_enter(pe)

    def main_exit(self, pe: int) -> None:  # noqa: D102
        self._hooks.main_exit(pe)

    def proc_enter(self, pe: int, mailbox: int) -> None:  # noqa: D102
        self._hooks.proc_enter(pe, mailbox)

    def proc_exit(self, pe: int, mailbox: int, n_items: int) -> None:  # noqa: D102
        self._hooks.proc_exit(pe, mailbox, n_items)

    def send(self, pe: int, mailbox: int, dst: int, nbytes: int) -> None:  # noqa: D102
        self._hooks.send(pe, mailbox, dst, nbytes)

    def send_batch(self, pe: int, mailbox: int, dsts: np.ndarray, nbytes: int) -> None:  # noqa: D102
        self._hooks.send_batch(pe, mailbox, dsts, nbytes)

    def record(self, send_type: str, nbytes: int, src_pe: int, dst_pe: int,
               time: int) -> None:
        """Conveyors ``TraceSink``: forward to the inner tracer, if any."""
        if self._tracer is not None:
            self._tracer.record(send_type, nbytes, src_pe, dst_pe, time)
