"""Pull-based block-iterator operator interface (Section 2.2.3).

Each operator calls ``next()`` on its child and receives a block of
tuples (or ``None`` at end of stream).  Operators are agnostic about
the database schema and work on generic column dictionaries.

When the context carries a :class:`~repro.obs.trace.SpanTracer`, the
public ``open()``/``next()``/``close()`` methods additionally record a
span per call: wall time plus the :class:`~repro.cpusim.events.CostEvents`
delta across the call, attributed exclusively (child-operator work is
subtracted out by the tracer's stack).  With the default
``tracer is None`` the traced branches are skipped entirely.
"""

from __future__ import annotations

import abc

from repro.engine.blocks import Block
from repro.engine.context import ExecutionContext
from repro.errors import EngineError


class Operator(abc.ABC):
    """One node of a query plan."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        self._opened = False

    @property
    def events(self):
        return self.context.events

    def describe(self) -> str:
        """One-line span annotation for EXPLAIN/trace output (hook)."""
        return ""

    def _governance_check(self) -> None:
        """One cooperative checkpoint (deadline/cancellation).

        Called per ``next()`` by the base class and, through the page
        source (:mod:`repro.engine.pages`), before every page a reader
        reads, so a cancel or deadline lands within one page's worth of
        work even when a single ``_next()`` decodes many pages (or, for
        the late-materialized architectures, the entire column).
        """
        governance = self.context.governance
        if governance is not None:
            governance.check(type(self).__name__)

    def open(self) -> None:
        """Prepare for iteration; children are opened first."""
        tracer = self.context.tracer
        if tracer is None:
            for child in self.children():
                child.open()
            self._open()
            self._opened = True
            return
        frame = tracer.enter(self, "open")
        try:
            for child in self.children():
                child.open()
            self._open()
            self._opened = True
        finally:
            tracer.exit(frame, self.context.events)

    def next(self) -> Block | None:
        """The next block of tuples, or ``None`` when exhausted."""
        if not self._opened:
            raise EngineError(f"{type(self).__name__}.next() before open()")
        governance = self.context.governance
        if governance is not None:
            governance.check(type(self).__name__)
        tracer = self.context.tracer
        if tracer is None:
            block = self._next()
            if block is not None and len(block):
                self.events.blocks_produced += 1
            return block
        frame = tracer.enter(self, "next")
        rows = 0
        blocks = 0
        try:
            block = self._next()
            if block is not None and len(block):
                self.events.blocks_produced += 1
                rows = len(block)
                blocks = 1
            return block
        finally:
            tracer.exit(frame, self.context.events, rows=rows, blocks=blocks)

    def close(self) -> None:
        """Release state; children are closed last."""
        tracer = self.context.tracer
        if tracer is None:
            self._close()
            for child in self.children():
                child.close()
            self._opened = False
            return
        frame = tracer.enter(self, "close")
        try:
            self._close()
            for child in self.children():
                child.close()
            self._opened = False
        finally:
            tracer.exit(frame, self.context.events)

    def children(self) -> list["Operator"]:
        """Child operators (empty for scanners)."""
        return []

    def _open(self) -> None:
        """Subclass hook."""

    @abc.abstractmethod
    def _next(self) -> Block | None:
        """Subclass hook: produce the next block."""

    def _close(self) -> None:
        """Subclass hook."""

    def drain(self) -> list[Block]:
        """Run the subtree to completion (open/next*/close)."""
        self.open()
        blocks = []
        while True:
            block = self.next()
            if block is None:
                break
            blocks.append(block)
        self.close()
        return blocks
