"""A row-labelled datastore: the DB of Fig. 2 under IFC.

§4's second AC limitation: "database tables may be shared between
several applications.  Although the applications enforce AC with their
users, they may not have the same AC policies when operating on common
data."  A data-centric store fixes this at the row: every record carries
the security context it was written under, and reads are mediated by the
flow rule regardless of which application asks.

Two read disciplines are provided, matching how real systems trade
availability against confidentiality signalling:

* **filtered** (default): a query silently returns only rows that may
  flow to the querier — shared tables stay usable by mixed-clearance
  applications (each sees its legal slice);
* **strict**: any unreadable matching row aborts the query with
  :class:`~repro.errors.FlowError` — for writers who must know their
  view is complete.

Aggregation honours amalgamation semantics (Concern 5): an aggregate's
context is the join of its inputs', so summaries over mixed rows demand
the union clearance unless a declassifier intervenes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro.audit.log import AuditLog
from repro.audit.spine import bind_source
from repro.errors import FlowError, KernelError
from repro.ifc.decisions import DecisionPlane
from repro.ifc.labels import SecurityContext
from repro.ifc.lattice import join


@dataclass
class Row:
    """One stored record with its write-time security context."""

    row_id: int
    values: Dict[str, Any]
    context: SecurityContext
    written_by: str
    written_at: float = 0.0


#: Row predicate used by queries.
RowPredicate = Callable[[Mapping[str, Any]], bool]


class LabelledStore:
    """A shared table whose rows carry IFC contexts.

    Example::

        store = LabelledStore("patients", audit=log, clock=sim.now)
        store.insert("ann-app", {"hr": 72}, ann_ctx)
        store.insert("zeb-app", {"hr": 80}, zeb_ctx)
        # ann's analyser sees only ann's rows:
        rows = store.query("ann-analyser", ann_ctx)
    """

    def __init__(
        self,
        name: str,
        audit: Optional[AuditLog] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        # Per-table spine segment: row-level audit stages off the query
        # path when the store runs on a machine's spine.
        self.audit = bind_source(audit, f"datastore:{name}")
        self.plane = DecisionPlane(audit=self.audit)
        self._clock = clock or (lambda: 0.0)
        self._rows: Dict[int, Row] = {}
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self._rows)

    # -- writes ------------------------------------------------------------------

    def insert(
        self,
        writer: str,
        values: Mapping[str, Any],
        context: SecurityContext,
    ) -> Row:
        """Insert a row labelled with the writer's context."""
        row = Row(
            row_id=next(self._ids),
            values=dict(values),
            context=context,
            written_by=writer,
            written_at=self._clock(),
        )
        self._rows[row.row_id] = row
        self.plane.audit_allowed(
            writer, f"{self.name}#{row.row_id}", context, context,
            {"op": "insert"},
        )
        return row

    def update(
        self,
        writer: str,
        writer_context: SecurityContext,
        row_id: int,
        values: Mapping[str, Any],
    ) -> Row:
        """Update a row: the write must satisfy writer → row flow.

        The updated row's context becomes the join of its old context and
        the writer's (the row now contains information from both).
        """
        row = self._rows.get(row_id)
        if row is None:
            raise KernelError(f"{self.name}: no row {row_id}")
        decision = self.plane.evaluate(writer_context, row.context)
        if not decision.allowed:
            self.plane.audit_denied(
                writer, f"{self.name}#{row_id}", decision.reason,
                writer_context, row.context,
            )
            raise FlowError(writer, f"{self.name}#{row_id}", decision.reason)
        row.values.update(values)
        row.context = join(row.context, writer_context)
        row.written_by = writer
        row.written_at = self._clock()
        self.plane.audit_allowed(
            writer, f"{self.name}#{row_id}", writer_context, row.context,
            {"op": "update"},
        )
        return row

    # -- reads ---------------------------------------------------------------------

    def query(
        self,
        reader: str,
        reader_context: SecurityContext,
        predicate: Optional[RowPredicate] = None,
        strict: bool = False,
    ) -> List[Row]:
        """Read matching rows the reader's context can accept.

        ``strict=True`` raises on the first matching-but-unreadable row
        instead of filtering it out.
        """
        visible: List[Row] = []
        denied = 0
        for row in self._rows.values():
            if predicate is not None and not predicate(row.values):
                continue
            if self.plane.allows(row.context, reader_context):
                visible.append(row)
            else:
                denied += 1
                self.plane.audit_denied(
                    f"{self.name}#{row.row_id}", reader,
                    "row context exceeds reader clearance",
                    row.context, reader_context,
                )
                if strict:
                    raise FlowError(
                        f"{self.name}#{row.row_id}", reader,
                        "strict query touched an unreadable row",
                    )
        if visible:
            self.plane.audit_allowed(
                self.name, reader, None, reader_context,
                {"op": "query", "rows": len(visible), "filtered": denied},
            )
        return visible

    def aggregate(
        self,
        reader: str,
        reader_context: SecurityContext,
        column: str,
        reducer: Callable[[List[float]], float],
        predicate: Optional[RowPredicate] = None,
    ) -> Optional[float]:
        """Aggregate a column over *all* matching rows (not just visible
        ones) — legal only when the reader satisfies the join of every
        contributing row's context (Concern 5 amalgamation).

        Returns None when no rows match.

        Raises:
            FlowError: reader clearance below the amalgamated context.
        """
        contributing = [
            row
            for row in self._rows.values()
            if (predicate is None or predicate(row.values))
            and isinstance(row.values.get(column), (int, float))
        ]
        if not contributing:
            return None
        amalgamated = SecurityContext.public()
        for row in contributing:
            amalgamated = join(amalgamated, row.context)
        decision = self.plane.evaluate(amalgamated, reader_context)
        if not decision.allowed:
            self.plane.audit_denied(
                self.name, reader, f"aggregate: {decision.reason}",
                amalgamated, reader_context,
            )
            raise FlowError(self.name, reader, decision.reason)
        self.plane.audit_allowed(
            self.name, reader, amalgamated, reader_context,
            {"op": "aggregate", "column": column,
             "rows": len(contributing)},
        )
        return reducer([float(row.values[column]) for row in contributing])

    def contexts_present(self) -> List[SecurityContext]:
        """Distinct row contexts (for creep analysis over the table)."""
        seen: List[SecurityContext] = []
        for row in self._rows.values():
            if row.context not in seen:
                seen.append(row.context)
        return seen
