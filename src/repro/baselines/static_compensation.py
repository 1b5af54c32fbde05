"""Pre-defined (static) compensation handlers — the paper's strawman.

"Usually, the compensation handlers for a service call are pre-defined
statically on the lines of exception/fault handlers.  However, static
definition of compensation handlers is not feasible for AXML systems"
(§3.1).  This baseline implements exactly that state of the art so
experiment E2 can measure where it breaks:

* a static handler is an inverse ``<action>`` written **at definition
  time**, with whatever data values the author believed the document
  held;
* query operations have **no** handler — "traditionally, query
  operations do not need to be compensated as they do not modify data";
* handlers re-evaluate the original location paths instead of using
  logged ids.

The two failure classes the paper predicts both emerge: stale data
(the document changed since the handler was written) and uncovered
operations (lazy query materialization mutates the document with no
handler to undo it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import UpdateError
from repro.query.ast import ActionType, UpdateAction
from repro.query.parser import parse_action
from repro.query.update import apply_action
from repro.xmlstore.nodes import Document
from repro.xmlstore.serializer import canonical


@dataclass
class StaticHandler:
    """A pre-defined compensating action for one forward operation."""

    operation_key: str
    compensation_xml: str

    def action(self) -> UpdateAction:
        return parse_action(self.compensation_xml)


@dataclass
class CoverageReport:
    """How static compensation fared over a workload (experiment E2)."""

    operations: int = 0
    covered: int = 0          # a handler existed
    uncovered: int = 0        # no handler (queries, unforeseen ops)
    restored_exactly: int = 0  # state matched the pre-operation state
    wrong_state: int = 0      # handler ran but left a different state
    handler_errors: int = 0   # handler failed outright

    @property
    def coverage_rate(self) -> float:
        return self.covered / self.operations if self.operations else 1.0

    @property
    def correctness_rate(self) -> float:
        return self.restored_exactly / self.operations if self.operations else 1.0


class StaticCompensator:
    """Registry of pre-defined handlers, applied without any run-time log."""

    def __init__(self) -> None:
        self._handlers: Dict[str, StaticHandler] = {}

    def define(self, operation_key: str, compensation_xml: str) -> None:
        """Register the handler for an operation, written ahead of time."""
        self._handlers[operation_key] = StaticHandler(operation_key, compensation_xml)

    def handler_for(self, operation_key: str) -> Optional[StaticHandler]:
        return self._handlers.get(operation_key)

    @staticmethod
    def derive_handler(action: UpdateAction, document: Document) -> Optional[str]:
        """What a diligent author would write at definition time.

        Reads the *current* document to fill in old values — which is
        precisely why the handler goes stale once the document changes.
        Returns None for queries (no handler, traditionally) and for
        deletes whose data cannot be known without the run-time log when
        the target does not yet exist.
        """
        from repro.query.evaluate import evaluate_select
        from repro.xmlstore.serializer import serialize
        from repro.xmlstore.nodes import Element

        if action.action_type is ActionType.QUERY:
            return None
        if action.action_type is ActionType.INSERT:
            # Inverse: delete whatever the location+data describe.  The
            # static author cannot know the inserted node's id, so the
            # best possible handler deletes by re-evaluated path; we
            # approximate with a delete of the same location's children
            # matching the data's element name.
            first = action.data[0].text if action.data else ""
            name = first[1:].split(">", 1)[0].split(" ", 1)[0].rstrip("/") if first else "*"
            location = str(action.location).rstrip(";")
            # Narrow to the inserted element name below the target.
            var_clause = location.split(" from ", 1)[1]
            var = var_clause.split()[0]
            return (
                f'<action type="delete"><location>Select {var}/{name} from '
                f"{var_clause};</location></action>"
            )
        # delete / replace: capture the current values now.
        result = evaluate_select(action.location, document)
        nodes = [n for n in result.all_nodes() if isinstance(n, Element)]
        if not nodes:
            return None
        snapshot = serialize(nodes[0])
        location = str(action.location)
        if action.action_type is ActionType.DELETE:
            parent_location = _parent_location(location)
            return (
                f'<action type="insert"><data>{snapshot}</data>'
                f"<location>{parent_location}</location></action>"
            )
        return (
            f'<action type="replace"><data>{snapshot}</data>'
            f"<location>{location}</location></action>"
        )

    def compensate(
        self,
        operation_key: str,
        document: Document,
        pre_state: Document,
        report: CoverageReport,
    ) -> None:
        """Apply the static handler and grade the result against *pre_state*."""
        report.operations += 1
        handler = self.handler_for(operation_key)
        if handler is None:
            report.uncovered += 1
            if canonical(document) == canonical(pre_state):
                report.restored_exactly += 1
            else:
                report.wrong_state += 1
            return
        report.covered += 1
        try:
            apply_action(document, handler.action(), tolerate_missing_targets=False)
        except UpdateError:
            report.handler_errors += 1
            report.wrong_state += 1
            return
        if canonical(document) == canonical(pre_state):
            report.restored_exactly += 1
        else:
            report.wrong_state += 1


def _parent_location(location: str) -> str:
    """Append ``/..`` to every select path (the paper's §3.1 recipe)."""
    head, _, tail = location.partition(" from ")
    select_paths = head[len("Select ") :]
    patched = ", ".join(p.strip() + "/.." for p in select_paths.split(","))
    return f"Select {patched} from {tail}"
