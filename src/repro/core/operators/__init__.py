"""Node-local operator state that the executor's pipeline calls into.

PIER's operators push rows through an operator graph (paper Section 3.3).
In this reproduction that graph is :mod:`repro.core.opgraph`, compiled to
closures over slotted rows and run by :mod:`repro.core.executor`; scans,
selections, projections and joins are closures and executor runners, not
classes.  What remains here is the one piece of operator *state* the
pipeline keeps across rows: hash grouping with decomposable aggregates,
used for partial aggregation, in-network combining and final merging.
"""

from repro.core.operators.aggregate import (
    AGGREGATE_FUNCTIONS,
    AggregateState,
    GroupByAggregate,
    make_aggregate,
)

__all__ = [
    "GroupByAggregate",
    "AggregateState",
    "AGGREGATE_FUNCTIONS",
    "make_aggregate",
]
