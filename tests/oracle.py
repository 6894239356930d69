"""Centralized reference evaluator: the expected answer of any query.

Given a :class:`repro.core.query.QuerySpec` and the base relations it reads
(every published tuple, gathered in one place), :func:`oracle_rows` computes
the result multiset a deployment must return.  It shares nothing with the
executor's pipeline except :meth:`Expression.evaluate`, the reference
semantics of predicates and derived columns:

* local predicates are evaluated per table on the published dict;
* rows are qualified (``R.pkey``) and, for joins, hash-joined on the equi-join
  columns, then filtered by the residual predicate;
* aggregates are computed directly from the grouped values (exact functions
  only: ``count``, ``sum``, ``avg``, ``min``, ``max``, ``count_distinct``),
  then derived columns are added and HAVING is applied;
* the output list projects the result.

It is the generalization of ``JoinWorkload.expected_results()`` (the fig-3
query only) to selections, every join strategy, residuals, GROUP BY/HAVING,
derived columns and exact aggregates.  Use :func:`assert_same_rows` to
compare a deployment's rows with it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.query import AggregateSpec, QuerySpec
from repro.core.tuples import merge_rows, project_row, qualify

Row = Dict[str, Any]


#: Exact aggregate functions over one group's non-``None`` input values.
_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "count": len,
    "count_distinct": lambda values: len(set(values)),
    "sum": lambda values: sum(values) if values else None,
    "avg": lambda values: sum(values) / len(values) if values else None,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
}


def _selected(query: QuerySpec, alias: str,
              relations: Mapping[str, Iterable[Row]]) -> List[Row]:
    """Qualified rows of one table that pass its local predicate."""
    relation = query.table(alias).relation
    predicate = query.local_predicates.get(alias)
    return [qualify(alias, row) for row in relations[relation.name]
            if predicate is None or predicate.evaluate(row)]


def _joined(query: QuerySpec,
            relations: Mapping[str, Iterable[Row]]) -> List[Row]:
    join = query.join
    assert join is not None
    right_key = f"{join.right_alias}.{join.right_column}"
    by_key: Dict[Any, List[Row]] = {}
    for row in _selected(query, join.right_alias, relations):
        by_key.setdefault(row[right_key], []).append(row)
    left_key = f"{join.left_alias}.{join.left_column}"
    residual = query.post_join_predicate
    merged = []
    for left in _selected(query, join.left_alias, relations):
        for right in by_key.get(left[left_key], ()):
            row = merge_rows(left, right)
            if residual is None or residual.evaluate(row):
                merged.append(row)
    return merged


def _aggregate(query: QuerySpec, rows: List[Row]) -> List[Row]:
    groups: Dict[Tuple[Any, ...], List[Row]] = {}
    for row in rows:
        key = tuple(row[column] for column in query.group_by)
        groups.setdefault(key, []).append(row)
    results = []
    for key, members in groups.items():
        out: Row = dict(zip(query.group_by, key))
        for aggregate in query.aggregates:
            out[aggregate.alias] = _aggregate_value(aggregate, members)
        for alias, expression in query.derived_columns.items():
            out[alias] = expression.evaluate(out)
        if query.having is None or query.having.evaluate(out):
            results.append(out)
    return results


def _aggregate_value(aggregate: AggregateSpec, members: List[Row]) -> Any:
    if aggregate.column is None:
        return len(members)  # count(*)
    function = _AGGREGATES.get(aggregate.function.lower())
    if function is None:
        raise ValueError(f"the oracle computes exact aggregates only, "
                         f"not {aggregate.function!r}")
    values = [row.get(aggregate.column) for row in members]
    return function([value for value in values if value is not None])


def oracle_rows(query: QuerySpec,
                relations: Mapping[str, Iterable[Row]]) -> List[Row]:
    """The result multiset of ``query`` over ``relations``.

    ``relations`` maps each relation *name* the query reads to all of its
    base tuples (plain dicts, as published).
    """
    if query.is_join:
        rows = _joined(query, relations)
    else:
        rows = _selected(query, query.tables[0].alias, relations)
    if query.is_aggregation:
        return _aggregate(query, rows)
    if query.output_columns:
        return [project_row(row, query.output_columns) for row in rows]
    return rows


def all_rows(rows_by_node: Mapping[int, Sequence[Row]]) -> List[Row]:
    """Flatten a ``{publisher: rows}`` placement into one relation."""
    return [row for rows in rows_by_node.values() for row in rows]


def _canonical(row: Row) -> Tuple[Tuple[str, Any], ...]:
    # Partial sums merged in a different order may differ in the last bits.
    return tuple(sorted(
        (name, round(value, 9) if isinstance(value, float) else value)
        for name, value in row.items()
    ))


def assert_same_rows(actual: Iterable[Row], expected: Iterable[Row]) -> None:
    """Assert two row multisets are equal (floats compared to 1e-9)."""
    got = Counter(_canonical(row) for row in actual)
    want = Counter(_canonical(row) for row in expected)
    missing = want - got
    extra = got - want
    assert not missing and not extra, (
        f"{sum(missing.values())} expected rows missing, e.g. "
        f"{list(missing)[:3]}; {sum(extra.values())} unexpected rows, e.g. "
        f"{list(extra)[:3]}"
    )
