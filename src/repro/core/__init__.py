"""PIER core: the relational query processor (the paper's primary contribution).

The core package contains the "boxes and arrows" dataflow engine (operator
graphs in :mod:`repro.core.opgraph`, run by :mod:`repro.core.executor`,
with aggregation state in :mod:`repro.core.operators`), the relational data model
(:mod:`repro.core.tuples`, :mod:`repro.core.expressions`), the four
DHT-based distributed join strategies and query dissemination
(:mod:`repro.core.executor`, :mod:`repro.core.query`), plus the features the
paper lists as next steps and which we implement as extensions: a catalog
manager (:mod:`repro.core.catalog`), a declarative SQL front end
(:mod:`repro.core.sql`), hierarchical in-network aggregation
(:mod:`repro.core.aggregation_tree`) and continuous/windowed queries
(:mod:`repro.core.continuous`).
"""

from repro.core.tuples import Column, Schema, RelationDef
from repro.core.expressions import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Not,
    Or,
    col,
    lit,
)
from repro.core.bloom import BloomFilter
from repro.core.stats import (
    STATS_NAMESPACE,
    ColumnStats,
    RelationStats,
    StatsRegistry,
)
from repro.core.costmodel import (
    GraphCost,
    OptimizationReport,
    TopologyParams,
    bloom_parameters,
    cost_graph,
    estimate_selectivity,
    optimize_query,
)
from repro.core.query import (
    AggregateSpec,
    JoinClause,
    JoinStrategy,
    QuerySpec,
    TableRef,
)
from repro.core.executor import QueryExecutor, QueryHandle
from repro.core.opgraph import OpGraph, OpKind, OpNode, build_opgraph
from repro.core.catalog import Catalog
from repro.core.continuous import PeriodicQuery, SlidingWindowPredicate
from repro.core.sql import parse_sql, SQLPlanner

__all__ = [
    "Column",
    "Schema",
    "RelationDef",
    "Expression",
    "ColumnRef",
    "Literal",
    "Comparison",
    "And",
    "Or",
    "Not",
    "FunctionCall",
    "col",
    "lit",
    "BloomFilter",
    "QuerySpec",
    "TableRef",
    "JoinClause",
    "JoinStrategy",
    "AggregateSpec",
    "QueryExecutor",
    "QueryHandle",
    "OpGraph",
    "OpKind",
    "OpNode",
    "build_opgraph",
    "PeriodicQuery",
    "SlidingWindowPredicate",
    "Catalog",
    "parse_sql",
    "SQLPlanner",
    # statistics / optimizer
    "STATS_NAMESPACE",
    "ColumnStats",
    "RelationStats",
    "StatsRegistry",
    "GraphCost",
    "OptimizationReport",
    "TopologyParams",
    "bloom_parameters",
    "cost_graph",
    "estimate_selectivity",
    "optimize_query",
]
