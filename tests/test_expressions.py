"""Unit tests for the expression language."""

import pytest

from repro.core.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    Literal,
    Not,
    Or,
    col,
    compare,
    lit,
    register_udf,
    tables_referenced,
    udf,
)
from repro.exceptions import ExpressionError


ROW = {"R.num2": 60.0, "R.num3": 10.0, "S.num3": 45.0, "S.pkey": 7}


def test_literal_evaluates_to_itself():
    assert lit(42).evaluate({}) == 42


def test_column_ref_qualified_lookup():
    assert col("R.num2").evaluate(ROW) == 60.0


def test_column_ref_unqualified_resolves_unique_suffix():
    assert col("num2").evaluate(ROW) == 60.0


def test_column_ref_ambiguous_unqualified_raises():
    with pytest.raises(ExpressionError):
        col("num3").evaluate(ROW)


def test_column_ref_qualified_falls_back_to_bare_name():
    assert col("R.num2").evaluate({"num2": 5.0}) == 5.0


def test_column_ref_missing_raises():
    with pytest.raises(ExpressionError):
        col("R.missing").evaluate(ROW)


def test_comparison_operators():
    assert Comparison(">", col("R.num2"), lit(50)).evaluate(ROW)
    assert not Comparison("<", col("R.num2"), lit(50)).evaluate(ROW)
    assert Comparison("=", col("S.pkey"), lit(7)).evaluate(ROW)
    assert Comparison("!=", col("S.pkey"), lit(8)).evaluate(ROW)
    assert Comparison("<=", lit(3), lit(3)).evaluate({})
    assert Comparison(">=", lit(4), lit(3)).evaluate({})


def test_comparison_rejects_unknown_operator():
    with pytest.raises(ExpressionError):
        Comparison("~", lit(1), lit(2))


def test_arithmetic_operators():
    assert Arithmetic("+", lit(2), lit(3)).evaluate({}) == 5
    assert Arithmetic("-", lit(2), lit(3)).evaluate({}) == -1
    assert Arithmetic("*", lit(2), lit(3)).evaluate({}) == 6
    assert Arithmetic("/", lit(3), lit(2)).evaluate({}) == pytest.approx(1.5)


def test_and_or_not():
    true = Comparison(">", lit(2), lit(1))
    false = Comparison("<", lit(2), lit(1))
    assert And([true, true]).evaluate({})
    assert not And([true, false]).evaluate({})
    assert Or([false, true]).evaluate({})
    assert not Or([false, false]).evaluate({})
    assert Not(false).evaluate({})


def test_operator_overloads_build_connectives():
    true = Comparison(">", lit(2), lit(1))
    false = Comparison("<", lit(2), lit(1))
    assert (true & true).evaluate({})
    assert (true | false).evaluate({})
    assert (~false).evaluate({})


def test_and_flattening():
    a, b, c = lit(1), lit(2), lit(3)
    nested = And([And([Comparison("=", a, a), Comparison("=", b, b)]), Comparison("=", c, c)])
    assert len(nested.flattened()) == 3


def test_columns_referenced_collects_from_subtrees():
    expression = And([
        Comparison(">", col("R.num2"), lit(1)),
        Comparison(">", FunctionCall("f", (col("R.num3"), col("S.num3"))), lit(2)),
    ])
    assert expression.columns_referenced() == {"R.num2", "R.num3", "S.num3"}
    assert tables_referenced(expression) == {"R", "S"}


def test_expression_subclass_must_declare_columns_referenced():
    """The planner classifies predicates by their columns, so a node type
    that does not report them cannot be instantiated."""

    class Opaque(Expression):
        def evaluate(self, row):
            return True

        def compile(self, layout):
            return lambda row: True

    with pytest.raises(TypeError, match="columns_referenced"):
        Opaque()


def test_function_call_uses_registered_udf():
    register_udf("double_it", lambda x: 2 * x)
    assert FunctionCall("double_it", (lit(21),)).evaluate({}) == 42
    assert udf("double_it")(5) == 10


def test_function_call_unknown_udf_raises():
    with pytest.raises(ExpressionError):
        FunctionCall("no_such_udf", (lit(1),)).evaluate({})


def test_paper_benchmark_udf_registered():
    # f(x, y) must be deterministic and registered under "f".
    assert udf("f")(10.0, 45.0) == udf("f")(10.0, 45.0)


def test_compare_helper_wraps_values_and_columns():
    predicate = compare("R.num2", ">", 50)
    assert predicate.evaluate(ROW)
    assert isinstance(predicate.left, ColumnRef)
    assert isinstance(predicate.right, Literal)
