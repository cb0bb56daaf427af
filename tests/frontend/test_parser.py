"""Unit tests for the textual loop-language parser."""

import pytest

from repro.frontend import (
    ArrayRef,
    Assign,
    BinOp,
    Compare,
    Const,
    Gather,
    If,
    Index,
    Scalar,
    Scatter,
    Unary,
    compile_loop,
)
from repro.frontend.parser import ParseError, parse_loop

SAMPLE = """
! The paper's Figure 1, in loop-language form.
loop sample
array x 60
array y 60
do i = 2, 41
    x(i) = x(i-1) + y(i-2)
    y(i) = y(i-1) + x(i-2)
end do
"""


def test_parse_figure1():
    program = parse_loop(SAMPLE)
    assert program.name == "sample"
    assert program.arrays == {"x": 60, "y": 60}
    assert program.start == 2 and program.trip == 40
    assert program.body == [
        Assign(ArrayRef("x"), BinOp("+", ArrayRef("x", -1), ArrayRef("y", -2))),
        Assign(ArrayRef("y"), BinOp("+", ArrayRef("y", -1), ArrayRef("x", -2))),
    ]


def test_parsed_program_compiles_and_matches_manual():
    program = parse_loop(SAMPLE)
    loop = compile_loop(program)
    assert not any(op.is_load for op in loop.real_ops)  # elimination fired


def test_scalars_liveout_and_precedence():
    program = parse_loop(
        """
        loop dot
        array x 40
        array y 40
        scalar q 0.0
        scalar c 2.0
        liveout q
        do i = 0, 9
            q = q + c * x(i) + y(i)
        end do
        """
    )
    assert program.scalars == {"q": 0.0, "c": 2.0}
    assert program.live_out == ["q"]
    (stmt,) = program.body
    # Precedence: q + ((c * x(i)) + ... parsed left-assoc sums of products.
    assert isinstance(stmt.expr, BinOp) and stmt.expr.op == "+"


def test_if_then_else():
    program = parse_loop(
        """
        loop cond
        array x 40
        array z 40
        scalar s 0.0
        do i = 0, 9
            if (x(i) > 1.0) then
                s = s + x(i)
            else
                z(i) = x(i) * 2.0
            end if
        end do
        """
    )
    (stmt,) = program.body
    assert isinstance(stmt, If)
    assert stmt.cond == Compare(">", ArrayRef("x"), Const(1.0))
    assert len(stmt.then) == 1 and len(stmt.orelse) == 1


def test_nested_if():
    program = parse_loop(
        """
        loop nest
        array x 40
        scalar s 0.0
        do i = 0, 9
            if (x(i) > 1.0) then
                if (x(i) > 2.0) then
                    s = s + 1.0
                end if
            end if
        end do
        """
    )
    (outer,) = program.body
    assert isinstance(outer.then[0], If)


def test_affine_subscript_shapes():
    program = parse_loop(
        """
        loop strides
        array x 400
        array z 400
        do i = 1, 8
            z(2*i+1) = x(2*i - 1) + x(i)
        end do
        """
    )
    (stmt,) = program.body
    assert stmt.target == ArrayRef("z", offset=1, stride=2)
    assert stmt.expr.left == ArrayRef("x", offset=-1, stride=2)
    assert stmt.expr.right == ArrayRef("x", offset=0, stride=1)


def test_indirect_subscript_becomes_gather_and_scatter():
    program = parse_loop(
        """
        loop indirect
        array ix 40
        array x 40
        array z 40
        do i = 0, 9
            z(ix(i)) = x(i * i)
        end do
        """
    )
    (stmt,) = program.body
    assert isinstance(stmt.target, Scatter)
    assert isinstance(stmt.expr, Gather)


def test_functions_and_unary_minus():
    program = parse_loop(
        """
        loop funcs
        array x 40
        array z 40
        do i = 0, 9
            z(i) = sqrt(abs(x(i))) + min(x(i), -x(i+1)) + max(x(i), 0.5)
        end do
        """
    )
    (stmt,) = program.body
    text = repr(stmt.expr)
    assert "sqrt" in text and "min" in text and "max" in text and "neg" in text


def test_index_expression():
    program = parse_loop(
        """
        loop idx
        array z 40
        do i = 3, 8
            z(i) = i * 0.5
        end do
        """
    )
    (stmt,) = program.body
    assert stmt.expr == BinOp("*", Index(), Const(0.5))


def test_parse_and_run_end_to_end():
    from repro.core import modulo_schedule
    from repro.machine import cydra5
    from repro.simulator import initial_state, run_pipelined, run_sequential

    program = parse_loop(SAMPLE)
    loop = compile_loop(program)
    result = modulo_schedule(loop, cydra5())
    sequential = run_sequential(program, initial_state(program))
    pipelined = run_pipelined(result.schedule, initial_state(program))
    assert all(
        abs(a - b) < 1e-9
        for a, b in zip(sequential.arrays["x"], pipelined.arrays["x"])
    )


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("", "empty"),
        ("loop a\ndo i = 0, 9\n", "end do"),
        ("loop a\narray x\n", "array NAME SIZE"),
        ("loop a\ndo i = 9, 0\nend do", "below lower"),
        ("loop a\nmystery decl\ndo i = 0, 1\nend do", "unexpected declaration"),
        ("loop a\ndo i = 0, 1\nx(i) ?\nend do", "unexpected character"),
        ("loop a\ndo i = 0, 1\nx(i)\nend do", "assignment"),
        ("loop a\ndo i = 0, 1\nif (x) then\ns = 1\nend if\nend do", "comparison"),
        ("loop a\ndo i = 0, 1\nend do\nextra", "trailing"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_loop(source)
    assert fragment in str(excinfo.value)


def test_error_carries_line_number():
    with pytest.raises(ParseError) as excinfo:
        parse_loop("loop a\narray x\ndo i = 0, 1\nend do")
    assert "line 2" in str(excinfo.value)


_HUGE = "9" * 5000  # past int()'s default digit limit


@pytest.mark.parametrize(
    "source,line,fragment",
    [
        ("loop a\narray x x64\ndo i = 0, 1\nend do", 2, "invalid array size 'x64'"),
        ("loop a\nscalar s abc\ndo i = 0, 1\nend do", 2, "invalid scalar value 'abc'"),
        (f"loop a\ndo i = {_HUGE}, 1\nend do", 2, "invalid loop bound"),
        (f"loop a\ndo i = 0, {_HUGE}\nend do", 2, "invalid loop bound"),
        ("loop a\ndo i = 0, 1\nx(i) = x(i-1) + $\nend do", 3, "unexpected character '$'"),
    ],
    ids=["array-size", "scalar-value", "loop-start", "loop-end", "lexer"],
)
def test_bad_literals_raise_located_parse_errors(source, line, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_loop(source)
    assert excinfo.value.line == line
    assert fragment in str(excinfo.value)
