from fractions import Fraction

import pytest

from flagforms.exprs import (
    BundleRef,
    ChernSym,
    Lit,
    MAX_DEPTH,
    ParseError,
    chern_symbols,
    degrees,
    evaluate,
    parse,
    to_text,
)


def test_parse_chern_product_expression():
    node = parse("c1(Q1)^2 * c2(Q1)^2")
    assert degrees(node) == {6}
    syms = chern_symbols(node)
    assert syms == [(1, BundleRef("Q", 1)), (2, BundleRef("Q", 1))]


def test_parse_rational_literal():
    node = parse("3/4")
    assert node == Lit(Fraction(3, 4))
    node = parse("2*c1(E) - 1/2")
    assert degrees(node) == {1, 0}


def test_parse_quotient_bundle():
    node = parse("c1(U2/U1)")
    assert node == ChernSym(1, BundleRef("UQ", 2, 1))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("(c1(E) + 1")
    with pytest.raises(ParseError):
        parse("c1(X1)")
    with pytest.raises(ParseError):
        parse("c(E)")
    with pytest.raises(ParseError):
        parse("c1(E))")


def test_roundtrip_stability():
    for text in [
        "c1(Q1)^2*c2(Q1)^2",
        "(c1(E) + 2)*c2(U1) - 3/7",
        "c1(U2/U1)^3",
        "1 - c2(E)",
    ]:
        once = parse(text)
        again = parse(to_text(once))
        assert once == again


def test_evaluate_in_fraction_ring():
    node = parse("(1 + 2)^2 * 1/3 - 1")
    val = evaluate(node, const=lambda q: q, chern=None)
    assert val == Fraction(2)


def test_degrees_of_power():
    assert degrees(parse("c2(E)^3")) == {6}
    assert degrees(parse("c1(E)*c2(E) + c3(E)")) == {3}


def _nested(depth):
    # every level a sum, raised and multiplied: three nodes per parenthesis
    return "(" * depth + "c1(E)" + " + c1(E))^1*1" * depth


def test_nesting_up_to_the_limit_parses_and_evaluates():
    node = parse("(" * MAX_DEPTH + "c1(E)" + ")" * MAX_DEPTH)
    assert node == parse("c1(E)")
    node = parse(_nested(MAX_DEPTH))
    assert degrees(node) == {1}
    assert chern_symbols(node) == [(1, BundleRef("E"))] * (MAX_DEPTH + 1)
    assert evaluate(node, const=lambda q: q, chern=lambda j, ref: Fraction(1)) == MAX_DEPTH + 1


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1200, 10**4])
def test_deeper_nesting_is_a_parse_error(depth):
    for text in ("(" * depth + "c1(E)" + ")" * depth, _nested(depth)):
        with pytest.raises(ParseError, match="nested too deeply") as info:
            parse(text)
        assert info.value.pos == MAX_DEPTH  # the first parenthesis too many
