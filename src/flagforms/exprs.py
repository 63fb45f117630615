"""Parser and AST for polynomial expressions in Chern classes of bundles.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | 'c' nat '(' bundle ')' | '(' expr ')'
    bundle := 'E' | 'U' nat | 'U' nat '/' 'U' nat | 'Q' nat

Bundle references are resolved against a declared dimension sequence
elsewhere; the parser only checks shape.  Parentheses nest at most
``MAX_DEPTH`` deep; deeper input is a ParseError.
"""

from dataclasses import dataclass
from fractions import Fraction


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True)
class BundleRef:
    kind: str  # "E", "U", "UQ" (quotient U_a/U_b), "Q"
    a: int = 0
    b: int = 0


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class ChernSym:
    j: int
    bundle: BundleRef


@dataclass(frozen=True)
class Sum:
    items: tuple  # of (sign, node) with sign in {+1, -1}


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


# -- lexer ---------------------------------------------------------------

_OPS = set("+-*^()/,")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUM", int(text[i:j]), i))
            i = j
            continue
        if ch in "cUQ":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"expected an index after '{ch}'", i)
            tokens.append((ch, int(text[i + 1 : j]), i))
            i = j
            continue
        if ch == "E":
            tokens.append(("E", None, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


#: most parentheses an expression may nest; the parser and the walkers
#: recurse per level, and this keeps them within Python's recursion limit
MAX_DEPTH = 248


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse_expr(self):
        items = [(1, self.parse_term())]
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            items.append((1 if op == "+" else -1, self.parse_term()))
        return Sum(tuple(items)) if len(items) > 1 or items[0][0] < 0 else items[0][1]

    def parse_term(self):
        """Factors, each an atom with an optional '^' exponent, joined by
        '*'; one frame per term, so a parenthesis costs three."""
        factors = []
        while True:
            factors.append(self.parse_atom())
            if self.peek()[0] == "^":
                self.next()
                factors[-1] = Power(factors[-1], self.expect("NUM")[1])
            if self.peek()[0] != "*":
                return Product(tuple(factors)) if len(factors) > 1 else factors[0]
            self.next()

    def parse_atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "NUM":
            if self.peek()[0] == "/" and self.tokens[self.pos + 1][0] == "NUM":
                self.next()
                denom = self.next()[1]
                if denom == 0:
                    raise ParseError("zero denominator", pos)
                return Lit(Fraction(value, denom))
            return Lit(Fraction(value))
        if kind == "c":
            self.expect("(")
            bundle = self.parse_bundle()
            self.expect(")")
            return ChernSym(value, bundle)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError("expression nested too deeply", pos)
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {kind!r}", pos)

    def parse_bundle(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "E":
            return BundleRef("E")
        if kind == "U":
            if self.peek()[0] == "/":
                self.next()
                tok2 = self.next()
                if tok2[0] != "U":
                    raise ParseError("expected 'U<index>' after '/'", tok2[2])
                return BundleRef("UQ", a=value, b=tok2[1])
            return BundleRef("U", a=value)
        if kind == "Q":
            return BundleRef("Q", a=value)
        raise ParseError(f"unknown bundle symbol {kind!r}", pos)


def parse(text):
    """Parse an expression; raises ParseError with position on bad input."""
    p = _Parser(text)
    node = p.parse_expr()
    tok = p.peek()
    if tok[0] != "END":
        raise ParseError(f"trailing input {tok[0]!r}", tok[2])
    return node


# -- traversal helpers -----------------------------------------------------


def evaluate(node, const, chern):
    """Fold the AST into any commutative ring.

    ``const`` maps a Fraction to a ring element, ``chern(j, bundle_ref)``
    maps a Chern symbol.  Powers use the ring's ** operator.
    """
    if isinstance(node, Lit):
        return const(node.value)
    if isinstance(node, ChernSym):
        return chern(node.j, node.bundle)
    if isinstance(node, Sum):
        acc = None
        for sign, item in node.items:
            val = evaluate(item, const, chern)
            if sign < 0:
                val = -val
            acc = val if acc is None else acc + val
        return acc
    if isinstance(node, Product):
        acc = None
        for item in node.factors:
            val = evaluate(item, const, chern)
            acc = val if acc is None else acc * val
        return acc
    if isinstance(node, Power):
        return evaluate(node.base, const, chern) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def chern_symbols(node):
    """All (j, bundle_ref) pairs appearing in the expression, in order."""
    out = []

    def walk(n):
        if isinstance(n, ChernSym):
            out.append((n.j, n.bundle))
        elif isinstance(n, Sum):
            for _, item in n.items:
                walk(item)
        elif isinstance(n, Product):
            for item in n.factors:
                walk(item)
        elif isinstance(n, Power):
            walk(n.base)

    walk(node)
    return out


def degrees(node):
    """Set of weighted degrees of the expression (c_j has degree j).

    A singleton set means the expression is weighted-homogeneous; the empty
    set means it is identically zero as far as the parser can tell.
    """
    if isinstance(node, Lit):
        return {0} if node.value != 0 else set()
    if isinstance(node, ChernSym):
        return {node.j}
    if isinstance(node, Sum):
        out = set()
        for _, item in node.items:
            out |= degrees(item)
        return out
    if isinstance(node, Product):
        out = {0}
        for item in node.factors:
            ds = degrees(item)
            if not ds:
                return set()
            out = {a + b for a in out for b in ds}
        return out
    if isinstance(node, Power):
        return {d * node.exponent for d in degrees(node.base)}
    raise TypeError(f"not an expression node: {node!r}")


def bundle_text(ref):
    if ref.kind == "E":
        return "E"
    if ref.kind == "U":
        return f"U{ref.a}"
    if ref.kind == "UQ":
        return f"U{ref.a}/U{ref.b}"
    if ref.kind == "Q":
        return f"Q{ref.a}"
    raise ValueError(f"unknown bundle reference {ref!r}")


def to_text(node):
    """Print an AST back to parseable text."""
    if isinstance(node, Lit):
        v = node.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(node, ChernSym):
        return f"c{node.j}({bundle_text(node.bundle)})"
    if isinstance(node, Sum):
        parts = []
        for i, (sign, item) in enumerate(node.items):
            text = _wrap(item, need=isinstance(item, Sum))
            if i == 0 and sign > 0:
                parts.append(text)
            else:
                parts.append(("- " if sign < 0 else "+ ") + text)
        return " ".join(parts)
    if isinstance(node, Product):
        return "*".join(_wrap(f, need=isinstance(f, Sum)) for f in node.factors)
    if isinstance(node, Power):
        return _wrap(node.base, need=isinstance(node.base, (Sum, Product))) + f"^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


def _wrap(node, need):
    text = to_text(node)
    return f"({text})" if need else text
