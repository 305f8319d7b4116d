"""Parsing, elaboration and canonical printing of algebra expressions.

The input grammar (normative for every CLI expression argument and for
the preset files; also reproduced in docs/expression-grammar.md):

    expr   := tterm (('+'|'-') tterm)*
    tterm  := term ('(x)' term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := ident | rational | 'i' | '(' expr ')'

* '*' is mandatory between factors; juxtaposition is a syntax error.
* '(x)' is the tensor separator, binding between '*' and '+'/'-'.  It is
  recognized lexically, so a parenthesized variable literally named "x"
  cannot be written (no preset uses that name).
* A unary minus is allowed at the head of an expression and right after
  '(' (the grammar positions where an expr starts).
* '^' takes an optional sign and digits.  A negative exponent is only
  accepted on a bare symbol (invertibility is checked at elaboration).
* 'i' is the imaginary unit; rational literals look like '2' or '3/4'.
* Input limits: an exponent's magnitude stays below 2^31 (the packed
  exponent bound of the scalars), and parentheses nest at most
  MAX_NESTING levels deep.  Either excess is a GrammarError at the
  offending token, before any arithmetic.

Elaboration resolves symbols against a tower: generator names, the
barred aliases of invertible generators (``vb`` for v^-1 when v is an
invertible generator named ``v``), and declared parameters.  The result
is a normal-form NCPoly, or a TensorElement when '(x)' occurs.

Tensor expressions (docs/expression-grammar.md): tensors combine only as
sums of one arity, products and powers of tensors with the same legs,
and scalar factors, which scale a tensor.  A tensor as a leg, an algebra
element plus a tensor, a non-scalar factor times a tensor and a wrong
arity are each a ValueError, so the CLI exits 3.
"""

from __future__ import annotations

from typing import Union

from .record import FrozenRecord, setfield
from .scalars import _EBOUND, QI, Scalar, _power_text, _signed_sum


class GrammarError(ValueError):
    """Syntax error with a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at offset {position}: {message}")
        self.position = position


# -- AST -------------------------------------------------------------------


class Sym(FrozenRecord):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class Lit(FrozenRecord):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Scalar):
        setfield(self, "value", value)


class Power(FrozenRecord):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: "ExprAst", exponent: int):
        setfield(self, "base", base)
        setfield(self, "exponent", exponent)


class Product(FrozenRecord):
    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple):
        # order-preserving; multiplication is noncommutative
        setfield(self, "factors", factors)


class Tensor(FrozenRecord):
    __slots__ = _fields = ("legs",)

    def __init__(self, legs: tuple):
        setfield(self, "legs", legs)


class Sum(FrozenRecord):
    __slots__ = _fields = ("terms",)

    def __init__(self, terms: tuple):
        # of (sign, node) with sign in {+1, -1}
        setfield(self, "terms", terms)


ExprAst = Union[Sym, Lit, Power, Product, Tensor, Sum]


# -- tokenizer ---------------------------------------------------------------

_TENSOR = "(x)"


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith(_TENSOR, i):
            toks.append(("TENSOR", _TENSOR, i))
            i += 3
            continue
        if c in "+-*^()":
            toks.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise GrammarError("digits expected after '/'", j + 1)
                toks.append(("RAT", text[i:k], i))
                i = k
            else:
                toks.append(("RAT", text[i:j], i))
                i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise GrammarError(f"unexpected character {c!r}", i)
    toks.append(("EOF", "", n))
    return toks


# -- parser ------------------------------------------------------------------

MAX_NESTING = 100  # parenthesis levels; the parser recurses a few frames per level


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise GrammarError(f"expected {kind!r}", t[2])
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t[0] != "EOF":
            raise GrammarError(f"unexpected {t[1]!r}", t[2])
        return node

    def expr(self):
        terms = []
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        terms.append((sign, self.tterm()))
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            terms.append((1 if op == "+" else -1, self.tterm()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    def tterm(self):
        legs = [self.term()]
        while self.peek()[0] == "TENSOR":
            self.next()
            legs.append(self.term())
        if len(legs) == 1:
            return legs[0]
        return Tensor(tuple(legs))

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] == "*":
            self.next()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def factor(self):
        a = self.atom()
        if self.peek()[0] == "^":
            caret = self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            t = self.next()
            if t[0] != "RAT" or "/" in t[1]:
                raise GrammarError("integer exponent expected", t[2])
            # the length test keeps int() off a huge digit string
            if len(t[1]) > 10 or int(t[1]) >= _EBOUND:
                raise GrammarError(
                    f"exponent magnitude must stay below 2^31 = {_EBOUND}", t[2]
                )
            exp = sign * int(t[1])
            if exp < 0 and not isinstance(a, Sym):
                raise GrammarError(
                    "negative exponent requires a symbol base", caret[2]
                )
            return Power(a, exp)
        return a

    def atom(self):
        t = self.next()
        kind, value, pos = t
        if kind == "IDENT":
            if value == "i":
                return Lit(QI.i)
            return Sym(value)
        if kind == "RAT":
            if "/" in value:
                p, q = value.split("/")
                if not int(q):
                    raise GrammarError(f"zero denominator in {value!r}", pos)
                return Lit(QI.from_int(int(p)) / int(q))
            return Lit(QI.from_int(int(value)))
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise GrammarError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", pos
                )
            self.depth += 1
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise GrammarError(f"unexpected {value!r}" if value else "unexpected end of input", pos)


def parse_expr(text: str) -> ExprAst:
    """Parse ``text`` in the expression grammar; GrammarError carries the
    failing offset."""
    return _Parser(text).parse()


# -- elaboration ---------------------------------------------------------------


def elaborate_expr(ast: ExprAst, tower_or_legs):
    """Turn an AST into a normal-form element.

    ``tower_or_legs`` is a single OreTower, or a tuple of towers naming the
    legs of a tensor expression.  Returns an NCPoly, or a TensorElement
    when the AST contains '(x)'; a combination that the module docstring's
    "Tensor expressions" refuses raises ValueError.
    """
    if isinstance(tower_or_legs, tuple):
        return _elab(ast, tower_or_legs[0], tower_or_legs)
    return _elab(ast, tower_or_legs, None)


def parse_scalar(ctx, text: str):
    """Parse and elaborate a scalar expression over the ScalarContext
    ``ctx``: numbers, ``i`` and the context's parameters.  Raises
    GrammarError, KeyError for an unknown symbol, or ValueError for a
    tensor expression."""
    from .ncalg import NCPoly, OreTower

    p = elaborate_expr(parse_expr(text), OreTower("scalars", ctx, []))
    if not isinstance(p, NCPoly):
        raise ValueError(f"expected a scalar expression: {text!r}")
    # a tower without generators has only the unit monomial
    return p.as_scalar()


def _elab(ast, tower, legs):
    """The NCPoly of ``ast`` in ``tower``, or its TensorElement when it
    holds '(x)'; a tensor has the legs ``legs``, or copies of ``tower``
    when ``legs`` is None."""
    from .ncalg import NCPoly

    if isinstance(ast, Sym):
        return _resolve_symbol(ast.name, tower)
    if isinstance(ast, Lit):
        return NCPoly.constant(tower, tower.context.from_gauss(ast.value))
    if isinstance(ast, Power):
        return _elab(ast.base, tower, legs) ** ast.exponent
    if isinstance(ast, Product):
        out = None
        for f in ast.factors:
            x = _elab(f, tower, legs)
            if out is None:
                out = x
            elif x.__class__ is out.__class__:
                out = out * x
            else:
                # scalars are central, so a scalar factor scales the tensor
                p, out = (x, out) if isinstance(x, NCPoly) else (out, x)
                s = p.as_scalar()
                if s is None:
                    raise ValueError("a non-scalar factor cannot multiply a tensor term")
                out = out.scale(s)
        return out
    if isinstance(ast, Sum):
        out = None
        for sign, t in ast.terms:
            x = _elab(t, tower, legs)
            if sign < 0:
                x = -x
            if out is None:
                out = x
            elif x.__class__ is out.__class__:
                out = out + x
            else:
                raise ValueError("an algebra element cannot be added to a tensor")
        return out
    from .hopf import TensorElement

    if legs is None:
        legs = (tower,) * len(ast.legs)
    elif len(legs) != len(ast.legs):
        raise ValueError(f"tensor arity {len(ast.legs)} does not match {len(legs)} legs")
    polys = [_elab(leg, t, None) for leg, t in zip(ast.legs, legs)]
    if not all(isinstance(p, NCPoly) for p in polys):
        raise ValueError("a tensor cannot be a leg of a tensor")
    return TensorElement.from_legs(legs, polys)


def _resolve_symbol(name, tower):
    from .ncalg import NCPoly

    idx = tower.gen_index(name)
    if idx is not None:
        return NCPoly.generator(tower, idx)
    if name.endswith("b"):
        base = tower.gen_index(name[:-1])
        if base is not None and tower.generators[base].invertible:
            return NCPoly.generator(tower, base, -1)
    if tower.context.has_param(name):
        return NCPoly.constant(tower, tower.context.param(name))
    raise KeyError(f"unknown symbol {name!r}")


# -- canonical printing ----------------------------------------------------------


def format_canonical(x) -> str:
    """Deterministic text for NCPoly and TensorElement values; an NCPoly
    prints as a tensor with one leg.

    Terms are ordered leg by leg by (total signed degree, exponent tuple);
    the output parses back to the same normal form whenever every
    coefficient has a monomial denominator.
    """
    from .ncalg import NCPoly

    if isinstance(x, NCPoly):
        legs, items = (x.tower,), [((m,), c) for m, c in x.terms.items()]
    else:
        # imported only here, so that printing an NCPoly never loads the tensor layer
        from .hopf import TensorElement

        if not isinstance(x, TensorElement):
            raise TypeError(f"cannot format {type(x).__name__}")
        legs, items = x.legs, x.terms.items()
    if not items:
        return "0"
    names = [[g.name for g in t.generators] for t in legs]
    return _join_terms(
        (c, " (x) ".join([_mono_text(m, names[j]) for j, m in enumerate(monos)]))
        for monos, c in sorted(items, key=lambda kv: tuple(map(_mono_key, kv[0])))
    )


def _mono_key(mono):
    return (sum(mono), mono)


def _mono_text(mono, names) -> str:
    return "*".join(_power_text(names[j], e) for j, e in enumerate(mono) if e) or "1"


def _join_terms(pairs) -> str:
    chunks = []
    for coeff, mono_text in pairs:
        neg = coeff.lead_is_negative()
        c = -coeff if neg else coeff
        if c.is_one() and mono_text != "1":
            body = mono_text
        else:
            # one numerator term over a monomial is one factor as printed
            # (a Gaussian constant in it comes parenthesised already)
            ct = c.text()
            if len(c.num) > 1 or len(c.den) > 1:
                ct = f"({ct})"
            body = ct if mono_text == "1" else f"{ct}*{mono_text}"
        chunks.append((neg, body))
    return _signed_sum(chunks)
