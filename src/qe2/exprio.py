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
"""

from __future__ import annotations

from typing import Union

from .record import FrozenRecord, setfield
from .scalars import _EBOUND, QI, Scalar


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
    when the AST contains '(x)'.
    """
    if isinstance(tower_or_legs, tuple):
        legs = tower_or_legs
        tower = legs[0]
    else:
        legs = None
        tower = tower_or_legs
    if _contains_tensor(ast):
        from .hopf import TensorElement

        arity = _tensor_arity(ast)
        if legs is None:
            legs = (tower,) * arity
        if len(legs) != arity:
            raise ValueError(f"tensor arity {arity} does not match {len(legs)} legs")
        return _elab_tensor(ast, legs)
    return _elab_poly(ast, tower)


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


def _contains_tensor(ast) -> bool:
    if isinstance(ast, Tensor):
        return True
    if isinstance(ast, Sum):
        return any(_contains_tensor(t) for _, t in ast.terms)
    if isinstance(ast, Product):
        return any(_contains_tensor(f) for f in ast.factors)
    if isinstance(ast, Power):
        return _contains_tensor(ast.base)
    return False


def _tensor_arity(ast) -> int:
    if isinstance(ast, Tensor):
        return len(ast.legs)
    if isinstance(ast, Sum):
        arities = {_tensor_arity(t) for _, t in ast.terms}
        arities.discard(0)
        if len(arities) > 1:
            raise ValueError("mixed tensor arities in one expression")
        return arities.pop() if arities else 0
    return 0


def _elab_poly(ast, tower):
    from .ncalg import NCPoly

    if isinstance(ast, Lit):
        return NCPoly.constant(tower, tower.context.from_gauss(ast.value))
    if isinstance(ast, Sym):
        return _resolve_symbol(ast.name, tower)
    if isinstance(ast, Power):
        base = _elab_poly(ast.base, tower)
        return base ** ast.exponent
    if isinstance(ast, Product):
        out = None
        for f in ast.factors:
            p = _elab_poly(f, tower)
            out = p if out is None else out * p
        return out
    if isinstance(ast, Sum):
        out = NCPoly.zero(tower)
        for sign, t in ast.terms:
            p = _elab_poly(t, tower)
            out = out + p if sign > 0 else out - p
        return out
    raise TypeError(f"cannot elaborate {type(ast).__name__} as an algebra element")


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


def _elab_tensor(ast, legs):
    from .hopf import TensorElement

    if isinstance(ast, Tensor):
        polys = [_elab_poly(leg, legs[j]) for j, leg in enumerate(ast.legs)]
        return TensorElement.from_legs(legs, polys)
    if isinstance(ast, Sum):
        out = None
        for sign, t in ast.terms:
            e = _elab_tensor(t, legs)
            if out is None:
                out = e if sign > 0 else -e
            else:
                out = out + e if sign > 0 else out - e
        return out
    if isinstance(ast, Product):
        scale = None
        out = None
        for f in ast.factors:
            if _contains_tensor(f):
                e = _elab_tensor(f, legs)
                out = e if out is None else out * e
            else:
                p = _elab_poly(f, legs[0])
                s = p.as_scalar()
                if s is None:
                    raise ValueError(
                        "a non-scalar factor cannot multiply a tensor term"
                    )
                scale = s if scale is None else scale * s
        if out is None:
            raise ValueError("tensor product expected")
        return out.scale(scale) if scale is not None else out
    raise TypeError(f"cannot elaborate {type(ast).__name__} as a tensor")


# -- canonical printing ----------------------------------------------------------


def format_canonical(x) -> str:
    """Deterministic text for NCPoly and TensorElement values.

    Monomials are ordered by (total signed degree, exponent tuple); the
    output parses back to the same normal form whenever every coefficient
    has a monomial denominator.
    """
    from .ncalg import NCPoly

    if isinstance(x, NCPoly):
        if x.is_zero():
            return "0"
        names = [g.name for g in x.tower.generators]
        items = sorted(x.terms.items(), key=lambda kv: _mono_key(kv[0]))
        return _join_terms(
            (coeff, _mono_text(mono, names)) for mono, coeff in items
        )
    # imported only here, so that printing an NCPoly never loads the tensor layer
    from .hopf import TensorElement

    if isinstance(x, TensorElement):
        if x.is_zero():
            return "0"
        names_per_leg = [[g.name for g in t.generators] for t in x.legs]
        items = sorted(
            x.terms.items(), key=lambda kv: tuple(_mono_key(m) for m in kv[0])
        )
        rendered = []
        for monos, coeff in items:
            legtexts = [
                _mono_text(m, names_per_leg[j]) for j, m in enumerate(monos)
            ]
            rendered.append((coeff, " (x) ".join(legtexts)))
        return _join_terms(rendered)
    raise TypeError(f"cannot format {type(x).__name__}")


def _mono_key(mono):
    return (sum(mono), mono)


def _mono_text(mono, names) -> str:
    parts = []
    for j, e in enumerate(mono):
        if e == 0:
            continue
        if e == 1:
            parts.append(names[j])
        else:
            parts.append(f"{names[j]}^{e}")
    return "*".join(parts) if parts else "1"


def _join_terms(pairs) -> str:
    chunks = []
    for coeff, mono_text in pairs:
        neg = coeff.lead_is_negative()
        c = -coeff if neg else coeff
        if mono_text == "1":
            body = c.text() if _is_atomic_scalar_text(c) else f"({c.text()})"
        elif c.is_one():
            body = mono_text
        else:
            ct = c.text()
            if not _is_atomic_scalar_text(c):
                ct = f"({ct})"
            body = f"{ct}*{mono_text}"
        chunks.append(("-" if neg else "+", body))
    sign0, body0 = chunks[0]
    out = body0 if sign0 == "+" else f"-{body0}"
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def _is_atomic_scalar_text(s) -> bool:
    """True when s.text() can be used as a product factor without parens."""
    if len(s.num) > 1:
        return False
    t = s.text()
    return "+" not in t and " - " not in t and "(" not in t
