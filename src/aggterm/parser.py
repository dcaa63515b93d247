"""Concrete syntax for aggregation terms.

    wmean[y in N(x)](H(y), exp, hadamard(H(x), H(y)))   neighborhood mean
    wmean[y](H(y), softplus)                            global mean
    mean[y in N(x)](H(y))                               sugar: weight one
    gcn[y in N(x)](H(y))                                degree-normalized sum
    rw(x, 4)                                            walk-return encoding
    0.5, [1, 0, 2]                                      constants

Scalars broadcast to the ambient dimension d at parse time; vector
literals must match d exactly. `#` starts a comment running to end of
line. Bare identifiers are zero-argument function calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ConfigError
from .registry import FunctionRegistry, default_registry
from .terms import (Apply, Const, Feature, GcnAgg, GlobalWMean, LocalWMean,
                    RESERVED, Rw, Term, validate_term)


class ParseError(ConfigError):
    pass


_TOKEN = re.compile(r"""
    (?P<ws>[ \t\r\n]+|\#[^\n]*)
  | (?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[()\[\],])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Tok:
    kind: str  # "num" | "ident" | "sym" | "eof"
    text: str
    line: int
    col: int


def _lex(src: str) -> list[_Tok]:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(f"{line}:{col}: unexpected character {src[pos]!r}")
        text = m.group(0)
        if m.lastgroup != "ws":
            toks.append(_Tok(m.lastgroup, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], registry: FunctionRegistry, d: int):
        self.toks = toks
        self.i = 0
        self.reg = registry
        self.d = d

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, tok: _Tok, msg: str):
        shown = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ParseError(f"{tok.line}:{tok.col}: {msg} (found {shown})")

    def expect(self, text: str) -> _Tok:
        tok = self.next()
        if tok.text != text:
            self.fail(tok, f"expected {text!r}")
        return tok

    def ident(self, what: str) -> _Tok:
        tok = self.next()
        if tok.kind != "ident":
            self.fail(tok, f"expected {what}")
        return tok

    def var(self) -> str:
        tok = self.ident("a variable name")
        if tok.text in RESERVED:
            self.fail(tok, "expected a variable name, not a keyword")
        return tok.text

    def number(self) -> tuple[float, _Tok]:
        tok = self.next()
        if tok.kind != "num":
            self.fail(tok, "expected a number")
        return float(tok.text), tok

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "num":
            val, _ = self.number()
            return Const((val,) * self.d)
        if tok.text == "[":
            return self.vector()
        if tok.kind != "ident":
            self.fail(tok, "expected a term")
        if tok.text == "H":
            self.next()
            self.expect("(")
            v = self.var()
            self.expect(")")
            return Feature(v)
        if tok.text == "rw":
            self.next()
            self.expect("(")
            v = self.var()
            self.expect(",")
            val, ntok = self.number()
            if val != int(val) or val < 1:
                self.fail(ntok, "rw needs a positive integer step count")
            self.expect(")")
            return Rw(v, int(val))
        if tok.text in ("wmean", "mean"):
            return self.wmean(sugar=(tok.text == "mean"))
        if tok.text == "gcn":
            return self.gcn()
        return self.apply()

    def vector(self) -> Const:
        open_tok = self.expect("[")
        vals = [self.number()[0]]
        while self.peek().text == ",":
            self.next()
            vals.append(self.number()[0])
        self.expect("]")
        if len(vals) != self.d:
            self.fail(open_tok, f"vector literal has {len(vals)} entries, expected {self.d}")
        return Const(tuple(vals))

    def binder(self) -> tuple[str, str | None]:
        self.expect("[")
        bound = self.var()
        anchor = None
        if self.peek().text == "in":
            self.next()
            ntok = self.ident("N")
            if ntok.text != "N":
                self.fail(ntok, "expected N")
            self.expect("(")
            anchor = self.var()
            self.expect(")")
        self.expect("]")
        return bound, anchor

    def wmean(self, sugar: bool) -> Term:
        kw = self.next()
        bound, anchor = self.binder()
        self.expect("(")
        value = self.term()
        if sugar:
            wmap, warg = "one", value
        else:
            self.expect(",")
            wtok = self.ident("a weight map name")
            entry = self.reg.entry(wtok.text) if wtok.text in self.reg else None
            if entry is None:
                self.fail(wtok, f"unknown weight map {wtok.text!r}")
            if not entry.positive:
                self.fail(wtok, f"weight map {wtok.text!r} is not flagged positive")
            wmap = wtok.text
            if self.peek().text == ",":
                self.next()
                warg = self.term()
            else:
                warg = value
        self.expect(")")
        if anchor is None:
            return GlobalWMean(bound, value, wmap, warg)
        if bound == anchor:
            self.fail(kw, f"bound variable {bound!r} cannot anchor its own neighborhood")
        return LocalWMean(bound, anchor, value, wmap, warg)

    def gcn(self) -> Term:
        kw = self.next()
        bound, anchor = self.binder()
        if anchor is None:
            self.fail(kw, "gcn needs a neighborhood binder, e.g. gcn[y in N(x)](...)")
        if bound == anchor:
            self.fail(kw, f"bound variable {bound!r} cannot anchor its own neighborhood")
        self.expect("(")
        value = self.term()
        self.expect(")")
        return GcnAgg(bound, anchor, value)

    def apply(self) -> Term:
        tok = self.next()
        if tok.text not in self.reg:
            self.fail(tok, f"unknown function {tok.text!r}")
        entry = self.reg.entry(tok.text)
        args: list[Term] = []
        if self.peek().text == "(":
            self.next()
            args.append(self.term())
            while self.peek().text == ",":
                self.next()
                args.append(self.term())
            self.expect(")")
        if entry.arity is not None and entry.arity != len(args):
            self.fail(tok, f"{tok.text} expects {entry.arity} argument(s), got {len(args)}")
        if entry.arity is None and not args:
            self.fail(tok, f"{tok.text} needs at least one argument")
        return Apply(tok.text, tuple(args))


def parse_term(src: str, d: int, registry: FunctionRegistry | None = None,
               closed: bool = False) -> Term:
    """Parse source text into a term of dimension d.

    Function names, arities, and weight-map positivity are checked against
    the registry. With closed=True, free variables are rejected.
    """
    if d < 1:
        raise ConfigError("term dimension must be >= 1")
    registry = registry if registry is not None else default_registry()
    parser = _Parser(_lex(src), registry, d)
    term = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(tok, "trailing input after term")
    validate_term(term, registry, d)
    if closed and term.free:
        raise ParseError(
            f"term must be closed but has free variables: {', '.join(term.free)}")
    return term


def _fmt(x: float) -> str:
    return repr(float(x))


def print_term(term: Term) -> str:
    """Render a term back to concrete syntax; parse(print(t)) == t."""
    if isinstance(term, Const):
        vals = term.value
        if all(v == vals[0] for v in vals):
            return _fmt(vals[0])
        return "[" + ", ".join(_fmt(v) for v in vals) + "]"
    if isinstance(term, Feature):
        return f"H({term.var})"
    if isinstance(term, Rw):
        return f"rw({term.var}, {term.kmax})"
    if isinstance(term, Apply):
        if not term.args:
            return term.fn
        return f"{term.fn}({', '.join(print_term(a) for a in term.args)})"
    if isinstance(term, LocalWMean):
        head = f"[{term.bound} in N({term.anchor})]"
        return _wmean_body(term, head)
    if isinstance(term, GlobalWMean):
        return _wmean_body(term, f"[{term.bound}]")
    if isinstance(term, GcnAgg):
        return f"gcn[{term.bound} in N({term.anchor})]({print_term(term.value)})"
    raise TypeError(f"not a term: {term!r}")


def _wmean_body(term, head: str) -> str:
    value = print_term(term.value)
    if term.weight_map == "one" and term.weight_arg == term.value:
        return f"mean{head}({value})"
    if term.weight_arg == term.value:
        return f"wmean{head}({value}, {term.weight_map})"
    return f"wmean{head}({value}, {term.weight_map}, {print_term(term.weight_arg)})"
