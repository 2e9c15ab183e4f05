"""S-expression grammar for spaces, points, set expressions and functors.

Spaces:   (fin a b) | (qo (elems a b) (leq (a b) ...)) | nat | (sum S T)
          | (prod S T) | (words S) | (trees S) | (ordwords S ORD)
          | (ordtrees S ORD)
Points:   a | 5 | (nat 5) | (pair p q) | (inl p) | (inr p) | (word p ...)
          | (tree label child ...) | (ordword (letter ORD) ...)
          | (ordtree label (child ORD) ...)
Opens:    (empty) | (whole) | (union u ...) | (inter u ...) | (up p ...)
          | (base a b) | (rect u v) | (sumopen u v) | (wordopen u ...)
          | (concatup u v) | (treeopen u v) | (tri ORD u) | (rtimes c u)
          | (prefix u v) | (upsub u) | (carrier c)
Closeds:  (emptyc) | (wholec) | (unionc c ...) | (interc c ...)
          | (down p ...) | (compl u) | (ordprod atom ...)
          with atoms (amo c) | (pow c ORD)
Functors: unit | id | (fin a b) | (const S) | (sum F G) | (prod F G)
          | (list F) | (mu F)  (their rows are in `inductive`)

Names (a, b, ... in fin, elems, leq and base) may not be numerals: a
decimal token is the natural number point.  Ordinals appear as single
tokens in the compact syntax, e.g. w^2*3+w+1.  Every printed form parses
back to the same term.

The three entry points `parse_space`, `parse_point` and `parse_set`
remember the texts they parsed, up to PARSE_MEMO_SIZE each: equal texts
give the same term object, shared by every caller, which is safe because
terms are frozen values.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache, wraps
from operator import attrgetter
from typing import Union as TUnion

from . import sets as S
from . import space as sp
from .ordinal import Ordinal, format_ordinal, parse_ordinal


class SexprError(ValueError):
    def __init__(self, msg: str, pos: int = -1, text: str = ""):
        if pos >= 0 and text:
            line = text.count("\n", 0, pos) + 1
            column = pos - (text.rfind("\n", 0, pos) + 1) + 1
            msg = "%s (line %d, column %d)" % (msg, line, column)
        elif pos >= 0:
            msg = "%s (at offset %d)" % (msg, pos)
        super().__init__(msg)
        self.pos = pos


# -- reader -------------------------------------------------------------------


def read(text: str):
    """Parse one s-expression into nested lists of token strings."""
    if text.isalnum():  # one token, as most point texts are: no scan needed
        return text
    tokens = _tokenize(text)
    try:
        expr, rest = _read_expr(tokens, 0)
        if rest != len(tokens):
            raise SexprError("trailing input", tokens[rest][1])
    except SexprError as exc:
        if exc.pos >= 0:
            raise SexprError(str(exc).split(" (")[0], exc.pos, text) from None
        raise
    return expr


# Deeper forms are syntax errors: parsing and evaluation recurse per level.
MAX_NESTING = 100


def _tokenize(text: str):
    tokens = []
    depth = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            depth += 1 if ch == "(" else -1
            if depth > MAX_NESTING:
                raise SexprError("nesting deeper than %d levels" % MAX_NESTING,
                                 i, text)
            tokens.append((ch, i))
            i += 1
        else:
            start = i
            while i < len(text) and not text[i].isspace() and text[i] not in "()":
                i += 1
            tokens.append((text[start:i], start))
    return tokens


def _read_expr(tokens, i):
    if i >= len(tokens):
        raise SexprError("unexpected end of input")
    tok, pos = tokens[i]
    if tok == "(":
        items = []
        i += 1
        while i < len(tokens) and tokens[i][0] != ")":
            item, i = _read_expr(tokens, i)
            items.append(item)
        if i >= len(tokens):
            raise SexprError("missing ')'", pos)
        return items, i + 1
    if tok == ")":
        raise SexprError("unexpected ')'", pos)
    return tok, i + 1


def _head(expr, what: str) -> str:
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
        raise SexprError("expected a (%s ...) form, got %r" % (what, expr))
    return expr[0]


def shaped(expr, shape: str, within: str = "") -> list:
    """expr, checked to have as many items as its shape such as "(pair p q)",
    head included: the one argument-count check of the hand-written forms."""
    if isinstance(expr, list) and len(expr) == shape.count(" ") + 1:
        return expr
    raise SexprError("expected %s%s, got %r"
                     % (shape, " in " + within if within else "", expr))


def _name(tok) -> str:
    if isinstance(tok, str) and not tok.isdecimal():
        return tok
    raise SexprError("expected a name that is not a numeral, got %r" % (tok,))


def _ordinal(tok) -> Ordinal:
    if not isinstance(tok, str):
        raise SexprError("expected an ordinal token, got %r" % (tok,))
    return parse_ordinal(tok)


def ordinal_token(a: Ordinal) -> str:
    return format_ordinal(a).replace(" ", "")


# Texts each entry point remembers, least recently used first out.
PARSE_MEMO_SIZE = 4096


def memo_by_text(parse):
    """`parse` as an entry point, memoised on text: a str argument is read
    (`read`) and looked up among the last PARSE_MEMO_SIZE texts, so equal
    texts give one shared term, and an already-read list is parsed afresh.
    `parse` itself sees a str only as one token of a read form.  A text
    that fails to parse raises on every call and is not stored."""
    table = lru_cache(maxsize=PARSE_MEMO_SIZE)(lambda text: parse(read(text)))

    @wraps(parse)
    def entry(expr):
        return table(expr) if isinstance(expr, str) else parse(expr)
    entry.cache_info = table.cache_info
    entry.cache_clear = table.cache_clear
    return entry


# -- grammar tables -------------------------------------------------------------
#
# A row (class, shape) states one constructor: its head and, in field order,
# the kind of each field.  A trailing "..." makes the last field a tuple of
# any number of items of the kind before it.  The parser and the printer
# both read the rows.

# type -> printer: one per row, and by hand for the forms a shape cannot
# state (bare tokens, numerals, ordinal runs, (fin ...) and (qo ...)).
PRINTERS: dict = {}


def grammar(*rows, **kinds) -> dict:
    """The head -> row table of (class, shape) rows, whose printers it adds
    to PRINTERS; `kinds` adds field kinds to the standard ones."""
    kinds = {**_KINDS, **kinds}
    table = {}
    for cls, shape in rows:
        head, *args = shape[1:-1].split()
        rest = args[-2] if args[-1:] == ["..."] else None
        fixed = args[:-2] if rest else args
        names = [f.name for f in fields(cls)]
        assert len(names) == len(fixed) + bool(rest), shape
        table[head] = (cls, shape, [kinds[k] for k in fixed],
                       kinds[rest] if rest else None)
        PRINTERS[cls] = _row_printer(head, names[:len(fixed)],
                                     names[-1] if rest else None,
                                     rest == "NAME")
    return table


def _row_printer(head: str, fixed, rest, sort: bool):
    # Plain loops, as the printer runs on every extent point that is hashed.
    lead = "(" + head
    gets = [attrgetter(f) for f in fixed]
    items = attrgetter(rest) if rest else None

    def show(t) -> str:
        text = lead
        for get in gets:
            text += " " + print_term(get(t))
        if items:
            for x in sorted(items(t)) if sort else items(t):
                text += " " + print_term(x)
        return text + ")"
    return show


def parse_row(expr, table: dict, what: str):
    """A form of one of the table's heads, read field by field."""
    head = _head(expr, what)
    if head not in table:
        raise SexprError("unknown %s constructor %r" % (what, head))
    cls, shape, parsers, rest = table[head]
    n = len(parsers) + 1
    if len(expr) != n and not (rest and len(expr) > n):
        raise SexprError("expected %s, got %r" % (shape, expr))
    args = [parse(x) for parse, x in zip(parsers, expr[1:])]
    if rest:
        args.append(tuple(map(rest, expr[n:])))
    return cls(*args)


def print_term(t) -> str:
    """The form of a space, point, set expression or functor, which its
    parser reads back."""
    try:
        return PRINTERS[type(t)](t)
    except KeyError:
        raise SexprError("no form for %r" % (t,)) from None


print_space = print_point = print_set = print_term


# -- spaces -------------------------------------------------------------------


def _parse_space(expr) -> sp.SpaceExpr:
    if expr == "nat":
        return sp.Nat()
    head = _head(expr, "space")
    if head == "fin":
        return sp.discrete(*map(_name, expr[1:]))
    if head == "qo":
        elems, pairs = [], []
        for part in expr[1:]:
            sub = _head(part, "qo part")
            if sub == "elems":
                elems = list(map(_name, part[1:]))
            elif sub == "leq":
                pairs = [tuple(map(_name, shaped(p, "(x y)", "(leq ...)")))
                         for p in part[1:]]
            else:
                raise SexprError("unknown qo part %r" % sub)
        return sp.finite_qo(elems, pairs)
    return parse_row(expr, _SPACES, "space")


parse_space = memo_by_text(_parse_space)


def _print_qo(space: sp.FiniteQO) -> str:
    if space.is_discrete:
        return "(fin %s)" % " ".join(space.elements)
    pairs = sorted((x, y) for (x, y) in space.leq if x != y)
    return "(qo (elems %s) (leq %s))" % (
        " ".join(space.elements), " ".join("(%s %s)" % p for p in pairs))


# -- points -------------------------------------------------------------------


def _parse_point(expr) -> sp.PointTerm:
    if isinstance(expr, str):
        if expr.isdecimal():
            return sp.NatVal(_natural(expr))
        return sp.Atom(expr)
    head = _head(expr, "point")
    if head == "nat":
        _, n = shaped(expr, "(nat N)")
        if not isinstance(n, str) or not n.isdecimal():
            raise SexprError("expected (nat N), got %r" % (expr,))
        return sp.NatVal(_natural(n))
    if head == "ordword":
        return sp.ord_word(_run(e, "(ordword ...)") for e in expr[1:])
    if head == "ordtree":
        _, label = shaped(expr[:2], "(ordtree label)")
        return sp.OrdTreeNode(_parse_point(label), sp.ord_word(
            _run(e, "(ordtree ...)") for e in expr[2:]))
    return parse_row(expr, _POINTS, "point")


parse_point = memo_by_text(_parse_point)


def _natural(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's digit limit for int()
        raise SexprError("number of %d digits is too long" % len(digits)) \
            from None


def _run(expr, within: str):
    _, count = shaped(expr, "(letter ORD)", within)
    return _parse_point(expr[0]), _ordinal(count)


def _runs(w: sp.OrdWord) -> str:
    return "".join(" (%s %s)" % (print_term(x), ordinal_token(c))
                   for x, c in w.segments)


# -- set expressions ----------------------------------------------------------


def _parse_set(expr) -> TUnion[S.OpenExpr, S.ClosedExpr]:
    return parse_row(expr, _SETS, "set")


parse_set = memo_by_text(_parse_set)


# Field kinds: S spaces, p points, u opens, c closeds, atom product atoms,
# NAME a non-numeral name, ORD an ordinal token; T, q and v name a second
# field of the kind of S, p and u, as in (pair p q).  `inductive` adds F, G.
_KINDS = {"S": _parse_space, "T": _parse_space, "p": _parse_point,
          "q": _parse_point, "NAME": _name, "ORD": _ordinal,
          "u": lambda expr: parse_row(expr, _OPENS, "open"),
          "c": lambda expr: parse_row(expr, _CLOSEDS, "closed"),
          "atom": lambda expr: parse_row(expr, _ATOMS, "product atom")}
_KINDS["v"] = _KINDS["u"]

PRINTERS.update({
    str: str, Ordinal: ordinal_token, sp.FiniteQO: _print_qo,
    sp.Nat: lambda s: "nat", sp.Atom: lambda p: p.name,
    sp.NatVal: lambda p: str(p.n),
    sp.OrdWord: lambda w: "(ordword%s)" % _runs(w),
    sp.OrdTreeNode: lambda t: "(ordtree %s%s)" % (print_term(t.label),
                                                  _runs(t.children))})

_SPACES = grammar(
    (sp.Sum, "(sum S T)"), (sp.Product, "(prod S T)"),
    (sp.Words, "(words S)"), (sp.Trees, "(trees S)"),
    (sp.OrdWords, "(ordwords S ORD)"), (sp.OrdTrees, "(ordtrees S ORD)"))
_POINTS = grammar(
    (sp.Pair, "(pair p q)"), (sp.InL, "(inl p)"), (sp.InR, "(inr p)"),
    (sp.Word, "(word p ...)"), (sp.TreeNode, "(tree p q ...)"))
_OPENS = grammar(
    (S.Empty, "(empty)"), (S.Whole, "(whole)"), (S.Union, "(union u ...)"),
    (S.Intersect, "(inter u ...)"), (S.UpClosure, "(up p ...)"),
    (S.BaseOpen, "(base NAME ...)"), (S.Rect, "(rect u v)"),
    (S.SumOpen, "(sumopen u v)"), (S.WordOpen, "(wordopen u ...)"),
    (S.ConcatUp, "(concatup u v)"), (S.TreeOpen, "(treeopen u v)"),
    (S.Triangle, "(tri ORD u)"), (S.RTimes, "(rtimes c u)"),
    (S.PrefixConcat, "(prefix u v)"), (S.UpSubstructure, "(upsub u)"),
    (S.CarrierOpen, "(carrier c)"))
_CLOSEDS = grammar(
    (S.EmptyC, "(emptyc)"), (S.WholeC, "(wholec)"),
    (S.UnionC, "(unionc c ...)"), (S.IntersectC, "(interc c ...)"),
    (S.DownClosure, "(down p ...)"), (S.ComplementOf, "(compl u)"),
    (S.OrdProduct, "(ordprod atom ...)"))
_ATOMS = grammar((S.AtMostOne, "(amo c)"), (S.Power, "(pow c ORD)"))
_SETS = {**_OPENS, **_CLOSEDS, **_ATOMS}  # parse_set reads every sort
