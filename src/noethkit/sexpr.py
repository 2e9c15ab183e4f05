"""S-expression grammar for spaces, points, and set expressions.

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

Ordinals appear as single tokens in the compact syntax, e.g. w^2*3+w+1.
Every printer emits a form the corresponding parser accepts verbatim.
"""

from __future__ import annotations

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
    head included: the one argument-count check of the grammars."""
    if isinstance(expr, list) and len(expr) == shape.count(" ") + 1:
        return expr
    raise SexprError("expected %s%s, got %r"
                     % (shape, " in " + within if within else "", expr))


def _form(expr, forms: dict, parse):
    """A fixed-arity form; `forms` maps its head to its constructor, its shape
    and which arguments are ordinals (ORD); `parse` reads the others."""
    make, shape, ordinals = forms[expr[0]]
    return make(*[_ordinal(x) if ordinal else parse(x)
                  for ordinal, x in zip(ordinals, shaped(expr, shape)[1:])])


def _by_head(*forms) -> dict:
    table = {}
    for make, shape in forms:
        head, *args = shape[1:-1].split()
        table[head] = (make, shape, tuple(arg == "ORD" for arg in args))
    return table


def _names(items, form: str) -> list:
    if list in map(type, items):
        raise SexprError("%s takes names, got %r" % (form, items))
    return items


def _ordinal(tok) -> Ordinal:
    if not isinstance(tok, str):
        raise SexprError("expected an ordinal token, got %r" % (tok,))
    return parse_ordinal(tok)


def ordinal_token(a: Ordinal) -> str:
    return format_ordinal(a).replace(" ", "")


# -- spaces -------------------------------------------------------------------


def parse_space(expr) -> sp.SpaceExpr:
    if isinstance(expr, str) and expr != "nat":
        expr = read(expr)
    if expr == "nat":
        return sp.Nat()
    head = _head(expr, "space")
    if head in _SPACE_FORMS:
        return _form(expr, _SPACE_FORMS, parse_space)
    if head == "fin":
        return sp.discrete(*_names(expr[1:], "(fin ...)"))
    if head == "qo":
        elems, pairs = [], []
        for part in expr[1:]:
            sub = _head(part, "qo part")
            if sub == "elems":
                elems = _names(part[1:], "(elems ...)")
            elif sub == "leq":
                pairs = [tuple(_names(shaped(p, "(x y)", "(leq ...)"),
                                      "(leq ...)")) for p in part[1:]]
            else:
                raise SexprError("unknown qo part %r" % sub)
        return sp.finite_qo(elems, pairs)
    raise SexprError("unknown space constructor %r" % head)


def print_space(space: sp.SpaceExpr) -> str:
    if isinstance(space, sp.FiniteQO):
        if all(space.holds(x, y) == (x == y)
               for x in space.elements for y in space.elements):
            return "(fin %s)" % " ".join(space.elements)
        pairs = sorted((x, y) for (x, y) in space.leq if x != y)
        return "(qo (elems %s) (leq %s))" % (
            " ".join(space.elements),
            " ".join("(%s %s)" % p for p in pairs))
    if isinstance(space, sp.Nat):
        return "nat"
    if isinstance(space, sp.Sum):
        return "(sum %s %s)" % (print_space(space.left), print_space(space.right))
    if isinstance(space, sp.Product):
        return "(prod %s %s)" % (print_space(space.left), print_space(space.right))
    if isinstance(space, sp.Words):
        return "(words %s)" % print_space(space.base)
    if isinstance(space, sp.Trees):
        return "(trees %s)" % print_space(space.base)
    if isinstance(space, sp.OrdWords):
        return "(ordwords %s %s)" % (print_space(space.base),
                                     ordinal_token(space.alpha))
    if isinstance(space, sp.OrdTrees):
        return "(ordtrees %s %s)" % (print_space(space.base),
                                     ordinal_token(space.alpha))
    raise SexprError("not a space: %r" % (space,))


# -- points -------------------------------------------------------------------


def parse_point(expr) -> sp.PointTerm:
    if isinstance(expr, str):
        if expr.isdecimal():
            return sp.NatVal(_natural(expr))
        if "(" in expr:
            return parse_point(read(expr))
        return sp.Atom(expr)
    head = _head(expr, "point")
    if head in _POINT_FORMS:
        return _form(expr, _POINT_FORMS, parse_point)
    if head == "nat":
        _, n = shaped(expr, "(nat N)")
        if not isinstance(n, str) or not n.isdecimal():
            raise SexprError("expected (nat N), got %r" % (expr,))
        return sp.NatVal(_natural(n))
    if head == "word":
        return sp.Word(tuple(parse_point(e) for e in expr[1:]))
    if head == "tree":
        _, label = shaped(expr[:2], "(tree label)")
        return sp.TreeNode(parse_point(label),
                           tuple(parse_point(e) for e in expr[2:]))
    if head == "ordword":
        return sp.ord_word(_run(e, "(ordword ...)") for e in expr[1:])
    if head == "ordtree":
        _, label = shaped(expr[:2], "(ordtree label)")
        return sp.OrdTreeNode(parse_point(label), sp.ord_word(
            _run(e, "(ordtree ...)") for e in expr[2:]))
    raise SexprError("unknown point constructor %r" % head)


def _natural(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's digit limit for int()
        raise SexprError("number of %d digits is too long" % len(digits)) \
            from None


def _run(expr, within: str):
    _, count = shaped(expr, "(letter ORD)", within)
    return parse_point(expr[0]), _ordinal(count)


def print_point(p: sp.PointTerm) -> str:
    if isinstance(p, sp.Atom):
        return p.name
    if isinstance(p, sp.NatVal):
        return str(p.n)
    if isinstance(p, sp.Pair):
        return "(pair %s %s)" % (print_point(p.left), print_point(p.right))
    if isinstance(p, sp.InL):
        return "(inl %s)" % print_point(p.value)
    if isinstance(p, sp.InR):
        return "(inr %s)" % print_point(p.value)
    if isinstance(p, sp.Word):
        return "(word%s)" % "".join(" " + print_point(x) for x in p.letters)
    if isinstance(p, sp.TreeNode):
        return "(tree %s%s)" % (print_point(p.label),
                                "".join(" " + print_point(c) for c in p.children))
    if isinstance(p, sp.OrdWord):
        return "(ordword%s)" % "".join(
            " (%s %s)" % (print_point(x), ordinal_token(c))
            for x, c in p.segments)
    if isinstance(p, sp.OrdTreeNode):
        return "(ordtree %s%s)" % (print_point(p.label), "".join(
            " (%s %s)" % (print_point(t), ordinal_token(c))
            for t, c in p.children.segments))
    raise SexprError("not a point: %r" % (p,))


# -- set expressions ----------------------------------------------------------


def parse_set(expr) -> TUnion[S.OpenExpr, S.ClosedExpr]:
    if isinstance(expr, str):
        expr = read(expr)
    head = _head(expr, "set")
    if head in _SET_FORMS:
        return _form(expr, _SET_FORMS, parse_set)
    if head in _SET_LISTS:
        return _SET_LISTS[head](tuple(parse_set(e) for e in expr[1:]))
    if head == "up":
        return S.UpClosure(tuple(parse_point(e) for e in expr[1:]))
    if head == "down":
        return S.DownClosure(tuple(parse_point(e) for e in expr[1:]))
    if head == "base":
        return S.BaseOpen(frozenset(_names(expr[1:], "(base ...)")))
    raise SexprError("unknown set constructor %r" % head)


# Fixed-arity forms by head, and set constructors of any number of sets.
_SPACE_FORMS = _by_head((sp.Sum, "(sum S T)"), (sp.Product, "(prod S T)"),
                        (sp.Words, "(words S)"), (sp.Trees, "(trees S)"),
                        (sp.OrdWords, "(ordwords S ORD)"),
                        (sp.OrdTrees, "(ordtrees S ORD)"))
_POINT_FORMS = _by_head((sp.Pair, "(pair p q)"), (sp.InL, "(inl p)"),
                        (sp.InR, "(inr p)"))
_SET_FORMS = _by_head(
    (S.Empty, "(empty)"), (S.Whole, "(whole)"), (S.EmptyC, "(emptyc)"),
    (S.WholeC, "(wholec)"), (S.Rect, "(rect u v)"),
    (S.SumOpen, "(sumopen u v)"), (S.ConcatUp, "(concatup u v)"),
    (S.TreeOpen, "(treeopen u v)"), (S.Triangle, "(tri ORD u)"),
    (S.RTimes, "(rtimes c u)"), (S.Power, "(pow c ORD)"),
    (S.PrefixConcat, "(prefix u v)"), (S.UpSubstructure, "(upsub u)"),
    (S.CarrierOpen, "(carrier c)"), (S.ComplementOf, "(compl u)"),
    (S.AtMostOne, "(amo c)"))
_SET_LISTS = {"union": S.Union, "inter": S.Intersect, "wordopen": S.WordOpen,
              "unionc": S.UnionC, "interc": S.IntersectC,
              "ordprod": S.OrdProduct}


def print_set(s) -> str:
    if isinstance(s, S.Empty):
        return "(empty)"
    if isinstance(s, S.Whole):
        return "(whole)"
    if isinstance(s, S.Union):
        return "(union%s)" % "".join(" " + print_set(p) for p in s.parts)
    if isinstance(s, S.Intersect):
        return "(inter%s)" % "".join(" " + print_set(p) for p in s.parts)
    if isinstance(s, S.UpClosure):
        return "(up%s)" % "".join(" " + print_point(p) for p in s.points)
    if isinstance(s, S.BaseOpen):
        return "(base%s)" % "".join(" " + n for n in sorted(s.names))
    if isinstance(s, S.Rect):
        return "(rect %s %s)" % (print_set(s.left), print_set(s.right))
    if isinstance(s, S.SumOpen):
        return "(sumopen %s %s)" % (print_set(s.left), print_set(s.right))
    if isinstance(s, S.WordOpen):
        return "(wordopen%s)" % "".join(" " + print_set(p) for p in s.parts)
    if isinstance(s, S.ConcatUp):
        return "(concatup %s %s)" % (print_set(s.left), print_set(s.right))
    if isinstance(s, S.TreeOpen):
        return "(treeopen %s %s)" % (print_set(s.root_open),
                                     print_set(s.children_open))
    if isinstance(s, S.Triangle):
        return "(tri %s %s)" % (ordinal_token(s.beta), print_set(s.inner))
    if isinstance(s, S.RTimes):
        return "(rtimes %s %s)" % (print_set(s.closed), print_set(s.inner))
    if isinstance(s, S.PrefixConcat):
        return "(prefix %s %s)" % (print_set(s.letters), print_set(s.rest))
    if isinstance(s, S.UpSubstructure):
        return "(upsub %s)" % print_set(s.inner)
    if isinstance(s, S.CarrierOpen):
        return "(carrier %s)" % print_set(s.closed)
    if isinstance(s, S.EmptyC):
        return "(emptyc)"
    if isinstance(s, S.WholeC):
        return "(wholec)"
    if isinstance(s, S.UnionC):
        return "(unionc%s)" % "".join(" " + print_set(p) for p in s.parts)
    if isinstance(s, S.IntersectC):
        return "(interc%s)" % "".join(" " + print_set(p) for p in s.parts)
    if isinstance(s, S.DownClosure):
        return "(down%s)" % "".join(" " + print_point(p) for p in s.points)
    if isinstance(s, S.ComplementOf):
        return "(compl %s)" % print_set(s.open)
    if isinstance(s, S.OrdProduct):
        return "(ordprod%s)" % "".join(" " + print_set(a) for a in s.atoms)
    if isinstance(s, S.AtMostOne):
        return "(amo %s)" % print_set(s.closed)
    if isinstance(s, S.Power):
        return "(pow %s %s)" % (print_set(s.closed), ordinal_token(s.beta))
    raise SexprError("not a set expression: %r" % (s,))
