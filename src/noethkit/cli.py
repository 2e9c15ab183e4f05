"""Batch command-line front end.

Subcommands: eval (member / includes / leq / closure queries), iterate
(refinement stages with JSON/DOT dumps), badchain, good (goodness of a
sequence file), cover (backward coverability of a JSON system), and
divisibility (unfold-order checks for a functor).

Output is a single JSON document on stdout, serialized with sorted keys so
identical invocations are byte-identical.  Exit codes: 0 success, 1 domain
error, 2 syntax error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Optional

from . import expanders as E
from . import inductive as I
from . import sets as S
from . import wsts as W
from .ordinal import OrdinalError, parse_ordinal
from .sexpr import (
    SexprError,
    parse_point,
    parse_set,
    parse_space,
    print_point,
    print_set,
)
from .space import SpaceError, point_leq


class DomainError(ValueError):
    pass


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints it as a syntax error
        raise UsageError(message)


# Expander name -> constructor from the base alphabet and the ordinal text.
EXPANDERS = {
    "div": lambda base, alpha: E.NatShiftExpander(),
    "baditer": lambda base, alpha: E.PrefixExpander(base),
    "subword": lambda base, alpha: E.SubwordExpander(base),
    "tree": lambda base, alpha: E.TreeExpander(base),
    "ordsubword": lambda base, alpha: E.OrdinalSubwordExpander(
        base, parse_ordinal(alpha)),
    "ordtree": lambda base, alpha: E.OrdinalTreeExpander(
        base, parse_ordinal(alpha)),
    "unfold-words": lambda base, alpha: I.UnfoldExpander(
        I.words_functor(base)),
    "unfold-trees": lambda base, alpha: I.UnfoldExpander(
        I.trees_functor(base)),
}


def _expander(args):
    base = parse_space("(fin %s)" % args.alphabet)
    return EXPANDERS[args.expander](base, args.alpha)


def _extent_hash(space, expr, bound: int) -> str:
    ext = S.extent(space, expr, bound)
    blob = "\n".join(print_point(p) for p in ext).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _stage_doc(stage: E.TopologyStage, bound: int) -> dict:
    return {
        "step": stage.step,
        "capped": stage.capped,
        "generators": [
            {
                "expr": print_set(g),
                "depth": str(d),
                "extent_hash": _extent_hash(stage.space, g, bound),
            }
            for g, d in stage.generators
        ],
    }


# eval query -> the kinds of its arguments.
QUERIES = {"member": ("POINT", "SET"), "includes": ("SET", "SET"),
           "leq": ("POINT", "POINT"), "closure": ("POINT",),
           "extent": ("SET",)}
PARSERS = {"POINT": parse_point, "SET": parse_set}


def cmd_eval(args) -> dict:
    kinds = QUERIES[args.query]
    extra = len(args.args) - len(kinds)
    if extra:
        raise UsageError("eval %s takes %s; %s" % (
            args.query, " ".join(kinds), "%d extra" % extra if extra > 0
            else "missing " + " ".join(kinds[extra:])))
    space = parse_space(args.space)
    values = [PARSERS[kind](text) for kind, text in zip(kinds, args.args)]
    if args.query == "member":
        return {"query": "member", "result": S.member_open(space, *values)}
    if args.query == "includes":
        r = S.includes(space, *values, args.bound)
        return {
            "query": "includes",
            "result": r.value,
            "via": r.via,
            "bound": r.bound,
            "witness": print_point(r.witness) if r.witness is not None else None,
        }
    if args.query == "leq":
        return {"query": "leq", "result": point_leq(space, *values)}
    if args.query == "closure":
        return {"query": "closure",
                "result": print_set(S.closure_point(space, values[0]))}
    points = S.extent(space, values[0], args.bound)
    return {
        "query": "extent",
        "bound": args.bound,
        "count": len(points),
        "points": [print_point(p) for p in points],
    }


def cmd_iterate(args) -> dict:
    expander = _expander(args)
    result = E.iterate(expander, args.steps, args.bound, cap=args.cap)
    doc = {
        "expander": args.expander,
        "bound": args.bound,
        "fixed_point_at": result.fixed_point_at,
        "stages": [_stage_doc(stage, args.bound) for stage in result.stages],
    }
    if args.dot_out:
        dot = E.export_dot(result.stages[-1], args.bound)
        with open(args.dot_out, "w") as handle:
            handle.write(dot)
        doc["dot_out"] = args.dot_out
    if args.json_out:
        _write_json(args.json_out, doc)
        doc["json_out"] = args.json_out
    return doc


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")


def cmd_badchain(args) -> dict:
    expander = _expander(args)
    chain = E.find_bad_chain(expander, args.length, args.bound, cap=args.cap)
    if chain is None:
        return {"expander": args.expander, "chain": None, "bound": args.bound}
    return {
        "expander": args.expander,
        "bound": args.bound,
        "chain": {
            "picks": [print_set(g) for g in chain.picks],
            "unions": [print_set(u) for u in chain.unions],
        },
    }


def cmd_good(args) -> dict:
    space = parse_space(args.space)
    with open(args.sequence) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    seq = [parse_set(line) for line in lines]
    hit = S.find_good_index(space, seq, args.bound)
    if hit is None:
        return {"good_index": None, "length": len(seq), "bound": args.bound}
    index, evidence = hit
    return {
        "good_index": index,
        "via": evidence.via,
        "bound": evidence.bound,
        "length": len(seq),
    }


def cmd_cover(args) -> dict:
    with open(args.system) as handle:
        doc = json.load(handle)
    system, init, targets = W.system_from_json(doc)
    result = W.backward_coverability(system, init, targets, fuel=args.fuel)
    out = W.result_to_json(result, fuel=args.fuel)
    if args.json_out:
        _write_json(args.json_out, out)
    return out


def cmd_divisibility(args) -> dict:
    functor = I.parse_functor(args.functor)
    size_cap = args.size_cap
    if size_cap is None and functor.has_list():
        size_cap = 2 * args.depth
    if args.check == "stability":
        ok = I.check_preorder_stability(functor, args.depth, size_cap)
        return {"check": "stability", "depth": args.depth, "stable": ok}
    expander = I.UnfoldExpander(functor)
    convert = expander.to_point
    if args.check == "embedding":
        table = I.DivisibilityTable(functor, args.depth, size_cap)
        universe = table.universe()
        mismatches = sum(
            1 for x in universe for y in universe
            if table.leq(x, y) != point_leq(expander.space, convert(x),
                                            convert(y)))
        return {
            "check": "embedding",
            "depth": args.depth,
            "universe": len(universe),
            "equal": mismatches == 0,
            "mismatches": mismatches,
        }
    if args.check == "coincidence":
        result = E.iterate(expander, args.depth, args.bound)
        oracle = S.oracle_for(expander.space, args.bound)
        table = I.DivisibilityTable(functor, args.depth + 1, size_cap)
        points = {convert(m): m for m in table.universe()}
        # Universe indices of the unfolded points, with their mu terms.
        terms = [(i, points[p]) for i, p in enumerate(oracle.universe)
                 if p in points]
        alex = [sum(1 << j for j, n in terms if table.leq(m, n))
                for _, m in terms]
        gens = [oracle.mask(g) for g in result.stages[-1].opens()]
        equal = (S.meet_table(alex, oracle.full)
                 == S.meet_table(gens, oracle.full))
        return {
            "check": "coincidence",
            "depth": args.depth,
            "bound": args.bound,
            "equal": equal,
        }
    raise DomainError("unknown divisibility check %r" % args.check)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noethkit",
        description="Symbolic workbench for Noetherian-style topologies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a membership/inclusion query")
    p.add_argument("query", choices=QUERIES)
    p.add_argument("args", nargs="+", help="query arguments (s-expressions)")
    p.add_argument("--space", required=True)
    p.add_argument("--bound", type=int, default=S.DEFAULT_BOUND)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("iterate", help="iterate a refinement rule")
    p.add_argument("expander", choices=EXPANDERS)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--bound", type=int, default=S.DEFAULT_BOUND)
    p.add_argument("--cap", type=int, default=E.DEFAULT_CAP)
    p.add_argument("--alphabet", default="a b")
    p.add_argument("--alpha", default="w*2")
    p.add_argument("--dot-out", default=None)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("badchain", help="search for a depth-increasing bad chain")
    p.add_argument("expander", choices=EXPANDERS)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--bound", type=int, default=S.DEFAULT_BOUND)
    p.add_argument("--cap", type=int, default=E.DEFAULT_CAP)
    p.add_argument("--alphabet", default="a b")
    p.add_argument("--alpha", default="w*2")
    p.set_defaults(func=cmd_badchain)

    p = sub.add_parser("good", help="least good index of a sequence of opens")
    p.add_argument("sequence", help="file with one open per line")
    p.add_argument("--space", required=True)
    p.add_argument("--bound", type=int, default=S.DEFAULT_BOUND)
    p.set_defaults(func=cmd_good)

    p = sub.add_parser("cover", help="backward coverability of a JSON system")
    p.add_argument("system", help="system description file")
    p.add_argument("--fuel", type=int, default=10 ** 6)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("divisibility", help="unfold-order checks for a functor")
    p.add_argument("functor")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--check", choices=["stability", "coincidence", "embedding"],
                   required=True)
    # 3, not DEFAULT_BOUND: the recorded coincidence answers are taken at 3.
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--size-cap", type=int, default=None)
    p.set_defaults(func=cmd_divisibility)
    return parser


# Options that count or bound something, and the least value each accepts.
_MINIMUM = {"bound": 0, "steps": 0, "length": 0, "depth": 1, "fuel": 0,
            "size_cap": 0, "cap": 1}


def _check_ranges(args) -> None:
    for name, low in _MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise DomainError("--%s must be at least %d, got %d"
                              % (name.replace("_", "-"), low, value))


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_ranges(args)
        doc = args.func(args)
    except (SexprError, OrdinalError, UsageError) as exc:
        print(json.dumps({"error": str(exc), "kind": "syntax"}, sort_keys=True))
        return 2
    except (DomainError, S.SetError, SpaceError, E.ExpanderError,
            I.FunctorError, W.WstsError, OSError,
            json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "kind": "domain"}, sort_keys=True))
        return 1
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
