"""Topology refinement rules and their bounded fixed-point iteration.

A refinement rule maps the opens of a stage topology to a new generator
set.  Stages are cumulative snapshots: each generator carries the step at
which it first appeared (its depth), and generators are deduplicated by
extent at the working bound.  On top of the iteration sit the analysis
oracles: goodness of open sequences, search for depth-increasing bad
chains, the subset-restriction comparison check, per-stage lattice
reports, and DOT export of the generator poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .ordinal import ZERO, Ordinal, _sort_key, cmp
from .sexpr import print_set
from .sets import (
    BaseOpen,
    CarrierOpen,
    ClosedExpr,
    ConcatUp,
    Empty,
    ExtentOracle,
    Intersect,
    OpenExpr,
    PrefixConcat,
    Triangle,
    TreeOpen,
    Union,
    UpClosure,
    Whole,
    WordOpen,
    lattice_contains,
    meet_table,
    normalize_open,
    normalize_opens,
    open_key,
    oracle_for,
    restrict,
    TopologyDesc,
)
from .space import (
    FiniteQO,
    Nat,
    NatVal,
    OrdTrees,
    OrdWords,
    SpaceExpr,
    Trees,
    Words,
    canonical_key,
)


class ExpanderError(ValueError):
    pass


DEFAULT_CAP = 512


@dataclass(frozen=True)
class TopologyStage:
    """Cumulative generator set for an iterated refinement rule."""

    space: SpaceExpr
    generators: Tuple[Tuple[OpenExpr, Ordinal], ...]
    step: int
    capped: bool = False

    def opens(self) -> Tuple[OpenExpr, ...]:
        return tuple(g for g, _ in self.generators)

    def fresh(self) -> Tuple[OpenExpr, ...]:
        step = Ordinal.from_int(self.step)
        return tuple(g for g, d in self.generators if d == step)

    def as_topology(self) -> TopologyDesc:
        return TopologyDesc(self.space, self.opens())


def trivial_stage(space: SpaceExpr) -> TopologyStage:
    return TopologyStage(space, ((Empty(), ZERO), (Whole(), ZERO)), 0)


def _letter_subbasis(base: FiniteQO) -> Tuple[BaseOpen, ...]:
    """Upward closures of single base elements (a subbasis of the base)."""
    return tuple(BaseOpen(names) for names in
                 dict.fromkeys(base.up_set([e]) for e in base.elements))


def _children_menu(sources: Sequence[OpenExpr],
                   arity_cap: int) -> List[OpenExpr]:
    """Children patterns for subtree opens: the whole space and the letter
    patterns <s1,...,sk> over the sources, for k up to arity_cap."""
    menus: List[OpenExpr] = [Whole()]
    level: List[Tuple[OpenExpr, ...]] = [()]
    for _ in range(arity_cap):
        level = [combo + (s,) for combo in level for s in sources]
        menus.extend(WordOpen(combo) for combo in level)
    return menus


def _subword_generators(base: FiniteQO,
                        sources: Sequence[OpenExpr]) -> List[OpenExpr]:
    """The base letter cylinders and the upward concatenations of sources."""
    out: List[OpenExpr] = [WordOpen((b,)) for b in _letter_subbasis(base)]
    for u in sources:
        for v in sources:
            out.append(ConcatUp(u, v))
    return out


DEFAULT_EXPONENTS = ("1", "2", "w", "w+1", "w*2", "w^2")


def _exponent_menu(alpha: Ordinal, menu: Optional[Sequence[Ordinal]]) -> Tuple[Ordinal, ...]:
    from .ordinal import parse_ordinal
    if menu is None:
        menu = [parse_ordinal(t) for t in DEFAULT_EXPONENTS] + [alpha]
    out = []
    for beta in menu:
        if not beta.is_zero() and cmp(beta, alpha) <= 0 and beta not in out:
            out.append(beta)
    return tuple(out)


class NatShiftExpander:
    """Refines a topology on the naturals by shifting opens up by one."""

    space = Nat()

    def fresh_generators(self, sources: Sequence[OpenExpr]) -> List[OpenExpr]:
        return [self._shift(u) for u in sources]

    def _shift(self, u: OpenExpr) -> OpenExpr:
        if isinstance(u, Empty):
            return Empty()
        if isinstance(u, Whole):
            return UpClosure((NatVal(1),))
        if isinstance(u, UpClosure):
            return UpClosure(tuple(NatVal(p.n + 1) for p in u.points))
        if isinstance(u, Union):
            return Union(tuple(self._shift(p) for p in u.parts))
        raise ExpanderError("cannot shift open %r" % (u,))


class PrefixExpander:
    """Prepends one letter to stage opens: the prefix-topology builder
    (whose unbounded iteration is the classic non-Noetherian example)."""

    def __init__(self, base: FiniteQO):
        self.base = base
        self.space = Words(base)

    def fresh_generators(self, sources: Sequence[OpenExpr]) -> List[OpenExpr]:
        out = []
        for letters in _letter_subbasis(self.base):
            for v in sources:
                out.append(PrefixConcat(letters, v))
        return out


class SubwordExpander:
    """Closes upward concatenations of stage opens and injects the base
    letter cylinders; its fixed point is the subword topology."""

    def __init__(self, base: FiniteQO):
        self.base = base
        self.space = Words(base)

    def fresh_generators(self, sources: Sequence[OpenExpr]) -> List[OpenExpr]:
        return _subword_generators(self.base, sources)


class TreeExpander:
    """Subtree opens with root patterns from the base and children patterns
    built from stage opens; its fixed point is the tree topology."""

    def __init__(self, base: FiniteQO, arity_cap: int = 2):
        self.base = base
        self.space = Trees(base)
        self.arity_cap = arity_cap

    def fresh_generators(self, sources: Sequence[OpenExpr]) -> List[OpenExpr]:
        return [TreeOpen(b, v) for b in _letter_subbasis(self.base)
                for v in _children_menu(sources, self.arity_cap)]


class OrdinalSubwordExpander:
    """The subword rule over ordinal-length words, extended with the suffix
    triangles b |> U for exponents drawn from a finite menu."""

    def __init__(self, base: FiniteQO, alpha: Ordinal,
                 exponents: Optional[Sequence[Ordinal]] = None):
        self.base = base
        self.alpha = alpha
        self.space = OrdWords(base, alpha)
        self.exponents = _exponent_menu(alpha, exponents)

    def fresh_generators(self, sources: Sequence[OpenExpr]) -> List[OpenExpr]:
        return (_subword_generators(self.base, sources)
                + [Triangle(beta, u)
                   for beta in self.exponents for u in sources])


class OrdinalTreeExpander:
    """Subtree opens over ordinal-branching trees; children patterns are
    letter patterns and suffix triangles over the tree opens so far."""

    def __init__(self, base: FiniteQO, alpha: Ordinal,
                 exponents: Optional[Sequence[Ordinal]] = None,
                 arity_cap: int = 2):
        self.base = base
        self.alpha = alpha
        self.space = OrdTrees(base, alpha)
        self.exponents = _exponent_menu(alpha, exponents)[:2]
        self.arity_cap = arity_cap

    def fresh_generators(self, sources: Sequence[OpenExpr]) -> List[OpenExpr]:
        menus = _children_menu(sources, self.arity_cap)
        menus.extend(Triangle(beta, WordOpen((s,)))
                     for beta in self.exponents for s in sources)
        return [TreeOpen(b, v)
                for b in _letter_subbasis(self.base) for v in menus]


# -- iteration ----------------------------------------------------------------


def _stage_sources(stage: TopologyStage) -> List[OpenExpr]:
    """The opens a rule is applied to: the stage's nonempty generators, with
    the whole space among them."""
    sources = [u for u in stage.opens() if not isinstance(u, Empty)]
    if not any(isinstance(u, Whole) for u in sources):
        sources.append(Whole())
    return sources


def _first_per_extent(opens, extent_of) -> Dict[int, OpenExpr]:
    """The first open of each distinct extent mask, keyed by that mask, in
    the order the extents first appear."""
    out: Dict[int, OpenExpr] = {}
    for u in opens:
        out.setdefault(extent_of(u), u)
    return out


def apply(expander, stage: TopologyStage, bound: int,
          cap: int = DEFAULT_CAP) -> TopologyStage:
    """One refinement step: emit the rule's generators over the stage opens
    (the whole space included), keeping extent-fresh ones at depth step+1."""
    if getattr(expander, "space", None) != stage.space:
        raise ExpanderError("stage space does not match the expander")
    oracle = oracle_for(stage.space, bound)
    fresh = normalize_opens(expander.fresh_generators(_stage_sources(stage)))
    fresh = [g for g in fresh if not isinstance(g, Empty)]
    fresh = sorted({open_key(g): g for g in fresh}.items())
    seen = {oracle.mask(g) for g, _ in stage.generators}
    new_step = stage.step + 1
    depth = Ordinal.from_int(new_step)
    gens = list(stage.generators)
    capped = stage.capped
    for _, g in fresh:
        if len(gens) >= cap:
            capped = True
            break
        ext = oracle.mask(g)
        if ext in seen:
            continue
        seen.add(ext)
        gens.append((g, depth))
    return TopologyStage(stage.space, tuple(gens), new_step, capped)


@dataclass
class IterationResult:
    stages: List[TopologyStage]
    fixed_point_at: Optional[int]
    bound: int


def iterate(expander, steps: int, bound: int,
            cap: int = DEFAULT_CAP) -> IterationResult:
    """Stages 0..steps from the trivial topology; the fixed point is reported
    at the first step whose extent lattice equals its predecessor's.  A
    capped step is never reported: the cap, not the rule, stopped its
    growth."""
    stages = [trivial_stage(expander.space)]
    fixed_at: Optional[int] = None
    oracle = oracle_for(expander.space, bound)

    def table(stage):
        return meet_table([oracle.mask(u) for u in stage.opens()], oracle.full)

    previous = table(stages[0])
    for k in range(1, steps + 1):
        stage = apply(expander, stages[-1], bound, cap)
        if fixed_at is None and not stage.capped:
            current = table(stage)
            if current == previous:
                fixed_at = k
            previous = current
        stages.append(stage)
    return IterationResult(stages, fixed_at, bound)


# -- bad chains ---------------------------------------------------------------


@dataclass
class BadChain:
    """A depth-increasing bad sequence of fresh generators, as cumulative
    strictly growing unions."""

    picks: Tuple[OpenExpr, ...]
    unions: Tuple[OpenExpr, ...]
    bound: int


def find_bad_chain(expander, length: int, bound: int,
                   cap: int = DEFAULT_CAP) -> Optional[BadChain]:
    """Greedy search for a chain g_1, g_2, ... with g_k fresh at stage k and
    g_k not covered by the union of the earlier picks.  At each stage the
    pick maximizes its smallest uncovered point (steering along antichain
    diagonals), breaking ties by smaller extent.  Returns the cumulative
    unions, or None if some stage offers no uncovered fresh generator."""
    oracle = oracle_for(expander.space, bound)
    stage = trivial_stage(expander.space)
    covered = 0
    picks: List[OpenExpr] = []
    for k in range(1, length + 1):
        stage = apply(expander, stage, bound, cap)
        best = None
        for g in stage.fresh():
            ext = oracle.mask(g)
            new_points = ext & ~covered
            if not new_points:
                continue
            rank = (canonical_key(min(oracle.points(new_points),
                                      key=canonical_key)),
                    -ext.bit_count(), open_key(g))
            if best is None or rank > best[0]:
                best = (rank, g, ext)
        if best is None:
            return None
        picks.append(best[1])
        covered = covered | best[2]
    unions = tuple(normalize_open(Union(tuple(picks[: i + 1])))
                   for i in range(len(picks)))
    return BadChain(tuple(picks), unions, bound)


# -- subset restriction check --------------------------------------------------


@dataclass
class RespectsReport:
    equal: bool
    left_only: Tuple[Tuple[OpenExpr, Tuple], ...]
    right_only: Tuple[Tuple[OpenExpr, Tuple], ...]
    bound: int
    contained_precheck: bool


def check_respects_subsets(expander, stage: TopologyStage, h: ClosedExpr,
                           bound: int, cap: int = DEFAULT_CAP) -> RespectsReport:
    """Compare the two restriction orders: refine-then-restrict against
    restrict-then-refine, as extent lattices over the carrier h."""
    space = stage.space
    oracle = oracle_for(space, bound)
    restrict(stage.as_topology(), h, bound=bound)
    mark = CarrierOpen(h)
    h_ext = oracle.mask(mark)

    sources = _stage_sources(stage)
    refined = normalize_opens(expander.fresh_generators(sources))
    refined_table = meet_table([oracle.mask(g) for g in refined], oracle.full)
    precheck = all(lattice_contains(refined_table, oracle.mask(u))
                   for u in sources)

    # Opens of tau|H: the cut generators, the carrier itself (X /\ H), and
    # the whole space.  Sources with equal extents at the bound yield
    # generators with equal extents for every rule here, so they are
    # deduplicated up front.
    restricted_sources = [normalize_open(Intersect((u, mark))) for u in sources]
    restricted_sources.append(Whole())
    restricted_sources = sorted(
        _first_per_extent(restricted_sources, oracle.mask).values(),
        key=open_key)
    refined_restricted = normalize_opens(
        expander.fresh_generators(restricted_sources))

    def cut(g):
        return oracle.mask(g) & h_ext

    left = _first_per_extent(refined, cut)
    right = _first_per_extent(refined_restricted, cut)
    left_only = _outside_lattice(oracle, left, right)
    right_only = _outside_lattice(oracle, right, left)
    return RespectsReport(not left_only and not right_only,
                          left_only, right_only, bound, precheck)


def _outside_lattice(oracle: ExtentOracle, family: Dict[int, OpenExpr],
                     other: Dict[int, OpenExpr]):
    """The (open, sorted extent) pairs of family whose extent lies outside
    the lattice generated by the extents of other."""
    table = meet_table(other, oracle.full)
    return tuple((g, tuple(sorted(oracle.points(e), key=canonical_key)))
                 for e, g in family.items() if not lattice_contains(table, e))


# -- per-stage lattice reports --------------------------------------------------


@dataclass
class StageReport:
    node_count: int
    width: int
    antichain: Tuple[OpenExpr, ...]


def _stage_nodes(stage: TopologyStage, oracle: ExtentOracle):
    """Distinct generator extents plus empty and whole, each with the first
    generator (in depth then key order) as its representative."""
    gens = sorted(stage.generators, key=lambda gd: (_sort_key(gd[1]),
                                                    open_key(gd[0])))
    return _first_per_extent([Empty(), Whole()] + [g for g, _ in gens],
                             oracle.mask)


def check_noetherian_stage(stage: TopologyStage, bound: int) -> StageReport:
    """Enumerate the distinct subbasic extents at the bound and report the
    poset size and its width (a maximum antichain)."""
    oracle = oracle_for(stage.space, bound)
    nodes = _stage_nodes(stage, oracle)
    exts = list(nodes)
    width, picks = _poset_width(exts)
    antichain = tuple(nodes[exts[i]] for i in picks)
    return StageReport(len(exts), width, antichain)


def _below(a: int, b: int) -> bool:
    """Whether mask a is a proper subset of mask b."""
    return a != b and not a & ~b


def _poset_width(exts: List[int]) -> Tuple[int, List[int]]:
    """Dilworth width of the strict-containment poset of extent masks, with
    a witness antichain recovered from the matching's vertex cover."""
    n = len(exts)
    succ = [[j for j in range(n) if _below(exts[i], exts[j])]
            for i in range(n)]
    match_l = [-1] * n
    match_r = [-1] * n

    def augment(i, seen):
        for j in succ[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_r[j] == -1 or augment(match_r[j], seen):
                match_l[i] = j
                match_r[j] = i
                return True
        return False

    matching = 0
    for i in range(n):
        if augment(i, set()):
            matching += 1
    # Koenig: alternating reachability from unmatched left vertices.
    reach_l = [match_l[i] == -1 for i in range(n)]
    reach_r = [False] * n
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if reach_l[i]:
                for j in succ[i]:
                    if match_l[i] != j and not reach_r[j]:
                        reach_r[j] = True
                        changed = True
                        if match_r[j] != -1 and not reach_l[match_r[j]]:
                            reach_l[match_r[j]] = True
    # Min vertex cover: unreached left + reached right; the antichain is the
    # set of elements outside the cover on both sides.
    antichain = [i for i in range(n)
                 if reach_l[i] and not reach_r[i]]
    return n - matching, antichain


def depth_of(stage: TopologyStage, u: OpenExpr, bound: int) -> Ordinal:
    key = open_key(normalize_open(u))
    for g, d in stage.generators:
        if open_key(g) == key:
            return d
    oracle = oracle_for(stage.space, bound)
    target = oracle.mask(u)
    for g, d in sorted(stage.generators,
                       key=lambda gd: _sort_key(gd[1])):
        if oracle.mask(g) == target:
            return d
    raise ExpanderError("open not found among the stage generators")


def tdown(stage: TopologyStage, u: OpenExpr, bound: int) -> TopologyStage:
    """The stage filtered to generators of strictly smaller depth than u."""
    d = depth_of(stage, u, bound)
    gens = tuple((g, gd) for g, gd in stage.generators if cmp(gd, d) < 0)
    return TopologyStage(stage.space, gens, stage.step, stage.capped)


# -- DOT export ----------------------------------------------------------------


def export_dot(stage: TopologyStage, bound: int) -> str:
    """DOT digraph of the covering relation of the subbasic extent poset,
    with deterministic node naming by canonical set expression."""
    oracle = oracle_for(stage.space, bound)
    nodes = _stage_nodes(stage, oracle)
    exts = sorted(nodes, key=lambda e: (e.bit_count(), open_key(nodes[e])))
    labels = {e: print_set(normalize_open(nodes[e])) for e in exts}
    lines = ["digraph stage {", "  rankdir=BT;"]
    for e in exts:
        lines.append('  "%s";' % labels[e])
    for low in exts:
        for high in exts:
            if not _below(low, high):
                continue
            if any(_below(low, mid) and _below(mid, high) for mid in exts):
                continue
            lines.append('  "%s" -> "%s";' % (labels[low], labels[high]))
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = [
    "BadChain",
    "DEFAULT_CAP",
    "ExpanderError",
    "IterationResult",
    "NatShiftExpander",
    "OrdinalSubwordExpander",
    "OrdinalTreeExpander",
    "PrefixExpander",
    "RespectsReport",
    "StageReport",
    "SubwordExpander",
    "TopologyStage",
    "TreeExpander",
    "apply",
    "check_noetherian_stage",
    "check_respects_subsets",
    "depth_of",
    "export_dot",
    "find_bad_chain",
    "iterate",
    "tdown",
    "trivial_stage",
]
