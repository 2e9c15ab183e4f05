"""Brute-force reference implementations used as independent test oracles.

These deliberately avoid the library's greedy/recursive code paths: word
embedding searches over explicit strictly increasing position maps, and
tree embedding searches over explicit node injections.
"""

import itertools

from noethkit.sets import (DEFAULT_BOUND, Union, find_good_index, includes,
                           lattice_contains, meet_table)
from noethkit.space import TreeNode
from noethkit.wsts import CoverabilityResult, FuelExhausted, _basis_open


def higman_brute(u, v, letter_leq):
    """Exhaustive search for a strictly increasing map with domination."""
    if len(u) > len(v):
        return False
    for positions in itertools.combinations(range(len(v)), len(u)):
        if all(letter_leq(x, v[j]) for x, j in zip(u, positions)):
            return True
    return False


def tree_nodes(t):
    """All (path, node) pairs in pre-order; paths are child-index tuples."""
    out = [((), t)]
    for i, c in enumerate(t.children):
        out.extend(((i,) + path, node) for path, node in tree_nodes(c))
    out.sort(key=lambda pn: pn[0])
    return out


def _lca(p, q):
    common = []
    for a, b in zip(p, q):
        if a != b:
            break
        common.append(a)
    return tuple(common)


def kruskal_brute(s, t, label_leq):
    """Exhaustive search for an injective node map that increases labels,
    respects least common ancestors, and preserves the pre-order of nodes."""
    s_nodes = tree_nodes(s)
    t_nodes = tree_nodes(t)
    if len(s_nodes) > len(t_nodes):
        return False
    s_paths = [p for p, _ in s_nodes]
    s_by_path = dict(s_nodes)
    t_paths = [p for p, _ in t_nodes]
    t_by_path = dict(t_nodes)
    for image in itertools.permutations(t_paths, len(s_paths)):
        # Pre-order strictly increasing (paths are emitted in pre-order).
        if any(image[i] >= image[i + 1] for i in range(len(image) - 1)):
            continue
        if not all(label_leq(s_by_path[p].label, t_by_path[q].label)
                   for p, q in zip(s_paths, image)):
            continue
        mapping = dict(zip(s_paths, image))
        if all(mapping[_lca(p, q)] == _lca(mapping[p], mapping[q])
               for p, q in itertools.combinations(s_paths, 2)):
            return True
    return False


def count_nodes(t: TreeNode) -> int:
    return 1 + sum(count_nodes(c) for c in t.children)


def lattice_brute(gens, universe):
    """The lattice generated by gens: {empty, whole} and the generators,
    closed under pairwise union and intersection until nothing new appears."""
    lattice = {frozenset(), frozenset(universe)} | {frozenset(g) for g in gens}
    while True:
        grown = lattice | {a | b for a in lattice for b in lattice} \
            | {a & b for a in lattice for b in lattice}
        if grown == lattice:
            return lattice
        lattice = grown


def _mask_maker(whole):
    index = {x: i for i, x in enumerate(whole)}
    return (1 << len(index)) - 1, lambda s: sum(1 << index[x] for x in s)


def in_generated_lattice(target, gens, whole) -> bool:
    """Whether target belongs to the lattice generated by gens (with empty
    and whole) under finite unions and intersections.  The sets are subsets
    of whole; decided by `lattice_contains`."""
    full, mask = _mask_maker(whole)
    return lattice_contains(meet_table(map(mask, gens), full), mask(target))


def same_generated_lattice(gens_a, gens_b, whole) -> bool:
    """Whether two families of subsets of whole generate the same lattice:
    whether their meet tables are equal."""
    full, mask = _mask_maker(whole)
    return (meet_table(map(mask, gens_a), full)
            == meet_table(map(mask, gens_b), full))


def good_index_brute(space, seq, bound=DEFAULT_BOUND):
    """The goodness certificate the long way: each open is asked of
    `includes` against the union of all its predecessors, normalised
    afresh.  Returns the least included index with its evidence, or None."""
    for i in range(len(seq)):
        r = includes(space, seq[i], Union(tuple(seq[:i])), bound)
        if r.value is True:
            return i, r
    return None


def minimal_brute(items, leq, key=None):
    """The minimal elements of items under the quasi-order leq, one per
    equivalence class (the first in `key` order), sorted by `key`: each item
    is compared with every other."""
    items = sorted(set(items), key=key)
    return tuple(x for i, x in enumerate(items)
                 if not any(leq(y, x) and (j < i or not leq(x, y))
                            for j, y in enumerate(items) if j != i))


def saturate_brute(system, init, targets, fuel):
    """Backward coverability the long way: every round re-expands every basis
    state, re-minimises the basis together with the round's additions, and
    keeps the distance a state had when first seen.  Returns the
    CoverabilityResult of the library's engine, certificate included, or
    raises its FuelExhausted."""
    leq = system.leq
    basis = dict.fromkeys(minimal_brute(targets, leq), 0)
    opens = [_basis_open(system, basis)]
    inserted = len(basis)
    rounds = 0
    while True:
        rounds += 1
        additions = {}
        for b, dist in list(basis.items()):
            for p in system.pred_basis(b):
                if not any(leq(k, p) for k in list(basis) + list(additions)):
                    additions[p] = dist + 1
        if not additions:
            break
        seen = {**additions, **basis}
        basis = {s: seen[s] for s in minimal_brute(seen, leq)}
        inserted += len(additions)
        if inserted > fuel:
            raise FuelExhausted("fuel", tuple(sorted(basis)))
        opens.append(_basis_open(system, basis))
    index, evidence = find_good_index(system.state_space(),
                                      opens + [opens[-1]])
    covered = [dist for b, dist in basis.items() if leq(b, init)]
    return CoverabilityResult("coverable" if covered else "uncoverable",
                              min(covered, default=None), tuple(sorted(basis)),
                              rounds, inserted, index, evidence.via)
