"""Brute-force reference implementations used as independent test oracles.

These deliberately avoid the library's greedy/recursive code paths: word
embedding searches over explicit strictly increasing position maps, and
tree embedding searches over explicit node injections.
"""

import itertools

from noethkit.space import TreeNode


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
