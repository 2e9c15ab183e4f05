"""noethkit: a symbolic workbench for Noetherian-style topologies.

Spaces built from finite quasi-orders, naturals, sums, products, words,
trees and ordinal-length words; symbolic open/closed subsets with exact
membership and brute-force extent oracles; topology refinement rules
iterated to (bounded) fixed points; divisibility preorders over inductive
datatypes; and a backward-coverability engine for monotone transition
systems on top of it all.
"""

__version__ = "0.1.0"


def cache_stats() -> dict:
    """Sizes of the process-wide memos: the `cache_info()` of the point
    order (`space._leq`), of `sets.open_key` and, under `parse`, of the
    three text parsers, each with its `maxsize`; one entry per extent
    oracle, its `sets.ExtentOracle.stats()`; and the most oracles kept at
    once."""
    from . import sets, sexpr, space
    return {
        "leq": space._leq.cache_info(),
        "open_key": sets.open_key.cache_info(),
        "parse": {"space": sexpr.parse_space.cache_info(),
                  "point": sexpr.parse_point.cache_info(),
                  "set": sexpr.parse_set.cache_info()},
        "oracles": [o.stats() for o in sets._ORACLES.values()],
        "max_oracles": sets.MAX_ORACLES,
    }


def clear_caches() -> None:
    """Empty every memo that `cache_stats` reports."""
    from . import sets, sexpr, space
    for memo in (space._leq, sets.open_key,
                 sexpr.parse_space, sexpr.parse_point, sexpr.parse_set):
        memo.cache_clear()
    sets._ORACLES.clear()
