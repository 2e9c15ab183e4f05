"""The four benchmark workloads: seeded inputs, timed operations, and the
references every answer is checked against.

Each workload makes its inputs from a seed (`inputs`), turns them into a
list of operations (`operations`, which also does the parsing that counts
as set-up), and checks the answers after the timed region (`verify`).
Operations reach noethkit only through module attributes (`cli.main`,
`sets.member_open`, ...), so the tracer's wrappers see every call.

Run `python3 bench/workloads.py record-digests` to rewrite the recorded
SHA-256 digests of the `stages` commands' JSON.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
DIGESTS = Path(__file__).with_name("stages_digests.json")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from noethkit import cli, expanders as E, inductive as I, sets, sexpr  # noqa: E402
from noethkit import space as sp, wsts as W  # noqa: E402
from noethkit.ordinal import OMEGA, ONE, parse_ordinal  # noqa: E402


def input_digest(inputs) -> str:
    blob = json.dumps(inputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class Workload:
    name = ""

    def inputs(self, seed: int) -> list:
        raise NotImplementedError

    def operations(self, inputs: list) -> list:
        """(label, thunk) pairs; building them is set-up, calling is timed."""
        raise NotImplementedError

    def verify(self, inputs: list, answers: list) -> list:
        """(index, reason) for every answer that disagrees with its reference.
        Operations that raised have answer None and are not passed here."""
        raise NotImplementedError

    def known_defect(self, spec, reason: str) -> str | None:
        """Name of the known, still unfixed defect that a wrong answer to
        this input shows, or None.  Such wrong answers lower ok_share and are
        listed by input, but are not counted as failed and keep `correct`."""
        return None


# -- stages: in-process CLI commands ---------------------------------------------

# Order-preserving and order-reversing renamings of the two letters.
ALPHABETS = (("a", "b"), ("b", "a"), ("p", "q"), ("y", "x"))

STAGES_COMMANDS = {
    "tree": "iterate tree --steps 2 --bound 4",
    "ordsubword": "iterate ordsubword --steps 3 --bound 4",
    "subword": "iterate subword --steps 5 --bound 5",
    "unfold-words": "iterate unfold-words --steps 4 --bound 5",
    "baditer": "badchain baditer --length 8 --bound 10 --cap 4096",
    "div": "iterate div --steps 30 --bound 40",
    "embedding": "divisibility --depth 5 --check embedding",
}
DIV_STEPS, DIV_BOUND = 30, 40


def stages_argv(name: str, alphabet) -> list:
    argv = STAGES_COMMANDS[name].split()
    if name == "embedding":
        argv.insert(1, "(sum unit (prod (fin %s %s) id))" % tuple(alphabet))
    elif name != "div":
        argv += ["--alphabet", " ".join(alphabet)]
    return argv


def run_cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _short_hash(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def div_reference_error(doc) -> str | None:
    """Criterion 1: stage k of the shift rule has the extents {empty, whole,
    up 1, ..., up k} over 0..bound, whatever their order."""
    if doc.get("fixed_point_at") is not None or len(doc["stages"]) != DIV_STEPS + 1:
        return "div: unexpected fixed point or stage count"
    for k, stage in enumerate(doc["stages"]):
        got = {g["expr"]: g["extent_hash"] for g in stage["generators"]}
        want = {"(empty)": _short_hash([]),
                "(whole)": _short_hash(str(i) for i in range(DIV_BOUND + 1))}
        for j in range(1, k + 1):
            want["(up %d)" % j] = _short_hash(str(i) for i in range(j, DIV_BOUND + 1))
        if got != want or len(stage["generators"]) != len(want):
            return "div: stage %d extents differ from the criterion-1 formula" % k
    return None


class Stages(Workload):
    name = "stages"

    def inputs(self, seed):
        rng = random.Random(seed)
        alphabet = rng.choice(ALPHABETS)
        names = sorted(STAGES_COMMANDS)
        rng.shuffle(names)
        return [{"name": n, "alphabet": list(alphabet),
                 "argv": stages_argv(n, alphabet)} for n in names]

    def operations(self, inputs):
        return [("cli " + spec["name"], lambda argv=spec["argv"]: run_cli(argv))
                for spec in inputs]

    def verify(self, inputs, answers):
        digests = json.loads(DIGESTS.read_text())
        failures = []
        for i, (spec, answer) in enumerate(zip(inputs, answers)):
            if answer is None:
                continue
            code, text = answer
            key = " ".join(spec["alphabet"])
            reason = None
            if code != 0:
                reason = "exit code %d" % code
            elif hashlib.sha256(text.encode()).hexdigest() != digests[key][spec["name"]]:
                reason = "output digest differs from the recorded one"
            elif spec["name"] == "div":
                reason = div_reference_error(json.loads(text))
            elif spec["name"] == "embedding":
                doc = json.loads(text)
                if doc["equal"] is not True or doc["mismatches"] != 0:
                    reason = "embedding check is not equal"
            if reason:
                failures.append((i, reason))
        return failures


def record_digests() -> dict:
    digests = {}
    for alphabet in ALPHABETS:
        row = digests.setdefault(" ".join(alphabet), {})
        for name in sorted(STAGES_COMMANDS):
            code, text = run_cli(stages_argv(name, alphabet))
            if code != 0:
                raise SystemExit("%s exited with %d" % (name, code))
            row[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


# -- restrict: the subset-restriction check at the criterion-4 configurations ------

# name -> (oracle bound, generator cap); stages 1..3 of each are checked.
RESTRICT_CASES = {
    "subword": (4, 128),
    "tree": (4, 128),
    "ordsubword": (4, 96),
    "ordtree": (3, 96),
    "unfold-words": (4, 128),
}
CARRIERS_PER_STAGE = 1
PREFIX_BOUND = 6


def restrict_expander(name: str):
    ab = sp.discrete("a", "b")
    if name == "subword":
        return E.SubwordExpander(ab)
    if name == "tree":
        return E.TreeExpander(ab, arity_cap=1)
    if name == "ordsubword":
        return E.OrdinalSubwordExpander(ab, parse_ordinal("w*2"),
                                        exponents=[ONE, OMEGA])
    if name == "ordtree":
        return E.OrdinalTreeExpander(ab, OMEGA, exponents=[ONE], arity_cap=1)
    return I.UnfoldExpander(I.words_functor(ab))


class Restrict(Workload):
    name = "restrict"

    def inputs(self, seed):
        rng = random.Random(seed)
        specs = []
        for name in RESTRICT_CASES:
            specs.append({"case": name, "op": "stages"})
            for k in (1, 2, 3):
                for _ in range(CARRIERS_PER_STAGE):
                    specs.append({"case": name, "op": "check", "stage": k,
                                  "draw": rng.randrange(2 ** 32)})
        specs.append({"case": "prefix", "op": "stages"})
        for letter in ("a", "b"):
            specs.append({"case": "prefix", "op": "check", "cylinder": letter})
        return specs

    def operations(self, inputs):
        ab = sp.discrete("a", "b")
        prefix = E.PrefixExpander(ab)
        expanders = {name: restrict_expander(name) for name in RESTRICT_CASES}
        built = {}

        def build(name):
            if name == "prefix":
                built[name] = E.apply(prefix, E.trivial_stage(sp.Words(ab)),
                                      bound=PREFIX_BOUND)
                return len(built[name].generators)
            bound, cap = RESTRICT_CASES[name]
            built[name] = E.iterate(expanders[name], 3, bound=bound, cap=cap).stages
            return [len(s.generators) for s in built[name]]

        def check(name, k, draw):
            bound, cap = RESTRICT_CASES[name]
            stage = built[name][k]
            rng = random.Random(draw)
            gens = [g for g in stage.opens() if not isinstance(g, sets.Empty)]
            # A fixed share of the generators, so that the seed changes which
            # carrier is checked more than how much work the check takes.
            picked = rng.sample(gens, round(0.4 * len(gens)))
            h = (sets.ComplementOf(sets.normalize_open(sets.Union(tuple(picked))))
                 if picked else sets.WholeC())
            return E.check_respects_subsets(expanders[name], stage, h,
                                            bound=bound, cap=cap).equal

        def check_prefix(letter):
            cylinder = sets.PrefixConcat(sets.BaseOpen(frozenset(letter)), sets.Whole())
            carrier = sets.ComplementOf(cylinder)
            return E.check_respects_subsets(prefix, built["prefix"], carrier,
                                            bound=PREFIX_BOUND).equal

        ops = []
        for spec in inputs:
            name = spec["case"]
            if spec["op"] == "stages":
                ops.append(("stages " + name, lambda n=name: build(n)))
            elif name == "prefix":
                ops.append(("respects prefix " + spec["cylinder"],
                            lambda c=spec["cylinder"]: check_prefix(c)))
            else:
                ops.append(("respects %s stage %d" % (name, spec["stage"]),
                            lambda n=name, k=spec["stage"], d=spec["draw"]:
                            check(n, k, d)))
        return ops

    def verify(self, inputs, answers):
        failures = []
        for i, (spec, answer) in enumerate(zip(inputs, answers)):
            if spec["op"] != "check" or answer is None:
                continue
            # The paper: Noetherian rules respect subsets; the prefix rule
            # fails on both cylinder-complement carriers.
            want = spec["case"] != "prefix"
            if answer != want:
                failures.append((i, "respects=%r, the paper says %r" % (answer, want)))
        return failures


# -- cover: backward coverability with the certificate ---------------------------

def _unit(n, i, v=1):
    out = [0] * n
    out[i] = v
    return out


def ring_doc(n, producer, init, target, perm):
    """Token ring on n places (place i passes a token to i+1), optionally
    with a producer at place 0; place i is stored at coordinate perm[i]."""
    rules = []
    for i in range(n):
        delta = _unit(n, i, -1)
        delta[(i + 1) % n] += 1
        rules.append((_unit(n, i), delta))
    if producer:
        rules.append((_unit(n, 0), _unit(n, 0)))

    def place(vec):
        out = [0] * n
        for i, v in enumerate(vec):
            out[perm[i]] = v
        return out

    return {"family": "vas", "places": n,
            "rules": [{"guard": place(g), "delta": place(d)} for g, d in rules],
            "init": place(init), "target": [place(target)]}


def lossy_doc(k, names, target_loc, target_word):
    rules = []
    for j in range(k):
        here, there = names[j], names[(j + 1) % k]
        rules.append({"from": here, "op": "send", "letter": "ab"[j % 2], "to": there})
        rules.append({"from": here, "op": "recv", "letter": "ba"[j % 2], "to": there})
    return {"family": "lossy", "locations": list(names), "alphabet": ["a", "b"],
            "rules": rules, "init": {"location": names[0], "channel": []},
            "target": [{"location": target_loc, "channel": list(target_word)}]}


def forward_covers(doc, cap) -> bool:
    """Explicit-state search of the system described by `doc`, written
    independently of noethkit: VAS places hold at most `cap` tokens,
    channels at most `cap` letters.  Exact for the systems built here."""
    if doc["family"] == "vas":
        rules = [(r["guard"], r["delta"]) for r in doc["rules"]]
        targets = [tuple(t) for t in doc["target"]]
        init = tuple(doc["init"])

        def successors(s):
            for guard, delta in rules:
                if all(x >= max(g, -d) for x, g, d in zip(s, guard, delta)):
                    yield tuple(x + d for x, d in zip(s, delta))

        def covers(s):
            return any(all(x >= t for x, t in zip(s, tgt)) for tgt in targets)

        def fits(s):
            return max(s) <= cap
    else:
        rules = doc["rules"]
        targets = [(t["location"], tuple(t["channel"])) for t in doc["target"]]
        init = (doc["init"]["location"], tuple(doc["init"]["channel"]))

        def successors(s):
            loc, word = s
            for i in range(len(word)):
                yield loc, word[:i] + word[i + 1:]
            for r in rules:
                if r["from"] != loc:
                    continue
                if r["op"] == "send":
                    yield r["to"], word + (r["letter"],)
                elif r["op"] == "recv" and word[:1] == (r["letter"],):
                    yield r["to"], word[1:]
                elif r["op"] == "nop":
                    yield r["to"], word

        def covers(s):
            return any(s[0] == loc and is_subsequence(w, s[1])
                       for loc, w in targets)

        def fits(s):
            return len(s[1]) <= cap
    seen = {init}
    frontier = [init]
    while frontier:
        state = frontier.pop()
        if covers(state):
            return True
        for nxt in successors(state):
            if nxt not in seen and fits(nxt):
                seen.add(nxt)
                frontier.append(nxt)
    return False


def _composition(rng, tokens, n):
    out = [0] * n
    for _ in range(tokens):
        out[rng.randrange(n)] += 1
    return out


class Cover(Workload):
    name = "cover"

    def inputs(self, seed):
        rng = random.Random(seed)
        specs = [{"system": "petri3"}]
        for n in (4, 5):
            perm = list(range(n))
            rng.shuffle(perm)
            for place in range(n):
                specs.append({"system": "producer-ring-%d" % n,
                              "doc": ring_doc(n, True, _unit(n, 0),
                                              _unit(n, place, 4), perm)})
        perm = list(range(5))
        rng.shuffle(perm)
        specs.append({"system": "ring-5",
                      "doc": ring_doc(5, False, _composition(rng, 3, 5),
                                      _unit(5, rng.randrange(5), 4), perm)})
        names = ["l%d" % j for j in range(4)]
        rng.shuffle(names)
        for _ in range(4):
            word = "".join(rng.choice("ab") for _ in range(3))
            specs.append({"system": "lossy-ring-4",
                          "doc": lossy_doc(4, names, rng.choice(names), word)})
        return specs

    def operations(self, inputs):
        fixture = json.loads((DATA / "petri3.json").read_text())
        ops = []
        for spec in inputs:
            system, init, targets = W.system_from_json(spec.get("doc", fixture))

            def cover(system=system, init=init, targets=targets):
                result = W.backward_coverability(system, init, targets)
                return W.result_to_json(result, fuel=10 ** 6)
            ops.append(("cover " + spec["system"], cover))
        return ops

    def verify(self, inputs, answers):
        frozen = json.loads((DATA / "petri3_verdict.json").read_text())
        failures = []
        for i, (spec, answer) in enumerate(zip(inputs, answers)):
            if answer is None:
                continue
            if spec["system"] == "petri3":
                if answer != frozen:
                    failures.append((i, "differs from petri3_verdict.json"))
                continue
            doc = spec["doc"]
            cap = 8 if doc["family"] == "lossy" else max(doc["target"][0]) + 1
            want = "coverable" if forward_covers(doc, cap) else "uncoverable"
            if answer["verdict"] != want:
                failures.append((i, "verdict %s, forward search says %s"
                                 % (answer["verdict"], want)))
        return failures


# -- query: seeded library queries -------------------------------------------------

WORDS = "(words (fin a b))"
ORDWORDS = "(ordwords (fin a b) w*2)"
TREES = "(trees (fin a b))"
NAT3 = "(prod nat (prod nat nat))"
QUERY_BOUND = 4
EXTENT_BOUND = 3
# Opens asked about by membership nest two constructors deep; those whose
# answer needs extents (includes, extent) one deep.
MEMBER_DEPTH = 2
EXTENT_DEPTH = 1

# Every (kind, space) pair of the library queries that the benchmark checks
# with a reference of its own, each with the same number of queries.  Left
# out: includes and extent over ordinal words and trees, because an answer
# decided by extents holds at its bound only and the benchmark has no
# enumeration of those spaces to check it against.
QUERY_PAIRS = (
    ("leq", WORDS), ("leq", ORDWORDS), ("leq", TREES), ("leq", NAT3),
    ("member", WORDS), ("member", ORDWORDS), ("member", TREES), ("member", NAT3),
    ("includes", WORDS), ("includes", NAT3),
    ("closure", WORDS), ("closure", ORDWORDS), ("closure", TREES), ("closure", NAT3),
    ("extent", WORDS), ("extent", NAT3),
)
# A few nat^3 includes and extent queries carry most of a repetition's time,
# so the seed moves wall_s by how many heavy ones it draws; 256 per pair
# keeps that below about 6% across seeds (128 gave 8.6%).
QUERIES_PER_PAIR = 256
# Except member over ordinal words, which gets five times as many so that
# ROADMAP item 1's defect shows: it hits about 1.2% of them (484 of 40,000
# drawn), and at 5 x 128 = 640 queries a repetition already misses it with
# probability e^-7.7, below 0.1%.
DEFECT_PAIR = ("member", ORDWORDS)
DEFECT_PAIR_QUERIES = 5 * QUERIES_PER_PAIR

KNOWN_DEFECT = "concatup-infinite-run"
# A finite prefix a^k taken from a run a^(w+m) leaves the suffix a^(w+m),
# whatever k is; as opens are upward closed, one large k stands for all.
RUN_PREFIX = 64


def is_subsequence(u, v) -> bool:
    it = iter(v)
    return all(any(x == y for y in it) for x in u)


def tree_embeds(s, t) -> bool:
    """Homeomorphic embedding of (label, children) trees, discrete labels."""
    if any(tree_embeds(s, c) for c in t[1]):
        return True
    if s[0] != t[0]:
        return False
    j = 0
    for child in s[1]:
        while j < len(t[1]) and not tree_embeds(child, t[1][j]):
            j += 1
        if j == len(t[1]):
            return False
        j += 1
    return True


def letter_member(letter, part) -> bool:
    return part[0] == "whole" or letter in part[1]


def word_member(w, u) -> bool:
    """Membership of a finite word in an up-closed word open, by definition."""
    tag = u[0]
    if tag == "whole":
        return True
    if tag == "empty":
        return False
    if tag == "up":
        return any(is_subsequence(p, w) for p in u[1])
    if tag == "wordopen":
        j = 0
        for part in u[1]:
            while j < len(w) and not letter_member(w[j], part):
                j += 1
            if j == len(w):
                return False
            j += 1
        return True
    if tag == "concatup":
        # Both sides are up-closed, so up(LR) is decided by the splits of w.
        return any(word_member(w[:i], u[1]) and word_member(w[i:], u[2])
                   for i in range(len(w) + 1))
    if tag == "union":
        return any(word_member(w, part) for part in u[1])
    if tag == "inter":
        return all(word_member(w, part) for part in u[1])
    raise ValueError(tag)


# Ordinal words below w*2 are tuples of (letter, count) runs; a count is a
# positive int, or ("w", m) for w+m.  A word has at most one infinite run.

def infinite(n) -> bool:
    return not isinstance(n, int)


def run_add(m, n):
    """m + n for run lengths whose sum stays below w*2."""
    if infinite(n):
        return n  # k + (w+m) = w+m
    return ("w", m[1] + n) if infinite(m) else m + n


def ow_canon(runs) -> tuple:
    """Drop empty runs and merge adjacent runs of one letter."""
    out = []
    for c, n in runs:
        if n == 0:
            continue
        if out and out[-1][0] == c:
            out[-1] = (c, run_add(out[-1][1], n))
        else:
            out.append((c, n))
    return tuple(out)


def ow_leq(u, v) -> bool:
    """Higman embedding of ordinal word u into v, discrete letters.  Greedy:
    each position of u goes to the earliest free position of v that carries
    its letter, which is optimal in a well-order."""
    j, used = 0, 0  # next free position: run j of v, `used` letters of it taken
    for c, need in u:
        if infinite(need):
            # The first w letters of the run need an infinite run of c in v
            # with only finitely many letters of it taken.
            while j < len(v) and not (v[j][0] == c and infinite(v[j][1])
                                      and not infinite(used)):
                j, used = j + 1, 0
            if j == len(v):
                return False
            used, need = ("w", 0), need[1]
        while need:
            if j == len(v):
                return False
            d, n = v[j]
            if d != c:
                j, used = j + 1, 0
                continue
            if not infinite(n):
                left = n - used
            elif infinite(used):
                left = n[1] - used[1]
            else:
                left = None  # infinitely many
            take = need if left is None else min(need, left)
            need -= take
            used = run_add(used, take)
            if take == left:
                j, used = j + 1, 0
    return True


def ow_drop(w, d) -> tuple:
    """The suffix of w after its first d letters (d finite)."""
    for i, (c, n) in enumerate(w):
        if d == 0 or infinite(n):
            return w[i:]  # finitely many letters off a^(w+m) leave a^(w+m)
        if d < n:
            return ((c, n - d),) + w[i + 1:]
        d -= n
    return ()


def ow_splits(w, inside_infinite=True):
    """The splits w = xy, up to the choice of a large prefix inside an
    infinite run.  With inside_infinite False, the splits that take a
    finite prefix a^k (k >= 1) off a run a^(w+m) and leave the suffix
    a^(w+m) are left out: those are the splits ROADMAP item 1 says
    noethkit's ow_cut_pairs never tries."""
    for i in range(len(w) + 1):
        yield w[:i], w[i:]
    for i, (c, n) in enumerate(w):
        if not infinite(n):
            for k in range(1, n):
                yield w[:i] + ((c, k),), ((c, n - k),) + w[i + 1:]
            continue
        for r in range(1, n[1] + 1):
            yield w[:i] + ((c, ("w", n[1] - r)),), ((c, r),) + w[i + 1:]
        if inside_infinite:
            yield w[:i] + ((c, RUN_PREFIX),), w[i:]


def ow_member(w, u, inside_infinite=True) -> bool:
    """Membership of an ordinal word in an up-closed word open, by
    definition; `inside_infinite` as in ow_splits."""
    tag = u[0]
    if tag == "up":
        return any(ow_leq(p, w) for p in u[1])
    if tag == "wordopen":
        j, used = 0, 0
        for part in u[1]:
            while j < len(w):
                c, n = w[j]
                if (infinite(n) or used < n) and letter_member(c, part):
                    used += 1
                    break
                j, used = j + 1, 0
            else:
                return False
        return True
    if tag == "concatup":
        return any(ow_member(x, u[1], inside_infinite)
                   and ow_member(y, u[2], inside_infinite)
                   for x, y in ow_splits(w, inside_infinite))
    if tag == "tri":
        # The suffixes strictly after every position g < beta: after the
        # first g+1 letters, or empty where w is shorter than beta.
        if u[1] == "w":
            finite_prefix = 0
            for _, n in w:
                if infinite(n):
                    break
                finite_prefix += n
            drops = range(1, finite_prefix + 2)
        else:
            drops = range(1, int(u[1]) + 1)
        return all(ow_member(ow_drop(w, d), u[2], inside_infinite) for d in drops)
    if tag == "union":
        return any(ow_member(w, part, inside_infinite) for part in u[1])
    if tag == "inter":
        return all(ow_member(w, part, inside_infinite) for part in u[1])
    raise ValueError(tag)


def tree_member(t, u) -> bool:
    """Membership of a tree in an up-closed tree open, by definition."""
    tag = u[0]
    if tag == "up":
        return any(tree_embeds(s, t) for s in u[1])
    if tag == "union":
        return any(tree_member(t, part) for part in u[1])
    if tag == "treeopen":
        return any(letter_member(s[0], u[1]) and children_member(s[1], u[2])
                   for s in subtrees(t))
    raise ValueError(tag)


def subtrees(t):
    yield t
    for child in t[1]:
        yield from subtrees(child)


def children_member(children, u) -> bool:
    if u[0] == "whole":
        return True
    j = 0
    for part in u[1]:  # a wordopen of tree opens
        while j < len(children) and not tree_member(children[j], part):
            j += 1
        if j == len(children):
            return False
        j += 1
    return True


def nat_leq(x, y) -> bool:
    return all(a <= b for a, b in zip(x, y))


def nat_member(p, u) -> bool:
    tag = u[0]
    if tag == "up":
        return any(nat_leq(g, p) for g in u[1])
    if tag == "union":
        return any(nat_member(p, part) for part in u[1])
    if tag == "inter":
        return all(nat_member(p, part) for part in u[1])
    raise ValueError(tag)


def nat_minimal(u) -> list:
    """Points whose up-closures cover the open u of nat^3."""
    tag = u[0]
    if tag == "up":
        return list(u[1])
    if tag == "union":
        return [g for part in u[1] for g in nat_minimal(part)]
    left, right = (nat_minimal(part) for part in u[1])
    return [tuple(map(max, g, h)) for g in left for h in right]


# Rendering of the reference terms as noethkit s-expressions.

def word_text(w) -> str:
    return "(word%s)" % "".join(" " + c for c in w)


def count_text(c) -> str:
    if isinstance(c, int):
        return str(c)
    return "w" if c[1] == 0 else "w+%d" % c[1]


def ordword_text(w) -> str:
    return "(ordword%s)" % "".join(" (%s %s)" % (c, count_text(n)) for c, n in w)


def tree_text(t) -> str:
    return "(tree %s%s)" % (t[0], "".join(" " + tree_text(c) for c in t[1]))


def nat3_text(p) -> str:
    return "(pair %d (pair %d %d))" % p


POINT_TEXT = {WORDS: word_text, ORDWORDS: ordword_text, TREES: tree_text,
              NAT3: nat3_text}


def open_text(u, point) -> str:
    tag = u[0]
    if tag in ("whole", "empty"):
        return "(%s)" % tag
    if tag == "up":
        return "(up%s)" % "".join(" " + point(p) for p in u[1])
    if tag == "base":
        return "(base %s)" % " ".join(u[1])
    if tag in ("wordopen", "union", "inter"):
        return "(%s%s)" % (tag, "".join(" " + open_text(p, point) for p in u[1]))
    if tag in ("concatup", "treeopen"):
        return "(%s %s %s)" % (tag, open_text(u[1], point), open_text(u[2], point))
    if tag == "tri":
        return "(tri %s %s)" % (u[1], open_text(u[2], point))
    raise ValueError(tag)


class QueryGen:
    """Well-typed random points and opens.  One rule makes every choice: it
    is uniform over its range (a letter over {a, b}, a size over the range
    given, a constructor over those the space admits, leaves only at depth
    0).  Ordinal words carry at most one infinite run, so no merged run
    reaches w*2."""

    def __init__(self, rng):
        self.rng = rng

    def word(self, lo=0, hi=5):
        return tuple(self.rng.choice("ab") for _ in range(self.rng.randint(lo, hi)))

    def ordword(self, finite=False):
        rng = self.rng
        runs = rng.randint(1, 3)
        at = rng.randrange(runs) if not finite and rng.random() < 0.5 else -1
        return ow_canon((rng.choice("ab"),
                         ("w", rng.randint(0, 2)) if i == at else rng.randint(1, 3))
                        for i in range(runs))

    def tree(self, size):
        rng = self.rng
        children = []
        size -= 1
        while size > 0:
            sub = rng.randint(1, size)
            children.append(self.tree(sub))
            size -= sub
        return (rng.choice("ab"), tuple(children))

    def nat3(self):
        return tuple(self.rng.randint(0, 4) for _ in range(3))

    def point(self, space):
        if space == WORDS:
            return self.word()
        if space == ORDWORDS:
            return self.ordword()
        if space == TREES:
            return self.tree(self.rng.randint(1, 5))
        return self.nat3()

    def pattern(self, space):
        """A point of an `up`: smaller than a queried point."""
        if space == WORDS:
            return self.word(1, 3)
        if space == TREES:
            return self.tree(self.rng.randint(1, 3))
        return self.point(space)

    def up(self, space):
        return ("up", tuple(self.pattern(space) for _ in range(self.rng.randint(1, 2))))

    def letter_open(self):
        return self.rng.choice((("base", ("a",)), ("base", ("b",)),
                                ("base", ("a", "b")), ("whole",)))

    def word_open(self, space, depth):
        rng = self.rng
        tags = ("up", "wordopen")
        if depth:
            tags += ("concatup", "union", "inter") + (("tri",) if space == ORDWORDS
                                                      else ())
        tag = rng.choice(tags)
        if tag == "up":
            return self.up(space)
        if tag == "wordopen":
            return (tag, tuple(self.letter_open() for _ in range(rng.randint(1, 3))))
        if tag == "tri":
            return (tag, rng.choice(("1", "2", "w")), self.word_open(space, depth - 1))
        sides = (self.word_open(space, depth - 1), self.word_open(space, depth - 1))
        return (tag,) + sides if tag == "concatup" else (tag, sides)

    def tree_open(self, depth):
        rng = self.rng
        tag = rng.choice(("up", "treeopen", "union") if depth else ("up", "treeopen"))
        if tag == "up":
            return self.up(TREES)
        if tag == "union":
            return (tag, (self.tree_open(depth - 1), self.tree_open(depth - 1)))
        if depth and rng.random() < 0.5:
            children = ("wordopen", tuple(self.tree_open(depth - 1)
                                          for _ in range(rng.randint(1, 2))))
        else:
            children = ("whole",)
        return (tag, self.letter_open(), children)

    def nat_open(self, depth):
        tag = self.rng.choice(("up", "union", "inter") if depth else ("up",))
        if tag == "up":
            return self.up(NAT3)
        return (tag, (self.nat_open(depth - 1), self.nat_open(depth - 1)))

    def open(self, space, depth):
        if space == TREES:
            return self.tree_open(depth)
        if space == NAT3:
            return self.nat_open(depth)
        return self.word_open(space, depth)

    def query(self, kind, space) -> dict:
        text = POINT_TEXT[space]
        if kind == "leq":
            ref = {"x": self.point(space), "y": self.point(space)}
            args = [text(ref["x"]), text(ref["y"])]
        elif kind == "member":
            ref = {"p": self.point(space), "u": self.open(space, MEMBER_DEPTH)}
            args = [text(ref["p"]), open_text(ref["u"], text)]
        elif kind == "includes":
            ref = {"a": self.open(space, EXTENT_DEPTH), "b": self.open(space, EXTENT_DEPTH)}
            args = [open_text(ref["a"], text), open_text(ref["b"], text)]
        elif kind == "closure":
            # closure_point is defined on finite-length words only.
            p = self.ordword(finite=True) if space == ORDWORDS else self.point(space)
            ref = {"p": p, "probes": [p] + [self.point(space) for _ in range(6)]}
            args = [text(p)]
        else:
            ref = {"u": self.open(space, EXTENT_DEPTH)}
            args = [open_text(ref["u"], text)]
        return {"kind": kind, "space": space, "args": args, "ref": ref}


def answer_query(kind, space_text, args):
    """One library query, parsed and printed with sexpr as `noethkit eval`
    would, without the argparse front end."""
    space = sexpr.parse_space(space_text)
    if kind == "leq":
        return sp.point_leq(space, sexpr.parse_point(args[0]),
                            sexpr.parse_point(args[1]))
    if kind == "member":
        p, u = sexpr.parse_point(args[0]), sexpr.parse_set(args[1])
        return sets.member_open(space, p, u), space, p, u
    if kind == "includes":
        r = sets.includes(space, sexpr.parse_set(args[0]), sexpr.parse_set(args[1]),
                          QUERY_BOUND)
        text = sexpr.print_point(r.witness) if r.witness is not None else None
        return r.value, r.via, r.bound, text, r.witness
    if kind == "closure":
        closed = sets.closure_point(space, sexpr.parse_point(args[0]))
        return sexpr.print_set(closed), closed
    return [sexpr.print_point(p)
            for p in sets.extent(space, sexpr.parse_set(args[0]), EXTENT_BOUND)]


def _as_tuple(x):
    return tuple(_as_tuple(e) for e in x) if isinstance(x, list) else x


@functools.lru_cache(maxsize=None)
def all_words(bound):
    out = [()]
    frontier = [()]
    for _ in range(bound):
        frontier = [w + (c,) for w in frontier for c in "ab"]
        out += frontier
    return out


@functools.lru_cache(maxsize=None)
def all_nat3(bound):
    """nat^3 points of size at most bound: a pair weighs its larger side."""
    r = range(bound + 1)
    return [(x, y, z) for x in r for y in r for z in r]


def point_to_ref(space, p):
    if space == WORDS:
        return tuple(a.name for a in p.letters)
    return (p.left.n, p.right.left.n, p.right.right.n)


LEQ = {WORDS: is_subsequence, ORDWORDS: ow_leq, TREES: tree_embeds, NAT3: nat_leq}
MEMBER = {WORDS: word_member, ORDWORDS: ow_member, TREES: tree_member,
          NAT3: nat_member}


class Query(Workload):
    name = "query"

    def inputs(self, seed):
        rng = random.Random(seed)
        gen = QueryGen(rng)
        # The same count of every pair, in seeded order: the seed changes the
        # queries, not how many of each pair a repetition runs.
        picks = [pair for pair in QUERY_PAIRS
                 for _ in range(DEFECT_PAIR_QUERIES if pair == DEFECT_PAIR
                                else QUERIES_PER_PAIR)]
        rng.shuffle(picks)
        return json.loads(json.dumps([gen.query(k, s) for k, s in picks]))

    def operations(self, inputs):
        return [("%s %s" % (q["kind"], q["space"]),
                 lambda q=q: answer_query(q["kind"], q["space"], q["args"]))
                for q in inputs]

    def verify(self, inputs, answers):
        failures = []
        for i, (q, answer) in enumerate(zip(inputs, answers)):
            if answer is None:
                continue
            reason = self._check(q, answer)
            if reason:
                failures.append((i, reason))
        return failures

    def known_defect(self, q, reason):
        # ROADMAP item 1: ow_cut_pairs never takes a finite prefix off an
        # infinite run while leaving the whole run to the suffix.  A wrong
        # False is that defect when the reference finds membership with
        # those splits and not without them.
        if (q["kind"], q["space"], reason) != ("member", ORDWORDS,
                                               "member False, reference True"):
            return None
        p, u = (_as_tuple(q["ref"][k]) for k in ("p", "u"))
        return None if ow_member(p, u, inside_infinite=False) else KNOWN_DEFECT

    def _check(self, q, answer):
        kind, space = q["kind"], q["space"]
        ref = {k: _as_tuple(v) for k, v in q["ref"].items()}
        if kind == "leq":
            want = LEQ[space](ref["x"], ref["y"])
            return None if answer == want else "leq %r, reference %r" % (answer, want)
        if kind == "member":
            answer, space_obj, p, u = answer
            want = MEMBER[space](ref["p"], ref["u"])
            if answer != want:
                return "member %r, reference %r" % (answer, want)
            normal = sets.member_open(space_obj, p, sets.normalize_open(u))
            if answer != normal:
                return "member %r, but %r on the normal form" % (answer, normal)
            return None
        if kind == "includes":
            value, via, bound, _, witness = answer
            a, b = ref["a"], ref["b"]
            if space == WORDS:
                # An answer decided by extents holds at its own bound only.
                universe = all_words(bound if bound is not None else 5)
            else:
                # Exact: the points of nat_minimal(a) lie within the bound.
                universe = nat_minimal(a)
            inside = MEMBER[space]
            if value is True:
                bad = [w for w in universe if inside(w, a) and not inside(w, b)]
                return "includes True, counterexample %r" % (bad[0],) if bad else None
            if value is False:
                if witness is not None:
                    w = point_to_ref(space, witness)
                    ok = inside(w, a) and not inside(w, b)
                    return None if ok else "includes False, witness %r is wrong" % (w,)
                if space == WORDS:
                    universe = all_words(6)
                ok = any(inside(w, a) and not inside(w, b) for w in universe)
                return None if ok else "includes False without a counterexample"
            return "includes gave no verdict (%s)" % via
        if kind == "closure":
            _, closed = answer
            space_obj = sexpr.parse_space(space)
            text = POINT_TEXT[space]
            for probe in ref["probes"]:
                got = sets.member_closed(space_obj, sexpr.parse_point(text(probe)),
                                         closed)
                if got != LEQ[space](probe, ref["p"]):
                    return "closure membership of %r is %r" % (probe, got)
            return None
        points = all_words(EXTENT_BOUND) if space == WORDS else all_nat3(EXTENT_BOUND)
        want = sorted(POINT_TEXT[space](w) for w in points
                      if MEMBER[space](w, ref["u"]))
        return None if sorted(answer) == want else "extent differs from reference"


WORKLOADS = {w.name: w for w in (Stages(), Restrict(), Cover(), Query())}


if __name__ == "__main__":
    if sys.argv[1:] != ["record-digests"]:
        raise SystemExit("usage: python3 bench/workloads.py record-digests")
    DIGESTS.write_text(json.dumps(record_digests(), indent=1, sort_keys=True) + "\n")
