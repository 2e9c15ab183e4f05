import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noethkit
from noethkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestEval:
    def test_member_word_pattern(self, capsys):
        code, doc = run_cli(
            capsys, "eval", "member", "(word a b b)",
            "(wordopen (up a) (up b))", "--space", "(words (fin a b))")
        assert code == 0 and doc["result"] is True

    def test_member_closed_product(self, capsys):
        code, doc = run_cli(
            capsys, "eval", "member", "(ordword (a 2))",
            "(ordprod (pow (down a) w))", "--space", "(ordwords (fin a b) w*2)")
        assert code == 0 and doc["result"] is True

    def test_includes_with_witness(self, capsys):
        code, doc = run_cli(
            capsys, "eval", "includes", "(wordopen (up a))",
            "(wordopen (up b))", "--space", "(words (fin a b))")
        assert code == 0 and doc["result"] is False
        assert doc["witness"] == "(word a)"

    @pytest.mark.parametrize("left, right, result, witness", [
        ("(down (word a b))", "(down (word a))", False, "(word a b)"),
        ("(down (word a))", "(down (word a b))", True, None)])
    def test_closed_sets_are_compared_by_extent(self, capsys, left, right,
                                                result, witness):
        # A closed term has no open normal form, so it is kept as written
        # and the inclusion is decided by extents at the default bound.
        code, doc = run_cli(capsys, "eval", "includes", left, right,
                            "--space", WORDS)
        assert code == 0
        assert doc == {"bound": 4, "query": "includes", "result": result,
                       "via": "extent", "witness": witness}

    def test_leq(self, capsys):
        code, doc = run_cli(capsys, "eval", "leq", "(word a b)", "(word a a b)",
                            "--space", "(words (fin a b))")
        assert code == 0 and doc["result"] is True

    def test_bare_point_text_is_read(self, capsys):
        # Whitespace around a token is the reader's, not part of the point.
        code, doc = run_cli(capsys, "eval", "leq", " 5", "6", "--space", "nat")
        assert code == 0 and doc["result"] is True

    def test_closure(self, capsys):
        code, doc = run_cli(capsys, "eval", "closure", "(word a b)",
                            "--space", "(words (fin a b))")
        assert code == 0
        assert doc["result"] == "(ordprod (amo (down a)) (amo (down b)))"

    def test_includes_past_the_universe_cap_is_unknown(self, capsys):
        # No exact rule applies, and the universe at bound 20 has more than
        # MAX_UNIVERSE points: the answer is Unknown, not an error.
        code, doc = run_cli(
            capsys, "eval", "includes", "(wordopen (base a))",
            "(up (word a))", "--space", "(words (fin a b))", "--bound", "20")
        assert code == 0
        assert doc["result"] is None and doc["via"] == "no-extent-oracle"

    def test_extent_export(self, capsys):
        code, doc = run_cli(capsys, "eval", "extent", "(wordopen (up a))",
                            "--space", "(words (fin a b))", "--bound", "1")
        assert code == 0
        assert doc["points"] == ["(word a)"] and doc["count"] == 1

    def test_syntax_error_exit_code(self, capsys):
        code, doc = run_cli(capsys, "eval", "member", "(word a", "(whole)",
                            "--space", "(words (fin a b))")
        assert code == 2 and doc["kind"] == "syntax"

    def test_domain_error_exit_code(self, capsys):
        code, doc = run_cli(capsys, "eval", "closure", "(word a c)",
                            "--space", "(words (fin a b))")
        assert code == 1 and doc["kind"] == "domain"

    @pytest.mark.parametrize("argv, bound", [
        (["(wordopen (inter (up 6) (up 7)))", "(wordopen (up 10))",
          "--space", "(words nat)"], 4),
        (["(wordopen (base a b))", "(wordopen (base a))",
          "--space", "(words (fin a b))", "--bound", "0"], 0),
    ])
    def test_word_open_rule_reports_its_letter_bound(self, capsys, argv,
                                                     bound):
        # The letter inclusions are decided by extents, so the answer rests
        # on their bound.
        code, doc = run_cli(capsys, "eval", "includes", *argv)
        assert code == 0
        assert doc == {"bound": bound, "query": "includes", "result": True,
                       "via": "wordopen-rule", "witness": None}

    def test_ill_typed_point_errors_read_alike(self, capsys):
        # The point asked about, a closure point, a point compared and a
        # point closed name the point alike.
        docs = [run_cli(capsys, "eval", *argv, "--space", WORDS)
                for argv in [("member", "(word a)", "(up (word c))"),
                             ("member", "(word c)", "(up (word a))"),
                             ("leq", "(word a)", "(word c)")]]
        assert docs[0] == docs[1] == docs[2]
        code, doc = docs[0]
        assert code == 1 and doc["kind"] == "domain"
        assert doc["error"].startswith(
            "point Word(letters=(Atom(name='c'),)) does not typecheck in ")
        code, doc = run_cli(capsys, "eval", "closure", "(word a c)",
                            "--space", WORDS)
        assert code == 1 and doc["kind"] == "domain"
        assert doc["error"] == docs[0][1]["error"].replace(
            "(Atom(name='c'),)", "(Atom(name='a'), Atom(name='c'))")

    @pytest.mark.parametrize("left", [
        "(union (wordopen (base a b)) (up (word a a)))",
        "(union (up (word a a)) (up (word b)))"])
    def test_union_left_keeps_its_evidence(self, capsys, left):
        # Each part is included by extents at the default bound, which the
        # union answer carries under its own name.
        code, doc = run_cli(capsys, "eval", "includes", left,
                            "(union (wordopen (base a)) (wordopen (base b)))",
                            "--space", WORDS)
        assert code == 0
        assert doc == {"bound": 4, "query": "includes", "result": True,
                       "via": "union-left", "witness": None}


class TestIterate:
    def test_div_three_steps(self, capsys):
        code, doc = run_cli(capsys, "iterate", "div", "--steps", "3",
                            "--bound", "10")
        assert code == 0
        assert len(doc["stages"]) == 4
        last = doc["stages"][3]
        exprs = {g["expr"] for g in last["generators"]}
        assert "(up 1)" in exprs and "(up 2)" in exprs and "(up 3)" in exprs
        depths = {g["expr"]: g["depth"] for g in last["generators"]}
        assert depths["(up 3)"] == "3"

    def test_deterministic_output(self, capsys):
        _, doc1 = run_cli(capsys, "iterate", "subword", "--steps", "2",
                          "--bound", "4")
        _, doc2 = run_cli(capsys, "iterate", "subword", "--steps", "2",
                          "--bound", "4")
        assert doc1 == doc2

    def test_dot_output(self, capsys, tmp_path):
        dot_path = tmp_path / "lattice.dot"
        code, doc = run_cli(capsys, "iterate", "subword", "--steps", "2",
                            "--bound", "5", "--dot-out", str(dot_path))
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("digraph")
        assert text.count("->") == 12

    def test_json_out_round_trips(self, capsys, tmp_path):
        json_path = tmp_path / "stages.json"
        code, doc = run_cli(capsys, "iterate", "div", "--steps", "2",
                            "--bound", "8", "--json-out", str(json_path))
        assert code == 0
        stored = json.loads(json_path.read_text())
        assert stored["stages"] == doc["stages"]


class TestBadChain:
    def test_prefix_rule_chain(self, capsys):
        code, doc = run_cli(capsys, "badchain", "baditer", "--length", "5",
                            "--bound", "6")
        assert code == 0
        picks = doc["chain"]["picks"]
        assert len(picks) == 5
        assert picks[0] == "(prefix (base b) (whole))"
        assert picks[1] == "(prefix (base a) (prefix (base b) (whole)))"

    def test_subword_rule_none(self, capsys):
        code, doc = run_cli(capsys, "badchain", "subword", "--length", "5",
                            "--bound", "6")
        assert code == 0 and doc["chain"] is None


class TestGood:
    def test_sequence_file(self, capsys, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("(up (word a b))\n(up (word b))\n(up (word a b a))\n")
        code, doc = run_cli(capsys, "good", str(seq),
                            "--space", "(words (fin a b))", "--bound", "6")
        assert code == 0 and doc["good_index"] == 2

    @pytest.mark.parametrize("lines", [
        ["(up (word c))"],
        ["(union (up (word a)) (up (word c)))", "(up (word a))"],
        ["(up (word b))", "(up (word a c))"],
    ])
    def test_ill_typed_point_is_a_domain_error(self, capsys, tmp_path, lines):
        # Read by the certificate, the point is rejected even where no
        # comparison reaches it.
        seq = tmp_path / "seq.txt"
        seq.write_text("\n".join(lines) + "\n")
        code, doc = run_cli(capsys, "good", str(seq), "--space", WORDS)
        assert code == 1 and doc["kind"] == "domain" and doc["error"]


class TestCover:
    def test_vas_cover(self, capsys, tmp_path):
        system = tmp_path / "net.json"
        system.write_text(json.dumps({
            "family": "vas",
            "places": 2,
            "rules": [{"guard": [1, 0], "delta": [-1, 1]}],
            "init": [1, 0],
            "target": [[0, 1]],
        }))
        code, doc = run_cli(capsys, "cover", str(system))
        assert code == 0
        assert doc["verdict"] == "coverable"
        assert doc["witness_length"] == 1

    def test_missing_file_is_domain_error(self, capsys):
        code, doc = run_cli(capsys, "cover", "/nonexistent/net.json")
        assert code == 1


class TestDivisibility:
    def test_words_coincidence(self, capsys):
        code, doc = run_cli(
            capsys, "divisibility", "(mu (sum unit (prod (fin a b) id)))",
            "--depth", "4", "--check", "coincidence")
        assert code == 0
        assert doc["equal"] is True and doc["bound"] == 3

    def test_words_stability(self, capsys):
        code, doc = run_cli(
            capsys, "divisibility", "(mu (sum unit (prod (fin a b) id)))",
            "--depth", "4", "--check", "stability")
        assert code == 0 and doc["stable"] is True

    def test_trees_embedding(self, capsys):
        code, doc = run_cli(
            capsys, "divisibility", "(mu (prod (fin a b) (list id)))",
            "--depth", "3", "--check", "embedding", "--size-cap", "6")
        assert code == 0 and doc["equal"] is True

    def test_functor_text_is_read(self, capsys):
        # Whitespace around a token is the reader's, as for points.
        argv = ["--depth", "1", "--check", "stability"]
        assert (run_cli(capsys, "divisibility", " unit", *argv)
                == run_cli(capsys, "divisibility", "unit", *argv))

    @pytest.mark.parametrize("text, error", [
        ("id)", "trailing input (line 1, column 3)"),
        ("unit id", "trailing input (line 1, column 6)"),
        ("", "unexpected end of input")])
    def test_functor_syntax_error_is_the_readers(self, capsys, text, error):
        code, doc = run_cli(capsys, "divisibility", text, "--depth", "1",
                            "--check", "stability")
        assert code == 2 and doc == {"error": error, "kind": "syntax"}


WORDS = "(words (fin a b))"
ONE_PLACE = {"family": "vas", "places": 1,
             "rules": [{"guard": [0], "delta": [1]}],
             "init": [0], "target": [[2]]}
DEEP = "(union " * 5000 + "(whole)" + ")" * 5000
# More digits than int() converts from a string by default.
LONG_NUMBER = "9" * 5000


def one_place(**fields):
    return dict(ONE_PLACE, **fields)


def two_locations(**fields):
    """A lossy system over q0, q1 that sends a from q0 and moves to q1."""
    return dict({"family": "lossy", "locations": ["q0", "q1"],
                 "alphabet": ["a"],
                 "rules": [{"from": "q0", "op": "send", "letter": "a",
                            "to": "q1"}],
                 "init": {"location": "q0", "channel": []},
                 "target": [{"location": "q1", "channel": ["a"]}]}, **fields)


# (argv, system document written to the SYSTEM argument, exit code)
MALFORMED = [
    pytest.param(["eval", "leq", "(word a)", "7", "--space", WORDS],
                 None, 1, id="leq-ill-typed"),
    pytest.param(["eval", "member", "(word a)", DEEP, "--space", WORDS],
                 None, 2, id="deep-nesting"),
    pytest.param(["eval", "leq", "(nat x)", "1", "--space", "nat"],
                 None, 2, id="nat-not-a-number"),
    pytest.param(["eval", "leq", "a b", "a", "--space", "(fin a)"],
                 None, 2, id="point-two-tokens"),
    pytest.param(["eval", "leq", "a)", "a", "--space", "(fin a)"],
                 None, 2, id="point-unopened-paren"),
    pytest.param(["cover", "SYSTEM"], one_place(places="two"), 1,
                 id="places-text"),
    pytest.param(["cover", "SYSTEM"],
                 one_place(rules=[{"guard": [0], "delta": ["x"]}]), 1,
                 id="delta-text"),
    pytest.param(["cover", "SYSTEM"], [1, 2], 1, id="document-not-object"),
    pytest.param(["cover", "SYSTEM"], one_place(init=[-3]), 1,
                 id="init-negative"),
    pytest.param(["cover", "SYSTEM"], one_place(target=[[-1]]), 1,
                 id="target-negative"),
    pytest.param(["cover", "SYSTEM", "--fuel", "-1"], ONE_PLACE, 1,
                 id="fuel-negative"),
    pytest.param(["cover", "SYSTEM"],
                 two_locations(init={"location": "q9", "channel": []}), 1,
                 id="init-location-unknown"),
    pytest.param(["cover", "SYSTEM"],
                 two_locations(target=[{"location": "q9", "channel": []}]), 1,
                 id="target-location-unknown"),
    pytest.param(["cover", "SYSTEM"], one_place(places=0), 1,
                 id="places-zero"),
    pytest.param(["cover", "SYSTEM"],
                 one_place(rules=[{"guard": [0, 0], "delta": [1]}]), 1,
                 id="rule-arity"),
    pytest.param(["cover", "SYSTEM"], one_place(family="petri"), 1,
                 id="family-unknown"),
    pytest.param(["cover", "SYSTEM"], one_place(target=[]), 1,
                 id="target-empty"),
    *(pytest.param(["cover", "SYSTEM"], two_locations(rules=[dict(
        {"from": "q0", "op": "send", "letter": "a", "to": "q1"}, **rule)]),
        1, id="lossy-rule-" + name)
      for name, rule in [("location-unknown", {"to": "q9"}),
                         ("op-unknown", {"op": "push"}),
                         ("letter-on-nop", {"op": "nop"}),
                         ("send-without-letter", {"letter": None}),
                         ("letter-unknown", {"letter": "b"})]),
    pytest.param(["eval", "extent", "(whole)", "--space", WORDS,
                  "--bound", "-1"], None, 1, id="bound-negative"),
    pytest.param(["iterate", "subword", "--steps", "2", "--cap", "-5"],
                 None, 1, id="cap-negative"),
    pytest.param(["iterate", "subword", "--steps", "2", "--cap", "0"],
                 None, 1, id="cap-zero"),
    pytest.param(["iterate", "div", "--steps", "-1"], None, 1,
                 id="steps-negative"),
    pytest.param(["badchain", "subword", "--length", "-1"], None, 1,
                 id="length-negative"),
    pytest.param(["divisibility", "(mu (sum unit (prod (fin a b) id)))",
                  "--depth", "-1", "--check", "stability"], None, 1,
                 id="depth-negative"),
    *(pytest.param(["divisibility", "(sum unit (prod (fin a b) id))",
                    "--depth", "0", "--check", check], None, 1,
                   id="depth-zero-" + check)
      for check in ("embedding", "stability", "coincidence")),
    pytest.param(["iterate", "subword", "--steps", "x"], None, 2,
                 id="steps-not-a-number"),
    pytest.param(["iterate", "subword"], None, 2, id="steps-missing"),
    pytest.param(["iterate", "nosuchrule", "--steps", "1"], None, 2,
                 id="unknown-expander"),
    pytest.param(["iterate", "subword", "--alphabet", "1 2", "--steps", "1"],
                 None, 2, id="alphabet-numeral-name"),
    pytest.param(["badchain", "subword", "--alphabet", "a b(", "--length",
                  "1"], None, 2, id="alphabet-name-with-paren"),
    pytest.param([], None, 2, id="subcommand-missing"),
    pytest.param(["eval", "member", "(pair 1)", "(whole)",
                  "--space", "(prod nat nat)"], None, 2, id="pair-short"),
    pytest.param(["eval", "member", "(pair 1 1)", "(rect (whole))",
                  "--space", "(prod nat nat)"], None, 2, id="rect-short"),
    pytest.param(["eval", "leq", "a", "a", "--space", "(sum (fin a))"],
                 None, 2, id="sum-short"),
    pytest.param(["eval", "leq", "a", "b",
                  "--space", "(qo (elems a b) (leq a))"], None, 2,
                 id="qo-pair-short"),
    pytest.param(["eval", "leq", "a", "b",
                  "--space", "(qo (elems a b) (leq (a c)))"], None, 1,
                 id="qo-unknown-name"),
    pytest.param(["eval", "leq", "(ordword (a))", "(ordword (a 1))",
                  "--space", "(ordwords (fin a b) w*2)"], None, 2,
                 id="ordword-run-short"),
    pytest.param(["divisibility", "(list)", "--depth", "1",
                  "--check", "stability"], None, 2, id="list-short"),
    *(pytest.param(["divisibility", text, "--depth", "1",
                    "--check", "stability"], None, 2, id="functor-" + name)
      for name, text in [("unopened-paren", "id)"), ("two-tokens", "unit id"),
                         ("empty", "")]),
    pytest.param(["eval", "member", "(word a)", "(whole junk)",
                  "--space", WORDS], None, 2, id="whole-with-argument"),
    pytest.param(["eval", "member", "(word a)", "--space", WORDS], None,
                 2, id="eval-argument-missing"),
    pytest.param(["eval", "leq", LONG_NUMBER, "1", "--space", "nat"],
                 None, 2, id="number-too-long"),
    pytest.param(["eval", "leq", "(ordword (a %s))" % LONG_NUMBER,
                  "(ordword (a 1))", "--space", "(ordwords (fin a b) w*2)"],
                 None, 2, id="ordinal-count-too-long"),
    pytest.param(["eval", "extent", "(up (word a))", "--space", WORDS,
                  "--bound", "1000"], None, 1, id="universe-too-deep"),
    pytest.param(["eval", "extent", "(up (word a))", "--space", WORDS,
                  "--bound", "900"], None, 1, id="universe-too-large"),
    pytest.param(["eval", "includes", "(up (word a))",
                  "(union (up (word a)) (up (word c)))", "--space", WORDS],
                 None, 1, id="includes-uncompared-ill-typed"),
    pytest.param(["eval", "includes", "(up (word c))", "(empty)",
                  "--space", WORDS], None, 1, id="includes-ill-typed-left"),
    pytest.param(["eval", "extent", "(unionc (wholec) (down (word c)))",
                  "--space", WORDS], None, 1, id="extent-unread-closed-part"),
    pytest.param(["eval", "extent", "(compl (union (whole) (up (word c))))",
                  "--space", WORDS], None, 1,
                 id="extent-complement-unread-part"),
    pytest.param(["eval", "member", "(word a)", "(up (word a) (word c))",
                  "--space", WORDS], None, 1, id="member-up-ill-typed"),
    pytest.param(["eval", "member", "(word a)", "(down (word a) (word c))",
                  "--space", WORDS], None, 1, id="member-down-ill-typed"),
    # A part that no rule reads is checked against the space too.
    pytest.param(["eval", "member", "(word a)",
                  "(union (up (word a)) (up (word c)))", "--space", WORDS],
                 None, 1, id="member-unread-ill-typed-part"),
    pytest.param(["eval", "member", "(word a)",
                  "(unionc (wholec) (down (word c)))", "--space", WORDS],
                 None, 1, id="member-unread-closed-part"),
    pytest.param(["eval", "member", "(word a)",
                  "(union (whole) (rect (whole) (whole)))", "--space", WORDS],
                 None, 1, id="member-unread-rect-over-words"),
    pytest.param(["eval", "includes", "(up (word c))", "(whole)",
                  "--space", WORDS], None, 1,
                 id="includes-ill-typed-left-below-whole"),
    pytest.param(["eval", "includes", "(up (word c))", "(up (word c))",
                  "--space", WORDS], None, 1,
                 id="includes-ill-typed-equal-sides"),
    pytest.param(["eval", "includes", "(empty)", "(base c)",
                  "--space", WORDS], None, 1,
                 id="includes-empty-below-base-over-words"),
    pytest.param(["eval", "extent", "(whole)", "--space", "(fin 5 6)"],
                 None, 2, id="numeral-name"),
    pytest.param(["eval", "member", "(word a)", "(union (down (word a)))",
                  "--space", WORDS], None, 2, id="member-closed-as-open"),
    pytest.param(["eval", "extent", "(compl (down (word a)))",
                  "--space", WORDS], None, 2, id="extent-closed-as-open"),
    pytest.param(["eval", "extent", "(carrier (up (word a)))",
                  "--space", WORDS], None, 2, id="extent-open-as-closed"),
    pytest.param(["eval", "includes", "(up (word a))",
                  "(rtimes (base a) (whole))", "--space", WORDS], None, 2,
                 id="includes-open-as-closed"),
    pytest.param(["eval", "member", "(word a)", "(ordprod (down a))",
                  "--space", WORDS], None, 2,
                 id="member-closed-as-product-atom"),
    pytest.param(["eval", "member", "a", "(base c)", "--space", "(fin a b)"],
                 None, 1, id="member-base-name-outside"),
    pytest.param(["eval", "member", "(word a)", "(base a)", "--space", WORDS],
                 None, 1, id="member-base-over-words"),
    pytest.param(["eval", "member", "3", "(base a)", "--space", "nat"],
                 None, 1, id="member-base-over-nat"),
    pytest.param(["eval", "member", "b", "(base a)",
                  "--space", "(qo (elems a b) (leq (a b)))"], None, 1,
                 id="member-base-not-upward-closed"),
    # A pattern reads the mask of each part, so an ill-formed part is an
    # error at every bound, even where no word is long enough to reach it.
    pytest.param(["eval", "extent",
                  "(prefix (whole) (wordopen (whole) (base a)))", "--space",
                  "(ordwords (qo (elems a b) (leq (a b))) w)", "--bound", "1"],
                 None, 1, id="extent-base-not-upward-closed-at-bound-1"),
    # A word or tree rule over another space is an error even where the
    # universe is empty.
    *(pytest.param(["eval", "extent", text, "--space", "(fin a b)",
                    "--bound", "0"], None, 1, id="extent-%s-at-bound-0" % name)
      for name, text in [("tri", "(tri 1 (whole))"),
                         ("wordopen", "(wordopen (base a))"),
                         ("prefix", "(prefix (base a) (whole))"),
                         ("concatup", "(concatup (whole) (up a))"),
                         ("upsub", "(upsub (whole))"),
                         ("treeopen", "(treeopen (base a) (whole))")]),
]


@pytest.mark.parametrize("argv, system, want", MALFORMED)
def test_malformed_input_gives_one_error_document(capsys, tmp_path, argv,
                                                  system, want):
    if system is not None:
        path = tmp_path / "net.json"
        path.write_text(json.dumps(system))
        argv = [str(path) if a == "SYSTEM" else a for a in argv]
    code = main(argv)
    out = capsys.readouterr().out
    doc = json.loads(out)  # raises on anything beyond one document
    assert code == want
    assert doc["kind"] == {1: "domain", 2: "syntax"}[code] and doc["error"]


class TestEnvironment:
    """The extent bound has one source, `--bound`, whose default is
    `sets.DEFAULT_BOUND`; no module reads the environment."""

    @pytest.mark.parametrize("value", ["2", "four"])
    def test_bound_does_not_read_the_environment(self, capsys, monkeypatch,
                                                 value):
        monkeypatch.setenv("NOETHKIT_ORACLE_BOUND", value)
        code, doc = run_cli(capsys, "eval", "extent", "(whole)",
                            "--space", WORDS)
        assert code == 0 and doc["bound"] == 4

    def test_no_module_reads_the_environment(self):
        package = Path(noethkit.__file__).resolve().parent
        readers = {"environ", "environb", "getenv", "getenvb"}
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os"):
                    names = {node.attr}
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = {alias.name for alias in node.names}
                else:
                    names = set()
                assert not names & readers, (path.name, node.lineno)


HASH_SEED_ERRORS = [
    # The message names the space, whose relation is a frozenset of pairs.
    ["eval", "includes", "(up (word c))", "(up (word a))", "--space", WORDS],
    # The message names the set, whose base names are a frozenset.
    ["eval", "member", "a", "(amo (compl (base a b c)))",
     "--space", "(fin a b c)"],
]


def test_error_text_does_not_depend_on_the_hash_seed():
    src = str(Path(noethkit.__file__).resolve().parents[1])
    for args in HASH_SEED_ERRORS:
        argv = [sys.executable, "-m", "noethkit.cli"] + args
        outs = {subprocess.run(argv, capture_output=True, check=False,
                               env=dict(os.environ, PYTHONPATH=src,
                                        PYTHONHASHSEED=seed)).stdout
                for seed in ("1", "3")}
        assert len(outs) == 1 and b'"kind": "domain"' in outs.pop(), args


def test_long_words_enumerate_without_recursion(capsys):
    code, doc = run_cli(capsys, "eval", "extent", "(up (word a))",
                        "--space", "(words (fin a))", "--bound", "1000")
    assert code == 0 and doc["count"] == 1000
    assert doc["points"][-1] == "(word%s)" % (" a" * 1000)


@pytest.mark.parametrize("argv, named", [
    (["eval", "member", "(pair 1)", "(whole)", "--space", "(prod nat nat)"],
     "(pair p q)"),
    (["eval", "member", "(pair 1 1)", "(rect (whole))",
      "--space", "(prod nat nat)"], "(rect u v)"),
    (["eval", "leq", "a", "a", "--space", "(sum (fin a))"], "(sum S T)"),
    (["eval", "leq", "a", "b", "--space", "(qo (elems a b) (leq a))"],
     "(leq ...)"),
    (["eval", "leq", "(ordword (a))", "(ordword (a 1))",
      "--space", "(ordwords (fin a b) w*2)"], "(ordword ...)"),
    (["divisibility", "(list)", "--depth", "1", "--check", "stability"],
     "(list F)"),
    (["eval", "member", "(word a)", "(whole junk)", "--space", WORDS],
     "(whole)"),
    (["eval", "member", "(word a)", "--space", WORDS], "missing SET"),
])
def test_argument_count_errors_name_the_form(capsys, argv, named):
    code, doc = run_cli(capsys, *argv)
    assert code == 2 and named in doc["error"]


def grammar(heads, leaves):
    """Forms of random heads with random numbers of arguments, each argument
    a leaf or a form of the same grammar."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.builds(
            lambda head, args: "(%s)" % " ".join([head] + args),
            st.sampled_from(heads + ["bogus"]), st.lists(inner, max_size=3)),
        max_leaves=5)


spaces = st.one_of(
    st.sampled_from(["nat", "(fin a b)", WORDS, "(trees (fin a b))",
                     "(prod nat (fin a b))", "(ordwords (fin a b) w*2)"]),
    grammar(["fin", "qo", "sum", "prod", "words", "trees", "ordwords",
             "ordtrees"], ["nat", "(fin a b)", "w*2", "(a b)"]))
points = grammar(["nat", "pair", "inl", "inr", "word", "tree", "ordword",
                  "ordtree"], ["a", "1", "(a 1)", "(a w)", "(word a)"])
sets = grammar(["empty", "whole", "union", "inter", "up", "base", "rect",
                "sumopen", "wordopen", "concatup", "treeopen", "tri",
                "rtimes", "prefix", "upsub", "carrier", "emptyc", "wholec",
                "unionc", "interc", "down", "compl", "ordprod", "amo", "pow"],
               ["(whole)", "(up a)", "(down a)", "(base a)", "w", "a"])
functors = grammar(["mu", "fin", "const", "sum", "prod", "list"],
                   ["unit", "id", "(fin a b)", "nat"])
QUERY_ARGUMENTS = {"member": [points, sets], "includes": [sets, sets],
                   "leq": [points, points], "closure": [points],
                   "extent": [sets]}


@st.composite
def commands(draw):
    """An eval query with arguments of its kinds, some of them missing or
    extra, or a divisibility check of a functor."""
    if draw(st.booleans()):
        return ["divisibility", draw(functors), "--depth", "1",
                "--check", "stability", "--size-cap", "2"]
    query = draw(st.sampled_from(sorted(QUERY_ARGUMENTS)))
    kinds = QUERY_ARGUMENTS[query]
    kinds = draw(st.sampled_from([kinds, kinds[:-1], kinds + [points]]))
    return (["eval", query] + [draw(kind) for kind in kinds]
            + ["--space", draw(spaces), "--bound", "2"])


@settings(max_examples=300, deadline=None)
@given(commands())
def test_any_form_gives_one_json_document(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    json.loads(stdout.getvalue())  # raises on anything beyond one document
    assert code in (0, 1, 2)
