import io

from cnlsearch.grammar import parse
from cnlsearch.lexicon import tokenize
from cnlsearch.queries import StructuredQuery
from cnlsearch.responder import (ResponseFrame, build_echo, present,
                                 prioritize, reconstruct)
from cnlsearch.store import ResultItem, ResultSet


def make_frame(echo, items, matched="AND"):
    rs = ResultSet(tuple(items), StructuredQuery(1, ("x",), "need"), matched)
    return ResponseFrame(echo, rs)


BOLT_ITEMS = [
    ResultItem(1, "Hex Bolt M8", "fasteners", 1),
    ResultItem(4, "Bolt M8x20", "fasteners", 1),
]


class TestEcho:
    def test_subject_capitalized(self, lex, graph):
        ast, _ = parse(tokenize("she is looking for BOLT", lex), graph)
        assert build_echo(ast) == "She is looking for bolt"

    def test_bare_statement(self, lex, graph):
        ast, _ = parse(tokenize("bolt M8.", lex), graph)
        assert build_echo(ast) == "bolt m8"

    def test_echo_reparses_identically(self, lex, graph):
        for line in ["She needs Bolt M8!", "we are searching for pump seal",
                     "find gasket", "bolt"]:
            ast, _ = parse(tokenize(line, lex), graph)
            echo_ast, _ = parse(tokenize(build_echo(ast), lex), graph)
            original = [(t.cls) for t in
                        filter(None, [ast.subject, ast.auxiliary, ast.verb])]
            echoed = [(t.cls) for t in
                      filter(None, [echo_ast.subject, echo_ast.auxiliary,
                                    echo_ast.verb])]
            assert original == echoed
            assert ([t.normalized for t in ast.keyword_phrase]
                    == [t.normalized for t in echo_ast.keyword_phrase])


class TestPrioritize:
    def test_nonempty_first(self):
        empty = make_frame("a", [], "OR")
        full = make_frame("b", BOLT_ITEMS)
        assert prioritize([empty, full]) == [full, empty]

    def test_all_empty_keeps_order(self):
        frames = [make_frame(str(i), [], "OR") for i in range(3)]
        assert prioritize(frames) == frames

    def test_single_unchanged(self):
        frames = [make_frame("a", BOLT_ITEMS)]
        assert prioritize(frames) == frames

    def test_stable_among_nonempty(self):
        f1 = make_frame("a", BOLT_ITEMS)
        f2 = make_frame("b", BOLT_ITEMS[:1])
        assert prioritize([f1, f2]) == [f1, f2]


class TestReconstruct:
    def test_and_hits(self):
        text = reconstruct(make_frame("She is looking for bolt", BOLT_ITEMS))
        assert text == (
            "Query: She is looking for bolt\n"
            "Results (2):\n"
            "- [1] Hex Bolt M8 — fasteners\n"
            "- [4] Bolt M8x20 — fasteners\n"
        )

    def test_no_hits(self):
        text = reconstruct(make_frame("bolt", [], "OR"))
        assert text == "Query: bolt\nResults (0):\n- no matching products\n"

    def test_partial_match_header(self):
        item = ResultItem(1, "Hex Bolt M8", "fasteners", 1)
        text = reconstruct(make_frame("bolt titanium", [item], "OR"))
        assert "Results (1, partial match):" in text

    def test_ids_and_keyword_present(self, lex, graph):
        ast, _ = parse(tokenize("He needs bolt m8", lex), graph)
        frame = ResponseFrame(build_echo(ast),
                              ResultSet(tuple(BOLT_ITEMS),
                                        StructuredQuery(1, ("bolt", "m8"), "need"),
                                        "AND"))
        text = reconstruct(frame)
        assert "bolt m8" in text
        for item in BOLT_ITEMS:
            assert f"[{item.record_id}]" in text


class TestPresent:
    def test_blank_line_separator(self):
        sink = io.StringIO()
        present(["a\nb\n", "c\n"], sink)
        assert sink.getvalue() == "a\nb\n\nc\n"

    def test_no_responses(self):
        sink = io.StringIO()
        present([], sink)
        assert sink.getvalue() == ""

    def test_single_response_verbatim(self):
        sink = io.StringIO()
        present(["only\n"], sink)
        assert sink.getvalue() == "only\n"
