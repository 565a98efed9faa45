import io

import pytest
from hypothesis import given, settings, strategies as st

from cnlsearch.grammar import parse
from cnlsearch.lexicon import tokenize
from cnlsearch.queries import StructuredQuery
from cnlsearch.responder import (AnswerLines, ResponseFrame, build_echo,
                                 present, prioritize, reconstruct)
from cnlsearch.store import ProductRecord, ResultSet


def make_frame(echo, ids, matched="AND"):
    rs = ResultSet(tuple(ids), (1,) * len(ids), StructuredQuery(1, ("x",)),
                   matched)
    return ResponseFrame(echo, rs)


BOLT_IDS = [1, 4]  # "Hex Bolt M8" and "Bolt M8x20" in the sample catalog


@pytest.fixture
def sample_lines(catalog_and_index):
    return AnswerLines(catalog_and_index[0])


class TestEcho:
    def test_subject_capitalized(self, lex, graph):
        ast = parse(tokenize("she is looking for BOLT", lex), graph)
        assert build_echo(ast) == "She is looking for bolt"

    def test_bare_statement(self, lex, graph):
        ast = parse(tokenize("bolt M8.", lex), graph)
        assert build_echo(ast) == "bolt m8"

    def test_echo_reparses_identically(self, lex, graph):
        for line in ["She needs Bolt M8!", "we are searching for pump seal",
                     "find gasket", "bolt"]:
            ast = parse(tokenize(line, lex), graph)
            echo_ast = parse(tokenize(build_echo(ast), lex), graph)
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
        full = make_frame("b", BOLT_IDS)
        assert prioritize([empty, full]) == [full, empty]

    def test_all_empty_keeps_order(self):
        frames = [make_frame(str(i), [], "OR") for i in range(3)]
        assert prioritize(frames) == frames

    def test_single_unchanged(self):
        frames = [make_frame("a", BOLT_IDS)]
        assert prioritize(frames) == frames

    def test_stable_among_nonempty(self):
        f1 = make_frame("a", BOLT_IDS)
        f2 = make_frame("b", BOLT_IDS[:1])
        assert prioritize([f1, f2]) == [f1, f2]


class TestReconstruct:
    def test_and_hits(self, sample_lines):
        text = reconstruct(make_frame("She is looking for bolt", BOLT_IDS),
                           sample_lines)
        assert text == (
            "Query: She is looking for bolt\n"
            "Results (2):\n"
            "- [1] Hex Bolt M8 — fasteners\n"
            "- [4] Bolt M8x20 — fasteners\n"
        )

    def test_no_hits(self, sample_lines):
        text = reconstruct(make_frame("bolt", [], "OR"), sample_lines)
        assert text == "Query: bolt\nResults (0):\n- no matching products\n"

    def test_partial_match_header(self, sample_lines):
        text = reconstruct(make_frame("bolt titanium", [1], "OR"),
                           sample_lines)
        assert "Results (1, partial match):" in text

    def test_ids_and_keyword_present(self, lex, graph, sample_lines):
        ast = parse(tokenize("He needs bolt m8", lex), graph)
        frame = ResponseFrame(build_echo(ast),
                              ResultSet(tuple(BOLT_IDS), (2, 2),
                                        StructuredQuery(1, ("bolt", "m8")),
                                        "AND"))
        text = reconstruct(frame, sample_lines)
        assert "bolt m8" in text
        for rid in BOLT_IDS:
            assert f"[{rid}]" in text


def reference_reconstruct(echo, items, matched):
    """Frozen copy of the per-item template ``reconstruct`` rendered when
    answers held items; ``items`` are (record id, name, category)."""
    n = len(items)
    if matched == "OR" and n > 0:
        header = f"Results ({n}, partial match):"
    else:
        header = f"Results ({n}):"
    lines = [f"Query: {echo}", header]
    if n == 0:
        lines.append("- no matching products")
    else:
        lines.extend(f"- [{rid}] {name} — {category}"
                     for rid, name, category in items)
    return "".join(line + "\n" for line in lines)


# what ingest accepts in a name or category: any text without a control
# character, non-ASCII included; names are not empty
FIELD = st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=10)


class TestReconstructMatchesTemplate:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), echo=st.text(max_size=20),
           records=st.dictionaries(st.integers(1, 10**9),
                                   st.tuples(FIELD.filter(bool), FIELD),
                                   min_size=1, max_size=8))
    def test_line_for_line(self, data, echo, records):
        lines = AnswerLines({rid: ProductRecord(name, category)
                             for rid, (name, category) in records.items()})
        answer = st.tuples(st.lists(st.sampled_from(sorted(records)), unique=True),
                           st.sampled_from(["AND", "OR"]))
        answers = data.draw(st.lists(answer, min_size=1, max_size=4))
        # every record shown is shown again, in reverse order, through the
        # lines the first answer built
        answers += [(ids[::-1], "OR") for ids, _ in answers]
        for ids, matched in answers:
            rs = ResultSet(tuple(ids), (1,) * len(ids),
                           StructuredQuery(1, ("x",)), matched)
            expected = reference_reconstruct(
                echo, [(rid, *records[rid]) for rid in ids], matched)
            assert reconstruct(ResponseFrame(echo, rs), lines) == expected


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
