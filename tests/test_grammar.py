import itertools

import pytest

from cnlsearch.grammar import (DEFAULT_GRAMMAR_TEXT, GrammarError, ParseError,
                               accepts_sequence, agreement_of, default_graph,
                               enumerate_patterns, load_graph, parse)
from cnlsearch.lexicon import WORD_CLASSES, tokenize

DEFAULT_EDGES = {
    ("START", c) for c in "ABCDEFGHIJK"
} | {
    ("A", "D"), ("A", "F"), ("B", "D"), ("B", "G"), ("C", "E"), ("C", "H"),
    ("F", "I"), ("G", "I"), ("H", "I"),
    ("D", "K"), ("E", "K"), ("I", "K"), ("J", "K"),
    ("K", "K"), ("K", "END"),
}


def parse_line(line, lex, graph):
    return parse(tokenize(line, lex), graph)


class TestLoadGraph:
    def test_default_edge_set(self, graph):
        assert set(graph.edges) == DEFAULT_EDGES

    def test_pronoun_imperative_edge_rejected(self):
        with pytest.raises(GrammarError, match="pronoun_before_imperative"):
            load_graph(DEFAULT_GRAMMAR_TEXT + "A -> J\n")

    def test_pronoun_imperative_edge_with_override(self):
        g = load_graph(DEFAULT_GRAMMAR_TEXT + "!override-jk\nA -> J\n")
        assert g.has_edge("A", "J")

    def test_empty_file_end_unreachable(self):
        with pytest.raises(GrammarError, match="END is unreachable"):
            load_graph("")

    def test_edge_into_start_rejected(self):
        with pytest.raises(GrammarError, match="into START"):
            load_graph("K -> START\n")

    def test_edge_out_of_end_rejected(self):
        with pytest.raises(GrammarError, match="out of END"):
            load_graph("END -> K\n")

    def test_unknown_tag_rejected(self):
        with pytest.raises(GrammarError, match="unknown node tag"):
            load_graph("START -> Z\n")

    def test_k_bypass_rejected(self):
        with pytest.raises(GrammarError, match="bypasses K"):
            load_graph("START -> D\nD -> K\nK -> END\nD -> END\n")

    def test_k_bypass_with_override(self):
        g = load_graph("!override-jk\nSTART -> D\nD -> K\nK -> END\nD -> END\n")
        assert g.has_edge("D", "END")


class TestParse:
    def test_present_continuous(self, lex, graph):
        ast, _ = parse_line("I am looking for bolt", lex, graph)
        assert ast.subject.normalized == "i"
        assert ast.auxiliary.normalized == "am"
        assert ast.verb.normalized == "looking for"
        assert [t.normalized for t in ast.keyword_phrase] == ["bolt"]
        assert ast.clause_kind == "continuous"

    def test_third_singular_simple(self, lex, graph):
        ast, _ = parse_line("He needs pump seal", lex, graph)
        assert [t.normalized for t in ast.keyword_phrase] == ["pump", "seal"]
        assert ast.clause_kind == "simple"

    def test_bare_keyword(self, lex, graph):
        ast, _ = parse_line("bolt M8", lex, graph)
        assert ast.clause_kind == "bare"
        assert ast.subject is None and ast.verb is None
        assert [t.normalized for t in ast.keyword_phrase] == ["bolt", "m8"]

    def test_pronoun_before_imperative(self, lex, graph):
        with pytest.raises(ParseError) as exc:
            parse_line("I find bolt", lex, graph)
        assert exc.value.kind == "pronoun_before_imperative"
        assert exc.value.found == "J"

    def test_illegal_transition_reports_expected(self, lex, graph):
        with pytest.raises(ParseError) as exc:
            parse_line("She am looking for bolt", lex, graph)
        assert exc.value.kind == "illegal_transition"
        assert exc.value.expected == frozenset({"E", "H"})

    def test_empty_statement(self, lex, graph):
        with pytest.raises(ParseError) as exc:
            parse_line("", lex, graph)
        assert exc.value.kind == "empty_statement"

    def test_punctuation_only_is_empty(self, lex, graph):
        with pytest.raises(ParseError) as exc:
            parse_line("?!.", lex, graph)
        assert exc.value.kind == "empty_statement"

    def test_missing_keyword(self, lex, graph):
        with pytest.raises(ParseError) as exc:
            parse_line("I need", lex, graph)
        assert exc.value.kind == "missing_keyword"

    def test_leading_noise_discarded(self, lex, graph):
        ast, table = parse_line("please I need bolt", lex, graph)
        noise = [r for r in table.rows if r.disposition == "discarded_noise"]
        assert [r.lexeme for r in noise] == ["please"]
        assert [t.normalized for t in ast.keyword_phrase] == ["bolt"]

    def test_interior_unknown_is_illegal(self, lex, graph):
        with pytest.raises(ParseError) as exc:
            parse_line("I quickly need bolt", lex, graph)
        assert exc.value.kind == "illegal_transition"

    def test_symbol_table_partitions_tokens(self, lex, graph):
        ts = tokenize("He needs bolt M8.", lex)
        ast, table = parse(ts, graph)
        content = [t for t in ts.tokens if t.cls not in ("WS", "END_OF_INPUT")]
        assert len(table.rows) == len(content)
        promoted = [r for r in table.rows if r.disposition == "promoted_to_K"]
        assert [r.lexeme for r in promoted] == [t.lexeme for t in ast.keyword_phrase]

    def test_deterministic(self, lex, graph):
        a1 = parse_line("We are looking for pump", lex, graph)
        a2 = parse_line("We are looking for pump", lex, graph)
        assert a1 == a2


class TestParseMatchesAcceptsSequence:
    def test_every_class_sequence_up_to_4(self, lex, graph):
        # one lexicon word per class, then a keyword: parse must accept
        # exactly the statements whose class path accepts_sequence accepts
        word = {}
        for lexeme, tag in lex.entries.items():
            word.setdefault(tag, lexeme)
        for k in range(5):
            for seq in itertools.product(WORD_CLASSES, repeat=k):
                line = " ".join([word[c] for c in seq] + ["bolt"])
                ts = tokenize(line, lex)
                assert [t.cls for t in ts.tokens if t.cls != "WS"] == [
                    *seq, "UNKNOWN", "END_OF_INPUT"]
                try:
                    parse(ts, graph)
                    accepted = True
                except ParseError:
                    accepted = False
                assert accepted == accepts_sequence(seq + ("K",), graph), line


class TestEnumeratePatterns:
    def test_short_patterns(self, graph):
        pats = enumerate_patterns(graph, 2)
        for p in [("K",), ("D", "K"), ("E", "K"), ("J", "K"), ("I", "K")]:
            assert p in pats

    def test_paper_sequences(self, graph):
        pats = enumerate_patterns(graph, 4)
        for p in [("A", "F", "I", "K"), ("B", "G", "I", "K"), ("C", "H", "I", "K"),
                  ("A", "D", "K"), ("B", "D", "K"), ("C", "E", "K")]:
            assert p in pats

    def test_zero_length(self, graph):
        assert enumerate_patterns(graph, 0) == set()

    def test_matches_accepts_sequence(self, graph):
        pats = enumerate_patterns(graph, 3)
        for p in pats:
            assert accepts_sequence(p, graph)


class TestAgreement:
    def test_third_singular_continuous(self, lex, graph):
        ast, _ = parse_line("She is looking for bolt", lex, graph)
        a = agreement_of(ast)
        assert (a.tense, a.person, a.number) == ("present_continuous", "third", "singular")

    def test_first_plural_simple(self, lex, graph):
        ast, _ = parse_line("We need bolt", lex, graph)
        a = agreement_of(ast)
        assert (a.tense, a.person, a.number) == ("present_simple", "first", "plural")

    def test_they_is_third_plural(self, lex, graph):
        ast, _ = parse_line("They want bolt", lex, graph)
        a = agreement_of(ast)
        assert (a.person, a.number) == ("third", "plural")

    def test_bare(self, lex, graph):
        ast, _ = parse_line("bolt", lex, graph)
        a = agreement_of(ast)
        assert (a.tense, a.person, a.number) == ("none", "none", "none")

    def test_imperative(self, lex, graph):
        ast, _ = parse_line("find bolt", lex, graph)
        assert agreement_of(ast).tense == "imperative"
