import pytest
from hypothesis import given, settings, strategies as st

from cnlsearch.grammar import parse
from cnlsearch.lexicon import tokenize
from cnlsearch.semantics import (CANONICAL_PREDICATE, SemanticModel, Statement,
                                 Triple, build_model, canonical_predicate,
                                 export_triples, resolve)


def model_of(lines, lex, graph):
    asts = [parse(tokenize(line, lex), graph) for line in lines]
    return build_model(asts)


class TestBuildModel:
    def test_continuous_triple(self, lex, graph):
        m = model_of(["She is looking for bolt"], lex, graph)
        t = m.statements[0].triple
        assert (t.subject, t.predicate, t.object) == ("she", "looking for", "bolt")

    def test_bare_triple_gets_unknown_predicate(self, lex, graph):
        m = model_of(["bolt M8"], lex, graph)
        t = m.statements[0].triple
        assert (t.subject, t.predicate, t.object) == ("-", "unknown", "bolt m8")

    def test_third_singular_canonicalized(self, lex, graph):
        m = model_of(["He needs pump seal"], lex, graph)
        t = m.statements[0].triple
        assert (t.subject, t.predicate, t.object) == ("he", "need", "pump seal")

    def test_ids_consecutive(self, lex, graph):
        m = model_of(["bolt", "washer", "pump"], lex, graph)
        assert [s.statement_id for s in m.statements] == [1, 2, 3]

    def test_canonicalization_idempotent(self, lex):
        verbs = [k for k, v in lex.entries.items() if v in "DEIJ"]
        for v in verbs:
            assert canonical_predicate(canonical_predicate(v)) == canonical_predicate(v)

    def test_canonical_map_targets_are_base_forms(self):
        for base in CANONICAL_PREDICATE.values():
            assert base not in CANONICAL_PREDICATE


class TestResolve:
    def test_shared_word_links(self, lex, graph):
        m = resolve(model_of(["bolt M8", "bolt washer"], lex, graph))
        assert len(m.relations) == 1
        rel = m.relations[0]
        assert (rel.from_id, rel.to_id) == (1, 2)
        assert rel.shared_terms == frozenset({"bolt"})

    def test_single_statement_no_relations(self, lex, graph):
        assert resolve(model_of(["bolt"], lex, graph)).relations == ()

    def test_disjoint_objects_no_relations(self, lex, graph):
        assert resolve(model_of(["pump", "valve"], lex, graph)).relations == ()

    def test_pairs_ordered_and_unique(self, lex, graph):
        m = resolve(model_of(["bolt", "bolt nut", "bolt washer"], lex, graph))
        pairs = [(r.from_id, r.to_id) for r in m.relations]
        assert pairs == [(1, 2), (1, 3), (2, 3)]
        assert all(a < b for a, b in pairs)

    def test_order_independent_content(self, lex, graph):
        m1 = resolve(model_of(["bolt m8", "bolt washer"], lex, graph))
        m2 = resolve(model_of(["bolt washer", "bolt m8"], lex, graph))
        assert m1.relations[0].shared_terms == m2.relations[0].shared_terms


def all_pairs_relations(objects):
    """Reference definition: every pair a < b in input order whose objects
    share a word, with the shared words."""
    words = [set(obj.split()) for obj in objects]
    return [
        (a + 1, b + 1, frozenset(words[a] & words[b]))
        for a in range(len(words))
        for b in range(a + 1, len(words))
        if words[a] & words[b]
    ]


# a pool of a few objects over a five-word alphabet, drawn from with
# replacement: words and whole objects repeat, and lists of 0 or 1
# statements come up too
OBJECTS = st.lists(
    st.lists(st.sampled_from(["bolt", "nut", "m8", "pump", "seal"]),
             min_size=1, max_size=3).map(" ".join),
    min_size=1, max_size=5,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=30))


class TestResolveProperty:
    @settings(max_examples=300, deadline=None)
    @given(objects=OBJECTS)
    def test_matches_all_pairs(self, objects):
        model = SemanticModel(
            tuple(Statement(i, Triple("-", "unknown", obj))
                  for i, obj in enumerate(objects, start=1)),
            (),
        )
        got = [(r.from_id, r.to_id, r.shared_terms)
               for r in resolve(model).relations]
        assert got == all_pairs_relations(objects)


class TestExportTriples:
    def test_single_statement(self, lex, graph):
        m = model_of(["I need bolt"], lex, graph)
        assert export_triples(m) == "1\ti\tneed\tbolt\n"

    def test_empty_model(self, lex, graph):
        assert export_triples(model_of([], lex, graph)) == ""

    def test_with_relation(self, lex, graph):
        m = resolve(model_of(["I need bolt", "She wants bolt"], lex, graph))
        lines = export_triples(m).splitlines()
        assert lines == [
            "1\ti\tneed\tbolt",
            "2\tshe\twant\tbolt",
            "1\trelated_to\t2\tbolt",
        ]

    def test_totality_on_accepted(self, lex, graph):
        lines = ["bolt", "find pump", "They are looking for seal kit"]
        m = model_of(lines, lex, graph)
        assert len(m.statements) == len(lines)
        assert all(s.triple.object for s in m.statements)
