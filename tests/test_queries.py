import re
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from cnlsearch.grammar import parse
from cnlsearch.lexicon import tokenize
from cnlsearch.queries import StructuredQuery, generate_query, render_sql
from cnlsearch.semantics import build_model
from cnlsearch.store import execute, ingest_catalog

# index words are lowercased word characters; terms add the LIKE
# wildcards, the escape character and a quote
WORDS = st.text(alphabet="ab8_-", min_size=1, max_size=6)
TERMS = st.text(alphabet="ab8_-%\\'", min_size=1, max_size=4)


def with_special(words):
    """A word with one of the special characters put into it, so that
    what follows that character occurs in the index."""
    return st.builds(lambda word, at, char: word[:at] + char + word[at:],
                     words, st.integers(0, 6), st.sampled_from("%_\\'"))


def queries_of(lines, lex, graph):
    asts = [parse(tokenize(line, lex), graph) for line in lines]
    return generate_query(build_model(asts))


class TestGenerateQuery:
    def test_terms_from_object(self, lex, graph):
        (q,) = queries_of(["She is looking for bolt M8"], lex, graph)
        assert q.terms == ("bolt", "m8")

    def test_duplicate_terms_collapsed(self, lex, graph):
        (q,) = queries_of(["bolt bolt"], lex, graph)
        assert q.terms == ("bolt",)

    def test_empty_model(self, lex, graph):
        assert queries_of([], lex, graph) == []

    def test_one_query_per_statement_in_order(self, lex, graph):
        qs = queries_of(["bolt", "washer"], lex, graph)
        assert [q.statement_id for q in qs] == [1, 2]


class TestRenderSql:
    def test_two_terms(self):
        q = StructuredQuery(1, ("bolt", "m8"))
        assert render_sql(q) == (
            "SELECT id, name, category FROM products WHERE "
            "keywords LIKE '%bolt%' AND keywords LIKE '%m8%' ORDER BY id;"
        )

    def test_single_term(self):
        q = StructuredQuery(1, ("pump",))
        assert render_sql(q) == (
            "SELECT id, name, category FROM products WHERE "
            "keywords LIKE '%pump%' ORDER BY id;"
        )

    def test_quote_doubling(self):
        q = StructuredQuery(1, ("o'ring",))
        assert "LIKE '%o''ring%'" in render_sql(q)
        # no lone quote inside the literal
        body = render_sql(q).split("'%")[1].split("%'")[0]
        assert "'" not in body.replace("''", "")

    def test_deterministic(self):
        q = StructuredQuery(3, ("seal", "kit"))
        assert render_sql(q) == render_sql(q)

    def test_predicate_count(self):
        q = StructuredQuery(1, ("a1", "b2", "c3"))
        sql = render_sql(q)
        assert sql.count("LIKE") == 3
        assert sql.count("ORDER BY") == 1


def load(records):
    """The index of a catalog with one record per list of words, named by
    the words and in category ``c``."""
    rows = "".join(f"{rid},{' '.join(words)},c,,\n"
                   for rid, words in enumerate(records, start=1))
    return ingest_catalog("id,name,category,description,attributes\n" + rows)[1]


def sql_ids(records, q):
    """Ids the rendered SQL selects from an in-memory sqlite3 ``products``
    table of the records ``load`` ingests, whose ``keywords`` are each
    record's lowercased runs of ASCII letters, digits, ``_`` and ``-``."""
    db = sqlite3.connect(":memory:")
    try:
        db.execute("CREATE TABLE products(id INTEGER, name TEXT, category TEXT,"
                   " keywords TEXT)")
        rows = []
        for rid, words in enumerate(records, start=1):
            name = " ".join(words)
            keywords = {w.lower() for w in re.findall(r"[A-Za-z0-9_-]+", f"{name} c")}
            rows.append((rid, name, "c", " ".join(sorted(keywords))))
        db.executemany("INSERT INTO products VALUES (?, ?, ?, ?)", rows)
        return [row[0] for row in db.execute(render_sql(q))]
    finally:
        db.close()


def and_pass(q, index):
    rs = execute(q, index)
    return list(rs.items) if rs.matched == "AND" else []


class TestRenderSqlMatchesExecute:
    """The rendered SQL returns the ids of the AND pass of ``execute``
    (none when it fell back to OR)."""

    @pytest.mark.parametrize("records, term", [
        ([["m-8"], ["m_8"]], "m_8"),      # _ is not a wildcard
        ([["bolt"]], "%"),                # nor is %
        ([["a_"]], "\\a_"),               # a backslash is not an escape
        ([["a_"]], "a\\"),
        ([["o"]], "o'"),
    ], ids=["underscore", "percent", "backslash", "trailing-backslash", "quote"])
    def test_special_characters(self, records, term):
        q = StructuredQuery(1, (term,))
        assert sql_ids(records, q) == and_pass(q, load(records))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           records=st.lists(st.lists(WORDS, min_size=1, max_size=4),
                            min_size=1, max_size=10))
    def test_and_pass(self, data, records):
        words = st.sampled_from([w for ws in records for w in ws])
        terms = data.draw(st.lists(st.one_of(TERMS, with_special(words)),
                                   min_size=1, max_size=3, unique=True))
        q = StructuredQuery(1, tuple(terms))
        assert sql_ids(records, q) == and_pass(q, load(records))
