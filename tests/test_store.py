import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from cnlsearch.queries import StructuredQuery
from cnlsearch.store import (CatalogError, ProductRecord, append_log, execute,
                             index_terms, ingest_catalog, save_index_text,
                             update_index)

# a small alphabet makes keys share trigrams, so the trigram filter
# keeps candidates that verification must reject
WORDS = st.text(alphabet="ab8_-", min_size=1, max_size=8)
TERMS = st.text(alphabet="ab8_-", min_size=1, max_size=6)

SMALL_CATALOG = """\
id,name,category,description,attributes
1,Hex Bolt,fasteners,Steel bolt,thread=M8
2,Washer,fasteners,Flat washer,
3,Pump,pumps,Water pump,
"""


def brute_force(q, catalog):
    """Linear-scan oracle for the substring AND/OR-fallback semantics."""
    matches = {}
    for rid, record in sorted(catalog.records.items()):
        terms = index_terms(record)
        matches[rid] = [t for t in q.terms if any(t in w for w in terms)]
    conj = [rid for rid, hit in matches.items() if len(hit) == len(q.terms)]
    if q.terms and conj:
        return [(rid, len(q.terms)) for rid in sorted(conj)], "AND"
    scored = [(rid, len(hit)) for rid, hit in matches.items() if hit]
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored, "OR"


class TestIngest:
    def test_small_catalog(self):
        catalog, index = ingest_catalog(SMALL_CATALOG)
        assert len(catalog) == 3
        assert index.postings["bolt"] == [1]
        assert index.postings["washer"] == [2]
        assert catalog[1].attributes == (("thread", "M8"),)

    def test_header_only(self):
        catalog, index = ingest_catalog("id,name,category,description,attributes\n")
        assert len(catalog) == 0
        assert index.postings == {}

    def test_duplicate_id(self):
        bad = SMALL_CATALOG + "1,Dup,misc,dup row,\n"
        with pytest.raises(CatalogError, match="duplicate record id 1"):
            ingest_catalog(bad)

    def test_non_integer_id(self):
        bad = "id,name,category,description,attributes\nx,Bolt,f,d,\n"
        with pytest.raises(CatalogError, match="non-integer id"):
            ingest_catalog(bad)

    def test_wrong_column_count(self):
        bad = "id,name,category,description,attributes\n1,Bolt,f\n"
        with pytest.raises(CatalogError, match="columns"):
            ingest_catalog(bad)

    def test_postings_sorted_and_valid(self, catalog_and_index):
        catalog, index = catalog_and_index
        for term, ids in index.postings.items():
            assert ids == sorted(set(ids))
            assert all(i in catalog for i in ids)


class TestExecute:
    def test_and_pass(self, catalog_and_index):
        catalog, index = catalog_and_index
        rs = execute(StructuredQuery(1, ("bolt",), "need"), catalog, index)
        assert [i.record_id for i in rs.items] == [1, 4]
        assert rs.matched == "AND"
        assert all(i.score == 1 for i in rs.items)

    def test_or_fallback(self, catalog_and_index):
        catalog, index = catalog_and_index
        rs = execute(StructuredQuery(1, ("bolt", "pumpkin"), "need"),
                     catalog, index)
        assert rs.matched == "OR"
        assert [i.record_id for i in rs.items] == [1, 4]
        assert all(i.score == 1 for i in rs.items)

    def test_no_matches(self, catalog_and_index):
        catalog, index = catalog_and_index
        rs = execute(StructuredQuery(1, ("zzz",), "need"), catalog, index)
        assert rs.items == ()
        assert rs.matched == "OR"

    def test_substring_matches_part_numbers(self, catalog_and_index):
        catalog, index = catalog_and_index
        rs = execute(StructuredQuery(1, ("m8",), "need"), catalog, index)
        assert 4 in [i.record_id for i in rs.items]  # m8 inside m8x20

    def test_deterministic(self, catalog_and_index):
        catalog, index = catalog_and_index
        q = StructuredQuery(1, ("seal", "pump"), "need")
        assert execute(q, catalog, index) == execute(q, catalog, index)


class TestExecuteOracle:
    WORDS = ["bolt", "washer", "pump", "seal", "m8", "m8x20", "valve",
             "steel", "brass", "kit", "gasket", "screw", "nut", "12mm"]

    def _random_catalog(self, rng):
        header = "id,name,category,description,attributes\n"
        rows = []
        for rid in range(1, rng.randint(1, 100) + 1):
            name = " ".join(rng.sample(self.WORDS, rng.randint(1, 3)))
            cat = rng.choice(self.WORDS)
            desc = " ".join(rng.choices(self.WORDS, k=rng.randint(0, 5)))
            rows.append(f"{rid},{name},{cat},{desc},\n")
        return header + "".join(rows)

    def test_matches_brute_force(self):
        rng = random.Random(20260823)
        for _ in range(200):
            catalog, index = ingest_catalog(self._random_catalog(rng))
            terms = tuple(dict.fromkeys(
                rng.choices(self.WORDS + ["m", "8", "zz"],
                            k=rng.randint(1, 4))
            ))
            q = StructuredQuery(1, terms, "need")
            rs = execute(q, catalog, index)
            expected, flag = brute_force(q, catalog)
            assert [(i.record_id, i.score) for i in rs.items] == expected
            assert rs.matched == flag


def linear_scan(index, term):
    return {rid for key, ids in index.postings.items() if term in key
            for rid in ids}


class TestLookupProperty:
    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(st.lists(WORDS, min_size=1, max_size=4),
                            min_size=1, max_size=12),
           rnd=st.randoms(use_true_random=False),
           terms=st.lists(TERMS, min_size=1, max_size=6),
           late_word=WORDS)
    def test_matches_linear_scan(self, records, rnd, terms, late_word):
        ids = list(range(1, len(records) + 1))
        rnd.shuffle(ids)
        rows = "".join(f"{rid},{' '.join(records[rid - 1])},c,,\n" for rid in ids)
        catalog, index = ingest_catalog(
            "id,name,category,description,attributes\n" + rows)
        for term in terms:
            assert index.ids_matching(term) == linear_scan(index, term)
        for posting in index.postings.values():
            assert all(a < b for a, b in zip(posting, posting[1:]))
        late_id = len(records) + 1
        update_index(catalog, index,
                     [ProductRecord(late_id, late_word, "c", "", ())])
        assert late_id in index.ids_matching(late_word)
        for term in terms:
            assert index.ids_matching(term) == linear_scan(index, term)


class TestUpdateIndex:
    def test_add_record(self):
        catalog, index = ingest_catalog(SMALL_CATALOG)
        rec = ProductRecord(9, "Valve", "valves", "Ball valve", ())
        update_index(catalog, index, [rec])
        assert index.postings["valve"] == [9]
        assert 9 in catalog

    def test_add_nothing_is_identity(self):
        catalog, index = ingest_catalog(SMALL_CATALOG)
        before = {t: list(ids) for t, ids in index.postings.items()}
        update_index(catalog, index, [])
        assert index.postings == before

    def test_existing_id_rejected(self):
        catalog, index = ingest_catalog(SMALL_CATALOG)
        with pytest.raises(CatalogError, match="duplicate"):
            update_index(catalog, index, [ProductRecord(1, "Dup", "x", "", ())])

    def test_rebuild_matches_incremental(self):
        catalog, index = ingest_catalog(SMALL_CATALOG)
        rec = ProductRecord(4, "Seal Kit", "seals", "Pump seal", ())
        update_index(catalog, index, [rec])
        extended = SMALL_CATALOG + "4,Seal Kit,seals,Pump seal,\n"
        _, rebuilt = ingest_catalog(extended)
        assert index.postings == rebuilt.postings


class TestLogAndDump:
    def test_log_line_format(self, tmp_path):
        path = tmp_path / "query.log"
        ts = datetime(2026, 8, 23, 12, 0, 0, tzinfo=timezone.utc)
        append_log(str(path), 1, ("bolt",), "AND", [1, 4], [], now=ts)
        assert path.read_text() == "2026-08-23T12:00:00Z\t1\tbolt\tAND\t1,4\t\n"

    def test_log_empty_result(self, tmp_path):
        path = tmp_path / "query.log"
        ts = datetime(2026, 8, 23, 12, 0, 0, tzinfo=timezone.utc)
        append_log(str(path), 2, ("zzz",), "OR", [], [], now=ts)
        fields = path.read_text().rstrip("\n").split("\t")
        assert fields[4] == ""

    def test_log_relations(self, tmp_path):
        path = tmp_path / "query.log"
        ts = datetime(2026, 8, 23, 12, 0, 0, tzinfo=timezone.utc)
        append_log(str(path), 1, ("bolt",), "AND", [1], [(1, 2), (1, 3)], now=ts)
        assert path.read_text().rstrip("\n").split("\t")[5] == "1-2;1-3"

    def test_log_appends(self, tmp_path):
        path = tmp_path / "query.log"
        append_log(str(path), 1, ("a",), "AND", [], [])
        append_log(str(path), 2, ("b",), "OR", [], [])
        assert len(path.read_text().splitlines()) == 2

    def test_save_index_text(self):
        _, index = ingest_catalog(SMALL_CATALOG)
        text = save_index_text(index)
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "bolt\t1" in lines
