import csv
import io
import random
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from cnlsearch.queries import StructuredQuery
from cnlsearch.store import (CatalogError, append_log, execute, ingest_catalog,
                             save_index_text)

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


def words_of(*fields):
    """A record's index words, by this module's own rule: lowercased
    runs of ASCII letters, digits, hyphens and underscores."""
    return {w.lower() for f in fields for w in re.findall(r"[A-Za-z0-9_-]+", f)}


def brute_force(q, words):
    """Linear-scan oracle for the substring AND/OR-fallback semantics;
    ``words`` maps each record id to its index words."""
    matches = {}
    for rid, terms in sorted(words.items()):
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
        assert catalog[1] == ("Hex Bolt", "fasteners")
        assert index.postings["m8"] == [1]  # an attribute value

    def test_header_only(self):
        catalog, index = ingest_catalog("id,name,category,description,attributes\n")
        assert len(catalog) == 0
        assert index.postings == {}

    def test_duplicate_id(self):
        bad = SMALL_CATALOG + "1,Dup,misc,dup row,\n"
        with pytest.raises(CatalogError, match="duplicate record id 1"):
            ingest_catalog(bad)

    @pytest.mark.parametrize("row", ['1,"Hex\nBolt",f,d,', '1,Bolt,"fast\teners",d,',
                                     '1,Bolt\x85,f,d,'])
    def test_control_character_in_name_or_category(self, row):
        with pytest.raises(CatalogError, match="line 2: control character"):
            ingest_catalog(f"id,name,category,description,attributes\n{row}\n")

    @pytest.mark.parametrize("rows, message", [
        ('1,Bolt,f,"two\nlines",\n1,Dup,f,d,\n', "line 4: duplicate record id 1"),
        ('1,Bolt,f,"two\nlines",\n2,"Hex\nNut",f,d,\n',
         "line 4: control character in name or category"),
        ('1,Bolt,f,"a\nb\nc",\n\n2,Nut,f,d,x\n', "line 6: bad attribute 'x'"),
    ])
    def test_line_numbers_count_file_lines(self, rows, message):
        # a quoted field may span lines; an error names the line its row starts on
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            ingest_catalog(f"id,name,category,description,attributes\n{rows}")

    def test_control_character_in_description_kept(self):
        _, index = ingest_catalog(
            'id,name,category,description,attributes\n1,Bolt,f,"a\tb",\n')
        assert index.postings["a"] == [1]
        assert index.postings["b"] == [1]

    def test_malformed_csv(self):
        bad = "id,name,category,description,attributes\n1,Hex\rBolt,f,d,\n"
        with pytest.raises(CatalogError, match="line 2: "):
            ingest_catalog(bad)

    def test_non_integer_id(self):
        bad = "id,name,category,description,attributes\nx,Bolt,f,d,\n"
        with pytest.raises(CatalogError, match="non-integer id"):
            ingest_catalog(bad)

    @pytest.mark.parametrize("raw_id", [
        "1_0", "+4", " 5", "\u0663", "-", "--3",
        pytest.param("9" * 5000, id="5000-digits"),
    ])
    def test_id_is_ascii_digits(self, raw_id):
        # int() reads the first four as a number, so the answer would print
        # an id the file does not hold; past 4300 digits int() refuses
        bad = f"id,name,category,description,attributes\n{raw_id},Bolt,f,d,\n"
        message = f"line 2: non-integer id {raw_id!r}"
        with pytest.raises(CatalogError, match=f"^{re.escape(message)}$"):
            ingest_catalog(bad)

    @pytest.mark.parametrize("raw_id", ["0", "-3"])
    def test_id_not_positive(self, raw_id):
        bad = f"id,name,category,description,attributes\n{raw_id},Bolt,f,d,\n"
        with pytest.raises(CatalogError, match="^line 2: id must be positive$"):
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
        _, index = catalog_and_index
        rs = execute(StructuredQuery(1, ("bolt",)), index)
        assert rs.items == (1, 4)
        assert rs.matched == "AND"
        assert rs.scores == (1, 1)

    def test_or_fallback(self, catalog_and_index):
        _, index = catalog_and_index
        rs = execute(StructuredQuery(1, ("bolt", "pumpkin")), index)
        assert rs.matched == "OR"
        assert rs.items == (1, 4)
        assert rs.scores == (1, 1)

    def test_no_matches(self, catalog_and_index):
        _, index = catalog_and_index
        rs = execute(StructuredQuery(1, ("zzz",)), index)
        assert rs.items == ()
        assert rs.scores == ()
        assert rs.matched == "OR"

    def test_substring_matches_part_numbers(self, catalog_and_index):
        _, index = catalog_and_index
        rs = execute(StructuredQuery(1, ("m8",)), index)
        assert 4 in rs.items  # m8 inside m8x20

    def test_deterministic(self, catalog_and_index):
        _, index = catalog_and_index
        q = StructuredQuery(1, ("seal", "pump"))
        assert execute(q, index) == execute(q, index)


class TestExecuteOracle:
    WORDS = ["bolt", "washer", "pump", "seal", "m8", "m8x20", "valve",
             "steel", "brass", "kit", "gasket", "screw", "nut", "12mm"]

    def _random_catalog(self, rng):
        """Catalog CSV text, and each record's index words by id."""
        header = "id,name,category,description,attributes\n"
        rows, words = [], {}
        for rid in range(1, rng.randint(1, 100) + 1):
            name = " ".join(rng.sample(self.WORDS, rng.randint(1, 3)))
            cat = rng.choice(self.WORDS)
            desc = " ".join(rng.choices(self.WORDS, k=rng.randint(0, 5)))
            rows.append(f"{rid},{name},{cat},{desc},\n")
            words[rid] = words_of(name, cat, desc)
        return header + "".join(rows), words

    def test_matches_brute_force(self):
        rng = random.Random(20260823)
        for _ in range(200):
            text, words = self._random_catalog(rng)
            _, index = ingest_catalog(text)
            terms = tuple(dict.fromkeys(
                rng.choices(self.WORDS + ["m", "8", "zz"],
                            k=rng.randint(1, 4))
            ))
            q = StructuredQuery(1, terms)
            rs = execute(q, index)
            expected, flag = brute_force(q, words)
            got = list(zip(rs.items, rs.scores, strict=True))
            assert got == expected
            assert rs.matched == flag


def linear_scan(index, term):
    return {rid for key, ids in index.postings.items() if term in key
            for rid in ids}


class TestLookupProperty:
    @settings(max_examples=300, deadline=None)
    @given(records=st.lists(st.lists(WORDS, min_size=1, max_size=4),
                            min_size=1, max_size=12),
           rnd=st.randoms(use_true_random=False),
           terms=st.lists(TERMS, min_size=1, max_size=6))
    def test_matches_linear_scan(self, records, rnd, terms):
        ids = list(range(1, len(records) + 1))
        rnd.shuffle(ids)
        rows = "".join(f"{rid},{' '.join(records[rid - 1])},c,,\n" for rid in ids)
        _, index = ingest_catalog(
            "id,name,category,description,attributes\n" + rows)
        for term in terms:
            assert index.ids_matching(term) == linear_scan(index, term)
        for posting in index.postings.values():
            assert all(a < b for a, b in zip(posting, posting[1:]))


# Frozen reference: the per-field word rule that the one-scan index_terms
# replaced.  It shares no code with cnlsearch.store.
def reference_terms(row):
    name, category, description, attributes = row
    text_fields = [name, category, description]
    text_fields.extend(value for _, value in attributes)
    terms = set()
    for text in text_fields:
        terms.update(m.group(0).lower()
                     for m in re.finditer(r"[A-Za-z0-9_-]+", text))
    return terms


# U+212A KELVIN SIGN and U+0130 lowercase to ASCII-word material, so a
# rule that lowercased the text before matching would index other words
FIELD = st.text(alphabet="aBk8_- ,\"\u212a\u0130", max_size=12)
ATTRIBUTES = st.lists(st.tuples(st.text(alphabet="kK", min_size=1, max_size=3),
                                st.text(alphabet="aB8- =\u212a\u0130", max_size=8)),
                      max_size=3)
RECORDS = st.lists(st.tuples(FIELD.filter(bool), FIELD, FIELD, ATTRIBUTES),
                   min_size=1, max_size=10)


class TestIndexIsInversion:
    @settings(max_examples=300, deadline=None)
    @given(records=RECORDS, rnd=st.randoms(use_true_random=False))
    def test_matches_per_field_inversion(self, records, rnd):
        ids = list(range(1, len(records) + 1))
        rnd.shuffle(ids)  # file order is not id order
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "name", "category", "description", "attributes"])
        for rid, (name, category, description, attrs) in zip(ids, records):
            writer.writerow([rid, name, category, description,
                             "|".join(f"{k}={v}" for k, v in attrs)])
        catalog, index = ingest_catalog(out.getvalue())
        assert list(catalog.items()) == [
            (rid, (name, category)) for rid, (name, category, _, _) in zip(ids, records)]

        postings, first_seen = {}, {}
        for pos, (rid, record) in enumerate(zip(ids, records)):
            for term in reference_terms(record):
                postings.setdefault(term, []).append(rid)
                first_seen.setdefault(term, pos)
        assert index.postings == {t: sorted(ids) for t, ids in postings.items()}

        grams = {}
        for term in postings:
            for gram in {term[i:i + 3] for i in range(len(term) - 2)}:
                grams.setdefault(gram, set()).add(term)
        assert {g: set(keys) for g, keys in index.grams.items()} == grams
        for keys in index.grams.values():
            seen = [first_seen[key] for key in keys]
            assert len(set(keys)) == len(keys) and seen == sorted(seen)


class TestLogAndDump:
    TS = datetime(2026, 8, 23, 12, 0, 0, tzinfo=timezone.utc)

    def test_log_line_format(self):
        log = io.StringIO()
        append_log(log, 1, ("bolt",), "AND", "1,4", [], now=self.TS)
        assert log.getvalue() == "2026-08-23T12:00:00Z\t1\tbolt\tAND\t1,4\t\n"

    def test_log_empty_result(self):
        log = io.StringIO()
        append_log(log, 2, ("zzz",), "OR", "", [], now=self.TS)
        fields = log.getvalue().rstrip("\n").split("\t")
        assert fields[4] == ""

    def test_log_relations(self):
        log = io.StringIO()
        append_log(log, 1, ("bolt",), "AND", "1", [(1, 2), (1, 3)], now=self.TS)
        assert log.getvalue().rstrip("\n").split("\t")[5] == "1-2;1-3"

    def test_log_appends(self):
        log = io.StringIO()
        append_log(log, 1, ("a",), "AND", "", [])
        append_log(log, 2, ("b",), "OR", "", [])
        lines = log.getvalue().splitlines()
        assert [line.split("\t")[1] for line in lines] == ["1", "2"]

    def test_save_index_text(self):
        _, index = ingest_catalog(SMALL_CATALOG)
        text = save_index_text(index)
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "bolt\t1" in lines
