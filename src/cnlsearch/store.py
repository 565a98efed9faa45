"""Embedded product catalog: CSV ingestion, inverted keyword index,
query execution with AND-then-OR fallback, and a TSV query log.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, NamedTuple

from .lexicon import _WORD_RE
from .queries import StructuredQuery

CATALOG_HEADER = ["id", "name", "category", "description", "attributes"]

# name and category are printed one record per line, so a control
# character there (a tab or a newline) would split an output row
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f-\x9f]")


class CatalogError(ValueError):
    """Raised when a catalog file cannot be ingested."""


class ProductRecord(NamedTuple):
    name: str
    category: str


def _trigrams(text: str) -> set[str]:
    return {text[i:i + 3] for i in range(len(text) - 2)}


class InvertedIndex:
    """term -> ascending, duplicate-free posting list of record ids, and
    trigram -> the terms containing it, which narrows substring lookup."""

    def __init__(self, postings: dict[str, list[int]]):
        self.postings = postings
        self.grams: dict[str, list[str]] = {}
        for term in postings:  # first-seen order
            for gram in _trigrams(term):
                self.grams.setdefault(gram, []).append(term)

    def ids_matching(self, term: str) -> set[int]:
        # substring semantics, mirroring the LIKE '%term%' rendering. A key
        # containing the term contains each of its trigrams, so the rarest
        # trigram's key list holds every match; an absent trigram gives ().
        # Terms of 1-2 characters have no trigram and scan the vocabulary.
        if len(term) < 3:
            keys = self.postings
        else:
            keys = min((self.grams.get(g, ()) for g in _trigrams(term)), key=len)
        out: set[int] = set()
        for key in keys:
            if term in key:
                out.update(self.postings[key])
        return out


@dataclass(frozen=True)
class ResultSet:
    items: tuple[int, ...]  # record ids in answer order
    scores: tuple[int, ...]  # per item, the number of terms it matched
    query: StructuredQuery
    matched: str  # AND | OR


def _index_words(text: str) -> set[str]:
    """Lowercased words of ``text``."""
    # the matched words are lowercased, not the text: lower() maps some
    # non-ASCII letters (U+212A KELVIN SIGN) to ASCII word ones
    return set(map(str.lower, _WORD_RE.findall(text)))


def _lines(source: str):
    """The newline-terminated lines ``io.StringIO(source)`` would yield,
    without the copy of the whole text it makes."""
    start = 0
    while start < len(source):
        end = source.find("\n", start) + 1 or len(source)
        yield source[start:end]
        start = end


def _rows(source: str):
    """Each CSV row with the file line it starts on (a quoted field may
    span lines); malformed CSV is a CatalogError."""
    reader = csv.reader(_lines(source))
    end = 0
    try:
        for row in reader:
            yield end + 1, row
            end = reader.line_num
    except csv.Error as exc:
        raise CatalogError(f"line {reader.line_num}: {exc}") from None


def ingest_catalog(source: str) -> tuple[dict[int, ProductRecord], InvertedIndex]:
    """Load catalog CSV text and build the inverted index in one pass.
    Records, keyed by id, keep name and category; the index words of
    description and attribute values are taken while the row is read."""
    rows = _rows(source)
    _, header = next(rows, (None, None))
    if header is None:
        raise CatalogError("empty catalog file (missing header)")
    if header != CATALOG_HEADER:
        raise CatalogError(f"bad header {header!r}, expected {CATALOG_HEADER!r}")
    records: dict[int, ProductRecord] = {}
    postings: dict[str, list[int]] = {}
    categories: dict[str, str] = {}  # one shared string per category
    last_id = 0
    in_order = True
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != len(CATALOG_HEADER):
            raise CatalogError(f"line {lineno}: expected {len(CATALOG_HEADER)} columns")
        raw_id, name, category, description, attrs_field = row
        # ASCII digits only: int() also reads "+4", " 5", "1_0" and "٣"
        digits = raw_id.removeprefix("-")
        try:
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError
            record_id = int(raw_id)  # over 4300 digits is a ValueError too
        except ValueError:
            raise CatalogError(f"line {lineno}: non-integer id {raw_id!r}") from None
        if record_id <= 0:
            raise CatalogError(f"line {lineno}: id must be positive")
        if not name:
            raise CatalogError(f"line {lineno}: empty name")
        if _CONTROL_RE.search(name) or _CONTROL_RE.search(category):
            raise CatalogError(f"line {lineno}: control character in name or category")
        fields = [name, category, description]
        if attrs_field:
            for pair in attrs_field.split("|"):
                _, sep, value = pair.partition("=")
                if not sep:
                    raise CatalogError(f"line {lineno}: bad attribute {pair!r}")
                fields.append(value)
        if record_id in records:
            raise CatalogError(f"line {lineno}: duplicate record id {record_id}")
        records[record_id] = ProductRecord(name, categories.setdefault(category, category))
        in_order = in_order and record_id > last_id
        last_id = record_id
        # one scan over the fields joined by a non-word character
        for term in _index_words(" ".join(fields)):
            postings.setdefault(term, []).append(record_id)
    if not in_order:  # some id came out of file order
        for ids in postings.values():
            ids.sort()
    return records, InvertedIndex(postings)


def execute(q: StructuredQuery, index: InvertedIndex) -> ResultSet:
    """AND pass over all terms; on empty intersection fall back to OR,
    scored by the number of matching terms, ties broken by ascending id.
    The answer holds record ids, not records.
    """
    per_term = [index.ids_matching(term) for term in q.terms]
    conj = set.intersection(*per_term) if per_term else set()
    if conj:
        ids = tuple(sorted(conj))
        return ResultSet(ids, (len(q.terms),) * len(ids), q, "AND")
    counts = Counter()
    for ids in per_term:
        counts.update(ids)
    # ascending ids, then a stable sort by falling count keeps ties in id order
    ranked = sorted(counts)
    ranked.sort(key=counts.__getitem__, reverse=True)
    return ResultSet(tuple(ranked), tuple(map(counts.__getitem__, ranked)), q, "OR")


def save_index_text(index: InvertedIndex) -> str:
    """Postings dump, one ``term<TAB>id,id,...`` line per term, sorted."""
    return "".join(
        f"{term}\t{','.join(str(i) for i in index.postings[term])}\n"
        for term in sorted(index.postings)
    )


def append_log(log: IO[str], statement_id: int, terms: tuple[str, ...],
               matched: str, result_ids: str,
               relations: list[tuple[int, int]],
               now: datetime | None = None) -> None:
    """Write one TSV line recording an executed query and its relations
    to an open log; ``result_ids`` is the answer's ids joined by commas."""
    ts = (now or datetime.now(timezone.utc)).isoformat(timespec="seconds")
    ts = ts.replace("+00:00", "Z")
    rels = ";".join(f"{a}-{b}" for a, b in relations)
    log.write(f"{ts}\t{statement_id}\t{','.join(terms)}\t{matched}\t"
              f"{result_ids}\t{rels}\n")
