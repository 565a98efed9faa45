"""Expected outputs, computed without importing ``cnlsearch``.

Retrieval is a linear substring scan over the records in id order, with
its own word regex, and the AND-then-OR rule from the README: every term
must match, else records matching any term, scored by the number of terms
matched, ties by ascending id.  Accept/reject outcomes and ``ParseError``
kinds come from the frame the generator used, never from the parser.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import re
from collections import defaultdict

from gen import Statement

PROMPT = "isoas> "  # the REPL prompt, as the README gives it
WORD = re.compile(r"[A-Za-z0-9_-]+")
PARSE_ERROR = re.compile(r"(?P<label>.+): parse error: (?P<kind>\w+) at \d+\.\.\d+ "
                         r"\(expected \{[A-K,-]*\}, found \w+\)")


class LineScan:
    """Substring search over a list of word strings by a forward scan of
    their newline-joined text; a term of word characters never spans two."""

    def __init__(self, lines: list[str]):
        self.text = "\n".join(lines) + "\n"
        self.starts = list(itertools.accumulate((len(x) + 1 for x in lines), initial=0))

    def hits(self, term: str) -> list[int]:
        """Indices, ascending, of the lines that contain term."""
        found = []
        pos = self.text.find(term)
        while pos != -1:
            i = bisect.bisect_right(self.starts, pos) - 1
            found.append(i)
            pos = self.text.find(term, self.starts[i + 1])
        return found


class Oracle:
    def __init__(self, catalog_csv: str):
        rows = csv.reader(io.StringIO(catalog_csv))
        next(rows)
        self.records = []  # (id, name, category, lowercased words joined by " ")
        for rid, name, category, desc, attrs in rows:
            fields = [name, category, desc] + [kv.partition("=")[2] for kv in attrs.split("|")]
            words = " ".join(m.group(0).lower() for f in fields for m in WORD.finditer(f))
            self.records.append((int(rid), name, category, words))
        self.records.sort()
        self.vocabulary = len({w for r in self.records for w in r[3].split()})
        self.scan = LineScan([r[3] for r in self.records])
        self._ids: dict[str, list[int]] = {}

    def ids(self, term: str) -> list[int]:
        """Ids of records with a word containing term, in id order."""
        if term not in self._ids:
            self._ids[term] = [self.records[i][0] for i in self.scan.hits(term)]
        return self._ids[term]

    def retrieve(self, terms: list[str]) -> tuple[str, list[int]]:
        per_term = [set(self.ids(t)) for t in terms]
        both = set.intersection(*per_term)
        if both:
            return "AND", sorted(both)
        score = defaultdict(int)
        for ids in per_term:
            for rid in ids:
                score[rid] += 1
        return "OR", sorted(score, key=lambda rid: (-score[rid], rid))


def terms_of(st: Statement) -> list[str]:
    return list(dict.fromkeys(k.lower() for k in st.keywords))


def echo_of(st: Statement) -> str:
    parts = [st.subject.capitalize()] if st.subject else []
    parts += [x for x in (st.auxiliary, st.verb) if x]
    return " ".join(parts + [k.lower() for k in st.keywords])


class Expected:
    """Per-statement expected response text and retrieval outcome."""

    def __init__(self, oracle: Oracle, statements: tuple[Statement, ...]):
        by_id = {r[0]: r for r in oracle.records}
        self.statements = statements
        self.responses: list[str | None] = []   # None for a rejected line
        self.outcomes: list[tuple[str, list[int]] | None] = []
        for st in statements:
            if st.kind != "accept":
                self.responses.append(None)
                self.outcomes.append(None)
                continue
            matched, ids = oracle.retrieve(terms_of(st))
            n = len(ids)
            head = f"Results ({n}, partial match):" if matched == "OR" and n else f"Results ({n}):"
            lines = [f"Query: {echo_of(st)}", head]
            lines += [f"- [{rid}] {by_id[rid][1]} — {by_id[rid][2]}" for rid in ids] or \
                     ["- no matching products"]
            self.responses.append("".join(line + "\n" for line in lines))
            self.outcomes.append((matched, ids))

    def accepted(self) -> list[int]:
        return [i for i, st in enumerate(self.statements) if st.kind == "accept"]

    def log_fields(self) -> list[list[str]]:
        """Expected log columns after the timestamp, one row per accepted
        statement, relations as a batch-wide ``resolve`` links them."""
        acc = self.accepted()
        words = [{k.lower() for k in self.statements[i].keywords} for i in acc]
        holders = defaultdict(list)
        for sid, ws in enumerate(words, start=1):
            for w in ws:
                holders[w].append(sid)
        rows = []
        for sid, i in enumerate(acc, start=1):
            linked = sorted({o for w in words[sid - 1] for o in holders[w]} - {sid})
            rels = ";".join(f"{min(sid, o)}-{max(sid, o)}" for o in linked)
            matched, ids = self.outcomes[i]
            rows.append([str(sid), ",".join(terms_of(self.statements[i])), matched,
                         ",".join(map(str, ids)), rels])
        return rows

    def stats(self, oracle: Oracle) -> dict:
        acc = self.accepted()
        terms = [t for i in acc for t in terms_of(self.statements[i])]
        sizes = sorted(len(self.outcomes[i][1]) for i in acc)
        share = lambda n: n / len(acc)
        return {
            "records": len(oracle.records),
            "vocabulary": oracle.vocabulary,
            "statements": len(self.statements),
            "distinct_term_share": len(set(terms)) / len(terms),
            "results_median": sizes[len(sizes) // 2],
            "results_max": sizes[-1],
            "and_share": share(sum(self.outcomes[i][0] == "AND" for i in acc)),
            "or_share": share(sum(self.outcomes[i][0] == "OR" and bool(self.outcomes[i][1])
                                  for i in acc)),
            "empty_share": share(sum(not self.outcomes[i][1] for i in acc)),
            "rejected_share": 1 - len(acc) / len(self.statements),
        }
