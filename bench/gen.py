"""Seeded input generator: product catalogs and statement lines.

Everything is drawn from ``random.Random`` seeded with the workload name
and the seed, so the same seed gives byte-identical inputs.  This module
shares no code with ``cnlsearch``: each statement carries the frame it was
built from (subject, auxiliary, verb and keywords, or the ``ParseError``
kind a rejected line must raise), and the oracle checks against that.

    python3 bench/gen.py <workload> <seed> <stem>

writes the program's inputs as <stem>.csv (catalog), <stem>.batch (the
--batch file, empty in REPL workloads) and <stem>.lines (one statement
per line), so a benchmark run can keep the generator out of its memory.
"""

from __future__ import annotations

import csv
import io
import random
import sys
from collections import Counter
from dataclasses import dataclass

# Pseudo-words are consonant-digit-consonant-digit, so none of them is a
# lexicon word and no part number "<word>x<nn>" holds a vocabulary word
# other than its own stem: substring hits happen only where they are meant.
CONSONANTS = "bcdfghjkmnpqrstvwz"
DIGITS = "23456789"

CATEGORIES = ("fasteners", "pumps", "seals", "valves", "bearings", "fittings",
              "hoses", "gaskets", "motors", "filters", "clamps", "springs",
              "couplings", "brackets", "nozzles", "sensors")
MATERIALS = ("steel", "zinc", "brass", "titanium", "nylon", "copper",
             "aluminium", "bronze")
THREADS = ("M3", "M4", "M5", "M6", "M8", "M10", "M12", "M16", "M20", "M24")

# Accepted frames: one per START-to-END path of the default grammar.
# Each is (subject words, auxiliary words, verb words); "" means absent.
SUBJ_1S, SUBJ_PL, SUBJ_3S = ("I",), ("we", "they"), ("he", "she")
VERB_BASE = ("need", "want", "look for", "search for")
VERB_3S = ("needs", "wants", "looks for", "searches for")
VERB_ING = ("looking for", "searching for")
VERB_IMP = ("find", "search", "show", "get")
FRAMES = (
    (SUBJ_1S, ("",), VERB_BASE),      # A D K
    (SUBJ_1S, ("am",), VERB_ING),     # A F I K
    (SUBJ_PL, ("",), VERB_BASE),      # B D K
    (SUBJ_PL, ("are",), VERB_ING),    # B G I K
    (SUBJ_3S, ("",), VERB_3S),        # C E K
    (SUBJ_3S, ("is",), VERB_ING),     # C H I K
    (("",), ("",), VERB_BASE),        # D K
    (("",), ("",), VERB_3S),          # E K
    (("",), ("am", "are", "is"), VERB_ING),  # F/G/H I K
    (("",), ("",), VERB_ING),         # I K
    (("",), ("",), VERB_IMP),         # J K
    (("",), ("",), ("",)),            # K
)
# Ungrammatical prefixes and the kind each must be rejected with.
ILLEGAL = ("I needs", "I is looking for", "he need", "she are searching for",
           "they wants", "we is looking for", "am need", "is wants")
PRONOUN_IMPERATIVE = tuple(f"{s} {v}" for s in ("I", "we", "they", "he", "she")
                           for v in VERB_IMP)
EMPTY_LINES = ("?", "...", "!", ";", ". , ?", ":")
DESC_WORDS = 4
UNKNOWN_WORDS = 200  # pseudo-words that no record holds
# Keyword shapes of accepted statements, in fixed shares: one Zipf term
# (an AND hit of the term's full posting), a Zipf term narrowed by words of
# a record holding it (a small AND hit), a Zipf term beside a word no record
# holds (an OR fallback), and a term no record holds (no result).
SHAPES = ("single", "refine", "either", "miss")
SHAPE_WEIGHTS = (45, 30, 15, 10)
REJECT_SHARE = 0.015  # of the statements, per ParseError kind
REJECT_KINDS = ("empty_statement", "missing_keyword", "illegal_transition",
                "pronoun_before_imperative")


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str            # "repl" or "batch"
    records: int
    vocab: int           # pseudo-words in the record and keyword vocabulary
    zipf: float          # Zipf exponent of record words and keywords; 0 is uniform
    categories: int
    materials: int
    threads: int
    statements: int


# BENCHMARK.json and README.md give each workload's rationale.  In short:
# repl-zipf repeats hot terms over 5k records (REPL latency, a term cache
# would hit); batch-log sends the same kind of input as one --batch file
# with --log (resolve, prioritize and the log join grow with statement
# count); ingest-wide puts 20k records on few category, material and thread
# values and searches distinct terms (ingest dominates, a cache stays idle).
WORKLOADS = {w.name: w for w in (
    Workload("repl-zipf", "repl", 5000, 3000, 1.0, 16, 8, 10, 1500),
    Workload("batch-log", "batch", 5000, 3000, 1.0, 16, 8, 10, 1000),
    Workload("ingest-wide", "repl", 20000, 12000, 0.0, 4, 3, 5, 1000),
)}


@dataclass(frozen=True)
class Statement:
    line: str
    kind: str                       # "accept" or a ParseError kind
    subject: str = ""
    auxiliary: str = ""
    verb: str = ""
    keywords: tuple[str, ...] = ()  # as typed, before lowercasing


@dataclass(frozen=True)
class Inputs:
    catalog_csv: str
    statements: tuple[Statement, ...]
    batch_text: str                 # the --batch file ("" in REPL workloads)
    batch_lineno: tuple[int, ...]   # file line number of each statement


def _pseudo_words(rng: random.Random, n: int) -> list[str]:
    space = len(CONSONANTS) ** 2 * len(DIGITS) ** 2
    picks = rng.sample(range(space), n)
    out = []
    for p in picks:
        p, d2 = divmod(p, len(DIGITS))
        p, c2 = divmod(p, len(CONSONANTS))
        c1, d1 = divmod(p, len(DIGITS))
        out.append(CONSONANTS[c1] + DIGITS[d1] + CONSONANTS[c2] + DIGITS[d2])
    return out


def _zipf(n: int, s: float) -> list[float]:
    return [1.0 / r ** s for r in range(1, n + 1)]


class _Quota:
    """n draws whose counts are fixed by the weights (largest remainder)
    and whose order is shuffled: the seed moves words around, but not how
    often each rank occurs, so the work a workload does barely moves with
    the seed."""

    def __init__(self, rng: random.Random, population, weights: list[float], n: int):
        total = sum(weights)
        exact = [n * wt / total for wt in weights]
        counts = [int(x) for x in exact]
        by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
        for i in by_remainder[:n - sum(counts)]:
            counts[i] += 1
        self.items = [x for x, c in zip(population, counts) for _ in range(c)]
        rng.shuffle(self.items)

    def take(self, k: int = 1) -> list:
        return [self.items.pop() for _ in range(k)]


def _catalog(rng: random.Random, w: Workload, vocab: list[str]) -> tuple[str, list[list[str]]]:
    """Catalog CSV text, and the searchable pseudo-words of each record."""
    n = w.records
    words = _Quota(rng, vocab, _zipf(len(vocab), w.zipf), n * (2 + DESC_WORDS))
    cats = _Quota(rng, CATEGORIES[:w.categories], _zipf(w.categories, 0.5), n)
    mats = _Quota(rng, MATERIALS[:w.materials], [1] * w.materials, n)
    threads = _Quota(rng, THREADS[:w.threads], [1] * w.threads, n)
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["id", "name", "category", "description", "attributes"])
    record_words = []
    for rid in range(1, n + 1):
        head, stem = words.take(2)
        part = f"{stem.upper()}x{rng.randint(10, 99)}"
        desc = words.take(DESC_WORDS)
        attrs = f"material={mats.take()[0]}|thread={threads.take()[0]}"
        out.writerow([rid, f"{head.capitalize()} {part}", cats.take()[0], " ".join(desc), attrs])
        record_words.append([head, stem, part] + desc)
    return buf.getvalue(), record_words


def _keywords(rng: random.Random, shape: str, first: _Quota, records: list[list[str]],
              holders: dict[str, list[int]], freq: Counter, unknown: list[str]) -> list[str]:
    """Keywords of one accepted statement of the given shape.

    Each shape draws its first term from a quota of its own, so how often
    each rank leads each shape, and with it the result sizes, is fixed.
    """
    if shape == "miss":  # matches nothing: an unknown word or part number
        word = rng.choice(unknown)
        terms = [rng.choice((word, f"{word.upper()}x{rng.randint(10, 99)}"))]
    else:
        terms = first.take()
        if shape == "refine":
            # narrow down with the rarest other words of a record that has
            # the first, or its part number: an AND hit
            rec = records[rng.choice(holders[terms[0]])]
            others = sorted({x for x in rec[3:] + rec[:2] if x != terms[0]},
                            key=lambda x: (freq[x], x))
            terms += rng.choice(([rec[2]], others[:1], others[:2]))
        elif shape == "either":  # one term matches nothing: an OR fallback
            terms.insert(rng.randint(0, 1), rng.choice(unknown))
    if rng.random() < 0.1:
        i = rng.randrange(len(terms))
        terms[i] = terms[i].upper()
    return terms


def _accepted(rng: random.Random, keywords: list[str]) -> Statement:
    subjects, auxes, verbs = rng.choice(FRAMES)
    subject, aux, verb = rng.choice(subjects), rng.choice(auxes), rng.choice(verbs)
    words = [x for x in (subject, aux, verb) if x]
    if words and rng.random() < 0.3:
        words[0] = words[0].capitalize()
    if words and rng.random() < 0.05:
        words.insert(0, "please")  # leading noise before a closed-class word
    line = " ".join(words + keywords) + rng.choice(("", "", "", ".", "?", "!"))
    return Statement(line, "accept", subject.lower(), aux, verb, tuple(keywords))


def _rejected(rng: random.Random, kind: str, keywords: list[str]) -> Statement:
    if kind == "empty_statement":
        return Statement(rng.choice(EMPTY_LINES), kind)
    if kind == "missing_keyword":
        subjects, auxes, verbs = rng.choice(FRAMES[:-1])
        words = [rng.choice(subjects), rng.choice(auxes), rng.choice(verbs)]
        return Statement(" ".join(x for x in words if x) + rng.choice(("", ".")), kind)
    prefix = rng.choice(ILLEGAL if kind == "illegal_transition" else PRONOUN_IMPERATIVE)
    return Statement(" ".join([prefix] + keywords), kind)


def generate(w: Workload, seed: int) -> Inputs:
    rng = random.Random(f"{w.name}:{seed}")
    words = _pseudo_words(rng, w.vocab + UNKNOWN_WORDS)
    vocab, unknown = words[:w.vocab], words[w.vocab:]
    catalog_csv, records = _catalog(rng, w, vocab)
    holders: dict[str, list[int]] = {}
    freq = Counter()
    for i, rec in enumerate(records):
        for word in dict.fromkeys(rec[:2] + rec[3:]):
            holders.setdefault(word, []).append(i)
            freq[word] += 1

    n_reject = round(REJECT_SHARE * w.statements)
    n_accept = w.statements - 4 * n_reject
    kinds = _Quota(rng, ("accept",) + REJECT_KINDS, [n_accept] + [n_reject] * 4,
                   w.statements).take(w.statements)
    shapes = _Quota(rng, SHAPES, SHAPE_WEIGHTS, n_accept).take(n_accept)
    # first terms share the record words' ranking: hot search terms are
    # hot record words, so the latency tail holds long result lists
    first = {shape: _Quota(rng, vocab, _zipf(len(vocab), w.zipf), shapes.count(shape))
             for shape in SHAPES}
    statements = []
    for kind in kinds:
        if kind == "accept":
            shape = shapes.pop()
            statements.append(_accepted(rng, _keywords(rng, shape, first[shape], records,
                                                       holders, freq, unknown)))
        else:  # never executed, so its words need no quota
            statements.append(_rejected(rng, kind, rng.sample(vocab, rng.randint(1, 3))))
    batch_lines, linenos = [], []
    if w.mode == "batch":
        batch_lines.append("# generated statements, one per line")
        for st in statements:
            if rng.random() < 0.01:
                batch_lines.append("")
            batch_lines.append(st.line)
            linenos.append(len(batch_lines))
    batch_text = "".join(line + "\n" for line in batch_lines)
    return Inputs(catalog_csv, tuple(statements), batch_text, tuple(linenos))


def write(w: Workload, seed: int, stem: str) -> None:
    inputs = generate(w, seed)
    for suffix, text in ((".csv", inputs.catalog_csv), (".batch", inputs.batch_text),
                         (".lines", "".join(st.line + "\n" for st in inputs.statements))):
        with open(stem + suffix, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


if __name__ == "__main__":
    write(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
