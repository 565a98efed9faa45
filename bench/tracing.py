"""Span tracer for the traced benchmark run.

It wraps the callables as ``cnlsearch.cli`` binds them, plus the default
lexicon and grammar loaders, so the program itself is unchanged.  Each
span is ``[name, start_ns, end_ns, parent, stmt, fact]``: ``parent`` is the
index of the enclosing span, ``stmt`` the 1-based statement the call works
on (0 for set-up and batch-wide calls), and ``fact`` a few numbers read off
the call's arguments and result once its end time is taken.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

from gen import REJECT_KINDS
from oracle import LineScan

LAYERS = ("lexicon", "grammar", "semantics", "queries", "store", "responder")


def _error_kind(args, out):
    return getattr(out, "kind", "error") if isinstance(out, Exception) else None


# name -> (layer, fact extractor); extractors must not fail on a raised call
TRACED = {
    "default_lexicon": ("lexicon", lambda a, out: None),
    "tokenize": ("lexicon", lambda a, out: getattr(out, "tokens", None) and len(out.tokens)),
    "default_graph": ("grammar", lambda a, out: None),
    "parse": ("grammar", _error_kind),
    "build_model": ("semantics", lambda a, out: None),
    "resolve": ("semantics", lambda a, out: (len(a[0].statements), len(out.relations))
                if not isinstance(out, Exception) else None),
    "generate_query": ("queries", lambda a, out: [q.terms for q in out]
                       if isinstance(out, list) else None),
    "ingest_catalog": ("store", lambda a, out: out if isinstance(out, tuple) else None),
    "execute": ("store", lambda a, out: (a[0].statement_id, a[0].terms, out.matched,
                                         len(out.items))
                if not isinstance(out, Exception) else None),
    "append_log": ("store", lambda a, out: a[1]),
    "build_echo": ("responder", lambda a, out: None),
    "prioritize": ("responder", lambda a, out: None),
    "reconstruct": ("responder", lambda a, out: a[0].results.query.statement_id),
    "present": ("responder", lambda a, out: None),
}
MODULE_OF = {"default_lexicon": "lexicon_mod", "default_graph": "grammar_mod"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.stmt = 0

    def _wrap(self, name, fn):
        spans, stack, extract = self.spans, self.stack, TRACED[name][1]

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else None, self.stmt, None]
            stack.append(len(spans))
            spans.append(span)
            out = None
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as exc:
                out = exc
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                span[5] = extract(args, out)
        return traced

    def install(self, cli):
        """Wrap every traced callable; returns a function that undoes it."""
        saved = []
        for name in TRACED:
            owner = getattr(cli, MODULE_OF[name]) if name in MODULE_OF else cli
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, self._wrap(name, getattr(owner, name)))

        def uninstall():
            for owner, name, fn in saved:
                setattr(owner, name, fn)
        return uninstall

    def number_batch_statements(self) -> None:
        """In batch mode every call runs inside one request: give each
        per-statement span the ordinal of its input line."""
        accepted = []  # line ordinal of each accepted statement, by id
        ordinal = echoed = 0
        for span in self.spans:
            name, fact = span[0], span[5]
            if name == "tokenize":
                ordinal += 1
                span[4] = ordinal
            elif name == "parse":
                span[4] = ordinal
                if fact is None:
                    accepted.append(ordinal)
            elif name == "build_echo":
                span[4] = accepted[echoed]
                echoed += 1
            elif name == "execute" and fact:
                span[4] = accepted[fact[0] - 1]
            elif name in ("append_log", "reconstruct") and fact:
                span[4] = accepted[fact - 1]


def wrapper_cost_ns(calls: int = 20000, rounds: int = 5) -> float:
    """What the span wrapper adds to one call, in ns: a wrapped no-op
    against a bare one, the fastest of a few rounds."""
    def noop(*args):
        return None
    wrapped = Tracer()._wrap("build_echo", noop)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop(0)
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped(0)
        t2 = time.perf_counter_ns()
        best = min(best, (t2 - t1) - (t1 - t0))
    return best / calls


def _median_us(durs):
    return statistics.median(durs) / 1e3 if durs else 0.0


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def _p99_us(durs):
    return percentile(durs, 99) / 1e3 if durs else 0.0


def layer_metrics(spans: list[list], wall_ns: int, stdout_bytes: int,
                  log_lines: int) -> dict[str, float]:
    """Per-layer metrics of one traced session."""
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    by_name: dict[str, list[int]] = {name: [] for name in TRACED}
    facts: dict[str, list] = {name: [] for name in TRACED}
    self_ns = Counter()
    for i, s in enumerate(spans):
        by_name[s[0]].append(dur[i])
        facts[s[0]].append(s[5])
        self_ns[TRACED[s[0]][0]] += dur[i] - child[i]
    top_ns = sum(d for s, d in zip(spans, dur) if s[3] is None)

    m: dict[str, float] = {}
    m["lexicon.load_ms"] = sum(by_name["default_lexicon"]) / 1e6
    m["lexicon.tokenize_us"] = _median_us(by_name["tokenize"])
    ntok = [f for f in facts["tokenize"] if f]
    m["lexicon.tokens_per_stmt"] = sum(ntok) / len(ntok) if ntok else 0.0
    m["grammar.load_ms"] = sum(by_name["default_graph"]) / 1e6
    m["grammar.parse_us"] = _median_us(by_name["parse"])
    kinds = Counter(f for f in facts["parse"] if f)
    for kind in REJECT_KINDS:
        m[f"grammar.rejected.{kind}"] = kinds[kind]

    m["semantics.build_model_ms"] = sum(by_name["build_model"]) / 1e6
    m["semantics.resolve_ms"] = sum(by_name["resolve"]) / 1e6
    resolved = [f for f in facts["resolve"] if f]
    pairs = sum(n * (n - 1) // 2 for n, _ in resolved)
    relations = sum(r for _, r in resolved)
    m["semantics.resolve_pairs"] = pairs
    m["semantics.relations"] = relations
    m["semantics.resolve_useful_ratio"] = relations / pairs if pairs else 0.0
    m["queries.generate_query_us"] = _median_us(by_name["generate_query"])
    terms = [len(t) for f in facts["generate_query"] if f for t in f]
    m["queries.terms_per_query"] = sum(terms) / len(terms) if terms else 0.0

    catalog, index = next((f for f in facts["ingest_catalog"] if f), ((), None))
    postings = index.postings if index is not None else {}
    m["store.ingest_s"] = sum(by_name["ingest_catalog"]) / 1e9
    m["store.records"] = len(catalog)
    m["store.vocabulary"] = len(postings)
    m["store.postings"] = sum(len(ids) for ids in postings.values())
    m["store.execute_p50_us"] = _median_us(by_name["execute"])
    m["store.execute_p99_us"] = _p99_us(by_name["execute"])
    executed = [f for f in facts["execute"] if f]
    m.update(_retrieval_counts(executed, postings))
    m["store.append_log_us"] = _median_us(by_name["append_log"])
    m["store.log_lines"] = log_lines

    m["responder.build_echo_us"] = _median_us(by_name["build_echo"])
    m["responder.reconstruct_us"] = _median_us(by_name["reconstruct"])
    m["responder.present_ms"] = sum(by_name["present"]) / 1e6
    m["responder.output_bytes"] = stdout_bytes
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ns[layer] / 1e6
    m["cli.self_ms"] = (wall_ns - top_ns) / 1e6
    m["trace.spans"] = len(spans)
    return m


def _retrieval_counts(executed: list[tuple], postings: dict) -> dict[str, float]:
    """Work and outcome ratios of execute, counted from outside after the
    session: which vocabulary keys hold each term, and their record ids."""
    keys = list(postings)
    scan = LineScan(keys)
    cache: dict[str, tuple[int, int]] = {}
    candidates = results = matching_keys = lookups = 0
    outcome = Counter()
    for _, terms, matched, n in executed:
        results += n
        outcome["empty" if n == 0 else matched] += 1
        for term in terms:
            if term not in cache:
                hit = [keys[i] for i in scan.hits(term)]
                cache[term] = (len(hit), len({rid for k in hit for rid in postings[k]}))
            nkeys, nids = cache[term]
            matching_keys += nkeys
            candidates += nids
            lookups += 1
    n_exec = len(executed) or 1
    return {
        "store.candidate_ids_per_result": candidates / results if results else 0.0,
        "store.vocab_useful_ratio": matching_keys / (lookups * len(keys)) if lookups and keys else 0.0,
        "store.and_share": outcome["AND"] / n_exec,
        "store.or_share": outcome["OR"] / n_exec,
        "store.empty_share": outcome["empty"] / n_exec,
        "store.results_per_stmt": results / n_exec,
    }
