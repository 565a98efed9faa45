"""Transition-graph grammar: loading and statement parsing.

Sentence acceptance is defined by a directed graph over statement classes
START, A..K, END.  A statement is grammatical when its class sequence,
read left to right with the trailing keyword run collapsed to a single K,
is a START-to-END path in the graph.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .lexicon import Token, TokenStream

NODE_CLASSES = ("START",) + tuple("ABCDEFGHIJK") + ("END",)

PRONOUN_CLASSES = frozenset("ABC")
AUX_CLASSES = frozenset("FGH")
VERB_CLASSES = frozenset("DEIJ")

DEFAULT_GRAMMAR_TEXT = """\
# default statement transition graph: <FROM> -> <TO>
# a statement may start at any class
START -> A
START -> B
START -> C
START -> D
START -> E
START -> F
START -> G
START -> H
START -> I
START -> J
START -> K
# first person singular
A -> D
A -> F
# plural
B -> D
B -> G
# third person singular
C -> E
C -> H
# auxiliaries take a present participle
F -> I
G -> I
H -> I
# every verb is followed by the keyword phrase
D -> K
E -> K
I -> K
J -> K
# multi-word keywords, then end
K -> K
K -> END
"""


class GrammarError(ValueError):
    """Raised when a grammar file cannot be loaded."""


class ParseError(Exception):
    """A statement rejected by the grammar.

    kind is one of empty_statement, missing_keyword, illegal_transition,
    pronoun_before_imperative.  The message, ``KIND at A..B (expected
    {X,Y}, found Z)``, is what the CLI prints after ``LABEL: parse error: ``.
    """

    def __init__(self, kind: str, at: tuple[int, int],
                 expected: frozenset[str], found: str):
        self.kind = kind
        self.at = at
        self.expected = expected
        self.found = found
        exp = ",".join(sorted(expected)) or "-"
        super().__init__(f"{kind} at {at[0]}..{at[1]} (expected {{{exp}}}, found {found})")


@dataclass(frozen=True)
class TransitionGraph:
    edges: frozenset[tuple[str, str]]

    def successors(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(t for f, t in self.edges if f == node))

    def has_edge(self, frm: str, to: str) -> bool:
        return (frm, to) in self.edges


@dataclass(frozen=True)
class StatementAst:
    subject: Token | None
    auxiliary: Token | None
    verb: Token | None
    keyword_phrase: tuple[Token, ...]


def _reachable(graph: frozenset[tuple[str, str]], start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for f, t in graph:
            if f == node and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def load_graph(source: str) -> TransitionGraph:
    """Parse grammar file text (one ``FROM -> TO`` edge per line).

    ``#`` starts a comment line; a ``!override-jk`` pragma line lifts the
    pronoun-before-imperative and mandatory-keyword checks.
    """
    edges: set[tuple[str, str]] = set()
    override = False
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "!override-jk":
            override = True
            continue
        if "->" not in line:
            raise GrammarError(f"line {lineno}: expected <FROM> -> <TO>")
        frm, _, to = line.partition("->")
        frm, to = frm.strip(), to.strip()
        for tag in (frm, to):
            if tag not in NODE_CLASSES:
                raise GrammarError(f"line {lineno}: unknown node tag {tag!r}")
        if to == "START":
            raise GrammarError(f"line {lineno}: edge into START")
        if frm == "END":
            raise GrammarError(f"line {lineno}: edge out of END")
        edges.add((frm, to))

    if not override:
        for frm, to in sorted(edges):
            if frm in PRONOUN_CLASSES and to == "J":
                raise GrammarError(
                    f"pronoun_before_imperative: edge {frm} -> J is forbidden"
                )
    if "END" not in _reachable(frozenset(edges), "START"):
        raise GrammarError("END is unreachable from START")
    if not override:
        # every START->END path must pass through K
        without_k = frozenset((f, t) for f, t in edges if "K" not in (f, t))
        if "END" in _reachable(without_k, "START"):
            raise GrammarError("graph admits a START->END path that bypasses K")
    return TransitionGraph(frozenset(edges))


def default_graph() -> TransitionGraph:
    return load_graph(DEFAULT_GRAMMAR_TEXT)


def _walk(path: list[str] | tuple[str, ...], g: TransitionGraph) -> tuple[int, str]:
    """Follow path from START: the number of steps taken before the first
    missing edge, and the node reached."""
    state = "START"
    for steps, cls in enumerate(path):
        if not g.has_edge(state, cls):
            return steps, state
        state = cls
    return len(path), state


def accepts_sequence(seq: list[str] | tuple[str, ...], g: TransitionGraph) -> bool:
    """Left-to-right acceptance of a class sequence (the parser core)."""
    path = (*seq, "END")
    return _walk(path, g)[0] == len(path)


def parse(ts: TokenStream, g: TransitionGraph) -> StatementAst:
    """Parse a token stream into a statement AST.

    Pipeline: whitespace is dropped and punctuation discarded; UNKNOWN
    tokens before the first closed-class token are discarded as noise;
    the maximal trailing UNKNOWN run is promoted to the keyword phrase;
    the remaining class sequence must be a START-to-END path in the graph,
    consumed leftmost first.  Raises ParseError otherwise.
    """
    content = [t for t in ts.tokens if t.cls not in ("WS", "PUNCT", "END_OF_INPUT")]
    if not content:
        raise ParseError("empty_statement", (0, len(ts.source)), frozenset(), "END")

    # trailing UNKNOWN run becomes the keyword phrase
    split = len(content)
    while split > 0 and content[split - 1].cls == "UNKNOWN":
        split -= 1
    keyword = content[split:]
    prefix = content[:split]

    # leading UNKNOWN noise before the first closed-class token
    lead = 0
    while lead < len(prefix) and prefix[lead].cls == "UNKNOWN":
        lead += 1
    clause = prefix[lead:]

    end_span = (len(ts.source), len(ts.source))
    walked = clause + keyword[:1]  # the token behind each step but END
    path = [t.cls for t in clause] + (["K"] if keyword else []) + ["END"]
    steps, state = _walk(path, g)
    if steps < len(walked):  # UNKNOWN is no graph node, so it stops the walk
        cls = path[steps]
        kind = ("pronoun_before_imperative" if state in PRONOUN_CLASSES and cls == "J"
                else "illegal_transition")
        raise ParseError(kind, walked[steps].span, frozenset(g.successors(state)), cls)
    if steps == len(walked):  # no edge to END
        expected = frozenset(g.successors(state))
        kind = "missing_keyword" if not keyword and "K" in expected else "illegal_transition"
        raise ParseError(kind, end_span, expected, "END")
    if not keyword:
        # possible only under an override graph with a K-bypass path
        raise ParseError("missing_keyword", end_span, frozenset({"K"}), "END")

    subject = next((t for t in clause if t.cls in PRONOUN_CLASSES), None)
    auxiliary = next((t for t in clause if t.cls in AUX_CLASSES), None)
    verb = next((t for t in clause if t.cls in VERB_CLASSES), None)
    return StatementAst(subject, auxiliary, verb, tuple(keyword))


def dispositions(ts: TokenStream, ast: StatementAst) -> Iterator[tuple[Token, str]]:
    """Each token of a parsed statement, in input order, with what parse
    made of it: consumed, promoted_to_K, discarded_noise or
    discarded_punct.  Whitespace and the end-of-input sentinel are left out.
    """
    keyword_start = ast.keyword_phrase[0].span
    for tok in ts.tokens:
        if tok.cls in ("WS", "END_OF_INPUT"):
            continue
        if tok.cls == "PUNCT":
            yield tok, "discarded_punct"
        elif tok.span >= keyword_start:
            yield tok, "promoted_to_K"
        elif tok.cls == "UNKNOWN":  # parse rejects one after a closed-class word
            yield tok, "discarded_noise"
        else:
            yield tok, "consumed"
