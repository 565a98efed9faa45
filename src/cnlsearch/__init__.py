"""Controlled-natural-language search over an embedded product catalog.

English search statements are tokenized against a closed-class lexicon,
validated by a transition-graph grammar, turned into semantic triples and
keyword queries, executed against an inverted-index catalog, and answered
in the user's own grammatical frame.
"""

from .grammar import (ParseError, StatementAst, SymbolTable, TransitionGraph,
                      default_graph, load_graph, parse)
from .lexicon import (Lexicon, Token, TokenStream, default_lexicon,
                      detokenize, load_lexicon, tokenize)
from .queries import StructuredQuery, generate_query, render_sql
from .responder import (AnswerLines, ResponseFrame, build_echo, present,
                        prioritize, reconstruct)
from .semantics import (RelationLink, SemanticModel, Triple, build_model,
                        export_triples, resolve)
from .store import (InvertedIndex, ProductRecord, ResultSet, append_log,
                    execute, ingest_catalog, save_index_text)

__all__ = [
    "ParseError", "StatementAst", "SymbolTable", "TransitionGraph",
    "default_graph", "load_graph", "parse",
    "Lexicon", "Token", "TokenStream", "default_lexicon", "detokenize",
    "load_lexicon", "tokenize",
    "StructuredQuery", "generate_query", "render_sql",
    "AnswerLines", "ResponseFrame", "build_echo", "present", "prioritize",
    "reconstruct",
    "RelationLink", "SemanticModel", "Triple", "build_model",
    "export_triples", "resolve",
    "InvertedIndex", "ProductRecord", "ResultSet", "append_log", "execute",
    "ingest_catalog", "save_index_text",
]

__version__ = "0.1.0"
