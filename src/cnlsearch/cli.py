"""Command-line entry point: batch file mode, interactive REPL, output
format selection, and wiring of the pipeline modules.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from importlib import resources

from . import grammar as grammar_mod
from . import lexicon as lexicon_mod
from .grammar import ParseError, StatementAst, TransitionGraph, dispositions, parse
from .lexicon import Lexicon, TokenStream, tokenize
from .queries import StructuredQuery, generate_query, render_sql
from .responder import (AnswerLines, ResponseFrame, build_echo, present,
                        prioritize, reconstruct)
from .semantics import SemanticModel, build_model, export_triples, resolve
from .store import (CatalogError, InvertedIndex, ProductRecord, ResultSet,
                    append_log, execute, ingest_catalog, save_index_text)

PROMPT = "isoas> "

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2


def sample_catalog_path() -> str:
    """Path of the sample catalog shipped with the package."""
    return str(resources.files("cnlsearch.data") / "sample_catalog.csv")


def _build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cnlsearch",
        description="Controlled-natural-language product search.",
    )
    p.add_argument("--catalog", help="product catalog CSV path")
    p.add_argument("--lexicon", help="lexicon file path (default: embedded)")
    p.add_argument("--grammar", help="grammar file path (default: embedded)")
    p.add_argument("--batch", help="statement file path (one statement per line)")
    p.add_argument("--format", choices=["text", "sql", "triples", "tsv"],
                   default="text")
    p.add_argument("--export-triples", metavar="PATH",
                   help="write the triple export to PATH")
    p.add_argument("--log", metavar="PATH", help="append query log lines to PATH")
    p.add_argument("--save-index", metavar="PATH",
                   help="dump the inverted index postings to PATH")
    p.add_argument("--explain", action="store_true",
                   help="print token table, class path, triple and SQL")
    p.add_argument("--dump-lexicon", action="store_true",
                   help="print the embedded lexicon file and exit")
    p.add_argument("--dump-grammar", action="store_true",
                   help="print the embedded grammar file and exit")
    return p


@dataclass(frozen=True)
class Pipeline:
    """Loaded lexicon, grammar and catalog shared by batch and REPL modes."""
    lexicon: Lexicon
    graph: TransitionGraph
    records: dict[int, ProductRecord]  # by id
    index: InvertedIndex
    lines: AnswerLines  # of the records, filled as they are shown


def _load_pipeline(args: argparse.Namespace) -> Pipeline:
    if args.lexicon:
        with open(args.lexicon, encoding="utf-8") as fh:
            lex = lexicon_mod.load_lexicon(fh.read())
    else:
        lex = lexicon_mod.default_lexicon()
    if args.grammar:
        with open(args.grammar, encoding="utf-8") as fh:
            graph = grammar_mod.load_graph(fh.read())
    else:
        graph = grammar_mod.default_graph()
    if not args.catalog:
        raise CatalogError("--catalog is required")
    with open(args.catalog, encoding="utf-8-sig", newline="") as fh:
        records, index = ingest_catalog(fh.read())
    return Pipeline(lex, graph, records, index, AnswerLines(records))


def _explain(out, ts: TokenStream, ast: StatementAst,
             q: StructuredQuery, model: SemanticModel) -> None:
    out.write("tokens:\n")
    for tok, disposition in dispositions(ts, ast):
        out.write(f"  {tok.lexeme}\t{tok.cls}\t{disposition}\n")
    path = []
    if ast.subject is not None:
        path.append(ast.subject.cls)
    if ast.auxiliary is not None:
        path.append(ast.auxiliary.cls)
    if ast.verb is not None:
        path.append(ast.verb.cls)
    path.append("K")
    out.write(f"path: START {' '.join(path)} END\n")
    stmt = model.statements[q.statement_id - 1]
    t = stmt.triple
    out.write(f"triple: ({t.subject}, {t.predicate}, {t.object})\n")
    out.write(f"sql: {render_sql(q)}\n")


def _emit(args: argparse.Namespace, out, pipe: Pipeline, model: SemanticModel,
          streams: list[TokenStream], asts: list[StatementAst],
          queries: list[StructuredQuery], results: list[ResultSet]) -> None:
    if args.explain:
        for ts, ast, q in zip(streams, asts, queries):
            _explain(out, ts, ast, q, model)
    if args.format == "text":
        frames = [ResponseFrame(build_echo(ast), rs) for ast, rs in zip(asts, results)]
        present([reconstruct(f, pipe.lines) for f in prioritize(frames)], out)
    elif args.format == "sql":
        for q in queries:
            out.write(f"-- statement {q.statement_id}\n{render_sql(q)}\n")
    elif args.format == "triples":
        out.write(export_triples(model))
    else:  # tsv
        records = pipe.records
        for rs in results:
            sid = rs.query.statement_id
            for rid, score in zip(rs.items, rs.scores):
                out.write(f"{sid}\t{rid}\t{records[rid].name}\t{score}\t{rs.matched}\n")


def _side_outputs(args: argparse.Namespace, pipe: Pipeline,
                  model: SemanticModel, results: list[ResultSet]) -> None:
    if args.export_triples:
        with open(args.export_triples, "w", encoding="utf-8", newline="") as fh:
            fh.write(export_triples(model))
    if args.log:
        rels: dict[int, list[tuple[int, int]]] = {}
        for r in model.relations:
            for sid in (r.from_id, r.to_id):
                rels.setdefault(sid, []).append((r.from_id, r.to_id))
        # statements with equal terms share one answer: join its ids once
        joined: dict[tuple[str, ...], str] = {}
        try:
            with open(args.log, "a", encoding="utf-8", newline="") as log:
                for rs in results:
                    terms, sid = rs.query.terms, rs.query.statement_id
                    if terms not in joined:
                        joined[terms] = ",".join(map(str, rs.items))
                    append_log(log, sid, terms, rs.matched, joined[terms],
                               rels.get(sid, []))
        except OSError as exc:
            raise OSError(f"cannot append query log {args.log!r}: {exc}") from exc
    if args.save_index:
        with open(args.save_index, "w", encoding="utf-8", newline="") as fh:
            fh.write(save_index_text(pipe.index))


def _run_statements(args: argparse.Namespace, pipe: Pipeline,
                    lines: list[tuple[str, str]], out, err) -> int:
    """Run the pipeline over (label, statement) pairs; returns the exit
    code: EXIT_PARSE when a statement did not parse, EXIT_CONFIG when the
    output or an output file could not be written."""
    streams: list[TokenStream] = []  # of the accepted statements
    asts: list[StatementAst] = []
    ok = True
    for label, line in lines:
        try:
            ts = tokenize(line, pipe.lexicon)
            ast = parse(ts, pipe.graph)
        except ParseError as exc:
            err.write(f"{label}: parse error: {exc}\n")
            ok = False
            continue
        except ValueError as exc:  # a line the tokenizer cannot read
            err.write(f"{label}: error: {exc}\n")
            ok = False
            continue
        streams.append(ts)
        asts.append(ast)
    model = resolve(build_model(asts))
    queries = generate_query(model)
    # an answer depends only on the terms: statements with equal terms
    # share one retrieval and each keeps its own query (statement id)
    answers: dict[tuple[str, ...], ResultSet] = {}
    results = []
    for q in queries:
        if q.terms not in answers:
            answers[q.terms] = execute(q, pipe.index)
        rs = answers[q.terms]
        results.append(ResultSet(rs.items, rs.scores, q, rs.matched))
    try:
        _emit(args, out, pipe, model, streams, asts, queries, results)
        out.flush()
        _side_outputs(args, pipe, model, results)
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CONFIG
    return EXIT_OK if ok else EXIT_PARSE


def run_batch(args: argparse.Namespace, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        pipe = _load_pipeline(args)
        with open(args.batch, encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CONFIG
    lines = [
        (f"line {n}", line)
        for n, line in enumerate(raw_lines, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return _run_statements(args, pipe, lines, out, err)


def run_repl(args: argparse.Namespace, stdin=None, out=None, err=None) -> int:
    stdin = stdin or sys.stdin
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        pipe = _load_pipeline(args)
        while True:
            out.write(PROMPT)
            out.flush()
            raw = stdin.readline()
            if raw == "":
                out.write("\n")
                return EXIT_OK
            line = raw.rstrip("\r\n")
            if line == ":quit":
                return EXIT_OK
            if not line.strip():
                continue
            if _run_statements(args, pipe, [("input", line)], out, err) == EXIT_CONFIG:
                return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    if args.dump_lexicon or args.dump_grammar:
        try:
            sys.stdout.write(lexicon_mod.DEFAULT_LEXICON_TEXT if args.dump_lexicon
                             else grammar_mod.DEFAULT_GRAMMAR_TEXT)
            sys.stdout.flush()
            code = EXIT_OK
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            code = EXIT_CONFIG
    else:
        code = run_batch(args) if args.batch else run_repl(args)
    try:
        sys.stdout.flush()
    except OSError:
        # stdout is unwritable (the run has said so): drop what is left in
        # its buffer, so that the flush at interpreter exit does not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
