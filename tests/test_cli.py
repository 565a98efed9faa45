import io
from pathlib import Path

import pytest

from cnlsearch.cli import (_build_arg_parser, main, run_batch, run_repl,
                           sample_catalog_path)
from cnlsearch.grammar import DEFAULT_GRAMMAR_TEXT
from cnlsearch.lexicon import DEFAULT_LEXICON_TEXT


def make_args(*extra):
    return _build_arg_parser().parse_args(
        ["--catalog", sample_catalog_path(), *extra]
    )


def batch_run(tmp_path, lines, *extra):
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    args = make_args("--batch", str(batch), *extra)
    out, err = io.StringIO(), io.StringIO()
    code = run_batch(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestBatch:
    def test_simple_search(self, tmp_path):
        code, out, err = batch_run(tmp_path, ["I am looking for bolt"])
        assert code == 0
        assert "Query: I am looking for bolt" in out
        assert "- [1] Hex Bolt M8 — fasteners" in out
        assert err == ""

    def test_parse_error_exit_2(self, tmp_path):
        code, out, err = batch_run(tmp_path, ["I find bolt"])
        assert code == 2
        assert "pronoun_before_imperative" in err

    def test_error_then_success_continues(self, tmp_path):
        code, out, err = batch_run(tmp_path, ["I find bolt", "He needs pump"])
        assert code == 2
        assert "Query: He needs pump" in out

    def test_empty_batch(self, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("", encoding="utf-8")
        args = make_args("--batch", str(batch))
        out = io.StringIO()
        assert run_batch(args, out=out, err=io.StringIO()) == 0
        assert out.getvalue() == ""

    def test_comments_and_blanks_skipped(self, tmp_path):
        code, out, _ = batch_run(tmp_path, ["# comment", "", "bolt"])
        assert code == 0
        assert out.count("Query:") == 1

    def test_missing_catalog_exit_1(self, tmp_path):
        batch = tmp_path / "batch.txt"
        batch.write_text("bolt\n", encoding="utf-8")
        args = _build_arg_parser().parse_args(
            ["--catalog", str(tmp_path / "nope.csv"), "--batch", str(batch)]
        )
        err = io.StringIO()
        assert run_batch(args, out=io.StringIO(), err=err) == 1
        assert "error:" in err.getvalue()

    def test_missing_batch_file_exit_1(self):
        args = make_args("--batch", "/nonexistent/batch.txt")
        assert run_batch(args, out=io.StringIO(), err=io.StringIO()) == 1

    def test_sql_format(self, tmp_path):
        code, out, _ = batch_run(tmp_path, ["He needs pump"], "--format", "sql")
        assert out == (
            "-- statement 1\n"
            "SELECT id, name, category FROM products WHERE "
            "keywords LIKE '%pump%' ORDER BY id;\n"
        )

    def test_triples_format(self, tmp_path):
        code, out, _ = batch_run(tmp_path, ["He needs pump"],
                                 "--format", "triples")
        assert out == "1\the\tneed\tpump\n"

    def test_tsv_format(self, tmp_path):
        code, out, _ = batch_run(tmp_path, ["find washer"], "--format", "tsv")
        assert out == "1\t2\tFlat Washer M8\t1\tAND\n"

    def test_export_triples_file(self, tmp_path):
        path = tmp_path / "triples.tsv"
        batch_run(tmp_path, ["He needs pump"], "--export-triples", str(path))
        assert path.read_text() == "1\the\tneed\tpump\n"

    def test_query_log(self, tmp_path):
        path = tmp_path / "query.log"
        batch_run(tmp_path, ["I need bolt", "She wants bolt"],
                  "--log", str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[0].split("\t")
        assert fields[1:] == ["1", "bolt", "AND", "1,4", "1-2"]

    def test_save_index(self, tmp_path):
        path = tmp_path / "index.tsv"
        batch_run(tmp_path, ["bolt"], "--save-index", str(path))
        assert "bolt\t1,4\n" in path.read_text()

    def test_bom_catalog(self, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(sample_catalog_path()).read_bytes())
        _, plain, _ = batch_run(tmp_path, ["I need bolt"])
        code, out, err = batch_run(tmp_path, ["I need bolt"], "--catalog", str(bom))
        assert (code, err) == (0, "")
        assert out == plain

    def test_explain_lists_every_token_once(self, tmp_path):
        code, out, _ = batch_run(tmp_path, ["She needs bolt M8."], "--explain")
        tokens_block = out.split("path:")[0]
        for lexeme in ["She", "needs", "bolt", "M8", "."]:
            assert tokens_block.count(f"  {lexeme}\t") == 1
        assert "path: START C E K END" in out
        assert "triple: (she, need, bolt m8)" in out
        assert "sql: SELECT" in out


class TestRepl:
    def run(self, text, *extra):
        args = make_args(*extra)
        out, err = io.StringIO(), io.StringIO()
        code = run_repl(args, stdin=io.StringIO(text), out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def test_query_then_quit(self):
        code, out, _ = self.run("He needs pump\n:quit\n")
        assert code == 0
        assert out.startswith("isoas> ")
        assert "Query: He needs pump" in out
        assert "- [3] Centrifugal Pump — pumps" in out

    def test_quit_only(self):
        code, out, _ = self.run(":quit\n")
        assert code == 0
        assert out == "isoas> "

    def test_blank_line_reprompts(self):
        code, out, _ = self.run("\n:quit\n")
        assert out == "isoas> isoas> "

    def test_parse_error_keeps_looping(self):
        code, out, err = self.run("I find bolt\nbolt\n:quit\n")
        assert code == 0
        assert "pronoun_before_imperative" in err
        assert "Query: bolt" in out

    def test_crlf_input(self):
        code, crlf_out, err = self.run("I need bolt\r\n:quit\r\n")
        _, lf_out, _ = self.run("I need bolt\n:quit\n")
        assert (code, err) == (0, "")
        assert crlf_out == lf_out

    def test_eof_exits_cleanly(self):
        code, out, _ = self.run("bolt\n")
        assert code == 0

    def test_matches_batch_output(self, tmp_path):
        _, batch_out, _ = batch_run(tmp_path, ["She is looking for valve"])
        _, repl_out, _ = self.run("She is looking for valve\n:quit\n")
        body = repl_out.removeprefix("isoas> ").removesuffix("isoas> ")
        assert body == batch_out


class TestDumps:
    def test_dump_lexicon(self, capsys):
        assert main(["--dump-lexicon"]) == 0
        assert capsys.readouterr().out == DEFAULT_LEXICON_TEXT

    def test_dump_grammar(self, capsys):
        assert main(["--dump-grammar"]) == 0
        assert capsys.readouterr().out == DEFAULT_GRAMMAR_TEXT


class TestCustomFiles:
    def test_custom_lexicon(self, tmp_path):
        lexfile = tmp_path / "lex.tsv"
        lexfile.write_text("hunting for\tI\n", encoding="utf-8")
        code, out, _ = batch_run(tmp_path, ["hunting for bolt"],
                                 "--lexicon", str(lexfile))
        assert code == 0
        assert "Query: hunting for bolt" in out

    def test_bad_grammar_exit_1(self, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text("A -> J\n", encoding="utf-8")
        code, _, err = batch_run(tmp_path, ["bolt"], "--grammar", str(gfile))
        assert code == 1
        assert "pronoun_before_imperative" in err

    def test_override_jk_flag(self, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text(DEFAULT_GRAMMAR_TEXT + "A -> J\n", encoding="utf-8")
        code, out, _ = batch_run(tmp_path, ["I find bolt"],
                                 "--grammar", str(gfile), "--override-jk")
        assert code == 0
        assert "Query: I find bolt" in out
