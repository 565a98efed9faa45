import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


class FullSink(io.StringIO):
    """An output that cannot be written to, like a stdout on a full disk."""

    def write(self, s):
        raise OSError(28, "No space left on device")


FULL_ERROR = "error: [Errno 28] No space left on device\n"


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

    def test_statements_with_equal_terms_keep_their_ids(self, tmp_path):
        log = tmp_path / "query.log"
        code, out, _ = batch_run(
            tmp_path, ["bolt", "I need bolt", "He needs pump",
                       "She is looking for bolt"],
            "--format", "tsv", "--log", str(log))
        assert code == 0
        bolt = ["1\tHex Bolt M8\t1\tAND", "4\tBolt M8x20\t1\tAND"]
        pump = ["3\tCentrifugal Pump\t1\tAND", "5\tPump Seal Kit\t1\tAND"]
        assert out.splitlines() == [
            f"{sid}\t{row}" for sid, rows in
            [(1, bolt), (2, bolt), (3, pump), (4, bolt)] for row in rows
        ]
        fields = [line.split("\t")[1:] for line in log.read_text().splitlines()]
        assert fields == [
            ["1", "bolt", "AND", "1,4", "1-2;1-4"],
            ["2", "bolt", "AND", "1,4", "1-2;2-4"],
            ["3", "pump", "AND", "3,5", ""],
            ["4", "bolt", "AND", "1,4", "1-4;2-4"],
        ]

    @pytest.mark.parametrize("flag", ["--log", "--export-triples", "--save-index"])
    def test_unwritable_output_path_exit_1(self, tmp_path, flag):
        target = tmp_path / "no_such_dir" / "out"
        code, out, err = batch_run(tmp_path, ["I need bolt"], flag, str(target))
        assert code == 1
        assert "Query: I need bolt" in out
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["text", "sql", "triples", "tsv"])
    def test_unwritable_stdout_exit_1(self, tmp_path, fmt):
        batch = tmp_path / "batch.txt"
        batch.write_text("I need bolt\nbolt\n", encoding="utf-8")
        args = make_args("--batch", str(batch), "--format", fmt)
        err = io.StringIO()
        assert run_batch(args, out=FullSink(), err=err) == 1
        assert err.getvalue() == FULL_ERROR

    def test_bom_catalog(self, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(sample_catalog_path()).read_bytes())
        _, plain, _ = batch_run(tmp_path, ["I need bolt"])
        code, out, err = batch_run(tmp_path, ["I need bolt"], "--catalog", str(bom))
        assert (code, err) == (0, "")
        assert out == plain

    def test_control_character_in_catalog_name_exit_1(self, tmp_path):
        catalog = tmp_path / "cat.csv"
        catalog.write_text('id,name,category,description,attributes\n'
                           '1,"Hex\nBolt",fasteners,,\n', encoding="utf-8")
        code, out, err = batch_run(tmp_path, ["bolt"], "--format", "tsv",
                                   "--catalog", str(catalog))
        assert (code, out) == (1, "")
        assert err == "error: line 2: control character in name or category\n"

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

    def test_carriage_return_inside_line(self):
        code, out, err = self.run("I need bolt\rx\nbolt\n:quit\n")
        assert code == 0
        assert err == "input: error: statement line must not contain newlines\n"
        assert "Query: bolt" in out

    def test_unwritable_save_index_ends_session(self, tmp_path):
        target = tmp_path / "no_such_dir" / "index.tsv"
        code, out, err = self.run("bolt\nbolt\n:quit\n", "--save-index", str(target))
        assert code == 1
        assert out.count("Query: bolt") == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unwritable_stdout_ends_session(self):
        err = io.StringIO()
        code = run_repl(make_args(), stdin=io.StringIO("bolt\nbolt\n:quit\n"),
                        out=FullSink(), err=err)
        assert (code, err.getvalue()) == (1, FULL_ERROR)

    def test_eof_exits_cleanly(self):
        code, out, _ = self.run("bolt\n")
        assert code == 0

    def test_matches_batch_output(self, tmp_path):
        _, batch_out, _ = batch_run(tmp_path, ["She is looking for valve"])
        _, repl_out, _ = self.run("She is looking for valve\n:quit\n")
        body = repl_out.removeprefix("isoas> ").removesuffix("isoas> ")
        assert body == batch_out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("mode", ["batch", "repl"])
def test_stdout_on_full_device_exit_1(mode):
    # a buffered stdout fails only when flushed, at the latest when the
    # interpreter exits: the process must still end with one error line
    argv = [sys.executable, "-m", "cnlsearch.cli", "--catalog", sample_catalog_path()]
    if mode == "batch":
        argv += ["--batch", str(Path(__file__).parent / "fixtures" / "sample_batch.txt")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, input="bolt\n", stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (1, FULL_ERROR)


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
        # the override is a line in the grammar file it changes
        gfile = tmp_path / "g.txt"
        gfile.write_text(DEFAULT_GRAMMAR_TEXT + "!override-jk\nA -> J\n",
                         encoding="utf-8")
        code, out, _ = batch_run(tmp_path, ["I find bolt"], "--grammar", str(gfile))
        assert code == 0
        assert "Query: I find bolt" in out


# pieces that mean something to one of the input formats: lexicon words,
# CSV quoting and separators, attribute and edge syntax, comments,
# punctuation, line ends and a few control and non-ASCII characters
PIECES = st.sampled_from([
    "I", "need", "she", "is", "looking for", "find", "bolt", "m8", "1", "2",
    " ", ",", '"', "|", "=", "#", "->", "!override-jk", "\t", "\r", "\n",
    "\r\n", ".", "\x00", "\x0b", "\x85", "\u2028", "é", "İ",
    "START", "A", "D", "K", "END",
])
FUZZ_TEXT = st.one_of(st.lists(PIECES, max_size=16).map("".join),
                      st.text(max_size=20))
CATALOG_ROW = st.builds("{},{},{},{},{}\n".format,
                        st.integers(-1, 4), FUZZ_TEXT, FUZZ_TEXT, FUZZ_TEXT,
                        FUZZ_TEXT)
# arbitrary text for one file: junk alone, or after the file's own header
# or default content
FUZZED_FILE = {
    "catalog": st.one_of(
        st.lists(CATALOG_ROW, max_size=4).map(
            lambda rows: "id,name,category,description,attributes\n" + "".join(rows)),
        FUZZ_TEXT),
    "lexicon": st.one_of(FUZZ_TEXT.map(lambda junk: DEFAULT_LEXICON_TEXT + junk),
                         FUZZ_TEXT),
    "grammar": st.one_of(FUZZ_TEXT.map(lambda junk: DEFAULT_GRAMMAR_TEXT + junk),
                         FUZZ_TEXT),
}


class TestWholeCliFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           fuzzed=st.sets(st.sampled_from(sorted(FUZZED_FILE))),
           statements=st.lists(FUZZ_TEXT, max_size=4).map("\n".join),
           batch=st.booleans(),
           fmt=st.sampled_from(["text", "sql", "triples", "tsv"]),
           explain=st.booleans())
    def test_main_never_raises(self, data, fuzzed, statements, batch, fmt, explain):
        # files not fuzzed are the sample catalog and the embedded
        # lexicon and grammar, so statements often reach the pipeline
        with tempfile.TemporaryDirectory() as tmp:
            def put(name, text):
                path = Path(tmp) / name
                path.write_text(text, encoding="utf-8", newline="")
                return str(path)

            catalog = sample_catalog_path()
            if "catalog" in fuzzed:
                catalog = put("catalog.csv", data.draw(FUZZED_FILE["catalog"]))
            argv = ["--catalog", catalog, "--format", fmt]
            for name in ("lexicon", "grammar"):
                if name in fuzzed:
                    argv += [f"--{name}", put(name, data.draw(FUZZED_FILE[name]))]
            if batch:
                argv += ["--batch", put("batch.txt", statements)]
            if explain:
                argv.append("--explain")
            saved = sys.stdin, sys.stdout, sys.stderr
            sys.stdin = io.StringIO(statements)
            sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
            try:
                code = main(argv)
            finally:
                sys.stdin, sys.stdout, sys.stderr = saved
        assert code in (0, 1, 2)
