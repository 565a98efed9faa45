#!/usr/bin/env python3
"""Benchmark of the cnlsearch command line, run from a source checkout.

    python3 bench/run.py --workload repl-zipf --seed 1 --seconds 40 --trace 0

Each run is one fresh process, one client, closed loop.  A child process
generates the workload's catalog and statements from the seed, then this
process calls the real entry point ``cnlsearch.cli.main`` in-process,
session after session (set-up plus every statement), for about
``--seconds`` and at least three sessions.  Times are scaled to a
reference machine speed that a probe measures next to every statement
(``speed.py``).  Every session's output is checked against ``oracle.py``.
The last stdout line is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from traced sessions with ``--trace 1``,
each with the unit BENCHMARK.json gives it.
``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import speed
from gen import WORKLOADS, Workload, generate
from oracle import PARSE_ERROR, PROMPT, Expected, Oracle
from tracing import Tracer, layer_metrics, percentile, wrapper_cost_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SESSIONS = 3
LOG_TIME = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ")


def load_cli():
    """Import cnlsearch from this checkout's src/ and nowhere else."""
    if not (SRC / "cnlsearch" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'cnlsearch'} not found; run from a cnlsearch checkout")
    sys.path.insert(0, str(SRC))
    from cnlsearch import cli
    if Path(cli.__file__).resolve().parent != (SRC / "cnlsearch").resolve():
        sys.exit(f"error: imported cnlsearch from {cli.__file__}, not {SRC}")
    return cli


class Sink:
    """File-backed stdout/stderr that counts the characters written."""

    def __init__(self, path: Path):
        self.fh = open(path, "w", encoding="utf-8", newline="")
        self.n = 0

    def write(self, s: str) -> int:
        self.n += len(s)
        return self.fh.write(s)

    def flush(self) -> None:
        self.fh.flush()


class Feeder:
    """REPL stdin: hands out one statement per readline().  Each call
    timestamps its entry, which ends the previous statement, with the
    output positions at that moment; runs the speed probe, when the
    session probes; and timestamps its exit, which starts the next one."""

    def __init__(self, lines: list[str], out: Sink, err: Sink, tracer: Tracer | None,
                 probes: array | None):
        self.lines, self.out, self.err, self.tracer = lines, out, err, tracer
        self.probes = probes
        self.ends, self.starts = array("d"), array("d")
        self.out_at, self.err_at = array("q"), array("q")

    def readline(self) -> str:
        self.ends.append(time.perf_counter())
        self.out_at.append(self.out.n)
        self.err_at.append(self.err.n)
        if self.probes is not None:
            self.probes.append(speed.probe())
        i = len(self.ends)  # 1-based statement handed out now
        if self.tracer is not None:
            self.tracer.stmt = i
        self.starts.append(time.perf_counter())
        return self.lines[i - 1] + "\n" if i <= len(self.lines) else ""


class Bench:
    """One workload's inputs, its sessions and their check.

    Sessions keep their output in files of their own and the oracle runs
    only after the last session, so neither its time nor its memory lands
    in a session's timings or in the peak resident size."""

    def __init__(self, cli, w: Workload, seed: int):
        self.cli, self.w, self.seed = cli, w, seed
        WORK.mkdir(exist_ok=True)
        self.stem = WORK / f"{w.name}-seed{seed}"
        # a child process writes the inputs, so the generator's transient
        # memory stays out of this process's peak resident size
        subprocess.run([sys.executable, str(Path(__file__).with_name("gen.py")),
                        w.name, str(seed), str(self.stem)], check=True)
        self.inputs = [Path(f"{self.stem}.{k}") for k in ("csv", "batch", "lines")]
        self.catalog, self.batch, lines = self.inputs
        self.lines = lines.read_text(encoding="utf-8").splitlines()
        self.runs: list[dict] = []
        self.spans: list[list] = []  # [session, name, start, end, parent, stmt]

    def session(self, tracer: Tracer | None = None) -> dict:
        """One main() call over the whole input: set-up, then every statement."""
        cli, batch = self.cli, self.w.mode == "batch"
        files = {k: Path(f"{self.stem}.{len(self.runs)}.{k}") for k in ("out", "err", "log")}
        files["log"].unlink(missing_ok=True)
        out, err = Sink(files["out"]), Sink(files["err"])
        argv = ["--catalog", str(self.catalog)]
        feeder = None
        setup_end: list[float] = []
        # a traced session runs no probes, so its spans and cli.self_ms
        # hold the program alone
        probes = None if tracer else array("q")
        before = [speed.probe() for _ in range(2 * speed.WINDOW + 1)] if probes is not None else []
        load = cli._load_pipeline
        if batch:
            argv += ["--batch", str(self.batch), "--log", str(files["log"])]

            def timed_load(args):
                pipe = load(args)
                setup_end.append(time.perf_counter())
                setup_end.append(len(probes) if probes is not None else 0)
                return pipe
            cli._load_pipeline = timed_load
            uninstall = tracer.install(cli) if tracer else speed.install(cli, probes)
        else:
            feeder = Feeder(self.lines, out, err, tracer, probes)
            uninstall = tracer.install(cli) if tracer else None
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = feeder or sys.stdin, out, err
        crash = None
        try:
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a program defect: record it, the check counts the damage
                code, crash = None, traceback.format_exc()
            t1 = time.perf_counter()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
            cli._load_pipeline = load
            if uninstall:
                uninstall()
            out.fh.close()
            err.fh.close()
        if crash:
            print(f"program raised in {self.w.name}:\n{crash}", file=sys.stderr)

        probed_ns = sum(probes) if probes else 0
        if batch:
            # every statement of a batch is answered when the batch ends, so
            # the batch is one sample that stands for all of its statements;
            # the probes' own time is taken out of it
            t_setup, in_setup = setup_end if setup_end else (t1, len(probes or ()))
            setup_s = t_setup - t0 - sum((probes or [])[:in_setup]) / 1e9
            raw = [(t1 - t_setup - sum((probes or [])[in_setup:]) / 1e9) * 1e3]
            latencies = [raw[0] * speed.factor(probes)] if probes else raw
        else:
            ends, starts = feeder.ends, feeder.starts
            t_setup = ends[0] if ends else t1
            setup_s = t_setup - t0
            raw = [(b - a) * 1e3 for a, b in zip(starts, ends[1:len(self.lines) + 1])]
            raw = raw or [(t1 - t0) * 1e3]
            latencies = speed.adjust(raw, probes) if probes else raw
        if probes:
            # set-up is scaled by the probes just before and just after it
            setup_s *= speed.factor(before + list(probes[:2 * speed.WINDOW + 1]))
        # a session keeps its latencies and output positions, not its
        # output, so the harness adds little to the peak resident size
        run = {"setup_s": setup_s, "wall_ns": int((t1 - t0) * 1e9) - probed_ns,
               "latencies_ms": array("d", latencies),
               "raw_p50_ms": percentile(raw, 50), "raw_s": sum(raw) / 1e3,
               "code": code, "files": files,
               "offsets": (feeder.out_at, feeder.err_at) if feeder else None}
        self.runs.append(run)
        return run

    def traced_session(self) -> tuple[dict, dict[str, float]]:
        tracer = Tracer()
        run = self.session(tracer)
        if self.w.mode == "batch":
            tracer.number_batch_statements()
        log = run["files"]["log"]
        log_lines = len(log.read_text(encoding="utf-8").splitlines()) if log.exists() else 0
        metrics = layer_metrics(tracer.spans, run["wall_ns"],
                                run["files"]["out"].stat().st_size, log_lines)
        session = len(self.runs) - 1
        self.spans.extend([session] + s[:5] for s in tracer.spans)
        return run, metrics

    def write_spans(self) -> None:
        with open(f"{self.stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for session, name, start, end, parent, stmt in self.spans:
                fh.write(json.dumps({"session": session, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "stmt": stmt}) + "\n")

    def check(self) -> tuple[int, dict]:
        """Statements, over all sessions, whose output disagrees with the
        oracle, and the workload's input statistics."""
        inputs = generate(self.w, self.seed)
        if [st.line for st in inputs.statements] != self.lines:
            sys.exit("error: the generator is not deterministic")
        oracle = Oracle(inputs.catalog_csv)
        exp = Expected(oracle, inputs.statements)
        log_rows = exp.log_fields() if self.w.mode == "batch" else []
        failed = 0
        for run in self.runs:
            text = {k: p.read_text(encoding="utf-8") if p.exists() else ""
                    for k, p in run["files"].items()}
            if self.w.mode == "batch":
                failed += check_batch(exp, inputs.batch_lineno, log_rows, text, run["code"])
            else:
                failed += check_repl(exp, run["offsets"], text, run["code"])
            for p in run["files"].values():
                p.unlink(missing_ok=True)
        return failed, exp.stats(oracle)


def check_repl(exp: Expected, offsets: tuple[array, array], text: dict, code) -> int:
    out, err = text["out"], text["err"]
    out_at, err_at = offsets
    failed = 0
    for i, st in enumerate(exp.statements):
        if i + 1 >= len(out_at):  # never answered: the REPL died
            failed += 1
            continue
        o = out[out_at[i]:out_at[i + 1]]
        e = err[err_at[i]:err_at[i + 1]]
        if exp.responses[i] is not None:
            ok = o == exp.responses[i] + PROMPT and e == ""
        else:
            m = PARSE_ERROR.fullmatch(e.rstrip("\n"))
            ok = (o == PROMPT and e.count("\n") == 1 and m is not None
                  and m["label"] == "input" and m["kind"] == st.kind)
        failed += not ok
    if code != 0 or not out.startswith(PROMPT):
        failed = max(failed, 1)
    return failed


def check_batch(exp: Expected, linenos: tuple[int, ...], log_rows: list[list[str]],
                text: dict, code) -> int:
    acc = exp.accepted()
    bad: set[int] = set()
    # stdout: responses with results first, then empty ones, each in
    # statement order, separated by one blank line
    order = [i for i in acc if exp.outcomes[i][1]] + [i for i in acc if not exp.outcomes[i][1]]
    blocks = re.split(r"(?<=\n)\n(?=Query: )", text["out"]) if text["out"] else []
    for k, i in enumerate(order):
        if k >= len(blocks) or blocks[k] != exp.responses[i]:
            bad.add(i)
    # stderr: one parse-error line per rejected statement, labelled with
    # its line number in the batch file
    errors = {}
    for line in text["err"].splitlines():
        m = PARSE_ERROR.fullmatch(line)
        errors[m["label"] if m else line] = m["kind"] if m else None
    for i, st in enumerate(exp.statements):
        if errors.pop(f"line {linenos[i]}", "accept") != st.kind:
            bad.add(i)
    # log: one row per accepted statement, in statement order
    rows = text["log"].splitlines()
    for sid, i in enumerate(acc, start=1):
        fields = rows[sid - 1].split("\t") if sid <= len(rows) else []
        if not fields or not LOG_TIME.fullmatch(fields[0]) or fields[1:] != log_rows[sid - 1]:
            bad.add(i)
    expected_code = 2 if len(acc) < len(exp.statements) else 0
    if code != expected_code or errors or len(blocks) != len(order) or len(rows) != len(acc):
        return max(len(bad), 1)
    return len(bad)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = load_cli()
    bench = Bench(cli, WORKLOADS[workload], seed)
    plain: list[dict] = []
    traced: list[tuple[dict, dict[str, float]]] = []
    harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = last = time.perf_counter()
    while True:
        if trace:
            traced.append(bench.traced_session())
        else:
            plain.append(bench.session())
        now = time.perf_counter()
        # stop before a session that would overrun --seconds
        if len(bench.runs) >= MIN_SESSIONS and 2 * now - last - start > seconds:
            break
        last = now
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, stats = bench.check()
    for path in bench.inputs:
        path.unlink()
    attempted = len(bench.lines) * len(bench.runs)
    print(f"{workload} seed {seed} inputs: "
          + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in stats.items()), file=sys.stderr)
    if trace:
        bench.write_spans()
        values = {k: statistics.median(m[k] for _, m in traced) for k in traced[0][1]}
        # what the span wrapper adds per call, times the spans of a session:
        # a traced session's wall time minus a plain one's is mostly the
        # machine's drift, far larger than this
        values["trace.overhead_ms"] = wrapper_cost_ns() * values["trace.spans"] / 1e6
    else:
        # times are scaled to the reference speed (speed.py); percentiles
        # and throughput are taken within a session and the run reports the
        # median over its sessions, so one disturbed session cannot move it
        n = len(bench.lines)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "stmt_p50_ms": statistics.median(percentile(r["latencies_ms"], 50) for r in plain),
            "stmt_p99_ms": statistics.median(percentile(r["latencies_ms"], 99) for r in plain),
            "throughput_stmt_per_s": statistics.median(
                n / (sum(r["latencies_ms"]) / 1e3) for r in plain),
            "peak_rss_mb": peak_rss_mb,
        }
    units = metric_units("per_layer" if trace else "end_to_end")
    if set(values) != set(units):
        sys.exit(f"error: metrics {sorted(set(values) ^ set(units))} are not both "
                 "measured and listed in BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    for r in plain:
        lat = r["latencies_ms"]
        print(f"session: setup_s={r['setup_s']:.4f} p50_ms={percentile(lat, 50):.4f} "
              f"p99_ms={percentile(lat, 99):.4f} "
              f"throughput={len(bench.lines) / (sum(lat) / 1e3):.2f} "
              f"unscaled: p50_ms={r['raw_p50_ms']:.4f} "
              f"throughput={len(bench.lines) / r['raw_s']:.2f}", file=sys.stderr)
    print(f"{workload}: {len(bench.runs)} sessions, {len(plain) * len(bench.lines)} untraced "
          f"statement samples, harness_rss_mb={harness_rss_mb:.4g}, "
          f"error_rate={failed / attempted:.4g} ({failed}/{attempted})", file=sys.stderr)
    if failed:
        print(f"program defect: {failed} of {attempted} statements disagree with the "
              f"oracle in {workload} (seed {seed})", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric in one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process, then one table."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, check=False)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            status = status or 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"error_rate={result['failed'] / result['attempted']:.4g}")
        for metric, mv in result["metrics"].items():
            print(f"  {metric:36s} {mv['value']:>14.6g} {mv['unit']}")
    return status


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.workload == "all":
        return run_all(a.seed, a.seconds, bool(a.trace))
    return run(a.workload, a.seed, a.seconds, bool(a.trace))


if __name__ == "__main__":
    sys.exit(main())
