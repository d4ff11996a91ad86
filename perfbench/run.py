"""Benchmark for the fa library and CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload long_word --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``fa`` is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics instead, from spans taken
around every public call the benchmark makes. Every output is checked
against ``oracle.py``. Earlier lines of standard output are a readable
report and a JSON record with provenance and sample counts; the last line
is ``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEADLINE_S = 10.0  # per request; past it the request counts as failed
SETUP_SAMPLES = 30  # fresh processes timed for setup_s, spread over the run; the median is reported
LOAD_PASSES = 10  # traced in-process machine-loading passes
PROC_SAMPLES = 16  # traced bare-interpreter / import-fa / sample CLI processes, spread over the run
ALLOC_SAMPLES = 12  # graph builds measured under tracemalloc

CLI_MAIN = "import sys; from fa.cli import main; sys.exit(main())"  # what the fa script runs
SETUP_CHILD = (
    "import sys, time\n"
    "texts = sys.stdin.read().split('\\0')\n"
    "t0 = time.perf_counter()\n"
    "import fa\n"
    "for text in texts:\n"
    "    fa.parse_machine_text(text)\n"
    "print(time.perf_counter() - t0)\n"
)
ACTION = {"apply": "decide", "trace": "trace", "compgraph": "graph"}  # cli command -> user action
BASELINE_PROCESSES = {"bare_interpreter": ["-c", "pass"], "import_fa": ["-c", "import fa"]}
FA_ENV = {**{k: v for k, v in os.environ.items() if k != "FA_COLOR"}, "PYTHONPATH": str(ROOT / "src")}

END_TO_END = {
    "setup_s": "s",
    "decide_s.p50": "s",
    "decide_s.p90": "s",
    "trace_s.p50": "s",
    "trace_s.p90": "s",
    "graph_s.p50": "s",
    "graph_s.p90": "s",
    "graph_accept_s.p50": "s",
    "graph_reject_s.p50": "s",
    "cli_s.p50": "s",
    "cli_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
REPORT_ONLY = {
    "fail_ratio": "ratio",  # 0 on correct code, so it cannot carry a relative bound
    "host.oracle_us_per_config": "us",  # the run's host-speed index; see README
}
# The oracle's seconds per (state, position) configuration on each library
# workload, at the median speed of the host this benchmark was written on
# (2-core Xeon VM, 2.1 GHz, Python 3.11). In-process timings are scaled to it.
REFERENCE_S_PER_CONFIG = {"long_word": 1.0e-6, "wide_machine": 1.47e-6}

REQUEST_LAYERS = (
    "compgraph.build_accept_s",
    "compgraph.build_reject_s",
    "execution.apply_s",
    "execution.show_transitions_s",
    "execution.check_word_s",
    "dot.cgraph_to_dot_s",
    "dot.cgraph_summary_s",
)
LOAD_LAYERS = (
    "machines.make_ndfa_s",
    "machines.make_dfa_s",
    "cli.parse_machine_text_s",
    "dot.machine_to_dot_s",
)
PROCESS_LAYERS = ("cli.interp_startup_s", "cli.import_fa_s", "cli.command_s")
PER_LAYER = {
    **{f"{name}.{stat}": unit for name in REQUEST_LAYERS + LOAD_LAYERS + PROCESS_LAYERS
       for stat, unit in (("p50", "s"), ("share", "ratio"))},
    "compgraph.build.n_exponent": "exponent",
    "compgraph.build_reject.us_per_config": "us",
    "execution.apply.n_exponent": "exponent",
    "execution.apply_reject.us_per_config": "us",
    "work.configs": "count",
    "work.word_len": "count",
    "compgraph.edges.mean": "count",
    "dot.bytes.mean": "bytes",
    "compgraph.build.alloc_peak_kib": "KiB",
    "trace.overhead_ratio": "ratio",
}


class DeadlineExceeded(Exception):
    pass


def on_alarm(signum, frame):
    raise DeadlineExceeded


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the main thread once ``seconds`` have passed."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and output sizes kept in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list = []
        self.sizes: dict = {}  # request id -> (graph edges, DOT bytes)

    @contextmanager
    def span(self, name, request=None, parent=None):
        sid = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans[sid] = Span(sid, name, start, time.perf_counter(), parent, request)

    def call(self, name, request, parent, fn, *args):
        with self.span(name, request, parent):
            return fn(*args)

    def by_name(self) -> dict:
        out = defaultdict(list)
        for s in self.spans:
            out[s.name].append(s)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s._asdict()) + "\n")


def python_process(argv, stdin=None, timeout=DEADLINE_S) -> tuple:
    """(completed process, CPU seconds) of one fresh interpreter with ``fa`` on its path.

    The time is the child's user plus system time. One child is alive at a
    time, so the change in this process's children's rusage around it is
    the child's own. Wall time would add the time the child waited for a
    core, which other tenants of a shared host make swing: beside two busy
    loops on a 2-core host, the wall p90 of an ``fa`` process rose 40 % and
    its CPU p90 6 %. On an idle host the two differ by a few milliseconds.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, *argv], input=stdin, cwd=ROOT, env=FA_ENV, capture_output=True,
        text=True, encoding="utf-8", timeout=timeout,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return done, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def checked(check, *args) -> str | None:
    """The oracle's finding on one output; an output it cannot read counts as wrong."""
    try:
        return check(*args)
    except Exception as err:
        return f"unreadable output: {type(err).__name__}: {err}"


class Outcome(NamedTuple):
    request: workloads.Request
    census: oracle.Census | None  # None for the word-less cli commands
    times: dict  # "request" and each user action -> seconds
    error: str | None  # None when every output was right


class Tally:
    """Attempted and failed operations, with the first few failures kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def add(self, error: str | None, what: str) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {error}")


# ---- the fa library, in process ----------------------------------------------


class Library:
    """Library requests: apply, show_transitions, then word -> DOT text and summary."""

    def __init__(self, fa, wl: workloads.Workload, machines: list) -> None:
        self.fa = fa
        self.wl = wl
        self.machines = machines

    def request(self, req, c, tracer: Tracer | None = None) -> Outcome:
        m = self.machines[req.machine]
        times = {}
        try:
            with deadline(DEADLINE_S):
                if tracer is None:
                    got = self._plain(m, req.word, times)
                else:
                    got = self._traced(m, req, tracer, times)
        except DeadlineExceeded:
            return Outcome(req, c, times, f"past the {DEADLINE_S:g} s deadline")
        except Exception as err:  # any exception fails the request; the run goes on
            return Outcome(req, c, times, f"{type(err).__name__}: {err}")
        return Outcome(req, c, times, checked(self.check, req, c, *got))

    def _plain(self, m, word, times):
        fa = self.fa
        t0 = time.perf_counter()
        verdict = fa.apply(m, word)
        t1 = time.perf_counter()
        trace = fa.show_transitions(m, word)
        t2 = time.perf_counter()
        cg = fa.build_computation_graph(m, word)
        dot = fa.cgraph_to_dot(cg)
        summary = fa.cgraph_summary(cg)
        t3 = time.perf_counter()
        times.update(decide=t1 - t0, trace=t2 - t1, graph=t3 - t2, request=t3 - t0)
        return verdict, trace, cg, dot, summary

    def _traced(self, m, req, tr: Tracer, times):
        fa, rid = self.fa, req.id
        with tr.span("request", rid) as root:
            tr.call("execution.check_word", rid, root, fa.check_word, m, req.word)
            verdict = tr.call("execution.apply", rid, root, fa.apply, m, req.word)
            trace = tr.call("execution.show_transitions", rid, root, fa.show_transitions, m, req.word)
            with tr.span("graph", rid, root) as g:
                cg, dot, summary = graph_calls(fa, m, req, tr, g)
        times["request"] = tr.spans[root].seconds
        return verdict, trace, cg, dot, summary

    def check(self, req, c, verdict, trace, cg, dot, summary) -> str | None:
        spec = self.wl.machines[req.machine].spec
        g = oracle.Graph(
            cg.verdict,
            frozenset((e.src, e.read, e.dst, e.to_dead) for e in cg.edges),
            cg.highlighted,
            cg.dead,
        )
        steps = None if trace is None else [(s.state, s.unconsumed) for s in trace.steps]
        return (
            oracle.check_verdict(c, verdict)
            or oracle.check_trace(spec, req.word, c, steps, None if trace is None else trace.verdict)
            or oracle.check_graph(spec, req.word, c, g, steps)
            or oracle.check_dot(spec, g, dot)
            or oracle.check_summary(g, summary)
        )


def graph_calls(fa, m, req, tr: Tracer, parent):
    """word -> DOT text and summary, one span per call; output sizes go to the tracer."""
    cg = tr.call("compgraph.build", req.id, parent, fa.build_computation_graph, m, req.word)
    dot = tr.call("dot.cgraph_to_dot", req.id, parent, fa.cgraph_to_dot, cg)
    summary = tr.call("dot.cgraph_summary", req.id, parent, fa.cgraph_summary, cg)
    tr.sizes[req.id] = (len(cg.edges), len(dot.encode("utf-8")))
    return cg, dot, summary


# ---- the fa CLI, one process at a time ---------------------------------------


class Cli:
    """``fa`` commands as fresh interpreter processes, one alive at a time."""

    def __init__(self, wl: workloads.Workload, workdir: Path) -> None:
        self.wl = wl
        self.paths = []
        for mach in wl.machines:
            path = mach.path
            if path is None:
                path = str(workdir / f"{mach.name}.json")
                Path(path).write_text(mach.text, encoding="utf-8")
            self.paths.append(path)

    def request(self, req, c) -> Outcome:
        argv = ["-c", CLI_MAIN, req.command, self.paths[req.machine]]
        if req.command in workloads.WORD_COMMANDS:
            argv += list(req.word) or ["EMP"]
        if req.command == "compgraph":
            argv.append("--summary")
        try:
            done, seconds = python_process(argv)
        except subprocess.TimeoutExpired:
            return Outcome(req, c, {}, f"past the {DEADLINE_S:g} s deadline")
        spec = self.wl.machines[req.machine].spec
        times = {"request": seconds}
        if req.command in ACTION:
            times[ACTION[req.command]] = seconds
        error = checked(oracle.check_cli, spec, req.command, req.word, c, done.returncode, done.stdout)
        return Outcome(req, c, times, error)


# ---- running a workload -------------------------------------------------------


def census_for(wl, req):
    if req.command in (None, *workloads.WORD_COMMANDS):
        return oracle.census(wl.machines[req.machine].spec, req.word)
    return None


def run_rounds(wl, run_one, tally: Tally, seconds: float, between=None):
    """Closed loop, one client: whole rounds until ``seconds`` of request time have passed.

    The oracle, and ``between(busy)`` when given, run between requests,
    outside the timed region; the oracle's own time is summed and returned
    too. A minute past ``seconds`` the run stops even mid-round, so it
    always ends.
    """
    outcomes, busy, oracle_s, hard_stop = [], 0.0, 0.0, time.monotonic() + seconds + 60
    for req in itertools.chain.from_iterable(wl.rounds):
        if outcomes and req.round != outcomes[-1].request.round and busy >= seconds:
            break
        if time.monotonic() > hard_stop:
            break
        if between:
            between(busy)
        t0 = time.perf_counter()
        c = census_for(wl, req)
        oracle_s += time.perf_counter() - t0
        out = run_one(req, c)
        outcomes.append(out)
        busy += out.times.get("request", DEADLINE_S)
        tally.add(out.error, f"request {req.id}")
    return outcomes, busy, oracle_s


class Spaced:
    """Calls ``fn`` ``count`` times between requests, once each time another
    1/count of ``seconds`` of request time has passed.

    Samples taken in one burst catch the host at whatever speed it has at
    that moment; spread over the run, they meet it at the speeds the
    requests meet it.
    """

    def __init__(self, fn, count: int, seconds: float) -> None:
        self.fn = fn
        self.count = count
        self.every = seconds / count
        self.done = 0

    def due(self, busy: float) -> None:
        while self.done < self.count and busy >= self.done * self.every:
            self.done += 1
            self.fn()

    def finish(self) -> None:
        self.due(float("inf"))


def setup_process(stdin: str, tally: Tally) -> float | None:
    """Seconds of ``import fa`` plus loading every machine from its text, in a fresh process."""
    try:
        done, _ = python_process(["-c", SETUP_CHILD], stdin)
        error = None if done.returncode == 0 else done.stderr.strip()[-200:]
    except subprocess.TimeoutExpired:
        error = f"past the {DEADLINE_S:g} s deadline"
    tally.add(error, "setup process")
    return None if error else float(done.stdout)


def load_machines(fa, wl, tally: Tally) -> list:
    """Load every machine and check it against the oracle's reading of its document."""
    machines = []
    for mach in wl.machines:
        m = fa.parse_machine_text(mach.text)
        got = (m.kind, m.states, m.sigma, m.start, m.finals, tuple(tuple(r) for r in m.rules))
        tally.add(None if got == tuple(mach.spec) else "loaded machine differs", mach.name)
        machines.append(m)
    return machines


def p50(xs) -> float:
    return statistics.median(xs)


def p90(xs) -> float:
    return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=10, method="inclusive")[8]


def end_to_end(wl, outcomes, busy, oracle_s, setup, tally: Tally) -> dict:
    """name -> (value, sample count), from an untraced run.

    In the library workloads every timing, ``setup_s`` included, is scaled
    by the reference speed over the run's speed, both in seconds of the oracle's
    census per configuration: the time the call would take on the
    reference host at its median speed. The oracle is fixed code that runs
    on the same inputs between the requests, so it meets the host at the
    speeds the requests meet it, and no change to ``fa`` moves it.
    """
    worded = [out for out in outcomes if out.census is not None]
    speed = oracle_s / sum(out.census.configs for out in worded)
    scale = REFERENCE_S_PER_CONFIG[wl.name] / speed if wl.name in REFERENCE_S_PER_CONFIG else 1.0
    samples = defaultdict(list)
    for out in outcomes:
        for action, seconds in out.times.items():
            samples[action].append(seconds)
        if "graph" in out.times:
            samples[f"graph_{out.census.verdict}"].append(out.times["graph"])
    m = {"setup_s": (p50(setup) * scale, len(setup))}
    for action in ("decide", "trace", "graph"):
        xs = samples[action]
        m[f"{action}_s.p50"] = (p50(xs) * scale, len(xs))
        m[f"{action}_s.p90"] = (p90(xs) * scale, len(xs))
    for verdict in (oracle.ACCEPT, oracle.REJECT):
        xs = samples[f"graph_{verdict}"]
        m[f"graph_{verdict}_s.p50"] = (p50(xs) * scale, len(xs))
    xs = samples["request"]
    m["cli_s.p50"] = (p50(xs) * scale, len(xs))
    m["cli_s.p90"] = (p90(xs) * scale, len(xs))
    m["ops_per_s"] = (len(outcomes) / busy / scale, len(outcomes))
    # the workload process: the fa processes for cli_batch, this one otherwise
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_batch" else resource.RUSAGE_SELF
    m["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, 1)  # ru_maxrss is KiB on Linux
    m["fail_ratio"] = (tally.failed / tally.attempted, tally.attempted)
    m["host.oracle_us_per_config"] = (speed * 1e6, len(worded))
    return m


# ---- the traced run -------------------------------------------------------------


def load_pass(fa, wl, docs, tr: Tracer) -> None:
    """Load every machine from its text, build it from its fields, and draw it."""
    with tr.span("setup.load") as root:
        for mach, doc in zip(wl.machines, docs):
            m = tr.call("cli.parse_machine_text", None, root, fa.parse_machine_text, mach.text)
            make = fa.make_dfa if doc["kind"] == "dfa" else fa.make_ndfa
            fields = (doc["states"], doc["sigma"], doc["start"], doc["finals"], doc["rules"])
            tr.call(f"machines.make_{doc['kind']}", None, root, make, *fields)
            tr.call("dot.machine_to_dot", None, root, fa.machine_to_dot, m)


def replay(fa, machines, req, tr: Tracer, parent) -> None:
    """The library calls one cli_batch process made, repeated in process under spans."""
    m, rid = machines[req.machine], req.id
    if req.command == "apply":
        tr.call("execution.check_word", rid, parent, fa.check_word, m, req.word)
        tr.call("execution.apply", rid, parent, fa.apply, m, req.word)
    elif req.command == "trace":
        tr.call("execution.show_transitions", rid, parent, fa.show_transitions, m, req.word)
    elif req.command == "compgraph":
        graph_calls(fa, m, req, tr, parent)


def traced(fa, wl, machines, seconds, tally: Tally, cli: Cli):
    """Each request untraced and then under spans, with baseline processes
    between requests, then side measurements.

    Running the two back to back keeps their ratio, the tracing overhead,
    clear of drifts in machine speed over the run.
    """
    tr = Tracer()
    library = Library(fa, wl, machines)
    plain_busy = 0.0

    def one(req, c):
        nonlocal plain_busy
        if wl.name == "cli_batch":
            first = cli.request(req, c)
            with tr.span("request", req.id) as root:
                out = cli.request(req, c)
                if not out.error:
                    replay(fa, machines, req, tr, root)
        else:
            first = library.request(req, c)
            out = library.request(req, c, tr)
        plain_busy += first.times.get("request", DEADLINE_S)
        return out._replace(error=first.error or out.error)

    # fa processes against a bare interpreter and one that only imports fa;
    # cli_batch times its own fa processes, the library workloads sample some
    bare, imported, processes = [], [], []
    samples = [r._replace(command="compgraph") for r in next(iter(wl.rounds)) if r.word]

    def baselines():
        bare.append(python_process(BASELINE_PROCESSES["bare_interpreter"])[1])
        imported.append(python_process(BASELINE_PROCESSES["import_fa"])[1])
        if wl.name != "cli_batch":
            req = samples[len(bare) % len(samples)]
            out = cli.request(req, census_for(wl, req))
            tally.add(out.error, f"sample process {req.id}")
            processes.append(out.times.get("request", DEADLINE_S))

    spaced = Spaced(baselines, PROC_SAMPLES, seconds / 2)
    outcomes, busy, _ = run_rounds(wl, one, tally, seconds / 2, spaced.due)
    spaced.finish()
    overhead = busy / plain_busy
    if wl.name == "cli_batch":
        processes = [out.times.get("request", DEADLINE_S) for out in outcomes]

    docs = [json.loads(mach.text) for mach in wl.machines]
    for _ in range(LOAD_PASSES):
        load_pass(fa, wl, docs, tr)

    peaks = []
    for out in [o for o in outcomes if o.census is not None][:ALLOC_SAMPLES]:
        tracemalloc.start()
        try:
            fa.build_computation_graph(machines[out.request.machine], out.request.word)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1024)
        finally:
            tracemalloc.stop()
    return per_layer(tr, outcomes, overhead, bare, imported, processes, peaks), tr


def loglog_slope(points) -> float:
    """Least-squares slope of log t against log n, over words of two or more symbols."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n >= 2 and t > 0]
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def _per_config(spans, census) -> float:
    return 1e6 * sum(s.seconds for s in spans) / sum(census[s.request].configs for s in spans)


def per_layer(tr, outcomes, overhead, bare, imported, processes, peaks) -> dict:
    """name -> (value, sample count), from a traced run.

    A layer's share is its busy time over the wall time of the phase it
    runs in: requests for request layers, the loading passes for load
    layers, and the median fa process for the process layers.
    """
    spans = tr.by_name()
    census = {out.request.id: out.census for out in outcomes}
    word = {out.request.id: out.request.word for out in outcomes}
    request_wall = sum(out.times.get("request", 0.0) for out in outcomes)
    load_wall = sum(s.seconds for s in spans["setup.load"])
    m = {}

    def layer(name, picked, wall):
        secs = [s.seconds for s in picked]
        m[f"{name}.p50"] = (p50(secs), len(secs))
        m[f"{name}.share"] = (sum(secs) / wall, len(secs))

    builds = spans["compgraph.build"]
    split = {v: [s for s in builds if census[s.request].verdict == v] for v in (oracle.ACCEPT, oracle.REJECT)}
    layer("compgraph.build_accept_s", split[oracle.ACCEPT], request_wall)
    layer("compgraph.build_reject_s", split[oracle.REJECT], request_wall)
    for name in REQUEST_LAYERS[2:]:
        layer(name, spans[name.removesuffix("_s")], request_wall)
    for name in LOAD_LAYERS:
        layer(name, spans[name.removesuffix("_s")], load_wall)

    med_bare, med_imp, med_cli = p50(bare), p50(imported), p50(processes)
    for name, value, n in (
        ("cli.interp_startup_s", med_bare, len(bare)),
        ("cli.import_fa_s", med_imp - med_bare, len(imported)),
        ("cli.command_s", med_cli - med_imp, len(processes)),
    ):
        m[f"{name}.p50"] = (value, n)
        m[f"{name}.share"] = (value / med_cli, n)

    applies = spans["execution.apply"]
    rejected_applies = [s for s in applies if census[s.request].verdict == oracle.REJECT]
    m["compgraph.build.n_exponent"] = (loglog_slope((len(word[s.request]), s.seconds) for s in builds), len(builds))
    m["compgraph.build_reject.us_per_config"] = (
        _per_config(split[oracle.REJECT], census), len(split[oracle.REJECT]))
    m["execution.apply.n_exponent"] = (loglog_slope((len(word[s.request]), s.seconds) for s in applies), len(applies))
    m["execution.apply_reject.us_per_config"] = (_per_config(rejected_applies, census), len(rejected_applies))

    worded = [out for out in outcomes if out.census is not None]
    m["work.configs"] = (statistics.fmean(o.census.configs for o in worded), len(worded))
    m["work.word_len"] = (statistics.fmean(len(o.request.word) for o in worded), len(worded))
    sizes = list(tr.sizes.values())
    m["compgraph.edges.mean"] = (statistics.fmean(e for e, _ in sizes), len(sizes))
    m["dot.bytes.mean"] = (statistics.fmean(b for _, b in sizes), len(sizes))
    m["compgraph.build.alloc_peak_kib"] = (max(peaks), len(peaks))
    m["trace.overhead_ratio"] = (overhead, len(outcomes))
    return m


# ---- entry point ------------------------------------------------------------------


def provenance(fields: dict, wall: float) -> dict:
    """``fields`` plus the commit (when run inside git), python version, core count and wall time."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {**fields, "commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "run_wall_s": wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/fa/__init__.py", *workloads.SHIPPED) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a fa source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fa

    started = time.perf_counter()
    signal.signal(signal.SIGALRM, on_alarm)
    wl = workloads.make(args.workload, args.seed, ROOT)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="machines-", dir=OUT))
    try:
        cli = Cli(wl, workdir)
        if args.trace:
            machines = load_machines(fa, wl, tally)
            metrics, tr = traced(fa, wl, machines, args.seconds, tally, cli)
            tr.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            report = PER_LAYER
        else:
            texts = "\0".join(mach.text for mach in wl.machines)
            setup_process(texts, tally)  # warm-up: fills the bytecode cache
            setup = []
            spaced = Spaced(lambda: setup.append(setup_process(texts, tally)), SETUP_SAMPLES, args.seconds)
            machines = load_machines(fa, wl, tally)
            run_one = cli.request if wl.name == "cli_batch" else Library(fa, wl, machines).request
            outcomes, busy, oracle_s = run_rounds(wl, run_one, tally, args.seconds, spaced.due)
            spaced.finish()
            setup = [x for x in setup if x is not None]
            metrics = end_to_end(wl, outcomes, busy, oracle_s, setup, tally)
            report = {**END_TO_END, **REPORT_ONLY}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, unit in report.items():
        value, n = metrics[name]
        print(f"{args.workload:12} {name:40} {value:14.6g} {unit:8} n={n}")
    for error in tally.errors:
        print(f"FAILED {error}")
    wall = time.perf_counter() - started
    print(json.dumps({
        "provenance": provenance(vars(args), wall),
        "samples": {name: n for name, (_, n) in metrics.items()},
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }))
    gated = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
