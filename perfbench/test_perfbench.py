"""Tests for the benchmark itself: the oracle, the workload generator, the result line.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import oracle
import pytest
import run
import workloads

from fa import (
    EMP,
    apply,
    build_computation_graph,
    cgraph_summary,
    cgraph_to_dot,
    machine_to_dot,
    parse_machine_text,
    show_transitions,
)

ROOT = Path(__file__).resolve().parent.parent


def graph_of(cg):
    return oracle.Graph(
        cg.verdict,
        frozenset((e.src, e.read, e.dst, e.to_dead) for e in cg.edges),
        cg.highlighted,
        cg.dead,
    )


def steps_of(trace):
    return None if trace is None else [(c.state, c.unconsumed) for c in trace.steps]


def population(seed=20251017, size=300):
    """Small random machines of both kinds, each with a few words, as (spec, machine, word)."""
    rng = random.Random(seed)
    for k in range(size):
        n = rng.randint(1, 6)
        if k % 3 == 0:
            doc = workloads.random_dfa_doc(rng, n, complete=rng.random() < 0.5)
        else:
            doc = workloads.random_ndfa_doc(rng, n, rules_per_state=rng.randint(0, 3),
                                            emp_share=0.3, sigma="ab", final_share=0.4)
        text = json.dumps(doc)
        spec, machine = oracle.spec_from_doc(doc), parse_machine_text(text)
        for _ in range(3):
            word = tuple(rng.choice("ab"[: len(spec.sigma)]) for _ in range(rng.randint(0, 7)))
            yield spec, machine, word


def test_oracle_agrees_with_fa_on_a_seeded_population():
    verdicts = set()
    for spec, machine, word in population():
        loaded = (machine.kind, machine.states, machine.sigma, machine.start, machine.finals,
                  tuple(tuple(r) for r in machine.rules))
        assert loaded == tuple(spec)
        c = oracle.census(spec, word)
        cg = build_computation_graph(machine, word)
        g = graph_of(cg)
        trace = show_transitions(machine, word)
        steps = steps_of(trace)
        assert oracle.check_verdict(c, apply(machine, word)) is None
        assert oracle.check_graph(spec, word, c, g, steps) is None, (spec, word)
        assert oracle.check_dot(spec, g, cgraph_to_dot(cg)) is None
        assert oracle.check_summary(g, cgraph_summary(cg)) is None
        assert oracle.check_trace(spec, word, c, steps, trace and trace.verdict) is None
        assert oracle.check_machine_dot(spec, machine_to_dot(machine)) is None
        verdicts.add(c.verdict)
    assert verdicts == {oracle.ACCEPT, oracle.REJECT}


TWO_BRANCH = (ROOT / "machines/demo-ndfa.json").read_text()


@pytest.fixture
def two_branch():
    spec = oracle.spec_from_doc(json.loads(TWO_BRANCH))
    return spec, parse_machine_text(TWO_BRANCH)


def test_oracle_flags_a_wrong_verdict(two_branch):
    spec, machine = two_branch
    c = oracle.census(spec, "abbabb")
    assert oracle.check_verdict(c, oracle.REJECT) is None
    assert oracle.check_verdict(c, oracle.ACCEPT)


@pytest.mark.parametrize("word", ["abbabb", "abaaba", ""])
def test_oracle_flags_a_wrong_graph(two_branch, word):
    spec, machine = two_branch
    c = oracle.census(spec, word)
    g = graph_of(build_computation_graph(machine, word))
    traced_run = steps_of(show_transitions(machine, word))
    assert oracle.check_graph(spec, word, c, g, traced_run) is None
    unused = next((r + (False,) for r in spec.rules if r + (False,) not in g.edges), ("S", "b", "S", False))
    wrong = [
        g._replace(edges=g.edges | {unused}),  # an edge no run takes here
        g._replace(edges=g.edges | {("S", "b", "ds", True)}) if c.verdict == oracle.ACCEPT
        else g._replace(edges=g.edges - {e for e in g.edges if e[3]}),  # dead edges wrong
        g._replace(highlighted=g.highlighted | {"A"}),
        g._replace(verdict=oracle.REJECT if c.verdict == oracle.ACCEPT else oracle.ACCEPT),
    ]
    for bad in wrong:
        assert oracle.check_graph(spec, word, c, bad, traced_run), bad


def test_oracle_flags_a_wrong_dot_and_summary(two_branch):
    spec, machine = two_branch
    cg = build_computation_graph(machine, "abbabb")
    g, dot = graph_of(cg), cgraph_to_dot(cg)
    assert oracle.check_dot(spec, g, dot.replace(", style=dashed", "", 1))
    assert oracle.check_dot(spec, g, dot.replace("fillcolor=crimson", "fillcolor=white", 1))
    assert oracle.check_summary(g, cgraph_summary(cg).replace("edges: 8", "edges: 7"))


def test_oracle_flags_a_wrong_trace(two_branch):
    spec, machine = two_branch
    word = tuple("abaaba")
    c = oracle.census(spec, word)
    steps = steps_of(show_transitions(machine, word))
    assert oracle.check_trace(spec, word, c, steps, oracle.ACCEPT) is None
    assert oracle.check_trace(spec, word, c, steps[:-1], oracle.ACCEPT)  # stops short
    assert oracle.check_trace(spec, word, c, [steps[0], *steps], oracle.ACCEPT)  # stutters
    assert oracle.check_trace(spec, word, c, None, None)  # accepted word without a trace
    rejected = tuple("abbabb")
    assert oracle.check_trace(spec, rejected, oracle.census(spec, rejected), steps, oracle.ACCEPT)


def test_oracle_dfa_trace_is_the_unique_run():
    doc = json.loads((ROOT / "machines/abstar.json").read_text())
    spec = oracle.spec_from_doc(doc)
    assert spec.states == ("S", "F", "ds")
    word = tuple("baa")
    c = oracle.census(spec, word)
    good = [("S", word), ("ds", word[1:]), ("ds", word[2:]), ("ds", ())]
    assert oracle.check_trace(spec, word, c, good, oracle.REJECT) is None
    assert oracle.check_trace(spec, word, c, good, oracle.ACCEPT)
    assert oracle.check_trace(spec, word, c, good[:1] + [("F", word[1:])] + good[2:], oracle.REJECT)


def test_oracle_stays_cheap_on_long_words():
    rules = (("P", EMP, "Q"), ("Q", "a", "P"), ("Q", EMP, "P"))
    spec = oracle.Spec("ndfa", ("P", "Q"), ("a",), "P", ("P",), rules)
    c = oracle.census(spec, "a" * 100_000)
    assert c.verdict == oracle.ACCEPT and c.configs == 200_002


def test_cli_output_checks():
    spec = oracle.spec_from_doc(json.loads(TWO_BRANCH))
    c = oracle.census(spec, "ab")
    assert oracle.check_cli(spec, "apply", "ab", c, 0, "accept\n") is None
    assert oracle.check_cli(spec, "apply", "ab", c, 1, "accept\n")
    assert oracle.check_cli(spec, "validate", (), None, 0, "ok: ndfa with 8 states, 2 symbols, 10 rules\n") is None
    assert oracle.check_cli(spec, "validate", (), None, 0, "ok: ndfa with 8 states, 2 symbols, 9 rules\n")


def rounds(name, seed, k=2):
    return list(itertools.islice(workloads.make(name, seed, ROOT).rounds, k))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workloads_are_fixed_by_the_seed(name):
    a, b = workloads.make(name, 3, ROOT), workloads.make(name, 3, ROOT)
    assert a.machines == b.machines
    assert rounds(name, 3) == rounds(name, 3)
    assert rounds(name, 3) != rounds(name, 4)
    # a later pass over the same workload sees the same requests
    assert list(itertools.islice(a.rounds, 2)) == list(itertools.islice(a.rounds, 2))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_verdicts_match_the_oracle(name):
    wl = workloads.make(name, 5, ROOT)
    for req in itertools.chain.from_iterable(itertools.islice(wl.rounds, 2)):
        if req.accept is not None:
            assert oracle.accepts(wl.machines[req.machine].spec, req.word) == req.accept


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_unreadable_output_counts_as_failed():
    assert run.checked(lambda steps: steps[-1], []).startswith("unreadable output: IndexError")
    assert run.checked(lambda steps: None, []) is None


def test_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_batch", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_word", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
