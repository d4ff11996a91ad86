"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import random
import time
from contextlib import contextmanager

from fa import (
    ACCEPT,
    EMP,
    REJECT,
    Config,
    Rule,
    apply,
    build_computation_graph,
    cgraph_to_dot,
    machine_to_dot,
    make_dfa,
    make_ndfa,
    show_transitions,
)
from helpers import computation_census, parse_dot, random_ndfa, random_word

SEED = 20250809
POPULATION = 10_000
WORDS_PER_MACHINE = 2


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL: {name}")
        raise
    print(f"PASS: {name}")


def population(seed=SEED, size=POPULATION, words=WORDS_PER_MACHINE):
    rng = random.Random(seed)
    for _ in range(size):
        machine = random_ndfa(rng)
        for _ in range(words):
            yield machine, random_word(rng, machine)


def test_criterion_1_golden_reject_graph(two_branch):
    with criterion("1. golden reject graph on 'a b b a b b'"):
        started = time.perf_counter()
        cg = build_computation_graph(two_branch, "abbabb")
        elapsed = time.perf_counter() - started
        assert cg.verdict == REJECT
        assert cg.highlighted == {"G", "ds"}
        dead_edges = sorted(e[:3] for e in cg.edges if e.to_dead)
        assert dead_edges == [("C", "b", "ds"), ("D", "b", "ds"), ("S", "b", "ds")]
        rules = {tuple(r) for r in two_branch.rules}
        assert {e[:3] for e in cg.edges if not e.to_dead} <= rules
        assert elapsed < 1.0


def accepting_paths(edge_triples, start, finals, word):
    """Every run over just these triples that consumes the word into a final state."""
    found = []

    def walk(state, suffix, path, on_path):
        if not suffix and state in finals:
            found.append(tuple(path))
        for src, read, dst in edge_triples:
            if src != state:
                continue
            if read == EMP:
                succ = (dst, suffix)
            elif suffix and read == suffix[0]:
                succ = (dst, suffix[1:])
            else:
                continue
            if succ in on_path:
                continue
            walk(dst, succ[1], path + [(src, read, dst)], on_path | {succ})

    w = tuple(word)
    walk(start, w, [], frozenset({(start, w)}))
    return found


def test_criterion_2_golden_accept_graph(two_branch):
    with criterion("2. golden accept graph on 'a b a a b a'"):
        started = time.perf_counter()
        cg = build_computation_graph(two_branch, "abaaba")
        elapsed = time.perf_counter() - started
        assert cg.verdict == ACCEPT
        assert cg.highlighted == {"S"}
        assert not any(e.to_dead for e in cg.edges)
        triples = {e[:3] for e in cg.edges}
        paths = accepting_paths(triples, "S", {"S"}, "abaaba")
        assert len(paths) == 1
        assert set(paths[0]) == triples
        assert elapsed < 1.0


def test_criterion_3_golden_test_suites(two_branch, abstar):
    with criterion("3. golden accept/reject suites and traces"):
        started = time.perf_counter()
        assert apply(two_branch, "bb") == REJECT
        assert apply(two_branch, "abaabb") == REJECT
        assert apply(two_branch, "") == ACCEPT
        assert apply(two_branch, "abaab") == ACCEPT
        assert apply(two_branch, "abaaba") == ACCEPT
        assert apply(abstar, "") == REJECT
        assert apply(abstar, "b") == REJECT
        assert apply(abstar, "a") == ACCEPT
        assert apply(abstar, "abb") == ACCEPT
        accept_trace = show_transitions(abstar, "ab")
        assert accept_trace.steps == (
            Config("S", ("a", "b")),
            Config("F", ("b",)),
            Config("F", ()),
        )
        assert accept_trace.verdict == ACCEPT
        reject_trace = show_transitions(abstar, "baa")
        assert reject_trace.steps == (
            Config("S", ("b", "a", "a")),
            Config("ds", ("a", "a")),
            Config("ds", ("a",)),
            Config("ds", ()),
        )
        assert reject_trace.verdict == REJECT
        assert time.perf_counter() - started < 1.0


def test_criterion_4_verdict_agreement_over_random_population():
    with criterion(f"4. verdict agreement over {POPULATION} random ndfas"):
        started = time.perf_counter()
        for machine, word in population():
            cg = build_computation_graph(machine, word)
            assert cg.verdict == apply(machine, word)
            assert (cg.verdict == ACCEPT) == bool(cg.highlighted & set(machine.finals))
        assert time.perf_counter() - started < 60.0


def test_criterion_5_brute_force_oracle_on_rejects():
    with criterion("5. brute-force oracle equivalence on rejected words"):
        started = time.perf_counter()
        checked = 0
        for machine, word in population():
            cg = build_computation_graph(machine, word)
            if cg.verdict == ACCEPT:
                continue
            checked += 1
            end_states, used_rules, stuck = computation_census(machine, word)
            assert cg.highlighted - {cg.dead} == end_states
            assert {e[:3] for e in cg.edges if not e.to_dead} == used_rules
            assert {(e.src, e.read) for e in cg.edges if e.to_dead} == stuck
        assert checked > POPULATION // 2
        assert time.perf_counter() - started < 120.0


def test_criterion_6_subgraph_property():
    with criterion("6. every graph is a subgraph of its machine (modulo ds)"):
        for machine, word in population():
            cg = build_computation_graph(machine, word)
            rules = {tuple(r) for r in machine.rules}
            assert {e[:3] for e in cg.edges if not e.to_dead} <= rules
            machine_nodes, machine_edges = parse_dot(machine_to_dot(machine))
            _, cg_edges = parse_dot(cgraph_to_dot(cg))
            for (src, dst), (labels, dashed) in cg_edges.items():
                if dashed:
                    continue
                assert src in machine_nodes and dst in machine_nodes
                assert labels <= machine_edges[src, dst][0]


def test_criterion_7_emp_cycle_termination():
    with criterion("7. graphs for EMP-cycle machines finish within 100 ms per word"):
        machine = make_ndfa(
            ["P", "Q"], ["a"], "P", [], [("P", EMP, "Q"), ("Q", EMP, "P")]
        )
        threaded = make_ndfa(
            ["P", "Q"], ["a"], "P", ["P"], [("P", EMP, "Q"), ("Q", EMP, "P"), ("Q", "a", "Q")]
        )
        for m in (machine, threaded):
            for length in range(11):
                word = "a" * length
                started = time.perf_counter()
                cg = build_computation_graph(m, word)
                verdict = apply(m, word)
                assert time.perf_counter() - started < 0.1
                assert cg.verdict == verdict


def test_criterion_8_dfa_completion():
    with criterion("8. dead-state completion turns ab* into a total function"):
        machine = make_dfa(["S", "F"], ["a", "b"], "S", ["F"], [("S", "a", "F"), ("F", "b", "F")])
        assert machine.states == ("S", "F", "ds")
        by_pair = {(r.src, r.read): r.dst for r in machine.rules}
        assert sorted(by_pair) == sorted((q, s) for q in machine.states for s in machine.sigma)
        assert len(machine.rules) == len(by_pair)  # exactly one rule per pair
        assert set(machine.rules) == {
            Rule("S", "a", "F"),
            Rule("F", "b", "F"),
            Rule("S", "b", "ds"),
            Rule("F", "a", "ds"),
            Rule("ds", "a", "ds"),
            Rule("ds", "b", "ds"),
        }
        trace = show_transitions(machine, "baa")
        assert [c.state for c in trace.steps] == ["S", "ds", "ds", "ds"]
        assert trace.verdict == REJECT
