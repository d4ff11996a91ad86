import random
from itertools import chain, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fa import (
    ACCEPT,
    EMP,
    REJECT,
    CGEdge,
    apply,
    build_computation_graph,
    make_ndfa,
    show_transitions,
)
from helpers import (
    computation_census,
    count_calls,
    cox_ndfa,
    dfa_with_word,
    ndfa_with_word,
    random_ndfa,
    random_regex,
    random_word,
    regex_ndfa_with_word,
    subset_dfa,
    thompson_ndfa,
)


def dead_edge(src, read, dst="ds"):
    return CGEdge(src, read, dst, to_dead=True)


FIG_REJECT_WORD = "abbabb"
FIG_ACCEPT_WORD = "abaaba"


def dead_pairs(cg):
    return {(e.src, e.read) for e in cg.edges if e.to_dead}


class TestRejectedGraphEdges:
    """The edges each configuration of a rejected word gives, and the
    configurations that follow from them, seen through build_computation_graph."""

    def test_a_state_reading_the_next_symbol_takes_its_rule_and_no_dead_edge(self, two_branch):
        # a run is at C with "abb" left, and C reads that a
        cg = build_computation_graph(two_branch, "ababb")
        assert CGEdge("C", "a", "E") in cg.edges
        assert ("C", "a") not in dead_pairs(cg)

    def test_a_state_with_only_emp_rules_gets_a_dead_edge_and_its_emp_rules(self, two_branch):
        # a run is at D with "b" left, and D only moves on EMP to S, which cannot read b
        cg = build_computation_graph(two_branch, "abb")
        assert dead_edge("D", "b") in cg.edges and CGEdge("D", EMP, "S") in cg.edges
        assert dead_pairs(cg) == {("C", "b"), ("D", "b"), ("S", "b")}
        assert cg.dead == "ds"

    def test_emp_rules_at_the_end_of_the_word_are_edges_and_their_ends_highlighted(self):
        m = make_ndfa(["Q", "R"], ["a"], "Q", [], [("Q", EMP, "R")])
        cg = build_computation_graph(m, "")
        assert cg.edges == (CGEdge("Q", EMP, "R"),)
        assert cg.dead is None
        # runs end where these edges lead, so the graph highlights both states
        assert cg.highlighted == {"Q", "R"}

    def test_a_state_with_no_rule_to_take_gets_just_the_dead_edge(self, two_branch):
        cg = build_computation_graph(two_branch, "babb")
        assert cg.edges == (dead_edge("S", "b"),)
        assert cg.highlighted == {"ds"}

    def test_a_rule_reading_the_last_symbol_leads_to_a_highlighted_end(self, two_branch):
        # a run is at F with "b" left; it reads the last b along (F, b, G) and ends in G
        cg = build_computation_graph(two_branch, "abb")
        assert CGEdge("F", "b", "G") in cg.edges
        assert ("F", "b") not in dead_pairs(cg)
        assert cg.highlighted == {"G", "ds"}

    def test_successors_follow_the_edges(self, two_branch):
        cg = build_computation_graph(two_branch, "a")
        assert cg.edges == (CGEdge("S", "a", "A"), CGEdge("S", "a", "B"))
        assert cg.highlighted == {"A", "B"}
        assert cg.dead is None

    def test_an_emp_edge_keeps_the_suffix(self):
        # R reads the a only if the EMP move from Q left it unread
        m = make_ndfa(["Q", "R"], ["a"], "Q", [], [("Q", EMP, "R"), ("R", "a", "Q")])
        cg = build_computation_graph(m, "a")
        assert cg.edges == (dead_edge("Q", "a"), CGEdge("Q", EMP, "R"), CGEdge("R", "a", "Q"))
        assert cg.highlighted == {"Q", "R", "ds"}

    def test_configurations_seen_before_end_the_traversal(self):
        # the EMP cycle leads back to configurations already seen at every position
        m = make_ndfa(["Q", "R"], ["a"], "Q", [], [("Q", EMP, "R"), ("R", EMP, "Q"), ("R", "a", "R")])
        cg = build_computation_graph(m, "aa")
        assert cg.edges == (
            dead_edge("Q", "a"),
            CGEdge("Q", EMP, "R"),
            CGEdge("R", EMP, "Q"),
            CGEdge("R", "a", "R"),
        )
        assert cg.highlighted == {"Q", "R", "ds"}

    def test_the_dead_state_is_not_explored(self):
        # the dead state takes the rest of the word, so no edge leaves it
        m = make_ndfa(["Q"], ["a", "b"], "Q", [], [])
        cg = build_computation_graph(m, "ab")
        assert cg.edges == (dead_edge("Q", "a"),)
        assert cg.highlighted == {"ds"}

    def test_the_first_consuming_rule_is_an_edge(self):
        m = make_ndfa(["S", "F"], ["a", "b"], "S", ["F"], [("S", "a", "F"), ("F", "b", "F")])
        cg = build_computation_graph(m, "aba")
        assert cg.edges == (dead_edge("F", "a"), CGEdge("S", "a", "F"), CGEdge("F", "b", "F"))
        assert cg.highlighted == {"ds"}

    @pytest.mark.parametrize("word", ["", "aa"])
    def test_emp_self_loop_is_one_edge_and_ends_the_traversal(self, word):
        m = make_ndfa(["Q"], ["a"], "Q", [], [("Q", EMP, "Q")])
        cg = build_computation_graph(m, word)
        if word:
            assert cg.edges == (dead_edge("Q", "a"), CGEdge("Q", EMP, "Q"))
            assert (cg.highlighted, cg.dead) == ({"ds"}, "ds")
        else:
            assert cg.edges == (CGEdge("Q", EMP, "Q"),)
            assert (cg.highlighted, cg.dead) == ({"Q"}, None)


class TestMakeCgEdges:
    """Edge collection and clean-up, seen through build_computation_graph."""

    def test_reject_word_collects_every_computation(self, two_branch):
        got = build_computation_graph(two_branch, FIG_REJECT_WORD).edges
        assert set(got) == {
            CGEdge("S", "a", "A"),
            CGEdge("S", "a", "B"),
            CGEdge("A", "b", "C"),
            CGEdge("B", "b", "D"),
            CGEdge("B", "b", "F"),
            CGEdge("D", EMP, "S"),
            CGEdge("G", "a", "B"),
            CGEdge("F", "b", "G"),
            dead_edge("S", "b"),
            dead_edge("C", "b"),
            dead_edge("D", "b"),
        }
        assert len(got) == len(set(got))

    def test_accept_word_keeps_one_run(self, two_branch):
        got = build_computation_graph(two_branch, FIG_ACCEPT_WORD).edges
        assert set(got) == {
            CGEdge("S", "a", "A"),
            CGEdge("A", "b", "C"),
            CGEdge("C", "a", "E"),
            CGEdge("E", EMP, "S"),
        }

    def test_empty_word_without_emp_rules_from_start(self, two_branch):
        assert build_computation_graph(two_branch, "").edges == ()

    def test_emp_self_loop_word_deduplicates(self):
        m = make_ndfa(["Q"], ["a"], "Q", [], [("Q", EMP, "Q")])
        cg = build_computation_graph(m, "a")
        assert cg.edges == (dead_edge("Q", "a"), CGEdge("Q", EMP, "Q"))
        assert cg.highlighted == {"ds"}


class TestPruneOnAccept:
    """Pruning to one accepting run, seen through build_computation_graph."""

    def test_rejected_word_leaves_edges_alone(self, two_branch):
        cg = build_computation_graph(two_branch, "bb")
        assert cg.verdict == REJECT
        assert cg.edges == (dead_edge("S", "b"),)
        assert cg.highlighted == {"ds"}

    def test_dfa_run_keeps_exactly_word_length_edges(self, abstar):
        cg = build_computation_graph(abstar, "ab")
        assert cg.edges == (CGEdge("S", "a", "F"), CGEdge("F", "b", "F"))
        assert cg.highlighted == {"F"}

    def test_only_the_final_step_stays_special(self, abstar):
        # the run reuses (F, b, F): one edge, and only where the run ends is highlighted
        cg = build_computation_graph(abstar, "abb")
        assert cg.edges == (CGEdge("S", "a", "F"), CGEdge("F", "b", "F"))
        assert cg.highlighted == {"F"}


class TestBuildComputationGraph:
    def test_reject_graph(self, two_branch):
        cg = build_computation_graph(two_branch, FIG_REJECT_WORD)
        assert cg.verdict == REJECT
        assert cg.highlighted == {"G", "ds"}
        assert cg.dead == "ds"

    def test_accept_graph(self, two_branch):
        cg = build_computation_graph(two_branch, FIG_ACCEPT_WORD)
        assert cg.verdict == ACCEPT
        assert cg.highlighted == {"S"}
        assert cg.dead is None

    def test_empty_word_highlights_start(self, two_branch):
        cg = build_computation_graph(two_branch, "")
        assert cg.verdict == ACCEPT
        assert "S" in cg.highlighted

    def test_empty_word_on_no_rule_machine(self):
        m = make_ndfa(["S"], ["a"], "S", [], [])
        cg = build_computation_graph(m, "")
        assert cg.verdict == REJECT
        assert cg.highlighted == {"S"}
        assert cg.edges == ()

    def test_accepted_empty_word_highlights_start_and_run_end(self):
        # the accepting run ends in A, and the empty run ends in S
        m = make_ndfa(["S", "A"], ["a"], "S", ["A"], [("S", EMP, "A")])
        cg = build_computation_graph(m, "")
        assert cg.verdict == ACCEPT
        assert cg.highlighted == {"S", "A"}
        assert cg.edges == (CGEdge("S", EMP, "A"),)

    def test_one_word_check_and_one_search_per_build(self, two_branch, monkeypatch):
        # one pass over the state sets decides; only an accepted word searches for
        # its run, and only a rejected word is traversed
        names = ["check_word", "accepting_run", "_tree_triples", "_end_mask"]
        calls = count_calls(monkeypatch, [*names, "_walk"])
        for word, searches, traversals in ((FIG_ACCEPT_WORD, 1, 0), (FIG_REJECT_WORD, 0, 1)):
            calls.update(dict.fromkeys(calls, 0))
            build_computation_graph(two_branch, word)
            assert calls == {
                "check_word": 1,
                "accepting_run": searches,
                "_tree_triples": traversals,
                "_end_mask": 1,
                "_walk": 1,
            }

    def test_apply_checks_the_word_once_and_runs_no_search(self, two_branch, monkeypatch):
        # apply decides by forward state sets; only traces and graphs search
        calls = count_calls(monkeypatch, ["check_word", "accepting_run"])
        for word, verdict in ((FIG_ACCEPT_WORD, ACCEPT), (FIG_REJECT_WORD, REJECT)):
            calls.update(dict.fromkeys(calls, 0))
            assert apply(two_branch, word) == verdict
            assert calls == {"check_word": 1, "accepting_run": 0}

    @pytest.mark.parametrize(
        "fixture,word,verdict,searches,traversals",
        [
            ("two_branch", FIG_ACCEPT_WORD, ACCEPT, 1, 0),
            ("two_branch", FIG_REJECT_WORD, REJECT, 0, 1),
            ("abstar", "abbb", ACCEPT, 0, 0),  # the dfa's trace is its accepting run
            ("abstar", "ba", REJECT, 0, 1),
        ],
    )
    def test_apply_trace_and_graph_on_one_word_walk_and_search_once(
        self, request, monkeypatch, fixture, word, verdict, searches, traversals
    ):
        # the machine's last word keeps its S_n and accepting run, so the trace
        # and graph that follow apply on the same word walk and search no more
        machine = request.getfixturevalue(fixture)
        names = ["check_word", "_walk", "_search", "_tree_triples"]
        calls = count_calls(monkeypatch, names)
        assert apply(machine, word) == verdict
        show_transitions(machine, word)
        assert build_computation_graph(machine, word).verdict == verdict
        assert calls == {
            "check_word": 3,
            "_walk": 1,
            "_search": searches,
            "_tree_triples": traversals,
        }

    def test_emp_chain_on_empty_word_highlights_chain_ends(self):
        m = make_ndfa(["S", "T", "U"], ["a"], "S", [], [("S", EMP, "T"), ("T", EMP, "U")])
        cg = build_computation_graph(m, "")
        assert cg.highlighted == {"S", "T", "U"}
        assert cg.verdict == REJECT


@given(ndfa_with_word())
@settings(max_examples=300)
def test_verdict_agreement_and_highlight_rule(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    assert cg.verdict == apply(machine, word)
    assert (cg.verdict == ACCEPT) == bool(cg.highlighted & set(machine.finals))


@given(st.one_of(ndfa_with_word(), dfa_with_word(), regex_ndfa_with_word()))
@settings(max_examples=300)
def test_reject_graphs_match_brute_force_census(machine_word):
    machine, word = machine_word
    if apply(machine, word) == ACCEPT:
        return
    cg = build_computation_graph(machine, word)
    end_states, used_rules, stuck = computation_census(machine, word)
    assert cg.highlighted == end_states | ({cg.dead} if stuck else set())
    assert (cg.dead is None) == (not stuck)
    assert {e[:3] for e in cg.edges if not e.to_dead} == used_rules
    assert {(e.src, e.read) for e in cg.edges if e.to_dead} == stuck


def seeded_machines_and_words():
    """Random ndfas, Thompson machines of random regexes, the subset dfas of
    both, two words each, and Cox machines on a^(n-1) and a^(2n+1)."""
    rng = random.Random(20261020)
    ndfas = [random_ndfa(rng) for _ in range(150)]
    ndfas += [thompson_ndfa(random_regex(rng)) for _ in range(150)]
    for ndfa in ndfas:
        for machine in (ndfa, subset_dfa(ndfa)):
            for _ in range(2):
                yield machine, random_word(rng, machine, max_len=8)
    for n in (10, 20):
        for k in (n - 1, 2 * n + 1):
            yield cox_ndfa(n), ("a",) * k


def test_rejected_graphs_match_the_census_on_a_seeded_population():
    kinds = set()
    for machine, word in seeded_machines_and_words():
        if apply(machine, word) == ACCEPT:
            continue
        cg = build_computation_graph(machine, word)
        end_states, used_rules, stuck = computation_census(machine, word)
        names = chain(["ds"], (f"ds{k}" for k in count()))
        name = next(d for d in names if d not in machine.states)
        dead = name if stuck else None
        assert cg.dead == dead
        assert cg.highlighted == end_states | ({dead} if stuck else set())
        assert {e[:3] for e in cg.edges if not e.to_dead} == used_rules
        assert {e[:3] for e in cg.edges if e.to_dead} == {(q, a, name) for q, a in stuck}
        assert len(cg.edges) == len(used_rules) + len(stuck)
        kinds.add((machine.kind, len(machine.states) > 4, len(machine.states) >= 80))
    # dfas past 4 states and the Cox machines (80 and 160 states) were reached
    assert {("dfa", True, False), ("ndfa", True, True)} <= kinds


@given(ndfa_with_word())
def test_accept_graphs_keep_exactly_the_trace(machine_word):
    machine, word = machine_word
    if apply(machine, word) == REJECT:
        return
    cg = build_computation_graph(machine, word)
    trace = show_transitions(machine, word)
    expected = {trace.steps[-1].state}
    if not word:
        expected.add(machine.start)
    assert cg.highlighted == expected
    assert not any(e.to_dead for e in cg.edges)
    used = set()
    for earlier, later in zip(trace.steps, trace.steps[1:]):
        read = EMP if len(earlier.unconsumed) == len(later.unconsumed) else earlier.unconsumed[0]
        used.add((earlier.state, read, later.state))
    assert {e[:3] for e in cg.edges} == used


@given(ndfa_with_word())
def test_non_dead_edges_are_machine_rules(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    rules = {tuple(r) for r in machine.rules}
    assert {e[:3] for e in cg.edges if not e.to_dead} <= rules
    for e in cg.edges:
        if e.to_dead:
            # dead edges consume a real symbol and end in the fresh, highlighted state
            assert e.read != EMP and e.dst == cg.dead and cg.dead in cg.highlighted


@given(st.one_of(ndfa_with_word(), dfa_with_word()))
@settings(max_examples=300)
def test_edges_are_dead_edges_by_src_read_then_rules_in_machine_order(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    dead = sorted((e for e in cg.edges if e.to_dead), key=lambda e: (e.src, e.read))
    used = {e[:3] for e in cg.edges if not e.to_dead}
    expected = [e[:3] for e in dead] + [tuple(r) for r in machine.rules if r in used]
    assert [e[:3] for e in cg.edges] == expected


@given(ndfa_with_word())
def test_edge_triples_are_unique(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    triples = [e[:3] for e in cg.edges]
    assert len(triples) == len(set(triples))


@given(ndfa_with_word())
def test_identical_inputs_build_identical_graphs(machine_word):
    machine, word = machine_word
    assert build_computation_graph(machine, word) == build_computation_graph(machine, word)


@pytest.mark.parametrize("length", range(11))
def test_emp_cycle_graphs_terminate(length):
    m = make_ndfa(["P", "Q"], ["a"], "P", [], [("P", EMP, "Q"), ("Q", EMP, "P")])
    cg = build_computation_graph(m, "a" * length)
    assert cg.verdict == REJECT
    if length:
        assert cg.highlighted == {"ds"}
        assert {e[:3] for e in cg.edges if e.to_dead} == {("P", "a", "ds"), ("Q", "a", "ds")}
    else:
        assert cg.highlighted == {"P", "Q"}
