import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fa import (
    ACCEPT,
    EMP,
    REJECT,
    CGEdge,
    Config,
    apply,
    build_computation_graph,
    make_ndfa,
    show_transitions,
)
from fa.execution import computation_tree_to_cg_edges, edges_for_configuration, next_configurations
from helpers import (
    computation_census,
    count_calls,
    dfa_with_word,
    ndfa_with_word,
    regex_ndfa_with_word,
)


def dead_edge(src, read, dst="ds"):
    return CGEdge(src, read, dst, to_dead=True)


FIG_REJECT_WORD = "abbabb"
FIG_ACCEPT_WORD = "abaaba"


class TestEdgesForConfiguration:
    def test_long_suffix_gives_regular_edges(self, two_branch):
        got = edges_for_configuration(two_branch, Config("C", tuple("abb")), "ds")
        assert got == [CGEdge("C", "a", "E")]

    def test_only_emp_rules_get_dead_edge_prepended(self, two_branch):
        got = edges_for_configuration(two_branch, Config("D", ("b",)), "ds")
        assert got == [dead_edge("D", "b"), CGEdge("D", EMP, "S")]

    def test_empty_suffix_yields_special_emp_edges_only(self):
        m = make_ndfa(["Q", "R"], ["a"], "Q", [], [("Q", EMP, "R")])
        assert edges_for_configuration(m, Config("Q", ()), "ds") == [CGEdge("Q", EMP, "R")]
        assert edges_for_configuration(m, Config("R", ()), "ds") == []
        # runs end where these edges lead, so the graph highlights both states
        assert build_computation_graph(m, "").highlighted == {"Q", "R"}

    def test_no_applicable_rules_gives_just_the_dead_edge(self, two_branch):
        got = edges_for_configuration(two_branch, Config("S", tuple("babb")), "ds")
        assert got == [dead_edge("S", "b")]

    def test_single_symbol_left_consuming_edges_are_special(self, two_branch):
        got = edges_for_configuration(two_branch, Config("F", ("b",)), "ds")
        assert got == [CGEdge("F", "b", "G")]
        # the run that reads the last b along this edge ends in G
        assert build_computation_graph(two_branch, "abb").highlighted == {"G", "ds"}


class TestNextConfigurations:
    def test_successors_follow_edges(self, two_branch):
        word = tuple(FIG_REJECT_WORD)
        frontier = [Config("S", word)]
        edges = edges_for_configuration(two_branch, frontier[0], "ds")
        assert next_configurations(edges, frontier, []) == [
            Config("A", word[1:]),
            Config("B", word[1:]),
        ]

    def test_emp_edge_keeps_suffix(self):
        assert next_configurations([CGEdge("Q", EMP, "R")], [Config("Q", ())], []) == [
            Config("R", ())
        ]

    def test_fully_visited_successors_contribute_nothing(self):
        edges = [CGEdge("Q", EMP, "R")]
        frontier = [Config("Q", ("a",))]
        assert next_configurations(edges, frontier, [Config("R", ("a",))]) == []

    def test_dead_targets_are_not_explored(self):
        edges = [dead_edge("Q", "a")]
        assert next_configurations(edges, [Config("Q", ("a",))], []) == []


class TestComputationTree:
    def test_first_level_contains_consuming_edge(self):
        m = make_ndfa(["S", "F"], ["a", "b"], "S", ["F"], [("S", "a", "F"), ("F", "b", "F")])
        got = computation_tree_to_cg_edges(m, [Config("S", ("a", "b"))], [])
        assert CGEdge("S", "a", "F") in got

    def test_empty_suffix_without_emp_rules_yields_nothing(self):
        m = make_ndfa(["Q"], ["a"], "Q", [], [])
        assert computation_tree_to_cg_edges(m, [Config("Q", ())], []) == []

    def test_emp_self_loop_stops_after_revisit(self):
        m = make_ndfa(["Q"], ["a"], "Q", [], [("Q", EMP, "Q")])
        got = computation_tree_to_cg_edges(m, [Config("Q", ("a",))], [])
        assert dead_edge("Q", "a") in got
        assert CGEdge("Q", EMP, "Q") in got
        # one revisit of (Q, "a") happens before the guard kicks in
        assert got == [dead_edge("Q", "a"), CGEdge("Q", EMP, "Q")] * 2


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
        names = ["check_word", "accepting_run", "computation_tree_to_cg_edges", "_end_mask"]
        calls = count_calls(monkeypatch, [*names, "_walk"])
        for word, searches, traversals in ((FIG_ACCEPT_WORD, 1, 0), (FIG_REJECT_WORD, 0, 1)):
            calls.update(dict.fromkeys(calls, 0))
            build_computation_graph(two_branch, word)
            assert calls == {
                "check_word": 1,
                "accepting_run": searches,
                "computation_tree_to_cg_edges": traversals,
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
        names = ["check_word", "_walk", "_search", "computation_tree_to_cg_edges"]
        calls = count_calls(monkeypatch, names)
        assert apply(machine, word) == verdict
        show_transitions(machine, word)
        assert build_computation_graph(machine, word).verdict == verdict
        assert calls == {
            "check_word": 3,
            "_walk": 1,
            "_search": searches,
            "computation_tree_to_cg_edges": traversals,
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
    assert {e.triple for e in cg.edges if not e.to_dead} == used_rules
    assert {(e.src, e.read) for e in cg.edges if e.to_dead} == stuck


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
    assert {e.triple for e in cg.edges} == used


@given(ndfa_with_word())
def test_non_dead_edges_are_machine_rules(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    rules = {tuple(r) for r in machine.rules}
    assert {e.triple for e in cg.edges if not e.to_dead} <= rules
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
    used = {e.triple for e in cg.edges if not e.to_dead}
    expected = [e.triple for e in dead] + [tuple(r) for r in machine.rules if r in used]
    assert [e.triple for e in cg.edges] == expected


@given(ndfa_with_word())
def test_edge_triples_are_unique(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    triples = [e.triple for e in cg.edges]
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
        assert {e.triple for e in cg.edges if e.to_dead} == {("P", "a", "ds"), ("Q", "a", "ds")}
    else:
        assert cg.highlighted == {"P", "Q"}
