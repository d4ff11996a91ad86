import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fa.execution
from fa import (
    ACCEPT,
    EMP,
    REJECT,
    Config,
    Machine,
    Rule,
    ValidationError,
    WordError,
    apply,
    build_computation_graph,
    make_ndfa,
    show_transitions,
)
from fa.execution import accepting_run
from helpers import (
    brute_force_accepts,
    dfa_with_word,
    first_accepting_run,
    ndfa_with_word,
    regex_ndfa_with_word,
)


def assert_valid_trace(machine, word, trace):
    assert trace.steps[0] == Config(machine.start, tuple(word))
    rules = {tuple(r) for r in machine.rules}
    for (p, u), (q, v) in zip(trace.steps, trace.steps[1:]):
        if u == v:
            assert (p, EMP, q) in rules
        else:
            assert u and v == u[1:] and (p, u[0], q) in rules
    if trace.verdict == ACCEPT:
        assert not trace.steps[-1].unconsumed
        assert trace.steps[-1].state in machine.finals


class TestApply:
    @pytest.mark.parametrize(
        "word,expected",
        [("", REJECT), ("b", REJECT), ("a", ACCEPT), ("abb", ACCEPT)],
    )
    def test_abstar(self, abstar, word, expected):
        assert apply(abstar, word) == expected

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("bb", REJECT),
            ("abaabb", REJECT),
            ("", ACCEPT),
            ("abaab", ACCEPT),
            ("abaaba", ACCEPT),
        ],
    )
    def test_two_branch(self, two_branch, word, expected):
        assert apply(two_branch, word) == expected

    def test_no_rule_machine_accepts_only_the_empty_word(self):
        m = make_ndfa(["S"], ["a"], "S", ["S"], [])
        assert apply(m, "") == ACCEPT
        assert apply(m, "a") == REJECT

    def test_word_symbol_outside_alphabet(self, abstar):
        with pytest.raises(WordError) as info:
            apply(abstar, "az")
        assert info.value.code == "symbol-not-in-sigma"
        assert str(info.value) == "word symbol 'z' is not in the machine's alphabet"

    @pytest.mark.parametrize(
        "rules,word,expected",
        [
            ([("S", EMP, "A"), ("A", EMP, "F")], "", ACCEPT),
            ([("S", "a", "A"), ("A", EMP, "B"), ("B", EMP, "C"), ("C", EMP, "F")], "a", ACCEPT),
            (
                [("S", EMP, "A"), ("A", EMP, "B"), ("B", EMP, "C"), ("C", EMP, "D"), ("D", "a", "F")],
                "a",
                ACCEPT,
            ),
            # the chain runs around a cycle back past the state it entered by
            (
                [("S", "a", "B"), ("A", EMP, "B"), ("B", EMP, "C"), ("C", EMP, "A"), ("A", "a", "F")],
                "aa",
                ACCEPT,
            ),
            ([("S", EMP, "A"), ("A", EMP, "B"), ("B", EMP, "S"), ("B", "a", "C")], "aa", REJECT),
        ],
    )
    def test_emp_chains_close_transitively(self, rules, word, expected):
        m = make_ndfa(["S", "A", "B", "C", "D", "F"], ["a"], "S", ["F"], rules)
        assert apply(m, word) == expected

    def test_emp_cycle_terminates(self):
        m = make_ndfa(["P", "Q"], ["a"], "P", ["Q"], [("P", EMP, "Q"), ("Q", EMP, "P")])
        assert apply(m, "") == ACCEPT
        assert apply(m, "a") == REJECT


class TestShowTransitions:
    def test_dfa_accepting_trace(self, abstar):
        trace = show_transitions(abstar, "ab")
        assert [(c.state, c.unconsumed) for c in trace.steps] == [
            ("S", ("a", "b")),
            ("F", ("b",)),
            ("F", ()),
        ]
        assert trace.verdict == ACCEPT

    def test_dfa_rejecting_trace_runs_through_dead_state(self, abstar):
        trace = show_transitions(abstar, "baa")
        assert [(c.state, c.unconsumed) for c in trace.steps] == [
            ("S", ("b", "a", "a")),
            ("ds", ("a", "a")),
            ("ds", ("a",)),
            ("ds", ()),
        ]
        assert trace.verdict == REJECT

    def test_directly_built_incomplete_dfa_names_the_missing_pair(self):
        # make_dfa would complete it; a Machine built directly skips that
        m = Machine("dfa", ("S", "T"), ("a", "b"), "S", ("T",), (Rule("S", "a", "T"),))
        assert show_transitions(m, "a").verdict == ACCEPT
        with pytest.raises(ValidationError) as info:
            show_transitions(m, "ab")
        assert info.value.code == "incomplete-dfa"
        assert str(info.value) == "dfa has no transition from T on b"

    @pytest.mark.parametrize(
        "rules,word,message",
        [
            (
                (Rule("S", "a", "T"), Rule("S", "a", "U")),
                "a",
                "more than one transition from S on a",
            ),
            (
                (Rule("S", EMP, "T"),),
                "",
                "EMP transition ('S', 'EMP', 'T') is not allowed in a dfa",
            ),
        ],
    )
    def test_directly_built_nondeterministic_dfa_is_refused(self, rules, word, message):
        # make_dfa would refuse it; apply follows every rule, a dfa trace cannot
        m = Machine("dfa", ("S", "T", "U"), ("a",), "S", ("T",), rules)
        assert apply(m, word) == ACCEPT
        with pytest.raises(ValidationError) as info:
            show_transitions(m, word)
        assert info.value.code == "nondeterministic-rules"
        assert str(info.value) == message

    def test_ndfa_reject_has_no_trace(self, two_branch):
        assert show_transitions(two_branch, "bb") is None

    def test_ndfa_accept_trace_replays(self, two_branch):
        trace = show_transitions(two_branch, "abaaba")
        assert_valid_trace(two_branch, "abaaba", trace)
        # the breadth-first search pins this run down exactly
        assert [c.state for c in trace.steps] == ["S", "A", "C", "E", "S", "A", "C", "E", "S"]

    def test_only_an_accepted_ndfa_word_is_searched(self, two_branch, abstar, monkeypatch):
        # one pass over the state sets decides an ndfa word; a dfa runs its one run
        calls = {"accepting_run": 0, "_state_sets": 0}

        def counting(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(fa.execution, name, counting(name, getattr(fa.execution, name)))
        for machine, word, searches, passes in (
            (two_branch, "abbabb", 0, 1),
            (two_branch, "abaaba", 1, 1),
            (abstar, "abb", 0, 0),
            (abstar, "ba", 0, 0),
        ):
            calls.update(dict.fromkeys(calls, 0))
            show_transitions(machine, word)
            assert calls == {"accepting_run": searches, "_state_sets": passes}


@given(ndfa_with_word(max_states=5))
@settings(max_examples=200)
@example(  # EMP cycles: simple-path enumeration is exponential here, the oracle must not be
    (
        make_ndfa(
            ["S", "A", "B"],
            ["a"],
            "S",
            [],
            [
                ("S", "a", "S"),
                ("S", EMP, "A"),
                ("S", EMP, "B"),
                ("A", "a", "S"),
                ("A", "a", "A"),
                ("A", "a", "B"),
                ("A", EMP, "S"),
                ("B", EMP, "A"),
            ],
        ),
        tuple("aaaaaa"),
    )
)
def test_apply_matches_brute_force(machine_word):
    machine, word = machine_word
    got = apply(machine, word)
    assert (got == ACCEPT) == brute_force_accepts(machine, word)


@given(ndfa_with_word())
def test_accept_iff_trace_exists(machine_word):
    machine, word = machine_word
    trace = show_transitions(machine, word)
    if apply(machine, word) == ACCEPT:
        assert trace is not None and trace.verdict == ACCEPT
        assert_valid_trace(machine, word, trace)
    else:
        assert trace is None


@given(st.one_of(ndfa_with_word(), regex_ndfa_with_word()))
@settings(max_examples=300)
@example(  # an EMP cycle on the way to the final state
    (
        make_ndfa(
            ["S", "A", "B"],
            ["a"],
            "S",
            ["B"],
            [("S", EMP, "A"), ("A", EMP, "S"), ("A", "a", "A"), ("A", EMP, "B"), ("B", EMP, "A")],
        ),
        tuple("aa"),
    )
)
def test_ndfa_trace_and_accepted_graph_follow_the_first_accepting_run(machine_word):
    machine, word = machine_word
    run = first_accepting_run(machine, word)
    trace = show_transitions(machine, word)
    if run is None:
        assert trace is None
        return
    assert list(trace.steps) == run
    steps = {(p, EMP if u == v else u[0], q) for (p, u), (q, v) in zip(run, run[1:])}
    cg = build_computation_graph(machine, word)
    assert {e.triple for e in cg.edges} == steps
    assert cg.highlighted == {run[-1][0]} | ({machine.start} if not word else set())


@given(st.one_of(ndfa_with_word(), dfa_with_word()))
def test_apply_accepts_iff_the_configuration_search_finds_a_run(machine_word):
    machine, word = machine_word
    assert (apply(machine, word) == ACCEPT) == (accepting_run(machine, word) is not None)


class CountingRules(tuple):
    """A rule tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("word", ["abaaba", "abbabb", ""])
def test_accepting_run_reads_the_rule_list_once(two_branch, word):
    # the search groups the rules by source state once, then each pair reads
    # only its state's rules; a scan of every rule per pair iterates once per pair
    rules = CountingRules(two_branch.rules)
    run = accepting_run(two_branch._replace(rules=rules), tuple(word))
    assert (run is not None) == (apply(two_branch, word) == ACCEPT)
    assert rules.iterations == 1


# The configuration search that decided words before needed 92.8 MiB
# (accepted) and 46.4 MiB (rejected) of traced peak on two_branch at n = 3000.
PEAK_LIMIT = 8 * 2**20
# An accepted graph keeps the search's (state, position) pairs, about 37 MiB
# on two_branch at n = 99,999; a suffix per configuration was quadratic.
# A trace is the same run: a Config per step, each holding its own suffix,
# peaked at 511 MiB (two_branch) and 383 MiB (abstar) at n = 10^4.
GRAPH_PEAK_LIMIT = 64 * 2**20


def traced(func, machine, word):
    """``func(machine, word)`` and the tracemalloc peak it reached, in bytes."""
    tracemalloc.start()
    try:
        result = func(machine, word)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def walked_ndfa(seed, length=10**5):
    """A random 300-state ndfa with 1-2 rules per (state, symbol), and an accepted word.

    The word is a seeded walk of ``length`` symbols through the rules, EMP
    rules included; the state the walk ends in is made final.
    """
    rng = random.Random(seed)
    states = [f"Q{i}" for i in range(300)]
    rules = [
        (q, s, rng.choice(states)) for q in states for s in "ab" for _ in range(rng.randint(1, 2))
    ]
    rules += [(q, EMP, rng.choice(states)) for q in states if rng.random() < 0.2]
    leaving = {}
    for rule in rules:
        leaving.setdefault(rule[0], []).append(rule)
    state, word = states[0], []
    while len(word) < length:
        _, read, state = rng.choice(leaving[state])
        if read != EMP:
            word.append(read)
    finals = {state, *rng.sample(states, 20)}
    return make_ndfa(states, ["a", "b"], states[0], sorted(finals), rules), tuple(word)


class TestLongWords:
    @pytest.mark.parametrize("unit,expected", [("aba", ACCEPT), ("abb", REJECT)])
    def test_two_branch_at_a_hundred_thousand_symbols(self, two_branch, unit, expected):
        word = tuple(unit) * 33_333  # 99,999 symbols
        verdict, peak = traced(apply, two_branch, word)
        assert verdict == expected
        assert peak < PEAK_LIMIT

    def test_accepted_graph_at_a_hundred_thousand_symbols(self, two_branch):
        cg, peak = traced(build_computation_graph, two_branch, tuple("aba") * 33_333)
        assert cg.verdict == ACCEPT
        assert cg.edges == build_computation_graph(two_branch, "abaaba").edges
        assert peak < GRAPH_PEAK_LIMIT

    @pytest.mark.parametrize(
        "fixture,unit,count,expected",
        [("two_branch", "aba", 33_333, ACCEPT), ("abstar", "ab", 50_000, REJECT)],
        ids=["ndfa-accept", "dfa-reject"],
    )
    def test_trace_at_a_hundred_thousand_symbols(self, request, fixture, unit, count, expected):
        machine = request.getfixturevalue(fixture)
        word = tuple(unit) * count
        trace, peak = traced(show_transitions, machine, word)
        assert trace.verdict == expected and trace.word == word
        # the run replays rule by rule; its steps would copy |w|²/2 symbols
        assert trace.run[0] == (machine.start, 0) and trace.run[-1][1] == len(word)
        rules = set(machine.rules)
        for (p, i), (q, j) in zip(trace.run, trace.run[1:]):
            read = EMP if i == j else word[i]
            assert j - i in (0, 1) and (p, read, q) in rules
        assert (trace.run[-1][0] in machine.finals) == (expected == ACCEPT)
        assert peak < GRAPH_PEAK_LIMIT

    @pytest.mark.parametrize("last", ["a", "b"])
    def test_state_sets_that_never_repeat(self, last):
        # accepts iff the k-th symbol from the end is a: S_i remembers the last
        # k symbols, so nearly every step meets a state set it has not seen,
        # and only the memo's size limit keeps memory flat
        k = 16
        states = [f"Q{i}" for i in range(k + 1)]
        rules = [("Q0", "a", "Q0"), ("Q0", "b", "Q0"), ("Q0", "a", "Q1")]
        rules += [(states[i], s, states[i + 1]) for i in range(1, k) for s in "ab"]
        machine = make_ndfa(states, ["a", "b"], "Q0", [states[k]], rules)
        rng = random.Random(5)
        word = tuple(rng.choice("ab") for _ in range(30_000 - k)) + (last,) + ("b",) * (k - 1)
        verdict, peak = traced(apply, machine, word)
        assert verdict == (ACCEPT if last == "a" else REJECT)
        assert peak < PEAK_LIMIT

    def test_random_ndfa_with_300_states_at_a_hundred_thousand_symbols(self):
        machine, word = walked_ndfa(seed=3)
        verdict, peak = traced(apply, machine, word)
        assert verdict == ACCEPT
        assert peak < PEAK_LIMIT

    def test_random_ndfa_with_300_states_traced_and_drawn_at_a_thousand_symbols(self):
        # the search visits up to 300 pairs per position, each reading only
        # its own state's rules; a rejected graph here waits for the census
        machine, word = walked_ndfa(seed=3, length=1000)
        trace = show_transitions(machine, word)
        assert trace.verdict == ACCEPT
        assert_valid_trace(machine, word, trace)
        cg, peak = traced(build_computation_graph, machine, word)
        assert cg.verdict == ACCEPT
        steps = trace.steps
        assert {e.triple for e in cg.edges} == {
            (p, EMP if u == v else u[0], q) for (p, u), (q, v) in zip(steps, steps[1:])
        }
        assert peak < GRAPH_PEAK_LIMIT
