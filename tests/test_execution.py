import gc
import random
import sys
import threading
import time
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
    check_word,
    make_ndfa,
    show_transitions,
)
from fa.execution import accepting_run, end_states
from helpers import (
    brute_force_accepts,
    computation_census,
    count_calls,
    cox_ndfa,
    dfa_with_word,
    first_accepting_run,
    forward_sets,
    ndfa_with_word,
    random_ndfa,
    random_regex,
    random_word,
    regex_ndfa_with_word,
    sample_word,
    subset_dfa,
    thompson_ndfa,
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


# machines that name a state missing from ("S", "T"): start, rules, code, message
UNKNOWN_STATE = {
    "start": (
        "X",
        (Rule("S", "a", "T"),),
        "start-not-in-states",
        "start state 'X' is not in the state set",
    ),
    "to": (
        "S",
        (Rule("S", "a", "T"), Rule("T", "a", "U")),
        "rule-references-unknown-state",
        "transition ('T', 'a', 'U') mentions an unknown state",
    ),
    "from": (
        "S",
        (Rule("U", "a", "T"), Rule("S", "a", "T")),
        "rule-references-unknown-state",
        "transition ('U', 'a', 'T') mentions an unknown state",
    ),
    "emp-to": (
        "S",
        (Rule("S", "a", "T"), Rule("T", EMP, "U")),
        "rule-references-unknown-state",
        "transition ('T', 'EMP', 'U') mentions an unknown state",
    ),
}


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
        "word,bad",
        [
            (("a", ["a"]), ["a"]),
            (("a", {"x": 1}), {"x": 1}),
            (("a", 1), 1),
            ((None, "a"), None),
            (("a", ["a"], "z"), ["a"]),
            (("b", "z", ["a"]), "z"),
        ],
    )
    def test_the_first_symbol_outside_the_alphabet_is_named(self, abstar, word, bad):
        # one set test passes a good word; a miss or an unhashable symbol
        # falls back to a scan in word order
        for call in (check_word, apply):
            with pytest.raises(WordError) as info:
                call(abstar, word)
            assert info.value.code == "symbol-not-in-sigma"
            assert str(info.value) == f"word symbol {bad!r} is not in the machine's alphabet"

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
        # the decision and the graph need no move the machine lacks
        assert apply(m, "ab") == REJECT
        cg = build_computation_graph(m, "ab")
        assert [e for e in cg.edges if e.to_dead] == [("T", "b", "ds", True)]

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
            (  # no run reaches U
                (Rule("S", "a", "T"), Rule("T", "a", "T"), Rule("U", EMP, "T")),
                "aa",
                "EMP transition ('U', 'EMP', 'T') is not allowed in a dfa",
            ),
        ],
    )
    def test_directly_built_nondeterministic_dfa_is_refused(self, rules, word, message):
        # make_dfa would refuse it; every action reads the dfa's one move table,
        # so each refuses it on any word, whether or not its run meets the bad rule
        m = Machine("dfa", ("S", "T", "U"), ("a",), "S", ("T",), rules)
        for action in (apply, show_transitions, build_computation_graph):
            for w in (word, "", "a"):
                with pytest.raises(ValidationError) as info:
                    action(m, w)
                assert info.value.code == "nondeterministic-rules"
                assert str(info.value) == message

    @pytest.mark.parametrize(
        "kind,case",
        # a dfa refuses an EMP rule first, as nondeterministic
        [("ndfa", case) for case in UNKNOWN_STATE]
        + [("dfa", case) for case in UNKNOWN_STATE if case != "emp-to"],
    )
    def test_directly_built_machine_naming_an_unknown_state_is_refused(self, kind, case):
        # make_ndfa and make_dfa would refuse it; the first table built checks
        # what they check, so each action refuses it on any word
        start, rules, code, message = UNKNOWN_STATE[case]
        m = Machine(kind, ("S", "T"), ("a",), start, ("T",), rules)
        for action in (apply, show_transitions, build_computation_graph):
            for w in ("", "a"):
                with pytest.raises(ValidationError) as info:
                    action(m, w)
                assert info.value.code == code
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
        calls = count_calls(monkeypatch, ["accepting_run", "_walk"])
        for machine, word, searches, passes in (
            (two_branch, "abbabb", 0, 1),
            (two_branch, "abaaba", 1, 1),
            (abstar, "abb", 0, 0),
            (abstar, "ba", 0, 0),
        ):
            calls.update(dict.fromkeys(calls, 0))
            show_transitions(machine, word)
            assert calls == {"accepting_run": searches, "_walk": passes}


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
    assert {e[:3] for e in cg.edges} == steps
    assert cg.highlighted == {run[-1][0]} | ({machine.start} if not word else set())


def test_ndfa_trace_follows_the_first_accepting_run_on_a_seeded_population():
    # a pair takes its rules in machine order, EMP and consuming rules mixed;
    # the oracle scans every rule per configuration
    rng = random.Random(71)
    cases = [(cox_ndfa(n), "a" * k) for n in (10, 20) for k in (n - 1, n, n + 1, 2 * n, 2 * n + 1)]
    for n in range(1500):
        if n % 2:
            regex = random_regex(rng, depth=4)
            machine = thompson_ndfa(regex)
            words = [sample_word(rng.randint, regex), random_word(rng, machine)]
        else:
            machine = random_ndfa(rng, max_states=6, max_rules=18)
            words = [random_word(rng, machine, max_len=8) for _ in range(2)]
        cases += [(machine, word) for word in words]
    accepted = 0
    for machine, word in cases:
        run = first_accepting_run(machine, word)
        trace = show_transitions(machine, word)
        assert (trace and list(trace.steps)) == run
        accepted += run is not None
    assert len(cases) >= 3000 and 1000 < accepted < len(cases) - 1000


@given(st.one_of(ndfa_with_word(), dfa_with_word()))
def test_apply_accepts_iff_the_configuration_search_finds_a_run(machine_word):
    machine, word = machine_word
    assert (apply(machine, word) == ACCEPT) == (accepting_run(machine, word) is not None)


def subset_dfa_with_word(ndfa_words):
    return ndfa_words.map(lambda machine_word: (subset_dfa(machine_word[0]), machine_word[1]))


@given(
    st.one_of(
        dfa_with_word(),
        subset_dfa_with_word(ndfa_with_word()),
        subset_dfa_with_word(regex_ndfa_with_word()),
    )
)
@settings(max_examples=300)
@example((subset_dfa(thompson_ndfa(("star", ("sym", "a")))), tuple("aa")))
@example((subset_dfa(thompson_ndfa(("star", ("sym", "a")))), tuple("ab")))
def test_dfa_trace_is_its_one_run_step_by_step(machine_word):
    # a dfa has a trace whatever the verdict: each step is one of its rules
    machine, word = machine_word
    trace = show_transitions(machine, word)
    assert_valid_trace(machine, word, trace)
    assert len(trace.run) == len(word) + 1
    assert trace.verdict == apply(machine, word)


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


def walked_ndfa(seed, length=10**5, size=300):
    """A random ``size``-state ndfa with 1-2 rules per (state, symbol), and an accepted word.

    The word is a seeded walk of ``length`` symbols through the rules, EMP
    rules included; the state the walk ends in is made final.
    """
    rng = random.Random(seed)
    states = [f"Q{i}" for i in range(size)]
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
        word = tuple("aba") * 33_333
        # a rejected word would run the level traversal, which never ends here
        assert apply(two_branch, word) == ACCEPT
        cg, peak = traced(build_computation_graph, two_branch, word)
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
        assert {e[:3] for e in cg.edges} == {
            (p, EMP if u == v else u[0], q) for (p, u), (q, v) in zip(steps, steps[1:])
        }
        assert peak < GRAPH_PEAK_LIMIT


def three_actions(machine, word):
    return apply(machine, word), show_transitions(machine, word), build_computation_graph(machine, word)


def forget_tables():
    fa.execution._forget()


def machine_pool(rng, machines):
    """(machine, regex) pairs: seeded ndfas and their subset dfas.

    Half the ndfas are Thompson machines of random regexes (regex None for
    the others), so that draw_word can draw accepted words.
    """
    pool = []
    for n in range(machines // 2):
        regex = random_regex(rng, depth=3) if n % 2 else None
        ndfa = thompson_ndfa(regex) if regex else random_ndfa(rng, max_states=6, max_rules=14)
        pool += [(ndfa, regex), (subset_dfa(ndfa), regex)]
    return pool


def draw_word(rng, machine, regex, max_len):
    """A word of the regex half the time, when there is one, else a random word."""
    if regex and rng.random() < 0.5:
        return sample_word(rng.randint, regex)
    return random_word(rng, machine, max_len=max_len)


def interleaved_cases(seed, machines=12, count=2400, max_len=8):
    """``count`` (machine, word) pairs drawn at random from a machine_pool,
    so that consecutive calls switch machines."""
    rng = random.Random(seed)
    pool = machine_pool(rng, machines)
    cases = []
    for _ in range(count):
        machine, regex = rng.choice(pool)
        cases.append((machine, draw_word(rng, machine, regex, max_len)))
    return cases


SPELLINGS = ("".join, list, tuple)
ACTIONS = (apply, show_transitions, build_computation_graph)


def searched(machine, word):
    return accepting_run(machine, tuple(word))


def same_machine_cases(seed, machines=12, calls=60, words=5, max_len=8):
    """(action, machine, word) triples that ask each machine of a machine_pool
    ``calls`` times in a row: consecutive calls ask it different words, and
    earlier words come back, spelled anew as a str, list or tuple."""
    rng = random.Random(seed)
    cases = []
    for machine, regex in machine_pool(rng, machines):
        asked = sorted({draw_word(rng, machine, regex, max_len) for _ in range(4 * words)})[:words]
        for _ in range(calls):
            word = rng.choice(SPELLINGS)(rng.choice(asked))
            cases.append((rng.choice(ACTIONS + (searched,)), machine, word))
    return cases


def fresh(action, machine, word):
    """``action(machine, word)`` with no tables kept from an earlier call."""
    forget_tables()
    return action(machine, word)


def agree_under_threads(cases):
    """Four threads run three_actions on every case, each in its own shuffled
    order, and each gets what a serial run gets."""
    expected = [three_actions(m, w) for m, w in cases]
    results = {}

    def worker(k):
        order = list(range(len(cases)))
        random.Random(k).shuffle(order)
        results[k] = {i: three_actions(*cases[i]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert [got[i] for i in range(len(cases))] == expected


class TestMachineTables:
    """Recently used machines keep their tables, and the last word asked
    about is kept: what apply builds and finds (S_n, and an accepting run
    once a call has searched), the trace and graph on the same machine and
    an equal word reuse."""

    @pytest.mark.parametrize(
        "fixture,accepted,rejected,tables",
        [
            ("two_branch", ["abaaba", "abbab"], "bb", 1),  # the search's table; closures read it
            ("abstar", ["abbb", "a"], "ba", 2),  # moves (with the dfa check); the graph's table
        ],
    )
    def test_each_table_reads_the_rule_list_once(self, request, fixture, accepted, rejected, tables):
        base = request.getfixturevalue(fixture)
        rules = CountingRules(base.rules)
        machine = base._replace(rules=rules)
        for word in accepted:
            assert apply(machine, word) == ACCEPT
            assert show_transitions(machine, word).verdict == ACCEPT
            assert build_computation_graph(machine, word).verdict == ACCEPT
        # a rejected graph still scans every rule per configuration (its level
        # traversal), so only the decision and the trace are counted here
        assert apply(machine, rejected) == REJECT
        show_transitions(machine, rejected)
        assert rules.iterations == tables

    def test_a_machine_never_reads_another_machines_tables(self, two_branch):
        assert three_actions(two_branch, "abbab")[0] == ACCEPT
        # equal, but another object: it builds its own tables
        rules = CountingRules(two_branch.rules)
        twin = Machine(*two_branch[:-1], rules)
        assert twin == two_branch and twin is not two_branch
        assert three_actions(twin, "abbab") == three_actions(two_branch, "abbab")
        assert rules.iterations == 1
        # switching back to the twin rebuilds nothing
        assert three_actions(twin, "abbab") == three_actions(two_branch, "abbab")
        assert show_transitions(twin, "abaaba").verdict == ACCEPT
        assert rules.iterations == 1
        # a _replace'd machine shares the rule tuple, but never the tables
        fewer = two_branch._replace(rules=tuple(r for r in two_branch.rules if r != ("D", EMP, "S")))
        moved = two_branch._replace(start="B")
        no_finals = two_branch._replace(finals=())
        for machine in (fewer, moved, no_finals, two_branch, fewer):
            for word in ("abbab", "abaaba", "bb", "b", ""):
                got = three_actions(machine, word)
                forget_tables()
                assert got == three_actions(machine, word)
                assert (got[0] == ACCEPT) == brute_force_accepts(machine, word)
                three_actions(two_branch, word)  # the next machine follows another

    def test_interleaved_machines_match_a_cache_reset_before_every_call(self):
        cases = interleaved_cases(seed=17)
        assert len(cases) >= 2000
        got = [three_actions(m, w) for m, w in cases]
        expected = []
        for m, w in cases:
            forget_tables()
            verdict = apply(m, w)
            forget_tables()
            trace = show_transitions(m, w)
            forget_tables()
            expected.append((verdict, trace, build_computation_graph(m, w)))
        assert got == expected
        assert sum(v == ACCEPT for v, _, _ in got) > len(cases) // 10

    def test_interleaved_machines_build_each_table_once_and_miss_each_step_once(
        self, two_branch, abstar, monkeypatch
    ):
        # a machine asked again after others keeps its tables and rows: each
        # table reads the rule list once, and after a machine's first word only
        # a step it never took (or one into the empty set) misses its rows; a
        # dfa walks its move table and has no rows
        bases = (two_branch, subset_dfa(two_branch), abstar)
        machines = [m._replace(rules=CountingRules(m.rules)) for m in bases]
        rng = random.Random(41)
        forget_tables()
        misses = count_calls(monkeypatch, ["_step"])
        asked, pairs, later, dead, accepted = set(), set(), 0, 0, 0
        for _ in range(300):
            k = rng.randrange(3)
            machine = machines[k]
            units = [rng.choice(("aba", "ab", "abbab")) for _ in range(rng.randint(0, 4))]
            word = "".join(units) + rng.choice(("", "b", "ba"))
            misses["_step"] = 0
            verdict = apply(machine, word)
            trace = show_transitions(machine, word)
            assert (trace is not None and trace.verdict == ACCEPT) == (verdict == ACCEPT)
            accepted += verdict == ACCEPT and k == 0
            if k not in asked:
                asked.add(k)
                continue
            later += misses["_step"]
            sets = forward_sets(bases[k], word)  # scans that the counts leave out
            pairs.update((k, s, a) for s, a in zip(sets, word))
            dead += not sets[-1]
        assert accepted > 20 and len(asked) == 3
        assert [m.rules.iterations for m in machines] == [1, 1, 1]  # applicable; moves
        assert 0 < later <= len(pairs) + dead
        assert len(pairs) < 100  # the words repeat their steps

    def test_threads_on_interleaved_machines_agree_with_a_serial_run(self):
        # long words give a thread more steps in which another can switch machines
        agree_under_threads(interleaved_cases(seed=29, count=600, max_len=40))

    @pytest.mark.parametrize(
        "budgets",
        [{"_RULE_BUDGET": 1}, {"_MEMO_LIMIT": 4}],
        ids=["every-switch-evicts", "rows-cleared-under-walks"],
    )
    def test_threads_on_machines_that_evict_each_other_agree_with_a_serial_run(
        self, monkeypatch, budgets
    ):
        for name, value in budgets.items():
            monkeypatch.setattr(fa.execution, name, value)
        agree_under_threads(interleaved_cases(seed=47, count=300, max_len=40))

    def test_one_machine_asked_many_words_matches_a_cache_reset_before_every_call(self):
        cases = same_machine_cases(seed=31)
        got = [action(m, w) for action, m, w in cases]
        assert got == [fresh(action, m, w) for action, m, w in cases]
        assert sum(apply(m, w) == ACCEPT for _, m, w in cases) > len(cases) // 10
        # calls that ask a machine again for a word it was asked before another one
        keys = [(id(m), tuple(w)) for _, m, w in cases]
        back = sum(k != keys[i - 1] and k in keys[: i - 1] for i, k in enumerate(keys) if i)
        assert back > len(cases) // 2

    @pytest.mark.parametrize("kind", ["ndfa", "dfa"])
    def test_threads_asking_one_machine_different_words_agree_with_a_serial_run(
        self, two_branch, kind
    ):
        # threads that share a machine replace its last word under each other
        machine = two_branch if kind == "ndfa" else subset_dfa(two_branch)
        rng = random.Random(37)
        words = set()
        while len(words) < 80:  # about half accepted, each with its own run
            word = "".join(rng.choice(("aba", "ab", "abbab")) for _ in range(rng.randint(0, 12)))
            words.add(word + rng.choice(("", "", "b", "ba")))
        words = [rng.choice(SPELLINGS)(w) for w in sorted(words)]
        expected = [tuple(fresh(action, machine, w) for action in ACTIONS) for w in words]
        assert 20 < sum(verdict == ACCEPT for verdict, _, _ in expected) < 60
        results = {}

        def worker(k):
            order = list(range(len(words))) * 3
            random.Random(k).shuffle(order)
            results[k] = [(i, three_actions(machine, words[i])) for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results) == [0, 1, 2, 3]
        for got in results.values():
            assert all(result == expected[i] for i, result in got)

    def test_a_run_found_while_another_word_was_asked_stays_with_its_word(
        self, two_branch, monkeypatch
    ):
        # the interleaving the threads above can meet by chance: while the trace
        # of w searches, another caller asks the same machine for v
        w, v = tuple("abaaba"), tuple("abbab")
        expected = {u: fresh(show_transitions, two_branch, u) for u in (w, v)}
        assert expected[w].run != expected[v].run
        search = fa.execution._search

        def overtaken(machine, word):
            monkeypatch.setattr(fa.execution, "_search", search)
            end_states(machine, v)
            return search(machine, word)

        forget_tables()
        monkeypatch.setattr(fa.execution, "_search", overtaken)
        assert show_transitions(two_branch, w) == expected[w]
        assert show_transitions(two_branch, v) == expected[v]
        graph = build_computation_graph(two_branch, v)
        assert graph == fresh(build_computation_graph, two_branch, v)

    def test_the_cache_keeps_one_machines_tables(self, monkeypatch):
        # with a rule budget every machine passes, only the last one is kept
        monkeypatch.setattr(fa.execution, "_RULE_BUDGET", 1)

        def kept(seeds):
            """Traced bytes still held after deciding and tracing each machine in turn,
            and the bytes that forgetting the tables then frees."""
            forget_tables()
            tracemalloc.start()
            try:
                gc.collect()  # a full collection also empties the tuple free lists
                start = tracemalloc.get_traced_memory()[0]
                for seed in seeds:
                    machine, word = walked_ndfa(seed, length=24, size=150)
                    assert apply(machine, word) == ACCEPT
                    assert show_transitions(machine, word).verdict == ACCEPT
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
                forget_tables()
                return held - start, held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        one, one_tables = kept([99])
        many, many_tables = kept(range(100))
        # the hundredth machine is the one measured alone: the 99 before it
        # leave nothing behind, in the tables or anywhere else
        assert 0 < one_tables < one
        assert many_tables <= 1.1 * one_tables
        assert many <= one + 0.1 * one_tables

    def test_the_kept_tables_and_rows_stay_within_their_budgets(self):
        forget_tables()
        tracemalloc.start()
        try:
            # one machine's bytes per rule (the machine's own, its tables' and the
            # masks its word fills) and per row step, with its word and trace
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            machine, word = walked_ndfa(99, length=24, size=150)
            assert apply(machine, word) == ACCEPT
            tables = fa.execution._tables(machine)
            tables.applicable
            for row in tables.rows.values():
                row.clear()
            tables.steps = 0
            gc.collect()
            built = tracemalloc.get_traced_memory()[0]
            assert fa.execution._walk(machine, tuple(word))  # fills the rows alone again
            gc.collect()
            walked = tracemalloc.get_traced_memory()[0]
            assert show_transitions(machine, word).verdict == ACCEPT
            gc.collect()
            one_word = tracemalloc.get_traced_memory()[0] - walked
            per_rule = (built - start) / len(machine.rules)
            per_step = (walked - built) / tables.steps
            del machine, word, tables
            forget_tables()
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            for seed in range(100):
                machine, word = walked_ndfa(seed, length=24, size=150)
                assert apply(machine, word) == ACCEPT
                assert show_transitions(machine, word).verdict == ACCEPT
            del machine, word
            kept = len(fa.execution._cache)
            assert fa.execution._kept_rules <= fa.execution._RULE_BUDGET
            assert all(t.steps <= fa.execution._MEMO_LIMIT for t in fa.execution._cache.values())
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            forget_tables()
            tracemalloc.stop()
        # the machines of about 470 rules that fit the rule budget are all kept
        assert kept > 30
        # each kept machine's rows hold at most _MEMO_LIMIT steps
        rows = per_step * fa.execution._MEMO_LIMIT * kept
        assert held <= 1.1 * (per_rule * fa.execution._RULE_BUDGET + rows) + one_word


class TestRowTable:
    """The walk keeps each state set's steps as rows, as a lazy DFA does:
    only a step it has not kept calls _step. _MEMO_LIMIT bounds each
    machine's entries; the row tables _step reads are kept apart from the
    rows, each built once per symbol and table."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_long_word_misses_at_most_once_per_state_set_and_symbol(
        self, two_branch, monkeypatch, seed
    ):
        rng = random.Random(seed)
        units = [rng.choice(("aba", "ab", "abbab")) for _ in range(4000)]
        word = tuple("".join(units))[:10_000]
        sets = forward_sets(two_branch, word)
        assert len(sets) == len(word) + 1 and sets[-1]  # no run dies, the walk goes to S_n
        forget_tables()
        misses = count_calls(monkeypatch, ["_step"])
        assert end_states(two_branch, word) == sets[-1]
        # S_0 comes from the closures, then one _step per miss
        assert 0 < misses["_step"] <= len(set(sets)) * len(two_branch.sigma)
        assert len(set(sets)) < 20  # the sets repeat, so nearly every step is a row hit

    @pytest.mark.parametrize("limit", [1, 2])
    def test_a_table_cleared_mid_walk_keeps_every_verdict(self, monkeypatch, limit):
        monkeypatch.setattr(fa.execution, "_MEMO_LIMIT", limit)
        forget_tables()  # rows kept under the default limit would pass this one
        keep = fa.execution._keep
        clears = []

        def counting(tables, *step):
            clears.append(tables.steps >= limit)  # _keep empties full rows first
            keep(tables, *step)

        monkeypatch.setattr(fa.execution, "_keep", counting)
        rng = random.Random(43 + limit)
        cleared = accepted = 0
        for machine, regex in machine_pool(rng, machines=40):
            for _ in range(20):  # only the pool's ndfas keep rows
                word = draw_word(rng, machine, regex, max_len=10)
                clears.clear()
                verdict = apply(machine, word)
                assert (verdict == ACCEPT) == brute_force_accepts(machine, word)
                # every kept machine counts its row entries, and holds at most limit
                for tables in fa.execution._cache.values():
                    assert tables.steps == sum(map(len, tables.rows.values())) <= limit
                cleared += any(clears)
                accepted += verdict == ACCEPT
        assert cleared > 50 and accepted > 50

    def test_each_ndfa_closes_its_states_in_one_pass(self, monkeypatch):
        forget_tables()
        passes = count_calls(monkeypatch, ["_closures"])
        cases = interleaved_cases(seed=53, count=600)
        for machine, word in cases:
            apply(machine, word)
            show_transitions(machine, word)
        # every machine of the pool fits the rule budget, so none is evicted
        assert passes["_closures"] == len({id(m) for m, _ in cases if m.kind == "ndfa"}) > 4

    def test_each_symbols_row_table_is_built_once_per_kept_table(self, monkeypatch):
        # rows of two steps are emptied again and again; the row tables stay
        monkeypatch.setattr(fa.execution, "_MEMO_LIMIT", 2)
        forget_tables()
        built = []
        row_table = fa.execution._row_table

        def recording(tables, sym):
            built.append((id(tables), sym))
            return row_table(tables, sym)

        monkeypatch.setattr(fa.execution, "_row_table", recording)
        misses = count_calls(monkeypatch, ["_step"])
        for machine, word in interleaved_cases(seed=59, machines=40, count=1200, max_len=20):
            assert end_states(machine, tuple(word)) == forward_sets(machine, word)[-1]
        assert len(built) == len(set(built)) > 30
        assert misses["_step"] > 5 * len(built)  # most misses read a table built before

    def test_a_repeated_step_is_a_row_hit(self, monkeypatch):
        misses = count_calls(monkeypatch, ["_step"])
        rng = random.Random(61)
        walked = 0
        for machine, regex in machine_pool(rng, machines=40):
            word = tuple(draw_word(rng, machine, regex, max_len=12))
            forget_tables()
            misses["_step"] = 0
            first = fa.execution._walk(machine, word)  # end_states would reuse the word
            walked += misses["_step"] > 0
            misses["_step"] = 0
            assert fa.execution._walk(machine, word) == first
            # the empty set is never kept, so a walk that died misses its last step again
            assert misses["_step"] == (machine.kind == "ndfa" and not first)
        assert walked > 10


def sized_ndfa(rng, size):
    """A random ``size``-state ndfa over 1-3 symbols, 1-4 rules per state, about
    one in six of them EMP rules, and about a tenth of its states final."""
    states = [f"Q{i}" for i in range(size)]
    labels = list("abc"[: rng.randint(1, 3)])
    rules = [
        (q, EMP if rng.random() < 0.15 else rng.choice(labels), rng.choice(states))
        for q in states
        for _ in range(rng.randint(1, 4))
    ]
    finals = rng.sample(states, max(1, size // 10))
    return make_ndfa(states, labels, states[0], finals, rules)


def successor_masks(machine):
    """symbol -> each state's closed-successor mask, by plain scans of the rule
    list grouped by source state: bit k of the mask of q stands for states[k]
    being in the EMP-closure of the states q reads the symbol into."""
    leaving = {}
    for src, read, dst in machine.rules:
        leaving.setdefault(src, []).append((read, dst))
    bit = {q: 1 << k for k, q in enumerate(machine.states)}
    masks = {}
    for sym in machine.sigma:
        masks[sym] = []
        for q in machine.states:
            todo = [dst for read, dst in leaving.get(q, ()) if read == sym]
            reached = set(todo)
            while todo:
                for read, dst in leaving.get(todo.pop(), ()):
                    if read == EMP and dst not in reached:
                        reached.add(dst)
                        todo.append(dst)
            masks[sym].append(sum(bit[r] for r in reached))
    return masks


def walked_word(rng, machine, length):
    """The symbols of a random walk of up to ``length`` rules from the start, EMP
    rules included, so that at least one run survives the whole word."""
    leaving = {}
    for src, read, dst in machine.rules:
        leaving.setdefault(src, []).append((read, dst))
    state, word = machine.start, []
    for _ in range(length):
        if state not in leaving:
            break
        read, state = rng.choice(leaving[state])
        if read != EMP:
            word.append(read)
    return tuple(word)


def row_table_population(seed):
    """(machine, regex) pairs: random ndfas of 1-9, 63-65 and 150 states, so
    that the state counts fall on both sides of the 4-state block and byte
    boundaries, Thompson machines of random regexes (2 to about 40 states)
    and Cox machines of 8, 64 and 152 states. The regex is None for a random
    ndfa and ("cox", n) for the Cox machine of n."""
    rng = random.Random(seed)
    sizes = [*range(1, 10), 63, 64, 65, 150]
    pool = [(sized_ndfa(rng, size), None) for size in sizes for _ in range(2)]
    for _ in range(16):
        regex = random_regex(rng, depth=rng.randint(2, 6))
        pool.append((thompson_ndfa(regex), regex))
    for n in (1, 8, 19):
        regex = ("cox", n)
        pool.append((cox_ndfa(n), regex))
    return pool


class TestBlockRowTables:
    """A step reads one entry of the symbol's row table per block of 4 states,
    each entry the OR of its block's closed-successor masks, checked against
    tests/helpers.py on state counts at and around the block boundaries."""

    def test_steps_and_verdicts_match_the_oracles_when_most_steps_miss(self, monkeypatch):
        monkeypatch.setattr(fa.execution, "_MEMO_LIMIT", 2)  # rows emptied again and again
        forget_tables()
        rng = random.Random(73)
        cases = accepted = 0
        for machine, regex in row_table_population(seed=79):
            words = [random_word(rng, machine, max_len=8) for _ in range(3)]
            words += [walked_word(rng, machine, length=16) for _ in range(3)]
            if regex and regex[0] == "cox":
                n = regex[1]
                words += [tuple("a" * n), tuple("a" * (n - 1))]
            elif regex:
                words.append(tuple(sample_word(rng.randint, regex)))
            for k, word in enumerate(words):
                census, _, _ = computation_census(machine, word)
                expected = ACCEPT if census & set(machine.finals) else REJECT
                if k % 2:  # the walk comes from apply or from end_states
                    assert apply(machine, word) == expected
                    ends = end_states(machine, word)
                else:
                    ends = end_states(machine, word)
                    assert apply(machine, word) == expected
                assert ends == census == forward_sets(machine, word)[-1]
                cases += 1
                accepted += expected == ACCEPT
        assert cases > 150 and 10 < accepted < cases - 10

    def test_a_step_is_the_or_of_its_states_successor_masks(self):
        rng = random.Random(83)
        forget_tables()
        for machine, _ in row_table_population(seed=89):
            count = len(machine.states)
            masks = successor_masks(machine)
            top = (count - 1) // 4 * 4  # the first state of the last, maybe part-full, block
            sets = [0, (1 << count) - 1, ((1 << count) - 1) >> top << top]
            sets += [1 << k for k in range(count)]
            sets += [rng.getrandbits(count) for _ in range(8)]
            tables = fa.execution._tables(machine)
            for sym in machine.sigma:
                for current in sets:
                    expected = 0
                    for k in range(count):
                        if current >> k & 1:
                            expected |= masks[sym][k]
                    assert fa.execution._step(tables, current, sym) == expected

    def test_threads_building_one_fresh_machines_row_tables_agree_with_a_serial_run(
        self, monkeypatch
    ):
        # every thread misses its first step on a fresh machine at about the same
        # time, so several of them build the same row table; each build is whole
        # before it is stored, and the walk takes no lock for it
        rng = random.Random(97)
        rounds = []
        for _ in range(6):
            machine = sized_ndfa(rng, 65)
            words = sorted({random_word(rng, machine, max_len=12) for _ in range(40)})
            rounds.append((machine, words))
        expected = [[fresh(apply, m, w) for w in words] for m, words in rounds]
        serial = []
        for machine, _ in rounds:
            forget_tables()
            tables = fa.execution._tables(machine)
            serial.append({sym: fa.execution._row_table(tables, sym) for sym in machine.sigma})
        row_table = fa.execution._row_table
        built = []

        def slow(tables, sym):
            built.append((id(tables.machine), sym))  # every machine stays alive
            time.sleep(0.01)  # other threads reach the same miss meanwhile
            return row_table(tables, sym)

        monkeypatch.setattr(fa.execution, "_row_table", slow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for r, (machine, words) in enumerate(rounds):
                forget_tables()
                start = threading.Barrier(4)
                results = {}

                def worker(k):
                    order = list(range(len(words)))
                    random.Random(k).shuffle(order)
                    start.wait()
                    results[k] = {i: apply(machine, words[i]) for i in order}

                threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert sorted(results) == [0, 1, 2, 3]
                for got in results.values():
                    assert [got[i] for i in range(len(words))] == expected[r]
                kept = fa.execution._tables(machine).row_tables
                assert kept == {sym: serial[r][sym] for sym in kept}
        finally:
            sys.setswitchinterval(interval)
        assert len(built) > len(set(built))  # some table was built by two threads at once


class TestEndStates:
    """end_states against tests/helpers.py's forward_sets: S_n, or the empty
    set once a set dies. The masks decode into the frozenset of names."""

    def test_random_and_thompson_ndfas(self):
        rng = random.Random(67)
        forget_tables()
        cases = accepted = 0
        for n in range(1500):
            if n % 2:
                regex = random_regex(rng, depth=4)
                machine = thompson_ndfa(regex)
                words = [sample_word(rng.randint, regex), random_word(rng, machine, max_len=10)]
            else:
                machine = random_ndfa(rng, max_states=6, max_rules=14)
                words = [random_word(rng, machine, max_len=10) for _ in range(2)]
            for word in words + words[:1]:  # the third call walks the rows the first kept
                ends = end_states(machine, tuple(word))
                assert ends == forward_sets(machine, word)[-1]
                assert type(ends) is frozenset
                cases += 1
                accepted += not ends.isdisjoint(machine.finals)
        assert cases == 4500 and 500 < accepted < 4000

    @pytest.mark.parametrize("n", [10, 40, 160])
    def test_cox_machines(self, n):
        machine = cox_ndfa(n)
        forget_tables()
        for word, verdict in (("a" * n, ACCEPT), ("a" * (n - 1), REJECT), ("a" * (2 * n + 1), REJECT)):
            sets = forward_sets(machine, word)
            assert end_states(machine, tuple(word)) == sets[-1]
            assert apply(machine, word) == verdict
        assert not sets[-1] and len(sets) == 2 * n + 2  # a^(2n+1) dies at its last symbol
