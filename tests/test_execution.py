import gc
import random
import sys
import threading
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
    count_calls,
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
    assert {e.triple for e in cg.edges} == steps
    assert cg.highlighted == {run[-1][0]} | ({machine.start} if not word else set())


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
            ("two_branch", ["abaaba", "abbab"], "bb", 2),  # state sets, per-state lists
            ("abstar", ["abbb", "a"], "ba", 2),  # the dfa check shares the state sets' pass
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
        assert rules.iterations == 2
        # switching back to the twin rebuilds nothing
        assert three_actions(twin, "abbab") == three_actions(two_branch, "abbab")
        assert show_transitions(twin, "abaaba").verdict == ACCEPT
        assert rules.iterations == 2
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
        # a step it never took (or one into the empty set) computes a closure
        bases = (two_branch, subset_dfa(two_branch), abstar)
        machines = [m._replace(rules=CountingRules(m.rules)) for m in bases]
        rng = random.Random(41)
        forget_tables()
        closures = count_calls(monkeypatch, ["_closure"])
        asked, pairs, later, dead, accepted = set(), set(), 0, 0, 0
        for _ in range(300):
            k = rng.randrange(3)
            machine = machines[k]
            units = [rng.choice(("aba", "ab", "abbab")) for _ in range(rng.randint(0, 4))]
            word = "".join(units) + rng.choice(("", "b", "ba"))
            closures["_closure"] = 0
            verdict = apply(machine, word)
            trace = show_transitions(machine, word)
            assert (trace is not None and trace.verdict == ACCEPT) == (verdict == ACCEPT)
            accepted += verdict == ACCEPT and k == 0
            if k not in asked:
                asked.add(k)
                continue
            later += closures["_closure"]
            sets = forward_sets(bases[k], word)  # scans that the counts leave out
            pairs.update((k, s, a) for s, a in zip(sets, word))
            dead += not sets[-1]
        assert accepted > 20 and len(asked) == 3
        assert [m.rules.iterations for m in machines] == [2, 1, 1]  # moves (and leaving)
        assert later <= len(pairs) + dead
        assert len(pairs) < 100  # the words repeat their steps

    def test_threads_on_interleaved_machines_agree_with_a_serial_run(self):
        # long words give a thread more steps in which another can switch machines
        agree_under_threads(interleaved_cases(seed=29, count=600, max_len=40))

    @pytest.mark.parametrize(
        "budgets",
        [{"_RULE_BUDGET": 1}, {"_ROW_BUDGET": 8, "_MEMO_LIMIT": 4}],
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
            # one machine's bytes per rule (the machine's own and its tables')
            # and per state held in its rows, with its word and trace
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            machine, word = walked_ndfa(99, length=24, size=150)
            tables = fa.execution._tables(machine)
            tables.moves, tables.leaving
            gc.collect()
            built = tracemalloc.get_traced_memory()[0]
            assert apply(machine, word) == ACCEPT
            gc.collect()
            walked = tracemalloc.get_traced_memory()[0]
            states = fa.execution._row_states
            assert show_transitions(machine, word).verdict == ACCEPT
            gc.collect()
            one_word = tracemalloc.get_traced_memory()[0] - walked
            per_rule = (built - start) / len(machine.rules)
            per_state = (walked - built) / states
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
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            forget_tables()
            tracemalloc.stop()
        # the machines of about 470 rules that fit the rule budget are all kept
        assert kept > 30
        # the rows of the last machine walked may pass the row budget
        rows = per_state * (fa.execution._ROW_BUDGET + states)
        assert held <= 1.1 * (per_rule * fa.execution._RULE_BUDGET + rows) + one_word


class TestRowTable:
    """The walk keeps each state set's steps as a row, as a lazy DFA does:
    only a step it has not kept computes a closure. _MEMO_LIMIT bounds a
    machine's entries, and _ROW_BUDGET the states that the other kept
    machines' rows hold beside the walking machine's."""

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
        closures = count_calls(monkeypatch, ["_closure"])
        assert end_states(two_branch, word) == sets[-1]
        # one closure for S_0, then one per miss
        assert 0 < closures["_closure"] - 1 <= len(set(sets)) * len(two_branch.sigma)
        assert len(set(sets)) < 20  # the sets repeat, so nearly every step is a row hit

    @pytest.mark.parametrize("limit", [1, 2])
    def test_a_table_cleared_mid_walk_keeps_every_verdict(self, monkeypatch, limit):
        monkeypatch.setattr(fa.execution, "_MEMO_LIMIT", limit)
        monkeypatch.setattr(fa.execution, "_ROW_BUDGET", limit)
        forget_tables()  # rows kept under the default budgets would pass these
        closures = count_calls(monkeypatch, ["_closure"])
        rng = random.Random(43 + limit)
        cleared = accepted = 0
        for machine, regex in machine_pool(rng, machines=40):
            for _ in range(10):
                word = draw_word(rng, machine, regex, max_len=10)
                closures["_closure"] = 0
                verdict = apply(machine, word)
                assert (verdict == ACCEPT) == brute_force_accepts(machine, word)
                tables = fa.execution._last
                assert tables.steps == sum(map(len, tables.rows.values())) <= limit
                kept = fa.execution._cache.values()
                held = [len(s) for t in kept for row in t.rows.values() for s in row.values()]
                assert fa.execution._row_states == sum(t.held for t in kept) == sum(held)
                # every machine's rows but the last walker's fit the budget
                assert sum(sorted(t.held for t in kept)[:-1]) <= limit
                cleared += closures["_closure"] > limit + 1  # S_0 and more misses than fit
                accepted += verdict == ACCEPT
        assert cleared > 50 and accepted > 50
