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
    make_ndfa,
    show_transitions,
)
from fa.execution import accepting_run
from helpers import (
    brute_force_accepts,
    dfa_with_word,
    first_accepting_run,
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
    fa.execution._last = None


def interleaved_cases(seed, machines=12, count=2400, max_len=8):
    """``count`` (machine, word) pairs drawn at random from a pool of seeded
    ndfas and their subset dfas, so that consecutive calls switch machines.

    Half the ndfas are Thompson machines of random regexes, and half of
    their words are drawn from the regex, so that many words are accepted.
    """
    rng = random.Random(seed)
    pool = []
    for n in range(machines // 2):
        regex = random_regex(rng, depth=3) if n % 2 else None
        ndfa = thompson_ndfa(regex) if regex else random_ndfa(rng, max_states=6, max_rules=14)
        pool += [(ndfa, regex), (subset_dfa(ndfa), regex)]
    cases = []
    for _ in range(count):
        machine, regex = rng.choice(pool)
        if regex and rng.random() < 0.5:
            cases.append((machine, sample_word(rng.randint, regex)))
        else:
            cases.append((machine, random_word(rng, machine, max_len=max_len)))
    return cases


class TestMachineTables:
    """The last machine used keeps its tables: what apply builds, the trace and graph reuse."""

    @pytest.mark.parametrize(
        "fixture,accepted,rejected,tables",
        [
            ("two_branch", ["abaaba", "abbab"], "bb", 2),  # state sets, per-state lists
            ("abstar", ["abbb", "a"], "ba", 3),  # and the dfa's transition table
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
        show_transitions(twin, "abbab")
        assert rules.iterations == 4
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

    def test_threads_on_interleaved_machines_agree_with_a_serial_run(self):
        # long words give a thread more steps in which another can switch machines
        cases = interleaved_cases(seed=29, count=600, max_len=40)
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

    def test_the_cache_keeps_one_machines_tables(self):
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
