"""A stateful model test of what fa.execution keeps between calls.

Hypothesis drives interleavings of machines, equal twins, words spelled as
str, list or tuple, the five actions and _forget() under small and default
row caps. Every answer is checked against tests/helpers.py's cache-free
oracles, and after every step each machine's record, with the last word
asked of it, is checked against what it must hold.
"""

import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

import fa.execution
import fa.machines
from fa import (
    ACCEPT,
    DFA,
    EMP,
    REJECT,
    CGEdge,
    Machine,
    apply,
    build_computation_graph,
    check_word,
    show_transitions,
)
from fa.execution import accepting_run, end_states
from helpers import (
    brute_force_accepts,
    computation_census,
    cox_ndfa,
    first_accepting_run,
    forward_sets,
    random_ndfa,
    random_regex,
    subset_dfa,
    thompson_ndfa,
)

SPELLINGS = ("".join, list, tuple)
KINDS = ("random", "thompson", "subset", "cox")


def make_machine(kind, seed):
    rng = random.Random(seed)
    if kind == "cox":
        return cox_ndfa(rng.randint(1, 3))
    if kind == "random":
        return random_ndfa(rng)
    thompson = thompson_ndfa(random_regex(rng, depth=3))
    if kind == "thompson":
        return thompson
    return subset_dfa(thompson if seed % 2 else random_ndfa(rng))


def walked_word(machine, seed, length=12):
    """The symbols of a random walk from the start, cut after the last final
    state it meets, so that the word is accepted when the walk meets one."""
    rng = random.Random(seed)
    leaving = {}
    for src, read, dst in machine.rules:
        leaving.setdefault(src, []).append((read, dst))
    state, word, accepted = machine.start, [], None
    for _ in range(length):
        if state in machine.finals:
            accepted = len(word)
        if state not in leaving:
            break
        read, state = rng.choice(leaving[state])
        if read != EMP:
            word.append(read)
    if state in machine.finals:
        accepted = len(word)
    return tuple(word if accepted is None else word[:accepted])


def first_run(machine, word):
    """first_accepting_run as (state, symbols consumed) pairs, or None."""
    run = first_accepting_run(machine, word)
    return None if run is None else tuple((q, len(word) - len(u)) for q, u in run)


def mask(machine, states):
    return sum(1 << k for k, q in enumerate(machine.states) if q in states)


class KeptState(RuleBasedStateMachine):
    machines = Bundle("machines")
    cases = Bundle("cases")

    def __init__(self):
        super().__init__()
        self.saved = fa.execution._MEMO_LIMIT
        fa.execution._forget()
        self.built = []  # every machine, in the order built
        self.asked = {}  # id -> machine, for the machines asked since the last _forget()

    def teardown(self):
        fa.execution._MEMO_LIMIT = self.saved
        fa.execution._forget()

    @initialize(limit=st.sampled_from([1, 2, 256]))
    def set_row_cap(self, limit):
        fa.execution._MEMO_LIMIT = limit

    @rule(target=machines, kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16))
    def build(self, kind, seed):
        self.built.append(make_machine(kind, seed))
        return self.built[-1]

    @rule(target=machines, machine=machines)
    def twin(self, machine):
        twin = Machine(*machine)
        assert twin == machine and twin is not machine
        self.built.append(twin)
        return twin

    @rule(target=cases, machine=machines, symbols=st.lists(st.integers(0, 2), max_size=8))
    def random_case(self, machine, symbols):
        return machine, tuple(machine.sigma[k % len(machine.sigma)] for k in symbols)

    @rule(target=cases, machine=machines, seed=st.integers(0, 2**16))
    def walked_case(self, machine, seed):
        return machine, walked_word(machine, seed)

    def asking(self, case):
        """``case``, its machine marked as asked."""
        self.asked[id(case[0])] = case[0]
        return case

    @rule(case=cases, spell=st.sampled_from(SPELLINGS))
    def apply(self, case, spell):
        machine, word = self.asking(case)
        assert (apply(machine, spell(word)) == ACCEPT) == brute_force_accepts(machine, word)

    @rule(case=cases, spell=st.sampled_from(SPELLINGS))
    def end_states(self, case, spell):
        machine, word = self.asking(case)
        ends = end_states(machine, check_word(machine, spell(word)))
        assert ends == forward_sets(machine, word)[-1]

    @rule(case=cases, spell=st.sampled_from(SPELLINGS))
    def accepting_run(self, case, spell):
        machine, word = self.asking(case)
        assert accepting_run(machine, check_word(machine, spell(word))) == first_run(machine, word)

    @rule(case=cases, spell=st.sampled_from(SPELLINGS))
    def show_transitions(self, case, spell):
        machine, word = self.asking(case)
        trace = show_transitions(machine, spell(word))
        run = first_run(machine, word)
        if machine.kind == DFA:  # its one run, accepted or not
            sets = forward_sets(machine, word)
            assert trace.run == tuple((next(iter(s)), i) for i, s in enumerate(sets))
            assert trace.verdict == (REJECT if run is None else ACCEPT)
        elif run is None:
            assert trace is None
        else:
            assert trace.verdict == ACCEPT and trace.run == run
        assert trace is None or trace.word == word

    @rule(case=cases, spell=st.sampled_from(SPELLINGS))
    def build_computation_graph(self, case, spell):
        machine, word = self.asking(case)
        cg = build_computation_graph(machine, spell(word))
        run = first_run(machine, word)
        start = {machine.start} if not word else set()
        if run is None:
            ends, used, stuck = computation_census(machine, word)
            dead = fa.machines.fresh_dead_state(machine.states)
            edges = [CGEdge(q, a, dead, to_dead=True) for q, a in sorted(stuck)]
            highlighted = ends | start | ({dead} if stuck else set())
            assert (cg.verdict, cg.dead) == (REJECT, dead if stuck else None)
        else:
            used = {(p, EMP if i == j else word[i], q) for (p, i), (q, j) in zip(run, run[1:])}
            edges, highlighted = [], {run[-1][0]} | start
            assert (cg.verdict, cg.dead) == (ACCEPT, None)
        edges += [CGEdge(*r) for r in machine.rules if tuple(r) in used]
        assert cg.edges == tuple(edges)
        assert cg.highlighted == highlighted
        assert cg.machine is machine and cg.word == word

    @rule()
    def forget(self):
        fa.execution._forget()
        self.asked.clear()

    @invariant()
    def the_machines_asked_since_forget_hold_the_current_records(self):
        for machine in self.built:
            tables = vars(machine).get("_tables")
            current = tables is not None and tables.generation == fa.execution._generation
            assert current == (id(machine) in self.asked)
            assert list(vars(machine)) == ([] if tables is None else ["_tables"])

    @invariant()
    def rows_count_their_steps_within_the_cap(self):
        for machine in self.asked.values():
            tables = vars(machine)["_tables"]
            assert tables.steps == sum(map(len, tables.rows.values())) <= fa.execution._MEMO_LIMIT

    @invariant()
    def each_last_word_keeps_its_own_end_states_and_run(self):
        for machine in self.asked.values():
            asked = vars(machine)["_tables"].asked
            if asked is not None:
                word, ends, run = asked
                assert ends == mask(machine, forward_sets(machine, word)[-1])
                assert run is None or run == first_run(machine, word)


KeptState.TestCase.settings = settings(
    max_examples=200,
    stateful_step_count=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestKeptState = KeptState.TestCase
