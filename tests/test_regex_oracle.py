"""Verdicts checked against Python's re on Thompson machines of random regexes.

Every other oracle in helpers.py searches configurations, as fa itself
does; re.fullmatch is a backtracking matcher that shares nothing with it.
apply, the computation graph and an ndfa trace all decide by the forward
state sets, so a fault there would reach all three. Thompson machines are
built of EMP chains, EMP cycles and EMP-only stars, shapes the random
ndfas of the other tests seldom draw. Their subset constructions, built
in the test code, give dfas with dozens of states, whose traces walk the
dfa's one run.
"""

import random

from hypothesis import given, settings

from fa import ACCEPT, DFA, EMP, REJECT, apply, build_computation_graph, show_transitions
from helpers import (
    random_regex,
    regex_matches,
    regex_pattern,
    regex_with_word,
    sample_word,
    subset_dfa,
    thompson_ndfa,
)

POPULATION = 2000  # seeded regexes, four words each
DFA_POPULATION = 500  # seeded regexes up to 7 operators deep, four words each


def population():
    rng = random.Random(3)
    for _ in range(POPULATION):
        regex = random_regex(rng)
        machine = thompson_ndfa(regex)
        for _ in range(2):
            yield regex, machine, sample_word(rng.randint, regex)
        for _ in range(2):
            yield regex, machine, tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))


def assert_all_actions_agree_with_re(regex, machine, word):
    expected = ACCEPT if regex_matches(regex, word) else REJECT
    where = f"{regex_pattern(regex)!r} on {''.join(word)!r}"
    assert apply(machine, word) == expected, where
    assert build_computation_graph(machine, word).verdict == expected, where
    assert (show_transitions(machine, word) is not None) == (expected == ACCEPT), where
    return expected


def test_seeded_regex_population_agrees_with_re():
    verdicts = [assert_all_actions_agree_with_re(*case) for case in population()]
    # sampled words match and most random ones do not, so both sides are well covered
    assert POPULATION < verdicts.count(ACCEPT) < 3 * POPULATION


@given(regex_with_word())
@settings(max_examples=300)
def test_regex_machines_agree_with_re(regex_word):
    regex, word = regex_word
    assert_all_actions_agree_with_re(regex, thompson_ndfa(regex), word)


def assert_dfa_agrees_with_re(regex, machine, word):
    assert machine.kind == DFA
    expected = ACCEPT if regex_matches(regex, word) else REJECT
    where = f"{regex_pattern(regex)!r} on {''.join(word)!r}"
    assert apply(machine, word) == expected, where
    assert build_computation_graph(machine, word).verdict == expected, where
    trace = show_transitions(machine, word)
    assert trace.verdict == expected and len(trace.steps) == len(word) + 1, where
    return expected


def test_seeded_subset_dfas_agree_with_re():
    rng = random.Random(4)
    sizes, verdicts = [], []
    for _ in range(DFA_POPULATION):
        regex = random_regex(rng, depth=7)
        machine = subset_dfa(thompson_ndfa(regex))
        sizes.append(len(machine.states))
        words = [sample_word(rng.randint, regex) for _ in range(2)]
        words += [tuple(rng.choice("abc") for _ in range(rng.randint(0, 10))) for _ in range(2)]
        verdicts += [assert_dfa_agrees_with_re(regex, machine, word) for word in words]
    assert max(sizes) >= 24  # dozens of states, the dead state included
    assert DFA_POPULATION < verdicts.count(ACCEPT) < 3 * DFA_POPULATION


@given(regex_with_word())
@settings(max_examples=200)
def test_subset_dfas_agree_with_re(regex_word):
    regex, word = regex_word
    assert_dfa_agrees_with_re(regex, subset_dfa(thompson_ndfa(regex)), word)


def test_thompson_machine_of_a_star_around_a_union():
    # (a|ε)*: reading "a" takes two EMP steps in and two out, so the state
    # sets need EMP closures of more than one step
    regex = ("star", ("union", ("sym", "a"), ("eps",)))
    assert regex_pattern(regex) == "(?:(?:a|(?:)))*"
    machine = thompson_ndfa(regex)
    assert len(machine.states) == 8 and len(machine.finals) == 1
    assert sum(r.read == EMP for r in machine.rules) == 9 and len(machine.rules) == 10
    trace = show_transitions(machine, "a")
    assert [len(c.unconsumed) for c in trace.steps] == [1, 1, 1, 0, 0, 0]
    for word in ("", "a", "aaa"):
        assert apply(machine, word) == ACCEPT
    assert apply(machine, "ab") == REJECT
