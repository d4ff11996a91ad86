"""Verdicts checked against Python's re on Thompson machines of random regexes.

Every other oracle in helpers.py searches configurations, as fa itself
does; re.fullmatch is a backtracking matcher that shares nothing with it.
apply, the computation graph and an ndfa trace all decide by the forward
state sets, so a fault there would reach all three. Thompson machines are
built of EMP chains, EMP cycles and EMP-only stars, shapes the random
ndfas of the other tests seldom draw.
"""

import random

from hypothesis import given, settings

from fa import ACCEPT, EMP, REJECT, apply, build_computation_graph, show_transitions
from helpers import (
    random_regex,
    regex_matches,
    regex_pattern,
    regex_with_word,
    sample_word,
    thompson_ndfa,
)

POPULATION = 2000  # seeded regexes, four words each


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
