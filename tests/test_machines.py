import json

import pytest
from hypothesis import given

from fa import (
    EMP,
    Machine,
    Rule,
    ValidationError,
    make_dfa,
    make_ndfa,
    parse_machine_text,
)
from fa.machines import fresh_dead_state
from helpers import dfas, ndfas


def err_code(callable_, *args, **kwargs):
    with pytest.raises(ValidationError) as info:
        callable_(*args, **kwargs)
    return info.value.code


class TestMakeNdfa:
    def test_builds_ten_rule_machine(self, two_branch):
        assert two_branch.kind == "ndfa"
        assert two_branch.states == tuple("SABCDEFG")
        assert two_branch.sigma == ("a", "b")
        assert two_branch.start == "S"
        assert two_branch.finals == ("S",)
        assert len(two_branch.rules) == 10
        assert two_branch.rules[0] == Rule("S", "a", "A")
        assert Rule("D", EMP, "S") in two_branch.rules

    def test_no_rules_machine(self):
        m = make_ndfa(["S"], ["a"], "S", ["S"], [])
        assert m.rules == ()
        assert m.states == ("S",)

    def test_start_not_in_states(self):
        assert err_code(make_ndfa, ["S"], ["a"], "Q", ["S"], []) == "start-not-in-states"

    def test_final_not_in_states(self):
        assert err_code(make_ndfa, ["S"], ["a"], "S", ["Q"], []) == "final-not-in-states"

    def test_rule_references_unknown_state(self):
        code = err_code(make_ndfa, ["S"], ["a"], "S", [], [("S", "a", "Q")])
        assert code == "rule-references-unknown-state"

    def test_rule_reads_unknown_symbol(self):
        code = err_code(make_ndfa, ["S"], ["a"], "S", [], [("S", "z", "S")])
        assert code == "rule-reads-unknown-symbol"

    @pytest.mark.parametrize(
        "rule",
        [
            "SaS",
            ("S", "a"),
            ("S", "a", "S", "S"),
            {"S", "a", "F"},
            frozenset({"S", "a", "F"}),
            {"S": 0, "a": 1, "F": 2},
            5,
            None,
            iter(("S", "a", "S")),
        ],
    )
    def test_rule_that_is_not_a_triple_is_malformed(self, rule):
        # only a list or tuple is a rule: a string is not split into
        # (from, read, to), and a set's order depends on PYTHONHASHSEED
        assert err_code(make_ndfa, ["S"], ["a"], "S", [], [rule]) == "malformed-rule"

    def test_malformed_rule_wins_over_an_earlier_unknown_state(self):
        rules = [("S", "a", "Q"), ("S", "z", "S"), ("S", 1, "S")]
        assert err_code(make_ndfa, ["S"], ["a"], "S", [], rules) == "malformed-rule"
        assert err_code(make_ndfa, ["S"], ["a"], "S", [], rules[:2]) == "rule-references-unknown-state"
        assert err_code(make_ndfa, ["S"], ["a"], "S", [], rules[1:2]) == "rule-reads-unknown-symbol"

    def test_document_rules_become_rules(self):
        class Name(str):
            pass

        m = make_ndfa(["S"], ["a"], "S", [], [["S", "a", "S"], [Name("S"), EMP, "S"]])
        assert [type(r) for r in m.rules] == [Rule, Rule]
        assert m.rules == (Rule("S", "a", "S"), Rule("S", EMP, "S"))

    def test_parsed_document_shares_state_names(self):
        # json.loads gives every mention of a name its own string object
        doc = {
            "kind": "ndfa",
            "states": ["Start", "Next"],
            "sigma": ["a"],
            "start": "Start",
            "finals": ["Next"],
            "rules": [["Start", "a", "Next"], ["Next", "EMP", "Start"]],
        }
        m = parse_machine_text(json.dumps(doc))

        def shared(name):
            return any(name is q for q in m.states)

        assert shared(m.start)
        assert all(shared(q) for q in m.finals)
        for r in m.rules:
            assert shared(r.src) and shared(r.dst)
            assert r.read is EMP if r.read == EMP else any(r.read is s for s in m.sigma)

    def test_empty_state_set(self):
        assert err_code(make_ndfa, [], ["a"], "S", [], []) == "empty-state-set"

    def test_duplicate_symbol_in_sigma(self):
        assert err_code(make_ndfa, ["S"], ["a", "a"], "S", [], []) == "duplicate-symbol-in-sigma"

    @pytest.mark.parametrize("name", ["", "9S", "a b", "S!"])
    def test_bad_state_names(self, name):
        assert err_code(make_ndfa, [name], ["a"], name, [], []) == "bad-state-name"

    @pytest.mark.parametrize("symbol", ["", "A", "ab", "!"])
    def test_bad_symbols(self, symbol):
        assert err_code(make_ndfa, ["S"], [symbol], "S", [], []) == "bad-symbol"

    def test_state_symbol_clash(self):
        assert err_code(make_ndfa, ["q"], ["q"], "q", [], []) == "state-symbol-clash"

    def test_duplicates_dropped_keeping_first_occurrence(self):
        m = make_ndfa(
            ["S", "A", "S"],
            ["a"],
            "S",
            ["A", "A"],
            [("S", "a", "A"), ("S", "a", "A"), ("A", EMP, "S")],
        )
        assert m.states == ("S", "A")
        assert m.finals == ("A",)
        assert m.rules == (Rule("S", "a", "A"), Rule("A", EMP, "S"))

    def test_empty_alphabet_is_allowed(self):
        m = make_ndfa(["S"], [], "S", ["S"], [])
        assert m.sigma == ()

    def test_digit_symbols(self):
        m = make_ndfa(["S"], ["0", "1"], "S", [], [("S", "0", "S")])
        assert m.sigma == ("0", "1")


class TestMakeDfa:
    def test_completion_adds_dead_state(self, abstar):
        assert abstar.kind == "dfa"
        assert abstar.states == ("S", "F", "ds")
        assert abstar.rules == (
            Rule("S", "a", "F"),
            Rule("F", "b", "F"),
            Rule("S", "b", "ds"),
            Rule("F", "a", "ds"),
            Rule("ds", "a", "ds"),
            Rule("ds", "b", "ds"),
        )
        assert "ds" not in abstar.finals

    def test_total_rules_with_no_dead(self):
        m = make_dfa(["S"], ["a"], "S", ["S"], [("S", "a", "S")], no_dead=True)
        assert m.rules == (Rule("S", "a", "S"),)
        assert m.states == ("S",)

    def test_total_rules_without_no_dead_stay_untouched(self):
        m = make_dfa(["S"], ["a"], "S", ["S"], [("S", "a", "S")])
        assert m.states == ("S",)

    def test_nondeterministic_pair_rejected(self):
        code = err_code(
            make_dfa, ["S", "F"], ["a"], "S", ["F"], [("S", "a", "F"), ("S", "a", "S")]
        )
        assert code == "nondeterministic-rules"

    def test_emp_rule_rejected(self):
        code = err_code(make_dfa, ["S", "F"], ["a"], "S", ["F"], [("S", EMP, "F")])
        assert code == "nondeterministic-rules"

    def test_incomplete_with_no_dead(self):
        code = err_code(make_dfa, ["S", "F"], ["a"], "S", ["F"], [("S", "a", "F")], no_dead=True)
        assert code == "incomplete-with-no-dead"

    def test_empty_alphabet_needs_no_completion(self):
        m = make_dfa(["S"], [], "S", ["S"], [])
        assert m.states == ("S",)
        assert m.rules == ()


class TestFreshDeadState:
    def test_plain(self, abstar):
        m = make_ndfa(["S", "F"], ["a"], "S", [], [])
        assert fresh_dead_state(m.states) == "ds"
        assert fresh_dead_state(abstar.states) == "ds0"  # completion already took ds

    def test_single_collision(self):
        m = make_ndfa(["S", "ds"], ["a"], "S", [], [])
        assert fresh_dead_state(m.states) == "ds0"

    def test_double_collision(self):
        m = make_ndfa(["ds", "ds0"], ["a"], "ds", [], [])
        assert fresh_dead_state(m.states) == "ds1"


@given(ndfas())
def test_ndfa_constructor_idempotent(machine):
    again = make_ndfa(machine.states, machine.sigma, machine.start, machine.finals, machine.rules)
    assert again == machine


@given(dfas())
def test_dfa_constructor_idempotent(machine):
    again = make_dfa(machine.states, machine.sigma, machine.start, machine.finals, machine.rules)
    assert again == machine


@given(dfas())
def test_dfa_transition_function_is_total(machine):
    pairs = [(r.src, r.read) for r in machine.rules]
    assert sorted(pairs) == sorted((q, s) for q in machine.states for s in machine.sigma)


@given(dfas())
def test_dead_state_completion_rule_count(machine):
    # rebuild from the pre-completion rules to observe what completion added
    given_rules = [r for r in machine.rules if "ds" not in (r.src, r.dst)]
    rebuilt = make_dfa(
        [q for q in machine.states if q != "ds"],
        machine.sigma,
        machine.start,
        machine.finals,
        given_rules,
    )
    expected_total = len(rebuilt.states) * len(rebuilt.sigma)
    assert len(rebuilt.rules) == expected_total
    added = [r for r in rebuilt.rules if r not in given_rules]
    assert len(added) == expected_total - len(given_rules)
    assert all(r.dst == "ds" for r in added)


@given(ndfas())
def test_validation_soundness(machine: Machine):
    states = set(machine.states)
    assert machine.start in states
    assert set(machine.finals) <= states
    assert len(set(machine.rules)) == len(machine.rules)
    for r in machine.rules:
        assert {r.src, r.dst} <= states
        assert r.read == EMP or r.read in machine.sigma
