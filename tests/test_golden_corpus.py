"""Golden corpus: seeded (machine, word) cases frozen from an earlier build.

Every case in ``golden_corpus.jsonl`` is rebuilt from its stored machine
and word and compared field by field: verdict, trace, graph edges,
highlighted states, dead state, summary, and a digest of both DOT texts.
Rewrites of the execution or graph code must reproduce the corpus exactly;
a deliberate change of semantics regenerates it (and says so) with

    PYTHONPATH=src python tests/test_golden_corpus.py
"""

import hashlib
import json
import random
from pathlib import Path

from fa import (
    DFA,
    build_computation_graph,
    cgraph_summary,
    cgraph_to_dot,
    machine_to_dot,
    make_dfa,
    make_ndfa,
    show_transitions,
)
from helpers import STATE_POOL, random_ndfa, random_regex, random_word, sample_word, thompson_ndfa

CORPUS = Path(__file__).with_name("golden_corpus.jsonl")
SEED = 20260418
NDFA_CASES = 1500
DFA_CASES = 500
# Thompson machines of random regexes, made of the EMP chains and cycles that
# random ndfas seldom draw; their own generator leaves the earlier cases as they were
THOMPSON_SEED = 20261019
THOMPSON_CASES = 300


def random_completed_dfa(rng, max_states=5):
    states = list(STATE_POOL[: rng.randint(1, max_states)])
    sigma = list("ab"[: rng.randint(1, 2)])
    rules = [(q, s, rng.choice(states)) for q in states for s in sigma if rng.random() < 0.7]
    finals = [q for q in states if rng.random() < 0.4]
    return make_dfa(states, sigma, rng.choice(states), finals, rules)


def record(machine, word):
    """Everything the library says about ``machine`` on ``word``, as JSON-ready values."""
    cg = build_computation_graph(machine, word)
    trace = show_transitions(machine, word)
    dots = cgraph_to_dot(cg) + machine_to_dot(machine)
    return {
        "machine": [machine.kind, machine.states, machine.sigma, machine.start, machine.finals,
                    machine.rules],
        "word": "".join(word),
        "verdict": cg.verdict,
        "trace": None if trace is None else [
            trace.verdict, [[c.state, "".join(c.unconsumed)] for c in trace.steps]
        ],
        "edges": [[e.src, e.read, e.dst, int(e.to_dead)] for e in cg.edges],
        "highlighted": sorted(cg.highlighted),
        "dead": cg.dead,
        "summary": cgraph_summary(cg),
        "dot_sha256": hashlib.sha256(dots.encode()).hexdigest()[:16],
    }


def generate():
    rng = random.Random(SEED)
    cases = []
    for _ in range(NDFA_CASES):
        machine = random_ndfa(rng)
        cases.append(record(machine, random_word(rng, machine, max_len=8)))
    for _ in range(DFA_CASES):
        machine = random_completed_dfa(rng)
        cases.append(record(machine, random_word(rng, machine, max_len=8)))
    rng = random.Random(THOMPSON_SEED)
    for k in range(THOMPSON_CASES):
        regex = random_regex(rng)
        if k % 2:
            word = tuple(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        else:
            word = sample_word(rng.randint, regex)
        cases.append(record(thompson_ndfa(regex), word))
    return cases


def load():
    with CORPUS.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def rebuild(case):
    kind, states, sigma, start, finals, rules = case["machine"]
    make = make_dfa if kind == DFA else make_ndfa
    # a stored dfa is already complete, so make_dfa adds nothing to it
    return make(states, sigma, start, finals, rules)


def test_corpus_covers_both_kinds_and_both_verdicts():
    cases = load()
    assert len(cases) == NDFA_CASES + DFA_CASES + THOMPSON_CASES
    assert {(c["machine"][0], c["verdict"]) for c in cases} == {
        ("ndfa", "accept"), ("ndfa", "reject"), ("dfa", "accept"), ("dfa", "reject")
    }


def test_rebuilt_cases_match_the_corpus():
    cases = load()
    mismatches = []
    for case in cases:
        got = json.loads(json.dumps(record(rebuild(case), case["word"])))
        if got != case:
            mismatches.append((case["machine"], case["word"]))
    assert not mismatches, f"{len(mismatches)} of {len(cases)} cases differ, e.g. {mismatches[0]}"


if __name__ == "__main__":
    with CORPUS.open("w", encoding="utf-8", newline="\n") as out:
        for case in generate():
            out.write(json.dumps(case, separators=(",", ":"), ensure_ascii=False) + "\n")
    print(f"wrote {CORPUS}")
