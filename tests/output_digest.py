"""One sha256 over everything the library says on a seeded case population.

Run it from the repository root, under two hash seeds, and compare the lines:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/output_digest.py

It prints ``<cases> <sha256>``. Each case adds its word, apply's verdict,
the trace's run and verdict (or the error code show_transitions raises),
and the computation graph's edges, highlighting and dead state, its DOT
text and its plain and coloured summaries. The cases are random ndfas,
Thompson machines of random regexes, the subset dfas of both (each also
with half its rules dropped, a dfa built directly and never completed),
and Cox's a?^n a^n machines for n = 10, 20 and 40. A rewrite that keeps
every output keeps the line; a set order that leaks into an output
changes it under one of the seeds.
"""

import hashlib
import json
import random

from fa import (
    ValidationError,
    apply,
    build_computation_graph,
    cgraph_summary,
    cgraph_to_dot,
    show_transitions,
)
from helpers import (
    cox_ndfa,
    random_ndfa,
    random_regex,
    random_word,
    sample_word,
    subset_dfa,
    thompson_ndfa,
)

SEED = 20261020
RANDOM_MACHINES = 4000
THOMPSON_MACHINES = 2000
WORDS_PER_MACHINE = 2
COX_SIZES = (10, 20, 40)


def outputs(machine, word):
    """Every output on ``machine`` and ``word``, as JSON-ready values."""
    try:
        trace = show_transitions(machine, word)
        traced = None if trace is None else [trace.verdict, trace.run]
    except ValidationError as error:
        traced = error.code
    cg = build_computation_graph(machine, word)
    return [
        "".join(word),
        apply(machine, word),
        traced,
        cg.edges,
        sorted(cg.highlighted),
        cg.dead,
        cgraph_to_dot(cg),
        cgraph_summary(cg),
        cgraph_summary(cg, color=True),
    ]


def thompson_word(rng, regex):
    """A word the regex matches, or any word over {a, b, c}, at even odds."""
    if rng.random() < 0.5:
        return sample_word(rng.randint, regex)
    return tuple(rng.choice("abc") for _ in range(rng.randint(0, 8)))


def cases():
    """(machine, word) pairs, in a fixed order."""
    rng = random.Random(SEED)
    sources = [(random_ndfa(rng), None) for _ in range(RANDOM_MACHINES)]
    for _ in range(THOMPSON_MACHINES):
        regex = random_regex(rng)
        sources.append((thompson_ndfa(regex), regex))
    for ndfa, regex in sources:
        dfa = subset_dfa(ndfa)
        for machine in (ndfa, dfa, dfa._replace(rules=dfa.rules[: len(dfa.rules) // 2])):
            for _ in range(WORDS_PER_MACHINE):
                if regex is None:
                    yield machine, random_word(rng, machine, max_len=8)
                else:
                    yield machine, thompson_word(rng, regex)
    for n in COX_SIZES:
        machine = cox_ndfa(n)
        for k in (0, n - 1, n, 2 * n, 2 * n + 1):
            yield machine, ("a",) * k
        yield machine, ("a",) * (n - 1) + ("b",)


def digest():
    sha = hashlib.sha256()
    count = 0
    for machine, word in cases():
        sha.update(json.dumps(outputs(machine, word), ensure_ascii=False).encode())
        sha.update(b"\n")
        count += 1
    return f"{count} {sha.hexdigest()}"


if __name__ == "__main__":
    print(digest())
