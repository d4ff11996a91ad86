"""Brute-force reference implementations, machine generators and a call
counter for tests.

The oracles here work directly off a machine's rule list with their own
plain traversals, so they share no code with the library paths they check.
"""

import re
from collections import deque

from hypothesis import strategies as st

import fa.execution
from fa import EMP, make_dfa, make_ndfa

STATE_POOL = ("S", "A", "B", "C", "D", "E")


def brute_force_accepts(machine, word):
    """Some configuration reachable from (start, word) is final with nothing left."""
    end_states, _, _ = computation_census(machine, word)
    return not end_states.isdisjoint(machine.finals)


def computation_census(machine, word):
    """Every configuration reachable from (start, word), summarized.

    Returns (end_states, used_rules, stuck) where end_states holds states
    reached with nothing left to consume, used_rules the rule triples some
    computation applies, and stuck the (state, next symbol) pairs where a
    computation cannot consume the next symbol.
    """
    w = tuple(word)
    todo = [(machine.start, w)]
    seen = {(machine.start, w)}
    end_states, used_rules, stuck = set(), set(), set()
    while todo:
        state, suffix = todo.pop()
        if not suffix:
            end_states.add(state)
        consuming = False
        for src, read, dst in machine.rules:
            if src != state:
                continue
            if read == EMP:
                succ = (dst, suffix)
            elif suffix and read == suffix[0]:
                succ = (dst, suffix[1:])
                consuming = True
            else:
                continue
            used_rules.add((src, read, dst))
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
        if suffix and not consuming:
            stuck.add((state, suffix[0]))
    return end_states, used_rules, stuck


def forward_sets(machine, word):
    """S_0, ..., S_n of ``word`` (or up to the first empty one), by plain scans of
    each state's rules, grouped from the rule list once per call."""
    leaving = {}
    for src, read, dst in machine.rules:
        leaving.setdefault(src, []).append((read, dst))

    def closed(states):
        todo = list(states)
        while todo:
            for read, dst in leaving.get(todo.pop(), ()):
                if read == EMP and dst not in states:
                    states.add(dst)
                    todo.append(dst)
        return frozenset(states)

    sets = [closed({machine.start})]
    for sym in word:
        if not sets[-1]:
            break
        moved = {dst for q in sets[-1] for read, dst in leaving.get(q, ()) if read == sym}
        sets.append(closed(moved))
    return sets


def first_accepting_run(machine, word):
    """The accepting computation a breadth-first search over configurations meets first.

    Configurations are (state, suffix still to read) pairs, searched with a
    FIFO queue, successors in machine rule order, each queued at most once.
    Returns the run as a list of configurations, or None when no
    computation accepts.
    """
    first = (machine.start, tuple(word))
    parent = {first: None}
    queue = deque([first])
    while queue:
        config = queue.popleft()
        state, suffix = config
        if not suffix and state in machine.finals:
            run = []
            while config is not None:
                run.append(config)
                config = parent[config]
            return run[::-1]
        for src, read, dst in machine.rules:
            if src != state:
                continue
            if read == EMP:
                succ = (dst, suffix)
            elif suffix and read == suffix[0]:
                succ = (dst, suffix[1:])
            else:
                continue
            if succ not in parent:
                parent[succ] = config
                queue.append(succ)
    return None


def count_calls(monkeypatch, names):
    """Count the calls made to each of ``names`` in fa.execution, by name."""
    calls = dict.fromkeys(names, 0)

    def counting(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(fa.execution, name, counting(name, getattr(fa.execution, name)))
    return calls


def random_ndfa(rng, max_states=6, max_rules=12):
    states = list(STATE_POOL[: rng.randint(1, max_states)])
    sigma = list("abc"[: rng.randint(1, 3)])
    labels = sigma + [EMP]
    rules = [
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(0, max_rules))
    ]
    finals = [q for q in states if rng.random() < 0.4]
    return make_ndfa(states, sigma, rng.choice(states), finals, rules)


def random_word(rng, machine, max_len=6):
    return tuple(rng.choice(machine.sigma) for _ in range(rng.randint(0, max_len)))


@st.composite
def ndfas(draw, max_states=6, max_rules=12):
    states = list(STATE_POOL[: draw(st.integers(1, max_states))])
    sigma = list("abc"[: draw(st.integers(1, 3))])
    labels = sigma + [EMP]
    rules = draw(
        st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(labels), st.sampled_from(states)),
            max_size=max_rules,
        )
    )
    start = draw(st.sampled_from(states))
    finals = draw(st.lists(st.sampled_from(states), unique=True, max_size=len(states)))
    return make_ndfa(states, sigma, start, finals, rules)


@st.composite
def ndfa_with_word(draw, max_states=6, max_rules=12, max_word=6):
    machine = draw(ndfas(max_states=max_states, max_rules=max_rules))
    word = tuple(draw(st.lists(st.sampled_from(list(machine.sigma)), max_size=max_word)))
    return machine, word


@st.composite
def dfas(draw, max_states=4):
    states = list(STATE_POOL[: draw(st.integers(1, max_states))])
    sigma = list("ab"[: draw(st.integers(1, 2))])
    partial = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(states), st.sampled_from(sigma)), st.sampled_from(states)
        )
    )
    rules = [(q, s, dst) for (q, s), dst in partial.items()]
    start = draw(st.sampled_from(states))
    finals = draw(st.lists(st.sampled_from(states), unique=True, max_size=len(states)))
    return make_dfa(states, sigma, start, finals, rules)


@st.composite
def dfa_with_word(draw, max_states=4, max_word=6):
    machine = draw(dfas(max_states=max_states))
    word = tuple(draw(st.lists(st.sampled_from(list(machine.sigma)), max_size=max_word)))
    return machine, word


def random_regex(rng, depth=4):
    """A random regular expression over {a, b, c}, as a tree of tuples.

    The nodes are ("sym", s), ("eps",), ("union", r, r), ("cat", r, r)
    and ("star", r); the tree is at most ``depth`` operators deep.
    """
    if depth == 0 or rng.random() < 0.3:
        return ("eps",) if rng.random() < 0.15 else ("sym", rng.choice("abc"))
    op = rng.choice(("union", "cat", "cat", "star"))
    if op == "star":
        return (op, random_regex(rng, depth - 1))
    return (op, random_regex(rng, depth - 1), random_regex(rng, depth - 1))


regexes = st.recursive(
    st.sampled_from([("eps",), ("sym", "a"), ("sym", "b"), ("sym", "c")]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("union", "cat")), inner, inner),
        st.tuples(st.just("star"), inner),
    ),
    max_leaves=8,
)


def regex_pattern(regex):
    """``regex`` in the syntax of Python's re module."""
    op = regex[0]
    if op == "sym":
        return regex[1]
    if op == "eps":
        return "(?:)"
    if op == "union":
        return f"(?:{regex_pattern(regex[1])}|{regex_pattern(regex[2])})"
    if op == "cat":
        return regex_pattern(regex[1]) + regex_pattern(regex[2])
    return f"(?:{regex_pattern(regex[1])})*"


def regex_matches(regex, word):
    """Python's backtracking matcher, which shares nothing with fa, on ``word``."""
    return re.fullmatch(regex_pattern(regex), "".join(word)) is not None


def sample_word(choose, regex):
    """A word ``regex`` matches; ``choose(lo, hi)`` picks each branch and repeat count."""
    op = regex[0]
    if op == "sym":
        return (regex[1],)
    if op == "eps":
        return ()
    if op == "union":
        return sample_word(choose, regex[choose(1, 2)])
    if op == "cat":
        return sample_word(choose, regex[1]) + sample_word(choose, regex[2])
    return tuple(s for _ in range(choose(0, 2)) for s in sample_word(choose, regex[1]))


def thompson_ndfa(regex):
    """The Thompson (1968) construction of ``regex``, built with make_ndfa.

    Each node becomes a fragment with one entry and one exit state. A
    union and a star add an entry and an exit wired to their parts by EMP
    rules, and a concatenation joins its parts' exit and entry by one, so
    the machine is made of EMP chains, EMP cycles and EMP-only stars.
    """
    rules = []
    states = []

    def fresh():
        states.append(f"q{len(states)}")
        return states[-1]

    def build(node):
        op = node[0]
        if op == "cat":
            first_in, first_out = build(node[1])
            second_in, second_out = build(node[2])
            rules.append((first_out, EMP, second_in))
            return first_in, second_out
        entry, exit_ = fresh(), fresh()
        if op in ("sym", "eps"):
            rules.append((entry, node[1] if op == "sym" else EMP, exit_))
        elif op == "union":
            for part in node[1:]:
                part_in, part_out = build(part)
                rules.extend([(entry, EMP, part_in), (part_out, EMP, exit_)])
        else:
            part_in, part_out = build(node[1])
            rules.extend(
                [
                    (entry, EMP, part_in),
                    (entry, EMP, exit_),
                    (part_out, EMP, part_in),
                    (part_out, EMP, exit_),
                ]
            )
        return entry, exit_

    start, final = build(regex)
    return make_ndfa(states, list("abc"), start, [final], rules)


def cox_ndfa(n):
    """The Thompson machine of Cox's a?^n a^n, which accepts a^k for n <= k <= 2n.

    Its state sets grow with n and nearly every rule is an EMP rule: 69 of
    89 at n = 10.
    """
    parts = [("union", ("sym", "a"), ("eps",))] * n + [("sym", "a")] * n
    regex = parts[0]
    for part in parts[1:]:
        regex = ("cat", regex, part)
    return thompson_ndfa(regex)


def subset_dfa(ndfa):
    """The subset construction (Rabin and Scott 1959) of ``ndfa``, built with make_dfa.

    Each dfa state stands for an EMP-closed set of ndfa states, named by
    the order the construction first meets it. Moves into the empty set
    are left out, so make_dfa routes them to its dead state.
    """

    def closure(states):
        closed, todo = set(states), list(states)
        while todo:
            q = todo.pop()
            for src, read, dst in ndfa.rules:
                if src == q and read == EMP and dst not in closed:
                    closed.add(dst)
                    todo.append(dst)
        return frozenset(closed)

    start = closure({ndfa.start})
    names = {start: "D0"}
    todo, rules = [start], []
    while todo:
        current = todo.pop()
        for sym in ndfa.sigma:
            moved = {dst for src, read, dst in ndfa.rules if src in current and read == sym}
            if not moved:
                continue
            target = closure(moved)
            if target not in names:
                names[target] = f"D{len(names)}"
                todo.append(target)
            rules.append((names[current], sym, names[target]))
    finals = [name for subset, name in names.items() if not subset.isdisjoint(ndfa.finals)]
    return make_dfa(list(names.values()), ndfa.sigma, "D0", finals, rules)


@st.composite
def regex_with_word(draw):
    """A regex and, half the time, a word it matches, else any word over {a, b, c}."""
    regex = draw(regexes)
    if draw(st.booleans()):
        word = sample_word(lambda lo, hi: draw(st.integers(lo, hi)), regex)
    else:
        word = tuple(draw(st.lists(st.sampled_from("abc"), max_size=6)))
    return regex, word


def regex_ndfa_with_word():
    """A Thompson machine and a word, drawn as regex_with_word draws them."""
    return regex_with_word().map(lambda rw: (thompson_ndfa(rw[0]), rw[1]))


_NODE_LINE = re.compile(r'^  "([^"]+)"(?: \[(.*)\])?;$')
_EDGE_LINE = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[label="([^"]*)"(, style=dashed)?\];$')


def parse_dot(text):
    """Read back our DOT output: (node -> attr text, (src, dst) -> (labels, dashed))."""
    nodes, edges = {}, {}
    for line in text.splitlines():
        match = _EDGE_LINE.match(line)
        if match:
            src, dst, label, dashed = match.groups()
            edges[src, dst] = (set(label.split(", ")), bool(dashed))
            continue
        match = _NODE_LINE.match(line)
        if match:
            nodes[match.group(1)] = match.group(2) or ""
    return nodes, edges
