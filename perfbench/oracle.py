"""Independent reference for every output the benchmark checks.

Nothing here imports ``fa``. Machines are modelled as ``Spec`` values built
straight from their JSON documents, and every question about a word is
answered by one breadth-first search over (state, input position) with a
per-state rule index, so a check costs O(|Q|·|w|·rules-per-state) however
long the word is. ``check_*`` functions return ``None`` when an output is
right and a one-line description of the first mismatch otherwise.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from typing import NamedTuple

EMP = "EMP"
ACCEPT = "accept"
REJECT = "reject"


class Spec(NamedTuple):
    """A machine as its document defines it, after duplicate removal and dfa completion."""

    kind: str
    states: tuple
    sigma: tuple
    start: str
    finals: tuple
    rules: tuple  # (src, read, dst) triples, in document order


def _dedup(items):
    return list(dict.fromkeys(items))


def dead_name(states) -> str:
    """The fresh dead-state name: ``ds`` unless taken, then ``ds0``, ``ds1``, ..."""
    if "ds" not in states:
        return "ds"
    n = 0
    while f"ds{n}" in states:
        n += 1
    return f"ds{n}"


def spec_from_doc(doc: dict) -> Spec:
    """The machine a well-formed document describes.

    A dfa missing some (state, symbol) moves gets a fresh non-final dead
    state: missing moves go there, and it loops to itself on every symbol.
    """
    states = _dedup(doc["states"])
    sigma = list(doc["sigma"])
    finals = _dedup(doc["finals"])
    rules = _dedup(tuple(r) for r in doc["rules"])
    if doc["kind"] == "dfa":
        covered = {(src, read) for src, read, _ in rules}
        missing = [(q, s) for q in states for s in sigma if (q, s) not in covered]
        if missing:
            dead = dead_name(states)
            rules += [(q, s, dead) for q, s in missing] + [(dead, s, dead) for s in sigma]
            states.append(dead)
    return Spec(doc["kind"], tuple(states), tuple(sigma), doc["start"], tuple(finals), tuple(rules))


class Census(NamedTuple):
    """Everything reachable from (start, 0) on one word."""

    verdict: str
    configs: int  # reachable (state, position) configurations
    ends: frozenset  # states reached with the whole word consumed
    used: frozenset  # rule triples some reachable configuration applies
    stuck: frozenset  # (state, next symbol) pairs where no rule consumes the next symbol
    shortest: int | None  # fewest rule applications to accept, None on reject


def census(spec: Spec, word) -> Census:
    w = tuple(word)
    n = len(w)
    finals = set(spec.finals)
    by_src = defaultdict(list)
    for rule in spec.rules:
        by_src[rule[0]].append(rule)
    first = (spec.start, 0)
    dist = {first: 0}
    queue = deque([first])
    ends, used, stuck = set(), set(), set()
    shortest = None
    while queue:
        state, i = queue.popleft()
        if i == n:
            ends.add(state)
            if shortest is None and state in finals:
                shortest = dist[state, i]
        consumed = False
        for rule in by_src[state]:
            _, read, dst = rule
            if read == EMP:
                succ = (dst, i)
            elif i < n and read == w[i]:
                succ = (dst, i + 1)
                consumed = True
            else:
                continue
            used.add(rule)
            if succ not in dist:
                dist[succ] = dist[state, i] + 1
                queue.append(succ)
        if i < n and not consumed:
            stuck.add((state, w[i]))
    verdict = ACCEPT if ends & finals else REJECT
    return Census(verdict, len(dist), frozenset(ends), frozenset(used), frozenset(stuck), shortest)


def accepts(spec: Spec, word) -> bool:
    return census(spec, word).verdict == ACCEPT


def _runs_to(triples, start, word, target) -> bool:
    """Whether the rule triples alone carry (start, 0) to (target, |w|)."""
    w = tuple(word)
    by_src = defaultdict(list)
    for triple in triples:
        by_src[triple[0]].append(triple)
    seen = {(start, 0)}
    queue = deque(seen)
    while queue:
        state, i = queue.popleft()
        if state == target and i == len(w):
            return True
        for _, read, dst in by_src[state]:
            if read == EMP:
                succ = (dst, i)
            elif i < len(w) and read == w[i]:
                succ = (dst, i + 1)
            else:
                continue
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return False


# ---- expected outputs, checked field by field --------------------------------


class Graph(NamedTuple):
    """A computation graph reduced to plain values, as the checks read it."""

    verdict: str
    edges: frozenset  # (src, read, dst, to_dead)
    highlighted: frozenset
    dead: str | None


def check_verdict(c: Census, verdict) -> str | None:
    if verdict != c.verdict:
        return f"verdict {verdict!r}, expected {c.verdict!r}"
    return None


def run_triples(steps) -> set:
    """The rule triples a run of (state, unconsumed) steps applies."""
    return {(q, EMP if u == v else u[0], r) for (q, u), (r, v) in zip(steps, steps[1:])}


def check_graph(spec: Spec, word, c: Census, g: Graph, run=None) -> str | None:
    """Today's computation-graph semantics.

    Reject: solid edges are exactly the applied rules, dashed edges exactly
    the stuck pairs (into the fresh dead state, which is then highlighted),
    and the highlighted states are those reached with the word consumed.
    Accept: solid machine rules only, one accepting run over them that ends
    in the one highlighted final state; given the ``run`` that
    show_transitions returned (checked on its own by check_trace), the
    edges are exactly its rules and it ends in the highlighted state. On
    the empty word the start state is highlighted as well.
    """
    if g.verdict != c.verdict:
        return f"graph verdict {g.verdict!r}, expected {c.verdict!r}"
    w = tuple(word)
    dead = dead_name(spec.states)
    solid = {e[:3] for e in g.edges if not e[3]}
    dashed = {e[:3] for e in g.edges if e[3]}
    extra = {spec.start} if not w else set()
    if c.verdict == REJECT:
        want_dashed = {(q, a, dead) for q, a in c.stuck}
        want_high = set(c.ends) | extra | ({dead} if c.stuck else set())
        if solid != c.used:
            return f"solid edges differ from applied rules by {sorted(solid ^ c.used)[:3]}"
        if dashed != want_dashed:
            return f"dead edges differ by {sorted(dashed ^ want_dashed)[:3]}"
        if g.highlighted != want_high:
            return f"highlighted {sorted(g.highlighted)}, expected {sorted(want_high)}"
        if g.dead != (dead if c.stuck else None):
            return f"dead state {g.dead!r}"
        return None
    if dashed or g.dead is not None:
        return "accept graph has a dead edge"
    if not solid <= set(spec.rules):
        return f"accept graph edges {sorted(solid - set(spec.rules))[:3]} are not machine rules"
    ends = set(g.highlighted) - extra
    high_finals = [q for q in g.highlighted if q in spec.finals]
    if len(high_finals) != 1:
        return f"accept graph highlights finals {sorted(high_finals)}, expected exactly one"
    if not ends <= {high_finals[0]} | extra:
        return f"accept graph highlights {sorted(g.highlighted)}"
    if not _runs_to(solid, spec.start, w, high_finals[0]):
        return "accept graph edges carry no accepting run to the highlighted state"
    if run is not None:
        if solid != run_triples(run):
            return "accept graph edges are not the rules of the traced run"
        if set(g.highlighted) != {run[-1][0]} | extra:
            return "accept graph does not highlight where the traced run ends"
    return None


def check_trace(spec: Spec, word, c: Census, steps, verdict) -> str | None:
    """``steps`` is a list of (state, unconsumed tuple), or None for 'no trace'.

    A dfa has exactly one run. An ndfa trace exists only on acceptance and
    is a breadth-first (so fewest-steps) accepting run.
    """
    w = tuple(word)
    if spec.kind == "dfa":
        delta = {(src, read): dst for src, read, dst in spec.rules}
        state = spec.start
        want = [(state, w)]
        for i, sym in enumerate(w):
            state = delta[state, sym]
            want.append((state, w[i + 1 :]))
        if steps != want:
            return "dfa trace is not the unique run"
        if verdict != c.verdict:
            return f"dfa trace verdict {verdict!r}, expected {c.verdict!r}"
        return None
    if c.verdict == REJECT:
        return None if steps is None else "rejected ndfa word has a trace"
    if steps is None:
        return "accepted ndfa word has no trace"
    if verdict != ACCEPT:
        return f"ndfa trace verdict {verdict!r}"
    if not steps or steps[0] != (spec.start, w):
        return "trace does not start at (start, word)"
    rules = set(spec.rules)
    for (q, u), (r, v) in zip(steps, steps[1:]):
        if u == v:
            ok = (q, EMP, r) in rules
        else:
            ok = bool(u) and v == u[1:] and (q, u[0], r) in rules
        if not ok:
            return f"trace step {q}{u} -> {r}{v} uses no rule"
    last_state, last_rest = steps[-1]
    if last_rest or last_state not in spec.finals:
        return "trace does not end accepting"
    if len(steps) - 1 != c.shortest:
        return f"trace has {len(steps) - 1} steps, breadth-first run has {c.shortest}"
    return None


# ---- DOT text and CLI output -------------------------------------------------

_NODE = re.compile(r'^  "([^"]+)"(?: \[(.*)\])?;$')
_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)" \[label="([^"]*)"(, style=dashed)?\];$')


def parse_dot(text: str):
    """(node -> attribute text, (src, dst) -> (label set, dashed)) from our DOT output."""
    nodes, edges = {}, {}
    for line in text.splitlines():
        m = _EDGE.match(line)
        if m:
            src, dst, label, dashed = m.groups()
            edges[src, dst] = (frozenset(label.split(", ")), bool(dashed))
            continue
        m = _NODE.match(line)
        if m:
            nodes[m.group(1)] = m.group(2) or ""
    return nodes, edges


def _label(read: str) -> str:
    return "ε" if read == EMP else read


def check_dot(spec: Spec, g: Graph, text: str) -> str | None:
    """Nodes, highlighted nodes, edge labels and dashed edges of ``cgraph_to_dot`` text."""
    if not text.startswith("digraph computation {") or not text.endswith("}\n"):
        return "DOT text is not one computation digraph"
    nodes, edges = parse_dot(text)
    want_nodes = {spec.start} | {e[0] for e in g.edges} | {e[2] for e in g.edges}
    if set(nodes) != want_nodes:
        return f"DOT nodes differ by {sorted(set(nodes) ^ want_nodes)[:3]}"
    lit = {q for q, attrs in nodes.items() if "fillcolor=crimson" in attrs}
    if lit != set(g.highlighted):
        return f"DOT highlights {sorted(lit)}, expected {sorted(g.highlighted)}"
    want = defaultdict(set)
    want_dashed = set()
    for src, read, dst, to_dead in g.edges:
        want[src, dst].add(_label(read))
        if to_dead:
            want_dashed.add((src, dst))
    got = {pair: set(labels) for pair, (labels, _) in edges.items()}
    if got != dict(want):
        return "DOT edge labels differ from the graph's edges"
    if {pair for pair, (_, dashed) in edges.items() if dashed} != want_dashed:
        return "DOT dashed edges differ from the dead edges"
    return None


def expected_summary(g: Graph) -> str:
    lines = [
        f"verdict: {g.verdict}",
        f"end states: {', '.join(sorted(g.highlighted))}",
        f"edges: {sum(1 for e in g.edges if not e[3])}",
    ]
    dead = sorted(e[:3] for e in g.edges if e[3])
    if dead:
        lines.append("dead edges: " + ", ".join(f"{s} -{r}-> {d}" for s, r, d in dead))
    return "\n".join(lines)


def check_summary(g: Graph, text: str) -> str | None:
    return None if text == expected_summary(g) else "summary text differs"


def check_machine_dot(spec: Spec, text: str) -> str | None:
    """Every state a node (finals double-circled, start outlined) and every rule a label."""
    nodes, edges = parse_dot(text)
    if set(nodes) != set(spec.states):
        return "machine DOT nodes differ from the states"
    for q, attrs in nodes.items():
        if ("shape=doublecircle" in attrs) != (q in spec.finals):
            return f"machine DOT final marking wrong on {q}"
        if ("color=forestgreen" in attrs) != (q == spec.start):
            return f"machine DOT start marking wrong on {q}"
    want = defaultdict(set)
    for src, read, dst in spec.rules:
        want[src, dst].add(_label(read))
    if {pair: set(labels) for pair, (labels, _) in edges.items()} != dict(want):
        return "machine DOT edges differ from the rules"
    return None


def graph_from_stdout(spec: Spec, dot_text: str, verdict: str) -> Graph:
    """The graph a CLI ``compgraph`` printed, read back from its DOT text."""
    nodes, edges = parse_dot(dot_text)
    triples = set()
    for (src, dst), (labels, dashed) in edges.items():
        for label in labels:
            triples.add((src, EMP if label == "ε" else label, dst, dashed))
    lit = frozenset(q for q, attrs in nodes.items() if "fillcolor=crimson" in attrs)
    dead = dead_name(spec.states) if any(t[3] for t in triples) else None
    return Graph(verdict, frozenset(triples), lit, dead)


def check_cli(spec: Spec, command: str, word, c: Census | None, code: int, out: str) -> str | None:
    """Exit code and standard output of one ``fa`` process."""
    if command == "validate":
        want = (
            f"ok: {spec.kind} with {len(spec.states)} states, "
            f"{len(spec.sigma)} symbols, {len(spec.rules)} rules\n"
        )
        return None if (code, out) == (0, want) else f"validate printed {out!r} exit {code}"
    if command == "graph":
        if code != 0:
            return f"graph exit {code}"
        return check_machine_dot(spec, out)
    want_code = 0 if c.verdict == ACCEPT else 1
    if code != want_code:
        return f"{command} exit {code}, expected {want_code}"
    if command == "apply":
        return None if out == c.verdict + "\n" else f"apply printed {out!r}"
    if command == "trace":
        lines = out.splitlines()
        if spec.kind == "ndfa" and c.verdict == REJECT:
            return None if lines == ["no trace: word rejected by ndfa"] else "trace printed a run"
        steps = []
        for line in lines[:-1]:
            m = re.fullmatch(r"\(([^)]*)\) (\S+)", line)
            if not m:
                return f"trace line {line!r}"
            steps.append((m.group(2), tuple(m.group(1).split())))
        return check_trace(spec, word, c, steps, lines[-1] if lines else None)
    if command == "compgraph":
        dot_end = out.find("}\n") + 2
        if dot_end < 2:
            return "compgraph printed no DOT"
        dot_text, summary = out[:dot_end], out[dot_end:].rstrip("\n")
        g = graph_from_stdout(spec, dot_text, c.verdict)
        return (
            check_graph(spec, word, c, g)
            or check_dot(spec, g, dot_text)
            or check_summary(g, summary)
        )
    return f"unknown command {command!r}"
