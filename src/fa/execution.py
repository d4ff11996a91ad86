"""Running machines on words: verdicts, traces and computation graphs.

apply decides a word by S_n, its last forward ε-closed state set, so it
keeps no configurations. Traces and graphs decide by S_n first; only an
accepted word runs accepting_run's (state, position) search. A computation
graph keeps the rules some run takes over the machine's own states, and
sends a run stuck mid-word along a dashed edge to a fresh dead state. The
last Machine used keeps its tables and its last word (_Tables).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from functools import cached_property
from typing import NamedTuple

from .machines import (
    ACCEPT,
    DFA,
    EMP,
    REJECT,
    Machine,
    ValidationError,
    Word,
    check_word,
    dfa_delta,
    fresh_dead_state,
)

# Row entries (state-set steps) kept per machine, across calls: O(|Q|) memory
# when the sets never repeat. Words on small machines meet a dozen or so
# distinct steps, so their hit rate does not depend on it.
_MEMO_LIMIT = 256

_Run = tuple[tuple[str, int], ...]


class Config(NamedTuple):
    """A machine state together with the input suffix still to be consumed."""

    state: str
    unconsumed: Word


class Trace(NamedTuple):
    """One computation on ``word``: its (state, i) pairs, each standing for
    Config(q, word[i:]) as ``steps`` builds it on access, and its verdict."""

    word: Word
    run: tuple[tuple[str, int], ...]
    verdict: str

    @property
    def steps(self) -> tuple[Config, ...]:
        return tuple(Config(q, self.word[i:]) for q, i in self.run)


class _Tables:
    """One Machine's tables, each built the first time a call needs it, and
    the last word asked about.

    ``moves`` (read -> state -> destinations; EMP is a read like any other)
    serves _walk and _dfa_trace, ``leaving`` (per-state (read, dst, index)
    lists in machine order) serves accepting_run, and _walk keeps S_0
    (``start``) and ``rows``: rows[S][symbol] is the step from state set S,
    filled on a miss (``steps`` entries; racing threads may undercount). A
    dfa's moves come from dfa_delta, so a bad dfa built directly fails
    every action, and a build that raises keeps nothing.

    ``asked`` is (w, S_n, run) for the last checked word: end_states fills
    it, and accepting_run or a dfa's trace adds the accepting run (None
    until one is found). Callers read it once and replace it whole, so
    threads asking one machine different words never pair one word's run
    with another word's S_n.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.rows: dict[frozenset[str], dict[str, frozenset[str]]] = {}
        self.steps = 0
        self.start: frozenset[str] | None = None  # S_0, once a walk needs it
        self.asked: tuple[Word, frozenset[str], _Run | None] | None = None

    @cached_property
    def moves(self) -> dict[str, dict[str, list[str]]]:
        rules = self.machine.rules
        if self.machine.kind == DFA:  # dfa_delta checks the rules as it reads them
            rules = [(src, read, dst) for (src, read), dst in dfa_delta(rules).items()]
        moves: dict[str, dict[str, list[str]]] = {}
        for src, read, dst in rules:
            moves.setdefault(read, {}).setdefault(src, []).append(dst)
        return moves

    @cached_property
    def leaving(self) -> dict[str, list[tuple[str, str, int]]]:
        leaving: dict[str, list[tuple[str, str, int]]] = {}
        for k, (src, read, dst) in enumerate(self.machine.rules):
            leaving.setdefault(src, []).append((read, dst, k))
        return leaving


_last: _Tables | None = None


def _tables(machine: Machine) -> _Tables:
    """The tables of ``machine``, kept for the last machine only.

    The key is identity: equality would hash every rule on every call.
    Threads that race here at worst build a table twice, as each call
    reads the one record it got.
    """
    global _last
    tables = _last
    if tables is None or tables.machine is not machine:
        tables = _last = _Tables(machine)
    return tables


def accepting_run(machine: Machine, w: Word) -> _Run | None:
    """The first accepting computation on the checked word ``w``, as (state, i) pairs.

    ``i`` counts the symbols consumed so far, so (q, i) stands for
    Config(q, w[i:]). None means no computation accepts. The run found for
    the machine's last word is kept next to that word's S_n, so asking
    again for an equal word searches nothing.
    """
    tables = _tables(machine)
    asked = tables.asked
    if asked is None or asked[0] != w:  # no S_n of w to keep a run next to
        return _search(machine, w)
    word, ends, run = asked
    if run is None:
        run = _search(machine, w)
        if run is not None:
            tables.asked = (word, ends, run)
    return run


def _search(machine: Machine, w: Word) -> _Run | None:
    """accepting_run's breadth-first search with a FIFO queue.

    A pair reads only the rules that leave its state, in machine order. A
    pair is queued at most once, so EMP-only loops terminate and the search
    keeps O(|Q|·|w|) pairs.
    """
    n = len(w)
    finals = machine.finals
    leaving = _tables(machine).leaving
    first = (machine.start, 0)
    parent: dict[tuple[str, int], tuple[str, int] | None] = {first: None}
    queue = deque([first])
    while queue:
        at = queue.popleft()
        state, i = at
        if i == n and state in finals:
            run = []
            while at is not None:
                run.append(at)
                at = parent[at]
            return tuple(reversed(run))
        sym = w[i] if i < n else None
        for read, dst, _ in leaving.get(state, ()):
            if read == EMP:
                succ = (dst, i)
            elif read == sym:
                succ = (dst, i + 1)
            else:
                continue
            if succ not in parent:
                parent[succ] = at
                queue.append(succ)
    return None


def _walk(machine: Machine, w: Word) -> frozenset[str]:
    """S_n, the last forward ε-closed state set of the checked word ``w``.

    S_{i+1} is the EMP-closure of the states S_i reaches by reading w[i];
    the walk stops at the first empty set. A step is two .get lookups (a
    KeyError costs more where most steps miss); only a miss calls _closure.
    """
    tables = _tables(machine)
    rows, moves = tables.rows, tables.moves
    emp = moves.get(EMP, {})
    current = tables.start
    if current is None:
        current = tables.start = _closure(emp, {machine.start})
    for sym in w:
        row = rows.get(current)
        nxt = row.get(sym) if row is not None else None
        if nxt is None:
            step = moves.get(sym, {})
            nxt = _closure(emp, {d for q in current for d in step.get(q, ())})
            if not nxt:
                return nxt
            if tables.steps >= _MEMO_LIMIT:
                rows.clear()
                tables.steps = 0
            rows.setdefault(current, {})[sym] = nxt
            tables.steps += 1
        current = nxt
    return current


def _closure(emp: dict[str, list[str]], states: set[str]) -> frozenset[str]:
    """The EMP-closure of ``states``, which it extends in place."""
    todo = list(states)
    while todo:
        for dst in emp.get(todo.pop(), ()):
            if dst not in states:
                states.add(dst)
                todo.append(dst)
    return frozenset(states)


def end_states(machine: Machine, w: Word) -> frozenset[str]:
    """S_n for the checked word ``w``: the states some computation ends in
    with all of ``w`` consumed, empty when every run gets stuck first.

    It is kept as the machine's last word, so asking again for an equal
    word walks no state set.
    """
    tables = _tables(machine)
    asked = tables.asked
    if asked is not None and asked[0] == w:
        return asked[1]
    last = _walk(machine, w)
    tables.asked = (w, last, None)
    return last


def apply(machine: Machine, word: Sequence[str]) -> str:
    """Decide the word: ACCEPT iff some computation consumes all of it and
    ends in a final state.

    The decision walks the forward state sets, so it takes O(|w|·|rules|)
    time and O(|Q|) memory and builds no configuration.
    """
    ends = end_states(machine, check_word(machine, word))
    return REJECT if ends.isdisjoint(machine.finals) else ACCEPT


def show_transitions(machine: Machine, word: Sequence[str]) -> Trace | None:
    """Trace of one computation on ``word``.

    For a dfa this is the unique run, whatever the verdict. For an ndfa a
    trace exists only on acceptance: the first accepting computation found
    by breadth-first search (ties broken by rule order) is returned, and
    None stands for "rejected, no trace". The verdict comes first, from
    end_states, so a rejected word costs O(|w|·|rules|) time and O(|Q|)
    memory and runs no search. An accepted word's search keeps
    O(|Q|·|w|) (state, position) pairs, and the trace is its run, so it
    takes O(|w|) memory; only each access of ``steps`` copies suffixes.
    """
    w = check_word(machine, word)
    if machine.kind == DFA:
        return _dfa_trace(machine, w)
    if end_states(machine, w).isdisjoint(machine.finals):
        return None
    return Trace(w, accepting_run(machine, w), ACCEPT)


def _dfa_trace(machine: Machine, w: Word) -> Trace:
    tables = _tables(machine)
    moves = tables.moves
    state = machine.start
    steps = [(state, 0)]
    for i, sym in enumerate(w):
        try:
            (state,) = moves[sym][state]
        except KeyError:
            raise ValidationError(
                "incomplete-dfa", f"dfa has no transition from {state} on {sym}"
            ) from None
        steps.append((state, i + 1))
    run = tuple(steps)
    accepted = state in machine.finals
    # a dfa has no EMP rule, so S_n is the one state its run ends in, and
    # its one run is the run accepting_run would find
    tables.asked = (w, frozenset((state,)), run if accepted else None)
    return Trace(w, run, ACCEPT if accepted else REJECT)


class CGEdge(NamedTuple):
    """One computation-graph edge.

    ``to_dead`` marks the dashed edge into the fresh dead state, taken when
    a run cannot consume the next symbol. Every non-dead edge is one of the
    machine's own rules.
    """

    src: str
    read: str
    dst: str
    to_dead: bool = False

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.src, self.read, self.dst)


class ComputationGraph(NamedTuple):
    """The computation graph of ``machine`` on the checked ``word``.

    ``edges`` lists the dead edges first, sorted by (src, read), then the
    machine rules some run applies (on an accepted word: the rules of the
    one accepting run), in ``machine.rules`` order. ``highlighted`` holds
    the states where a run ends with the word consumed, ``dead`` the dead
    state's name when a dead edge exists (else None), and ``verdict`` is
    ACCEPT or REJECT, as apply decides.
    """

    machine: Machine
    word: Word
    edges: tuple[CGEdge, ...]
    highlighted: frozenset[str]
    dead: str | None
    verdict: str


def edges_for_configuration(machine: Machine, config: Config, dead: str) -> list[CGEdge]:
    """The rules that apply at ``config``, in machine order, as edges.

    A rule applies when it leaves ``config.state`` and reads EMP or the
    next symbol. When a nonempty suffix has no consuming rule, the dead
    edge comes first: such runs never consume the next symbol here.
    """
    state, u = config
    sym = u[0] if u else EMP
    reads = (EMP, sym)
    edges = [CGEdge(*r) for r in machine.rules if r.src == state and r.read in reads]
    if u and all(e.read == EMP for e in edges):
        edges.insert(0, CGEdge(state, sym, dead, to_dead=True))
    return edges


def next_configurations(
    edges: Sequence[CGEdge], frontier: Sequence[Config], visited: Iterable[Config]
) -> list[Config]:
    """Configurations to explore next, given one level's edges and frontier.

    Successors are read off the edges (dead edges excluded: the dead state
    consumes the rest of the input by construction and needs no visit). A
    frontier configuration contributes nothing when every successor has
    been seen already; contributed successors count as seen for the rest of
    the same call.
    """
    seen = set(visited)
    out = []
    for config in frontier:
        state = config.state
        u = config.unconsumed
        succs = []
        for e in edges:
            if e.to_dead or e.src != state:
                continue
            if e.read == EMP:
                succs.append(Config(e.dst, u))
            elif u and e.read == u[0]:
                succs.append(Config(e.dst, u[1:]))
        if succs and not all(s in seen for s in succs):
            out.extend(succs)
            seen.update(succs)
    return out


def computation_tree_to_cg_edges(
    machine: Machine, frontier: Sequence[Config], visited: Sequence[Config]
) -> list[CGEdge]:
    """Collect edges by breadth-first traversal of the computation tree.

    Level by level: every frontier configuration contributes its edges
    (deduplicated within the level), the next frontier is derived from
    those edges, and the old frontier joins the visited accumulator. Stops
    when no new configurations remain. The result may still contain
    cross-level duplicates; build_computation_graph keeps each edge once.
    """
    dead = fresh_dead_state(machine.states)
    frontier = list(frontier)
    visited = list(visited)
    collected: list[CGEdge] = []
    while frontier:
        level = list(
            dict.fromkeys(
                edge for config in frontier for edge in edges_for_configuration(machine, config, dead)
            )
        )
        collected.extend(level)
        nxt = next_configurations(level, frontier, visited)
        if not nxt:
            break
        visited = frontier + visited
        frontier = nxt
    return collected


def build_computation_graph(machine: Machine, word: Sequence[str]) -> ComputationGraph:
    """Computation graph of ``machine`` on ``word``, edges in ComputationGraph's order.

    The verdict comes first, from end_states, as apply decides it. An
    accepted word keeps the steps of the run accepting_run finds (the
    trace show_transitions returns) and highlights the state it ends in.
    Its edges are read off the run's positions and put in machine order
    by the search's per-state rule lists, so an accepted graph slices no
    suffix, scans no rule list and needs only the search's O(|Q|·|w|)
    memory. A rejected word runs no search: it keeps the edges of the
    computation-tree traversal and highlights the end states, where its
    runs end with the word consumed. The dead state is highlighted when a
    dead edge exists, and so is the start state on the empty word, where
    the empty run ends. Accepted iff a highlighted state is final.
    """
    w = check_word(machine, word)
    ends = end_states(machine, w)
    edges: list[CGEdge] = []
    dead: str | None = None
    if ends.isdisjoint(machine.finals):
        verdict = REJECT
        tree = computation_tree_to_cg_edges(machine, [Config(machine.start, w)], [])
        triples = {e.triple for e in tree}
        applied = [r for r in machine.rules if r in triples]
        highlighted = set(ends)
        name = fresh_dead_state(machine.states)
        edges = [CGEdge(*t, to_dead=True) for t in sorted(triples) if t[2] == name]
        if edges:
            dead = name
            highlighted.add(dead)
    else:  # the run takes only machine rules, so there is no dead edge
        verdict = ACCEPT
        run = accepting_run(machine, w)
        triples = {(p, EMP if i == j else w[i], q) for (p, i), (q, j) in zip(run, run[1:])}
        leaving = _tables(machine).leaving  # each triple reads only its state's rules
        positions = (k for p, a, q in triples for r, d, k in leaving.get(p, ()) if r == a and d == q)
        applied = [machine.rules[k] for k in sorted(positions)]
        highlighted = {run[-1][0]}
    edges += [CGEdge(*r) for r in applied]
    if not w:
        highlighted.add(machine.start)
    return ComputationGraph(machine, w, tuple(edges), frozenset(highlighted), dead, verdict)
