"""Running machines on words: verdicts, traces and computation graphs.

Verdicts come from S_n, the last forward ε-closed state set, an int bit
mask with bit k for machine.states[k]; only an accepted word runs
accepting_run's (state, position) search. Recently used machines
keep their tables (_Tables), and the last word asked about is kept
(_asked).
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Sequence
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

# Rules of the machines whose tables are kept; the last machine's are kept
# whatever its size.
_RULE_BUDGET = 2**14
# Row entries (state-set steps, two masks each) kept per machine; full rows
# are emptied.
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
    """One kept Machine's tables, each built the first time a call needs it.

    ``moves[symbol][state]`` is a dfa's move table.
    ``applicable[symbol][state]`` lists the rules a pair reading ``symbol``
    can take, in machine order, as (dst, consumed, position) triples;
    ``applicable[None]`` lists the EMP rules alone. ``closures`` maps each
    ndfa state to its EMP-closure, ``row_tables`` holds each symbol's row
    table, and ``rows[symbol][S]`` is the lazy DFA's step from S, ``steps``
    counting its entries. The first build checks that the start and every
    rule's ends are states, as make_ndfa does, and a build that raises
    keeps nothing. The record holds its machine, so no other machine can
    take its id while it is kept.
    """

    def __init__(self, machine: Machine) -> None:
        if machine.start not in machine.states:
            raise ValidationError(
                "start-not-in-states", f"start state {machine.start!r} is not in the state set"
            )
        self.machine = machine
        self.rows: dict[str, dict[int, int]] = {sym: {} for sym in machine.sigma}
        self.steps = 0
        self.row_tables: dict[str, list[int]] = {}

    @cached_property
    def bits(self) -> dict[str, int]:
        return {q: 1 << k for k, q in enumerate(self.machine.states)}

    @cached_property
    def final_mask(self) -> int:
        finals = set(self.machine.finals)
        return sum(1 << k for k, q in enumerate(self.machine.states) if q in finals)

    @cached_property
    def moves(self) -> dict[str, dict[str, str]]:
        moves: dict[str, dict[str, str]] = {}
        names = set(self.machine.states)
        for (src, read), dst in dfa_delta(self.machine.rules).items():
            if src not in names or dst not in names:
                raise _unknown_state((src, read, dst))
            moves.setdefault(read, {})[src] = dst
        return moves

    @cached_property
    def applicable(self) -> dict[str | None, dict[str, tuple[tuple[str, int, int], ...]]]:
        # exact tuples, not the Rules: a loop unpacks a tuple subclass 3x slower
        names = set(self.machine.states)
        emp: dict[str, list[tuple[str, int, int]]] = {}
        table: dict[str | None, dict[str, list[tuple[str, int, int]]]] = {
            sym: {} for sym in self.machine.sigma
        }
        for k, (src, read, dst) in enumerate(self.machine.rules):
            if src not in names or dst not in names:
                raise _unknown_state((src, read, dst))
            if read == EMP:
                entry = (dst, 0, k)  # one tuple in every list it joins
                emp.setdefault(src, []).append(entry)
                for rules in table.values():
                    rules.setdefault(src, []).append(entry)
            elif read in table:
                table[read].setdefault(src, []).append((dst, 1, k))
        table[None] = emp
        return {sym: {q: tuple(rules) for q, rules in at.items()} for sym, at in table.items()}

    @cached_property
    def closures(self) -> dict[str, int]:
        emp = {q: [dst for dst, _, _ in rules] for q, rules in self.applicable[None].items()}
        return _closures(self.machine.states, emp)


def _unknown_state(rule: tuple[str, str, str]) -> ValidationError:
    return ValidationError(
        "rule-references-unknown-state", f"transition {rule} mentions an unknown state"
    )


# id(machine) -> its record, least recently used first; _last is the newest.
# _lock guards the cache, the rule count and each record's row count; the
# fast path of _tables reads _last alone.
_cache: dict[int, _Tables] = {}
_last: _Tables | None = None
_kept_rules = 0
_lock = threading.Lock()

# (machine, w, S_n's mask, run) for the last checked word: _end_mask fills it,
# and accepting_run or a dfa's trace adds the accepting run (None until one is
# found). Callers read it once and replace it whole, so threads asking
# different words never pair one word's run with another word's S_n.
_asked: tuple[Machine, Word, int, _Run | None] | None = None


def _tables(machine: Machine) -> _Tables:
    """The tables of ``machine``, keyed by identity: equality would hash
    every rule on every call."""
    global _last, _kept_rules
    tables = _last
    if tables is not None and tables.machine is machine:
        return tables
    with _lock:
        tables = _cache.pop(id(machine), None)
        if tables is None:
            tables = _Tables(machine)
            _kept_rules += len(machine.rules)
        _cache[id(machine)] = tables
        while _kept_rules > _RULE_BUDGET and len(_cache) > 1:
            old = _cache.pop(next(iter(_cache)))
            _kept_rules -= len(old.machine.rules)
        _last = tables
    return tables


def _forget() -> None:
    """Drop every kept table, row and word, as at import."""
    global _last, _kept_rules, _asked
    with _lock:
        _cache.clear()
        _last = _asked = None
        _kept_rules = 0


def accepting_run(machine: Machine, w: Word) -> _Run | None:
    """The first accepting computation on the checked word ``w``, as (state, i) pairs.

    ``i`` counts the symbols consumed so far, so (q, i) stands for
    Config(q, w[i:]). None means no computation accepts. The run found for
    the last word is kept next to that word's S_n, so asking again for an
    equal word on the same machine searches nothing.
    """
    global _asked
    asked = _asked
    if asked is None or asked[0] is not machine or asked[1] != w:
        return _search(machine, w)  # no S_n of w to keep a run next to
    _, word, ends, run = asked
    if run is None:
        run = _search(machine, w)
        if run is not None:
            _asked = (machine, word, ends, run)
    return run


def _search(machine: Machine, w: Word) -> _Run | None:
    """accepting_run's breadth-first search; a pair is queued at most once,
    so EMP-only loops end."""
    n = len(w)
    finals = machine.finals
    applicable = _tables(machine).applicable
    rules_at = [applicable[sym] for sym in w]
    rules_at.append(applicable[None])
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
        for dst, consumed, _ in rules_at[i].get(state, ()):
            succ = (dst, i + consumed)
            if succ not in parent:
                parent[succ] = at
                queue.append(succ)
    return None


def _walk(machine: Machine, w: Word) -> int:
    """S_n's mask for the checked word ``w``; a dfa built directly, never
    completed, gets its run stuck on a missing move."""
    tables = _tables(machine)
    if machine.kind == DFA:
        moves, state = tables.moves, machine.start
        try:
            for sym in w:
                state = moves[sym][state]
        except KeyError:
            return 0
        return tables.bits[state]
    rows = tables.rows
    current = tables.closures[machine.start]  # S_0
    for sym in w:
        nxt = rows[sym].get(current)
        if nxt is None:
            nxt = _step(tables, current, sym)
            if not nxt:
                return 0
            _keep(tables, current, sym, nxt)
        current = nxt
    return current


def _step(tables: _Tables, current: int, sym: str) -> int:
    """The mask S_i --sym--> S_{i+1}, one row-table entry per block of 4 states."""
    table = tables.row_tables.get(sym)
    if table is None:
        table = _row_table(tables, sym)
    nxt = at = 0
    for byte in current.to_bytes((current.bit_length() + 7) >> 3, "little"):
        nxt |= table[at + (byte & 15)] | table[at + 16 + (byte >> 4)]
        at += 32
    return nxt


def _row_table(tables: _Tables, sym: str) -> list[int]:
    """Build and keep the row table of ``sym``, as in the "Four Russians"
    method (Arlazarov et al. 1970).

    The states fall into blocks of 4, states[4j] to states[4j + 3], and
    entry 16j + v is the OR of the closed-successor masks (the EMP-closures
    of the states each reads ``sym`` into) of the states of block j whose
    bits v sets. Threads that build one table at once build equal lists,
    and the last one stored stays, so the walk takes no lock.
    """
    states, closures, rules = tables.machine.states, tables.closures, tables.applicable[sym]
    masks = [0] * ((len(states) + 7) & ~7)  # whole bytes of blocks, as _step reads them
    for k, q in enumerate(states):
        for dst, consumed, _ in rules.get(q, ()):
            if consumed:
                masks[k] |= closures[dst]
    table: list[int] = []
    four = iter(masks)
    for a, b, c, d in zip(four, four, four, four):
        ab, cd = a | b, c | d
        table += (0, a, b, ab, c, a | c, b | c, ab | c)
        table += (d, a | d, b | d, ab | d, cd, a | cd, b | cd, ab | cd)
    tables.row_tables[sym] = table
    return table


def _keep(tables: _Tables, current: int, sym: str, nxt: int) -> None:
    """Keep the step current --sym--> nxt in the rows of ``tables``,
    emptying them first once they hold _MEMO_LIMIT steps."""
    with _lock:
        if tables.steps >= _MEMO_LIMIT:
            for row in tables.rows.values():
                row.clear()
            tables.steps = 0
        tables.rows[sym][current] = nxt
        tables.steps += 1


def _closures(states: tuple[str, ...], emp: dict[str, list[str]]) -> dict[str, int]:
    """Every state's EMP-closure as a mask, from one pass over the EMP graph.

    The pass is Tarjan's (1972) strongly connected components algorithm,
    with an explicit stack instead of recursion, over the states that have
    EMP rules; any other state's closure is itself. It closes a component
    only after every component its EMP rules reach, so the component's
    closure is its own states OR the closures those rules lead to.
    """
    closure = {q: 1 << k for k, q in enumerate(states)}
    number: dict[str, int] = {}  # visiting order from 1; past every order once closed
    low: dict[str, int] = {}
    closed = len(emp) + 1
    open_: list[str] = []  # visited states whose component is not closed yet
    for root in emp:
        if root in number:
            continue
        number[root] = low[root] = len(number) + 1
        open_.append(root)
        path = [(root, iter(emp[root]))]
        while path:
            v, todo = path[-1]
            for u in todo:
                if u not in emp:
                    continue
                if u not in number:
                    number[u] = low[u] = len(number) + 1
                    open_.append(u)
                    path.append((u, iter(emp[u])))
                    break
                if number[u] < low[v]:
                    low[v] = number[u]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == number[v]:
                    members = []
                    while not members or members[-1] != v:
                        members.append(open_.pop())
                    mask = 0
                    for u in members:
                        mask |= closure[u]
                        for d in emp[u]:
                            mask |= closure[d]
                    for u in members:
                        closure[u] = mask
                        number[u] = closed
    return closure


def end_states(machine: Machine, w: Word) -> frozenset[str]:
    """S_n for the checked word ``w``: the states some computation ends in
    with all of ``w`` consumed, empty when every run gets stuck first."""
    return _names(machine.states, _end_mask(machine, w))


def _end_mask(machine: Machine, w: Word) -> int:
    """S_n's mask for the checked word ``w``, kept as the last word, so
    asking again for an equal word on the same machine walks no state set."""
    global _asked
    asked = _asked
    if asked is not None and asked[0] is machine and asked[1] == w:
        return asked[2]
    last = _walk(machine, w)
    _asked = (machine, w, last, None)
    return last


def _names(states: tuple[str, ...], mask: int) -> frozenset[str]:
    names = []
    while mask:
        k = mask.bit_length() - 1
        mask ^= 1 << k
        names.append(states[k])
    return frozenset(names)


def apply(machine: Machine, word: Sequence[str]) -> str:
    """Decide the word: ACCEPT iff some computation consumes all of it and
    ends in a final state.

    The decision walks the forward state sets, where a step is a row hit
    or at most ⌈|Q|/4⌉ ORs of row-table entries. So it takes O(|w|·|Q|)
    time and O(|Q|) memory on top of the row table of each symbol it
    reads (4·|Q| masks, built once per kept machine), and builds no
    configuration.
    """
    ends = _end_mask(machine, check_word(machine, word))
    return ACCEPT if ends & _tables(machine).final_mask else REJECT


def show_transitions(machine: Machine, word: Sequence[str]) -> Trace | None:
    """Trace of one computation on ``word``.

    For a dfa this is the unique run, whatever the verdict. For an ndfa a
    trace exists only on acceptance: the first accepting computation found
    by breadth-first search (ties broken by rule order) is returned, and
    None stands for "rejected, no trace". The verdict comes first, from
    S_n as apply finds it, so a rejected word costs apply's time and
    memory and runs no search. An accepted word's search keeps
    O(|Q|·|w|) (state, position) pairs, and the trace is its run, so it
    takes O(|w|) memory; only each access of ``steps`` copies suffixes.
    """
    w = check_word(machine, word)
    if machine.kind == DFA:
        return _dfa_trace(machine, w)
    if not _end_mask(machine, w) & _tables(machine).final_mask:
        return None
    return Trace(w, accepting_run(machine, w), ACCEPT)


def _dfa_trace(machine: Machine, w: Word) -> Trace:
    global _asked
    tables = _tables(machine)
    moves, state = tables.moves, machine.start
    steps = [(state, 0)]
    for i, sym in enumerate(w):
        try:
            state = moves[sym][state]
        except KeyError:
            raise ValidationError(
                "incomplete-dfa", f"dfa has no transition from {state} on {sym}"
            ) from None
        steps.append((state, i + 1))
    run = tuple(steps)
    accepted = state in machine.finals
    # a dfa has no EMP rule, so S_n is the one state its run ends in, and
    # its one run is the run accepting_run would find
    _asked = (machine, w, tables.bits[state], run if accepted else None)
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


def _tree_triples(machine: Machine, w: Word, dead: str) -> set[tuple[str, str, str]]:
    """A rejected graph's edges (src, read, dst), by breadth-first traversal
    of the computation tree from Config(start, w); a configuration that
    cannot consume its next symbol gets a dead edge into ``dead``."""
    frontier = [Config(machine.start, w)]
    visited: list[Config] = []
    triples: set[tuple[str, str, str]] = set()
    while True:
        level: list[CGEdge] = []
        for state, u in frontier:
            reads = (EMP, u[0] if u else EMP)
            edges = [CGEdge(*r) for r in machine.rules if r.src == state and r.read in reads]
            if u and all(e.read == EMP for e in edges):
                level.append(CGEdge(state, u[0], dead, to_dead=True))
            level += edges
        level = list(dict.fromkeys(level))
        triples.update(e[:3] for e in level)
        seen, nxt = set(visited), []
        for state, u in frontier:
            succs = []
            for e in level:
                if e.to_dead or e.src != state:
                    continue
                if e.read == EMP:
                    succs.append(Config(e.dst, u))
                elif u and e.read == u[0]:
                    succs.append(Config(e.dst, u[1:]))
            if succs and not all(s in seen for s in succs):
                nxt.extend(succs)
                seen.update(succs)
        if not nxt:
            return triples
        visited, frontier = frontier + visited, nxt


def build_computation_graph(machine: Machine, word: Sequence[str]) -> ComputationGraph:
    """Computation graph of ``machine`` on ``word``, edges in ComputationGraph's order.

    The verdict comes first, from S_n as apply decides it. An accepted
    word's edges are the rules of the run accepting_run finds (the trace
    show_transitions returns), put in machine order by the search's
    (symbol, state) rule lists, so it slices no suffix and needs only the
    search's O(|Q|·|w|) memory; it highlights where the run ends. A
    rejected word runs no search: its edges are _tree_triples', and it
    highlights S_n, plus the dead state when a dead edge exists. The start
    state is highlighted on the empty word, where the empty run ends.
    Accepted iff a highlighted state is final.
    """
    w = check_word(machine, word)
    ends = _end_mask(machine, w)
    edges: list[CGEdge] = []
    dead: str | None = None
    if not ends & _tables(machine).final_mask:
        verdict = REJECT
        name = fresh_dead_state(machine.states)
        triples = _tree_triples(machine, w, name)
        applied = [r for r in machine.rules if r in triples]
        highlighted = set(_names(machine.states, ends))
        edges = [CGEdge(*t, to_dead=True) for t in sorted(triples) if t[2] == name]
        if edges:
            dead = name
            highlighted.add(dead)
    else:  # the run takes only machine rules, so there is no dead edge
        verdict = ACCEPT
        run = accepting_run(machine, w)
        triples = {(p, EMP if i == j else w[i], q) for (p, i), (q, j) in zip(run, run[1:])}
        applicable = _tables(machine).applicable  # each triple reads only its pair's rules
        positions = (
            k
            for p, a, q in triples
            for d, consumed, k in applicable[None if a == EMP else a].get(p, ())
            if d == q and consumed == (a != EMP)
        )
        applied = [machine.rules[k] for k in sorted(positions)]
        highlighted = {run[-1][0]}
    edges += [CGEdge(*r) for r in applied]
    if not w:
        highlighted.add(machine.start)
    return ComputationGraph(machine, w, tuple(edges), frozenset(highlighted), dead, verdict)
