"""Running machines on words: verdicts, end states and configuration traces.

apply decides a word by the last of its forward ε-closed state sets
(the subset construction, simulated lazily), so it keeps no
configurations. end_states gives that set to ndfa traces and to graphs,
which decide by it first, so a rejected word runs no search. Only an
accepted word runs accepting_run, one breadth-first search over (state,
position) pairs, whose run is the Trace show_transitions returns and
gives the accepted graph its edges. A pair reads only its state's rules,
and the search keeps O(|Q|·|w|) pairs; no trace holds a suffix.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
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
)

# (state set, symbol) steps kept per word. The limit bounds memory by O(|Q|)
# when the sets never repeat; words walked on small machines meet a dozen or
# so distinct steps, so their hit rate does not depend on it.
_MEMO_LIMIT = 256


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


def accepting_run(machine: Machine, w: Word) -> tuple[tuple[str, int], ...] | None:
    """The first accepting computation on the checked word ``w``, as (state, i) pairs.

    ``i`` counts the symbols consumed so far, so (q, i) stands for
    Config(q, w[i:]). Breadth-first search with a FIFO queue; a pair reads
    only the rules that leave its state, in machine order. A pair is queued
    at most once, so EMP-only loops terminate and the search keeps
    O(|Q|·|w|) pairs. None means no computation accepts.
    """
    n = len(w)
    finals = machine.finals
    leaving: dict[str, list] = {}  # source state -> its rules, in machine order
    for r in machine.rules:
        leaving.setdefault(r.src, []).append(r)
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
        for r in leaving.get(state, ()):
            if r.read == EMP:
                succ = (r.dst, i)
            elif r.read == sym:
                succ = (r.dst, i + 1)
            else:
                continue
            if succ not in parent:
                parent[succ] = at
                queue.append(succ)
    return None


def _state_sets(machine: Machine, w: Word) -> Iterator[frozenset[str]]:
    """The forward ε-closed state sets S_0, S_1, ... of the checked word ``w``.

    S_0 is the EMP-closure of the start state and S_{i+1} the EMP-closure of
    the states S_i reaches by reading w[i], so S_i holds exactly the states
    some computation is in with w[i:] left to consume. The sets stop after
    the first empty one, else after S_n. Steps are memoised on
    (S_i, w[i]), so once the sets repeat a symbol costs one dict lookup.
    """
    emp: dict[str, list[str]] = {}
    moves: dict[str, dict[str, list[str]]] = {}  # symbol -> state -> destinations
    for src, read, dst in machine.rules:
        if read == EMP:
            emp.setdefault(src, []).append(dst)
        else:
            moves.setdefault(read, {}).setdefault(src, []).append(dst)

    def closure(states: set[str]) -> frozenset[str]:
        todo = list(states)
        while todo:
            for dst in emp.get(todo.pop(), ()):
                if dst not in states:
                    states.add(dst)
                    todo.append(dst)
        return frozenset(states)

    current = closure({machine.start})
    yield current
    memo: dict[tuple[frozenset[str], str], frozenset[str]] = {}
    for sym in w:
        if not current:
            return
        key = (current, sym)
        nxt = memo.get(key)
        if nxt is None:
            if len(memo) == _MEMO_LIMIT:
                memo.clear()
            row = moves.get(sym, {})
            nxt = memo[key] = closure({d for q in current for d in row.get(q, ())})
        current = nxt
        yield current


def end_states(machine: Machine, w: Word) -> frozenset[str]:
    """S_n for the checked word ``w``: the states some computation ends in
    with all of ``w`` consumed, empty when every run gets stuck first."""
    for last in _state_sets(machine, w):
        pass
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
    # make_dfa checks the rules and completes the function; a Machine built
    # directly can have EMP rules, two rules on one pair, or none
    delta = dfa_delta(machine.rules)
    state = machine.start
    run = [(state, 0)]
    for i, sym in enumerate(w):
        try:
            state = delta[state, sym]
        except KeyError:
            raise ValidationError(
                "incomplete-dfa", f"dfa has no transition from {state} on {sym}"
            ) from None
        run.append((state, i + 1))
    return Trace(w, tuple(run), ACCEPT if state in machine.finals else REJECT)
