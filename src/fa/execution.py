"""Running machines on words: verdicts, configuration traces, single steps.

One breadth-first search, accepting_run, decides words for apply, traces
ndfa runs for show_transitions and gives accepted graphs their edges.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from typing import NamedTuple

from .machines import DFA, EMP, Machine, Rule, ValidationError, Word

ACCEPT = "accept"
REJECT = "reject"


class WordError(ValueError):
    """A word that cannot be run, e.g. one with a symbol outside the alphabet.

    ``code`` carries a stable kebab-case identifier for the problem, e.g.
    ``"symbol-not-in-sigma"``.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class Config(NamedTuple):
    """A machine state together with the input suffix still to be consumed."""

    state: str
    unconsumed: Word


class Trace(NamedTuple):
    """One computation, as the configurations it passes through, plus its verdict."""

    steps: tuple[Config, ...]
    verdict: str


def check_word(machine: Machine, word: Sequence[str]) -> Word:
    """Normalize ``word`` to a symbol tuple, rejecting out-of-alphabet symbols."""
    w = tuple(word)
    for sym in w:
        if sym not in machine.sigma:
            raise WordError(
                "symbol-not-in-sigma", f"word symbol {sym!r} is not in the machine's alphabet"
            )
    return w


def step(machine: Machine, config: Config) -> list[tuple[Rule, Config]]:
    """All (rule, successor) pairs applicable at ``config``, in machine rule order.

    A rule applies when it leaves ``config.state`` and either reads nothing
    (EMP) or reads the first unconsumed symbol. An empty suffix admits only
    EMP rules.
    """
    state = config.state
    u = config.unconsumed
    out = []
    for r in machine.rules:
        if r.src != state:
            continue
        if r.read == EMP:
            out.append((r, Config(r.dst, u)))
        elif u and r.read == u[0]:
            out.append((r, Config(r.dst, u[1:])))
    return out


def accepting_run(machine: Machine, w: Word) -> tuple[Config, ...] | None:
    """Configurations of the first accepting computation on the checked word ``w``.

    Breadth-first search over configurations, successors in machine rule
    order; a visited set keeps any configuration from being explored twice,
    so EMP-only loops terminate. None means no computation accepts.
    """
    first = Config(machine.start, w)
    parent: dict[Config, Config | None] = {first: None}
    queue = deque([first])
    while queue:
        config = queue.popleft()
        if not config.unconsumed and config.state in machine.finals:
            steps = []
            at: Config | None = config
            while at is not None:
                steps.append(at)
                at = parent[at]
            return tuple(reversed(steps))
        for _, succ in step(machine, config):
            if succ not in parent:
                parent[succ] = config
                queue.append(succ)
    return None


def apply(machine: Machine, word: Sequence[str]) -> str:
    """Decide the word: ACCEPT iff some computation consumes all of it and
    ends in a final state.
    """
    return REJECT if accepting_run(machine, check_word(machine, word)) is None else ACCEPT


def show_transitions(machine: Machine, word: Sequence[str]) -> Trace | None:
    """Trace of one computation on ``word``.

    For a dfa this is the unique run, whatever the verdict. For an ndfa a
    trace exists only on acceptance: the first accepting computation found
    by breadth-first search (ties broken by rule order) is returned, and
    None stands for "rejected, no trace".
    """
    w = check_word(machine, word)
    if machine.kind == DFA:
        return _dfa_trace(machine, w)
    run = accepting_run(machine, w)
    return None if run is None else Trace(run, ACCEPT)


def _dfa_trace(machine: Machine, w: Word) -> Trace:
    # make_dfa completes the function; only a Machine built directly can miss
    delta = {(r.src, r.read): r.dst for r in machine.rules}
    state, u = machine.start, w
    steps = [Config(state, u)]
    while u:
        try:
            state, u = delta[state, u[0]], u[1:]
        except KeyError:
            raise ValidationError(
                "incomplete-dfa", f"dfa has no transition from {state} on {u[0]}"
            ) from None
        steps.append(Config(state, u))
    verdict = ACCEPT if state in machine.finals else REJECT
    return Trace(tuple(steps), verdict)
