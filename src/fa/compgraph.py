"""Computation graphs: state-level summaries of every possible run on a word.

Unlike a computation tree, whose nodes are configurations, a computation
graph reuses the machine's own states as nodes and keeps only the
transitions some run could take. States where a run ends with the whole
word consumed are the graph's highlighted set; where a run gets stuck
mid-word, a dashed edge to a fresh dead state consumes the next symbol, so
nominally every run consumes its entire input. If the word is accepted the
graph is the single accepting run show_transitions traces.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .execution import Config, accepting_run, end_states
from .machines import ACCEPT, EMP, REJECT, Machine, Word, check_word, fresh_dead_state


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
    Its edges are read off the run's positions, so an accepted graph
    slices no suffix and needs only the search's O(|Q|·|w|) memory. A
    rejected word runs no search: it keeps the edges of the
    computation-tree traversal and highlights the end states, where its
    runs end with the word consumed. The dead state is highlighted when a
    dead edge exists, and so is the start state on the empty word, where
    the empty run ends. Accepted iff a highlighted state is final.
    """
    w = check_word(machine, word)
    ends = end_states(machine, w)
    if ends.isdisjoint(machine.finals):
        verdict = REJECT
        tree = computation_tree_to_cg_edges(machine, [Config(machine.start, w)], [])
        triples = {e.triple for e in tree}
        highlighted = set(ends)
    else:
        verdict = ACCEPT
        run = accepting_run(machine, w)
        triples = {(p, EMP if i == j else w[i], q) for (p, i), (q, j) in zip(run, run[1:])}
        highlighted = {run[-1][0]}
    dead: str | None = fresh_dead_state(machine.states)
    edges = [CGEdge(*t, to_dead=True) for t in sorted(triples) if t[2] == dead]
    if edges:
        highlighted.add(dead)
    else:
        dead = None
    edges += [CGEdge(*r) for r in machine.rules if r in triples]
    if not w:
        highlighted.add(machine.start)
    return ComputationGraph(machine, w, tuple(edges), frozenset(highlighted), dead, verdict)
