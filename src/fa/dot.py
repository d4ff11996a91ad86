"""DOT serialization for machines and computation graphs, plus a text summary.

Conventions: the start state gets a forestgreen outline, final states a
double circle, highlighted states a crimson fill with white text, and dead
edges are dashed. Output is deterministic: nodes and edges are emitted in
sorted order and parallel edges are merged into one comma-joined label.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from .machines import ACCEPT, EMP, Machine

if TYPE_CHECKING:  # fa graph draws machines without loading the executor or the graph builder
    from .compgraph import ComputationGraph

EPSILON_LABEL = "ε"

_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"


def _display(read: str) -> str:
    return EPSILON_LABEL if read == EMP else read


def _node_line(name: str, attrs: list[str]) -> str:
    if attrs:
        return f'  "{name}" [{", ".join(attrs)}];'
    return f'  "{name}";'


def _state_attrs(machine: Machine, q: str) -> list[str]:
    attrs = []
    if q in machine.finals:
        attrs.append("shape=doublecircle")
    if q == machine.start:
        attrs.append("color=forestgreen")
    return attrs


def _edge_lines(labelled: dict, dashed_pairs=frozenset()) -> list[str]:
    lines = []
    for src, dst in sorted(labelled):
        label = ", ".join(sorted(labelled[src, dst]))
        attrs = [f'label="{label}"']
        if (src, dst) in dashed_pairs:
            attrs.append("style=dashed")
        lines.append(f'  "{src}" -> "{dst}" [{", ".join(attrs)}];')
    return lines


def machine_to_dot(machine: Machine) -> str:
    """Transition diagram of the machine in DOT syntax."""
    lines = ["digraph machine {", "  rankdir=LR;", "  node [shape=circle];"]
    for q in sorted(machine.states):
        lines.append(_node_line(q, _state_attrs(machine, q)))
    labelled: dict = defaultdict(set)
    for r in machine.rules:
        labelled[r.src, r.dst].add(_display(r.read))
    lines += _edge_lines(labelled)
    lines.append("}")
    return "\n".join(lines) + "\n"


def cgraph_to_dot(cg: ComputationGraph) -> str:
    """Computation graph in DOT syntax.

    Nodes are the edge endpoints plus the start state; dead edges come out
    dashed, everything else solid.
    """
    machine = cg.machine
    nodes = {machine.start}
    for e in cg.edges:
        nodes.add(e.src)
        nodes.add(e.dst)
    lines = ["digraph computation {", "  rankdir=LR;", "  node [shape=circle];"]
    for q in sorted(nodes):
        attrs = _state_attrs(machine, q)
        if q in cg.highlighted:
            attrs += ["style=filled", "fillcolor=crimson", "fontcolor=white"]
        lines.append(_node_line(q, attrs))
    labelled: dict = defaultdict(set)
    dashed = set()
    for e in cg.edges:
        labelled[e.src, e.dst].add(_display(e.read))
        if e.to_dead:
            dashed.add((e.src, e.dst))
    lines += _edge_lines(labelled, dashed)
    lines.append("}")
    return "\n".join(lines) + "\n"


def cgraph_summary(cg: ComputationGraph, color: bool = False) -> str:
    """Short plain-text account of a computation graph.

    One line each for the verdict, the states where some run ends, the
    number of machine edges used, and (when present) the dead edges.
    """
    verdict = cg.verdict
    ends = ", ".join(sorted(cg.highlighted))
    if color:
        verdict = f"{_GREEN if verdict == ACCEPT else _RED}{verdict}{_RESET}"
        ends = f"{_RED}{ends}{_RESET}"
    lines = [
        f"verdict: {verdict}",
        f"end states: {ends}",
        f"edges: {sum(1 for e in cg.edges if not e.to_dead)}",
    ]
    dead = sorted((e.src, e.read, e.dst) for e in cg.edges if e.to_dead)
    if dead:
        lines.append("dead edges: " + ", ".join(f"{s} -{r}-> {d}" for s, r, d in dead))
    return "\n".join(lines)
