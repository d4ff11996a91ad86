"""DOT serialization for machines and computation graphs, plus a text summary.

Conventions: the start state gets a forestgreen outline, final states a
double circle, highlighted states a crimson fill with white text, and dead
edges are dashed. Output is deterministic: nodes and edges are emitted in
sorted order and parallel edges are merged into one comma-joined label.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection, Iterable
from typing import TYPE_CHECKING

from .machines import ACCEPT, EMP, Machine

if TYPE_CHECKING:  # fa graph draws machines without loading fa.execution
    from .execution import ComputationGraph

EPSILON_LABEL = "ε"

_RED = "\x1b[31m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"


def _to_dot(
    name: str,
    machine: Machine,
    nodes: Iterable[str],
    edges: Iterable[tuple[str, str, str, bool]],
    highlighted: Collection[str],
) -> str:
    """DOT text of ``nodes`` and ``(src, read, dst, to_dead)`` edges drawn over ``machine``."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    for q in sorted(nodes):
        attrs = []
        if q in machine.finals:
            attrs.append("shape=doublecircle")
        if q == machine.start:
            attrs.append("color=forestgreen")
        if q in highlighted:
            attrs += ["style=filled", "fillcolor=crimson", "fontcolor=white"]
        lines.append(f'  "{q}" [{", ".join(attrs)}];' if attrs else f'  "{q}";')
    labels: dict = defaultdict(set)
    dashed = set()
    for src, read, dst, to_dead in edges:
        labels[src, dst].add(EPSILON_LABEL if read == EMP else read)
        if to_dead:
            dashed.add((src, dst))
    for (src, dst), merged in sorted(labels.items()):
        style = ", style=dashed" if (src, dst) in dashed else ""
        lines.append(f'  "{src}" -> "{dst}" [label="{", ".join(sorted(merged))}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def machine_to_dot(machine: Machine) -> str:
    """Transition diagram of the machine in DOT syntax."""
    return _to_dot("machine", machine, machine.states, (r + (False,) for r in machine.rules), ())


def cgraph_to_dot(cg: ComputationGraph) -> str:
    """Computation graph in DOT syntax.

    Nodes are the edge endpoints plus the start state; dead edges come out
    dashed, everything else solid.
    """
    nodes = {cg.machine.start, *(e.src for e in cg.edges), *(e.dst for e in cg.edges)}
    edges = ((e.src, e.read, e.dst, e.to_dead) for e in cg.edges)
    return _to_dot("computation", cg.machine, nodes, edges, cg.highlighted)


def cgraph_summary(cg: ComputationGraph, color: bool = False) -> str:
    """Short plain-text account of a computation graph.

    One line each for the verdict, the states where some run ends, the
    number of machine edges used, and (when present) the dead edges in
    ``cg.edges`` order.
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
    dead = [f"{e.src} -{e.read}-> {e.dst}" for e in cg.edges if e.to_dead]
    if dead:
        lines.append("dead edges: " + ", ".join(dead))
    return "\n".join(lines)
