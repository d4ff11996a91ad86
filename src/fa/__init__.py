"""Finite automata with computation graphs.

Build DFAs and NDFAs, decide words, trace runs, and generate computation
graphs: per-word summaries of every possible run, drawn over the machine's
own state diagram, that make accept/reject decisions visible at a glance.
"""

from .compgraph import (
    CGEdge,
    ComputationGraph,
    build_computation_graph,
    computation_tree_to_cg_edges,
    edges_for_configuration,
    make_cg_edges,
    next_configurations,
    prune_on_accept,
)
from .documents import MachineFileError, machine_to_document, parse_machine_file, parse_machine_text
from .dot import cgraph_summary, cgraph_to_dot, machine_to_dot
from .execution import (
    ACCEPT,
    REJECT,
    Config,
    Trace,
    WordError,
    apply,
    check_word,
    show_transitions,
    step,
)
from .machines import (
    DFA,
    EMP,
    NDFA,
    Machine,
    Rule,
    ValidationError,
    fresh_dead_state,
    make_dfa,
    make_ndfa,
)

__all__ = [
    "ACCEPT",
    "CGEdge",
    "Config",
    "ComputationGraph",
    "DFA",
    "EMP",
    "Machine",
    "MachineFileError",
    "NDFA",
    "REJECT",
    "Rule",
    "Trace",
    "ValidationError",
    "WordError",
    "apply",
    "build_computation_graph",
    "cgraph_summary",
    "cgraph_to_dot",
    "check_word",
    "computation_tree_to_cg_edges",
    "edges_for_configuration",
    "fresh_dead_state",
    "machine_to_document",
    "machine_to_dot",
    "make_cg_edges",
    "make_dfa",
    "make_ndfa",
    "next_configurations",
    "parse_machine_file",
    "parse_machine_text",
    "prune_on_accept",
    "show_transitions",
    "step",
]
