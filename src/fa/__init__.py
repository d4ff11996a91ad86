"""Finite automata with computation graphs.

Build DFAs and NDFAs, decide words, trace runs, and generate computation
graphs: per-word summaries of every possible run, drawn over the machine's
own state diagram, that make accept/reject decisions visible at a glance.
"""

from .compgraph import CGEdge, ComputationGraph, build_computation_graph
from .documents import MachineFileError, machine_to_document, parse_machine_file, parse_machine_text
from .dot import cgraph_summary, cgraph_to_dot, machine_to_dot
from .execution import ACCEPT, REJECT, Config, Trace, WordError, apply, check_word, show_transitions
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
    "fresh_dead_state",
    "machine_to_document",
    "machine_to_dot",
    "make_dfa",
    "make_ndfa",
    "parse_machine_file",
    "parse_machine_text",
    "show_transitions",
]
