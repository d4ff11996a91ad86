"""Finite automata with computation graphs.

Build DFAs and NDFAs, decide words, trace runs, and generate computation
graphs: per-word summaries of every possible run, drawn over the machine's
own state diagram, that make accept/reject decisions visible at a glance.

``import fa`` loads no submodule. A public name imports the submodule that
defines it on first access and is then an ordinary attribute of ``fa``.
"""

from importlib import import_module as _import_module

# public name -> the submodule that defines it
_OWNER = {
    "ACCEPT": "machines",
    "CGEdge": "execution",
    "Config": "execution",
    "ComputationGraph": "execution",
    "DFA": "machines",
    "EMP": "machines",
    "Machine": "machines",
    "MachineFileError": "machines",
    "NDFA": "machines",
    "REJECT": "machines",
    "Rule": "machines",
    "Trace": "execution",
    "ValidationError": "machines",
    "WordError": "machines",
    "apply": "execution",
    "build_computation_graph": "execution",
    "cgraph_summary": "dot",
    "cgraph_to_dot": "dot",
    "check_word": "machines",
    "machine_to_document": "machines",
    "machine_to_dot": "dot",
    "make_dfa": "machines",
    "make_ndfa": "machines",
    "parse_machine_file": "machines",
    "parse_machine_text": "machines",
    "show_transitions": "execution",
}
_SUBMODULES = frozenset(_OWNER.values())

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # later lookups never reach this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
