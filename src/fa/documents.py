"""Machine documents: JSON text and files to Machines, and back.

Kept apart from the CLI so that ``import fa`` loads neither argparse nor
the command handlers.
"""

from __future__ import annotations

import json

from .machines import DFA, NDFA, CodedError, Machine, ValidationError, make_dfa, make_ndfa


class MachineFileError(CodedError):
    """A machine document that cannot be turned into a Machine."""


def parse_machine_text(text: str, where: str = "<machine>") -> Machine:
    """Build a Machine from JSON document text.

    Expected keys: kind ("dfa"/"ndfa"), states, sigma, start, finals,
    rules as [from, label, to] lists with "EMP" for a reading-nothing
    label, and an optional no_dead boolean (dfa only). A rule of any
    other shape is MachineFileError("malformed-rule").
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise MachineFileError(
            "malformed-document", f"{where}:{err.lineno}:{err.colno}: not valid JSON: {err.msg}"
        ) from err
    except ValueError as err:  # e.g. an integer past sys.get_int_max_str_digits()
        raise MachineFileError("malformed-document", f"{where}: cannot read JSON: {err}") from err
    except RecursionError as err:
        raise MachineFileError("malformed-document", f"{where}: JSON nested too deeply") from err
    if not isinstance(doc, dict):
        raise MachineFileError("malformed-document", f"{where}: expected a JSON object at top level")
    kind = doc.get("kind")
    if kind is None:
        raise MachineFileError("malformed-document", f"{where}: missing key 'kind'")
    if kind not in (DFA, NDFA):
        raise MachineFileError("unknown-kind", f"{where}: kind must be 'dfa' or 'ndfa', got {kind!r}")
    for key in ("states", "sigma", "start", "finals", "rules"):
        if key not in doc:
            raise MachineFileError("malformed-document", f"{where}: missing key {key!r}")
    for key in ("states", "sigma", "finals", "rules"):
        if not isinstance(doc[key], list):
            raise MachineFileError("malformed-document", f"{where}: {key!r} must be a list")
    no_dead = doc.get("no_dead", False)
    if not isinstance(no_dead, bool):
        raise MachineFileError("malformed-document", f"{where}: no_dead must be a boolean")
    if "no_dead" in doc and kind != DFA:
        raise MachineFileError("malformed-document", f"{where}: no_dead is only valid for a dfa")
    try:
        if kind == DFA:
            return make_dfa(doc["states"], doc["sigma"], doc["start"], doc["finals"], doc["rules"], no_dead)
        return make_ndfa(doc["states"], doc["sigma"], doc["start"], doc["finals"], doc["rules"])
    except ValidationError as err:
        raise MachineFileError(err.code, f"{where}: {err}") from err


def parse_machine_file(path: str) -> Machine:
    """Read and build a Machine from a JSON file on disk."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise MachineFileError("unreadable-file", f"cannot read {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise MachineFileError(
            "unreadable-file", f"cannot read {path}: not UTF-8 text (byte {err.start})"
        ) from err
    return parse_machine_text(text, where=path)


def machine_to_document(machine: Machine) -> dict:
    """JSON-ready document for a Machine; parsing it back yields an equal machine."""
    return {
        "kind": machine.kind,
        "states": list(machine.states),
        "sigma": list(machine.sigma),
        "start": machine.start,
        "finals": list(machine.finals),
        "rules": [list(r) for r in machine.rules],
    }
