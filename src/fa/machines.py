"""Immutable machine values, their validating constructors, the verdicts and the input errors.

Every check of outside input lives here, but for the CLI's word syntax:
machine components and rules, machine documents (JSON text and files) and
words. Each failure is a CodedError, so one module decides the codes,
messages and which check wins.
"""

from __future__ import annotations

import io
import re
from collections.abc import Iterable, Sequence
from typing import NamedTuple

EMP = "EMP"

DFA = "dfa"
NDFA = "ndfa"

ACCEPT = "accept"
REJECT = "reject"

Word = tuple[str, ...]

_STATE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_SYMBOL = re.compile(r"[a-z0-9]\Z")
_new_tuple = tuple.__new__  # makes a Rule without NamedTuple's Python-level __new__

# The most parse_machine_file reads: 8 MiB, about 350 times the largest
# machine the benchmark writes (a 150-state ndfa of 23.6 KB).
_MAX_FILE_BYTES = 8 * 2**20


class CodedError(ValueError):
    """Bad input, with a stable kebab-case ``code`` naming the problem.

    The base of ValidationError, WordError and MachineFileError.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class ValidationError(CodedError):
    """A machine description that is not a well-formed automaton, e.g. ``"start-not-in-states"``."""


class WordError(CodedError):
    """A word that cannot be run, e.g. ``"symbol-not-in-sigma"``."""


class MachineFileError(CodedError):
    """A machine document that cannot be turned into a Machine."""


class Rule(NamedTuple):
    src: str
    read: str  # an alphabet symbol, or EMP to move without consuming input
    dst: str


class Machine(NamedTuple):
    """A deterministic or nondeterministic finite-state automaton.

    Component order is preserved from construction (after duplicates are
    dropped), so everything downstream iterates deterministically.
    Instances are immutable and safe to share across threads. The
    components are tuples, and must stay unchanged once a call has used
    the machine: fa.execution finds the tables it builds from them by the
    machine's identity, and reuses them whenever that same object comes
    back.
    """

    kind: str
    states: tuple[str, ...]
    sigma: tuple[str, ...]
    start: str
    finals: tuple[str, ...]
    rules: tuple[Rule, ...]


def _checked_components(states, sigma, start, finals, rules):
    # entries are type-checked before dict.fromkeys drops duplicates, so an
    # unhashable entry is a ValidationError rather than a TypeError
    states = list(states)
    for name in states:
        if not isinstance(name, str) or not _STATE_NAME.match(name):
            raise ValidationError(
                "bad-state-name",
                f"bad state name {name!r}: need a letter followed by letters/digits",
            )
    states = list(dict.fromkeys(states))
    if not states:
        raise ValidationError("empty-state-set", "a machine needs at least one state")
    sigma = list(sigma)
    for sym in sigma:
        if not isinstance(sym, str) or not _SYMBOL.match(sym):
            raise ValidationError(
                "bad-symbol",
                f"bad alphabet symbol {sym!r}: need a single lowercase letter or digit",
            )
    if len(set(sigma)) != len(sigma):
        extra = sorted({s for s in sigma if sigma.count(s) > 1})
        raise ValidationError(
            "duplicate-symbol-in-sigma", f"alphabet lists {', '.join(extra)} more than once"
        )
    clash = set(states) & set(sigma)
    if clash:
        raise ValidationError(
            "state-symbol-clash",
            f"{', '.join(sorted(clash))} appears both as a state and as an alphabet symbol",
        )
    if start not in states:
        raise ValidationError("start-not-in-states", f"start state {start!r} is not in the state set")
    finals = list(finals)
    for q in finals:
        if q not in states:
            raise ValidationError("final-not-in-states", f"final state {q!r} is not in the state set")
    # start, finals and rules reuse the name objects of ``states``; a parsed
    # document would otherwise keep one string per mention
    names = dict(zip(states, states))
    start = names[start]
    finals = [names[q] for q in dict.fromkeys(finals)]
    # every rule is type-checked before any is checked against the states and
    # the alphabet
    rules = list(rules)
    for r in rules:
        # documents spell rules as lists: the exact type is the cheap test
        if (type(r) is not list and not isinstance(r, (list, tuple))) or len(r) != 3:
            raise ValidationError(
                "malformed-rule", f"transition {r!r} is not a (from, read, to) list or tuple"
            )
        src, read, dst = r
        # exact types are the cheap test; subclasses of str pass the second one
        if type(src) is not str or type(read) is not str or type(dst) is not str:
            if not (isinstance(src, str) and isinstance(read, str) and isinstance(dst, str)):
                raise ValidationError(
                    "malformed-rule", f"transition {tuple(r)!r} has a part that is not a string"
                )
    # rule reads reuse the symbol objects of ``sigma``, and every EMP is the one EMP
    symbols = dict(zip(sigma, sigma))
    symbols[EMP] = EMP
    checked_rules = {}  # dict keys drop duplicates, first occurrence wins
    for src, read, dst in rules:
        if src not in names or dst not in names:
            raise ValidationError(
                "rule-references-unknown-state",
                f"transition {(src, read, dst)} mentions an unknown state",
            )
        if read not in symbols:
            raise ValidationError(
                "rule-reads-unknown-symbol",
                f"transition {(src, read, dst)} reads a symbol outside the alphabet",
            )
        checked_rules[_new_tuple(Rule, (names[src], symbols[read], names[dst]))] = None
    return tuple(states), tuple(sigma), start, tuple(finals), tuple(checked_rules)


def make_ndfa(
    states: Sequence[str],
    sigma: Sequence[str],
    start: str,
    finals: Sequence[str],
    rules: Iterable,
) -> Machine:
    """Build a nondeterministic machine.

    Each rule is a list or tuple of three strings (from, read, to);
    ``read`` may be EMP for a move that consumes no input. Any other rule
    shape is ValidationError("malformed-rule"). Duplicate states, finals
    and rules are silently dropped (first occurrence wins). Raises
    ValidationError if any component is ill-formed, and TypeError if a
    component that should be iterable is not.
    """
    return Machine(NDFA, *_checked_components(states, sigma, start, finals, rules))


def make_dfa(
    states: Sequence[str],
    sigma: Sequence[str],
    start: str,
    finals: Sequence[str],
    rules: Iterable,
    no_dead: bool = False,
) -> Machine:
    """Build a deterministic machine with a total transition function.

    Rules have the shape make_ndfa takes, a list or tuple of three
    strings, but no EMP labels and at most one rule per (state, symbol)
    pair. With ``no_dead`` set they must already cover every pair;
    otherwise any missing pairs are routed to a fresh non-final dead
    state, which loops to itself on every symbol. Raises ValidationError
    as make_ndfa does, and TypeError for a non-iterable component.
    """
    states, sigma, start, finals, rules = _checked_components(states, sigma, start, finals, rules)
    covered = dfa_delta(rules)
    missing = [(q, s) for q in states for s in sigma if (q, s) not in covered]
    if missing:
        if no_dead:
            raise ValidationError(
                "incomplete-with-no-dead",
                f"no_dead was set but {len(missing)} transitions are missing, e.g. {missing[0]}",
            )
        dead = fresh_dead_state(states)
        states = states + (dead,)
        rules = (
            rules
            + tuple(Rule(q, s, dead) for q, s in missing)
            + tuple(Rule(dead, s, dead) for s in sigma)
        )
    return Machine(DFA, states, sigma, start, finals, rules)


def dfa_delta(rules: Iterable[Rule]) -> dict[tuple[str, str], str]:
    """The transition table {(src, read): dst} of deterministic ``rules``.

    Raises ValidationError("nondeterministic-rules") for an EMP rule or for
    two rules on one (src, read) that lead to different states.
    """
    delta: dict[tuple[str, str], str] = {}
    for src, read, dst in rules:
        if read == EMP:
            raise ValidationError(
                "nondeterministic-rules",
                f"EMP transition {(src, read, dst)} is not allowed in a dfa",
            )
        if delta.setdefault((src, read), dst) != dst:
            raise ValidationError(
                "nondeterministic-rules", f"more than one transition from {src} on {read}"
            )
    return delta


def fresh_dead_state(states: Sequence[str]) -> str:
    """Deterministic dead-state name that collides with none of ``states``."""
    if "ds" not in states:
        return "ds"
    n = 0
    while f"ds{n}" in states:
        n += 1
    return f"ds{n}"


def check_word(machine: Machine, word: Sequence[str]) -> Word:
    """Normalize ``word`` to a symbol tuple, rejecting out-of-alphabet symbols:
    one set test passes it, else an ordered scan names the first bad symbol."""
    w = tuple(word)
    try:
        if frozenset(machine.sigma).issuperset(w):
            return w
    except TypeError:
        pass
    for sym in w:
        if sym not in machine.sigma:
            raise WordError(
                "symbol-not-in-sigma", f"word symbol {sym!r} is not in the machine's alphabet"
            )
    return w


def parse_machine_text(text: str, where: str = "<machine>") -> Machine:
    """Build a Machine from JSON document text.

    Expected keys: kind ("dfa"/"ndfa"), states, sigma, start, finals,
    rules as [from, label, to] lists with "EMP" for a reading-nothing
    label, and an optional no_dead boolean (dfa only). A rule of any
    other shape is MachineFileError("malformed-rule"). A leading BOM is skipped.
    """
    import json  # loaded on the first parse, so machines built in code never load it

    try:
        doc = json.loads(text.removeprefix("\ufeff"))
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
    """Read and build a Machine from a JSON file on disk; a leading UTF-8 BOM is skipped.

    At most 8 MiB are read: a longer file, /dev/zero or an endless pipe is
    MachineFileError("file-too-large"), not a read that fills memory.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read(_MAX_FILE_BYTES + 1)
    except OSError as err:
        raise MachineFileError("unreadable-file", f"cannot read {path!r}: {err.strerror}") from err
    except ValueError as err:  # a NUL byte in the path, which no file name holds
        raise MachineFileError("unreadable-file", f"cannot read {path!r}: {err}") from err
    if len(data) > _MAX_FILE_BYTES:
        raise MachineFileError(
            "file-too-large", f"cannot read {path!r}: more than {_MAX_FILE_BYTES} bytes"
        )
    try:
        # as open(path, encoding="utf-8").read() decodes: in one piece, so an
        # error's offset counts from the file's start. Not utf-8-sig: it reads
        # a file of just EF or EF BB as empty text, not as bytes that are not UTF-8
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as err:
        raise MachineFileError(
            "unreadable-file", f"cannot read {path!r}: not UTF-8 text (byte {err.start})"
        ) from err
    # an error names the file first, so a name with a line break is quoted
    return parse_machine_text(text, where=path if path.isprintable() else repr(path))


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
