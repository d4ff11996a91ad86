"""Seeded workload generation: machine documents and request lists.

Everything a run does is fixed by (workload, seed): the machines, the words
and their order. A request list is a sequence of rounds; each round draws
fresh words for the same fixed mix of (machine, length, verdict) cells, so a
run that stops at a round boundary sees the same mix whatever its speed.
Word lengths come from a generator seeded by the workload name alone, so
every seed sees the same lengths; so do the wide_machine machines. The
seed picks the words and the other generated machines. Words are seeded walks through the machine, accepted or rejected as
the cell asks, and checked with the oracle.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import NamedTuple

from oracle import EMP, Spec, accepts, spec_from_doc

NAMES = ("long_word", "wide_machine", "cli_batch")
WORD_COMMANDS = ("apply", "trace", "compgraph")  # cli_batch: once per word
MACHINE_COMMANDS = ("validate", "graph")  # cli_batch: once per machine and round
SHIPPED = ("machines/demo-ndfa.json", "machines/abstar.json")


class Machine(NamedTuple):
    name: str
    text: str  # the JSON document, as a user would store it
    spec: Spec  # the oracle's reading of it
    path: str | None = None  # the shipped file it was read from, relative to the checkout


class Request(NamedTuple):
    id: int
    round: int
    machine: int  # index into Workload.machines
    word: tuple
    accept: bool | None  # None for the word-less cli commands
    command: str | None = None  # cli_batch only


class Rounds:
    """An endless sequence of rounds, generated on demand and kept.

    Every pass over it sees the same requests, however far an earlier pass got.
    """

    def __init__(self, produce) -> None:
        self._produce = produce
        self._made: list = []

    def __iter__(self):
        for k in itertools.count():
            if k == len(self._made):
                self._made.append(next(self._produce))
            yield self._made[k]


class Workload(NamedTuple):
    name: str
    seed: int
    machines: list
    rounds: Rounds  # each round a list of Request


def _machine(name: str, doc_or_text, path=None) -> Machine:
    text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text, indent=1)
    return Machine(name, text, spec_from_doc(json.loads(text)), path)


def _shipped(root: Path, name: str, path: str) -> Machine:
    return _machine(name, (root / path).read_text(encoding="utf-8"), path)


def random_ndfa_doc(rng, n_states, rules_per_state=4, emp_share=0.15, sigma="abc", final_share=0.05):
    states = [f"q{i}" for i in range(n_states)]
    rules = []
    for q in states:
        for _ in range(rules_per_state):
            read = EMP if rng.random() < emp_share else rng.choice(sigma)
            rules.append([q, read, rng.choice(states)])
    finals = rng.sample(states, max(1, round(n_states * final_share)))
    return {"kind": "ndfa", "states": states, "sigma": list(sigma), "start": states[0],
            "finals": finals, "rules": rules}


def random_dfa_doc(rng, n_states, sigma="ab", final_share=0.3, complete=True):
    states = [f"d{i}" for i in range(n_states)]
    rules = [[q, s, rng.choice(states)] for q in states for s in sigma
             if complete or rng.random() < 0.7]
    finals = rng.sample(states, max(1, round(n_states * final_share)))
    return {"kind": "dfa", "states": states, "sigma": list(sigma), "start": states[0],
            "finals": finals, "rules": rules}


class Walker:
    """Samples words of an exact length that a machine accepts or rejects.

    ``accept_from[k]`` holds the states from which some word of length k is
    accepted, ``alive_from[k]`` those from which some word of length k can
    be read at all (EMP moves folded in by closure).
    """

    def __init__(self, spec: Spec, max_len: int) -> None:
        self.spec = spec
        emp, moves = {}, {q: [] for q in spec.states}
        for src, read, dst in spec.rules:
            if read == EMP:
                emp.setdefault(src, []).append(dst)
        closure = {}
        for q in spec.states:
            seen, todo = {q}, [q]
            while todo:
                for r in emp.get(todo.pop(), ()):
                    if r not in seen:
                        seen.add(r)
                        todo.append(r)
            closure[q] = seen
        for q in spec.states:
            for src, read, dst in spec.rules:
                if read != EMP and src in closure[q]:
                    moves[q].append((read, dst))
        self.moves = moves
        finals = set(spec.finals)
        self.accept_from = [{q for q in spec.states if closure[q] & finals}]
        self.alive_from = [set(spec.states)]
        for _ in range(max_len):
            acc, alive = self.accept_from[-1], self.alive_from[-1]
            self.accept_from.append({q for q in spec.states if any(r in acc for _, r in moves[q])})
            self.alive_from.append({q for q in spec.states if any(r in alive for _, r in moves[q])})

    def _walk(self, rng, n, allowed):
        q, word = self.spec.start, []
        for k in range(n, 0, -1):
            options = [(a, r) for a, r in self.moves[q] if r in allowed[k - 1]]
            a, q = rng.choice(options)
            word.append(a)
        return tuple(word)

    def word(self, rng, n: int, accept: bool):
        """A word of length n with the wanted verdict, or None if none was found."""
        if accept:
            return self._walk(rng, n, self.accept_from) if self.spec.start in self.accept_from[n] else None
        for _ in range(20):
            if self.spec.start in self.alive_from[n]:
                w = self._walk(rng, n, self.alive_from)
            else:
                w = tuple(rng.choice(self.spec.sigma) for _ in range(n))
            # a walk that reads the whole word is usually accepted somewhere on a
            # dense ndfa; changing its last symbol keeps the runs alive to the end
            for last in (None, *self.spec.sigma) if w else (None,):
                v = w if last is None else w[:-1] + (last,)
                if not accepts(self.spec, v):
                    return v
        return None


def _two_sided(rng, make_doc, lengths, max_len):
    """A generated machine with accepted and rejected words at each of ``lengths``.

    Random machines sometimes accept (or reject) every long word; drawing
    again keeps the verdict mix, and so the work, alike across seeds.
    """
    for _ in range(100):
        doc = make_doc()
        walker = Walker(spec_from_doc(doc), max_len)
        if all(walker.word(rng, n, ok) is not None for n in lengths for ok in (True, False)):
            return doc
    raise ValueError("no two-sided machine in 100 draws")


def _pick(rng, walker, n, accept, max_len):
    """A word for the cell: its verdict at length n, or failing that at the nearest length.

    Keeping the verdict keeps every seed's accept/reject mix the same; only
    a machine with no word of that verdict near n gets the other one.
    """
    for delta in (0, 1, -1, 2, -2, 3, -3):
        if 0 <= n + delta <= max_len:
            w = walker.word(rng, n + delta, accept)
            if w is not None:
                return w, accept
    w = walker.word(rng, n, not accept)
    if w is None:
        raise ValueError(f"no word of length {n} for {walker.spec.start}")
    return w, not accept


def _rounds(rng, lengths, machines, cells, max_len, commands=(None,), per_machine=()):
    """Each round shuffles fresh words for ``cells`` plus the word-less ``per_machine`` commands.

    A cell is (machine index, length or (lo, hi), accept); its word is sent
    once per entry of ``commands``.
    """
    walkers = {i: Walker(machines[i].spec, max_len) for i in {c[0] for c in cells}}
    next_id = 0
    for r in itertools.count():
        batch = [(i, (), None, command) for i in range(len(machines)) for command in per_machine]
        for i, length, accept in cells:
            n = lengths.randint(*length) if isinstance(length, tuple) else length
            w, ok = _pick(rng, walkers[i], n, accept, max_len)
            batch += [(i, w, ok, command) for command in commands]
        rng.shuffle(batch)
        yield [Request(next_id + k, r, *entry) for k, entry in enumerate(batch)]
        next_id += len(batch)


def _long_word(rng, fixed, root):
    """Small machines, words of 32-320 symbols: cost grows with |w|.

    two_branch takes most cells since its graph build is the costly one; the
    two dfas keep the deterministic trace path in the mix. Lengths are drawn
    per round from 12 fixed bands, so every round has the same length profile.
    """
    dfa = _two_sided(rng, lambda: random_dfa_doc(rng, 12), (32, 176, 320), 320)
    machines = [
        _shipped(root, "two_branch", SHIPPED[0]),
        _shipped(root, "abstar", SHIPPED[1]),
        _machine("dfa12", dfa),
    ]
    bands = [(32 + 24 * k, 32 + 24 * (k + 1)) for k in range(12)]
    cells = [(0, band, k % 2 == 0) for k, band in enumerate(bands)]
    cells += [(2, bands[k], k % 4 == 0) for k in range(0, 12, 2)]
    cells += [(1, bands[k], k % 6 == 1) for k in range(1, 12, 3)]
    cells += [(0, 0, True), (1, 1, True), (2, 1, False)]
    return machines, cells, 320


def _wide_machine(rng, fixed, root):
    """Thirty random ndfas of 20-150 states, 4 rules per state, 15 % EMP; words of 4-24.

    The machines come from ``fixed``, not the seed: each random machine
    shifts the cost of its words by tens of percent, which moved the
    medians of seed-drawn machines 0.1 from seed to seed. One 60-state
    complete dfa rides along so the dfa constructor and the deterministic
    trace path also meet a wide machine.
    """
    sizes = [20 + round(130 * k / 29) for k in range(30)]
    machines = [
        _machine(f"ndfa{k}_{n}", _two_sided(fixed, lambda: random_ndfa_doc(fixed, n, final_share=0), (4, 14, 24), 24))
        for k, n in enumerate(sizes)
    ]
    dfa = _two_sided(fixed, lambda: random_dfa_doc(fixed, 60, sigma="abc", final_share=0.2), (4, 14, 24), 24)
    machines.append(_machine("dfa60", dfa))
    # every cell keeps one length, spread evenly over 4-24, so all rounds are
    # alike and a run's medians do not depend on how many rounds it fits
    pairs = [(i, accept) for i in range(len(machines)) for accept in (True, False)]
    lengths = [4 + round(20 * k / (len(pairs) - 1)) for k in range(len(pairs))]
    fixed.shuffle(lengths)
    cells = [(i, n, accept) for (i, accept), n in zip(pairs, lengths)]
    return machines, cells, 24


def _cli_batch(rng, fixed, root):
    """The two shipped machines plus four small generated ones; words of 0-10 symbols.

    Per round each machine gets one accepted and one rejected word, each run
    through apply, trace and compgraph, plus one validate and one graph.
    """
    machines = [_shipped(root, Path(p).stem, p) for p in SHIPPED]
    machines += [
        _machine("ndfa6", random_ndfa_doc(rng, 6, rules_per_state=2, sigma="ab", final_share=0.3)),
        _machine("ndfa10", random_ndfa_doc(rng, 10, rules_per_state=3, final_share=0.2)),
        _machine("dfa5", random_dfa_doc(rng, 5, complete=False)),
        _machine("dfa8", random_dfa_doc(rng, 8, sigma="abc")),
    ]
    cells = [(i, (0, 10), accept) for i in range(len(machines)) for accept in (True, False)]
    return machines, cells, 10


_GENERATORS = {"long_word": _long_word, "wide_machine": _wide_machine, "cli_batch": _cli_batch}


def make(name: str, seed: int, root: Path) -> Workload:
    """The workload's machines and rounds of requests, fixed by ``seed``.

    ``root`` is the source checkout, where the shipped machine files live.
    """
    rng, lengths = random.Random(f"{name}:{seed}"), random.Random(name)
    machines, cells, max_len = _GENERATORS[name](rng, random.Random(f"{name}:machines"), root)
    if name == "cli_batch":
        rounds = _rounds(rng, lengths, machines, cells, max_len, WORD_COMMANDS, MACHINE_COMMANDS)
    else:
        rounds = _rounds(rng, lengths, machines, cells, max_len)
    return Workload(name, seed, machines, Rounds(rounds))
