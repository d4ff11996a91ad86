"""Command-line interface: validate machines, run words, emit DOT graphs.

Machines live in JSON files; words are given as whitespace-separated
symbols, with the literal EMP (or no symbols at all) standing for the
empty word. Exit codes: 0 accept, 1 reject, 2 usage, validation or write
error, 141 when the reader of standard output has closed it.
Each command imports the modules it runs: validate and graph never load
fa.execution, and only graph and compgraph load fa.dot. fa.execution
decides, traces and builds computation graphs, so apply and trace load
the graph builder with it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Sequence

from .machines import ACCEPT, EMP, CodedError, Machine, WordError, parse_machine_file


def parse_word_args(tokens: Sequence[str]) -> tuple[str, ...]:
    """Turn CLI word tokens into a symbol tuple; EMP or nothing means the empty word."""
    symbols = [part for token in tokens for part in token.split()]
    if not symbols or symbols == [EMP]:
        return ()
    if EMP in symbols:
        raise WordError(
            "emp-mixed-with-symbols", "EMP denotes the empty word and cannot be mixed with symbols"
        )
    return tuple(symbols)


def _write_dot(text: str, out: str | None) -> None:
    if out is not None:  # an empty name fails to open, as any bad name does
        if "\0" in out:  # open would raise ValueError
            raise CodedError("unwritable-file", f"cannot write {out!r}: embedded null byte")
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except BrokenPipeError:
            raise
        except OSError as err:  # named as "cannot read" names a machine file
            raise CodedError("unwritable-file", f"cannot write {out!r}: {err.strerror}") from err
        print(out)
    elif sys.stdout is not None:  # None when fd 1 was closed before fa started
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:  # a text-only stream, as contextlib.redirect_stdout sets
            sys.stdout.write(text)
        else:
            buffer.write(text.encode("utf-8"))  # UTF-8 as in --out, whatever the locale


def _cmd_validate(machine: Machine, args) -> int:
    print(
        f"ok: {machine.kind} with {len(machine.states)} states, "
        f"{len(machine.sigma)} symbols, {len(machine.rules)} rules"
    )
    return 0


def _cmd_apply(machine: Machine, args) -> int:
    from .execution import apply

    verdict = apply(machine, parse_word_args(args.word))
    print(verdict)
    return 0 if verdict == ACCEPT else 1


def _cmd_trace(machine: Machine, args) -> int:
    from .execution import show_transitions

    trace = show_transitions(machine, parse_word_args(args.word))
    if trace is None:
        print("no trace: word rejected by ndfa")
        return 1
    for state, i in trace.run:  # one suffix at a time, however long the word
        print(f"({' '.join(trace.word[i:])}) {state}")
    print(trace.verdict)
    return 0 if trace.verdict == ACCEPT else 1


def _cmd_graph(machine: Machine, args) -> int:
    from .dot import machine_to_dot

    _write_dot(machine_to_dot(machine), args.out)
    return 0


def _cmd_compgraph(machine: Machine, args) -> int:
    from .dot import cgraph_summary, cgraph_to_dot
    from .execution import build_computation_graph

    cg = build_computation_graph(machine, parse_word_args(args.word))
    _write_dot(cgraph_to_dot(cg), args.out)
    if args.summary:
        print(cgraph_summary(cg, color=os.environ.get("FA_COLOR") == "always"))
    return 0 if cg.verdict == ACCEPT else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fa", description="Run finite automata and draw their computation graphs."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, word=False, out=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("machine", help="path to a machine JSON file")
        if word:
            # a default, or argparse calls the word required
            p.add_argument(
                "word", nargs="*", default=[], help="word symbols, or EMP for the empty word"
            )
        if out:
            p.add_argument("--out", metavar="FILE", help="write DOT here instead of stdout")
        p.set_defaults(func=func)
        return p

    command("validate", _cmd_validate, "check that a machine file is well-formed")
    command("apply", _cmd_apply, "print accept or reject for a word", word=True)
    command("trace", _cmd_trace, "print one computation, configuration by configuration", word=True)
    command("graph", _cmd_graph, "emit the machine's transition diagram as DOT", out=True)
    cg = command(
        "compgraph",
        _cmd_compgraph,
        "emit the computation graph for a word as DOT",
        word=True,
        out=True,
    )
    cg.add_argument("--summary", action="store_true", help="also print a plain-text summary")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(parse_machine_file(args.machine), args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except CodedError as err:  # --out errors too, so an OSError here is a write to stdout
        message = str(err)
    except OSError as err:  # the write failed, or the reader of stdout has gone
        # stdout's buffer keeps what failed; flush it at exit to the null device, not a second error
        with contextlib.suppress(AttributeError, OSError):  # a stream with no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(err, BrokenPipeError):  # not bad input: say nothing
            return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
        message = f"cannot write <stdout>: {err.strerror or err}"
    print(f"fa: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
