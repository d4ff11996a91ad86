import errno
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import fa
from fa import (
    MachineFileError,
    WordError,
    machine_to_document,
    machine_to_dot,
    parse_machine_file,
    parse_machine_text,
)
from fa.cli import main, parse_word_args
from conftest import TWO_BRANCH_RULES

SRC = Path(fa.__file__).resolve().parent.parent
DEMO_NDFA = SRC.parent / "machines" / "demo-ndfa.json"

TWO_BRANCH_DOC = {
    "kind": "ndfa",
    "states": list("SABCDEFG"),
    "sigma": ["a", "b"],
    "start": "S",
    "finals": ["S"],
    "rules": [list(r) for r in TWO_BRANCH_RULES],
}

ABSTAR_DOC = {
    "kind": "dfa",
    "states": ["S", "F"],
    "sigma": ["a", "b"],
    "start": "S",
    "finals": ["F"],
    "rules": [["S", "a", "F"], ["F", "b", "F"]],
}


@pytest.fixture
def two_branch_file(tmp_path):
    path = tmp_path / "two-branch.json"
    path.write_text(json.dumps(TWO_BRANCH_DOC))
    return str(path)


@pytest.fixture
def abstar_file(tmp_path):
    path = tmp_path / "abstar.json"
    path.write_text(json.dumps(ABSTAR_DOC))
    return str(path)


class TestParseMachineFile:
    def test_ndfa_document(self, two_branch_file, two_branch):
        assert parse_machine_file(two_branch_file) == two_branch

    def test_dfa_document_gets_completed(self, abstar_file, abstar):
        assert parse_machine_file(abstar_file) == abstar

    def test_malformed_json(self):
        with pytest.raises(MachineFileError) as info:
            parse_machine_text("{not json", where="bad.json")
        assert info.value.code == "malformed-document"
        assert "bad.json" in str(info.value)

    def test_unknown_kind(self):
        doc = dict(ABSTAR_DOC, kind="turing")
        with pytest.raises(MachineFileError) as info:
            parse_machine_text(json.dumps(doc))
        assert info.value.code == "unknown-kind"

    def test_validation_error_carries_location(self):
        doc = dict(ABSTAR_DOC, start="Q")
        with pytest.raises(MachineFileError) as info:
            parse_machine_text(json.dumps(doc), where="machines/x.json")
        assert info.value.code == "start-not-in-states"
        assert "machines/x.json" in str(info.value)

    def test_no_dead_rejected_on_ndfa(self):
        doc = dict(TWO_BRANCH_DOC, no_dead=True)
        with pytest.raises(MachineFileError) as info:
            parse_machine_text(json.dumps(doc))
        assert info.value.code == "malformed-document"

    def test_document_round_trip(self, two_branch_file):
        machine = parse_machine_file(two_branch_file)
        again = parse_machine_text(json.dumps(machine_to_document(machine)))
        assert again == machine

    def test_shipped_demo_files_parse(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent / "machines"
        assert parse_machine_file(str(root / "demo-ndfa.json")).kind == "ndfa"
        assert parse_machine_file(str(root / "abstar.json")).kind == "dfa"


@pytest.mark.parametrize(
    "change, code",
    [
        ({"states": [["S"], "F"]}, "bad-state-name"),
        ({"finals": [["F"]]}, "final-not-in-states"),
        ({"finals": [{"F": 1}]}, "final-not-in-states"),
        ({"rules": [["S", ["a"], "F"], ["F", "b", "F"]]}, "malformed-rule"),
        ({"rules": [[["S"], "a", "F"], ["F", "b", "F"]]}, "malformed-rule"),
        ({"rules": [["S", "a", {"F": 1}], ["F", "b", "F"]]}, "malformed-rule"),
        ({"rules": [5]}, "malformed-rule"),
        ({"rules": [{"S": 0, "a": 1, "F": 2}]}, "malformed-rule"),
        ({"rules": ["SaS"]}, "malformed-rule"),
    ],
)
def test_unhashable_entries_are_validation_errors(tmp_path, capsys, change, code):
    doc = dict(ABSTAR_DOC, **change)
    with pytest.raises(MachineFileError) as info:
        parse_machine_text(json.dumps(doc))
    assert info.value.code == code
    path = tmp_path / "unhashable.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "fa: " in capsys.readouterr().err


class TestUnreadableDocuments:
    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(ABSTAR_DOC).replace("F", "\u00e9").encode("latin-1"))
        with pytest.raises(MachineFileError) as info:
            parse_machine_file(str(path))
        assert info.value.code == "unreadable-file"
        assert main(["validate", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_utf8_bom_is_skipped(self, tmp_path, capsys):
        # some editors start UTF-8 files with EF BB BF, which RFC 8259 lets parsers ignore
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + DEMO_NDFA.read_bytes())
        assert parse_machine_file(str(path)) == parse_machine_file(str(DEMO_NDFA))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.startswith("ok: ndfa")
        # a BOM cut short is not UTF-8
        for data in (b"\xef", b"\xef\xbb"):
            path.write_bytes(data)
            with pytest.raises(MachineFileError) as info:
                parse_machine_file(str(path))
            assert info.value.code == "unreadable-file"

    def test_text_with_a_bom_parses_as_without(self):
        # as a caller that reads the file itself hands it over
        text = DEMO_NDFA.read_text(encoding="utf-8")
        assert parse_machine_text("\ufeff" + text) == parse_machine_text(text)

    def test_deeply_nested_json(self, tmp_path, capsys):
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(MachineFileError) as info:
            parse_machine_text(text)
        assert info.value.code == "malformed-document"
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    # json.loads raises a bare ValueError past Python's int digit limit, and
    # json.dumps of such an int raises too, so the text is spelled out by hand
    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": 1' + "0" * 4999 + "}",
            '{"kind": "ndfa", "states": ["S"], "sigma": ["a"], "start": "S", "finals": [],'
            ' "rules": [["S", 1' + "0" * 4999 + ', "S"]]}',
        ],
        ids=["kind", "rules"],
    )
    def test_very_long_integer(self, tmp_path, capsys, text):
        with pytest.raises(MachineFileError) as info:
            parse_machine_text(text, where="big.json")
        assert info.value.code == "malformed-document"
        assert str(info.value).startswith("big.json: ")
        path = tmp_path / "big.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fa: ") and "Traceback" not in err

    def test_syntax_error_keeps_line_and_column(self):
        with pytest.raises(MachineFileError) as info:
            parse_machine_text('{\n  "kind": }', where="bad.json")
        assert str(info.value).startswith("bad.json:2:11: not valid JSON")

    def test_a_file_over_the_size_cap(self, tmp_path, capsys):
        cap = fa.machines._MAX_FILE_BYTES
        demo = DEMO_NDFA.read_bytes()
        path = tmp_path / "padded.json"
        # whitespace before a valid document: only the size can be wrong
        path.write_bytes(b" " * (cap - len(demo)) + demo)
        assert parse_machine_file(str(path)) == parse_machine_file(str(DEMO_NDFA))
        path.write_bytes(b" " * (cap - len(demo) + 1) + demo)
        with pytest.raises(MachineFileError) as info:
            parse_machine_file(str(path))
        assert info.value.code == "file-too-large"
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"fa: cannot read {str(path)!r}: more than {cap} bytes\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /dev/zero")
    def test_an_endless_file_is_too_large(self, capsys):
        # its read used to run until memory ran out
        assert main(["validate", "/dev/zero"]) == 2
        cap = fa.machines._MAX_FILE_BYTES
        assert capsys.readouterr().err == f"fa: cannot read '/dev/zero': more than {cap} bytes\n"

    def test_a_path_with_a_line_break_stays_on_one_line(self, tmp_path, capsys):
        for name in ("x\ny.json", "xy.json"):
            path = tmp_path / name
            path.write_text('{"kind": }')
            assert main(["validate", str(path)]) == 2
            where = str(path) if name == "xy.json" else repr(str(path))
            assert capsys.readouterr().err == f"fa: {where}:1:10: not valid JSON: Expecting value\n"
        path = str(tmp_path / "x\ny.json")
        with pytest.raises(MachineFileError) as info:
            parse_machine_file(path)
        assert str(info.value).startswith(f"{path!r}:1:10: ")


class TestApplyCommand:
    def test_accept(self, two_branch_file, capsys):
        assert main(["apply", two_branch_file, "a", "b", "a", "a", "b"]) == 0
        assert capsys.readouterr().out == "accept\n"

    def test_reject(self, two_branch_file, capsys):
        assert main(["apply", two_branch_file, "b", "b"]) == 1
        assert capsys.readouterr().out == "reject\n"

    def test_emp_word(self, two_branch_file, capsys):
        assert main(["apply", two_branch_file, "EMP"]) == 0
        assert capsys.readouterr().out == "accept\n"

    def test_no_word_equals_emp(self, two_branch_file, capsys):
        assert main(["apply", two_branch_file]) == 0
        assert capsys.readouterr().out == "accept\n"

    def test_quoted_word_string(self, two_branch_file, capsys):
        assert main(["apply", two_branch_file, "a b a a b"]) == 0
        assert capsys.readouterr().out == "accept\n"

    def test_out_of_alphabet_word_is_a_usage_error(self, two_branch_file, capsys):
        assert main(["apply", two_branch_file, "z"]) == 2
        assert "alphabet" in capsys.readouterr().err

    def test_emp_mixed_with_symbols_is_a_usage_error(self, two_branch_file):
        assert main(["apply", two_branch_file, "EMP", "a"]) == 2

    def test_emp_mixed_with_symbols_has_a_code(self):
        with pytest.raises(WordError) as info:
            parse_word_args(["a EMP"])
        assert info.value.code == "emp-mixed-with-symbols"

    def test_bad_machine_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "dfa"}')
        assert main(["apply", str(path), "a"]) == 2
        assert "missing key" in capsys.readouterr().err

    def test_machine_error_comes_before_word_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "dfa"}')
        for command in ("apply", "trace", "compgraph"):
            assert main([command, str(path), "EMP", "z"]) == 2
            assert "missing key" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["apply", "trace", "compgraph"])
    def test_a_missing_machine_is_the_only_argument_named_required(self, command, capsys):
        # the word may be empty, so the usage error names only the machine
        with pytest.raises(SystemExit) as info:
            main([command])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: machine\n")


class TestTraceCommand:
    def test_dfa_accept_trace(self, abstar_file, capsys):
        assert main(["trace", abstar_file, "a", "b"]) == 0
        assert capsys.readouterr().out == "(a b) S\n(b) F\n() F\naccept\n"

    def test_dfa_reject_trace(self, abstar_file, capsys):
        assert main(["trace", abstar_file, "b", "a", "a"]) == 1
        assert capsys.readouterr().out == "(b a a) S\n(a a) ds\n(a) ds\n() ds\nreject\n"

    def test_ndfa_reject_has_no_trace(self, two_branch_file, capsys):
        assert main(["trace", two_branch_file, "b", "b"]) == 1
        assert capsys.readouterr().out == "no trace: word rejected by ndfa\n"


class TestGraphCommand:
    def test_dot_to_stdout(self, abstar_file, abstar, capsys):
        assert main(["graph", abstar_file]) == 0
        assert capsys.readouterr().out == machine_to_dot(abstar)

    def test_dot_to_file(self, abstar_file, tmp_path, capsys):
        out = tmp_path / "abstar.dot"
        assert main(["graph", abstar_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        assert out.read_text().startswith("digraph machine {")


class TestCompgraphCommand:
    def test_exit_code_mirrors_verdict(self, two_branch_file, capsys):
        assert main(["compgraph", two_branch_file, "a", "b", "a", "a", "b", "a"]) == 0
        capsys.readouterr()
        assert main(["compgraph", two_branch_file, "a", "b", "b", "a", "b", "b"]) == 1
        capsys.readouterr()

    def test_summary_flag(self, two_branch_file, tmp_path, capsys):
        out = tmp_path / "cg.dot"
        code = main(
            ["compgraph", two_branch_file, "a", "b", "b", "a", "b", "b", "--out", str(out), "--summary"]
        )
        assert code == 1
        printed = capsys.readouterr().out
        assert printed.startswith(f"{out}\n")
        assert "verdict: reject" in printed
        assert "end states: G, ds" in printed
        assert "dead edges: C -b-> ds, D -b-> ds, S -b-> ds" in printed
        assert out.read_text().startswith("digraph computation {")

    def test_fa_color_env(self, two_branch_file, capsys, monkeypatch):
        monkeypatch.setenv("FA_COLOR", "always")
        main(["compgraph", two_branch_file, "EMP", "--summary"])
        assert "\x1b[32maccept\x1b[0m" in capsys.readouterr().out
        monkeypatch.setenv("FA_COLOR", "never")
        main(["compgraph", two_branch_file, "EMP", "--summary"])
        assert "\x1b[" not in capsys.readouterr().out


class TestValidateCommand:
    def test_ok(self, two_branch_file, capsys):
        assert main(["validate", two_branch_file]) == 0
        assert capsys.readouterr().out == "ok: ndfa with 8 states, 2 symbols, 10 rules\n"

    def test_missing_file(self, capsys):
        assert main(["validate", "does-not-exist.json"]) == 2
        assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["validate", "a\x00b"], "cannot read 'a\\x00b': embedded null byte"),
        (["graph", str(DEMO_NDFA), "--out", "a\x00b"], "cannot write 'a\\x00b': embedded null byte"),
        (
            ["compgraph", str(DEMO_NDFA), "a", "--out", "a\x00b"],
            "cannot write 'a\\x00b': embedded null byte",
        ),
        # an empty name, as an unset shell variable gives, is no request for stdout
        (["graph", str(DEMO_NDFA), "--out", ""], "cannot write '': No such file or directory"),
        (
            ["graph", str(DEMO_NDFA), "--out", str(DEMO_NDFA.parent)],
            f"cannot write {str(DEMO_NDFA.parent)!r}: Is a directory",
        ),
    ],
    ids=["validate-nul", "graph-out-nul", "compgraph-out-nul", "graph-out-empty", "graph-out-dir"],
)
def test_a_bad_path_exits_2_with_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fa: ") and err.endswith(f"{message}\n") and err.count("\n") == 1


def test_verdict_exit_codes_agree_with_apply(two_branch_file, capsys):
    from fa import ACCEPT, apply

    machine = parse_machine_file(two_branch_file)
    for word in ["", "a b a a b", "b b", "a b a a b a", "a b b a b b"]:
        args = ["apply", two_branch_file] + word.split()
        expected = 0 if apply(machine, word.split()) == ACCEPT else 1
        assert main(args) == expected
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # an accepted trace of 900 symbols is about 1 MB: the write itself fails
        ["trace", str(DEMO_NDFA), *"aba" * 300],
        # a short graph sits in stdout's buffer until the flush at the end
        ["compgraph", str(DEMO_NDFA), "a", "b", "b"],
        ["apply", str(DEMO_NDFA), "a"],
    ],
    ids=["long-trace", "compgraph", "apply"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # the reader closes its end before fa starts writing, as `fa ... | head -c 1` can
    proc = subprocess.Popen(
        [sys.executable, "-m", "fa.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=SRC,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


class FullStdout(io.StringIO):
    """A text stdout on a full disk: ``write`` or ``flush``, as ``fails``, raises ENOSPC."""

    def __init__(self, fails):
        super().__init__()
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.fails == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


FULL_STDOUT_ARGV = [
    ["apply", str(DEMO_NDFA), "a"],
    ["trace", str(DEMO_NDFA), "a", "b", "a", "a", "b"],
    ["graph", str(DEMO_NDFA)],
    ["compgraph", str(DEMO_NDFA), "a", "b", "b", "--summary"],
]
NO_SPACE = f"fa: cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("argv", FULL_STDOUT_ARGV, ids=lambda argv: argv[0])
def test_a_failed_write_to_stdout_exits_2_naming_stdout(argv, fails, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", FullStdout(fails))
    assert main(argv) == 2
    assert capsys.readouterr().err == NO_SPACE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the Linux /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", FULL_STDOUT_ARGV, ids=lambda argv: argv[0])
def test_stdout_on_dev_full_exits_2_naming_stdout(argv, unbuffered):
    # buffered, the failed bytes stay for the interpreter's own flush at exit,
    # which must not fail again (a second error line and exit code 120)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fa.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            cwd=SRC,
            env=env,
            timeout=60,
        )
    assert (proc.returncode, proc.stderr.decode()) == (2, NO_SPACE)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["apply", str(DEMO_NDFA), "a", "b", "a", "a", "b"], 0),
        (["apply", str(DEMO_NDFA), "a", "b", "b"], 1),
        (["trace", str(DEMO_NDFA), "a", "b", "a", "a", "b"], 0),
        (["graph", str(DEMO_NDFA)], 0),
        (["compgraph", str(DEMO_NDFA), "a", "b", "b", "--summary"], 1),
    ],
    ids=["apply-accept", "apply-reject", "trace", "graph", "compgraph"],
)
def test_stdout_closed_from_the_start_keeps_the_exit_code(argv, code):
    # as `fa ... >&-`: Python then sets sys.stdout to None
    proc = subprocess.run(
        [sys.executable, "-m", "fa.cli", *argv],
        stderr=subprocess.PIPE,
        cwd=SRC,
        preexec_fn=lambda: os.close(1),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (code, b"")


@pytest.mark.parametrize(
    "argv",
    [["graph", str(DEMO_NDFA)], ["compgraph", str(DEMO_NDFA), "a", "b", "a", "a", "b"]],
    ids=["graph", "compgraph"],
)
def test_dot_on_stdout_is_utf8_whatever_the_locale(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fa.cli", *argv],
        capture_output=True,
        cwd=SRC,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert "ε" in proc.stdout.decode("utf-8")


@pytest.mark.parametrize(
    "argv, code",
    [(["graph", str(DEMO_NDFA)], 0), (["compgraph", str(DEMO_NDFA), "a", "b", "b"], 1)],
    ids=["graph", "compgraph"],
)
def test_dot_goes_to_a_text_only_stdout(argv, code, capsys):
    # as a caller that runs main in process and collects stdout in a StringIO
    machine = parse_machine_file(str(DEMO_NDFA))
    if argv[0] == "graph":
        dot = machine_to_dot(machine)
    else:
        dot = fa.cgraph_to_dot(fa.build_computation_graph(machine, argv[2:]))
    with redirect_stdout(io.StringIO()) as stdout:
        assert main(argv) == code
    assert stdout.getvalue() == dot
    assert capsys.readouterr() == ("", "")
