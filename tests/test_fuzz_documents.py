"""Fuzzing machine documents and the command line: any JSON value or any
bytes is either a machine or a MachineFileError, and any `fa` command line
exits 0, 1 or 2, an error with one `fa: ` line."""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fa import MachineFileError, machine_to_document, parse_machine_file, parse_machine_text
from fa.cli import main
from helpers import dfas, ndfas

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)

# machine-shaped documents reach the validation code that bare values never get past
names = st.sampled_from(["S", "A", "a", "b", "EMP", "", "1x"])
part = names | json_values
machine_docs = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["dfa", "ndfa"]) | json_values,
        "states": st.lists(part, max_size=4) | json_values,
        "sigma": st.lists(part, max_size=3) | json_values,
        "start": part,
        "finals": st.lists(part, max_size=3) | json_values,
        "rules": st.lists(st.lists(part, min_size=2, max_size=4), max_size=4) | json_values,
    },
    optional={"no_dead": st.booleans() | json_values},
)


def parses_or_fails_cleanly(text):
    try:
        parse_machine_text(text)
    except MachineFileError:
        pass


@given(json_values | machine_docs)
@settings(max_examples=100, deadline=None)
def test_json_documents_parse_or_raise_machine_file_error(doc):
    parses_or_fails_cleanly(json.dumps(doc))


@given(st.text(max_size=40))
@settings(deadline=None)
def test_arbitrary_text_parses_or_raises_machine_file_error(text):
    parses_or_fails_cleanly(text)


@given(st.binary(max_size=60) | machine_docs.map(lambda doc: json.dumps(doc).encode()))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_files_load_or_fail_cleanly(tmp_path, data):
    path = tmp_path / "machine.json"
    path.write_bytes(data)
    try:
        parse_machine_file(str(path))
        expected = 0
    except MachineFileError:
        expected = 2
    assert main(["validate", str(path)]) == expected


COMMANDS = ["validate", "apply", "trace", "graph", "compgraph"]
symbols = st.sampled_from(["a", "b", "c", "EMP", "a b", "EMP a", " ", "\t\n", "é", "ß"])
paths = st.sampled_from(["a\x00b", "\x00", "", ".", "-", "\t\n", "é", "out.dot", "missing.json"])
# never "-h" or a prefix of "--help", which exit 0 from argparse
options = st.sampled_from(["--out", "--summary", "--o", "--", "--x", "-x"])
machine_files = machine_docs | json_values | st.one_of(ndfas(), dfas()).map(machine_to_document)


@given(
    doc=machine_files,
    bom=st.booleans(),
    command=st.sampled_from([*COMMANDS, "", "--x"]),
    machine=st.just("machine.json") | paths | options,
    rest=st.lists(symbols | paths | options, max_size=5),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_command_lines_exit_with_a_verdict_or_one_error_line(
    tmp_path, monkeypatch, capsys, doc, bom, command, machine, rest
):
    monkeypatch.chdir(tmp_path)  # --out may name any drawn token
    Path("machine.json").write_text("\ufeff" * bom + json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    try:
        code = main([command, machine, *rest])
    except SystemExit as stop:  # argparse's usage error
        assert stop.code == 2
        return
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("fa: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == ""
