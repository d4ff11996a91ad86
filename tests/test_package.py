import ast
import subprocess
import sys
from pathlib import Path

import pytest

import fa

SRC = Path(fa.__file__).resolve().parent.parent
MACHINES = SRC.parent / "machines"


def modules_added_by(code, *argv):
    """Modules that ``code`` adds to sys.modules in a fresh interpreter."""
    # the script reports with print and repr alone, so json can count as added
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        check=True,
        cwd=SRC,
    ).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


def test_import_fa_loads_neither_the_cli_nor_dataclasses():
    added = modules_added_by("import fa")
    assert "fa" in added
    assert not {name for name in added if name.startswith("fa.")}
    assert added.isdisjoint({"argparse", "dataclasses", "inspect"})


def test_parsing_a_machine_loads_only_machines():
    code = "import fa\nfa.parse_machine_text(open(sys.argv[1]).read())"
    added = modules_added_by(code, MACHINES / "demo-ndfa.json")
    assert {name for name in added if name.startswith("fa.")} == {"fa.machines"}


def test_building_a_machine_in_code_loads_neither_json_nor_another_module():
    code = "import fa\nfa.make_ndfa(['S'], ['a'], 'S', ['S'], [('S', 'a', 'S')])"
    added = modules_added_by(code)
    assert {name for name in added if name.startswith("fa.")} == {"fa.machines"}
    assert "json" not in added


# every submodule of fa; fa.execution decides, traces and builds graphs
SUBMODULES = {"fa.cli", "fa.dot", "fa.execution", "fa.machines"}


def test_the_package_has_these_submodules():
    assert {f"fa.{path.stem}" for path in (SRC / "fa").glob("*.py")} == SUBMODULES | {"fa.__init__"}


def test_no_module_imports_another_modules_private_name():
    # a name with a leading underscore belongs to its module; another module
    # that needs it should get a public name, or the code should move
    found = []
    for path in sorted((SRC / "fa").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # names bound to fa's submodules in this file
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "fa"):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
                modules |= {a.asname or a.name for a in node.names if f"fa.{a.name}" in SUBMODULES}
        found += [
            f"{path.name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ]
    assert found == []


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["validate", "demo-ndfa.json"], {"fa.dot", "fa.execution"}),
        # the graph builder shares fa.execution with apply and trace, so they load it too
        (["apply", "demo-ndfa.json", "a", "b"], {"fa.dot"}),
        (["trace", "abstar.json", "a", "b"], {"fa.dot"}),
        (["graph", "abstar.json"], {"fa.execution"}),
        (["compgraph", "abstar.json", "a", "b"], set()),
    ],
)
def test_cli_commands_load_no_graph_module_they_do_not_use(argv, unloaded):
    code = "from fa.cli import main\nmain(sys.argv[1:])"
    added = modules_added_by(code, argv[0], MACHINES / argv[1], *argv[2:])
    assert {name for name in added if name.startswith("fa.")} == SUBMODULES - unloaded


def test_first_use_binds_the_name_and_submodules_resolve():
    code = (
        "import fa\n"
        "assert 'apply' not in vars(fa)\n"
        "fa.apply\n"
        "assert 'apply' in vars(fa)\n"
        "assert fa.execution.accepting_run.__module__ == 'fa.execution'\n"
    )
    added = modules_added_by(code)
    assert {name for name in added if name.startswith("fa.")} == {"fa.execution", "fa.machines"}


def test_a_submodule_resolves_before_any_of_its_names_is_used():
    # the import system binds a submodule to fa once it loads, so only a fresh
    # interpreter reaches fa.__getattr__ for one
    code = (
        "import fa\n"
        "assert 'dot' not in vars(fa)\n"
        "assert fa.dot is sys.modules['fa.dot']\n"
        "assert not {'cgraph_summary', 'cgraph_to_dot', 'machine_to_dot'} & set(vars(fa))\n"
    )
    added = modules_added_by(code)
    # fa.dot reads the verdicts and EMP from fa.machines
    assert {name for name in added if name.startswith("fa.")} == {"fa.dot", "fa.machines"}


def test_word_error_is_one_class_wherever_it_is_imported():
    # the CLI catches it from fa.machines without loading fa.execution
    assert fa.WordError is fa.machines.WordError


def test_verdicts_are_one_object_wherever_they_are_imported():
    # the CLI and fa.dot compare against them without loading fa.execution
    assert fa.ACCEPT is fa.execution.ACCEPT is fa.machines.ACCEPT
    assert fa.REJECT is fa.execution.REJECT is fa.machines.REJECT


def test_dir_lists_the_public_names_and_submodules():
    listed = set(dir(fa))
    assert set(fa.__all__) <= listed
    assert {"dot", "execution", "machines"} <= listed
    assert "compgraph" not in listed
    assert not hasattr(fa, "no_such_name")


PUBLIC_API = [
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
    "machine_to_document",
    "machine_to_dot",
    "make_dfa",
    "make_ndfa",
    "parse_machine_file",
    "parse_machine_text",
    "show_transitions",
]


def test_public_api_is_what_users_call():
    # the graph builder's stages, the search and the state sets stay in fa.execution
    assert fa.__all__ == PUBLIC_API


def test_coded_errors_share_one_base_that_is_not_public():
    for error in (fa.ValidationError, fa.WordError, fa.MachineFileError):
        assert error.__bases__ == (fa.machines.CodedError,)
        assert error("some-code", "message").code == "some-code"
    assert "CodedError" not in fa.__all__


def test_every_public_name_imports():
    namespace = {}
    exec("from fa import *", namespace)
    assert set(fa.__all__) <= set(namespace)
