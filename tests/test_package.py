import json
import subprocess
import sys
from pathlib import Path

import fa

SRC = Path(fa.__file__).resolve().parent.parent

LIST_IMPORTED = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import fa\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


def test_import_fa_loads_neither_the_cli_nor_dataclasses():
    out = subprocess.run(
        [sys.executable, "-c", LIST_IMPORTED],
        capture_output=True,
        text=True,
        check=True,
        cwd=SRC,
    ).stdout
    added = set(json.loads(out))
    assert "fa.machines" in added
    assert added.isdisjoint({"argparse", "dataclasses", "inspect", "fa.cli"})


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
    "fresh_dead_state",
    "machine_to_document",
    "machine_to_dot",
    "make_dfa",
    "make_ndfa",
    "parse_machine_file",
    "parse_machine_text",
    "show_transitions",
]


def test_public_api_is_what_users_call():
    # the graph pipeline's stages and step stay in fa.compgraph and fa.execution
    assert fa.__all__ == PUBLIC_API


def test_every_public_name_imports():
    namespace = {}
    exec("from fa import *", namespace)
    assert set(fa.__all__) <= set(namespace)
