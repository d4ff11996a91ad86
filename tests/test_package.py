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


def test_every_public_name_imports():
    namespace = {}
    exec("from fa import *", namespace)
    assert set(fa.__all__) <= set(namespace)
