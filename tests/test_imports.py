"""Start-up cost: the package and its CLI run without numpy, dataclasses or inspect.

numpy is needed only by `riemann_oracle`, and loading it would roughly double
the wall time of every `python -m logspaces` call.  `dataclasses` loads
`inspect` and generates every record class's methods at import; the record
classes share one base instead.  Each check runs in a fresh interpreter,
because this test process has all three loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE = str(Path(__file__).parent / "data" / "fixture.json")


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )


# numpy, and the two modules the record classes no longer need
NOT_LOADED = ("numpy", "dataclasses", "inspect")
LOADED = f'print("loaded:", [m for m in {NOT_LOADED!r} if m in sys.modules], file=sys.stderr)'


def test_import_does_not_load_numpy():
    proc = run_fresh(f"import sys\nimport logspaces, logspaces.cli\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "loaded: []\n"


def test_cli_subcommand_does_not_load_numpy():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['logspaces', *sys.argv[1:]]\n"
        "try:\n"
        "    runpy.run_module('logspaces', run_name='__main__')\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n"
        f"{LOADED}"
    )
    proc = run_fresh(code, "passport", "--file", FIXTURE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "s:\nu: 0\nm: 1\n"
    assert proc.stderr == "loaded: []\n"
