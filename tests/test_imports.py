"""Start-up cost: the package and its CLI run without numpy, dataclasses or inspect.

numpy is needed only by `riemann_oracle`, and loading it would roughly double
the wall time of every `python -m logspaces` call.  `dataclasses` loads
`inspect` and generates every record class's methods at import; the record
classes share one base instead.  Each check runs in a fresh interpreter,
because this test process has all three loaded already.  numpy is an
optional extra, so every subcommand also runs with numpy blocked, and the
oracle then raises an error that names the extra.
"""

import json
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


# every subcommand on the fixture, with the exit code each gives there
SUBCOMMANDS = [
    (["norm", "--fn", "f_steps"], 0),
    (["norm", "--fn", "f_steps", "--kind", "internal", "--h", "h"], 0),
    (["norm", "--fn", "f_two", "--kind", "generalized", "--h1", "h", "--h2", "hw"], 0),
    (["passport"], 0),
    (["decide", "--relation", "isometric"], 0),
    (["decide", "--relation", "star-iso", "--left", "Pc", "--right", "Pr"], 1),
    (["decide", "--relation", "iso-pair", "--left", "Ps", "--right", "Ps"], 0),
    (["decide", "--relation", "gen-isometric", "--left", "P1", "--right", "P2"], 1),
    (["transport"], 0),
    (["verify", "--target", "transport", "--samples", "50"], 0),
    (["verify", "--target", "weighting", "--samples", "50"], 0),
]

RUN_SUBCOMMANDS = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from logspaces import EXTERNAL, LogSpaceError, StepFunction, interval_space, riemann_oracle
from logspaces.cli import main
codes = [main([*argv, "--file", sys.argv[2]]) for argv in json.loads(sys.argv[3])]
if sys.argv[1] == "block":
    try:
        riemann_oracle(StepFunction.zero(interval_space(0, 1)), interval_space(0, 1), EXTERNAL, 10)
    except LogSpaceError as e:
        print(e, file=sys.stderr)
print(json.dumps(codes), file=sys.stderr)
"""


def test_every_subcommand_runs_with_numpy_blocked():
    argvs = json.dumps([argv for argv, _ in SUBCOMMANDS])
    blocked = run_fresh(RUN_SUBCOMMANDS, "block", FIXTURE, argvs)
    plain = run_fresh(RUN_SUBCOMMANDS, "plain", FIXTURE, argvs)
    codes = json.dumps([code for _, code in SUBCOMMANDS])
    assert plain.stderr == codes + "\n"
    assert blocked.stdout == plain.stdout
    assert blocked.stderr == (
        'riemann_oracle needs numpy: install the "oracle" extra (pip install "logspaces[oracle]")\n'
        + codes + "\n"
    )
