"""Start-up cost: each CLI call loads only the modules it runs.

Every ``python -m logspaces`` call imports the package, and without a
bytecode cache it compiles each module it loads.  So:

* numpy is needed only by ``riemann_oracle``, and loading it would roughly
  double the wall time of every call.  The oracle lives in
  ``logspaces.oracle``, which the package loads when the name is first read.
* ``logspaces.transport`` (and ``logspaces.sampling``, which only
  ``verify`` uses) load only for the ``transport`` and ``verify``
  subcommands, or when one of the transport names is first read.
* ``dataclasses`` loads ``inspect`` and generates every record class's
  methods at import; the record classes share one base instead.

Each check runs in a fresh interpreter, because this test process has all
of these loaded already.  numpy is an optional extra, so every subcommand
also runs with numpy blocked, and the oracle then raises an error that
names the extra.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE = str(Path(__file__).parent / "data" / "fixture.json")


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )


# numpy, the two modules the record classes no longer need, and the package
# modules that only some calls run
WATCHED = (
    "numpy",
    "dataclasses",
    "inspect",
    "logspaces.transport",
    "logspaces.oracle",
    "logspaces.sampling",
)
LOADED = f'print("loaded:", [m for m in {WATCHED!r} if m in sys.modules], file=sys.stderr)'


def test_import_does_not_load_numpy():
    proc = run_fresh(f"import sys\nimport logspaces, logspaces.cli\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "loaded: []\n"


# `python -m logspaces` with this script's arguments, then its exit code and
# the watched modules it loaded
RUN_MAIN = f"""
import runpy, sys
sys.argv = ['logspaces', *sys.argv[1:]]
try:
    runpy.run_module('logspaces', run_name='__main__')
except SystemExit as e:
    print("exit:", e.code, file=sys.stderr)
{LOADED}
"""

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


# the watched modules a subcommand loads: only a map needs the transport, and
# only verify samples functions
LOADS = {
    "transport": ["logspaces.transport"],
    "verify": ["logspaces.transport", "logspaces.sampling"],
}


@pytest.mark.parametrize("argv, code", SUBCOMMANDS, ids=[" ".join(a) for a, _ in SUBCOMMANDS])
def test_each_subcommand_loads_only_what_it_runs(argv, code):
    proc = run_fresh(RUN_MAIN, *argv, "--file", FIXTURE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"exit: {code}\nloaded: {LOADS.get(argv[0], [])}\n"


LAZY_NAMES = {
    "transport": [
        "AffinePiece",
        "ComponentTransport",
        "IsometryReport",
        "TransportMap",
        "glue_transports",
        "lift",
        "monotone_transport",
        "render_transport",
        "transport_between_spaces",
        "transport_set",
        "verify_isometry",
        "weighting_isometry",
    ],
    "oracle": ["riemann_oracle"],
}

CHECK_LAZY_NAMES = f"""
import importlib, sys
import logspaces
listed = dir(logspaces)
{LOADED}
for module, names in {LAZY_NAMES!r}.items():
    source = importlib.import_module("logspaces." + module)
    for name in names:
        assert name in listed and name in logspaces.__all__, name
        assert getattr(logspaces, name) is getattr(source, name), name
try:
    logspaces.no_such_name
except AttributeError as e:
    print(e, file=sys.stderr)
"""


def test_lazy_names_are_their_modules_objects_and_are_listed():
    proc = run_fresh(CHECK_LAZY_NAMES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "loaded: []\nmodule 'logspaces' has no attribute 'no_such_name'\n"

