"""Every command-line call on the fixture workspace, byte for byte.

``tests/data/cli_sweep.json`` holds 271 calls of ``logspaces`` on
``tests/data/fixture.json`` with the stdout, stderr and exit code of each:

* every subcommand;
* every function under every norm kind and density pair;
* all four relations on the spaces, on each passport name alone and on
  every ordered pair of names;
* flag errors, unknown names, and the fixture without ``space`` or without
  ``space2``; ``verify`` runs with ``--samples 50``.

Each call runs in this process through ``logspaces.cli.main``.  The file
records outputs, so a change that is meant to alter one rewrites it:
``PYTHONPATH=src python tests/test_cli_sweep.py``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from logspaces.cli import main

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "fixture.json"
SWEEP = DATA / "cli_sweep.json"

# the workspaces a call's --file names: the fixture, the fixture without
# space (and so without the functions and densities that live on it), and
# the fixture without space2
FILES = {"FIXTURE": (), "NO_SPACE": ("space", "functions", "densities"), "NO_SPACE2": ("space2",)}
RELATIONS = ("gen-isometric", "iso-pair", "isometric", "star-iso")


def _write_files(directory: Path) -> dict[str, str]:
    """Each name in FILES mapped to a workspace file written in directory."""
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    paths = {}
    for name, left_out in FILES.items():
        path = directory / f"{name.lower()}.json"
        path.write_text(json.dumps({k: v for k, v in doc.items() if k not in left_out}), encoding="utf-8")
        paths[name] = str(path)
    return paths


def _run(argv: list[str], paths: dict[str, str]) -> dict:
    """stdout, stderr and exit code of one call, with its file name resolved."""
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def _calls() -> list[list[str]]:
    """The argument lists of the sweep; "--file" is followed by a name in FILES."""
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    fns, dens, names = sorted(doc["functions"]), sorted(doc["densities"]), sorted(doc["passports"])
    kinds = [[], ["--kind", "external"]]
    kinds += [["--kind", "internal", "--h", h] for h in dens]
    kinds += [["--kind", "generalized", "--h1", a, "--h2", b] for a, b in itertools.product(dens, dens)]
    calls = [["norm", "--file", "FIXTURE", "--fn", fn, *kind] for fn in fns for kind in kinds]
    calls.append(["passport", "--file", "FIXTURE"])
    sides = [[]] + [["--left", n] for n in names] + [["--right", n] for n in names]
    sides += [["--left", a, "--right", b] for a, b in itertools.product(names, names)]
    calls += [["decide", "--file", "FIXTURE", "--relation", r, *s] for r in RELATIONS for s in sides]
    calls.append(["transport", "--file", "FIXTURE"])
    for target, seed in itertools.product(("transport", "weighting"), ("0", "1", "7")):
        calls.append(["verify", "--file", "FIXTURE", "--target", target, "--samples", "50", "--seed", seed])
    calls += [["verify", "--file", "FIXTURE", "--target", "transport", "--samples", n] for n in ("0", "-3")]
    # flag errors, in every order the checks can meet them
    norm = ["norm", "--file", "FIXTURE", "--fn", "f_steps"]
    flag_sets = [
        ["--kind", "external", "--h", "h"],
        ["--kind", "external", "--h1", "h"],
        ["--kind", "external", "--h2", "h"],
        ["--h", "h", "--h1", "h", "--h2", "h"],
        ["--kind", "internal"],
        ["--kind", "internal", "--h1", "h"],
        ["--kind", "internal", "--h", "h", "--h2", "h"],
        ["--kind", "internal", "--h1", "h", "--h2", "h"],
        ["--kind", "generalized"],
        ["--kind", "generalized", "--h1", "h"],
        ["--kind", "generalized", "--h2", "h"],
        ["--kind", "generalized", "--h", "h"],
        ["--kind", "generalized", "--h", "h", "--h1", "h", "--h2", "h"],
    ]
    calls += [norm + flags for flags in flag_sets]
    # unknown names, and which of two unknown names is reported
    calls += [
        ["norm", "--file", "FIXTURE", "--fn", "nope"],
        ["norm", "--file", "FIXTURE", "--fn", "nope", "--kind", "internal", "--h", "nope"],
        ["norm", "--file", "FIXTURE", "--fn", "nope", "--kind", "internal"],
        norm + ["--kind", "internal", "--h", "nope"],
        norm + ["--kind", "generalized", "--h1", "nope", "--h2", "h"],
        norm + ["--kind", "generalized", "--h1", "h", "--h2", "nope"],
        norm + ["--kind", "generalized", "--h1", "nope", "--h2", "nada"],
        ["decide", "--file", "FIXTURE", "--relation", "isometric", "--left", "nope"],
        ["decide", "--file", "FIXTURE", "--relation", "isometric", "--right", "nope"],
        ["decide", "--file", "FIXTURE", "--relation", "isometric", "--left", "nope", "--right", "nada"],
    ]
    # a workspace without one of its spaces
    for name in ("NO_SPACE", "NO_SPACE2"):
        calls += [
            ["norm", "--file", name, "--fn", "f_steps"],
            ["norm", "--file", name, "--fn", "nope"],
            ["passport", "--file", name],
            ["transport", "--file", name],
            ["verify", "--file", name, "--target", "transport", "--samples", "50"],
            ["verify", "--file", name, "--target", "weighting", "--samples", "50"],
        ]
        calls += [["decide", "--file", name, "--relation", r] for r in RELATIONS]
        calls += [["decide", "--file", name, "--relation", "isometric", "--left", "P1"]]
        calls += [["decide", "--file", name, "--relation", "isometric", "--right", "P1"]]
    return calls


# a missing file leaves no calls, and the first test below fails
CASES = json.loads(SWEEP.read_text(encoding="utf-8")) if SWEEP.exists() else []


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    return _write_files(tmp_path_factory.mktemp("workspaces"))


def test_the_sweep_file_lists_every_call():
    assert [case["argv"] for case in CASES] == _calls()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_call_prints_the_recorded_bytes(case, paths):
    expected = {k: case[k] for k in ("stdout", "stderr", "code")}
    assert _run(case["argv"], paths) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = _write_files(Path(tmp))
        cases = [{"argv": argv, **_run(argv, files)} for argv in _calls()]
    SWEEP.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} calls to {SWEEP}")
