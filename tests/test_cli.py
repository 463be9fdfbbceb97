"""Golden tests for the command line: byte-exact reports and the exit-code contract."""

import subprocess
import sys
from pathlib import Path

import pytest

FIXTURE = str(Path(__file__).parent / "data" / "fixture.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "logspaces", *args],
        capture_output=True,
        text=True,
    )


GOLDEN = [
    (["norm", "--file", FIXTURE, "--fn", "f_zero"], "norm = 0\n", 0),
    (["norm", "--file", FIXTURE, "--fn", "f_e1"], "norm = 1\n", 0),
    (["norm", "--file", FIXTURE, "--fn", "f_steps"], "norm = 1.0397207708399179\n", 0),
    (
        ["norm", "--file", FIXTURE, "--fn", "f_half_e1", "--kind", "internal", "--h", "h"],
        "norm = 1\n",
        0,
    ),
    (
        [
            "norm", "--file", FIXTURE, "--fn", "f_two",
            "--kind", "generalized", "--h1", "h", "--h2", "half",
        ],
        "norm = 1.3862943611198906\n",
        0,
    ),
    (["passport", "--file", FIXTURE], "s:\nu: 0\nm: 1\n", 0),
    (
        ["decide", "--file", FIXTURE, "--relation", "isometric", "--left", "P1", "--right", "P1"],
        "verdict = true\nrule = single-finite-component\nwitness = weights and total measures coincide\n",
        0,
    ),
    (
        ["decide", "--file", FIXTURE, "--relation", "isometric", "--left", "P1", "--right", "P2"],
        "verdict = false\nrule = single-finite-component\nwitness = third rows differ at index 0: 2 vs 3\n",
        1,
    ),
    (
        ["decide", "--file", FIXTURE, "--relation", "iso-pair", "--left", "Ps", "--right", "Ps"],
        "verdict = true\nrule = single-component-weights\nwitness = first rows coincide\n",
        0,
    ),
    (
        ["decide", "--file", FIXTURE, "--relation", "star-iso", "--left", "Pc", "--right", "Pr"],
        "verdict = false\nrule = weight-rows-and-measure-ratios\nwitness = mu_i/nu_i unbounded\n",
        1,
    ),
    (
        ["decide", "--file", FIXTURE, "--relation", "gen-isometric", "--left", "P1", "--right", "P2"],
        "verdict = false\nrule = third-rows\nwitness = third rows differ at index 0: 2 vs 3\n",
        1,
    ),
    (
        ["decide", "--file", FIXTURE, "--relation", "isometric"],
        "verdict = true\nrule = single-finite-component\nwitness = weights and total measures coincide\n",
        0,
    ),
    (["transport", "--file", FIXTURE], "component 0 -> 0\nsrc=[0,1) slope=2 offset=0\n", 0),
    (
        ["verify", "--file", FIXTURE, "--target", "transport", "--samples", "50", "--seed", "42"],
        "samples = 50\nmax_abs_deviation = 0\n",
        0,
    ),
    (
        ["verify", "--file", FIXTURE, "--target", "weighting", "--samples", "50", "--seed", "42"],
        "samples = 50\nmax_abs_deviation = 0\n",
        0,
    ),
]


@pytest.mark.parametrize("args,stdout,code", GOLDEN, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_golden(args, stdout, code):
    result = run_cli(*args)
    assert result.stdout == stdout
    assert result.returncode == code
    assert result.stderr == ""


def test_infinite_norm_reports_inf(tmp_path):
    text = """{
      "space": [{"weight": 0, "carrier": [0, "inf"], "density": [{"from": 0, "to": "inf", "value": 1}]}],
      "functions": {"one": [{"component": 0, "from": 0, "to": "inf", "re": 1}]}
    }"""
    ws = tmp_path / "halfline.json"
    ws.write_text(text)
    result = run_cli("norm", "--file", str(ws), "--fn", "one")
    assert result.stdout == "norm = inf\n"
    assert result.returncode == 0


def test_overflowing_norm_exits_2(tmp_path):
    text = """{
      "space": [{"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 1e308}]}],
      "functions": {"f": [{"component": 0, "from": 0, "to": 0.5, "re": 5},
                          {"component": 0, "from": 0.5, "to": 1, "re": 6}]}
    }"""
    ws = tmp_path / "huge.json"
    ws.write_text(text)
    result = run_cli("norm", "--file", str(ws), "--fn", "f")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "norm of a bounded support overflows a float" in result.stderr
    assert "Traceback" not in result.stderr


def test_reports_are_deterministic():
    args = ["verify", "--file", FIXTURE, "--target", "transport", "--samples", "25", "--seed", "7"]
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode


def test_unknown_name_exits_2():
    result = run_cli("norm", "--file", FIXTURE, "--fn", "nope")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "unknown name: nope" in result.stderr


def test_missing_density_flag_exits_2():
    result = run_cli("norm", "--file", FIXTURE, "--fn", "f_e1", "--kind", "internal")
    assert result.returncode == 2
    assert "requires --h" in result.stderr


def test_parse_failure_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": [')
    result = run_cli("passport", "--file", str(bad))
    assert result.returncode == 2
    assert "invalid JSON" in result.stderr


def test_missing_file_exits_2(tmp_path):
    result = run_cli("passport", "--file", str(tmp_path / "absent.json"))
    assert result.returncode == 2


def test_bad_arguments_exit_2():
    result = run_cli("decide", "--file", FIXTURE, "--relation", "bogus")
    assert result.returncode == 2


def test_transport_passport_mismatch_exits_2(tmp_path):
    text = """{
      "space":  [{"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 1}]}],
      "space2": [{"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 2}]}]
    }"""
    ws = tmp_path / "mismatch.json"
    ws.write_text(text)
    result = run_cli("transport", "--file", str(ws))
    assert result.returncode == 2
    assert "no measure-preserving map" in result.stderr


def test_transport_slope_overflow_exits_2(tmp_path):
    text = """{
      "space":  [{"weight": 0, "carrier": [0, 1e-200],
                  "density": [{"from": 0, "to": 1e-200, "value": 1e200}]}],
      "space2": [{"weight": 0, "carrier": [0, 1e200],
                  "density": [{"from": 0, "to": 1e200, "value": 1e-200}]}]
    }"""
    ws = tmp_path / "overflow.json"
    ws.write_text(text)
    result = run_cli("transport", "--file", str(ws))
    assert result.returncode == 2
    assert result.stdout == ""
    assert "transport slope or offset overflows a float" in result.stderr
    assert "Traceback" not in result.stderr


def test_transport_of_an_underflowing_mass_exits_2(tmp_path):
    text = """{
      "space":  [{"weight": 0, "carrier": [0, 1e-200],
                  "density": [{"from": 0, "to": 1e-200, "value": 1e-200}]}],
      "space2": [{"weight": 0, "carrier": [0, 1e-200],
                  "density": [{"from": 0, "to": 1e-200, "value": 1e-200}]}]
    }"""
    ws = tmp_path / "underflow.json"
    ws.write_text(text)
    for command in ("transport", "passport"):
        result = run_cli(command, "--file", str(ws))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "finite measures must be positive and finite, got 0.0\n"
