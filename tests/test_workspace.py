import math
from pathlib import Path

import pytest

from logspaces import (
    ClosedForm,
    WorkspaceError,
    emit_workspace,
    parse_workspace,
)

FIXTURE = Path(__file__).parent / "data" / "fixture.json"


def test_fixture_parses():
    ws = parse_workspace(FIXTURE.read_text())
    assert len(ws.space.components) == 1
    assert ws.space2 is not None
    assert set(ws.functions) == {"f_zero", "f_steps", "f_e1", "f_half_e1", "f_two"}
    assert ws.functions["f_zero"].is_zero
    assert ws.passports["Pc"].row_u is None
    assert isinstance(ws.passports["Pc"].row_m, ClosedForm)


def test_round_trip_is_identity():
    ws = parse_workspace(FIXTURE.read_text())
    text = emit_workspace(ws)
    again = parse_workspace(text)
    assert again.space == ws.space
    assert again.space2 == ws.space2
    assert again.functions == ws.functions
    assert again.densities == ws.densities
    assert again.passports == ws.passports
    assert emit_workspace(again) == text


def test_unbounded_carrier_round_trip():
    text = '{"space": [{"weight": 0, "carrier": [0, "inf"], "density": [{"from": 0, "to": "inf", "value": 1}]}]}'
    ws = parse_workspace(text)
    assert math.isinf(ws.space.components[0].carrier[1])
    assert parse_workspace(emit_workspace(ws)).space == ws.space


@pytest.mark.parametrize(
    "text,needle",
    [
        ("{", "invalid JSON"),
        ('{"nonsense": 1}', "nonsense"),
        ('{"space": [{"weight": 0, "carrier": [0, 1], "density": []}]}', "space[0].density"),
        (
            '{"space": [{"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": -1}]}]}',
            "space[0].density",
        ),
        (
            '{"space": [{"weight": 0, "carrier": [0, 2], "density": [{"from": 0, "to": 1, "value": 1}]}]}',
            "cover the carrier",
        ),
        (
            '{"space": [{"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 1}]}],'
            ' "functions": {"f": [{"component": 0, "from": 0, "to": 2, "re": 1}]}}',
            "functions.f",
        ),
        ('{"functions": {"f": []}}', 'workspace has no "space"'),
        ('{"passports": {"P": {"s": [0], "u": [2, 1], "m": [1, 1]}}}', "passports.P"),
        (
            '{"passports": {"P": {"s": [], "u": [0], "m": {"kind": "CONST", "params": [1]}}}}',
            "passports.P.u",
        ),
        ('{"passports": {"P": {"s": [], "u": [0], "m": [1], "x": 3}}}', "passports.P.x"),
        # every object below the top level rejects a field it does not know
        (
            '{"space": [{"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 1}],'
            ' "wieght": 1}]}',
            "space[0].wieght: unknown field",
        ),
        (
            '{"space": [{"weight": 0, "carrier": [0, 1],'
            ' "density": [{"from": 0, "to": 1, "value": 1, "vaule": 5}]}]}',
            "space[0].density[0].vaule: unknown field",
        ),
        (
            '{"space": [{"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 1}]}],'
            ' "densities": {"h": [{"componnet": 0, "from": 0, "to": 1, "value": 4}]}}',
            "densities.h[0].componnet: unknown field",
        ),
        (
            '{"space": [{"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 1}]}],'
            ' "functions": {"f": [{"from": 0, "to": 1, "re": 1, "imag": 2}]}}',
            "functions.f[0].imag: unknown field",
        ),
        (
            '{"passports": {"P": {"s": [], "m": {"kind": "CONST", "params": [1], "param": [2]}}}}',
            "passports.P.m.param: unknown field",
        ),
        (
            '{"space": [{"weight": 0, "carrier": [0, 1],'
            ' "density": [{"from": 0, "to": 1, "value": 1, "value": 7}]}]}',
            "value: duplicate key",
        ),
    ],
)
def test_field_addressed_rejection(text, needle):
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(text)
    assert needle in str(err.value)


def test_multi_component_density_assembly():
    text = """{
      "space": [
        {"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 1}]},
        {"weight": 0, "carrier": [5, 7], "density": [{"from": 5, "to": 7, "value": 2}]}
      ],
      "densities": {"h": [
        {"component": 1, "from": 5, "to": 7, "value": 3},
        {"component": 0, "from": 0, "to": 1, "value": 4}
      ]}
    }"""
    ws = parse_workspace(text)
    assert ws.densities["h"][0].pieces[0].value == 4.0
    assert ws.densities["h"][1].pieces[0].value == 3.0


def test_density_must_cover_every_component():
    text = """{
      "space": [
        {"weight": 0, "carrier": [0, 1], "density": [{"from": 0, "to": 1, "value": 1}]},
        {"weight": 0, "carrier": [5, 7], "density": [{"from": 5, "to": 7, "value": 2}]}
      ],
      "densities": {"h": [{"component": 0, "from": 0, "to": 1, "value": 4}]}
    }"""
    with pytest.raises(WorkspaceError, match="densities.h"):
        parse_workspace(text)
