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


# Every numeric and integer field the reader takes, with the value written
# in as "@".  Each field is read as a number, an upper end (a number or
# "inf") or an integer, and every bad value gets that reader's message.
_SPACE = '"space": [{"weight": %s, "carrier": [%s, %s], "density": [{"from": %s, "to": %s, "value": %s}]}]'
_ONE = _SPACE % (0, 0, 2, 0, 2, 1)
_ROW = '{"component": %s, "from": %s, "to": %s, "re": %s, "im": %s}'


def _function_row(field: str) -> str:
    values = {"component": "0", "from": "0", "to": "1", "re": "1", "im": "0", field: "@"}
    return "{" + _ONE + ', "functions": {"f": [' + _ROW % tuple(values.values()) + "]}}"


FIELDS = [
    ("space[0].weight", "{" + _SPACE % ("@", 0, 2, 0, 2, 1) + "}", "integer"),
    ("space[0].carrier[0]", "{" + _SPACE % (0, "@", 2, 0, 2, 1) + "}", "number"),
    ("space[0].carrier[1]", "{" + _SPACE % (0, 0, "@", 0, 2, 1) + "}", "stop"),
    ("space[0].density[0].from", "{" + _SPACE % (0, 0, 2, "@", 2, 1) + "}", "number"),
    ("space[0].density[0].to", "{" + _SPACE % (0, 0, 2, 0, "@", 1) + "}", "stop"),
    ("space[0].density[0].value", "{" + _SPACE % (0, 0, 2, 0, 2, "@") + "}", "number"),
    ("functions.f[0].component", _function_row("component"), "integer"),
    ("functions.f[0].from", _function_row("from"), "number"),
    ("functions.f[0].to", _function_row("to"), "stop"),
    ("functions.f[0].re", _function_row("re"), "number"),
    ("functions.f[0].im", _function_row("im"), "number"),
    (
        "densities.d[0].component",
        "{" + _ONE + ', "densities": {"d": [{"component": @, "from": 0, "to": 2, "value": 1}]}}',
        "integer",
    ),
    ("passports.p.s[0]", '{"passports": {"p": {"s": [@], "u": [0], "m": [1]}}}', "integer"),
    ("passports.p.u[0]", '{"passports": {"p": {"s": [], "u": [@], "m": [1]}}}', "integer"),
    ("passports.p.m[0]", '{"passports": {"p": {"s": [], "u": [0], "m": [@]}}}', "number"),
    ("passports.p.m.params[0]", '{"passports": {"p": {"m": {"kind": "CONST", "params": [@]}}}}', "number"),
]

_BIG = "1" + "0" * 400
_FINITE = {
    "NaN": "expected a finite number, got nan",
    "1e400": "expected a finite number, got inf",
    _BIG: "expected a finite number, got an integer too large for a float",
}
# reader: {value as JSON text: message}
MESSAGES = {
    "number": {
        '"2"': "expected a number, got '2'",
        "true": "expected a number, got True",
        "null": "expected a number, got None",
        **_FINITE,
    },
    "stop": {
        '"2"': "expected a number or \"inf\", got '2'",
        "true": 'expected a number or "inf", got True',
        "null": 'expected a number or "inf", got None',
        **_FINITE,
    },
    "integer": {
        '"2"': "expected an integer, got '2'",
        "true": "expected an integer, got True",
        "null": "expected an integer, got None",
        "NaN": "expected an integer, got nan",
        "1e400": "expected an integer, got inf",
        "1.5": "expected an integer, got 1.5",
    },
}
# a 400-digit integer is an integer: a label or weight takes it, and an
# index is out of range, which from_pieces reports for the whole function
BIG_INTEGER = {
    "space[0].weight": None,
    "functions.f[0].component": f"functions.f: component index {_BIG} out of range",
    "densities.d[0].component": f"densities.d[0].component: component index {_BIG} out of range",
    "passports.p.s[0]": None,
    "passports.p.u[0]": None,
}


def _row(path: str, template: str, value: str, message):
    shown = "10**400" if value == _BIG else value
    return pytest.param(template.replace("@", value), message, id=f"{path}={shown}")


def _message_rows():
    """(workspace text, the whole error message or None when it parses) for every field and value."""
    rows = []
    for path, template, reader in FIELDS:
        for value, message in MESSAGES[reader].items():
            rows.append(_row(path, template, value, f"{path}: {message}"))
        if reader == "integer":
            rows.append(_row(path, template, _BIG, BIG_INTEGER[path]))
    return rows


MESSAGE_TABLE = _message_rows()


@pytest.mark.parametrize("text, message", MESSAGE_TABLE)
def test_every_numeric_field_names_its_path_and_value(text, message):
    if message is None:
        parse_workspace(text)
        return
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(text)
    assert str(err.value) == message


def test_message_table_covers_every_field_and_value():
    # five integer fields with seven values each, eleven numeric ones with six
    assert len(MESSAGE_TABLE) == 5 * 7 + 11 * 6
