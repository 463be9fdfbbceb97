"""File-driven command line: norm, passport, decide, transport, verify.

Exit codes are part of the contract: 0 for success (or a true verdict),
1 for a false verdict or a failed verification, 2 for any error.

Only ``transport`` and ``verify`` build a map, so only they import
``logspaces.transport``; the other subcommands never compile it.
"""

from __future__ import annotations

import argparse
import sys

from .errors import LogSpaceError
from .extreal import ExtendedReal
from .passports import (
    build_passport,
    decide_isometric_external,
    decide_isometric_generalized,
    decide_isomorphic_pair,
    decide_star_isomorphic,
    render_passport,
)
from .render import format_real
from .stepfunctions import EXTERNAL, Generalized, Internal, log_norm
from .workspace import Workspace, load_workspace

_DEVIATION_LIMIT = 1e-9


def _norm_text(value: ExtendedReal) -> str:
    return "inf" if not value.is_finite else format_real(value.value)


def _named(table: dict, name: str):
    if name not in table:
        raise LogSpaceError(f"unknown name: {name}")
    return table[name]


def _require_space(ws: Workspace, key: str = "space"):
    space = ws.space if key == "space" else ws.space2
    if space is None:
        raise LogSpaceError(f'workspace has no "{key}"')
    return space


def _forbid(args: argparse.Namespace, kind: str, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag.lstrip("-").replace("-", "_")) is not None:
            raise LogSpaceError(f"{flag} is not used with kind {kind}")


def _cmd_norm(ws: Workspace, args) -> int:
    space = _require_space(ws)
    f = _named(ws.functions, args.fn)
    if args.kind == "external":
        _forbid(args, "external", "--h", "--h1", "--h2")
        kind = EXTERNAL
    elif args.kind == "internal":
        _forbid(args, "internal", "--h1", "--h2")
        if args.h is None:
            raise LogSpaceError("kind internal requires --h")
        kind = Internal(_named(ws.densities, args.h))
    else:
        _forbid(args, "generalized", "--h")
        if args.h1 is None or args.h2 is None:
            raise LogSpaceError("kind generalized requires --h1 and --h2")
        kind = Generalized(_named(ws.densities, args.h1), _named(ws.densities, args.h2))
    print(f"norm = {_norm_text(log_norm(f, space, kind))}")
    return 0


def _cmd_passport(ws: Workspace, args) -> int:
    print(render_passport(build_passport(_require_space(ws))))
    return 0


_RELATIONS = {
    "iso-pair": decide_isomorphic_pair,
    "star-iso": decide_star_isomorphic,
    "isometric": decide_isometric_external,
    "gen-isometric": decide_isometric_generalized,
}


def _cmd_decide(ws: Workspace, args) -> int:
    left = (
        _named(ws.passports, args.left)
        if args.left is not None
        else build_passport(_require_space(ws, "space"))
    )
    right = (
        _named(ws.passports, args.right)
        if args.right is not None
        else build_passport(_require_space(ws, "space2"))
    )
    decision = _RELATIONS[args.relation](left, right)
    print(f"verdict = {'true' if decision.verdict else 'false'}")
    print(f"rule = {decision.rule}")
    print(f"witness = {decision.witness}")
    return 0 if decision.verdict else 1


def _cmd_transport(ws: Workspace, args) -> int:
    from .transport import render_transport, transport_between_spaces

    tmap = transport_between_spaces(_require_space(ws, "space"), _require_space(ws, "space2"))
    print(render_transport(tmap))
    return 0


def _cmd_verify(ws: Workspace, args) -> int:
    from .transport import transport_between_spaces, verify_isometry

    space = _require_space(ws)
    if args.target == "transport":
        space2 = _require_space(ws, "space2")
        tmap = transport_between_spaces(space, space2)
        report = verify_isometry(tmap, space, EXTERNAL, space2, EXTERNAL, args.samples, args.seed)
    else:
        h = _named(ws.densities, "h")
        report = verify_isometry(h, space, EXTERNAL, space, Internal(h), args.samples, args.seed)
    print(f"samples = {report.samples}")
    print(f"max_abs_deviation = {format_real(report.max_abs_deviation)}")
    return 0 if report.max_abs_deviation <= _DEVIATION_LIMIT else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logspaces",
        description="Log-integrable function spaces: norms, passports, decisions, transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p):
        p.add_argument("--file", required=True, help="workspace JSON file")
        return p

    p_norm = with_file(sub.add_parser("norm", help="evaluate a named function's log-norm"))
    p_norm.add_argument("--fn", required=True)
    p_norm.add_argument("--kind", choices=["external", "internal", "generalized"], default="external")
    p_norm.add_argument("--h", default=None)
    p_norm.add_argument("--h1", default=None)
    p_norm.add_argument("--h2", default=None)
    p_norm.set_defaults(run=_cmd_norm)

    p_pass = with_file(sub.add_parser("passport", help="print the passport of the workspace space"))
    p_pass.set_defaults(run=_cmd_passport)

    p_dec = with_file(sub.add_parser("decide", help="decide a classification relation"))
    p_dec.add_argument("--relation", required=True, choices=sorted(_RELATIONS))
    p_dec.add_argument("--left", default=None, help="passport name (default: passport of space)")
    p_dec.add_argument("--right", default=None, help="passport name (default: passport of space2)")
    p_dec.set_defaults(run=_cmd_decide)

    p_tr = with_file(sub.add_parser("transport", help="monotone transport from space to space2"))
    p_tr.set_defaults(run=_cmd_transport)

    p_ver = with_file(sub.add_parser("verify", help="numerically verify an isometry"))
    p_ver.add_argument("--target", required=True, choices=["transport", "weighting"])
    p_ver.add_argument("--samples", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(run=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        ws = load_workspace(args.file)
        return args.run(ws, args)
    except (LogSpaceError, OSError) as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
