"""Log-integrable function spaces over interval measure spaces.

The package realizes measured Boolean algebras as disjoint unions of real
intervals with piecewise-constant densities, computes the external, internal
and generalized log-norms of complex step functions exactly, classifies
spaces by their three-row passports, and constructs and verifies the
measure-transport and weighting isometries between them.

Every ``python -m logspaces`` call imports this package first, and without
a bytecode cache it compiles each module it loads.  So the names of
``logspaces.transport`` and ``riemann_oracle`` (``logspaces.oracle``, the
numpy check) are resolved on first use through the module ``__getattr__``
below: ``from logspaces import lift`` and ``logspaces.riemann_oracle`` work
as before, but ``import logspaces`` and the ``norm``, ``passport`` and
``decide`` subcommands load neither module.
"""

from importlib import import_module as _import_module

from .errors import LogSpaceError, WorkspaceError
from .extreal import INF, ExtendedReal, ext_sum, finite
from .measure import (
    Component,
    IntervalPiece,
    MeasurableSet,
    MeasureSpace,
    PiecewiseDensity,
    SpaceDensity,
    WeightLabel,
    constant_density,
    density,
    integrate_piecewise,
    interval_space,
    measure,
    refine,
    reweight,
    rn_derivative,
    space,
    total_measure,
    uniform_density,
)
from .passports import (
    ClosedForm,
    Decision,
    FiniteList,
    MeasureSeq,
    Passport,
    build_passport,
    decide_isometric_external,
    decide_isometric_generalized,
    decide_isomorphic_pair,
    decide_star_isomorphic,
    ratio_bounded,
    render_passport,
)
from .stepfunctions import (
    EXTERNAL,
    External,
    Generalized,
    Internal,
    NormKind,
    StepFunction,
    StepPiece,
    add,
    distance,
    is_member,
    log_norm,
    multiply,
    scale,
)
from .workspace import Workspace, emit_workspace, load_workspace, parse_workspace

__version__ = "0.1.0"

# name -> the submodule that defines it, for the names loaded on first use
_LAZY = {
    **dict.fromkeys(
        (
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
        ),
        "transport",
    ),
    "riemann_oracle": "oracle",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


# a star import takes the lazy names too, and so loads their modules
__all__ = sorted(name for name in {*globals(), *_LAZY} if not name.startswith("_"))
