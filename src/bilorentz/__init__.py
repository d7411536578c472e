"""1+1D kinematics with both branches of generalized boost transformations.

The symmetric family contains the standard Lorentz boosts; the antisymmetric
family is a coordinate swap composed with a boost at inverse velocity.  The
package applies and composes transforms, classifies displacements by
coordinate speed and by interval sign, verifies the family identities
mechanically, and renders scenarios as deterministic SVG Minkowski diagrams.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# These imports are the list of eager public names; __all__ below is read off them
# and the lazy table.
from .core import (
    DEFAULT_TOL,
    STANDARD_METRIC,
    SWAPPED_METRIC,
    BranchKind,
    CausalClass,
    CausalReport,
    CoordinateSpeed,
    DegenerateDisplacementError,
    DomainError,
    Metric,
    NotDecomposableError,
    SingularMatrixError,
    Transform,
    TwoVector,
    apply,
    classify_coordinate,
    classify_geometric,
    compose,
    gamma_antisymmetric,
    gamma_symmetric,
    interval_squared,
    inverse,
    k_constant,
    make_l,
    make_lambda,
    make_lambda_infinite_limit,
    make_transform,
    measured_displacement,
    parity_conjugate,
    refit,
    swap_decompose,
    transform_metric,
)

__version__ = "0.1.0"

#: Names served on first access (PEP 562), by the submodule that defines them.
#: ``verify`` imports numpy, and ``diagram``, ``scenario_io`` and ``worldlines``
#: only serve the ``diagram`` command, so ``import bilorentz`` and the CLI's
#: ``transform``, ``classify`` and ``compose`` load ``core`` alone.
_LAZY = {
    "diagram": ("DiagramStyle", "EmptyWindowError", "OutOfWindowError", "SvgDocument",
                "annotate_events", "clip_to_window", "render_pair"),
    "scenario_io": ("ScenarioFormatError", "load_scenario", "save_scenario",
                    "scenario_from_dict", "scenario_to_dict"),
    "verify": ("CheckResult", "VerificationReport", "format_report", "run_verification"),
    "worldlines": ("FIG2_PARTICLE_SPEEDS", "LightRayViolationError", "Scenario", "Window",
                   "Worldline", "WorldlineKind", "build_fig2_scenario", "build_fig3_scenario",
                   "build_fig4_scenario", "coordinate_velocity", "rest_point_worldline",
                   "transform_worldline"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        # Importing a submodule binds it as an attribute of the package.
        return _import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    return value


__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)}
                 | _OWNER.keys())
