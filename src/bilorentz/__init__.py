"""1+1D kinematics with both branches of generalized boost transformations.

The symmetric family contains the standard Lorentz boosts; the antisymmetric
family is a coordinate swap composed with a boost at inverse velocity.  The
package applies and composes transforms, classifies displacements by
coordinate speed and by interval sign, verifies the family identities
mechanically, and renders scenarios as deterministic SVG Minkowski diagrams.
"""

from types import ModuleType as _ModuleType

# These imports are the list of eager public names; __all__ below is read off them.
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
from .diagram import (
    DiagramStyle,
    EmptyWindowError,
    OutOfWindowError,
    SvgDocument,
    annotate_events,
    clip_to_window,
    render_pair,
)
from .scenario_io import (
    ScenarioFormatError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .worldlines import (
    FIG2_PARTICLE_SPEEDS,
    LightRayViolationError,
    Scenario,
    Window,
    Worldline,
    WorldlineKind,
    build_fig2_scenario,
    build_fig3_scenario,
    build_fig4_scenario,
    coordinate_velocity,
    rest_point_worldline,
    transform_worldline,
)

__version__ = "0.1.0"

#: Names served from ``verify``, which imports numpy; loaded on first access
#: (PEP 562) so that ``import bilorentz`` and the CLI's other commands do not.
_VERIFY_NAMES = frozenset({"CheckResult", "VerificationReport", "format_report",
                           "run_verification"})


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify
        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)}
                 | _VERIFY_NAMES)
