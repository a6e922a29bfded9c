"""kerr-qlink: photon frequency shift in the equatorial spacetime of a
rotating planet, Gaussian wavepacket distortion, quantum Fisher information
and Cramer-Rao precision bounds, and the induced quantum bit error rate for
ground-to-satellite and satellite-to-satellite optical links.

Compensated (double-double) arithmetic carries the shift pipeline, an
arbitrary-precision decimal oracle and a geodesic integrator verify it.

The independent cross-check routes (metric contraction, written-out
Schwarzschild limit, quadrature overlap, fidelity-limit QFI) load from
``crosscheck`` when one of their names is first asked for, so importing the
package or running a report never compiles them.
"""

from .ddouble import DD
from .errors import (
    ConfigError,
    DomainError,
    HigherOrderRegimeError,
    KerrQlinkError,
    NoRootInBracketError,
    NumericalError,
    RegimeError,
)
from .geometry import Worldline, WorldlineKind, orbit_angular_velocity
from .metrology import (
    MetrologyConfig,
    PrecisionBound,
    RegimeStatus,
    bound_angular_velocity,
    bound_schwarzschild_radius,
    cramer_rao,
    qber,
    qfi,
    regime_check,
)
from .perturb import (
    ShiftDecomposition,
    decompose_ground,
    decompose_sats,
    error_angular_velocity,
    error_schwarzschild_radius,
)
from .shift import (
    LinkScenario,
    LinkScheme,
    ShiftResult,
    find_zero_shift_orbit,
    shift,
    shift_ground_to_sat,
    shift_sat_to_sat,
)
from .units import (
    EARTH,
    EarthModel,
    SpacetimeParams,
    geo_radius,
    geometric_mass,
    kerr_parameter_from_inertia,
    leo_radius,
)
from .wavepacket import (
    GaussianWavepacket,
    OverlapResult,
    overlap_analytic,
    propagate,
)

__version__ = "1.0.0"

# the package names served from crosscheck
_CROSSCHECK = frozenset({
    "FourVector", "MetricAt", "PhotonState", "contract",
    "ground_station_velocity", "metric_at", "orbit_velocity", "photon_tangent",
    "shift_schwarzschild", "shift_via_contraction", "overlap_numeric",
    "qfi_numeric_limit",
})


def __getattr__(name: str):
    if name in _CROSSCHECK:
        from . import crosscheck
        return getattr(crosscheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
