"""kerr-qlink: photon frequency shift in the equatorial spacetime of a
rotating planet, Gaussian wavepacket distortion, quantum Fisher information
and Cramer-Rao precision bounds, and the induced quantum bit error rate for
ground-to-satellite and satellite-to-satellite optical links.

Compensated (double-double) arithmetic carries the shift pipeline, an
arbitrary-precision decimal oracle and a geodesic integrator verify it.
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
from .geometry import (
    FourVector,
    MetricAt,
    PhotonState,
    Worldline,
    WorldlineKind,
    contract,
    ground_station_velocity,
    metric_at,
    orbit_angular_velocity,
    orbit_velocity,
    photon_tangent,
)
from .metrology import (
    MetrologyConfig,
    PrecisionBound,
    RegimeStatus,
    bound_angular_velocity,
    bound_schwarzschild_radius,
    cramer_rao,
    fidelity_two_mode,
    qber,
    qfi,
    qfi_numeric_limit,
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
    shift_schwarzschild,
    shift_via_contraction,
)
from .units import (
    EARTH,
    DimensionlessParams,
    EarthModel,
    SpacetimeParams,
    dimensionless_params,
    geo_radius,
    geometric_mass,
    kerr_parameter_from_inertia,
    leo_radius,
)
from .wavepacket import (
    GaussianWavepacket,
    OverlapResult,
    overlap_analytic,
    overlap_numeric,
    propagate,
)

__version__ = "1.0.0"
