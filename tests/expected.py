"""Frozen expected values for the test suite.

Every number here was computed with an independent 80-digit decimal
evaluation of the closed forms (stdlib Decimal, float64 inputs identical to
the pipeline's), written separately from the package code.  The shift deltas
are kept as decimal strings because their interesting digits extend far below
float epsilon of the unit shift ratio.
"""

from decimal import Decimal

# geometric conversions (the mass follows the pipeline's float evaluation
# G*m/c^2, which the decimal reference adopts digit-for-digit)
M_GEOM = 4.433218405038805e-3  # m, G M / c^2 for the preset planet mass
R_S = 2.0 * M_GEOM
A_FROM_INERTIA = 3.2707551925588046  # m, I omega / (M c)

# preset radii
R_A = 6.378e6
R_LEO = 8.378e6
R_GEO = 4.2162e7

# dimensionless parameter table (3 s.f. targets)
TABLE = {
    "m_over_rA": 6.95e-10,
    "m_over_rB_leo": 5.29e-10,
    "m_over_rB_geo": 1.05e-10,
    "a_over_rA": 5.11e-7,
    "a_over_rB_leo": 3.89e-7,
    "a_over_rB_geo": 7.73e-8,
    "rA_omegaA": 1.55e-6,
}

# exact shift deltas (co-rotating receiver), 40 significant digits
DELTA_LEO = Decimal("9.744254784786162416446277004112817345283e-11")
DELTA_GEO = Decimal("-5.385615230043959117141175631650326280243e-10")
DELTA_SATS = Decimal("-6.360040707902836787791633442579294001336e-10")

# decomposition terms
DELTA_S_LEO = 9.864523489170743e-11
DELTA_S_GEO = -5.373588355003167e-10
DELTA_ROT = -1.2026871890868135e-12
DELTA_C_LEO = 1.4524101470977285e-19
DELTA_C_GEO = -3.1499241494659753e-19
DELTA_S_SATS = -6.360040703920241e-10
DELTA_ROT_SATS = -3.9744979676710733e-23
DELTA_C_SATS = -3.982198275772767e-19

# observer normalisation factors
GAMMA_A_MINUS_1 = 6.962824002135376e-10
GAMMA_B_DIRECTION_SPLIT_GEO = -1.5857158012720665e-12  # gamma(+1) - gamma(-1)

# metrology with the default probe configuration
QFI_DEFAULT = 1.2891034089648079e19
DELTA_DELTA_MIN = 2.7851983008958946e-15
BOUND_RS_LEO = 2.823449408330246e-5
BOUND_RS_GEO = 5.183125533429985e-6
BOUND_RS_SATS = 4.37921458455311e-6
BOUND_OMEGA_GROUND = 1.1579063642519812e-3
BOUND_OMEGA_SATS = 3.503836614776193e7

# key-protocol error rates (inputs: mass term for LEO/GEO, rotation term for
# the zero-shift orbit)
QBER_LEO = 5.960165449689581e-4
QBER_GEO = 1.7686214233028207e-2
QBER_ZERO_ORBIT = 8.859545908110438e-8

# packet overlap for the exact GEO delta with the default packet
THETA_GEO = 0.9823914041294279

# zero-shift receiver radius, co-rotating full-spin case
R_ZERO_KERR = 9550474.940083489
