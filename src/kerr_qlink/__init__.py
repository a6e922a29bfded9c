"""kerr-qlink: photon frequency shift in the equatorial spacetime of a
rotating planet, Gaussian wavepacket distortion, quantum Fisher information
and Cramer-Rao precision bounds, and the induced quantum bit error rate for
ground-to-satellite and satellite-to-satellite optical links.

Fixed-point integer arithmetic carries the shift pipeline, whose results
leave as compensated (double-double) pairs; an arbitrary-precision decimal
oracle and a geodesic integrator verify it.

The package re-exports nothing: import each name from the module that
defines it (``from kerr_qlink.shift import shift_ground_to_sat``), so
``import kerr_qlink`` compiles no submodule and ``kerr_qlink.shift`` is the
module.
"""

__version__ = "1.0.0"
