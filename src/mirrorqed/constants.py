"""Physical constants, CODATA 2018, hard-coded, and the defaults of the
numerical controls.

The physical constants are pinned rather than imported from
scipy.constants so that emitted numbers do not drift when the
environment ships a newer CODATA adjustment. The numerical controls sit
here, with no numpy import, so that sweep configs and the command line
read them without loading the routes that use them; geometry and cavity
export them under the same names.
"""

ELEMENTARY_CHARGE = 1.602176634e-19  # C (exact)
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
HBAR = 1.054571817e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m/s (exact)

#: Default relative tolerance of every quadrature route.
DEFAULT_TOL = 1e-9
#: Roundoff floor on the reported error estimate, relative to max(1, |I|);
#: no smaller tol can converge.
ERR_FLOOR = 4e-16
#: The series' default bound on its tail plus rounding.
DEFAULT_TAIL_TOL = 1e-8
