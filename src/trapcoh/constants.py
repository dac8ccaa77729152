"""Physical constants (CODATA 2018, SI), cesium atomic data and the block size
of the bulk numerical kernels.

Values are embedded as literals, 12 significant digits where the constant
is not exact, so results do not drift with library upgrades.
"""

import math

# exact by SI definition
BOLTZMANN = 1.380649e-23            # J/K
SPEED_OF_LIGHT = 299792458.0        # m/s
HBAR = 1.05457181765e-34            # J s, h/(2 pi)

ATOMIC_MASS = 1.66053906660e-27     # kg, CODATA 2018

# cesium-133
CS133_MASS = 132.905451961 * ATOMIC_MASS                 # kg
CS_HYPERFINE_SPLITTING = 2.0 * math.pi * 9192631770.0    # rad/s, exact (SI second)
CS_D1_WAVELENGTH = 894.59295986e-9   # m, 6S1/2 -> 6P1/2
CS_D2_WAVELENGTH = 852.34727582e-9   # m, 6S1/2 -> 6P3/2
CS_D2_LINEWIDTH = 2.0 * math.pi * 5.2227e6   # rad/s

# relative line strengths of the two D lines for the ground-state scalar
# light shift (D2 twice D1 for alkali atoms)
D2_WEIGHT = 2.0 / 3.0
D1_WEIGHT = 1.0 / 3.0

# numerical: float64 elements in one temporary of the blocked kernels (Monte-Carlo,
# Welch, filter function), 512 kB, so that their working set stays in cache at
# any input size; a complex value counts as two, so a block of the Gaussian
# channel's uniform-grid rotation tables (ceil(sqrt(n)) rows for n times) holds
# _BLOCK_ELEMENTS // (2 ceil(sqrt(n))) trajectories; package-private
_BLOCK_ELEMENTS = 1 << 16
