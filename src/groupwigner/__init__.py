"""Wigner quasi-probability distributions on compact groups.

Quantum states living in the regular representation of SU(2) (and, as
closed-form baselines, the planar rotor SO(2) and the Cartesian line) are
mapped to phase-space distributions built from geodesic mid-points of group
pairs.  The package provides:

* ``su2`` — unit-quaternion group arithmetic, Euler charts, geodesic
  distance and mid-points, principal square roots;
* ``irreps`` — Wigner ``D`` matrices, characters, Clebsch-Gordan data;
* ``grids`` — validated product quadratures for Haar measure and for the
  open-hemisphere shift integral;
* ``states`` — block Fourier coefficients of pure states and ensembles,
  synthesis/analysis, translations, serialization;
* ``wigner`` — the production distribution (full and traced forms),
  marginals, covariant transforms, overlaps, kernel reconstruction, and a
  brute-force mollified oracle;
* ``baselines`` — independent closed-form references on the line and the
  circle;
* ``cli`` — a command-line front end (``groupwigner verify | wigner |
  overlap``).
"""

from . import baselines, errors, grids, irreps, states, su2, wigner
from .errors import (
    AntipodalNode,
    AntipodalPair,
    ConfigError,
    DomainError,
    GridTooCoarse,
    GroupWignerError,
    InvalidGrid,
    OutOfDomain,
    SchemaError,
)
from .grids import haar_grid, haar_grid_for_degree, hemisphere_grid, hemisphere_grid_for
from .states import (
    BlockState,
    DensityEnsemble,
    basis_state,
    load_state,
    random_state,
    save_state,
)
from .wigner import (
    marginal_momentum,
    marginal_position,
    overlap_trace,
    reconstruct_kernel,
    wigner_bruteforce_mollified,
    wigner_full,
    wigner_tilde,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "baselines",
    "errors",
    "grids",
    "irreps",
    "states",
    "su2",
    "wigner",
    "GroupWignerError",
    "AntipodalNode",
    "AntipodalPair",
    "ConfigError",
    "DomainError",
    "GridTooCoarse",
    "InvalidGrid",
    "OutOfDomain",
    "SchemaError",
    "haar_grid",
    "haar_grid_for_degree",
    "hemisphere_grid",
    "hemisphere_grid_for",
    "BlockState",
    "DensityEnsemble",
    "basis_state",
    "random_state",
    "load_state",
    "save_state",
    "wigner_full",
    "wigner_tilde",
    "marginal_momentum",
    "marginal_position",
    "overlap_trace",
    "reconstruct_kernel",
    "wigner_bruteforce_mollified",
]
