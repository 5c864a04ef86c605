"""Construction and classification of 1-factorisations of K^3_{q+1}.

The complete 3-uniform hypergraph on q+1 vertices (q a prime power with
q = 2 mod 3) carries a 1-factorisation whose 1-factors are the orbit
partitions of order-3 fractional linear maps on the projective line.  This
package builds that factorisation and decides, by exhaustive sweeps and by
closed-form algebraic criteria, whether it is connected (C1F), uniform
(U1F), uniform-connected (UC1F) or Hamilton-Berge (HB1F).
"""

from .field import FiniteField
from .projline import Mobius, affine_map, base_map, orbit_map
from .factorisation import (
    Factorisation,
    OneFactor,
    build_factorisation,
    build_one_factor,
    verify_partition,
)

__all__ = [
    "FiniteField",
    "Mobius",
    "affine_map",
    "base_map",
    "orbit_map",
    "Factorisation",
    "OneFactor",
    "build_factorisation",
    "build_one_factor",
    "verify_partition",
]
