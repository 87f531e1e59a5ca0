"""Exact computations in the partial Temperley-Lieb tower.

Diagram monoids (partition, partial Brauer, Motzkin, Temperley-Lieb),
their twisted algebras over exact polynomial rings, the alternating bar
and tilde bases with their structured products, block decompositions,
cell modules, the tensor-space representation commuting with quantum-group
generators, and semisimplicity criteria.
"""

from .algebra import (AlgebraSpec, Element, bar_multiply, bar_of, change_basis,
                      epsilon, motzkin_spec, ptl_spec, tilde_multiply,
                      tilde_of, tl_spec)
from .diagram import (Diagram, Frame, Triple, balanced_motzkin_diagrams,
                      balanced_motzkin_stratum, catalan, compose, count_diagrams,
                      diagram_of, enumerate_diagrams, enumerate_keys, gen_b, gen_e,
                      gen_l, gen_p, gen_r, gen_s, identity, motzkin_diagrams, omega,
                      partial_brauer_diagrams, tensor, tl_diagrams, triple_of)
from .scalar import DeltaPoly, LaurentPoly, parse_scalar

__version__ = "0.1.0"
