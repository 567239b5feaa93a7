"""Exact Grothendieck classes of banana, melonic, and necklace graphs.

The class of the complement of a graph hypersurface is represented as an
integer polynomial in the class S of the projective line minus three
points; the command line can print it in T = S + 1 or L = S + 2
instead.  Subpackages:

- poly: exact integer polynomial arithmetic
- families: the recursive polynomial families f, g, h, b and the
  necklace / clasped-necklace closed forms
- melonic: melonic constructions, their graphs, their enumeration, and
  their classes by the series-parallel fold
- graphalg: Kirchhoff polynomials and finite-field point counting
- concavity: log-concavity, ULC, ULC(m), unimodality checkers
- cli: command-line interface (entry point `melon`)
"""

from .poly import ClassPoly, IntPoly

__all__ = ["ClassPoly", "IntPoly"]

__version__ = "0.1.0"
