"""
Graded decomposition numbers of quiver Temperley-Lieb algebras.

Exact-arithmetic computation of graded decomposition numbers, graded
standard-module dimensions and graded simple characters for the
one-column (Temperley-Lieb) quotients of quiver Hecke algebras, via
alcove-path combinatorics.  Three mutually cross-checking routes are
implemented: wall-crossing recursions on alcove functions, graded path
counting, and a purely arithmetic oracle built on the symmetric-plus-
positive splitting of Laurent polynomials.

The modules are the API: import from them, as in
``from quivertl.decomposition import decomposition_matrix``.
"""

__version__ = "0.1.0"
