"""
Graded decomposition numbers of quiver Temperley-Lieb algebras.

Exact-arithmetic computation of graded decomposition numbers, graded
standard-module dimensions and graded simple characters for the
one-column (Temperley-Lieb) quotients of quiver Hecke algebras, via
alcove-path combinatorics.  Three mutually cross-checking routes are
implemented: wall-crossing recursions on alcove functions, graded path
counting, and a purely arithmetic oracle built on the symmetric-plus-
positive splitting of Laurent polynomials.
"""

from .laurent import Laurent, SplitImpossible, is_in_plus_semiring, split_symmetric
from .params import Params, ParamsError
from .geometry import (
    AffineElement,
    AlcoveKey,
    Geometry,
    Hyperplane,
    NotAGalleryCrossing,
    SingularPoint,
    geometry_for,
)
from .paths import (
    ClosureBudgetExceeded,
    NotAGallery,
    NotAdmissible,
    NotOnHyperplane,
    PathWord,
    alcove_series,
    distinguished_path,
    graded_path_count,
    is_admissible,
    path_degree,
    paths_between,
    reflect_tail,
    reflection_closure,
    step_degree,
)
from .soergel import (
    AlcoveFunction,
    InternalMismatch,
    evaluate_at_points,
    run_all,
)
from .tableaux import (
    Tableau,
    addable_removable,
    component_word,
    dominance_leq,
    loading,
    residue_multiset,
    semistandard_tableaux,
    tableau_degree,
)
from .decomposition import (
    Block,
    DecompositionMatrix,
    NoRegularMember,
    NotLevelTwo,
    block_of,
    blocks,
    decomposition_matrix,
    kn_oracle,
    level2_closed_form,
    level2_hom_dim,
    level2_label,
    matrices_equal,
    stability_check,
)

__version__ = "0.1.0"
