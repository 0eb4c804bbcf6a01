"""Exact-arithmetic engine for loop-span lifting obstructions of line
bundles on products of curves, with quaternionic endomorphism models."""

from .algebra import (
    AlgElement,
    DMatrix,
    StructureAlgebra,
    element_to_dmatrix,
    hilbert_symbol,
    make_algebra,
    matrix_algebra,
    matrix_unit,
    quaternion_algebra,
    quaternion_for_prime,
    ramified_places,
    split_model,
)
from .closure import (
    SubrngResult,
    generates_fully,
    stabilized_word_span,
    subrng_closure,
)
from .divisor import (
    MultiHomogPoly,
    contains_double_fiber,
    parse_poly,
    substitute_powers,
    verify_factorization,
)
from .linalg import (
    Subspace,
    echelonize,
    ratio,
    solve_linear,
    subspace_equal,
    subspace_sum,
    vector,
)
from .obstruction import (
    CornerReport,
    Cover,
    ObstructionGraph,
    ObstructionVerdict,
    PathSpanTable,
    SpecializationMap,
    compute_obstruction,
    corner_detect,
    dagger_span,
    flag_nonliftable,
    loop_oracle,
    path_span_table,
    pullback_transform,
    relabel_vertices,
    scale_edges,
    specialize_transform,
    transport_span,
)
from .witness import (
    ChainReport,
    GeneratorSearch,
    build_r3_graph,
    build_r4_graph,
    random_rosati_generator,
    shift_witness,
    verify_identity_chain,
)

__version__ = "0.1.0"
