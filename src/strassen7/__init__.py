"""Constructive derivation, machine verification, and recursive application
of rank-7 bilinear 2x2 matrix multiplication over exact fields."""

from .construction import (
    BilinearDecomposition,
    PerpPair,
    Provenance,
    Rotation,
    StrassenBasis,
    Term,
    build_basis,
    default_rotation,
    default_u,
    derive_decomposition,
    perp_vector,
    validate_rotation,
)
from .engine import (
    EngineConfig,
    MatN,
    OpCounter,
    bench,
    classical_multiply,
    strassen_multiply,
)
from .fields import (
    RATIONAL,
    Field,
    FieldElement,
    InputError,
    PrimeField,
    Rationals,
    parse_field,
)
from .fileformat import format_matrix, parse, parse_matrix, serialize
from .linalg import ColVec2, Mat2, RowVec2
from .verification import (
    VerificationReport,
    verify_bilinear_identity,
    verify_exhaustive_gf,
    verify_multiplication_table,
    verify_trilinear,
)

__all__ = [
    "BilinearDecomposition",
    "ColVec2",
    "EngineConfig",
    "Field",
    "FieldElement",
    "InputError",
    "MatN",
    "Mat2",
    "OpCounter",
    "PerpPair",
    "PrimeField",
    "Provenance",
    "RATIONAL",
    "Rationals",
    "Rotation",
    "RowVec2",
    "StrassenBasis",
    "Term",
    "VerificationReport",
    "bench",
    "build_basis",
    "classical_multiply",
    "default_rotation",
    "default_u",
    "derive_decomposition",
    "format_matrix",
    "parse",
    "parse_field",
    "parse_matrix",
    "perp_vector",
    "serialize",
    "strassen_multiply",
    "validate_rotation",
    "verify_bilinear_identity",
    "verify_exhaustive_gf",
    "verify_multiplication_table",
    "verify_trilinear",
]

__version__ = "0.1.0"
