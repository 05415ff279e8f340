"""Exact combinatorics of incidence hypersurfaces in products of projective
spaces, instantiated for pinhole cameras and multifocal tensors."""

from .errors import (
    CycleInputError,
    DegenerateInputError,
    InapplicableError,
    MultichowError,
    PreconditionError,
)
from .multidegree import (
    Multidegree,
    chow_form_multidegree,
    criterion_form,
    criterion_forms,
    determines_variety,
    is_hypersurface,
    multidegree_add,
    slice_multidegree,
)
from .multiview import (
    CameraConfiguration,
    LinearSpaceTuple,
    MultifocalTensor,
    chow_residual,
    epsilon_oracle,
    intersection_count_oracle,
    multifocal_tensor,
    multiview_multidegree,
    project_point,
    sz_membership,
    tensor_contract,
)
from .polymatroid import (
    Polymatroid,
    RankFunction,
    SpaceSignature,
    ValidationReport,
    enumerate_beta,
    is_circuit,
    is_one_deficient,
    minimal_tight_set,
    projections_from_support,
    support_from_projections,
    validate_rank_function,
)

__version__ = "0.1.0"
