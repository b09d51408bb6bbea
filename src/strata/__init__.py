"""Rank-stratified matrix spaces: subspace arithmetic, oblique projections,
explicit in-stratum homotopies, and numerical certification of their
invariants."""

from .certify import (
    FlipAudit,
    MembershipSpec,
    PathCertificate,
    SampleRecord,
    audit_flip_path,
    certify_path,
)
from .errors import (
    DirectSumError,
    DisconnectedComponentsError,
    InputError,
    InternalConsistencyError,
    StrataError,
    WitnessError,
)
from .geometry import (
    EXACT,
    StratumPoint,
    TangentBasis,
    dim_fk,
    tangency_order,
    tangent_basis,
    tangent_violation,
)
from .instances import InstanceSpec, gen_instance, random_subspace
from .paths import (
    ChainWitness,
    OperatorPath,
    PathSegment,
    chain_connect,
    connect_fk,
    connect_phi,
    constant_path,
    corrected_flip_path,
    discover_chain,
    eval_path,
    eval_path_batch,
    frame_connect,
    gl_connect,
    left_project_path,
    literal_flip_path,
    make_segment,
    reverse_path,
    right_project_path,
    sample_parameters,
)
from .projections import (
    Decomposition,
    GraphParam,
    alpha_from_complements,
    alpha_operator,
    graph_subspace,
    oblique_projection,
    projection_update,
)
from .subspaces import (
    DEFAULT_TOL,
    DirectSumCheck,
    Subspace,
    ToleranceConfig,
    common_complement,
    is_direct_sum,
    kernel_basis,
    orthogonal_complement,
    principal_angles,
    range_basis,
    rank_kernel_range,
    rank_of,
    subspaces_equal,
    sum_and_intersection,
)

__version__ = "0.1.0"
