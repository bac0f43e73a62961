"""Q-systems over graded complex matrices: axiom checkers, splitting
algorithms, and functor-category completeness verification."""

from .linalg import Tolerance, dagger, range_isometry, spectral_projections, \
    commutant_basis
from .cells import ZeroCell, GradedOneCell, BlockTwoCell, id1, id2, one_cell, \
    two_cell, hcomp1, hcomp2, vcomp, dagger2, unitor_left, unitor_right, \
    standard_dual
from .qsystem import QSystemData, DualPair, BimoduleData, check_qsystem, \
    trivial_qsystem, qsystem_from_dual, canonical_pairing, check_bimodule, \
    check_intertwiner, relative_tensor, check_qsystem_iso
from .splitting import SplitResult, split_projection, regular_reps, \
    central_decomposition, split_qsystem
from .presentation import PresentedTwoCat, GenOneCell, GenTwoCell, Path
from .funcat import FunctorData, TransformationData, ModificationData, \
    EndFQSystem, check_functor, check_transformation, check_modification, \
    tensor_transformations, tensor_modifications, vcomp_modifications, \
    split_modification_projection, check_endf_qsystem, \
    qsystem_from_dualizable_transformation, construct_G, construct_phi, \
    construct_phibar, verify_main_theorem, constant_functor_scenario

__version__ = "0.1.0"
