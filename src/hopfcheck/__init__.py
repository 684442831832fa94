"""Exact verification of antipode-nilpotency identities on graded Hopf
algebra presentations, over pluggable exact coefficient rings."""

from .errors import (ConstructionError, HopfcheckError, ResourceGuardError,
                     SpecFileError, StructuralError, TruncationError,
                     UnsupportedRingError)
from .gmod import (Element, GradedBasis, GradedMap, Tensor2Element,
                   Tensor2Map, kernel_vectors)
from .hopf import HopfPresentation
from .reduced import (delta_kernel, delta_kernel_vectors, idbar, is_primitive,
                      reduced_coproduct, reduced_coproduct_label,
                      verify_delta_degree_bound, verify_delta_factorization,
                      verify_prim_characterization)
from .report import (EXPECTED_NONIDENTITY, FAIL, NOT_CHECKED, PASS, Check,
                     Report)
from .rings import (QQ, ZZ, IntegerRing, ModRing, PolyQuotientRing,
                    RationalRing, Ring, RingElement, cyclotomic_ring,
                    ring_from_string)
from .specfile import (export_presentation, parse_presentation,
                       parse_presentation_file)
from .verify import (PreCoalgebraInstance, binomial_identity_check,
                     check_hypotheses, instance_from_hopf,
                     suite_antipode_props, suite_corollary_filtered,
                     suite_graded_hopf, suite_lowered_exponent,
                     suite_oracle_agreement, suite_taft_remark,
                     verify_conclusions, verify_theorem)
from .zoo import (CONNECTED_ZOO, ZOO, build_algebra, free_bialgebra,
                  free_example_abc, fqsym, shuffle_algebra, taft,
                  tensor_algebra)

__version__ = "0.1.0"
