"""Exact analysis of multipartite no-signaling boxes under the XOR guessing
task: box construction and validation, entropy engine, task simulation
(single copy and concatenated), information-causality style criteria, and
parameter-slice scans."""

from .behaviors import (Behavior, CatalogEntry, StructureError,
                        ValidationReport, correlator, load_behavior,
                        load_catalog, mix, named_box, save_behavior, validate)
from .criteria import (CRITERION_IDS, CriterionReport, eval_bipartite_ic,
                       eval_multicopy, eval_multipartite_ic, eval_noisy_ic,
                       eval_stronger_bipartite, eval_success_bound,
                       eval_uffink, evaluate, multicopy_orbit_max)
# the entropy() function itself stays in icbox.entropy: re-exporting it here
# would shadow the submodule attribute on the package
from .entropy import (JointDistribution, binary_entropy,
                      cond_mutual_information, marginal, mutual_information)
from .protocol import (SuccessProfile, biases, concat_success_closed,
                       concat_success_simulated, single_copy_joint,
                       success_profile, task_joints)
from .scan import (BoundaryPoint, SliceSpec, boundary, classify_catalog,
                   default_slice, scan_slice, slice_point)

__version__ = "0.1.0"

__all__ = [
    "Behavior", "CatalogEntry", "StructureError", "ValidationReport",
    "correlator", "load_behavior", "load_catalog", "mix", "named_box",
    "save_behavior", "validate",
    "CRITERION_IDS", "CriterionReport", "eval_bipartite_ic", "eval_multicopy",
    "eval_multipartite_ic", "eval_noisy_ic", "eval_stronger_bipartite",
    "eval_success_bound", "eval_uffink", "evaluate", "multicopy_orbit_max",
    "JointDistribution", "binary_entropy",
    "cond_mutual_information", "marginal", "mutual_information",
    "SuccessProfile", "biases", "concat_success_closed",
    "concat_success_simulated", "single_copy_joint", "success_profile",
    "task_joints",
    "BoundaryPoint", "SliceSpec", "boundary", "classify_catalog",
    "default_slice", "scan_slice", "slice_point",
    "__version__",
]
