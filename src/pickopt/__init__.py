"""Joint order batching and picker routing toolkit.

Warehouse graphs, integer programming formulations with lazy connectivity
families, integral separation, exact desk-scale oracles, walk encoders and
batching heuristics with a closed-form serpentine estimate.
"""

from .errors import (EncodingError, OracleSizeError, PickoptError,
                     SeparationError, UnsupportedFamilyError, ValidationError,
                     VariantMismatchError)
from .layout import (AuxEdge, AuxiliaryGraph, PickingGraph, Subaisle,
                     WarehouseLayout, build_auxiliary_graph, build_graph)
from .instance import (Instance, Order, Pick, bin_pack_exact, first_fit_decreasing,
                       generate_instance, instance_graph, load_instance, save_instance)
from .model import (BINARY, CONTINUOUS, INTEGER, Constraint, FeasibilityReport,
                    LinearModel, Variable, VariableAssignment, check_feasible,
                    export_model, write_lp, write_model_json, write_mps)
from .formulations import ALL_KINDS, ModelOptions, build_model, validate_options
from .separation import (CutRequest, cut_to_row, order_components,
                         separate_connectivity)
from .exact import (MAX_EXACT_ORDERS, MAX_ORACLE_EDGES, Solution, Walk,
                    WalkSpace, batching_to_solution, capacity_feasible_partitions,
                    load_solution, save_solution, solve_exact,
                    solve_no_reversal_exact, validate_solution, walk_space)
from .encoding import encode_walk_PF, encode_walk_PG, orient_walk
from .heuristics import (Batching, cw2_batching, make_oracle_estimator,
                         make_s_shape_estimator, s_shape_estimate,
                         seed_batching, validate_batching)

__version__ = "0.1.0"
