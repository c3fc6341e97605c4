"""Realize integer degree sequences as Z3-connected simple graphs, verify
Z3-connectivity exhaustively, and certify it by sound reductions."""

from .builder import ConstructionError, RealizationResult, realize
from .catalog import base_graph, wheel
from .enumerate import all_realizations, count_isomorphism_classes, verify_exception
from .graph import (GraphError, Multigraph, build_graph, format_edgelist,
                    is_triangularly_connected, parse_edgelist, to_dot)
from .reducer import (Certificate, certify, find_even_wheel,
                      parse_certificate, replay)
from .seqcore import (Classification, DegreeSequence, Kind, Route, classify,
                      is_graphic, parse_sequence, residual)
from .verifier import (ORACLE_N_MAX, FlowAssignment, OracleCapError,
                       ZeroSumFunction, boundary, has_modular_3_orientation,
                       is_3_flowable, is_z3_connected, solve_boundary)

__version__ = "0.1.0"
