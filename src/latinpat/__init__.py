"""
latinpat: pattern avoidance in Latin squares.

Exact enumeration of avoiders with pruned backtracking, closed-form
generators for the squares avoiding length-3 patterns, Wilf-class
computation over length-4 patterns, monotone-subsequence minimax analysis,
and rectangular-pattern containment queries.  Everything counts exactly;
brute-force oracles at small orders back every fast path.
"""

__version__ = "0.1.0"

from .analysis import (
    compute_lambda_exhaustive,
    full_length_count,
    lambda_bound_report,
    lambda_lower_bound,
    verify_cyclic_structure,
    verify_erdos_szekeres,
    verify_full_length_counts,
    verify_triple_containment,
    wilf_classes,
)
from .construct import (
    all_s3_avoiders,
    avoider_complement_map,
    avoider_relabel_map,
    avoider_reverse_map,
    complete_columns_avoiding,
    connolly_square,
    construct_s3_avoider,
)
from .enumeration import (
    CountResult,
    FeasibilityError,
    count_reduced_squares,
    count_squares,
    enumerate_squares,
    partition_tasks,
)
from .perm import (
    check_erdos_szekeres,
    complement,
    compose,
    contains,
    count_avoiding_permutations,
    direct_sum,
    erdos_szekeres_lambda,
    find_occurrence,
    inverse,
    longest_monotone,
    reverse,
)
from .rectpat import (
    contains_rectangle,
    extract_subrectangle,
    rect_order_isomorphic,
    rotate_rect_90,
)
from .square import (
    AvoidanceSpec,
    LatinRectangle,
    LatinSquare,
    avoids_spec,
    column_permutations,
    latin_rectangle,
    latin_square,
    load_rectangle,
    load_square,
    max_monotone,
    parse_rectangle,
    parse_square,
    reflect_vertical,
    relabel,
    rotate180,
    row_permutations,
    serialize_square,
    symbol_permutations,
    transpose,
)
