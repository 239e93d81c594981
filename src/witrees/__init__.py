"""witrees: weakly increasing k-ary trees.

Exact big-integer counting (three independent routes), exact uniform
random generation via the growth process, and numerical estimation of the
asymptotic constants of the counting sequence.
"""

from .asymptotics import (
    AsymptoticEstimate,
    Precision,
    ScaledSequence,
    correction_a,
    estimate_alpha,
    estimate_eta_extrapolation,
    estimate_eta_integral,
    estimate_kary_exponent,
    kary_exponent_target,
    scaled_b_recurrence,
    scaled_from_exact,
    scaled_h_recurrence,
)
from .cache import CacheError, cache_load, cache_save
from .exact import (
    CountTable,
    GuardExceeded,
    LabelStratifiedTable,
    brute_force_count,
    count_binary_funceq,
    count_binary_upto,
    count_by_max_label,
    count_kary_funceq,
    count_kary_upto,
    count_upto_size,
)
from .oeis import OeisBFile, ShiftReport, find_shift, load_bfile, parse_bfile
from .sampler import (
    SamplerContext,
    TreeStatistics,
    enumerate_all,
    sample_uniform,
    tree_statistics,
)
from .trees import (
    BULLET,
    CompletedTree,
    LabeledTree,
    Node,
    ValidationResult,
    canonical_encoding,
    complete,
    decode_encoding,
    evolution_step,
    render_graph,
    render_indented,
    root_tree,
    validate,
)

__version__ = "0.1.0"
