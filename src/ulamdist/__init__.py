"""Ulam-distance distributions: censuses, log-concavity, injections."""

from .census import (
    BudgetError,
    ClassSequence,
    FormulaReport,
    InjectionReport,
    LogConcavityReport,
    check_log_concavity,
    closed_form,
    counts_by_shape,
    enumerate_class,
    sequence,
    verify_conjecture,
    verify_formulas,
    verify_injection,
)
from .injections import (
    hook_inject,
    hook_preimage,
    lift,
    protected_inject,
    protected_preimage,
    two_row_inject,
)
from .paths import (
    LatticePath,
    check_path,
    flip_inject,
    flip_preimage,
    lattice_paths,
    parse_path,
    path_to_tableau,
    tableau_to_path,
)
from .permutations import (
    Perm,
    contains_pattern,
    format_permutation,
    identity,
    inverse,
    is_involution,
    is_skew_merged,
    lds_length,
    lis_length,
    parse_permutation,
    reverse,
    ulam_distance,
)
from .tableaux import (
    HookType,
    ProtectedDecomposition,
    Tableau,
    check_tableau,
    format_tableau,
    hook_tableaux,
    hook_type,
    is_hook,
    is_lm_protected,
    parse_tableau,
    protected_decompose,
    rsk,
    rsk_inverse,
    standard_tableaux,
)

__version__ = "0.1.0"
