"""Exact census of fixed points and two-cycles of discrete exponentiation
modulo a prime, compared against heuristic predictions evaluated in exact
rational arithmetic.

The census counts, for a prime p and every pair of number-theoretic
condition classes, the solutions of

    fp:  g^h = h (mod p)
    ha:  h^h = a^a (mod p)
    tc:  g^h = a, g^a = h (mod p)

using discrete-log index tables rather than brute force, and checks the
results against divisor-sum prediction formulas and a family of exact
structural identities.
"""

from .census import (
    CountMatrix,
    Equation,
    HaBuckets,
    build_ha_buckets,
    census_all,
    completions,
    count_fp,
    count_ha,
    count_tc,
)
from .errors import InvalidInputError, InvariantViolation, MalformedRecordError
from .numtheory import (
    CongruenceSolution,
    Factored,
    PrimeContext,
    divisors_with_phi,
    euler_phi,
    factorize,
    is_prime,
    next_primes,
    prime_context,
    smallest_primitive_root,
    solve_linear_congruence,
)
from .oracle import ORACLE_PRIME_LIMIT, oracle_census
from .predictor import (
    FormulaId,
    PredictionMatrix,
    Rational,
    formula_value,
    ha_geneq_form,
    ha_squarefree_form,
    ha_sum_form,
    predict_matrix,
)
from .report import (
    ClaimCheck,
    CellRecord,
    ComparisonReport,
    ResultRecord,
    append_records,
    compare,
    cross_equation_checks,
    format_fraction,
    read_records,
    records_from_report,
    render,
    render_counts,
    render_predictions,
)
from .residue_tables import (
    CLASSES,
    ClassCounts,
    ConditionClass,
    ResidueTables,
    build_tables,
    class_counts,
)

__version__ = "0.1.0"
