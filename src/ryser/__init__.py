"""Screening library for circulant Hadamard matrix orders.

Decides whether the criterion of arXiv:1411.2203 (order parity, a theorem
taken from the paper) rejects an order n = 4u^2 (u odd), with witnesses
anyone can recheck; verifies single rows; and searches exhaustively for
circulant Hadamard rows and Barker sequences at desk scale.
"""

from .arith import (Factorization, euler_phi, factorize, is_prime,
                    multiplicative_order)
from .barker import (MAX_SEARCH_LENGTH, aperiodic_autocorrelation, is_barker,
                     search_barker)
from .circulant import (MAX_SEARCH_ORDER, ROOT_CONVENTION, SignRow,
                        SpectrumReport, group_coefficients,
                        is_circulant_hadamard, periodic_autocorrelation,
                        search_all, spectrum)
from .criterion import (DEFAULT_SIEVE_CAP, CandidateOrder, CriterionReport,
                        Verdict, WitnessRecord, check_order, iter_sieve,
                        parse_candidate, theorem_witnesses)

__version__ = "0.1.0"

__all__ = [
    "Factorization", "euler_phi", "factorize", "is_prime",
    "multiplicative_order",
    "CandidateOrder", "CriterionReport", "Verdict", "WitnessRecord",
    "check_order", "iter_sieve", "parse_candidate", "theorem_witnesses",
    "DEFAULT_SIEVE_CAP",
    "SignRow", "SpectrumReport", "group_coefficients",
    "is_circulant_hadamard", "periodic_autocorrelation", "search_all",
    "spectrum", "MAX_SEARCH_ORDER", "ROOT_CONVENTION",
    "aperiodic_autocorrelation", "is_barker", "search_barker",
    "MAX_SEARCH_LENGTH",
    "__version__",
]
