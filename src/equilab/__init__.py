"""equilab: equivalence testing with dual evidence measures.

Frequentist TOST p-values and conjugate-prior posterior probabilities for
the same interval hypothesis, exact power/conservativity analysis for the
binomial model, closed-form and Monte Carlo correlation structure for the
normal model, and a step-up FDR simulation harness comparing the two kinds
of evidence.
"""

__version__ = "0.1.0"

from .beta_binomial import (BetaPosterior, BetaPrior, posterior_prob_equiv,
                            posterior_prob_lower, posterior_prob_upper,
                            posterior_update)
from .correlation import (CorrelationResult, corr_equivalence_closed,
                          corr_equivalence_mc, corr_partial_closed,
                          corr_partial_pvalues, corr_two_sided, corr_two_sided_mc,
                          equivalence_covariance_terms, expected_phi_product,
                          sample_correlation)
from .equivalence import (EquivalenceMargin, EvidenceMeasure,
                          SignificanceLevels, binom_critical_constants,
                          binom_onesided_pvalues, binom_tost_pvalue, decide)
from .fdr import (DecisionTable, FdrExperiment, FdrPoint, adaptive_bh,
                  bh_procedure, fdr_power_simulation, score_decisions)
from .normal import (NormalPrior, NormalSampling, normal_critical_constants,
                     normal_onesided_pvalues, normal_posterior_probs,
                     normal_pvalue_cdf, normal_tost_pvalue,
                     posterior_coefficient)
from .power import (CurvePoint, CurveSpec, TableResult, bayes_combined_level,
                    binom_cdf_curve, binom_evidence_values, binom_power_curve,
                    exact_size, normal_curves, table_simulation, theta_max)
from .rng import spawn_rng
from .special import (binomial_interval_prob, binomial_pmf_vector, erfc, normal_cdf,
                      normal_quantile, reg_inc_beta, reg_inc_beta_pair)

__all__ = [
    "__version__",
    # special functions
    "reg_inc_beta", "reg_inc_beta_pair", "erfc", "normal_cdf", "normal_quantile",
    "binomial_pmf_vector", "binomial_interval_prob",
    # equivalence core
    "EquivalenceMargin", "SignificanceLevels", "EvidenceMeasure",
    "binom_onesided_pvalues", "binom_tost_pvalue", "binom_critical_constants",
    "decide",
    # beta-binomial posterior
    "BetaPrior", "BetaPosterior", "posterior_update", "posterior_prob_upper",
    "posterior_prob_lower", "posterior_prob_equiv",
    # normal model
    "NormalSampling", "NormalPrior", "posterior_coefficient",
    "normal_critical_constants", "normal_onesided_pvalues",
    "normal_tost_pvalue", "normal_posterior_probs", "normal_pvalue_cdf",
    # power analysis
    "CurveSpec", "CurvePoint", "TableResult", "binom_evidence_values",
    "binom_cdf_curve", "binom_power_curve",
    "theta_max", "exact_size", "normal_curves",
    "table_simulation", "bayes_combined_level",
    # correlation
    "CorrelationResult", "expected_phi_product", "sample_correlation",
    "equivalence_covariance_terms", "corr_equivalence_closed",
    "corr_equivalence_mc", "corr_partial_closed", "corr_partial_pvalues",
    "corr_two_sided", "corr_two_sided_mc",
    # multiple testing
    "DecisionTable", "FdrExperiment", "FdrPoint", "bh_procedure",
    "adaptive_bh", "score_decisions", "fdr_power_simulation",
    # rng
    "spawn_rng",
]
