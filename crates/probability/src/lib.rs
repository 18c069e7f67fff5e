//! Probability machinery of MP-SVMs (§2.1.2, §2.2 of the paper).
//!
//! * [`platt`] — fit the sigmoid `P(y=1|x) = 1/(1+exp(A·v+B))` to decision
//!   values by maximizing the log-likelihood of Problem (13) with Newton's
//!   method and backtracking line search (the Lin–Lin–Weng algorithm
//!   implemented in LibSVM, which the paper parallelizes in Phase ii).
//! * [`coupling`] — combine the `k(k-1)/2` pairwise probabilities into one
//!   multi-class distribution (Problem 14), solved both in closed form
//!   `p = Q⁻¹e / (eᵀQ⁻¹e)` by Gaussian elimination (Equation 15) and by
//!   LibSVM's fixed-point iteration (Wu, Lin & Weng 2004) as a cross-check.

pub mod coupling;
pub mod metrics;
pub mod platt;

pub use coupling::{couple_gaussian, couple_iterative, coupling_residual, PairwiseProbs};
pub use metrics::{brier_score, calibration, log_loss, Calibration, CalibrationBin};
pub use platt::{sigmoid_predict, sigmoid_train, SigmoidParams};
