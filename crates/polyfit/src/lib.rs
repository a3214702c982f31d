//! Polynomial approximation machinery for SMART-PAF.
//!
//! This crate owns everything about **Polynomial Approximated Functions
//! (PAFs)**: the [`Polynomial`] type, composite PAFs built from the
//! Cheon et al. `f`/`g` bases and Lee et al. minimax polynomials, the
//! Remez exchange algorithm used to regenerate the high-degree minimax
//! comparators, weighted least-squares / gradient coefficient tuning
//! (the backend of SMART-PAF's Coefficient Tuning), and CKKS
//! multiplication-depth analysis (paper Tab. 2, Tab. 8, Fig. 10).
//!
//! # Example: approximate ReLU with the 14-degree PAF
//!
//! ```
//! use smartpaf_polyfit::{CompositePaf, PafForm};
//!
//! let paf = CompositePaf::from_form(PafForm::F1SqG1Sq);
//! // relu(x) ~= (x + x * paf(x)) / 2
//! let x = 0.7;
//! let approx = (x + x * paf.eval(x)) / 2.0;
//! assert!((approx - 0.7).abs() < 0.05);
//! ```

pub mod bounds;
mod composite;
mod ct;
mod depth;
mod linalg;
pub mod paper_coeffs;
mod poly;
pub mod polyeval;
mod remez;
pub mod search;
mod serde_impls;

pub use bounds::{
    certified_sign_error, certified_value_bound, composite_enclosure, poly_enclosure, Interval,
};
pub use composite::{
    max_via_sign, quadratic_paf, relu_via_sign, sign_exact, CompositePaf, PafForm,
};
pub use ct::{tune_composite, ActivationProfile, TuneConfig, TuneReport};
pub use depth::{poly_mult_depth, DepthStep, DepthTrace};
pub use linalg::{solve_dense, weighted_lsq_polyfit};
pub use poly::Polynomial;
pub use polyeval::{CompositeEval, EvalPlan, OddPowerSchedule, PolyEval};
pub use remez::{minimax_sign, minimax_sign_composite, RemezReport};
pub use search::{
    enumerate_composites, min_depth_composite, min_depth_under_degree, pareto_frontier, BaseStage,
    Candidate, SearchConfig,
};

#[cfg(test)]
mod proptests;
