//! A from-scratch RNS-CKKS leveled homomorphic encryption substrate.
//!
//! The SMART-PAF paper measures PAF latency with Microsoft SEAL; this
//! crate replaces SEAL with a self-contained implementation exposing
//! exactly the cost structure that matters for the paper's experiments:
//! ciphertext-ciphertext multiplications with relinearisation and
//! rescaling, whose count and depth are what make high-degree PAFs
//! slow.
//!
//! Pipeline: [`CkksParams`] → [`CkksContext`] → [`KeyChain`] →
//! [`Evaluator`] (arithmetic) → [`PafEvaluator`] (PAF-ReLU / PAF-Max).
//!
//! **Security disclaimer:** parameters default to small ring dimensions
//! for experiment turnaround; see [`CkksParams`] for details. This is a
//! research simulator, not a vetted cryptographic library.
//!
//! # Example
//!
//! ```
//! use smartpaf_ckks::{CkksParams, Evaluator, KeyChain, PafEvaluator};
//! use smartpaf_polyfit::{CompositePaf, PafForm};
//! use smartpaf_tensor::Rng64;
//!
//! let ctx = CkksParams::toy().build();
//! let mut rng = Rng64::new(42);
//! let keys = KeyChain::generate(&ctx, &mut rng);
//! let pe = PafEvaluator::new(Evaluator::new(&keys));
//!
//! let paf = CompositePaf::from_form(PafForm::F1G2);
//! let ct = pe.evaluator().encrypt_values(&[0.5, -0.5], &mut rng);
//! let relu_ct = pe.relu(&ct, &paf);
//! let out = pe.evaluator().decrypt_values(&relu_ct, 2);
//! assert!((out[0] - 0.5).abs() < 0.06); // relu(0.5) ~ 0.5
//! assert!(out[1].abs() < 0.06);         // relu(-0.5) ~ 0
//! ```

#[cfg(target_arch = "x86_64")]
mod ifma;
pub mod modular;
mod ntt;

mod cipher;
pub mod cost;
mod encoding;
mod eval;
pub mod galois;
mod keys;
pub mod linear;
pub mod noise;
pub mod par;
mod params;
pub mod pool;
mod rns;

pub use cipher::{take_key_switch_counts, Ciphertext, Evaluator, Product};
pub use encoding::{Encoder, Plaintext};
pub use eval::PafEvaluator;
pub use keys::{KeyChain, PublicKey, RelinKey, SecretKey, SwitchedSecret};
pub use linear::DiagMatrix;
pub use noise::Bootstrapper;
pub use ntt::NttTable;
pub use params::{CkksParams, MAX_KS_DIGIT_LIMBS};
pub use rns::{CkksContext, RnsPoly};

#[cfg(test)]
mod proptests;
