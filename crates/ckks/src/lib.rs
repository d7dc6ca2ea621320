//! # fhe-ckks — a from-scratch RNS-CKKS implementation
//!
//! A self-contained Rust implementation of the RNS variant of the CKKS
//! approximate homomorphic encryption scheme (Cheon et al., SAC'18),
//! standing in for Microsoft SEAL as the backend of the Reserve compiler
//! reproduction. It provides:
//!
//! - modular arithmetic and negacyclic [`ntt`] over NTT-friendly primes;
//! - RNS polynomials ([`poly::RnsPoly`]) kept in the evaluation domain,
//!   with exact RNS rescaling and Galois automorphisms;
//! - canonical-embedding [`encoding`] of real slot vectors;
//! - key generation ([`KeyGenerator`]) including relinearization and Galois keys
//!   via hybrid key switching: `⌈L/α⌉` digits over `α = ⌈L/3⌉` special
//!   primes, each key sized to the deepest level it switches at ([`KswKey`])
//!   and holding its uniform half as one seed per digit ([`uniform`]); and
//! - an [`eval::Evaluator`] with every operation of the paper's Table 2:
//!   add, sub, neg, mul (cipher/plain), rotate, `rescale`, `modswitch`,
//!   `upscale`.
//!
//! Because every operation's cost is dominated by per-limb NTT and
//! pointwise work, latency grows with ciphertext level exactly as in the
//! paper's Table 3 — that shape is what the benchmark harness measures.
//!
//! **Security note:** parameters here are chosen for experimentation and
//! benchmarking, not audited for production security.
//!
//! # Example
//!
//! ```
//! use fhe_ckks::{CkksContext, CkksParams, Encoder, Evaluator, KeyGenerator,
//!                encrypt_symmetric, decrypt, GaloisKeys};
//! use rand::SeedableRng;
//! let ctx = CkksContext::new(CkksParams { poly_degree: 256, max_level: 2,
//!     modulus_bits: 45, special_bits: 46, error_std: 3.2, threads: 1 });
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let kg = KeyGenerator::new(&ctx, &mut rng);
//! let sk = kg.secret_key();
//! let ev = Evaluator::new(&ctx, Some(kg.relin_key(&mut rng)), GaloisKeys::default());
//! let pt = ev.encoder().encode(&[1.5, -2.0], 2f64.powi(40), 2);
//! let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
//! let sq = ev.rescale(&ev.mul(&ct, &ct));
//! let out = ev.encoder().decode(&decrypt(&ctx, &sk, &sq));
//! assert!((out[0] - 2.25).abs() < 1e-3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bigint;
mod cipher;
mod context;
pub mod encoding;
mod eval;
mod keys;
pub mod modular;
pub mod ntt;
pub mod poly;
pub mod pool;
pub mod primes;
pub mod security;
pub mod uniform;

pub use cipher::{decrypt, encrypt_symmetric, encrypt_symmetric_in, Ciphertext};
pub use context::{
    decomposition_limbs, key_switch_digits, ksw_key_limbs, special_prime_count, CkksContext,
    CkksParams,
};
pub use encoding::{Encoder, Plaintext, ScalarPlaintext};
pub use eval::{Decomposition, Evaluator, LinearAccumulator, MissingKeyError, PlainFactor};
pub use keys::{
    rotation_to_galois, GaloisKeys, KeyCache, KeyCacheStats, KeyGenerator, KswKey, RelinKey,
    SecretKey,
};
pub use pool::{PolyPool, PoolStats};
