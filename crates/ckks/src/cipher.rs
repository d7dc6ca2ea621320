//! Ciphertexts and (de)encryption.

use rand::Rng;

use crate::context::CkksContext;
use crate::encoding::Plaintext;
use crate::keys::SecretKey;
use crate::poly::RnsPoly;
use crate::pool::PolyPool;

/// An RLWE ciphertext `(c0, c1)` with its CKKS metadata: decrypts to
/// `c0 + c1·s ≈ m` where `m` encodes the slot values at `scale`.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// Body polynomial.
    pub c0: RnsPoly,
    /// Mask polynomial.
    pub c1: RnsPoly,
    /// Active level (number of modulus limbs).
    pub level: usize,
    /// Exact current scale `m` (not a logarithm).
    pub scale: f64,
}

impl Ciphertext {
    /// log₂ of the current scale.
    pub fn scale_bits(&self) -> f64 {
        self.scale.log2()
    }
}

/// Encrypts a plaintext under the secret key (symmetric encryption).
pub fn encrypt_symmetric(
    ctx: &CkksContext,
    sk: &SecretKey,
    pt: &Plaintext,
    rng: &mut impl Rng,
) -> Ciphertext {
    encrypt_symmetric_impl(ctx, sk, pt.poly.clone(), pt.scale, rng, None)
}

/// [`encrypt_symmetric`] for a plaintext encoded out of `pool`
/// ([`crate::Encoder::encode_in`], or [`crate::Encoder::encode_coeffs_in`]
/// in coefficient form): the body polynomial takes over the plaintext's
/// buffers and the mask is checked out of `pool`, so the ciphertext holds
/// exactly `2 · level` pooled limbs and nothing else was checked out on the
/// way. Same bytes as [`encrypt_symmetric`] of the plaintext in NTT form.
pub fn encrypt_symmetric_in(
    pool: &PolyPool,
    ctx: &CkksContext,
    sk: &SecretKey,
    pt: Plaintext,
    rng: &mut impl Rng,
) -> Ciphertext {
    encrypt_symmetric_impl(ctx, sk, pt.poly, pt.scale, rng, Some(pool))
}

/// Encrypts the message polynomial `c0` in place, leaving it in NTT form.
fn encrypt_symmetric_impl(
    ctx: &CkksContext,
    sk: &SecretKey,
    mut c0: RnsPoly,
    scale: f64,
    rng: &mut impl Rng,
    pool: Option<&PolyPool>,
) -> Ciphertext {
    let l = c0.level();
    // The mask: the first `l` limbs of the uniform polynomial of one seed.
    let a = RnsPoly::expand_uniform_in(pool, ctx, l, false, rng.gen());
    let mut e = RnsPoly::gaussian(ctx, l, false, rng);
    // m + e in the message's domain. A message in coefficient form takes
    // the error there and the sum one forward NTT per limb: the NTT is
    // linear and exact mod qᵢ, so the bytes are those of adding the
    // transformed error to the transformed message.
    if c0.is_ntt() {
        e.to_ntt(ctx);
        c0.add_assign(ctx, &e);
    } else {
        c0.add_assign(ctx, &e);
        c0.to_ntt(ctx);
    }
    // c0 = m + e − a·s, against the first `l` limbs of the full-basis
    // secret (every step is exact mod qᵢ, so the order is free).
    for i in 0..l {
        let q = ctx.moduli()[i];
        let rest = a.limb(i).iter().zip(sk.s.limb(i));
        for (c, (&a, &s)) in c0.limb_mut(i).iter_mut().zip(rest) {
            *c = q.sub(*c, q.mul(a, s));
        }
    }
    Ciphertext {
        c0,
        c1: a,
        level: l,
        scale,
    }
}

/// Decrypts a ciphertext back to a plaintext (`m ≈ c0 + c1·s`), against
/// the first `level` limbs of the full-basis secret.
pub fn decrypt(ctx: &CkksContext, sk: &SecretKey, ct: &Ciphertext) -> Plaintext {
    let mut m = ct.c1.clone();
    for i in 0..ct.level {
        let q = ctx.moduli()[i];
        let rest = sk.s.limb(i).iter().zip(ct.c0.limb(i));
        for (x, (&s, &c)) in m.limb_mut(i).iter_mut().zip(rest) {
            *x = q.add(q.mul(*x, s), c);
        }
    }
    Plaintext {
        poly: m,
        scale: ct.scale,
        level: ct.level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{CkksContext, CkksParams};
    use crate::encoding::Encoder;
    use crate::keys::KeyGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (CkksContext, StdRng) {
        let ctx = CkksContext::new(CkksParams {
            poly_degree: 256,
            max_level: 2,
            modulus_bits: 45,
            special_bits: 46,
            error_std: 3.2,
            threads: 1,
        });
        (ctx, StdRng::seed_from_u64(42))
    }

    #[test]
    fn symmetric_roundtrip() {
        let (ctx, mut rng) = setup();
        let enc = Encoder::new(&ctx);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key();
        let values: Vec<f64> = (0..enc.slots()).map(|i| (i as f64 / 10.0).cos()).collect();
        let pt = enc.encode(&values, 2f64.powi(30), 2);
        let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng);
        let back = enc.decode(&decrypt(&ctx, &sk, &ct));
        for (a, b) in back.iter().zip(&values) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn wrong_key_garbles() {
        let (ctx, mut rng) = setup();
        let enc = Encoder::new(&ctx);
        let kg1 = KeyGenerator::new(&ctx, &mut rng);
        let kg2 = KeyGenerator::new(&ctx, &mut rng);
        let pt = enc.encode(&[1.0], 2f64.powi(30), 1);
        let ct = encrypt_symmetric(&ctx, &kg1.secret_key(), &pt, &mut rng);
        let back = enc.decode(&decrypt(&ctx, &kg2.secret_key(), &ct));
        assert!(
            (back[0] - 1.0).abs() > 1.0,
            "decryption with wrong key should fail"
        );
    }
}
