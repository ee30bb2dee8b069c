//! Small-scale fading: complex channel coefficients and Rayleigh
//! block fading.
//!
//! The MU-MIMO receiver model in `blu-phy` needs per-antenna complex
//! channel vectors; the SISO rate model needs a per-sub-frame channel
//! power. Both are produced here. We implement a minimal complex type
//! rather than pulling in `num-complex` (only a handful of operations
//! are needed).

use crate::rng::DetRng;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number (f64 parts). Minimal operations for channel math.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²`.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Multiplicative inverse. Panics on zero.
    pub fn inv(self) -> Complex {
        let n = self.norm_sq();
        assert!(n > 0.0, "inverse of zero complex number");
        Complex::new(self.re / n, -self.im / n)
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

/// Inner product `⟨a, b⟩ = Σ aᵢ·conj(bᵢ)` of two equal-length vectors.
pub fn inner(a: &[Complex], b: &[Complex]) -> Complex {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(Complex::ZERO, |acc, (&x, &y)| acc + x * y.conj())
}

/// Squared Euclidean norm of a complex vector.
pub fn norm_sq(v: &[Complex]) -> f64 {
    v.iter().map(|z| z.norm_sq()).sum()
}

/// Rayleigh block-fading source.
///
/// Each (link, block) pair gets an i.i.d. circularly-symmetric complex
/// Gaussian coefficient per receive antenna (unit average power). The
/// *block* is the sub-frame index divided by the coherence length, so
/// the channel is constant within a coherence block — LTE's block
/// fading abstraction.
#[derive(Debug, Clone)]
pub struct RayleighBlockFading {
    rng: DetRng,
    /// Channel coherence length in sub-frames.
    pub coherence_subframes: u64,
}

impl RayleighBlockFading {
    /// Create a fading source; `coherence_subframes` must be ≥ 1.
    pub fn new(rng: DetRng, coherence_subframes: u64) -> Self {
        assert!(coherence_subframes >= 1);
        RayleighBlockFading {
            rng,
            coherence_subframes,
        }
    }

    /// The complex channel vector (one entry per receive antenna) for
    /// `link` during the coherence block containing `subframe`.
    ///
    /// Deterministic in `(link, block, antennas)`: queries never
    /// perturb each other.
    pub fn channel(&self, link: u64, subframe: u64, antennas: usize) -> Vec<Complex> {
        let block = subframe / self.coherence_subframes;
        let mut rng = self
            .rng
            .derive_indexed("fade", link ^ block.rotate_left(21));
        // Unit average power per antenna: each part has variance 1/2.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        (0..antennas)
            .map(|_| Complex::new(rng.gaussian() * s, rng.gaussian() * s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_field_axioms() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        assert_eq!(a * Complex::ONE, a);
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        // (1+2i)(−3+0.5i) = −3 + 0.5i − 6i + i² = −4 − 5.5i
        assert_eq!(a * b, Complex::new(-4.0, -5.5));
    }

    #[test]
    fn conj_and_norm() {
        let z = Complex::new(3.0, -4.0);
        assert_eq!(z.conj(), Complex::new(3.0, 4.0));
        assert_eq!(z.norm_sq(), 25.0);
        assert_eq!(z.abs(), 5.0);
        let zi = z * z.inv();
        assert!((zi.re - 1.0).abs() < 1e-12 && zi.im.abs() < 1e-12);
    }

    #[test]
    fn inner_product_properties() {
        let a = vec![Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)];
        let b = vec![Complex::new(0.0, 1.0), Complex::new(1.0, 0.0)];
        // ⟨a, a⟩ = ‖a‖²
        assert!((inner(&a, &a).re - norm_sq(&a)).abs() < 1e-12);
        assert!(inner(&a, &a).im.abs() < 1e-12);
        // ⟨a, b⟩ = conj(⟨b, a⟩)
        let ab = inner(&a, &b);
        let ba = inner(&b, &a);
        assert!((ab.re - ba.re).abs() < 1e-12);
        assert!((ab.im + ba.im).abs() < 1e-12);
    }

    #[test]
    fn fading_is_deterministic_per_block() {
        let f = RayleighBlockFading::new(DetRng::seed_from_u64(6), 10);
        let h1 = f.channel(42, 5, 4);
        let h2 = f.channel(42, 9, 4); // same coherence block [0,10)
        let h3 = f.channel(42, 10, 4); // next block
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }

    #[test]
    fn different_links_fade_independently() {
        let f = RayleighBlockFading::new(DetRng::seed_from_u64(6), 1);
        assert_ne!(f.channel(1, 0, 2), f.channel(2, 0, 2));
    }

    #[test]
    fn unit_average_power() {
        let f = RayleighBlockFading::new(DetRng::seed_from_u64(7), 1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|sf| f.channel(1, sf, 1)[0].norm_sq())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean gain {mean}");
    }

    #[test]
    fn rayleigh_fraction_in_deep_fade() {
        // P(|h|² < 0.1) = 1 − e^(−0.1) ≈ 0.0952 for unit-mean Rayleigh power.
        let f = RayleighBlockFading::new(DetRng::seed_from_u64(8), 1);
        let n = 50_000;
        let frac = (0..n)
            .filter(|&sf| f.channel(3, sf, 1)[0].norm_sq() < 0.1)
            .count() as f64
            / n as f64;
        assert!((frac - 0.0952).abs() < 0.01, "deep-fade fraction {frac}");
    }
}
