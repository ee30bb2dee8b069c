//! Propagation path-loss models with consistent log-normal shadowing.
//!
//! The testbed is an indoor enterprise floor at 5 GHz-class unlicensed
//! frequencies; we provide the standard log-distance model with an
//! indoor exponent plus the ITU indoor model, and a [`ShadowingField`]
//! that samples a per-link shadowing value **once** and then keeps it
//! fixed, so that the hidden-terminal relation (who hears whom) is a
//! stable property of a topology — exactly the stationarity regime the
//! paper assumes (§3.5).

use crate::geometry::Point;
use crate::power::{Db, Dbm};
use crate::rng::DetRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A path-loss model: distance (meters) → loss (dB).
pub trait PathLossModel {
    /// Path loss at the given distance in meters (≥ 0 dB).
    fn loss(&self, distance_m: f64) -> Db;

    /// Received power over this model (no shadowing/fading).
    fn receive(&self, tx_power: Dbm, distance_m: f64) -> Dbm {
        tx_power - self.loss(distance_m)
    }
}

/// Classic log-distance path loss:
/// `PL(d) = PL(d0) + 10·n·log10(d/d0)`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LogDistance {
    /// Reference loss at `ref_distance_m`, in dB.
    pub ref_loss_db: f64,
    /// Path-loss exponent `n` (2 free space, 3–4 indoor obstructed).
    pub exponent: f64,
    /// Reference distance in meters (usually 1 m).
    pub ref_distance_m: f64,
}

impl LogDistance {
    /// Indoor enterprise profile at 5 GHz-class frequencies:
    /// 1 m free-space reference loss ≈ 47 dB, exponent 3.2.
    pub fn indoor_5ghz() -> Self {
        LogDistance {
            ref_loss_db: 47.0,
            exponent: 3.2,
            ref_distance_m: 1.0,
        }
    }
}

impl PathLossModel for LogDistance {
    fn loss(&self, distance_m: f64) -> Db {
        let d = distance_m.max(self.ref_distance_m);
        Db(self.ref_loss_db + 10.0 * self.exponent * (d / self.ref_distance_m).log10())
    }
}

/// ITU indoor propagation model (P.1238-style, office environment):
/// `PL(d) = 20·log10(f_MHz) + N·log10(d) + Lf − 28`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ItuIndoor {
    /// Carrier frequency in MHz.
    pub freq_mhz: f64,
    /// Distance power-loss coefficient (office ≈ 30 at 5 GHz).
    pub power_loss_coeff: f64,
    /// Floor-penetration loss in dB (0 for same floor).
    pub floor_loss_db: f64,
}

impl ItuIndoor {}

impl PathLossModel for ItuIndoor {
    fn loss(&self, distance_m: f64) -> Db {
        let d = distance_m.max(1.0);
        Db(
            20.0 * self.freq_mhz.log10() + self.power_loss_coeff * d.log10() + self.floor_loss_db
                - 28.0,
        )
    }
}

/// Per-link log-normal shadowing, sampled lazily and then frozen.
///
/// Shadowing is symmetric (`shadow(a,b) == shadow(b,a)`) and
/// deterministic given the field's RNG stream, so a topology's
/// hidden-terminal structure never flickers between queries.
#[derive(Debug, Clone)]
pub struct ShadowingField {
    sigma_db: f64,
    rng: DetRng,
    cache: HashMap<(u32, u32), Db>,
}

impl ShadowingField {
    /// Create a shadowing field with standard deviation `sigma_db`.
    pub fn new(sigma_db: f64, rng: DetRng) -> Self {
        assert!(sigma_db >= 0.0, "shadowing sigma must be non-negative");
        ShadowingField {
            sigma_db,
            rng,
            cache: HashMap::new(),
        }
    }

    /// A field with no shadowing (all links 0 dB extra loss).
    pub fn disabled() -> Self {
        ShadowingField::new(0.0, DetRng::seed_from_u64(0))
    }

    /// The shadowing value for the unordered link `(a, b)`.
    ///
    /// The *first* query of a link samples its value; later queries
    /// (in either direction) return the same value.
    pub fn shadow(&mut self, a: u32, b: u32) -> Db {
        if self.sigma_db == 0.0 {
            return Db(0.0);
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        // Derive the sample from the key, not from a shared stream, so
        // query *order* cannot change any link's value.
        let sigma = self.sigma_db;
        *self.cache.entry(key).or_insert_with(|| {
            let mut link_rng = self
                .rng
                .derive_indexed("shadow", (u64::from(key.0) << 32) | u64::from(key.1));
            Db(link_rng.gaussian_with(0.0, sigma))
        })
    }
}

/// Full large-scale link gain: path loss plus frozen shadowing.
pub struct Propagation<M: PathLossModel> {
    /// The distance-dependent path-loss model.
    pub model: M,
    /// The per-link shadowing field.
    pub shadowing: ShadowingField,
}

impl<M: PathLossModel> Propagation<M> {
    /// Create a propagation environment.
    pub fn new(model: M, shadowing: ShadowingField) -> Self {
        Propagation { model, shadowing }
    }

    /// Received power at `rx` for a transmitter at `tx`, identified by
    /// node ids (for shadowing consistency).
    pub fn receive(
        &mut self,
        tx_power: Dbm,
        tx_id: u32,
        tx_pos: Point,
        rx_id: u32,
        rx_pos: Point,
    ) -> Dbm {
        let pl = self.model.loss(tx_pos.distance(&rx_pos));
        let sh = self.shadowing.shadow(tx_id, rx_id);
        tx_power - pl + sh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_distance_monotone_in_distance() {
        let m = LogDistance::indoor_5ghz();
        let mut prev = m.loss(1.0);
        for d in [2.0, 5.0, 10.0, 25.0, 60.0, 150.0] {
            let l = m.loss(d);
            assert!(l > prev, "loss not monotone at {d} m");
            prev = l;
        }
    }

    #[test]
    fn log_distance_reference_point() {
        let m = LogDistance::indoor_5ghz();
        assert!((m.loss(1.0).0 - 47.0).abs() < 1e-12);
        // Ten-fold distance adds 10·n dB.
        assert!((m.loss(10.0).0 - (47.0 + 32.0)).abs() < 1e-9);
    }

    #[test]
    fn below_reference_distance_clamps() {
        let m = LogDistance::indoor_5ghz();
        assert_eq!(m.loss(0.1), m.loss(1.0));
        assert_eq!(m.loss(0.0), m.loss(1.0));
    }

    #[test]
    fn itu_indoor_plausible_at_10m() {
        let m = ItuIndoor {
            freq_mhz: 5_200.0,
            power_loss_coeff: 30.0,
            floor_loss_db: 0.0,
        };
        let l = m.loss(10.0);
        // 20·log10(5200) + 30·log10(10) − 28 ≈ 76.3 dB
        assert!((l.0 - 76.32).abs() < 0.1, "{l:?}");
    }

    #[test]
    fn receive_applies_loss() {
        let m = LogDistance {
            ref_loss_db: 47.0,
            exponent: 2.0,
            ref_distance_m: 1.0,
        };
        let rx = m.receive(Dbm(20.0), 10.0);
        assert!((rx.0 - (20.0 - 67.0)).abs() < 1e-9);
    }

    #[test]
    fn shadowing_symmetric_and_stable() {
        let mut f = ShadowingField::new(6.0, DetRng::seed_from_u64(4));
        let ab = f.shadow(3, 9);
        let ba = f.shadow(9, 3);
        assert_eq!(ab, ba);
        assert_eq!(f.shadow(3, 9), ab);
    }

    #[test]
    fn shadowing_order_independent() {
        let mut f1 = ShadowingField::new(6.0, DetRng::seed_from_u64(4));
        let mut f2 = ShadowingField::new(6.0, DetRng::seed_from_u64(4));
        let a1 = f1.shadow(1, 2);
        let _ = f2.shadow(7, 8);
        let a2 = f2.shadow(1, 2);
        assert_eq!(a1, a2, "query order changed shadowing");
    }

    #[test]
    fn shadowing_disabled_is_zero() {
        let mut f = ShadowingField::disabled();
        assert_eq!(f.shadow(1, 2), Db(0.0));
    }

    #[test]
    fn shadowing_spread_matches_sigma() {
        let mut f = ShadowingField::new(8.0, DetRng::seed_from_u64(5));
        let n = 5_000u32;
        let vals: Vec<f64> = (0..n).map(|i| f.shadow(i, i + 100_000).0).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
        assert!(mean.abs() < 0.5, "mean {mean}");
        assert!((var.sqrt() - 8.0).abs() < 0.4, "std {}", var.sqrt());
    }
}
