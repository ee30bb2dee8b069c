//! Link budget and SINR computation.
//!
//! Combines large-scale propagation (path loss + shadowing) with
//! small-scale fading into received power, and aggregates interference
//! in the linear domain into an SINR that `blu-phy` maps to a rate.

use crate::power::{Dbm, MilliWatts};
use serde::{Deserialize, Serialize};

/// Thermal noise floor for a given bandwidth at room temperature with
/// a typical receiver noise figure.
///
/// `N = −174 dBm/Hz + 10·log10(BW) + NF`.
pub fn noise_floor(bandwidth_hz: f64, noise_figure_db: f64) -> Dbm {
    assert!(bandwidth_hz > 0.0);
    Dbm(-174.0 + 10.0 * bandwidth_hz.log10() + noise_figure_db)
}

/// Noise floor for a 10 MHz LTE carrier with a 7 dB noise figure
/// (the paper's configuration: 10 MHz LTE signal).
pub fn lte_10mhz_noise_floor() -> Dbm {
    noise_floor(10e6, 7.0)
}

/// One received signal component at a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Received {
    /// Average received power (large-scale only).
    pub power: Dbm,
    /// Small-scale power gain multiplier (`|h|²`, mean 1); 1.0 if
    /// fading is not modelled on this link.
    pub fading_gain: f64,
}

impl Received {
    /// Effective linear received power including fading.
    pub fn effective_mw(&self) -> MilliWatts {
        MilliWatts(self.power.to_milliwatts().0 * self.fading_gain.max(0.0))
    }
}

/// Compute SINR (as a linear ratio) of a desired signal against a set
/// of interferers and a noise floor.
pub fn sinr_linear(signal: Received, interferers: &[Received], noise: Dbm) -> f64 {
    let s = signal.effective_mw().0;
    let i: f64 = interferers.iter().map(|r| r.effective_mw().0).sum();
    let n = noise.to_milliwatts().0;
    s / (i + n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::ratio_to_db;

    #[test]
    fn noise_floor_10mhz() {
        // −174 + 70 + 7 = −97 dBm
        let n = lte_10mhz_noise_floor();
        assert!((n.0 - (-97.0)).abs() < 1e-9, "{n:?}");
    }

    #[test]
    fn snr_without_interference() {
        let sig = Received {
            power: Dbm(-67.0),
            fading_gain: 1.0,
        };
        let snr = ratio_to_db(sinr_linear(sig, &[], lte_10mhz_noise_floor()));
        assert!((snr.0 - 30.0).abs() < 1e-6, "{snr:?}");
    }

    #[test]
    fn interference_dominates_noise() {
        let sig = Received {
            power: Dbm(-60.0),
            fading_gain: 1.0,
        };
        let intf = Received {
            power: Dbm(-70.0),
            fading_gain: 1.0,
        };
        let sinr = ratio_to_db(sinr_linear(sig, &[intf], Dbm(-120.0)));
        assert!((sinr.0 - 10.0).abs() < 0.01, "{sinr:?}");
    }

    #[test]
    fn fading_scales_power() {
        let sig = Received {
            power: Dbm(-60.0),
            fading_gain: 0.5,
        };
        // Half power = −3.01 dB.
        let snr = ratio_to_db(sinr_linear(sig, &[], Dbm(-90.0)));
        assert!((snr.0 - (30.0 - 3.0103)).abs() < 0.01, "{snr:?}");
    }

    #[test]
    fn multiple_interferers_sum_linearly() {
        let sig = Received {
            power: Dbm(-60.0),
            fading_gain: 1.0,
        };
        let i1 = Received {
            power: Dbm(-70.0),
            fading_gain: 1.0,
        };
        let sinr_one = sinr_linear(sig, &[i1], Dbm(-150.0));
        let sinr_two = sinr_linear(sig, &[i1, i1], Dbm(-150.0));
        assert!((sinr_one / sinr_two - 2.0).abs() < 1e-6);
    }

    #[test]
    fn negative_fading_clamped() {
        let sig = Received {
            power: Dbm(-60.0),
            fading_gain: -1.0,
        };
        assert_eq!(sig.effective_mw(), MilliWatts(0.0));
    }
}
