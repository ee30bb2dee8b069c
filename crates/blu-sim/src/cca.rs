//! Clear-channel assessment and the WiFi/LTE sensing asymmetry.
//!
//! The root cause of the paper's Fig. 4c: WiFi nodes detect other WiFi
//! via *preamble (carrier) sensing* at ≈ −82 dBm, but a heterogeneous
//! LTE/WiFi pair must fall back to *energy detection* at −72 dBm (LAA
//! rule) or −62 dBm (WiFi's ED threshold for non-WiFi signals). The
//! weaker sensitivity inflates the number of hidden terminals when an
//! LTE cell replaces a WiFi cell.

use crate::power::Dbm;
use serde::{Deserialize, Serialize};

/// How a node detects an ongoing transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SensingMode {
    /// WiFi preamble/carrier sensing of another WiFi signal.
    PreambleDetect,
    /// Energy detection (used across technologies: LTE↔WiFi and
    /// LAA's own CCA).
    EnergyDetect,
}

/// Sensing thresholds in force for a deployment.
///
/// Defaults follow 802.11/3GPP practice and the ranges quoted in the
/// paper (§2.2: WiFi −85…−82 dBm carrier sense; energy detection
/// −72…−62 dBm).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensingThresholds {
    /// WiFi→WiFi preamble-detection threshold.
    pub preamble_dbm: Dbm,
    /// LAA energy-detection threshold (LTE node sensing anything,
    /// and the UE's pre-grant CCA).
    pub lte_energy_dbm: Dbm,
    /// WiFi's energy-detection threshold for non-WiFi signals.
    pub wifi_energy_dbm: Dbm,
}

impl Default for SensingThresholds {
    fn default() -> Self {
        SensingThresholds {
            preamble_dbm: Dbm(-82.0),
            lte_energy_dbm: Dbm(-72.0),
            wifi_energy_dbm: Dbm(-62.0),
        }
    }
}

impl SensingThresholds {
    /// Threshold a *listener* technology applies to a *source*
    /// technology's signal.
    ///
    /// * WiFi listening to WiFi → preamble detect (most sensitive).
    /// * WiFi listening to LTE → WiFi energy detection.
    /// * LTE listening to anything → LAA energy detection.
    pub fn threshold(&self, listener_is_wifi: bool, source_is_wifi: bool) -> Dbm {
        match (listener_is_wifi, source_is_wifi) {
            (true, true) => self.preamble_dbm,
            (true, false) => self.wifi_energy_dbm,
            (false, _) => self.lte_energy_dbm,
        }
    }

    /// Whether a listener senses (and thus defers to) a source whose
    /// signal arrives at `rx_power`.
    pub fn senses(&self, listener_is_wifi: bool, source_is_wifi: bool, rx_power: Dbm) -> bool {
        rx_power >= self.threshold(listener_is_wifi, source_is_wifi)
    }
}

/// Result of a UE's pre-grant CCA (LAA type-1/type-2 access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CcaOutcome {
    /// Channel idle: the UE may use its grant.
    Idle,
    /// Channel busy: the UE must forfeit the grant (the paper's
    /// under-utilization event).
    Busy,
}

impl CcaOutcome {
    /// Whether the outcome permits transmission.
    pub fn is_idle(self) -> bool {
        matches!(self, CcaOutcome::Idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_ordering() {
        let t = SensingThresholds::default();
        // Preamble detection is the most sensitive (lowest threshold).
        assert!(t.preamble_dbm < t.lte_energy_dbm);
        assert!(t.lte_energy_dbm < t.wifi_energy_dbm);
    }

    #[test]
    fn threshold_matrix() {
        let t = SensingThresholds::default();
        assert_eq!(t.threshold(true, true), t.preamble_dbm);
        assert_eq!(t.threshold(true, false), t.wifi_energy_dbm);
        assert_eq!(t.threshold(false, true), t.lte_energy_dbm);
        assert_eq!(t.threshold(false, false), t.lte_energy_dbm);
    }

    #[test]
    fn asymmetry_creates_hidden_terminals() {
        // A WiFi signal arriving at −78 dBm: a WiFi listener defers
        // (−78 ≥ −82) but an LTE listener does not (−78 < −72) — the
        // source is *hidden* to LTE. This is Fig. 4c's mechanism.
        let t = SensingThresholds::default();
        let rx = Dbm(-78.0);
        assert!(t.senses(true, true, rx));
        assert!(!t.senses(false, true, rx));
    }

    #[test]
    fn cca_outcome() {
        assert!(CcaOutcome::Idle.is_idle());
        assert!(!CcaOutcome::Busy.is_idle());
    }
}
