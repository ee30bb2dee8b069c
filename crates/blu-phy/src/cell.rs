//! Cell-level configuration.

use crate::numerology::{Numerology, TxOpShape};
use blu_sim::error::SimError;
use serde::{Deserialize, Serialize};

/// Static configuration of an LTE cell operating in unlicensed
/// spectrum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellConfig {
    /// Carrier numerology.
    pub numerology: Numerology,
    /// Number of eNB receive antennas `M` (decode capacity per RB).
    pub m_antennas: usize,
    /// Maximum *distinct* clients schedulable per sub-frame `K`
    /// (limited by control signaling; the paper uses K ≤ 10).
    pub max_ues_per_subframe: usize,
    /// TxOP shape in unlicensed operation.
    pub txop: TxOpShape,
    /// Over-scheduling factor cap `f` (the speculative scheduler
    /// schedules at most `f·M` clients per RB; the paper finds f = 2
    /// the sweet spot).
    pub overschedule_factor: f64,
}

impl CellConfig {
    /// The paper's testbed: 10 MHz, SISO (M = 1), up to 8 distinct
    /// UEs per sub-frame, 1 DL + 3 UL sub-frames per TxOP, f = 2.
    pub fn testbed_siso() -> Self {
        CellConfig {
            numerology: Numerology::mhz10(),
            m_antennas: 1,
            max_ues_per_subframe: 8,
            txop: TxOpShape::paper_default(),
            overschedule_factor: 2.0,
        }
    }

    /// The testbed's 2-antenna MU-MIMO configuration.
    pub fn testbed_mumimo2() -> Self {
        CellConfig {
            m_antennas: 2,
            ..Self::testbed_siso()
        }
    }

    /// Maximum clients the speculative scheduler may place on one RB.
    pub fn max_group_size(&self) -> usize {
        ((self.m_antennas as f64) * self.overschedule_factor).floor() as usize
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.m_antennas == 0 {
            return Err(SimError::InvalidConfig("m_antennas must be ≥ 1".into()));
        }
        if self.max_ues_per_subframe == 0 {
            return Err(SimError::InvalidConfig(
                "max_ues_per_subframe must be ≥ 1".into(),
            ));
        }
        if self.overschedule_factor < 1.0 {
            return Err(SimError::InvalidConfig(
                "overschedule_factor must be ≥ 1".into(),
            ));
        }
        if !self.txop.is_valid_laa() {
            return Err(SimError::InvalidConfig("TxOP shape violates LAA".into()));
        }
        if self.max_group_size() > crate::pilot::MAX_ORTHOGONAL_SHIFTS {
            return Err(SimError::InvalidConfig(format!(
                "max group size {} exceeds orthogonal pilot budget {}",
                self.max_group_size(),
                crate::pilot::MAX_ORTHOGONAL_SHIFTS
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(CellConfig::testbed_siso().validate().is_ok());
        assert!(CellConfig::testbed_mumimo2().validate().is_ok());
    }

    #[test]
    fn max_group_size_is_f_times_m() {
        assert_eq!(CellConfig::testbed_siso().max_group_size(), 2);
        assert_eq!(CellConfig::testbed_mumimo2().max_group_size(), 4);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = CellConfig::testbed_siso();
        c.m_antennas = 0;
        assert!(c.validate().is_err());

        let mut c = CellConfig::testbed_siso();
        c.overschedule_factor = 0.5;
        assert!(c.validate().is_err());

        let mut c = CellConfig::testbed_siso();
        c.m_antennas = 4;
        c.overschedule_factor = 3.0; // 12 > 8 pilots
        assert!(c.validate().is_err());

        let mut c = CellConfig::testbed_siso();
        c.txop.ul_subframes = 0;
        assert!(c.validate().is_err());
    }
}
