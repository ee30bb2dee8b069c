//! Node identities and roles in the simulated deployment.

use crate::geometry::Point;
use crate::power::Dbm;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node, unique within a deployment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What role a node plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// LTE base station (schedules DL and UL, multi-antenna).
    Enb,
    /// LTE client (UE), single antenna in the paper's setup.
    Ue,
    /// WiFi access point.
    WifiAp,
    /// WiFi station (client).
    WifiSta,
}

impl NodeKind {
    /// Whether this node is a WiFi device.
    pub fn is_wifi(self) -> bool {
        matches!(self, NodeKind::WifiAp | NodeKind::WifiSta)
    }
}

/// A deployed node: identity, role, position, transmit power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Unique id.
    pub id: NodeId,
    /// Role.
    pub kind: NodeKind,
    /// Position in meters.
    pub pos: Point,
    /// Transmit power.
    pub tx_power: Dbm,
}

impl Node {
    /// Construct a node. Default powers follow typical unlicensed
    /// 5 GHz limits: 23 dBm AP/eNB class, 18 dBm client class.
    pub fn new(id: u32, kind: NodeKind, pos: Point) -> Self {
        let tx_power = match kind {
            NodeKind::Enb | NodeKind::WifiAp => Dbm(23.0),
            NodeKind::Ue | NodeKind::WifiSta => Dbm(18.0),
        };
        Node {
            id: NodeId(id),
            kind,
            pos,
            tx_power,
        }
    }

    /// Construct with an explicit transmit power.
    pub fn with_power(id: u32, kind: NodeKind, pos: Point, tx_power: Dbm) -> Self {
        Node {
            id: NodeId(id),
            kind,
            pos,
            tx_power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(!NodeKind::Ue.is_wifi());
        assert!(NodeKind::WifiAp.is_wifi());
        assert!(NodeKind::WifiSta.is_wifi());
    }

    #[test]
    fn default_powers_by_class() {
        let enb = Node::new(0, NodeKind::Enb, Point::ORIGIN);
        let ue = Node::new(1, NodeKind::Ue, Point::ORIGIN);
        assert_eq!(enb.tx_power, Dbm(23.0));
        assert_eq!(ue.tx_power, Dbm(18.0));
    }

    #[test]
    fn explicit_power() {
        let n = Node::with_power(2, NodeKind::WifiSta, Point::ORIGIN, Dbm(15.0));
        assert_eq!(n.tx_power, Dbm(15.0));
        assert_eq!(n.id, NodeId(2));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(5).to_string(), "n5");
    }
}
