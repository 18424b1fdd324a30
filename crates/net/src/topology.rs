//! Overlay topology builders for the paper's experiments.

use crate::latency::LatencyModel;
use crate::sim::Network;
use xdn_broker::{BrokerId, RoutingConfig};

/// Builds a complete binary tree of brokers with `levels` levels
/// (`2^levels - 1` brokers): the paper's 7-broker (3 levels) and
/// 127-broker (7 levels) overlays. Broker 1 is the root; broker `i` is
/// connected to `2i` and `2i + 1`.
///
/// # Panics
///
/// Panics if `levels == 0`.
pub fn binary_tree(
    levels: u32,
    config: RoutingConfig,
    latency: impl LatencyModel + 'static,
) -> Network {
    assert!(levels > 0, "a tree has at least one level");
    let count = (1u32 << levels) - 1;
    let mut net = Network::new(latency);
    for i in 1..=count {
        net.add_broker(BrokerId(i), config);
    }
    for i in 1..=count {
        let (l, r) = (2 * i, 2 * i + 1);
        if l <= count {
            net.connect(BrokerId(i), BrokerId(l));
        }
        if r <= count {
            net.connect(BrokerId(i), BrokerId(r));
        }
    }
    net
}

/// The leaf brokers of a [`binary_tree`] with `levels` levels.
pub fn binary_tree_leaves(levels: u32) -> Vec<BrokerId> {
    let count = (1u32 << levels) - 1;
    let first_leaf = 1u32 << (levels - 1);
    (first_leaf..=count).map(BrokerId).collect()
}

/// Builds a linear chain of `n` brokers `0 — 1 — … — n-1`, the topology
/// of the notification-delay-vs-hops experiments (Figures 10/11, where
/// the maximum end-to-end distance is 7 hops).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn chain(n: u32, config: RoutingConfig, latency: impl LatencyModel + 'static) -> Network {
    assert!(n > 0, "a chain has at least one broker");
    let mut net = Network::new(latency);
    for i in 0..n {
        net.add_broker(BrokerId(i), config);
    }
    for i in 0..n.saturating_sub(1) {
        net.connect(BrokerId(i), BrokerId(i + 1));
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::ClusterLan;

    #[test]
    fn tree_sizes_match_paper() {
        let net7 = binary_tree(3, RoutingConfig::WithAdvWithCov, ClusterLan::default());
        assert_eq!(net7.broker_ids().len(), 7);
        let net127 = binary_tree(7, RoutingConfig::WithAdvWithCov, ClusterLan::default());
        assert_eq!(net127.broker_ids().len(), 127);
    }

    #[test]
    fn tree_leaves() {
        assert_eq!(
            binary_tree_leaves(3),
            vec![BrokerId(4), BrokerId(5), BrokerId(6), BrokerId(7)]
        );
        assert_eq!(
            binary_tree_leaves(7).len(),
            64,
            "127-broker tree has 64 leaves"
        );
    }

    #[test]
    fn tree_connectivity() {
        let net = binary_tree(3, RoutingConfig::NoAdvNoCov, ClusterLan::default());
        let root = net.broker(BrokerId(1));
        assert_eq!(root.neighbors().len(), 2);
        let leaf = net.broker(BrokerId(7));
        assert_eq!(leaf.neighbors(), &[BrokerId(3)]);
        let mid = net.broker(BrokerId(3));
        assert_eq!(mid.neighbors().len(), 3);
    }

    #[test]
    fn chain_connectivity() {
        let net = chain(4, RoutingConfig::NoAdvNoCov, ClusterLan::default());
        assert_eq!(net.broker(BrokerId(0)).neighbors(), &[BrokerId(1)]);
        assert_eq!(net.broker(BrokerId(2)).neighbors().len(), 2);
        assert_eq!(net.broker(BrokerId(3)).neighbors(), &[BrokerId(2)]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_tree_panics() {
        let _ = binary_tree(0, RoutingConfig::NoAdvNoCov, ClusterLan::default());
    }
}
