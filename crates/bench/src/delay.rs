//! Figures 10 and 11 — notification delay vs. broker hops on a
//! PlanetLab-like WAN, for several document sizes, with and without
//! covering.
//!
//! A 7-broker chain carries documents from a publisher at one end to
//! subscribers 2–6 hops away. Every broker also hosts background
//! subscribers that load its routing table; covering compacts those
//! tables along the path, so the per-hop matching cost — and with it
//! the notification delay — drops (the paper reports up to 74 %).
//!
//! Per-hop compute is the simulator's modeled cost
//! ([`xdn_net::sim::ProcessingModel::Modeled`]), proportional to the
//! effective routing-table size: the figures show how table size
//! shapes delay, deterministically. Real-clock latency is measured by
//! the end-to-end benchmark (`e2ebench/`).

use crate::{Scale, SEED};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;
use xdn_broker::{BrokerId, RoutingConfig};
use xdn_core::adv::{derive_advertisements, DeriveOptions};
use xdn_net::latency::PlanetLabWan;
use xdn_net::sim::Network;
use xdn_net::topology::chain;
use xdn_workloads::{docs, nitf_dtd, psd_dtd, sets};

/// Which DTD drives the experiment (Figure 10 = PSD, Figure 11 = NITF).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayDtd {
    /// Figure 10.
    Psd,
    /// Figure 11.
    Nitf,
}

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayPoint {
    /// Broker hops between publisher and subscriber.
    pub hops: u32,
    /// Target document size in bytes.
    pub doc_bytes: usize,
    /// Covering enabled?
    pub covering: bool,
    /// Mean notification delay.
    pub delay: Duration,
}

/// The paper's document sizes for each figure.
pub fn paper_sizes(dtd: DelayDtd) -> Vec<usize> {
    match dtd {
        DelayDtd::Psd => vec![2_000, 10_000, 20_000],
        DelayDtd::Nitf => vec![2_000, 20_000, 40_000],
    }
}

/// Runs one figure: hops 2–6, the given document sizes, covering on
/// and off, charging each hop the modeled compute time of its routing
/// table.
pub fn run(which: DelayDtd, sizes: &[usize], scale: &Scale) -> Vec<DelayPoint> {
    let dtd = match which {
        DelayDtd::Psd => psd_dtd(),
        DelayDtd::Nitf => nitf_dtd(),
    };
    let advertisements = derive_advertisements(&dtd, &DeriveOptions::default());
    // The measured subscription: a concrete expression every document
    // satisfies (`header/uid` is required in PSD; `body/body-content`
    // in NITF), long enough not to swallow the background load.
    let measured_xpe: xdn_xpath::Xpe = match which {
        DelayDtd::Psd => "/ProteinDatabase/ProteinEntry/header/uid"
            .parse()
            .expect("valid"),
        DelayDtd::Nitf => "/nitf/body/body-content".parse().expect("valid"),
    };

    let mut out = Vec::new();
    for config in [RoutingConfig::WithAdvWithCov, RoutingConfig::WithAdvNoCov] {
        const BROKERS: u32 = 7;
        let mut net: Network = chain(BROKERS, config, PlanetLabWan::default());
        let publisher = net.attach_client(BrokerId(0));
        net.advertise_all(publisher, advertisements.clone());
        net.run();

        // Background load at every broker.
        for b in 0..BROKERS {
            let client = net.attach_client(BrokerId(b));
            let mut rng = ChaCha8Rng::seed_from_u64(SEED + 13 + b as u64);
            let queries = xdn_xpath::generate::generate_distinct_xpes(
                &dtd,
                scale.delay_bg_queries,
                &sets::set_a_config(),
                &mut rng,
            );
            for q in queries {
                net.subscribe(client, q);
            }
        }
        // Measured subscribers at hop distances 2..=6.
        let mut measured = Vec::new();
        for hops in 2..=6u32 {
            let subscriber = net.attach_client(BrokerId(hops - 1));
            net.subscribe(subscriber, measured_xpe.clone());
            measured.push((hops, subscriber));
        }
        net.run();

        for &size in sizes {
            net.metrics_mut().reset();
            let documents =
                docs::sized_documents(&dtd, &vec![size; scale.delay_docs_per_size], SEED + 14);
            for d in &documents {
                net.publish_document(publisher, d);
            }
            net.run();
            for &(hops, subscriber) in &measured {
                let delays: Vec<Duration> = net
                    .metrics()
                    .notifications
                    .iter()
                    .filter(|n| n.client == subscriber)
                    .map(|n| n.delay)
                    .collect();
                if !delays.is_empty() {
                    // Exact nanosecond arithmetic — dividing a Duration
                    // by `len as u32` silently truncates large counts.
                    let total: u128 = delays.iter().map(Duration::as_nanos).sum();
                    let mean = Duration::from_nanos(
                        u64::try_from(total / delays.len() as u128).unwrap_or(u64::MAX),
                    );
                    out.push(DelayPoint {
                        hops,
                        doc_bytes: size,
                        covering: config.covering(),
                        delay: mean,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_grows_with_hops_and_covering_wins() {
        let points = run(DelayDtd::Psd, &[2_000], &Scale::quick());
        // Every (covering, hops) pair measured.
        assert!(points.len() >= 8, "got {} points", points.len());
        for covering in [true, false] {
            let series: Vec<&DelayPoint> =
                points.iter().filter(|p| p.covering == covering).collect();
            let first = series.iter().find(|p| p.hops == 2).unwrap();
            let last = series.iter().find(|p| p.hops == 6).unwrap();
            assert!(
                last.delay > first.delay,
                "delay must grow with hops (covering={covering}): {:?} vs {:?}",
                first.delay,
                last.delay
            );
        }
        // Covering must not lose: compare total delay across hops.
        let sum = |covering: bool| -> Duration {
            points
                .iter()
                .filter(|p| p.covering == covering)
                .map(|p| p.delay)
                .sum()
        };
        assert!(
            sum(true) <= sum(false),
            "covering should reduce end-to-end delay: {:?} vs {:?}",
            sum(true),
            sum(false)
        );
    }
}
