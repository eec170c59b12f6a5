//! The three workloads: model + run configuration, generated from the
//! workload seed. The program under test receives only these.

use std::sync::Arc;

use cwc::model::Model;
use cwcsim::{EngineKind, SimConfig, StatEngineKind, TransportKind};

/// Simulation workers per run (sized for a two-CPU host).
pub const SIM_WORKERS: usize = 2;
/// Statistical-engine workers per run.
pub const STAT_WORKERS: usize = 1;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Neurospora model, exact SSA, coarse quanta, in-process.
    NeurosporaSsa,
    /// Lotka–Volterra at Q = τ (fine grain), four stat engines, in-process.
    LvFineGrain,
    /// Adaptive tau-leaping on a wide conversion cycle, two shards over
    /// TCP to two loopback `cwc-workerd` daemons.
    CycleLeapTcp,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::NeurosporaSsa,
        Workload::LvFineGrain,
        Workload::CycleLeapTcp,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NeurosporaSsa => "neurospora_ssa",
            Workload::LvFineGrain => "lv_fine_grain",
            Workload::CycleLeapTcp => "cycle_leap_tcp",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when runs go over TCP to the daemons.
    pub fn is_tcp(self) -> bool {
        self == Workload::CycleLeapTcp
    }

    /// Builds the workload's model.
    pub fn model(self) -> Arc<Model> {
        Arc::new(match self {
            Workload::NeurosporaSsa => {
                biomodels::neurospora_flat(biomodels::NeurosporaParams::default())
            }
            Workload::LvFineGrain => {
                biomodels::lotka_volterra(biomodels::LotkaVolterraParams::default())
            }
            Workload::CycleLeapTcp => biomodels::conversion_cycle(300, 60_000, 1.0),
        })
    }

    /// The run configuration for `seed`; `workers` are the daemon
    /// addresses (used by the TCP workload only).
    pub fn config(self, seed: u64, workers: &[String]) -> SimConfig {
        let cfg = match self {
            Workload::NeurosporaSsa => SimConfig::new(32, 80.0)
                .quantum(5.0)
                .sample_period(0.5)
                .window(8, 2)
                .engines(vec![
                    StatEngineKind::MeanVariance,
                    StatEngineKind::KMeans { k: 2 },
                ]),
            Workload::LvFineGrain => SimConfig::new(256, 4.0)
                .quantum(0.05)
                .sample_period(0.05)
                .window(16, 4)
                .engines(vec![
                    StatEngineKind::MeanVariance,
                    StatEngineKind::KMeans { k: 3 },
                    StatEngineKind::Quantile { p: 0.9 },
                    StatEngineKind::Histogram {
                        lo: 0.0,
                        hi: 2000.0,
                        bins: 64,
                    },
                ]),
            Workload::CycleLeapTcp => SimConfig::new(64, 10.0)
                .engine(EngineKind::AdaptiveTau { epsilon: 0.05 })
                .quantum(0.5)
                .sample_period(0.01)
                .window(16, 4)
                .engines(vec![
                    StatEngineKind::MeanVariance,
                    StatEngineKind::Quantile { p: 0.9 },
                ])
                .shards(2)
                .transport(TransportKind::Tcp)
                .workers(workers.to_vec()),
        };
        cfg.sim_workers(SIM_WORKERS)
            .stat_workers(STAT_WORKERS)
            .seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_round_trips_its_name_and_validates() {
        let workers = vec!["127.0.0.1:1".to_owned(), "127.0.0.1:2".to_owned()];
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            w.model().validate().unwrap();
            w.config(7, &workers).validate().unwrap();
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
