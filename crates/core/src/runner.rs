//! Whole-pipeline assembly: the paper's Fig. 2 in one call.
//!
//! [`run_simulation`] spawns the three-stage main pipeline —
//!
//! ```text
//! generation ─▶ farm of sim engines (feedback) ─▶ alignment ─▶
//!   sliding windows ─▶ ordered farm of stat engines ─▶ rows ─▶ report
//! ```
//!
//! — and returns every produced [`StatRow`] plus run-time metrics.
//! [`run_sequential`] computes the same rows with no parallelism at all;
//! the two must agree bit-for-bit for a fixed seed, which is the
//! correctness contract the integration tests enforce.
//!
//! The network is assembled in one place. `sim_head` builds generation,
//! the feedback sim farm (scalar or batched tier) and alignment over an
//! instance slice; `analyse_cuts` builds windows, the ordered stat farm
//! and the row drain. The single-process run joins the two over the
//! whole instance range. The sharded farm
//! ([`coordinator`](crate::coordinator)) runs the head once per shard and
//! the tail once, over the merged cut stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cwc::model::Model;
use fastflow::metrics::RunStats;
use fastflow::node::{flat_stage, map_stage, Outbox};
use fastflow::pipeline::Pipeline;
use gillespie::deps::ModelDeps;
use gillespie::engine::EngineKind;
use gillespie::trajectory::Cut;

use crate::alignment::Alignment;
use crate::config::{ConfigError, SimConfig};
use crate::coordinator::ShardSpec;
use crate::display::CsvRenderer;
use crate::engines::{StatBlock, StatEngineSet, StatRow};
use crate::merge::RunSummary;
use crate::plan::ShardRange;
use crate::sim_farm::{BatchSimMaster, BatchSimWorker, SimMaster, SimWorker, Steering};
use crate::task::{batch_spans, BatchSimTask, SampleBatch, SimTask};
use crate::windows::{Window, WindowGen};

/// Outcome of a simulation-analysis run.
#[derive(Debug)]
pub struct SimReport {
    /// Analysis rows in time order (one per cut).
    pub rows: Vec<StatRow>,
    /// Per-node run-time statistics from the pattern framework.
    pub run_stats: RunStats,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Total reactions fired across all trajectories.
    pub events: u64,
    /// Observable names, in row order.
    pub observable_names: Vec<String>,
    /// Whole-run streaming statistics over every sample (mergeable: the
    /// sharded runner folds per-shard partials into this instead of
    /// shipping raw trajectories — see [`RunSummary`]).
    pub summary: RunSummary,
}

impl SimReport {
    /// Renders the rows as CSV (see [`CsvRenderer`]).
    pub fn to_csv(&self) -> String {
        let with_centroids = self
            .rows
            .first()
            .map(|r| r.observables.iter().any(|o| !o.centroids.is_empty()))
            .unwrap_or(false);
        CsvRenderer::new(self.observable_names.clone(), with_centroids).render(&self.rows)
    }

    /// Mean-of-means of observable `k` over the whole run (quick summary).
    pub fn grand_mean(&self, k: usize) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| r.observables.get(k).map(|o| o.mean).unwrap_or(0.0))
            .sum::<f64>()
            / self.rows.len() as f64
    }
}

/// Error from a simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The model failed validation.
    Model(cwc::model::ModelError),
    /// The configured engine kind cannot drive the model (e.g.
    /// tau-leaping on a compartment model).
    Engine(gillespie::engine::EngineError),
    /// A pipeline node panicked.
    Pipeline(fastflow::error::Error),
    /// A shard of a sharded run failed (spawn failure, crashed worker
    /// process, worker-side simulation error).
    Shard(crate::coordinator::ShardError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::Engine(e) => write!(f, "engine error: {e}"),
            SimError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            SimError::Shard(e) => write!(f, "shard error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<cwc::model::ModelError> for SimError {
    fn from(e: cwc::model::ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<fastflow::error::Error> for SimError {
    fn from(e: fastflow::error::Error) -> Self {
        SimError::Pipeline(e)
    }
}

impl From<gillespie::engine::EngineError> for SimError {
    fn from(e: gillespie::engine::EngineError) -> Self {
        SimError::Engine(e)
    }
}

impl From<crate::coordinator::ShardError> for SimError {
    fn from(e: crate::coordinator::ShardError) -> Self {
        SimError::Shard(e)
    }
}

/// Runs the full parallel simulation-analysis pipeline.
///
/// # Errors
///
/// Returns [`SimError`] on invalid configuration/model or a node panic.
pub fn run_simulation(model: Arc<Model>, cfg: &SimConfig) -> Result<SimReport, SimError> {
    run_simulation_steered(model, cfg, &Steering::new())
}

/// Like [`run_simulation`], controlled by a [`Steering`] handle: calling
/// [`Steering::terminate`] from any thread stops the run at the next
/// quantum boundaries; the pipeline drains and the report covers whatever
/// completed (the paper's GUI "steer and terminate running simulations").
///
/// # Errors
///
/// Returns [`SimError`] on invalid configuration/model or a node panic.
pub fn run_simulation_steered(
    model: Arc<Model>,
    cfg: &SimConfig,
    steering: &Steering,
) -> Result<SimReport, SimError> {
    cfg.validate()?;
    model.validate()?;
    let start = Instant::now();

    // The model is "compiled" (dependency graph + read/write sets) once
    // here and shared by every instance's incremental reaction table.
    // The single-process run is the whole instance range as one slice,
    // driven by the run's full worker budget.
    let deps = Arc::new(ModelDeps::compile(&model));
    let whole = ShardRange {
        shard: 0,
        first_instance: 0,
        count: cfg.instances,
    };
    let spec = ShardSpec {
        sim_workers: cfg.sim_workers,
        ..ShardSpec::from_config(cfg, whole)
    };
    let (cuts, events) = sim_head(&model, &deps, &spec, steering)?;

    let summary = Arc::new(Mutex::new(RunSummary::new(cfg.engines.clone())));
    let summary_in_stage = Arc::clone(&summary);
    let cuts = cuts.named_stage(
        "run-summary",
        map_stage(move |cut: Cut| {
            summary_in_stage
                .lock()
                .expect("summary mutex poisoned")
                .push_cut(&cut);
            cut
        }),
    );
    let (rows, run_stats) = analyse_cuts(cuts, cfg)?;

    Ok(SimReport {
        rows,
        run_stats,
        wall: start.elapsed(),
        events: events.load(Ordering::Relaxed),
        observable_names: model
            .observable_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        summary: Arc::try_unwrap(summary)
            .expect("pipeline joined; no other summary holders")
            .into_inner()
            .expect("summary mutex poisoned"),
    })
}

/// Stages 1–3 of Fig. 2 over `spec`'s instance slice: generation of
/// simulation tasks, the farm of simulation engines with feedback, an
/// events counter and the alignment of trajectories into cuts. Returns
/// the cut stream and the counter of reactions fired.
///
/// This is the only assembly of the sim farm: the single-process runner
/// calls it over the whole run, every shard over its slice. Both farm
/// tiers produce the same per-instance [`SampleBatch`] stream, bit for
/// bit, so everything from the events counter on is tier-agnostic.
pub(crate) fn sim_head(
    model: &Arc<Model>,
    deps: &Arc<ModelDeps>,
    spec: &ShardSpec,
    steering: &Steering,
) -> Result<(Pipeline<Cut>, Arc<AtomicU64>), SimError> {
    let range = spec.range;
    let farm: Pipeline<SampleBatch> = match spec.engine {
        EngineKind::Batched { width } => {
            // Batched tier: workers pull whole batches of `width` replicas
            // (the last batch may be narrower) instead of single instances.
            let tasks: Vec<BatchSimTask> = batch_spans(range.first_instance, range.count, width)
                .into_iter()
                .map(|(first, w)| {
                    BatchSimTask::with_engine_deps(
                        Arc::clone(model),
                        Arc::clone(deps),
                        spec.base_seed,
                        first,
                        w,
                        spec.t_end,
                        spec.quantum,
                        spec.sample_period,
                    )
                })
                .collect::<Result<_, _>>()?;
            let workers: Vec<BatchSimWorker> = (0..spec.sim_workers.max(1))
                .map(|_| BatchSimWorker::new())
                .collect();
            Pipeline::from_source_with_capacity(tasks.into_iter(), spec.channel_capacity)
                .master_worker_farm(BatchSimMaster::with_steering(steering.clone()), workers)
        }
        _ => {
            let tasks: Vec<SimTask> = (range.first_instance..range.end())
                .map(|i| {
                    SimTask::with_engine_deps(
                        spec.engine,
                        Arc::clone(model),
                        Arc::clone(deps),
                        spec.base_seed,
                        i,
                        spec.t_end,
                        spec.quantum,
                        spec.sample_period,
                    )
                })
                .collect::<Result<_, _>>()?;
            let workers: Vec<SimWorker> = (0..spec.sim_workers.max(1))
                .map(|_| SimWorker::new())
                .collect();
            Pipeline::from_source_with_capacity(tasks.into_iter(), spec.channel_capacity)
                .master_worker_farm(SimMaster::with_steering(steering.clone()), workers)
        }
    };

    let events = Arc::new(AtomicU64::new(0));
    let events_in_stage = Arc::clone(&events);
    let cuts = farm
        .named_stage(
            "events-counter",
            map_stage(move |batch: SampleBatch| {
                events_in_stage.fetch_add(batch.events, Ordering::Relaxed);
                batch
            }),
        )
        .named_stage(
            "alignment",
            Alignment::with_base(range.count, spec.sample_period, range.first_instance),
        );
    Ok((cuts, events))
}

/// Stages 4–5 of Fig. 2 appended to a cut stream: sliding windows, the
/// ordered farm of statistical engines and the flattening of stat blocks
/// into rows. Drains the rows, joins the whole network and returns the
/// rows with its run statistics.
///
/// This is the only assembly of the analysis tail, shared by the
/// single-process and the sharded runner.
pub(crate) fn analyse_cuts(
    cuts: Pipeline<Cut>,
    cfg: &SimConfig,
) -> Result<(Vec<StatRow>, RunStats), SimError> {
    let engine_set = StatEngineSet::new(cfg.engines.clone());
    let (rx, handle) = cuts
        .named_stage(
            "window-gen",
            WindowGen::new(cfg.window_width, cfg.window_slide),
        )
        .ordered_farm(cfg.stat_workers, |_| {
            let set = engine_set.clone();
            move |w: Window| set.analyse(&w)
        })
        .stage(flat_stage(
            |block: StatBlock, out: &mut Outbox<'_, StatRow>| {
                for row in block.rows {
                    out.push(row);
                }
            },
        ))
        .into_receiver();
    let rows: Vec<StatRow> = rx.iter().collect();
    let run_stats = handle.join()?;
    // Blocks arrive window-ordered (the ordered farm's collector restores
    // stream order) and rows within blocks are time-ordered, so the
    // concatenation is already sorted — no repair sort. Pin the invariant
    // cheaply in debug runs.
    debug_assert!(rows.windows(2).all(|w| w[0].time <= w[1].time));
    Ok((rows, run_stats))
}

/// Sequential reference implementation: same rows, no parallelism.
///
/// Always runs per-instance scalar engines, even for
/// [`EngineKind::Batched`] — a batch replica is *defined* as the scalar
/// SSA trajectory of its instance, so the scalar run is the batched
/// tier's reference, and the seq-vs-par agreement tests check the SoA
/// engine against it.
///
/// # Errors
///
/// Returns [`SimError`] on invalid configuration or model.
pub fn run_sequential(model: Arc<Model>, cfg: &SimConfig) -> Result<SimReport, SimError> {
    cfg.validate()?;
    model.validate()?;
    let start = Instant::now();

    // Run every instance to completion, collecting samples. Same
    // compile-once sharing as the parallel path.
    let deps = Arc::new(ModelDeps::compile(&model));
    let mut events = 0u64;
    let mut batches: Vec<SampleBatch> = Vec::new();
    for i in 0..cfg.instances {
        let mut task = SimTask::with_engine_deps(
            cfg.engine,
            Arc::clone(&model),
            Arc::clone(&deps),
            cfg.base_seed,
            i,
            cfg.t_end,
            cfg.quantum,
            cfg.sample_period,
        )?;
        let mut samples = Vec::new();
        while !task.is_done() {
            events += task.run_quantum(&mut samples);
        }
        batches.push(SampleBatch {
            instance: i,
            samples,
            events: 0,
            finished: true,
        });
    }

    // Alignment.
    let mut alignment = Alignment::new(cfg.instances, cfg.sample_period);
    let mut cuts: Vec<Cut> = Vec::new();
    {
        use fastflow::node::Stage;
        let (tx, rx) = fastflow::channel::unbounded();
        let mut out = Outbox::new(&tx);
        for b in batches {
            alignment.on_item(b, &mut out);
        }
        drop(tx); // close the channel so the drain below terminates
        cuts.extend(rx.iter());
    }

    // Whole-run streaming summary, fed cut by cut like the parallel path.
    let mut summary = RunSummary::new(cfg.engines.clone());
    for cut in &cuts {
        summary.push_cut(cut);
    }

    // Windows + statistics.
    let set = StatEngineSet::new(cfg.engines.clone());
    let mut rows: Vec<StatRow> = Vec::new();
    {
        use fastflow::node::Stage;
        let mut gen = WindowGen::new(cfg.window_width, cfg.window_slide);
        let (tx, rx) = fastflow::channel::unbounded();
        let mut out = Outbox::new(&tx);
        for cut in cuts {
            gen.on_item(cut, &mut out);
        }
        gen.on_end(&mut out);
        drop(tx); // close the channel so the drain below terminates
        for window in rx.iter() {
            rows.extend(set.analyse(&window).rows);
        }
    }

    Ok(SimReport {
        rows,
        run_stats: RunStats::default(),
        wall: start.elapsed(),
        events,
        observable_names: model
            .observable_names()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::StatEngineKind;
    use biomodels::simple::{birth_death, decay};
    use cwc::model::Model;

    fn small_cfg() -> SimConfig {
        SimConfig::new(6, 3.0)
            .quantum(0.5)
            .sample_period(0.25)
            .sim_workers(2)
            .stat_workers(2)
            .window(4, 2)
            .seed(11)
    }

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        let model = Arc::new(decay(40, 1.0));
        let cfg = small_cfg();
        let par = run_simulation(Arc::clone(&model), &cfg).unwrap();
        let seq = run_sequential(model, &cfg).unwrap();
        assert_eq!(par.rows, seq.rows);
        assert_eq!(par.events, seq.events);
    }

    #[test]
    fn parallel_equals_sequential_for_every_engine_kind() {
        use gillespie::engine::EngineKind;
        let model = Arc::new(decay(40, 1.0));
        for kind in [
            EngineKind::Ssa,
            EngineKind::TauLeap { tau: 0.1 },
            EngineKind::FirstReaction,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
            // The sequential reference runs scalar engines, so this is
            // the batched tier vs its per-instance definition.
            EngineKind::Batched { width: 4 },
        ] {
            let cfg = small_cfg().engine(kind);
            let par = run_simulation(Arc::clone(&model), &cfg).unwrap();
            let seq = run_sequential(Arc::clone(&model), &cfg).unwrap();
            assert_eq!(par.rows, seq.rows, "{kind}");
            assert_eq!(par.events, seq.events, "{kind}");
        }
    }

    #[test]
    fn batched_run_equals_ssa_run_for_every_width() {
        use gillespie::engine::EngineKind;
        let model = Arc::new(birth_death(25.0, 1.0, 5));
        let cfg = small_cfg();
        let reference = run_simulation(Arc::clone(&model), &cfg).unwrap();
        // Widths below, at, and above the instance count (6), including
        // widths that don't divide it — batch membership must not matter.
        for width in [1usize, 2, 4, 6, 9] {
            let cfg = small_cfg().engine(EngineKind::Batched { width });
            let batched = run_simulation(Arc::clone(&model), &cfg).unwrap();
            assert_eq!(batched.rows, reference.rows, "width {width}");
            assert_eq!(batched.events, reference.events, "width {width}");
        }
    }

    #[test]
    fn the_network_reports_its_stage_nodes() {
        // Pins the node names `run_simulation` reports for a scalar-kind
        // run: the traced benchmark network copies this set. Farm-internal
        // nodes (`mwfarm.*`, `ofarm.*`) run as named threads but record no
        // node statistics; the unnamed flatten stage is numbered by its
        // position in the network.
        let model = Arc::new(decay(40, 1.0));
        let report = run_simulation(model, &small_cfg()).unwrap();
        let mut names: Vec<&str> = report
            .run_stats
            .nodes()
            .iter()
            .map(|n| n.name.as_str())
            .collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "alignment",
                "events-counter",
                "pipeline.source",
                "pipeline.stage.12",
                "run-summary",
                "window-gen",
            ]
        );
    }

    #[test]
    fn flat_only_kinds_on_compartment_model_are_rejected_as_engine_errors() {
        use gillespie::engine::EngineKind;
        let model = Arc::new(biomodels::cell_transport(
            biomodels::CellTransportParams::default(),
        ));
        for kind in [
            EngineKind::TauLeap { tau: 0.1 },
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
            EngineKind::Batched { width: 4 },
        ] {
            let cfg = small_cfg().engine(kind);
            let err = run_simulation(Arc::clone(&model), &cfg).unwrap_err();
            assert!(matches!(err, SimError::Engine(_)), "{kind}");
            // The surfaced message names the offending rule, consistently
            // across every flat-only engine.
            assert!(
                err.to_string().contains('`'),
                "{kind}: {err} should name the offending rule"
            );
            assert!(matches!(
                run_sequential(Arc::clone(&model), &cfg),
                Err(SimError::Engine(_))
            ));
        }
    }

    #[test]
    fn report_has_one_row_per_grid_point() {
        let model = Arc::new(decay(30, 1.0));
        let cfg = small_cfg();
        let report = run_simulation(model, &cfg).unwrap();
        assert_eq!(report.rows.len(), cfg.samples_per_instance() as usize);
        assert!(report.rows.windows(2).all(|w| w[0].time < w[1].time));
        assert!(report.events > 0);
        assert_eq!(report.observable_names, vec!["A"]);
    }

    #[test]
    fn decay_mean_trend_is_monotone_decreasing() {
        let model = Arc::new(decay(200, 1.0));
        let cfg = SimConfig::new(16, 2.0)
            .quantum(0.5)
            .sample_period(0.5)
            .sim_workers(2)
            .seed(5);
        let report = run_simulation(model, &cfg).unwrap();
        let means: Vec<f64> = report.rows.iter().map(|r| r.observables[0].mean).collect();
        assert!(means.windows(2).all(|w| w[0] >= w[1]), "means {means:?}");
        assert_eq!(means[0], 200.0);
    }

    #[test]
    fn kmeans_engine_flows_through_pipeline() {
        let model = Arc::new(birth_death(20.0, 1.0, 0));
        let cfg = small_cfg().engines(vec![
            StatEngineKind::MeanVariance,
            StatEngineKind::KMeans { k: 2 },
        ]);
        let report = run_simulation(model, &cfg).unwrap();
        assert!(report
            .rows
            .iter()
            .all(|r| r.observables[0].centroids.len() <= 2));
        let csv = report.to_csv();
        assert!(csv.contains("A_centroids"));
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let model = Arc::new(decay(10, 1.0));
        let cfg = SimConfig::new(0, 1.0);
        assert!(matches!(
            run_simulation(model, &cfg),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn invalid_model_is_rejected() {
        let model = Arc::new(Model::new("empty"));
        let cfg = SimConfig::new(1, 1.0);
        assert!(matches!(
            run_simulation(model, &cfg),
            Err(SimError::Model(_))
        ));
    }

    #[test]
    fn grand_mean_summarises_rows() {
        let model = Arc::new(decay(100, 10.0));
        let cfg = small_cfg();
        let report = run_simulation(model, &cfg).unwrap();
        let gm = report.grand_mean(0);
        assert!((0.0..=100.0).contains(&gm));
    }
}
