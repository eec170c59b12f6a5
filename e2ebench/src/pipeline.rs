//! The traced in-process run: the Fig. 2 network assembled from the
//! public stage objects, with a span around every call into a layer.
//!
//! ```text
//! source ─▶ master_worker_farm(SimMaster, TracedWorker × n) ─▶ events-counter
//!   ─▶ Alignment ─▶ RunSummary::push_cut ─▶ WindowGen
//!   ─▶ ordered_farm(analyse) ─▶ rows
//! ```
//!
//! The network has the same nodes, in the same order, as the one
//! `cwcsim::run_simulation` builds for the scalar engine kinds (a test
//! pins the node names), so the per-node figures describe the program's
//! network, not a lighter copy of it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cwc::model::Model;
use cwcsim::{
    Alignment, RunSummary, SampleBatch, SimConfig, SimError, SimMaster, SimTask, StatBlock,
    StatEngineSet, StatRow, Steering, Window, WindowGen,
};
use fastflow::master_worker::FeedbackWorker;
use fastflow::metrics::RunStats;
use fastflow::node::{flat_stage, map_stage, Flow, Outbox, Stage};
use fastflow::pipeline::Pipeline;
use gillespie::deps::ModelDeps;
use gillespie::trajectory::Cut;

use crate::trace::{Span, SpanBuf, Trace};

/// Span names of the traced run.
pub mod names {
    /// A farm worker's `on_task` (quantum + forwarding + feedback).
    pub const ON_TASK: &str = "fastflow.on_task";
    /// `SimTask::run_quantum`, a child of [`ON_TASK`].
    pub const QUANTUM: &str = "gillespie.run_quantum";
    /// `Alignment::on_item`.
    pub const ALIGN: &str = "alignment.on_item";
    /// `RunSummary::push_cut`.
    pub const SUMMARY: &str = "merge.push_cut";
    /// `WindowGen::on_item`.
    pub const WINDOW: &str = "windows.on_item";
    /// `StatEngineSet::analyse`.
    pub const ANALYSE: &str = "engines.analyse";
}

/// What a traced run returns.
#[derive(Debug)]
pub struct TracedRun {
    /// The analysis rows, in time order.
    pub rows: Vec<StatRow>,
    /// Events fired, as the events-counter stage summed them.
    pub events: u64,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Row emission time (ns since the trace origin) per grid index.
    pub emitted: HashMap<u64, u64>,
    /// When the run was called (ns since the trace origin).
    pub started: u64,
    /// When every node had finished (the untraced run returns then too).
    pub ended: u64,
    /// High-water mark of `Alignment::buffered()`.
    pub buffered_max: usize,
    /// Per-node statistics the network returned when joined.
    pub run_stats: RunStats,
}

/// The node names of a joined network, sorted (nodes report in the
/// order they finish).
pub fn node_names(stats: &RunStats) -> Vec<String> {
    let mut names: Vec<String> = stats.nodes().iter().map(|n| n.name.clone()).collect();
    names.sort();
    names
}

/// Grid index of a sample time.
fn grid(t: f64, tau: f64) -> u64 {
    (t / tau).round() as u64
}

/// A farm worker that runs one quantum per task, like `SimWorker`, with
/// the quantum and the whole `on_task` call recorded as spans.
struct TracedWorker {
    spans: SpanBuf,
    tau: f64,
}

impl FeedbackWorker for TracedWorker {
    type Task = SimTask;
    type Fb = SimTask;
    type Out = SampleBatch;

    fn on_task(&mut self, mut task: SimTask, out: &mut Outbox<'_, SampleBatch>) -> Option<SimTask> {
        let t0 = self.spans.now();
        let mut samples = Vec::new();
        let events = task.run_quantum(&mut samples);
        let t1 = self.spans.now();
        let instance = task.instance();
        let finished = task.is_done();
        let range = samples
            .first()
            .zip(samples.last())
            .map(|((a, _), (b, _))| (grid(*a, self.tau), grid(*b, self.tau)));
        if !samples.is_empty() || finished {
            out.push(SampleBatch {
                instance,
                samples,
                events,
                finished,
            });
        }
        let t2 = self.spans.now();
        let parent = self.spans.record(names::ON_TASK, t0, t2, instance);
        self.spans.last().grid = range;
        self.spans.record(names::QUANTUM, t0, t1, instance);
        let q = self.spans.last();
        q.parent = parent;
        q.count = events;
        (!finished).then_some(task)
    }
}

/// The key a span records for an input item.
type KeyFn<T> = Box<dyn Fn(&T) -> u64 + Send>;

/// A level read off a stage after each call, and the shared maximum.
type Gauge<S> = (fn(&S) -> usize, Arc<AtomicUsize>);

/// Wraps a stage so each `on_item` call is a span; `gauge` samples a
/// level (buffered cuts) after every call and keeps its maximum.
struct Spanned<S: Stage> {
    inner: S,
    name: &'static str,
    spans: SpanBuf,
    key: KeyFn<S::In>,
    gauge: Option<Gauge<S>>,
}

impl<S: Stage> Stage for Spanned<S> {
    type In = S::In;
    type Out = S::Out;

    fn on_start(&mut self) {
        self.inner.on_start();
    }

    fn on_item(&mut self, item: S::In, out: &mut Outbox<'_, S::Out>) -> Flow {
        let key = (self.key)(&item);
        let t0 = self.spans.now();
        let flow = self.inner.on_item(item, out);
        let t1 = self.spans.now();
        self.spans.record(self.name, t0, t1, key);
        if let Some((level, max)) = &self.gauge {
            max.fetch_max(level(&self.inner), Ordering::Relaxed);
        }
        flow
    }

    fn on_end(&mut self, out: &mut Outbox<'_, S::Out>) {
        let t0 = self.spans.now();
        self.inner.on_end(out);
        let t1 = self.spans.now();
        self.spans.record(self.name, t0, t1, u64::MAX);
    }
}

/// Runs `model` under `cfg` (scalar engine kinds, one process) through
/// the traced network.
///
/// # Errors
///
/// Returns [`SimError`] on an engine/model mismatch or a node panic.
pub fn run_traced(model: Arc<Model>, cfg: &SimConfig) -> Result<TracedRun, SimError> {
    let trace = Trace::new();
    let started = trace.now();
    let tau = cfg.sample_period;
    let deps = Arc::new(ModelDeps::compile(&model));
    let tasks: Vec<SimTask> = (0..cfg.instances)
        .map(|i| {
            SimTask::with_engine_deps(
                cfg.engine,
                Arc::clone(&model),
                Arc::clone(&deps),
                cfg.base_seed,
                i,
                cfg.t_end,
                cfg.quantum,
                tau,
            )
        })
        .collect::<Result<_, _>>()?;
    let workers: Vec<TracedWorker> = (0..cfg.sim_workers)
        .map(|i| TracedWorker {
            spans: trace.buffer(i as u32),
            tau,
        })
        .collect();

    let buffered_max = Arc::new(AtomicUsize::new(0));
    let events = Arc::new(AtomicU64::new(0));
    let events_in_stage = Arc::clone(&events);
    let summary = Arc::new(Mutex::new(RunSummary::new(cfg.engines.clone())));
    let mut summary_spans = trace.buffer(100);
    let engine_set = StatEngineSet::new(cfg.engines.clone());
    let pipeline = Pipeline::from_source_with_capacity(tasks.into_iter(), cfg.channel_capacity)
        .master_worker_farm(SimMaster::with_steering(Steering::new()), workers)
        .named_stage(
            "events-counter",
            map_stage(move |batch: SampleBatch| {
                events_in_stage.fetch_add(batch.events, Ordering::Relaxed);
                batch
            }),
        )
        .named_stage(
            "alignment",
            Spanned {
                inner: Alignment::new(cfg.instances, tau),
                name: names::ALIGN,
                spans: trace.buffer(101),
                key: Box::new(|b: &SampleBatch| b.instance),
                gauge: Some((Alignment::buffered, Arc::clone(&buffered_max))),
            },
        )
        .named_stage(
            "run-summary",
            map_stage(move |cut: Cut| {
                let t0 = summary_spans.now();
                summary.lock().expect("summary mutex").push_cut(&cut);
                let t1 = summary_spans.now();
                summary_spans.record(names::SUMMARY, t0, t1, grid(cut.time, tau));
                cut
            }),
        )
        .named_stage(
            "window-gen",
            Spanned {
                inner: WindowGen::new(cfg.window_width, cfg.window_slide),
                name: names::WINDOW,
                spans: trace.buffer(102),
                key: Box::new(move |c: &Cut| grid(c.time, tau)),
                gauge: None,
            },
        )
        .ordered_farm(cfg.stat_workers, |i| {
            let set = engine_set.clone();
            let mut spans = trace.buffer(200 + i as u32);
            move |w: Window| {
                let t0 = spans.now();
                let block = set.analyse(&w);
                let t1 = spans.now();
                spans.record(names::ANALYSE, t0, t1, w.seq);
                spans.last().count = block.rows.len() as u64;
                block
            }
        })
        .stage(flat_stage(
            |block: StatBlock, out: &mut Outbox<'_, StatRow>| {
                for row in block.rows {
                    out.push(row);
                }
            },
        ));

    let (rx, handle) = pipeline.into_receiver();
    let mut rows = Vec::new();
    let mut emitted = HashMap::new();
    for row in rx.iter() {
        emitted.insert(grid(row.time, tau), trace.now());
        rows.push(row);
    }
    let run_stats = handle.join()?;
    let ended = trace.now();
    Ok(TracedRun {
        rows,
        events: events.load(Ordering::Relaxed),
        spans: trace.take(),
        emitted,
        started,
        ended,
        buffered_max: buffered_max.load(Ordering::Relaxed),
        run_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Reference;
    use cwcsim::{run_sequential, run_simulation, StatEngineKind};

    fn small_config() -> SimConfig {
        SimConfig::new(8, 4.0)
            .quantum(0.5)
            .sample_period(0.25)
            .window(4, 2)
            .engines(vec![
                StatEngineKind::MeanVariance,
                StatEngineKind::KMeans { k: 2 },
            ])
            .sim_workers(2)
            .stat_workers(1)
            .seed(3)
    }

    #[test]
    fn the_traced_network_has_the_programs_nodes() {
        let model = Arc::new(biomodels::birth_death(20.0, 1.0, 5));
        let cfg = small_config();
        let program = run_simulation(Arc::clone(&model), &cfg).unwrap();
        let traced = run_traced(model, &cfg).unwrap();
        let names = node_names(&traced.run_stats);
        assert_eq!(names, node_names(&program.run_stats));
        assert!(names.iter().any(|n| n == "events-counter"), "{names:?}");
        assert_eq!(traced.events, program.events);
    }

    #[test]
    fn traced_rows_equal_the_sequential_reference() {
        let model = Arc::new(biomodels::birth_death(20.0, 1.0, 5));
        let cfg = small_config();
        let reference = Reference::of(&run_sequential(Arc::clone(&model), &cfg).unwrap());
        let run = run_traced(model, &cfg).unwrap();
        reference.check(&run.rows, run.events).unwrap();
        let quanta = run
            .spans
            .iter()
            .filter(|s| s.name == names::QUANTUM)
            .count();
        assert_eq!(quanta, 8 * 8, "8 instances × 8 quanta");
        assert!(run.spans.iter().all(|s| s.end >= s.start));
        assert_eq!(run.emitted.len(), run.rows.len());
        assert!(run.buffered_max >= 1);
    }
}
