//! `e2ebench` — the end-to-end benchmark of the simulate → align →
//! window → analyse stream, with a per-layer trace.
//!
//! ```text
//! e2ebench --workload <neurospora_ssa|lv_fine_grain|cycle_leap_tcp> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client drives the program closed-loop: one run at a time, the next
//! only after the previous report returned. Every run is checked
//! bit-for-bit against `run_sequential` on the same inputs, computed once
//! at set-up. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! interleaves traced runs, untraced runs and single-thread engine runs
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object; the exit code is non-zero when any run failed.

mod daemon;
mod gate;
mod pipeline;
mod probe;
mod stats;
mod tcp;
mod trace;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwc::model::Model;
use cwcsim::{run_sequential, run_simulation, SimConfig, SimError, SimTask, StatRow, Steering};
use gillespie::deps::ModelDeps;

use crate::daemon::Daemons;
use crate::gate::Reference;
use crate::pipeline::names;
use crate::probe::{HostFacts, ThreadCpuSampler};
use crate::stats::{median, quantile, supported_percentile, valid_metric_name};
use crate::tcp::RecordingTransport;
use crate::workload::{Workload, SIM_WORKERS};

/// Back-to-back model set-ups timed together in one set-up repetition.
const SETUP_BATCH: u32 = 256;
/// Daemon launches (each with its handshakes) timed together in one
/// set-up repetition of the TCP workload.
const LAUNCH_BATCH: u32 = 4;
/// Runs measured even when `--seconds` is shorter than they take.
const MIN_RUNS: usize = 3;
/// Daemons of the TCP workload (one per shard).
const DAEMONS: usize = 2;
/// Connect + hello deadline for the set-up handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// The end-to-end metrics, in report order, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("run_s", "s"),
    ("events_per_s", "events/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Farm nodes whose CPU the traced run reports, by thread name.
const NODES: [&str; 13] = [
    "pipeline.source",
    "mwfarm.master",
    "mwfarm.worker.0",
    "mwfarm.worker.1",
    "mwfarm.collector",
    "events-counter",
    "alignment",
    "run-summary",
    "window-gen",
    "ofarm.emitter",
    "ofarm.worker.0",
    "ofarm.collector",
    "pipeline.stage",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One untraced run, measured from outside.
#[derive(Debug, Clone, Copy)]
struct RunSample {
    run_s: f64,
    events: u64,
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// Timings of one set-up repetition.
struct SetupTimes {
    setup_s: f64,
    deps_compile_s: f64,
    connect_s: Option<f64>,
}

/// What one set-up repetition produced.
struct Artefacts {
    model: Arc<Model>,
    cfg: SimConfig,
    daemons: Option<Daemons>,
}

/// One set-up repetition: model construction plus `ModelDeps::compile`
/// (averaged over [`SETUP_BATCH`] back-to-back set-ups, which alone take
/// microseconds), and for the TCP workload the launch of two daemons
/// until each announces its address plus one handshake with each
/// (averaged over [`LAUNCH_BATCH`] launches; the last launch's daemons
/// are kept).
fn set_up_once(
    workload: Workload,
    seed: u64,
    workerd: Option<&Path>,
) -> Result<(SetupTimes, Artefacts), String> {
    let (daemons, daemons_s, connect_s) = match workerd {
        Some(path) => {
            let (mut launch, mut connect) = (Duration::ZERO, Duration::ZERO);
            let mut kept = None;
            for _ in 0..LAUNCH_BATCH {
                // Kill and reap the previous launch's daemons off the clock.
                drop(kept.take());
                let t0 = Instant::now();
                let d = Daemons::launch(path, DAEMONS)?;
                let c0 = Instant::now();
                for addr in &d.addrs {
                    distrt::net::connect_worker(addr, CONNECT_TIMEOUT)
                        .map_err(|e| format!("handshake with {addr}: {e}"))?;
                }
                connect += c0.elapsed();
                launch += t0.elapsed();
                kept = Some(d);
            }
            let per_launch = |d: Duration| d.as_secs_f64() / f64::from(LAUNCH_BATCH);
            (kept, per_launch(launch), Some(per_launch(connect)))
        }
        None => (None, 0.0, None),
    };
    let addrs = daemons.as_ref().map_or(vec![], |d| d.addrs.clone());
    let mut compile = Duration::ZERO;
    let t1 = Instant::now();
    let mut built = None;
    for _ in 0..SETUP_BATCH {
        let model = workload.model();
        let cfg = workload.config(seed, &addrs);
        let c0 = Instant::now();
        std::hint::black_box(ModelDeps::compile(&model));
        compile += c0.elapsed();
        built = Some((model, cfg));
    }
    let per_set_up = t1.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    let (model, cfg) = built.expect("SETUP_BATCH > 0");
    Ok((
        SetupTimes {
            setup_s: daemons_s + per_set_up,
            deps_compile_s: compile.as_secs_f64() / SETUP_BATCH as f64,
            connect_s,
        },
        Artefacts {
            model,
            cfg,
            daemons,
        },
    ))
}

/// Everything set up once per benchmark process.
struct Bench {
    workload: Workload,
    seed: u64,
    workerd: Option<PathBuf>,
    model: Arc<Model>,
    cfg: SimConfig,
    reference: Reference,
    daemons: Option<Daemons>,
    setup_s: Vec<f64>,
    deps_compile_s: Vec<f64>,
    connect_s: Vec<f64>,
    /// Node names of the program's in-process network, from the first
    /// untraced run, to compare the traced network's with.
    program_nodes: Option<Vec<String>>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    /// Sets up (the run's model, configuration and daemons come from
    /// the first repetition) and computes the sequential reference once.
    fn set_up(workload: Workload, seed: u64) -> Result<Bench, String> {
        let workerd = match workload.is_tcp() {
            true => Some(daemon::locate_workerd()?),
            false => None,
        };
        let (times, art) = set_up_once(workload, seed, workerd.as_deref())?;
        let t0 = Instant::now();
        let reference = run_sequential(Arc::clone(&art.model), &art.cfg)
            .map(|r| Reference::of(&r))
            .map_err(|e| format!("sequential reference failed: {e}"))?;
        println!(
            "# reference: run_sequential took {:.3} s, {} events",
            t0.elapsed().as_secs_f64(),
            reference.events
        );
        let mut bench = Bench {
            workload,
            seed,
            workerd,
            model: art.model,
            cfg: art.cfg,
            reference,
            daemons: art.daemons,
            setup_s: vec![],
            deps_compile_s: vec![],
            connect_s: vec![],
            program_nodes: None,
            attempted: 0,
            failed: 0,
        };
        bench.record(times);
        Ok(bench)
    }

    fn record(&mut self, times: SetupTimes) {
        self.setup_s.push(times.setup_s);
        self.deps_compile_s.push(times.deps_compile_s);
        self.connect_s.extend(times.connect_s);
    }

    /// Repeats set-up and throws the result away (daemons included).
    /// Called between timed runs, so set-up is sampled across the same
    /// stretch of time as the runs and its median is as steady as theirs.
    fn repeat_set_up(&mut self) {
        match set_up_once(self.workload, self.seed, self.workerd.as_deref()) {
            Ok((times, _discarded)) => self.record(times),
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                eprintln!("e2ebench: set-up repetition failed: {e}");
            }
        }
    }

    fn daemon_pids(&self) -> Vec<u32> {
        self.daemons.as_ref().map_or(vec![], Daemons::pids)
    }

    /// Counts one attempted run and checks it against the reference.
    fn check(&mut self, what: &str, outcome: Result<(&[StatRow], u64), String>) -> bool {
        self.attempted += 1;
        let verdict = outcome.and_then(|(rows, events)| self.reference.check(rows, events));
        if let Err(e) = &verdict {
            self.failed += 1;
            eprintln!("e2ebench: {} {what} run failed: {e}", self.workload.name());
        }
        verdict.is_ok()
    }

    /// One untraced run through the public run API, measured from
    /// outside: wall time, CPU (benchmark process plus daemons) and peak
    /// resident set (likewise, each reset before the run).
    fn measure(&mut self) -> Option<RunSample> {
        let me = std::process::id();
        let pids = self.daemon_pids();
        probe::trim_heap();
        let unreset: Vec<u32> = std::iter::once(me)
            .chain(pids.iter().copied())
            .filter(|&pid| !probe::reset_peak_rss(pid))
            .collect();
        if !unreset.is_empty() {
            // VmHWM would still hold an earlier, larger peak.
            self.check(
                "timed",
                Err(format!(
                    "cannot reset the peak resident set of pid(s) {unreset:?} \
                     (/proc/<pid>/clear_refs not writable), so peak_rss_mb is unavailable"
                )),
            );
            return None;
        }
        let daemon_cpu =
            |pids: &[u32]| -> f64 { pids.iter().filter_map(|&p| probe::pid_cpu_s(p)).sum() };
        let (cpu0, dcpu0) = (probe::process_cpu_s(), daemon_cpu(&pids));
        let t0 = Instant::now();
        let result = match self.workload.is_tcp() {
            true => distrt::run_simulation_sharded(Arc::clone(&self.model), &self.cfg),
            false => run_simulation(Arc::clone(&self.model), &self.cfg),
        };
        let run_s = t0.elapsed().as_secs_f64();
        let daemon_cpu_s = daemon_cpu(&pids) - dcpu0;
        let cpu_s = probe::process_cpu_s() - cpu0 + daemon_cpu_s;
        let peak_rss_mb = std::iter::once(&me)
            .chain(&pids)
            .filter_map(|&p| probe::peak_rss_mib(p))
            .sum();
        let events = result.as_ref().map_or(0, |r| r.events);
        if let (Ok(report), None) = (&result, &self.program_nodes) {
            self.program_nodes = Some(pipeline::node_names(&report.run_stats));
        }
        let ok = self.check(
            "timed",
            result
                .as_ref()
                .map(|r| (r.rows.as_slice(), r.events))
                .map_err(SimError::to_string),
        );
        ok.then_some(RunSample {
            run_s,
            events,
            cpu_s,
            peak_rss_mb,
        })
    }

    /// The single-thread engine ceiling: `run_quantum` alone over every
    /// instance, one after another. Returns (seconds inside
    /// `run_quantum`, quanta, events).
    fn ceiling(&mut self) -> (f64, u64, u64) {
        let cfg = &self.cfg;
        let deps = Arc::new(ModelDeps::compile(&self.model));
        let (mut step, mut quanta, mut events) = (Duration::ZERO, 0, 0);
        let mut samples = Vec::new();
        for i in 0..cfg.instances {
            let mut task = SimTask::with_engine_deps(
                cfg.engine,
                Arc::clone(&self.model),
                Arc::clone(&deps),
                cfg.base_seed,
                i,
                cfg.t_end,
                cfg.quantum,
                cfg.sample_period,
            )
            .expect("the reference run built this engine");
            while !task.is_done() {
                samples.clear();
                let t0 = Instant::now();
                events += task.run_quantum(&mut samples);
                step += t0.elapsed();
                quanta += 1;
            }
        }
        if events != self.reference.events {
            self.attempted += 1;
            self.failed += 1;
            eprintln!(
                "e2ebench: engine-only run fired {events} events, reference {}",
                self.reference.events
            );
        }
        (step.as_secs_f64(), quanta, events)
    }
}

/// A reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name `{name}`");
        Metric {
            name,
            unit,
            samples,
        }
    }

    fn value(&self) -> f64 {
        median(&self.samples)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0)
    }
}

/// Untraced runs until `seconds` have passed (at least [`MIN_RUNS`]),
/// after one checked warm-up run.
fn end_to_end(bench: &mut Bench, seconds: f64) -> Vec<Metric> {
    bench.measure();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    // Past the deadline, keep going only to reach MIN_RUNS, and only while
    // every run has passed.
    while Instant::now() < deadline || (samples.len() < MIN_RUNS && bench.failed == 0) {
        samples.extend(bench.measure());
        bench.repeat_set_up();
        if bench.failed == bench.attempted {
            break; // nothing works: stop early and report the failure
        }
    }
    let col = |f: fn(&RunSample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let runs: Vec<String> = col(|s| s.run_s).iter().map(|t| format!("{t:.3}")).collect();
    println!("# run_s of each timed run: {}", runs.join(" "));
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let samples = match name {
                "run_s" => col(|s| s.run_s),
                "events_per_s" => col(|s| s.events as f64 / s.run_s),
                "cpu_s" => col(|s| s.cpu_s),
                "peak_rss_mb" => col(|s| s.peak_rss_mb),
                _ => bench.setup_s.clone(),
            };
            Metric::new(name, unit, samples)
        })
        .collect()
}

/// Per-layer figures of one traced iteration, by metric name.
type Layers = HashMap<String, f64>;

/// The per-layer metrics, in report order, with their units.
fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("gillespie.step_s", "s"),
        ("gillespie.quanta", "count"),
        ("gillespie.events", "count"),
        ("gillespie.step_events_per_s", "events/s"),
        ("gillespie.deps_compile_s", "s"),
        ("fastflow.worker_busy_s.0", "s"),
        ("fastflow.worker_busy_s.1", "s"),
        ("fastflow.worker_imbalance", "ratio"),
        ("fastflow.worker_overhead_s", "s"),
        ("fastflow.requeue_wait_us_p50", "us"),
        ("fastflow.requeue_wait_us_p90", "us"),
    ]
    .map(|(n, u)| (n.to_owned(), u))
    .into();
    v.extend(
        NODES
            .iter()
            .chain(&["other"])
            .map(|n| (format!("fastflow.node_cpu_s.{n}"), "s")),
    );
    v.extend(
        [
            ("fastflow.nonworker_cpu_s", "s"),
            ("fastflow.pipeline_efficiency", "ratio"),
            ("alignment.busy_s", "s"),
            ("alignment.buffered_max", "cuts"),
            ("windows.busy_s", "s"),
            ("engines.busy_s", "s"),
            ("engines.rows", "count"),
            ("merge.summary_busy_s", "s"),
            ("trace.row_latency_ms_p50", "ms"),
            ("trace.row_latency_ms_p90", "ms"),
            ("trace.first_row_s", "s"),
            ("trace.overhead", "ratio"),
            ("distrt.connect_s", "s"),
            ("distrt.cuts_received", "count"),
            ("distrt.wire_bytes", "bytes"),
            ("distrt.shard_attempts", "count"),
            ("distrt.shard_skew_s", "s"),
            ("distrt.tail_s", "s"),
            ("distrt.daemon_cpu_s", "s"),
            ("rss_growth_mb", "MiB"),
        ]
        .map(|(n, u)| (n.to_owned(), u)),
    );
    v
}

/// Canonical node name of an OS thread name (the kernel truncates
/// thread names to 15 bytes).
fn node_of(thread: &str) -> &'static str {
    if thread.starts_with("pipeline.stage.") {
        return "pipeline.stage";
    }
    NODES
        .iter()
        .find(|n| **n == thread || (thread.len() == 15 && n.starts_with(thread)))
        .copied()
        .unwrap_or("other")
}

/// CPU per node of one run, plus the CPU of the whole process.
fn node_cpu(layers: &mut Layers, by_thread: HashMap<String, f64>, process_cpu_s: f64) {
    let mut by_node: HashMap<&str, f64> = HashMap::new();
    for (thread, cpu) in by_thread {
        *by_node.entry(node_of(&thread)).or_default() += cpu;
    }
    for n in NODES.iter().chain(&["other"]) {
        layers.insert(
            format!("fastflow.node_cpu_s.{n}"),
            by_node.get(n).copied().unwrap_or(0.0),
        );
    }
    let workers: f64 = (0..SIM_WORKERS)
        .map(|i| {
            by_node
                .get(format!("mwfarm.worker.{i}").as_str())
                .copied()
                .unwrap_or(0.0)
        })
        .sum();
    layers.insert("fastflow.nonworker_cpu_s".into(), process_cpu_s - workers);
}

/// One traced in-process run; returns its wall time.
fn traced_in_process(bench: &mut Bench, layers: &mut Layers) -> f64 {
    let sampler = ThreadCpuSampler::start(Duration::from_millis(10));
    let cpu0 = probe::process_cpu_s();
    let result = pipeline::run_traced(Arc::clone(&bench.model), &bench.cfg);
    let cpu = probe::process_cpu_s() - cpu0;
    node_cpu(layers, sampler.finish(), cpu);
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            bench.check("traced", Err(e.to_string()));
            return f64::NAN;
        }
    };
    bench.check("traced", Ok((&run.rows, run.events)));
    let nodes = pipeline::node_names(&run.run_stats);
    if let Some(program) = bench.program_nodes.as_ref().filter(|p| **p != nodes) {
        // The rows still agree, so the run passes, but the per-node
        // figures describe another network than the program's.
        println!("# warning: traced network {nodes:?} differs from the program's {program:?}");
    }
    let spans = &run.spans;
    let quanta = spans.iter().filter(|s| s.name == names::QUANTUM).count();
    layers.insert(
        "gillespie.step_s".into(),
        trace::busy_s(spans, names::QUANTUM),
    );
    let quantum_events: u64 = spans
        .iter()
        .filter(|s| s.name == names::QUANTUM)
        .map(|s| s.count)
        .sum();
    layers.insert("gillespie.quanta".into(), quanta as f64);
    layers.insert("gillespie.events".into(), quantum_events as f64);
    let mut busy = [0.0; SIM_WORKERS];
    for s in spans.iter().filter(|s| s.name == names::ON_TASK) {
        busy[s.lane as usize] += s.dur() as f64 * 1e-9;
    }
    for (i, b) in busy.iter().enumerate() {
        layers.insert(format!("fastflow.worker_busy_s.{i}"), *b);
    }
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    layers.insert(
        "fastflow.worker_imbalance".into(),
        busy.iter().copied().fold(0.0, f64::max) / mean,
    );
    let self_ns = trace::self_times(spans);
    let overhead: u64 = spans
        .iter()
        .filter(|s| s.name == names::ON_TASK)
        .filter_map(|s| self_ns.get(&s.id))
        .sum();
    layers.insert("fastflow.worker_overhead_s".into(), overhead as f64 * 1e-9);
    let waits: Vec<f64> = trace::requeue_waits(spans, names::QUANTUM)
        .into_iter()
        .map(|ns| ns as f64 * 1e-3)
        .collect();
    layers.insert(
        "fastflow.requeue_wait_us_p50".into(),
        quantile(&waits, 0.5).unwrap_or(0.0),
    );
    layers.insert(
        "fastflow.requeue_wait_us_p90".into(),
        quantile(&waits, 0.9).unwrap_or(0.0),
    );
    layers.insert(
        "alignment.busy_s".into(),
        trace::busy_s(spans, names::ALIGN),
    );
    layers.insert("alignment.buffered_max".into(), run.buffered_max as f64);
    layers.insert("windows.busy_s".into(), trace::busy_s(spans, names::WINDOW));
    layers.insert(
        "engines.busy_s".into(),
        trace::busy_s(spans, names::ANALYSE),
    );
    let rows: u64 = spans
        .iter()
        .filter(|s| s.name == names::ANALYSE)
        .map(|s| s.count)
        .sum();
    layers.insert("engines.rows".into(), rows as f64);
    layers.insert(
        "merge.summary_busy_s".into(),
        trace::busy_s(spans, names::SUMMARY),
    );
    let latency: Vec<f64> = trace::row_latencies(spans, names::ON_TASK, &run.emitted)
        .into_iter()
        .map(|ns| ns as f64 * 1e-6)
        .collect();
    layers.insert(
        "trace.row_latency_ms_p50".into(),
        quantile(&latency, 0.5).unwrap_or(0.0),
    );
    layers.insert(
        "trace.row_latency_ms_p90".into(),
        quantile(&latency, 0.9).unwrap_or(0.0),
    );
    let first = run.emitted.values().min().copied().unwrap_or(run.started);
    layers.insert(
        "trace.first_row_s".into(),
        (first - run.started) as f64 * 1e-9,
    );
    (run.ended - run.started) as f64 * 1e-9
}

/// One traced TCP run through the recording transport; returns its wall
/// time.
fn traced_tcp(bench: &mut Bench, layers: &mut Layers) -> f64 {
    let pids = bench.daemon_pids();
    let daemon_cpu =
        |pids: &[u32]| -> f64 { pids.iter().filter_map(|&p| probe::pid_cpu_s(p)).sum() };
    let sampler = ThreadCpuSampler::start(Duration::from_millis(10));
    let (cpu0, dcpu0) = (probe::process_cpu_s(), daemon_cpu(&pids));
    let mut transport = RecordingTransport::new(distrt::TcpShardTransport::from_config(&bench.cfg));
    let t0 = Instant::now();
    let result = cwcsim::run_simulation_sharded_with(
        Arc::clone(&bench.model),
        &bench.cfg,
        &Steering::new(),
        &mut transport,
    );
    let run_s = t0.elapsed().as_secs_f64();
    let returned = transport.elapsed_s();
    let cpu = probe::process_cpu_s() - cpu0;
    layers.insert("distrt.daemon_cpu_s".into(), daemon_cpu(&pids) - dcpu0);
    node_cpu(layers, sampler.finish(), cpu);
    bench.check(
        "traced",
        result
            .as_ref()
            .map(|r| (r.rows.as_slice(), r.events))
            .map_err(SimError::to_string),
    );
    let log = transport.log();
    layers.insert("distrt.cuts_received".into(), log.cuts as f64);
    layers.insert("distrt.wire_bytes".into(), log.wire_bytes as f64);
    layers.insert("distrt.shard_attempts".into(), transport.attempts() as f64);
    let first_end = log.ends.iter().copied().fold(f64::INFINITY, f64::min);
    let last_end = log.ends.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !log.ends.is_empty() {
        layers.insert("distrt.shard_skew_s".into(), last_end - first_end);
        layers.insert("distrt.tail_s".into(), returned - last_end);
    }
    run_s
}

/// Untraced runs first, for a quarter of `seconds` (at least
/// [`MIN_RUNS`]), sampling the resident set after each: the growth a
/// long-lived process shows, before any traced run has allocated span
/// buffers. Then traced runs, engine-only runs and untraced runs,
/// interleaved until `seconds` have passed; each per-layer metric is the
/// median over iterations.
fn per_layer(bench: &mut Bench, seconds: f64) -> Vec<Metric> {
    bench.measure();
    let me = std::process::id();
    let start = Instant::now();
    let (mut traced_s, mut untraced, mut rss) = (vec![], vec![], vec![]);
    while rss.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds / 4.0 {
        untraced.extend(bench.measure());
        // Before the next run trims the heap: what a long-lived process
        // keeps resident.
        rss.push(probe::rss_mib(me).unwrap_or(0.0));
        bench.repeat_set_up();
        if bench.failed > 0 {
            break;
        }
    }
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut iterations: Vec<Layers> = Vec::new();
    let mut i = 0;
    while i < MIN_RUNS || Instant::now() < deadline {
        let mut layers = Layers::default();
        // Rotate the order so no kind of run always follows another.
        for step in 0..3 {
            match (i + step) % 3 {
                0 => traced_s.push(match bench.workload.is_tcp() {
                    true => traced_tcp(bench, &mut layers),
                    false => traced_in_process(bench, &mut layers),
                }),
                1 => {
                    let (step_s, quanta, events) = bench.ceiling();
                    layers.insert("gillespie.step_events_per_s".into(), events as f64 / step_s);
                    if bench.workload.is_tcp() {
                        // The farm runs inside the daemons: the engine
                        // figures come from the engine-only run.
                        layers.insert("gillespie.step_s".into(), step_s);
                        layers.insert("gillespie.quanta".into(), quanta as f64);
                        layers.insert("gillespie.events".into(), events as f64);
                    }
                }
                _ => {
                    untraced.extend(bench.measure());
                    bench.repeat_set_up();
                }
            }
        }
        iterations.push(layers);
        i += 1;
        if bench.failed == bench.attempted && bench.attempted > 0 {
            break;
        }
    }
    let ceilings: Vec<String> = iterations
        .iter()
        .filter_map(|l| l.get("gillespie.step_events_per_s"))
        .map(|e| format!("{e:.0}"))
        .collect();
    println!(
        "# engine-only events/s of each iteration: {}",
        ceilings.join(" ")
    );
    let runs: Vec<String> = untraced.iter().map(|s| format!("{:.3}", s.run_s)).collect();
    println!("# run_s of each untraced run: {}", runs.join(" "));
    let untraced_run_s = median(&untraced.iter().map(|s| s.run_s).collect::<Vec<_>>());
    let events_per_s = median(
        &untraced
            .iter()
            .map(|s| s.events as f64 / s.run_s)
            .collect::<Vec<_>>(),
    );
    // Metrics sampled once per process or per set-up, not per iteration.
    let mut derived: HashMap<&str, Vec<f64>> = HashMap::new();
    derived.insert("gillespie.deps_compile_s", bench.deps_compile_s.clone());
    derived.insert("distrt.connect_s", bench.connect_s.clone());
    if let (Some(t), Some(u)) = (median(&traced_s), untraced_run_s) {
        derived.insert("trace.overhead", vec![t / u]);
    }
    if let (Some(first), Some(last)) = (rss.first(), rss.last()) {
        derived.insert("rss_growth_mb", vec![last - first]);
    }
    let efficiency: Vec<f64> = iterations
        .iter()
        .filter_map(|l| l.get("gillespie.step_events_per_s"))
        .filter_map(|ceiling| events_per_s.map(|e| e / ceiling))
        .collect();
    derived.insert("fastflow.pipeline_efficiency", efficiency);
    layer_metric_names()
        .into_iter()
        .map(|(name, unit)| {
            let samples = match derived.remove(name.as_str()) {
                Some(v) => v,
                None => iterations
                    .iter()
                    .map(|l| l.get(&name).copied().unwrap_or(0.0))
                    .collect(),
            };
            Metric::new(name, unit, samples)
        })
        .collect()
}

/// `v` with six significant digits.
fn sig(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        5 - v.abs().log10().floor() as i32
    };
    format!("{v:.*}", digits.clamp(0, 12) as usize)
}

/// Prints the human-readable table and, last, the JSON result line.
/// `steal_s` is the CPU time the hypervisor gave other guests while the
/// benchmark ran: a slow run on a shared host shows here.
fn report(bench: &Bench, metrics: &[Metric], steal_s: Option<f64>) {
    let host = HostFacts::probe();
    println!(
        "# host: nproc={} kernel_dispatch={} rustc=\"{}\" steal_s={}",
        host.nproc,
        host.kernel_dispatch,
        host.rustc,
        steal_s.map_or("unknown".into(), sig)
    );
    println!("# workload: {}", bench.workload.name());
    println!(
        "{:<40} {:>16} {:<9} {:>16} {:>5}",
        "metric", "median", "unit", "p_max", "n"
    );
    for m in metrics {
        let n = m.samples.len();
        let tail = supported_percentile(n)
            .and_then(|p| {
                Some(format!(
                    "p{p}={}",
                    sig(quantile(&m.samples, f64::from(p) / 100.0)?)
                ))
            })
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<40} {:>16} {:<9} {:>16} {:>5}",
            m.name,
            sig(m.value()),
            m.unit,
            tail,
            n
        );
    }
    let error_rate = bench.failed as f64 / bench.attempted.max(1) as f64;
    println!(
        "{:<40} {:>16} {:<9} {:>16} {:>5}",
        "error_rate",
        sig(error_rate),
        "ratio",
        "-",
        bench.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                m.value(),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.failed == 0,
        bench.attempted,
        bench.failed,
        body.join(", ")
    );
}

fn run() -> Result<i32, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let steal0 = probe::host_steal_s();
    let mut bench = Bench::set_up(args.workload, args.seed)?;
    let metrics = match args.trace {
        false => end_to_end(&mut bench, args.seconds),
        true => per_layer(&mut bench, args.seconds),
    };
    let steal_s = probe::host_steal_s().zip(steal0).map(|(b, a)| b - a);
    report(&bench, &metrics, steal_s);
    Ok(if bench.failed == 0 && bench.attempted > 0 {
        0
    } else {
        1
    })
}

fn main() {
    // Every resource (the daemons in particular) is dropped inside
    // `run`, before the process exits.
    let code = run().unwrap_or_else(|e| {
        eprintln!("e2ebench: {e}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_command_line_parses() {
        let a = args("--workload lv_fine_grain --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::LvFineGrain);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
        assert!(args("--seed 1").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload lv_fine_grain --trace 2").is_err());
        assert!(args("--workload lv_fine_grain --seconds").is_err());
    }

    #[test]
    fn every_per_layer_name_is_valid_and_unique() {
        let names = layer_metric_names();
        for (n, _) in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        let unique: std::collections::HashSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len());
    }

    /// `(name, unit)` of every metric object in a section of
    /// BENCHMARK.json (the file is flat enough to scan without a parser).
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |key: &str| {
                    let at = obj.find(&format!("\"{key}\": \"")).expect("field present");
                    let rest = &obj[at + key.len() + 5..];
                    rest[..rest.find('"').expect("string closes")].to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_metrics_printed_are_the_metrics_declared() {
        let json = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = layer_metric_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared(&json, "per_layer"), layers);
    }

    #[test]
    fn truncated_thread_names_map_to_their_node() {
        assert_eq!(node_of("mwfarm.collecto"), "mwfarm.collector");
        assert_eq!(node_of("ofarm.collector"), "ofarm.collector");
        assert_eq!(node_of("mwfarm.worker.1"), "mwfarm.worker.1");
        assert_eq!(node_of("pipeline.stage."), "pipeline.stage");
        assert_eq!(node_of("e2ebench"), "other");
        assert_eq!(node_of("mwfarm"), "other");
    }
}
