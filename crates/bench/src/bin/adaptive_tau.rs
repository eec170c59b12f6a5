//! Adaptive tau-leaping speed/accuracy sweep: the CGP engine and the
//! hybrid SSA/tau engine vs fixed-step leaping and exact SSA.
//!
//! Fixed-step tau-leaping must pick its leap length for the *worst* state
//! a trajectory visits, so on stiff configurations (Schlögl's `a0` in the
//! thousands) an accurate fixed τ fires less than one reaction per leap
//! and the method degenerates. Adaptive step-size selection re-sizes every
//! leap from the committed state — this harness measures what that buys:
//!
//! - **speed** — reaction firings per wall-second, per engine, running
//!   full trajectories to a fixed horizon (so every engine does the same
//!   physical work);
//! - **accuracy** — ensemble mean of the first observable at the horizon
//!   vs exact SSA, with the standard error of the difference (Schlögl is
//!   bistable, Lotka–Volterra oscillatory: the two hard cases; the wide
//!   conversion cycles — 300 rules, 2 species touched per transition —
//!   isolate per-transition scan cost: the leap-regime case exercises
//!   the kernel-accelerated CGP/Poisson sweeps, the all-critical case
//!   the incidence list and incremental a0 maintenance).
//!
//! Output: a human table on stdout plus `BENCH_adaptive_tau.json`
//! (override with `--out PATH`). Flags:
//!
//! - `--quick`    fewer averaged instances (the CI smoke configuration);
//! - `--csv`      emit rows in the CI baseline CSV format instead;
//! - `--check F`  compare against the committed baseline `F`: the
//!   adaptive-vs-fixed *speedup ratio* per model must stay within
//!   [`RATIO_TOLERANCE`] of the committed one (ratios, not absolute
//!   firings/sec, so the gate is hardware-independent), the fresh
//!   adaptive-vs-SSA ratio on the wide cases must clear the absolute
//!   [`SSA_RATIO_FLOORS`] for the resolved kernel dispatch, and every
//!   approximate engine's mean must agree with the fresh SSA mean within
//!   [`ACCURACY_SIGMA`] standard errors. Exit non-zero on violation.

use std::sync::Arc;
use std::time::Instant;

use biomodels::{conversion_cycle, lotka_volterra, schlogl, LotkaVolterraParams, SchloglParams};
use cwc::model::Model;
use gillespie::adaptive::AdaptiveTauEngine;
use gillespie::batch::kernels::{Kernel, KernelDispatch};
use gillespie::deps::ModelDeps;
use gillespie::engine::EngineKind;

/// Tolerated regression of the adaptive/fixed speedup ratio vs the
/// committed baseline (CI noise headroom).
const RATIO_TOLERANCE: f64 = 0.35;

/// Committed speedups below this are reported informationally, not gated
/// (near-1.0 ratios are measurement noise by construction).
const GATE_MIN_SPEEDUP: f64 = 1.5;

/// Accuracy gate: |mean − ssa mean| must stay within this many standard
/// errors of the difference of the two ensemble means.
const ACCURACY_SIGMA: f64 = 6.0;

/// The engine whose speedup over `fixed-tau` is gated.
const GATED_ENGINE: &str = "adaptive-0.05";

/// Absolute floors on the [`GATED_ENGINE`]-vs-`ssa` firings/sec ratio of
/// the *fresh* run, per model: `(model, avx2_floor, scalar_floor)`. The
/// AVX2 floor applies when [`KernelDispatch::Auto`] resolves to the SIMD
/// kernels; the scalar floor applies under `CWC_FORCE_SCALAR_KERNELS`
/// or on CPUs without AVX2, so the gate is sound off-AVX2. Unlike the
/// baseline-relative speedup gate these are absolute: they pin the
/// kernel-accelerated O(affected) hot path itself — if it regresses to
/// full-width rescans the leap-regime ratio collapses well below 2.
/// `wide_flat_cycle_crit` cannot leap (every rule is critical), so its
/// floor only asserts the recovered draw-for-draw parity with SSA
/// (0.17x at the seed; ~1.2x with the incremental hot path), with CI
/// noise headroom.
const SSA_RATIO_FLOORS: [(&str, f64, f64); 2] = [
    ("wide_flat_cycle", 2.0, 1.0),
    ("wide_flat_cycle_crit", 0.7, 0.7),
];

/// The full-recompute replica of the gated engine: identical draws, but
/// every transition rescans all propensities instead of refreshing only
/// the rules incident to changed species. Its firings/sec vs the gated
/// engine's is what the incidence list buys (reported per model; the
/// effect grows with rule count — see the `wide_flat_cycle` case).
const FULL_RECOMPUTE_ENGINE: &str = "adaptive-0.05-fullrecompute";

/// How a measured engine is built (the full-recompute replica is not an
/// `EngineKind` — it is the adaptive engine's test oracle).
enum EngineSpec {
    Kind(EngineKind),
    AdaptiveFullRecompute { epsilon: f64 },
}

struct Measurement {
    model: &'static str,
    engine: String,
    firings: u64,
    firings_per_sec: f64,
    wall_s: f64,
    mean: f64,
    se: f64,
}

/// Runs `instances` full trajectories of `kind` to `t_end`, timing the
/// whole ensemble; returns (total firings, firings/sec, wall seconds,
/// endpoint mean, endpoint standard error).
fn measure(
    model: &Arc<Model>,
    deps: &Arc<ModelDeps>,
    spec: &EngineSpec,
    instances: u64,
    t_end: f64,
) -> (u64, f64, f64, f64, f64) {
    let mut firings = 0u64;
    let mut endpoints = Vec::with_capacity(instances as usize);
    let start = Instant::now();
    for i in 0..instances {
        match spec {
            EngineSpec::Kind(kind) => {
                let mut engine = kind
                    .build_with_deps(Arc::clone(model), Arc::clone(deps), 1, i)
                    .expect("flat benchmark models");
                firings += engine.run_until(t_end);
                endpoints.push(engine.observe()[0] as f64);
            }
            EngineSpec::AdaptiveFullRecompute { epsilon } => {
                let mut engine =
                    AdaptiveTauEngine::with_deps(Arc::clone(model), Arc::clone(deps), 1, i)
                        .expect("flat benchmark models")
                        .with_epsilon(*epsilon)
                        .with_full_recompute();
                firings += engine.run_until(t_end);
                endpoints.push(engine.observe()[0] as f64);
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let n = endpoints.len() as f64;
    let mean = endpoints.iter().sum::<f64>() / n;
    let var = endpoints.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    (firings, firings as f64 / wall, wall, mean, se)
}

fn engines_for(fixed_tau: f64) -> Vec<(String, EngineSpec)> {
    vec![
        ("ssa".into(), EngineSpec::Kind(EngineKind::Ssa)),
        (
            "fixed-tau".into(),
            EngineSpec::Kind(EngineKind::TauLeap { tau: fixed_tau }),
        ),
        (
            "adaptive-0.01".into(),
            EngineSpec::Kind(EngineKind::AdaptiveTau { epsilon: 0.01 }),
        ),
        (
            "adaptive-0.03".into(),
            EngineSpec::Kind(EngineKind::AdaptiveTau { epsilon: 0.03 }),
        ),
        (
            "adaptive-0.05".into(),
            EngineSpec::Kind(EngineKind::AdaptiveTau { epsilon: 0.05 }),
        ),
        (
            FULL_RECOMPUTE_ENGINE.into(),
            EngineSpec::AdaptiveFullRecompute { epsilon: 0.05 },
        ),
        (
            "hybrid".into(),
            EngineSpec::Kind(EngineKind::Hybrid {
                epsilon: 0.03,
                threshold: 8.0,
            }),
        ),
    ]
}

fn measure_all(quick: bool) -> Vec<Measurement> {
    let instances = if quick { 12 } else { 48 };
    // (name, model, accurate fixed τ for the stiffness of the model,
    // horizon). The fixed τ is what a user would have to pick to keep the
    // fixed-step engine accurate over the whole run — the number the
    // adaptive engine's speedup is measured against.
    let cases: Vec<(&'static str, Arc<Model>, f64, f64)> = vec![
        (
            "schlogl",
            Arc::new(schlogl(SchloglParams::default())),
            2e-4,
            6.0,
        ),
        (
            "lotka_volterra",
            Arc::new(lotka_volterra(LotkaVolterraParams::default())),
            1e-3,
            4.0,
        ),
        // The wide flat case: 300 rules at ~200 molecules per species —
        // wide enough that full-width scans dominate naive engines, and
        // populous enough that every species sits above the critical
        // threshold, so the adaptive tier actually leaps. This is the
        // regime the kernel-accelerated hot path (masked CGP μ/σ
        // accumulation, Poisson leap sweep, active-rule list) is built
        // for, and the case carries the adaptive-vs-SSA ratio floor
        // ([`SSA_RATIO_FLOORS`]).
        (
            "wide_flat_cycle",
            Arc::new(conversion_cycle(300, 60_000, 1.0)),
            1e-3,
            0.5,
        ),
        // The all-critical wide case: same 300 rules at ~5 molecules per
        // species, so every reaction is critical and the adaptive engine
        // fires them one at a time (exactly) — it cannot leap, and both
        // it and SSA bottom out on the same serial propensity-fold floor.
        // Each firing touches 2 species = 2 incident rules; the
        // full-recompute replica rescans all 300 propensities per
        // transition. This is the regime the incidence list and the
        // incremental a0 screen exist for — at the seed this case ran at
        // 0.17x SSA; the floor pins the recovered parity.
        (
            "wide_flat_cycle_crit",
            Arc::new(conversion_cycle(300, 1_500, 1.0)),
            1e-3,
            2.0,
        ),
    ];
    let mut out = Vec::new();
    for (name, model, fixed_tau, t_end) in &cases {
        let deps = Arc::new(ModelDeps::compile(model));
        for (engine, kind) in engines_for(*fixed_tau) {
            let (firings, rate, wall, mean, se) = measure(model, &deps, &kind, instances, *t_end);
            out.push(Measurement {
                model: name,
                engine,
                firings,
                firings_per_sec: rate,
                wall_s: wall,
                mean,
                se,
            });
        }
    }
    out
}

fn to_json(results: &[Measurement], quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"cwc-repro/adaptive-tau/v1\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"model\": \"{}\", \"engine\": \"{}\", \"firings\": {}, \"firings_per_sec\": {:.1}, \"wall_s\": {:.4}, \"mean\": {:.3}, \"se\": {:.3}}}{comma}\n",
            m.model, m.engine, m.firings, m.firings_per_sec, m.wall_s, m.mean, m.se
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn str_field(chunk: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = chunk.find(&tag)? + tag.len();
    let end = chunk[start..].find('"')? + start;
    Some(chunk[start..end].to_string())
}

fn num_field(chunk: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = chunk.find(&tag)? + tag.len();
    let rest = &chunk[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(model, engine) -> firings/sec` parsed from the emitted JSON.
fn parse_rates(json: &str) -> Vec<((String, String), f64)> {
    json.split('}')
        .filter_map(|chunk| {
            let m = str_field(chunk, "model")?;
            let e = str_field(chunk, "engine")?;
            let r = num_field(chunk, "firings_per_sec")?;
            Some(((m, e), r))
        })
        .collect()
}

/// Incidence-cache gain per model: the [`GATED_ENGINE`]'s firings/sec
/// over its full-recompute replica (same draws, same results — pure
/// propensity-refresh cost).
fn incidence_gains(json: &str) -> Vec<(String, f64)> {
    let rates = parse_rates(json);
    let rate_of = |model: &str, engine: &str| -> Option<f64> {
        rates
            .iter()
            .find(|((m, e), _)| m == model && e == engine)
            .map(|(_, r)| *r)
    };
    let mut models: Vec<String> = rates.iter().map(|((m, _), _)| m.clone()).collect();
    models.dedup();
    models
        .into_iter()
        .filter_map(|m| {
            let fast = rate_of(&m, GATED_ENGINE)?;
            let slow = rate_of(&m, FULL_RECOMPUTE_ENGINE)?;
            (slow > 0.0).then_some((m, fast / slow))
        })
        .collect()
}

/// Adaptive-over-fixed speedup per model.
fn speedups(json: &str) -> Vec<(String, f64)> {
    let rates = parse_rates(json);
    let rate_of = |model: &str, engine: &str| -> Option<f64> {
        rates
            .iter()
            .find(|((m, e), _)| m == model && e == engine)
            .map(|(_, r)| *r)
    };
    let mut models: Vec<String> = rates.iter().map(|((m, _), _)| m.clone()).collect();
    models.dedup();
    models
        .into_iter()
        .filter_map(|m| {
            let adaptive = rate_of(&m, GATED_ENGINE)?;
            let fixed = rate_of(&m, "fixed-tau")?;
            (fixed > 0.0).then_some((m, adaptive / fixed))
        })
        .collect()
}

/// Adaptive-over-SSA ratio per model (the [`SSA_RATIO_FLOORS`] input).
fn ssa_ratios(json: &str) -> Vec<(String, f64)> {
    let rates = parse_rates(json);
    let rate_of = |model: &str, engine: &str| -> Option<f64> {
        rates
            .iter()
            .find(|((m, e), _)| m == model && e == engine)
            .map(|(_, r)| *r)
    };
    let mut models: Vec<String> = rates.iter().map(|((m, _), _)| m.clone()).collect();
    models.dedup();
    models
        .into_iter()
        .filter_map(|m| {
            let adaptive = rate_of(&m, GATED_ENGINE)?;
            let ssa = rate_of(&m, "ssa")?;
            (ssa > 0.0).then_some((m, adaptive / ssa))
        })
        .collect()
}

/// The speed gate (vs the committed baseline) plus the absolute
/// adaptive-vs-SSA ratio floors plus the accuracy gate (internal to the
/// fresh run: every approximate mean vs the fresh SSA mean).
fn check(committed_path: &str, fresh: &[Measurement], fresh_json: &str) -> Result<(), String> {
    let committed = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("cannot read baseline {committed_path}: {e}"))?;
    let baseline = speedups(&committed);
    if baseline.is_empty() {
        return Err(format!("no speedup ratios in baseline {committed_path}"));
    }
    let current = speedups(fresh_json);
    let mut failures = Vec::new();

    // Speed: the adaptive engine must keep its committed edge over
    // fixed-step leaping.
    for (model, committed_ratio) in &baseline {
        let Some((_, now)) = current.iter().find(|(m, _)| m == model) else {
            failures.push(format!("{model}: missing from fresh run"));
            continue;
        };
        if *committed_ratio < GATE_MIN_SPEEDUP {
            println!(
                "info {model}: {GATED_ENGINE}/fixed-tau ratio {now:.2} (committed \
                 {committed_ratio:.2} < {GATE_MIN_SPEEDUP} — informational, not gated)"
            );
            continue;
        }
        let floor = committed_ratio * (1.0 - RATIO_TOLERANCE);
        if *now < floor {
            failures.push(format!(
                "{model}: {GATED_ENGINE}/fixed-tau speedup {now:.2} fell below {floor:.2} \
                 (committed {committed_ratio:.2}, tolerance {}%)",
                RATIO_TOLERANCE * 100.0
            ));
        } else {
            println!("ok {model}: speedup {now:.2} (committed {committed_ratio:.2})");
        }
    }

    // Absolute adaptive-vs-SSA ratio floors on the fresh run: the
    // kernel-accelerated hot path must keep its edge over exact SSA on
    // the wide cases, under whichever kernels this process resolved to.
    let avx2 = matches!(KernelDispatch::Auto.resolve(), Kernel::Avx2);
    let fresh_ratios = ssa_ratios(fresh_json);
    for (model, avx2_floor, scalar_floor) in SSA_RATIO_FLOORS {
        let floor = if avx2 { avx2_floor } else { scalar_floor };
        let Some((_, ratio)) = fresh_ratios.iter().find(|(m, _)| m == model) else {
            failures.push(format!("{model}: no {GATED_ENGINE}/ssa ratio in fresh run"));
            continue;
        };
        let kernels = if avx2 { "avx2" } else { "scalar" };
        if *ratio < floor {
            failures.push(format!(
                "{model}: {GATED_ENGINE}/ssa ratio {ratio:.2} below the {floor:.2} \
                 floor ({kernels} kernels)"
            ));
        } else {
            println!("ok {model}: {GATED_ENGINE}/ssa ratio {ratio:.2} >= {floor:.2} ({kernels})");
        }
    }

    // Accuracy: statistical agreement with SSA inside the fresh run (the
    // standard-error bound scales itself with the --quick ensemble size).
    for m in fresh {
        if m.engine == "ssa" {
            continue;
        }
        let Some(ssa) = fresh
            .iter()
            .find(|r| r.model == m.model && r.engine == "ssa")
        else {
            failures.push(format!("{}: no ssa reference row", m.model));
            continue;
        };
        let se = (m.se * m.se + ssa.se * ssa.se).sqrt().max(1.0);
        let diff = (m.mean - ssa.mean).abs();
        if diff > ACCURACY_SIGMA * se {
            failures.push(format!(
                "{}/{}: mean {:.2} vs ssa {:.2} — off by {:.1} se (limit {ACCURACY_SIGMA})",
                m.model,
                m.engine,
                m.mean,
                ssa.mean,
                diff / se
            ));
        } else {
            println!(
                "ok {}/{}: mean {:.2} within {:.1} se of ssa {:.2}",
                m.model,
                m.engine,
                m.mean,
                diff / se,
                ssa.mean
            );
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let quick = bench::quick_mode();
    let results = measure_all(quick);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|m| {
            vec![
                m.model.to_string(),
                m.engine.clone(),
                format!("{}", m.firings),
                format!("{:.0}", m.firings_per_sec),
                format!("{:.2}", m.mean),
                format!("{:.2}", m.se),
            ]
        })
        .collect();
    bench::print_table(
        "adaptive_tau (full trajectories to the horizon)",
        &[
            "model",
            "engine",
            "firings",
            "firings/sec",
            "endpoint mean",
            "se",
        ],
        &rows,
    );
    let json = to_json(&results, quick);
    for (model, s) in speedups(&json) {
        bench::note(&format!(
            "{model}: {GATED_ENGINE} is {s:.2}x fixed-tau (firings/sec)"
        ));
    }
    for (model, floor_avx2, floor_scalar) in SSA_RATIO_FLOORS {
        if let Some((_, r)) = ssa_ratios(&json).iter().find(|(m, _)| m == model) {
            bench::note(&format!(
                "{model}: {GATED_ENGINE} is {r:.2}x ssa (floors: {floor_avx2} avx2 / \
                 {floor_scalar} scalar)"
            ));
        }
    }
    for (model, g) in incidence_gains(&json) {
        bench::note(&format!(
            "{model}: incidence-list refresh is {g:.2}x full recompute \
             (same draws, bit-identical results)"
        ));
    }

    let out = arg_value("--out").unwrap_or_else(|| "BENCH_adaptive_tau.json".to_string());
    std::fs::write(&out, &json).expect("write bench json");
    bench::note(&format!("wrote {out}"));

    if let Some(baseline) = arg_value("--check") {
        match check(&baseline, &results, &json) {
            Ok(()) => bench::note("adaptive-tau gate: ok"),
            Err(msg) => {
                eprintln!("adaptive-tau gate FAILED:\n{msg}");
                std::process::exit(1);
            }
        }
    }
}
