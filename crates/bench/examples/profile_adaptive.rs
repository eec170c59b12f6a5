//! Dev-only profiling loop for the adaptive tier's hot path: 4M firings
//! of the 300-species wide flat conversion cycle (the pure-critical
//! regime the `adaptive_tau` bench gates), auto-dispatched kernels,
//! sampling disabled. Optional args: species count (default 300) and
//! total copies (default 1500 — raise to ~200 per species to profile
//! the leap regime instead). Point `perf`/`gprofng` (or a stopwatch)
//! at it when optimising the incremental draw; it prints the firing
//! count so the loop cannot be optimised away.
//!
//! It also prints the resolved kernel set and firings per wall-second, so
//! comparing the AVX2 row kernels with the scalar reference is the same
//! command run twice, once with `CWC_FORCE_SCALAR_KERNELS=1`.
use std::sync::Arc;
use std::time::Instant;

use biomodels::simple::conversion_cycle;
use gillespie::adaptive::AdaptiveTauEngine;
use gillespie::deps::ModelDeps;
use gillespie::KernelDispatch;

fn main() {
    let species: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let copies: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_500);
    let target: u64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4_000_000);
    // With a 4th argument, mirror the `adaptive_tau` bench instead: run
    // fresh instances to that horizon (the early, near-critical regime
    // the CI ratio floor gates) until the firing target is reached.
    let horizon: Option<f64> = std::env::args().nth(4).and_then(|s| s.parse().ok());
    let model = Arc::new(conversion_cycle(species, copies, 1.0));
    let (mut firings, mut leaps, mut exact) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    match horizon {
        Some(t_end) => {
            // One deps compilation shared across instances, like the bench.
            let deps = Arc::new(ModelDeps::compile(&model));
            let mut instance = 0u64;
            while firings < target {
                let mut engine = AdaptiveTauEngine::with_deps(
                    Arc::clone(&model),
                    Arc::clone(&deps),
                    1,
                    instance,
                )
                .expect("flat")
                .with_epsilon(0.05);
                firings += engine.run_until(t_end);
                leaps += engine.leaps();
                exact += engine.exact_steps();
                instance += 1;
            }
        }
        None => {
            let mut engine = AdaptiveTauEngine::new(model, 1, 0)
                .expect("flat")
                .with_epsilon(0.05);
            let mut t = 0.0;
            while engine.firings() < target {
                t += 0.05;
                engine.run_until(t);
            }
            firings = engine.firings();
            leaps = engine.leaps();
            exact = engine.exact_steps();
        }
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{firings} firings in {leaps} leaps + {exact} exact steps; kernel {:?}, \
         {wall:.3} s, {:.0} firings/s",
        KernelDispatch::Auto.resolve(),
        firings as f64 / wall
    );
}
