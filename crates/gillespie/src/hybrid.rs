//! Hybrid exact/approximate simulation: the incremental-table direct
//! method with tau-leaping engaged when propensities stratify.
//!
//! Tau-leaping only pays off while propensities are large enough that a
//! leap fires many reactions; near-absorbing states, small populations and
//! cold starts are exact-SSA territory. This engine runs both regimes and
//! switches between them from the committed state:
//!
//! - **Exact phase** — the unmodified [`SsaEngine`] (so the incremental
//!   [`ReactionTable`](crate::table::ReactionTable) of the dependency-graph
//!   engine is reused verbatim), driven in fixed segments of
//!   [`EXACT_SEGMENT`] reactions between switch decisions.
//! - **Leap phase** — Poisson leaps over the flat species-count vector,
//!   with the leap length picked by the Cao–Gillespie–Petzold bound
//!   (`epsilon` knob, shared with [`crate::adaptive`]).
//! - **The switch.** At each decision point the engine computes the CGP
//!   leap `τ(x)` and the total propensity `a0(x)` of the committed state:
//!   when `τ·a0 ≥ threshold` — at least `threshold` expected firings per
//!   leap — the propensities have stratified enough that leaping wins, and
//!   the engine leaps; otherwise it runs the next exact segment. Decisions
//!   are pure functions of the committed state, so they consume no
//!   randomness and cannot depend on quantum boundaries.
//!
//! Like every flat-model engine, the hybrid rejects compartment models at
//! construction ([`FlatModelError`]); the exact phase alone could drive
//! them, but the leap phase's state reduction could not.
//!
//! ## Quantum-exact execution and the RNG streams
//!
//! The exact phase consumes the instance's primary RNG stream exactly
//! like a plain direct-method engine — until the first switch, a hybrid
//! trajectory is *bit-for-bit identical* to [`SsaEngine`] with the same
//! seeds (a unit test pins this). The leap phase draws from a dedicated
//! salted stream ([`crate::rng`] documents the discipline), so engaging
//! leaps never perturbs the exact stream. Pending exact events and pending
//! leaps both survive quantum boundaries, and exact segments end on
//! *reaction counts*, never on quantum horizons — so trajectories are
//! slicing-invariant like every other engine behind
//! [`Engine`](crate::engine::Engine).

use std::sync::Arc;

use cwc::model::Model;
use cwc::multiset::Multiset;

use crate::batch::kernels::{self, Kernel, KernelDispatch};
use crate::deps::ModelDeps;
use crate::flat::{poisson, CgpScratch, FlatModel, FlatModelError};
use crate::rng::{sim_rng, SimRng};
use crate::ssa::{SampleClock, SsaEngine, StepOutcome};

/// Default relative-propensity-change bound ε of the leap phase.
pub const DEFAULT_EPSILON: f64 = 0.03;

/// Default switch threshold: expected firings per candidate leap above
/// which the engine leaves the exact phase.
pub const DEFAULT_THRESHOLD: f64 = 16.0;

/// Reactions fired per exact segment between switch decisions.
pub const EXACT_SEGMENT: u64 = 64;

/// Salt mixed into the base seed for the leap phase's dedicated RNG
/// stream (see module docs).
const LEAP_STREAM_SALT: u64 = 0x4859_4252_4944_5331;

/// A Poisson leap drawn but not yet committed.
#[derive(Debug, Clone)]
struct PendingLeap {
    /// Candidate state after the leap.
    state: Vec<i64>,
    /// Absolute time at which the leap commits.
    end: f64,
    /// Firings the leap applies when committed.
    firings: u64,
}

/// Where the engine is between committed transitions.
#[derive(Debug, Clone)]
enum Phase {
    /// Next call decides exact-vs-leap from the committed state.
    Decide,
    /// Running the exact engine until its step counter reaches `until`.
    Exact {
        /// Exact-engine step count that ends the segment.
        until: u64,
    },
    /// A leap is drawn and waiting for the horizon to pass its end.
    Leap(PendingLeap),
}

/// Hybrid exact/approximate engine: incremental-table SSA segments with
/// CGP-sized Poisson leaps when propensities stratify.
#[derive(Debug, Clone)]
pub struct HybridEngine {
    /// The exact phase: a full direct-method engine (term, incremental
    /// reaction table, primary RNG stream).
    exact: SsaEngine,
    flat: FlatModel,
    /// Committed species counts — authoritative outside exact segments,
    /// refreshed from the exact engine's term at decision points.
    state: Vec<i64>,
    phase: Phase,
    /// True while `exact` reflects the committed state (stale after a
    /// leap commits, until the next exact segment resynchronises it).
    synced: bool,
    epsilon: f64,
    threshold: f64,
    /// Reported simulation clock.
    time: f64,
    /// Dedicated leap-phase RNG stream.
    leap_rng: SimRng,
    leap_firings: u64,
    leaps: u64,
    /// Phase switches committed (exact→leap and leap→exact).
    switches: u64,
    /// Reusable accumulators for the per-decision CGP bound.
    cgp_scratch: CgpScratch,
    /// This process's kernel set (see [`KernelDispatch::resolve`]),
    /// resolved once at construction; both sets are bit-for-bit identical.
    kernel: Kernel,
    /// Reusable propensity row for the leap-phase decision.
    props_buf: Vec<f64>,
    /// Rules with nonzero propensity at the decision point, ascending —
    /// the Poisson sweep iterates these instead of scanning every rule.
    active_buf: Vec<u32>,
    /// Reusable candidate-state row for leap drawing (recycled through
    /// the committed-state vector on leap commits).
    cand_buf: Vec<i64>,
}

impl HybridEngine {
    /// Builds a hybrid engine from a flat model, compiling its
    /// stoichiometry locally.
    ///
    /// # Errors
    ///
    /// Returns [`FlatModelError`] when any rule uses compartments, applies
    /// below the top level or has a non-mass-action law.
    pub fn new(model: Arc<Model>, base_seed: u64, instance: u64) -> Result<Self, FlatModelError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        Self::with_deps(model, deps, base_seed, instance)
    }

    /// Like [`HybridEngine::new`], reusing an already-compiled
    /// [`ModelDeps`] (shared with the embedded exact engine's reaction
    /// table).
    ///
    /// # Errors
    ///
    /// Returns [`FlatModelError`] when the model is not flat mass-action.
    pub fn with_deps(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Result<Self, FlatModelError> {
        let flat = FlatModel::compile(&model, &deps, "the hybrid SSA/tau engine")?;
        let state = flat.initial_state(&model);
        let exact = SsaEngine::with_deps(Arc::clone(&model), deps, base_seed, instance);
        Ok(HybridEngine {
            exact,
            flat,
            state,
            phase: Phase::Decide,
            synced: true,
            epsilon: DEFAULT_EPSILON,
            threshold: DEFAULT_THRESHOLD,
            time: 0.0,
            leap_rng: sim_rng(base_seed ^ LEAP_STREAM_SALT, instance),
            leap_firings: 0,
            leaps: 0,
            switches: 0,
            cgp_scratch: CgpScratch::default(),
            kernel: KernelDispatch::Auto.resolve(),
            props_buf: Vec::new(),
            active_buf: Vec::new(),
            cand_buf: Vec::new(),
        })
    }

    /// Sets the leap phase's CGP bound ε.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1)"
        );
        self.epsilon = epsilon;
        self
    }

    /// Sets the switch threshold (expected firings per candidate leap).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not finite and ≥ 1.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold >= 1.0,
            "threshold must be finite and >= 1"
        );
        self.threshold = threshold;
        self
    }

    /// The leap phase's CGP bound ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The switch threshold (expected firings per candidate leap).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Instance id of this trajectory.
    pub fn instance(&self) -> u64 {
        self.exact.instance()
    }

    /// The model driving this engine.
    pub fn model(&self) -> &Arc<Model> {
        self.exact.model()
    }

    /// Total reaction firings (exact steps + leap firings).
    pub fn firings(&self) -> u64 {
        self.exact.steps() + self.leap_firings
    }

    /// Reactions fired one at a time by the exact phase.
    pub fn exact_steps(&self) -> u64 {
        self.exact.steps()
    }

    /// Committed Poisson leaps.
    pub fn leaps(&self) -> u64 {
        self.leaps
    }

    /// Committed phase switches (in either direction).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The committed species counts (ascending interned species order).
    ///
    /// `synced` — not the phase — decides authority: after an exact
    /// segment ends the engine sits in `Decide` with the flat vector not
    /// yet refreshed, so the exact term stays authoritative until the
    /// next leap commits.
    pub fn counts(&self) -> Vec<i64> {
        if self.synced {
            self.flat
                .species
                .iter()
                .map(|&s| self.exact.term().atoms.count(s) as i64)
                .collect()
        } else {
            self.state.clone()
        }
    }

    /// Evaluates the model's observables on the committed state (same
    /// authority rule as [`HybridEngine::counts`]).
    pub fn observe(&self) -> Vec<u64> {
        if self.synced {
            return self.exact.observe();
        }
        self.flat.observe(self.model(), &self.state)
    }

    /// Refreshes the flat state vector from the exact engine's term.
    fn sync_state_from_exact(&mut self) {
        for (i, &s) in self.flat.species.iter().enumerate() {
            self.state[i] = self.exact.term().atoms.count(s) as i64;
        }
    }

    /// Pushes the flat state into the exact engine (leap → exact
    /// hand-off), rebuilding its reaction table.
    fn sync_exact_from_state(&mut self) {
        let atoms: Multiset = self
            .flat
            .species
            .iter()
            .zip(&self.state)
            .filter(|&(_, &c)| c > 0)
            .map(|(&s, &c)| (s, c as u64))
            .collect();
        self.exact.reset_flat_state(atoms, self.time);
        self.synced = true;
    }

    /// Draws a CGP-sized Poisson leap from the committed state, halving
    /// on negativity. Returns `None` when (after shrinking) the leap is no
    /// longer worth `threshold` firings — the caller runs an exact segment
    /// instead.
    ///
    /// The Poisson sweep walks `active` (the nonzero-propensity rules of
    /// the decision point, ascending) — the same rules, in the same
    /// order, that the historical full scan drew for, so the leap-stream
    /// consumption is unchanged draw-for-draw.
    fn draw_leap(
        &mut self,
        props: &[f64],
        active: &[u32],
        a0: f64,
        mut tau: f64,
    ) -> Option<PendingLeap> {
        loop {
            if !(tau.is_finite() && tau * a0 >= self.threshold) {
                return None;
            }
            self.cand_buf.clone_from(&self.state);
            let mut firings = 0u64;
            for &r in active {
                let r = r as usize;
                let k = poisson(&mut self.leap_rng, props[r] * tau);
                firings += k;
                for &(i, d) in &self.flat.delta[r] {
                    self.cand_buf[i] += d * k as i64;
                }
            }
            if self.cand_buf.iter().all(|&c| c >= 0) {
                return Some(PendingLeap {
                    state: std::mem::take(&mut self.cand_buf),
                    end: self.time + tau,
                    firings,
                });
            }
            tau /= 2.0;
        }
    }

    /// The switch decision: from the committed state, enter a leap or the
    /// next exact segment. Consumes leap-stream randomness only when a
    /// leap is actually drawn; never touches the primary stream.
    fn decide(&mut self) {
        if self.synced && matches!(self.phase, Phase::Decide) {
            // Coming out of an exact segment (or from construction):
            // refresh the flat view of the term.
            self.sync_state_from_exact();
        }
        self.flat
            .propensities_into(&self.state, &mut self.props_buf);
        self.active_buf.clear();
        self.active_buf.extend(
            self.props_buf
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a > 0.0)
                .map(|(r, _)| r as u32),
        );
        // Bit-identical to the historical `props.iter().sum()`: zero
        // propensities are exact additive identities on a non-negative
        // running sum, and the kernels add the positive slots in the same
        // serial order (`-0.0` start only surfaces when every rule is
        // dead, where the `> 0.0` comparisons below agree for both
        // zeros).
        let a0 = kernels::row_sum(self.kernel, &self.props_buf);
        let tau = if a0 > 0.0 {
            self.flat.cgp_tau_with(
                &mut self.cgp_scratch,
                &self.state,
                &self.props_buf,
                self.epsilon,
                |_| true,
            )
        } else {
            0.0
        };
        if a0 > 0.0 && tau.is_finite() && tau * a0 >= self.threshold {
            let props = std::mem::take(&mut self.props_buf);
            let active = std::mem::take(&mut self.active_buf);
            let drawn = self.draw_leap(&props, &active, a0, tau);
            self.props_buf = props;
            self.active_buf = active;
            if let Some(p) = drawn {
                if self.synced {
                    self.switches += 1; // exact → leap
                }
                self.synced = false;
                self.phase = Phase::Leap(p);
                return;
            }
        }
        // Exact segment (also the absorbing case: the exact engine
        // fast-forwards and keeps emitting samples).
        if !self.synced {
            self.switches += 1; // leap → exact
            self.sync_exact_from_state();
        }
        self.phase = Phase::Exact {
            until: self.exact.steps() + EXACT_SEGMENT,
        };
    }

    /// Runs until `t_end`, invoking `on_sample(t, observables)` at every
    /// grid time `clock` yields within the interval. Returns the firings
    /// committed during the call.
    ///
    /// The slicing-invariant quantum-execution path: pending exact events
    /// and pending leaps survive the horizon, and samples report the
    /// committed state in force.
    pub fn run_sampled<F>(&mut self, t_end: f64, clock: &mut SampleClock, mut on_sample: F) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        let mut fired = 0;
        loop {
            match &self.phase {
                Phase::Decide => self.decide(),
                Phase::Exact { until } => {
                    let budget = until.saturating_sub(self.exact.steps());
                    if budget == 0 {
                        self.phase = Phase::Decide;
                        continue;
                    }
                    fired += self
                        .exact
                        .run_sampled_bounded(t_end, clock, budget, &mut on_sample);
                    self.time = self.exact.time();
                    if self.exact.steps() >= *until {
                        self.phase = Phase::Decide;
                        continue;
                    }
                    // Horizon reached mid-segment (pending event held by
                    // the exact engine) or state absorbed: quantum over.
                    return fired;
                }
                Phase::Leap(p) => {
                    let t_next = p.end;
                    let horizon = t_next.min(t_end);
                    while let Some(ts) = clock.peek() {
                        if ts > horizon {
                            break;
                        }
                        let values = self.observe();
                        on_sample(ts, &values);
                        clock.advance();
                    }
                    if t_next > t_end {
                        if self.time < t_end {
                            self.time = t_end;
                        }
                        return fired;
                    }
                    let Phase::Leap(p) = std::mem::replace(&mut self.phase, Phase::Decide) else {
                        unreachable!("matched Leap above");
                    };
                    // Recycle the outgoing state row as the next draw's
                    // candidate buffer.
                    self.cand_buf = std::mem::replace(&mut self.state, p.state);
                    self.time = p.end;
                    self.leap_firings += p.firings;
                    self.leaps += 1;
                    fired += p.firings;
                }
            }
        }
    }

    /// Runs until simulation time reaches `t_end` (or the state absorbs),
    /// without sampling; returns the reactions fired.
    pub fn run_until(&mut self, t_end: f64) -> u64 {
        let mut muted = SampleClock::new(0.0, 1.0).with_limit(0);
        self.run_sampled(t_end, &mut muted, |_, _| {})
    }

    /// Executes one committed transition free-running (no horizon): one
    /// exact reaction or one leap. Returns `(dt, firings)`;
    /// `(0.0, 0)` when the state is absorbing.
    pub fn step_transition(&mut self) -> (f64, u64) {
        let t0 = self.time;
        loop {
            match &self.phase {
                Phase::Decide => self.decide(),
                Phase::Exact { until } => {
                    let until = *until;
                    if self.exact.steps() >= until {
                        self.phase = Phase::Decide;
                        continue;
                    }
                    match self.exact.step() {
                        StepOutcome::Fired { .. } => {
                            self.time = self.exact.time();
                            if self.exact.steps() >= until {
                                self.phase = Phase::Decide;
                            }
                            return (self.time - t0, 1);
                        }
                        StepOutcome::Exhausted => return (0.0, 0),
                    }
                }
                Phase::Leap(_) => {
                    let Phase::Leap(p) = std::mem::replace(&mut self.phase, Phase::Decide) else {
                        unreachable!("matched Leap above");
                    };
                    self.cand_buf = std::mem::replace(&mut self.state, p.state);
                    self.time = p.end;
                    self.leap_firings += p.firings;
                    self.leaps += 1;
                    return (self.time - t0, p.firings);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc::model::Model;

    fn decay_model(n: u64, rate: f64) -> Arc<Model> {
        let mut m = Model::new("decay");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(rate).build().unwrap();
        m.initial.add_atoms(a, n);
        m.observe("A", a);
        Arc::new(m)
    }

    fn birth_death_model(birth: f64, death: f64, n0: u64) -> Arc<Model> {
        let mut m = Model::new("bd");
        let a = m.species("A");
        m.rule("birth")
            .produces("A", 1)
            .rate(birth)
            .build()
            .unwrap();
        m.rule("death")
            .consumes("A", 1)
            .rate(death)
            .build()
            .unwrap();
        m.initial.add_atoms(a, n0);
        m.observe("A", a);
        Arc::new(m)
    }

    #[test]
    fn rejects_compartment_models_naming_rule_and_engine() {
        let mut m = Model::new("c");
        m.rule("enter")
            .matches_comp("cell", &[], &[])
            .keeps(0, &[], &[("A", 1)])
            .rate(1.0)
            .build()
            .unwrap();
        let err = HybridEngine::new(Arc::new(m), 0, 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`enter`"), "{msg}");
        assert!(msg.contains("hybrid"), "{msg}");
    }

    #[test]
    fn small_models_never_switch_and_match_plain_ssa_bit_for_bit() {
        // With 30 molecules the CGP bound never reaches the switch
        // threshold, so the hybrid *is* the direct method on the same
        // stream: identical samples, state and step count.
        let model = decay_model(30, 1.0);
        let mut hybrid = HybridEngine::new(Arc::clone(&model), 9, 4).unwrap();
        let mut plain = SsaEngine::new(model, 9, 4);
        let mut hc = SampleClock::new(0.0, 0.25);
        let mut pc = SampleClock::new(0.0, 0.25);
        let mut hs = Vec::new();
        let mut ps = Vec::new();
        // Several quanta, to cross exact-segment boundaries mid-run.
        for t in [0.7, 1.5, 3.0, 6.0] {
            hybrid.run_sampled(t, &mut hc, |t, v| hs.push((t, v.to_vec())));
            plain.run_sampled(t, &mut pc, |t, v| ps.push((t, v.to_vec())));
        }
        assert_eq!(hs, ps);
        assert_eq!(hybrid.observe(), plain.observe());
        assert_eq!(hybrid.exact_steps(), plain.steps());
        assert_eq!(hybrid.time(), plain.time());
        assert_eq!(hybrid.leaps(), 0);
        assert_eq!(hybrid.switches(), 0);
    }

    #[test]
    fn large_populations_engage_the_leap_phase() {
        let model = birth_death_model(5000.0, 1.0, 5000);
        let mut e = HybridEngine::new(model, 42, 0).unwrap();
        e.run_until(4.0);
        assert!(e.leaps() > 0, "no leap on a 5000-molecule population");
        assert!(e.switches() > 0);
        assert!(
            e.leap_firings > e.exact_steps(),
            "{} leap firings vs {} exact steps",
            e.leap_firings,
            e.exact_steps()
        );
        // Stationary mean is 5000; sd ≈ 71.
        let n = e.observe()[0] as f64;
        assert!((n - 5000.0).abs() < 8.0 * 71.0, "A = {n}");
    }

    #[test]
    fn decaying_population_switches_back_to_exact() {
        // Start huge (leap phase), decay to nothing: the engine must hand
        // the state back to the exact phase and finish the tail exactly.
        let model = decay_model(50_000, 1.0);
        let mut e = HybridEngine::new(model, 3, 0).unwrap();
        e.run_until(40.0);
        assert_eq!(e.observe(), vec![0], "population must fully decay");
        assert_eq!(e.firings(), 50_000);
        assert!(e.leaps() > 0);
        assert!(e.exact_steps() > 0, "the tail must run exactly");
        assert!(e.switches() >= 2);
        assert!(e.counts().iter().all(|&c| c >= 0));
    }

    #[test]
    fn quantum_slicing_is_bit_identical_across_phases() {
        // The horizon slices must not move the switch points, the leap
        // draws or the exact stream.
        let model = birth_death_model(3000.0, 2.0, 50);
        let mk = || {
            HybridEngine::new(Arc::clone(&model), 17, 2)
                .unwrap()
                .with_epsilon(0.05)
                .with_threshold(8.0)
        };
        let mut whole = mk();
        let mut wc = SampleClock::new(0.0, 0.25);
        let mut ws = Vec::new();
        whole.run_sampled(5.0, &mut wc, |t, v| ws.push((t, v.to_vec())));
        assert!(whole.leaps() > 0, "test must cross into the leap phase");
        assert!(whole.exact_steps() > 0, "test must include exact segments");

        let mut sliced = mk();
        let mut sc = SampleClock::new(0.0, 0.25);
        let mut ss = Vec::new();
        for t in [0.05, 0.21, 0.6, 1.0, 1.31, 2.5, 3.99, 5.0] {
            sliced.run_sampled(t, &mut sc, |t, v| ss.push((t, v.to_vec())));
        }
        assert_eq!(ws, ss);
        assert_eq!(whole.counts(), sliced.counts());
        assert_eq!(whole.firings(), sliced.firings());
        assert_eq!(whole.leaps(), sliced.leaps());
        assert_eq!(whole.switches(), sliced.switches());
        assert_eq!(whole.time(), sliced.time());
    }

    #[test]
    fn absorbing_state_fast_forwards() {
        let model = decay_model(0, 1.0);
        let mut e = HybridEngine::new(model, 7, 0).unwrap();
        let mut clock = SampleClock::new(0.0, 1.0);
        let mut samples = Vec::new();
        e.run_sampled(3.0, &mut clock, |t, v| samples.push((t, v[0])));
        assert_eq!(e.time(), 3.0);
        assert_eq!(samples, vec![(0.0, 0), (1.0, 0), (2.0, 0), (3.0, 0)]);
        assert_eq!(e.step_transition(), (0.0, 0));
    }

    #[test]
    fn observe_is_fresh_at_exact_segment_boundaries() {
        // Regression: after exactly EXACT_SEGMENT exact firings the engine
        // sits in the decide state with the flat vector not yet refreshed;
        // observe()/counts() must read the exact term, not the stale
        // segment-start snapshot.
        let model = decay_model(200, 1.0);
        let mut e = HybridEngine::new(Arc::clone(&model), 5, 0).unwrap();
        let mut reference = SsaEngine::new(model, 5, 0);
        for _ in 0..EXACT_SEGMENT {
            e.step_transition();
            reference.step();
        }
        assert_eq!(e.exact_steps(), EXACT_SEGMENT);
        assert_eq!(e.observe(), reference.observe());
        assert_eq!(e.observe(), vec![200 - EXACT_SEGMENT]);
        assert_eq!(e.counts(), vec![(200 - EXACT_SEGMENT) as i64]);
    }

    #[test]
    fn step_transition_advances_through_both_phases() {
        let model = birth_death_model(5000.0, 1.0, 5000);
        let mut e = HybridEngine::new(model, 1, 0).unwrap();
        let mut events = 0;
        for _ in 0..200 {
            let (dt, fired) = e.step_transition();
            assert!(dt > 0.0);
            events += fired;
        }
        assert_eq!(events, e.firings());
        assert!(e.leaps() > 0);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let model = decay_model(1, 1.0);
        let _ = HybridEngine::new(model, 1, 0).unwrap().with_threshold(0.0);
    }
}
