//! Approximate fixed-step tau-leaping for flat (compartment-free) models.
//!
//! **Extension beyond the paper.** The paper's simulator uses the exact
//! Gillespie algorithm only; StochKit (its related work) ships tau-leaping
//! as an alternative integrator, so this crate provides one too for flat
//! models — rules that neither match nor rewrite compartments — where the
//! state reduces to a species-count vector and Poisson leaping is sound
//! (the reduction lives in [`crate::flat`], shared with the adaptive and
//! hybrid engines).
//!
//! The implementation is the basic non-negative Poisson leap: each leap of
//! length τ fires each reaction `k_r ~ Poisson(a_r τ)` times; if any
//! species would go negative the leap is halved and retried (down to a
//! floor, below which we fall back to exact stepping semantics by taking a
//! tiny leap). For the *adaptive* step-size selection that picks τ from
//! the state instead of a fixed knob, see [`crate::adaptive`].
//!
//! ## Quantum-exact execution
//!
//! The quantum-execution API ([`run_sampled`](TauLeapEngine::run_sampled),
//! used by [`crate::engine::Engine`]) keeps the engine slicing-invariant:
//! leap lengths depend only on the committed state and the RNG stream —
//! never on where a scheduling quantum ends — and a leap whose end lies
//! beyond the quantum horizon is drawn once, held *pending*, and committed
//! in a later quantum instead of being re-drawn or truncated. Samples
//! inside a leap interval report the committed state in force, matching
//! the exact engines' alignment convention, so rescheduling cannot change
//! a trajectory (the farm's correctness contract).

use std::sync::Arc;

use cwc::model::Model;
use cwc::species::Species;

use crate::batch::kernels::{self, Kernel, KernelDispatch};
use crate::deps::ModelDeps;
use crate::flat::{poisson, FlatModel, FlatModelError};
use crate::rng::{sim_rng, SimRng};
use crate::ssa::SampleClock;

/// Error constructing a [`TauLeapEngine`] — the shared flat-model
/// rejection type (see [`FlatModelError`]).
pub type TauLeapError = FlatModelError;

/// Default native leap length, used when none is configured via
/// [`TauLeapEngine::with_tau`] (the `EngineKind::TauLeap` knob always sets
/// one explicitly).
pub const DEFAULT_TAU: f64 = 0.1;

/// A drawn-but-not-yet-committed leap (see module docs).
#[derive(Debug, Clone)]
struct PendingLeap {
    /// Candidate state after the leap.
    state: Vec<i64>,
    /// Absolute time at which the leap commits.
    end: f64,
    /// Firings the leap applies when committed.
    firings: u64,
}

/// Flat-model approximate simulator using fixed-step Poisson tau-leaping.
#[derive(Debug, Clone)]
pub struct TauLeapEngine {
    model: Arc<Model>,
    /// Compiled flat reduction: species index space, reactants, net
    /// stoichiometry, rates.
    flat: FlatModel,
    /// `state[i]` = copies of `flat.species[i]` (the last *committed*
    /// state).
    state: Vec<i64>,
    /// Time of the last committed leap boundary.
    committed: f64,
    /// Reported simulation clock (advances to quantum horizons; always
    /// ≥ `committed`).
    time: f64,
    /// Native leap length for the quantum-execution API.
    tau: f64,
    /// Leap drawn past a quantum horizon, held until the horizon passes
    /// its end (see module docs).
    pending: Option<PendingLeap>,
    rng: SimRng,
    instance: u64,
    leaps: u64,
    firings: u64,
    /// This process's kernel set (see [`KernelDispatch::resolve`]),
    /// resolved once at construction; both sets are bit-for-bit identical.
    kernel: Kernel,
    /// Reusable propensity row for leap drawing.
    props_buf: Vec<f64>,
    /// Rules with nonzero propensity at the leap start, ascending — the
    /// Poisson sweep iterates these instead of scanning every rule.
    active_buf: Vec<u32>,
    /// Reusable candidate-state row (recycled through the committed
    /// state on leap commits).
    cand_buf: Vec<i64>,
}

impl TauLeapEngine {
    /// Builds a leaping engine from a flat model, compiling its
    /// stoichiometry locally.
    ///
    /// # Errors
    ///
    /// Returns [`TauLeapError`] when any rule uses compartments or applies
    /// below the top level.
    pub fn new(model: Arc<Model>, base_seed: u64, instance: u64) -> Result<Self, TauLeapError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        Self::with_deps(model, deps, base_seed, instance)
    }

    /// Like [`TauLeapEngine::new`], reusing an already-compiled
    /// [`ModelDeps`]: the per-rule net species deltas of the compilation
    /// pass *are* the stoichiometry vectors Poisson leaping needs.
    ///
    /// # Errors
    ///
    /// Returns [`TauLeapError`] when any rule uses compartments or applies
    /// below the top level.
    pub fn with_deps(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Result<Self, TauLeapError> {
        let flat = FlatModel::compile(&model, &deps, "tau-leaping")?;
        let state = flat.initial_state(&model);
        Ok(TauLeapEngine {
            model,
            flat,
            state,
            committed: 0.0,
            time: 0.0,
            tau: DEFAULT_TAU,
            pending: None,
            rng: sim_rng(base_seed, instance),
            instance,
            leaps: 0,
            firings: 0,
            kernel: KernelDispatch::Auto.resolve(),
            props_buf: Vec::new(),
            active_buf: Vec::new(),
            cand_buf: Vec::new(),
        })
    }

    /// Sets the native leap length used by the quantum-execution API.
    ///
    /// # Panics
    ///
    /// Panics if `tau` is not finite and positive.
    pub fn with_tau(mut self, tau: f64) -> Self {
        assert!(
            tau.is_finite() && tau > 0.0,
            "leap length must be positive and finite"
        );
        self.tau = tau;
        self
    }

    /// The native leap length.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Instance id of this trajectory.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// The model driving this engine.
    pub fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// Total leaps taken.
    pub fn leaps(&self) -> u64 {
        self.leaps
    }

    /// Total reaction firings applied (across all committed leaps).
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// Current copy number of `species`.
    pub fn count(&self, species: Species) -> u64 {
        self.flat.count(&self.state, species)
    }

    /// The committed per-species state vector, ordered like the model's
    /// interned species. Exposed so invariant tests (e.g. non-negativity)
    /// can inspect the raw counts.
    pub fn counts(&self) -> &[i64] {
        &self.state
    }

    /// Evaluates the model's observables (top-level counts only, which is
    /// exact for flat models).
    pub fn observe(&self) -> Vec<u64> {
        self.flat.observe(&self.model, &self.state)
    }

    /// Draws one leap of at most `tau` from the committed state (halving
    /// on negativity), without committing it. Returns `None` when the
    /// state is absorbing.
    fn draw_leap(&mut self, tau: f64) -> Option<PendingLeap> {
        self.flat
            .propensities_into(&self.state, &mut self.props_buf);
        // Bit-identical to the historical `props.iter().sum()`: zero
        // propensities are exact additive identities on a non-negative
        // running sum (the kernels' `-0.0` start only surfaces in the
        // absorbing case, where the `<= 0.0` test below agrees for both
        // zeros).
        let a0 = kernels::row_sum(self.kernel, &self.props_buf);
        if a0 <= 0.0 {
            return None;
        }
        // The Poisson sweep walks the nonzero-propensity rules
        // (ascending) — the same rules, in the same order, the
        // historical full scan drew for, so RNG consumption is unchanged.
        self.active_buf.clear();
        self.active_buf.extend(
            self.props_buf
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a > 0.0)
                .map(|(r, _)| r as u32),
        );
        let mut tau = tau;
        let floor = tau / 1024.0;
        loop {
            self.cand_buf.clone_from(&self.state);
            let mut firings = 0u64;
            for &r in &self.active_buf {
                let r = r as usize;
                let k = poisson(&mut self.rng, self.props_buf[r] * tau);
                firings += k;
                for &(i, d) in &self.flat.delta[r] {
                    self.cand_buf[i] += d * k as i64;
                }
            }
            if self.cand_buf.iter().all(|&c| c >= 0) {
                return Some(PendingLeap {
                    state: std::mem::take(&mut self.cand_buf),
                    end: self.committed + tau,
                    firings,
                });
            }
            tau /= 2.0;
            if tau < floor {
                // Take a deterministic micro-step: apply nothing, advance
                // time by the floor to guarantee progress.
                return Some(PendingLeap {
                    state: self.state.clone(),
                    end: self.committed + floor,
                    firings: 0,
                });
            }
        }
    }

    /// Applies the pending leap, returning its firings.
    fn commit_pending(&mut self) -> u64 {
        let p = self.pending.take().expect("pending leap to commit");
        // Recycle the outgoing state row as the next draw's candidate
        // buffer.
        self.cand_buf = std::mem::replace(&mut self.state, p.state);
        self.committed = p.end;
        if self.time < p.end {
            self.time = p.end;
        }
        self.leaps += 1;
        self.firings += p.firings;
        p.firings
    }

    /// Advances by one leap of at most `tau`, shrinking on negativity.
    ///
    /// Returns the leap actually taken (0.0 when the state is absorbing).
    /// Commits any leap held pending by the quantum-execution API first.
    pub fn leap(&mut self, tau: f64) -> f64 {
        if self.pending.is_some() {
            self.commit_pending();
        }
        match self.draw_leap(tau) {
            None => 0.0,
            Some(p) => {
                let taken = p.end - self.committed;
                self.pending = Some(p);
                self.commit_pending();
                taken
            }
        }
    }

    /// Runs leaps of size `tau` until `t_end`.
    pub fn run_until(&mut self, t_end: f64, tau: f64) {
        while self.time < t_end {
            let remaining = t_end - self.time;
            let step = tau.min(remaining);
            if self.leap(step) == 0.0 {
                self.time = t_end;
            }
        }
    }

    /// Runs until `t_end` on the native leap grid, invoking
    /// `on_sample(t, observables)` at every grid time `clock` yields
    /// within the interval. Returns the firings *committed* during the
    /// call.
    ///
    /// This is the slicing-invariant quantum-execution path (see module
    /// docs): leaps never truncate at `t_end`; one drawn past the horizon
    /// stays pending for a later call.
    pub fn run_sampled<F>(&mut self, t_end: f64, clock: &mut SampleClock, mut on_sample: F) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        let mut fired = 0;
        loop {
            if self.pending.is_none() {
                self.pending = self.draw_leap(self.tau);
            }
            let t_next = self
                .pending
                .as_ref()
                .map(|p| p.end)
                .unwrap_or(f64::INFINITY);
            // Emit all samples that fall before the next commit and within
            // the quantum; they report the committed state in force.
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
            fired += self.commit_pending();
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
    fn rejects_compartment_models() {
        let mut m = Model::new("c");
        m.rule("r")
            .matches_comp("cell", &[], &[])
            .keeps(0, &[], &[("A", 1)])
            .rate(1.0)
            .build()
            .unwrap();
        let err = TauLeapEngine::new(Arc::new(m), 0, 0).unwrap_err();
        assert!(matches!(err, TauLeapError::NotFlat { .. }));
        assert!(err.to_string().contains("tau-leaping"));
        assert!(err.to_string().contains("`r`"));
    }

    #[test]
    fn rejects_nested_site_rules() {
        let mut m = Model::new("c");
        m.rule("r")
            .at("cell")
            .consumes("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let err = TauLeapEngine::new(Arc::new(m), 0, 0).unwrap_err();
        assert!(matches!(err, TauLeapError::NotTopLevel { .. }));
    }

    #[test]
    fn decay_mean_matches_exponential() {
        let model = decay_model(10_000, 1.0);
        let mut e = TauLeapEngine::new(model, 42, 0).unwrap();
        e.run_until(1.0, 0.01);
        let remaining = e.observe()[0] as f64;
        let expected = 10_000.0 * (-1.0f64).exp(); // ≈ 3679
        assert!(
            (remaining - expected).abs() < 0.05 * expected,
            "remaining {remaining}, expected ≈ {expected}"
        );
        assert!(e.leaps() >= 100);
        assert!(e.firings() > 5_000);
    }

    #[test]
    fn state_never_goes_negative() {
        // Aggressive τ on a small population forces the shrink path.
        let model = decay_model(5, 10.0);
        let mut e = TauLeapEngine::new(model, 7, 0).unwrap();
        e.run_until(2.0, 0.5);
        let a = e.observe()[0];
        assert!(a <= 5);
        assert!(e.counts().iter().all(|&c| c >= 0));
    }

    #[test]
    fn absorbing_state_terminates() {
        let model = decay_model(0, 1.0);
        let mut e = TauLeapEngine::new(model, 7, 0).unwrap();
        e.run_until(3.0, 0.1);
        assert_eq!(e.time(), 3.0);
    }

    #[test]
    fn quantum_slicing_is_bit_identical() {
        // The same leap schedule whether advanced in one quantum or many:
        // pending leaps survive rescheduling instead of being re-drawn.
        let model = birth_death_model(40.0, 1.0, 10);
        let mut whole = TauLeapEngine::new(Arc::clone(&model), 5, 3)
            .unwrap()
            .with_tau(0.07);
        let mut wc = SampleClock::new(0.0, 0.25);
        let mut ws = Vec::new();
        whole.run_sampled(6.0, &mut wc, |t, v| ws.push((t, v.to_vec())));

        let mut sliced = TauLeapEngine::new(model, 5, 3).unwrap().with_tau(0.07);
        let mut sc = SampleClock::new(0.0, 0.25);
        let mut ss = Vec::new();
        // Irregular quanta covering the same horizon.
        for t in [0.1, 0.33, 1.0, 1.01, 2.5, 4.99, 6.0] {
            sliced.run_sampled(t, &mut sc, |t, v| ss.push((t, v.to_vec())));
        }
        assert_eq!(ws, ss);
        assert_eq!(whole.counts(), sliced.counts());
        assert_eq!(whole.firings(), sliced.firings());
        assert_eq!(whole.leaps(), sliced.leaps());
        assert_eq!(whole.time(), sliced.time());
    }

    #[test]
    fn samples_report_committed_state_in_force() {
        // With τ = 10 (far beyond the horizon) on a pure-birth model (no
        // negativity halving), the first leap spans the whole quantum and
        // never commits, so every sample must report the initial state.
        let model = birth_death_model(5.0, 0.0, 50);
        let mut e = TauLeapEngine::new(model, 1, 0).unwrap().with_tau(10.0);
        let mut clock = SampleClock::new(0.0, 0.5);
        let mut samples = Vec::new();
        e.run_sampled(2.0, &mut clock, |t, v| samples.push((t, v[0])));
        assert_eq!(samples.len(), 5); // grid 0, 0.5, ..., 2.0
        assert!(samples.iter().all(|&(_, a)| a == 50));
        assert_eq!(e.time(), 2.0);
        assert_eq!(e.firings(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_tau_panics() {
        let model = decay_model(1, 1.0);
        let _ = TauLeapEngine::new(model, 1, 0).unwrap().with_tau(0.0);
    }
}
