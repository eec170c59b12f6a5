//! The batched SoA engine tier: many replicas of one flat model in
//! lockstep.
//!
//! [`BatchedSsaEngine`] advances a *batch* of direct-method trajectories
//! of a single flat mass-action model together, over structure-of-arrays
//! state: `counts[species][replica]`, propensities and their running
//! prefix sums laid out replica-contiguous so the per-round propensity
//! refresh streams through memory row by row (StochKit-FF's ensemble
//! batching, StochSoCs' parallel propensity units — see PAPERS.md). The
//! batch is the stepping stone towards a real `simt` CUDA kernel: the
//! memory layout *is* the coalesced device layout.
//!
//! ## Bit-for-bit scalar equivalence
//!
//! Replica `r` of a batch with first instance `f` is **bit-for-bit
//! identical** to the scalar [`SsaEngine`](crate::ssa::SsaEngine) instance
//! `f + r`: same RNG stream ([`sim_rng`](crate::rng::sim_rng) with the
//! same per-instance seed derivation), same draw discipline (documented in
//! [`crate::rng`]), and the same floating-point operations in the same
//! order:
//!
//! - propensities are exact `u64` binomial products (the tree-matcher's
//!   `selection_count` replayed on dense counts) with a single final
//!   `as f64` cast and the same positive clamp;
//! - `a0` is the prefix-sum fold of the *enabled* propensities in rule
//!   order, starting from the additive identity `-0.0` — exactly the
//!   filtered `Iterator::sum` of the scalar reaction table, so an
//!   exhausted replica reports the same `-0.0` total;
//! - selection binary-searches the prefix column for the first slot whose
//!   cumulative propensity exceeds the selection uniform. Because `-0.0 +
//!   p` and `0.0 + p` are bitwise equal for every enabled `p > 0`, one
//!   prefix array serves both the `a0` fold (identity `-0.0`) and the
//!   selection scan (identity `0.0`) without a bit of divergence, and
//!   because the prefix only increases at enabled slots, the crossing
//!   index found by the search is the exact entry the scalar linear scan
//!   returns (last-enabled fallback on floating-point shortfall included);
//! - single-channel states select deterministically and consume **no**
//!   selection uniform, and every firing consumes one assignment uniform
//!   (drawn and discarded — flat rules have a trivial assignment, but the
//!   scalar engine consumes the draw, so the batch must too).
//!
//! The quantum loop is the scalar `run_sampled` loop run round-robin: each
//! round refreshes the propensity matrix for every replica that fired
//! (phase 1 — incremental: only the slots whose reactants read a species
//! the firing changed are recomputed, via a precomputed slot-incidence
//! table, before an adds-only prefix rebuild) and then advances every live
//! replica by one waiting-time/sample/fire iteration (phase 2). Replica
//! streams never interleave — each replica owns its RNG — so the lockstep
//! schedule cannot perturb a trajectory.
//!
//! The hot loops themselves — the slot recompute, the prefix fold, the
//! direct-method selection and the lockstep RNG stepping — live in the
//! [`kernels`] layer, which dispatches at runtime between a portable
//! scalar reference and x86_64 AVX2 four-lane kernels
//! ([`KernelDispatch`]); the two are bit-for-bit identical, so the knob
//! only changes how fast a batch runs, never what it computes.

pub mod kernels;

use std::sync::Arc;

use cwc::model::{Model, ObservableSite};

use crate::deps::ModelDeps;
use crate::engine::{BatchEngine, EngineError, QuantumOutcome};
use crate::flat::{FlatModel, FlatModelError};
use crate::ssa::SampleClock;

use kernels::{BatchRng, Kernel, KernelDispatch, RefreshOut, SlotPlan, SlotSet, SlotView};
use kernels::{CLEAN, DIRTY_ALL};

/// The engine name used in flat-model rejection messages.
pub const BATCHED_ENGINE_NAME: &str = "the batched SSA engine";

/// One observable of the batch: the dynamic top-level species slot (if
/// any) plus the constant contribution of inert initial-term compartments.
///
/// Flat rules only rewrite top-level atoms, so any compartment in the
/// initial term is inert and its contribution to an observable is a
/// constant — adding it back reproduces the scalar engine's
/// `eval_observables` on the full term exactly.
#[derive(Debug, Clone, Copy)]
struct ObsSpec {
    /// Species index into the state vector, `None` when the observable
    /// never reads top-level counts (`AtLabel` sites).
    state_index: Option<usize>,
    /// Constant contribution of the initial term's compartments.
    offset: u64,
}

/// A batch of direct-method replicas of one flat mass-action model,
/// advancing in lockstep over SoA state (see module docs).
///
/// # Examples
///
/// ```
/// use cwc::model::Model;
/// use gillespie::batch::BatchedSsaEngine;
/// use gillespie::engine::BatchEngine;
/// use gillespie::ssa::SampleClock;
/// use std::sync::Arc;
///
/// let mut m = Model::new("decay");
/// let a = m.species("A");
/// m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
/// m.initial.add_atoms(a, 20);
/// m.observe("A", a);
///
/// let mut batch = BatchedSsaEngine::new(Arc::new(m), 42, 0, 4).unwrap();
/// let mut clocks: Vec<SampleClock> =
///     (0..4).map(|_| SampleClock::new(0.0, 0.5)).collect();
/// let outcomes = batch.advance_quantum_batch(2.0, &mut clocks);
/// assert_eq!(outcomes.len(), 4);
/// assert_eq!(batch.time(), 2.0); // lockstep: every replica at the horizon
/// ```
#[derive(Debug, Clone)]
pub struct BatchedSsaEngine {
    model: Arc<Model>,
    width: usize,
    first_instance: u64,
    /// CSR offsets into `slot_delta`: slot `j`'s net stoichiometry lives
    /// at `slot_delta[slot_delta_idx[j]..slot_delta_idx[j + 1]]`. The
    /// flat layout keeps the fire loop free of per-rule pointer chasing.
    slot_delta_idx: Vec<u32>,
    /// Flattened per-slot net stoichiometric changes `(species, delta)`.
    slot_delta: Vec<(u32, i64)>,
    /// Per-slot reactant multiplicities `(species index, count)`.
    slot_reactants: Vec<Vec<(usize, u64)>>,
    /// Per-slot mass-action rate constants.
    slot_rates: Vec<f64>,
    /// Per-slot vectorization plans (see [`kernels`]).
    plans: Vec<SlotPlan>,
    /// Observable evaluation plan (see [`ObsSpec`]).
    observables: Vec<ObsSpec>,
    /// SoA state: `counts[sp * width + r]` is species `sp` of replica `r`.
    counts: Vec<i64>,
    /// SoA propensities: `props[j * width + r]` is reaction slot `j`.
    props: Vec<f64>,
    /// SoA running prefix sums of the enabled propensities, per replica
    /// folded from `-0.0` in slot order; `prefix[(nr-1) * width + r]` is
    /// the replica's `a0`.
    prefix: Vec<f64>,
    /// Per-replica total propensity (`-0.0` when exhausted, like the
    /// scalar table's filtered sum).
    a0: Vec<f64>,
    /// Per-replica count of enabled reaction slots.
    active: Vec<u32>,
    /// Per-replica first enabled slot (`u32::MAX` when none).
    first_active: Vec<u32>,
    /// Per-replica simulation time. All equal at quantum boundaries.
    times: Vec<f64>,
    /// Per-replica drawn-but-unfired event time (quantum exactness),
    /// `NAN` when no draw is outstanding — event times are sums and
    /// quotients of finite positives, so they are never `NaN` and the
    /// sentinel is unambiguous (an overflowed `+inf` event parks the
    /// replica forever, exactly like the scalar engine).
    pending: Vec<f64>,
    /// Per-replica RNG streams in SoA form: lane `r` is exactly the
    /// scalar stream of instance `first_instance + r`, stepped in
    /// lockstep by the RNG kernel.
    rng: BatchRng,
    /// Per-replica reactions fired so far.
    steps: Vec<u64>,
    /// Per-slot incidence list: the slots whose propensity reads a species
    /// that firing this slot changes — the only propensities a firing can
    /// move, so the refresh recomputes just those (the batch-local
    /// analogue of the scalar table's dependency-graph update).
    affects: Vec<Vec<u32>>,
    /// Per-replica refresh obligation: [`CLEAN`], [`DIRTY_ALL`] (recompute
    /// every slot — the initial state), or the slot that fired since the
    /// last refresh (recompute only its incidence list).
    dirty: Vec<u32>,
    /// The kernel set this batch runs on (see [`KernelDispatch::resolve`]).
    kernel: Kernel,
    /// Scratch slot-union set for the chunked incidence refresh.
    seen: SlotSet,
    /// Round scratch: per-replica draw mask of the current batched draw.
    draw_mask: Vec<bool>,
    /// Round scratch: per-replica firing decision of the current round.
    fire_mask: Vec<bool>,
    /// Round scratch: raw lane words of the current batched draw.
    raws: Vec<u64>,
    /// Round scratch: raw lane words of the round's assignment draws
    /// (drawn fused with the selection draws, then discarded — see
    /// [`advance_quantum_batch`](BatchEngine::advance_quantum_batch)).
    raws_assign: Vec<u64>,
    /// Round scratch: per-replica selection targets of the current round.
    targets: Vec<f64>,
    /// Round scratch: per-replica selected slots of the current round.
    chosen: Vec<u32>,
}

impl BatchedSsaEngine {
    /// Creates a batch of `width` replicas covering scalar instances
    /// `first_instance .. first_instance + width`, compiling the model's
    /// dependency graph locally. Farms compile once and share it via
    /// [`BatchedSsaEngine::with_deps`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::FlatModel`] when the model is not flat,
    /// top-level, mass-action — the error names the offending rule.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero (validated earlier by
    /// [`EngineKind::validate`](crate::engine::EngineKind::validate)).
    pub fn new(
        model: Arc<Model>,
        base_seed: u64,
        first_instance: u64,
        width: usize,
    ) -> Result<Self, EngineError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        Self::with_deps(model, deps, base_seed, first_instance, width)
    }

    /// Like [`BatchedSsaEngine::new`], reusing an already-compiled
    /// dependency graph.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::FlatModel`] when the model is not flat,
    /// top-level, mass-action.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_deps(
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        first_instance: u64,
        width: usize,
    ) -> Result<Self, EngineError> {
        assert!(width >= 1, "a batch needs at least one replica");
        let flat = FlatModel::compile(&model, &deps, BATCHED_ENGINE_NAME)?;
        let reactions: Vec<usize> = (0..flat.rules())
            .filter(|&r| flat.rates[r] != 0.0)
            .collect();
        let initial = flat.initial_state(&model);
        let species_count = flat.species.len();
        let mut counts = vec![0i64; species_count * width];
        for (sp, &n) in initial.iter().enumerate() {
            counts[sp * width..(sp + 1) * width].fill(n);
        }
        let observables = model
            .observables
            .iter()
            .map(|o| {
                let state_index = match o.site {
                    ObservableSite::AtLabel(_) => None,
                    _ => flat.species.iter().position(|&s| s == o.species),
                };
                let dynamic = state_index.map(|i| initial[i] as u64).unwrap_or(0);
                ObsSpec {
                    state_index,
                    offset: o.eval(&model.initial) - dynamic,
                }
            })
            .collect();
        let nr = reactions.len();
        // Slot-to-slot firing incidence: firing slot `s` can only move the
        // propensity of slots whose reactants read a species `s`'s delta
        // actually changes. Quadratic in the (small) reaction count, built
        // once per batch.
        let affects: Vec<Vec<u32>> = reactions
            .iter()
            .map(|&rule| {
                reactions
                    .iter()
                    .enumerate()
                    .filter(|&(_, &other)| {
                        flat.reactants[other].iter().any(|&(sp, _)| {
                            flat.delta[rule].iter().any(|&(dsp, d)| dsp == sp && d != 0)
                        })
                    })
                    .map(|(j, _)| j as u32)
                    .collect()
            })
            .collect();
        let slot_reactants: Vec<Vec<(usize, u64)>> = reactions
            .iter()
            .map(|&rule| flat.reactants[rule].to_vec())
            .collect();
        let slot_rates: Vec<f64> = reactions.iter().map(|&rule| flat.rates[rule]).collect();
        let mut slot_delta_idx = Vec::with_capacity(nr + 1);
        let mut slot_delta = Vec::new();
        slot_delta_idx.push(0u32);
        for &rule in &reactions {
            slot_delta.extend(flat.delta[rule].iter().map(|&(sp, d)| (sp as u32, d)));
            slot_delta_idx.push(slot_delta.len() as u32);
        }
        let plans: Vec<SlotPlan> = slot_reactants.iter().map(|rs| SlotPlan::of(rs)).collect();
        Ok(BatchedSsaEngine {
            model,
            width,
            first_instance,
            slot_delta_idx,
            slot_delta,
            slot_reactants,
            slot_rates,
            plans,
            observables,
            counts,
            props: vec![0.0; nr * width],
            prefix: vec![0.0; nr * width],
            a0: vec![-0.0; width],
            active: vec![0; width],
            first_active: vec![u32::MAX; width],
            times: vec![0.0; width],
            pending: vec![f64::NAN; width],
            rng: BatchRng::new(base_seed, first_instance, width),
            steps: vec![0; width],
            affects,
            dirty: vec![DIRTY_ALL; width],
            kernel: KernelDispatch::Auto.resolve(),
            seen: SlotSet::new(nr),
            draw_mask: vec![false; width],
            fire_mask: vec![false; width],
            raws: vec![0; width],
            raws_assign: vec![0; width],
            targets: vec![0.0; width],
            chosen: vec![0; width],
        })
    }

    /// Sets the kernel selection knob, re-resolving it against the CPU
    /// (builder-style; the default is [`KernelDispatch::Auto`]). Both
    /// kernel sets are bit-for-bit identical, so this may be changed at
    /// any point without perturbing the trajectory.
    #[must_use]
    pub fn with_kernel_dispatch(mut self, dispatch: KernelDispatch) -> Self {
        self.kernel = dispatch.resolve();
        self
    }

    /// Checks that `model` can drive a batch at all (flat, top-level,
    /// mass-action), without building one — the engine-contract layer
    /// rejects bad models at run start through this.
    ///
    /// # Errors
    ///
    /// Returns [`FlatModelError`] naming the offending rule.
    pub fn check_model(model: &Model, deps: &ModelDeps) -> Result<(), FlatModelError> {
        FlatModel::compile(model, deps, BATCHED_ENGINE_NAME).map(|_| ())
    }

    /// The model driving this batch.
    pub fn model(&self) -> &Arc<Model> {
        &self.model
    }

    /// Number of replicas in the batch.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Scalar instance id of the batch's first replica.
    pub fn first_instance(&self) -> u64 {
        self.first_instance
    }

    /// Scalar instance id of replica `r`.
    pub fn instance(&self, r: usize) -> u64 {
        self.first_instance + r as u64
    }

    /// Lockstep simulation time of the batch (every replica agrees at
    /// quantum boundaries).
    pub fn time(&self) -> f64 {
        self.times[0]
    }

    /// Reactions fired by replica `r` so far.
    pub fn steps_replica(&self, r: usize) -> u64 {
        self.steps[r]
    }

    /// Evaluates the model's observables on replica `r` — identical to the
    /// scalar engine's `eval_observables` on the replica's term (inert
    /// initial-term compartments contribute their constant offset).
    pub fn observe_replica(&self, r: usize) -> Vec<u64> {
        self.observables
            .iter()
            .map(|o| {
                let dynamic = o
                    .state_index
                    .map(|sp| self.counts[sp * self.width + r] as u64)
                    .unwrap_or(0);
                dynamic + o.offset
            })
            .collect()
    }

    /// Total propensity `a0` of replica `r`, refreshing stale replicas
    /// first. Bit-identical to the scalar table's
    /// [`total`](crate::table::ReactionTable::total) — including the
    /// `-0.0` an exhausted replica reports.
    pub fn total_propensity(&mut self, r: usize) -> f64 {
        self.refresh();
        self.a0[r]
    }

    /// Phase 1: bring every dirty replica's propensity rows, prefix sums,
    /// `a0` and enabled bookkeeping up to date. A replica marked with a
    /// fired slot recomputes only that slot's incidence list (the
    /// dependency-graph update the scalar table does incrementally); a
    /// [`DIRTY_ALL`] replica recomputes every slot. Either way the
    /// propensity formula is the same pure function of the counts, so the
    /// incremental path is bit-identical to a full recompute.
    ///
    /// The prefix fold then rebuilds in one adds-only pass: it starts from
    /// `-0.0` and adds only enabled propensities — skipping, not adding,
    /// zeros — because `-0.0 + 0.0 == +0.0` would silently flip the
    /// exhausted-replica identity the scalar sum keeps.
    ///
    /// Both phases run in the resolved [`kernels`] implementation: the
    /// scalar reference or the AVX2 four-lane path, bit-for-bit identical.
    fn refresh(&mut self) {
        kernels::refresh(
            self.kernel,
            &SlotView {
                width: self.width,
                counts: &self.counts,
                rates: &self.slot_rates,
                plans: &self.plans,
                reactants: &self.slot_reactants,
            },
            &self.affects,
            &mut RefreshOut {
                props: &mut self.props,
                prefix: &mut self.prefix,
                a0: &mut self.a0,
                active: &mut self.active,
                first_active: &mut self.first_active,
                dirty: &mut self.dirty,
            },
            &mut self.seen,
        );
    }

    /// Applies the committed firing of `slot` on replica `r`: the net
    /// stoichiometry, the time advance, and the dirty mark driving the
    /// next incremental refresh. The selection and assignment draws have
    /// already been consumed by the lockstep draw phases.
    fn apply_fire(&mut self, r: usize, slot: usize, event_time: f64) {
        let lo = self.slot_delta_idx[slot] as usize;
        let hi = self.slot_delta_idx[slot + 1] as usize;
        for &(sp, d) in &self.slot_delta[lo..hi] {
            self.counts[sp as usize * self.width + r] += d;
        }
        self.times[r] = event_time;
        self.steps[r] += 1;
        // Firing requires fresh propensities, so the replica was clean;
        // remember the slot for the incremental refresh.
        debug_assert_eq!(self.dirty[r], CLEAN, "fired a stale replica");
        self.dirty[r] = slot as u32;
    }
}

impl BatchEngine for BatchedSsaEngine {
    /// Advances every replica to `t_goal` in lockstep rounds: phase 1
    /// refreshes the propensity matrix for replicas that fired, phase 2
    /// runs one scalar `run_sampled` iteration per live replica —
    /// waiting-time draw (kept pending across quantum boundaries), grid
    /// samples up to `min(t_next, t_goal)` observing the state in force,
    /// then the firing. A replica whose next event falls beyond the
    /// horizon parks at `t_goal` exactly, so the batch stays in lockstep.
    ///
    /// The per-replica draws of a round are batched by type — waiting
    /// time, selection, assignment — through the lockstep RNG kernel.
    /// Each replica still consumes its own stream in exactly the scalar
    /// order (waiting time, then selection iff multi-channel, then
    /// assignment), because streams never interleave across replicas and
    /// the three phases preserve that order within a round.
    fn advance_quantum_batch(
        &mut self,
        t_goal: f64,
        clocks: &mut [SampleClock],
    ) -> Vec<QuantumOutcome> {
        let w = self.width;
        assert_eq!(clocks.len(), w, "one sampling clock per replica");
        let mut outcomes: Vec<QuantumOutcome> = (0..w)
            .map(|_| QuantumOutcome {
                samples: Vec::new(),
                events: 0,
            })
            .collect();
        let mut live = vec![true; w];
        let mut remaining = w;
        while remaining > 0 {
            self.refresh();
            // Waiting-time draws for every live replica without a pending
            // event (absorbing replicas draw nothing).
            for (r, &alive) in live.iter().enumerate() {
                self.draw_mask[r] = alive && self.pending[r].is_nan() && self.a0[r] > 0.0;
            }
            self.rng
                .fill_masked(self.kernel, &self.draw_mask, &mut self.raws);
            for r in 0..w {
                if self.draw_mask[r] {
                    let u1 = kernels::range_from_raw(self.raws[r], f64::MIN_POSITIVE..1.0);
                    self.pending[r] = self.times[r] + (-u1.ln() / self.a0[r]);
                }
            }
            // Grid samples up to the event horizon, then park-or-fire.
            // The selection-draw mask rides along: only multi-channel
            // firing replicas consume a selection uniform (single-channel
            // selection is deterministic).
            for r in 0..w {
                self.fire_mask[r] = false;
                self.draw_mask[r] = false;
                if !live[r] {
                    continue;
                }
                let pending = self.pending[r];
                let t_next = if pending.is_nan() {
                    f64::INFINITY
                } else {
                    pending
                };
                let horizon = t_next.min(t_goal);
                while let Some(ts) = clocks[r].peek() {
                    if ts > horizon {
                        break;
                    }
                    let values = self.observe_replica(r);
                    outcomes[r].samples.push((ts, values));
                    clocks[r].advance();
                }
                if t_next > t_goal {
                    self.times[r] = t_goal;
                    live[r] = false;
                    remaining -= 1;
                } else {
                    self.fire_mask[r] = true;
                    self.draw_mask[r] = self.active[r] > 1;
                }
            }
            // Selection draws fused with the assignment draws every firing
            // consumes (flat rules have a trivial assignment, but the
            // scalar engine consumes the draw, so the stream positions
            // must stay aligned). Each lane still draws
            // selection-then-assignment, the scalar order.
            self.rng.fill_masked2(
                self.kernel,
                &self.draw_mask,
                &mut self.raws,
                &self.fire_mask,
                &mut self.raws_assign,
            );
            for r in 0..w {
                if self.draw_mask[r] {
                    self.targets[r] = kernels::range_from_raw(self.raws[r], 0.0..self.a0[r]);
                }
            }
            // Selection kernel: the first slot whose prefix sum exceeds
            // the target, per multi-channel firing lane.
            kernels::select_masked(
                self.kernel,
                &self.prefix,
                &self.props,
                w,
                &self.draw_mask,
                &self.targets,
                &mut self.chosen,
            );
            for (r, outcome) in outcomes.iter_mut().enumerate() {
                if !self.fire_mask[r] {
                    continue;
                }
                let slot = if self.active[r] == 1 {
                    self.first_active[r] as usize
                } else {
                    self.chosen[r] as usize
                };
                let event_time = self.pending[r];
                debug_assert!(
                    !event_time.is_nan(),
                    "firing replica without a pending event"
                );
                self.pending[r] = f64::NAN;
                self.apply_fire(r, slot, event_time);
                outcome.events += 1;
            }
        }
        debug_assert!(self.times.iter().all(|&t| t == t_goal), "lockstep broken");
        outcomes
    }

    fn width(&self) -> usize {
        BatchedSsaEngine::width(self)
    }

    fn first_instance(&self) -> u64 {
        BatchedSsaEngine::first_instance(self)
    }

    fn time(&self) -> f64 {
        BatchedSsaEngine::time(self)
    }

    fn observe_replica(&self, r: usize) -> Vec<u64> {
        BatchedSsaEngine::observe_replica(self, r)
    }

    fn events_replica(&self, r: usize) -> u64 {
        self.steps_replica(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::SsaEngine;
    use cwc::model::Model;

    fn decay_model(n: u64, rate: f64) -> Arc<Model> {
        let mut m = Model::new("decay");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(rate).build().unwrap();
        m.initial.add_atoms(a, n);
        m.observe("A", a);
        Arc::new(m)
    }

    fn schlogl_like() -> Arc<Model> {
        let mut m = Model::new("s");
        let x = m.species("X");
        m.rule("auto")
            .consumes("X", 2)
            .produces("X", 3)
            .rate(0.03)
            .build()
            .unwrap();
        m.rule("tri")
            .consumes("X", 3)
            .produces("X", 2)
            .rate(1e-4)
            .build()
            .unwrap();
        m.rule("in").produces("X", 1).rate(200.0).build().unwrap();
        m.rule("out").consumes("X", 1).rate(3.5).build().unwrap();
        m.initial.add_atoms(x, 250);
        m.observe("X", x);
        Arc::new(m)
    }

    /// Drives batch and scalar engines through the same irregular quantum
    /// schedule and asserts sample streams, times and step counts agree
    /// exactly.
    fn assert_batch_matches_scalar(
        model: Arc<Model>,
        base_seed: u64,
        first: u64,
        width: usize,
        t_end: f64,
        period: f64,
    ) {
        let quanta: Vec<f64> = [0.17, 0.4, 0.61, 0.87, 1.0]
            .iter()
            .map(|f| f * t_end)
            .collect();
        let mut batch = BatchedSsaEngine::new(Arc::clone(&model), base_seed, first, width).unwrap();
        let mut clocks: Vec<SampleClock> =
            (0..width).map(|_| SampleClock::new(0.0, period)).collect();
        let mut batch_samples: Vec<Vec<(f64, Vec<u64>)>> = vec![Vec::new(); width];
        for &q in &quanta {
            let outcomes = batch.advance_quantum_batch(q, &mut clocks);
            for (r, o) in outcomes.into_iter().enumerate() {
                batch_samples[r].extend(o.samples);
            }
        }
        for (r, replica_samples) in batch_samples.iter().enumerate() {
            let mut scalar = SsaEngine::new(Arc::clone(&model), base_seed, first + r as u64);
            let mut clock = SampleClock::new(0.0, period);
            let mut expected = Vec::new();
            for &q in &quanta {
                scalar.run_sampled(q, &mut clock, |t, v| expected.push((t, v.to_vec())));
            }
            assert_eq!(replica_samples, &expected, "replica {r} samples diverged");
            assert_eq!(batch.steps_replica(r), scalar.steps(), "replica {r} steps");
            assert_eq!(batch.observe_replica(r), scalar.observe(), "replica {r}");
            assert_eq!(batch.time(), scalar.time(), "replica {r} time");
        }
    }

    #[test]
    fn single_channel_batch_matches_scalar_bit_for_bit() {
        assert_batch_matches_scalar(decay_model(40, 1.0), 42, 0, 5, 3.0, 0.25);
    }

    #[test]
    fn multi_channel_batch_matches_scalar_bit_for_bit() {
        assert_batch_matches_scalar(schlogl_like(), 2024, 0, 6, 1.0, 0.1);
    }

    #[test]
    fn nonzero_first_instance_matches_the_shifted_scalar_instances() {
        assert_batch_matches_scalar(schlogl_like(), 7, 13, 3, 0.5, 0.1);
    }

    #[test]
    fn exhausted_replica_reports_negative_zero_a0() {
        let mut batch = BatchedSsaEngine::new(decay_model(3, 5.0), 1, 0, 2).unwrap();
        let mut clocks = vec![SampleClock::new(0.0, 10.0); 2];
        batch.advance_quantum_batch(100.0, &mut clocks);
        for r in 0..2 {
            let a0 = batch.total_propensity(r);
            assert_eq!(a0.to_bits(), (-0.0f64).to_bits(), "replica {r}: {a0}");
            assert_eq!(batch.observe_replica(r), vec![0]);
        }
    }

    #[test]
    fn rejects_non_flat_models_naming_rule_and_engine() {
        let mut m = Model::new("comp");
        m.rule("transport")
            .at("cell")
            .consumes("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let a = m.species("A");
        m.observe("A", a);
        let err = BatchedSsaEngine::new(Arc::new(m), 1, 0, 4).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`transport`"), "{msg}");
        assert!(msg.contains(BATCHED_ENGINE_NAME), "{msg}");
    }

    #[test]
    fn inert_compartments_contribute_constant_observable_offsets() {
        // Flat rules leave initial-term compartments untouched; the batch
        // must still report the same Everywhere counts as the scalar
        // engine, which evaluates observables on the full term.
        let mut m = Model::new("inert");
        let a = m.species("A");
        m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
        m.initial.add_atoms(a, 15);
        let cell = m.label("cell");
        m.initial.add_compartment(cwc::term::Compartment::new(
            cell,
            cwc::multiset::Multiset::new(),
            cwc::term::Term::from_atoms(cwc::multiset::Multiset::from([(a, 4)])),
        ));
        m.observe("A", a);
        let model = Arc::new(m);
        assert_batch_matches_scalar(model, 11, 0, 3, 2.0, 0.5);
    }

    #[test]
    fn check_model_accepts_flat_rejects_compartment_rules() {
        let flat = decay_model(1, 1.0);
        let deps = ModelDeps::compile(&flat);
        assert!(BatchedSsaEngine::check_model(&flat, &deps).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_width_batch_panics() {
        let _ = BatchedSsaEngine::new(decay_model(1, 1.0), 1, 0, 0);
    }
}
