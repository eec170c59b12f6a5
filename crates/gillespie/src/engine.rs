//! Engine-agnostic quantum execution: the seam between the stochastic
//! integrators and every parallel back-end.
//!
//! The paper's architecture is deliberately engine-neutral — the farm of
//! "sim eng" boxes only requires that a task advance by one simulation
//! quantum and emit samples on the τ grid. This module captures that
//! contract as the [`QuantumEngine`] trait and packages the five
//! integrators of this crate behind the concrete [`Engine`] enum, so tasks
//! stay `Clone + Send` without boxing and every downstream layer (task
//! farm, shard processes, simulated GPGPU, benchmarks) is written
//! once against the abstraction.
//!
//! [`BatchEngine`] is the batch-aware seam alongside it: the same quantum
//! contract for an engine that advances a whole *batch* of replicas in
//! lockstep over SoA state (the [`crate::batch`] tier). Workers pull whole
//! batches through it instead of single instances.
//!
//! [`EngineKind`] is the *configuration-level* selector — a small `Copy`
//! value that travels in `SimConfig` and across the wire to remote farms —
//! and [`EngineKind::build`] is the only place engines are constructed.
//! Prefer the validated constructors ([`EngineKind::tau_leap`],
//! [`EngineKind::adaptive_tau`], [`EngineKind::hybrid`],
//! [`EngineKind::batched`]) over struct literals: they reject bad knobs at
//! construction instead of at run start.
//!
//! ## The quantum contract
//!
//! An engine advanced to `t_goal` in any number of slices must produce the
//! same trajectory, samples and event counts as one monolithic run: the
//! exact engines keep their drawn-but-unfired event pending across
//! boundaries, the leaping engines keep their drawn-but-uncommitted
//! leap/transition pending, and the hybrid engine additionally pins its
//! phase-switch points to reaction counts rather than horizons. The unit
//! and property tests of each engine module pin this down; the pipeline's
//! seq-vs-par bit-for-bit tests rely on it.

use std::fmt;
use std::sync::Arc;

use cwc::model::Model;
use cwc::term::Term;

use crate::adaptive::AdaptiveTauEngine;
use crate::deps::ModelDeps;
use crate::first_reaction::FirstReactionEngine;
use crate::flat::FlatModelError;
use crate::hybrid::HybridEngine;
use crate::ssa::{SampleClock, SsaEngine, StepOutcome};
use crate::tau_leap::TauLeapEngine;

/// Everything one quantum of one instance produced.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumOutcome {
    /// `(grid time, observable values)` pairs emitted in the quantum,
    /// in time order.
    pub samples: Vec<(f64, Vec<u64>)>,
    /// Reaction firings committed during the quantum (for workload
    /// accounting; a tau-leap counts every firing of its committed leaps).
    pub events: u64,
}

/// The farm-facing contract of a stochastic simulation engine.
///
/// One call to [`advance_quantum`](QuantumEngine::advance_quantum) is what
/// a farm worker, a remote farm or a GPGPU "kernel" executes per
/// scheduling round. Implementations must be *slicing-invariant*: any
/// partition of `[0, t_end]` into quanta yields the same trajectory and
/// sample stream.
pub trait QuantumEngine {
    /// Advances the engine to `t_goal`, emitting every sample the
    /// persistent `clock` yields within the quantum.
    fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome;

    /// Current simulation time.
    fn time(&self) -> f64;

    /// Instance id of this trajectory.
    fn instance(&self) -> u64;

    /// Evaluates the model's observables on the current state.
    fn observe(&self) -> Vec<u64>;

    /// Total reaction firings so far.
    fn events(&self) -> u64;
}

/// The farm-facing contract of a *batched* stochastic simulation engine:
/// one value advances `width` replicas of one model in lockstep, each
/// replica owning the RNG stream (and therefore the exact trajectory) of
/// scalar instance `first_instance + r`.
///
/// The quantum contract of [`QuantumEngine`] applies per replica:
/// advancing the batch to `t_goal` in any number of slices yields, for
/// every replica, the same samples and event counts as the corresponding
/// scalar engine advanced through the same slices. The batch is in
/// lockstep *at quantum boundaries* — every replica's clock reads exactly
/// `t_goal` after a call — while event times diverge freely inside a
/// quantum.
pub trait BatchEngine {
    /// Advances every replica to `t_goal`, emitting each replica's grid
    /// samples through its own persistent clock (`clocks[r]` belongs to
    /// replica `r`; `clocks.len()` must equal [`width`](BatchEngine::width)).
    /// Returns one [`QuantumOutcome`] per replica, in replica order.
    fn advance_quantum_batch(
        &mut self,
        t_goal: f64,
        clocks: &mut [SampleClock],
    ) -> Vec<QuantumOutcome>;

    /// Number of replicas in the batch.
    fn width(&self) -> usize;

    /// Scalar instance id of replica 0; replica `r` is instance
    /// `first_instance() + r`.
    fn first_instance(&self) -> u64;

    /// Lockstep simulation time of the batch.
    fn time(&self) -> f64;

    /// Evaluates the model's observables on replica `r`'s current state.
    fn observe_replica(&self, r: usize) -> Vec<u64>;

    /// Total reaction firings of replica `r` so far.
    fn events_replica(&self, r: usize) -> u64;
}

impl QuantumEngine for SsaEngine {
    fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome {
        let mut samples = Vec::new();
        let events = self.run_sampled(t_goal, clock, |t, v| samples.push((t, v.to_vec())));
        QuantumOutcome { samples, events }
    }

    fn time(&self) -> f64 {
        SsaEngine::time(self)
    }

    fn instance(&self) -> u64 {
        SsaEngine::instance(self)
    }

    fn observe(&self) -> Vec<u64> {
        SsaEngine::observe(self)
    }

    fn events(&self) -> u64 {
        self.steps()
    }
}

impl QuantumEngine for FirstReactionEngine {
    fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome {
        let mut samples = Vec::new();
        let events = self.run_sampled(t_goal, clock, |t, v| samples.push((t, v.to_vec())));
        QuantumOutcome { samples, events }
    }

    fn time(&self) -> f64 {
        FirstReactionEngine::time(self)
    }

    fn instance(&self) -> u64 {
        FirstReactionEngine::instance(self)
    }

    fn observe(&self) -> Vec<u64> {
        FirstReactionEngine::observe(self)
    }

    fn events(&self) -> u64 {
        self.steps()
    }
}

impl QuantumEngine for TauLeapEngine {
    fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome {
        let mut samples = Vec::new();
        let events = self.run_sampled(t_goal, clock, |t, v| samples.push((t, v.to_vec())));
        QuantumOutcome { samples, events }
    }

    fn time(&self) -> f64 {
        TauLeapEngine::time(self)
    }

    fn instance(&self) -> u64 {
        TauLeapEngine::instance(self)
    }

    fn observe(&self) -> Vec<u64> {
        TauLeapEngine::observe(self)
    }

    fn events(&self) -> u64 {
        self.firings()
    }
}

impl QuantumEngine for AdaptiveTauEngine {
    fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome {
        let mut samples = Vec::new();
        let events = self.run_sampled(t_goal, clock, |t, v| samples.push((t, v.to_vec())));
        QuantumOutcome { samples, events }
    }

    fn time(&self) -> f64 {
        AdaptiveTauEngine::time(self)
    }

    fn instance(&self) -> u64 {
        AdaptiveTauEngine::instance(self)
    }

    fn observe(&self) -> Vec<u64> {
        AdaptiveTauEngine::observe(self)
    }

    fn events(&self) -> u64 {
        self.firings()
    }
}

impl QuantumEngine for HybridEngine {
    fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome {
        let mut samples = Vec::new();
        let events = self.run_sampled(t_goal, clock, |t, v| samples.push((t, v.to_vec())));
        QuantumOutcome { samples, events }
    }

    fn time(&self) -> f64 {
        HybridEngine::time(self)
    }

    fn instance(&self) -> u64 {
        HybridEngine::instance(self)
    }

    fn observe(&self) -> Vec<u64> {
        HybridEngine::observe(self)
    }

    fn events(&self) -> u64 {
        self.firings()
    }
}

/// Configuration-level engine selector.
///
/// A plain `Copy` value: it lives in the simulation config, crosses the
/// wire to remote farms, and is the single source of truth for which
/// integrator a run uses. Construct engines with [`EngineKind::build`].
///
/// # Examples
///
/// ```
/// use cwc::model::Model;
/// use gillespie::engine::EngineKind;
/// use std::sync::Arc;
///
/// let mut m = Model::new("decay");
/// let a = m.species("A");
/// m.rule("decay").consumes("A", 1).rate(1.0).build().unwrap();
/// m.initial.add_atoms(a, 50);
/// m.observe("A", a);
///
/// let mut engine = EngineKind::TauLeap { tau: 0.05 }
///     .build(Arc::new(m), 42, 0)
///     .unwrap();
/// engine.run_until(2.0);
/// assert!(engine.observe()[0] <= 50);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum EngineKind {
    /// Gillespie's exact direct method (the paper's integrator). Works on
    /// any CWC model, compartments included.
    #[default]
    Ssa,
    /// Approximate Poisson tau-leaping with native leap length `tau`.
    /// Flat, top-level, mass-action models only (StochKit's alternative
    /// integrator, an extension beyond the paper).
    TauLeap {
        /// Native leap length of the integrator (*not* the sampling τ).
        tau: f64,
    },
    /// Gillespie's first-reaction method: exact, same process law as the
    /// direct method with a different randomness consumption — the
    /// distributional oracle.
    FirstReaction,
    /// Adaptive tau-leaping: Cao–Gillespie–Petzold step-size selection
    /// with critical-reaction partitioning and an exact-SSA fallback.
    /// Flat, top-level, mass-action models only.
    AdaptiveTau {
        /// Relative-propensity-change bound ε (Cao et al. recommend
        /// 0.03–0.05; must be in `(0, 1)`).
        epsilon: f64,
    },
    /// Hybrid exact/approximate: incremental-table SSA segments with
    /// CGP-sized Poisson leaps when propensities stratify. Flat,
    /// top-level, mass-action models only.
    Hybrid {
        /// Relative-propensity-change bound ε of the leap phase.
        epsilon: f64,
        /// Expected firings per candidate leap above which the engine
        /// leaves the exact phase (must be finite and ≥ 1).
        threshold: f64,
    },
    /// Batched SoA direct method: sim workers advance whole batches of up
    /// to `width` replicas in lockstep over structure-of-arrays state (the
    /// [`crate::batch`] tier). Exact — every replica is bit-for-bit the
    /// scalar [`EngineKind::Ssa`] trajectory of the same instance. Flat,
    /// top-level, mass-action models only.
    Batched {
        /// Replicas per batch (must be ≥ 1). Instances are chunked into
        /// `ceil(instances / width)` batches; the last may be narrower.
        width: usize,
    },
}

impl EngineKind {
    /// Short stable name, for tables, CSV headers and CLIs.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Ssa => "ssa",
            EngineKind::TauLeap { .. } => "tau-leap",
            EngineKind::FirstReaction => "first-reaction",
            EngineKind::AdaptiveTau { .. } => "adaptive-tau",
            EngineKind::Hybrid { .. } => "hybrid",
            EngineKind::Batched { .. } => "batched",
        }
    }

    /// Validated constructor for [`EngineKind::TauLeap`]: rejects a
    /// non-positive or non-finite leap length at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidTau`] for a bad leap length.
    ///
    /// # Examples
    ///
    /// ```
    /// use gillespie::engine::{EngineError, EngineKind};
    ///
    /// let kind = EngineKind::tau_leap(0.05).unwrap();
    /// assert_eq!(kind, EngineKind::TauLeap { tau: 0.05 });
    /// assert!(matches!(
    ///     EngineKind::tau_leap(0.0),
    ///     Err(EngineError::InvalidTau { .. })
    /// ));
    /// ```
    pub fn tau_leap(tau: f64) -> Result<Self, EngineError> {
        let kind = EngineKind::TauLeap { tau };
        kind.validate()?;
        Ok(kind)
    }

    /// Validated constructor for [`EngineKind::AdaptiveTau`]: rejects a
    /// CGP bound outside `(0, 1)` at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidEpsilon`] for a bad bound.
    ///
    /// # Examples
    ///
    /// ```
    /// use gillespie::engine::{EngineError, EngineKind};
    ///
    /// let kind = EngineKind::adaptive_tau(0.05).unwrap();
    /// assert_eq!(kind, EngineKind::AdaptiveTau { epsilon: 0.05 });
    /// assert!(matches!(
    ///     EngineKind::adaptive_tau(1.5),
    ///     Err(EngineError::InvalidEpsilon { .. })
    /// ));
    /// ```
    pub fn adaptive_tau(epsilon: f64) -> Result<Self, EngineError> {
        let kind = EngineKind::AdaptiveTau { epsilon };
        kind.validate()?;
        Ok(kind)
    }

    /// Validated constructor for [`EngineKind::Hybrid`]: rejects a CGP
    /// bound outside `(0, 1)` or a switch threshold below 1 / non-finite
    /// at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidEpsilon`] or
    /// [`EngineError::InvalidThreshold`] for bad knobs.
    ///
    /// # Examples
    ///
    /// ```
    /// use gillespie::engine::{EngineError, EngineKind};
    ///
    /// let kind = EngineKind::hybrid(0.05, 8.0).unwrap();
    /// assert_eq!(
    ///     kind,
    ///     EngineKind::Hybrid { epsilon: 0.05, threshold: 8.0 }
    /// );
    /// assert!(matches!(
    ///     EngineKind::hybrid(0.05, 0.5),
    ///     Err(EngineError::InvalidThreshold { .. })
    /// ));
    /// ```
    pub fn hybrid(epsilon: f64, threshold: f64) -> Result<Self, EngineError> {
        let kind = EngineKind::Hybrid { epsilon, threshold };
        kind.validate()?;
        Ok(kind)
    }

    /// Validated constructor for [`EngineKind::Batched`]: rejects a zero
    /// batch width at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidWidth`] when `width` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use gillespie::engine::{EngineError, EngineKind};
    ///
    /// let kind = EngineKind::batched(64).unwrap();
    /// assert_eq!(kind, EngineKind::Batched { width: 64 });
    /// assert!(matches!(
    ///     EngineKind::batched(0),
    ///     Err(EngineError::InvalidWidth { .. })
    /// ));
    /// ```
    pub fn batched(width: usize) -> Result<Self, EngineError> {
        let kind = EngineKind::Batched { width };
        kind.validate()?;
        Ok(kind)
    }

    /// Checks the model-independent parameters of this kind — the single
    /// owner of the leap-length/epsilon/threshold rules, shared by
    /// [`EngineKind::build`] and config-level validation.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidTau`] for a non-positive or
    /// non-finite tau-leap length, [`EngineError::InvalidEpsilon`] for a
    /// CGP bound outside `(0, 1)`, [`EngineError::InvalidThreshold`]
    /// for a hybrid switch threshold below 1 or non-finite, and
    /// [`EngineError::InvalidWidth`] for a zero batch width.
    pub fn validate(&self) -> Result<(), EngineError> {
        match *self {
            EngineKind::TauLeap { tau } if !(tau > 0.0 && tau.is_finite()) => {
                Err(EngineError::InvalidTau { tau })
            }
            EngineKind::Batched { width } if width == 0 => Err(EngineError::InvalidWidth { width }),
            EngineKind::AdaptiveTau { epsilon } | EngineKind::Hybrid { epsilon, .. }
                if !(epsilon > 0.0 && epsilon < 1.0) =>
            {
                Err(EngineError::InvalidEpsilon { epsilon })
            }
            EngineKind::Hybrid { threshold, .. }
                if !(threshold >= 1.0 && threshold.is_finite()) =>
            {
                Err(EngineError::InvalidThreshold { threshold })
            }
            _ => Ok(()),
        }
    }

    /// Builds the engine for `instance`, seeded from `base_seed`,
    /// compiling the model's dependency graph locally. When building many
    /// instances of one model (a farm), compile once with
    /// [`ModelDeps::compile`] and use
    /// [`build_with_deps`](EngineKind::build_with_deps).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the kind cannot drive `model`:
    /// tau-leaping rejects compartment rules, nested-site rules,
    /// non-mass-action laws and non-positive `tau`.
    pub fn build(
        self,
        model: Arc<Model>,
        base_seed: u64,
        instance: u64,
    ) -> Result<Engine, EngineError> {
        let deps = Arc::new(ModelDeps::compile(&model));
        self.build_with_deps(model, deps, base_seed, instance)
    }

    /// Builds the engine for `instance`, sharing an already-compiled
    /// dependency graph across instances. Every integrator consumes the
    /// compilation: the exact engines drive their incremental reaction
    /// tables with it (the hybrid's exact phase included), and the leaping
    /// engines take their stoichiometry vectors from it.
    ///
    /// # Errors
    ///
    /// Same as [`EngineKind::build`].
    pub fn build_with_deps(
        self,
        model: Arc<Model>,
        deps: Arc<ModelDeps>,
        base_seed: u64,
        instance: u64,
    ) -> Result<Engine, EngineError> {
        self.validate()?;
        match self {
            EngineKind::Ssa => Ok(Engine::Ssa(SsaEngine::with_deps(
                model, deps, base_seed, instance,
            ))),
            EngineKind::FirstReaction => Ok(Engine::FirstReaction(FirstReactionEngine::with_deps(
                model, deps, base_seed, instance,
            ))),
            EngineKind::TauLeap { tau } => {
                let engine = TauLeapEngine::with_deps(model, deps, base_seed, instance)?;
                Ok(Engine::TauLeap(engine.with_tau(tau)))
            }
            EngineKind::AdaptiveTau { epsilon } => {
                let engine = AdaptiveTauEngine::with_deps(model, deps, base_seed, instance)?;
                Ok(Engine::AdaptiveTau(Box::new(engine.with_epsilon(epsilon))))
            }
            EngineKind::Hybrid { epsilon, threshold } => {
                let engine = HybridEngine::with_deps(model, deps, base_seed, instance)?;
                Ok(Engine::Hybrid(Box::new(
                    engine.with_epsilon(epsilon).with_threshold(threshold),
                )))
            }
            EngineKind::Batched { .. } => {
                // Per-instance builds of the batched kind (remote farms,
                // device fallbacks, per-instance reference paths) hand out
                // the scalar direct method: a batch replica is *defined*
                // as bit-for-bit that scalar trajectory, so the scalar
                // engine is its exact single-instance materialization.
                // The model contract is still the batch tier's: reject
                // non-flat models here, naming the offending rule, so a
                // batched run fails at start everywhere, not just where a
                // real batch is built.
                crate::batch::BatchedSsaEngine::check_model(&model, &deps)?;
                Ok(Engine::Ssa(SsaEngine::with_deps(
                    model, deps, base_seed, instance,
                )))
            }
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::TauLeap { tau } => write!(f, "tau-leap(τ={tau})"),
            EngineKind::AdaptiveTau { epsilon } => write!(f, "adaptive-tau(ε={epsilon})"),
            EngineKind::Hybrid { epsilon, threshold } => {
                write!(f, "hybrid(ε={epsilon}, θ={threshold})")
            }
            EngineKind::Batched { width } => write!(f, "batched(w={width})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Error building an engine from an [`EngineKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A flat-only engine (tau-leaping, adaptive tau-leaping, the hybrid
    /// SSA/tau engine, the batched SSA engine) cannot drive this model
    /// (compartments, nested sites or non-mass-action laws); the inner
    /// error names the engine and the offending rule.
    FlatModel(FlatModelError),
    /// The configured leap length is not positive and finite.
    InvalidTau {
        /// The offending value.
        tau: f64,
    },
    /// The configured CGP bound ε is outside `(0, 1)`.
    InvalidEpsilon {
        /// The offending value.
        epsilon: f64,
    },
    /// The configured hybrid switch threshold is below 1 or non-finite.
    InvalidThreshold {
        /// The offending value.
        threshold: f64,
    },
    /// The configured batch width is zero.
    InvalidWidth {
        /// The offending value.
        width: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::FlatModel(e) => write!(f, "{e}"),
            EngineError::InvalidTau { tau } => {
                write!(
                    f,
                    "tau-leap leap length must be positive and finite, got {tau}"
                )
            }
            EngineError::InvalidEpsilon { epsilon } => {
                write!(
                    f,
                    "adaptive/hybrid epsilon must be in (0, 1), got {epsilon}"
                )
            }
            EngineError::InvalidThreshold { threshold } => {
                write!(
                    f,
                    "hybrid switch threshold must be finite and >= 1, got {threshold}"
                )
            }
            EngineError::InvalidWidth { width } => {
                write!(f, "batched width must be >= 1, got {width}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<FlatModelError> for EngineError {
    fn from(e: FlatModelError) -> Self {
        EngineError::FlatModel(e)
    }
}

/// Outcome of one atomic engine transition ([`Engine::step`]): a reaction
/// for the exact engines, one committed leap for tau-leaping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineStep {
    /// The engine advanced by `dt`, firing `events` reactions.
    Advanced {
        /// Time that elapsed.
        dt: f64,
        /// Reactions fired (1 for exact engines, the leap total for
        /// tau-leaping).
        events: u64,
    },
    /// No reaction is enabled; the state is absorbing.
    Exhausted,
}

/// A concrete simulation engine: one of the five integrators, behind one
/// `Clone + Send` value (no boxing, no generics in the task types).
///
/// All methods dispatch to the wrapped engine; the [`QuantumEngine`] impl
/// delegates to the inherent methods, so call sites need no trait import.
#[derive(Debug, Clone)]
pub enum Engine {
    /// Exact direct method.
    Ssa(SsaEngine),
    /// Approximate fixed-step Poisson tau-leaping.
    TauLeap(TauLeapEngine),
    /// Exact first-reaction method.
    FirstReaction(FirstReactionEngine),
    /// Approximate adaptive (CGP) tau-leaping (boxed: the incremental
    /// hot path carries SoA rows, criticality epochs and reusable
    /// buffers, and would otherwise dominate the size of every task
    /// that carries this enum).
    AdaptiveTau(Box<AdaptiveTauEngine>),
    /// Hybrid exact/approximate engine (boxed: it embeds a full exact
    /// engine plus the flat reduction, and would otherwise dominate the
    /// size of every task that carries this enum).
    Hybrid(Box<HybridEngine>),
}

impl Engine {
    /// The configuration that would rebuild this engine. An engine built
    /// from [`EngineKind::Batched`] reports [`EngineKind::Ssa`]: the
    /// per-instance materialization of a batch replica *is* the scalar
    /// direct method, and rebuilding it as such is bit-for-bit faithful.
    pub fn kind(&self) -> EngineKind {
        match self {
            Engine::Ssa(_) => EngineKind::Ssa,
            Engine::TauLeap(e) => EngineKind::TauLeap { tau: e.tau() },
            Engine::FirstReaction(_) => EngineKind::FirstReaction,
            Engine::AdaptiveTau(e) => EngineKind::AdaptiveTau {
                epsilon: e.epsilon(),
            },
            Engine::Hybrid(e) => EngineKind::Hybrid {
                epsilon: e.epsilon(),
                threshold: e.threshold(),
            },
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        match self {
            Engine::Ssa(e) => e.time(),
            Engine::TauLeap(e) => e.time(),
            Engine::FirstReaction(e) => e.time(),
            Engine::AdaptiveTau(e) => e.time(),
            Engine::Hybrid(e) => e.time(),
        }
    }

    /// Instance id of this trajectory.
    pub fn instance(&self) -> u64 {
        match self {
            Engine::Ssa(e) => e.instance(),
            Engine::TauLeap(e) => e.instance(),
            Engine::FirstReaction(e) => e.instance(),
            Engine::AdaptiveTau(e) => e.instance(),
            Engine::Hybrid(e) => e.instance(),
        }
    }

    /// Evaluates the model's observables on the current state.
    pub fn observe(&self) -> Vec<u64> {
        match self {
            Engine::Ssa(e) => e.observe(),
            Engine::TauLeap(e) => e.observe(),
            Engine::FirstReaction(e) => e.observe(),
            Engine::AdaptiveTau(e) => e.observe(),
            Engine::Hybrid(e) => e.observe(),
        }
    }

    /// Total reaction firings so far.
    pub fn events(&self) -> u64 {
        match self {
            Engine::Ssa(e) => e.steps(),
            Engine::TauLeap(e) => e.firings(),
            Engine::FirstReaction(e) => e.steps(),
            Engine::AdaptiveTau(e) => e.firings(),
            Engine::Hybrid(e) => e.firings(),
        }
    }

    /// The model driving this engine.
    pub fn model(&self) -> &Arc<Model> {
        match self {
            Engine::Ssa(e) => e.model(),
            Engine::TauLeap(e) => e.model(),
            Engine::FirstReaction(e) => e.model(),
            Engine::AdaptiveTau(e) => e.model(),
            Engine::Hybrid(e) => e.model(),
        }
    }

    /// The current CWC term, for the term-based engines (`None` for the
    /// leaping and hybrid engines, whose committed state is a
    /// species-count vector).
    pub fn term(&self) -> Option<&Term> {
        match self {
            Engine::Ssa(e) => Some(e.term()),
            Engine::FirstReaction(e) => Some(e.term()),
            Engine::TauLeap(_) | Engine::AdaptiveTau(_) | Engine::Hybrid(_) => None,
        }
    }

    /// Executes one atomic transition: one reaction (exact engines) or
    /// one committed leap/transition (the leaping and hybrid engines).
    pub fn step(&mut self) -> EngineStep {
        match self {
            Engine::Ssa(e) => match e.step() {
                StepOutcome::Fired { dt, .. } => EngineStep::Advanced { dt, events: 1 },
                StepOutcome::Exhausted => EngineStep::Exhausted,
            },
            Engine::FirstReaction(e) => match e.step() {
                StepOutcome::Fired { dt, .. } => EngineStep::Advanced { dt, events: 1 },
                StepOutcome::Exhausted => EngineStep::Exhausted,
            },
            Engine::TauLeap(e) => {
                // leap() first commits any leap held pending by the
                // quantum-execution API, so measure dt and events as
                // clock/firings deltas to keep the two consistent.
                let (before_firings, before_time) = (e.firings(), e.time());
                let taken = e.leap(e.tau());
                let dt = e.time() - before_time;
                if taken == 0.0 && dt == 0.0 {
                    EngineStep::Exhausted
                } else {
                    EngineStep::Advanced {
                        dt,
                        events: e.firings() - before_firings,
                    }
                }
            }
            Engine::AdaptiveTau(e) => {
                let (before_firings, before_time) = (e.firings(), e.time());
                let taken = e.advance();
                let dt = e.time() - before_time;
                if taken == 0.0 && dt == 0.0 {
                    EngineStep::Exhausted
                } else {
                    EngineStep::Advanced {
                        dt,
                        events: e.firings() - before_firings,
                    }
                }
            }
            Engine::Hybrid(e) => {
                let (dt, events) = e.step_transition();
                if dt == 0.0 && events == 0 {
                    EngineStep::Exhausted
                } else {
                    EngineStep::Advanced { dt, events }
                }
            }
        }
    }

    /// Runs until simulation time reaches `t_end` (or the state absorbs),
    /// without sampling; returns the reactions fired.
    pub fn run_until(&mut self, t_end: f64) -> u64 {
        match self {
            Engine::Ssa(e) => e.run_until(t_end),
            Engine::FirstReaction(e) => e.run_until(t_end),
            // A muted clock (zero-sample limit) turns sampled advancement
            // into plain advancement on the same pending-leap path.
            Engine::TauLeap(e) => {
                let mut muted = SampleClock::new(0.0, 1.0).with_limit(0);
                e.run_sampled(t_end, &mut muted, |_, _| {})
            }
            Engine::AdaptiveTau(e) => e.run_until(t_end),
            Engine::Hybrid(e) => e.run_until(t_end),
        }
    }

    /// Runs until `t_end`, invoking `on_sample(t, observables)` at every
    /// grid time `clock` yields within the interval; returns reactions
    /// fired. Same alignment contract as [`SsaEngine::run_sampled`].
    pub fn run_sampled<F>(&mut self, t_end: f64, clock: &mut SampleClock, on_sample: F) -> u64
    where
        F: FnMut(f64, &[u64]),
    {
        match self {
            Engine::Ssa(e) => e.run_sampled(t_end, clock, on_sample),
            Engine::FirstReaction(e) => e.run_sampled(t_end, clock, on_sample),
            Engine::TauLeap(e) => e.run_sampled(t_end, clock, on_sample),
            Engine::AdaptiveTau(e) => e.run_sampled(t_end, clock, on_sample),
            Engine::Hybrid(e) => e.run_sampled(t_end, clock, on_sample),
        }
    }

    /// Advances to `t_goal`, collecting the quantum's samples and events.
    pub fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome {
        let mut samples = Vec::new();
        let events = self.run_sampled(t_goal, clock, |t, v| samples.push((t, v.to_vec())));
        QuantumOutcome { samples, events }
    }
}

impl QuantumEngine for Engine {
    fn advance_quantum(&mut self, t_goal: f64, clock: &mut SampleClock) -> QuantumOutcome {
        Engine::advance_quantum(self, t_goal, clock)
    }

    fn time(&self) -> f64 {
        Engine::time(self)
    }

    fn instance(&self) -> u64 {
        Engine::instance(self)
    }

    fn observe(&self) -> Vec<u64> {
        Engine::observe(self)
    }

    fn events(&self) -> u64 {
        Engine::events(self)
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

    fn comp_model() -> Arc<Model> {
        let mut m = Model::new("comp");
        m.rule("r")
            .at("cell")
            .consumes("A", 1)
            .rate(1.0)
            .build()
            .unwrap();
        let a = m.species("A");
        m.observe("A", a);
        Arc::new(m)
    }

    #[test]
    fn every_kind_builds_on_a_flat_model() {
        let model = decay_model(10, 1.0);
        for kind in [
            EngineKind::Ssa,
            EngineKind::TauLeap { tau: 0.1 },
            EngineKind::FirstReaction,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let engine = kind.build(Arc::clone(&model), 1, 0).unwrap();
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.instance(), 0);
            assert_eq!(engine.observe(), vec![10]);
            assert_eq!(engine.time(), 0.0);
        }
    }

    #[test]
    fn tau_leap_rejects_compartment_models_and_bad_tau() {
        let model = comp_model();
        let err = EngineKind::TauLeap { tau: 0.1 }
            .build(Arc::clone(&model), 1, 0)
            .unwrap_err();
        assert!(matches!(err, EngineError::FlatModel(_)));
        let err = EngineKind::TauLeap { tau: 0.0 }
            .build(decay_model(1, 1.0), 1, 0)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidTau { .. }));
        assert!(err.to_string().contains("positive"));
    }

    #[test]
    fn exact_kinds_drive_compartment_models() {
        let model = comp_model();
        for kind in [EngineKind::Ssa, EngineKind::FirstReaction] {
            let engine = kind.build(Arc::clone(&model), 1, 0);
            assert!(engine.is_ok(), "{kind} must accept compartment models");
        }
    }

    #[test]
    fn engine_enum_matches_wrapped_ssa_engine_exactly() {
        let model = decay_model(30, 1.0);
        let mut plain = SsaEngine::new(Arc::clone(&model), 7, 2);
        let mut wrapped = EngineKind::Ssa.build(model, 7, 2).unwrap();
        let mut pc = SampleClock::new(0.0, 0.25);
        let mut ps = Vec::new();
        plain.run_sampled(3.0, &mut pc, |t, v| ps.push((t, v.to_vec())));
        let mut wc = SampleClock::new(0.0, 0.25);
        let outcome = Engine::advance_quantum(&mut wrapped, 3.0, &mut wc);
        assert_eq!(outcome.samples, ps);
        assert_eq!(outcome.events, plain.steps());
        assert_eq!(wrapped.time(), plain.time());
    }

    #[test]
    fn step_advances_every_kind() {
        let model = decay_model(20, 1.0);
        for kind in [
            EngineKind::Ssa,
            EngineKind::TauLeap { tau: 0.05 },
            EngineKind::FirstReaction,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let mut engine = kind.build(Arc::clone(&model), 3, 0).unwrap();
            match engine.step() {
                EngineStep::Advanced { dt, .. } => assert!(dt > 0.0, "{kind}"),
                EngineStep::Exhausted => panic!("{kind} exhausted immediately"),
            }
            assert!(engine.time() > 0.0, "{kind}");
        }
    }

    #[test]
    fn exhausted_engines_report_exhaustion() {
        let model = decay_model(0, 1.0);
        for kind in [
            EngineKind::Ssa,
            EngineKind::TauLeap { tau: 0.05 },
            EngineKind::FirstReaction,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let mut engine = kind.build(Arc::clone(&model), 3, 0).unwrap();
            assert_eq!(engine.step(), EngineStep::Exhausted, "{kind}");
        }
    }

    #[test]
    fn run_until_counts_events() {
        let model = decay_model(25, 2.0);
        for kind in [
            EngineKind::Ssa,
            EngineKind::TauLeap { tau: 0.05 },
            EngineKind::FirstReaction,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let mut engine = kind.build(Arc::clone(&model), 9, 0).unwrap();
            let fired = engine.run_until(1e3);
            assert!(fired > 0, "{kind}");
            assert_eq!(fired, engine.events(), "{kind}");
            assert_eq!(engine.observe(), vec![0], "{kind}");
        }
    }

    #[test]
    fn trait_object_dispatch_matches_inherent_calls() {
        // Drive every concrete engine and the enum through the
        // QuantumEngine contract as a trait object: the impls must stay
        // in sync with the inherent methods (this test is the generic
        // consumer keeping them honest).
        let model = decay_model(25, 1.0);
        fn drive(engine: &mut dyn QuantumEngine) -> (Vec<(f64, Vec<u64>)>, u64, f64) {
            let mut clock = SampleClock::new(0.0, 0.5);
            let outcome = engine.advance_quantum(2.0, &mut clock);
            assert_eq!(outcome.events, engine.events());
            (outcome.samples, engine.events(), engine.time())
        }
        for kind in [
            EngineKind::Ssa,
            EngineKind::TauLeap { tau: 0.05 },
            EngineKind::FirstReaction,
            EngineKind::AdaptiveTau { epsilon: 0.05 },
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0,
            },
        ] {
            let mut wrapped = kind.build(Arc::clone(&model), 11, 2).unwrap();
            let via_enum = drive(&mut wrapped);
            let via_concrete = match kind.build(Arc::clone(&model), 11, 2).unwrap() {
                Engine::Ssa(mut e) => drive(&mut e),
                Engine::TauLeap(mut e) => drive(&mut e),
                Engine::FirstReaction(mut e) => drive(&mut e),
                Engine::AdaptiveTau(mut e) => drive(&mut *e),
                Engine::Hybrid(mut e) => drive(&mut *e),
            };
            assert_eq!(via_enum, via_concrete, "{kind}");
            assert_eq!(QuantumEngine::instance(&wrapped), 2, "{kind}");
            assert_eq!(
                QuantumEngine::observe(&wrapped),
                Engine::observe(&wrapped),
                "{kind}"
            );
        }
    }

    #[test]
    fn engine_kind_validate_owns_the_tau_rule() {
        assert!(EngineKind::Ssa.validate().is_ok());
        assert!(EngineKind::FirstReaction.validate().is_ok());
        assert!(EngineKind::TauLeap { tau: 0.5 }.validate().is_ok());
        for tau in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            // matches! rather than assert_eq: NaN never compares equal.
            assert!(matches!(
                EngineKind::TauLeap { tau }.validate(),
                Err(EngineError::InvalidTau { .. })
            ));
        }
    }

    #[test]
    fn engine_kind_validate_owns_the_epsilon_and_threshold_rules() {
        assert!(EngineKind::AdaptiveTau { epsilon: 0.05 }.validate().is_ok());
        assert!(EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 8.0
        }
        .validate()
        .is_ok());
        for epsilon in [0.0, -0.1, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                EngineKind::AdaptiveTau { epsilon }.validate(),
                Err(EngineError::InvalidEpsilon { .. })
            ));
            assert!(matches!(
                EngineKind::Hybrid {
                    epsilon,
                    threshold: 8.0
                }
                .validate(),
                Err(EngineError::InvalidEpsilon { .. })
            ));
        }
        for threshold in [0.0, 0.5, -3.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                EngineKind::Hybrid {
                    epsilon: 0.05,
                    threshold
                }
                .validate(),
                Err(EngineError::InvalidThreshold { .. })
            ));
        }
        let msg = EngineKind::AdaptiveTau { epsilon: 1.5 }
            .validate()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("epsilon"), "{msg}");
        let msg = EngineKind::Hybrid {
            epsilon: 0.05,
            threshold: 0.0,
        }
        .validate()
        .unwrap_err()
        .to_string();
        assert!(msg.contains("threshold"), "{msg}");
    }

    #[test]
    fn flat_only_kinds_reject_compartment_models_naming_rule_and_engine() {
        let model = comp_model();
        for (kind, engine_name) in [
            (EngineKind::TauLeap { tau: 0.1 }, "tau-leaping"),
            (
                EngineKind::AdaptiveTau { epsilon: 0.05 },
                "adaptive tau-leaping",
            ),
            (
                EngineKind::Hybrid {
                    epsilon: 0.05,
                    threshold: 8.0,
                },
                "the hybrid SSA/tau engine",
            ),
        ] {
            let err = kind.build(Arc::clone(&model), 1, 0).unwrap_err();
            let msg = err.to_string();
            assert!(matches!(err, EngineError::FlatModel(_)), "{kind}");
            assert!(msg.contains("`r`"), "{kind}: {msg}");
            assert!(msg.contains(engine_name), "{kind}: {msg}");
        }
    }

    #[test]
    fn engine_kind_validate_owns_the_width_rule() {
        assert!(EngineKind::Batched { width: 1 }.validate().is_ok());
        assert!(EngineKind::Batched { width: 256 }.validate().is_ok());
        let err = EngineKind::Batched { width: 0 }.validate().unwrap_err();
        assert!(matches!(err, EngineError::InvalidWidth { width: 0 }));
        assert!(err.to_string().contains("width"), "{err}");
    }

    #[test]
    fn validated_constructors_accept_good_knobs_and_reject_bad_ones() {
        assert_eq!(
            EngineKind::tau_leap(0.1).unwrap(),
            EngineKind::TauLeap { tau: 0.1 }
        );
        assert_eq!(
            EngineKind::adaptive_tau(0.03).unwrap(),
            EngineKind::AdaptiveTau { epsilon: 0.03 }
        );
        assert_eq!(
            EngineKind::hybrid(0.05, 10.0).unwrap(),
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 10.0
            }
        );
        assert_eq!(
            EngineKind::batched(32).unwrap(),
            EngineKind::Batched { width: 32 }
        );
        assert!(matches!(
            EngineKind::tau_leap(f64::NAN),
            Err(EngineError::InvalidTau { .. })
        ));
        assert!(matches!(
            EngineKind::adaptive_tau(0.0),
            Err(EngineError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            EngineKind::hybrid(1.5, 10.0),
            Err(EngineError::InvalidEpsilon { .. })
        ));
        assert!(matches!(
            EngineKind::hybrid(0.05, f64::INFINITY),
            Err(EngineError::InvalidThreshold { .. })
        ));
        assert!(matches!(
            EngineKind::batched(0),
            Err(EngineError::InvalidWidth { width: 0 })
        ));
    }

    #[test]
    fn batched_kind_rejects_compartment_models_naming_rule_and_engine() {
        let err = EngineKind::Batched { width: 4 }
            .build(comp_model(), 1, 0)
            .unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, EngineError::FlatModel(_)), "{msg}");
        assert!(msg.contains("`r`"), "{msg}");
        assert!(msg.contains("the batched SSA engine"), "{msg}");
    }

    #[test]
    fn batched_kind_builds_the_exact_scalar_materialization() {
        // A per-instance build of the batched kind is the scalar direct
        // method — the definition of a batch replica.
        let model = decay_model(30, 1.0);
        let mut scalar = EngineKind::Ssa.build(Arc::clone(&model), 7, 3).unwrap();
        let mut batch_built = EngineKind::Batched { width: 8 }
            .build(Arc::clone(&model), 7, 3)
            .unwrap();
        assert!(matches!(batch_built, Engine::Ssa(_)));
        let mut c1 = SampleClock::new(0.0, 0.25);
        let mut c2 = SampleClock::new(0.0, 0.25);
        assert_eq!(
            Engine::advance_quantum(&mut scalar, 3.0, &mut c1),
            Engine::advance_quantum(&mut batch_built, 3.0, &mut c2),
        );
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(EngineKind::Ssa.to_string(), "ssa");
        assert_eq!(EngineKind::FirstReaction.to_string(), "first-reaction");
        assert_eq!(
            EngineKind::TauLeap { tau: 0.5 }.to_string(),
            "tau-leap(τ=0.5)"
        );
        assert_eq!(
            EngineKind::AdaptiveTau { epsilon: 0.05 }.to_string(),
            "adaptive-tau(ε=0.05)"
        );
        assert_eq!(
            EngineKind::Hybrid {
                epsilon: 0.05,
                threshold: 8.0
            }
            .to_string(),
            "hybrid(ε=0.05, θ=8)"
        );
        assert_eq!(
            EngineKind::Batched { width: 64 }.to_string(),
            "batched(w=64)"
        );
        assert_eq!(EngineKind::default(), EngineKind::Ssa);
    }
}
