//! The batched tier's kernel layer: runtime-dispatched implementations of
//! the four hot loops of [`BatchedSsaEngine`](super::BatchedSsaEngine).
//!
//! Every kernel exists twice — a portable scalar reference and an x86_64
//! AVX2 variant selected at runtime via `is_x86_feature_detected!` — and
//! the two are **bit-for-bit identical** by construction:
//!
//! 1. **Propensity slot recompute** (`refresh`, phase 1): a propensity is
//!    an exact `u64` binomial product with a single final `as f64` cast
//!    and a positive clamp — a pure function of the replica's counts. The
//!    AVX2 path computes four replica lanes at once for the common rule
//!    shapes (`k=1`, `k=2`, `k=1×k=1`), where the whole product stays
//!    below 2⁵² and is therefore *exactly* representable in a `f64` lane;
//!    a per-chunk magnitude guard drops to the scalar formula the moment
//!    exactness could be lost, so overflow saturation and cast rounding
//!    never diverge. Because the value is count-pure, the vector path may
//!    recompute a clean lane that shares a chunk with a dirty one — it
//!    rewrites the identical bits.
//! 2. **Prefix fold + `a0` extraction** (`refresh`, phase 2): the fold
//!    starts from the additive identity `-0.0` and *skips* (never adds)
//!    disabled propensities, preserving the `-0.0` an exhausted replica
//!    reports. The AVX2 fold runs four lanes in lockstep and replicates
//!    the skip with a blend — `acc` either takes `acc + p` or keeps its
//!    old bits — so the adds happen in the same slot order with the same
//!    operands per lane as the scalar fold.
//!    An incremental refresh refolds only from the lowest recomputed
//!    slot, reseeding the accumulator from the stored `prefix[from - 1]`
//!    bits — the exact tail of the full fold, since the lower slots are
//!    untouched since the last refresh.
//! 3. **Direct-method selection** (`select_masked`): the scalar kernel
//!    binary-searches a replica's prefix column for the first slot whose
//!    cumulative propensity exceeds the target. The AVX2 kernel instead
//!    *counts*, four lanes at a time, the slots whose prefix has not yet
//!    crossed — the per-slot predicate is `!(prefix > target)`, bitwise
//!    the negation of the search's, and on a non-decreasing column that
//!    count **is** the crossing index — falling back to the per-lane
//!    binary search on wide slot tables where the scan loses. Both agree
//!    exactly, floating-point-shortfall fallback included.
//! 4. **Lockstep RNG stepping** (`BatchRng`): the W per-replica
//!    xoshiro256++ streams advance in SIMD lanes. The state update is
//!    branch-free `u64` arithmetic (adds, xors, shifts, rotates), so the
//!    vector step emits exactly the scalar streams' outputs; a draw mask
//!    blends the old state back into lanes that must not consume a draw,
//!    keeping every lane's stream position identical to the scalar
//!    engine's draw discipline (see [`crate::rng`]). The selection and
//!    assignment draws of a round share one fused sweep, costing a
//!    single state load/store round-trip.
//!
//! Every engine resolves [`KernelDispatch::Auto`] once at construction:
//! AVX2 when the CPU has it, the scalar reference otherwise. Setting the
//! [`FORCE_SCALAR_ENV`] environment variable forces the scalar reference
//! everywhere, which is how CI exercises both implementations against
//! the same golden fingerprints. Only the batched engine takes an
//! explicit [`KernelDispatch`] (`step_throughput --kernels`).

use std::ops::Range;

use cwc::multiset::binomial;
use rand::{Rng, RngCore};

use crate::rng::instance_seed;

/// Environment variable that forces the scalar reference kernels
/// regardless of the configured [`KernelDispatch`] (any non-empty value
/// other than `0`). CI's dispatch-coverage leg sets it to run the whole
/// test suite — golden fingerprints included — over the scalar path.
pub const FORCE_SCALAR_ENV: &str = "CWC_FORCE_SCALAR_KERNELS";

/// `dirty` marker: the replica's propensity rows are current.
pub(crate) const CLEAN: u32 = u32::MAX;
/// `dirty` marker: recompute every propensity row of the replica.
pub(crate) const DIRTY_ALL: u32 = u32::MAX - 1;

/// Kernel selection policy. Engines resolve [`KernelDispatch::Auto`];
/// [`BatchedSsaEngine::with_kernel_dispatch`](super::BatchedSsaEngine::with_kernel_dispatch)
/// also takes [`KernelDispatch::Scalar`] so a benchmark can time both
/// sets in one process. The choice never changes results — both
/// implementations are bit-for-bit identical — it only selects how the
/// hot loops execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelDispatch {
    /// Use SIMD kernels when the CPU supports them (runtime-detected),
    /// the scalar reference otherwise. The default.
    #[default]
    Auto,
    /// Always use the portable scalar reference kernels.
    Scalar,
}

impl KernelDispatch {
    /// Resolves the knob against the running CPU (and the
    /// [`FORCE_SCALAR_ENV`] override) into a concrete kernel set.
    pub fn resolve(self) -> Kernel {
        if force_scalar_env() || self == KernelDispatch::Scalar {
            return Kernel::Scalar;
        }
        if simd_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        }
    }
}

impl std::str::FromStr for KernelDispatch {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(KernelDispatch::Auto),
            "scalar" => Ok(KernelDispatch::Scalar),
            other => Err(format!(
                "unknown kernel dispatch `{other}` (expected auto or scalar)"
            )),
        }
    }
}

impl std::fmt::Display for KernelDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelDispatch::Auto => "auto",
            KernelDispatch::Scalar => "scalar",
        })
    }
}

/// A resolved kernel set — what [`KernelDispatch::resolve`] produced for
/// this process. [`Kernel::Avx2`] is only ever constructed after runtime
/// feature detection succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The portable scalar reference.
    Scalar,
    /// x86_64 AVX2 four-lane kernels.
    Avx2,
}

/// Whether the SIMD kernels can run on this CPU (x86_64 with AVX2).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn force_scalar_env() -> bool {
    match std::env::var_os(FORCE_SCALAR_ENV) {
        Some(v) => !v.is_empty() && v != *"0",
        None => false,
    }
}

// ---------------------------------------------------------------------------
// Propensity recompute + prefix fold
// ---------------------------------------------------------------------------

/// Vectorization plan of one reaction slot, classified once per batch
/// from the rule's reactant multiset. The named shapes are the ones whose
/// selection count the AVX2 path can reproduce exactly in `f64` lanes
/// (under the magnitude guards described in the module docs); everything
/// else takes the scalar formula per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotPlan {
    /// One reactant species, multiplicity 1: `h = n`.
    K1 {
        /// Species index of the reactant.
        sp: usize,
    },
    /// One reactant species, multiplicity 2: `h = n(n-1)/2`.
    K2 {
        /// Species index of the reactant.
        sp: usize,
    },
    /// Two reactant species, multiplicity 1 each: `h = n₁·n₂`.
    K11 {
        /// Species index of the first reactant.
        a: usize,
        /// Species index of the second reactant.
        b: usize,
    },
    /// Any other shape: scalar binomial products per lane.
    General,
}

impl SlotPlan {
    /// Classifies a slot from its reactant multiplicities.
    pub(crate) fn of(reactants: &[(usize, u64)]) -> Self {
        match *reactants {
            [(sp, 1)] => SlotPlan::K1 { sp },
            [(sp, 2)] => SlotPlan::K2 { sp },
            [(a, 1), (b, 1)] => SlotPlan::K11 { a, b },
            _ => SlotPlan::General,
        }
    }
}

/// Immutable inputs of the propensity kernels: the batch's SoA counts and
/// the per-slot rate/reactant/plan tables (slot-indexed, i.e. already
/// filtered to non-zero-rate rules in rule order).
#[derive(Debug)]
pub(crate) struct SlotView<'a> {
    /// Batch width (replica count).
    pub width: usize,
    /// SoA counts: `counts[sp * width + r]`.
    pub counts: &'a [i64],
    /// Per-slot mass-action rate constants.
    pub rates: &'a [f64],
    /// Per-slot vectorization plans.
    pub plans: &'a [SlotPlan],
    /// Per-slot reactant multiplicities, for the general scalar formula.
    pub reactants: &'a [Vec<(usize, u64)>],
}

impl SlotView<'_> {
    /// Number of reaction slots.
    pub(crate) fn slots(&self) -> usize {
        self.plans.len()
    }

    /// The scalar reference propensity: the exact `u64` binomial selection
    /// count with a single final float cast, then the positive clamp —
    /// the definition every kernel must reproduce bit-for-bit.
    pub(crate) fn propensity(&self, slot: usize, r: usize) -> f64 {
        let mut h: u64 = 1;
        for &(sp, k) in &self.reactants[slot] {
            let n = self.counts[sp * self.width + r];
            debug_assert!(n >= 0, "flat SSA state went negative");
            if (n as u64) < k {
                return 0.0;
            }
            h = h.saturating_mul(binomial(n as u64, k));
            if h == 0 {
                return 0.0;
            }
        }
        let p = self.rates[slot] * h as f64;
        if p > 0.0 {
            p
        } else {
            0.0
        }
    }
}

/// Mutable outputs of the refresh kernels: the propensity matrix, the
/// per-replica prefix columns and the enabled bookkeeping, plus the dirty
/// markers the refresh consumes and clears.
#[derive(Debug)]
pub(crate) struct RefreshOut<'a> {
    /// SoA propensities: `props[slot * width + r]`.
    pub props: &'a mut [f64],
    /// SoA prefix sums of the enabled propensities.
    pub prefix: &'a mut [f64],
    /// Per-replica total propensity (`-0.0` when exhausted).
    pub a0: &'a mut [f64],
    /// Per-replica count of enabled slots.
    pub active: &'a mut [u32],
    /// Per-replica first enabled slot (`u32::MAX` when none).
    pub first_active: &'a mut [u32],
    /// Per-replica dirty markers ([`CLEAN`], [`DIRTY_ALL`] or fired slot).
    pub dirty: &'a mut [u32],
}

/// Reusable scratch set of slot indices (stamp-based, O(1) clear), used
/// by the AVX2 refresh to union the incidence lists of a replica chunk.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl SlotSet {
    /// Sizes the set for `slots` slot indices.
    pub(crate) fn new(slots: usize) -> Self {
        SlotSet {
            stamp: vec![0; slots],
            epoch: 0,
        }
    }

    /// Starts a new (empty) union.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Inserts `slot`; returns `true` the first time it is seen.
    fn insert(&mut self, slot: u32) -> bool {
        let cell = &mut self.stamp[slot as usize];
        if *cell == self.epoch {
            false
        } else {
            *cell = self.epoch;
            true
        }
    }
}

/// Phase 1+2 of the batched round: bring every dirty replica's propensity
/// rows, prefix sums, `a0` and enabled bookkeeping up to date, clearing
/// the dirty markers. Dispatches to the resolved kernel; both paths are
/// bit-for-bit identical (see module docs).
pub(crate) fn refresh(
    kernel: Kernel,
    view: &SlotView<'_>,
    affects: &[Vec<u32>],
    out: &mut RefreshOut<'_>,
    seen: &mut SlotSet,
) {
    match kernel {
        Kernel::Scalar => {
            for r in 0..view.width {
                refresh_lane(view, affects, out, r);
            }
        }
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only constructed by
            // `KernelDispatch::resolve` after `is_x86_feature_detected!`
            // confirmed AVX2 on this CPU.
            unsafe {
                avx2::refresh(view, affects, out, seen)
            }
            #[cfg(not(target_arch = "x86_64"))]
            {
                let _ = seen;
                unreachable!("AVX2 kernel resolved on a non-x86_64 target")
            }
        }
    }
}

/// The scalar reference refresh of one replica lane — recompute the
/// marked slots, then the adds-only prefix fold from the `-0.0` identity
/// (skipping, never adding, disabled propensities). An incremental mark
/// only refolds the suffix from the lowest recomputed slot: the prefix
/// below it is untouched, so reseeding the accumulator from the stored
/// `prefix[from - 1]` bits replays the exact tail of the full fold.
fn refresh_lane(view: &SlotView<'_>, affects: &[Vec<u32>], out: &mut RefreshOut<'_>, r: usize) {
    let w = view.width;
    let nr = view.slots();
    let mark = out.dirty[r];
    if mark == CLEAN {
        return;
    }
    if mark == DIRTY_ALL {
        for j in 0..nr {
            out.props[j * w + r] = view.propensity(j, r);
        }
        fold_lane(view, out, r);
    } else {
        // Enabled-transition bookkeeping: the fold no longer walks the
        // whole column, so the active count is updated by the observed
        // disabled↔enabled flips of the recomputed slots.
        let mut delta = 0i32;
        let mut from = usize::MAX;
        for &j in &affects[mark as usize] {
            let j = j as usize;
            from = from.min(j);
            let old = out.props[j * w + r];
            let new = view.propensity(j, r);
            out.props[j * w + r] = new;
            delta += i32::from(new > 0.0) - i32::from(old > 0.0);
        }
        if from != usize::MAX {
            fold_lane_from(view, out, r, from, delta);
        }
    }
    out.dirty[r] = CLEAN;
}

/// The scalar reference prefix fold of one replica lane.
fn fold_lane(view: &SlotView<'_>, out: &mut RefreshOut<'_>, r: usize) {
    let w = view.width;
    let nr = view.slots();
    let mut a0 = -0.0f64;
    let mut active = 0u32;
    let mut first = u32::MAX;
    for j in 0..nr {
        let p = out.props[j * w + r];
        if p > 0.0 {
            a0 += p;
            if active == 0 {
                first = j as u32;
            }
            active += 1;
        }
        out.prefix[j * w + r] = a0;
    }
    out.a0[r] = a0;
    out.active[r] = active;
    out.first_active[r] = first;
}

/// Partial scalar prefix fold: refolds slots `from..` with the
/// accumulator reseeded from the stored `prefix[from - 1]` (or the
/// `-0.0` identity at slot 0) — bit-for-bit the tail of [`fold_lane`]
/// because the lower slots are unchanged since the last refresh. The
/// active count moves by the caller-observed `delta`; `first_active`
/// keeps its value when it lies below `from` (that region is untouched)
/// and otherwise becomes the first enabled slot at or above `from`.
fn fold_lane_from(
    view: &SlotView<'_>,
    out: &mut RefreshOut<'_>,
    r: usize,
    from: usize,
    delta: i32,
) {
    let w = view.width;
    let nr = view.slots();
    let mut a0 = if from == 0 {
        -0.0f64
    } else {
        out.prefix[(from - 1) * w + r]
    };
    let mut first_ge = u32::MAX;
    for j in from..nr {
        let p = out.props[j * w + r];
        if p > 0.0 {
            a0 += p;
            if first_ge == u32::MAX {
                first_ge = j as u32;
            }
        }
        out.prefix[j * w + r] = a0;
    }
    out.a0[r] = a0;
    out.active[r] = (out.active[r] as i32 + delta) as u32;
    if out.first_active[r] >= from as u32 {
        out.first_active[r] = first_ge;
    }
}

// ---------------------------------------------------------------------------
// Direct-method selection
// ---------------------------------------------------------------------------

/// Slot count up to which the AVX2 selection uses the four-lane counting
/// scan; above it, per-lane binary search wins (the scan is `O(slots)`
/// per chunk, the search `O(log slots)` per lane). Both produce the same
/// index on the non-decreasing prefix columns, so the cutover is purely a
/// speed knob.
const SELECT_SCAN_MAX_SLOTS: usize = 64;

/// Direct-method selection over the prefix columns: for every lane with
/// `mask` set, finds the first slot whose cumulative propensity exceeds
/// the lane's `target` and writes it to `chosen`. Unmasked lanes are left
/// untouched.
///
/// The prefix column is non-decreasing (an adds-only fold of positive
/// propensities), so "first slot crossing the target" is both what a
/// binary search finds and what a count of not-yet-crossed slots yields —
/// the scalar and AVX2 paths use one each and agree exactly, including
/// the last-enabled fallback on floating-point shortfall.
pub(crate) fn select_masked(
    kernel: Kernel,
    prefix: &[f64],
    props: &[f64],
    width: usize,
    mask: &[bool],
    targets: &[f64],
    chosen: &mut [u32],
) {
    match kernel {
        Kernel::Scalar => {
            for r in 0..width {
                if mask[r] {
                    chosen[r] = select_lane(prefix, props, width, r, targets[r]);
                }
            }
        }
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only constructed after runtime
            // AVX2 detection succeeded.
            unsafe {
                avx2::select_masked(prefix, props, width, mask, targets, chosen)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// The scalar reference selection of one lane: binary search for the
/// first slot whose prefix exceeds `target`. The prefix only increases at
/// enabled slots, so the crossing slot is enabled and equals the scalar
/// table's linear scan; on shortfall the last enabled slot wins.
fn select_lane(prefix: &[f64], props: &[f64], width: usize, r: usize, target: f64) -> u32 {
    let nr = prefix.len() / width;
    let (mut lo, mut hi) = (0usize, nr);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if prefix[mid * width + r] > target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if lo < nr {
        debug_assert!(props[lo * width + r] > 0.0, "crossed at a disabled slot");
        return lo as u32;
    }
    shortfall_lane(props, width, r)
}

/// Floating-point shortfall fallback (`target >= a0` after rounding): the
/// last enabled slot, exactly the scalar table's backstop.
fn shortfall_lane(props: &[f64], width: usize, r: usize) -> u32 {
    let nr = props.len() / width;
    (0..nr)
        .rev()
        .find(|&j| props[j * width + r] > 0.0)
        .expect("select called with no enabled reaction") as u32
}

// ---------------------------------------------------------------------------
// Lockstep per-replica RNG streams
// ---------------------------------------------------------------------------

/// The W per-replica RNG streams of a batch in SoA form, advanced in
/// lockstep. Lane `r` is exactly the stream of
/// [`sim_rng`](crate::rng::sim_rng)`(base_seed, first_instance + r)` —
/// xoshiro256++ seeded through the same SplitMix64 expansion as the
/// workspace `rand` stub's `seed_from_u64` (pinned bit-for-bit by this
/// module's tests, so a stub swap breaks loudly instead of silently).
#[derive(Debug, Clone)]
pub(crate) struct BatchRng {
    s0: Vec<u64>,
    s1: Vec<u64>,
    s2: Vec<u64>,
    s3: Vec<u64>,
}

impl BatchRng {
    /// Builds the streams of scalar instances
    /// `first_instance .. first_instance + width`.
    pub(crate) fn new(base_seed: u64, first_instance: u64, width: usize) -> Self {
        let mut rng = BatchRng {
            s0: Vec::with_capacity(width),
            s1: Vec::with_capacity(width),
            s2: Vec::with_capacity(width),
            s3: Vec::with_capacity(width),
        };
        for r in 0..width as u64 {
            let s = seed_state(instance_seed(base_seed, first_instance + r));
            rng.s0.push(s[0]);
            rng.s1.push(s[1]);
            rng.s2.push(s[2]);
            rng.s3.push(s[3]);
        }
        rng
    }

    /// Advances the streams of the lanes where `mask` is set by one draw
    /// each, writing the raw word to the same lane of `out`. Unmasked
    /// lanes advance nothing and leave their `out` slot untouched — the
    /// stream positions stay exactly the scalar engines' positions.
    pub(crate) fn fill_masked(&mut self, kernel: Kernel, mask: &[bool], out: &mut [u64]) {
        debug_assert_eq!(mask.len(), self.s0.len());
        debug_assert_eq!(out.len(), self.s0.len());
        match kernel {
            Kernel::Scalar => {
                for r in 0..self.s0.len() {
                    if mask[r] {
                        out[r] = self.step_lane(r);
                    }
                }
            }
            Kernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Kernel::Avx2` is only constructed after
                // runtime AVX2 detection succeeded.
                unsafe {
                    avx2::fill_masked(self, mask, out)
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("AVX2 kernel resolved on a non-x86_64 target")
            }
        }
    }

    /// Two consecutive masked draws in one sweep: lane `r` first draws
    /// into `out_a` if `mask_a[r]`, then into `out_b` if `mask_b[r]` —
    /// exactly the per-lane stream order of calling
    /// [`BatchRng::fill_masked`] twice, but the AVX2 path loads and
    /// stores each chunk's state once instead of twice. Unmasked slots
    /// are left untouched.
    pub(crate) fn fill_masked2(
        &mut self,
        kernel: Kernel,
        mask_a: &[bool],
        out_a: &mut [u64],
        mask_b: &[bool],
        out_b: &mut [u64],
    ) {
        debug_assert_eq!(mask_a.len(), self.s0.len());
        debug_assert_eq!(mask_b.len(), self.s0.len());
        match kernel {
            Kernel::Scalar => {
                for r in 0..self.s0.len() {
                    if mask_a[r] {
                        out_a[r] = self.step_lane(r);
                    }
                    if mask_b[r] {
                        out_b[r] = self.step_lane(r);
                    }
                }
            }
            Kernel::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `Kernel::Avx2` is only constructed after
                // runtime AVX2 detection succeeded.
                unsafe {
                    avx2::fill_masked2(self, mask_a, out_a, mask_b, out_b)
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("AVX2 kernel resolved on a non-x86_64 target")
            }
        }
    }

    /// One scalar xoshiro256++ step of lane `r` — the same update the
    /// workspace `rand` stub's `StdRng::next_u64` performs.
    fn step_lane(&mut self, r: usize) -> u64 {
        let result = self.s0[r]
            .wrapping_add(self.s3[r])
            .rotate_left(23)
            .wrapping_add(self.s0[r]);
        let t = self.s1[r] << 17;
        self.s2[r] ^= self.s0[r];
        self.s3[r] ^= self.s1[r];
        self.s1[r] ^= self.s2[r];
        self.s0[r] ^= self.s3[r];
        self.s2[r] ^= t;
        self.s3[r] = self.s3[r].rotate_left(45);
        result
    }
}

/// Expands a `u64` seed into xoshiro256++ state exactly as the workspace
/// `rand` stub's `StdRng::seed_from_u64` does: four words of a SplitMix64
/// stream, with the all-zero fixed point nudged to fixed constants.
fn seed_state(seed: u64) -> [u64; 4] {
    let mut sm = seed;
    let mut s = [0u64; 4];
    for w in &mut s {
        sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = sm;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *w = z ^ (z >> 31);
    }
    if s == [0; 4] {
        s = [
            0x9e37_79b9_7f4a_7c15,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
            0x2545_f491_4f6c_dd1d,
        ];
    }
    s
}

/// Adapter that replays one prefetched raw word through the `rand` stub's
/// own range-mapping code, so the batched tier maps raw draws to floats
/// with *exactly* the scalar engines' arithmetic (a float `gen_range`
/// consumes exactly one `next_u64`; pinned by this module's tests).
struct Prefetched(u64);

impl RngCore for Prefetched {
    fn next_u32(&mut self) -> u32 {
        (self.0 >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// Maps one raw lane word to a uniform sample of `range` with the scalar
/// engines' exact `gen_range` arithmetic.
pub(crate) fn range_from_raw(raw: u64, range: Range<f64>) -> f64 {
    Prefetched(raw).gen_range(range)
}

// ---------------------------------------------------------------------------
// Width-1 row kernels (the adaptive / hybrid / fixed tau-leap hot path)
// ---------------------------------------------------------------------------
//
// The scalar leaping engines keep *one* replica's propensities in a dense
// row (`props[rule]`) instead of the batch tier's slot-major matrix. Their
// per-draw scans — the a0 / a0_crit folds, the direct-method and critical
// selections — are the width-1 siblings of the lane kernels above and
// follow the same bit-for-bit discipline: the fold is an ordered adds-only
// `-0.0`-identity accumulation that skips non-positive entries, a partial
// refold reseeds from the stored `prefix[from - 1]` bits, and selection on
// the non-decreasing prefix row agrees exactly with the linear accumulate
// scan it replaces (crossing index and floating-point-shortfall included).
// The AVX2 variants keep the adds in scalar order (an ordered fold cannot
// be reassociated) and win by *skipping*: four-lane compares classify
// whole chunks as disabled/unmasked and store the flat accumulator
// without touching the lanes.

/// Dense bitmask over rule indices backed by `u64` words, with
/// ascending-order set-bit iteration — the active-rule list of the
/// width-1 row tier. Bit operations are exact integers, so the mask layer
/// itself needs no scalar/SIMD split; the folds and selections consuming
/// it do.
#[derive(Debug, Clone, Default)]
pub(crate) struct RuleMask {
    words: Vec<u64>,
    len: usize,
}

impl RuleMask {
    /// An all-clear mask over `len` rules.
    pub(crate) fn new(len: usize) -> Self {
        RuleMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Whether bit `i` is set.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Sets bit `i` to `on`, returning the previous value.
    #[inline]
    pub(crate) fn assign(&mut self, i: usize, on: bool) -> bool {
        debug_assert!(i < self.len);
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        let was = *word & bit != 0;
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
        was
    }

    /// Clears every bit (test-only: the engines rebuild masks in place
    /// via [`RuleMask::assign`]).
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Ascending iteration over the set bits (test-only: the reference
    /// for [`RuleMask::iter_minus`]; the engines sweep via `iter_minus`).
    #[cfg(test)]
    pub(crate) fn iter(&self) -> SetBits<'_> {
        SetBits {
            words: &self.words,
            word: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The highest set index, or `None` when the mask is empty.
    pub(crate) fn last_set(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate().rev() {
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
        }
        None
    }

    /// Ascending iteration over the bits set here and clear in `minus`
    /// (the enabled-and-not-critical sweep order of the leap engines).
    pub(crate) fn iter_minus<'a>(&'a self, minus: &'a RuleMask) -> SetBitsMinus<'a> {
        debug_assert_eq!(self.len, minus.len);
        let current = match (self.words.first(), minus.words.first()) {
            (Some(&a), Some(&b)) => a & !b,
            (Some(&a), None) => a,
            _ => 0,
        };
        SetBitsMinus {
            words: &self.words,
            minus: &minus.words,
            word: 0,
            current,
        }
    }
}

/// Ascending set-bit iterator of a [`RuleMask`] (test-only, see
/// [`RuleMask::iter`]).
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct SetBits<'a> {
    words: &'a [u64],
    word: usize,
    current: u64,
}

#[cfg(test)]
impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word * 64 + bit)
    }
}

/// Ascending iterator over `a & !b` of two [`RuleMask`]s.
#[derive(Debug)]
pub(crate) struct SetBitsMinus<'a> {
    words: &'a [u64],
    minus: &'a [u64],
    word: usize,
    current: u64,
}

impl Iterator for SetBitsMinus<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word += 1;
            if self.word >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word] & !self.minus[self.word];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word * 64 + bit)
    }
}

/// Partial refold of a width-1 prefix row over the *enabled* (positive)
/// propensities: reseeds the accumulator from `prefix[from - 1]` (the
/// `-0.0` identity at 0), replays the adds-only fold over `from..`, and
/// returns the total — bit-for-bit the tail of the full fold because the
/// lower slots are untouched since the last refold.
pub(crate) fn row_fold_from(kernel: Kernel, props: &[f64], prefix: &mut [f64], from: usize) -> f64 {
    debug_assert_eq!(props.len(), prefix.len());
    let seed = if from == 0 { -0.0f64 } else { prefix[from - 1] };
    match kernel {
        Kernel::Scalar => {
            let mut acc = seed;
            for j in from..props.len() {
                let p = props[j];
                if p > 0.0 {
                    acc += p;
                }
                prefix[j] = acc;
            }
            acc
        }
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Avx2` is only constructed by
            // `KernelDispatch::resolve` after runtime AVX2 detection.
            unsafe {
                avx2::row_fold_from(props, prefix, from, seed)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// Like [`row_fold_from`], adding only the slots set in `mask` (the
/// critical block's a0_crit row). Masked slots are enabled by
/// construction; the defensive `p > 0.0` test keeps the `-0.0` identity
/// safe regardless.
pub(crate) fn row_fold_masked_from(
    kernel: Kernel,
    props: &[f64],
    mask: &RuleMask,
    prefix: &mut [f64],
    from: usize,
) -> f64 {
    debug_assert_eq!(props.len(), prefix.len());
    debug_assert_eq!(props.len(), mask.len);
    let seed = if from == 0 { -0.0f64 } else { prefix[from - 1] };
    match kernel {
        Kernel::Scalar => {
            let mut acc = seed;
            for j in from..props.len() {
                let p = props[j];
                if p > 0.0 && mask.get(j) {
                    acc += p;
                }
                prefix[j] = acc;
            }
            acc
        }
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `row_fold_from`.
            unsafe {
                avx2::row_fold_masked_from(props, mask, prefix, from, seed)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// Adds-only `-0.0`-identity fold of the positive entries of `props` —
/// the a0 of a width-1 row without materialising the prefix column (the
/// hybrid decide path and the fixed-leap absorbing probe need only the
/// total). Bit-identical to the plain `iter().sum()` it replaces whenever
/// at least one propensity is positive; when none is, it returns `-0.0`
/// where the sum returned `0.0`, and the two compare equal in every
/// ordering the engines use.
pub(crate) fn row_sum(kernel: Kernel, props: &[f64]) -> f64 {
    match kernel {
        Kernel::Scalar => {
            let mut acc = -0.0f64;
            for &p in props {
                if p > 0.0 {
                    acc += p;
                }
            }
            acc
        }
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `row_fold_from`.
            unsafe {
                avx2::row_sum(props)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// Direct-method selection on a width-1 non-decreasing prefix row: the
/// first slot whose cumulative propensity exceeds `target`, or
/// `prefix.len()` on floating-point shortfall (the caller applies its
/// engine's backstop rule — last slot for the exact-step scan, last
/// critical slot for the critical block). Scalar: binary search. AVX2:
/// four-lane counting scan up to [`SELECT_SCAN_MAX_SLOTS`] slots, binary
/// search above — identical by the count-of-not-crossed argument of
/// [`select_masked`].
pub(crate) fn row_select(kernel: Kernel, prefix: &[f64], target: f64) -> usize {
    match kernel {
        Kernel::Scalar => row_search(prefix, target),
        Kernel::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `row_fold_from`.
            unsafe {
                avx2::row_select(prefix, target)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 kernel resolved on a non-x86_64 target")
        }
    }
}

/// The scalar reference selection: binary search for the first slot whose
/// prefix exceeds `target`. On a non-decreasing row this is exactly the
/// linear accumulate scan's crossing index, because the prefix only
/// increases at enabled slots.
fn row_search(prefix: &[f64], target: f64) -> usize {
    let (mut lo, mut hi) = (0usize, prefix.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if prefix[mid] > target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

// ---------------------------------------------------------------------------
// AVX2 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BatchRng, RefreshOut, SlotPlan, SlotSet, SlotView, CLEAN, DIRTY_ALL};
    use core::arch::x86_64::*;

    /// f64 lanes per AVX2 vector.
    const LANES: usize = 4;
    /// Largest count exactly convertible by [`small_counts_to_f64`] (and
    /// identical to the scalar `as f64` cast, which is exact below 2⁵³).
    const MAX_EXACT: i64 = (1 << 52) - 1;
    /// Largest count whose pair product stays below 2⁵² — the guard for
    /// the two-factor plans, keeping every intermediate exact in `f64`.
    const MAX_EXACT_PAIR: i64 = (1 << 26) - 1;

    /// AVX2 refresh: four replica lanes per chunk, scalar reference on
    /// the tail lanes. A chunk is refreshed whenever any of its lanes is
    /// dirty — recomputing a clean lane rewrites identical bits because
    /// the propensity and the fold are pure functions of the counts.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn refresh(
        view: &SlotView<'_>,
        affects: &[Vec<u32>],
        out: &mut RefreshOut<'_>,
        seen: &mut SlotSet,
    ) {
        let w = view.width;
        let nr = view.slots();
        let mut r0 = 0;
        while r0 + LANES <= w {
            let marks = [
                out.dirty[r0],
                out.dirty[r0 + 1],
                out.dirty[r0 + 2],
                out.dirty[r0 + 3],
            ];
            if marks.iter().all(|&m| m == CLEAN) {
                r0 += LANES;
                continue;
            }
            if marks.contains(&DIRTY_ALL) {
                for slot in 0..nr {
                    compute_slot4(view, slot, r0, out.props);
                }
                fold4(view, out, r0);
            } else {
                // Union of the dirty lanes' incidence lists: each slot is
                // recomputed once for the whole chunk, tracking per-lane
                // disabled↔enabled flips (enabled masks are all-ones, so
                // subtracting the new mask and adding the old one nets the
                // active-count delta) and the lowest recomputed slot, from
                // which the partial fold refolds the prefix suffix.
                seen.begin();
                let zero_pd = _mm256_setzero_pd();
                let mut delta = _mm256_setzero_si256();
                let mut from = usize::MAX;
                for &mark in &marks {
                    if mark == CLEAN {
                        continue;
                    }
                    for &slot in &affects[mark as usize] {
                        if seen.insert(slot) {
                            let j = slot as usize;
                            from = from.min(j);
                            // SAFETY: slot and chunk bounds are guaranteed
                            // by the SoA layout (`j < nr`, `r0 + LANES <= w`);
                            // the pointer is re-derived after the recompute's
                            // mutable borrow of `props` ends.
                            let old = _mm256_loadu_pd(out.props.as_ptr().add(j * w + r0));
                            compute_slot4(view, j, r0, out.props);
                            let new = _mm256_loadu_pd(out.props.as_ptr().add(j * w + r0));
                            let old_en =
                                _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_GT_OQ>(old, zero_pd));
                            let new_en =
                                _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_GT_OQ>(new, zero_pd));
                            delta = _mm256_add_epi64(delta, old_en);
                            delta = _mm256_sub_epi64(delta, new_en);
                        }
                    }
                }
                if from != usize::MAX {
                    fold4_from(view, out, r0, from, delta);
                }
            }
            out.dirty[r0..r0 + LANES].fill(CLEAN);
            r0 += LANES;
        }
        for r in r0..w {
            super::refresh_lane(view, affects, out, r);
        }
    }

    /// Recomputes one reaction slot for the four replica lanes at `r0`.
    /// Vector path for the planned shapes under the exactness guards,
    /// scalar reference otherwise.
    #[target_feature(enable = "avx2")]
    unsafe fn compute_slot4(view: &SlotView<'_>, slot: usize, r0: usize, props: &mut [f64]) {
        let w = view.width;
        let rate = view.rates[slot];
        match view.plans[slot] {
            SlotPlan::K1 { sp } => {
                let n = load_counts(view.counts, sp * w + r0);
                if exceeds(n, MAX_EXACT) {
                    return scalar_slot4(view, slot, r0, props);
                }
                let h = small_counts_to_f64(n);
                store_scaled_clamped(rate, h, props, slot * w + r0);
            }
            SlotPlan::K2 { sp } => {
                let n = load_counts(view.counts, sp * w + r0);
                if exceeds(n, MAX_EXACT_PAIR) {
                    return scalar_slot4(view, slot, r0, props);
                }
                let nf = small_counts_to_f64(n);
                // binomial(n, 2) = n(n-1)/2: the product stays below 2⁵²
                // (guarded), so multiply and halving are exact, matching
                // the integer formula bit-for-bit.
                let h = _mm256_mul_pd(
                    _mm256_mul_pd(nf, _mm256_sub_pd(nf, _mm256_set1_pd(1.0))),
                    _mm256_set1_pd(0.5),
                );
                store_scaled_clamped(rate, h, props, slot * w + r0);
            }
            SlotPlan::K11 { a, b } => {
                let na = load_counts(view.counts, a * w + r0);
                let nb = load_counts(view.counts, b * w + r0);
                if exceeds(na, MAX_EXACT_PAIR) || exceeds(nb, MAX_EXACT_PAIR) {
                    return scalar_slot4(view, slot, r0, props);
                }
                let h = _mm256_mul_pd(small_counts_to_f64(na), small_counts_to_f64(nb));
                store_scaled_clamped(rate, h, props, slot * w + r0);
            }
            SlotPlan::General => scalar_slot4(view, slot, r0, props),
        }
    }

    /// The scalar reference formula on each lane of a chunk.
    fn scalar_slot4(view: &SlotView<'_>, slot: usize, r0: usize, props: &mut [f64]) {
        let w = view.width;
        for lane in 0..LANES {
            props[slot * w + r0 + lane] = view.propensity(slot, r0 + lane);
        }
    }

    /// Four-lane prefix fold: same slot order, same adds, with the
    /// enabled-only accumulation expressed as a blend so disabled slots
    /// keep the accumulator's old bits (`-0.0` identity preserved).
    #[target_feature(enable = "avx2")]
    unsafe fn fold4(view: &SlotView<'_>, out: &mut RefreshOut<'_>, r0: usize) {
        let w = view.width;
        let nr = view.slots();
        let zero_pd = _mm256_setzero_pd();
        let zero_si = _mm256_setzero_si256();
        let mut acc = _mm256_set1_pd(-0.0);
        let mut active = zero_si;
        let mut first = _mm256_set1_epi64x(u32::MAX as i64);
        for j in 0..nr {
            let p = _mm256_loadu_pd(out.props.as_ptr().add(j * w + r0));
            let enabled = _mm256_cmp_pd::<_CMP_GT_OQ>(p, zero_pd);
            acc = _mm256_blendv_pd(acc, _mm256_add_pd(acc, p), enabled);
            let enabled_si = _mm256_castpd_si256(enabled);
            let is_first = _mm256_and_si256(enabled_si, _mm256_cmpeq_epi64(active, zero_si));
            first = _mm256_blendv_epi8(first, _mm256_set1_epi64x(j as i64), is_first);
            // Enabled lanes are all-ones (-1): subtracting increments.
            active = _mm256_sub_epi64(active, enabled_si);
            _mm256_storeu_pd(out.prefix.as_mut_ptr().add(j * w + r0), acc);
        }
        _mm256_storeu_pd(out.a0.as_mut_ptr().add(r0), acc);
        let mut counts = [0i64; LANES];
        let mut firsts = [0i64; LANES];
        _mm256_storeu_si256(counts.as_mut_ptr().cast::<__m256i>(), active);
        _mm256_storeu_si256(firsts.as_mut_ptr().cast::<__m256i>(), first);
        for lane in 0..LANES {
            out.active[r0 + lane] = counts[lane] as u32;
            out.first_active[r0 + lane] = firsts[lane] as u32;
        }
    }

    /// Four-lane partial prefix fold: refolds slots `from..` with the
    /// accumulator reseeded from the stored `prefix[from - 1]` lanes (or
    /// the `-0.0` identity at slot 0) — the exact tail of [`fold4`], since
    /// the lower slots are untouched. `delta` carries the per-lane
    /// enabled-transition counts observed during the slot recompute;
    /// `first_active` keeps lanes whose value lies below `from` and
    /// otherwise takes the first enabled slot at or above it (the scalar
    /// [`super::fold_lane_from`] rule).
    #[target_feature(enable = "avx2")]
    unsafe fn fold4_from(
        view: &SlotView<'_>,
        out: &mut RefreshOut<'_>,
        r0: usize,
        from: usize,
        delta: __m256i,
    ) {
        let w = view.width;
        let nr = view.slots();
        let zero_pd = _mm256_setzero_pd();
        let mut acc = if from == 0 {
            _mm256_set1_pd(-0.0)
        } else {
            _mm256_loadu_pd(out.prefix.as_ptr().add((from - 1) * w + r0))
        };
        let mut first_ge = _mm256_set1_epi64x(u32::MAX as i64);
        let mut seen_any = _mm256_setzero_si256();
        for j in from..nr {
            let p = _mm256_loadu_pd(out.props.as_ptr().add(j * w + r0));
            let enabled = _mm256_cmp_pd::<_CMP_GT_OQ>(p, zero_pd);
            acc = _mm256_blendv_pd(acc, _mm256_add_pd(acc, p), enabled);
            let enabled_si = _mm256_castpd_si256(enabled);
            let is_first = _mm256_andnot_si256(seen_any, enabled_si);
            first_ge = _mm256_blendv_epi8(first_ge, _mm256_set1_epi64x(j as i64), is_first);
            seen_any = _mm256_or_si256(seen_any, enabled_si);
            _mm256_storeu_pd(out.prefix.as_mut_ptr().add(j * w + r0), acc);
        }
        _mm256_storeu_pd(out.a0.as_mut_ptr().add(r0), acc);
        let mut deltas = [0i64; LANES];
        let mut firsts = [0i64; LANES];
        _mm256_storeu_si256(deltas.as_mut_ptr().cast::<__m256i>(), delta);
        _mm256_storeu_si256(firsts.as_mut_ptr().cast::<__m256i>(), first_ge);
        for lane in 0..LANES {
            let r = r0 + lane;
            out.active[r] = (i64::from(out.active[r]) + deltas[lane]) as u32;
            if out.first_active[r] >= from as u32 {
                out.first_active[r] = firsts[lane] as u32;
            }
        }
    }

    /// Loads four consecutive replica counts as `i64` lanes.
    #[target_feature(enable = "avx2")]
    unsafe fn load_counts(counts: &[i64], at: usize) -> __m256i {
        debug_assert!(at + LANES <= counts.len());
        _mm256_loadu_si256(counts.as_ptr().add(at).cast::<__m256i>())
    }

    /// Whether any lane exceeds `limit` (counts are non-negative, so the
    /// signed compare is exact).
    #[target_feature(enable = "avx2")]
    unsafe fn exceeds(n: __m256i, limit: i64) -> bool {
        let over = _mm256_cmpgt_epi64(n, _mm256_set1_epi64x(limit));
        _mm256_movemask_epi8(over) != 0
    }

    /// Exact `u64 → f64` conversion for lanes in `[0, 2⁵²)`: OR the value
    /// into the mantissa of 2⁵² and subtract 2⁵² — no rounding occurs, so
    /// the result equals the scalar `as f64` cast bit-for-bit.
    #[target_feature(enable = "avx2")]
    unsafe fn small_counts_to_f64(n: __m256i) -> __m256d {
        let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000);
        _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(n, magic)),
            _mm256_set1_pd(4_503_599_627_370_496.0),
        )
    }

    /// `props[at..at+4] = clamp(rate * h)` with the scalar positive clamp:
    /// lanes not strictly positive store exactly `+0.0` (the AND with the
    /// all-zero mask), matching the scalar `if p > 0.0 { p } else { 0.0 }`.
    #[target_feature(enable = "avx2")]
    unsafe fn store_scaled_clamped(rate: f64, h: __m256d, props: &mut [f64], at: usize) {
        debug_assert!(at + LANES <= props.len());
        let p = _mm256_mul_pd(_mm256_set1_pd(rate), h);
        let positive = _mm256_cmp_pd::<_CMP_GT_OQ>(p, _mm256_setzero_pd());
        _mm256_storeu_pd(props.as_mut_ptr().add(at), _mm256_and_pd(p, positive));
    }

    /// Masked four-lane xoshiro256++ step: all lanes compute the next
    /// word, but only masked lanes commit the new state (and their `out`
    /// slot) — unmasked streams stay put, like the scalar discipline.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_masked(rng: &mut BatchRng, mask: &[bool], out: &mut [u64]) {
        let w = rng.s0.len();
        let mut r0 = 0;
        while r0 + LANES <= w {
            let lanes = [
                lane_mask(mask[r0]),
                lane_mask(mask[r0 + 1]),
                lane_mask(mask[r0 + 2]),
                lane_mask(mask[r0 + 3]),
            ];
            if lanes == [0; LANES] {
                r0 += LANES;
                continue;
            }
            let m = _mm256_setr_epi64x(lanes[0], lanes[1], lanes[2], lanes[3]);
            let mut v = load_state(rng, r0);
            let res = masked_step4(&mut v, m);
            store_state(rng, r0, v);
            let old = load_u64(out, r0);
            store_u64(out, r0, _mm256_blendv_epi8(old, res, m));
            r0 += LANES;
        }
        for r in r0..w {
            if mask[r] {
                out[r] = rng.step_lane(r);
            }
        }
    }

    /// Two consecutive masked four-lane draws per chunk with one state
    /// round-trip: the per-lane draw order (first `mask_a`, then
    /// `mask_b`) is exactly two [`fill_masked`] sweeps.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_masked2(
        rng: &mut BatchRng,
        mask_a: &[bool],
        out_a: &mut [u64],
        mask_b: &[bool],
        out_b: &mut [u64],
    ) {
        let w = rng.s0.len();
        let mut r0 = 0;
        while r0 + LANES <= w {
            let la = [
                lane_mask(mask_a[r0]),
                lane_mask(mask_a[r0 + 1]),
                lane_mask(mask_a[r0 + 2]),
                lane_mask(mask_a[r0 + 3]),
            ];
            let lb = [
                lane_mask(mask_b[r0]),
                lane_mask(mask_b[r0 + 1]),
                lane_mask(mask_b[r0 + 2]),
                lane_mask(mask_b[r0 + 3]),
            ];
            if la == [0; LANES] && lb == [0; LANES] {
                r0 += LANES;
                continue;
            }
            let ma = _mm256_setr_epi64x(la[0], la[1], la[2], la[3]);
            let mb = _mm256_setr_epi64x(lb[0], lb[1], lb[2], lb[3]);
            let mut v = load_state(rng, r0);
            let res_a = masked_step4(&mut v, ma);
            let old_a = load_u64(out_a, r0);
            store_u64(out_a, r0, _mm256_blendv_epi8(old_a, res_a, ma));
            let res_b = masked_step4(&mut v, mb);
            let old_b = load_u64(out_b, r0);
            store_u64(out_b, r0, _mm256_blendv_epi8(old_b, res_b, mb));
            store_state(rng, r0, v);
            r0 += LANES;
        }
        for r in r0..w {
            if mask_a[r] {
                out_a[r] = rng.step_lane(r);
            }
            if mask_b[r] {
                out_b[r] = rng.step_lane(r);
            }
        }
    }

    /// One masked four-lane xoshiro256++ step on in-register state: every
    /// lane computes the next word, but only masked lanes commit the new
    /// state; the raw results of all lanes are returned (callers blend
    /// them into their output under the same mask).
    #[target_feature(enable = "avx2")]
    unsafe fn masked_step4(v: &mut [__m256i; 4], m: __m256i) -> __m256i {
        // result = rotl(s0 + s3, 23) + s0
        let sum = _mm256_add_epi64(v[0], v[3]);
        let res = _mm256_add_epi64(rotl23(sum), v[0]);
        // xoshiro256++ state update, all in branch-free u64 lanes.
        let t = _mm256_slli_epi64::<17>(v[1]);
        let n2 = _mm256_xor_si256(v[2], v[0]);
        let n3 = _mm256_xor_si256(v[3], v[1]);
        let n1 = _mm256_xor_si256(v[1], n2);
        let n0 = _mm256_xor_si256(v[0], n3);
        let n2 = _mm256_xor_si256(n2, t);
        let n3 = rotl45(n3);
        v[0] = _mm256_blendv_epi8(v[0], n0, m);
        v[1] = _mm256_blendv_epi8(v[1], n1, m);
        v[2] = _mm256_blendv_epi8(v[2], n2, m);
        v[3] = _mm256_blendv_epi8(v[3], n3, m);
        res
    }

    #[target_feature(enable = "avx2")]
    unsafe fn load_state(rng: &BatchRng, r0: usize) -> [__m256i; 4] {
        [
            load_u64(&rng.s0, r0),
            load_u64(&rng.s1, r0),
            load_u64(&rng.s2, r0),
            load_u64(&rng.s3, r0),
        ]
    }

    #[target_feature(enable = "avx2")]
    unsafe fn store_state(rng: &mut BatchRng, r0: usize, v: [__m256i; 4]) {
        store_u64(&mut rng.s0, r0, v[0]);
        store_u64(&mut rng.s1, r0, v[1]);
        store_u64(&mut rng.s2, r0, v[2]);
        store_u64(&mut rng.s3, r0, v[3]);
    }

    /// Four-lane direct-method selection (see [`super::select_masked`]):
    /// counts the slots each lane's prefix has not yet crossed. The
    /// per-slot predicate is `!(prefix > target)` — bitwise the binary
    /// search's — and the prefix column is non-decreasing, so the count
    /// equals the search's crossing index; once every lane crossed, later
    /// slots cannot cross back and the scan stops early.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn select_masked(
        prefix: &[f64],
        props: &[f64],
        width: usize,
        mask: &[bool],
        targets: &[f64],
        chosen: &mut [u32],
    ) {
        let nr = prefix.len() / width;
        let mut r0 = 0;
        while r0 + LANES <= width {
            if !(mask[r0] || mask[r0 + 1] || mask[r0 + 2] || mask[r0 + 3]) {
                r0 += LANES;
                continue;
            }
            if nr > super::SELECT_SCAN_MAX_SLOTS {
                for r in r0..r0 + LANES {
                    if mask[r] {
                        chosen[r] = super::select_lane(prefix, props, width, r, targets[r]);
                    }
                }
                r0 += LANES;
                continue;
            }
            let t = _mm256_loadu_pd(targets.as_ptr().add(r0));
            let mut not_crossed_count = _mm256_setzero_si256();
            for j in 0..nr {
                let p = _mm256_loadu_pd(prefix.as_ptr().add(j * width + r0));
                // `not greater than` (unordered-quiet) is exactly the
                // negation of the search's `prefix > target` per slot.
                let not_crossed = _mm256_cmp_pd::<_CMP_NGT_UQ>(p, t);
                let nc_si = _mm256_castpd_si256(not_crossed);
                if _mm256_testz_si256(nc_si, nc_si) == 1 {
                    break;
                }
                // Not-crossed lanes are all-ones (-1): subtract increments.
                not_crossed_count = _mm256_sub_epi64(not_crossed_count, nc_si);
            }
            let mut counts = [0i64; LANES];
            _mm256_storeu_si256(counts.as_mut_ptr().cast::<__m256i>(), not_crossed_count);
            for (lane, &count) in counts.iter().enumerate() {
                let r = r0 + lane;
                if !mask[r] {
                    continue;
                }
                let idx = count as usize;
                chosen[r] = if idx < nr {
                    debug_assert!(props[idx * width + r] > 0.0, "crossed at a disabled slot");
                    idx as u32
                } else {
                    super::shortfall_lane(props, width, r)
                };
            }
            r0 += LANES;
        }
        for r in r0..width {
            if mask[r] {
                chosen[r] = super::select_lane(prefix, props, width, r, targets[r]);
            }
        }
    }

    fn lane_mask(bit: bool) -> i64 {
        if bit {
            -1
        } else {
            0
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn rotl23(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<23>(x), _mm256_srli_epi64::<41>(x))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn rotl45(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<45>(x), _mm256_srli_epi64::<19>(x))
    }

    #[target_feature(enable = "avx2")]
    unsafe fn load_u64(v: &[u64], at: usize) -> __m256i {
        debug_assert!(at + LANES <= v.len());
        _mm256_loadu_si256(v.as_ptr().add(at).cast::<__m256i>())
    }

    #[target_feature(enable = "avx2")]
    unsafe fn store_u64(v: &mut [u64], at: usize, x: __m256i) {
        debug_assert!(at + LANES <= v.len());
        _mm256_storeu_si256(v.as_mut_ptr().add(at).cast::<__m256i>(), x)
    }

    // -- width-1 row kernels ------------------------------------------------

    /// Branchless chunk body shared by the row folds: keeps the lanes
    /// selected by `keep` and replaces the rest with `-0.0`, whose
    /// addition is an exact identity on every f64 (`x + (-0.0) == x`
    /// bit-for-bit, including `x == ±0.0` under round-to-nearest), so the
    /// four unconditional serial adds produce exactly the bits of the
    /// per-lane conditional fold.
    #[inline(always)]
    unsafe fn fold_chunk(p: __m256d, keep: __m256d, acc: &mut f64, prefix: *mut f64) {
        let masked = _mm256_blendv_pd(_mm256_set1_pd(-0.0), p, keep);
        let mut lanes = [0.0f64; LANES];
        _mm256_storeu_pd(lanes.as_mut_ptr(), masked);
        let mut a = *acc;
        a += lanes[0];
        *prefix = a;
        a += lanes[1];
        *prefix.add(1) = a;
        a += lanes[2];
        *prefix.add(2) = a;
        a += lanes[3];
        *prefix.add(3) = a;
        *acc = a;
    }

    /// AVX2 `row_fold_from`: the adds happen in exactly the scalar order
    /// (an ordered fold cannot be reassociated without changing bits);
    /// the vector win is chunk classification — a four-lane compare spots
    /// all-disabled chunks and stores the flat accumulator without
    /// touching the lanes — plus the branchless `-0.0`-identity chunk
    /// body of [`fold_chunk`] for the rest.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_fold_from(
        props: &[f64],
        prefix: &mut [f64],
        from: usize,
        seed: f64,
    ) -> f64 {
        let n = props.len();
        let mut acc = seed;
        let mut j = from;
        while j + LANES <= n {
            let p = _mm256_loadu_pd(props.as_ptr().add(j));
            let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(p, _mm256_setzero_pd());
            let bits = _mm256_movemask_pd(pos);
            if bits == 0 {
                _mm256_storeu_pd(prefix.as_mut_ptr().add(j), _mm256_set1_pd(acc));
            } else {
                fold_chunk(p, pos, &mut acc, prefix.as_mut_ptr().add(j));
            }
            j += LANES;
        }
        while j < n {
            let p = props[j];
            if p > 0.0 {
                acc += p;
            }
            prefix[j] = acc;
            j += 1;
        }
        acc
    }

    /// AVX2 `row_fold_masked_from`: like [`row_fold_from`] with the add
    /// predicate `p > 0 && mask`. The head runs scalar until the slot
    /// index is 4-aligned, so every chunk's mask nibble sits inside one
    /// `u64` word (64 is a multiple of 4).
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_fold_masked_from(
        props: &[f64],
        mask: &super::RuleMask,
        prefix: &mut [f64],
        from: usize,
        seed: f64,
    ) -> f64 {
        let n = props.len();
        let mut acc = seed;
        let mut j = from;
        while j < n && j % LANES != 0 {
            let p = props[j];
            if p > 0.0 && mask.get(j) {
                acc += p;
            }
            prefix[j] = acc;
            j += 1;
        }
        // Nibble → per-lane all-ones/all-zeros selector (index bit k sets
        // lane k), so the chunk body can blend instead of branching.
        const LANE_MASKS: [[u64; 4]; 16] = {
            let mut t = [[0u64; 4]; 16];
            let mut m = 0;
            while m < 16 {
                let mut lane = 0;
                while lane < 4 {
                    if m & (1 << lane) != 0 {
                        t[m][lane] = u64::MAX;
                    }
                    lane += 1;
                }
                m += 1;
            }
            t
        };
        while j + LANES <= n {
            let nibble = ((mask.words[j / 64] >> (j % 64)) & 0xF) as usize;
            if nibble == 0 {
                _mm256_storeu_pd(prefix.as_mut_ptr().add(j), _mm256_set1_pd(acc));
                j += LANES;
                continue;
            }
            let p = _mm256_loadu_pd(props.as_ptr().add(j));
            let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(p, _mm256_setzero_pd());
            let sel = _mm256_loadu_pd(LANE_MASKS[nibble].as_ptr().cast::<f64>());
            let keep = _mm256_and_pd(pos, sel);
            fold_chunk(p, keep, &mut acc, prefix.as_mut_ptr().add(j));
            j += LANES;
        }
        while j < n {
            let p = props[j];
            if p > 0.0 && mask.get(j) {
                acc += p;
            }
            prefix[j] = acc;
            j += 1;
        }
        acc
    }

    /// AVX2 `row_sum`: the fold total without the prefix column.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_sum(props: &[f64]) -> f64 {
        let n = props.len();
        let mut acc = -0.0f64;
        let mut j = 0;
        while j + LANES <= n {
            let p = _mm256_loadu_pd(props.as_ptr().add(j));
            let pos = _mm256_cmp_pd::<_CMP_GT_OQ>(p, _mm256_setzero_pd());
            let bits = _mm256_movemask_pd(pos);
            if bits != 0 {
                for lane in 0..LANES {
                    if bits & (1 << lane) != 0 {
                        acc += props[j + lane];
                    }
                }
            }
            j += LANES;
        }
        while j < n {
            let p = props[j];
            if p > 0.0 {
                acc += p;
            }
            j += 1;
        }
        acc
    }

    /// AVX2 `row_select`: the counting scan of [`select_masked`] on one
    /// row — on a non-decreasing prefix the count of not-yet-crossed
    /// slots *is* the crossing index, and the scan stops at the first
    /// chunk that is not entirely uncrossed. Wide rows fall back to the
    /// scalar binary search, which finds the same index.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by construction of [`super::Kernel::Avx2`]).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_select(prefix: &[f64], target: f64) -> usize {
        let n = prefix.len();
        if n > super::SELECT_SCAN_MAX_SLOTS {
            return super::row_search(prefix, target);
        }
        let t = _mm256_set1_pd(target);
        let mut count = 0usize;
        let mut j = 0;
        while j + LANES <= n {
            let p = _mm256_loadu_pd(prefix.as_ptr().add(j));
            // `not greater than` (unordered-quiet): the negation of the
            // search's `prefix > target`, per slot.
            let not_crossed = _mm256_cmp_pd::<_CMP_NGT_UQ>(p, t);
            let bits = _mm256_movemask_pd(not_crossed);
            count += bits.count_ones() as usize;
            if bits != 0xF {
                return count;
            }
            j += LANES;
        }
        while j < n {
            if prefix[j] > target {
                return count;
            }
            count += 1;
            j += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::sim_rng;
    use proptest::prelude::*;

    /// The widths the satellite spec pins: scalar-only (1), tail-only
    /// (3), exact chunks (8, 32) and chunks-plus-tail (33).
    const WIDTHS: [usize; 5] = [1, 3, 8, 32, 33];

    /// Both kernels when the CPU has AVX2, scalar alone otherwise (the
    /// proptests then still pin the scalar reference against itself).
    fn kernels_under_test() -> Vec<Kernel> {
        if simd_available() {
            vec![Kernel::Scalar, Kernel::Avx2]
        } else {
            vec![Kernel::Scalar]
        }
    }

    /// A synthetic slot table covering every plan shape: K1, K2, K11 and
    /// two General fallbacks (a triple product and a k=3 binomial).
    fn test_reactants() -> Vec<Vec<(usize, u64)>> {
        vec![
            vec![(0, 1)],
            vec![(1, 2)],
            vec![(0, 1), (2, 1)],
            vec![(0, 1), (1, 1), (2, 1)],
            vec![(2, 3)],
        ]
    }

    const SPECIES: usize = 3;

    /// Every kernel output of one refresh, as raw bits (floats included),
    /// for whole-buffer equality assertions.
    type Bits = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u32>, Vec<u32>, Vec<u32>);

    struct Buffers {
        props: Vec<f64>,
        prefix: Vec<f64>,
        a0: Vec<f64>,
        active: Vec<u32>,
        first_active: Vec<u32>,
        dirty: Vec<u32>,
    }

    impl Buffers {
        fn new(slots: usize, width: usize) -> Self {
            Buffers {
                props: vec![0.0; slots * width],
                prefix: vec![0.0; slots * width],
                a0: vec![-0.0; width],
                active: vec![0; width],
                first_active: vec![u32::MAX; width],
                dirty: vec![DIRTY_ALL; width],
            }
        }

        fn clone_of(other: &Buffers) -> Self {
            Buffers {
                props: other.props.clone(),
                prefix: other.prefix.clone(),
                a0: other.a0.clone(),
                active: other.active.clone(),
                first_active: other.first_active.clone(),
                dirty: other.dirty.clone(),
            }
        }

        fn out(&mut self) -> RefreshOut<'_> {
            RefreshOut {
                props: &mut self.props,
                prefix: &mut self.prefix,
                a0: &mut self.a0,
                active: &mut self.active,
                first_active: &mut self.first_active,
                dirty: &mut self.dirty,
            }
        }

        fn bits(&self) -> Bits {
            (
                self.props.iter().map(|p| p.to_bits()).collect(),
                self.prefix.iter().map(|p| p.to_bits()).collect(),
                self.a0.iter().map(|p| p.to_bits()).collect(),
                self.active.clone(),
                self.first_active.clone(),
                self.dirty.clone(),
            )
        }
    }

    fn refresh_with(
        kernel: Kernel,
        width: usize,
        counts: &[i64],
        rates: &[f64],
        reactants: &[Vec<(usize, u64)>],
        affects: &[Vec<u32>],
        bufs: &mut Buffers,
    ) {
        let plans: Vec<SlotPlan> = reactants.iter().map(|r| SlotPlan::of(r)).collect();
        let view = SlotView {
            width,
            counts,
            rates,
            plans: &plans,
            reactants,
        };
        let mut seen = SlotSet::new(reactants.len());
        refresh(kernel, &view, affects, &mut bufs.out(), &mut seen);
    }

    proptest! {
        #[test]
        fn propensity_and_fold_kernels_are_bit_identical(
            width_idx in 0usize..5,
            pool in proptest::collection::vec(0u64..400, SPECIES * 33),
            rates in proptest::collection::vec(0.01f64..5.0, 5),
        ) {
            let width = WIDTHS[width_idx];
            let reactants = test_reactants();
            let affects: Vec<Vec<u32>> = vec![Vec::new(); reactants.len()];
            let mut counts = vec![0i64; SPECIES * width];
            for sp in 0..SPECIES {
                for r in 0..width {
                    counts[sp * width + r] = pool[sp * 33 + r] as i64;
                }
            }
            let mut reference: Option<_> = None;
            for kernel in kernels_under_test() {
                let mut bufs = Buffers::new(reactants.len(), width);
                refresh_with(kernel, width, &counts, &rates, &reactants, &affects, &mut bufs);
                let got = bufs.bits();
                match &reference {
                    None => reference = Some(got),
                    Some(want) => prop_assert!(
                        &got == want,
                        "kernel {kernel:?} diverged from the scalar reference at width {width}"
                    ),
                }
            }
        }
    }

    #[test]
    fn magnitude_guards_fall_back_to_the_scalar_formula_bit_for_bit() {
        // Counts straddling both guards: the K1 2⁵² bound and the paired
        // 2²⁶ bound, plus saturation-heavy values for the General slots.
        let width = 8;
        let huge: [i64; 8] = [
            0,
            1,
            (1 << 26) - 1,
            (1 << 26) + 5,
            (1 << 52) - 1,
            (1 << 52) + 7,
            (1 << 60) + 123,
            12_345,
        ];
        let reactants = test_reactants();
        let affects: Vec<Vec<u32>> = vec![Vec::new(); reactants.len()];
        let rates = [1.5, 0.25, 2.0, 0.75, 1.0];
        let mut counts = vec![0i64; SPECIES * width];
        for sp in 0..SPECIES {
            for r in 0..width {
                counts[sp * width + r] = huge[(r + sp) % huge.len()];
            }
        }
        let mut reference: Option<_> = None;
        for kernel in kernels_under_test() {
            let mut bufs = Buffers::new(reactants.len(), width);
            refresh_with(
                kernel, width, &counts, &rates, &reactants, &affects, &mut bufs,
            );
            let got = bufs.bits();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "guard fallback diverged ({kernel:?})"),
            }
        }
    }

    #[test]
    fn exhausted_lanes_fold_to_negative_zero_in_every_kernel() {
        for &width in &WIDTHS {
            let reactants = test_reactants();
            let affects: Vec<Vec<u32>> = vec![Vec::new(); reactants.len()];
            let rates = [1.0, 1.0, 1.0, 1.0, 1.0];
            let counts = vec![0i64; SPECIES * width];
            for kernel in kernels_under_test() {
                let mut bufs = Buffers::new(reactants.len(), width);
                refresh_with(
                    kernel, width, &counts, &rates, &reactants, &affects, &mut bufs,
                );
                for r in 0..width {
                    assert_eq!(
                        bufs.a0[r].to_bits(),
                        (-0.0f64).to_bits(),
                        "kernel {kernel:?} width {width} lane {r}"
                    );
                    assert_eq!(bufs.active[r], 0);
                    assert_eq!(bufs.first_active[r], u32::MAX);
                }
            }
        }
    }

    #[test]
    fn incidence_union_refresh_matches_the_scalar_reference() {
        // Two decoupled decay slots; lanes of one chunk fire *different*
        // slots, so the AVX2 chunk recomputes the union of both incidence
        // lists — including rows that are clean in some lanes, which must
        // rewrite identical bits.
        let width = 8;
        let reactants = vec![vec![(0, 1)], vec![(1, 1)]];
        // Slot 0 consumes species 0, slot 1 consumes species 1.
        let affects: Vec<Vec<u32>> = vec![vec![0], vec![1]];
        let rates = [1.0, 2.0];
        let mut counts = vec![0i64; 2 * width];
        for sp in 0..2 {
            for r in 0..width {
                counts[sp * width + r] = 10 + (sp * width + r) as i64;
            }
        }
        // Consistent baseline: full refresh under the scalar reference.
        let mut scalar = Buffers::new(reactants.len(), width);
        refresh_with(
            Kernel::Scalar,
            width,
            &counts,
            &rates,
            &reactants,
            &affects,
            &mut scalar,
        );
        let baseline = Buffers::clone_of(&scalar);
        // "Fire" slot 0 on lanes 1 and 6, slot 1 on lane 2: mixed marks
        // within and across chunks.
        for (lane, slot) in [(1usize, 0u32), (6, 0), (2, 1)] {
            let sp = reactants[slot as usize][0].0;
            counts[sp * width + lane] -= 1;
            scalar.dirty[lane] = slot;
        }
        refresh_with(
            Kernel::Scalar,
            width,
            &counts,
            &rates,
            &reactants,
            &affects,
            &mut scalar,
        );
        for kernel in kernels_under_test() {
            if kernel == Kernel::Scalar {
                continue;
            }
            let mut bufs = Buffers::clone_of(&baseline);
            for (lane, slot) in [(1usize, 0u32), (6, 0), (2, 1)] {
                bufs.dirty[lane] = slot;
            }
            refresh_with(
                kernel, width, &counts, &rates, &reactants, &affects, &mut bufs,
            );
            assert_eq!(bufs.bits(), scalar.bits(), "incidence union ({kernel:?})");
        }
    }

    proptest! {
        #[test]
        fn masked_rng_kernels_emit_the_scalar_streams_bit_for_bit(
            base_seed in 0u64..10_000,
            first in 0u64..1_000,
            width_idx in 0usize..5,
            mask_words in proptest::collection::vec(0u64..u64::MAX, 40),
        ) {
            let width = WIDTHS[width_idx];
            for kernel in kernels_under_test() {
                let mut batch = BatchRng::new(base_seed, first, width);
                let mut scalars: Vec<_> =
                    (0..width as u64).map(|r| sim_rng(base_seed, first + r)).collect();
                let mut out = vec![0u64; width];
                for word in &mask_words {
                    let mask: Vec<bool> =
                        (0..width).map(|r| (word >> (r % 64)) & 1 == 1).collect();
                    batch.fill_masked(kernel, &mask, &mut out);
                    for (r, scalar) in scalars.iter_mut().enumerate() {
                        if mask[r] {
                            prop_assert!(
                                out[r] == scalar.next_u64(),
                                "kernel {kernel:?} lane {r} left the scalar stream"
                            );
                        }
                    }
                }
                // Unmasked lanes must not have advanced: a full draw now
                // still matches the scalar streams.
                let mask = vec![true; width];
                batch.fill_masked(kernel, &mask, &mut out);
                for (r, scalar) in scalars.iter_mut().enumerate() {
                    prop_assert!(out[r] == scalar.next_u64());
                }
            }
        }

        #[test]
        fn range_from_raw_replays_gen_range_exactly(
            base_seed in 0u64..10_000,
            instance in 0u64..1_000,
            hi in 0.5f64..1.0e6,
        ) {
            // A float `gen_range` must consume exactly one raw word and
            // map it with the stub's arithmetic — the contract that lets
            // the batched tier prefetch raw lanes and replay them.
            let mut direct = sim_rng(base_seed, instance);
            let mut prefetch = direct.clone();
            let want: f64 = direct.gen_range(0.0..hi);
            let raw = prefetch.next_u64();
            let got = range_from_raw(raw, 0.0..hi);
            prop_assert!(got.to_bits() == want.to_bits());
            // Stream positions agree afterwards, too.
            prop_assert!(direct.next_u64() == prefetch.next_u64());

            let mut direct = sim_rng(base_seed, instance.wrapping_add(7));
            let mut prefetch = direct.clone();
            let want: f64 = direct.gen_range(f64::MIN_POSITIVE..1.0);
            let got = range_from_raw(prefetch.next_u64(), f64::MIN_POSITIVE..1.0);
            prop_assert!(got.to_bits() == want.to_bits());
        }
    }

    #[test]
    fn batch_rng_seeding_matches_sim_rng_for_every_width() {
        for &width in &WIDTHS {
            let mut batch = BatchRng::new(2014, 3, width);
            let mask = vec![true; width];
            let mut out = vec![0u64; width];
            let mut scalars: Vec<_> = (0..width as u64).map(|r| sim_rng(2014, 3 + r)).collect();
            for draw in 0..12 {
                batch.fill_masked(Kernel::Scalar, &mask, &mut out);
                for (r, scalar) in scalars.iter_mut().enumerate() {
                    assert_eq!(out[r], scalar.next_u64(), "draw {draw} lane {r} w {width}");
                }
            }
        }
    }

    /// The obviously-correct selection: the first slot whose prefix
    /// exceeds the target, last enabled slot on floating-point shortfall —
    /// the scalar reaction table's linear scan, verbatim.
    fn naive_select(prefix: &[f64], props: &[f64], width: usize, r: usize, target: f64) -> u32 {
        let nr = prefix.len() / width;
        for j in 0..nr {
            if prefix[j * width + r] > target {
                return j as u32;
            }
        }
        (0..nr)
            .rev()
            .find(|&j| props[j * width + r] > 0.0)
            .expect("no enabled slot") as u32
    }

    /// A slot table wider than [`SELECT_SCAN_MAX_SLOTS`], forcing the
    /// AVX2 selection onto its per-lane binary-search arm.
    fn long_reactants() -> Vec<Vec<(usize, u64)>> {
        (0..SELECT_SCAN_MAX_SLOTS + 16)
            .map(|j| vec![(j % SPECIES, 1)])
            .collect()
    }

    proptest! {
        #[test]
        fn selection_kernels_agree_with_the_linear_scan(
            width_idx in 0usize..5,
            pool in proptest::collection::vec(0u64..50, SPECIES * 33),
            fracs in proptest::collection::vec(0.0f64..1.05, 33),
            mask_word in 0u64..u64::MAX,
        ) {
            let width = WIDTHS[width_idx];
            // Both sides of the counting-scan/binary-search cutover.
            for reactants in [test_reactants(), long_reactants()] {
                let rates = vec![0.7; reactants.len()];
                let affects: Vec<Vec<u32>> = vec![Vec::new(); reactants.len()];
                let mut counts = vec![0i64; SPECIES * width];
                for sp in 0..SPECIES {
                    for r in 0..width {
                        counts[sp * width + r] = pool[sp * 33 + r] as i64;
                    }
                }
                let mut bufs = Buffers::new(reactants.len(), width);
                refresh_with(
                    Kernel::Scalar,
                    width,
                    &counts,
                    &rates,
                    &reactants,
                    &affects,
                    &mut bufs,
                );
                // Multi-channel lanes only (the engine's precondition);
                // `frac >= 1` lands the target at or past `a0`, forcing
                // the last-enabled shortfall fallback.
                let mask: Vec<bool> = (0..width)
                    .map(|r| bufs.active[r] > 1 && (mask_word >> (r % 64)) & 1 == 1)
                    .collect();
                let targets: Vec<f64> =
                    (0..width).map(|r| fracs[r] * bufs.a0[r]).collect();
                let mut reference: Option<Vec<u32>> = None;
                for kernel in kernels_under_test() {
                    let mut chosen = vec![u32::MAX; width];
                    select_masked(
                        kernel, &bufs.prefix, &bufs.props, width, &mask, &targets, &mut chosen,
                    );
                    for r in 0..width {
                        if mask[r] {
                            let want =
                                naive_select(&bufs.prefix, &bufs.props, width, r, targets[r]);
                            prop_assert!(
                                chosen[r] == want,
                                "kernel {kernel:?} lane {r} chose {} over {want} \
                                 ({} slots, width {width})",
                                chosen[r],
                                reactants.len()
                            );
                        } else {
                            prop_assert!(chosen[r] == u32::MAX, "unmasked lane {r} written");
                        }
                    }
                    match &reference {
                        None => reference = Some(chosen),
                        Some(want) => prop_assert!(&chosen == want, "kernels diverged"),
                    }
                }
            }
        }

        #[test]
        fn fused_double_fill_matches_two_sequential_fills(
            base_seed in 0u64..10_000,
            first in 0u64..1_000,
            width_idx in 0usize..5,
            words in proptest::collection::vec(0u64..u64::MAX, 12),
        ) {
            let width = WIDTHS[width_idx];
            for kernel in kernels_under_test() {
                let mut fused = BatchRng::new(base_seed, first, width);
                let mut sequential = fused.clone();
                let mut out_a = vec![0u64; width];
                let mut out_b = vec![0u64; width];
                let mut want_a = vec![0u64; width];
                let mut want_b = vec![0u64; width];
                for pair in words.chunks(2) {
                    let mask_a: Vec<bool> =
                        (0..width).map(|r| (pair[0] >> (r % 64)) & 1 == 1).collect();
                    let mask_b: Vec<bool> =
                        (0..width).map(|r| (pair[1] >> (r % 64)) & 1 == 1).collect();
                    fused.fill_masked2(kernel, &mask_a, &mut out_a, &mask_b, &mut out_b);
                    sequential.fill_masked(kernel, &mask_a, &mut want_a);
                    sequential.fill_masked(kernel, &mask_b, &mut want_b);
                    for r in 0..width {
                        if mask_a[r] {
                            prop_assert!(
                                out_a[r] == want_a[r],
                                "kernel {kernel:?} lane {r} first draw diverged"
                            );
                        }
                        if mask_b[r] {
                            prop_assert!(
                                out_b[r] == want_b[r],
                                "kernel {kernel:?} lane {r} second draw diverged"
                            );
                        }
                    }
                }
                // The fused sweep left every stream in the sequential
                // position: a full draw still agrees lane for lane.
                let mask = vec![true; width];
                fused.fill_masked(kernel, &mask, &mut out_a);
                sequential.fill_masked(kernel, &mask, &mut want_a);
                prop_assert!(out_a == want_a, "kernel {kernel:?} desynced the streams");
            }
        }

        #[test]
        fn incremental_refresh_matches_a_full_rebuild(
            width_idx in 0usize..5,
            pool in proptest::collection::vec(1u64..40, SPECIES * 33),
            fired in proptest::collection::vec(0usize..5, 33),
        ) {
            // Random single-slot dirty marks against a from-scratch
            // rebuild of the same counts: the partial prefix fold and its
            // active/first-active transition bookkeeping must land on the
            // full fold's bits in every kernel.
            let width = WIDTHS[width_idx];
            let reactants = test_reactants();
            let rates = [1.5, 0.25, 2.0, 0.75, 1.0];
            // The batch constructor's incidence: slots reading a species
            // the fired slot's delta changes. Consuming one unit of every
            // reactant is a valid delta for this synthetic table.
            let affects: Vec<Vec<u32>> = reactants
                .iter()
                .map(|fired_rs| {
                    reactants
                        .iter()
                        .enumerate()
                        .filter(|(_, rs)| {
                            rs.iter().any(|&(sp, _)| {
                                fired_rs.iter().any(|&(fsp, _)| fsp == sp)
                            })
                        })
                        .map(|(j, _)| j as u32)
                        .collect()
                })
                .collect();
            let mut counts = vec![0i64; SPECIES * width];
            for sp in 0..SPECIES {
                for r in 0..width {
                    counts[sp * width + r] = pool[sp * 33 + r] as i64;
                }
            }
            for kernel in kernels_under_test() {
                let mut bufs = Buffers::new(reactants.len(), width);
                refresh_with(kernel, width, &counts, &rates, &reactants, &affects, &mut bufs);
                // "Fire" one slot per lane: apply its consumption and mark
                // the lane dirty with the slot.
                let mut after = counts.clone();
                for r in 0..width {
                    let slot = fired[r];
                    for &(sp, k) in &reactants[slot] {
                        after[sp * width + r] = (after[sp * width + r] - k as i64).max(0);
                    }
                    bufs.dirty[r] = slot as u32;
                }
                refresh_with(kernel, width, &after, &rates, &reactants, &affects, &mut bufs);
                let mut full = Buffers::new(reactants.len(), width);
                refresh_with(kernel, width, &after, &rates, &reactants, &affects, &mut full);
                prop_assert!(
                    bufs.bits() == full.bits(),
                    "kernel {kernel:?} incremental refresh diverged from a full rebuild \
                     at width {width}"
                );
            }
        }
    }

    #[test]
    fn dispatch_resolution_honours_cpu_and_knob() {
        // The env override is exercised by CI's dispatch-coverage leg
        // (running the whole suite under CWC_FORCE_SCALAR_KERNELS); when
        // it is set, everything must resolve scalar.
        if std::env::var_os(FORCE_SCALAR_ENV).is_some() {
            assert_eq!(KernelDispatch::Auto.resolve(), Kernel::Scalar);
            assert_eq!(KernelDispatch::Scalar.resolve(), Kernel::Scalar);
            return;
        }
        assert_eq!(KernelDispatch::Scalar.resolve(), Kernel::Scalar);
        let want = if simd_available() {
            Kernel::Avx2
        } else {
            Kernel::Scalar
        };
        assert_eq!(KernelDispatch::Auto.resolve(), want);
        assert_eq!("auto".parse::<KernelDispatch>(), Ok(KernelDispatch::Auto));
        assert!("avx512".parse::<KernelDispatch>().is_err());
    }

    // -- width-1 row kernels ------------------------------------------------

    /// Scalar reference for the row fold: the literal legacy loop.
    fn ref_fold(props: &[f64], keep: impl Fn(usize) -> bool) -> (Vec<f64>, f64) {
        let mut acc = -0.0f64;
        let mut prefix = vec![0.0; props.len()];
        for (j, &p) in props.iter().enumerate() {
            if p > 0.0 && keep(j) {
                acc += p;
            }
            prefix[j] = acc;
        }
        (prefix, acc)
    }

    fn mask_from_words(len: usize, words: &[u64]) -> RuleMask {
        let mut mask = RuleMask::new(len);
        for j in 0..len {
            if words[j / 64] & (1 << (j % 64)) != 0 {
                mask.assign(j, true);
            }
        }
        mask
    }

    proptest! {
        #[test]
        fn row_folds_are_bit_identical_across_kernels_and_refold_starts(
            raw in proptest::collection::vec(0.001f64..50.0, 1..150),
            words in proptest::collection::vec(0u64..u64::MAX, 3),
            from_num in 0usize..150,
            bump_num in 0usize..150,
        ) {
            // Roughly 40% of slots disabled: the drawn value doubles as
            // the coin (the stub proptest has no weighted-choice strategy).
            let raw: Vec<f64> = raw.iter().map(|&p| if p < 20.0 { 0.0 } else { p }).collect();
            let n = raw.len();
            let mask = mask_from_words(n, &words);
            let (ref_prefix, ref_total) = ref_fold(&raw, |_| true);
            let (ref_mprefix, ref_mtotal) = ref_fold(&raw, |j| mask.get(j));
            let ref_sum: f64 = {
                let mut acc = -0.0f64;
                for &p in &raw {
                    if p > 0.0 {
                        acc += p;
                    }
                }
                acc
            };
            // A refold start and a mutation somewhere at-or-after it: the
            // partial refold seeded from prefix[from-1] must equal a full
            // refold of the mutated row.
            let from = from_num % n;
            let bump = from + bump_num % (n - from);
            let mut bumped = raw.clone();
            bumped[bump] = if bumped[bump] > 0.0 { 0.0 } else { 7.25 };
            let (ref_bprefix, ref_btotal) = ref_fold(&bumped, |_| true);
            let (ref_bmprefix, ref_bmtotal) = ref_fold(&bumped, |j| mask.get(j));
            for kernel in kernels_under_test() {
                let mut prefix = vec![0.0; n];
                let total = row_fold_from(kernel, &raw, &mut prefix, 0);
                prop_assert!(total.to_bits() == ref_total.to_bits(), "{kernel:?} total");
                prop_assert!(
                    prefix.iter().zip(&ref_prefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} full fold prefix diverged"
                );
                prop_assert!(
                    row_sum(kernel, &raw).to_bits() == ref_sum.to_bits(),
                    "{kernel:?} row_sum"
                );
                // Partial refold over the mutated row.
                let mut scratch = ref_prefix.clone();
                scratch[..from].copy_from_slice(&ref_bprefix[..from]);
                let btotal = row_fold_from(kernel, &bumped, &mut scratch, from);
                prop_assert!(
                    btotal.to_bits() == ref_btotal.to_bits(),
                    "{kernel:?} refold total"
                );
                prop_assert!(
                    scratch.iter().zip(&ref_bprefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} partial refold from {from} diverged"
                );
                // Masked variants, full and partial.
                let mut mprefix = vec![0.0; n];
                let mtotal = row_fold_masked_from(kernel, &raw, &mask, &mut mprefix, 0);
                prop_assert!(
                    mtotal.to_bits() == ref_mtotal.to_bits(),
                    "{kernel:?} masked total"
                );
                prop_assert!(
                    mprefix.iter().zip(&ref_mprefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} masked fold prefix diverged"
                );
                let mut mscratch = ref_mprefix.clone();
                mscratch[..from].copy_from_slice(&ref_bmprefix[..from]);
                let bmtotal = row_fold_masked_from(kernel, &bumped, &mask, &mut mscratch, from);
                prop_assert_eq!(bmtotal.to_bits(), ref_bmtotal.to_bits());
                prop_assert!(
                    mscratch.iter().zip(&ref_bmprefix).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kernel:?} masked partial refold from {from} diverged"
                );
            }
        }

        #[test]
        fn row_select_agrees_with_the_linear_scan(
            raw in proptest::collection::vec(0.001f64..50.0, 1..150),
            frac in 0.0f64..1.1,
        ) {
            let raw: Vec<f64> = raw.iter().map(|&p| if p < 20.0 { 0.0 } else { p }).collect();
            let n = raw.len();
            let (prefix, total) = ref_fold(&raw, |_| true);
            // Sweep across the row, past the end (shortfall) included.
            let target = total.max(0.0) * frac;
            let want = prefix.iter().position(|&p| p > target).unwrap_or(n);
            for kernel in kernels_under_test() {
                prop_assert!(
                    row_select(kernel, &prefix, target) == want,
                    "{kernel:?} select at target {target}"
                );
            }
        }

        #[test]
        fn rule_mask_iterators_match_the_bit_definition(
            words_a in proptest::collection::vec(0u64..u64::MAX, 3),
            words_b in proptest::collection::vec(0u64..u64::MAX, 3),
            len in 1usize..150,
        ) {
            let a = mask_from_words(len, &words_a);
            let b = mask_from_words(len, &words_b);
            let want_a: Vec<usize> = (0..len).filter(|&j| a.get(j)).collect();
            let want_minus: Vec<usize> =
                (0..len).filter(|&j| a.get(j) && !b.get(j)).collect();
            prop_assert_eq!(a.iter().collect::<Vec<_>>(), want_a.clone());
            prop_assert_eq!(a.iter_minus(&b).collect::<Vec<_>>(), want_minus);
            prop_assert_eq!(a.last_set(), want_a.last().copied());
        }
    }

    #[test]
    fn rule_mask_assign_reports_the_previous_bit_and_clear_resets() {
        let mut mask = RuleMask::new(70);
        assert!(!mask.assign(3, true));
        assert!(mask.assign(3, true));
        assert!(!mask.assign(69, true));
        assert_eq!(mask.last_set(), Some(69));
        assert!(mask.assign(69, false));
        assert_eq!(mask.last_set(), Some(3));
        mask.clear();
        assert_eq!(mask.last_set(), None);
        assert_eq!(mask.iter().count(), 0);
    }

    #[test]
    fn row_select_covers_both_scan_and_search_regimes() {
        // A long non-decreasing row forces the binary-search path
        // (> SELECT_SCAN_MAX_SLOTS); a short one takes the counting scan.
        for n in [5usize, 64, 65, 200] {
            let props: Vec<f64> = (0..n).map(|j| (j % 3) as f64).collect();
            let (prefix, total) = ref_fold(&props, |_| true);
            for kernel in kernels_under_test() {
                for target in [-0.0, 0.0, total * 0.4999, total - 1e-9, total, total + 1.0] {
                    let want = prefix.iter().position(|&p| p > target).unwrap_or(n);
                    assert_eq!(
                        row_select(kernel, &prefix, target),
                        want,
                        "kernel {kernel:?} len {n} target {target}"
                    );
                }
            }
        }
    }
}
