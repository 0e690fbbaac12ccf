//! The allocation-policy abstraction: *how much* capacity each partition
//! should get, decoupled from *how* a partitioning scheme enforces it.
//!
//! The Vantage paper (§2, §6) treats the allocation policy (UCP in its
//! evaluation) and the partitioning scheme (Vantage, way-partitioning,
//! PIPP) as independent layers. [`AllocationPolicy`] is that seam: a
//! policy observes execution (either a sampled access stream, a
//! [`PolicyInput`] snapshot of per-partition statistics, or both) and at
//! every repartitioning epoch emits per-partition capacity targets in
//! lines that sum exactly to the managed budget.
//!
//! Implementations in this crate:
//!
//! * [`UcpPolicy`] — the paper's UCP/Lookahead allocator (stream-driven).
//! * [`MissRatioEqualizer`] — UCP monitors feeding
//!   [`equalize_miss_ratios`](crate::equalize_miss_ratios) ("communist" allocation; Hsu et al.).
//! * [`EqualShares`] — a static equal split, the natural baseline.
//! * [`QosGuarantee`] — per-partition minimums plus weighted shares of the
//!   spare capacity (LFOC/Memshare-style multi-tenant allocation).

use vantage_cache::{LineAddr, PartitionId};

use crate::policy::{AllocationGoal, UcpGranularity, UcpPolicy};

/// A per-epoch snapshot of partition state, assembled by the caller from
/// scheme statistics and handed to [`AllocationPolicy::reallocate`].
///
/// All slices have one entry per partition slot. Counters are cumulative
/// over the epoch that just ended unless noted otherwise.
#[derive(Clone, Copy, Debug)]
pub struct PolicyInput<'a> {
    /// Total capacity (in lines) the policy may distribute.
    pub capacity: u64,
    /// Lines each partition actually holds right now.
    pub actual: &'a [u64],
    /// Hits each partition has accumulated.
    pub hits: &'a [u64],
    /// Misses each partition has accumulated.
    pub misses: &'a [u64],
    /// Lines each partition lost (demotion or eviction) this epoch.
    pub churn: &'a [u64],
    /// Lines each partition installed this epoch.
    pub insertions: &'a [u64],
    /// Cross-partition hits per *accessing* partition this epoch — how
    /// often each tenant touched lines another tenant owns. An empty
    /// slice means the scheme does not meter sharing.
    pub shared_hits: &'a [u64],
    /// Ownership transfers per *adopting* partition this epoch (nonzero
    /// only under [`ShareMode::Adopt`](vantage_cache::ShareMode::Adopt)).
    /// An empty slice means the scheme does not meter sharing.
    pub ownership_transfers: &'a [u64],
    /// Whether each slot hosts a live partition. An empty slice means
    /// every slot is live (the static-population case). Policies must
    /// allocate zero lines to dead slots: the scheme forces their targets
    /// to zero anyway, so any capacity aimed at them silently inflates
    /// the unmanaged region instead of reaching a tenant.
    pub live: &'a [bool],
    /// Partitions created since the previous epoch (service-mode arrival
    /// deltas). Policies that warm per-tenant state can seed it here.
    pub arrived: &'a [PartitionId],
    /// Partitions destroyed since the previous epoch (departure deltas;
    /// the slot may still be draining).
    pub departed: &'a [PartitionId],
}

impl PolicyInput<'_> {
    /// Number of partition slots in the snapshot (live or not).
    pub fn num_partitions(&self) -> usize {
        self.actual.len()
    }

    /// Whether slot `p` hosts a live partition. Slots beyond the `live`
    /// lane (including every slot when the lane is empty) are live.
    pub fn is_live(&self, p: usize) -> bool {
        self.live.get(p).copied().unwrap_or(true)
    }

    /// Number of live partitions.
    pub fn live_partitions(&self) -> usize {
        if self.live.is_empty() {
            self.actual.len()
        } else {
            self.live.iter().filter(|&&l| l).count()
        }
    }
}

/// An allocation policy: decides per-partition capacity targets.
///
/// # Contract
///
/// * [`reallocate`](Self::reallocate) returns one target per partition
///   slot, in lines, summing to exactly `input.capacity`. Dead slots
///   (per [`PolicyInput::is_live`]) receive zero; if no slot is live the
///   result is all-zero and the scheme's unmanaged region absorbs the
///   capacity.
/// * Policies must be deterministic: the same observation sequence and
///   the same inputs produce the same targets.
/// * [`observe`](Self::observe) is on the simulation hot path; policies
///   that do not sample the access stream leave the default no-op and
///   return `false` from [`wants_access_stream`](Self::wants_access_stream)
///   so callers can skip the call entirely.
/// * Every policy is a [`vantage_snapshot::Snapshot`] (the supertrait
///   makes the compiler enforce it for trait objects): monitor state must
///   round-trip so a checkpointed simulation resumes bit-identically.
///   Stateless policies implement the two methods as no-ops.
pub trait AllocationPolicy: Send + vantage_snapshot::Snapshot {
    /// Short stable identifier (used in labels and telemetry).
    fn name(&self) -> &'static str;

    /// Whether the policy needs per-access [`observe`](Self::observe)
    /// calls. Snapshot-only policies return `false` (the default) and the
    /// caller may skip the hot-path call.
    fn wants_access_stream(&self) -> bool {
        false
    }

    /// Observes one LLC access by `part` (hits and misses alike).
    #[inline]
    fn observe(&mut self, part: usize, addr: LineAddr) {
        let _ = (part, addr);
    }

    /// Computes per-partition capacity targets in lines for the next
    /// epoch. The result has `input.num_partitions()` entries summing to
    /// exactly `input.capacity`.
    fn reallocate(&mut self, input: &PolicyInput<'_>) -> Vec<u64>;
}

impl AllocationPolicy for UcpPolicy {
    fn name(&self) -> &'static str {
        "ucp"
    }

    fn wants_access_stream(&self) -> bool {
        true
    }

    #[inline]
    fn observe(&mut self, part: usize, addr: LineAddr) {
        UcpPolicy::observe(self, part, addr);
    }

    /// UCP already models capacity via its UMONs; the snapshot is ignored
    /// so the trait path is bit-identical to calling
    /// [`UcpPolicy::reallocate`] directly.
    fn reallocate(&mut self, _input: &PolicyInput<'_>) -> Vec<u64> {
        UcpPolicy::reallocate(self)
    }
}

/// Splits capacity evenly across partitions, remainder to the lowest
/// partition indices. The static baseline every dynamic policy is
/// measured against.
#[derive(Clone, Copy, Debug, Default)]
pub struct EqualShares;

impl EqualShares {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl vantage_snapshot::Snapshot for EqualShares {
    /// Stateless: nothing to serialize.
    fn save_state(&self, _enc: &mut vantage_snapshot::Encoder) {}

    fn load_state(
        &mut self,
        _dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        Ok(())
    }
}

impl AllocationPolicy for EqualShares {
    fn name(&self) -> &'static str {
        "equal"
    }

    fn reallocate(&mut self, input: &PolicyInput<'_>) -> Vec<u64> {
        let n = input.num_partitions();
        let live = input.live_partitions() as u64;
        let mut out = vec![0u64; n];
        if live == 0 {
            return out;
        }
        let base = input.capacity / live;
        let rem = input.capacity % live;
        let mut rank = 0u64;
        for (p, t) in out.iter_mut().enumerate() {
            if input.is_live(p) {
                *t = base + u64::from(rank < rem);
                rank += 1;
            }
        }
        out
    }
}

/// Equalizes per-partition miss ratios using the same UMON machinery as
/// UCP but the [`equalize_miss_ratios`](crate::equalize_miss_ratios)
/// allocator instead of Lookahead.
#[derive(Clone, Debug)]
pub struct MissRatioEqualizer {
    inner: UcpPolicy,
}

impl MissRatioEqualizer {
    /// Creates the equalizer; parameters match [`UcpPolicy::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`UcpPolicy::new`].
    pub fn new(
        partitions: usize,
        umon_ways: usize,
        sampled_sets: usize,
        model_sets: u32,
        cache_lines: u64,
        granularity: UcpGranularity,
        seed: u64,
    ) -> Self {
        let mut inner = UcpPolicy::new(
            partitions,
            umon_ways,
            sampled_sets,
            model_sets,
            cache_lines,
            granularity,
            seed,
        );
        inner.set_goal(AllocationGoal::Fairness);
        Self { inner }
    }
}

impl vantage_snapshot::Snapshot for MissRatioEqualizer {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        self.inner.save_state(enc);
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        self.inner.load_state(dec)
    }
}

impl AllocationPolicy for MissRatioEqualizer {
    fn name(&self) -> &'static str {
        "missratio"
    }

    fn wants_access_stream(&self) -> bool {
        true
    }

    #[inline]
    fn observe(&mut self, part: usize, addr: LineAddr) {
        self.inner.observe(part, addr);
    }

    fn reallocate(&mut self, _input: &PolicyInput<'_>) -> Vec<u64> {
        self.inner.reallocate()
    }
}

/// Errors constructing a [`QosGuarantee`] policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QosError {
    /// `mins` and `weights` have different or zero lengths.
    Shape,
    /// A weight is negative, NaN, or infinite.
    BadWeight,
    /// Every weight is zero, leaving spare capacity unassignable.
    AllZeroWeights,
}

impl std::fmt::Display for QosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Shape => write!(f, "mins and weights must be non-empty and equal length"),
            Self::BadWeight => write!(f, "weights must be finite and non-negative"),
            Self::AllZeroWeights => write!(f, "at least one weight must be positive"),
        }
    }
}

impl std::error::Error for QosError {}

/// How a [`QosGuarantee`] maps its contract onto the partition slots of
/// a given epoch.
#[derive(Clone, Debug)]
enum QosMode {
    /// A per-slot contract fixed at construction (static populations).
    Fixed { mins: Vec<u64>, weights: Vec<f64> },
    /// One contract applied uniformly to every *live* slot — the
    /// service-mode spelling, where the population churns and slots
    /// appear and disappear between epochs.
    Uniform { min: u64, weight: f64 },
}

/// QoS/share-driven allocation: each partition is guaranteed a minimum
/// number of lines, and the spare capacity is split by weighted demand —
/// `weight[p] * (misses[p] + 1)` — so heavier-missing tenants pull more of
/// the slack within their share (LFOC/Memshare-style).
///
/// If the minimums exceed the capacity they are scaled down
/// proportionally (the guarantee degrades gracefully instead of
/// overcommitting). Dead slots (per [`PolicyInput::is_live`]) get zero
/// floor, zero weight, and therefore zero lines.
#[derive(Clone, Debug)]
pub struct QosGuarantee {
    mode: QosMode,
}

impl QosGuarantee {
    /// Creates a fixed per-partition contract; `mins[p]` is partition
    /// `p`'s guaranteed lines and `weights[p]` its share of spare
    /// capacity.
    ///
    /// # Errors
    ///
    /// [`QosError::Shape`] for mismatched or empty vectors,
    /// [`QosError::BadWeight`] for non-finite or negative weights, and
    /// [`QosError::AllZeroWeights`] when no weight is positive.
    pub fn try_new(mins: Vec<u64>, weights: Vec<f64>) -> Result<Self, QosError> {
        if mins.is_empty() || mins.len() != weights.len() {
            return Err(QosError::Shape);
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(QosError::BadWeight);
        }
        if !weights.iter().any(|w| *w > 0.0) {
            return Err(QosError::AllZeroWeights);
        }
        Ok(Self {
            mode: QosMode::Fixed { mins, weights },
        })
    }

    /// Creates a uniform contract for churning populations: every live
    /// slot is guaranteed `min` lines and pulls spare capacity with the
    /// same `weight`, however many tenants happen to exist at each epoch.
    ///
    /// # Errors
    ///
    /// [`QosError::BadWeight`] for a non-finite or negative weight and
    /// [`QosError::AllZeroWeights`] for a zero weight.
    pub fn uniform(min: u64, weight: f64) -> Result<Self, QosError> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(QosError::BadWeight);
        }
        if weight == 0.0 {
            return Err(QosError::AllZeroWeights);
        }
        Ok(Self {
            mode: QosMode::Uniform { min, weight },
        })
    }

    /// The guaranteed minimums, in lines (empty for a
    /// [uniform](Self::uniform) contract).
    pub fn mins(&self) -> &[u64] {
        match &self.mode {
            QosMode::Fixed { mins, .. } => mins,
            QosMode::Uniform { .. } => &[],
        }
    }

    /// The spare-capacity weights (empty for a [uniform](Self::uniform)
    /// contract).
    pub fn weights(&self) -> &[f64] {
        match &self.mode {
            QosMode::Fixed { weights, .. } => weights,
            QosMode::Uniform { .. } => &[],
        }
    }

    /// The guaranteed floor for slot `p`, in lines.
    pub fn floor_for(&self, p: usize) -> u64 {
        match &self.mode {
            QosMode::Fixed { mins, .. } => mins.get(p).copied().unwrap_or(0),
            QosMode::Uniform { min, .. } => *min,
        }
    }
}

impl vantage_snapshot::Snapshot for QosGuarantee {
    /// Minimums and weights are construction-time configuration, not run
    /// state; nothing varies over a run.
    fn save_state(&self, _enc: &mut vantage_snapshot::Encoder) {}

    fn load_state(
        &mut self,
        _dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        Ok(())
    }
}

impl AllocationPolicy for QosGuarantee {
    fn name(&self) -> &'static str {
        "qos"
    }

    fn reallocate(&mut self, input: &PolicyInput<'_>) -> Vec<u64> {
        let n = input.num_partitions();
        if let QosMode::Fixed { mins, .. } = &self.mode {
            debug_assert_eq!(mins.len(), n, "policy sized for machine");
        }
        if input.live_partitions() == 0 {
            // Nobody to serve: the unmanaged region absorbs everything.
            return vec![0; n];
        }
        // Project the contract onto this epoch's slots: dead slots get
        // zero floor and zero weight so no capacity can leak to them.
        let (mins, weights): (Vec<u64>, Vec<f64>) = (0..n)
            .map(|p| {
                if !input.is_live(p) {
                    return (0u64, 0.0);
                }
                match &self.mode {
                    QosMode::Fixed { mins, weights } => (
                        mins.get(p).copied().unwrap_or(0),
                        weights.get(p).copied().unwrap_or(0.0),
                    ),
                    QosMode::Uniform { min, weight } => (*min, *weight),
                }
            })
            .unzip();
        let floor_sum: u64 = mins.iter().sum();
        let mut targets = if floor_sum > input.capacity {
            // Overcommitted guarantees: scale the floors down
            // proportionally so the contract degrades uniformly.
            let scaled: Vec<f64> = mins.iter().map(|&m| m as f64).collect();
            apportion(input.capacity, &scaled)
        } else {
            mins
        };
        let spare = input.capacity - targets.iter().sum::<u64>();
        if spare > 0 {
            let mut demand: Vec<f64> = weights
                .iter()
                .enumerate()
                .map(|(p, &w)| w * (input.misses.get(p).copied().unwrap_or(0) as f64 + 1.0))
                .collect();
            if !demand.iter().any(|d| *d > 0.0) {
                // Every positively weighted tenant is dead: split the
                // spare among the live ones instead of letting
                // `apportion`'s all-zero fallback feed dead slots.
                demand = (0..n)
                    .map(|p| if input.is_live(p) { 1.0 } else { 0.0 })
                    .collect();
            }
            for (t, extra) in targets.iter_mut().zip(apportion(spare, &demand)) {
                *t += extra;
            }
        }
        targets
    }
}

/// Distributes `total` units across `weights` proportionally, exactly
/// (largest-remainder; ties broken by lowest index). All-zero weights
/// fall back to an even split.
pub fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: f64 = weights.iter().sum();
    if !sum.is_finite() || sum <= 0.0 {
        let base = total / n as u64;
        let rem = total % n as u64;
        return (0..n as u64).map(|p| base + u64::from(p < rem)).collect();
    }
    let mut out = Vec::with_capacity(n);
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(n);
    let mut assigned = 0u64;
    for (p, &w) in weights.iter().enumerate() {
        let exact = total as f64 * (w / sum);
        let whole = exact.floor().min(total as f64) as u64;
        out.push(whole);
        fracs.push((p, exact - whole as f64));
        assigned += whole;
    }
    // Ties broken by index so the result is deterministic across runs.
    fracs.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite fractions")
            .then(a.0.cmp(&b.0))
    });
    let mut left = total.saturating_sub(assigned);
    let mut i = 0;
    while left > 0 {
        out[fracs[i % n].0] += 1;
        left -= 1;
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input<'a>(
        capacity: u64,
        actual: &'a [u64],
        misses: &'a [u64],
        zeros: &'a [u64],
    ) -> PolicyInput<'a> {
        PolicyInput {
            capacity,
            actual,
            hits: zeros,
            misses,
            churn: zeros,
            insertions: zeros,
            shared_hits: &[],
            ownership_transfers: &[],
            live: &[],
            arrived: &[],
            departed: &[],
        }
    }

    #[test]
    fn equal_shares_splits_exactly() {
        let zeros = [0u64; 3];
        let inp = input(1_000, &zeros, &zeros, &zeros);
        let t = EqualShares::new().reallocate(&inp);
        assert_eq!(t, vec![334, 333, 333]);
        assert_eq!(t.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn ucp_via_trait_matches_inherent_reallocate() {
        let build = || {
            UcpPolicy::new(
                2,
                16,
                64,
                2048,
                32_768,
                UcpGranularity::Fine { blocks: 256 },
                7,
            )
        };
        let drive = |p: &mut UcpPolicy| {
            for i in 0..100_000u64 {
                AllocationPolicy::observe(p, 0, LineAddr(i % 6_000));
                AllocationPolicy::observe(p, 1, LineAddr((1 << 40) | i));
            }
        };
        let mut via_trait = build();
        drive(&mut via_trait);
        let zeros = [0u64; 2];
        let inp = input(32_768, &zeros, &zeros, &zeros);
        let t1 = AllocationPolicy::reallocate(&mut via_trait, &inp);

        let mut inherent = build();
        drive(&mut inherent);
        let t2 = UcpPolicy::reallocate(&mut inherent);
        assert_eq!(t1, t2);
        assert_eq!(t1.iter().sum::<u64>(), 32_768);
    }

    #[test]
    fn qos_honors_minimums_and_spends_spare_by_weight() {
        let mut qos = QosGuarantee::try_new(vec![100, 200, 50], vec![1.0, 1.0, 2.0])
            .expect("valid QoS shape");
        let zeros = [0u64; 3];
        let misses = [10u64, 10, 10];
        let inp = input(1_000, &zeros, &misses, &zeros);
        let t = qos.reallocate(&inp);
        assert_eq!(t.iter().sum::<u64>(), 1_000);
        assert!(t[0] >= 100 && t[1] >= 200 && t[2] >= 50, "minimums: {t:?}");
        // Equal misses, so partition 2's double weight wins the most spare.
        assert!(t[2] - 50 > t[0] - 100, "weights ignored: {t:?}");
    }

    #[test]
    fn qos_scales_overcommitted_minimums_down() {
        let mut qos =
            QosGuarantee::try_new(vec![800, 800], vec![1.0, 1.0]).expect("valid QoS shape");
        let zeros = [0u64; 2];
        let inp = input(1_000, &zeros, &zeros, &zeros);
        let t = qos.reallocate(&inp);
        assert_eq!(t.iter().sum::<u64>(), 1_000);
        assert_eq!(t, vec![500, 500]);
    }

    #[test]
    fn qos_rejects_malformed_configs() {
        assert_eq!(
            QosGuarantee::try_new(vec![1], vec![1.0, 2.0]).err(),
            Some(QosError::Shape)
        );
        assert_eq!(
            QosGuarantee::try_new(Vec::new(), Vec::new()).err(),
            Some(QosError::Shape)
        );
        assert_eq!(
            QosGuarantee::try_new(vec![1, 2], vec![1.0, f64::NAN]).err(),
            Some(QosError::BadWeight)
        );
        assert_eq!(
            QosGuarantee::try_new(vec![1, 2], vec![0.0, 0.0]).err(),
            Some(QosError::AllZeroWeights)
        );
    }

    #[test]
    fn equal_shares_skips_dead_slots() {
        let zeros = [0u64; 4];
        let mut inp = input(1_000, &zeros, &zeros, &zeros);
        let live = [true, false, true, false];
        inp.live = &live;
        let t = EqualShares::new().reallocate(&inp);
        assert_eq!(t, vec![500, 0, 500, 0]);
    }

    #[test]
    fn qos_uniform_contract_follows_the_population() {
        let mut qos = QosGuarantee::uniform(100, 1.0).expect("valid uniform contract");
        let zeros = [0u64; 3];
        let misses = [5u64, 50, 5];
        let mut inp = input(1_000, &zeros, &misses, &zeros);
        let live = [true, true, false];
        inp.live = &live;
        let t = qos.reallocate(&inp);
        assert_eq!(t.iter().sum::<u64>(), 1_000);
        assert_eq!(t[2], 0, "dead slot must not receive lines: {t:?}");
        assert!(t[0] >= 100 && t[1] >= 100, "floors: {t:?}");
        assert!(
            t[1] > t[0],
            "heavier-missing tenant pulls more spare: {t:?}"
        );
    }

    #[test]
    fn qos_with_no_live_tenants_returns_zeros() {
        let mut qos = QosGuarantee::uniform(100, 1.0).expect("valid uniform contract");
        let zeros = [0u64; 2];
        let mut inp = input(1_000, &zeros, &zeros, &zeros);
        let live = [false, false];
        inp.live = &live;
        assert_eq!(qos.reallocate(&inp), vec![0, 0]);
    }

    #[test]
    fn qos_uniform_rejects_bad_weights() {
        assert_eq!(
            QosGuarantee::uniform(1, -1.0).err(),
            Some(QosError::BadWeight)
        );
        assert_eq!(
            QosGuarantee::uniform(1, f64::INFINITY).err(),
            Some(QosError::BadWeight)
        );
        assert_eq!(
            QosGuarantee::uniform(1, 0.0).err(),
            Some(QosError::AllZeroWeights)
        );
    }

    #[test]
    fn apportion_is_exact_and_deterministic() {
        for total in [0u64, 1, 7, 1_000, 32_768] {
            let w = [0.2, 0.2, 0.2, 0.4];
            let a = apportion(total, &w);
            assert_eq!(a.iter().sum::<u64>(), total);
            assert_eq!(a, apportion(total, &w));
        }
        assert_eq!(apportion(10, &[0.0, 0.0]), vec![5, 5]);
        assert_eq!(apportion(5, &[]), Vec::<u64>::new());
    }

    #[test]
    fn missratio_equalizer_sums_to_capacity() {
        let mut eq = MissRatioEqualizer::new(
            2,
            16,
            64,
            2048,
            32_768,
            UcpGranularity::Fine { blocks: 256 },
            9,
        );
        assert!(eq.wants_access_stream());
        for i in 0..200_000u64 {
            eq.observe(0, LineAddr(i % 3_000));
            eq.observe(1, LineAddr((1 << 40) | (i % 50_000)));
        }
        let zeros = [0u64; 2];
        let inp = input(32_768, &zeros, &zeros, &zeros);
        let t = eq.reallocate(&inp);
        assert_eq!(t.iter().sum::<u64>(), 32_768);
    }
}
