//! Epoch scheduling: the repartitioning controller that sits between the
//! simulation loop and the allocation policy.
//!
//! [`EpochController`] owns everything that used to be special-cased
//! inside `CmpSim`: the [`AllocationPolicy`] instance (built from
//! [`SystemConfig::policy`]), the optional Vantage-DRRIP RRIP monitors,
//! and the invariant check/repair pass at each epoch boundary. The
//! simulation loop only calls [`EpochController::observe`] per L2 access
//! and [`EpochController::run_epoch`] when the epoch clock expires.
//!
//! The controller also hosts *guarded live reconfiguration*
//! ([`EpochController::reconfigure`]): a policy hot-swap or QoS-contract
//! change is applied transactionally — the controller snapshots its own
//! state first, runs a trial reallocation under the new policy, and if
//! the post-swap invariants fail it rolls back to the snapshot and
//! counts the recovery instead of leaving a half-configured controller.

use vantage_cache::replacement::rrip::BasePolicy;
use vantage_cache::LineAddr;
use vantage_partitioning::{
    HasInvariants, InvariantViolation, PartitionObservations, TargetsError,
};
use vantage_snapshot::{Decoder, Encoder, Snapshot};
use vantage_ucp::{
    AllocationPolicy, ClusteredPolicy, EqualShares, MissRatioEqualizer, PolicyInput, QosGuarantee,
    RripUmon, UcpGranularity, UcpPolicy,
};

use crate::config::{PolicyKind, SchemeKind, SystemConfig};
use crate::scheme::Scheme;

/// A fatal simulation error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// An accounting-invariant violation at a repartitioning boundary,
    /// with fail-fast checking enabled
    /// ([`SystemConfig::fail_fast_invariants`]).
    Invariant(InvariantViolation),
    /// The allocation policy produced targets the LLC refused.
    Targets(TargetsError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invariant(e) => {
                write!(f, "invariant check at repartitioning failed: {e}")
            }
            Self::Targets(e) => write!(f, "repartitioning refused: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The live allocation-policy selection, including any hot-swapped QoS
/// contract. This is what a checkpoint records: unlike
/// [`SystemConfig::policy`] it survives [`EpochController::reconfigure`],
/// so a resumed run rebuilds the policy that was actually active.
#[derive(Clone, Debug, PartialEq)]
pub enum ActivePolicy {
    /// UCP/Lookahead.
    Ucp,
    /// Static equal shares.
    Equal,
    /// Miss-ratio equalization.
    MissRatio,
    /// A QoS contract: guaranteed lines plus spare-capacity weights.
    Qos {
        /// Guaranteed minimum lines per partition.
        floors: Vec<u64>,
        /// Spare-capacity weights per partition.
        weights: Vec<f64>,
    },
    /// LFOC-style clustered allocation for churning populations.
    Clustered {
        /// Upper bound on distinct enforcement clusters.
        max_clusters: usize,
        /// Guaranteed lines for every live tenant.
        min_lines: u64,
    },
}

impl ActivePolicy {
    /// The [`PolicyKind`] this selection instantiates (contract details,
    /// if any, are dropped).
    pub fn kind(&self) -> PolicyKind {
        match self {
            Self::Ucp => PolicyKind::Ucp,
            Self::Equal => PolicyKind::Equal,
            Self::MissRatio => PolicyKind::MissRatio,
            Self::Qos { .. } => PolicyKind::Qos,
            Self::Clustered { .. } => PolicyKind::Clustered,
        }
    }
}

/// The default [`ActivePolicy`] for `policy` on machine `sys` (the QoS
/// default guarantees each partition 1/8 of its even share, equal
/// weights for the spare).
fn default_active(sys: &SystemConfig, policy: PolicyKind) -> ActivePolicy {
    match policy {
        PolicyKind::Ucp => ActivePolicy::Ucp,
        PolicyKind::Equal => ActivePolicy::Equal,
        PolicyKind::MissRatio => ActivePolicy::MissRatio,
        PolicyKind::Qos => {
            let min = (sys.l2_lines / (8 * sys.cores)) as u64;
            ActivePolicy::Qos {
                floors: vec![min; sys.cores],
                weights: vec![1.0; sys.cores],
            }
        }
        PolicyKind::Clustered => ActivePolicy::Clustered {
            max_clusters: 8,
            min_lines: (sys.l2_lines / (8 * sys.cores)) as u64,
        },
    }
}

/// Instantiates allocation policy `active` for machine `sys` under
/// scheme `kind`. Way-granularity schemes get way-granularity UMONs;
/// Vantage gets the paper's 256-block interpolated curves (§5).
fn build_policy(
    sys: &SystemConfig,
    kind: &SchemeKind,
    active: &ActivePolicy,
) -> Box<dyn AllocationPolicy> {
    let granularity = match kind {
        SchemeKind::Vantage { .. } => UcpGranularity::Fine { blocks: 256 },
        SchemeKind::WayPart | SchemeKind::Pipp | SchemeKind::Baseline { .. } => {
            UcpGranularity::Ways(sys.l2_ways as u32)
        }
    };
    match active {
        ActivePolicy::Ucp => Box::new(UcpPolicy::new(
            sys.cores,
            sys.l2_ways,
            sys.umon_sets,
            (sys.l2_lines / sys.l2_ways) as u32,
            sys.l2_lines as u64,
            granularity,
            sys.seed ^ 0x0C0,
        )),
        ActivePolicy::Equal => Box::new(EqualShares::new()),
        ActivePolicy::MissRatio => Box::new(MissRatioEqualizer::new(
            sys.cores,
            sys.l2_ways,
            sys.umon_sets,
            (sys.l2_lines / sys.l2_ways) as u32,
            sys.l2_lines as u64,
            granularity,
            sys.seed ^ 0x0C0,
        )),
        ActivePolicy::Qos { floors, weights } => Box::new(
            QosGuarantee::try_new(floors.clone(), weights.clone()).expect("valid QoS shape"),
        ),
        ActivePolicy::Clustered {
            max_clusters,
            min_lines,
        } => Box::new(
            ClusteredPolicy::try_new(*max_clusters, *min_lines).expect("valid cluster config"),
        ),
    }
}

/// The policy's view of an epoch: the scheme's observations over a cache
/// of `capacity` lines.
fn policy_input(capacity: u64, obs: &PartitionObservations) -> PolicyInput<'_> {
    PolicyInput {
        capacity,
        actual: &obs.actual,
        hits: &obs.hits,
        misses: &obs.misses,
        churn: &obs.churn,
        insertions: &obs.insertions,
        shared_hits: &obs.shared_hits,
        ownership_transfers: &obs.ownership_transfers,
        live: &obs.live,
        arrived: &obs.arrived,
        departed: &obs.departed,
    }
}

/// A live-reconfiguration request (see [`EpochController::reconfigure`]).
#[derive(Clone, Debug)]
pub enum Reconfig {
    /// Hot-swap the allocation policy to the named kind's default
    /// configuration.
    Policy(PolicyKind),
    /// Install a QoS contract: per-partition guaranteed lines plus
    /// spare-capacity weights.
    QosContract {
        /// Guaranteed minimum lines per partition.
        floors: Vec<u64>,
        /// Spare-capacity weights per partition.
        weights: Vec<f64>,
    },
}

/// Why a live reconfiguration did not take effect.
#[derive(Clone, Debug, PartialEq)]
pub enum ReconfigError {
    /// The scheme is unmanaged (a baseline): there is no policy to swap.
    Unmanaged,
    /// The request is structurally invalid (shape or weight errors); it
    /// was rejected before any state changed.
    BadRequest(String),
    /// The swap was applied but its post-swap invariants failed; the
    /// controller rolled back to its pre-swap state and counted the
    /// recovery (see [`EpochController::reconfig_rollbacks`]).
    RolledBack(String),
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unmanaged => f.write_str("unmanaged scheme has no allocation policy to swap"),
            Self::BadRequest(why) => write!(f, "invalid reconfiguration request: {why}"),
            Self::RolledBack(why) => {
                write!(
                    f,
                    "reconfiguration failed post-swap invariants, rolled back: {why}"
                )
            }
        }
    }
}

impl std::error::Error for ReconfigError {}

/// The repartitioning-epoch controller; see the [module docs](self).
pub struct EpochController {
    sys: SystemConfig,
    kind: SchemeKind,
    interval: u64,
    next: u64,
    active: Option<ActivePolicy>,
    policy: Option<Box<dyn AllocationPolicy>>,
    wants_stream: bool,
    rrip_umons: Option<Vec<RripUmon>>,
    check_invariants: bool,
    fail_fast: bool,
    last_targets: Vec<u64>,
    recoveries: u64,
    reconfig_rollbacks: u64,
}

impl EpochController {
    /// Builds the controller for machine `sys` driving a `kind` scheme.
    /// Baseline (unmanaged) schemes get no policy; Vantage-DRRIP kinds
    /// additionally get one RRIP monitor per core.
    pub fn new(sys: &SystemConfig, kind: &SchemeKind) -> Self {
        let active = kind.uses_ucp().then(|| default_active(sys, sys.policy));
        let policy = active.as_ref().map(|a| build_policy(sys, kind, a));
        let wants_stream = policy
            .as_deref()
            .is_some_and(AllocationPolicy::wants_access_stream);
        let rrip_umons = match kind {
            SchemeKind::Vantage { drrip: true, .. } => Some(
                (0..sys.cores)
                    .map(|c| {
                        RripUmon::new(
                            sys.l2_ways,
                            sys.umon_sets,
                            (sys.l2_lines / sys.l2_ways) as u32,
                            3,
                            sys.seed ^ (c as u64 + 0xD00),
                        )
                    })
                    .collect(),
            ),
            _ => None,
        };
        Self {
            interval: sys.repartition_interval,
            next: sys.repartition_interval,
            active,
            policy,
            wants_stream,
            rrip_umons,
            check_invariants: sys.check_invariants,
            fail_fast: sys.fail_fast_invariants,
            last_targets: Vec::new(),
            recoveries: 0,
            reconfig_rollbacks: 0,
            sys: sys.clone(),
            kind: kind.clone(),
        }
    }

    /// The active policy's name, or `None` for unmanaged schemes.
    pub fn policy_name(&self) -> Option<&'static str> {
        self.policy.as_deref().map(AllocationPolicy::name)
    }

    /// The global time of the next epoch boundary.
    pub fn next_at(&self) -> u64 {
        self.next
    }

    /// The targets installed at the last epoch (empty before the first).
    pub fn targets(&self) -> &[u64] {
        &self.last_targets
    }

    /// Invariant violations absorbed by repair instead of aborting.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Reconfiguration attempts that failed post-swap invariants and were
    /// rolled back.
    pub fn reconfig_rollbacks(&self) -> u64 {
        self.reconfig_rollbacks
    }

    /// The live policy selection (`None` for unmanaged schemes). Differs
    /// from [`SystemConfig::policy`] after a successful
    /// [`reconfigure`](Self::reconfigure).
    pub fn active_policy(&self) -> Option<&ActivePolicy> {
        self.active.as_ref()
    }

    /// Applies a live reconfiguration transactionally.
    ///
    /// The controller snapshots its own state, installs the new policy,
    /// and runs a trial reallocation over the scheme's current
    /// observations. The post-swap invariants — one target per partition,
    /// targets tiling the capacity exactly, and (for QoS contracts) every
    /// target honoring its guaranteed floor — must hold; on success the
    /// trial targets are installed on the scheme and the swap is live. On
    /// failure the controller restores the pre-swap snapshot, leaves the
    /// scheme untouched, and counts the recovery in
    /// [`reconfig_rollbacks`](Self::reconfig_rollbacks).
    ///
    /// # Errors
    ///
    /// [`ReconfigError::Unmanaged`] on baseline schemes,
    /// [`ReconfigError::BadRequest`] for structurally invalid requests
    /// (nothing changed), and [`ReconfigError::RolledBack`] when the
    /// post-swap invariants failed (state restored, recovery counted).
    pub fn reconfigure(
        &mut self,
        req: &Reconfig,
        scheme: &mut Scheme,
    ) -> Result<(), ReconfigError> {
        if self.policy.is_none() {
            return Err(ReconfigError::Unmanaged);
        }
        let new_active = match req {
            Reconfig::Policy(kind) => default_active(&self.sys, *kind),
            Reconfig::QosContract { floors, weights } => {
                if floors.len() != self.sys.cores {
                    return Err(ReconfigError::BadRequest(format!(
                        "{} floors for {} partitions",
                        floors.len(),
                        self.sys.cores
                    )));
                }
                // Surface shape/weight errors before touching anything.
                QosGuarantee::try_new(floors.clone(), weights.clone())
                    .map_err(|e| ReconfigError::BadRequest(e.to_string()))?;
                ActivePolicy::Qos {
                    floors: floors.clone(),
                    weights: weights.clone(),
                }
            }
        };

        // Transaction begins: snapshot the controller for rollback.
        let mut enc = Encoder::new();
        self.save_state(&mut enc);
        let saved = enc.into_bytes();

        self.policy = Some(build_policy(&self.sys, &self.kind, &new_active));
        self.active = Some(new_active.clone());
        self.wants_stream = self
            .policy
            .as_deref()
            .is_some_and(AllocationPolicy::wants_access_stream);

        let applied = self
            .trial_reallocate(scheme, &new_active)
            .and_then(|targets| {
                // A refused vector leaves the cache untouched, so it rolls back
                // like any other failed post-swap check.
                match scheme.llc_mut().set_targets(&targets) {
                    Ok(()) => Ok(targets),
                    Err(e) => Err(e.to_string()),
                }
            });
        match applied {
            Ok(targets) => {
                self.last_targets = targets;
                Ok(())
            }
            Err(why) => {
                let mut dec = Decoder::new(&saved, "reconfigure rollback");
                self.load_state(&mut dec)
                    .expect("pre-swap controller snapshot restores cleanly");
                self.reconfig_rollbacks += 1;
                Err(ReconfigError::RolledBack(why))
            }
        }
    }

    /// Runs the freshly installed policy once over current observations
    /// and checks the post-swap invariants, returning the trial targets.
    fn trial_reallocate(
        &mut self,
        scheme: &mut Scheme,
        active: &ActivePolicy,
    ) -> Result<Vec<u64>, String> {
        let capacity = scheme.llc().capacity() as u64;
        let obs = scheme.llc_mut().observations();
        let input = policy_input(capacity, &obs);
        let nslots = input.num_partitions();
        let nlive = input.live_partitions();
        let policy = self.policy.as_mut().expect("swap installed a policy");
        let targets = policy.reallocate(&input);
        if targets.len() != nslots {
            return Err(format!(
                "policy produced {} targets for {} partition slots",
                targets.len(),
                nslots
            ));
        }
        let total: u64 = targets.iter().sum();
        // With live tenants the targets must tile the capacity exactly;
        // with none, everything stays unmanaged.
        let expected = if nlive > 0 { capacity } else { 0 };
        if total != expected {
            return Err(format!(
                "targets sum to {total} but the cache holds {capacity} lines \
                 ({nlive} live partitions)"
            ));
        }
        if let ActivePolicy::Qos { floors, .. } = active {
            for (p, (&t, &floor)) in targets.iter().zip(floors).enumerate() {
                if t < floor && obs.live.get(p).copied().unwrap_or(true) {
                    return Err(format!(
                        "partition {p} target {t} is below its guaranteed floor {floor}"
                    ));
                }
            }
        }
        Ok(targets)
    }

    /// Feeds one L2 access to whatever monitors the configuration carries
    /// (the policy's access stream, the DRRIP monitors, or neither).
    #[inline]
    pub fn observe(&mut self, part: usize, addr: LineAddr) {
        if self.wants_stream {
            if let Some(p) = &mut self.policy {
                p.observe(part, addr);
            }
        }
        if let Some(umons) = &mut self.rrip_umons {
            umons[part].access(addr);
        }
    }

    /// Runs one epoch boundary: invariant audit (repairing or failing
    /// fast on a violation), target reallocation through the policy, and
    /// DRRIP policy selection; then advances the epoch clock.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] when a violation is found and
    /// [`SystemConfig::fail_fast_invariants`] is set; with fail-fast off
    /// the violation is scrubbed in place (counted in
    /// [`recoveries`](Self::recoveries)) and the epoch proceeds.
    /// [`SimError::Targets`] when the LLC refuses the policy's targets.
    pub fn run_epoch(&mut self, scheme: &mut Scheme) -> Result<(), SimError> {
        // The epoch boundary is a banked machine's one true barrier: drain
        // queued accesses so the policy observes everything issued this
        // epoch and the repartition applies to a quiesced cache.
        // (Checkpoints cut here too, which is what keeps them independent
        // of the service schedule.) A no-op on unbanked schemes.
        scheme.epoch_barrier();
        if self.check_invariants {
            if let Some(v) = scheme.vantage_mut() {
                if let Err(e) = v.check_invariants() {
                    if self.fail_fast {
                        return Err(SimError::Invariant(e));
                    }
                    let repairs = v.repair();
                    eprintln!(
                        "warning: repartitioning invariant violation repaired \
                         ({repairs} corrections): {e}"
                    );
                    self.recoveries += 1;
                }
            }
        }
        if let Some(policy) = &mut self.policy {
            let capacity = scheme.llc().capacity() as u64;
            let obs = scheme.llc_mut().observations();
            let targets = policy.reallocate(&policy_input(capacity, &obs));
            scheme
                .llc_mut()
                .set_targets(&targets)
                .map_err(SimError::Targets)?;
            self.last_targets = targets;
        }
        if let Some(umons) = &mut self.rrip_umons {
            let policies: Vec<BasePolicy> = umons.iter().map(RripUmon::best_policy).collect();
            for u in umons.iter_mut() {
                u.decay();
            }
            if let Some(v) = scheme.vantage_mut() {
                for (p, pol) in policies.into_iter().enumerate() {
                    v.set_partition_policy(p, pol);
                }
            }
        }
        self.next += self.interval;
        Ok(())
    }
}

impl Snapshot for EpochController {
    fn save_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.next);
        // The active-policy descriptor, so a resumed run rebuilds a
        // hot-swapped policy rather than the config default.
        match &self.active {
            None => enc.put_u8(0),
            Some(ActivePolicy::Ucp) => enc.put_u8(1),
            Some(ActivePolicy::Equal) => enc.put_u8(2),
            Some(ActivePolicy::MissRatio) => enc.put_u8(3),
            Some(ActivePolicy::Qos { floors, weights }) => {
                enc.put_u8(4);
                enc.put_u64_slice(floors);
                let bits: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
                enc.put_u64_slice(&bits);
            }
            Some(ActivePolicy::Clustered {
                max_clusters,
                min_lines,
            }) => {
                enc.put_u8(5);
                enc.put_u64(*max_clusters as u64);
                enc.put_u64(*min_lines);
            }
        }
        if let Some(p) = self.policy.as_deref() {
            p.save_state(enc);
        }
        enc.put_bool(self.rrip_umons.is_some());
        if let Some(umons) = &self.rrip_umons {
            enc.put_u64(umons.len() as u64);
            for u in umons {
                u.save_state(enc);
            }
        }
        enc.put_u64_slice(&self.last_targets);
        enc.put_u64(self.recoveries);
        enc.put_u64(self.reconfig_rollbacks);
    }

    fn load_state(&mut self, dec: &mut Decoder<'_>) -> vantage_snapshot::Result<()> {
        let next = dec.take_u64()?;
        if next == 0 || !next.is_multiple_of(self.interval) {
            return Err(dec.invalid("epoch clock out of phase with the interval"));
        }
        let active = match dec.take_u8()? {
            0 => None,
            1 => Some(ActivePolicy::Ucp),
            2 => Some(ActivePolicy::Equal),
            3 => Some(ActivePolicy::MissRatio),
            4 => {
                let floors = dec.take_u64_vec()?;
                let weights: Vec<f64> = dec
                    .take_u64_vec()?
                    .into_iter()
                    .map(f64::from_bits)
                    .collect();
                if floors.len() != self.sys.cores {
                    return Err(dec.mismatch("QoS floor count differs from partition count"));
                }
                QosGuarantee::try_new(floors.clone(), weights.clone())
                    .map_err(|e| dec.invalid(&format!("bad QoS contract: {e}")))?;
                Some(ActivePolicy::Qos { floors, weights })
            }
            5 => {
                let max_clusters = dec.take_u64()? as usize;
                let min_lines = dec.take_u64()?;
                if max_clusters == 0 {
                    return Err(dec.invalid("clustered policy with zero clusters"));
                }
                Some(ActivePolicy::Clustered {
                    max_clusters,
                    min_lines,
                })
            }
            t => return Err(dec.invalid(&format!("unknown policy tag {t}"))),
        };
        if active.is_some() != self.policy.is_some() {
            return Err(dec.mismatch("managed/unmanaged scheme disagreement"));
        }
        // Always rebuild the policy from the descriptor (cheap — fresh
        // monitors), then restore its state; this also covers resuming
        // onto a policy hot-swapped away from the config default.
        let mut policy = active
            .as_ref()
            .map(|a| build_policy(&self.sys, &self.kind, a));
        if let Some(p) = policy.as_deref_mut() {
            p.load_state(dec)?;
        }
        if dec.take_bool()? != self.rrip_umons.is_some() {
            return Err(dec.mismatch("DRRIP monitor presence differs"));
        }
        if let Some(umons) = &mut self.rrip_umons {
            if dec.take_u64()? != umons.len() as u64 {
                return Err(dec.mismatch("DRRIP monitor count differs"));
            }
            for u in umons.iter_mut() {
                u.load_state(dec)?;
            }
        }
        let last_targets = dec.take_u64_vec()?;
        if !last_targets.is_empty() {
            // Under service-mode churn the slot table can outgrow the
            // core count, and an all-dead population legitimately sums
            // to zero — so bound rather than pin both checks.
            if last_targets.len() < self.sys.cores {
                return Err(dec.mismatch("fewer targets than partition slots"));
            }
            if last_targets.iter().sum::<u64>() > self.sys.l2_lines as u64 {
                return Err(dec.invalid("targets overcommit the cache"));
            }
        }
        let recoveries = dec.take_u64()?;
        let reconfig_rollbacks = dec.take_u64()?;
        self.next = next;
        self.active = active;
        self.policy = policy;
        self.wants_stream = self
            .policy
            .as_deref()
            .is_some_and(AllocationPolicy::wants_access_stream);
        self.last_targets = last_targets;
        self.recoveries = recoveries;
        self.reconfig_rollbacks = reconfig_rollbacks;
        Ok(())
    }
}
