//! The RRIP replacement-policy family (Jaleel et al., ISCA 2010), adapted to
//! candidate-based arrays.
//!
//! Each line carries an M-bit *re-reference prediction value* (RRPV);
//! `2^M - 1` means "re-referenced in the distant future" (best eviction
//! candidate) and `0` means "near-immediate". Variants differ in insertion:
//!
//! * **SRRIP** (scan-resistant): insert at `max - 1` ("long" interval).
//! * **BRRIP** (thrash-resistant): insert at `max` ("distant"), except with
//!   low probability (1/32) at `max - 1`.
//! * **DRRIP**: choose between SRRIP and BRRIP dynamically with set dueling
//!   and a saturating policy-selector (PSEL) counter.
//! * **TA-DRRIP**: thread-aware dueling (TADIP-style) — one PSEL and one set
//!   of leader buckets per thread/partition.
//!
//! Skew-associative caches and zcaches have no sets, so "set dueling"
//! becomes *bucket dueling*: an H3 hash of the address selects a leader
//! bucket, which works identically (the paper notes RRIP policies are
//! "trivially applicable" to zcaches, §6.2).
//!
//! Victim selection among candidates: evict any candidate with RRPV = max;
//! if none exists, age all candidates up by the deficit and retry — with
//! candidate lists this is a single arithmetic step, see
//! [`RripPolicy::select_victim`].

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::array::LineAddr;
use crate::hash::H3Hasher;

/// Which RRIP variant drives insertions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RripMode {
    /// Static re-reference interval prediction: always insert "long".
    Srrip,
    /// Bimodal: insert "distant", occasionally "long".
    Brrip,
    /// Dynamic: bucket dueling with one global PSEL.
    Drrip,
    /// Thread-aware dynamic: per-partition PSEL and leader buckets.
    TaDrrip,
    /// Each partition's base policy is set externally (used by
    /// Vantage-DRRIP, where UMON picks SRRIP or BRRIP per partition at each
    /// repartitioning, paper §6.2).
    PerPartition,
}

/// The two base policies DRRIP-style modes arbitrate between.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BasePolicy {
    /// Insert at `max - 1`.
    #[default]
    Srrip,
    /// Insert at `max`, with probability 1/32 at `max - 1`.
    Brrip,
}

/// Configuration for [`RripPolicy`].
#[derive(Clone, Debug)]
pub struct RripConfig {
    /// RRPV width in bits (the paper's experiments use 3).
    pub bits: u8,
    /// Dueling mode.
    pub mode: RripMode,
    /// Number of partitions (threads) sharing the cache.
    pub partitions: usize,
    /// Total dueling buckets; two per PSEL are leaders.
    pub duel_buckets: u32,
    /// Saturating PSEL magnitude (counter range is `-psel_max..=psel_max`).
    pub psel_max: i32,
    /// RNG seed for BRRIP's bimodal coin.
    pub seed: u64,
}

impl RripConfig {
    /// The paper's configuration: 3-bit RRPVs.
    pub fn paper(mode: RripMode, partitions: usize, seed: u64) -> Self {
        Self {
            bits: 3,
            mode,
            partitions,
            duel_buckets: 32,
            psel_max: 512,
            seed,
        }
    }
}

/// RRIP insertion/promotion/selection logic for one cache.
///
/// Per-line state (the RRPV) is owned by the caller, which stores it in its
/// per-frame metadata; this struct holds only the policy-level registers.
///
/// # Example
///
/// ```
/// use vantage_cache::{LineAddr, RripConfig, RripMode, RripPolicy};
///
/// let mut p = RripPolicy::new(RripConfig::paper(RripMode::Srrip, 1, 7));
/// let rrpv = p.insertion_rrpv(0, LineAddr(4));
/// assert_eq!(rrpv, 6); // SRRIP inserts at max-1 = 2^3 - 2
///
/// let cands = [3u8, 6, 7, 0];
/// let (victim, aged) = p.select_victim(cands);
/// assert_eq!((victim, aged), (2, 0)); // an RRPV-7 line exists
/// ```
#[derive(Clone, Debug)]
pub struct RripPolicy {
    max: u8,
    mode: RripMode,
    /// One PSEL for DRRIP; one per partition for TA-DRRIP. Positive values
    /// mean BRRIP is doing better (fewer misses in its leader buckets).
    psel: Vec<i32>,
    psel_max: i32,
    /// Externally-set per-partition base policies (PerPartition mode).
    part_policy: Vec<BasePolicy>,
    duel_hasher: H3Hasher,
    duel_buckets: u32,
    rng: SmallRng,
}

impl RripPolicy {
    /// Creates the policy from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or > 7, if `partitions` is 0, or if
    /// `duel_buckets < 2`.
    pub fn new(config: RripConfig) -> Self {
        assert!(
            config.bits >= 1 && config.bits <= 7,
            "RRPV width must be 1..=7 bits"
        );
        assert!(config.partitions > 0, "need at least one partition");
        assert!(config.duel_buckets >= 2, "need at least 2 dueling buckets");
        let psel_len = match config.mode {
            RripMode::TaDrrip => config.partitions,
            _ => 1,
        };
        Self {
            max: (1u8 << config.bits) - 1,
            mode: config.mode,
            psel: vec![0; psel_len],
            psel_max: config.psel_max,
            part_policy: vec![BasePolicy::default(); config.partitions],
            duel_hasher: H3Hasher::new(config.seed ^ 0xD0E1),
            duel_buckets: config.duel_buckets,
            rng: SmallRng::seed_from_u64(config.seed),
        }
    }

    /// Maximum RRPV (the "distant future" value).
    #[inline]
    pub fn max_rrpv(&self) -> u8 {
        self.max
    }

    /// The RRPV a hit promotes a line to (hit-priority promotion).
    #[inline]
    pub fn hit_rrpv(&self) -> u8 {
        0
    }

    /// Sets partition `part`'s base policy (only meaningful in
    /// [`RripMode::PerPartition`]).
    ///
    /// # Panics
    ///
    /// Panics if `part` is out of range.
    pub fn set_partition_policy(&mut self, part: usize, policy: BasePolicy) {
        self.part_policy[part] = policy;
    }

    /// The base policy partition `part` currently uses for follower
    /// accesses.
    pub fn partition_policy(&self, part: usize) -> BasePolicy {
        match self.mode {
            RripMode::Srrip => BasePolicy::Srrip,
            RripMode::Brrip => BasePolicy::Brrip,
            RripMode::Drrip => {
                if self.psel[0] > 0 {
                    BasePolicy::Brrip
                } else {
                    BasePolicy::Srrip
                }
            }
            RripMode::TaDrrip => {
                if self.psel[part] > 0 {
                    BasePolicy::Brrip
                } else {
                    BasePolicy::Srrip
                }
            }
            RripMode::PerPartition => self.part_policy[part],
        }
    }

    /// Dueling role of an address for a given PSEL domain: `Some(policy)` if
    /// the address falls in one of that domain's two leader buckets.
    fn leader_role(&self, domain: usize, addr: LineAddr) -> Option<BasePolicy> {
        let bucket = self.duel_hasher.bucket(addr.0, self.duel_buckets);
        // Rotate leader buckets by domain so TA-DRRIP threads duel on
        // disjoint buckets.
        let srrip_leader = (2 * domain as u32) % self.duel_buckets;
        let brrip_leader = (2 * domain as u32 + 1) % self.duel_buckets;
        if bucket == srrip_leader {
            Some(BasePolicy::Srrip)
        } else if bucket == brrip_leader {
            Some(BasePolicy::Brrip)
        } else {
            None
        }
    }

    /// Records a miss by `part` on `addr`, updating dueling state.
    ///
    /// Call on every cache miss before inserting the line.
    pub fn note_miss(&mut self, part: usize, addr: LineAddr) {
        let domain = match self.mode {
            RripMode::Drrip => 0,
            RripMode::TaDrrip => part,
            _ => return,
        };
        if let Some(role) = self.leader_role(domain, addr) {
            // A miss charges the leading policy: SRRIP-leader misses push
            // PSEL toward BRRIP and vice versa.
            let delta = match role {
                BasePolicy::Srrip => 1,
                BasePolicy::Brrip => -1,
            };
            self.psel[domain] = (self.psel[domain] + delta).clamp(-self.psel_max, self.psel_max);
        }
    }

    /// The RRPV to install a new line with, for partition `part` and address
    /// `addr` (leader buckets force their fixed policy).
    pub fn insertion_rrpv(&mut self, part: usize, addr: LineAddr) -> u8 {
        let policy = match self.mode {
            RripMode::Drrip => self
                .leader_role(0, addr)
                .unwrap_or_else(|| self.partition_policy(part)),
            RripMode::TaDrrip => self
                .leader_role(part, addr)
                .unwrap_or_else(|| self.partition_policy(part)),
            _ => self.partition_policy(part),
        };
        match policy {
            BasePolicy::Srrip => self.max - 1,
            BasePolicy::Brrip => {
                if self.rng.gen_ratio(1, 32) {
                    self.max - 1
                } else {
                    self.max
                }
            }
        }
    }

    /// Picks the victim among candidate RRPVs and returns
    /// `(victim_index, aging)`, where `aging` must be added (saturating at
    /// `max`) to every candidate's stored RRPV by the caller — this is the
    /// candidate-list equivalent of RRIP's "increment all and retry" loop.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn select_victim(&self, candidates: impl IntoIterator<Item = u8>) -> (usize, u8) {
        let (idx, best) = candidates
            .into_iter()
            .enumerate()
            .max_by_key(|&(_, v)| v)
            .expect("no candidates to select from");
        (idx, self.max - best)
    }
}

impl vantage_snapshot::Snapshot for RripPolicy {
    fn save_state(&self, enc: &mut vantage_snapshot::Encoder) {
        enc.put_i32_slice(&self.psel);
        enc.put_u64(self.part_policy.len() as u64);
        for p in &self.part_policy {
            enc.put_u8(match p {
                BasePolicy::Srrip => 0,
                BasePolicy::Brrip => 1,
            });
        }
        for s in self.rng.state() {
            enc.put_u64(s);
        }
    }

    fn load_state(
        &mut self,
        dec: &mut vantage_snapshot::Decoder<'_>,
    ) -> vantage_snapshot::Result<()> {
        let psel = dec.take_i32_vec()?;
        if psel.len() != self.psel.len() {
            return Err(dec.mismatch("PSEL domain count differs"));
        }
        if psel.iter().any(|&v| v.abs() > self.psel_max) {
            return Err(dec.invalid("PSEL value outside saturation range"));
        }
        let nparts = dec.take_usize()?;
        if nparts != self.part_policy.len() {
            return Err(dec.mismatch("partition count differs"));
        }
        let mut part_policy = Vec::with_capacity(nparts);
        for _ in 0..nparts {
            part_policy.push(match dec.take_u8()? {
                0 => BasePolicy::Srrip,
                1 => BasePolicy::Brrip,
                b => return Err(dec.invalid(&format!("base-policy tag {b}"))),
            });
        }
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = dec.take_u64()?;
        }
        self.psel = psel;
        self.part_policy = part_policy;
        self.rng = SmallRng::from_state(rng_state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(mode: RripMode) -> RripPolicy {
        RripPolicy::new(RripConfig::paper(mode, 4, 42))
    }

    #[test]
    fn srrip_inserts_long() {
        let mut p = policy(RripMode::Srrip);
        for i in 0..100u64 {
            assert_eq!(p.insertion_rrpv(0, LineAddr(i)), 6);
        }
    }

    #[test]
    fn brrip_inserts_mostly_distant() {
        let mut p = policy(RripMode::Brrip);
        let mut distant = 0;
        let n = 3200;
        for i in 0..n {
            if p.insertion_rrpv(0, LineAddr(i)) == 7 {
                distant += 1;
            }
        }
        // Expect ~31/32 distant: allow a generous band.
        assert!(distant > n * 9 / 10, "only {distant}/{n} distant inserts");
        assert!(distant < n, "BRRIP must occasionally insert long");
    }

    #[test]
    fn victim_selection_prefers_max_rrpv() {
        let p = policy(RripMode::Srrip);
        let (v, aging) = p.select_victim([1, 7, 3]);
        assert_eq!((v, aging), (1, 0));
    }

    #[test]
    fn victim_selection_reports_aging_deficit() {
        let p = policy(RripMode::Srrip);
        let (v, aging) = p.select_victim([1, 4, 3]);
        assert_eq!(v, 1);
        assert_eq!(aging, 3, "all candidates age by max - best");
    }

    #[test]
    fn drrip_psel_switches_policy() {
        let mut p = policy(RripMode::Drrip);
        assert_eq!(
            p.partition_policy(0),
            BasePolicy::Srrip,
            "ties break to SRRIP"
        );
        // Hammer misses on SRRIP leader addresses until PSEL goes positive.
        let srrip_leaders: Vec<LineAddr> = (0..100_000u64)
            .map(LineAddr)
            .filter(|&a| p.leader_role(0, a) == Some(BasePolicy::Srrip))
            .take(100)
            .collect();
        assert!(!srrip_leaders.is_empty());
        for _ in 0..20 {
            for &a in &srrip_leaders {
                p.note_miss(0, a);
            }
        }
        assert_eq!(p.partition_policy(0), BasePolicy::Brrip);
    }

    #[test]
    fn ta_drrip_duels_per_partition() {
        let mut p = policy(RripMode::TaDrrip);
        let leaders: Vec<LineAddr> = (0..100_000u64)
            .map(LineAddr)
            .filter(|&a| p.leader_role(1, a) == Some(BasePolicy::Srrip))
            .take(100)
            .collect();
        for _ in 0..20 {
            for &a in &leaders {
                p.note_miss(1, a);
            }
        }
        assert_eq!(p.partition_policy(1), BasePolicy::Brrip);
        assert_eq!(
            p.partition_policy(0),
            BasePolicy::Srrip,
            "other partitions unaffected"
        );
    }

    #[test]
    fn per_partition_mode_respects_external_choice() {
        let mut p = policy(RripMode::PerPartition);
        p.set_partition_policy(2, BasePolicy::Brrip);
        assert_eq!(p.partition_policy(2), BasePolicy::Brrip);
        assert_eq!(p.partition_policy(0), BasePolicy::Srrip);
    }

    #[test]
    fn psel_saturates() {
        let mut p = policy(RripMode::Drrip);
        let leaders: Vec<LineAddr> = (0..100_000u64)
            .map(LineAddr)
            .filter(|&a| p.leader_role(0, a) == Some(BasePolicy::Srrip))
            .take(64)
            .collect();
        for _ in 0..1000 {
            for &a in &leaders {
                p.note_miss(0, a);
            }
        }
        assert!(p.psel[0] <= 512);
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn empty_candidates_panics() {
        policy(RripMode::Srrip).select_victim([]);
    }
}
