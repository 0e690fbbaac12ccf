//! Execution engines: one API over the serial, batched and pipelined ways
//! of driving an [`Llc`] through a request stream.
//!
//! A driver can feed a cache three ways:
//!
//! * **Serial** — one [`Llc::access`] call per request; the timing-faithful
//!   style the cycle-level simulator needs (each outcome feeds back into
//!   core timing before the next request exists).
//! * **Batched** — [`Llc::access_batch`] over fixed driver chunks.
//! * **Pipelined** — a [`BankedLlc`] window: requests are routed to one run
//!   per bank and each run is served in one call, bank-major, with the only
//!   true barrier at the epoch boundary.
//!
//! A banked machine is one [`BankedLlc`] whichever way it is driven, and all
//! three give bit-identical outcomes, statistics and partition sizes, so
//! nothing in the workspace selects an engine any more. [`EngineKind`] and
//! [`Engine`] are kept only because the frozen `benchmark/` package names
//! them; both go away with the benchmark-side follow-up.

use vantage_partitioning::{AccessOutcome, AccessRequest, BankedLlc, Llc};

/// Names an execution engine. Selects nothing: kept only for the frozen
/// `benchmark/` package, and goes away with its follow-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// One `access` call per request.
    Serial,
    /// `access_batch` over fixed driver chunks.
    #[default]
    Batched,
    /// Windows through a [`BankedLlc`]'s per-bank runs; barriers only at
    /// epoch boundaries.
    Pipelined,
}

/// A borrowed cache plus the chosen way of driving requests through it.
///
/// `drive` appends outcomes in request order for every engine, so callers
/// digest or inspect them uniformly; `barrier` quiesces engines that queue
/// work (a no-op for serial/batched). Construct one per window or hold one
/// across a run — the engine owns no simulation state.
///
/// # Example
///
/// ```
/// use vantage::engine::{Engine, EngineKind};
/// use vantage_cache::SetAssocArray;
/// use vantage_partitioning::{AccessRequest, BaselineLlc, Llc, PartitionId, RankPolicy};
///
/// let mut llc = BaselineLlc::try_new(
///     Box::new(SetAssocArray::hashed(1024, 16, 1)),
///     1,
///     RankPolicy::Lru,
/// ).expect("valid baseline geometry");
/// let reqs: Vec<AccessRequest> = (0..100)
///     .map(|i| AccessRequest::read(PartitionId::from_index(0), vantage_cache::LineAddr(i)))
///     .collect();
/// let mut out = Vec::new();
/// let mut eng = Engine::Batched { llc: &mut llc, chunk: 32 };
/// eng.drive(&reqs, &mut out);
/// eng.barrier();
/// assert_eq!(out.len(), 100);
/// assert_eq!(eng.kind(), EngineKind::Batched);
/// ```
pub enum Engine<'a> {
    /// Per-access serial drive over any cache.
    Serial(&'a mut dyn Llc),
    /// Chunked `access_batch` drive over any cache (`chunk` = 0 serves the
    /// whole window in one call).
    Batched {
        /// The driven cache.
        llc: &'a mut dyn Llc,
        /// Requests per `access_batch` call (0 = whole window).
        chunk: usize,
    },
    /// Window drive through a banked cache's per-bank runs.
    Pipelined(&'a mut BankedLlc),
}

impl Engine<'_> {
    /// Which engine this is.
    pub fn kind(&self) -> EngineKind {
        match self {
            Self::Serial(_) => EngineKind::Serial,
            Self::Batched { .. } => EngineKind::Batched,
            Self::Pipelined(_) => EngineKind::Pipelined,
        }
    }

    /// Serves a window of requests through the engine's native path,
    /// appending outcomes to `out` in request order.
    pub fn drive(&mut self, reqs: &[AccessRequest], out: &mut Vec<AccessOutcome>) {
        match self {
            Self::Serial(llc) => {
                out.reserve(reqs.len());
                for &r in reqs {
                    out.push(llc.access(r));
                }
            }
            Self::Batched { llc, chunk } => {
                if *chunk == 0 {
                    llc.access_batch(reqs, out);
                } else {
                    for c in reqs.chunks(*chunk) {
                        llc.access_batch(c, out);
                    }
                }
            }
            Self::Pipelined(llc) => llc.access_batch(reqs, out),
        }
    }

    /// Quiesces the engine: after this, every driven request has been
    /// served and is visible to stats, snapshots and repartitioning. A
    /// no-op for engines that never queue (serial, batched).
    pub fn barrier(&mut self) {
        if let Self::Pipelined(llc) = self {
            llc.barrier();
        }
    }

    /// The driven cache, as the common trait object.
    pub fn llc_mut(&mut self) -> &mut dyn Llc {
        match self {
            Self::Serial(llc) => *llc,
            Self::Batched { llc, .. } => *llc,
            Self::Pipelined(llc) => *llc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vantage_cache::{LineAddr, PartitionId, ZArray};
    use vantage_partitioning::{BaselineLlc, RankPolicy};

    fn banks(n: usize) -> Vec<Box<dyn Llc>> {
        (0..n as u64)
            .map(|b| {
                Box::new(
                    BaselineLlc::try_new(Box::new(ZArray::new(256, 4, 16, b)), 2, RankPolicy::Lru)
                        .expect("valid baseline geometry"),
                ) as Box<dyn Llc>
            })
            .collect()
    }

    fn reqs(n: u64) -> Vec<AccessRequest> {
        (0..n)
            .map(|i| {
                AccessRequest::read(
                    PartitionId::from_index((i % 2) as usize),
                    LineAddr((i * 2654435761) % 1500),
                )
            })
            .collect()
    }

    #[test]
    fn all_engines_agree_on_outcomes_and_stats() {
        let trace = reqs(10_000);
        let mut outs = Vec::new();
        let mut all_stats = Vec::new();
        for kind in [
            EngineKind::Serial,
            EngineKind::Batched,
            EngineKind::Pipelined,
        ] {
            let mut serial_llc;
            let mut batched_llc;
            let mut pipe_llc;
            let mut eng = match kind {
                EngineKind::Serial => {
                    serial_llc = BankedLlc::try_new(banks(4), 7).expect("valid bank set");
                    Engine::Serial(&mut serial_llc)
                }
                EngineKind::Batched => {
                    batched_llc = BankedLlc::try_new(banks(4), 7).expect("valid bank set");
                    Engine::Batched {
                        llc: &mut batched_llc,
                        chunk: 777,
                    }
                }
                EngineKind::Pipelined => {
                    pipe_llc = BankedLlc::try_new(banks(4), 7).expect("valid bank set");
                    Engine::Pipelined(&mut pipe_llc)
                }
            };
            assert_eq!(eng.kind(), kind);
            let mut out = Vec::new();
            for window in trace.chunks(3001) {
                eng.drive(window, &mut out);
            }
            eng.barrier();
            let s = eng.llc_mut().stats_mut();
            all_stats.push((s.hits.clone(), s.misses.clone(), s.evictions));
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1], "serial vs batched");
        assert_eq!(outs[0], outs[2], "serial vs pipelined");
        assert_eq!(all_stats[0], all_stats[1]);
        assert_eq!(all_stats[0], all_stats[2]);
    }

    #[test]
    fn batched_chunk_zero_serves_whole_window() {
        let trace = reqs(500);
        let mut llc = BankedLlc::try_new(banks(2), 3).expect("valid bank set");
        let mut eng = Engine::Batched {
            llc: &mut llc,
            chunk: 0,
        };
        let mut out = Vec::new();
        eng.drive(&trace, &mut out);
        assert_eq!(out.len(), 500);
    }
}
