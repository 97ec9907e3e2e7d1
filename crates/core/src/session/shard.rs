//! Sharding: deterministic session placement, per-shard engines, and the
//! background index-maintenance worker.

use super::cohort::{CohortRuntime, SessionReport, SessionSpec};
use crate::index_cache::CachedMatcher;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsm_db::PatientId;

/// SplitMix64: a full-period mixing function, so placement spreads even
/// pathologically regular `(patient, session)` identities evenly.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic session → shard placement: a pure function of
/// `(patient, session, shard count)`. A session therefore lands on the
/// same shard in every replay of the same cohort runtime, and two
/// runtimes configured with the same shard count agree on placement. The
/// router is deliberately *immutable* — there is no resize API, so the
/// one thing that would silently re-home sessions mid-cohort is
/// unrepresentable; pick a new shard count by building a new runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            shards: shards.max(1),
        }
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The home shard of `(patient, session)` — always `0` for a single
    /// shard.
    pub fn route(&self, patient: PatientId, session: u32) -> usize {
        let key = (u64::from(patient.0) << 32) | u64::from(session);
        (splitmix64(key) % self.shards as u64) as usize
    }
}

/// Where each session of one replay ran, per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: usize,
    /// Spec indices routed to this shard, ascending.
    pub sessions: Vec<usize>,
    /// Index (re)builds this shard's cache performed during the replay,
    /// including maintenance rebuilds.
    pub rebuilds: u64,
}

/// The sharded half of a [`CohortRuntime`]: the router plus one engine
/// per shard. Every engine is a fork of the parent — same store `Arc`,
/// same parameters — but owns its *own* index cache and its own metrics
/// registry, so shard workers never contend on a shared cache mutex or
/// shared counter cachelines. Engines persist across replays: indexes
/// stay warm, and the maintenance pass refreshes them when the store
/// version moves between replays.
pub(super) struct ShardSet {
    pub(super) router: ShardRouter,
    pub(super) engines: Vec<Arc<CachedMatcher>>,
}

impl ShardSet {
    fn build(parent: &Arc<CachedMatcher>, shards: usize) -> ShardSet {
        let engines = (0..shards)
            .map(|_| {
                let registry = if parent.metrics().is_enabled() {
                    MetricsRegistry::enabled()
                } else {
                    MetricsRegistry::disabled()
                };
                Arc::new(CachedMatcher::new(
                    parent.matcher().fork_with_metrics(registry),
                ))
            })
            .collect();
        ShardSet {
            router: ShardRouter::new(shards),
            engines,
        }
    }
}

impl CohortRuntime {
    /// Shards the cohort over `shards` independent workers (see
    /// [`ShardRouter`] for placement). `shards <= 1` keeps the unsharded
    /// runtime — one shard *is* the unsharded regime, so the two are
    /// identical by construction, not merely by test.
    ///
    /// Sharding changes scheduling and cache ownership only: per-session
    /// reports are bit-identical to the unsharded path (enforced by the
    /// `session_equivalence` suite).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = if shards <= 1 {
            None
        } else {
            Some(ShardSet::build(&self.engine, shards))
        };
        self
    }

    /// The configured shard count (1 when unsharded).
    pub fn num_shards(&self) -> usize {
        self.shards.as_ref().map_or(1, |set| set.router.shards())
    }

    /// The sharded replay: one worker per shard, each driving its routed
    /// sessions against its own engine, plus a maintenance worker that
    /// refreshes stale indexes whenever the store version moves — so a
    /// version bump never forces a rebuild inside a search call.
    pub(super) fn replay_sharded(
        &self,
        specs: &[SessionSpec],
        set: &ShardSet,
    ) -> (Vec<SessionReport>, Vec<ShardReport>) {
        let shards = set.router.shards();
        let rebuilds_before: Vec<u64> = set
            .engines
            .iter()
            .map(|e| e.cache().rebuild_count())
            .collect();
        let snapshots: Vec<MetricsSnapshot> =
            set.engines.iter().map(|e| e.metrics().snapshot()).collect();
        // Synchronous maintenance pass first: if the store version moved
        // since the last replay, every warm index is refreshed *here*,
        // deterministically, before any search can trip over a stale
        // entry. The in-flight daemon below only matters for stores that
        // grow mid-replay (an external writer) — replay itself is
        // read-only.
        for engine in &set.engines {
            engine.cache().refresh_stale();
        }
        let mut batches: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, spec) in specs.iter().enumerate() {
            batches[set.router.route(spec.patient, spec.session)].push(i);
        }
        let shard_sessions = batches.clone();
        let mut slots: Vec<Option<SessionReport>> = specs.iter().map(|_| None).collect();
        if !specs.is_empty() {
            // One bounded channel for the whole cohort: every session
            // sends exactly one report, so capacity `specs.len()` means a
            // shard worker can never block on the collector.
            let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, SessionReport)>(specs.len());
            let stop = AtomicBool::new(false);
            // lint:allow(no-silent-result-drop): every thread is joined
            // inside the scope, so it returns Ok; a worker's panic
            // surfaces only as its missing reports, which are re-run
            // serially right below.
            let _ = crossbeam::thread::scope(|scope| {
                let mut workers = Vec::with_capacity(shards);
                for (shard, batch) in batches.into_iter().enumerate() {
                    let tx = tx.clone();
                    let engine = &set.engines[shard];
                    workers.push(scope.spawn(move |_| {
                        for i in batch {
                            let report = self.drive_session(engine, &specs[i]);
                            // lint:allow(no-silent-result-drop): capacity
                            // covers every session and the receiver
                            // outlives the scope — a send cannot fail.
                            let _ = tx.send((i, report));
                        }
                    }));
                }
                // The maintenance worker: polls the store version and
                // refreshes stale indexes off the search path. It parks
                // between polls instead of sleeping so the stop signal
                // below can wake it immediately — a replay never pays a
                // poll interval of shutdown tail.
                let stop = &stop;
                let daemon = scope.spawn(move |_| {
                    let store = self.engine.matcher().shared_store();
                    let mut seen = store.version();
                    // Poll with exponential backoff: a quiet store is the
                    // steady state, and a daemon waking every millisecond
                    // would preempt shard workers for nothing. A version
                    // bump resets the interval to 1 ms for quick repair
                    // of follow-up writes.
                    let mut interval = Duration::from_millis(1);
                    const MAX_INTERVAL: Duration = Duration::from_millis(64);
                    // Relaxed: the flag is a pure stop signal with no
                    // data published alongside it; the scope join below
                    // is the synchronization point.
                    while !stop.load(Ordering::Relaxed) {
                        let version = store.version();
                        if version != seen {
                            seen = version;
                            for engine in &set.engines {
                                engine.cache().refresh_stale();
                            }
                            interval = Duration::from_millis(1);
                        } else {
                            interval = (interval * 2).min(MAX_INTERVAL);
                        }
                        // WAL checkpointing shares the maintenance worker:
                        // snapshot compaction runs off the session hot
                        // path, just like index repair.
                        self.maybe_checkpoint();
                        std::thread::park_timeout(interval);
                    }
                });
                // Drain on the calling thread while shard workers stream
                // one report per session; the iteration ends when every
                // worker has finished (or unwound) and dropped its
                // sender.
                drop(tx);
                for (i, report) in rx {
                    slots[i] = Some(report);
                }
                // Relaxed: stop signal only (see the load above).
                stop.store(true, Ordering::Relaxed);
                daemon.thread().unpark();
                // Join every handle: an unjoined panicked thread would make
                // the scope re-raise its panic and skip the re-run below.
                // The daemon only maintains caches, so its panic loses no
                // report either.
                for worker in workers.into_iter().chain(std::iter::once(daemon)) {
                    // lint:allow(no-silent-result-drop): the panic payload
                    // is dropped on purpose; lost sessions are re-run below.
                    let _ = worker.join();
                }
            });
        }
        // Contain worker panics: re-run any session whose report is
        // missing, on its *home shard's* engine so cache state and
        // metrics attribution stay per-shard.
        let sessions: Vec<SessionReport> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    let shard = set.router.route(specs[i].patient, specs[i].session);
                    self.drive_session(&set.engines[shard], &specs[i])
                })
            })
            .collect();
        // Fold every shard's interval work back into the parent registry
        // (the snapshot monoid): counters add, gauges max-merge.
        let parent = self.engine.metrics();
        if parent.is_enabled() {
            for (engine, before) in set.engines.iter().zip(&snapshots) {
                parent.absorb(&engine.metrics().snapshot().diff(before));
            }
        }
        let shard_reports = shard_sessions
            .into_iter()
            .enumerate()
            .map(|(shard, sessions)| ShardReport {
                shard,
                sessions,
                rebuilds: set.engines[shard].cache().rebuild_count() - rebuilds_before[shard],
            })
            .collect();
        (sessions, shard_reports)
    }
}

#[cfg(test)]
mod tests {
    use super::super::cohort::CohortRuntime;
    use super::*;
    use crate::params::Params;
    use tsm_db::{PatientAttributes, StreamStore};
    use tsm_model::{segment_signal, PlrTrajectory, Sample, SegmenterConfig};
    use tsm_signal::{BreathingParams, SignalGenerator};

    fn seeded_store(seed: u64) -> (StreamStore, PatientId) {
        let store = StreamStore::new();
        let patient = store.add_patient(PatientAttributes::new());
        let samples = SignalGenerator::new(BreathingParams::default(), seed).generate(120.0);
        let vertices = segment_signal(&samples, SegmenterConfig::clean());
        let plr = PlrTrajectory::from_vertices(vertices).unwrap();
        store.add_stream(patient, 0, plr, samples.len());
        (store, patient)
    }

    fn live_samples(seed: u64, duration: f64) -> Vec<Sample> {
        SignalGenerator::new(BreathingParams::default(), seed).generate(duration)
    }

    #[test]
    fn router_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            let router = ShardRouter::new(shards);
            let again = ShardRouter::new(shards);
            for p in 0..40u32 {
                for s in 0..8u32 {
                    let shard = router.route(PatientId(p), s);
                    assert!(shard < shards);
                    assert_eq!(shard, again.route(PatientId(p), s));
                }
            }
        }
        // Single shard routes everything to 0.
        assert_eq!(ShardRouter::new(0).shards(), 1);
        assert_eq!(ShardRouter::new(1).route(PatientId(7), 3), 0);
    }

    #[test]
    fn router_spreads_regular_identities() {
        // Sequential patients with sequential session numbers — the most
        // regular cohort shape — must still land on every shard.
        let shards = 8;
        let router = ShardRouter::new(shards);
        let mut counts = vec![0usize; shards];
        for p in 0..64u32 {
            for s in 1..5u32 {
                counts[router.route(PatientId(p), s)] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert_eq!(total, 256);
        for (shard, &n) in counts.iter().enumerate() {
            assert!(n > 0, "shard {shard} received no sessions");
            assert!(n < total / 2, "shard {shard} received {n}/{total} sessions");
        }
    }

    #[test]
    fn sharded_replay_matches_unsharded_reports() {
        let (store, patient) = seeded_store(50);
        let shared = store.into_shared();
        let params = Params {
            min_matches: 1,
            ..Params::default()
        };
        let specs: Vec<SessionSpec> = (0..6)
            .map(|i| SessionSpec {
                patient,
                session: i + 1,
                samples: live_samples(51 + i as u64, 30.0),
            })
            .collect();
        let unsharded = CohortRuntime::new(shared.clone(), params.clone())
            .unwrap()
            .with_segmenter(SegmenterConfig::clean())
            .with_threads(3)
            .replay(&specs);
        let runtime = CohortRuntime::new(shared, params)
            .unwrap()
            .with_segmenter(SegmenterConfig::clean())
            .with_shards(3);
        assert_eq!(runtime.num_shards(), 3);
        let sharded = runtime.replay(&specs);
        assert_eq!(unsharded.sessions, sharded.sessions);
        // Shard attribution covers every session exactly once, on its
        // routed home shard.
        assert_eq!(sharded.shards.len(), 3);
        let mut seen: Vec<usize> = sharded
            .shards
            .iter()
            .flat_map(|s| s.sessions.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..specs.len()).collect::<Vec<_>>());
        let router = ShardRouter::new(3);
        for shard in &sharded.shards {
            for &i in &shard.sessions {
                assert_eq!(
                    router.route(specs[i].patient, specs[i].session),
                    shard.shard
                );
            }
        }
    }

    #[test]
    fn with_one_shard_is_the_unsharded_runtime() {
        let (store, _) = seeded_store(54);
        let runtime = CohortRuntime::new(store, Params::default())
            .unwrap()
            .with_shards(1);
        assert_eq!(runtime.num_shards(), 1);
        assert!(runtime.shards.is_none(), "one shard must not fork engines");
    }
}
