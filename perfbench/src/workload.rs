//! The workloads and the open-loop schedule each one replays.
//!
//! Every live session streams 30 Hz samples. Its batch `j` (samples
//! `[warm + j*BATCH, warm + (j+1)*BATCH)`) is due `(j+1)` batch periods
//! after the session's start, whether or not the server has kept up; a
//! `/predict` or `/query` follows its batch's ingest ack on the same due
//! time. Sessions are staggered across the batch period. The whole
//! schedule runs at `PACE` times real time. The probe phase that follows
//! has sessions and rounds of its own (`probe_instances`, `probe_rounds`).

use tsm_model::Sample;
use tsm_signal::{CohortConfig, SyntheticCohort};

/// Sample rate of every generated stream (the imaging stream of §7.5).
pub const SAMPLE_HZ: f64 = 30.0;
/// Samples per `POST /ingest`.
pub const BATCH: usize = 3;
/// Multiple of real time the schedule runs at.
pub const PACE: f64 = 1.0;
/// Sessions of the probe phase.
pub const PROBE_SESSIONS: usize = 32;
/// Rounds of the probe phase. A round moves every probe session on by
/// `PROBE_BATCHES` batches, then asks each of them `PROBE_REPEATS` times.
pub const PROBE_ROUNDS: usize = 12;
/// Batches each probe session ingests per round: one second of stream,
/// so most rounds leave the session with a new query.
const PROBE_BATCHES: usize = 10;
/// Sweeps of `/predict` + `/query` over the probe sessions per round;
/// the sessions' state holds still between them.
const PROBE_REPEATS: usize = 3;
/// Stream seconds every probe session ingests before the first round.
const PROBE_WARM_S: f64 = 40.0;

/// A session that streams for a while, then goes idle and is sealed by
/// the server's idle timeout while its slot starts a fresh session.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Stream seconds each session lives before going idle.
    pub lifetime_s: f64,
    /// The server's `idle_timeout_ms`.
    pub idle_timeout_ms: u64,
    /// The server's `checkpoint_every` (WAL appends between snapshots).
    pub checkpoint_every: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Patients in the stored cohort (paper-scale sessions and streams).
    pub store_patients: usize,
    /// Concurrent live sessions.
    pub sessions: usize,
    /// A `/predict` follows every `predict_every`-th batch.
    pub predict_every: usize,
    /// A `/query?k=10` follows every `query_every`-th batch, counted
    /// from batch `query_phase` (so it can skip the batches that carry
    /// a `/predict`).
    pub query_every: usize,
    pub query_phase: usize,
    /// Stream seconds each session ingests during set-up, so the
    /// measured window starts with warm sessions.
    pub warmup_s: f64,
    pub churn: Option<Churn>,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "predict_heavy",
        why: "120-patient store (~120k vertices), 12 live sessions, a predict or top-10 query after 2 of 3 batches: matcher search and prediction dominate each request",
        store_patients: 120,
        sessions: 12,
        predict_every: 3,
        query_every: 3,
        query_phase: 1,
        warmup_s: 40.0,
        churn: None,
    },
    Workload {
        name: "session_churn",
        why: "42-patient store, 16 sessions that stream 20 s then idle and are sealed under live traffic: store-version bumps, index rebuilds, checkpoints",
        store_patients: 42,
        sessions: 16,
        predict_every: 2,
        query_every: 4,
        query_phase: 1,
        warmup_s: 0.0,
        churn: Some(Churn {
            lifetime_s: 20.0,
            idle_timeout_ms: 1000,
            checkpoint_every: 64,
        }),
    },
];

impl Workload {
    /// Without churn the store never changes during a run, so every
    /// answer follows from the acked samples alone and the answer oracle
    /// applies.
    pub fn store_fixed(&self) -> bool {
        self.churn.is_none()
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Ingest,
    Predict,
    Query,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Ingest, Kind::Predict, Kind::Query];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Predict => "predict",
            Kind::Query => "query",
        }
    }
}

/// One live session as the server sees it: a name and the samples it
/// will receive.
#[derive(Debug, Clone)]
pub struct Instance {
    pub name: String,
    /// The generator slot it occupies (churn reuses a slot for a
    /// sequence of sessions).
    pub slot: usize,
    pub samples: Vec<Sample>,
    /// Samples sent as one batch during set-up (0: starts cold).
    pub warm: usize,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Due time, ns after the start of the measured window.
    pub due_ns: u64,
    pub instance: usize,
    pub kind: Kind,
    /// Ingest: the sample range `[lo, hi)` of the instance's stream.
    pub lo: usize,
    pub hi: usize,
}

#[derive(Debug)]
pub struct Plan {
    pub instances: Vec<Instance>,
    /// Requests per generator thread, in send order.
    pub threads: Vec<Vec<Req>>,
}

/// Seed salt that keeps live streams distinct from the stored cohort.
const LIVE_SALT: u64 = 0x11FE_5EED_0BAD_CAFE;
/// Seed salt that keeps the probe streams distinct from the live ones.
const PROBE_SALT: u64 = 0x9B0B_E5E5_5100_0001;

fn live_streams(count: usize, duration_s: f64, seed: u64) -> Vec<Vec<Sample>> {
    let cohort = SyntheticCohort::generate(CohortConfig {
        n_patients: count,
        sessions_per_patient: 1,
        streams_per_session: 1,
        stream_duration_s: duration_s,
        dim: 1,
        seed: seed ^ LIVE_SALT,
    });
    cohort
        .patients
        .into_iter()
        .map(|mut p| p.sessions.remove(0).streams.remove(0))
        .collect()
}

/// Builds the live sessions and the schedule of a `window_s`-second
/// measured window, spread over `threads` generator threads. Session
/// names start with `prefix`.
pub fn plan(w: &Workload, seed: u64, window_s: f64, threads: usize, prefix: &str) -> Plan {
    let period_ns = (BATCH as f64 / (SAMPLE_HZ * PACE) * 1e9) as u64;
    let window_ns = (window_s * 1e9) as u64;
    let batches_in_window = (window_ns / period_ns) as usize + 2;
    // Sessions start staggered across one batch period so their
    // requests do not arrive in lockstep.
    let offset = |slot: usize| period_ns * slot as u64 / w.sessions as u64;

    // (instance, start_ns, number of batches)
    let mut spans: Vec<(Instance, u64, usize)> = Vec::new();
    match w.churn {
        None => {
            let warm = (w.warmup_s * SAMPLE_HZ) as usize;
            let len = warm + batches_in_window * BATCH;
            let streams = live_streams(w.sessions, len as f64 / SAMPLE_HZ + 1.0, seed);
            for (slot, samples) in streams.into_iter().enumerate() {
                let inst = Instance {
                    name: format!("{prefix}s{slot}"),
                    slot,
                    samples,
                    warm,
                };
                spans.push((inst, offset(slot), batches_in_window));
            }
        }
        Some(c) => {
            let life = (c.lifetime_s * SAMPLE_HZ) as usize / BATCH * BATCH;
            let life_batches = life / BATCH;
            // Generation g of slot k: the first generation was warmed
            // with a staggered share of its life, so the slots go idle
            // at evenly spread times.
            let mut starts: Vec<(usize, u64, usize, usize)> = Vec::new(); // (slot, start, warm, batches)
            for slot in 0..w.sessions {
                let warm_batches = (life_batches * (2 * slot + 1)) / (2 * w.sessions);
                let mut start = offset(slot);
                let mut warm = warm_batches * BATCH;
                let mut batches = life_batches - warm_batches;
                while start < window_ns {
                    starts.push((slot, start, warm, batches));
                    start += batches as u64 * period_ns;
                    warm = 0;
                    batches = life_batches;
                }
            }
            let streams = live_streams(starts.len(), life as f64 / SAMPLE_HZ + 1.0, seed);
            let mut gen = vec![0usize; w.sessions];
            for ((slot, start, warm, batches), samples) in starts.into_iter().zip(streams) {
                let inst = Instance {
                    name: format!("{prefix}c{slot}-{}", gen[slot]),
                    slot,
                    samples,
                    warm,
                };
                gen[slot] += 1;
                spans.push((inst, start, batches));
            }
        }
    }

    let mut per_thread: Vec<Vec<Req>> = vec![Vec::new(); threads.max(1)];
    let mut instances = Vec::with_capacity(spans.len());
    for (ix, (inst, start, batches)) in spans.into_iter().enumerate() {
        let queue = &mut per_thread[inst.slot % threads.max(1)];
        for j in 0..batches {
            let due_ns = start + (j as u64 + 1) * period_ns;
            let lo = inst.warm + j * BATCH;
            let hi = lo + BATCH;
            if due_ns >= window_ns || hi > inst.samples.len() {
                break;
            }
            let mut push = |kind| {
                queue.push(Req {
                    due_ns,
                    instance: ix,
                    kind,
                    lo,
                    hi,
                })
            };
            push(Kind::Ingest);
            if (j + 1) % w.predict_every == 0 {
                push(Kind::Predict);
            }
            if (j + 1 + w.query_phase).is_multiple_of(w.query_every) {
                push(Kind::Query);
            }
        }
        instances.push(inst);
    }
    for queue in &mut per_thread {
        // Stable: requests of one batch keep ingest → predict → query.
        queue.sort_by_key(|r| (r.due_ns, r.instance, r.kind));
    }
    Plan {
        instances,
        threads: per_thread,
    }
}

/// The probe sessions.
pub fn probe_instances(seed: u64) -> Vec<Instance> {
    let warm = (PROBE_WARM_S * SAMPLE_HZ) as usize;
    let len = warm + PROBE_ROUNDS * PROBE_BATCHES * BATCH;
    live_streams(
        PROBE_SESSIONS,
        len as f64 / SAMPLE_HZ + 1.0,
        seed ^ PROBE_SALT,
    )
    .into_iter()
    .enumerate()
    .map(|(slot, samples)| Instance {
        name: format!("p{slot}"),
        slot,
        samples,
        warm,
    })
    .collect()
}

/// The probe rounds over the sessions of `probe_instances`, which sit
/// at `first..` among the instances: round `r` is due `r * spacing_ns`
/// after the phase starts, and its requests go out back to back.
pub fn probe_rounds(first: usize, spacing_ns: u64) -> Vec<Req> {
    let warm = (PROBE_WARM_S * SAMPLE_HZ) as usize;
    let mut reqs = Vec::new();
    for r in 0..PROBE_ROUNDS {
        let req = |j, kind, lo| Req {
            due_ns: r as u64 * spacing_ns,
            instance: first + j,
            kind,
            lo,
            hi: lo + BATCH,
        };
        for b in 0..PROBE_BATCHES {
            let lo = warm + (r * PROBE_BATCHES + b) * BATCH;
            reqs.extend((0..PROBE_SESSIONS).map(|j| req(j, Kind::Ingest, lo)));
        }
        for _ in 0..PROBE_REPEATS {
            for j in 0..PROBE_SESSIONS {
                reqs.push(req(j, Kind::Predict, 0));
                reqs.push(req(j, Kind::Query, 0));
            }
        }
    }
    reqs
}
