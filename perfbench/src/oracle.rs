//! The answer oracle and the durability expectations.
//!
//! Each session is replayed offline through `external_session` on a twin
//! engine over a copy of the served store: the acked batches are pushed
//! in send order, and at every `/predict` and `/query` the twin's answer
//! is rendered and compared with the served reply, floats bit for bit.
//! The same replay yields the vertices the server must have made durable.

use crate::client::Outcome;
use crate::render;
use crate::workload::{Instance, Kind, Plan};
use std::sync::Arc;
use tsm_core::index_cache::CachedMatcher;
use tsm_core::session::{external_session, HandleRejection, SessionConfig};
use tsm_db::PatientId;
use tsm_model::Vertex;

/// What the server must hold for one session after the run.
#[derive(Debug, Clone, Default)]
pub struct Expect {
    /// Samples the server acknowledged (warm-up batch included).
    pub acked_samples: u64,
    /// Vertices committed to the WAL by the last acknowledged ingest.
    pub committed: Vec<Vertex>,
    /// The stream a seal stores (the segmenter tail flushed).
    pub finished: Vec<Vertex>,
    /// False once an ingest failed in a way that leaves unknown whether
    /// the server applied it (its later state cannot be predicted).
    pub known: bool,
    /// Whether the session ever reached the server.
    pub created: bool,
}

#[derive(Debug, Default)]
pub struct Report {
    pub expects: Vec<Expect>,
    /// Answers compared against the twin.
    pub checked: usize,
    /// Indices (into the outcome slice) of replies that differ.
    pub wrong: Vec<usize>,
    pub first_wrong: Option<String>,
}

/// Replays every session of `plan`. With `twin` the answers are checked
/// against it; without, only the durability expectations are derived.
/// `session_no(i)` is the server's session number of instance `i`.
pub fn replay(
    plan: &Plan,
    outcomes: &[Outcome],
    twin: Option<&Arc<CachedMatcher>>,
    serve_patient: PatientId,
    horizon: f64,
    session_no: impl Fn(usize) -> u32 + Sync,
) -> Report {
    let mut per_instance: Vec<Vec<usize>> = vec![Vec::new(); plan.instances.len()];
    for (ix, o) in outcomes.iter().enumerate() {
        per_instance[o.req.instance].push(ix);
    }
    let engine = twin.cloned().unwrap_or_else(|| {
        crate::stack::engine_over(
            tsm_db::StreamStore::new(),
            tsm_core::MetricsRegistry::disabled(),
        )
    });
    let check = twin.is_some();
    let workers = crate::stats::nproc().clamp(1, 2);
    let results: Vec<(usize, SessionReplay)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let per_instance = &per_instance;
                let engine = &engine;
                let session_no = &session_no;
                scope.spawn(move || {
                    (w..plan.instances.len())
                        .step_by(workers)
                        .map(|i| {
                            let config = SessionConfig::new(serve_patient, session_no(i))
                                .with_horizon(horizon);
                            let r = replay_session(
                                &plan.instances[i],
                                &per_instance[i],
                                outcomes,
                                engine,
                                config,
                                check,
                            );
                            (i, r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut report = Report {
        expects: vec![Expect::default(); plan.instances.len()],
        ..Report::default()
    };
    for (i, r) in results {
        report.expects[i] = r.expect;
        report.checked += r.checked;
        if report.first_wrong.is_none() {
            report.first_wrong = r.first_wrong;
        }
        report.wrong.extend(r.wrong);
    }
    report.wrong.sort_unstable();
    report
}

struct SessionReplay {
    expect: Expect,
    checked: usize,
    wrong: Vec<usize>,
    first_wrong: Option<String>,
}

fn replay_session(
    inst: &Instance,
    mine: &[usize],
    outcomes: &[Outcome],
    engine: &Arc<CachedMatcher>,
    config: SessionConfig,
    check: bool,
) -> SessionReplay {
    let horizon = config.horizon;
    let mut rt = external_session(Arc::clone(engine), config).expect("serve parameters are valid");
    let mut out = SessionReplay {
        expect: Expect {
            known: true,
            created: inst.warm > 0,
            ..Expect::default()
        },
        checked: 0,
        wrong: Vec::new(),
        first_wrong: None,
    };
    let push = |rt: &mut tsm_core::session::SessionRuntime, lo: usize, hi: usize| {
        for s in &inst.samples[lo..hi] {
            // The server's worker absorbs a recoverable sample fault the
            // same way: the sample counts as seen and ingest goes on.
            let _ = rt.push(*s);
        }
    };
    push(&mut rt, 0, inst.warm);
    let mut acked = inst.warm as u64;
    // The expected `/predict` and `/query` replies of the current state:
    // a repeated request (the probe phase's) is answered from the same
    // state until the next applied batch.
    let mut memo: [Option<String>; 2] = [None, None];
    for &ix in mine {
        let o = &outcomes[ix];
        match o.req.kind {
            Kind::Ingest => match o.status {
                200 => {
                    push(&mut rt, o.req.lo, o.req.hi);
                    memo = [None, None];
                    acked += (o.req.hi - o.req.lo) as u64;
                    out.expect.created = true;
                }
                // The handle's reply wait ran out after the batch was
                // queued: the worker may still apply and commit it.
                429 if o.body.contains(&HandleRejection::Timeout.to_string()) => {
                    out.expect.known = false;
                    break;
                }
                // Shed at admission (full table, acceptor or session
                // queue, fault budget): the batch never reached the session.
                429 | 503 => {}
                _ => {
                    out.expect.known = false;
                    break;
                }
            },
            Kind::Predict if check && o.status == 200 => {
                let expected = memo[0].get_or_insert_with(|| {
                    render::predict(&inst.name, horizon, rt.predict(horizon).as_ref())
                });
                out.checked += 1;
                if !render::same_answer(&o.body, &expected) {
                    out.wrong.push(ix);
                    out.first_wrong.get_or_insert_with(|| {
                        format!(
                            "{}: served {} expected {}",
                            inst.name,
                            o.body.trim(),
                            expected.trim()
                        )
                    });
                }
            }
            Kind::Query if check && o.status == 200 => {
                let expected = memo[1].get_or_insert_with(|| {
                    let reply = rt.current_query().map(|q| {
                        let mut options = rt.config().options.clone();
                        options.top_k = Some(10);
                        tsm_core::session::QueryReply {
                            query_len: q.len(),
                            matches: rt.engine().find_matches(&q, &options),
                        }
                    });
                    render::query(&inst.name, reply.as_ref())
                });
                out.checked += 1;
                if !render::same_answer(&o.body, &expected) {
                    out.wrong.push(ix);
                    out.first_wrong.get_or_insert_with(|| {
                        format!(
                            "{}: served {} expected {}",
                            inst.name,
                            o.body.trim(),
                            expected.trim()
                        )
                    });
                }
            }
            _ => {}
        }
    }
    out.expect.acked_samples = acked;
    out.expect.committed = rt.live_vertices().to_vec();
    rt.finish();
    out.expect.finished = rt.live_vertices().to_vec();
    out
}
