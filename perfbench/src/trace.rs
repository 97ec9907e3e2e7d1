//! The traced in-process replay.
//!
//! The same workload is replayed against a second serve stack without
//! sockets: each request's raw bytes go through the server's own steps,
//! called here one by one with a span around each, in the server's
//! order — `http::read_request` → `csv::read_samples_csv` →
//! `SessionManager::get_or_create`/`get` → `SessionHandle::{ingest_durable,
//! predict,query}` → render + `Response::write_to`.
//!
//! The session worker's own steps run on another thread, out of reach
//! of spans placed from outside. A shadow `SessionRuntime` on a twin
//! engine (own metrics, own WAL directory) repeats them — `push`,
//! `wal_commit`, `generate_query`, `index_for`, `find_matches`,
//! `predict_position` — and its spans are attributed to the handle call
//! as children. The shadows run after the measured window, once the
//! stack has shut down, one step at a time in the order the requests
//! started, so no step competes with the load for the CPUs or with the
//! stack's sealing and checkpoints for the disk; a step without side
//! effects (query generation, search, position) is timed as the fastest
//! of three runs. The handle call's self time is then the mailbox
//! hand-off and wait plus what the worker lost to contention and cold
//! caches, and the layers' self times add up to the request time. Self
//! times are clamped at 0: when a shadow's steps outlast the handle call
//! they are attributed to, the excess shows as reconcile error instead
//! of as a negative wait.
//!
//! Every other request of each kind of each session runs untraced (only
//! its total time is taken); the ratio of the two totals is the tracing
//! overhead.

use crate::client::{self, ns_since, wait_until};
use crate::render;
use crate::stack::{self, Stack};
use crate::stats::{mean, quantile, ratio};
use crate::workload::{Instance, Kind, Plan, Workload};
use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tsm_core::index_cache::CachedMatcher;
use tsm_core::matcher::QuerySubseq;
use tsm_core::pipeline::PredictionOutcome;
use tsm_core::predict::predict_position;
use tsm_core::query::generate_query;
use tsm_core::session::{
    external_session, QueryReply, SessionConfig, SessionHandle, SessionRuntime,
};
use tsm_db::{PatientAttributes, PatientId, StreamStore, WalWriter};
use tsm_serve::http::{read_request, Limits, Response};
use tsm_serve::SessionError;

pub const ROOT: &str = "serve.request";
pub const PARSE: &str = "serve.http.read_request";
pub const CSV: &str = "model.csv.read_samples_csv";
pub const LOOKUP: &str = "serve.sessions.lookup";
pub const CREATE: &str = "serve.sessions.create";
pub const HANDLE: [&str; 3] = [
    "core.session.ingest_durable",
    "core.session.predict",
    "core.session.query",
];
pub const RENDER: &str = "serve.http.render";
pub const PUSH: &str = "core.session.push";
pub const COMMIT: &str = "db.wal.commit";
pub const COMMIT_EMPTY: &str = "db.wal.commit_empty";
pub const GENERATE: &str = "core.query.generate";
pub const FEATURES: &str = "db.features.rebuild";
pub const INDEX: &str = "core.index_cache.index_for";
pub const REBUILD: &str = "core.index_cache.rebuild";
pub const SEARCH: &str = "core.index_cache.find_matches";
pub const POSITION: &str = "core.predict.position";

/// Runs of each side-effect-free shadow step; its span is the fastest.
const SHADOW_REPS: usize = 3;

/// One span: a layer's call, the request it served and the span that
/// caused it (0: none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span buffer; ids carry the thread in their top byte.
pub struct Tracer {
    t0: Instant,
    prefix: u32,
    next: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant, thread: u32) -> Tracer {
        Tracer {
            t0,
            prefix: (thread + 1) << 24,
            next: 0,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn id(&mut self) -> u32 {
        self.next += 1;
        self.prefix | self.next
    }

    pub fn now(&self) -> u64 {
        ns_since(self.t0)
    }

    /// Runs `f` under a span named after its result by `name`; returns
    /// the result and the span id.
    pub fn time<T>(
        &mut self,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> (T, u32) {
        let id = self.id();
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span {
            id,
            parent,
            req,
            name: name(&out),
            start,
            end,
        });
        (out, id)
    }
}

/// Times `f` under a span when tracing, else just runs it.
fn step<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    req: u32,
    f: impl FnOnce() -> T,
) -> (T, u32) {
    step_by(tr, parent, req, f, |_| name)
}

/// [`step`] for a step without side effects: when tracing, `f` runs
/// `SHADOW_REPS` times and the span is the fastest run, the step's time
/// with the least interference from the rest of the host.
fn step_pure<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    req: u32,
    f: impl Fn() -> T,
) -> T {
    let Some(t) = tr else {
        return f();
    };
    let mut best: Option<(u64, u64)> = None;
    let mut out = None;
    for _ in 0..SHADOW_REPS {
        let start = t.now();
        out = Some(f());
        let end = t.now();
        if best.is_none_or(|(s, e)| end - start < e - s) {
            best = Some((start, end));
        }
    }
    let (start, end) = best.expect("SHADOW_REPS is at least 1");
    let id = t.id();
    t.spans.push(Span {
        id,
        parent,
        req,
        name,
        start,
        end,
    });
    out.expect("SHADOW_REPS is at least 1")
}

/// [`step`] with the span named after the result.
fn step_by<T>(
    tr: &mut Option<&mut Tracer>,
    parent: u32,
    req: u32,
    f: impl FnOnce() -> T,
    name: impl FnOnce(&T) -> &'static str,
) -> (T, u32) {
    match tr {
        Some(t) => t.time(parent, req, f, name),
        None => (f(), 0),
    }
}

/// One replayed request as the replay saw it.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub kind: Kind,
    pub traced: bool,
    pub total_ns: u64,
    pub samples: usize,
    pub status: u16,
}

/// Everything the traced replay measured.
#[derive(Debug, Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub records: Vec<Record>,
    /// Query length (segments) of every shadow query generated.
    pub query_lens: Vec<usize>,
    /// Matches returned by every shadow search.
    pub matches: Vec<usize>,
    /// Samples pushed into shadows during the measured window.
    pub shadow_samples: usize,
    /// WAL bytes the shadows appended during the measured window.
    pub wal_bytes: u64,
    /// Time of one checkpoint of the shadow WAL over the twin store.
    pub checkpoint_ms: f64,
    /// Handle answers that differ from the shadow's.
    pub identity_wrong: usize,
    pub first_wrong: Option<String>,
    pub failed: usize,
    pub ledger_error: Option<String>,
}

/// What serving a request in-process needs.
struct Ctx<'a> {
    w: &'a Workload,
    stack: &'a Stack,
    plan: &'a Plan,
    limits: Limits,
    reply_timeout: Duration,
}

/// What repeating the worker's steps on the shadows needs.
struct Twin<'a> {
    plan: &'a Plan,
    engine: Arc<CachedMatcher>,
    wal: Arc<WalWriter>,
    patient: PatientId,
    horizon: f64,
    check_identity: bool,
    features_seen: AtomicU64,
}

struct Shadow {
    rt: SessionRuntime,
    session: u32,
}

#[derive(Default)]
struct ThreadOut {
    records: Vec<Record>,
    query_lens: Vec<usize>,
    matches: Vec<usize>,
    shadow_samples: usize,
    identity_wrong: usize,
    first_wrong: Option<String>,
    failed: usize,
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs the traced replay of `w` over a copy of `base` for `window_s`
/// seconds with `threads` generator threads; WAL directories go under
/// `root`.
pub fn run(
    w: &Workload,
    seed: u64,
    window_s: f64,
    threads: usize,
    base: &StreamStore,
    root: &Path,
) -> Result<Traced, String> {
    let plan = crate::workload::plan(w, seed, window_s, threads, "t-");
    let stack = Stack::start(w, stack::copy_store(base), &root.join("wal-traced"))?;
    stack::fill_index_cache(stack.engine());
    let config = stack::serve_config(w);
    let twin_dir = root.join("wal-shadow");
    let (twin_store, twin_wal) = stack::open_wal(&twin_dir, stack::copy_store(base))?;
    let twin = stack::engine_over(twin_store, tsm_core::MetricsRegistry::enabled());
    // The twin's index cache starts as the served one does: filled, then
    // made stale by the serve patient, which the served stack adds on
    // first ingest and the twin adds now, so patient ids agree.
    stack::fill_index_cache(&twin);
    let twin_patient = twin.matcher().store().add_patient(PatientAttributes::new());
    if twin_patient != stack.serve_patient {
        return Err("twin store diverged from the served store".into());
    }
    let ctx = Ctx {
        w,
        stack: &stack,
        plan: &plan,
        limits: Limits {
            max_head_bytes: config.max_head_bytes,
            max_body_bytes: config.max_body_bytes,
        },
        reply_timeout: Duration::from_millis(config.reply_timeout_ms),
    };
    let twin = Twin {
        plan: &plan,
        engine: twin,
        wal: Arc::new(twin_wal),
        patient: twin_patient,
        horizon: stack.manager.horizon(),
        check_identity: w.store_fixed(),
        features_seen: AtomicU64::new(u64::MAX),
    };

    // Warm-up: every warm session is created in plan order (so session
    // numbers follow it) and its shadow receives the same batch.
    let t0 = Instant::now();
    let mut warm_tracer = Tracer::new(t0, 0);
    let mut shadows: HashMap<usize, Shadow> = HashMap::new();
    let mut scratch = ThreadOut::default();
    let mut session_no = 0u32;
    let mut created: Vec<bool> = vec![false; plan.instances.len()];
    for (i, inst) in plan.instances.iter().enumerate() {
        if inst.warm == 0 {
            continue;
        }
        session_no += 1;
        let req = crate::workload::Req {
            due_ns: 0,
            instance: i,
            kind: Kind::Ingest,
            lo: 0,
            hi: inst.warm,
        };
        let raw = client::request_bytes(inst, &req);
        let (r, pending) = replay_one(&ctx, &mut warm_tracer, None, &req, &raw, session_no, true);
        if r.status != 200 {
            return Err(format!("traced warm-up ingest {}: {}", inst.name, r.status));
        }
        created[i] = true;
        if let Some(p) = pending {
            run_shadows(&twin, &mut warm_tracer, p, &mut shadows, &mut scratch);
        }
    }
    // Only the warm-up's session creations and rebuilds are kept; its
    // one-off large batches would skew the per-request layers.
    let mut spans: Vec<Span> = warm_tracer
        .spans
        .iter()
        .filter(|s| matches!(s.name, CREATE | REBUILD | FEATURES))
        .copied()
        .collect();
    let bytes_before = wal_bytes(&twin_dir);

    let version_before = stack.store().version();
    let t0 = Instant::now();
    let outs: Vec<(ThreadOut, Vec<Span>, Vec<Pending>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .threads
            .iter()
            .enumerate()
            .map(|(t, queue)| {
                let ctx = &ctx;
                let mut created = created.clone();
                scope.spawn(move || {
                    let mut tracer = Tracer::new(t0, t as u32 + 1);
                    let mut out = ThreadOut::default();
                    let mut pending = Vec::new();
                    let last: HashMap<usize, usize> = queue
                        .iter()
                        .enumerate()
                        .map(|(k, r)| (r.instance, k))
                        .collect();
                    let raw: Vec<Vec<u8>> = queue
                        .iter()
                        .map(|r| client::request_bytes(&ctx.plan.instances[r.instance], r))
                        .collect();
                    // Every other request of each kind of each session
                    // is traced, so both halves see every session.
                    let mut seen = vec![[0usize; 3]; ctx.plan.instances.len()];
                    for (k, (req, raw)) in queue.iter().zip(&raw).enumerate() {
                        wait_until(t0, req.due_ns);
                        let count = &mut seen[req.instance][req.kind as usize];
                        let traced = *count % 2 == 0;
                        *count += 1;
                        let creating = !created[req.instance];
                        let (r, p) =
                            replay_one(ctx, &mut tracer, Some(traced), req, raw, 0, creating);
                        out.records.push(r);
                        if !(200..300).contains(&r.status) {
                            out.failed += 1;
                        }
                        created[req.instance] |= p.is_some();
                        pending.extend(p);
                        if ctx.w.churn.is_some() && last.get(&req.instance) == Some(&k) {
                            pending.push(Pending {
                                start: tracer.now(),
                                served_version: 0,
                                instance: req.instance,
                                job: Job::Seal,
                                parent: 0,
                                root: 0,
                                traced: false,
                                create: None,
                            });
                        }
                    }
                    (out, tracer.spans, pending)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced replay thread panicked"))
            .collect()
    });

    let mut traced = Traced::default();
    let mut pending = Vec::new();
    for (out, s, p) in outs {
        spans.extend(s);
        traced.records.extend(out.records);
        traced.failed += out.failed;
        pending.extend(p);
    }
    traced.ledger_error = stack.engine().metrics().snapshot().check_invariants().err();
    // The served stack stops before the shadows run: its idle sealing
    // and checkpoints would compete with the shadows' WAL fsyncs.
    stack.shutdown();
    // The worker's steps, one at a time, in the order the requests
    // started (stable: a session's requests keep their order). A shadow
    // is sealed once the served store shows its session sealed: before
    // a request, the twin store takes as many version bumps from seals
    // as the served store had when that request started.
    let (mut seals, mut steps): (Vec<Pending>, Vec<Pending>) = pending
        .into_iter()
        .partition(|p| matches!(p.job, Job::Seal));
    seals.sort_by_key(|p| p.start);
    steps.sort_by_key(|p| p.start);
    let mut seals = seals.into_iter();
    let twin_store = twin.engine.matcher().store();
    let mut sealed_bumps = 0;
    let mut tracer = Tracer::new(t0, plan.threads.len() as u32 + 1);
    let mut out = ThreadOut::default();
    for p in steps {
        while p.served_version - version_before > sealed_bumps {
            let Some(seal) = seals.next() else {
                break;
            };
            let before = twin_store.version();
            run_shadows(&twin, &mut tracer, seal, &mut shadows, &mut out);
            sealed_bumps += twin_store.version() - before;
        }
        run_shadows(&twin, &mut tracer, p, &mut shadows, &mut out);
    }
    spans.extend(tracer.spans);
    traced.query_lens = out.query_lens;
    traced.matches = out.matches;
    traced.shadow_samples = out.shadow_samples;
    traced.identity_wrong = out.identity_wrong;
    traced.first_wrong = out.first_wrong;
    traced.wal_bytes = wal_bytes(&twin_dir).saturating_sub(bytes_before);
    let t = Instant::now();
    twin.wal
        .checkpoint(twin.engine.matcher().store())
        .map_err(|e| format!("shadow checkpoint: {e}"))?;
    traced.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    traced.spans = spans;
    Ok(traced)
}

fn new_shadow(twin: &Twin<'_>, session: u32) -> Shadow {
    let config = SessionConfig::new(twin.patient, session).with_horizon(twin.horizon);
    let rt = external_session(Arc::clone(&twin.engine), config)
        .expect("serve parameters are valid")
        .with_wal(Arc::clone(&twin.wal));
    Shadow { rt, session }
}

fn rejection_status(e: &SessionError) -> u16 {
    match e {
        SessionError::TableFull { .. } => 503,
        SessionError::Unknown(_) => 404,
        SessionError::BadName(_) => 400,
        SessionError::Runtime(_) => 500,
        SessionError::Rejected(r) => {
            if r.is_retryable() {
                429
            } else {
                503
            }
        }
    }
}

/// What the session worker did for a request, repeated on the shadow
/// once the request's own span has closed.
enum Job {
    Nothing,
    /// The acked batch: samples `[lo, hi)` of the session's stream (the
    /// very values the server parsed, as the CSV round-trips exactly).
    Ingest {
        lo: usize,
        hi: usize,
    },
    Predict {
        served: String,
        dt: f64,
    },
    Query {
        served: String,
    },
    /// A churned session's last request: it goes idle and the server
    /// will seal it, so its shadow is sealed into the twin store.
    Seal,
}

/// Worker steps to repeat on a shadow once the window is over.
struct Pending {
    /// When the request started: shadows run in this order.
    start: u64,
    /// The served store's version when the request started.
    served_version: u64,
    instance: usize,
    job: Job,
    /// The handle call's span, the parent of the shadow's spans.
    parent: u32,
    root: u32,
    traced: bool,
    /// The request created its session: the shadow's session number.
    create: Option<u32>,
}

/// Replays one request: serves it (spans when `traced` is `Some(true)`;
/// `None` marks a warm-up request, traced but outside any measured
/// request) and returns the worker's steps to repeat on the session's
/// shadow, if it was served. A session created here gets a shadow
/// numbered `session`.
fn replay_one(
    ctx: &Ctx<'_>,
    tracer: &mut Tracer,
    traced: Option<bool>,
    req: &crate::workload::Req,
    raw: &[u8],
    session: u32,
    creating: bool,
) -> (Record, Option<Pending>) {
    let measured = traced.is_some();
    let traced = traced.unwrap_or(true);
    let root = if measured { tracer.id() } else { 0 };
    let creating = creating && req.kind == Kind::Ingest;
    let served_version = ctx.stack.store().version();
    let start = tracer.now();
    let (status, job, parent) = {
        let mut tr = traced.then_some(&mut *tracer);
        serve(ctx, &mut tr, raw, req, root, creating)
    };
    let end = tracer.now();
    if measured && traced {
        tracer.spans.push(Span {
            id: root,
            parent: 0,
            req: root,
            name: ROOT,
            start,
            end,
        });
    }
    let pending = (status == 200).then(|| Pending {
        start,
        served_version,
        instance: req.instance,
        job,
        parent,
        root,
        traced,
        create: creating.then_some(session),
    });
    let record = Record {
        kind: req.kind,
        traced,
        total_ns: end - start,
        samples: req.hi - req.lo,
        status,
    };
    (record, pending)
}

/// Repeats the worker's steps of `p` on its session's shadow,
/// creating or sealing the shadow as the request did.
fn run_shadows(
    twin: &Twin<'_>,
    tracer: &mut Tracer,
    p: Pending,
    shadows: &mut HashMap<usize, Shadow>,
    out: &mut ThreadOut,
) {
    if let Some(session) = p.create {
        shadows.insert(p.instance, new_shadow(twin, session));
    }
    if let Job::Seal = p.job {
        if let Some(s) = shadows.remove(&p.instance) {
            s.rt.finish_into_store();
        }
        return;
    }
    if let Some(shadow) = shadows.get_mut(&p.instance) {
        let inst = &twin.plan.instances[p.instance];
        let mut tr = p.traced.then_some(&mut *tracer);
        repeat_on_shadow(twin, &mut tr, p.job, p.parent, p.root, shadow, inst, out);
    }
}

/// Serves one request in-process, the server's steps in its order, with
/// spans under `root` when tracing. Returns the HTTP status, the work to
/// repeat on the shadow and the handle call's span id.
fn serve(
    ctx: &Ctx<'_>,
    tr: &mut Option<&mut Tracer>,
    raw: &[u8],
    req: &crate::workload::Req,
    root: u32,
    creating: bool,
) -> (u16, Job, u32) {
    let manager = &ctx.stack.manager;
    let fail = |status| (status, Job::Nothing, 0);
    let (parsed, _) = step(tr, PARSE, root, root, || {
        read_request(&mut Cursor::new(raw), ctx.limits)
    });
    let Ok(request) = parsed else {
        return fail(400);
    };
    let name = match req.kind {
        Kind::Ingest => request.path.trim_start_matches("/ingest/").to_string(),
        _ => request.param("session").unwrap_or_default().to_string(),
    };
    // Renders the reply body and writes the response, as the router and
    // `Response::write_to` do; returns the body for the shadow check.
    let respond = |tr: &mut Option<&mut Tracer>, status: u16, body: &dyn Fn() -> String| {
        step(tr, RENDER, root, root, || {
            let body = body();
            let resp = if status == 200 {
                Response::json(200, body.clone())
            } else {
                Response::error(status, "rejected")
            };
            let mut wire: Vec<u8> = Vec::with_capacity(512);
            // Writing into memory cannot fail.
            let _ = resp.write_to(&mut wire);
            body
        })
        .0
    };
    match req.kind {
        Kind::Ingest => {
            let (samples, _) = step(tr, CSV, root, root, || {
                tsm_model::csv::read_samples_csv(request.body.as_slice())
            });
            let Ok(samples) = samples else {
                return fail(400);
            };
            let lookup = if creating { CREATE } else { LOOKUP };
            let (handle, _) = step(tr, lookup, root, root, || manager.get_or_create(&name));
            let handle: Arc<SessionHandle> = match handle {
                Ok(h) => h,
                Err(e) => return fail(rejection_status(&e)),
            };
            let accepted = samples.len();
            let (acked, hid) = step(tr, HANDLE[0], root, root, || {
                handle.ingest_durable(samples, ctx.reply_timeout)
            });
            let status = match &acked {
                Ok(Ok(_)) => 200,
                Ok(Err(_)) => 500,
                Err(r) => rejection_status(&SessionError::Rejected(*r)),
            };
            let seq = acked.ok().and_then(|r| r.ok()).flatten();
            respond(tr, status, &|| render::ingest(&name, accepted, seq));
            (
                status,
                Job::Ingest {
                    lo: req.lo,
                    hi: req.hi,
                },
                hid,
            )
        }
        Kind::Predict => {
            let (handle, _) = step(tr, LOOKUP, root, root, || manager.get(&name));
            let handle = match handle {
                Ok(h) => h,
                Err(e) => return fail(rejection_status(&e)),
            };
            let dt = manager.horizon();
            let (answer, hid) = step(tr, HANDLE[1], root, root, || {
                handle.predict(dt, ctx.reply_timeout)
            });
            let status = match &answer {
                Ok(_) => 200,
                Err(r) => rejection_status(&SessionError::Rejected(*r)),
            };
            let answer = answer.ok().flatten();
            let served = respond(tr, status, &|| render::predict(&name, dt, answer.as_ref()));
            (status, Job::Predict { served, dt }, hid)
        }
        Kind::Query => {
            let (handle, _) = step(tr, LOOKUP, root, root, || manager.get(&name));
            let handle = match handle {
                Ok(h) => h,
                Err(e) => return fail(rejection_status(&e)),
            };
            let (answer, hid) = step(tr, HANDLE[2], root, root, || {
                handle.query(Some(10), ctx.reply_timeout)
            });
            let status = match &answer {
                Ok(_) => 200,
                Err(r) => rejection_status(&SessionError::Rejected(*r)),
            };
            let answer = answer.ok().flatten();
            let served = respond(tr, status, &|| render::query(&name, answer.as_ref()));
            (status, Job::Query { served }, hid)
        }
    }
}

/// The worker's steps for `job` on the shadow, attributed to the handle
/// call `parent`. Searches are repeated only for traced requests; every
/// ingest is, so the shadow stays in step with the served session, and
/// every query's index lookup is, so an index rebuild lands on the same
/// request as on the served engine.
#[allow(clippy::too_many_arguments)]
fn repeat_on_shadow(
    twin: &Twin<'_>,
    tr: &mut Option<&mut Tracer>,
    job: Job,
    parent: u32,
    root: u32,
    shadow: &mut Shadow,
    inst: &Instance,
    out: &mut ThreadOut,
) {
    let name = inst.name.as_str();
    match job {
        Job::Nothing | Job::Seal => {}
        Job::Ingest { lo, hi } => {
            out.shadow_samples += hi - lo;
            step(tr, PUSH, parent, root, || {
                for s in &inst.samples[lo..hi] {
                    // Absorbed like the worker absorbs a sample fault.
                    let _ = shadow.rt.push(*s);
                }
            });
            let commit = || {
                shadow
                    .rt
                    .wal_commit()
                    .expect("the shadow WAL, a local directory, accepts appends")
            };
            step_by(tr, parent, root, commit, |seq| {
                if seq.is_some() {
                    COMMIT
                } else {
                    COMMIT_EMPTY
                }
            });
        }
        Job::Predict { .. } | Job::Query { .. } if tr.is_none() => {
            shadow_search(twin, shadow, tr, parent, root, None, None, out);
        }
        Job::Predict { served, dt } => {
            let (outcome, _) = shadow_search(twin, shadow, tr, parent, root, None, Some(dt), out);
            compare(
                twin,
                out,
                name,
                &served,
                &render::predict(name, dt, outcome.as_ref()),
            );
        }
        Job::Query { served } => {
            let (_, reply) = shadow_search(twin, shadow, tr, parent, root, Some(10), None, out);
            compare(
                twin,
                out,
                name,
                &served,
                &render::query(name, reply.as_ref()),
            );
        }
    }
}

fn compare(twin: &Twin<'_>, out: &mut ThreadOut, name: &str, served: &str, shadow: &str) {
    if twin.check_identity && served != shadow {
        out.identity_wrong += 1;
        out.first_wrong.get_or_insert_with(|| {
            format!("{name}: handle {} shadow {}", served.trim(), shadow.trim())
        });
    }
}

/// The worker's search steps on the shadow: a prediction (`dt` given)
/// or a top-`k` query. Untraced, only the steps that fill the twin's
/// caches run: query generation, features and index lookup.
#[allow(clippy::too_many_arguments)]
fn shadow_search(
    twin: &Twin<'_>,
    shadow: &Shadow,
    tr: &mut Option<&mut Tracer>,
    parent: u32,
    root: u32,
    top_k: Option<usize>,
    dt: Option<f64>,
    out: &mut ThreadOut,
) -> (Option<PredictionOutcome>, Option<QueryReply>) {
    let engine = &twin.engine;
    let params = engine.matcher().params();
    let store = engine.matcher().store();
    let epoch = shadow.rt.epoch_vertices();
    let generated = step_pure(tr, GENERATE, parent, root, || generate_query(epoch, params));
    let Some(generated) = generated else {
        return (None, None);
    };
    let query = QuerySubseq::new(generated.vertices(epoch).to_vec())
        .with_origin(twin.patient, shadow.session);
    // The first search to see a new store version times the feature
    // rebuild.
    let version = store.version();
    // Relaxed: one thread runs the shadows; the value publishes no data.
    if twin.features_seen.swap(version, Ordering::Relaxed) != version {
        step(tr, FEATURES, parent, root, || {
            store.segment_features(params.axis)
        });
    }
    if (1..=60).contains(&query.len()) {
        let rebuilt = || {
            let before = engine.cache().rebuild_count();
            engine.cache().index_for(query.len());
            engine.cache().rebuild_count() > before
        };
        step_by(tr, parent, root, rebuilt, |&rebuilt| {
            if rebuilt {
                REBUILD
            } else {
                INDEX
            }
        });
    }
    if tr.is_none() {
        return (None, None);
    }
    out.query_lens.push(query.len());
    let mut options = shadow.rt.config().options.clone();
    if top_k.is_some() {
        options.top_k = top_k;
    }
    let matches = step_pure(tr, SEARCH, parent, root, || {
        engine.find_matches(&query, &options)
    });
    out.matches.push(matches.len());
    match dt {
        Some(dt) => {
            let position = step_pure(tr, POSITION, parent, root, || {
                predict_position(
                    store,
                    &query,
                    &matches,
                    dt,
                    params,
                    shadow.rt.config().align,
                )
            });
            let outcome = position.map(|position| PredictionOutcome {
                position,
                num_matches: matches.len(),
                query_len: generated.len,
                query_stable: generated.stable,
            });
            (outcome, None)
        }
        None => (
            None,
            Some(QueryReply {
                query_len: query.len(),
                matches,
            }),
        ),
    }
}

/// Writes the spans as tab-separated rows: id, parent, request, name,
/// start and end (ns since the replay started).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus its children's. It is
/// negative only where children ran outside their parent (a shadow's
/// steps longer than the handle call).
fn self_times(spans: &[Span]) -> Vec<(Span, i64)> {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_insert(0) += s.dur();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                *s,
                s.dur() as i64 - child_ns.get(&s.id).copied().unwrap_or(0) as i64,
            )
        })
        .collect()
}

/// Per-layer figures from the spans: `name → self times (ns)`.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in self_times(spans) {
        layers
            .entry(s.name)
            .or_default()
            .push(self_ns.max(0) as f64);
    }
    layers
}

/// Share of handle calls whose shadow steps took longer than the call
/// itself, leaving no room for the mailbox wait.
pub fn handle_overrun_ratio(spans: &[Span]) -> f64 {
    let handles: Vec<i64> = self_times(spans)
        .into_iter()
        .filter(|(s, _)| HANDLE.contains(&s.name))
        .map(|(_, self_ns)| self_ns)
        .collect();
    let overrun = handles.iter().filter(|&&n| n < 0).count();
    ratio(overrun as f64, handles.len() as f64)
}

/// `|Σ layer self time − Σ request time| ÷ Σ request time` over traced
/// requests: the share of request time no layer span accounts for.
pub fn reconcile_error(spans: &[Span]) -> f64 {
    let mut total = 0.0;
    let mut layers = 0.0;
    for (s, self_ns) in self_times(spans) {
        if s.name == ROOT {
            total += s.dur() as f64;
        } else if s.req != 0 {
            // Spans recorded under a measured request carry its root id;
            // warm-up spans carry 0.
            layers += self_ns.max(0) as f64;
        }
    }
    ratio((layers - total).abs(), total)
}

/// Traced ÷ untraced mean request time, weighting each request kind
/// by how often it ran.
pub fn overhead_ratio(records: &[Record]) -> f64 {
    let mut traced = 0.0;
    let mut untraced = 0.0;
    for kind in Kind::ALL {
        let of = |t: bool| -> Vec<f64> {
            records
                .iter()
                .filter(|r| r.kind == kind && r.traced == t && r.status == 200)
                .map(|r| r.total_ns as f64)
                .collect()
        };
        let (a, b) = (of(true), of(false));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let n = (a.len() + b.len()) as f64;
        traced += n * mean(&a);
        untraced += n * mean(&b);
    }
    ratio(traced, untraced)
}

/// `q`-quantile of a layer's self times, in `scale` units.
pub fn layer_q(
    layers: &BTreeMap<&'static str, Vec<f64>>,
    names: &[&str],
    q: f64,
    scale: f64,
) -> f64 {
    let v: Vec<f64> = names
        .iter()
        .flat_map(|n| layers.get(n).cloned().unwrap_or_default())
        .collect();
    quantile(&v, q) / scale
}

pub fn layer_mean(layers: &BTreeMap<&'static str, Vec<f64>>, names: &[&str], scale: f64) -> f64 {
    let v: Vec<f64> = names
        .iter()
        .flat_map(|n| layers.get(n).cloned().unwrap_or_default())
        .collect();
    mean(&v) / scale
}

pub fn layer_sum(layers: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |v| v.iter().sum())
}
