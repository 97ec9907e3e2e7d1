//! Set-up: the seeded cohort, the serve stack built the way `tsm serve`
//! builds it (WAL recovery → `CachedMatcher` → `SessionManager` →
//! `Server::start` on an ephemeral port), and the warm-up that ends at
//! the first served prediction.

use crate::client;
use crate::workload::{Instance, Plan, Workload};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tsm_bench::{build_bundle, BundleConfig};
use tsm_core::index_cache::CachedMatcher;
use tsm_core::matcher::Matcher;
use tsm_core::{MetricsRegistry, Params};
use tsm_db::{DurableBackend, FileBackend, PatientId, StreamStore, WalConfig, WalWriter};
use tsm_model::SegmenterConfig;
use tsm_serve::{ServeConfig, Server, SessionManager};
use tsm_signal::CohortConfig;

/// The seeded stored cohort: `patients` paper-scale patients.
pub fn cohort_store(patients: usize, seed: u64) -> StreamStore {
    build_bundle(&BundleConfig {
        cohort: CohortConfig {
            n_patients: patients,
            ..CohortConfig::paper_scale(seed)
        },
        segmenter: SegmenterConfig::default(),
    })
    .store
}

/// A deep copy with identical patient and stream ids, for twin engines
/// that must answer exactly like the served one.
pub fn copy_store(store: &StreamStore) -> StreamStore {
    let copy = StreamStore::new();
    for p in store.patients() {
        copy.add_patient(store.patient_attributes(p).unwrap_or_default());
    }
    for s in store.streams() {
        copy.add_stream(s.meta.patient, s.meta.session, s.plr.clone(), s.raw_len);
    }
    copy
}

/// The matching parameters `tsm serve` runs with.
pub fn serve_params() -> Params {
    Params {
        min_matches: 1,
        ..Params::default()
    }
}

pub fn engine_over(store: StreamStore, metrics: MetricsRegistry) -> Arc<CachedMatcher> {
    Arc::new(CachedMatcher::new(
        Matcher::new(store, serve_params()).with_metrics(metrics),
    ))
}

pub fn serve_config(w: &Workload) -> ServeConfig {
    let defaults = ServeConfig::default();
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        idle_timeout_ms: w.churn.map_or(0, |c| c.idle_timeout_ms),
        checkpoint_every: w.churn.map_or(0, |c| c.checkpoint_every),
        ..defaults
    }
}

/// Opens (recovering) the file-backed WAL in `dir` over `base`, fsync
/// on every append.
pub fn open_wal(dir: &Path, base: StreamStore) -> Result<(StreamStore, WalWriter), String> {
    let backend: Arc<dyn DurableBackend> =
        Arc::new(FileBackend::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?);
    let rec = tsm_db::recover_with_base(backend, WalConfig::default(), Some(base))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((rec.store, rec.writer))
}

/// A running serve stack.
pub struct Stack {
    pub server: Server,
    pub manager: Arc<SessionManager>,
    pub addr: SocketAddr,
    pub wal_dir: PathBuf,
    /// The patient every serve-created session belongs to.
    pub serve_patient: PatientId,
}

impl Stack {
    /// Builds and starts the stack over `base` with its WAL in `wal_dir`.
    pub fn start(w: &Workload, base: StreamStore, wal_dir: &Path) -> Result<Stack, String> {
        let (store, wal) = open_wal(wal_dir, base)?;
        let serve_patient = PatientId(store.num_patients() as u32);
        let config = serve_config(w);
        let engine = engine_over(store, MetricsRegistry::enabled());
        let manager = Arc::new(
            SessionManager::new(
                engine,
                config.sessions_max,
                config.ingest_queue,
                config.horizon,
            )
            .with_wal(Arc::new(wal)),
        );
        let server =
            Server::start(Arc::clone(&manager), config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        Ok(Stack {
            server,
            manager,
            addr,
            wal_dir: wal_dir.to_path_buf(),
            serve_patient,
        })
    }

    pub fn engine(&self) -> &Arc<CachedMatcher> {
        self.manager.engine()
    }

    pub fn store(&self) -> &StreamStore {
        self.engine().matcher().store()
    }

    /// Stops the server and drops every session and the WAL writer, so
    /// the WAL directory can be recovered.
    pub fn shutdown(self) {
        self.server.shutdown();
        drop(self.manager);
    }
}

/// Builds the index for every query length a session can generate, as
/// a started server would after its first searches: the measured window
/// starts with the cache filled (session churn then invalidates it).
pub fn fill_index_cache(engine: &CachedMatcher) {
    let params = engine.matcher().params();
    for len in params.lmin_segments()..=params.lmax_segments() {
        engine.cache().index_for(len);
    }
}

/// Sends each of `instances`' warm-up batch over HTTP, in order (so
/// session numbers follow it).
pub fn warm_sessions(addr: SocketAddr, instances: &[Instance]) -> Result<(), String> {
    for inst in instances.iter().filter(|i| i.warm > 0) {
        let raw = client::ingest_bytes(&inst.name, &inst.samples[..inst.warm]);
        let (status, body) = client::send(addr, &raw).map_err(|e| format!("warm-up: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up ingest {}: {status} {body}", inst.name));
        }
    }
    Ok(())
}

/// Warms every session of `plan`, then asks for predictions until one is
/// served. Returns the first served prediction's body.
pub fn warm_up(addr: SocketAddr, plan: &Plan) -> Result<String, String> {
    warm_sessions(addr, &plan.instances)?;
    let mut warmed: Vec<_> = plan.instances.iter().filter(|i| i.warm > 0).collect();
    warmed.sort_by_key(|i| std::cmp::Reverse(i.warm));
    for inst in warmed {
        let raw = client::get_bytes(&format!("/predict?session={}", inst.name));
        let (status, body) = client::send(addr, &raw).map_err(|e| format!("warm-up: {e}"))?;
        if status != 200 {
            return Err(format!("warm-up predict {}: {status} {body}", inst.name));
        }
        if !body.contains("\"prediction\": null") {
            return Ok(body);
        }
    }
    Err("no session served a prediction after warm-up".into())
}
