//! End-of-run checks: the ledger reconciles, `/healthz` agrees with the
//! samples acknowledged, and the WAL returns every acknowledged batch.

use crate::client;
use crate::json::{self, Value};
use crate::oracle::Expect;
use crate::workload::Plan;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tsm_db::{DurableBackend, FileBackend, PatientId, WalConfig};
use tsm_model::Vertex;

/// Counters and histogram (count, sum) pairs read from `/metrics`.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub counters: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, (f64, f64)>,
}

impl Ledger {
    pub fn fetch(addr: SocketAddr) -> Result<Ledger, String> {
        let (status, body) = client::send(addr, &client::get_bytes("/metrics"))
            .map_err(|e| format!("/metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let v = json::parse(&body).map_err(|e| format!("/metrics: {e}"))?;
        let mut ledger = Ledger::default();
        for (k, n) in v.get("counters").map_or(&[][..], Value::fields) {
            ledger.counters.insert(k.clone(), n.as_f64().unwrap_or(0.0));
        }
        for (k, h) in v.get("histograms").map_or(&[][..], Value::fields) {
            let f = |key| h.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            ledger.hists.insert(k.clone(), (f("count"), f("sum")));
        }
        Ok(ledger)
    }

    /// Work recorded since `earlier` (gauges, `*_hwm`, keep their value).
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let d = if k.ends_with("_hwm") {
                    v
                } else {
                    v - earlier.counters.get(k).copied().unwrap_or(0.0)
                };
                (k.clone(), d)
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, &(c, s))| {
                let (c0, s0) = earlier.hists.get(k).copied().unwrap_or((0.0, 0.0));
                (k.clone(), (c - c0, s - s0))
            })
            .collect();
        Ledger { counters, hists }
    }

    pub fn c(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn hist_mean(&self, name: &str) -> f64 {
        let (c, s) = self.hists.get(name).copied().unwrap_or((0.0, 0.0));
        crate::stats::ratio(s, c)
    }
}

/// `GET /metrics?check=1` must answer 200 (the ledger's invariants hold).
pub fn ledger_reconciles(addr: SocketAddr) -> Result<(), String> {
    let (status, body) = client::send(addr, &client::get_bytes("/metrics?check=1"))
        .map_err(|e| format!("/metrics?check=1: {e}"))?;
    if status == 200 {
        Ok(())
    } else {
        Err(format!(
            "/metrics?check=1 answered {status}: {}",
            body.trim()
        ))
    }
}

/// Session name → samples, from `/healthz`.
pub fn healthz_samples(addr: SocketAddr) -> Result<HashMap<String, u64>, String> {
    let (status, body) =
        client::send(addr, &client::get_bytes("/healthz")).map_err(|e| format!("/healthz: {e}"))?;
    if status != 200 {
        return Err(format!("/healthz answered {status}"));
    }
    let v = json::parse(&body).map_err(|e| format!("/healthz: {e}"))?;
    Ok(v.get("sessions")
        .map_or(&[][..], Value::fields)
        .iter()
        .map(|(name, s)| {
            let samples = s.get("samples").and_then(Value::as_f64).unwrap_or(-1.0);
            (name.clone(), samples as u64)
        })
        .collect())
}

/// Every live session `/healthz` lists must be one of ours with exactly
/// the samples acknowledged; without churn every session must be listed.
pub fn healthz_agrees(
    plan: &Plan,
    expects: &[Expect],
    live: &HashMap<String, u64>,
    churn: bool,
) -> Result<(), String> {
    let by_name: HashMap<&str, usize> = plan
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| (inst.name.as_str(), i))
        .collect();
    for (name, &samples) in live {
        let Some(&i) = by_name.get(name.as_str()) else {
            return Err(format!("/healthz lists unknown session '{name}'"));
        };
        let e = &expects[i];
        if e.known && samples != e.acked_samples {
            return Err(format!(
                "/healthz: session '{name}' holds {samples} samples, {} were acked",
                e.acked_samples
            ));
        }
    }
    if !churn {
        if let Some(inst) = plan.instances.iter().find(|i| !live.contains_key(&i.name)) {
            return Err(format!("/healthz lost session '{}'", inst.name));
        }
    }
    Ok(())
}

/// Recovers the WAL directory of a shut-down stack and checks that it
/// holds, for every session, exactly the vertices acknowledged: the
/// committed prefix for a session still open at shutdown, the whole
/// sealed stream for one evicted before it. Returns the recovery time
/// in ms.
pub fn rpo_holds(
    wal_dir: &Path,
    serve_patient: PatientId,
    plan: &Plan,
    expects: &[Expect],
    live: &HashMap<String, u64>,
) -> Result<f64, String> {
    let backend: Arc<dyn DurableBackend> =
        Arc::new(FileBackend::open(wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?);
    let t = Instant::now();
    let rec = tsm_db::recover(backend, WalConfig::default())
        .map_err(|e| format!("recover {}: {e}", wal_dir.display()))?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut recovered: Vec<Option<Vec<Vertex>>> = rec
        .store
        .streams_of(serve_patient)
        .into_iter()
        .filter_map(|id| rec.store.stream(id))
        .map(|s| Some(s.plr.vertices().to_vec()))
        .collect();
    let storable = |v: &[Vertex]| tsm_model::PlrTrajectory::from_vertices(v.to_vec()).is_ok();
    for (inst, e) in plan.instances.iter().zip(expects) {
        if !e.created || !e.known {
            continue;
        }
        let evicted = !live.contains_key(&inst.name);
        let accept = |v: &Vec<Vertex>| *v == e.finished || (!evicted && *v == e.committed);
        let must = if evicted {
            storable(&e.finished)
        } else {
            storable(&e.committed)
        };
        match recovered
            .iter_mut()
            .find(|r| r.as_ref().is_some_and(accept))
        {
            Some(slot) => *slot = None,
            None if must => {
                return Err(format!(
                    "recovered WAL lacks session '{}' ({} acked vertices, {})",
                    inst.name,
                    e.committed.len(),
                    if evicted { "sealed" } else { "open" }
                ))
            }
            None => {}
        }
    }
    // A session whose fate is unknown (an ingest that may or may not
    // have been applied) may have left a stream of its own.
    let unknown = expects.iter().filter(|e| !e.known).count();
    let extra = recovered.iter().flatten().count();
    if extra > unknown {
        return Err(format!(
            "recovered WAL holds {extra} stream(s) no session acked"
        ));
    }
    Ok(recover_ms)
}
