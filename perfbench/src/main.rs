//! Serve-path benchmark: open-loop 30 Hz sessions over HTTP against the
//! real serve stack, built in-process the way `tsm serve` builds it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload predict_heavy|session_churn|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` replays the workload open-loop for two thirds of the time,
//! then times repeated probe requests, one at a time, for the rest (the
//! end-to-end metrics); `--trace 1` runs the same workload for half the
//! time over HTTP (ledger counts) and half in-process with spans
//! (per-layer times). Every run checks the answers,
//! the ledger, `/healthz` and the WAL's durability, prints a report and
//! ends with one JSON result line. `METRICS.md` lists every metric.

mod checks;
mod client;
mod json;
mod oracle;
mod render;
mod stack;
mod stats;
mod trace;
mod workload;

use client::Outcome;
use stack::Stack;
use stats::{mean, median, quantile, ratio};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workload::{Kind, Plan, Workload};

/// Load-generator threads: at most this many, and at most `nproc`.
const GEN_THREADS: usize = 2;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Each request kind must be sent at least this often per end-to-end
/// run, so its p99 has ten samples beyond it.
const MIN_PER_KIND: usize = 1000;
/// The paper's per-prediction budget (§7.5, 30 Hz imaging).
const DEADLINE_MS: f64 = 30.0;
/// A run whose generator sent later than this at p99 is invalid: the
/// generator, not the server, would have spent a whole frame's budget.
const GEN_LAG_BOUND_MS: f64 = DEADLINE_MS;
/// Largest share of traced request time the layer spans may leave
/// unaccounted.
const RECONCILE_TOLERANCE: f64 = 0.05;
/// Tail figures (p99) are the median over this many equal sub-windows
/// of the measured window.
const TAIL_WINDOWS: usize = 3;
/// Share of `--seconds` the open-loop window takes; the probe phase has
/// the rest.
const WINDOW_SHARE: f64 = 2.0 / 3.0;
/// Longest wait, under churn, for the window's sessions to be sealed
/// before the probes start.
const SEAL_WAIT: Duration = Duration::from_secs(5);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(args)
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// The metrics of the result line.
    metrics: Vec<Metric>,
    /// Further figures for the report only.
    extra: Vec<Metric>,
    provenance: Vec<(String, String)>,
    problems: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = if args.workload == "all" {
        workload::WORKLOADS.iter().collect()
    } else {
        match workload::find(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("error: unknown workload '{}'", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let mut all_correct = true;
    for w in selected {
        let root = PathBuf::from(".bench_run").join(format!("{}-{}", w.name, std::process::id()));
        let outcome = if args.trace {
            traced_run(w, &args, &root)
        } else {
            end_to_end_run(w, &args, &root)
        };
        // Scratch WAL directories: a leftover is harmless and ignored by git.
        let _ = std::fs::remove_dir_all(&root);
        match outcome {
            Ok(r) => {
                all_correct &= r.correct;
                print_result(w, &r);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_result(w: &Workload, r: &RunResult) {
    println!("# workload {}: {}", w.name, w.why);
    let prov: Vec<(String, String)> = r.provenance.clone();
    println!("# provenance {}", json::object(&prov));
    for (name, value, unit) in r.metrics.iter().chain(&r.extra) {
        println!("#   {name:<42} {value:>14.6} {unit}");
    }
    for p in &r.problems {
        println!("# FAILED CHECK: {p}");
    }
    let metrics: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                format!("{{\"value\": {}, \"unit\": \"{unit}\"}}", json::num(*value)),
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        json::object(&metrics)
    );
}

fn gen_threads(w: &Workload) -> usize {
    GEN_THREADS.min(stats::nproc()).min(w.sessions).max(1)
}

/// Store size as loaded (before the serve patient is added).
struct StoreSize {
    patients: usize,
    streams: usize,
    vertices: usize,
}

/// One set-up: cohort, stack, filled index cache, warm sessions up to
/// the first served prediction.
fn set_up(
    w: &Workload,
    seed: u64,
    window_s: f64,
    dir: &Path,
) -> Result<(Stack, Plan, StoreSize), String> {
    let store = stack::cohort_store(w.store_patients, seed);
    let size = StoreSize {
        patients: store.num_patients(),
        streams: store.num_streams(),
        vertices: store.total_vertices(),
    };
    let plan = workload::plan(w, seed, window_s, gen_threads(w), "");
    let stack = Stack::start(w, store, dir)?;
    stack::fill_index_cache(stack.engine());
    stack::warm_up(stack.addr, &plan)?;
    Ok((stack, plan, size))
}

/// The server's session number of each instance: sessions warmed at
/// set-up were created in plan order; later ones (churn) are unknown.
fn session_numbers(plan: &Plan) -> Vec<u32> {
    let mut n = 0;
    plan.instances
        .iter()
        .map(|i| {
            if i.warm > 0 {
                n += 1;
                n
            } else {
                0
            }
        })
        .collect()
}

/// What the end-of-run checks found.
struct EndChecks {
    wrong: HashSet<usize>,
    answers_checked: usize,
    recover_ms: f64,
    /// Sessions created but no longer live at the end (sealed on idle).
    evicted: usize,
    acked_ingests: usize,
    problems: Vec<String>,
}

/// Ledger, `/healthz`, shutdown, answer oracle and WAL recovery.
fn end_checks(w: &Workload, stack: Stack, plan: &Plan, outcomes: &[Outcome]) -> EndChecks {
    let mut problems = Vec::new();
    if let Err(e) = checks::ledger_reconciles(stack.addr) {
        problems.push(e);
    }
    let live = checks::healthz_samples(stack.addr).unwrap_or_else(|e| {
        problems.push(e);
        HashMap::new()
    });
    let twin = w.store_fixed().then(|| {
        stack::engine_over(
            stack::copy_store(stack.store()),
            tsm_core::MetricsRegistry::disabled(),
        )
    });
    let serve_patient = stack.serve_patient;
    let horizon = stack.manager.horizon();
    let wal_dir = stack.wal_dir.clone();
    stack.shutdown();
    let numbers = session_numbers(plan);
    let report = oracle::replay(plan, outcomes, twin.as_ref(), serve_patient, horizon, |i| {
        numbers[i]
    });
    if let Some(first) = &report.first_wrong {
        problems.push(format!(
            "{} wrong answer(s); first: {first}",
            report.wrong.len()
        ));
    }
    if let Err(e) = checks::healthz_agrees(plan, &report.expects, &live, w.churn.is_some()) {
        problems.push(e);
    }
    let recover_ms = match checks::rpo_holds(&wal_dir, serve_patient, plan, &report.expects, &live)
    {
        Ok(ms) => ms,
        Err(e) => {
            problems.push(e);
            f64::NAN
        }
    };
    let evicted = plan
        .instances
        .iter()
        .zip(&report.expects)
        .filter(|(i, e)| e.created && !live.contains_key(&i.name))
        .count();
    EndChecks {
        wrong: report.wrong.into_iter().collect(),
        answers_checked: report.checked,
        recover_ms,
        evicted,
        acked_ingests: outcomes
            .iter()
            .filter(|o| o.req.kind == Kind::Ingest && o.status == 200)
            .count(),
        problems,
    }
}

/// The end-to-end figures of one open-loop window.
struct Figures {
    attempted: usize,
    failed: usize,
    per_kind: Vec<(Kind, usize, f64, f64)>,
    deadline_miss_ratio: f64,
    gen_lag_p99_ms: f64,
    service_mean_ms: f64,
}

/// The p99 of each of `TAIL_WINDOWS` equal sub-windows (by due time),
/// and their median: one host stall moves one sub-window, not the figure.
fn windowed_p99(samples: &[(u64, f64)], window_s: f64) -> f64 {
    let window_ns = (window_s * 1e9) as u64;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); TAIL_WINDOWS];
    for &(due_ns, v) in samples {
        let w = (due_ns as u128 * TAIL_WINDOWS as u128 / window_ns.max(1) as u128) as usize;
        per[w.min(TAIL_WINDOWS - 1)].push(v);
    }
    let tails: Vec<f64> = per
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| quantile(v, 0.99))
        .collect();
    median(&tails)
}

fn figures(outcomes: &[Outcome], wrong: &HashSet<usize>, window_s: f64) -> Figures {
    let good = |ix: usize, o: &Outcome| o.ok() && !wrong.contains(&ix);
    let per_kind = Kind::ALL
        .iter()
        .map(|&k| {
            let lat: Vec<(u64, f64)> = outcomes
                .iter()
                .enumerate()
                .filter(|(ix, o)| o.req.kind == k && good(*ix, o))
                .map(|(_, o)| (o.req.due_ns, o.latency_ms()))
                .collect();
            let all: Vec<f64> = lat.iter().map(|&(_, v)| v).collect();
            let sent = outcomes.iter().filter(|o| o.req.kind == k).count();
            (k, sent, median(&all), windowed_p99(&lat, window_s))
        })
        .collect();
    let predicts: Vec<(usize, &Outcome)> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.req.kind == Kind::Predict)
        .collect();
    let missed = predicts
        .iter()
        .filter(|(ix, o)| !(good(*ix, o) && o.latency_ms() <= DEADLINE_MS))
        .count();
    let lags: Vec<(u64, f64)> = outcomes
        .iter()
        .map(|o| (o.req.due_ns, o.lag_ms()))
        .collect();
    let service: Vec<f64> = outcomes.iter().map(Outcome::service_ms).collect();
    let failed = outcomes
        .iter()
        .enumerate()
        .filter(|(ix, o)| !good(*ix, o))
        .count();
    Figures {
        attempted: outcomes.len(),
        failed,
        per_kind,
        deadline_miss_ratio: ratio(missed as f64, predicts.len() as f64),
        gen_lag_p99_ms: windowed_p99(&lags, window_s),
        service_mean_ms: mean(&service),
    }
}

fn provenance(w: &Workload, args: &Args, size: &StoreSize) -> Vec<(String, String)> {
    let (commit, dirty) = git_commit();
    let s = |v: String| json_str(&v);
    vec![
        ("workload".into(), s(w.name.into())),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), stats::nproc().to_string()),
        ("generator_threads".into(), gen_threads(w).to_string()),
        ("commit".into(), s(commit)),
        ("dirty".into(), dirty),
        (
            "source_fnv".into(),
            s(format!("{:016x}", source_fingerprint())),
        ),
        ("store_patients".into(), size.patients.to_string()),
        ("store_streams".into(), size.streams.to_string()),
        ("store_vertices".into(), size.vertices.to_string()),
        ("live_sessions".into(), w.sessions.to_string()),
        ("batch_samples".into(), workload::BATCH.to_string()),
        (
            "wal_flush".into(),
            s("fsync before every ingest ack".into()),
        ),
        ("pace".into(), json::num(workload::PACE)),
        ("deadline_ms".into(), json::num(DEADLINE_MS)),
    ]
}

fn json_str(s: &str) -> String {
    tsm_core::json::string(s)
}

/// The checkout's commit and dirty flag, when it is a git work tree.
fn git_commit() -> (String, String) {
    if !Path::new(".git").exists() {
        return ("none".into(), "null".into());
    }
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "--short=12", "HEAD"]) {
        Some(commit) => {
            let dirty = run(&["status", "--porcelain", "--untracked-files=no"])
                .map_or("null".into(), |s| (!s.is_empty()).to_string());
            (commit, dirty)
        }
        None => ("none".into(), "null".into()),
    }
}

/// FNV-1a over the sources the benchmark builds from (paths sorted), so
/// a result identifies its code even outside a git checkout.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if !p.ends_with("target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The open-loop medians: printed with every run, and part of the traced
/// run's result.
fn p50s(f: &Figures) -> Vec<Metric> {
    f.per_kind
        .iter()
        .map(|&(k, _, p50, _)| metric(&format!("{}_p50_ms", k.label()), p50, "ms"))
        .collect()
}

/// The tail and validity figures: printed with every run, and part of
/// the traced run's result (their run-to-run spread on a shared host is
/// too wide for a regression bound).
fn tails(f: &Figures) -> Vec<Metric> {
    let mut m: Vec<Metric> = f
        .per_kind
        .iter()
        .map(|&(k, _, _, p99)| metric(&format!("{}_p99_ms", k.label()), p99, "ms"))
        .collect();
    m.push(metric(
        "deadline_miss_ratio",
        f.deadline_miss_ratio,
        "ratio",
    ));
    m.push(metric(
        "failed_ratio",
        ratio(f.failed as f64, f.attempted as f64),
        "ratio",
    ));
    m.push(metric("gen_lag_p99_ms", f.gen_lag_p99_ms, "ms"));
    m
}

fn validity(f: &Figures, min_per_kind: usize, problems: &mut Vec<String>) {
    if f.gen_lag_p99_ms > GEN_LAG_BOUND_MS {
        problems.push(format!(
            "invalid run: generator lag p99 {:.3} ms exceeds {GEN_LAG_BOUND_MS} ms",
            f.gen_lag_p99_ms
        ));
    }
    for &(k, sent, _, _) in &f.per_kind {
        if sent < min_per_kind {
            problems.push(format!(
                "invalid run: {sent} {} requests, fewer than {min_per_kind}",
                k.label()
            ));
        }
    }
}

/// A probe figure: the fastest round trip of `kind` in each round of
/// each probe session, while the session's state held still, and the
/// median of those over every session and round. Contention on a
/// shared host only ever adds time, so the fastest of a state's repeats
/// is the one it touched least.
fn probe_best(good: &[&Outcome], kind: Kind) -> f64 {
    let mut best: HashMap<(usize, u64), f64> = HashMap::new();
    for o in good.iter().filter(|o| o.req.kind == kind) {
        let b = best
            .entry((o.req.instance, o.req.due_ns))
            .or_insert(f64::INFINITY);
        *b = b.min(o.service_ms());
    }
    median(&best.into_values().collect::<Vec<_>>())
}

/// The probe phase after the open-loop window: fresh probe sessions are
/// warmed, then sent one request at a time in rounds spread evenly over
/// what is left of `phase_s`. Returns the outcomes; the probe
/// sessions are appended to `plan`.
fn probe_phase(
    w: &Workload,
    seed: u64,
    addr: std::net::SocketAddr,
    plan: &mut Plan,
    phase_s: f64,
) -> Result<Vec<Outcome>, String> {
    let t = Instant::now();
    if w.churn.is_some() {
        // The window's sessions went idle at its end; the probes start
        // once the server has sealed them, so the store holds still.
        while t.elapsed() < SEAL_WAIT && !checks::healthz_samples(addr)?.is_empty() {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    let first = plan.instances.len();
    plan.instances.extend(workload::probe_instances(seed));
    stack::warm_sessions(addr, &plan.instances[first..])?;
    let left_ns = (phase_s - t.elapsed().as_secs_f64()).max(0.0) * 1e9;
    let rounds = workload::probe_rounds(first, left_ns as u64 / workload::PROBE_ROUNDS as u64);
    Ok(client::run_schedule(addr, &plan.instances, &[rounds]))
}

fn end_to_end_run(w: &Workload, args: &Args, root: &Path) -> Result<RunResult, String> {
    let window = args.seconds as f64 * WINDOW_SHARE;
    let mut setup_s = Vec::new();
    let mut kept = None;
    for k in 0..SETUPS {
        let dir = root.join(format!("wal-{k}"));
        let t = Instant::now();
        let (stack, plan, size) = set_up(w, args.seed, window, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            stack.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some((stack, plan, size));
        }
    }
    let (stack, mut plan, size) = kept.expect("at least one set-up");
    let steal = stats::Steal::now();
    let mut outcomes = client::run_schedule(stack.addr, &plan.instances, &plan.threads);
    let in_window = outcomes.len();
    let phase_s = args.seconds as f64 - window;
    outcomes.extend(probe_phase(w, args.seed, stack.addr, &mut plan, phase_s)?);
    let steal = steal.ratio_since();
    let rss = stats::rss_peak_mb();
    let end = end_checks(w, stack, &plan, &outcomes);
    let f = figures(&outcomes[..in_window], &end.wrong, window);
    let probes: Vec<&Outcome> = (in_window..outcomes.len())
        .filter(|ix| outcomes[*ix].ok() && !end.wrong.contains(ix))
        .map(|ix| &outcomes[ix])
        .collect();
    let probe_failed = outcomes.len() - in_window - probes.len();
    let mut problems = end.problems;
    validity(&f, MIN_PER_KIND, &mut problems);

    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("predict_best_ms", probe_best(&probes, Kind::Predict), "ms"),
        metric("rss_peak_mb", rss, "MB"),
    ];
    // Unbounded: thread hand-offs, which contention on a shared host
    // slows most, make up most of an ingest round trip and, under churn,
    // much of a query's, and spread them between runs nearly as wide as
    // the bound.
    let mut extra = vec![
        metric("ingest_best_ms", probe_best(&probes, Kind::Ingest), "ms"),
        metric("query_best_ms", probe_best(&probes, Kind::Query), "ms"),
    ];
    extra.extend(p50s(&f));
    extra.extend(tails(&f));
    extra.extend([
        metric("answers_checked", end.answers_checked as f64, "count"),
        metric("db.wal.recover_ms", end.recover_ms, "ms"),
        metric("host_steal_ratio", steal, "ratio"),
    ]);
    for &(k, sent, _, _) in &f.per_kind {
        extra.push(metric(&format!("{}_sent", k.label()), sent as f64, "count"));
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: outcomes.len(),
        failed: f.failed + probe_failed,
        metrics,
        extra,
        provenance: provenance(w, args, &size),
        problems,
    })
}

/// Samples the process's thread count until stopped; returns the peak.
fn thread_sampler(stop: &AtomicBool, peak: &AtomicU64) {
    // Relaxed: a stop flag and a statistic; the scope join orders the
    // final read.
    while !stop.load(Ordering::Relaxed) {
        // Relaxed: see above.
        peak.fetch_max(stats::threads(), Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn traced_run(w: &Workload, args: &Args, root: &Path) -> Result<RunResult, String> {
    let half = args.seconds as f64 / 2.0;
    let (stack, plan, size) = set_up(w, args.seed, half, &root.join("wal-0"))?;

    // Half the time over HTTP, untraced: ledger counts and server time.
    let steal = stats::Steal::now();
    let before = checks::Ledger::fetch(stack.addr)?;
    let version_before = stack.store().version();
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let outcomes = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| thread_sampler(&stop, &peak));
        let run = client::run_schedule(stack.addr, &plan.instances, &plan.threads);
        // Relaxed: the join below is the synchronizing edge.
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("thread sampler panicked");
        run
    });
    let ledger = checks::Ledger::fetch(stack.addr)?.since(&before);
    let version_bumps = stack.store().version() - version_before;
    let base = stack::copy_store(stack.store());
    let end = end_checks(w, stack, &plan, &outcomes);
    let f = figures(&outcomes, &end.wrong, half);
    let mut problems = end.problems;
    validity(&f, 0, &mut problems);

    // Half the time in-process, traced.
    let t = trace::run(w, args.seed, half, gen_threads(w), &base, root)?;
    let spans_file = root.with_file_name(format!("trace-{}.tsv", w.name));
    trace::write_spans(&spans_file, &t.spans)
        .map_err(|e| format!("{}: {e}", spans_file.display()))?;
    if t.identity_wrong > 0 {
        problems.push(format!(
            "{} handle answer(s) differ from the shadow's; first: {}",
            t.identity_wrong,
            t.first_wrong.clone().unwrap_or_default()
        ));
    }
    if let Some(e) = &t.ledger_error {
        problems.push(format!("traced stack ledger: {e}"));
    }
    let reconcile = trace::reconcile_error(&t.spans);
    if reconcile.is_nan() || reconcile > RECONCILE_TOLERANCE {
        problems.push(format!(
            "layer self times leave {reconcile:.4} of request time unaccounted (tolerance {RECONCILE_TOLERANCE})"
        ));
    }
    let layers = trace::by_layer(&t.spans);
    let traced_ingest_samples: f64 = t
        .records
        .iter()
        .filter(|r| r.traced && r.kind == Kind::Ingest && r.status == 200)
        .map(|r| r.samples as f64)
        .sum();
    let server_ms = ledger.hist_mean("serve.request_latency_ns") / 1e6;
    let l = |names: &[&str], scale: f64| trace::layer_mean(&layers, names, scale);
    let q = |names: &[&str], p: f64, scale: f64| trace::layer_q(&layers, names, p, scale);
    let lens: Vec<f64> = t.query_lens.iter().map(|&n| n as f64).collect();
    let matches: Vec<f64> = t.matches.iter().map(|&n| n as f64).collect();
    let c = |name: &str| ledger.c(name);
    let mut metrics = vec![
        metric("serve.server_ms.mean", server_ms, "ms"),
        metric("serve.transport_ms", f.service_mean_ms - server_ms, "ms"),
        metric(
            "serve.shed_ratio",
            ratio(c("serve.rejected"), c("serve.requests")),
            "ratio",
        ),
        metric("serve.http.parse_us", l(&[trace::PARSE], 1e3), "us"),
        metric("serve.http.render_us", l(&[trace::RENDER], 1e3), "us"),
        metric("serve.sessions.lookup_us", l(&[trace::LOOKUP], 1e3), "us"),
        metric("serve.sessions.create_ms", l(&[trace::CREATE], 1e6), "ms"),
        metric("serve.sessions.evicted", end.evicted as f64, "count"),
        metric(
            "core.session.mailbox_wait_us.p50",
            q(&trace::HANDLE, 0.5, 1e3),
            "us",
        ),
        metric(
            "core.session.mailbox_wait_us.p99",
            q(&trace::HANDLE, 0.99, 1e3),
            "us",
        ),
        metric(
            "core.session.push_ns_per_sample",
            ratio(
                trace::layer_sum(&layers, trace::PUSH),
                traced_ingest_samples,
            ),
            "ns",
        ),
        metric("core.session.backlog_hwm", c("cohort.backlog_hwm"), "count"),
        metric(
            "core.session.threads_peak",
            // Relaxed: read after the sampler thread was joined.
            peak.load(Ordering::Relaxed) as f64,
            "count",
        ),
        metric(
            "model.csv.parse_ns_per_sample",
            ratio(trace::layer_sum(&layers, trace::CSV), traced_ingest_samples),
            "ns",
        ),
        metric(
            "model.segmenter.vertices_per_ksample",
            1e3 * ratio(c("segment.vertices_emitted"), c("segment.samples")),
            "count",
        ),
        metric("core.query.generate_us", l(&[trace::GENERATE], 1e3), "us"),
        metric("core.query.len_mean", mean(&lens), "count"),
        metric(
            "core.index_cache.search_us.p50",
            q(&[trace::SEARCH], 0.5, 1e3),
            "us",
        ),
        metric(
            "core.index_cache.search_us.p99",
            q(&[trace::SEARCH], 0.99, 1e3),
            "us",
        ),
        metric(
            "core.index_cache.hit_ratio",
            ratio(c("cache.hits"), c("cache.lookups")),
            "ratio",
        ),
        metric("core.index_cache.rebuilds", c("cache.rebuilds"), "count"),
        metric(
            "core.index_cache.rebuild_ms",
            l(&[trace::REBUILD], 1e6),
            "ms",
        ),
        metric(
            "core.matcher.windows_scored_per_search",
            ratio(c("match.windows_scored"), c("match.searches")),
            "count",
        ),
        metric(
            "core.matcher.completed_ratio",
            ratio(c("match.windows_completed"), c("match.windows_scored")),
            "ratio",
        ),
        metric(
            "core.matcher.band_pass_ratio",
            ratio(c("index.dur_band_candidates"), c("index.bucket_candidates")),
            "ratio",
        ),
        metric(
            "core.matcher.f32_prune_ratio",
            ratio(
                c("match.batch_lanes_abandoned"),
                c("match.batch_lanes_abandoned") + c("match.f32_prune_rescans"),
            ),
            "ratio",
        ),
        metric("core.matcher.matches_per_search", mean(&matches), "count"),
        metric("core.predict.position_us", l(&[trace::POSITION], 1e3), "us"),
        metric("db.store.version_bumps", version_bumps as f64, "count"),
        metric("db.features.rebuild_ms", l(&[trace::FEATURES], 1e6), "ms"),
        metric("db.wal.commit_us.p50", q(&[trace::COMMIT], 0.5, 1e3), "us"),
        metric("db.wal.commit_us.p99", q(&[trace::COMMIT], 0.99, 1e3), "us"),
        metric(
            "db.wal.fsyncs_per_ack",
            ratio(c("wal.fsyncs"), end.acked_ingests as f64),
            "ratio",
        ),
        metric(
            "db.wal.bytes_per_sample",
            ratio(t.wal_bytes as f64, t.shadow_samples as f64),
            "B",
        ),
        metric("db.wal.checkpoint_ms", t.checkpoint_ms, "ms"),
        metric("db.wal.recover_ms", end.recover_ms, "ms"),
        metric(
            "trace.overhead_ratio",
            trace::overhead_ratio(&t.records),
            "ratio",
        ),
        metric("trace.reconcile_error", reconcile, "ratio"),
        metric(
            "trace.handle_overrun_ratio",
            trace::handle_overrun_ratio(&t.spans),
            "ratio",
        ),
    ];
    metrics.extend(p50s(&f));
    metrics.extend(tails(&f));
    let mut extra = vec![metric(
        "answers_checked",
        end.answers_checked as f64,
        "count",
    )];
    extra.push(metric("traced_requests", t.records.len() as f64, "count"));
    extra.push(metric("host_steal_ratio", steal.ratio_since(), "ratio"));
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted: f.attempted + t.records.len(),
        failed: f.failed + t.failed,
        metrics,
        extra,
        provenance: provenance(w, args, &size),
        problems,
    })
}
