//! The `serve_churn` workload: a real `repro serve --listen` accept loop
//! (`appvsweb_bench::serve_cli::run`) in its own fresh process on an
//! empty state directory, driven over loopback by one generator thread,
//! one connection at a time.
//!
//! The loop is open: small jobs (stride-4 grid, 1 simulated minute, no
//! ReCon), each with a distinct seed, are due at a fixed interval;
//! `/health` probes are due at a fixed finer interval, and after each
//! probe the generator reads `/status/<id>` for every unfinished job.
//! Every request is timed from when it was due. The server runs a job
//! inline after acknowledging its submission, so probes due meanwhile
//! wait behind it.

use crate::report::Outcome;
use crate::trace::{self, Recorder};
use crate::util::{self, secs_since};
use appvsweb_json::{Json, ToJson};
use appvsweb_serve::{
    http, recover, JobEntry, JobSpec, JobStatus, MemWal, QueueConfig, ServeDir, Server, WalSink,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Jobs per run. Each distinct-seed job adds ~330 MB of compiled
/// dictionaries to the server today, and the cache clears only at 512
/// entries (~10 jobs), so 8 jobs keep the server near 2.6 GB.
const JOBS: usize = 8;

/// Worker threads of the server. The load generator shares the 2-vCPU
/// box with the server; one job worker leaves it a core, and keeps job
/// time independent of whether the host lets both vCPUs run at once.
const SERVER_WORKERS: usize = 1;

/// Shortest gap between job arrivals, s. A job costs ~0.4 s on one
/// worker today, so the server keeps up without queueing or shedding.
const MIN_JOB_INTERVAL_S: f64 = 1.0;

/// Seconds between `/health` probes.
const PROBE_INTERVAL_S: f64 = 0.1;

/// A probe whose service time exceeds this waited behind a job (an
/// unblocked probe answers in about a millisecond).
const BLOCKED_MS: f64 = 100.0;

/// Servers started, and stopped after one `/health`, before the
/// measured one: `setup_s` samples. A start uses ~1 ms of CPU, so the
/// median needs many.
const SETUP_SERVERS: usize = 23;

/// Reference passes the harness takes before each server start; as
/// many again, in all, follow the drive.
const REFERENCE_PASSES: usize = 5;

/// How long unfinished jobs may take past the schedule before they
/// count as never finished.
const DRAIN_TIMEOUT_S: f64 = 60.0;

/// The jobs one run submits, in order: one monitoring series, a
/// distinct seed per job.
fn job_specs(seed: u64, jobs: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| JobSpec {
            name: "churn".to_string(),
            seed: util::derive_seed(seed, &format!("serve-job-{i}")),
            minutes: 1,
            use_recon: false,
            stride: 4,
            ..JobSpec::default()
        })
        .collect()
}

/// A parsed HTTP response.
struct Response {
    status: u16,
    body: String,
}

/// One request on its own connection. Reads exactly the response's
/// content-length: the server keeps the connection open while it runs
/// the job a submission admitted.
fn request(port: u16, method: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("timeout: {e}"))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let length: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    k.eq_ignore_ascii_case("content-length")
                        .then(|| v.trim().parse().ok())?
                })
                .unwrap_or(0);
            if buf.len() >= head_end + 4 + length {
                let status = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                let body = String::from_utf8_lossy(&buf[head_end + 4..head_end + 4 + length]);
                return Ok(Response {
                    status,
                    body: body.to_string(),
                });
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-response".to_string()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// Body of a response rendered in-process by `http::handle`.
fn handle_body<S: WalSink>(server: &mut Server<S>, raw: &str) -> String {
    let resp = http::handle(server, raw.as_bytes());
    resp.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default()
}

/// A running server child and its port.
struct ServerProc {
    child: Child,
    port: u16,
}

impl ServerProc {
    /// Start `child-serve` on a free port over `dir`; returns once it
    /// says it listens (after recovery and bind) and `/health` answers,
    /// with the CPU seconds the server used up to its `listening` line
    /// (it is single-threaded until then). Waiting on its stderr, not
    /// polling the port, keeps the harness off the CPU the server starts
    /// on.
    fn start(dir: &Path, max_requests: u64) -> Result<(ServerProc, f64), String> {
        let mut last_err = String::new();
        for _ in 0..3 {
            let port = TcpListener::bind(("127.0.0.1", 0))
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free port: {e}"))?
                .port();
            let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
                .args([
                    "child-serve".to_string(),
                    "--listen".to_string(),
                    port.to_string(),
                    "--dir".to_string(),
                    dir.display().to_string(),
                    "--workers".to_string(),
                    SERVER_WORKERS.to_string(),
                    "--max-requests".to_string(),
                    max_requests.to_string(),
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn server: {e}"))?;
            let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
            let mut line = String::new();
            let mut listening = false;
            while stderr.read_line(&mut line).is_ok_and(|n| n > 0) {
                if line.contains("listening on") {
                    listening = true;
                    break;
                }
                line.clear();
            }
            if listening {
                let setup_cpu_s = util::live_threads_cpu_s(child.id());
                // The server may write to stderr until it exits.
                std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
                let server = ServerProc { child, port };
                match request(port, "GET", "/health", "") {
                    Ok(r) if r.status == 200 => return Ok((server, setup_cpu_s)),
                    Ok(r) => last_err = format!("/health answered {}", r.status),
                    Err(e) => last_err = format!("/health failed: {e}"),
                }
            } else {
                let status = child.wait().map_err(|e| e.to_string())?;
                last_err = format!("server exited before listening: {status}");
            }
        }
        Err(last_err)
    }

    /// CPU seconds the server has used so far.
    fn cpu_s(&self) -> f64 {
        util::proc_cpu_s(self.child.id())
    }

    /// The server's peak resident set, MB.
    fn peak_rss_mb(&self) -> f64 {
        util::proc_status_kb(&self.child.id().to_string(), "VmHWM") as f64 / 1024.0
    }
}

impl Drop for ServerProc {
    /// Stop the server and wait for it, also when the harness unwinds.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What the open-loop drive observed.
#[derive(Default)]
struct Drive {
    attempted: u64,
    failed: u64,
    job_latency: Vec<Option<f64>>,
    health_latency: Vec<f64>,
    blocked: u64,
    lateness: Vec<f64>,
    final_status: String,
    wall_s: f64,
}

/// The job arrival interval that spreads the run's jobs over `seconds`.
fn job_interval(seconds: f64) -> f64 {
    (seconds / JOBS as f64).max(MIN_JOB_INTERVAL_S)
}

fn wait_until(start: Instant, due: f64) {
    let now = secs_since(start);
    if due > now {
        std::thread::sleep(Duration::from_secs_f64(due - now));
    }
}

/// Run the schedule against the server. `rec`, when given, records a
/// span around each request (the traced run).
fn drive(port: u16, specs: &[JobSpec], seconds: f64, rec: Option<&Recorder>) -> Drive {
    let mut d = Drive {
        job_latency: vec![None; specs.len()],
        ..Drive::default()
    };
    let timed = |name: &'static str, f: &mut dyn FnMut() -> Result<Response, String>| match rec {
        Some(rec) => rec.span(name, None, None, f),
        None => f(),
    };
    let interval = job_interval(seconds);
    let sched_end = specs.len() as f64 * interval;
    let start = Instant::now();
    let mut next_job = 0usize;
    let mut probe = 0u64;
    let mut pending: BTreeMap<u64, (usize, f64)> = BTreeMap::new();
    loop {
        let job_due = (next_job < specs.len()).then_some(next_job as f64 * interval);
        let probe_due = probe as f64 * PROBE_INTERVAL_S;
        if job_due.is_none() && pending.is_empty() && probe_due >= sched_end {
            break;
        }
        if secs_since(start) > sched_end + DRAIN_TIMEOUT_S {
            break;
        }
        match job_due {
            Some(due) if due <= probe_due => {
                wait_until(start, due);
                d.lateness.push(secs_since(start) - due);
                let body = specs[next_job].to_json().to_compact();
                d.attempted += 1;
                let resp = timed("loadgen.submit", &mut || {
                    request(port, "POST", "/submit", &body)
                });
                let admitted = resp.ok().filter(|r| r.status == 202).and_then(|r| {
                    let v = appvsweb_json::parse(&r.body).ok()?;
                    let admitted = matches!(v.get("admission"), Some(Json::Str(a)) if a == "admit");
                    admitted.then(|| util::num(v.get("job")) as u64)
                });
                match admitted {
                    Some(id) => {
                        pending.insert(id, (next_job, due));
                    }
                    None => d.failed += 1,
                }
                next_job += 1;
            }
            _ => {
                wait_until(start, probe_due);
                let sent = secs_since(start);
                d.lateness.push(sent - probe_due);
                d.attempted += 1;
                let resp = timed("loadgen.health", &mut || {
                    request(port, "GET", "/health", "")
                });
                let now = secs_since(start);
                if !matches!(resp, Ok(Response { status: 200, .. })) {
                    d.failed += 1;
                }
                d.health_latency.push(now - probe_due);
                if (now - sent) * 1e3 > BLOCKED_MS {
                    d.blocked += 1;
                }
                let ids: Vec<u64> = pending.keys().copied().collect();
                for id in ids {
                    d.attempted += 1;
                    let path = format!("/status/{id}");
                    let resp = timed("loadgen.status", &mut || request(port, "GET", &path, ""));
                    let entry = match resp {
                        Ok(r) if r.status == 200 => appvsweb_json::decode::<JobEntry>(&r.body).ok(),
                        _ => {
                            d.failed += 1;
                            None
                        }
                    };
                    if let Some(e) = entry {
                        if e.status == JobStatus::Done && e.revision.is_some() {
                            if let Some((idx, due)) = pending.remove(&id) {
                                d.job_latency[idx] = Some(secs_since(start) - due);
                            }
                        }
                    }
                }
                probe += 1;
            }
        }
    }
    // Jobs still pending never finished.
    d.failed += pending.len() as u64;
    d.attempted += 1;
    match request(port, "GET", "/status", "") {
        Ok(r) if r.status == 200 => d.final_status = r.body,
        _ => d.failed += 1,
    }
    d.wall_s = secs_since(start);
    d
}

/// Replay the submissions in-process through a `Server<FileWal>` over
/// `dir`, timing each public call; returns the per-layer metrics. The
/// spans tile the replayed interval, so its reconciliation can miss
/// only the harness's loop glue.
fn traced_replay(dir: &Path, specs: &[JobSpec]) -> Result<BTreeMap<String, f64>, String> {
    let rec = Recorder::new();
    let serve_dir = ServeDir::new(dir);
    let mut server = serve_dir
        .open(QueueConfig::default(), SERVER_WORKERS)
        .map_err(|e| e.to_string())?;
    let t0 = rec.now();
    let mut checkpoints = 0u32;
    let mut requests = 0u32;
    for spec in specs {
        rec.span("serve.submit", None, None, || server.submit(spec.clone()))
            .map_err(|e| e.to_string())?;
        while rec
            .span("serve.run_job", None, None, || server.run_next())
            .map_err(|e| e.to_string())?
            .is_some()
        {}
        let cp = rec.span("serve.snapshot", None, None, || server.checkpoint());
        rec.span("serve.checkpoint", None, None, || {
            serve_dir.write_checkpoint(&cp)
        })
        .map_err(|e| e.to_string())?;
        checkpoints += 1;
        for raw in [
            "GET /health HTTP/1.1\r\n\r\n".to_string(),
            format!(
                "GET /status/{} HTTP/1.1\r\n\r\n",
                server.state.jobs.len() - 1
            ),
        ] {
            rec.span("serve.http", None, None, || {
                http::handle(&mut server, raw.as_bytes())
            });
            requests += 1;
        }
    }
    let t1 = rec.now();
    let wal_text = std::fs::read_to_string(serve_dir.wal_path()).map_err(|e| e.to_string())?;
    rec.span("serve.recover", None, None, || recover(&wal_text, None))
        .map_err(|e| e.to_string())?;

    let spans = rec.spans();
    let total = trace::total_by_name(&spans);
    let ms = |name: &str| total.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let busy: u64 = spans
        .iter()
        .filter(|s| s.name != "serve.recover")
        .map(trace::Span::dur)
        .sum();
    let mut m = BTreeMap::new();
    m.insert(
        "serve.submit_ms".to_string(),
        ms("serve.submit") / specs.len().max(1) as f64,
    );
    m.insert(
        "serve.run_job_ms".to_string(),
        ms("serve.run_job") / specs.len().max(1) as f64,
    );
    m.insert(
        "serve.checkpoint_ms".to_string(),
        ms("serve.checkpoint") / f64::from(checkpoints.max(1)),
    );
    m.insert(
        "serve.http_ms".to_string(),
        ms("serve.http") / f64::from(requests.max(1)),
    );
    m.insert("serve.recover_ms".to_string(), ms("serve.recover"));
    m.insert(
        "obs.reconciled_pct".to_string(),
        busy as f64 / (t1 - t0) as f64 * 100.0,
    );
    m.insert("obs.spans".to_string(), spans.len() as f64);
    let wall = (t1 - t0) as f64 / 1e6;
    for name in [
        "serve.submit",
        "serve.run_job",
        "serve.snapshot",
        "serve.checkpoint",
        "serve.http",
    ] {
        m.insert(format!("share:{name}"), ms(name) / wall);
    }
    Ok(m)
}

/// Orchestrate one serve_churn run. `work_dir` is scratch space inside
/// the checkout; it is removed afterwards.
pub fn run(seed: u64, seconds: f64, traced: bool, work_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let _ = std::fs::remove_dir_all(work_dir);
    let jobs = JOBS;
    let specs = job_specs(seed, jobs);

    // Set-up: start a server on an empty directory until /health
    // answers, SETUP_SERVERS times (each exits after that one request),
    // then the measured server itself.
    let mut setup = Vec::new();
    let mut reference = Vec::new();
    for i in 0..SETUP_SERVERS {
        reference.extend(util::reference_passes(REFERENCE_PASSES));
        match ServerProc::start(&work_dir.join(format!("setup-{i}")), 1) {
            Ok((_server, t)) => setup.push(t),
            Err(e) => {
                eprintln!("perfbench: {e}");
                out.failed += 1;
                out.attempted += 1;
            }
        }
    }
    let live_dir = work_dir.join("live");
    let (server, t) = match ServerProc::start(&live_dir, 0) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            out.check("server started", false);
            return out;
        }
    };
    setup.push(t);

    let rec = traced.then(Recorder::new);
    let cpu0 = server.cpu_s();
    let d = drive(server.port, &specs, seconds, rec.as_ref());
    let job_cpu_s = (server.cpu_s() - cpu0) / jobs as f64;
    let peak_rss = server.peak_rss_mb();
    drop(server);
    // Not during the drive: there a pass would share the host with the
    // server's jobs, and longer jobs would slow the reference.
    reference.extend(util::reference_passes(SETUP_SERVERS * REFERENCE_PASSES));

    out.attempted += d.attempted;
    out.failed += d.failed;
    let job_latency: Vec<f64> = d.job_latency.iter().flatten().copied().collect();
    out.check(
        format!(
            "all {jobs} jobs admitted and Done with a revision ({} done)",
            job_latency.len()
        ),
        job_latency.len() == jobs && d.failed == 0,
    );

    let wal_text = std::fs::read_to_string(ServeDir::new(&live_dir).wal_path()).unwrap_or_default();
    let recovered = recover(&wal_text, None).map(|(state, last)| {
        let mut s = Server::recovered(MemWal::default(), state, last, QueueConfig::default(), 1);
        handle_body(&mut s, "GET /status HTTP/1.1\r\n\r\n")
    });
    out.check(
        "recover over the final WAL reproduces the final /status",
        recovered.as_ref().is_ok_and(|s| *s == d.final_status),
    );

    // The traced replay runs first, while this process has compiled no
    // dictionary yet, as the live server had not.
    if traced {
        match traced_replay(&work_dir.join("replay"), &specs) {
            Ok(m) => {
                for (k, v) in m {
                    match k.strip_prefix("share:") {
                        Some(name) => out.shares.push((name.to_string(), v)),
                        None => {
                            out.metrics.insert(k, v);
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("perfbench: traced replay failed: {e}");
                out.check("traced Server<FileWal> replay ran", false);
            }
        }
    }
    let mut replay = Server::new(MemWal::default(), QueueConfig::default(), SERVER_WORKERS);
    for spec in &specs {
        if replay.submit(spec.clone()).is_err() || replay.run_pending().is_err() {
            out.failed += 1;
        }
    }
    let replay_status = handle_body(&mut replay, "GET /status HTTP/1.1\r\n\r\n");
    out.check(
        "final /status equals an in-process Server<MemWal> replay",
        !d.final_status.is_empty() && replay_status == d.final_status,
    );

    let file_len = |p: PathBuf| std::fs::metadata(p).map(|m| m.len() as f64).unwrap_or(0.0);
    let health_p99_ms = util::quantile(&d.health_latency, 0.99) * 1e3;
    let job_p50 = util::median(&job_latency);
    out.set_times(util::median(&setup), job_cpu_s, &reference);
    out.metrics.insert("peak_rss_mb".into(), peak_rss);
    out.metrics.insert("wall.campaign_s".into(), job_p50);
    out.metrics
        .insert("serve.job_latency_p50_s".into(), job_p50);
    out.metrics
        .insert("serve.health_latency_p99_ms".into(), health_p99_ms);
    out.notes.push(format!(
        "job latencies, s: {:?}",
        job_latency
            .iter()
            .map(|v| (v * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "{jobs} jobs every {:.2} s: job latency p50 {job_p50:.4} s, server CPU {job_cpu_s:.4} s \
         per job; {} health probes: p50 {:.3} ms, p90 {:.3} ms, p99 {health_p99_ms:.3} ms, \
         {} blocked; set-up CPU samples {setup:?}",
        job_interval(seconds),
        d.health_latency.len(),
        util::median(&d.health_latency) * 1e3,
        util::quantile(&d.health_latency, 0.9) * 1e3,
        d.blocked
    ));
    if traced {
        let dir = ServeDir::new(&live_dir);
        out.metrics.insert(
            "serve.health_blocked_ratio".into(),
            d.blocked as f64 / d.health_latency.len().max(1) as f64,
        );
        out.metrics
            .insert("serve.wal_bytes".into(), file_len(dir.wal_path()));
        out.metrics.insert(
            "serve.checkpoint_bytes".into(),
            file_len(dir.checkpoint_path()),
        );
        out.metrics.insert(
            "loadgen.lateness_p99_ms".into(),
            util::quantile(&d.lateness, 0.99) * 1e3,
        );
        // The server is not instrumented; the traced drive differs from
        // an untraced one only by the client-side spans it records.
        let client_spans = rec.as_ref().map_or(0, |r| r.spans().len());
        out.metrics.insert(
            "obs.trace_overhead_pct".into(),
            client_spans as f64 * trace::span_cost_ns() / (d.wall_s * 1e9) * 100.0,
        );
        let replay_spans = out.metrics.get("obs.spans").copied().unwrap_or(0.0);
        out.metrics
            .insert("obs.spans".into(), replay_spans + client_spans as f64);
        let reconciled = out
            .metrics
            .get("obs.reconciled_pct")
            .copied()
            .unwrap_or(0.0);
        out.check(
            format!("replay spans reconcile the replay wall within 5% ({reconciled:.2}%)"),
            (reconciled - 100.0).abs() <= 5.0,
        );
        out.shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    }
    let _ = std::fs::remove_dir_all(work_dir);
    out
}

/// `child-serve`: the real `repro serve` entry point, in this process.
pub fn child(args: &[String]) -> i32 {
    appvsweb_bench::serve_cli::run(args)
}
