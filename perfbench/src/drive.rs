//! The served run: boot `hetchol_serve::Server` in-process, warm it up,
//! and drive the workload's sequence over kept-alive connections in
//! closed loop, window by window.
//!
//! The in-RAM workloads keep every answered job (nothing evicts without a
//! log), so each window gets a freshly booted server: memory stays at one
//! window's worth, and every boot is one set-up sample. `durable-trace`
//! writes its log first, then restarts on it several times (each restart
//! is a set-up sample) and serves all windows from the last restart.

use crate::calib::Calibration;
use crate::check;
use crate::mix::{self, Kind, Request, Sequence, Workload, RECOVERED_JOBS, RESIDENT_CAP};
use crate::report::{median, percentile, proc_status};
use hetchol::core::json::{parse_json, JsonValue};
use hetchol_serve::client::{self, Conn};
use hetchol_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Restarts of `durable-trace` over its log; the set-up time is their median.
const DURABLE_SETUPS: usize = 5;

/// The server configuration of a workload.
pub fn config(workload: Workload, shards: usize, log_path: Option<PathBuf>) -> ServeConfig {
    let cap = if workload.durable() { RESIDENT_CAP } else { 0 };
    ServeConfig {
        shards,
        log_path,
        max_resident_jobs: cap,
        results_max_entries: cap,
        ..ServeConfig::default()
    }
}

/// One request of a timed window.
pub struct Sample {
    /// Class index.
    pub class: usize,
    /// Wall time from send to full response, in milliseconds.
    pub ms: f64,
}

/// `/stats` counters the traced run diffs.
#[derive(Copy, Clone, Debug, Default)]
pub struct Counters {
    /// Result-cache hits.
    pub results_hits: f64,
    /// Result-cache lookups.
    pub results_gets: f64,
    /// Bounds-cache hits.
    pub bounds_hits: f64,
    /// Bounds-cache lookups.
    pub bounds_gets: f64,
    /// Evicted jobs reloaded from the log.
    pub reloads: f64,
    /// Jobs that ran in a batch of more than one.
    pub batched: f64,
    /// Jobs the pool completed.
    pub completed: f64,
}

impl Counters {
    fn read(addr: SocketAddr) -> Result<Counters, String> {
        let (status, body) = client::get(addr, "/stats").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("GET /stats answered {status}"));
        }
        let v = parse_json(&body)?;
        let num = |path: &[&str]| -> Result<f64, String> {
            let mut at: &JsonValue = &v;
            for key in path {
                at = at.field(key)?;
            }
            at.as_f64()
        };
        Ok(Counters {
            results_hits: num(&["cache", "results", "hits"])?,
            results_gets: num(&["cache", "results", "gets"])?,
            bounds_hits: num(&["cache", "bounds", "hits"])?,
            bounds_gets: num(&["cache", "bounds", "gets"])?,
            reloads: num(&["store", "reloads"])?,
            batched: num(&["jobs", "batched"])?,
            completed: num(&["jobs", "completed"])?,
        })
    }

    fn add_diff(&mut self, before: Counters, after: Counters) {
        self.results_hits += after.results_hits - before.results_hits;
        self.results_gets += after.results_gets - before.results_gets;
        self.bounds_hits += after.bounds_hits - before.bounds_hits;
        self.bounds_gets += after.bounds_gets - before.bounds_gets;
        self.reloads += after.reloads - before.reloads;
        self.batched += after.batched - before.batched;
        self.completed += after.completed - before.completed;
    }
}

/// Everything the served run measured.
pub struct Served {
    /// Requests per second, per window.
    pub window_ops: Vec<f64>,
    /// p50 latency (ms), per window.
    pub window_p50: Vec<f64>,
    /// p90 latency (ms), per window.
    pub window_p90: Vec<f64>,
    /// Every timed request.
    pub samples: Vec<Sample>,
    /// Requests that failed: transport error, non-200, wrong answer.
    pub failed: u64,
    /// Set-up times (s): boot + replay + warm-up.
    pub setups: Vec<f64>,
    /// Host-speed scale of each set-up (see [`crate::calib`]).
    pub setup_scale: Vec<f64>,
    /// Host-speed scale of each window.
    pub window_scale: Vec<f64>,
    /// `VmHWM` after the timed phase, in kB.
    pub peak_rss_kb: u64,
    /// `/stats` counter differences over the timed windows (traced runs).
    pub counters: Counters,
    /// The next unused sequence index.
    pub next_index: u64,
    /// The recovered log as written before the timed phase
    /// (`durable-trace` only).
    pub recovered_log: Option<PathBuf>,
}

/// Reference traces of the recovered jobs, and their server ids.
struct Recovered {
    ids: Vec<u64>,
    traces: Vec<String>,
}

/// Wait until the process is back to `threads` threads: connection
/// handlers exit once their client hangs up, and the last one drops the
/// server's state, so the next window starts from freed memory.
fn settle(threads: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while proc_status("Threads").is_some_and(|t| t > threads) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
}

fn stop(server: Server, conns: Vec<Conn>, threads: u64) {
    drop(conns);
    server.shutdown();
    settle(threads);
    release_freed_memory();
}

/// Return freed heap pages to the kernel. glibc keeps them in per-thread
/// arenas, and which arena the next window's fresh threads get is the
/// allocator's choice; without this the peak RSS of a run depends on that
/// choice more than on what a window keeps resident.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only walks glibc's own
    // arenas under their locks; it is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

/// POST every warm-up spec, spread over the connections in parallel.
fn warm_up(conns: &mut [Conn], workload: Workload) -> Result<(), String> {
    let specs = workload.warmup_specs();
    let stride = conns.len();
    thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let specs = &specs;
                s.spawn(move || -> Result<(), String> {
                    for spec in specs.iter().skip(c).step_by(stride) {
                        let (status, body) = conn
                            .request("POST", "/jobs", &spec.to_json())
                            .map_err(|e| e.to_string())?;
                        if status != 200 {
                            return Err(format!("warm-up answered {status}: {body}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread"))
    })
}

/// Read the last [`RESIDENT_CAP`] recovered traces in GET order, so the
/// store's resident set is full and the timed GETs start on evicted jobs.
fn warm_up_reads(conn: &mut Conn, seq: &Sequence, rec: &Recovered) -> Result<(), String> {
    let order = seq.get_order();
    for &target in &order[order.len() - RESIDENT_CAP..] {
        let (status, body) = conn
            .request("GET", &format!("/jobs/{}/trace", rec.ids[target]), "")
            .map_err(|e| e.to_string())?;
        if status != 200 || body != rec.traces[target] {
            return Err(format!(
                "warm-up read of job {} failed ({status})",
                rec.ids[target]
            ));
        }
    }
    Ok(())
}

struct Part {
    samples: Vec<Sample>,
    posts: Vec<(u64, String)>,
    failed: u64,
}

/// Serve `count` requests from `start` over `conns` in closed loop; each
/// connection takes the next index as soon as its previous answer is in.
fn window(
    conns: &mut [Conn],
    seq: &Sequence,
    start: u64,
    count: u64,
    rec: Option<&Recovered>,
) -> (f64, Vec<Part>) {
    let next = AtomicU64::new(start);
    let t0 = Instant::now();
    let parts = thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut part = Part {
                        samples: Vec::new(),
                        posts: Vec::new(),
                        failed: 0,
                    };
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= start + count {
                            break;
                        }
                        let request = seq.request(index);
                        let class = request.class();
                        let (method, path, body) = match &request {
                            Request::Post { spec, .. } => {
                                ("POST", "/jobs".to_string(), spec.to_json())
                            }
                            Request::Get { target, .. } => {
                                let id = rec.expect("GETs need recovered jobs").ids[*target];
                                ("GET", format!("/jobs/{id}/trace"), String::new())
                            }
                        };
                        let sent = Instant::now();
                        let answer = conn.request(method, &path, &body);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        part.samples.push(Sample { class, ms });
                        match (answer, &request) {
                            (Ok((200, text)), Request::Post { .. }) => {
                                part.posts.push((index, text))
                            }
                            (Ok((200, text)), Request::Get { target, .. })
                                if rec.is_some_and(|r| r.traces[*target] == text) => {}
                            _ => part.failed += 1,
                        }
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    (t0.elapsed().as_secs_f64(), parts)
}

/// Check every POST answer against a fresh `JobSpec::run` of its spec,
/// on `threads` threads; returns the number that differ.
fn verify(seq: &Sequence, posts: &[(u64, String)], threads: usize) -> u64 {
    let chunk = posts.len().div_ceil(threads.max(1)).max(1);
    thread::scope(|s| {
        let handles: Vec<_> = posts
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter(|(index, answer)| match seq.request(*index) {
                            Request::Post { spec, .. } => {
                                !check::answer_matches(answer, &check::reference(&spec))
                            }
                            Request::Get { .. } => true,
                        })
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread"))
            .sum()
    })
}

/// Write the recovered jobs of `durable-trace` through a first server and
/// keep, per job, the trace a direct run renders (checked equal to the
/// one the server serves while the job is still resident).
fn write_log(workload: Workload, shards: usize, log: &Path) -> Result<Recovered, String> {
    let threads = proc_status("Threads").unwrap_or(0);
    let server = Server::start(config(workload, shards, Some(log.to_path_buf())))
        .map_err(|e| e.to_string())?;
    let mut conn = Conn::new(server.addr());
    let mut rec = Recovered {
        ids: Vec::new(),
        traces: Vec::new(),
    };
    for i in 0..RECOVERED_JOBS {
        let spec = mix::recovered_spec(i);
        let (status, answer) = conn
            .request("POST", "/jobs", &spec.to_json())
            .map_err(|e| e.to_string())?;
        let run = spec.run().map_err(|e| e.to_string())?;
        if status != 200 || !check::answer_matches(&answer, &run.outcome.to_json()) {
            return Err(format!(
                "writing the log: job {i} answered {status}: {answer}"
            ));
        }
        let id = parse_json(&answer)?.field("job_id")?.as_u64()?;
        let trace = run
            .sim
            .expect("simulate jobs keep their result")
            .obs
            .to_chrome_trace();
        let (status, served) = conn
            .request("GET", &format!("/jobs/{id}/trace"), "")
            .map_err(|e| e.to_string())?;
        if status != 200 || served != trace {
            return Err(format!(
                "writing the log: trace of job {id} differs from a direct render"
            ));
        }
        rec.ids.push(id);
        rec.traces.push(trace);
    }
    stop(server, vec![conn], threads);
    Ok(rec)
}

/// Run `workload` for `seconds` of timed windows. `traced` adds the
/// `/stats` diffs around each window.
pub fn serve(
    seq: &Sequence,
    seconds: f64,
    shards: usize,
    connections: usize,
    run_dir: &Path,
    traced: bool,
) -> Result<Served, String> {
    let workload = seq.workload();
    let threads = proc_status("Threads").unwrap_or(0);
    let mut out = Served {
        window_ops: Vec::new(),
        window_p50: Vec::new(),
        window_p90: Vec::new(),
        samples: Vec::new(),
        failed: 0,
        setups: Vec::new(),
        setup_scale: Vec::new(),
        window_scale: Vec::new(),
        peak_rss_kb: 0,
        counters: Counters::default(),
        next_index: 0,
        recovered_log: None,
    };
    let mut posts = Vec::new();
    let mut calibration = Calibration::new();

    // durable-trace: the log, then timed restarts over it.
    let mut live: Option<(Server, Vec<Conn>)> = None;
    let mut recovered = None;
    if workload.durable() {
        let log = run_dir.join("jobs.log");
        let rec = write_log(workload, shards, &log)?;
        let copy = run_dir.join("recovered.log");
        std::fs::copy(&log, &copy).map_err(|e| e.to_string())?;
        out.recovered_log = Some(copy);
        for rep in 0..DURABLE_SETUPS {
            let before = calibration.measure();
            let t0 = Instant::now();
            let server = Server::start(config(workload, shards, Some(log.clone())))
                .map_err(|e| e.to_string())?;
            let mut conns: Vec<Conn> = (0..connections).map(|_| Conn::new(server.addr())).collect();
            warm_up_reads(&mut conns[0], seq, &rec)?;
            out.setups.push(t0.elapsed().as_secs_f64());
            out.setup_scale
                .push(Calibration::scale(before, calibration.measure()));
            let recovered_jobs = server.recovery().map_or(0, |r| r.recovered);
            if recovered_jobs != RECOVERED_JOBS {
                return Err(format!(
                    "restart recovered {recovered_jobs} of {RECOVERED_JOBS} jobs"
                ));
            }
            if rep + 1 < DURABLE_SETUPS {
                stop(server, conns, threads);
            } else {
                live = Some((server, conns));
            }
        }
        recovered = Some(rec);
    }

    let len = workload.window();
    let mut served_seconds = 0.0;
    while served_seconds < seconds {
        let (server, mut conns) = match live.take() {
            Some(running) => running,
            None => {
                let before = calibration.measure();
                let t0 = Instant::now();
                let server =
                    Server::start(config(workload, shards, None)).map_err(|e| e.to_string())?;
                let mut conns: Vec<Conn> =
                    (0..connections).map(|_| Conn::new(server.addr())).collect();
                warm_up(&mut conns, workload)?;
                out.setups.push(t0.elapsed().as_secs_f64());
                out.setup_scale
                    .push(Calibration::scale(before, calibration.measure()));
                (server, conns)
            }
        };
        let before = if traced {
            Some(Counters::read(server.addr())?)
        } else {
            None
        };
        let calibrated_before = calibration.measure();
        let (elapsed, parts) = window(&mut conns, seq, out.next_index, len, recovered.as_ref());
        out.window_scale
            .push(Calibration::scale(calibrated_before, calibration.measure()));
        if let Some(before) = before {
            out.counters
                .add_diff(before, Counters::read(server.addr())?);
        }
        out.next_index += len;
        served_seconds += elapsed;

        let mut ms: Vec<f64> = Vec::new();
        for part in parts {
            ms.extend(part.samples.iter().map(|s| s.ms));
            out.samples.extend(part.samples);
            posts.extend(part.posts);
            out.failed += part.failed;
        }
        ms.sort_by(f64::total_cmp);
        out.window_ops.push(len as f64 / elapsed);
        out.window_p50.push(percentile(&ms, 0.50));
        out.window_p90.push(percentile(&ms, 0.90));

        if workload.durable() && served_seconds < seconds {
            live = Some((server, conns));
        } else {
            stop(server, conns, threads);
        }
    }
    out.peak_rss_kb = proc_status("VmHWM").unwrap_or(0);
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    out.failed += verify(seq, &posts, cores);
    Ok(out)
}

impl Served {
    /// Medians over windows of requests per second, p50 ms and p90 ms,
    /// and over set-ups of seconds; scaled to the reference host speed
    /// when `scaled`.
    pub fn medians(&self, scaled: bool) -> [f64; 4] {
        let by = |values: &[f64], scales: &[f64], time: bool| {
            let v: Vec<f64> = values
                .iter()
                .zip(scales)
                .map(|(&x, &k)| match (scaled, time) {
                    (false, _) => x,
                    (true, true) => x * k,
                    (true, false) => x / k,
                })
                .collect();
            median(&v)
        };
        [
            by(&self.window_ops, &self.window_scale, false),
            by(&self.window_p50, &self.window_scale, true),
            by(&self.window_p90, &self.window_scale, true),
            by(&self.setups, &self.setup_scale, true),
        ]
    }

    /// Per class: median latency (ms) and share of requests, for the
    /// class-boundary rule.
    pub fn class_medians(&self, workload: Workload) -> Vec<(f64, f64)> {
        let total = self.samples.len() as f64;
        (0..workload.classes().len())
            .map(|class| {
                let ms: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.class == class)
                    .map(|s| s.ms)
                    .collect();
                let med = if ms.is_empty() { 0.0 } else { median(&ms) };
                (med, ms.len() as f64 / total)
            })
            .collect()
    }

    /// GET requests among the samples.
    pub fn gets(&self, workload: Workload) -> usize {
        self.samples
            .iter()
            .filter(|s| workload.classes()[s.class].kind == Kind::GetTrace)
            .count()
    }
}
