//! The traced decomposition: per-layer times from the benchmark's own
//! stopwatches around each layer's public entry point.
//!
//! For each POST of a sample of the workload's sequence it measures, one
//! after another on one thread: the socket round trip on a served copy of
//! the workload's server, `submit_job` on an in-process pool with the same
//! configuration, `JobSpec::run_with_bounds`, and then every layer call a
//! served job can make (decode, graph, bounds, certify, simulate, lint,
//! render) on the job's own spec, whether or not the job's action makes
//! it. The WAL is timed on the sample's log records and, for
//! `durable-trace`, on the log it recovers from.

use crate::check;
use crate::drive::{self, Counters};
use crate::mix::{Request, Sequence, Workload};
use crate::report::{mean, median, ratio};
use hetchol::analyze::{Linter, QueueDiscipline};
use hetchol::bounds::BoundSet;
use hetchol::core::fault::IoFaultPlan;
use hetchol::core::obs::ObsSink;
use hetchol::core::schedule::DurationCheck;
use hetchol::core::{Platform, TaskGraph, TimingProfile};
use hetchol::job::{dispatch_simulate, JobAction, JobSpec};
use hetchol::sched::registry;
use hetchol::sim::{SimOptions, SimResult};
use hetchol_serve::client::Conn;
use hetchol_serve::pool::{bounds_key, needs_bounds, Pool, ServerState, StateOptions};
use hetchol_serve::wal::{JobLog, WalRecord};
use hetchol_serve::{submit_job, Server, SubmitOutcome};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One job's layer times (ms unless named otherwise).
#[derive(Default)]
struct Stages {
    decode_us: f64,
    graph: f64,
    bounds: f64,
    certify: f64,
    simulate: f64,
    tasks: f64,
    lint: f64,
    render: f64,
    trace_bytes: f64,
}

fn sim_options(spec: &JobSpec) -> SimOptions {
    if spec.jitter {
        SimOptions::actual(spec.seed)
    } else {
        SimOptions {
            seed: spec.seed,
            ..SimOptions::default()
        }
    }
}

/// Simulate as the job would, timing `dispatch_simulate` alone (the
/// scheduler is built before the clock starts, as `run_with_bounds` does).
fn simulate(
    spec: &JobSpec,
    graph: &TaskGraph,
    platform: &Platform,
    profile: &TimingProfile,
    obs: bool,
) -> Result<(SimResult, f64), String> {
    let mut scheduler = registry::build(&spec.scheduler, spec.seed).map_err(|e| e.to_string())?;
    let sink = if obs {
        ObsSink::enabled()
    } else {
        ObsSink::disabled()
    };
    let t = Instant::now();
    let result = dispatch_simulate(
        graph,
        platform,
        profile,
        scheduler.as_mut(),
        &sim_options(spec),
        sink,
        &spec.faults,
        &spec.retry,
    )
    .map_err(|e| e.to_string())?;
    Ok((result, ms_since(t)))
}

/// Time every layer call on `body`'s spec; returns the trace the server
/// would render and persist (obs jobs only).
fn probe(body: &str) -> Result<(Stages, Option<String>), String> {
    let mut st = Stages::default();
    let t = Instant::now();
    let spec = JobSpec::from_json(body).map_err(|e| e.to_string())?;
    st.decode_us = t.elapsed().as_secs_f64() * 1e6;
    let platform = spec.platform.build();
    let profile = spec.profile.build();

    let t = Instant::now();
    let graph = spec.workload.graph(spec.n);
    st.graph = ms_since(t);
    st.tasks = graph.len() as f64;

    // Served order: graph, then simulate, then the analyses.
    let (result, simulate_ms) = simulate(&spec, &graph, &platform, &profile, spec.obs)?;
    st.simulate = simulate_ms;

    let t = Instant::now();
    let set = BoundSet::compute_batch(&[(spec.workload, spec.n)], &platform, &profile)
        .pop()
        .expect("one request, one set");
    st.bounds = ms_since(t);

    let t = Instant::now();
    let certified = set
        .certify(&platform, &profile)
        .map(|cert| cert.verify(&platform, &profile).is_ok());
    st.certify = ms_since(t);
    if certified != Ok(true) {
        return Err(format!("certify n={} did not verify", spec.n));
    }

    // The linter as the `lint` action configures it.
    let scheduler = registry::build(&spec.scheduler, spec.seed).map_err(|e| e.to_string())?;
    let mut linter = Linter::new(&graph, &platform, &profile).with_queue_discipline(
        if scheduler.sorted_queues() {
            QueueDiscipline::Sorted
        } else {
            QueueDiscipline::Fifo
        },
    );
    if spec.jitter || !spec.faults.is_empty() {
        linter = linter.duration_check(DurationCheck::Loose);
    }
    linter = linter.with_bounds(set);
    if spec.obs {
        linter = linter.with_obs(&result.obs);
    }
    let t = Instant::now();
    let report = linter.lint_trace(&result.trace);
    st.lint = ms_since(t);
    if report.n_errors() != 0 {
        return Err(format!(
            "lint n={} found {} error(s)",
            spec.n,
            report.n_errors()
        ));
    }

    // Render needs a recorded run; jobs without obs get one recorded here.
    let observed = if spec.obs {
        result
    } else {
        simulate(&spec, &graph, &platform, &profile, true)?.0
    };
    let t = Instant::now();
    let trace = observed.obs.to_chrome_trace();
    st.render = ms_since(t);
    st.trace_bytes = trace.len() as f64;
    Ok((st, spec.obs.then_some(trace)))
}

/// The served stages of a job's action (what `run_with_bounds` spends
/// inside layer calls; bounds come precomputed from the warm cache).
fn served_stages(action: JobAction, st: &Stages) -> f64 {
    st.graph
        + match action {
            JobAction::Simulate => st.simulate,
            JobAction::Bounds => 0.0,
            JobAction::Certify => st.certify,
            JobAction::Lint => st.simulate + st.lint,
        }
}

/// WAL times: append (with fsync) of `records` to a fresh log, then
/// replay (`JobLog::open`, which scans) and per-record reads of
/// `replay_from` (the appended log when `None`).
fn wal_times(
    records: &[WalRecord],
    run_dir: &Path,
    replay_from: Option<&Path>,
) -> Result<(f64, f64, f64), String> {
    let path = run_dir.join("probe.log");
    let (log, _, _) = JobLog::open(&path, &IoFaultPlan::none()).map_err(|e| e.to_string())?;
    let mut appends = Vec::new();
    for record in records {
        let t = Instant::now();
        log.append(record).map_err(|e| e.detail)?;
        appends.push(ms_since(t));
    }
    drop(log);
    let source = replay_from.unwrap_or(&path);
    let t = Instant::now();
    let (log, scanned, _) =
        JobLog::open(source, &IoFaultPlan::none()).map_err(|e| e.to_string())?;
    let replay = ms_since(t) / scanned.len().max(1) as f64;
    let mut reads = Vec::new();
    for rec in &scanned {
        let t = Instant::now();
        let back = log.read(rec.offset).map_err(|e| e.detail)?;
        reads.push(ms_since(t));
        if back != rec.record {
            return Err(format!(
                "log record {} read back differently",
                rec.record.id
            ));
        }
    }
    Ok((mean(&appends), replay, mean(&reads)))
}

/// What the decomposition found.
pub struct Layers {
    /// Per-layer metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Answers checked.
    pub attempted: u64,
    /// Answers that failed their check.
    pub failed: u64,
}

/// Decompose `count` requests of `seq` from `start`; `served` supplies
/// the `/stats` ratios of the timed windows.
pub fn decompose(
    seq: &Sequence,
    start: u64,
    count: u64,
    shards: usize,
    run_dir: &Path,
    served: &drive::Served,
) -> Result<Layers, String> {
    let workload = seq.workload();
    let log_for = |name: &str| workload.durable().then(|| run_dir.join(name));
    let config = drive::config(workload, shards, log_for("decompose-http.log"));
    let server = Server::start(config.clone()).map_err(|e| e.to_string())?;
    let mut conn = Conn::new(server.addr());
    let log = match log_for("decompose-pool.log") {
        Some(path) => Some(Arc::new(
            JobLog::open(&path, &IoFaultPlan::none())
                .map_err(|e| e.to_string())?
                .0,
        )),
        None => None,
    };
    let state = Arc::new(ServerState::with_options(StateOptions {
        log,
        max_resident_jobs: config.max_resident_jobs,
        max_resident_bytes: config.max_resident_bytes,
        results_max_entries: config.results_max_entries,
        results_max_bytes: config.results_max_bytes,
    }));
    let pool = Pool::start(
        config.shards,
        config.queue_depth,
        config.max_batch,
        state.clone(),
    );
    let submit = |spec: JobSpec| submit_job(&state, &pool, spec, config.default_budget_ms);

    // The same warm-up as the served run, on both servers.
    for spec in workload.warmup_specs() {
        let (status, _) = conn
            .request("POST", "/jobs", &spec.to_json())
            .map_err(|e| e.to_string())?;
        let done = matches!(submit(spec), SubmitOutcome::Done(_));
        if status != 200 || !done {
            return Err("decomposition warm-up failed".into());
        }
    }

    // Per job: round trip (miss), submit_job and run_with_bounds (in
    // alternating order, so neither always runs on the warmer cache),
    // then the same spec again on both servers, which answers from the
    // result cache: that round trip minus that submit_job is the HTTP
    // layer without the job's own work.
    let (mut rt, mut queue, mut http, mut unattributed) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    let mut stages = Vec::new();
    let mut records = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for index in start..start + count {
        let Request::Post { spec, .. } = seq.request(index) else {
            continue;
        };
        attempted += 1;
        let body = spec.to_json();
        let decode = || JobSpec::from_json(&body).map_err(|e| e.to_string());

        let t = Instant::now();
        let answer = conn.request("POST", "/jobs", &body);
        let round_trip = ms_since(t);

        let precomputed = if needs_bounds(spec.action) {
            state
                .bounds
                .peek(bounds_key(&spec))
                .map(|set| (*set).clone())
        } else {
            None
        };
        let timed_run = |precomputed| {
            let t = Instant::now();
            spec.run_with_bounds(precomputed)
                .map(|job| (job, ms_since(t)))
        };
        let timed_submit = |spec| {
            let t = Instant::now();
            let outcome = submit(spec);
            (outcome, ms_since(t))
        };
        let ((job, run_ms), (outcome, submit_ms)) = if index % 2 == 0 {
            let ran = timed_run(precomputed).map_err(|e| e.to_string())?;
            (ran, timed_submit(decode()?))
        } else {
            let submitted = timed_submit(decode()?);
            (
                timed_run(precomputed).map_err(|e| e.to_string())?,
                submitted,
            )
        };

        let t = Instant::now();
        let again = conn.request("POST", "/jobs", &body);
        let hit_round_trip = ms_since(t);
        let (hit, hit_submit_ms) = timed_submit(decode()?);

        let want = job.outcome.to_json();
        let answered = |a: &std::io::Result<(u16, String)>| matches!(a, Ok((200, text)) if check::answer_matches(text, &want));
        let stored = |o: &SubmitOutcome| match o {
            SubmitOutcome::Done(job_) | SubmitOutcome::Hit(job_) => job_.outcome == job.outcome,
            _ => false,
        };
        if !(answered(&answer) && answered(&again) && stored(&outcome) && stored(&hit)) {
            failed += 1;
        }

        let (st, trace) = probe(&body)?;
        let http_ms = hit_round_trip - hit_submit_ms;
        let queue_ms = submit_ms - run_ms;
        unattributed += round_trip - http_ms - queue_ms - served_stages(spec.action, &st);
        rt.push(round_trip);
        queue.push(queue_ms);
        http.push(http_ms);
        stages.push(st);
        records.push(WalRecord {
            id: index,
            spec,
            outcome: job.outcome,
            trace,
        });
    }
    drop(conn);
    server.shutdown();
    pool.shutdown();

    let (append, replay, read) = wal_times(&records, run_dir, served.recovered_log.as_deref())?;
    let col = |f: fn(&Stages) -> f64| stages.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: fn(&Stages) -> f64| stages.iter().map(f).sum::<f64>();
    let total_rt: f64 = rt.iter().sum();
    let c: Counters = served.counters;
    let metrics = vec![
        ("job.decode_us", mean(&col(|s| s.decode_us))),
        ("dag.graph_ms", mean(&col(|s| s.graph))),
        ("dag.graph_share", ratio(sum(|s| s.graph), total_rt)),
        ("sim.simulate_ms", mean(&col(|s| s.simulate))),
        (
            "sim.tasks_per_s",
            ratio(sum(|s| s.tasks), sum(|s| s.simulate) / 1e3),
        ),
        ("bounds.compute_ms", mean(&col(|s| s.bounds))),
        (
            "bounds.cache_hit_ratio",
            ratio(c.bounds_hits, c.bounds_gets),
        ),
        ("cert.certify_ms", mean(&col(|s| s.certify))),
        ("lint.lint_ms", mean(&col(|s| s.lint))),
        (
            "lint.us_per_task",
            ratio(sum(|s| s.lint) * 1e3, sum(|s| s.tasks)),
        ),
        ("obs.render_ms", mean(&col(|s| s.render))),
        ("obs.trace_kb", mean(&col(|s| s.trace_bytes)) / 1024.0),
        ("wal.append_ms", append),
        ("wal.replay_ms_per_record", replay),
        ("wal.read_ms", read),
        (
            "store.reload_ratio",
            ratio(c.reloads, served.gets(workload) as f64),
        ),
        (
            "cache.results_hit_ratio",
            ratio(c.results_hits, c.results_gets),
        ),
        ("pool.batched_share", ratio(c.batched, c.completed)),
        ("pool.queue_ms", median(&queue)),
        ("http.overhead_ms", median(&http)),
        ("serve.unattributed_share", ratio(unattributed, total_rt)),
    ];
    Ok(Layers {
        metrics,
        attempted,
        failed,
    })
}

/// Requests the decomposition samples: whole blocks, a few seconds' work.
pub fn sample_len(workload: Workload) -> u64 {
    let blocks = match workload {
        Workload::SimSweep => 2,
        Workload::AnalysisMix => 1,
        Workload::DurableTrace => 2,
    };
    blocks * workload.block_len() as u64
}
