//! Served-job benchmark for `hetchol-serve`.
//!
//! ```text
//! perfbench --workload <sim-sweep|analysis-mix|durable-trace> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Boots the server in-process, drives the workload's seeded sequence in
//! closed loop for `--seconds` of timed windows, checks every answer
//! against a direct run, and prints as its last line one JSON object:
//! `{"correct","attempted","failed","metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` repeats the served run with `/stats`
//! diffs and then times each layer (see `layers`), reporting the
//! per-layer metrics. The line before it records the run's conditions.
//! Run from the repository root; scratch files go under
//! `.perfbench_runs/` and are removed on exit.

mod calib;
mod check;
mod drive;
mod layers;
mod mix;
mod report;

use hetchol::core::json::JsonValue;
use mix::{Sequence, Workload};
use report::{numbers, result_line, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <sim-sweep|analysis-mix|durable-trace> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-run scratch directory, removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create(root: &Path, args: &Args) -> Result<RunDir, String> {
        let dir = root.join(".perfbench_runs").join(format!(
            "{}-seed{}-pid{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The result line and the run record for one invocation.
fn run(
    args: &Args,
    root: &Path,
    run_dir: &Path,
) -> Result<(String, Vec<(String, JsonValue)>), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = nproc.min(2);
    let connections = args.workload.connections(nproc);
    let seq = Sequence::new(args.workload, args.seed);
    let served = drive::serve(&seq, args.seconds, shards, connections, run_dir, args.trace)?;
    let attempted = served.samples.len() as u64;
    let [raw_ops, raw_p50, raw_p90, raw_setup] = served.medians(false);
    let commit = report::git_commit(root).unwrap_or_else(|| "unknown".into());
    let count = |n: usize| JsonValue::uint(n as u64);
    let mut record: Vec<(String, JsonValue)> = vec![
        ("nproc".into(), count(nproc)),
        ("connections".into(), count(connections)),
        ("shards".into(), count(shards)),
        ("commit".into(), JsonValue::str(commit)),
        (
            "source_fnv".into(),
            JsonValue::str(report::source_fingerprint(root)),
        ),
        ("windows".into(), count(served.window_ops.len())),
        (
            "window_requests".into(),
            JsonValue::uint(args.workload.window()),
        ),
        ("latency_samples".into(), JsonValue::uint(attempted)),
        ("setup_samples".into(), count(served.setups.len())),
        ("raw_ops_per_s".into(), JsonValue::Num(raw_ops)),
        ("raw_latency_p50_ms".into(), JsonValue::Num(raw_p50)),
        ("raw_latency_p90_ms".into(), JsonValue::Num(raw_p90)),
        ("raw_setup_s".into(), JsonValue::Num(raw_setup)),
        ("window_ops".into(), numbers(&served.window_ops)),
        ("window_p50".into(), numbers(&served.window_p50)),
        ("window_p90".into(), numbers(&served.window_p90)),
        ("window_scale".into(), numbers(&served.window_scale)),
        ("setups".into(), numbers(&served.setups)),
        ("setup_scale".into(), numbers(&served.setup_scale)),
    ];

    if !args.trace {
        let [ops, p50, p90, setup] = served.medians(true);
        let ok = (attempted - served.failed) as f64 / attempted.max(1) as f64;
        let metrics = [
            ("ops_per_s", ops),
            ("latency_p50_ms", p50),
            ("latency_p90_ms", p90),
            ("ok_ratio", ok),
            ("setup_s", setup),
            ("peak_rss_mb", served.peak_rss_kb as f64 / 1024.0),
        ];
        let line = result_line(
            served.failed == 0,
            attempted,
            served.failed,
            END_TO_END,
            &metrics,
        );
        return Ok((line, record));
    }

    let classes = served.class_medians(args.workload);
    let (m50, m90) = mix::check_boundaries(&classes)?;
    let per_class = args
        .workload
        .classes()
        .iter()
        .zip(&classes)
        .map(|(class, &(ms, share))| {
            let value = JsonValue::Obj(vec![
                ("median_ms".into(), JsonValue::Num(ms)),
                ("share".into(), JsonValue::Num(share)),
            ]);
            (class.label.to_string(), value)
        })
        .collect();
    record.extend([
        ("p50_margin_pp".into(), JsonValue::Num(m50)),
        ("p90_margin_pp".into(), JsonValue::Num(m90)),
        ("classes".into(), JsonValue::Obj(per_class)),
    ]);
    let sample = layers::sample_len(args.workload);
    let layers = layers::decompose(&seq, served.next_index, sample, shards, run_dir, &served)?;
    let failed = served.failed + layers.failed;
    let line = result_line(
        failed == 0,
        attempted + layers.attempted,
        failed,
        PER_LAYER,
        &layers.metrics,
    );
    Ok((line, record))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let load_before = report::loadavg();
    let result = RunDir::create(&root, &args).and_then(|dir| run(&args, &root, &dir.0));
    let load_after = report::loadavg();
    match result {
        Ok((line, mut record)) => {
            record.extend([
                ("workload".into(), JsonValue::str(args.workload.name())),
                ("seed".into(), JsonValue::uint(args.seed)),
                ("trace".into(), JsonValue::Bool(args.trace)),
                ("loadavg_before".into(), JsonValue::str(load_before)),
                ("loadavg_after".into(), JsonValue::str(load_after)),
            ]);
            let record = JsonValue::Obj(vec![("run".into(), JsonValue::Obj(record))]).render();
            eprintln!("perfbench {record}");
            println!("{record}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
