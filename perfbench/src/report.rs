//! Metric names, summary statistics, the run record and the result line.

use hetchol::core::json::JsonValue;
use std::path::{Path, PathBuf};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("job.decode_us", "us"),
    ("dag.graph_ms", "ms"),
    ("dag.graph_share", "ratio"),
    ("sim.simulate_ms", "ms"),
    ("sim.tasks_per_s", "1/s"),
    ("bounds.compute_ms", "ms"),
    ("bounds.cache_hit_ratio", "ratio"),
    ("cert.certify_ms", "ms"),
    ("lint.lint_ms", "ms"),
    ("lint.us_per_task", "us"),
    ("obs.render_ms", "ms"),
    ("obs.trace_kb", "KB"),
    ("wal.append_ms", "ms"),
    ("wal.replay_ms_per_record", "ms"),
    ("wal.read_ms", "ms"),
    ("store.reload_ratio", "ratio"),
    ("cache.results_hit_ratio", "ratio"),
    ("pool.batched_share", "ratio"),
    ("pool.queue_ms", "ms"),
    ("http.overhead_ms", "ms"),
    ("serve.unattributed_share", "ratio"),
];

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (the mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `Threads`, …).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The 1-, 5- and 15-minute load averages, as `/proc/loadavg` prints them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unavailable".into())
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
}

/// FNV-1a over the sources the benchmark builds (paths and contents), so
/// runs of a checkout without `.git` still name the code they measured.
pub fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"] {
        let path = root.join(top);
        if path.is_dir() {
            walk(&path, &mut files);
        } else if path.is_file() {
            files.push(path);
        }
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        feed(
            file.strip_prefix(root)
                .unwrap_or(file)
                .to_string_lossy()
                .as_bytes(),
        );
        feed(&std::fs::read(file).unwrap_or_default());
    }
    format!("{hash:016x}")
}

/// The result line: `correct`, `attempted`, `failed`, and each metric of
/// `table` with its unit. Panics if `values` misses a metric of the table
/// or names one outside it.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    for (name, _) in values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not in the table"
        );
    }
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            let metric = JsonValue::Obj(vec![
                ("value".into(), JsonValue::Num(value)),
                ("unit".into(), JsonValue::str(unit)),
            ]);
            (name.to_string(), metric)
        })
        .collect();
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::uint(attempted)),
        ("failed".into(), JsonValue::uint(failed)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ])
    .render()
}

/// A JSON array of numbers.
pub fn numbers(values: &[f64]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&v| JsonValue::Num(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetchol::core::json::parse_json;

    fn benchmark_json() -> hetchol::core::json::JsonValue {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        parse_json(text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let spec = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .field(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.field("name").unwrap().as_str().unwrap().to_string(),
                        m.field("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<String> = spec
            .field("workloads")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let ours: Vec<&str> = crate::mix::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_parses_and_keeps_every_digit() {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (*n, 1.0 / (i as f64 + 3.0)))
            .collect();
        let line = result_line(true, 10, 0, END_TO_END, &values);
        let v = parse_json(&line).unwrap();
        assert_eq!(v.field("attempted").unwrap().as_u64().unwrap(), 10);
        let p50 = v.field("metrics").unwrap().field("latency_p50_ms").unwrap();
        assert_eq!(p50.field("value").unwrap().as_f64().unwrap(), 1.0 / 4.0);
        assert_eq!(p50.field("unit").unwrap().as_str().unwrap(), "ms");
        let ops = v.field("metrics").unwrap().field("ops_per_s").unwrap();
        assert_eq!(ops.field("value").unwrap().as_f64().unwrap(), 1.0 / 3.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.9), 90.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
