//! The three workloads: seeded job sequences with fixed class shares.
//!
//! A *class* is one kind of request with one cost level: an action at one
//! size, or a trace read. Each workload's sequence is a concatenation of
//! blocks; every block holds each class exactly `weight` times, in an
//! order shuffled by the benchmark seed. Shares are therefore identical
//! on every seed and in every whole-block window, and only the order and
//! the per-job seeds change with `--seed`.
//!
//! The shares are chosen so that, with classes ordered by cost, no class
//! boundary lies within [`MIN_MARGIN_PP`] percentile points of p50 or
//! p90: a percentile that sits on a boundary between two cost levels
//! jumps between them from run to run.

use hetchol::job::{JobAction, JobSpec};

/// Closest a class boundary may come to p50 or p90, in percentile points.
pub const MIN_MARGIN_PP: f64 = 5.0;

/// Traced n=8 jobs written to the log before the timed phase of
/// `durable-trace`; the timed GETs cycle over all of them.
pub const RECOVERED_JOBS: usize = 24;

/// `durable-trace` residency cap: jobs resident in the store, and entries
/// in the result cache. Below [`RECOVERED_JOBS`], so every GET reloads.
pub const RESIDENT_CAP: usize = 8;

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's sweep as `simulate` jobs, in RAM, two connections.
    SimSweep,
    /// `bounds`, `certify` and `lint` jobs, in RAM, one connection.
    AnalysisMix,
    /// Traced jobs on a file log, plus GETs that reload from it.
    DurableTrace,
}

/// What one class of request does.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `POST /jobs` of a Cholesky spec.
    Post {
        /// The job's action.
        action: JobAction,
        /// Matrix size in tiles.
        n: usize,
        /// Record observability (the server renders a Chrome trace).
        obs: bool,
        /// The paper's actual-execution mode.
        jitter: bool,
    },
    /// `GET /jobs/<id>/trace` of a job recovered from the log.
    GetTrace,
}

/// One class of request and its count per block.
#[derive(Copy, Clone, Debug)]
pub struct Class {
    /// Short label, used in the run record.
    pub label: &'static str,
    /// The request.
    pub kind: Kind,
    /// Occurrences per block.
    pub weight: usize,
}

const fn sim(label: &'static str, n: usize, weight: usize) -> Class {
    Class {
        label,
        kind: Kind::Post {
            action: JobAction::Simulate,
            n,
            obs: false,
            jitter: true,
        },
        weight,
    }
}

const fn analysis(label: &'static str, action: JobAction, n: usize, weight: usize) -> Class {
    Class {
        label,
        kind: Kind::Post {
            action,
            n,
            obs: false,
            jitter: false,
        },
        weight,
    }
}

const fn traced(label: &'static str, n: usize, weight: usize) -> Class {
    Class {
        label,
        kind: Kind::Post {
            action: JobAction::Simulate,
            n,
            obs: true,
            jitter: true,
        },
        weight,
    }
}

// Ordered by cost, boundaries at 10 20 30 40 | 60 75: p50 sits inside n=24,
// p90 inside n=32.
const SIM_SWEEP: &[Class] = &[
    sim("sim-8", 8, 4),
    sim("sim-12", 12, 4),
    sim("sim-16", 16, 4),
    sim("sim-20", 20, 4),
    sim("sim-24", 24, 8),
    sim("sim-28", 28, 6),
    sim("sim-32", 32, 10),
];

// Nine cheap classes share the first 36%; lint n=24 holds p50 (36-60),
// certify n=16 covers 60-75 and lint n=32 holds p90 (75-100). Certify is
// not monotone in n (n=16 costs about 3x n=32), hence the odd order.
const ANALYSIS_MIX: &[Class] = &[
    analysis("bounds-8", JobAction::Bounds, 8, 4),
    analysis("bounds-16", JobAction::Bounds, 16, 4),
    analysis("bounds-24", JobAction::Bounds, 24, 4),
    analysis("bounds-32", JobAction::Bounds, 32, 4),
    analysis("lint-8", JobAction::Lint, 8, 4),
    analysis("lint-16", JobAction::Lint, 16, 4),
    analysis("certify-8", JobAction::Certify, 8, 4),
    analysis("certify-24", JobAction::Certify, 24, 4),
    analysis("certify-32", JobAction::Certify, 32, 4),
    analysis("lint-24", JobAction::Lint, 24, 24),
    analysis("certify-16", JobAction::Certify, 16, 15),
    analysis("lint-32", JobAction::Lint, 32, 25),
];

// POST n=8 0-30, POST n=12 30-75 (p50), GET 75-100 (p90).
const DURABLE_TRACE: &[Class] = &[
    traced("post-8", 8, 6),
    traced("post-12", 12, 9),
    Class {
        label: "get-trace",
        kind: Kind::GetTrace,
        weight: 5,
    },
];

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SimSweep,
        Workload::AnalysisMix,
        Workload::DurableTrace,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSweep => "sim-sweep",
            Workload::AnalysisMix => "analysis-mix",
            Workload::DurableTrace => "durable-trace",
        }
    }

    /// Look a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The classes, cheapest first (the order the shares were designed in).
    pub fn classes(self) -> &'static [Class] {
        match self {
            Workload::SimSweep => SIM_SWEEP,
            Workload::AnalysisMix => ANALYSIS_MIX,
            Workload::DurableTrace => DURABLE_TRACE,
        }
    }

    /// Scheduler of the `k`-th job of a class within a block: the sweep
    /// alternates the paper's two policies, the other workloads use dmdas.
    fn scheduler(self, k: usize) -> &'static str {
        match self {
            Workload::SimSweep if k.is_multiple_of(2) => "dmda",
            _ => "dmdas",
        }
    }

    /// Closed-loop client connections (never more than the box's cores).
    pub fn connections(self, nproc: usize) -> usize {
        let wanted = match self {
            Workload::SimSweep => 2,
            // durable-trace: a second connection would queue POST commits
            // behind the store lock a GET holds while it reparses a record.
            Workload::AnalysisMix | Workload::DurableTrace => 1,
        };
        wanted.min(nproc).max(1)
    }

    /// Whether the server runs on a file log.
    pub fn durable(self) -> bool {
        self == Workload::DurableTrace
    }

    /// Requests per measurement window: whole blocks, and enough that p90
    /// has at least ten samples beyond it in every window.
    pub fn window(self) -> u64 {
        let blocks = match self {
            Workload::SimSweep => 5,
            Workload::AnalysisMix => 1,
            Workload::DurableTrace => 5,
        };
        blocks * self.block_len() as u64
    }

    /// Requests per block.
    pub fn block_len(self) -> usize {
        self.classes().iter().map(|c| c.weight).sum()
    }

    /// One warm-up spec per POST class (and scheduler), with seeds that no
    /// timed job uses.
    pub fn warmup_specs(self) -> Vec<JobSpec> {
        let mut specs = Vec::new();
        for (i, class) in self.classes().iter().enumerate() {
            if let Kind::Post { .. } = class.kind {
                let kinds = if self == Workload::SimSweep { 2 } else { 1 };
                for k in 0..kinds {
                    specs.push(self.spec(class.kind, k, WARMUP_SEED - (2 * i + k) as u64));
                }
            }
        }
        specs
    }

    fn spec(self, kind: Kind, k: usize, job_seed: u64) -> JobSpec {
        let Kind::Post {
            action,
            n,
            obs,
            jitter,
        } = kind
        else {
            unreachable!("GET classes carry no spec")
        };
        let mut spec = JobSpec::new("cholesky", n)
            .expect("cholesky is a known workload")
            .scheduler(self.scheduler(k))
            .action(action);
        spec.seed = job_seed;
        spec.obs = obs;
        spec.jitter = jitter;
        spec
    }
}

/// Job seeds are JSON numbers, so they stay below 2^53. Seeds from
/// `WARMUP_SEED / 2` up are reserved for warm-up and for the jobs
/// `durable-trace` writes before its timed phase.
const WARMUP_SEED: u64 = (1 << 53) - 1;

/// The `i`-th job written to the log before `durable-trace` runs.
pub fn recovered_spec(i: usize) -> JobSpec {
    Workload::DurableTrace.spec(DURABLE_TRACE[0].kind, 0, WARMUP_SEED - 1_000 - i as u64)
}

/// The `splitmix64` step: a small, well-mixed deterministic generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates shuffle driven by [`splitmix64`].
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One request of a sequence.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a spec.
    Post {
        /// Index into the workload's classes.
        class: usize,
        /// The spec the body encodes.
        spec: JobSpec,
    },
    /// Fetch the trace of the `target`-th recovered job.
    Get {
        /// Index into the workload's classes.
        class: usize,
        /// Index into the recovered jobs (0-based, log order).
        target: usize,
    },
}

impl Request {
    /// The class index.
    pub fn class(&self) -> usize {
        match self {
            Request::Post { class, .. } | Request::Get { class, .. } => *class,
        }
    }
}

/// A workload's deterministic request sequence for one benchmark seed.
/// Random access, so several connections can draw indices from one
/// shared counter.
pub struct Sequence {
    workload: Workload,
    seed: u64,
    /// Class slots of one block, in class order.
    slots: Vec<usize>,
    gets_per_block: usize,
    /// The order the GETs cycle through the recovered jobs.
    get_order: Vec<usize>,
}

impl Sequence {
    /// The sequence of `workload` under benchmark seed `seed`.
    pub fn new(workload: Workload, seed: u64) -> Sequence {
        let slots: Vec<usize> = workload
            .classes()
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.weight))
            .collect();
        let gets_per_block = workload
            .classes()
            .iter()
            .filter(|c| c.kind == Kind::GetTrace)
            .map(|c| c.weight)
            .sum();
        let mut get_order: Vec<usize> = (0..RECOVERED_JOBS).collect();
        let mut state = seed ^ 0x6765_745F_6F72_6465;
        shuffle(&mut get_order, &mut state);
        Sequence {
            workload,
            seed,
            slots,
            gets_per_block,
            get_order,
        }
    }

    /// The workload this sequence belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The recovered-job indices in GET order; warm-up reads the last
    /// [`RESIDENT_CAP`] so the timed GETs start on evicted jobs.
    pub fn get_order(&self) -> &[usize] {
        &self.get_order
    }

    /// The `index`-th request.
    pub fn request(&self, index: u64) -> Request {
        let len = self.slots.len() as u64;
        let (block, pos) = (index / len, (index % len) as usize);
        let mut order = self.slots.clone();
        let mut state = self.seed ^ block.wrapping_mul(0xD1B5_4A32_D192_ED03);
        shuffle(&mut order, &mut state);
        let class = order[pos];
        // The k-th occurrence of this class in the block picks the
        // scheduler, so both schedulers get exactly half of each class.
        let k = order[..pos].iter().filter(|&&c| c == class).count();
        let kind = self.workload.classes()[class].kind;
        if kind == Kind::GetTrace {
            let earlier = order[..pos]
                .iter()
                .filter(|&&c| self.workload.classes()[c].kind == Kind::GetTrace)
                .count();
            let ordinal = block as usize * self.gets_per_block + earlier;
            return Request::Get {
                class,
                target: self.get_order[ordinal % self.get_order.len()],
            };
        }
        let mut mix = self.seed;
        let job_seed = splitmix64(&mut mix) % (WARMUP_SEED / 4) + index;
        Request::Post {
            class,
            spec: self.workload.spec(kind, k, job_seed),
        }
    }
}

/// How close the class boundaries come to p50 and p90, in percentile
/// points. `classes` holds each class's median latency and its share of
/// requests (shares sum to 1); classes are ordered by median, and the
/// interior boundaries are the cumulative shares.
pub fn boundary_margins(classes: &[(f64, f64)]) -> (f64, f64) {
    let mut ordered = classes.to_vec();
    ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut cumulative = 0.0;
    let (mut p50, mut p90) = (f64::INFINITY, f64::INFINITY);
    for &(_, share) in &ordered[..ordered.len().saturating_sub(1)] {
        cumulative += share * 100.0;
        p50 = p50.min((cumulative - 50.0).abs());
        p90 = p90.min((cumulative - 90.0).abs());
    }
    (p50, p90)
}

/// [`boundary_margins`] as a check: an error names the percentile that
/// sits too close to a class boundary.
pub fn check_boundaries(classes: &[(f64, f64)]) -> Result<(f64, f64), String> {
    let (p50, p90) = boundary_margins(classes);
    for (name, margin) in [("p50", p50), ("p90", p90)] {
        if margin < MIN_MARGIN_PP {
            return Err(format!(
                "{name} lies {margin:.1} percentile points from a class boundary \
                 (at least {MIN_MARGIN_PP} required); re-choose the class shares"
            ));
        }
    }
    Ok((p50, p90))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seq: &Sequence, count: u64) -> Vec<Request> {
        (0..count).map(|i| seq.request(i)).collect()
    }

    #[test]
    fn same_seed_same_sequence_and_another_seed_differs() {
        for workload in Workload::ALL {
            let len = 3 * workload.block_len() as u64;
            let a = take(&Sequence::new(workload, 7), len);
            assert_eq!(a, take(&Sequence::new(workload, 7), len), "{workload:?}");
            assert_ne!(a, take(&Sequence::new(workload, 8), len), "{workload:?}");
        }
    }

    #[test]
    fn every_block_holds_each_class_its_weight_and_specs_are_distinct() {
        for workload in Workload::ALL {
            let seq = Sequence::new(workload, 11);
            let block = workload.block_len() as u64;
            let mut hashes = std::collections::HashSet::new();
            for b in 0..4 {
                let mut counts = vec![0; workload.classes().len()];
                for i in b * block..(b + 1) * block {
                    let req = seq.request(i);
                    counts[req.class()] += 1;
                    if let Request::Post { spec, .. } = req {
                        assert!(hashes.insert(spec.content_hash()), "repeated spec");
                    }
                }
                let weights: Vec<usize> = workload.classes().iter().map(|c| c.weight).collect();
                assert_eq!(counts, weights, "{workload:?} block {b}");
            }
            assert_eq!(workload.window() % block, 0);
            assert!(workload.window() >= 100, "p90 needs ten samples beyond it");
        }
    }

    #[test]
    fn sweep_splits_every_class_evenly_between_dmda_and_dmdas() {
        let seq = Sequence::new(Workload::SimSweep, 3);
        let dmda = (0..Workload::SimSweep.block_len() as u64)
            .filter(|&i| matches!(seq.request(i), Request::Post { spec, .. } if spec.scheduler == "dmda"))
            .count();
        assert_eq!(2 * dmda, Workload::SimSweep.block_len());
    }

    #[test]
    fn gets_cycle_over_every_recovered_job_before_repeating() {
        let seq = Sequence::new(Workload::DurableTrace, 5);
        let targets: Vec<usize> = (0..200)
            .filter_map(|i| match seq.request(i) {
                Request::Get { target, .. } => Some(target),
                Request::Post { .. } => None,
            })
            .collect();
        for window in targets.windows(RECOVERED_JOBS) {
            let distinct: std::collections::HashSet<_> = window.iter().collect();
            assert_eq!(distinct.len(), RECOVERED_JOBS);
        }
    }

    #[test]
    fn designed_shares_keep_p50_and_p90_inside_one_class() {
        for workload in Workload::ALL {
            let total = workload.block_len() as f64;
            // Design order: the classes are listed cheapest first.
            let classes: Vec<(f64, f64)> = workload
                .classes()
                .iter()
                .enumerate()
                .map(|(i, c)| (i as f64, c.weight as f64 / total))
                .collect();
            check_boundaries(&classes).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
        }
    }

    #[test]
    fn boundary_rule_rejects_a_fifty_fifty_mix() {
        let err = check_boundaries(&[(1.0, 0.5), (9.0, 0.5)]).unwrap_err();
        assert!(err.contains("p50"), "{err}");
        // Shifting the split clears p50 but 88/12 still crowds p90.
        assert!(check_boundaries(&[(1.0, 0.88), (9.0, 0.12)]).is_err());
        assert!(check_boundaries(&[(1.0, 0.3), (9.0, 0.7)]).is_ok());
        // Order follows the medians, not the input order.
        assert_eq!(
            boundary_margins(&[(9.0, 0.7), (1.0, 0.3)]),
            boundary_margins(&[(1.0, 0.3), (9.0, 0.7)])
        );
    }
}
