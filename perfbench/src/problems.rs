//! Workload definitions and seeded request generation.
//!
//! Problems are TGFF graphs from the `noceas generate` recipe
//! (`TgffConfig::category_i`, `width = tasks / 20`). Every request body
//! and its exact wire bytes are generated from the workload seed before
//! any timed window opens; the server only ever sees these bytes.

use noc_ctg::prelude::{TgffConfig, TgffGenerator};
use noc_eas::{EasScheduler, Scheduler};
use noc_svc::spec::parse_platform;

/// One size class: a task-count range on one mesh. Layers are
/// reported per class, so a superlinear layer shows as a slope across
/// classes.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    pub min_tasks: usize,
    pub max_tasks: usize,
    pub side: usize,
}

impl Class {
    const fn new(min_tasks: usize, max_tasks: usize, side: usize) -> Self {
        Class {
            min_tasks,
            max_tasks,
            side,
        }
    }

    pub fn label(&self) -> String {
        if self.min_tasks == self.max_tasks {
            format!("{}t@{}x{}", self.min_tasks, self.side, self.side)
        } else {
            format!(
                "{}-{}t@{}x{}",
                self.min_tasks, self.max_tasks, self.side, self.side
            )
        }
    }

    pub fn platform(&self) -> String {
        format!("mesh:{}x{}", self.side, self.side)
    }
}

/// A traffic mix. See `BENCHMARK.json` for why each one exists.
///
/// Requests come in rounds of one problem per class, in a seeded
/// shuffled order, so every run carries the same size mix. Within a
/// class the task count is drawn log-uniformly; adjacent classes meet
/// at the same task count, so order statistics over a fresh-problem
/// mix move smoothly instead of jumping between classes.
pub struct Workload {
    pub name: &'static str,
    pub scheduler: &'static str,
    /// Size classes, smallest first.
    pub classes: &'static [Class],
    /// Deadline laxity, drawn uniformly per problem from this range.
    pub laxity: (f64, f64),
    /// `true`: a fixed set of distinct problems, computed once during
    /// set-up and replayed as cache hits. `false`: every request is a
    /// fresh problem.
    pub replay: bool,
    /// Keep only problems whose Step-2 (level) schedule misses a
    /// deadline, so every request runs search-and-repair.
    pub needs_repair: bool,
    /// Rounds whose answers form the scored set: the distinct problems
    /// the quality sums cover. A run always answers the whole scored
    /// set, however long that takes, so the sums never depend on speed.
    pub scored_rounds: usize,
    /// Rounds generated for the timed phase. Fresh-problem workloads
    /// stop early if a run exhausts them.
    pub pool_rounds: usize,
    /// Rounds of problems each set-up of a fresh-problem workload sends
    /// before timing, drawn apart from the pool. Replay sends its pool.
    pub warm_up_rounds: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "replay",
        scheduler: "eas-base",
        classes: &[
            Class::new(32, 32, 4),
            Class::new(128, 128, 6),
            Class::new(256, 256, 8),
        ],
        laxity: (1.2, 1.2),
        replay: true,
        needs_repair: false,
        scored_rounds: 6,
        pool_rounds: 6,
        warm_up_rounds: 0,
    },
    Workload {
        name: "cold",
        scheduler: "eas-base",
        classes: &[
            Class::new(64, 64, 4),
            Class::new(128, 128, 6),
            Class::new(256, 256, 8),
        ],
        laxity: (1.2, 1.2),
        replay: false,
        needs_repair: false,
        scored_rounds: 20,
        pool_rounds: 200,
        warm_up_rounds: 3,
    },
    Workload {
        name: "tight",
        scheduler: "eas",
        classes: &[Class::new(32, 44, 4), Class::new(44, 60, 4)],
        laxity: (0.6, 0.7),
        replay: false,
        needs_repair: true,
        scored_rounds: 20,
        pool_rounds: 700,
        warm_up_rounds: 10,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One generated request.
pub struct Problem {
    pub class: usize,
    pub tasks: usize,
    /// The complete HTTP/1.1 request the load generator writes.
    pub wire: Vec<u8>,
    body_start: usize,
}

impl Problem {
    /// The JSON body of `POST /v1/schedule`.
    pub fn body(&self) -> &str {
        std::str::from_utf8(&self.wire[self.body_start..]).expect("bodies are generated as UTF-8")
    }
}

/// SplitMix64: derives independent per-problem seeds from the run seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        #[allow(clippy::cast_possible_truncation)]
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Uniform draw in `[0, 1)` from a seed.
fn unit(seed: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let u = (mix(seed) >> 11) as f64 / (1u64 << 53) as f64;
    u
}

fn generate(workload: &Workload, class: usize, seed: u64) -> Problem {
    let spec = workload.classes[class];
    let platform = parse_platform(&spec.platform()).expect("benchmark platforms parse");
    // Draw until the problem has the shape the workload needs; the
    // attempt sequence is part of the seed, so this stays deterministic.
    for attempt in 0..256u64 {
        let seed = mix(seed ^ attempt.wrapping_mul(0xA24B_AED4_963E_E407));
        let (lo, hi) = (spec.min_tasks as f64, spec.max_tasks as f64);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let tasks = (lo * (hi / lo).powf(unit(seed ^ 0x7A5C))).round() as usize;
        let mut cfg = TgffConfig::category_i(seed);
        cfg.task_count = tasks;
        cfg.width = (tasks / 20).max(2);
        let (lo, hi) = workload.laxity;
        cfg.deadline_laxity = lo + (hi - lo) * unit(seed ^ 0x1A);
        let graph = TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("TGFF generation succeeds on a mesh");
        if workload.needs_repair {
            let base = EasScheduler::base()
                .schedule(&graph, &platform)
                .expect("eas-base schedules generated graphs");
            if base.report.deadline_misses.is_empty() {
                continue;
            }
        }
        let graph_json = serde_json::to_string(&graph).expect("graphs serialize");
        let body = format!(
            r#"{{"graph":{graph_json},"platform":"{}","scheduler":"{}"}}"#,
            spec.platform(),
            workload.scheduler
        );
        let mut wire = format!(
            "POST /v1/schedule HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        let body_start = wire.len();
        wire.extend_from_slice(body.as_bytes());
        return Problem {
            class,
            tasks,
            wire,
            body_start,
        };
    }
    panic!(
        "no {} problem of class {} in 256 draws",
        workload.name,
        spec.label()
    );
}

/// `rounds` rounds of problems in round order: round `r` holds one
/// problem per class, in a seeded shuffled order, so every prefix of
/// whole rounds has the same size mix whatever the seed.
pub fn generate_pool(
    workload: &Workload,
    seed: u64,
    rounds: usize,
    threads: usize,
) -> Vec<Problem> {
    let classes = workload.classes.len();
    let slots: Vec<(usize, u64)> = (0..rounds)
        .flat_map(|round| {
            let order = permutation(classes, mix(seed ^ ((round as u64) << 20)));
            order.into_iter().map(move |class| {
                (
                    class,
                    mix(seed.wrapping_mul(0x1_0000_01B3) ^ ((round * classes + class) as u64)),
                )
            })
        })
        .collect();
    noc_par::par_map(threads, &slots, |_, &(class, problem_seed)| {
        generate(workload, class, problem_seed)
    })
}

/// Request order of the timed phase, as indices into the pool. Replay
/// walks shuffled rounds over its distinct problems; fresh-problem
/// workloads send the pool in order, so no problem repeats.
pub fn request_order(workload: &Workload, pool: usize, seed: u64) -> Vec<usize> {
    if !workload.replay {
        return (0..pool).collect();
    }
    const REPLAY_ROUNDS: usize = 4096;
    (0..REPLAY_ROUNDS)
        .flat_map(|round| permutation(pool, mix(seed ^ 0xBEEF ^ ((round as u64) << 24))))
        .collect()
}
