//! The server's `POST /v1/schedule` path rebuilt from the library's
//! public layer functions, with one span around each call.
//!
//! The order and arguments mirror `noc_svc::engine` for a single-node
//! server run with `--threads 1`: HTTP parse, JSON decode, platform and
//! graph resolve, canonical key and content hash, store lookup and, on
//! a miss, EAS Steps 1–3, validation, render and the store write. The
//! rendered bytes are the reference every server answer is compared
//! with.

use std::sync::Arc;
use std::time::Instant;

use noc_ctg::TaskGraph;
use noc_eas::budget::SlackBudgets;
use noc_eas::level::level_schedule_threads;
use noc_eas::placer::Placer;
use noc_eas::repair::search_and_repair;
use noc_eas::retime::{retime, OrderedAssignment};
use noc_eas::{EasConfig, ScheduleOutcome};
use noc_platform::Platform;
use noc_schedule::{validate, Schedule, ScheduleStats};
use noc_svc::api::{ScheduleRequest, ScheduleResponse};
use noc_svc::cache::JobOutput;
use noc_svc::hash::content_hash;
use noc_svc::spec::parse_platform_faulted;
use noc_svc::store::TieredStore;
use serde::Deserialize;

/// Layers on a request's blocking path, in call order. Their spans sum
/// to the request's traced time.
pub const LAYERS: &[&str] = &[
    "http.parse",
    "json.decode",
    "spec.platform",
    "ctg.from_value",
    "hash.key",
    "store.get",
    "budget",
    "level",
    "repair",
    "validate",
    "render",
    "store.put",
];

/// Measurement probes: extra calls the server does not make, timed
/// beside the request and kept out of its layer sum.
pub const PROBES: &[&str] = &["retime"];

/// One timed call. The request index is the span's parent.
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span buffer of one worker thread.
pub struct Spans {
    epoch: Instant,
    request: usize,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            request: 0,
            spans: Vec::new(),
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed();
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed();
        #[allow(clippy::cast_possible_truncation)]
        self.spans.push(Span {
            name,
            request: self.request,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }
}

/// What scheduling a miss produced, beyond the bytes.
pub struct Quality {
    /// Deadline misses of the Step-2 (level) schedule.
    pub level_misses: usize,
    /// Deadline misses of the served schedule.
    pub final_misses: usize,
    /// Search-and-repair candidate evaluations.
    pub trials: usize,
    /// Misses of `retime(from_schedule(level))` minus `level_misses`;
    /// `None` when the rebase deadlocks.
    pub rebase_extra: Option<i64>,
}

/// One request served in-process.
pub struct Served {
    pub body: Arc<String>,
    pub hit: bool,
    pub quality: Option<Quality>,
    pub graph: TaskGraph,
    pub platform: Platform,
}

/// Serves one request's wire bytes against `store`.
pub fn serve(
    wire: &[u8],
    request: usize,
    store: &TieredStore,
    max_body: usize,
    spans: &mut Spans,
) -> Result<Served, String> {
    spans.request = request;
    let parsed = spans.time("http.parse", || {
        noc_svc::http::parse_request(wire, max_body)
    });
    let (http, _) = parsed
        .map_err(|e| format!("http parse: {e:?}"))?
        .ok_or("http parse: incomplete request")?;
    let body = std::str::from_utf8(&http.body).map_err(|_| "body is not UTF-8")?;
    let decoded = spans.time("json.decode", || {
        serde_json::from_str::<ScheduleRequest>(body)
    });
    let req = decoded.map_err(|e| format!("decode: {e}"))?;
    let platform = spans.time("spec.platform", || {
        parse_platform_faulted(&req.platform, req.faults.as_deref())
    })?;
    let graph = spans
        .time("ctg.from_value", || TaskGraph::from_value(&req.graph))
        .map_err(|e| format!("graph: {e}"))?;
    let key = spans.time("hash.key", || {
        let key = req.canonical_key();
        let id = content_hash(&key);
        std::hint::black_box(id);
        key
    });
    if let Some(output) = spans.time("store.get", || store.get(&key)) {
        return Ok(Served {
            body: output.body,
            hit: true,
            quality: None,
            graph,
            platform,
        });
    }

    // The configuration `spec::parse_scheduler` gives these names; the
    // server's `--threads 1` makes every step single-threaded.
    let config = match req.scheduler_name() {
        "eas" => EasConfig::default(),
        "eas-base" => EasConfig::base(),
        other => return Err(format!("benchmark does not trace scheduler `{other}`")),
    };
    let budgets = spans.time("budget", || budgets(&graph, &platform, &config));
    let level = spans.time("level", || level(&graph, &platform, &budgets, &config, 1))?;
    let level_misses = level.deadline_misses(&graph).len();

    let rebase = spans.time("retime", || {
        retime(
            &graph,
            &platform,
            &OrderedAssignment::from_schedule(&level, &platform),
        )
    });
    #[allow(clippy::cast_possible_wrap)]
    let rebase_extra = rebase.map(|s| s.deadline_misses(&graph).len() as i64 - level_misses as i64);
    let (schedule, trials) = if config.search_and_repair {
        let (repaired, stats) =
            spans.time("repair", || search_and_repair(&graph, &platform, level));
        (repaired, stats.trials)
    } else {
        (level, 0)
    };
    let checked = spans.time("validate", || {
        validate(&schedule, &graph, &platform)
            .map(|report| (report, ScheduleStats::compute(&schedule, &graph, &platform)))
    });
    let (report, stats) = checked.map_err(|e| format!("validate: {e}"))?;
    let final_misses = report.deadline_misses.len();
    let outcome = ScheduleOutcome {
        schedule,
        report,
        stats,
        repair: Default::default(),
    };
    let body = spans.time("render", || {
        Arc::new(ScheduleResponse::from_outcome(req.scheduler_name(), &outcome).to_json())
    });
    spans.time("store.put", || {
        store.insert(&key, &JobOutput::new(Arc::clone(&body)))
    });
    Ok(Served {
        body,
        hit: false,
        quality: Some(Quality {
            level_misses,
            final_misses,
            trials,
            rebase_extra,
        }),
        graph,
        platform,
    })
}

/// EAS Step 1, as `EasScheduler` runs it under `config`.
fn budgets(graph: &TaskGraph, platform: &Platform, config: &EasConfig) -> SlackBudgets {
    if config.budgeting {
        SlackBudgets::compute_with_comm(graph, config.weight_function, platform.link_bandwidth())
    } else {
        SlackBudgets::unbounded(graph)
    }
}

/// EAS Step 2 on `threads` threads, as `EasScheduler` runs it under
/// `config`.
fn level(
    graph: &TaskGraph,
    platform: &Platform,
    budgets: &SlackBudgets,
    config: &EasConfig,
    threads: usize,
) -> Result<Schedule, String> {
    let mut placer = Placer::new(graph, platform).map_err(|e| e.to_string())?;
    level_schedule_threads(&mut placer, budgets, config.comm_model, threads);
    Ok(placer.into_schedule())
}

/// Level scheduling of `body`'s problem at one thread and at `threads`
/// threads: `(serial_s, parallel_s)`. Fails if the schedules differ.
pub fn level_speedup(body: &str, threads: usize) -> Result<(f64, f64), String> {
    let req: ScheduleRequest = serde_json::from_str(body).map_err(|e| format!("decode: {e}"))?;
    let platform = parse_platform_faulted(&req.platform, req.faults.as_deref())?;
    let graph = TaskGraph::from_value(&req.graph).map_err(|e| format!("graph: {e}"))?;
    let config = EasConfig::default();
    let budgets = budgets(&graph, &platform, &config);
    let run = |threads: usize| -> Result<(Schedule, f64), String> {
        let started = Instant::now();
        let schedule = std::hint::black_box(level(&graph, &platform, &budgets, &config, threads)?);
        Ok((schedule, started.elapsed().as_secs_f64()))
    };
    let (serial, serial_s) = run(1)?;
    let (parallel, parallel_s) = run(threads)?;
    if serial != parallel {
        return Err(format!(
            "level schedule at {threads} threads differs from the serial one"
        ));
    }
    Ok((serial_s, parallel_s))
}
