//! Golden lock on the EAS pipeline's output bytes.
//!
//! Each case pins three things against `fixtures/golden_schedules.txt`:
//! the content hash of the rendered `ScheduleResponse` body, the repair
//! counters `(trials, lts_accepted, gtm_accepted)`, and the content hash
//! of the JSONL decision trace (`-` for entry points that take no
//! trace sink). The fixture was captured once and is never regenerated:
//! a mismatch means the scheduler's output changed.

use noc_ctg::prelude::{TgffConfig, TgffGenerator};
use noc_ctg::TaskGraph;
use noc_eas::delta::{apply_edits, repair_from_traced, Edit};
use noc_eas::limit::ComputeBudget;
use noc_eas::repair::{repair_with_faults, RepairStats};
use noc_eas::trace::{to_jsonl, BufferSink};
use noc_eas::{EasScheduler, ScheduleOutcome, Scheduler};
use noc_platform::Platform;
use noc_schedule::{validate, Schedule, ScheduleStats};
use noc_svc::api::ScheduleResponse;
use noc_svc::hash::content_hash;
use noc_svc::spec::{parse_platform, parse_platform_faulted};

const FIXTURE: &str = include_str!("fixtures/golden_schedules.txt");

/// A TGFF problem shaped like the benchmark's: `tasks` tasks, a DAG
/// `tasks / 20` wide, deadlines at `laxity` times the critical path.
fn problem(seed: u64, tasks: usize, laxity: f64, platform: &Platform) -> TaskGraph {
    let mut cfg = TgffConfig::category_i(seed);
    cfg.task_count = tasks;
    cfg.width = (tasks / 20).max(2);
    cfg.deadline_laxity = laxity;
    TgffGenerator::new(cfg)
        .generate(platform)
        .expect("TGFF generation succeeds on a mesh")
}

/// The fixture line of one case.
fn line(
    name: &str,
    scheduler: &str,
    outcome: &ScheduleOutcome,
    trace: Option<&BufferSink>,
) -> String {
    let body = ScheduleResponse::from_outcome(scheduler, outcome).to_json();
    let RepairStats {
        lts_accepted,
        gtm_accepted,
        trials,
    } = outcome.repair;
    let trace = trace.map_or_else(|| "-".to_owned(), |s| content_hash(&to_jsonl(s.events())));
    format!(
        "{name} {} {trials} {lts_accepted} {gtm_accepted} {trace}",
        content_hash(&body)
    )
}

/// One traced scheduler run, rendered as its fixture line.
fn scheduled(
    name: &str,
    scheduler: &EasScheduler,
    graph: &TaskGraph,
    platform: &Platform,
) -> String {
    let mut sink = BufferSink::new();
    let outcome = scheduler
        .schedule_traced(graph, platform, &ComputeBudget::unlimited(), &mut sink)
        .expect("schedules");
    line(name, scheduler.name(), &outcome, Some(&sink))
}

fn outcome_of(
    schedule: Schedule,
    graph: &TaskGraph,
    platform: &Platform,
    repair: RepairStats,
) -> ScheduleOutcome {
    let report = validate(&schedule, graph, platform).expect("valid schedule");
    let stats = ScheduleStats::compute(&schedule, graph, platform);
    ScheduleOutcome {
        schedule,
        report,
        stats,
        repair,
    }
}

fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let base = EasScheduler::base();
    let full = EasScheduler::full();

    for (seed, tasks, side) in [(11u64, 32usize, 4u16), (12, 128, 6), (13, 256, 8)] {
        let platform = parse_platform(&format!("mesh:{side}x{side}")).expect("mesh");
        let graph = problem(seed, tasks, 1.2, &platform);
        lines.push(scheduled(
            &format!("eas-base/{tasks}t/{side}x{side}"),
            &base,
            &graph,
            &platform,
        ));
    }

    let mesh4 = parse_platform("mesh:4x4").expect("mesh");
    for (seed, tasks, laxity) in [(21u64, 48usize, 0.65), (22, 60, 0.6)] {
        let graph = problem(seed, tasks, laxity, &mesh4);
        lines.push(scheduled(
            &format!("eas/{tasks}t/4x4/tight-{seed}"),
            &full,
            &graph,
            &mesh4,
        ));
    }

    let faulted = parse_platform_faulted("mesh:4x4", Some("tile:5")).expect("faulted mesh");
    let graph = problem(31, 40, 0.8, &faulted);
    lines.push(scheduled(
        "eas/40t/4x4/tile5-faulted",
        &full,
        &graph,
        &faulted,
    ));

    // Warm-start delta: tighten one deadline of a scheduled problem.
    let graph = problem(41, 40, 0.9, &mesh4);
    let prior = full.schedule(&graph, &mesh4).expect("schedules");
    let last = graph.task_count() as u32 - 1;
    let deadline = prior
        .schedule
        .task(noc_ctg::task::TaskId::new(last))
        .finish
        .ticks()
        / 2;
    let edits = vec![Edit::SetDeadline {
        task: last,
        deadline: Some(deadline),
    }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    let mut sink = BufferSink::new();
    let delta = repair_from_traced(
        &graph,
        &prior.schedule,
        &mesh4,
        &applied,
        &ComputeBudget::unlimited(),
        &mut sink,
    )
    .expect("repairs");
    assert!(delta.warm_start, "the delta case must warm-start");
    lines.push(line(
        "delta/40t/4x4/set-deadline",
        "eas",
        &delta.outcome,
        Some(&sink),
    ));

    // Masked re-repair of a pristine schedule after tile 5 fails.
    let graph = problem(51, 40, 0.8, &mesh4);
    let pristine = full.schedule(&graph, &mesh4).expect("schedules");
    let (schedule, repair) =
        repair_with_faults(&graph, &faulted, &pristine.schedule).expect("evacuation re-times");
    let outcome = outcome_of(schedule, &graph, &faulted, repair);
    lines.push(line("faults/40t/4x4/tile5", "eas", &outcome, None));
    lines
}

#[test]
fn schedules_match_the_golden_fixture() {
    let computed = golden_lines();
    let pinned: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(
        computed,
        pinned,
        "scheduler output drifted from the golden fixture; computed:\n{}",
        computed.join("\n")
    );
}

/// The lock only guards repair if its tight cases actually repair.
#[test]
fn tight_cases_exercise_gtm() {
    for l in FIXTURE.lines().filter(|l| l.contains("/tight-")) {
        let gtm: usize = l
            .split(' ')
            .nth(4)
            .and_then(|g| g.parse().ok())
            .expect("gtm column");
        assert!(gtm >= 1, "case without an accepted GTM move: {l}");
    }
}
