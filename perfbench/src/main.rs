//! `noceas serve` benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay|cold|tight --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Builds and boots the shipped `noceas`
//! binary, drives `POST /v1/schedule` from `nproc` closed-loop clients
//! for `S` seconds, then checks every answer byte for byte against the
//! in-process library and with
//! `noc_schedule::validate`. The last stdout line is one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate in-process traced run with `--trace 1`. A human-readable
//! report goes to stderr. The exit code is non-zero when any answer or
//! workload-shape check fails.

mod pipeline;
mod problems;
mod server;
mod stats;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use noc_schedule::validate;
use noc_svc::api::ScheduleResponse;
use noc_svc::store::{Store, StoreConfig, StoreStats, TieredStore};

use pipeline::{Served, Span, Spans, LAYERS};
use problems::{Problem, Workload};
use server::{Conn, Server};
use stats::{median, tail};

/// Set-ups per run; `setup_s` reports their median.
const SETUP_ROUNDS: usize = 3;
/// Scratch directory, relative to the repository root.
const RUN_DIR: &str = ".perfbench_run";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    Ok(Args {
        workload: problems::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: value("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}` (0|1)")),
        },
    })
}

/// Times a fixed walk through a 16 MiB single-cycle permutation, which
/// shares no code with the program under test, nine times:
/// milliseconds per walk. Cache misses make it slow down, as the
/// program does, when other tenants of the host contend for caches and
/// memory; its drift between runs is the host's.
fn host_reference() -> Vec<f64> {
    const SLOTS: usize = 1 << 22;
    // Sattolo's algorithm: one cycle through every slot.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state = 0u64;
    for i in (1..SLOTS).rev() {
        state = problems::mix(state);
        #[allow(clippy::cast_possible_truncation)]
        next.swap(i, (state % i as u64) as usize);
    }
    (0..9)
        .map(|_| {
            let started = Instant::now();
            let mut at = 0u32;
            for _ in 0..200_000 {
                at = next[at as usize];
            }
            std::hint::black_box(at);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Builds `noceas` from this checkout and returns its path.
fn build_server() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "noc-eas-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building noceas failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let binary = Path::new(&target).join("release").join("noceas");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// One answered (or failed) request of a closed-loop phase.
struct Sample {
    seq: usize,
    problem: usize,
    latency: Duration,
    /// When the answer arrived, from the start of the phase.
    done: Duration,
    /// HTTP status; 0 for a transport error.
    status: u16,
    body: Vec<u8>,
}

struct Phase {
    samples: Vec<Sample>,
    wall: Duration,
    /// The request order ran out before the window closed.
    exhausted: bool,
    /// The server's `VmHWM` when the `must_send`-th answer arrived.
    peak_rss_mb: Option<Result<f64, String>>,
}

/// Closed loop: `clients` clients, each sending the next request of
/// `order` only after its previous answer arrived. Stops dispatching
/// once `window` has passed and the first `must_send` requests are out;
/// requests in flight then complete. With `rss_of`, reads that
/// process's `VmHWM` when the `must_send`-th answer arrives: a fixed
/// amount of work, so the figure does not grow with throughput (every
/// answer adds its key to the server's memory tier).
///
/// Each request opens its own connection, outside the timed span. The
/// reactor pins a connection to whichever event loop wins the accept
/// race and decodes bodies on that loop, so with long-lived connections
/// a whole run would ride on one random placement: both clients on one
/// loop halves decode throughput. A connection per request samples the
/// placement on every request instead of once per run.
fn closed_loop(
    addr: SocketAddr,
    pool: &[Problem],
    order: &[usize],
    clients: usize,
    window: Option<Duration>,
    must_send: usize,
    rss_of: Option<u32>,
) -> Phase {
    let next = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let peak_rss = Mutex::new(None);
    let started = Instant::now();
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&problem) = order.get(seq) else {
                        break;
                    };
                    if seq >= must_send && window.is_some_and(|w| started.elapsed() >= w) {
                        break;
                    }
                    let (result, latency) = match Conn::connect(addr) {
                        Ok(mut conn) => {
                            let sent = Instant::now();
                            let result = conn.roundtrip(&pool[problem].wire);
                            (result, sent.elapsed())
                        }
                        Err(e) => (Err(e), Duration::ZERO),
                    };
                    let (status, body) = result.unwrap_or_else(|e| {
                        eprintln!("perfbench: request {seq} failed: {e}");
                        (0, Vec::new())
                    });
                    mine.push(Sample {
                        seq,
                        problem,
                        latency,
                        done: started.elapsed(),
                        status,
                        body,
                    });
                    if answered.fetch_add(1, Ordering::Relaxed) + 1 == must_send {
                        if let Some(pid) = rss_of {
                            *peak_rss.lock().expect("no client panics holding the lock") =
                                Some(server::peak_rss_mb(pid));
                        }
                    }
                }
                samples
                    .lock()
                    .expect("no client panics holding the lock")
                    .extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    let mut samples = samples
        .into_inner()
        .expect("no client panics holding the lock");
    samples.sort_by_key(|s| s.seq);
    let exhausted = samples.len() == order.len();
    Phase {
        samples,
        wall,
        exhausted,
        peak_rss_mb: peak_rss
            .into_inner()
            .expect("no client panics holding the lock"),
    }
}

fn open_store(dir: &Path) -> TieredStore {
    let _ = std::fs::remove_dir_all(dir);
    let disk = Store::open(StoreConfig::new(dir), Arc::new(StoreStats::default())).ok();
    TieredStore::with_disk(noc_svc::ServiceConfig::default().cache_capacity, disk)
}

/// In-process answers by sequence index.
type Answers = Vec<(usize, Result<Served, String>)>;

/// Serves `jobs` (sequence index, problem) in-process on `threads`
/// workers pulling in order, like the closed loop. Returns the answers
/// keyed by sequence index in no particular order, every span, and
/// the wall time.
fn in_process(
    jobs: &[(usize, usize)],
    pool: &[Problem],
    store: &TieredStore,
    threads: usize,
) -> (Answers, Vec<Span>, Duration) {
    let epoch = Instant::now();
    let max_body = noc_svc::ServiceConfig::default().max_body;
    // Workers pull jobs in order, as the closed loop dispatches them, so
    // uneven request costs balance and the traced wall time compares
    // with the untraced one.
    let next = AtomicUsize::new(0);
    let served = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut spans = Spans::new(epoch);
                let mut mine = Vec::new();
                while let Some(&(seq, problem)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let answer =
                        pipeline::serve(&pool[problem].wire, seq, store, max_body, &mut spans);
                    mine.push((seq, answer));
                }
                served
                    .lock()
                    .expect("no worker panics holding the lock")
                    .push((mine, spans.spans));
            });
        }
    });
    let wall = epoch.elapsed();
    let mut answers = Vec::new();
    let mut spans = Vec::new();
    for (mine, their_spans) in served
        .into_inner()
        .expect("no worker panics holding the lock")
    {
        answers.extend(mine);
        spans.extend(their_spans);
    }
    (answers, spans, wall)
}

/// The traced run: `(sequence index, problem)` per request, its spans
/// and its wall time.
struct TracedRun {
    rows: Vec<(usize, usize)>,
    spans: Vec<Span>,
    wall: Duration,
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let run_dir = PathBuf::from(RUN_DIR);
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("cannot create {RUN_DIR}: {e}"))?;
    let binary = build_server()?;

    // Inputs, from the seed alone.
    let run_started = Instant::now();
    let pool = problems::generate_pool(workload, args.seed, workload.pool_rounds, nproc);
    // What each set-up sends once the server is up: replay's whole pool,
    // which the timed phase then replays; for fresh-problem workloads
    // rounds drawn apart from the pool, so the server's first-request
    // costs land in set-up and the timed phase still never repeats a
    // problem. Several rounds keep one slow problem from setting the
    // set-up time.
    let warm_up = (!workload.replay).then(|| {
        problems::generate_pool(
            workload,
            problems::mix(!args.seed),
            workload.warm_up_rounds,
            nproc,
        )
    });
    let warm_up: &[Problem] = warm_up.as_deref().unwrap_or(&pool);
    let order = problems::request_order(workload, pool.len(), args.seed);
    let scored = if workload.replay {
        pool.len()
    } else {
        workload.scored_rounds * workload.classes.len()
    };

    let generate_s = run_started.elapsed().as_secs_f64();
    // Set-up, timed several times: boot on a fresh store, wait for the
    // first /healthz 200 and answer the warm-up set. The last server
    // serves the run.
    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    let mut errors: Vec<String> = Vec::new();
    for round in 0..SETUP_ROUNDS {
        if let Some(mut previous) = server.take() {
            previous.stop();
        }
        let started = Instant::now();
        let booted = Server::boot(
            &binary,
            &run_dir.join(format!("store-{round}")),
            nproc,
            &run_dir.join(format!("server-{round}.log")),
        )?;
        let fill_order: Vec<usize> = (0..warm_up.len()).collect();
        let fill = closed_loop(
            booted.addr,
            warm_up,
            &fill_order,
            nproc,
            None,
            warm_up.len(),
            None,
        );
        let failed = fill.samples.iter().filter(|s| s.status != 200).count();
        if failed > 0 {
            errors.push(format!("{failed} warm-up requests failed"));
        }
        setups.push(started.elapsed().as_secs_f64());
        server = Some(booted);
    }
    let mut server = server.expect("at least one set-up round");
    let setup_s = median(&setups);

    // Timed phase, between two readings of the host's speed.
    let mut host_ref = host_reference();
    let before = server.counters()?;
    let cpu_before = server.cpu_s()?;
    let mut timed = closed_loop(
        server.addr,
        &pool,
        &order,
        nproc,
        Some(Duration::from_secs(args.seconds)),
        scored,
        Some(server.pid()),
    );
    let cpu_s = server.cpu_s()? - cpu_before;
    let after = server.counters()?;
    server.stop();
    host_ref.extend(host_reference());
    let host_ref_ms = median(&host_ref);
    let peak_rss_mb = timed
        .peak_rss_mb
        .take()
        .ok_or("the timed phase never answered its scored set")??;
    let delta = |name: &str| after[name] - before[name];
    let samples = &timed.samples;

    let check_started = Instant::now();
    // Everything below runs outside every timed window. Reference
    // answers come from the in-process library, per distinct problem.
    // Fresh-problem workloads never repeat a problem, so one run over
    // the timed requests is both the reference and the traced run;
    // replay first computes its distinct problems (the in-process warm
    // fill), then traces its cache-hit requests separately.
    let store = open_store(&run_dir.join("in-process-store"));
    let timed_jobs: Vec<(usize, usize)> = samples.iter().map(|s| (s.seq, s.problem)).collect();
    let mut refs: BTreeMap<usize, Served> = BTreeMap::new();
    let mut traced = None;
    if workload.replay {
        let answered: BTreeSet<usize> = samples.iter().map(|s| s.problem).collect();
        let fill_jobs: Vec<(usize, usize)> = answered.iter().map(|&p| (p, p)).collect();
        for (problem, served) in in_process(&fill_jobs, &pool, &store, nproc).0 {
            match served {
                Ok(served) => {
                    refs.insert(problem, served);
                }
                Err(e) => errors.push(format!("in-process problem {problem}: {e}")),
            }
        }
        if args.trace {
            let (results, spans, wall) = in_process(&timed_jobs, &pool, &store, nproc);
            let mut rows = Vec::new();
            for (seq, served) in results {
                let problem = order[seq];
                match served {
                    Ok(s) if s.hit && refs.get(&problem).is_some_and(|r| r.body == s.body) => {
                        rows.push((seq, problem));
                    }
                    Ok(_) => errors.push(format!("traced request {seq} missed the warm store")),
                    Err(e) => errors.push(format!("traced request {seq}: {e}")),
                }
            }
            traced = Some(TracedRun { rows, spans, wall });
        }
    } else {
        let (results, spans, wall) = in_process(&timed_jobs, &pool, &store, nproc);
        let mut rows = Vec::new();
        for (seq, served) in results {
            let problem = order[seq];
            match served {
                Ok(served) => {
                    rows.push((seq, problem));
                    refs.insert(problem, served);
                }
                Err(e) => errors.push(format!("in-process request {seq}: {e}")),
            }
        }
        if args.trace {
            traced = Some(TracedRun { rows, spans, wall });
        }
    }
    drop(store);

    // Output check: every 200 body equals the reference bytes, and each
    // distinct answer passes `noc_schedule::validate`.
    let answered: Vec<usize> = samples
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| s.problem)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let first_body = |p: usize| {
        samples
            .iter()
            .find(|s| s.status == 200 && s.problem == p)
            .map(|s| s.body.as_slice())
            .expect("answered problems have a 200 sample")
    };
    let checked = noc_par::par_map(nproc, &answered, |_, &p| -> Result<(f64, usize), String> {
        let reference = refs.get(&p).ok_or("no reference answer")?;
        let body = std::str::from_utf8(first_body(p)).map_err(|_| "body is not UTF-8")?;
        let response: ScheduleResponse =
            serde_json::from_str(body).map_err(|e| format!("undecodable answer: {e}"))?;
        let report = validate(&response.schedule, &reference.graph, &reference.platform)
            .map_err(|e| format!("invalid schedule: {e}"))?;
        if report.deadline_misses.len() != response.deadline_misses {
            return Err("deadline_misses disagrees with the schedule".into());
        }
        Ok((response.energy_nj, response.deadline_misses))
    });
    let checked: BTreeMap<usize, Result<(f64, usize), String>> =
        answered.iter().copied().zip(checked).collect();
    let mut failed = 0usize;
    for s in samples {
        let ok = s.status == 200
            && refs
                .get(&s.problem)
                .is_some_and(|r| r.body.as_bytes() == s.body)
            && checked.get(&s.problem).is_some_and(Result::is_ok);
        if !ok {
            failed += 1;
            if failed <= 5 {
                let why = match checked.get(&s.problem) {
                    Some(Err(e)) => e.clone(),
                    _ if s.status != 200 => format!("status {}", s.status),
                    _ => "body differs from the in-process answer".into(),
                };
                errors.push(format!("request {} (problem {}): {why}", s.seq, s.problem));
            }
        }
    }

    // Quality over the scored set, which the timed phase always sends.
    let mut energy_uj_sum = 0.0;
    let mut deadline_misses_sum = 0usize;
    for p in 0..scored {
        match checked.get(&p) {
            Some(Ok((energy_nj, misses))) => {
                energy_uj_sum += energy_nj / 1000.0;
                deadline_misses_sum += misses;
            }
            _ => errors.push(format!("scored problem {p} has no valid answer")),
        }
    }

    // Workload-shape guard, from the server's own counters.
    let attempted = samples.len();
    let hits = delta("noc_svc_cache_hits_total");
    let misses = delta("noc_svc_cache_misses_total");
    let coalesced = delta("noc_svc_requests_coalesced_total");
    let rejected = delta("noc_svc_queue_rejected_total");
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    if workload.replay {
        if misses != 0.0 || hits != attempted as f64 {
            errors.push(format!(
                "shape: replay must hit the cache on every request ({hits} hits, {misses} misses, {attempted} sent)"
            ));
        }
    } else if hits != 0.0 || coalesced != 0.0 || rejected != 0.0 {
        errors.push(format!(
            "shape: {} must never hit, coalesce or reject ({hits} hits, {coalesced} coalesced, {rejected} rejected)",
            workload.name
        ));
    }

    // End-to-end metrics.
    let latencies: Vec<f64> = samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let (tail_ms, tail_pct) = tail(&latencies);
    // Answers that arrived inside the window, so the requests still in
    // flight when it closes never stretch the denominator.
    let window = if timed.exhausted {
        timed.wall
    } else {
        Duration::from_secs(args.seconds)
    };
    let completed = samples
        .iter()
        .filter(|s| s.status == 200 && s.done <= window)
        .count();
    let wall_s = timed.wall.as_secs_f64();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {} seed {} nproc {nproc}: {attempted} requests in {wall_s:.3} s{}",
        workload.name,
        args.seed,
        if timed.exhausted {
            " (request pool exhausted before the window closed)"
        } else {
            ""
        }
    );
    let end_to_end = vec![
        metric("latency_p50_ms", median(&latencies), "ms"),
        metric("latency_tail_ms", tail_ms, "ms"),
        metric(
            "throughput_rps",
            completed as f64 / window.as_secs_f64(),
            "1/s",
        ),
        metric("energy_uj_sum", energy_uj_sum, "uJ"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    // Whole-run figures that carry no bound, printed on every run and
    // reported with the per-layer metrics: the two quality figures can
    // be 0, which a bounded metric may not be; the server's CPU time per
    // request and the host reference tell host-speed drift apart from a
    // change in the program.
    let unbounded = [
        metric("deadline_misses_sum", deadline_misses_sum as f64, "count"),
        metric("failed_frac", failed_frac, "share"),
        metric(
            "svc.cpu_ms_per_req",
            cpu_s * 1e3 / attempted.max(1) as f64,
            "ms",
        ),
        metric("host.ref_ms", host_ref_ms, "ms"),
    ];
    for m in end_to_end.iter().chain(&unbounded) {
        let _ = writeln!(report, "  {:<22} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        report,
        "  latency_tail_ms is p{tail_pct:.1} of {} samples; set-ups {setups:.4?} s",
        latencies.len()
    );

    let metrics = match &traced {
        None => end_to_end,
        Some(run) => {
            let mut layers = layer_metrics(
                workload,
                &pool,
                &refs,
                samples,
                run,
                nproc,
                &mut errors,
                &mut report,
            );
            layers.extend([
                metric("svc.cache_hit_ratio", hit_ratio, "share"),
                metric(
                    "svc.schedules_executed",
                    delta("noc_svc_schedules_executed_total"),
                    "count",
                ),
                metric("svc.coalesced", coalesced, "count"),
                metric("svc.queue_rejected", rejected, "count"),
                metric(
                    "svc.schedule_errors",
                    delta("noc_svc_schedule_errors_total"),
                    "count",
                ),
                metric("traced_wall_s", run.wall.as_secs_f64(), "s"),
                metric("untraced_wall_s", wall_s, "s"),
            ]);
            layers.extend(unbounded);
            write_spans(&run_dir, workload.name, args.seed, &run.spans)?;
            layers
        }
    };

    let _ = writeln!(
        report,
        "  stages: generate {generate_s:.1} s, timed {wall_s:.1} s, in-process and checks {:.1} s, total {:.1} s",
        check_started.elapsed().as_secs_f64(),
        run_started.elapsed().as_secs_f64()
    );
    for e in &errors {
        let _ = writeln!(report, "  ERROR {e}");
    }
    eprint!("{report}");
    let correct = errors.is_empty() && failed == 0;
    let mut line = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            r#"{}"{}": {{"value": {}, "unit": "{}"}}"#,
            if i == 0 { "" } else { ", " },
            m.name,
            m.value,
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Per-layer metrics of the traced run, plus the per-class table in
/// `report`.
#[allow(
    clippy::too_many_arguments,
    clippy::too_many_lines,
    clippy::cast_precision_loss
)]
fn layer_metrics(
    workload: &Workload,
    pool: &[Problem],
    refs: &BTreeMap<usize, Served>,
    samples: &[Sample],
    run: &TracedRun,
    nproc: usize,
    errors: &mut Vec<String>,
    report: &mut String,
) -> Vec<Metric> {
    // Seconds per (request, span name).
    let mut per_req: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for span in &run.spans {
        *per_req
            .entry(span.request)
            .or_default()
            .entry(span.name)
            .or_default() += span.end_ns.saturating_sub(span.start_ns) as f64 / 1e9;
    }
    let empty = BTreeMap::new();
    let times = |seq: usize| per_req.get(&seq).unwrap_or(&empty);
    // (seconds, class, problem) of every traced request that ran `layer`.
    let ran = |layer: &str| -> Vec<(f64, usize, usize)> {
        run.rows
            .iter()
            .filter_map(|&(seq, problem)| {
                times(seq)
                    .get(layer)
                    .map(|&secs| (secs, pool[problem].class, problem))
            })
            .collect()
    };
    let med = |layer: &str, scale: f64| {
        median(&ran(layer).iter().map(|r| r.0 * scale).collect::<Vec<_>>())
    };
    // Largest class over smallest class, of `layer` seconds per `unit`.
    let classes = workload.classes.len();
    let slope = |layer: &str, unit: &dyn Fn(usize) -> f64| {
        let per_class = |class: usize| {
            median(
                &ran(layer)
                    .iter()
                    .filter(|r| r.1 == class)
                    .map(|r| r.0 / unit(r.2))
                    .collect::<Vec<_>>(),
            )
        };
        let smallest = per_class(0);
        if smallest > 0.0 {
            per_class(classes - 1) / smallest
        } else {
            0.0
        }
    };
    let body_kb = |p: usize| pool[p].body().len() as f64 / 1024.0;
    let tasks = |p: usize| pool[p].tasks as f64;

    let quality_of = |layer: &str| -> Vec<&pipeline::Quality> {
        ran(layer)
            .iter()
            .filter_map(|r| refs.get(&r.2)?.quality.as_ref())
            .collect()
    };
    let quality = quality_of("level");
    let repaired = quality_of("repair");
    let trials: usize = repaired.iter().map(|q| q.trials).sum();
    #[allow(clippy::cast_possible_wrap)]
    let fixed: i64 = repaired
        .iter()
        .map(|q| q.level_misses as i64 - q.final_misses as i64)
        .sum();
    let rebased: Vec<f64> = quality
        .iter()
        .filter_map(|q| q.rebase_extra)
        .map(|x| x as f64)
        .collect();
    if rebased.len() < quality.len() {
        let _ = writeln!(
            report,
            "  retime deadlocked on {} of {} level schedules",
            quality.len() - rebased.len(),
            quality.len()
        );
    }
    let render_kb: Vec<f64> = ran("render")
        .iter()
        .filter_map(|r| refs.get(&r.2))
        .map(|s| s.body.len() as f64 / 1024.0)
        .collect();

    // Level scheduling at `nproc` threads against one, on the first
    // problem of each class, one at a time.
    let mut serial_s = 0.0;
    let mut parallel_s = 0.0;
    for class in 0..classes {
        let Some(problem) = pool.iter().find(|p| p.class == class) else {
            continue;
        };
        match pipeline::level_speedup(problem.body(), nproc) {
            Ok((s, p)) => {
                serial_s += s;
                parallel_s += p;
            }
            Err(e) => errors.push(format!("level.par_speedup: {e}")),
        }
    }

    // Untraced end-to-end time minus the request's layer sum.
    let latency: BTreeMap<usize, f64> = samples
        .iter()
        .map(|s| (s.seq, s.latency.as_secs_f64()))
        .collect();
    let unattributed: Vec<f64> = run
        .rows
        .iter()
        .map(|&(seq, _)| {
            let layers: f64 = LAYERS.iter().filter_map(|l| times(seq).get(l)).sum();
            (latency[&seq] - layers) * 1e3
        })
        .collect();

    // Per-class breakdown: median ms per layer.
    let _ = writeln!(
        report,
        "  per-class layer medians, ms (n = traced requests):"
    );
    let _ = write!(report, "    {:<14} {:>5} {:>8}", "class", "n", "body_kb");
    for layer in LAYERS.iter().chain(pipeline::PROBES) {
        let _ = write!(report, " {layer:>14}");
    }
    let _ = writeln!(report);
    for (class, spec) in workload.classes.iter().enumerate() {
        let n = run.rows.iter().filter(|r| pool[r.1].class == class).count();
        let kb: Vec<f64> = run
            .rows
            .iter()
            .filter(|r| pool[r.1].class == class)
            .map(|r| body_kb(r.1))
            .collect();
        let _ = write!(
            report,
            "    {:<14} {n:>5} {:>8.1}",
            spec.label(),
            median(&kb)
        );
        for layer in LAYERS.iter().chain(pipeline::PROBES) {
            let v: Vec<f64> = ran(layer)
                .iter()
                .filter(|r| r.1 == class)
                .map(|r| r.0 * 1e3)
                .collect();
            let _ = write!(report, " {:>14.4}", median(&v));
        }
        let _ = writeln!(report);
    }

    vec![
        metric("http.parse_us", med("http.parse", 1e6), "us"),
        metric("json.decode_ms", med("json.decode", 1e3), "ms"),
        metric(
            "json.superlinearity",
            slope("json.decode", &body_kb),
            "ratio",
        ),
        metric("ctg.from_value_ms", med("ctg.from_value", 1e3), "ms"),
        metric("spec.platform_ms", med("spec.platform", 1e3), "ms"),
        metric("hash.key_ms", med("hash.key", 1e3), "ms"),
        metric("store.get_us", med("store.get", 1e6), "us"),
        metric("budget.ms", med("budget", 1e3), "ms"),
        metric("level.ms", med("level", 1e3), "ms"),
        metric("level.superlinearity", slope("level", &tasks), "ratio"),
        metric(
            "level.par_speedup",
            if parallel_s > 0.0 {
                serial_s / parallel_s
            } else {
                0.0
            },
            "ratio",
        ),
        metric("store.put_us", med("store.put", 1e6), "us"),
        metric("validate.ms", med("validate", 1e3), "ms"),
        metric("render.ms", med("render", 1e3), "ms"),
        metric("render.kb", median(&render_kb), "KiB"),
        metric("repair.ms", med("repair", 1e3), "ms"),
        metric(
            "repair.trials",
            median(&repaired.iter().map(|q| q.trials as f64).collect::<Vec<_>>()),
            "count",
        ),
        metric(
            "repair.misses_fixed_per_ktrial",
            if trials > 0 {
                fixed as f64 * 1e3 / trials as f64
            } else {
                0.0
            },
            "1/ktrial",
        ),
        metric(
            "repair.worse_than_level",
            repaired
                .iter()
                .filter(|q| q.final_misses > q.level_misses)
                .count() as f64,
            "count",
        ),
        metric("retime.ms", med("retime", 1e3), "ms"),
        metric(
            "retime.rebase_extra_misses",
            if rebased.is_empty() {
                0.0
            } else {
                rebased.iter().sum::<f64>() / rebased.len() as f64
            },
            "count/req",
        ),
        metric("unattributed_ms", median(&unattributed), "ms"),
    ]
}

/// Writes the traced run's spans, one JSON object per line.
fn write_spans(dir: &Path, workload: &str, seed: u64, spans: &[Span]) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            r#"{{"name":"{}","parent":{},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
