//! The reactor event loop: one thread, one `poll(2)` set covering the
//! shared listener, the waker pipe, and every connection this loop
//! owns.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

use super::conn::{Conn, Fate};
use super::{Completion, Inbox, ReactorStats};
use crate::api::error_body;
use crate::engine::Engine;
use crate::http::{render_response, ReadError, Request, Response};
use crate::server::{self, Routed};

/// Poll timeout — the idle-sweep / stop-flag observation cadence.
const TICK: Duration = Duration::from_millis(250);

/// How long a draining loop waits for in-flight responses after the
/// stop flag flips before abandoning them.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Everything an event loop needs, cloned per loop at spawn.
pub(crate) struct LoopCtx {
    pub engine: Arc<Engine>,
    pub inbox: Arc<Inbox>,
    pub stop: Arc<AtomicBool>,
    pub stats: Arc<ReactorStats>,
    pub max_body: usize,
    pub idle_timeout: Duration,
}

/// Runs one event loop until shutdown completes.
pub(crate) fn event_loop(ctx: &LoopCtx, listener: &TcpListener, mut waker_rx: TcpStream) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut stop_since: Option<Instant> = None;
    loop {
        let stopping = ctx.stop.load(Ordering::Acquire);
        if stopping && stop_since.is_none() {
            stop_since = Some(Instant::now());
        }
        if stopping {
            let drained = conns.values().all(|c| !c.has_work());
            let expired = stop_since
                .map(|t| t.elapsed() >= DRAIN_GRACE)
                .unwrap_or(false);
            if drained || expired {
                break;
            }
        }

        // Build the poll set: waker, listener (while accepting), then
        // one entry per connection with a live interest.
        let mut fds = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd::new(waker_rx.as_raw_fd(), POLLIN));
        let accepting = !stopping;
        if accepting {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        let mut tokens = Vec::with_capacity(conns.len());
        for (&token, conn) in conns.iter() {
            let interest = conn.interest();
            if interest != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), interest));
                tokens.push(token);
            }
        }

        match polling::poll(&mut fds, TICK.as_millis() as i32) {
            Ok(_) => {}
            Err(_) => {
                // A transient poll failure: back off a tick rather
                // than spin.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        ctx.stats.wakeups.fetch_add(1, Ordering::Relaxed);

        if fds[0].has(POLLIN) {
            super::drain_waker(&mut waker_rx);
        }
        // Apply completions regardless of which fd woke us — the
        // waker is an optimisation, not the source of truth.
        for completion in ctx.inbox.drain() {
            apply_completion(&mut conns, completion);
        }

        if accepting && fds[1].has(POLLIN) {
            accept_ready(ctx, listener, &mut conns, &mut next_token);
        }

        for (i, &token) in tokens.iter().enumerate() {
            let revents_fd = &fds[base + i];
            let mut fate = Fate::Keep;
            if let Some(conn) = conns.get_mut(&token) {
                if revents_fd.has(POLLERR | POLLNVAL) {
                    fate = Fate::Close;
                } else {
                    if revents_fd.has(POLLIN | POLLHUP) && fate == Fate::Keep {
                        fate = handle_readable(ctx, token, conn);
                    }
                    if revents_fd.has(POLLOUT) && fate == Fate::Keep {
                        fate = flush(ctx, conn);
                    }
                }
            }
            if fate == Fate::Close {
                close(ctx, &mut conns, token);
            }
        }

        sweep_idle(ctx, &mut conns, stopping);
    }

    // Abandon whatever is left (grace expired or nothing pending).
    let remaining: Vec<u64> = conns.keys().copied().collect();
    for token in remaining {
        close(ctx, &mut conns, token);
    }
}

/// Accepts every pending connection on the shared listener.
fn accept_ready(
    ctx: &LoopCtx,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    // Errors mean WouldBlock, or another loop won the accept race.
    while let Ok((stream, _)) = listener.accept() {
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        conns.insert(token, Conn::new(stream, Instant::now()));
        ctx.stats.accepted.fetch_add(1, Ordering::Relaxed);
        ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
    }
}

/// Reads and dispatches every complete request on a readable
/// connection, then answers any protocol error and flushes.
fn handle_readable(ctx: &LoopCtx, token: u64, conn: &mut Conn) -> Fate {
    let stopping = ctx.stop.load(Ordering::Acquire);
    let fate = conn.on_readable(ctx.max_body, |conn, request| {
        dispatch(ctx, token, conn, &request, stopping)
    });
    if let Some(err) = conn.take_protocol_error() {
        let response = match err {
            ReadError::BodyTooLarge(n) => Response::json(
                413,
                error_body(&format!("request body of {n} bytes too large")),
            ),
            ReadError::Malformed(msg) => {
                Response::json(400, error_body(&format!("malformed request: {msg}")))
            }
        };
        ctx.engine
            .metrics
            .record_request("malformed", response.status);
        conn.push_ready(render_response(&response, false));
    }
    if fate == Fate::Close {
        return Fate::Close;
    }
    flush(ctx, conn)
}

/// Routes one request. Returns `false` when the connection must stop
/// accepting further requests (`Connection: close` or shutdown).
fn dispatch(ctx: &LoopCtx, token: u64, conn: &mut Conn, request: &Request, stopping: bool) -> bool {
    let keep_alive = request.keep_alive() && !stopping;
    let endpoint = server::endpoint_label(request);
    match server::respond(&ctx.engine, request) {
        Routed::Ready(response) => {
            ctx.engine.metrics.record_request(endpoint, response.status);
            conn.push_ready(render_response(&response, keep_alive));
        }
        Routed::Pending(pending) => {
            let seq = conn.reserve_slot(keep_alive);
            let engine = Arc::clone(&ctx.engine);
            let inbox = Arc::clone(&ctx.inbox);
            let job = Arc::clone(&pending.job);
            let id = pending.id;
            let cache_label = pending.cache_label;
            let wants_stats = pending.wants_stats;
            let finish = pending.finish;
            job.on_finish(move |phase| {
                let response =
                    server::complete(&engine, &id, phase, cache_label, wants_stats, &finish);
                engine.metrics.record_request(endpoint, response.status);
                inbox.post(Completion {
                    token,
                    seq,
                    response,
                });
            });
        }
    }
    keep_alive
}

/// Renders a finished response into its reserved slot.
fn apply_completion(conns: &mut HashMap<u64, Conn>, completion: Completion) {
    // The connection may have died while the job ran; completions for
    // unknown tokens are simply dropped.
    if let Some(conn) = conns.get_mut(&completion.token) {
        conn.complete(completion.seq, &completion.response);
    }
}

/// Flushes buffered output, maintaining the stall gauge.
fn flush(ctx: &LoopCtx, conn: &mut Conn) -> Fate {
    let was_stalled = conn.stalled;
    let mut entered = false;
    let fate = conn.flush_output(&mut entered);
    if entered {
        ctx.stats
            .write_stalls_entered
            .fetch_add(1, Ordering::Relaxed);
    }
    if !was_stalled && conn.stalled {
        ctx.stats.write_stalled.fetch_add(1, Ordering::Relaxed);
    } else if was_stalled && !conn.stalled {
        ctx.stats.write_stalled.fetch_sub(1, Ordering::Relaxed);
    }
    fate
}

/// Drops connections idle past the keep-alive timeout (or idle at
/// all, once stopping) with no work in flight.
fn sweep_idle(ctx: &LoopCtx, conns: &mut HashMap<u64, Conn>, stopping: bool) {
    let idle: Vec<u64> = conns
        .iter()
        .filter(|(_, c)| !c.has_work() && (stopping || c.idle_since.elapsed() >= ctx.idle_timeout))
        .map(|(&t, _)| t)
        .collect();
    for token in idle {
        close(ctx, conns, token);
    }
}

/// Removes a connection, keeping the gauges truthful.
fn close(ctx: &LoopCtx, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        ctx.stats.connections.fetch_sub(1, Ordering::Relaxed);
        if conn.stalled {
            ctx.stats.write_stalled.fetch_sub(1, Ordering::Relaxed);
        }
    }
}
