//! Per-connection state machine for the reactor: an input buffer fed
//! by nonblocking reads, an ordered queue of response *slots* (one per
//! parsed request, completed possibly out of order, written strictly
//! in order), and an output buffer drained under `POLLOUT`
//! backpressure.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use polling::{POLLIN, POLLOUT};

use crate::http::{parse_request, render_response, ReadError, Request, Response};

/// Upper bound on responses in flight per connection. Parsing (and
/// read interest) pauses once a client has this many pipelined
/// requests unanswered, bounding per-connection memory.
pub(crate) const MAX_PIPELINE: usize = 32;

/// One response slot in request order.
enum Slot {
    /// The request was dispatched to the scheduler; bytes arrive via
    /// the loop's inbox. The keep-alive decision was made at parse
    /// time.
    Pending {
        /// Whether this response advertises `keep-alive`.
        keep_alive: bool,
    },
    /// Wire bytes ready to move into the output buffer.
    Ready(Vec<u8>),
}

/// What a readiness callback decided about the connection's fate.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Keep polling the connection.
    Keep,
    /// Drop it now (peer gone, protocol finished, or I/O error).
    Close,
}

/// A single reactor-owned connection.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Response slots in request order; `front_seq` is the sequence
    /// number of `slots[0]`.
    slots: VecDeque<Slot>,
    front_seq: u64,
    next_seq: u64,
    /// Rendered bytes being written, and how far we got.
    out: Vec<u8>,
    out_pos: usize,
    /// Set once no further requests will be parsed (`Connection:
    /// close`, protocol error, EOF, or shutdown): the connection
    /// closes after the queued responses flush.
    closing: bool,
    /// Peer closed its write side; close as soon as we've flushed.
    eof: bool,
    /// Currently counted in the write-stall gauge.
    pub(crate) stalled: bool,
    /// A parse failure (400/413) awaiting its terminal response.
    protocol_error: Option<ReadError>,
    /// Last time a complete request was parsed (or the connection
    /// was accepted) — the keep-alive idle clock.
    pub(crate) idle_since: Instant,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            slots: VecDeque::new(),
            front_seq: 0,
            next_seq: 0,
            out: Vec::new(),
            out_pos: 0,
            closing: false,
            eof: false,
            stalled: false,
            protocol_error: None,
            idle_since: now,
        }
    }

    /// The `poll(2)` event mask this connection currently cares about.
    pub(crate) fn interest(&self) -> i16 {
        let mut events = 0;
        if self.wants_read() {
            events |= POLLIN;
        }
        if self.has_output() {
            events |= POLLOUT;
        }
        events
    }

    fn wants_read(&self) -> bool {
        !self.closing && !self.eof && self.slots.len() < MAX_PIPELINE
    }

    fn has_output(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// True while any response has yet to be fully written — including
    /// the terminal 400/413 a recorded protocol error still owes.
    pub(crate) fn has_work(&self) -> bool {
        !self.slots.is_empty() || self.has_output() || self.protocol_error.is_some()
    }

    /// Whether the connection is done and should be dropped: nothing
    /// left to write and no way to make progress.
    fn finished(&self) -> bool {
        (self.closing || self.eof) && !self.has_work()
    }

    /// Reads until `WouldBlock`, appending to the parse buffer.
    /// Returns `Fate::Close` on a hard I/O error or when EOF arrives
    /// with nothing left to flush.
    fn fill(&mut self) -> Fate {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer half-closed; it may still read responses
                    // for requests already pipelined.
                    self.eof = true;
                    return if self.has_work() {
                        Fate::Keep
                    } else {
                        Fate::Close
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Fate::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Fate::Close,
            }
        }
    }

    /// Parses the next complete request out of the buffer.
    ///
    /// `Ok(Some(_))` reserves nothing — the caller decides between an
    /// immediate [`push_ready`](Conn::push_ready) and a
    /// [`reserve_slot`](Conn::reserve_slot).
    fn next_request(&mut self, max_body: usize) -> Result<Option<Request>, ReadError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        match parse_request(&self.buf, max_body)? {
            Some((request, consumed)) => {
                self.buf.drain(..consumed);
                Ok(Some(request))
            }
            None => Ok(None),
        }
    }

    /// Handles `POLLIN`: read, then parse-and-dispatch every complete
    /// request via `dispatch`. The callback returns `false` when the
    /// connection must stop parsing further requests (`Connection:
    /// close` or service shutdown).
    pub(crate) fn on_readable<F>(&mut self, max_body: usize, mut dispatch: F) -> Fate
    where
        F: FnMut(&mut Conn, Request) -> bool,
    {
        if self.fill() == Fate::Close {
            return Fate::Close;
        }
        while self.wants_read() {
            match self.next_request(max_body) {
                Ok(Some(request)) => {
                    self.idle_since = Instant::now();
                    if !dispatch(self, request) {
                        self.closing = true;
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    // Parse failures (400/413) get a terminal
                    // response: the reactor renders it via
                    // `take_protocol_error` and the connection closes
                    // once it flushes.
                    self.closing = true;
                    self.protocol_error = Some(err);
                    break;
                }
            }
        }
        if self.finished() {
            Fate::Close
        } else {
            Fate::Keep
        }
    }

    /// Appends an already-rendered response in request order.
    pub(crate) fn push_ready(&mut self, bytes: Vec<u8>) {
        self.slots.push_back(Slot::Ready(bytes));
        self.next_seq += 1;
        self.pump();
    }

    /// Reserves the next in-order slot for an asynchronous completion
    /// and returns its sequence number.
    pub(crate) fn reserve_slot(&mut self, keep_alive: bool) -> u64 {
        let seq = self.next_seq;
        self.slots.push_back(Slot::Pending { keep_alive });
        self.next_seq += 1;
        seq
    }

    /// Fills a previously reserved slot, rendering the response with
    /// the keep-alive decision recorded at parse time. Sequence
    /// numbers already flushed are ignored.
    pub(crate) fn complete(&mut self, seq: u64, response: &Response) {
        let Some(offset) = seq.checked_sub(self.front_seq) else {
            return;
        };
        if let Some(slot) = self.slots.get_mut(offset as usize) {
            if let Slot::Pending { keep_alive } = *slot {
                *slot = Slot::Ready(render_response(response, keep_alive));
            }
        }
        self.pump();
    }

    /// Moves every leading `Ready` slot into the output buffer,
    /// preserving request order across out-of-order completions.
    fn pump(&mut self) {
        while matches!(self.slots.front(), Some(Slot::Ready(_))) {
            let Some(Slot::Ready(bytes)) = self.slots.pop_front() else {
                unreachable!("front checked to be ready");
            };
            self.front_seq += 1;
            // Compact the drained prefix so the buffer doesn't grow
            // without bound under pipelining.
            if self.out_pos > 0 && self.out_pos == self.out.len() {
                self.out.clear();
                self.out_pos = 0;
            }
            self.out.extend_from_slice(&bytes);
        }
    }

    /// Writes as much buffered output as the socket accepts, keeping
    /// the `stalled` flag truthful. `stall_entered` is set when this
    /// call newly hit backpressure.
    pub(crate) fn flush_output(&mut self, stall_entered: &mut bool) -> Fate {
        while self.has_output() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Fate::Close,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !self.stalled {
                        self.stalled = true;
                        *stall_entered = true;
                    }
                    return Fate::Keep;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Fate::Close,
            }
        }
        self.stalled = false;
        self.out.clear();
        self.out_pos = 0;
        if self.finished() {
            return Fate::Close;
        }
        Fate::Keep
    }

    /// A protocol error recorded by [`on_readable`](Conn::on_readable)
    /// for the reactor to answer (400/413) before closing.
    pub(crate) fn take_protocol_error(&mut self) -> Option<ReadError> {
        self.protocol_error.take()
    }
}
