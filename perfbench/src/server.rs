//! The `noceas serve` child process and a minimal HTTP/1.1 client that
//! writes pre-rendered request bytes and reads one `Content-Length`
//! response.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Counters read from `/metrics` whose deltas over the timed phase the
/// benchmark reports and guards on.
pub const COUNTERS: &[&str] = &[
    "noc_svc_cache_hits_total",
    "noc_svc_cache_misses_total",
    "noc_svc_requests_coalesced_total",
    "noc_svc_queue_rejected_total",
    "noc_svc_schedules_executed_total",
    "noc_svc_schedule_errors_total",
];

pub struct Server {
    child: Child,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    store_dir: PathBuf,
}

impl Server {
    /// Spawns `noceas serve` on an ephemeral loopback port with a fresh,
    /// empty store directory and waits for the first `/healthz` 200.
    /// Every option not named here stays at its shipped default.
    pub fn boot(
        binary: &Path,
        store_dir: &Path,
        workers: usize,
        log: &Path,
    ) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(store_dir);
        let log = std::fs::File::create(log).map_err(|e| format!("server log: {e}"))?;
        let mut child = Command::new(binary)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .arg("--sched-workers")
            .arg(workers.to_string())
            .arg("--store-dir")
            .arg(store_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .rsplit("http://")
                .next()
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            store_dir: store_dir.to_owned(),
        };
        let Some(addr) = addr else {
            server.stop();
            return Err(format!("server did not announce its address: {line:?}"));
        };
        server.addr = addr;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut conn) = Conn::connect(addr) {
                if let Ok((200, _)) =
                    conn.roundtrip(b"GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n")
                {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                server.stop();
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Current values of [`COUNTERS`].
    pub fn counters(&self) -> Result<BTreeMap<&'static str, f64>, String> {
        let mut conn = Conn::connect(self.addr).map_err(|e| format!("metrics connect: {e}"))?;
        let (status, body) = conn
            .roundtrip(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
            .map_err(|e| format!("metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let text = String::from_utf8_lossy(&body);
        COUNTERS
            .iter()
            .map(|&name| {
                text.lines()
                    .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
                    .map(|v| (name, v))
                    .ok_or_else(|| format!("/metrics lacks {name}"))
            })
            .collect()
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time the server has used so far, user plus system, seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("cannot read server stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line, in USER_HZ ticks, which
        // the Linux ABI fixes at 100 per second.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) / 100.0),
            _ => Err(format!("unexpected server stat: {stat:?}")),
        }
    }

    /// Kills the server, waits for it to exit and removes its store.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read server status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in server status".into())
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(170)))?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Writes one complete request and reads its response: status and
    /// body bytes.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.reader.get_mut().write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| std::io::Error::other("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}
