//! The server process: spawned at its default configuration on a free
//! loopback port, probed for readiness with a `.catalog` round trip,
//! sampled through `/proc/<pid>`, and killed (and reaped) on drop.

use crate::wire::Conn;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// Longest a server may take from spawn to its first `.catalog` reply.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `tlc-serve`.
pub struct Server {
    child: Child,
    /// The loopback address it listens on.
    pub addr: SocketAddr,
    /// Spawn to first `.catalog` reply.
    pub setup: Duration,
}

/// The server's command line, as spawned (the port varies per run).
pub fn command_line(factor: f64, port: &str) -> String {
    format!("tlc-serve --factor {factor} --tcp 127.0.0.1:{port}")
}

/// A port nothing listens on right now. `tlc-serve` echoes its `--tcp`
/// argument, so binding port 0 there would never reveal the port; the
/// harness picks one itself and retries if the server loses the race for it.
fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Server {
    /// Spawns `bin --factor F --tcp 127.0.0.1:PORT` and waits until it
    /// answers `.catalog`.
    pub fn spawn(bin: &Path, factor: f64) -> io::Result<Server> {
        let mut last_err = None;
        for _ in 0..5 {
            match Self::try_spawn(bin, factor) {
                Ok(server) => return Ok(server),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one attempt"))
    }

    fn try_spawn(bin: &Path, factor: f64) -> io::Result<Server> {
        let port = free_port()?;
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let started = Instant::now();
        let child = Command::new(bin)
            .args(["--factor", &factor.to_string(), "--tcp", &addr.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", bin.display())))?;
        let mut server = Server { child, addr, setup: Duration::ZERO };
        loop {
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!("tlc-serve exited early: {status}")));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other("tlc-serve did not become ready"));
            }
            match Conn::connect(addr) {
                Ok(mut conn) => {
                    conn.request_text(".catalog")?;
                    server.setup = started.elapsed();
                    return Ok(server);
                }
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        }
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// User + system CPU time the server has used so far, in ms.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesized command name; utime and stime are
        // fields 14 and 15 of the whole line, 12th and 13th after it.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other(format!("unreadable /proc stat: {stat:?}")))
        };
        Ok((tick(11)? + tick(12)?) / USER_HZ * 1e3)
    }

    /// Peak resident set size (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors only mean the process is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
