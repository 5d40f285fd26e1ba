//! The daemon under test: spawning the release `pathalias serve`
//! binary, reading its resources from `/proc`, and a blocking
//! line-protocol connection for probes, reloads and scrapes.

use crate::stats::sys;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

/// A running `pathalias serve` process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin serve <args> --listen 127.0.0.1:0` and waits for
    /// its announce line. Diagnostics go to `log`.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Daemon> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .env("PATHALIAS_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(a) = line.strip_prefix("pathalias-server listening on tcp ") {
                        break a.trim().parse::<SocketAddr>().map_err(|e| e.to_string())?;
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "daemon exited before listening; see {}",
                        log.display()
                    ));
                }
            }
        };
        // The announce lines are all the daemon prints on stdout; the
        // pipe's reader is dropped here and the daemon ignores write
        // errors on it.
        Ok(Daemon { child, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn rss_hwm_mb(&self) -> f64 {
        sys::rss_hwm_mb(self.pid()).unwrap_or(0.0)
    }

    pub fn cpu_s(&self) -> f64 {
        sys::cpu_s(self.pid()).unwrap_or(0.0)
    }

    /// CPU seconds of the daemon's live threads, ns resolution.
    pub fn thread_cpu_s(&self) -> f64 {
        sys::thread_cpu_s(self.pid()).unwrap_or(0.0)
    }

    /// Asks for a graceful `SHUTDOWN`, then kills if the daemon has
    /// not exited within a few seconds. Always reaps the process.
    pub fn stop(mut self) {
        if let Ok(mut c) = Conn::open(self.addr) {
            let _ = c.negotiate();
            let _ = c.send_line("SHUTDOWN");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A blocking request/response connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
        })
    }

    pub fn send_line(&mut self, line: &str) -> Result<()> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    pub fn read_line(&mut self) -> Result<String> {
        let mut s = String::new();
        match self.reader.read_line(&mut s) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(s.trim_end_matches(['\n', '\r']).to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    pub fn request(&mut self, line: &str) -> Result<String> {
        self.send_line(line)?;
        self.read_line()
    }

    /// Switches the connection to protocol v2 (`MQUERY`, `PATH`,
    /// `METRICS`, `SHUTDOWN`).
    pub fn negotiate(&mut self) -> Result<()> {
        let r = self.request("PROTO 2")?;
        if r == "200 proto=2" {
            Ok(())
        } else {
            Err(format!("PROTO 2 refused: {r}"))
        }
    }

    /// Scrapes `METRICS` and returns the value of each requested
    /// series, named with its labels as exposed (v2 connection). A
    /// series the daemon does not expose reads as NaN.
    pub fn scrape(&mut self, names: &[&str]) -> Result<Vec<f64>> {
        let head = self.request("METRICS")?;
        let n: usize = head
            .strip_prefix("200 metrics lines=")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad METRICS header: {head}"))?;
        let mut out = vec![f64::NAN; names.len()];
        for _ in 0..n {
            let line = self.read_line()?;
            for (i, name) in names.iter().enumerate() {
                let matches =
                    line.starts_with(name) && line.as_bytes().get(name.len()) == Some(&b' ');
                if matches && out[i].is_nan() {
                    if let Some(v) = line.rsplit(' ').next().and_then(|v| v.parse().ok()) {
                        out[i] = v;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Polls `probe` against a fresh connection until it returns the
/// expected line or `timeout` passes. Returns when the daemon first
/// answered correctly.
pub fn await_answer(
    addr: SocketAddr,
    probe: &str,
    expect: &str,
    timeout: Duration,
) -> Result<Instant> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut c) = Conn::open(addr) {
            c.negotiate()?;
            let got = c.request(probe)?;
            if got == expect {
                return Ok(Instant::now());
            }
            return Err(format!(
                "first answer wrong: `{probe}` gave `{got}`, expected `{expect}`"
            ));
        }
        if Instant::now() > deadline {
            return Err(format!("no answer from {addr} within {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}
