//! The open-loop load generator.
//!
//! Requests go out on a fixed schedule whatever the daemon does: request
//! `i` is due at `t0 + items_before(i) / rate`, so the offered item rate
//! is constant and a stall delays every later request instead of
//! quietly lowering the load. Each item's latency runs from when its
//! request was *due*, not when it was sent, so generator lateness and
//! queueing both count. One thread per connection, pipelined, reading
//! replies in order; a thread waits with nanosecond `ppoll` timeouts
//! so it neither spins nor oversleeps a microsecond schedule.

use crate::daemon::Result;
use crate::stats::{epoch_ns, sys, Summary};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Connections (one generator thread each) for the open-loop phases:
/// the host's two cores.
pub const GENERATOR_CONNS: usize = 2;

/// One wire request: its bytes (newline included), the answer key of
/// each response line it produces, and a kind used to split latencies.
pub struct Request {
    pub bytes: Vec<u8>,
    pub expects: Vec<u32>,
    pub kind: usize,
}

/// Decides whether a response line is correct. Called after the line's
/// receive time was taken, so checking is outside the timed region.
/// Times are nanoseconds since the process epoch ([`epoch_ns`]).
pub trait Checker: Sync {
    fn check(&self, kind: usize, expect: u32, line: &str, sent_ns: u64, recv_ns: u64) -> bool;
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct PhaseResult {
    /// Per-kind item latencies from the due time, µs.
    pub lat_us: Vec<Vec<f64>>,
    /// Per-request send lateness (sent minus due), µs.
    pub late_us: Vec<f64>,
    /// Items scheduled.
    pub attempted: u64,
    /// Items answered wrongly, refused or never answered.
    pub failed: u64,
    /// Items answered (right or wrong).
    pub completed: u64,
    /// Items answered before the sending window closed.
    pub completed_in_window: u64,
    /// Items still unanswered when the sending window closed.
    pub backlog_end: u64,
    /// The sending window, s.
    pub window_s: f64,
}

impl PhaseResult {
    pub fn all_latencies(&self) -> Vec<f64> {
        self.lat_us.iter().flatten().copied().collect()
    }

    pub fn merge(&mut self, other: PhaseResult) {
        if self.lat_us.len() < other.lat_us.len() {
            self.lat_us.resize(other.lat_us.len(), Vec::new());
        }
        for (k, v) in other.lat_us.into_iter().enumerate() {
            self.lat_us[k].extend(v);
        }
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.completed_in_window += other.completed_in_window;
        self.backlog_end += other.backlog_end;
        self.window_s = self.window_s.max(other.window_s);
    }
}

/// Offered load: `rate` items per second for `window`, spread over
/// `conns` connections, cycling through `reqs` from `start`.
pub struct Offer<'a> {
    pub reqs: &'a [Request],
    pub start: usize,
    pub rate: f64,
    pub window: Duration,
    pub conns: usize,
    pub kinds: usize,
}

/// Runs one open-loop phase and waits until every reply arrived (or a
/// drain deadline passed, counting the rest as failed).
pub fn open_loop(addr: SocketAddr, offer: &Offer, checker: &dyn Checker) -> Result<PhaseResult> {
    // Items before request `i` of the cyclic request list.
    let mut prefix = Vec::with_capacity(offer.reqs.len() + 1);
    let mut acc = 0u64;
    prefix.push(0);
    for r in offer.reqs {
        acc += r.expects.len() as u64;
        prefix.push(acc);
    }
    let total = acc;
    let len = offer.reqs.len();
    let items_at = |g: usize| -> u64 { (g / len) as u64 * total + prefix[g % len] };
    let items_before = |i: usize| -> u64 { items_at(offer.start + i) - items_at(offer.start) };
    let ns_per_item = 1e9 / offer.rate;
    let due_ns = |i: usize| -> u64 { (items_before(i) as f64 * ns_per_item) as u64 };

    let mut streams = Vec::new();
    for _ in 0..offer.conns {
        streams.push(TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    }
    let t0 = Instant::now() + Duration::from_millis(5);
    let t0_epoch = epoch_ns(t0);
    let results: Vec<Result<PhaseResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let due_ns = &due_ns;
                s.spawn(move || run_conn(stream, c, offer, due_ns, t0, t0_epoch, checker))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut out = PhaseResult {
        lat_us: vec![Vec::new(); offer.kinds],
        ..PhaseResult::default()
    };
    for r in results {
        out.merge(r?);
    }
    Ok(out)
}

struct Pending {
    due_ns: u64,
    sent_ns: u64,
    kind: usize,
    expect: u32,
}

fn run_conn(
    mut stream: TcpStream,
    c: usize,
    offer: &Offer,
    due_ns: &dyn Fn(usize) -> u64,
    t0: Instant,
    t0_epoch: u64,
    checker: &dyn Checker,
) -> Result<PhaseResult> {
    sys::tight_timer_slack();
    let drain = Duration::from_secs(5);
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    // Every connection speaks v2 before the clock starts.
    stream.write_all(b"PROTO 2\n").map_err(|e| e.to_string())?;
    let mut one = [0u8; 64];
    let mut hello = Vec::new();
    while !hello.ends_with(b"\n") {
        let n = stream.read(&mut one).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed during PROTO 2".into());
        }
        hello.extend_from_slice(&one[..n]);
    }
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let fd = stream.as_raw_fd();

    let window_ns = offer.window.as_nanos() as u64;
    let mut out = PhaseResult {
        lat_us: vec![Vec::new(); offer.kinds],
        window_s: offer.window.as_secs_f64(),
        ..PhaseResult::default()
    };
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut wbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut wpos = 0usize;
    let mut rbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut i = c;
    let mut sending = true;
    let now_ns = || Instant::now().saturating_duration_since(t0).as_nanos() as u64;
    loop {
        let now = now_ns();
        while sending {
            let due = due_ns(i);
            if due >= window_ns {
                sending = false;
                out.backlog_end = pending.len() as u64;
                break;
            }
            if due > now {
                break;
            }
            let r = &offer.reqs[(offer.start + i) % offer.reqs.len()];
            wbuf.extend_from_slice(&r.bytes);
            out.late_us.push((now - due) as f64 / 1e3);
            for &expect in &r.expects {
                pending.push_back(Pending {
                    due_ns: due,
                    sent_ns: now,
                    kind: r.kind,
                    expect,
                });
            }
            out.attempted += r.expects.len() as u64;
            i += offer.conns;
        }
        if wpos < wbuf.len() {
            match stream.write(&wbuf[wpos..]) {
                Ok(n) => wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("send: {e}")),
            }
            if wpos == wbuf.len() {
                wbuf.clear();
                wpos = 0;
            }
        }
        let mut closed = false;
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    let recv = now_ns();
                    rbuf.extend_from_slice(&chunk[..n]);
                    let mut consumed = 0;
                    while let Some(nl) = rbuf[consumed..].iter().position(|&b| b == b'\n') {
                        let line = &rbuf[consumed..consumed + nl];
                        consumed += nl + 1;
                        let Some(p) = pending.pop_front() else {
                            return Err("reply with no request outstanding".into());
                        };
                        out.lat_us[p.kind].push(recv.saturating_sub(p.due_ns) as f64 / 1e3);
                        out.completed += 1;
                        if recv < window_ns {
                            out.completed_in_window += 1;
                        }
                        let text = std::str::from_utf8(line).unwrap_or("");
                        if !checker.check(
                            p.kind,
                            p.expect,
                            text,
                            t0_epoch + p.sent_ns,
                            t0_epoch + recv,
                        ) {
                            out.failed += 1;
                        }
                    }
                    rbuf.drain(..consumed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        let now = now_ns();
        let deadline = window_ns + drain.as_nanos() as u64;
        if !sending && (pending.is_empty() || closed || now > deadline) {
            out.failed += pending.len() as u64;
            break;
        }
        if closed {
            return Err("daemon closed the connection mid-phase".into());
        }
        let wake = if sending {
            due_ns(i).min(deadline)
        } else {
            deadline
        };
        let timeout = Duration::from_nanos(wake.saturating_sub(now));
        if !timeout.is_zero() {
            let events = if wpos < wbuf.len() {
                sys::POLLIN | sys::POLLOUT
            } else {
                sys::POLLIN
            };
            sys::wait_fd(fd, events, timeout);
        }
    }
    Ok(out)
}

/// One rung of a throughput ladder.
pub struct Rung {
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Items answered per second within the sending window.
    pub served: f64,
    pub backlog: u64,
    pub failed: u64,
    /// p99 within the limit, backlog not growing, nothing failed.
    pub passed: bool,
    /// The backlog grew past `SATURATED_BACKLOG` of the rung's items:
    /// the daemon could not keep up.
    pub saturated: bool,
    /// Daemon CPU seconds per second of the rung (1.0 = one core).
    pub daemon_busy: f64,
}

/// Share of a rung's items still queued at its end that marks the
/// daemon as saturated. A scheduling stall of a few milliseconds leaves
/// well under 1% behind; an offered rate 5% over capacity leaves 5%.
pub const SATURATED_BACKLOG: f64 = 0.05;

/// What a ladder found.
pub struct LadderResult {
    pub rungs: Vec<Rung>,
    /// The highest rung, below the first failing one, that passed.
    pub max_rate: f64,
    /// Items served per second within the window of the first
    /// saturated rung: the daemon's capacity, measured while it had
    /// more work than it could do.
    pub capacity: Option<f64>,
}

/// Climbs `rates` with open-loop phases of `rung` each. A rung passes
/// when its p99 stays within `limit_us`, its backlog stays within one
/// limit's worth of arrivals and no request fails. The climb goes on
/// past failing rungs until one saturates the daemon, so both the
/// highest passing rate and the saturated capacity are measured.
#[allow(clippy::too_many_arguments)]
pub fn ladder(
    addr: SocketAddr,
    reqs: &[Request],
    rates: &[f64],
    rung: Duration,
    kinds: usize,
    limit_us: f64,
    checker: &dyn Checker,
    daemon_cpu_s: &dyn Fn() -> f64,
    totals: &mut PhaseResult,
) -> Result<LadderResult> {
    let mut out = LadderResult {
        rungs: Vec::new(),
        max_rate: 0.0,
        capacity: None,
    };
    let mut start = 0;
    let mut failed_once = false;
    for &rate in rates {
        let offer = Offer {
            reqs,
            start,
            rate,
            window: rung,
            conns: GENERATOR_CONNS,
            kinds,
        };
        let cpu0 = daemon_cpu_s();
        let r = open_loop(addr, &offer, checker)?;
        let daemon_busy = (daemon_cpu_s() - cpu0) / rung.as_secs_f64();
        start += (rate * rung.as_secs_f64()) as usize;
        let lat = Summary::of(&r.all_latencies());
        let backlog_limit = (rate * limit_us / 1e6).max(1.0) as u64;
        let passed = lat.p99 <= limit_us && r.backlog_end <= backlog_limit && r.failed == 0;
        let saturated = r.backlog_end as f64 > SATURATED_BACKLOG * r.attempted as f64;
        let served = r.completed_in_window as f64 / r.window_s;
        out.rungs.push(Rung {
            rate,
            p50_us: lat.p50,
            p99_us: lat.p99,
            served,
            backlog: r.backlog_end,
            failed: r.failed,
            passed,
            saturated,
            daemon_busy,
        });
        if passed && !failed_once {
            out.max_rate = served;
        }
        failed_once |= !passed;
        totals.attempted += r.attempted;
        totals.failed += r.failed;
        totals.late_us.extend(r.late_us);
        if saturated {
            out.capacity = Some(served);
            break;
        }
    }
    Ok(out)
}
