//! Estimators and small shared utilities: order statistics, a seeded
//! RNG, a Zipf sampler, and the few raw syscalls the load generator
//! needs for sub-millisecond scheduling.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds from the process epoch to `t`: the one clock that the
/// generator threads, the reload loop and the checkers share.
pub fn epoch_ns(t: Instant) -> u64 {
    let e = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(e).as_nanos() as u64
}

/// Order statistics of one timing (or count) series. Every timing the
/// benchmark reports goes through this: mean, median and quartiles
/// with the sample count, never a best batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        Summary {
            n: v.len(),
            mean,
            p25: quantile(&v, 0.25),
            p50: quantile(&v, 0.50),
            p75: quantile(&v, 0.75),
            p90: quantile(&v, 0.90),
            p99: quantile(&v, 0.99),
        }
    }

    /// One human-readable report line.
    pub fn line(&self, name: &str, unit: &str) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "  {name:<40} median {:>12.3} {unit:<5} mean {:>12.3}  q1 {:>12.3}  q3 {:>12.3}  p90 {:>12.3}  p99 {:>12.3}  n={}",
            self.p50, self.mean, self.p25, self.p75, self.p90, self.p99, self.n
        );
        s
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Median of an unsorted series.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// SplitMix64: small, seedable, good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Raw syscalls, bound against the libc `std` already links.
pub mod sys {
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, ts: *const Timespec, sigmask: *const u8) -> i32;
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    const PR_SET_TIMERSLACK: i32 = 29;

    /// Waits for `events` on `fd` for at most `timeout`, with
    /// nanosecond resolution (`poll`/`epoll_wait` round to
    /// milliseconds, too coarse for a schedule of microsecond gaps).
    /// Returns the ready events (0 on timeout or interruption).
    pub fn wait_fd(fd: RawFd, events: i16, timeout: Duration) -> i16 {
        let mut pfd = PollFd {
            fd,
            events,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as i64,
        };
        // SAFETY: `pfd` and `ts` are live stack values for the whole
        // call; a null signal mask leaves the mask unchanged.
        let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        if n > 0 {
            pfd.revents
        } else {
            0
        }
    }

    /// Shrinks this thread's timer slack to 1 ns, so timed waits wake
    /// when asked rather than up to 50 µs later.
    pub fn tight_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and
        // touches only the calling thread's scheduling state.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
        }
    }

    /// Clock ticks per second for `/proc/<pid>/stat` CPU fields.
    const CLK_TCK: f64 = 100.0;

    /// Peak resident set (`VmHWM`) of `pid`, in MB.
    pub fn rss_hwm_mb(pid: u32) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// CPU time the live threads of `pid` have run, in seconds, at
    /// nanosecond resolution (`schedstat`); threads that already
    /// exited are not counted.
    pub fn thread_cpu_s(pid: u32) -> Option<f64> {
        let mut ns = 0u64;
        for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
            let path = task.ok()?.path().join("schedstat");
            let stat = std::fs::read_to_string(path).unwrap_or_default();
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
        Some(ns as f64 / 1e9)
    }

    /// User plus system CPU seconds `pid` has used, exited threads
    /// included, at clock-tick resolution.
    pub fn cpu_s(pid: u32) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / CLK_TCK)
    }
}
