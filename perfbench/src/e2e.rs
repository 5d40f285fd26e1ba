//! The three end-to-end workloads against the real daemon.

use crate::daemon::{await_answer, Conn, Daemon, Result};
use crate::load::{
    ladder, open_loop, Checker, LadderResult, Offer, PhaseResult, Request, GENERATOR_CONNS,
};
use crate::stats::{epoch_ns, median, Rng, Summary};
use crate::world::{self, Edit, EditKind, Oracle, World, PAIR_KINDS};
use pathalias_mapgen::MapSpec;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fixed workload parameters, recorded in the benchmark's README.
pub mod limits {
    /// Cold starts per run; `setup_s` is their median.
    pub const SETUPS: usize = 3;
    /// Hosts in the query-mix world (`MapSpec::small`).
    pub const QUERY_WORLD_HOSTS: usize = 100_000;
    /// query-mix reference rate, queries (QUERY + MQUERY items) per s.
    pub const QUERY_REF_RATE: f64 = 150_000.0;
    /// query-mix ladder, queries per s.
    pub const QUERY_LADDER: [f64; 8] = [
        50_000.0,
        100_000.0,
        200_000.0,
        300_000.0,
        400_000.0,
        550_000.0,
        750_000.0,
        1_000_000.0,
    ];
    /// p99 limit for a query-mix ladder rung, µs.
    pub const QUERY_P99_LIMIT_US: f64 = 5_000.0;
    /// path-mix reference rate, PATH requests per s.
    pub const PATH_REF_RATE: f64 = 200.0;
    /// path-mix ladder, PATH requests per s.
    pub const PATH_LADDER: [f64; 9] = [
        500.0, 1_000.0, 1_500.0, 2_000.0, 2_500.0, 3_200.0, 4_000.0, 5_000.0, 6_500.0,
    ];
    /// p99 limit for a path-mix ladder rung, µs.
    pub const PATH_P99_LIMIT_US: f64 = 10_000.0;
    /// reload-churn reader rate (QUERY and PATH), requests per s.
    pub const READER_RATE: f64 = 200.0;
    /// Share of the measured time spent at the reference rate; the
    /// rest goes to the ladder.
    pub const REF_SHARE: f64 = 0.6;
    /// Windows the reference phase is split into.
    pub const REF_WINDOWS: usize = 8;
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// End-to-end figures too noisy on a shared two-core host to carry
    /// a regression bound; the traced run reports them unbounded.
    pub extras: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Disagreements that are not per-request failures (counter
    /// cross-checks, generation confirmations).
    pub defects: Vec<String>,
    /// Daemon CPU seconds during the measured window.
    pub daemon_cpu_s: f64,
    /// Generator lateness p99, µs.
    pub late_us_p99: f64,
    /// Median socket latency of single `QUERY`s (or of `PATH`s on
    /// path-mix) at the reference rate, µs, with that kind; the traced
    /// run subtracts the in-process cost from it.
    pub socket_p50_us: Option<(f64, &'static str)>,
}

impl Outcome {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Paths and knobs shared by every workload.
pub struct Env {
    pub bin: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub setups: usize,
}

impl Env {
    fn daemon(&self, args: &[String], tag: &str) -> Result<Daemon> {
        Daemon::spawn(
            &self.bin,
            args,
            &self.work.join(format!("daemon-{tag}.log")),
        )
    }
}

/// Checks each reply line against a single precomputed answer table.
struct TableChecker<'a> {
    expected: &'a [String],
}

impl Checker for TableChecker<'_> {
    fn check(&self, _kind: usize, expect: u32, line: &str, _s: u64, _r: u64) -> bool {
        self.expected[expect as usize] == line
    }
}

fn files_args(world: &World) -> Vec<String> {
    world
        .files
        .iter()
        .flat_map(|f| ["--map".to_string(), f.to_string_lossy().into_owned()])
        .collect()
}

/// Starts the daemon `env.setups` times, timing each from the moment
/// `prepare` starts (the map files are already on disk) to the first
/// correct answer to `probe`. Keeps the last daemon running.
fn cold_starts(
    env: &Env,
    out: &mut Outcome,
    prepare: &dyn Fn() -> Result<Vec<String>>,
    probe: &str,
    expect: &str,
) -> Result<Daemon> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..env.setups {
        if let Some(d) = last.take() {
            Daemon::stop(d);
        }
        let t0 = Instant::now();
        let args = prepare()?;
        let d = env.daemon(&args, &format!("setup{k}"))?;
        let first = await_answer(d.addr, probe, expect, Duration::from_secs(120))?;
        times.push(first.duration_since(t0).as_secs_f64());
        last = Some(d);
    }
    println!("{}", Summary::of(&times).line("setup_s", "s"));
    out.push("setup_s", median(&times), "s");
    let d = last.as_ref().expect("at least one setup");
    let rss = d.rss_hwm_mb();
    println!("  daemon peak rss after its cold start {rss:.1} MB");
    out.push("rss_mb", rss, "MB");
    Ok(last.expect("at least one setup"))
}

fn report_phase(label: &str, r: &PhaseResult, kinds: &[&str]) -> Summary {
    let all = Summary::of(&r.all_latencies());
    println!("{}", all.line(&format!("{label}.latency"), "us"));
    for (k, name) in kinds.iter().enumerate() {
        if let Some(v) = r.lat_us.get(k) {
            if !v.is_empty() {
                println!(
                    "{}",
                    Summary::of(v).line(&format!("{label}.latency.{name}"), "us")
                );
            }
        }
    }
    println!(
        "{}",
        Summary::of(&r.late_us).line(&format!("{label}.loadgen_late"), "us")
    );
    all
}

fn report_ladder(label: &str, l: &LadderResult) {
    for r in &l.rungs {
        println!(
            "  {label}.rung offered {:>9.0} /s  served {:>11.1} /s  p50 {:>9.1} us  p99 {:>9.1} us  backlog {:>7}  failed {:>4}  daemon cpu {:>5.2}  {}{}",
            r.rate,
            r.served,
            r.p50_us,
            r.p99_us,
            r.backlog,
            r.failed,
            r.daemon_busy,
            if r.passed { "pass" } else { "FAIL" },
            if r.saturated { " saturated" } else { "" }
        );
    }
}

/// One open-loop traffic shape: its requests, their kinds, the
/// reference rate, the ladder and its p99 limit.
struct Traffic<'a> {
    label: &'static str,
    reqs: &'a [Request],
    kinds: &'a [&'a str],
    ref_rate: f64,
    ladder: &'a [f64],
    limit_us: f64,
    checker: &'a dyn Checker,
}

/// The reference-rate phase, then the ladder. Pushes `latency_us` and
/// the unbounded extras; returns the reference phase's overall latency
/// summary and the ladder.
fn measure_ref_and_ladder(
    env: &Env,
    daemon: &Daemon,
    t: &Traffic,
    out: &mut Outcome,
) -> Result<(Summary, LadderResult)> {
    let Traffic {
        label,
        reqs,
        kinds,
        ref_rate,
        ladder: rates,
        limit_us,
        checker,
    } = *t;
    let ref_window = Duration::from_secs_f64(env.seconds * limits::REF_SHARE);
    let rung =
        Duration::from_secs_f64(env.seconds * (1.0 - limits::REF_SHARE) / rates.len() as f64);
    let cpu0 = daemon.cpu_s();
    // The reference phase runs as `REF_WINDOWS` back-to-back windows;
    // the gated figures are medians over windows, so a burst of host
    // noise in one window moves them little.
    let mut r = PhaseResult {
        lat_us: vec![Vec::new(); kinds.len()],
        ..PhaseResult::default()
    };
    let (mut p50s, mut p90s, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    for w in 0..limits::REF_WINDOWS {
        let offer = Offer {
            reqs,
            start: w * reqs.len() / limits::REF_WINDOWS,
            rate: ref_rate,
            window: ref_window / limits::REF_WINDOWS as u32,
            conns: GENERATOR_CONNS,
            kinds: kinds.len(),
        };
        let thread_cpu0 = daemon.thread_cpu_s();
        let part = open_loop(daemon.addr, &offer, checker)?;
        cpus.push((daemon.thread_cpu_s() - thread_cpu0) * 1e6 / part.completed.max(1) as f64);
        let s = Summary::of(&part.all_latencies());
        p50s.push(s.p50);
        p90s.push(s.p90);
        r.merge(part);
    }
    println!(
        "{label} at the reference rate {ref_rate} /s, {} windows:",
        limits::REF_WINDOWS
    );
    let s = report_phase(label, &r, kinds);
    println!(
        "{}",
        Summary::of(&p50s).line(&format!("{label}.window_p50"), "us")
    );
    println!(
        "{}",
        Summary::of(&p90s).line(&format!("{label}.window_p90"), "us")
    );
    println!(
        "{}",
        Summary::of(&cpus).line(&format!("{label}.window_daemon_cpu_per_req"), "us")
    );
    out.push("latency_us", median(&p50s), "us");
    out.extra("e2e.p90_us", median(&p90s), "us");
    out.extra("daemon.cpu_us_per_req", median(&cpus), "us");
    out.socket_p50_us = Some(if label == "query" {
        (Summary::of(&r.lat_us[0]).p50, "query")
    } else {
        (s.p50, "path")
    });
    let mut totals = PhaseResult::default();
    let cpu = || daemon.cpu_s();
    let mut l = ladder(
        daemon.addr,
        reqs,
        rates,
        rung,
        kinds.len(),
        limit_us,
        checker,
        &cpu,
        &mut totals,
    )?;
    report_ladder(label, &l);
    // Without a saturated rung the top rung's rate is a lower bound.
    let capacity = l.capacity.unwrap_or_else(|| {
        println!(
            "  {label}: no ladder rung saturated the daemon; capacity is at least the top rung"
        );
        l.rungs.last().map_or(0.0, |r| r.served)
    });
    l.capacity = Some(capacity);
    out.extra("e2e.p99_us", s.p99, "us");
    out.extra("e2e.max_rate_per_s", l.max_rate, "1/s");
    out.extra("e2e.capacity_per_s", capacity, "1/s");
    out.daemon_cpu_s = daemon.cpu_s() - cpu0;
    r.late_us.extend(totals.late_us.iter().copied());
    out.attempted += r.attempted + totals.attempted;
    out.failed += r.failed + totals.failed;
    out.late_us_p99 = Summary::of(&r.late_us).p99;
    Ok((s, l))
}

fn finish(out: &mut Outcome, daemon: Daemon, expected: &[(&str, f64)]) -> Result<()> {
    let mut c = Conn::open(daemon.addr)?;
    c.negotiate()?;
    let keys: Vec<&str> = expected.iter().map(|e| e.0).collect();
    let got = c.scrape(&keys)?;
    for ((key, want), have) in expected.iter().zip(got) {
        println!("  scrape {key} = {have} (generator counted {want})");
        if have != *want {
            out.defects.push(format!(
                "METRICS {key} = {have}, but the generator counted {want}"
            ));
        }
    }
    let rss = daemon.rss_hwm_mb();
    println!(
        "  daemon cpu during measurement {:.3} s, peak rss at the end {rss:.1} MB",
        out.daemon_cpu_s
    );
    out.extra("daemon.rss_end_mb", rss, "MB");
    drop(c);
    daemon.stop();
    Ok(())
}

/// query-mix: QUERY and MQUERY over a 100k-host world served from map
/// files, Zipf over exact, suffix and unknown names.
pub fn query_mix(env: &Env) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(env.seed);
    let world = world::write_world(
        &MapSpec::small(limits::QUERY_WORLD_HOSTS, env.seed),
        &env.work.join("world"),
    )?;
    let oracle = Oracle::from_inputs(&world::inputs_of(&world), &world.home)?;
    let names = world::query_names(&oracle.db, &mut rng, 30_000, 30_000, 10_000);
    let reqs = world::query_requests(&names, &mut rng, 20_000, 1.0);
    let probe_i = names
        .kinds
        .iter()
        .position(|&k| k == 0)
        .expect("an exact name");
    let probe = format!("QUERY {} {}", names.names[probe_i], names.users[probe_i]);
    let mut args = files_args(&world);
    args.extend([
        "-l".into(),
        world.home.clone(),
        "--workers".into(),
        "1".into(),
    ]);
    let daemon = cold_starts(
        env,
        &mut out,
        &|| Ok(args.clone()),
        &probe,
        &names.expected[probe_i],
    )?;

    let checker = TableChecker {
        expected: &names.expected,
    };
    let traffic = Traffic {
        label: "query",
        reqs: &reqs,
        kinds: &["query", "mquery_item"],
        ref_rate: limits::QUERY_REF_RATE,
        ladder: &limits::QUERY_LADDER,
        limit_us: limits::QUERY_P99_LIMIT_US,
        checker: &checker,
    };
    let (s, l) = measure_ref_and_ladder(env, &daemon, &traffic, &mut out)?;
    println!(
        "  query_p50_us {:.3} us, query_p99_us {:.3} us, query_max_qps {:.1} /s, capacity {:.1} /s",
        s.p50,
        s.p99,
        l.max_rate,
        l.capacity.unwrap_or_default()
    );
    // Every item plus the one setup probe the kept daemon answered.
    let queries = (out.attempted + 1) as f64;
    finish(
        &mut out,
        daemon,
        &[("pathalias_queries_total{map=\"default\"}", queries)],
    )?;
    Ok(out)
}

/// path-mix: PATH over the paper-scale world, served from a `freeze
/// --ch` snapshot.
pub fn path_mix(env: &Env) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(env.seed);
    let world = world::write_world(&MapSpec::usenet_1986(env.seed), &env.work.join("world"))?;
    let oracle = Oracle::from_inputs(&world::inputs_of(&world), &world.home)?;
    let pairs = world::path_pairs(&oracle, &mut rng, 1_500);
    let mut order: Vec<usize> = (0..pairs.lines.len()).collect();
    rng.shuffle(&mut order);
    let reqs: Vec<Request> = order
        .iter()
        .map(|&i| Request {
            bytes: format!("{}\n", pairs.lines[i]).into_bytes(),
            expects: vec![i as u32],
            kind: pairs.kinds[i],
        })
        .collect();
    let pagf = env.work.join("world.pagf");
    let prepare = || -> Result<Vec<String>> {
        freeze_ch(&env.bin, &world, &pagf)?;
        Ok(vec![
            "--pagf".into(),
            pagf.to_string_lossy().into_owned(),
            "-l".into(),
            world.home.clone(),
            "--workers".into(),
            "1".into(),
        ])
    };
    let probe_i = pairs.kinds.iter().position(|&k| k == 1).unwrap_or(0);
    let daemon = cold_starts(
        env,
        &mut out,
        &prepare,
        &pairs.lines[probe_i],
        &pairs.expected[probe_i],
    )?;
    let checker = TableChecker {
        expected: &pairs.expected,
    };
    let traffic = Traffic {
        label: "path",
        reqs: &reqs,
        kinds: &PAIR_KINDS,
        ref_rate: limits::PATH_REF_RATE,
        ladder: &limits::PATH_LADDER,
        limit_us: limits::PATH_P99_LIMIT_US,
        checker: &checker,
    };
    let (s, l) = measure_ref_and_ladder(env, &daemon, &traffic, &mut out)?;
    println!(
        "  path_p50_us {:.3} us, path_p99_us {:.3} us, path_max_qps {:.1} /s, capacity {:.1} /s",
        s.p50,
        s.p99,
        l.max_rate,
        l.capacity.unwrap_or_default()
    );
    let paths = (out.attempted + 1) as f64;
    finish(
        &mut out,
        daemon,
        &[(
            "pathalias_request_latency_seconds_count{map=\"default\",verb=\"path\"}",
            paths,
        )],
    )?;
    Ok(out)
}

/// `pathalias freeze --ch -o <pagf> <files>`.
pub fn freeze_ch(bin: &Path, world: &World, pagf: &Path) -> Result<()> {
    let status = Command::new(bin)
        .arg("freeze")
        .arg("--ch")
        .arg("-o")
        .arg(pagf)
        .args(&world.files)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("freeze: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("pathalias freeze --ch failed: {status}"))
    }
}

/// Expected answers for one edit state of the reload-churn world.
struct State {
    queries: Vec<String>,
    paths: Vec<String>,
    entries: usize,
    probe: String,
}

/// One RELOAD of the closed loop.
struct ReloadSample {
    send_ns: u64,
    recv_ns: u64,
    state: usize,
    kind: EditKind,
}

/// Records reader replies for the post-run check against whichever
/// edit states could have been serving while each was in flight.
struct RecordingChecker {
    seen: Mutex<Vec<Seen>>,
}

/// One reader reply: kind, answer key, line, sent and received times.
type Seen = (usize, u32, String, u64, u64);

impl Checker for RecordingChecker {
    fn check(&self, kind: usize, expect: u32, line: &str, sent: u64, recv: u64) -> bool {
        self.seen
            .lock()
            .expect("checker lock")
            .push((kind, expect, line.to_string(), sent, recv));
        true
    }
}

/// The inputs of each edit state: state 0 is the base world, state
/// `k + 1` is edit `k` applied.
fn state_inputs(world: &World, edits: &[Edit]) -> Vec<Vec<(String, String)>> {
    let base = world::inputs_of(world);
    let mut states = vec![base.clone()];
    for e in edits {
        let mut s = base.clone();
        for (fi, text) in &e.changes {
            s[*fi].1 = text.clone();
        }
        states.push(s);
    }
    states
}

/// reload-churn: a closed loop of edit-then-RELOAD over the paper-scale
/// world's map files, beside a low-rate open loop of QUERY and PATH.
pub fn reload_churn(env: &Env) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(env.seed);
    let world = world::write_world(&MapSpec::usenet_1986(env.seed), &env.work.join("world"))?;
    let base = Oracle::from_inputs(&world::inputs_of(&world), &world.home)?;
    let names = world::query_names(&base.db, &mut rng, 200, 60, 40);
    let pairs = world::path_pairs(&base, &mut rng, 60);
    let edits = world::edit_script(&world, &mut rng, 8);
    // Expected answers per edit state; `probe` is the edited host's
    // answer in that state (state 0 holds none).
    let mut states = Vec::new();
    let mut revert_probes = Vec::new();
    for (st, inputs) in state_inputs(&world, &edits).iter().enumerate() {
        let o = if st == 0 {
            None
        } else {
            Some(Oracle::from_inputs(inputs, &world.home)?)
        };
        let o = o.as_ref().unwrap_or(&base);
        let via_dst = |line: &str| line.rsplit(' ').next().unwrap_or("").to_string();
        states.push(State {
            queries: names
                .names
                .iter()
                .zip(&names.users)
                .map(|(n, u)| o.query_line(n, u))
                .collect(),
            paths: pairs
                .ids
                .iter()
                .zip(&pairs.lines)
                .map(|(&(s, d), line)| {
                    let answer = if s == u32::MAX {
                        o.via_line(&via_dst(line))
                    } else {
                        o.path_line(s, d)
                    };
                    answer.unwrap_or_else(|| format!("404 no route to {}", via_dst(line)))
                })
                .collect(),
            entries: o.db.len(),
            probe: if st == 0 {
                String::new()
            } else {
                o.query_line(&edits[st - 1].probe, "probe")
            },
        });
    }
    for e in &edits {
        revert_probes.push(base.query_line(&e.probe, "probe"));
    }
    // Readers: 80% QUERY, 20% PATH. Kinds: 0 QUERY, 1 PATH.
    let mut reqs = Vec::new();
    for _ in 0..2_000 {
        if rng.below(5) == 0 {
            let i = rng.below(pairs.lines.len());
            reqs.push(Request {
                bytes: format!("{}\n", pairs.lines[i]).into_bytes(),
                expects: vec![i as u32],
                kind: 1,
            });
        } else {
            let i = rng.below(names.names.len());
            reqs.push(Request {
                bytes: format!("QUERY {} {}\n", names.names[i], names.users[i]).into_bytes(),
                expects: vec![i as u32],
                kind: 0,
            });
        }
    }
    let mut args = files_args(&world);
    args.extend([
        "-l".into(),
        world.home.clone(),
        "--workers".into(),
        "1".into(),
    ]);
    let probe = format!("QUERY {} {}", names.names[0], names.users[0]);
    let daemon = cold_starts(
        env,
        &mut out,
        &|| Ok(args.clone()),
        &probe,
        &states[0].queries[0],
    )?;

    // The script: every edit applied then reverted, with a no-op
    // RELOAD after every second edit.
    let mut steps: Vec<(EditKind, Option<usize>, bool)> = Vec::new();
    for (k, e) in edits.iter().enumerate() {
        steps.push((e.kind, Some(k), true));
        steps.push((e.kind, Some(k), false));
        if k % 2 == 1 {
            steps.push((EditKind::Noop, None, false));
        }
    }
    let window = Duration::from_secs_f64(env.seconds);
    let recorder = RecordingChecker {
        seen: Mutex::new(Vec::new()),
    };
    let cpu0 = daemon.cpu_s();
    let mut samples: Vec<ReloadSample> = Vec::new();
    let mut confirm_failures: Vec<String> = Vec::new();
    let (readers, loop_result) = std::thread::scope(|s| -> (Result<PhaseResult>, Result<()>) {
        let reader = s.spawn(|| {
            let offer = Offer {
                reqs: &reqs,
                start: 0,
                rate: limits::READER_RATE,
                window,
                conns: 1,
                kinds: 2,
            };
            open_loop(daemon.addr, &offer, &recorder)
        });
        let looped = (|| -> Result<()> {
            let mut c = Conn::open(daemon.addr)?;
            c.negotiate()?;
            let start = Instant::now();
            let mut state = 0usize;
            let mut i = 0usize;
            while start.elapsed() < window {
                let (kind, edit, apply) = steps[i % steps.len()];
                i += 1;
                if let Some(k) = edit {
                    for (fi, text) in &edits[k].changes {
                        let body = if apply { text } else { &world.texts[*fi] };
                        std::fs::write(&world.files[*fi], body).map_err(|e| e.to_string())?;
                    }
                    state = if apply { k + 1 } else { 0 };
                }
                let send_ns = epoch_ns(Instant::now());
                let reply = c.request("RELOAD")?;
                let recv_ns = epoch_ns(Instant::now());
                samples.push(ReloadSample {
                    send_ns,
                    recv_ns,
                    state,
                    kind,
                });
                let generation = reply
                    .strip_prefix("200 reloaded generation=")
                    .and_then(|r| r.split(' ').next())
                    .and_then(|g| g.parse::<u64>().ok());
                let health = c.request("HEALTH")?;
                let want = generation
                    .map(|g| format!("200 ok generation={g} entries={}", states[state].entries));
                if want.as_deref() != Some(health.as_str()) {
                    confirm_failures.push(format!("RELOAD gave `{reply}`, then HEALTH `{health}`"));
                }
                if let Some(k) = edit {
                    let got = c.request(&format!("QUERY {} probe", edits[k].probe))?;
                    let want = if apply {
                        &states[state].probe
                    } else {
                        &revert_probes[k]
                    };
                    if got != *want {
                        confirm_failures.push(format!(
                            "after a {} step, QUERY {} gave `{got}`, expected `{want}`",
                            kind.name(),
                            edits[k].probe
                        ));
                    }
                }
            }
            Ok(())
        })();
        (
            reader
                .join()
                .unwrap_or_else(|_| Err("reader panicked".into())),
            looped,
        )
    });
    // Leave the world as generated whatever happened.
    for (f, text) in world.files.iter().zip(&world.texts) {
        let _ = std::fs::write(f, text);
    }
    loop_result?;
    let readers = readers?;
    out.daemon_cpu_s = daemon.cpu_s() - cpu0;

    // Post-run check of every reader reply: it must match a state that
    // could have been serving while the request was in flight. State of
    // reload k may serve from its send until reload k+1 returned.
    let mut intervals: Vec<(u64, u64, usize)> = Vec::new();
    let first_recv = samples.first().map_or(u64::MAX, |s| s.recv_ns);
    intervals.push((0, first_recv, 0));
    for (k, s) in samples.iter().enumerate() {
        let until = samples.get(k + 1).map_or(u64::MAX, |n| n.recv_ns);
        intervals.push((s.send_ns, until, s.state));
    }
    let mut reader_failed = 0u64;
    for (kind, expect, line, sent, recv) in recorder.seen.lock().expect("checker lock").iter() {
        let ok = intervals.iter().any(|&(from, until, st)| {
            from <= *recv
                && until >= *sent
                && if *kind == 0 {
                    states[st].queries[*expect as usize] == *line
                } else {
                    states[st].paths[*expect as usize] == *line
                }
        });
        if !ok {
            reader_failed += 1;
        }
    }
    println!(
        "readers at {} /s beside the reload loop:",
        limits::READER_RATE
    );
    report_phase("reader", &readers, &["query", "path"]);
    let qs = Summary::of(&readers.lat_us[0]);
    out.socket_p50_us = Some((qs.p50, "query"));
    let ps = Summary::of(&readers.lat_us[1]);
    println!(
        "  query_p50_us {:.3} us, query_p99_us {:.3} us, path_p50_us {:.3} us, path_p99_us {:.3} us",
        qs.p50, qs.p99, ps.p50, ps.p99
    );
    let lat_ms: Vec<f64> = samples
        .iter()
        .map(|s| (s.recv_ns - s.send_ns) as f64 / 1e6)
        .collect();
    let all = Summary::of(&lat_ms);
    println!("{}", all.line("reload", "ms"));
    for kind in [
        EditKind::Noop,
        EditKind::CostBump,
        EditKind::LinkAdd,
        EditKind::LinkRemove,
        EditKind::HomeRow,
        EditKind::Statement,
        EditKind::TwoFile,
    ] {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.recv_ns - s.send_ns) as f64 / 1e6)
            .collect();
        if !v.is_empty() {
            println!(
                "{}",
                Summary::of(&v).line(&format!("reload.{}", kind.name()), "ms")
            );
        }
    }
    println!(
        "  reload_p50_ms {:.3} ms, reload_p90_ms {:.3} ms over {} reloads ({} edits in the script)",
        all.p50,
        all.p90,
        samples.len(),
        edits.len()
    );
    let reload_rate = samples.len() as f64 / window.as_secs_f64();
    out.extra("e2e.p99_us", all.p99 * 1e3, "us");
    out.extra("e2e.max_rate_per_s", reload_rate, "1/s");
    out.extra("e2e.capacity_per_s", reload_rate, "1/s");
    // Reload latencies fall in three modes (no-op, delta, full) whose
    // shares differ from seed to seed, which moves the median from one
    // mode to another; the mean moves only by the shares.
    out.push("latency_us", all.mean * 1e3, "us");
    out.extra("e2e.p90_us", all.p90 * 1e3, "us");
    out.extra(
        "daemon.cpu_us_per_req",
        out.daemon_cpu_s * 1e6 / samples.len().max(1) as f64,
        "us",
    );
    println!(
        "  {reload_rate:.2} reloads/s closed loop; daemon cpu {:.3} s",
        out.daemon_cpu_s
    );
    out.attempted = readers.attempted + samples.len() as u64;
    out.failed = readers.failed + reader_failed + confirm_failures.len() as u64;
    out.late_us_p99 = Summary::of(&readers.late_us).p99;
    for f in confirm_failures.iter().take(5) {
        out.defects.push(f.clone());
    }
    // Reader QUERYs, the setup probe, and one probe QUERY after every
    // RELOAD that applied or reverted an edit.
    let query_items = readers.lat_us[0].len() as f64;
    let probes = samples.iter().filter(|s| s.kind != EditKind::Noop).count() as f64;
    finish(
        &mut out,
        daemon,
        &[
            (
                "pathalias_reloads_total{map=\"default\"}",
                samples.len() as f64,
            ),
            (
                "pathalias_queries_total{map=\"default\"}",
                query_items + 1.0 + probes,
            ),
        ],
    )?;
    Ok(out)
}
