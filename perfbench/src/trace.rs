//! The traced run: per-layer metrics from in-process calls.
//!
//! After the workload has run once against the daemon (one cold start,
//! same inputs), this module calls each layer's public functions from
//! the benchmark's own code on the same generated inputs, recording a
//! span (name, start, end, parent, request id) around every call. The
//! spans stay in memory and are written out at the end as JSON lines;
//! self times come from them, and two reconciliations check that the
//! layers add up:
//!
//! * the cold-start layers (build, freeze, map, print, RouteDb, engine)
//!   against the in-process cold start that contains them;
//! * `MapSource::load_serving_timed`'s own `PhaseTimings` plus the
//!   engine build against the wall time of the load.
//!
//! Whatever does not add up is reported as `unattributed`.

use crate::daemon::Result;
use crate::e2e::{Env, Metric, Outcome};
use crate::stats::{median, Rng, Summary};
use crate::world::{self, EditKind, Oracle, World};
use pathalias_core::{plan_delta, CostModel, DeltaPlan, Frozen, Parsed, PhaseTimings};
use pathalias_mailer::{Resolver, RouteDb, SharedRouteDb};
use pathalias_mapgen::MapSpec;
use pathalias_router::PointToPoint;
use pathalias_server::{parse_request, Cached, MapSource, MapTelemetry, Metrics, ProtoVersion};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
    /// Calls inside the span (batched spans time many calls at once).
    calls: u32,
}

/// In-memory span recorder.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a new request id: spans until the next call share it.
    fn next_req(&mut self) -> u64 {
        self.req += 1;
        self.req
    }

    /// Records `f` as one span of `calls` calls.
    fn batch<T>(&mut self, name: &'static str, calls: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
            calls,
        });
        self.stack.push(idx);
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.stack.pop();
        self.spans[idx].start_ns = start;
        self.spans[idx].end_ns = end;
        out
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.batch(name, 1, f)
    }

    /// Per-call durations of every span named `name`, in ns.
    fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / s.calls.max(1) as f64)
            .collect()
    }

    fn ms(&self, name: &str) -> Vec<f64> {
        self.per_call_ns(name).iter().map(|v| v / 1e6).collect()
    }

    /// Self time of each span: its duration minus what its children
    /// cover, in ns, grouped by name.
    fn self_times(&self) -> Vec<(&'static str, Vec<f64>)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]) as f64;
            match by.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => v.push(own),
                None => by.push((s.name, vec![own])),
            }
        }
        by
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}, \"calls\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.calls
            );
        }
        std::fs::write(path, out)
    }
}

/// Collects metrics and prints every timing's estimators as it goes.
struct Report {
    metrics: Vec<Metric>,
    /// Disagreements between layers that should answer alike.
    defects: Vec<String>,
}

impl Report {
    fn timing(&mut self, name: &str, unit: &'static str, values: &[f64]) -> f64 {
        let s = Summary::of(values);
        println!("{}", s.line(name, unit));
        self.value(name, unit, s.p50)
    }

    fn value(&mut self, name: &str, unit: &'static str, v: f64) -> f64 {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: v,
            unit,
        });
        v
    }

    fn ratio(&mut self, name: &str, num: (&str, f64), den: (&str, f64)) {
        let r = num.1 / den.1;
        println!(
            "  {name:<40} {r:.4} = {} {:.3} / {} {:.3}",
            num.0, num.1, den.0, den.1
        );
        self.value(name, "ratio", r);
    }
}

/// The world a workload runs on, rebuilt from the seed.
fn world_for(workload: &str, env: &Env) -> Result<World> {
    let spec = match workload {
        "query-mix" => MapSpec::small(crate::e2e::limits::QUERY_WORLD_HOSTS, env.seed),
        _ => MapSpec::usenet_1986(env.seed),
    };
    world::write_world(&spec, &env.work.join("trace-world"))
}

/// The cold-start sequence the traced run records, with no spans:
/// its wall time in ms.
fn untraced_cold_start(world: &World, opts: &pathalias_core::Options) -> Result<f64> {
    let t0 = Instant::now();
    let mut parsed = Parsed::new();
    parsed.push_files(&world.files).map_err(|e| e.to_string())?;
    let frozen = parsed.build(opts).map_err(|e| e.to_string())?.freeze();
    let mapped = frozen.map(opts).map_err(|e| e.to_string())?;
    let printed = mapped.print(opts);
    let db = RouteDb::from_table(&printed.routes);
    let engine = PointToPoint::new(mapped.tree.frozen().clone(), CostModel::default());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    drop((parsed, frozen, mapped, printed, db, engine));
    Ok(ms)
}

/// Runs the traced layer calls for `workload` and returns the
/// per-layer metrics and any disagreement found between layers.
pub fn layers(workload: &str, env: &Env, outcome: &Outcome) -> Result<(Vec<Metric>, Vec<String>)> {
    let big = workload == "query-mix";
    let world = world_for(workload, env)?;
    let mut rng = Rng::new(env.seed ^ 0x0074_7261_6365);
    let mut t = Tracer::new();
    let mut rep = Report {
        metrics: Vec::new(),
        defects: Vec::new(),
    };
    let opts = world::options(&world.home);
    println!("traced run over the {workload} inputs:");

    // Cold start, traced and untraced, in-process.
    let reps = if big { 2 } else { 5 };
    let mut traced_total = Vec::new();
    let mut untraced_total = Vec::new();
    let mut unattributed = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        // Alternate which variant runs first, so neither always meets
        // the warmer caches and allocator.
        if rep % 2 == 0 {
            untraced_total.push(untraced_cold_start(&world, &opts)?);
        }
        t.next_req();
        let before = t.spans.len();
        let out = t.span("cold_start", |t| -> Result<_> {
            let parsed = t.span("parser.read", |_| {
                let mut p = Parsed::new();
                p.push_files(&world.files).map(|_| p)
            });
            let parsed = parsed.map_err(|e| e.to_string())?;
            let built = t.span("parser.build", |_| parsed.build(&opts));
            let built = built.map_err(|e| e.to_string())?;
            let frozen = t.span("graph.freeze", |_| built.freeze());
            let mapped = t.span("mapper.map", |_| frozen.map(&opts));
            let mapped = mapped.map_err(|e| e.to_string())?;
            let printed = t.span("printer.print", |_| mapped.print(&opts));
            let db = t.span("mailer.routedb_build", |_| {
                RouteDb::from_table(&printed.routes)
            });
            let engine = t.span("router.engine_build", |_| {
                PointToPoint::new(mapped.tree.frozen().clone(), CostModel::default())
            });
            Ok((parsed, frozen, mapped, printed, db, engine))
        })?;
        let root = &t.spans[before];
        let total = (root.end_ns - root.start_ns) as f64;
        let kids: u64 = t.spans[before + 1..]
            .iter()
            .filter(|s| s.parent == Some(before))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        traced_total.push(total / 1e6);
        unattributed.push((total - kids as f64) / 1e6);
        last = Some(out);
        if rep % 2 == 1 {
            untraced_total.push(untraced_cold_start(&world, &opts)?);
        }
    }
    let (_, frozen, _, _, db, _) = last.expect("at least one cold start");
    rep.timing("parser.read_ms", "ms", &t.ms("parser.read"));
    rep.timing("parser.build_ms", "ms", &t.ms("parser.build"));
    rep.timing("graph.freeze_ms", "ms", &t.ms("graph.freeze"));
    rep.timing("mapper.map_ms", "ms", &t.ms("mapper.map"));
    rep.timing("printer.print_ms", "ms", &t.ms("printer.print"));
    rep.timing(
        "mailer.routedb_build_ms",
        "ms",
        &t.ms("mailer.routedb_build"),
    );
    rep.timing("router.engine_build_ms", "ms", &t.ms("router.engine_build"));
    let cold = rep.timing("cold_start.traced_ms", "ms", &traced_total);
    let bare = rep.timing("cold_start.untraced_ms", "ms", &untraced_total);
    rep.timing("reconcile.cold_start_unattributed_ms", "ms", &unattributed);
    rep.value("trace.overhead_pct", "%", (cold - bare) / bare * 100.0);

    // Snapshot load: the frozen stage written as PAGF1 and read back;
    // on path-mix with the contraction hierarchy `freeze --ch` stores.
    let pagf = env.work.join("trace.pagf");
    let frozen_out = if workload == "path-mix" {
        let g = frozen.graph().clone();
        let ch = t.span("router.ch_freeze_build", |_| {
            let w = pathalias_router::ch_weights(&g, &CostModel::default());
            pathalias_core::ChIndex::build(&g, &w)
        });
        frozen.clone().with_hierarchy(Arc::new(ch))
    } else {
        frozen.clone()
    };
    frozen_out
        .write_snapshot_all(&pagf)
        .map_err(|e| format!("writing snapshot: {e}"))?;
    for _ in 0..5 {
        t.next_req();
        let loaded = t.span("graph.pagf_load", |_| Frozen::from_snapshot(&pagf));
        loaded.map_err(|e| format!("loading snapshot: {e}"))?;
    }
    rep.timing("graph.pagf_load_ms", "ms", &t.ms("graph.pagf_load"));

    drop(frozen);
    resolve_layers(&mut t, &mut rep, &mut rng, db, outcome, big)?;

    // The router and reload layers run on the paper-scale world of the
    // same seed: the path-mix and reload-churn inputs. On query-mix's
    // 100k-host world a contraction hierarchy takes minutes to build.
    let paper_world = if big {
        world::write_world(
            &MapSpec::usenet_1986(env.seed),
            &env.work.join("trace-paper"),
        )?
    } else {
        world
    };
    let paper = Oracle::from_inputs(&world::inputs_of(&paper_world), &paper_world.home)?;
    let engine_ms = router_layers(&mut t, &mut rep, &mut rng, &paper, outcome)?;
    reload_layers(&mut t, &mut rep, &mut rng, &paper_world, engine_ms)?;

    rep.value("daemon.cpu_s", "s", outcome.daemon_cpu_s);
    rep.value("loadgen.late_us_p99", "us", outcome.late_us_p99);
    for m in &outcome.extras {
        rep.value(&m.name, m.unit, m.value);
    }

    println!("self times (span duration minus its children):");
    for (name, v) in t.self_times() {
        println!(
            "{}",
            Summary::of(&v.iter().map(|x| x / 1e6).collect::<Vec<_>>())
                .line(&format!("self.{name}"), "ms")
        );
    }
    let spans = env
        .work
        .parent()
        .unwrap_or(&env.work)
        .join(format!("trace-{workload}-{}.jsonl", env.seed));
    t.write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    println!("  {} spans written to {}", t.spans.len(), spans.display());
    Ok((rep.metrics, rep.defects))
}

/// Resolver, cache, protocol and telemetry layers over the workload's
/// name population.
fn resolve_layers(
    t: &mut Tracer,
    rep: &mut Report,
    rng: &mut Rng,
    db: RouteDb,
    outcome: &Outcome,
    big: bool,
) -> Result<()> {
    let (e, s, m) = if big {
        (30_000, 30_000, 10_000)
    } else {
        (4_000, 4_000, 1_000)
    };
    let names = world::query_names(&db, rng, e, s, m);
    let shared = SharedRouteDb::new(db);
    const BATCH: u32 = 2_000;
    let batches = 25;
    // One span name per name kind (`world::query_names`' kinds).
    let spans = [
        "mailer.resolve_exact",
        "mailer.resolve_suffix",
        "mailer.resolve_miss",
    ];
    for (kind, name) in spans.into_iter().enumerate() {
        let of_kind: Vec<usize> = (0..names.names.len())
            .filter(|&i| names.kinds[i] == kind)
            .collect();
        for b in 0..batches {
            t.next_req();
            t.batch(name, BATCH, |_| {
                for k in 0..BATCH as usize {
                    let i = of_kind[(b * BATCH as usize + k) % of_kind.len()];
                    let _ = std::hint::black_box(shared.resolve(&names.names[i], &names.users[i]));
                }
            });
        }
        rep.timing(&format!("{name}_ns"), "ns", &t.per_call_ns(name));
    }

    // The Zipf stream the query-mix generator sends, as request lines.
    let reqs = world::query_requests(&names, rng, 4_000, 1.0);
    let items: Vec<(usize, String)> = reqs
        .iter()
        .flat_map(|r| r.expects.iter().map(|&i| i as usize))
        .map(|i| (i, format!("QUERY {} {}", names.names[i], names.users[i])))
        .collect();
    let n = items.len();
    let chunk = 4_000usize.min(n);
    let rounds = (n / chunk).max(1);
    // Two caches fed the same stream, so the bare and the recorded
    // resolve see the same hits, misses and evictions.
    let cached = Cached::new(shared.clone(), 4096, 8, Arc::new(Metrics::default()));
    let recorded_cache = Cached::new(shared.clone(), 4096, 8, Arc::new(Metrics::default()));
    let telemetry = MapTelemetry::new();
    for _ in 0..3 {
        for c in 0..rounds {
            let slice = &items[c * chunk..(c + 1) * chunk];
            t.next_req();
            t.batch("server.parse_request", chunk as u32, |_| {
                for (_, line) in slice {
                    let _ = std::hint::black_box(parse_request(line, ProtoVersion::V2));
                }
            });
            t.batch("server.cached_resolve", chunk as u32, |_| {
                for (i, _) in slice {
                    let _ =
                        std::hint::black_box(cached.resolve(&names.names[*i], &names.users[*i]));
                }
            });
            // The daemon's per-QUERY recording: time the resolve, record
            // it in the histogram, offer it to the slow log.
            t.batch("telemetry.cached_resolve_recorded", chunk as u32, |_| {
                for (i, _) in slice {
                    let start = Instant::now();
                    let _ = std::hint::black_box(
                        recorded_cache.resolve(&names.names[*i], &names.users[*i]),
                    );
                    let ns = start.elapsed().as_nanos() as u64;
                    telemetry.query.record(ns);
                    telemetry.observe_slow("QUERY", "default", &names.names[*i], ns, "ok");
                }
            });
        }
    }
    let parse_ns = rep.timing(
        "server.parse_request_ns",
        "ns",
        &t.per_call_ns("server.parse_request"),
    );
    let cached_ns = rep.timing(
        "server.cached_resolve_ns",
        "ns",
        &t.per_call_ns("server.cached_resolve"),
    );
    let recorded = Summary::of(&t.per_call_ns("telemetry.cached_resolve_recorded")).p50;
    let record_ns = rep.value("telemetry.record_ns", "ns", recorded - cached_ns);
    println!("  telemetry.record_ns {record_ns:.1} ns = recorded resolve {recorded:.1} ns - bare {cached_ns:.1} ns");
    rep.ratio(
        "ratio.telemetry_over_cached_resolve",
        ("telemetry.record_ns", record_ns),
        ("server.cached_resolve_ns", cached_ns),
    );
    let stats = cached.cache().shard_stats();
    let hits: u64 = stats.iter().map(|s| s.hits).sum();
    let misses: u64 = stats.iter().map(|s| s.misses).sum();
    let evictions: u64 = stats.iter().map(|s| s.evictions).sum();
    println!(
        "  cache: {hits} hits, {misses} misses, {evictions} evictions over {} shards",
        stats.len()
    );
    rep.value(
        "server.cache_hit_ratio",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rep.value("server.cache_evictions", "count", evictions as f64);
    if let Some((p50, "query")) = outcome.socket_p50_us {
        let inproc = (parse_ns + cached_ns) / 1e3;
        let v = rep.value("server.transport_us", "us", p50 - inproc);
        println!("  server.transport_us {v:.3} us = socket QUERY p50 {p50:.3} us - in-process parse+resolve {inproc:.3} us");
    }
    Ok(())
}

/// Point-to-point tiers over the workload's pairs.
/// Returns the plain engine build time over this world, in ms.
fn router_layers(
    t: &mut Tracer,
    rep: &mut Report,
    rng: &mut Rng,
    oracle: &Oracle,
    outcome: &Outcome,
) -> Result<f64> {
    let aug = oracle.mapped.tree.frozen().clone();
    for _ in 0..3 {
        t.next_req();
        t.span("router.engine_new", |_| {
            PointToPoint::new(aug.clone(), CostModel::default())
        });
    }
    // One hierarchy build: seconds per world, and the single biggest
    // cost of the traced run.
    t.next_req();
    let ch = t.span("router.engine_with_fresh_hierarchy", |_| {
        PointToPoint::with_fresh_hierarchy(aug.clone(), CostModel::default())
    });
    let new_ms = median(&t.ms("router.engine_new"));
    let fresh_ms = median(&t.ms("router.engine_with_fresh_hierarchy"));
    println!(
        "{}",
        Summary::of(&t.ms("router.engine_with_fresh_hierarchy"))
            .line("router.engine_with_fresh_hierarchy_ms", "ms")
    );
    let ch_ms = rep.value("router.ch_build_ms", "ms", fresh_ms - new_ms);
    println!("  router.ch_build_ms {ch_ms:.3} ms = with_fresh_hierarchy {fresh_ms:.3} ms - new {new_ms:.3} ms");

    let pairs = world::path_pairs(oracle, rng, 300);
    let plain = &oracle.engine;
    let mut settled = Vec::new();
    let mut tried = 0u64;
    let mut certified = 0u64;
    let mut mismatches = 0;
    for (i, &(s, d)) in pairs.ids.iter().enumerate() {
        if s == u32::MAX {
            continue;
        }
        let (s, d) = (
            pathalias_core::NodeId::from_raw(s),
            pathalias_core::NodeId::from_raw(d),
        );
        t.next_req();
        let a = t.span("router.path_ch", |_| ch.route_ids(s, d));
        let b = t.span("router.path_bidi", |_| plain.route_ids(s, d));
        let c = t.span("router.path_oracle", |_| {
            plain.route_ids_unidirectional(s, d)
        });
        let mut words = pairs.lines[i].split(' ').skip(1);
        let (sn, dn) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
        let named = t.span("router.path_by_name", |_| plain.route(sn, dn));
        for other in [&a, &b, &named] {
            match (other, &c) {
                (Ok(x), Ok(y)) if x.cost == y.cost && x.route == y.route && x.hops == y.hops => {}
                _ => mismatches += 1,
            }
        }
        if let Ok((_, st)) = ch.route_ids_with_stats(s, d) {
            settled.push(st.settled as f64);
            tried += st.tried_ch as u64;
            certified += st.ch_certified as u64;
        }
    }
    if mismatches > 0 {
        rep.defects.push(format!(
            "{mismatches} in-process PATH answers disagreed across CH, bidirectional, oracle and by-name search"
        ));
    }
    let us = |v: Vec<f64>| v.iter().map(|x| x / 1e3).collect::<Vec<_>>();
    let ch_us = rep.timing(
        "router.path_ch_us",
        "us",
        &us(t.per_call_ns("router.path_ch")),
    );
    let bidi_us = rep.timing(
        "router.path_bidi_us",
        "us",
        &us(t.per_call_ns("router.path_bidi")),
    );
    rep.timing(
        "router.path_oracle_us",
        "us",
        &us(t.per_call_ns("router.path_oracle")),
    );
    // Name resolution on its own: `route(d, d)` resolves two names and
    // then answers the trivial self-route; `route_ids(d, d)` answers
    // the same without resolving, so the difference is the resolution.
    let dsts: Vec<(pathalias_core::NodeId, String)> = pairs
        .ids
        .iter()
        .zip(&pairs.lines)
        .filter(|((s, _), _)| *s != u32::MAX)
        .map(|((_, d), line)| {
            let name = line.rsplit(' ').next().unwrap_or("").to_string();
            (pathalias_core::NodeId::from_raw(*d), name)
        })
        .collect();
    for _ in 0..20 {
        t.next_req();
        t.batch("router.self_route_by_name", dsts.len() as u32, |_| {
            for (_, name) in &dsts {
                let _ = std::hint::black_box(plain.route(name, name));
            }
        });
        t.batch("router.self_route_by_id", dsts.len() as u32, |_| {
            for (id, _) in &dsts {
                let _ = std::hint::black_box(plain.route_ids(*id, *id));
            }
        });
    }
    let diffs: Vec<f64> = t
        .per_call_ns("router.self_route_by_name")
        .iter()
        .zip(t.per_call_ns("router.self_route_by_id"))
        .map(|(n, b)| (n - b) / 1e3)
        .collect();
    rep.timing("router.resolve_names_us", "us", &diffs);
    rep.timing("router.settled_nodes", "count", &settled);
    rep.value(
        "router.ch_certified_share",
        "ratio",
        certified as f64 / tried.max(1) as f64,
    );
    rep.ratio(
        "ratio.path_ch_over_bidi",
        ("router.path_ch_us", ch_us),
        ("router.path_bidi_us", bidi_us),
    );
    if let Some((p50, "path")) = outcome.socket_p50_us {
        let v = rep.value("server.transport_us", "us", p50 - ch_us);
        println!("  server.transport_us {v:.3} us = socket PATH p50 {p50:.3} us - in-process CH search {ch_us:.3} us");
    }
    Ok(new_ms)
}

/// Reload layers: the edit script replayed through `MapSource`.
/// `engine_ms` is a plain engine build over this world, the one serving
/// step `PhaseTimings` has no phase for.
fn reload_layers(
    t: &mut Tracer,
    rep: &mut Report,
    rng: &mut Rng,
    world: &World,
    engine_ms: f64,
) -> Result<()> {
    let opts = world::options(&world.home);
    let edits = world::edit_script(world, rng, 4);
    let source = MapSource::map_files(world.files.clone(), opts.clone());
    let cache = match &source {
        MapSource::Map { cache, .. } => cache.clone(),
        _ => unreachable!("map_files builds a Map source"),
    };
    let mut loads: HashMap<&'static str, Vec<(f64, PhaseTimings)>> = HashMap::new();
    let mut load = |t: &mut Tracer, class: &'static str| -> Result<()> {
        t.next_req();
        let before = cache.delta_reloads();
        let start = Instant::now();
        let r = t.span("server.load_serving", |_| source.load_serving_timed());
        let wall = start.elapsed().as_secs_f64() * 1e3;
        let (_, _, phases) = r.map_err(|e| format!("load_serving_timed: {e}"))?;
        let class = match class {
            "edit" if cache.delta_reloads() > before => "delta",
            "edit" => "full",
            other => other,
        };
        loads.entry(class).or_default().push((wall, phases));
        Ok(())
    };
    load(t, "full")?;
    let base_inputs = {
        let mut p = Parsed::new();
        p.push_files(&world.files).map_err(|e| e.to_string())?;
        p
    };
    let base_frozen = base_inputs
        .build(&opts)
        .map_err(|e| e.to_string())?
        .freeze();
    let mut patch_plans = 0u64;
    let mut patch_full = 0u64;
    let mut reloads = 0u64;
    let delta_before = cache.delta_reloads();
    for (k, e) in edits.iter().enumerate() {
        // The planner and the row splice, called directly.
        let mut edited = base_inputs.inputs().to_vec();
        for (fi, text) in &e.changes {
            edited[*fi].1 = text.clone();
        }
        t.next_req();
        let plan = t.span("core.plan_delta", |_| {
            plan_delta(base_inputs.inputs(), &edited, base_frozen.graph())
        });
        let is_patch = if let DeltaPlan::Patch { patches } = &plan {
            t.span("graph.rows_replaced", |_| {
                base_frozen.with_rows_replaced(patches)
            });
            true
        } else {
            false
        };
        // The same edit through the serving source: apply, revert.
        for apply in [true, false] {
            let before = cache.delta_reloads();
            for (fi, text) in &e.changes {
                let body = if apply { text } else { &world.texts[*fi] };
                std::fs::write(&world.files[*fi], body).map_err(|e| e.to_string())?;
            }
            load(t, "edit")?;
            reloads += 1;
            if is_patch && apply {
                patch_plans += 1;
                if cache.delta_reloads() == before {
                    patch_full += 1;
                }
            }
        }
        if k % 2 == 1 || e.kind == EditKind::Noop {
            load(t, "noop")?;
            reloads += 1;
        }
    }
    let delta_reloads = cache.delta_reloads() - delta_before;
    rep.timing("core.plan_delta_ms", "ms", &t.ms("core.plan_delta"));
    rep.timing("graph.rows_replaced_ms", "ms", &t.ms("graph.rows_replaced"));
    let get = |class: &str| loads.get(class).cloned().unwrap_or_default();
    let phase = |v: &[(f64, PhaseTimings)], f: fn(&PhaseTimings) -> Duration| -> Vec<f64> {
        v.iter().map(|(_, p)| f(p).as_secs_f64() * 1e3).collect()
    };
    let delta = get("delta");
    let full = get("full");
    let noop = get("noop");
    // On the delta path the map phase is `repair_frozen` and the print
    // phase is `update_routes` plus the render.
    rep.timing("mapper.repair_ms", "ms", &phase(&delta, |p| p.map));
    rep.timing("printer.update_ms", "ms", &phase(&delta, |p| p.print));
    rep.value(
        "mapper.repair_bailout_share",
        "ratio",
        patch_full as f64 / patch_plans.max(1) as f64,
    );
    println!("  {patch_full} of {patch_plans} planned patches fell back to the full pipeline");
    rep.value(
        "core.delta_share",
        "ratio",
        delta_reloads as f64 / reloads.max(1) as f64,
    );
    println!("  {delta_reloads} of {reloads} reloads took the delta path (no-ops included)");
    let walls = |v: &[(f64, PhaseTimings)]| v.iter().map(|x| x.0).collect::<Vec<_>>();
    rep.timing("server.load_serving_ms.noop", "ms", &walls(&noop));
    let delta_ms = rep.timing("server.load_serving_ms.delta", "ms", &walls(&delta));
    let full_ms = rep.timing("server.load_serving_ms.full", "ms", &walls(&full));
    rep.ratio(
        "ratio.load_delta_over_full",
        ("server.load_serving_ms.delta", delta_ms),
        ("server.load_serving_ms.full", full_ms),
    );
    // Reconciliation: the phases the load reports plus an engine build
    // should cover its wall time.
    for (class, v) in [("delta", &delta), ("full", &full)] {
        let gaps: Vec<f64> = v
            .iter()
            .map(|(wall, p)| {
                let phases = (p.parse + p.build + p.freeze + p.map + p.print).as_secs_f64() * 1e3;
                wall - phases - engine_ms
            })
            .collect();
        println!(
            "  {class} load: phases parse {:.3} build {:.3} freeze {:.3} map {:.3} print {:.3} ms (medians) + engine {engine_ms:.3} ms",
            median(&phase(v, |p| p.parse)),
            median(&phase(v, |p| p.build)),
            median(&phase(v, |p| p.freeze)),
            median(&phase(v, |p| p.map)),
            median(&phase(v, |p| p.print)),
        );
        rep.timing(
            &format!("reconcile.load_serving_unattributed_ms.{class}"),
            "ms",
            &gaps,
        );
    }
    for (f, text) in world.files.iter().zip(&world.texts) {
        let _ = std::fs::write(f, text);
    }
    Ok(())
}
