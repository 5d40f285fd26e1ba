//! Table sources and hot reload.
//!
//! The daemon can be pointed at any of the five shapes route data
//! takes in this project: a PADB1 disk database loaded into memory,
//! the same file served in place through mmap, a linear route file
//! (pathalias output), a PAGF1 frozen-graph snapshot (`pathalias
//! freeze` output, re-entering the staged pipeline at the frozen
//! stage), or raw map files that get run through the staged
//! parse → build → freeze → map → print pipeline. `RELOAD`
//! re-runs the same source and swaps the result in atomically; while
//! the rebuild runs, every query keeps being served from the old
//! snapshot, and a failed rebuild leaves the old table serving
//! untouched.
//!
//! The two pipeline sources (snapshot and map files) load through one
//! [`StageCache`], keyed by the stamps of their files: path, size and
//! mtime, plus the inode and ctime on unix. A `RELOAD`
//!
//! * whose stamps and options are unchanged serves the cached
//!   resolver and point-to-point engine as they are — no stage runs,
//!   so an operator hitting reload twice costs a few `stat`s;
//! * whose stamps are unchanged but options moved re-maps the cached
//!   frozen stage, skipping parse/build/freeze (or the snapshot read);
//! * whose map files changed repairs the cached stages in place when
//!   the edit is provably safe, and otherwise re-runs the full
//!   pipeline.

use pathalias_core::{
    plan_delta, render, repair_frozen, update_routes, CostModel, DeltaPlan, EdgeShift, Frozen,
    FrozenGraph, MapOptions, Mapped, NodeId, Options, Parsed, PhaseTimings, PrintOptions, Printed,
    RowPatch, SnapshotError,
};
use pathalias_mailer::{
    disk::DiskDb, disk::DiskError, disk::MappedDb, BoxedResolver, DbError, RouteDb, SharedRouteDb,
};
use pathalias_router::PointToPoint;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// A loaded serving bundle: the resolver, the optional point-to-point
/// engine, and how long each pipeline phase took.
type ServingParts = (BoxedResolver, Option<Arc<PointToPoint>>, PhaseTimings);

/// When an edit dirties more than this fraction of the world, the
/// incremental remap would approach a full run anyway — fall back.
const DELTA_MAX_DIRTY_FRACTION: f64 = 0.25;

/// A change-detection stamp for one source file.
///
/// Size and mtime alone miss the classic trap: a rewrite that keeps
/// the length and lands within the filesystem's mtime granularity (or
/// a tool that deliberately restores the mtime) is invisible. On unix
/// the stamp adds the inode number and the ctime — the kernel bumps
/// ctime on every write regardless of what userspace sets mtime to,
/// and it costs one `stat`, no file read (which matters for mmap-served
/// tables bigger than memory). Elsewhere the stamp hashes the file
/// contents instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FileStamp {
    path: PathBuf,
    size: u64,
    mtime: Option<SystemTime>,
    #[cfg(unix)]
    ino: u64,
    #[cfg(unix)]
    ctime: (i64, i64),
    #[cfg(not(unix))]
    content: u64,
}

/// A change-detection fingerprint for a set of source files.
pub(crate) type Fingerprint = Vec<FileStamp>;

/// Computes the fingerprint of `paths`.
pub(crate) fn fingerprint<'a>(
    paths: impl IntoIterator<Item = &'a PathBuf>,
) -> std::io::Result<Fingerprint> {
    paths.into_iter().map(stamp).collect()
}

#[cfg(unix)]
fn stamp(p: &PathBuf) -> std::io::Result<FileStamp> {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(p)?;
    Ok(FileStamp {
        path: p.clone(),
        size: meta.len(),
        mtime: meta.modified().ok(),
        ino: meta.ino(),
        ctime: (meta.ctime(), meta.ctime_nsec()),
    })
}

#[cfg(not(unix))]
fn stamp(p: &PathBuf) -> std::io::Result<FileStamp> {
    let meta = std::fs::metadata(p)?;
    Ok(FileStamp {
        path: p.clone(),
        size: meta.len(),
        mtime: meta.modified().ok(),
        content: pathalias_hash::fold_bytes(&std::fs::read(p)?),
    })
}

/// The cached stages of a pipeline source, shared across clones of
/// the [`MapSource`] (the daemon clones its source into connection
/// state).
#[derive(Clone, Default)]
pub struct StageCache {
    slot: Arc<Mutex<Option<CachedStages>>>,
    delta_reloads: Arc<AtomicU64>,
}

/// The last successful load of a pipeline source.
struct CachedStages {
    fingerprint: Fingerprint,
    frozen: Frozen,
    serving: ServingState,
    /// What the incremental path diffs and repairs. Map-file sources
    /// only: a snapshot has no input texts to diff, so keeping its
    /// tree and table would only hold memory.
    basis: Option<DeltaBasis>,
}

/// What one load serves, kept so that a reload whose stamps and
/// options are unchanged serves it again. Cloning is a few refcount
/// bumps.
#[derive(Clone)]
struct ServingState {
    options: Options,
    db: SharedRouteDb,
    engine: Arc<PointToPoint>,
}

/// The inputs and outputs of a map-file source's last mapping run.
#[derive(Clone)]
struct DeltaBasis {
    /// The input texts the frozen stage was built from.
    parsed: Arc<Parsed>,
    mapped: Arc<Mapped>,
    /// `Arc`, so a repair that proves the printed table unchanged can
    /// carry it into the next generation without cloning it.
    printed: Arc<Printed>,
}

impl ServingState {
    /// Assembles what a mapping run over `frozen` serves: `db` when
    /// the table is already being served, else a resolver over
    /// `printed`, and the engine by [`engine_for`]'s rule, whose time
    /// goes into `timings.engine`. The engine and the table come from
    /// the *same* mapping run, so they can never disagree about what
    /// the world looks like.
    fn new(
        frozen: &Frozen,
        options: &Options,
        mapped: &Mapped,
        printed: &Printed,
        db: Option<SharedRouteDb>,
        timings: &mut PhaseTimings,
    ) -> ServingState {
        // The engine first: a hierarchy build is the load's memory
        // peak, and the resolver need not be resident during it.
        let t0 = Instant::now();
        let engine = engine_for(frozen, mapped.tree.frozen(), options.cost_model);
        timings.engine = t0.elapsed();
        let db = db.unwrap_or_else(|| SharedRouteDb::new(RouteDb::from_table(&printed.routes)));
        ServingState {
            options: options.clone(),
            db,
            engine: Arc::new(engine),
        }
    }

    fn parts(&self, timings: PhaseTimings) -> ServingParts {
        (
            Box::new(self.db.clone()),
            Some(self.engine.clone()),
            timings,
        )
    }
}

impl StageCache {
    /// The cached frozen snapshot, if any (used by tests to observe
    /// stage reuse).
    pub fn snapshot(&self) -> Option<Arc<FrozenGraph>> {
        self.slot
            .lock()
            .expect("stage cache poisoned")
            .as_ref()
            .map(|c| c.frozen.graph().clone())
    }

    /// How many reloads were served without the full pipeline: the
    /// unchanged ones, and for map-file sources the incremental
    /// (delta) repairs (used by tests to prove the fast path actually
    /// ran).
    pub fn delta_reloads(&self) -> u64 {
        self.delta_reloads.load(Ordering::Relaxed)
    }

    /// The one load path of the pipeline sources: serve the cached
    /// artifacts when nothing moved, else repair them incrementally,
    /// else run the full pipeline. `snapshot` says how a stale frozen
    /// stage is rebuilt: re-read from the `.pagf` that is `paths`' one
    /// entry, or parsed, built and frozen from the map files. Only a
    /// successful load is committed.
    fn load(
        &self,
        paths: &[PathBuf],
        snapshot: bool,
        options: &Options,
    ) -> Result<ServingParts, LoadError> {
        let fp = fingerprint(paths)?;
        let mut slot = self.slot.lock().expect("stage cache poisoned");
        let cached = slot.as_ref();
        if let Some(c) = cached.filter(|c| c.fingerprint == fp && c.serving.options == *options) {
            self.delta_reloads.fetch_add(1, Ordering::Relaxed);
            return Ok(c.serving.parts(PhaseTimings::default()));
        }
        let delta = match cached {
            Some(c) => try_delta_reload(paths, &fp, options, c)?,
            None => None,
        };
        let (next, timings) = match delta {
            Some(next) => {
                self.delta_reloads.fetch_add(1, Ordering::Relaxed);
                next
            }
            None => full_reload(paths, snapshot, fp, options, cached)?,
        };
        let parts = next.serving.parts(timings);
        *slot = Some(next);
        Ok(parts)
    }
}

impl fmt::Debug for StageCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let filled = self.slot.lock().map(|c| c.is_some()).unwrap_or(false);
        write!(f, "StageCache({})", if filled { "warm" } else { "empty" })
    }
}

/// Where the route table comes from.
#[derive(Debug, Clone)]
pub enum MapSource {
    /// A PADB1 file written by [`pathalias_mailer::disk::write_db`],
    /// loaded fully into memory.
    Padb(PathBuf),
    /// A PADB1 file served *in place* through
    /// [`MappedDb`]: only the index
    /// is loaded; names and routes stay on disk behind the kernel page
    /// cache, so tables larger than memory serve fine. `RELOAD`
    /// re-opens (and re-validates) the file.
    PadbMmap(PathBuf),
    /// A linear route file: pathalias output, `name\troute` lines.
    Routes(PathBuf),
    /// A PAGF1 frozen-graph snapshot written by `pathalias freeze`:
    /// the staged pipeline re-enters at the frozen stage, so a cold
    /// start skips parse/build/freeze entirely and a `RELOAD` whose
    /// snapshot file is unchanged serves the cached table and engine.
    FrozenSnapshot {
        /// The `.pagf` file.
        path: PathBuf,
        /// Mapping/printing options (`-l`, ...; the build-stage
        /// options are baked into the snapshot).
        options: Options,
        /// Cached stages, keyed by the file's fingerprint.
        cache: StageCache,
    },
    /// Map files run through the staged pipeline on every (re)load,
    /// with the stages cached across reloads.
    Map {
        /// Input map files, parsed in order.
        files: Vec<PathBuf>,
        /// Pipeline options (`-l`, `-i`, ...).
        options: Options,
        /// Cached stages, keyed by the files' fingerprint.
        cache: StageCache,
    },
}

/// Why a (re)load failed. The old table keeps serving afterwards.
#[derive(Debug)]
pub enum LoadError {
    /// Reading a source file failed.
    Io(std::io::Error),
    /// The PADB1 file was corrupt.
    Disk(DiskError),
    /// The PAGF1 snapshot was corrupt.
    Snapshot(SnapshotError),
    /// The linear route file did not parse.
    Db(DbError),
    /// The map pipeline failed (parse or map error).
    Pipeline(pathalias_core::Error),
    /// The rebuilt map has no host to route from.
    Validation(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o: {e}"),
            LoadError::Disk(e) => write!(f, "{e}"),
            LoadError::Snapshot(e) => write!(f, "{e}"),
            LoadError::Db(e) => write!(f, "route file: {e}"),
            LoadError::Pipeline(e) => write!(f, "pipeline: {e}"),
            LoadError::Validation(why) => write!(f, "validation: {why}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<DiskError> for LoadError {
    fn from(e: DiskError) -> Self {
        LoadError::Disk(e)
    }
}

impl From<SnapshotError> for LoadError {
    fn from(e: SnapshotError) -> Self {
        LoadError::Snapshot(e)
    }
}

impl MapSource {
    /// A map-file source with an empty stage cache.
    pub fn map_files(files: Vec<PathBuf>, options: Options) -> MapSource {
        MapSource::Map {
            files,
            options,
            cache: StageCache::default(),
        }
    }

    /// A frozen-snapshot source with an empty stage cache.
    pub fn frozen_snapshot(path: PathBuf, options: Options) -> MapSource {
        MapSource::FrozenSnapshot {
            path,
            options,
            cache: StageCache::default(),
        }
    }

    /// A short label for the source shape — what the CLI startup
    /// report and map-set listings show next to each namespace.
    pub fn kind(&self) -> &'static str {
        match self {
            MapSource::Padb(_) => "padb",
            MapSource::PadbMmap(_) => "padb-mmap",
            MapSource::Routes(_) => "routes",
            MapSource::FrozenSnapshot { .. } => "pagf",
            MapSource::Map { .. } => "map",
        }
    }

    /// The files whose modification should trigger a reload (what
    /// `serve --watch` polls).
    pub fn watch_paths(&self) -> Vec<PathBuf> {
        match self {
            MapSource::Padb(p) | MapSource::PadbMmap(p) | MapSource::Routes(p) => vec![p.clone()],
            MapSource::FrozenSnapshot { path, .. } => vec![path.clone()],
            MapSource::Map { files, .. } => files.clone(),
        }
    }

    /// Loads the source: the resolver, the point-to-point engine when
    /// the source holds a frozen graph, and how long each pipeline
    /// phase took. Pure with respect to serving state: the caller
    /// decides when (and whether) to swap.
    ///
    /// Table-only sources (`routes`, `padb`, `padb-mmap`) have no
    /// graph and return no engine: the daemon refuses `PATH` on them.
    /// Their whole ingest is reported as the `parse` phase, and
    /// `padb-mmap` opens the file for in-place serving without loading
    /// the blob at all.
    ///
    /// Pipeline sources (`pagf`, `map`) build a [`PointToPoint`] over
    /// the mapped tree's *augmented* graph — the same snapshot (back
    /// links included) the printed table came from, so
    /// `PATH <home> <x>` and `QUERY <x>` answer byte-identically.
    /// Stages skipped by the [`StageCache`] report zero — the zeros
    /// *are* the cache working.
    pub fn load_serving_timed(&self) -> Result<ServingParts, LoadError> {
        let t0 = Instant::now();
        let resolver: BoxedResolver = match self {
            MapSource::Padb(path) => {
                let db = RouteDb::from_entries(DiskDb::open(path)?.read_all()?);
                Box::new(SharedRouteDb::new(db))
            }
            MapSource::PadbMmap(path) => Box::new(MappedDb::open(path)?),
            MapSource::Routes(path) => {
                let text = std::fs::read_to_string(path)?;
                let db = RouteDb::from_output(&text).map_err(LoadError::Db)?;
                Box::new(SharedRouteDb::new(db))
            }
            MapSource::FrozenSnapshot {
                path,
                options,
                cache,
            } => return cache.load(std::slice::from_ref(path), true, options),
            MapSource::Map {
                files,
                options,
                cache,
            } => return cache.load(files, false, options),
        };
        let timings = PhaseTimings {
            parse: t0.elapsed(),
            ..PhaseTimings::default()
        };
        Ok((resolver, None, timings))
    }
}

/// The full pipeline from the frozen stage on. The cached stage is
/// reused when the stamps are unchanged (for map files, also
/// `ignore_case`, the one option the build stage reads); otherwise it
/// is rebuilt, and its timings cover the stages that ran.
fn full_reload(
    paths: &[PathBuf],
    snapshot: bool,
    fingerprint: Fingerprint,
    options: &Options,
    cached: Option<&CachedStages>,
) -> Result<(CachedStages, PhaseTimings), LoadError> {
    let mut timings = PhaseTimings::default();
    let (frozen, parsed) = match cached {
        Some(c)
            if c.fingerprint == fingerprint
                && (snapshot || c.frozen.graph().ignore_case() == options.ignore_case) =>
        {
            (c.frozen.clone(), c.basis.as_ref().map(|b| b.parsed.clone()))
        }
        _ if snapshot => {
            let frozen = Frozen::from_snapshot(&paths[0])?;
            timings.freeze = frozen.freeze_time;
            (frozen, None)
        }
        _ => {
            let t0 = Instant::now();
            let mut parsed = Parsed::new();
            parsed.push_files(paths)?;
            timings.parse = t0.elapsed();
            let built = parsed.build(options).map_err(LoadError::Pipeline)?;
            timings.build = built.build_time;
            let frozen = built.freeze();
            timings.freeze = frozen.freeze_time;
            (frozen, Some(Arc::new(parsed)))
        }
    };

    let t0 = Instant::now();
    let mapped = frozen.map(options).map_err(LoadError::Pipeline)?;
    timings.map = t0.elapsed();
    let t0 = Instant::now();
    let printed = mapped.print(options);
    timings.print = t0.elapsed();
    // `delete`d nodes and networks are not places mail originates: a
    // world with nothing else in it routes nowhere.
    let g = frozen.graph();
    if !g.node_ids().any(|id| g.is_mappable(id) && !g.is_net(id)) {
        return Err(LoadError::Validation("rebuilt map has no hosts".into()));
    }
    let serving = ServingState::new(&frozen, options, &mapped, &printed, None, &mut timings);
    let basis = parsed.map(|parsed| DeltaBasis {
        parsed,
        mapped: Arc::new(mapped),
        printed: Arc::new(printed),
    });
    let next = CachedStages {
        fingerprint,
        frozen,
        serving,
        basis,
    };
    Ok((next, timings))
}

/// The point-to-point engine over `graph`, the graph a mapping run
/// over `frozen` ended on. Back-link invention replaces the snapshot
/// graph; only when the run ended on the very same graph are the
/// stage's stored sections (transpose, hierarchy) valid, and only then
/// does a `freeze --ch` snapshot save the load any work. A stage that
/// carried a hierarchy is an operator opt-in, so when back links
/// changed the graph the hierarchy is rebuilt over the augmented
/// snapshot rather than silently lost: the load then pays a full
/// [`ChIndex::build`](pathalias_core::ChIndex::build) (seconds on the
/// paper-scale world, reported as the `engine` phase). Stages patched
/// by the incremental path carry no sections, so they get a plain
/// engine.
fn engine_for(frozen: &Frozen, graph: &Arc<FrozenGraph>, model: CostModel) -> PointToPoint {
    let graph = graph.clone();
    if Arc::ptr_eq(&graph, frozen.graph()) {
        match frozen.reverse_index() {
            Some(rev) => {
                PointToPoint::with_sections(graph, rev.clone(), frozen.hierarchy().cloned(), model)
            }
            None => PointToPoint::new(graph, model),
        }
    } else if frozen.hierarchy().is_some() {
        PointToPoint::with_fresh_hierarchy(graph, model)
    } else {
        PointToPoint::new(graph, model)
    }
}

/// The O(delta) reload path: diff the re-read map files against the
/// cached inputs, patch the frozen CSR rows the edit touched
/// ([`pathalias_core::delta`] proves which edits are safe), repair the
/// shortest-path tree from the patched rows outward
/// ([`repair_frozen`]), and recompute only the route-table entries
/// whose labels moved ([`update_routes`]). Every gate failure returns
/// `Ok(None)` and the caller falls back to the full pipeline — the
/// full run stays the oracle, the delta path only ever reproduces it
/// faster.
///
/// The patched stage drops the contraction hierarchy rather than
/// patch it: a CH is cost-dependent, and serving yesterday's hierarchy
/// across a cost change would return wrong `PATH` answers ("stale
/// index answers queries wrongly" beats "reload is slower").
fn try_delta_reload(
    files: &[PathBuf],
    fp: &Fingerprint,
    options: &Options,
    cached: &CachedStages,
) -> Result<Option<(CachedStages, PhaseTimings)>, LoadError> {
    // Only the plain serve configuration repairs, and only under the
    // options the cached tree was mapped with: traces print
    // per-relaxation output a repair would truncate, and the
    // second-best dual has no incremental form.
    let serving = &cached.serving;
    if !options.trace.is_empty() || options.second_best || serving.options != *options {
        return Ok(None);
    }
    let Some(basis) = &cached.basis else {
        return Ok(None);
    };
    let parsed = &basis.parsed;

    let mut timings = PhaseTimings::default();
    let t0 = Instant::now();
    let new_parsed = Arc::new(reread_changed(files, parsed, &cached.fingerprint, fp)?);
    let plan = plan_delta(parsed.inputs(), new_parsed.inputs(), cached.frozen.graph());
    timings.parse = t0.elapsed();
    let patches = match plan {
        DeltaPlan::Unchanged => {
            // Comment/whitespace-only edit: adopt the new bytes, keep
            // serving the unchanged world.
            let next = CachedStages {
                fingerprint: fp.clone(),
                frozen: cached.frozen.clone(),
                serving: serving.clone(),
                basis: Some(DeltaBasis {
                    parsed: new_parsed,
                    ..basis.clone()
                }),
            };
            return Ok(Some((next, timings)));
        }
        DeltaPlan::Fallback(_why) => return Ok(None),
        DeltaPlan::Patch { patches } => patches,
    };

    // Patch the base snapshot. No build phase on this path: the
    // patches splice straight into the CSR.
    let t0 = Instant::now();
    let (new_frozen, base_shift) = cached.frozen.with_rows_replaced(&patches);
    timings.freeze = t0.elapsed();
    let dirty: Vec<NodeId> = patches.iter().map(|p| p.node).collect();
    let map_opts = MapOptions {
        model: options.cost_model,
        trace: Vec::new(),
        exclude_domains: false,
        no_backlinks: options.no_backlinks,
    };

    // Repair the tree over whichever graph it actually runs on. When
    // the previous mapping invented no back links the tree points at
    // the base snapshot itself; otherwise it runs over an augmented
    // snapshot (base plus invented BACK rows) that has to be patched
    // with the same care.
    let old_tree = &basis.mapped.tree;
    let t0 = Instant::now();
    let (graph, shift) = if Arc::ptr_eq(old_tree.frozen(), cached.frozen.graph()) {
        (new_frozen.graph().clone(), base_shift)
    } else {
        match patch_augmented(old_tree.frozen(), cached.frozen.graph(), &patches) {
            Some(patched) => patched,
            None => return Ok(None),
        }
    };
    let repaired = repair_frozen(
        old_tree,
        &graph,
        &dirty,
        &shift,
        &map_opts,
        DELTA_MAX_DIRTY_FRACTION,
    );
    timings.map = t0.elapsed();
    let Ok(Some(new_tree)) = repaired else {
        return Ok(None);
    };

    // Recompute routes only for nodes whose label moved. A label is
    // unmoved when every route-relevant field matches and its
    // predecessor is the same physical edge (old edge ids read through
    // the shift; an edge inside a replaced row never matches).
    let t0 = Instant::now();
    let mut changed: Vec<NodeId> = Vec::new();
    for id in new_tree.frozen().node_ids() {
        let same = match (old_tree.label(id), new_tree.label(id)) {
            (None, None) => true,
            (Some(o), Some(n)) => {
                o.cost == n.cost
                    && o.hops == n.hops
                    && o.has_left == n.has_left
                    && o.has_right == n.has_right
                    && o.tainted == n.tainted
                    && o.via_backlink == n.via_backlink
                    && o.ambiguous == n.ambiguous
                    && match (o.pred, n.pred) {
                        (None, None) => true,
                        (Some((op, oe)), Some((np, ne))) => op == np && shift.map(oe) == Some(ne),
                        _ => false,
                    }
            }
            _ => false,
        };
        if !same {
            changed.push(id);
        }
    }
    let (printed, db) = if changed.is_empty() {
        // The edit moved no label — a cost change on a link the tree
        // does not use, the common retuning case. Routes, rendered
        // output and the resolver are bit-for-bit yesterday's; only
        // the point-to-point engine is rebuilt, because `PATH`
        // answers read edge costs the tree never looked at.
        timings.print = t0.elapsed();
        (basis.printed.clone(), Some(serving.db.clone()))
    } else {
        let Some(routes) = update_routes(&new_tree, &basis.printed.routes, &changed) else {
            return Ok(None);
        };
        let rendered = render(
            &routes,
            &PrintOptions {
                with_costs: options.with_costs,
                sort: options.sort,
                include_hidden: options.include_hidden,
            },
        );
        // The repair proved the labelled set unchanged, so the hosts
        // that stayed unreachable are exactly the previous run's.
        let unreachable = basis.printed.unreachable.clone();
        timings.print = t0.elapsed();
        let printed = Printed {
            routes,
            rendered,
            unreachable,
            print_time: timings.print,
        };
        (Arc::new(printed), None)
    };

    let mapped = Mapped {
        tree: new_tree,
        dual: None,
        map_time: timings.map,
    };
    let serving = ServingState::new(&new_frozen, options, &mapped, &printed, db, &mut timings);
    let next = CachedStages {
        fingerprint: fp.clone(),
        frozen: new_frozen,
        serving,
        basis: Some(DeltaBasis {
            parsed: new_parsed,
            mapped: Arc::new(mapped),
            printed,
        }),
    };
    Ok(Some((next, timings)))
}

/// Re-reads only the files whose stamp moved, cloning the cached text
/// for the rest. At a million hosts re-reading two hundred region
/// files to pick up a one-line edit in one of them costs more than the
/// repair itself; the stamps already tell us which files moved.
fn reread_changed(
    files: &[PathBuf],
    parsed: &Parsed,
    old_fp: &Fingerprint,
    new_fp: &Fingerprint,
) -> std::io::Result<Parsed> {
    let mut fresh = Parsed::new();
    if old_fp.len() != new_fp.len() || parsed.inputs().len() != files.len() {
        // The file list itself changed shape: read everything.
        fresh.push_files(files)?;
        return Ok(fresh);
    }
    for (i, path) in files.iter().enumerate() {
        if old_fp[i] == new_fp[i] {
            let (name, text) = &parsed.inputs()[i];
            fresh.push_str(name, text);
        } else {
            fresh.push_file(path)?;
        }
    }
    Ok(fresh)
}

/// Applies `patches` (planned against the *base* snapshot) to the
/// augmented graph `aug` the previous mapping run produced — base rows
/// plus an invented BACK tail appended per row. Returns the patched
/// augmented graph and its edge shift, or `None` when the edit is not
/// provably safe there:
///
/// * a patch that changes a row's shape (targets, operators or flags,
///   not just costs) could add or remove reachability the invented
///   links were computed from;
/// * an invented link *targeting* a dirty node had its cost derived
///   from that node's row — stale after the edit.
fn patch_augmented(
    aug: &Arc<FrozenGraph>,
    base: &Arc<FrozenGraph>,
    patches: &[RowPatch],
) -> Option<(Arc<FrozenGraph>, EdgeShift)> {
    let is_dirty = |node: NodeId| patches.binary_search_by(|p| p.node.cmp(&node)).is_ok();
    let mut aug_patches = Vec::with_capacity(patches.len());
    for p in patches {
        let (_, base_row) = base.edge_slice(p.node);
        // Cost-only: the new row must keep the old shape.
        if base_row.len() != p.edges.len() {
            return None;
        }
        for (old, new) in base_row.iter().zip(&p.edges) {
            if old.to() != new.0 || old.op() != new.2 || old.flags() != new.3 {
                return None;
            }
        }
        // Rebuild the augmented row: the patched base row, then the
        // invented tail exactly as it stands.
        let mut edges = p.edges.clone();
        for e in aug.out_edges(p.node).skip(base_row.len()) {
            edges.push((
                aug.edge_target(e),
                aug.edge_raw_cost(e),
                aug.edge_op(e),
                aug.edge_flags(e),
            ));
        }
        aug_patches.push(RowPatch {
            node: p.node,
            edges,
        });
    }
    // Any invented link pointing *at* a dirty node is stale.
    for id in aug.node_ids() {
        let base_len = base.degree(id);
        for e in aug.out_edges(id).skip(base_len) {
            if is_dirty(aug.edge_target(e)) {
                return None;
            }
        }
    }
    let (patched, shift) = aug.with_rows_replaced(&aug_patches);
    Some((Arc::new(patched), shift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalias_mailer::disk::write_db;
    use pathalias_mailer::Resolver;

    fn temp(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pathalias-reload-{tag}-{}", std::process::id()));
        p
    }

    const MAP: &str = "unc\tduke(100), phs(400)\nduke\tunc(100), research(200)\n\
                       phs\tunc(400)\nresearch\tduke(200)\n";

    /// Loads `source` and returns the resolver it serves.
    fn resolver(source: &MapSource) -> BoxedResolver {
        source.load_serving_timed().unwrap().0
    }

    /// The route `resolver` gives to `host` for user `u`.
    fn route(resolver: &BoxedResolver, host: &str) -> String {
        resolver.resolve(host, "u").unwrap().route
    }

    /// The stage cache of a pipeline source.
    fn cache_of(source: &MapSource) -> &StageCache {
        match source {
            MapSource::FrozenSnapshot { cache, .. } | MapSource::Map { cache, .. } => cache,
            _ => unreachable!("only pipeline sources cache stages"),
        }
    }

    /// Freezes `map` (built under `options`) to a `.pagf` at `path`,
    /// as `pathalias freeze` would.
    fn freeze_to(map: &str, options: &Options, path: &PathBuf) -> Frozen {
        let mut parsed = Parsed::new();
        parsed.push_str("map", map);
        let frozen = parsed.build(options).unwrap().freeze();
        frozen.write_snapshot(path).unwrap();
        frozen
    }

    #[test]
    fn loads_all_three_source_shapes() {
        // Map pipeline.
        let map_path = temp("map.src");
        std::fs::write(&map_path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![map_path.clone()], options);
        assert_eq!(route(&resolver(&source), "research"), "duke!research!u");

        // Linear route file (the rendered output of the same map).
        let routes_path = temp("map.routes");
        let rendered = cached_rendered(cache_of(&source));
        std::fs::write(&routes_path, &rendered).unwrap();
        let routes = resolver(&MapSource::Routes(routes_path.clone()));
        assert_eq!(route(&routes, "research"), "duke!research!u");

        // PADB1.
        let padb_path = temp("map.padb");
        write_db(&RouteDb::from_output(&rendered).unwrap(), &padb_path).unwrap();
        let padb = resolver(&MapSource::Padb(padb_path.clone()));
        assert_eq!(route(&padb, "research"), "duke!research!u");

        for p in [map_path, routes_path, padb_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn unchanged_files_reuse_the_frozen_stage() {
        let path = temp("stage-reuse.map");
        std::fs::write(&path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let cache = cache_of(&source);
        assert!(cache.snapshot().is_none(), "cache starts cold");

        let r1 = resolver(&source);
        let snap1 = cache.snapshot().expect("cache warm after first load");
        let r2 = resolver(&source);
        let snap2 = cache.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&snap1, &snap2),
            "second load skipped parse/build/freeze"
        );
        assert_eq!(r1.entries(), r2.entries());

        // Touching the file (newer mtime) invalidates the stages.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, format!("{MAP}extra\tunc(50)\n")).unwrap();
        let r3 = resolver(&source);
        let snap3 = cache.snapshot().unwrap();
        assert!(!Arc::ptr_eq(&snap1, &snap3), "changed file re-parses");
        assert!(r3.resolve("extra", "u").is_ok());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn cached_stage_remaps_with_new_options() {
        let path = temp("stage-remap.map");
        std::fs::write(&path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        assert_eq!(route(&resolver(&source), "research"), "duke!research!u");

        // Same files, different local host: the frozen stage is
        // reused, only map/print re-run.
        let cache = cache_of(&source);
        let snap_before = cache.snapshot().unwrap();
        let mut source2 = source.clone();
        let MapSource::Map { options, .. } = &mut source2 else {
            unreachable!()
        };
        options.local = Some("phs".into());
        let (phs, _, timings) = source2.load_serving_timed().unwrap();
        assert_eq!(route(&phs, "phs"), "u");
        assert_eq!(timings.parse, std::time::Duration::ZERO, "no re-parse");
        let snap_after = cache.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&snap_before, &snap_after),
            "option change alone must not re-freeze"
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn mmap_resolver_serves_without_full_load() {
        let db = RouteDb::from_output("seismo\tseismo!%s\n.edu\tseismo!%s\n").unwrap();
        let padb_path = temp("mmap.padb");
        write_db(&db, &padb_path).unwrap();
        let (mapped, engine, _) = MapSource::PadbMmap(padb_path.clone())
            .load_serving_timed()
            .unwrap();
        assert!(engine.is_none(), "table-only sources have no engine");
        assert_eq!(mapped.entries(), 2);
        assert_eq!(
            mapped
                .resolve("caip.rutgers.edu", "pleasant")
                .unwrap()
                .route,
            "seismo!caip.rutgers.edu!pleasant"
        );
        let in_memory = resolver(&MapSource::Padb(padb_path.clone()));
        assert_eq!(in_memory.entries(), 2);
        assert_eq!(
            in_memory.resolve("seismo", "rick").unwrap().route,
            "seismo!rick"
        );
        std::fs::remove_file(padb_path).unwrap();
    }

    #[test]
    fn snapshot_source_matches_map_pipeline_byte_for_byte() {
        let map_path = temp("snap-src.map");
        std::fs::write(&map_path, MAP).unwrap();
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let pagf_path = temp("snap-src.pagf");
        freeze_to(MAP, &options, &pagf_path);

        let from_map = MapSource::map_files(vec![map_path.clone()], options.clone());
        let from_snapshot = MapSource::frozen_snapshot(pagf_path.clone(), options);
        let (map_db, _, _) = from_map.load_serving_timed().unwrap();
        let (snap_db, _, _) = from_snapshot.load_serving_timed().unwrap();
        assert_eq!(map_db.entries(), snap_db.entries());
        for line in cached_rendered(cache_of(&from_map)).lines() {
            let name = line.split('\t').next().unwrap();
            assert_eq!(
                route(&snap_db, name),
                route(&map_db, name),
                "route to {name} differs"
            );
        }

        std::fs::remove_file(map_path).unwrap();
        std::fs::remove_file(pagf_path).unwrap();
    }

    #[test]
    fn unchanged_snapshot_reuses_the_frozen_stage() {
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        let pagf_path = temp("snap-reuse.pagf");
        let frozen = freeze_to(MAP, &options, &pagf_path);

        let source = MapSource::frozen_snapshot(pagf_path.clone(), options);
        let cache = cache_of(&source);
        assert!(cache.snapshot().is_none(), "cache starts cold");
        source.load_serving_timed().unwrap();
        let snap1 = cache.snapshot().expect("cache warm after first load");
        source.load_serving_timed().unwrap();
        let snap2 = cache.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&snap1, &snap2),
            "unchanged .pagf skips the re-read"
        );

        // Rewriting the snapshot (newer mtime) invalidates the cache.
        std::thread::sleep(std::time::Duration::from_millis(20));
        frozen.write_snapshot(&pagf_path).unwrap();
        source.load_serving_timed().unwrap();
        let snap3 = cache.snapshot().unwrap();
        assert!(!Arc::ptr_eq(&snap1, &snap3), "changed file re-loads");

        std::fs::remove_file(pagf_path).unwrap();
    }

    /// A world whose mapping from `unc` invents a back link: `leaf`
    /// declares a link to `duke`, but nothing links to `leaf`.
    const BACKLINK_MAP: &str = "unc\tduke(100), phs(400)\nduke\tunc(100), phs(200)\n\
                                phs\tunc(400), duke(200)\nleaf\tduke(50)\n";

    #[test]
    fn unchanged_ch_snapshot_reload_keeps_the_engine() {
        let options = Options {
            local: Some("unc".into()),
            ..Default::default()
        };
        // `freeze --ch`: the snapshot carries a hierarchy over the
        // graph as frozen, which mapping then augments with back links.
        let write_ch = |map: &str, path: &PathBuf| {
            let mut parsed = Parsed::new();
            parsed.push_str("map", map);
            let frozen = parsed.build(&options).unwrap().freeze();
            let weights = pathalias_router::ch_weights(frozen.graph(), &options.cost_model);
            let ch = Arc::new(pathalias_core::ChIndex::build(frozen.graph(), &weights));
            frozen.with_hierarchy(ch).write_snapshot_all(path).unwrap();
        };
        let pagf_path = temp("ch-noop.pagf");
        write_ch(BACKLINK_MAP, &pagf_path);

        let source = MapSource::frozen_snapshot(pagf_path.clone(), options.clone());
        let (_, engine1, _) = source.load_serving_timed().unwrap();
        let engine1 = engine1.unwrap();
        assert!(
            !Arc::ptr_eq(engine1.graph(), &cache_of(&source).snapshot().unwrap()),
            "mapping invented a back link, so the engine runs on an augmented graph"
        );
        assert!(engine1.hierarchy().is_some(), "the hierarchy was rebuilt");
        assert_eq!(engine1.route("unc", "leaf").unwrap().route, "duke!leaf!%s");

        // Untouched file: no stage runs, the very same engine serves.
        let (_, engine2, t) = source.load_serving_timed().unwrap();
        assert!(Arc::ptr_eq(&engine1, &engine2.unwrap()));
        assert!(
            [t.parse, t.build, t.freeze, t.map, t.print, t.engine]
                .iter()
                .all(|d| d.is_zero()),
            "a no-op reload runs no phase: {t:?}"
        );

        // Rewritten with a cheaper phs link: a fresh engine whose PATH
        // answers match a cold source over the same file.
        std::thread::sleep(std::time::Duration::from_millis(20));
        write_ch(
            &BACKLINK_MAP.replace("unc(400), duke(200)", "unc(40), duke(200)"),
            &pagf_path,
        );
        let (_, engine3, _) = source.load_serving_timed().unwrap();
        let engine3 = engine3.unwrap();
        assert!(
            !Arc::ptr_eq(&engine1, &engine3),
            "a rewrite rebuilds the engine"
        );
        let cold = MapSource::frozen_snapshot(pagf_path.clone(), options);
        let (_, cold_engine, _) = cold.load_serving_timed().unwrap();
        let cold_engine = cold_engine.unwrap();
        for (s, d) in [
            ("unc", "leaf"),
            ("phs", "unc"),
            ("leaf", "phs"),
            ("duke", "leaf"),
        ] {
            let (a, b) = (
                engine3.route(s, d).unwrap(),
                cold_engine.route(s, d).unwrap(),
            );
            assert_eq!((a.route, a.cost), (b.route, b.cost), "PATH {s} {d} differs");
        }
        assert_eq!(engine3.route("phs", "unc").unwrap().route, "unc!%s");
        std::fs::remove_file(pagf_path).unwrap();
    }

    #[test]
    fn corrupt_snapshot_reports_not_panics() {
        let bad = temp("bad.pagf");
        std::fs::write(&bad, "PAGF1\nnot really").unwrap();
        assert!(matches!(
            MapSource::frozen_snapshot(bad.clone(), Options::default()).load_serving_timed(),
            Err(LoadError::Snapshot(_))
        ));
        let missing = MapSource::frozen_snapshot(temp("missing.pagf"), Options::default());
        assert!(matches!(
            missing.load_serving_timed(),
            Err(LoadError::Io(_))
        ));
        std::fs::remove_file(bad).unwrap();
    }

    #[test]
    fn load_failure_reports_not_panics() {
        let missing = MapSource::Routes(temp("definitely-missing"));
        assert!(matches!(
            missing.load_serving_timed(),
            Err(LoadError::Io(_))
        ));

        let bad = temp("bad.routes");
        std::fs::write(&bad, "one-field-only\n").unwrap();
        assert!(matches!(
            MapSource::Routes(bad.clone()).load_serving_timed(),
            Err(LoadError::Db(_))
        ));
        std::fs::remove_file(bad).unwrap();
    }

    #[test]
    fn validation_skips_deleted_and_network_nodes() {
        // `delete`d hosts and network pseudo-nodes sit in the node
        // pool but are not hosts mail originates at — this map still
        // has one and has to load.
        let path = temp("deleted.map");
        std::fs::write(
            &path,
            "oldhost\thub(100)\nhub\toldhost(100), leaf(50)\nleaf\thub(50)\n\
             NETX = {hub, leaf}(200)\ndelete {oldhost}\n",
        )
        .unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        assert_eq!(route(&resolver(&source), "leaf"), "leaf!u");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_map_fails_validation() {
        let path = temp("empty.map");
        std::fs::write(&path, "# nothing but a comment\n").unwrap();
        let source = MapSource::map_files(vec![path.clone()], Options::default());
        assert!(source.load_serving_timed().is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_world_without_hosts_is_refused() {
        // `-l` names a network whose every member is deleted: mapping
        // succeeds, but nothing is left that mail could come from.
        const NO_HOSTS: &str = "NET = {a, b}(10)\ndelete {a, b}\n";
        let options = Options {
            local: Some("NET".into()),
            ..Default::default()
        };
        let map_path = temp("no-hosts.map");
        std::fs::write(&map_path, NO_HOSTS).unwrap();
        let pagf_path = temp("no-hosts.pagf");
        freeze_to(NO_HOSTS, &options, &pagf_path);
        for source in [
            MapSource::map_files(vec![map_path.clone()], options.clone()),
            MapSource::frozen_snapshot(pagf_path.clone(), options.clone()),
        ] {
            match source.load_serving_timed() {
                Err(LoadError::Validation(why)) => assert_eq!(why, "rebuilt map has no hosts"),
                Err(e) => panic!("{}: refused for the wrong reason: {e}", source.kind()),
                Ok(_) => panic!("{}: a world without hosts was served", source.kind()),
            }
            assert!(cache_of(&source).snapshot().is_none(), "nothing committed");
        }
        std::fs::remove_file(map_path).unwrap();
        std::fs::remove_file(pagf_path).unwrap();
    }

    #[test]
    #[cfg(unix)]
    fn fingerprint_detects_same_size_rewrite_with_pinned_mtime() {
        // The classic trap: rewrite the file to the same length, then
        // restore the mtime. Size+mtime stamps see nothing; the ctime
        // (which userspace cannot pin) gives it away.
        let path = temp("fp-pinned.map");
        std::fs::write(&path, "aaaa\tbbbb(10)\n").unwrap();
        let fp1 = fingerprint(std::iter::once(&path)).unwrap();
        let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));

        std::fs::write(&path, "aaaa\tbbbb(99)\n").unwrap(); // same length
        let f = std::fs::File::options().write(true).open(&path).unwrap();
        f.set_modified(mtime).unwrap();
        drop(f);

        let meta = std::fs::metadata(&path).unwrap();
        assert_eq!(
            meta.len(),
            "aaaa\tbbbb(10)\n".len() as u64,
            "rewrite kept the length"
        );
        assert_eq!(meta.modified().unwrap(), mtime, "mtime was pinned back");
        let fp2 = fingerprint(std::iter::once(&path)).unwrap();
        assert_ne!(fp1, fp2, "pinned-mtime same-size rewrite must be detected");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn fingerprint_error_is_reported_not_defaulted() {
        // A missing file must surface as Err — the old stamp treated
        // an unreadable mtime as `None`, and `None == None` made two
        // failures look like "unchanged".
        let missing = temp("fp-missing.map");
        assert!(fingerprint(std::iter::once(&missing)).is_err());
    }

    /// The rendered route text the cache is currently serving (delta
    /// tests compare it byte-for-byte against a cold pipeline).
    fn cached_rendered(cache: &StageCache) -> String {
        let slot = cache.slot.lock().unwrap();
        slot.as_ref()
            .and_then(|c| c.basis.as_ref())
            .map(|b| b.printed.rendered.clone())
            .expect("serving state cached")
    }

    const DELTA_MAP: &str = "hub\ta(10), b(20)\na\tx(30)\nb\tx(5)\nx\ty(5)\n";

    /// A world wide enough that one edit's dirty cone stays under the
    /// 25% fallback budget: sixteen spokes off the hub, two of which
    /// compete for `x`.
    const WIDE_MAP: &str = "hub\tn1(10), n2(10), n3(10), n4(10), \
                            n5(10), n6(10), n7(10), n8(10), \
                            n9(10), n10(10), n11(10), n12(10), \
                            n13(10), n14(10), n15(10), n16(10)\n\
                            n1\tx(30)\nn2\tx(20)\nx\ty(5)\n";

    #[test]
    fn delta_reload_is_byte_identical_and_counted() {
        let path = temp("delta.map");
        std::fs::write(&path, WIDE_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options.clone());
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 0, "first load is the full pipeline");

        // Raise one cost: `x` must reroute from n2 to n1 — a
        // single-row patch whose cone (x, y) repairs in place.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let edited = WIDE_MAP.replace("n2\tx(20)", "n2\tx(35)");
        std::fs::write(&path, &edited).unwrap();
        let (resolver, engine, _) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 1, "the edit took the delta path");
        assert_eq!(resolver.resolve("x", "u").unwrap().route, "n1!x!u");

        // Byte-identical to a cold run over the edited bytes.
        let cold = MapSource::map_files(vec![path.clone()], options);
        let (cold_resolver, cold_engine, _) = cold.load_serving_timed().unwrap();
        let MapSource::Map {
            cache: cold_cache, ..
        } = &cold
        else {
            unreachable!()
        };
        assert_eq!(
            cached_rendered(cache),
            cached_rendered(cold_cache),
            "delta-repaired routes must match the cold pipeline byte for byte"
        );
        for host in ["n1", "n2", "n5", "x", "y"] {
            assert_eq!(
                resolver.resolve(host, "u").unwrap().route,
                cold_resolver.resolve(host, "u").unwrap().route,
                "route to {host} differs"
            );
        }
        let (engine, cold_engine) = (engine.unwrap(), cold_engine.unwrap());
        for (s, d) in [("n1", "x"), ("n2", "y"), ("hub", "y")] {
            assert_eq!(
                engine.route(s, d).unwrap().route,
                cold_engine.route(s, d).unwrap().route,
                "PATH {s} {d} differs"
            );
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn non_tree_edge_edit_reuses_the_printed_table() {
        // Raising the cost of the link the tree already rejected
        // (n1->x at 30 loses to n2->x at 20) moves no label: the
        // repair proves it, the printed table is carried over without
        // being recomputed, and only the PATH engine sees new costs.
        let path = temp("delta-notree.map");
        std::fs::write(&path, WIDE_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options.clone());
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        let before = cached_rendered(cache);

        std::thread::sleep(std::time::Duration::from_millis(20));
        let edited = WIDE_MAP.replace("n1\tx(30)", "n1\tx(44)");
        std::fs::write(&path, &edited).unwrap();
        let (resolver, engine, _) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 1, "the edit took the delta path");
        assert_eq!(
            cached_rendered(cache),
            before,
            "no label moved, so the printed table is yesterday's"
        );
        assert_eq!(resolver.resolve("x", "u").unwrap().route, "n2!x!u");

        // The engine must see the new cost, not the cached graph's.
        let cold = MapSource::map_files(vec![path.clone()], options);
        let (_, cold_engine, _) = cold.load_serving_timed().unwrap();
        let (engine, cold_engine) = (engine.unwrap(), cold_engine.unwrap());
        for (s, d) in [("n1", "x"), ("n1", "y"), ("hub", "y")] {
            let (a, b) = (
                engine.route(s, d).unwrap(),
                cold_engine.route(s, d).unwrap(),
            );
            assert_eq!((a.route, a.cost), (b.route, b.cost), "PATH {s} {d} differs");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn structural_edit_falls_back_to_the_full_pipeline() {
        let path = temp("delta-fallback.map");
        std::fs::write(&path, DELTA_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();

        // A brand-new host shifts node ids: not provably safe, so the
        // plan falls back and the full pipeline serves it correctly.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, format!("{DELTA_MAP}z\thub(1)\n")).unwrap();
        let (resolver, _, _) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 0, "structural edit must not delta");
        assert_eq!(resolver.resolve("x", "u").unwrap().route, "b!x!u");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn unchanged_reload_serves_the_cached_artifacts() {
        let path = temp("delta-unchanged.map");
        std::fs::write(&path, DELTA_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        let (r1, _, _) = source.load_serving_timed().unwrap();
        // Nothing changed: the reload is absorbed entirely by the cache.
        let (r2, engine, timings) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 1);
        assert_eq!(timings.map, std::time::Duration::ZERO, "no remap ran");
        assert!(engine.is_some(), "PATH keeps working across a no-op reload");
        assert_eq!(
            r1.resolve("y", "u").unwrap().route,
            r2.resolve("y", "u").unwrap().route
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn comment_only_edit_is_absorbed_without_remap() {
        let path = temp("delta-comment.map");
        std::fs::write(&path, DELTA_MAP).unwrap();
        let options = Options {
            local: Some("hub".into()),
            ..Default::default()
        };
        let source = MapSource::map_files(vec![path.clone()], options);
        let MapSource::Map { cache, .. } = &source else {
            unreachable!()
        };
        source.load_serving_timed().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&path, format!("# a comment\n{DELTA_MAP}")).unwrap();
        let (resolver, _, timings) = source.load_serving_timed().unwrap();
        assert_eq!(cache.delta_reloads(), 1, "comment edit absorbed as a delta");
        assert_eq!(timings.map, std::time::Duration::ZERO, "no remap ran");
        assert_eq!(resolver.resolve("x", "u").unwrap().route, "b!x!u");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn watch_paths_cover_every_shape() {
        let p = PathBuf::from("/tmp/x");
        assert_eq!(MapSource::Padb(p.clone()).watch_paths(), vec![p.clone()]);
        assert_eq!(
            MapSource::PadbMmap(p.clone()).watch_paths(),
            vec![p.clone()]
        );
        assert_eq!(MapSource::Routes(p.clone()).watch_paths(), vec![p.clone()]);
        assert_eq!(
            MapSource::frozen_snapshot(p.clone(), Options::default()).watch_paths(),
            vec![p.clone()]
        );
        let m = MapSource::map_files(vec![p.clone(), p.clone()], Options::default());
        assert_eq!(m.watch_paths().len(), 2);
    }
}
