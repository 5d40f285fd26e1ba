//! Workload inputs, all made from the seed: the generated map files the
//! daemon reads, the name and pair streams the generator sends, the
//! edit script, and the oracle answers every reply is checked against.
//!
//! Oracles are cold in-process pipeline runs over the same files, taken
//! outside any timed region: `QUERY` answers come from the printed table
//! through `RouteDb::route_to`, `PATH` answers from the plain forward
//! search (`route_ids_unidirectional`) over the same augmented graph.

use crate::daemon::Result;
use crate::load::Request;
use crate::stats::{Rng, Zipf};
use pathalias_core::{CostModel, Mapped, NodeId, Options, Parsed, Printed};
use pathalias_mailer::RouteDb;
use pathalias_mapgen::{generate, MapSpec};
use pathalias_printer::RouteKind;
use pathalias_router::PointToPoint;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Generated map files on disk.
pub struct World {
    pub files: Vec<PathBuf>,
    pub texts: Vec<String>,
    pub home: String,
}

/// Writes the mapgen world for `spec` into `dir`, one file per
/// generated region, in generation order.
pub fn write_world(spec: &MapSpec, dir: &Path) -> Result<World> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let map = generate(spec);
    let mut files = Vec::new();
    let mut texts = Vec::new();
    for (name, text) in &map.files {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(path);
        texts.push(text.clone());
    }
    Ok(World {
        files,
        texts,
        home: map.home,
    })
}

pub fn options(home: &str) -> Options {
    Options {
        local: Some(home.to_string()),
        ..Options::default()
    }
}

/// A cold pipeline run over a set of inputs: what the daemon must serve.
pub struct Oracle {
    pub mapped: Mapped,
    pub printed: Printed,
    pub db: RouteDb,
    /// Plain engine over the mapped tree's augmented graph.
    pub engine: PointToPoint,
}

impl Oracle {
    pub fn from_inputs(inputs: &[(String, String)], home: &str) -> Result<Oracle> {
        let mut parsed = Parsed::new();
        for (name, text) in inputs {
            parsed.push_str(name, text);
        }
        let opts = options(home);
        let frozen = parsed.build(&opts).map_err(|e| e.to_string())?.freeze();
        let mapped = frozen.map(&opts).map_err(|e| e.to_string())?;
        let printed = mapped.print(&opts);
        let db = RouteDb::from_table(&printed.routes);
        let engine = PointToPoint::new(mapped.tree.frozen().clone(), CostModel::default());
        Ok(Oracle {
            mapped,
            printed,
            db,
            engine,
        })
    }

    pub fn query_line(&self, host: &str, user: &str) -> String {
        query_line(&self.db, host, user)
    }

    /// The oracle reply to `PATH src dst` (ids already resolved), or
    /// `None` when the pair has no route.
    pub fn path_line(&self, src: u32, dst: u32) -> Option<String> {
        let (s, d) = (NodeId::from_raw(src), NodeId::from_raw(dst));
        let a = self.engine.route_ids_unidirectional(s, d).ok()?;
        Some(format!(
            "200 cost={} hops={} route={}",
            a.cost, a.hops, a.route
        ))
    }

    /// The oracle reply to `PATH * dst`.
    pub fn via_line(&self, dst_name: &str) -> Option<String> {
        let entries = self.engine.via(dst_name).ok()?;
        let g = self.engine.graph();
        let mut line = format!("200 via dst={dst_name} count={}", entries.len());
        if !entries.is_empty() {
            let list: Vec<String> = entries
                .iter()
                .map(|v| format!("{}({})", g.name(v.node), v.cost))
                .collect();
            line.push(' ');
            line.push_str(&list.join(","));
        }
        Some(line)
    }
}

/// The oracle reply to `QUERY host user`.
pub fn query_line(db: &RouteDb, host: &str, user: &str) -> String {
    match db.route_to(host, user) {
        Some(route) => format!("200 {route}"),
        None => format!("404 no route to {host}"),
    }
}

pub fn inputs_of(world: &World) -> Vec<(String, String)> {
    world
        .files
        .iter()
        .zip(&world.texts)
        .map(|(p, t)| (p.to_string_lossy().into_owned(), t.clone()))
        .collect()
}

/// A query name population with each name's kind (0 exact, 1 suffix,
/// 2 miss: three resolver paths) and oracle reply.
pub struct Names {
    pub names: Vec<String>,
    pub users: Vec<String>,
    pub kinds: Vec<usize>,
    pub expected: Vec<String>,
}

/// Draws `n_exact` table names, `n_suffix` fresh names under the
/// table's domains (resolved by suffix, never an exact hit) and
/// `n_miss` names under no domain, shuffled so popularity does not
/// follow kind.
pub fn query_names(
    db: &RouteDb,
    rng: &mut Rng,
    n_exact: usize,
    n_suffix: usize,
    n_miss: usize,
) -> Names {
    let mut exact: Vec<&str> = Vec::new();
    let mut domains: Vec<&str> = Vec::new();
    for e in db.iter() {
        if e.name.starts_with('.') {
            if e.name.len() > 1 {
                domains.push(&e.name);
            }
        } else {
            exact.push(&e.name);
        }
    }
    let mut all: Vec<(String, usize)> = Vec::new();
    for _ in 0..n_exact {
        all.push((exact[rng.below(exact.len())].to_string(), 0));
    }
    for k in 0..n_suffix {
        let d = domains[rng.below(domains.len())];
        all.push((format!("zq{k}x{d}"), 1));
    }
    for k in 0..n_miss {
        all.push((format!("nohost{k}z"), 2));
    }
    rng.shuffle(&mut all);
    let mut out = Names {
        names: Vec::new(),
        users: Vec::new(),
        kinds: Vec::new(),
        expected: Vec::new(),
    };
    for (i, (name, kind)) in all.into_iter().enumerate() {
        let user = format!("u{}", i % 97);
        out.expected.push(query_line(db, &name, &user));
        out.names.push(name);
        out.users.push(user);
        out.kinds.push(kind);
    }
    out
}

/// The query-mix request cycle: Zipf-popular names, half the requests a
/// single `QUERY` and half an `MQUERY` batch of 16–64 names.
/// Kinds: 0 = `QUERY`, 1 = `MQUERY` item.
pub fn query_requests(names: &Names, rng: &mut Rng, count: usize, zipf_s: f64) -> Vec<Request> {
    let zipf = Zipf::new(names.names.len(), zipf_s);
    (0..count)
        .map(|_| {
            if rng.below(2) == 0 {
                let i = zipf.sample(rng);
                Request {
                    bytes: format!("QUERY {} {}\n", names.names[i], names.users[i]).into_bytes(),
                    expects: vec![i as u32],
                    kind: 0,
                }
            } else {
                let n = 16 + rng.below(49);
                let mut line = String::from("MQUERY");
                let mut expects = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = zipf.sample(rng);
                    line.push(' ');
                    line.push_str(&names.names[i]);
                    line.push(':');
                    line.push_str(&names.users[i]);
                    expects.push(i as u32);
                }
                line.push('\n');
                Request {
                    bytes: line.into_bytes(),
                    expects,
                    kind: 1,
                }
            }
        })
        .collect()
}

/// Point-to-point questions with their oracle replies.
pub struct Pairs {
    /// The request lines, without newline.
    pub lines: Vec<String>,
    pub expected: Vec<String>,
    /// `(src, dst)` raw node ids; `src == u32::MAX` marks `PATH * dst`.
    pub ids: Vec<(u32, u32)>,
    /// Kind per pair: 0 near, 1 far, 2 via.
    pub kinds: Vec<usize>,
}

pub const PAIR_KINDS: [&str; 3] = ["near", "far", "via"];

/// `count` answerable `PATH` questions: near pairs from the home hub,
/// far pairs strided across the id space, about a third of endpoints
/// written domain-qualified, and 5% `PATH * dst`.
pub fn path_pairs(oracle: &Oracle, rng: &mut Rng, count: usize) -> Pairs {
    let g = oracle.engine.graph();
    let home = oracle.printed.routes.source;
    // Endpoint names: hosts the table prints, with the qualified name
    // the printer gives domain members.
    let mut hosts: Vec<(u32, String, String)> = Vec::new();
    let mut near: Vec<usize> = Vec::new();
    for r in &oracle.printed.routes.entries {
        if !matches!(r.kind, RouteKind::Host) || r.node == home {
            continue;
        }
        let plain = g.name(r.node).to_string();
        if plain.contains('.') {
            continue;
        }
        if r.route.matches('!').count() <= 3 {
            near.push(hosts.len());
        }
        hosts.push((r.node.index() as u32, plain, r.name.clone()));
    }
    let home_name = g.name(home).to_string();
    let mut out = Pairs {
        lines: Vec::new(),
        expected: Vec::new(),
        ids: Vec::new(),
        kinds: Vec::new(),
    };
    let pick_name = |rng: &mut Rng, h: &(u32, String, String)| -> String {
        if h.2 != h.1 && rng.below(3) != 0 {
            h.2.clone()
        } else {
            h.1.clone()
        }
    };
    let stride = (hosts.len() / count.max(1)).max(1) * 7 + 1;
    let mut k = 0usize;
    let mut tries = 0;
    while out.lines.len() < count && tries < count * 20 {
        tries += 1;
        let roll = rng.below(100);
        if roll < 5 {
            let d = &hosts[rng.below(hosts.len())];
            if let Some(line) = oracle.via_line(&d.1) {
                out.lines.push(format!("PATH * {}", d.1));
                out.expected.push(line);
                out.ids.push((u32::MAX, d.0));
                out.kinds.push(2);
            }
            continue;
        }
        let (s, d, kind) = if roll < 50 && !near.is_empty() {
            let d = &hosts[near[rng.below(near.len())]];
            ((home.index() as u32, home_name.clone()), d, 0)
        } else {
            k += 1;
            let s = &hosts[(k * stride) % hosts.len()];
            let d = &hosts[(k * stride + hosts.len() / 2 + k) % hosts.len()];
            if s.0 == d.0 {
                continue;
            }
            let sname = pick_name(rng, s);
            ((s.0, sname), d, 1)
        };
        let dname = pick_name(rng, d);
        if let Some(line) = oracle.path_line(s.0, d.0) {
            out.lines.push(format!("PATH {} {dname}", s.1));
            out.expected.push(line);
            out.ids.push((s.0, d.0));
            out.kinds.push(kind);
        }
    }
    out
}

/// One kind of map edit in the reload script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// One cost changed on a leaf-ish plain row.
    CostBump,
    /// A link added to a plain row.
    LinkAdd,
    /// A link removed from a plain row.
    LinkRemove,
    /// The home hub's own row changed.
    HomeRow,
    /// A network or alias statement changed.
    Statement,
    /// Cost changes in two files at once.
    TwoFile,
    /// No file changed at all.
    Noop,
}

impl EditKind {
    pub fn name(self) -> &'static str {
        match self {
            EditKind::CostBump => "cost_bump",
            EditKind::LinkAdd => "link_add",
            EditKind::LinkRemove => "link_remove",
            EditKind::HomeRow => "home_row",
            EditKind::Statement => "statement",
            EditKind::TwoFile => "two_file",
            EditKind::Noop => "noop",
        }
    }
}

/// One edit: replacement texts for some files, and a host whose answer
/// the edit is about (probed after the reload).
#[derive(Debug, Clone)]
pub struct Edit {
    pub kind: EditKind,
    pub changes: Vec<(usize, String)>,
    pub probe: String,
}

/// Builds the edit script over the world's files: `per_kind` edits of
/// each delta-candidate kind and one of each fallback kind, in seeded
/// order. Each edit is applied and later reverted by the reload loop.
pub fn edit_script(world: &World, rng: &mut Rng, per_kind: usize) -> Vec<Edit> {
    let file_name = |i: usize| {
        world.files[i]
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    };
    let region: Vec<usize> = (0..world.files.len())
        .filter(|&i| file_name(i).starts_with("region-"))
        .collect();
    // Names mentioned outside the plain region files: editing their
    // rows would trip the planner's complex-name gate.
    let mut complex: HashSet<String> = HashSet::new();
    for (i, text) in world.texts.iter().enumerate() {
        if !region.contains(&i) {
            for w in
                text.split(|c: char| !(c.is_alphanumeric() || c == '-' || c == '_' || c == '.'))
            {
                if !w.is_empty() {
                    complex.insert(w.to_string());
                }
            }
        }
    }
    let mut edits = Vec::new();
    let mut used: HashSet<(usize, usize)> = HashSet::new();
    for kind in [EditKind::CostBump, EditKind::LinkAdd, EditKind::LinkRemove] {
        let mut made = 0;
        let mut tries = 0;
        while made < per_kind && tries < 2000 {
            tries += 1;
            let fi = region[rng.below(region.len())];
            let lines: Vec<&str> = world.texts[fi].lines().collect();
            let li = rng.below(lines.len());
            if used.contains(&(fi, li)) {
                continue;
            }
            let Some((host, targets)) = plain_row(lines[li]) else {
                continue;
            };
            if host == world.home || complex.contains(host) || targets.len() > 4 {
                continue;
            }
            if targets.iter().any(|t| complex.contains(t.0)) {
                continue;
            }
            // Names mentioned before this row keep first-mention order
            // intact when a link to one is added or dropped.
            let earlier: HashSet<&str> = lines[..li]
                .iter()
                .filter_map(|l| plain_row(l))
                .flat_map(|(h, ts)| std::iter::once(h).chain(ts.into_iter().map(|t| t.0)))
                .collect();
            let new_row = match kind {
                EditKind::CostBump => {
                    let t = rng.below(targets.len());
                    let cost = 200 + rng.below(5000);
                    render_row(
                        host,
                        &targets,
                        |j, (name, c)| {
                            if j == t {
                                format!("{name}({cost})")
                            } else {
                                format!("{name}({c})")
                            }
                        },
                        None,
                    )
                }
                EditKind::LinkAdd => {
                    let have: HashSet<&str> = targets.iter().map(|t| t.0).collect();
                    let cands: Vec<&&str> = earlier
                        .iter()
                        .filter(|n| !have.contains(**n) && **n != host && !complex.contains(**n))
                        .collect();
                    if cands.is_empty() {
                        continue;
                    }
                    let mut cands: Vec<&str> = cands.into_iter().copied().collect();
                    cands.sort_unstable();
                    let extra = format!("{}(DAILY)", cands[rng.below(cands.len())]);
                    render_row(host, &targets, |_, (n, c)| format!("{n}({c})"), Some(extra))
                }
                _ => {
                    if targets.len() < 2 || !earlier.contains(targets[targets.len() - 1].0) {
                        continue;
                    }
                    render_row(
                        host,
                        &targets[..targets.len() - 1],
                        |_, (n, c)| format!("{n}({c})"),
                        None,
                    )
                }
            };
            used.insert((fi, li));
            edits.push(Edit {
                kind,
                changes: vec![(fi, replace_line(&world.texts[fi], li, &new_row))],
                probe: host.to_string(),
            });
            made += 1;
        }
    }
    // Fallback edits: the home row, a network statement, and a cost
    // change in two files at once.
    if let Some((fi, li, (host, targets))) = home_row(world, &region) {
        let row = render_row(
            host,
            &targets,
            |j, (n, c)| {
                if j == 0 {
                    format!("{n}(1)")
                } else {
                    format!("{n}({c})")
                }
            },
            None,
        );
        edits.push(Edit {
            kind: EditKind::HomeRow,
            changes: vec![(fi, replace_line(&world.texts[fi], li, &row))],
            probe: targets[0].0.to_string(),
        });
    }
    if let Some(fi) = (0..world.files.len()).find(|&i| file_name(i) == "networks.map") {
        let text = &world.texts[fi];
        if let Some((li, line)) = text.lines().enumerate().find(|(_, l)| l.contains("}(")) {
            let cut = line.rfind("}(").expect("found above");
            let row = format!("{}}}(123)", &line[..cut]);
            let probe = line.split_whitespace().next().unwrap_or("").to_string();
            edits.push(Edit {
                kind: EditKind::Statement,
                changes: vec![(fi, replace_line(text, li, &row))],
                probe,
            });
        }
    }
    let two: Vec<Edit> = edits
        .iter()
        .filter(|e| e.kind == EditKind::CostBump)
        .take(2)
        .cloned()
        .collect();
    if two.len() == 2 && two[0].changes[0].0 != two[1].changes[0].0 {
        edits.push(Edit {
            kind: EditKind::TwoFile,
            changes: vec![two[0].changes[0].clone(), two[1].changes[0].clone()],
            probe: two[0].probe.clone(),
        });
    }
    rng.shuffle(&mut edits);
    edits
}

type Row<'a> = (&'a str, Vec<(&'a str, &'a str)>);

/// Splits a plain `host\ttarget(cost), ...` row.
fn plain_row(line: &str) -> Option<Row<'_>> {
    if line.starts_with('#') || line.contains(['=', '{', '}']) {
        return None;
    }
    let (host, rest) = line.split_once('\t')?;
    let mut targets = Vec::new();
    for item in rest.split(", ") {
        let open = item.find('(')?;
        if !item.ends_with(')') {
            return None;
        }
        targets.push((&item[..open], &item[open + 1..item.len() - 1]));
    }
    (!targets.is_empty()).then_some((host, targets))
}

fn render_row(
    host: &str,
    targets: &[(&str, &str)],
    f: impl Fn(usize, (&str, &str)) -> String,
    extra: Option<String>,
) -> String {
    let mut items: Vec<String> = targets.iter().enumerate().map(|(j, &t)| f(j, t)).collect();
    items.extend(extra);
    format!("{host}\t{}", items.join(", "))
}

fn replace_line(text: &str, li: usize, row: &str) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for (i, l) in text.lines().enumerate() {
        out.push_str(if i == li { row } else { l });
        out.push('\n');
    }
    out
}

/// The home hub's plain row: file index, line index, row.
fn home_row<'a>(world: &'a World, files: &[usize]) -> Option<(usize, usize, Row<'a>)> {
    files.iter().find_map(|&fi| {
        world.texts[fi].lines().enumerate().find_map(|(li, line)| {
            plain_row(line)
                .filter(|r| r.0 == world.home)
                .map(|r| (fi, li, r))
        })
    })
}
