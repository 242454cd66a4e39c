//! The workspace call graph: a symbol table over every parsed
//! [`FnItem`] plus path-qualified call-site resolution.
//!
//! Resolution is deliberately an *over-approximation* (DESIGN §10):
//!
//! * **Path calls** (`a::b::f(…)`) resolve through the file's `use`
//!   table, `crate`/`self`/`super` prefixes, sibling modules of the
//!   same crate, and — because crates re-export items at their root —
//!   a crate-wide by-name fallback for `cratename::f` shapes.
//! * **Method calls** (`recv.m(…)`) have no receiver types to consult,
//!   so they resolve to *every* workspace method named `m`. That keeps
//!   panic-reachability sound at the cost of spurious edges through
//!   popular names; ubiquitous container/iterator names that shadow
//!   `std` methods are excluded (`METHOD_NOISE`), which is the
//!   corresponding unsoundness.
//! * Unresolved targets (std, primitives) produce no edge.
//!
//! Node order is sorted by qualified name and every index is stable
//! across runs and worker counts, which is what makes the downstream
//! passes byte-deterministic.

use crate::parse::{FileTable, FnItem};
use std::collections::BTreeMap;

/// Method names whose workspace impls shadow ubiquitous `std` methods;
/// resolving these by bare name would connect nearly every function to
/// nearly every other, so method edges skip them. Path-qualified calls
/// (`Type::get(…)`) still resolve. Documented soundness caveat.
pub const METHOD_NOISE: &[&str] = &[
    "as_str",
    "clone",
    "cmp",
    "contains",
    "default",
    "eq",
    "fmt",
    "from",
    "get",
    "hash",
    "insert",
    "into",
    "is_empty",
    "iter",
    "len",
    "new",
    "next",
    "parse",
    "push",
    "remove",
    "to_string",
    "try_from",
    "try_into",
    "write",
];

/// One call edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// 1-based line of the call site in the caller's file.
    pub line: u64,
    /// True when the edge came from by-name method resolution (less
    /// trustworthy than a path-resolved edge).
    pub method: bool,
}

/// The assembled workspace call graph.
pub struct CallGraph<'a> {
    /// Nodes, sorted by qualified name; parallel to `edges`.
    pub fns: Vec<&'a FnItem>,
    /// The file each node came from (index into the table slice).
    pub file_of: Vec<usize>,
    /// Outgoing edges per node, deduplicated, in deterministic order.
    pub edges: Vec<Vec<Edge>>,
    by_qual: BTreeMap<&'a str, usize>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph from every file's item table.
    pub fn build(tables: &'a [FileTable]) -> CallGraph<'a> {
        // Collect nodes in deterministic order: tables are already
        // sorted by path, fns are in source order; sort by (qual, file,
        // line) so duplicate names (e.g. `tests::*::main`) stay stable.
        let mut nodes: Vec<(usize, &FnItem)> = Vec::new();
        for (ti, table) in tables.iter().enumerate() {
            for f in &table.fns {
                nodes.push((ti, f));
            }
        }
        nodes.sort_by(|a, b| {
            a.1.qual
                .cmp(&b.1.qual)
                .then(a.0.cmp(&b.0))
                .then(a.1.line.cmp(&b.1.line))
        });
        let fns: Vec<&FnItem> = nodes.iter().map(|&(_, f)| f).collect();
        let file_of: Vec<usize> = nodes.iter().map(|&(ti, _)| ti).collect();

        // First definition wins for duplicate quals (overloads across
        // cfg blocks); the loser still exists as a node.
        let mut by_qual: BTreeMap<&str, usize> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_qual.entry(f.qual.as_str()).or_insert(idx);
        }
        // Method name → node indices (methods only, noise excluded).
        let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            if !f.self_ty.is_empty() && !METHOD_NOISE.contains(&f.name.as_str()) {
                by_method.entry(f.name.as_str()).or_default().push(idx);
            }
        }
        // Crate root → (name → node indices), the re-export fallback.
        let mut by_crate: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            if let Some(krate) = f.qual.split("::").next() {
                by_crate
                    .entry((krate, f.name.as_str()))
                    .or_default()
                    .push(idx);
            }
        }

        let resolver = Resolver {
            by_qual: &by_qual,
            by_method: &by_method,
            by_crate: &by_crate,
        };
        let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(fns.len());
        for (idx, f) in fns.iter().enumerate() {
            let table = file_of.get(idx).and_then(|&ti| tables.get(ti));
            let mut out: Vec<Edge> = Vec::new();
            for call in &f.calls {
                for to in resolver.resolve(call.method, &call.target, f, table) {
                    out.push(Edge {
                        to,
                        line: call.line,
                        method: call.method,
                    });
                }
            }
            out.sort_by(|a, b| a.to.cmp(&b.to).then(a.line.cmp(&b.line)));
            out.dedup_by(|a, b| a.to == b.to && a.line == b.line);
            edges.push(out);
        }

        CallGraph {
            fns,
            file_of,
            edges,
            by_qual,
        }
    }

    /// Node index of a qualified name, if defined in the workspace.
    pub fn lookup(&self, qual: &str) -> Option<usize> {
        self.by_qual.get(qual).copied()
    }

    /// Deterministic shortest call path from `from` to `to`, as
    /// qualified names — used to explain findings. Breadth-first over
    /// sorted edges, so the same path comes back every run.
    pub fn path_between(&self, from: usize, to: usize) -> Vec<String> {
        if from == to {
            return vec![self
                .fns
                .get(from)
                .map(|f| f.qual.clone())
                .unwrap_or_default()];
        }
        let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for e in self.edges.get(n).map(Vec::as_slice).unwrap_or(&[]) {
                if e.to != from && !prev.contains_key(&e.to) {
                    prev.insert(e.to, n);
                    if e.to == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while cur != from {
                            cur = prev.get(&cur).copied().unwrap_or(from);
                            path.push(cur);
                        }
                        path.reverse();
                        return path
                            .into_iter()
                            .map(|i| self.fns.get(i).map(|f| f.qual.clone()).unwrap_or_default())
                            .collect();
                    }
                    queue.push_back(e.to);
                }
            }
        }
        Vec::new()
    }
}

struct Resolver<'a, 'b> {
    by_qual: &'b BTreeMap<&'a str, usize>,
    by_method: &'b BTreeMap<&'a str, Vec<usize>>,
    by_crate: &'b BTreeMap<(&'a str, &'a str), Vec<usize>>,
}

impl Resolver<'_, '_> {
    /// Resolve one call target to zero or more node indices.
    fn resolve(
        &self,
        method: bool,
        target: &str,
        caller: &FnItem,
        table: Option<&FileTable>,
    ) -> Vec<usize> {
        if method {
            return self.by_method.get(target).cloned().unwrap_or_default();
        }
        let segs: Vec<&str> = target.split("::").collect();
        let module = caller_module(caller);
        let mut candidates: Vec<String> = Vec::new();
        match segs.as_slice() {
            [] => {}
            [name] => {
                // Bare call: same module, then any single-name `use`.
                candidates.push(format!("{module}::{name}"));
                if let Some(table) = table {
                    for u in &table.uses {
                        if u.name == *name {
                            candidates.push(u.path.clone());
                        }
                    }
                }
                // Same-impl sibling: `Type::name` in this module.
                if !caller.self_ty.is_empty() {
                    candidates.push(format!("{module}::{}::{name}", caller.self_ty));
                }
            }
            [first, rest @ ..] => {
                let tail = rest.join("::");
                match *first {
                    "crate" => {
                        let krate = module.split("::").next().unwrap_or(&module);
                        candidates.push(format!("{krate}::{tail}"));
                    }
                    "self" => candidates.push(format!("{module}::{tail}")),
                    "super" => {
                        let parent = module
                            .rsplit_once("::")
                            .map(|(p, _)| p.to_string())
                            .unwrap_or_else(|| module.clone());
                        candidates.push(format!("{parent}::{tail}"));
                    }
                    _ => {
                        // `use`-imported first segment.
                        if let Some(table) = table {
                            for u in &table.uses {
                                if u.name == *first {
                                    candidates.push(format!("{}::{tail}", u.path));
                                }
                            }
                        }
                        // Absolute crate path or sibling module/type of
                        // the current module and crate root.
                        candidates.push(target.to_string());
                        candidates.push(format!("{module}::{target}"));
                        let krate = module.split("::").next().unwrap_or(&module);
                        candidates.push(format!("{krate}::{target}"));
                    }
                }
            }
        }
        let mut out: Vec<usize> = candidates
            .iter()
            .filter_map(|c| self.by_qual.get(c.as_str()).copied())
            .collect();
        // Re-export fallback: `appvsweb_x::f(…)` where `f` really lives
        // in `appvsweb_x::inner::f`. Only when nothing resolved, and
        // only for two-segment paths whose head is a crate root.
        if out.is_empty() {
            if let [krate, name] = segs.as_slice() {
                if krate.starts_with("appvsweb") {
                    if let Some(hits) = self.by_crate.get(&(*krate, *name)) {
                        out.extend(hits.iter().copied());
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The module a fn's qual sits in (qual minus `[Type::]name`).
fn caller_module(f: &FnItem) -> String {
    let mut q = f.qual.as_str();
    if let Some(stripped) = q.strip_suffix(f.name.as_str()) {
        q = stripped.trim_end_matches(':');
    }
    if !f.self_ty.is_empty() {
        if let Some(stripped) = q.strip_suffix(f.self_ty.as_str()) {
            q = stripped.trim_end_matches(':');
        }
    }
    q.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sig_view_of;
    use crate::parse::parse_file;
    use std::collections::BTreeMap;

    fn table(path: &str, src: &str) -> FileTable {
        parse_file(path, &sig_view_of(src), &[], &BTreeMap::new())
    }

    #[test]
    fn resolves_paths_uses_and_methods() {
        let tables = vec![
            table(
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); appvsweb_b::remote(); t.record(1); }\n\
                 fn helper() { crate::deep::leaf(); }",
            ),
            table("crates/a/src/deep.rs", "pub fn leaf() {}"),
            table(
                "crates/b/src/lib.rs",
                "pub fn remote() {}\n\
                 pub struct T;\n\
                 impl T { pub fn record(&self, _x: u64) {} }",
            ),
        ];
        let g = CallGraph::build(&tables);
        let entry = g.lookup("appvsweb_a::entry").unwrap();
        let helper = g.lookup("appvsweb_a::helper").unwrap();
        let leaf = g.lookup("appvsweb_a::deep::leaf").unwrap();
        let remote = g.lookup("appvsweb_b::remote").unwrap();
        let record = g.lookup("appvsweb_b::T::record").unwrap();
        let tos = |i: usize| -> Vec<usize> { g.edges[i].iter().map(|e| e.to).collect() };
        assert!(tos(entry).contains(&helper));
        assert!(tos(entry).contains(&remote), "crate-root absolute path");
        assert!(tos(entry).contains(&record), "method by-name resolution");
        assert!(tos(helper).contains(&leaf), "crate:: prefix");
    }

    #[test]
    fn reexport_fallback_resolves_crate_level_names() {
        let tables = vec![
            table(
                "crates/a/src/lib.rs",
                "fn f() { appvsweb_json::encode_pretty(&x); }",
            ),
            table("crates/json/src/ser.rs", "pub fn encode_pretty() {}"),
        ];
        let g = CallGraph::build(&tables);
        let f = g.lookup("appvsweb_a::f").unwrap();
        let enc = g.lookup("appvsweb_json::ser::encode_pretty").unwrap();
        assert!(g.edges[f].iter().any(|e| e.to == enc));
    }

    #[test]
    fn noisy_method_names_produce_no_edges() {
        let tables = vec![
            table("crates/a/src/lib.rs", "fn f(m: &Map) { m.get(1); }"),
            table(
                "crates/b/src/lib.rs",
                "pub struct Map; impl Map { pub fn get(&self, _i: u64) { panic!() } }",
            ),
        ];
        let g = CallGraph::build(&tables);
        let f = g.lookup("appvsweb_a::f").unwrap();
        assert!(g.edges[f].is_empty());
    }

    #[test]
    fn path_between_is_shortest_and_deterministic() {
        let tables = vec![table(
            "crates/a/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn a2() { c(); }",
        )];
        let g = CallGraph::build(&tables);
        let a = g.lookup("appvsweb_a::a").unwrap();
        let c = g.lookup("appvsweb_a::c").unwrap();
        assert_eq!(
            g.path_between(a, c),
            ["appvsweb_a::a", "appvsweb_a::b", "appvsweb_a::c"]
        );
        assert!(g.path_between(c, a).is_empty());
    }
}
