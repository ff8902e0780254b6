//! Workspace call graph over the [`FileIndex`] item index.
//!
//! One node per *production* function with a body (test functions and
//! integration-test files never enter the graph — their calls cannot put a
//! production function on a checked path). Edges come from name resolution
//! over call sites:
//!
//! * a call `name(..)` or `recv.name(..)` first resolves to functions named
//!   `name` **in the same file** (the workspace keeps each subsystem's
//!   helpers local, so this is almost always exact);
//! * only when the file defines no such function does it fall back to every
//!   production function with that name workspace-wide.
//!
//! That makes the graph an over-approximation — a method call on a foreign
//! type can edge to an unrelated same-named function — which is the safe
//! direction for the L7/L8 ordering rules: effects are never *missed*
//! through a call. Device accesses (`nvm.access(..)` / `dram.access(..)`,
//! and their per-block form `access_blocks`) are effect *seeds*, not calls,
//! and are excluded here so the memory-system entry point `access` does not
//! edge every device touch into the whole controller.

use std::collections::BTreeMap;

use crate::source::FileIndex;

/// Names that look like call syntax but never are (`if (..)`, `match (..)`).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as", "let", "else",
    "unsafe", "ref", "mut", "box", "await", "yield", "dyn", "impl", "where", "pub", "use",
    "crate", "super", "Self", "self",
];

/// Std container/`Option` method names that, invoked on a non-`self`
/// receiver, are almost certainly *not* calls into workspace functions —
/// `self.dirty.drain()` in `SecurityModel::crash` must not edge to
/// `ThyNvm::drain`.
/// Dropping these edges loses no effects: `SparseStore` mutations through
/// these names are seeded directly at the call site by `crate::effects`.
const COLLECTION_METHODS: &[&str] = &[
    "drain", "push", "pop", "insert", "remove", "clear", "extend", "append", "retain", "take",
    "replace", "get", "set", "iter", "len", "contains", "entry", "write", "read", "clone",
    "split_off", "sort", "last", "first", "copy_within", "write_words",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name as written.
    pub callee: String,
    /// Token index of the callee name.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// Node indices the name resolved to (sorted; empty for foreign calls).
    pub edges: Vec<usize>,
}

/// One production function in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    /// Index into `files[file].fns`.
    pub item: usize,
    /// Call sites in body token order.
    pub calls: Vec<CallSite>,
}

/// The workspace call graph. Node order is deterministic: files in input
/// order (the lint driver sorts paths), functions in source order.
pub struct CallGraph {
    /// All nodes.
    pub nodes: Vec<FnNode>,
}

impl CallGraph {
    /// Builds the graph over the indexed workspace.
    pub fn build(files: &[FileIndex]) -> CallGraph {
        let mut nodes = Vec::new();
        // name → nodes, per file and workspace-wide.
        let mut by_file: BTreeMap<(usize, String), Vec<usize>> = BTreeMap::new();
        let mut global: BTreeMap<String, Vec<usize>> = BTreeMap::new();

        for (fi, f) in files.iter().enumerate() {
            if is_test_file(&f.rel_path) {
                continue;
            }
            for (ii, item) in f.fns.iter().enumerate() {
                if item.in_test || item.body_start.is_none() {
                    continue;
                }
                let n = nodes.len();
                nodes.push(FnNode { file: fi, item: ii, calls: Vec::new() });
                by_file.entry((fi, item.name.clone())).or_default().push(n);
                global.entry(item.name.clone()).or_default().push(n);
            }
        }

        for node in &mut nodes {
            let (fi, ii) = (node.file, node.item);
            let f = &files[fi];
            let item = &f.fns[ii];
            let Some(start) = item.body_start else { continue };
            let toks = &f.tokens;
            let end = item.body_end.min(toks.len());
            let mut calls = Vec::new();
            for i in start + 1..end.saturating_sub(1) {
                let Some(name) = toks[i].kind.ident() else { continue };
                if !toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                    continue;
                }
                if NON_CALL_KEYWORDS.contains(&name) {
                    continue;
                }
                // A nested `fn name(` is a declaration, not a call.
                if i > 0 && toks[i - 1].kind.is_ident("fn") {
                    continue;
                }
                // Device accesses are effect seeds (see crate::effects), not
                // calls to the memory-system `access` entry points.
                if is_device_access(f, i) {
                    continue;
                }
                // `field.drain(..)` etc.: a std-container method, not a
                // workspace call (only `self.drain(..)` resolves).
                if COLLECTION_METHODS.contains(&name)
                    && i >= 2
                    && toks[i - 1].is_punct(".")
                    && !toks[i - 2].kind.is_ident("self")
                {
                    continue;
                }
                let key = (fi, name.to_owned());
                let edges = by_file
                    .get(&key)
                    .or_else(|| global.get(name))
                    .cloned()
                    .unwrap_or_default();
                calls.push(CallSite {
                    callee: name.to_owned(),
                    tok: i,
                    line: toks[i].line,
                    edges,
                });
            }
            node.calls = calls;
        }

        CallGraph { nodes }
    }

    /// Nodes reachable from `seeds` (inclusive), as a bitmap over node
    /// indices. Deterministic breadth-first walk.
    pub fn reachable(&self, seeds: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if !seen[s] {
                seen[s] = true;
                queue.push(s);
            }
        }
        while let Some(n) = queue.pop() {
            for call in &self.nodes[n].calls {
                for &e in &call.edges {
                    if !seen[e] {
                        seen[e] = true;
                        queue.push(e);
                    }
                }
            }
        }
        seen
    }
}

/// Whether the ident at token `i` is a device access on a device field:
/// `nvm.access(..)` / `dram.access(..)`, or the per-block
/// `nvm.access_blocks(..)` / `dram.access_blocks(..)`.
pub(crate) fn is_device_access(f: &FileIndex, i: usize) -> bool {
    f.tokens[i].kind.ident().is_some_and(|n| n == "access" || n == "access_blocks")
        && i >= 2
        && f.tokens[i - 1].is_punct(".")
        && f.tokens[i - 2]
            .kind
            .ident()
            .is_some_and(|r| r == "nvm" || r == "dram")
}

/// Whether `rel_path` is an integration-test file.
pub(crate) fn is_test_file(rel_path: &str) -> bool {
    rel_path.starts_with("tests/") || rel_path.contains("/tests/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(files: &[(&str, &str)]) -> (Vec<FileIndex>, CallGraph) {
        let idx: Vec<FileIndex> =
            files.iter().map(|(p, s)| FileIndex::parse(p, s)).collect();
        let g = CallGraph::build(&idx);
        (idx, g)
    }

    fn node_named(files: &[FileIndex], g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| files[n.file].fns[n.item].name == name)
            .unwrap_or_else(|| panic!("node {name} in graph"))
    }

    #[test]
    fn same_file_resolution_wins_over_global() {
        let (files, g) = graph_of(&[
            ("crates/a/src/lib.rs", "fn helper() {}\nfn top() { helper(); }\n"),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let top = node_named(&files, &g, "top");
        let call = &g.nodes[top].calls[0];
        assert_eq!(call.callee, "helper");
        assert_eq!(call.edges.len(), 1, "{call:?}");
        assert_eq!(g.nodes[call.edges[0]].file, 0, "resolved to the same file");
    }

    #[test]
    fn cross_file_fallback_links_all_candidates() {
        let (files, g) = graph_of(&[
            ("crates/a/src/lib.rs", "fn top(&mut self) { self.observe(); }\n"),
            ("crates/b/src/lib.rs", "fn observe() {}\n"),
            ("crates/c/src/lib.rs", "fn observe() {}\n"),
        ]);
        let top = node_named(&files, &g, "top");
        assert_eq!(g.nodes[top].calls[0].edges.len(), 2);
    }

    #[test]
    fn test_fns_macros_and_keywords_are_not_calls() {
        let (files, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            concat!(
                "fn top(x: u64) { if (x > 0) { panic!(\"no\"); } helper(); }\n",
                "fn helper() {}\n",
                "#[cfg(test)] mod t { #[test] fn probe() { helper(); } }\n",
            ),
        )]);
        let top = node_named(&files, &g, "top");
        let names: Vec<&str> =
            g.nodes[top].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, vec!["helper"], "{names:?}");
        assert!(
            !g.nodes.iter().any(|n| files[n.file].fns[n.item].name == "probe"),
            "test fns stay out of the graph"
        );
    }

    #[test]
    fn device_access_is_not_a_call_edge() {
        let (files, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            concat!(
                "fn access(&mut self) { self.touch(); }\n",
                "fn touch(&mut self) { let t = self.nvm.access(a, k, 64, t); }\n",
                "fn run(&mut self) { self.dram.access_blocks(a, k, 64, t, |d| {}); }\n",
                "fn access_blocks(&mut self) { self.touch(); }\n",
            ),
        )]);
        let run = node_named(&files, &g, "run");
        assert!(g.nodes[run].calls.is_empty(), "{:?}", g.nodes[run].calls);
        let touch = node_named(&files, &g, "touch");
        assert!(g.nodes[touch].calls.is_empty(), "{:?}", g.nodes[touch].calls);
    }

    #[test]
    fn reachability_is_transitive() {
        let (files, g) = graph_of(&[(
            "crates/a/src/lib.rs",
            concat!(
                "fn a(&mut self) { self.b(); }\n",
                "fn b(&mut self) { self.c(); }\n",
                "fn c(&mut self) {}\n",
                "fn d(&mut self) {}\n",
            ),
        )]);
        let a = node_named(&files, &g, "a");
        let seen = g.reachable(&[a]);
        for name in ["a", "b", "c"] {
            assert!(seen[node_named(&files, &g, name)], "{name} reachable");
        }
        assert!(!seen[node_named(&files, &g, "d")]);
    }
}
