//! The workspace invariants, as token-pattern rules.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L1   | Raw `SparseStore` mutations only inside `crates/mem` + sealed allowlist |
//! | L2   | Recovery paths are panic-free (no `unwrap`, bare `expect`, `panic!`, literal indexing) |
//! | L3   | Every `MemStats`/`MediaStats`/`DramStats`/`PerfStats`/`SecurityStats`/`HealthStats`/`WpqStats` counter is mutated in production code and read by a test |
//! | L4   | Every `types::Error` variant is constructed in production code and matched in a test |
//! | L5   | Every numeric `ThyNvmConfig`/`MediaFaultConfig`/`DramFaultConfig`/`SecurityConfig`/`HealthConfig`/`PersistBufferConfig`/`SystemConfig` field is checked in `validate()` |
//! | L6   | Bounded-retry loops route through `types::RetryPolicy` — no manual `*backoff_ns` arithmetic outside `crates/types/src/retry.rs` |
//! | L7   | Commit-record persist is the *last* backup/security effect of a checkpoint-commit body — nothing with those effects follows the seal |
//! | L8   | Every backup-region write reachable from a `recover*`/`replay`/`redo` entry point is WAL-bracketed: `backup_wal` intent before, WAL seal after |
//! | L9   | Concurrency-readiness: no `static mut`/`thread_local!`/`Cell`/`RefCell`/`UnsafeCell` in `crates/core`+`crates/mem` production code; store effects only behind `&mut self` |
//! | L10  | Commit-record and security-root persists in `crates/core` are fence-dominated: the nearest persist-buffer drain (`wpq_fence`) before them in the same body follows every earlier non-working write |
//!
//! L1–L6 work on the token stream plus the [`FileIndex`] item index — no
//! type information. L7–L10 additionally consult the workspace
//! [`CallGraph`](crate::graph::CallGraph) and the transitive persistence
//! effects inferred by [`crate::effects`]. That makes them conservative
//! pattern matchers; the escape hatch for a justified exception is
//! `lint.baseline`, never an in-code `#[allow]`.

use std::collections::HashSet;

use crate::effects::{self, FnFacts};
use crate::graph::CallGraph;
use crate::lexer::Tok;
use crate::source::FileIndex;

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Diagnostic {
    /// Rule ID (`"L1"`..`"L10"`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}:{} {}", self.rule, self.file, self.line, self.msg)
    }
}

/// Fields of the controller/baselines that hold a raw `SparseStore`, plus
/// the conventional name `store` (locals, and the image of each of the
/// controller's checkpoint records). A call `<receiver>.<mutator>(…)`
/// outside the sanctioned sites is a raw NVM write escaping the sealed
/// persistence APIs.
pub(crate) const STORE_RECEIVERS: &[&str] = &["store", "committed", "visible", "buffer_data"];

/// `SparseStore` mutating methods.
pub(crate) const STORE_MUTATORS: &[&str] = &["write", "write_words", "copy_within", "clear"];

/// L1 allowlist: (file, functions) where raw store mutation is sealed by
/// WAL/commit protocol or models power-loss volatility.
const L1_ALLOW: &[(&str, &[&str])] = &[
    // CPU-visible store-through; DRAM-poison quarantine rolling visible
    // bytes back to the checkpoint; tamper injection modeling an
    // attacker's out-of-band NVM writes (the bypass of the sealed path is
    // the point — recovery must catch it).
    ("crates/core/src/controller.rs", &["store", "quarantine_rollback", "apply_tamper"]),
    // Journal flush (redo applied under the commit record) + buffer fill.
    ("crates/baselines/src/journal.rs", &["flush", "store_bytes", "power_fail"]),
    // Shadow-paging flush, copy-on-write buffer fill, volatility model.
    ("crates/baselines/src/shadow.rs", &["flush", "ensure_buffered", "store_bytes", "power_fail"]),
];

/// Files where the panic-free discipline applies to every function — the
/// translation tables and version-state machine are recovery-critical end
/// to end, tests included (a test `unwrap` hides the invariant it relies
/// on; `expect("invariant: …")` states it).
const PANIC_FREE_FILES: &[&str] = &["crates/core/src/table.rs", "crates/core/src/protocol.rs"];

/// Underscore-separated name segments that mark a function as part of the
/// recovery/replay/scrub machinery.
const RECOVERY_SEGMENTS: &[&str] = &["recover", "recovery", "replay", "scrub", "wal", "redo"];

/// Annotation comment that opts a function into the L2 recovery scope.
const RECOVERY_ANNOTATION: &str = "lint: recovery-path";

/// Macros that abort the process.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `expect` messages the lint accepts: a statement of the invariant that
/// makes the call infallible.
const EXPECT_PREFIX: &str = "invariant:";

/// Runs every rule over the indexed workspace.
pub fn check_all(files: &[FileIndex]) -> Vec<Diagnostic> {
    let graph = CallGraph::build(files);
    let facts = effects::analyze(files, &graph);
    let mut out = Vec::new();
    for f in files {
        rule_l1(f, &mut out);
        rule_l2(f, &mut out);
        rule_l6(f, &mut out);
    }
    rule_l3(files, &mut out);
    rule_l4(files, &mut out);
    rule_l5(files, &mut out);
    rule_l7(files, &graph, &facts, &mut out);
    rule_l8(files, &graph, &facts, &mut out);
    rule_l9(files, &graph, &facts, &mut out);
    rule_l10(files, &graph, &facts, &mut out);
    // Deduplicate (a fn can be in scope via both its name and its file) and
    // order deterministically.
    let mut seen = HashSet::new();
    out.retain(|d| seen.insert((d.rule, d.file.clone(), d.line, d.msg.clone())));
    out.sort_by(|a, b| {
        (a.rule, &a.file, a.line, &a.msg).cmp(&(b.rule, &b.file, b.line, &b.msg))
    });
    out
}

/// Whether `rel_path` is an integration-test file (everything under a
/// `tests/` directory is test code even without `#[cfg(test)]`).
fn is_test_file(rel_path: &str) -> bool {
    rel_path.starts_with("tests/") || rel_path.contains("/tests/")
}

/// Whether token `i` of `f` is test code (mask or test file).
fn in_test(f: &FileIndex, i: usize) -> bool {
    is_test_file(&f.rel_path) || f.is_test(i)
}

// ---------------------------------------------------------------- L1 ----

/// L1: raw-NVM-write confinement.
fn rule_l1(f: &FileIndex, out: &mut Vec<Diagnostic>) {
    if f.rel_path.starts_with("crates/mem/") {
        return; // the store's home crate
    }
    let allow: &[&str] = L1_ALLOW
        .iter()
        .find(|(path, _)| *path == f.rel_path)
        .map_or(&[], |(_, fns)| fns);
    let toks = &f.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if !toks[i + 1].is_punct(".") {
            continue;
        }
        let (Some(recv), Some(method)) = (toks[i].kind.ident(), toks[i + 2].kind.ident()) else {
            continue;
        };
        if !STORE_RECEIVERS.contains(&recv)
            || !STORE_MUTATORS.contains(&method)
            || !toks[i + 3].is_punct("(")
        {
            continue;
        }
        if in_test(f, i) {
            continue;
        }
        if let Some(func) = f.enclosing_fn(i) {
            if allow.contains(&func.name.as_str()) {
                continue;
            }
        }
        out.push(Diagnostic {
            rule: "L1",
            file: f.rel_path.clone(),
            line: toks[i].line,
            msg: format!(
                "raw SparseStore mutation `{recv}.{method}(..)` outside crates/mem and the \
                 WAL/commit-sealed allowlist"
            ),
        });
    }
}

// ---------------------------------------------------------------- L2 ----

/// Whether a function name marks it as recovery machinery.
fn l2_name_in_scope(name: &str) -> bool {
    name.split('_').any(|seg| {
        RECOVERY_SEGMENTS.contains(&seg) || seg.starts_with("recover") || seg.starts_with("scrub")
    })
}

/// L2: panic-free recovery.
fn rule_l2(f: &FileIndex, out: &mut Vec<Diagnostic>) {
    let whole_file = PANIC_FREE_FILES.contains(&f.rel_path.as_str());
    if whole_file {
        // Tests in these files get the unwrap/expect discipline only
        // (asserts and literal indices are the point of a test); production
        // code gets the full rule.
        scan_l2(f, 0, f.tokens.len(), true, out);
    }
    for func in &f.fns {
        if func.in_test || is_test_file(&f.rel_path) {
            continue;
        }
        let annotated = f.comment_above(func.line, 5, RECOVERY_ANNOTATION);
        if !(l2_name_in_scope(&func.name) || annotated) {
            continue;
        }
        if let Some(start) = func.body_start {
            scan_l2(f, start, func.body_end, false, out);
        }
    }
}

/// Scans a token range for L2 violations. With `relax_tests`, tokens in
/// test code are only checked for `unwrap`/bare `expect`.
fn scan_l2(f: &FileIndex, from: usize, to: usize, relax_tests: bool, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    let to = to.min(toks.len());
    let mut push = |line: u32, msg: String| {
        out.push(Diagnostic { rule: "L2", file: f.rel_path.clone(), line, msg });
    };
    for i in from..to {
        let test_here = in_test(f, i);
        if relax_tests && test_here {
            // fall through: unwrap/expect still checked below
        } else if !relax_tests && test_here {
            continue;
        }
        // `.unwrap()` / `.expect(…)`.
        if toks[i].is_punct(".") {
            if let Some(name) = toks.get(i + 1).and_then(|t| t.kind.ident()) {
                if name == "unwrap" && toks.get(i + 2).is_some_and(|t| t.is_punct("(")) {
                    push(toks[i].line, "`.unwrap()` on a recovery path".to_owned());
                    continue;
                }
                if name == "expect" && toks.get(i + 2).is_some_and(|t| t.is_punct("(")) {
                    let ok = matches!(
                        toks.get(i + 3).map(|t| &t.kind),
                        Some(Tok::Str(msg)) if msg.trim_start().starts_with(EXPECT_PREFIX)
                    );
                    if !ok {
                        push(
                            toks[i].line,
                            format!(
                                "`.expect(..)` without an `\"{EXPECT_PREFIX} …\"` message \
                                 stating why it cannot fail"
                            ),
                        );
                    }
                    continue;
                }
            }
        }
        if test_here {
            continue; // relaxed region: only the checks above apply
        }
        // Aborting macros: `panic!(` etc.
        if let Some(name) = toks[i].kind.ident() {
            if PANIC_MACROS.contains(&name)
                && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct("(") || t.is_punct("["))
            {
                push(toks[i].line, format!("`{name}!` on a recovery path"));
                continue;
            }
        }
        // Literal indexing `ident[0]` — a hidden bounds panic.
        if toks[i].kind.ident().is_some()
            && toks.get(i + 1).is_some_and(|t| t.is_punct("["))
            && toks.get(i + 2).is_some_and(|t| t.kind.is_int())
            && toks.get(i + 3).is_some_and(|t| t.is_punct("]"))
        {
            push(
                toks[i].line,
                "literal slice index on a recovery path (use `.get(..)`)".to_owned(),
            );
        }
    }
}

// ---------------------------------------------------------------- L3 ----

const STATS_FILE: &str = "crates/types/src/stats.rs";
const STATS_STRUCTS: &[&str] = &[
    "MemStats",
    "MediaStats",
    "DramStats",
    "PerfStats",
    "SecurityStats",
    "HealthStats",
    "WpqStats",
];
/// Functions that touch every field wholesale; counting them would make the
/// mutation check vacuous.
const L3_EXEMPT_FNS: &[&str] = &["reset", "clear"];
/// Collection growth calls that count as mutating a `Vec` field.
const GROW_CALLS: &[&str] = &["push", "insert", "extend", "append"];

/// L3: counter conservation.
fn rule_l3(files: &[FileIndex], out: &mut Vec<Diagnostic>) {
    let Some(stats) = files.iter().find(|f| f.rel_path == STATS_FILE) else {
        return;
    };
    for field in &stats.fields {
        if !STATS_STRUCTS.contains(&field.owner.as_str()) {
            continue;
        }
        if field.ty == "MediaStats"
            || field.ty == "DramStats"
            || field.ty == "PerfStats"
            || field.ty == "SecurityStats"
            || field.ty == "HealthStats"
            || field.ty == "WpqStats"
        {
            continue; // aggregate of counters, each checked individually
        }
        let mut mutated = false;
        let mut tested = false;
        for f in files {
            let toks = &f.tokens;
            for i in 0..toks.len() {
                if !toks[i].kind.is_ident(&field.name) {
                    continue;
                }
                if in_test(f, i) {
                    tested = true;
                    continue;
                }
                if mutated || i == 0 || !toks[i - 1].is_punct(".") {
                    continue;
                }
                let writes = match toks.get(i + 1).map(|t| &t.kind) {
                    Some(Tok::Punct("+=" | "-=" | "=")) => true,
                    Some(Tok::Punct(".")) => {
                        toks.get(i + 2)
                            .and_then(|t| t.kind.ident())
                            .is_some_and(|m| GROW_CALLS.contains(&m))
                            && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
                    }
                    _ => false,
                };
                if writes
                    && !f
                        .enclosing_fn(i)
                        .is_some_and(|func| L3_EXEMPT_FNS.contains(&func.name.as_str()))
                {
                    mutated = true;
                }
            }
        }
        if !mutated {
            out.push(Diagnostic {
                rule: "L3",
                file: STATS_FILE.to_owned(),
                line: field.line,
                msg: format!(
                    "dead counter `{}::{}`: never mutated in non-test code (outside reset/clear)",
                    field.owner, field.name
                ),
            });
        }
        if !tested {
            out.push(Diagnostic {
                rule: "L3",
                file: STATS_FILE.to_owned(),
                line: field.line,
                msg: format!(
                    "unverified counter `{}::{}`: never referenced by any test",
                    field.owner, field.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L4 ----

const ERROR_FILE: &str = "crates/types/src/error.rs";

/// L4: error-variant coverage.
fn rule_l4(files: &[FileIndex], out: &mut Vec<Diagnostic>) {
    let Some(errors) = files.iter().find(|f| f.rel_path == ERROR_FILE) else {
        return;
    };
    for variant in errors.variants.iter().filter(|v| v.owner == "Error") {
        let mut constructed = false;
        let mut tested = false;
        for f in files {
            let toks = &f.tokens;
            for i in 0..toks.len().saturating_sub(2) {
                if !(toks[i].kind.is_ident("Error")
                    && toks[i + 1].is_punct("::")
                    && toks[i + 2].kind.is_ident(&variant.name))
                {
                    continue;
                }
                if in_test(f, i) {
                    tested = true;
                } else if f.rel_path != ERROR_FILE {
                    // Display/From impls in error.rs itself don't count as a
                    // production use.
                    constructed = true;
                }
            }
        }
        if !constructed {
            out.push(Diagnostic {
                rule: "L4",
                file: ERROR_FILE.to_owned(),
                line: variant.line,
                msg: format!(
                    "error variant `Error::{}` is never constructed in production code",
                    variant.name
                ),
            });
        }
        if !tested {
            out.push(Diagnostic {
                rule: "L4",
                file: ERROR_FILE.to_owned(),
                line: variant.line,
                msg: format!(
                    "error variant `Error::{}` is never matched in any test",
                    variant.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L5 ----

const CONFIG_FILE: &str = "crates/types/src/config.rs";
const CONFIG_STRUCTS: &[&str] = &[
    "SystemConfig",
    "ThyNvmConfig",
    "MediaFaultConfig",
    "DramFaultConfig",
    "SecurityConfig",
    "HealthConfig",
    "PersistBufferConfig",
];
const NUMERIC_TYPES: &[&str] = &["u8", "u16", "u32", "u64", "u128", "usize", "f32", "f64"];

/// L5: config-validation completeness (numeric fields — booleans and
/// sub-structs carry no range to check).
fn rule_l5(files: &[FileIndex], out: &mut Vec<Diagnostic>) {
    let Some(config) = files.iter().find(|f| f.rel_path == CONFIG_FILE) else {
        return;
    };
    // Idents mentioned anywhere inside `fn validate` bodies.
    let mut checked: HashSet<&str> = HashSet::new();
    for func in config.fns.iter().filter(|f| f.name == "validate") {
        if let Some(start) = func.body_start {
            for t in &config.tokens[start..func.body_end.min(config.tokens.len())] {
                if let Some(id) = t.kind.ident() {
                    checked.insert(id);
                }
            }
        }
    }
    for field in &config.fields {
        if !CONFIG_STRUCTS.contains(&field.owner.as_str())
            || !NUMERIC_TYPES.contains(&field.ty.as_str())
        {
            continue;
        }
        if !checked.contains(field.name.as_str()) {
            out.push(Diagnostic {
                rule: "L5",
                file: CONFIG_FILE.to_owned(),
                line: field.line,
                msg: format!(
                    "config field `{}::{}` is not checked in validate()",
                    field.owner, field.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L6 ----

/// The one file allowed to do backoff arithmetic: the policy itself.
const RETRY_POLICY_FILE: &str = "crates/types/src/retry.rs";

/// L6: retry-policy unification. Multiplying a `*backoff_ns` knob by an
/// attempt counter is the signature of a hand-rolled backoff loop. Every
/// bounded retry must route through `types::RetryPolicy`, which owns the
/// one sanctioned multiplication — that keeps retry budgets and schedules
/// in a single place.
fn rule_l6(f: &FileIndex, out: &mut Vec<Diagnostic>) {
    if f.rel_path == RETRY_POLICY_FILE {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let Some(name) = toks[i].kind.ident() else {
            continue;
        };
        if !name.ends_with("backoff_ns") || in_test(f, i) {
            continue;
        }
        // Walk back over the field-access chain so `attempt * cfg.retry_backoff_ns`
        // is caught as well as `retry_backoff_ns * attempt`.
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct(".") && toks[j - 2].kind.ident().is_some() {
            j -= 2;
        }
        let mul_before = j > 0 && toks[j - 1].is_punct("*");
        let mul_after = toks.get(i + 1).is_some_and(|t| t.is_punct("*"));
        if mul_before || mul_after {
            out.push(Diagnostic {
                rule: "L6",
                file: f.rel_path.clone(),
                line: toks[i].line,
                msg: format!(
                    "manual backoff arithmetic on `{name}`: route bounded retries \
                     through `types::RetryPolicy` instead of hand-rolling the schedule"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- L7 ----

/// Effects forbidden after the commit-record seal. `BackupWal`, spare and
/// store effects are allowed — post-commit background work (scrub, remap)
/// mutates those under its own WAL discipline, which is L8's domain.
const L7_FORBIDDEN: u16 = effects::BACKUP
    | effects::COMMIT_RECORD
    | effects::SECURITY_COUNTERS
    | effects::SECURITY_TREE
    | effects::SECURITY_ROOT;

/// L7: the commit-record persist is the last backup/security effect of a
/// checkpoint-commit body. Scope: every production function that writes the
/// commit record (`backup(0)`) directly. After the (last) seal write, no
/// direct write and no call with transitive [`L7_FORBIDDEN`] effects may
/// appear — anything after the seal belonging to the checkpoint would not
/// be covered by its atomic commit.
fn rule_l7(files: &[FileIndex], graph: &CallGraph, facts: &[FnFacts], out: &mut Vec<Diagnostic>) {
    for (n, node) in graph.nodes.iter().enumerate() {
        let fx = &facts[n];
        let Some(seal) = fx
            .writes
            .iter()
            .filter(|w| w.region == effects::COMMIT_RECORD)
            .map(|w| w.tok)
            .max()
        else {
            continue;
        };
        let f = &files[node.file];
        let name = &f.fns[node.item].name;
        for w in fx.writes.iter().filter(|w| w.tok > seal) {
            if w.region & L7_FORBIDDEN != 0 {
                out.push(Diagnostic {
                    rule: "L7",
                    file: f.rel_path.clone(),
                    line: w.line,
                    msg: format!(
                        "`{}` write after the commit-record seal in `{name}` — the commit \
                         persist must be the last backup/security effect of a checkpoint commit",
                        effects::region_name(w.region)
                    ),
                });
            }
        }
        for call in node.calls.iter().filter(|c| c.tok > seal) {
            let mut eff = 0u16;
            for &e in &call.edges {
                eff |= facts[e].transitive;
            }
            let bad = eff & L7_FORBIDDEN;
            if bad != 0 {
                out.push(Diagnostic {
                    rule: "L7",
                    file: f.rel_path.clone(),
                    line: call.line,
                    msg: format!(
                        "call to `{}` (effects: {}) after the commit-record seal in `{name}` — \
                         no backup/security effect may follow the seal",
                        call.callee,
                        effects::labels(bad)
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L8 ----

/// Regions whose writes on recovery paths must be WAL-bracketed: the backup
/// metadata images and the commit record. WAL writes themselves are the
/// bracket; working/spare/security writes have their own rules.
const L8_GUARDED: u16 = effects::BACKUP | effects::COMMIT_RECORD;

/// Whether a function name marks a recovery entry point for L8 (narrower
/// than L2's segment list: scrub/wal maintenance is not recovery).
fn l8_entry(name: &str) -> bool {
    name.split('_')
        .any(|seg| seg == "recovery" || seg == "replay" || seg == "redo" || seg.starts_with("recover"))
}

/// Crates whose `recover*` functions are actual recovery machinery. Bench
/// drivers measuring recovery (`e13_recovery_time`) are not entry points —
/// they legitimately run checkpoints around the recovery they time.
fn l8_entry_file(rel_path: &str) -> bool {
    rel_path.starts_with("crates/core/") || rel_path.starts_with("crates/baselines/")
}

/// L8: every backup-region write reachable from a recovery entry point is
/// dominated by a WAL intent record (`backup_wal(..)`) and followed by a
/// WAL seal (`wal_seals += 1`) in the same body. Recovery runs before the
/// next checkpoint exists, so an unsealed backup write is exactly the state
/// a second crash cannot undo.
fn rule_l8(files: &[FileIndex], graph: &CallGraph, facts: &[FnFacts], out: &mut Vec<Diagnostic>) {
    let entries: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            l8_entry_file(&files[n.file].rel_path) && l8_entry(&files[n.file].fns[n.item].name)
        })
        .map(|(i, _)| i)
        .collect();
    if entries.is_empty() {
        return;
    }
    let seen = graph.reachable(&entries);
    for (n, node) in graph.nodes.iter().enumerate() {
        if !seen[n] {
            continue;
        }
        let fx = &facts[n];
        let f = &files[node.file];
        let name = &f.fns[node.item].name;
        for w in &fx.writes {
            if w.region & L8_GUARDED == 0 {
                continue;
            }
            let begun = fx.wal_begins.iter().any(|&b| b < w.tok);
            let sealed = fx.wal_seals.iter().any(|&s| s > w.tok);
            if !(begun && sealed) {
                out.push(Diagnostic {
                    rule: "L8",
                    file: f.rel_path.clone(),
                    line: w.line,
                    msg: format!(
                        "un-WAL-bracketed `{}` write in `{name}` on a recovery-reachable path — \
                         record a `backup_wal(..)` intent before it and seal the WAL \
                         (`wal_seals += 1`) after it",
                        effects::region_name(w.region)
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- L9 ----

/// Interior-mutability types banned from the concurrency-audited crates.
const L9_CELL_TYPES: &[&str] = &["Cell", "RefCell", "UnsafeCell"];

/// Whether `rel_path` is in the crates the sharding arc will make
/// concurrent.
fn l9_scope(rel_path: &str) -> bool {
    rel_path.starts_with("crates/core/") || rel_path.starts_with("crates/mem/")
}

/// L9: concurrency-readiness audit for the sharded front-end. Production
/// code in `crates/core`/`crates/mem` must not smuggle shared mutability
/// (`static mut`, `thread_local!`, `Cell`/`RefCell`/`UnsafeCell`), and
/// store effects anywhere in the workspace must be confined to `&mut self`
/// methods so exclusive access is visible in every signature.
fn rule_l9(files: &[FileIndex], graph: &CallGraph, facts: &[FnFacts], out: &mut Vec<Diagnostic>) {
    for f in files {
        if !l9_scope(&f.rel_path) || is_test_file(&f.rel_path) {
            continue;
        }
        let toks = &f.tokens;
        for i in 0..toks.len() {
            if in_test(f, i) {
                continue;
            }
            let Some(name) = toks[i].kind.ident() else { continue };
            if name == "static" && toks.get(i + 1).is_some_and(|t| t.kind.is_ident("mut")) {
                out.push(Diagnostic {
                    rule: "L9",
                    file: f.rel_path.clone(),
                    line: toks[i].line,
                    msg: "`static mut` in concurrency-audited production code".to_owned(),
                });
            }
            if name == "thread_local" && toks.get(i + 1).is_some_and(|t| t.is_punct("!")) {
                out.push(Diagnostic {
                    rule: "L9",
                    file: f.rel_path.clone(),
                    line: toks[i].line,
                    msg: "`thread_local!` in concurrency-audited production code".to_owned(),
                });
            }
            if L9_CELL_TYPES.contains(&name) {
                out.push(Diagnostic {
                    rule: "L9",
                    file: f.rel_path.clone(),
                    line: toks[i].line,
                    msg: format!(
                        "interior mutability (`{name}`) in concurrency-audited production code \
                         — crates/core and crates/mem must stay shard-confinable"
                    ),
                });
            }
        }
    }
    // Store-effect confinement: a direct `SparseStore` mutation in a method
    // that does not take `&mut self` hides a write behind a shared borrow.
    for (n, node) in graph.nodes.iter().enumerate() {
        let fx = &facts[n];
        if fx.direct & effects::STORE == 0 || fx.mut_self {
            continue;
        }
        let f = &files[node.file];
        let name = &f.fns[node.item].name;
        for &(_, line) in &fx.stores {
            out.push(Diagnostic {
                rule: "L9",
                file: f.rel_path.clone(),
                line,
                msg: format!(
                    "store mutation in `{name}`, which does not take `&mut self` — store \
                     effects must be confined to exclusive-borrow methods"
                ),
            });
        }
    }
}

// --------------------------------------------------------------- L10 ----

/// Regions whose direct persists must be fence-dominated: the checkpoint
/// commit record and the security-metadata root. Both are atomic
/// "everything before me is durable" records — a persist-buffer entry
/// still pending when they land is exactly the §4.4 reordering window a
/// crash can exploit.
const L10_FENCED: u16 = effects::COMMIT_RECORD | effects::SECURITY_ROOT;

/// Crates whose device writes pass through the controller's volatile
/// persist buffer. Baselines issue writes directly (no WPQ), so the fence
/// obligation does not apply there.
fn l10_scope(rel_path: &str) -> bool {
    rel_path.starts_with("crates/core/")
}

/// L10: fence-dominated commit persists. Every direct commit-record or
/// security-root write in `crates/core` production code must be preceded,
/// in the same body, by a persist-buffer drain (`.wpq_fence(..)` or a
/// direct `.fence(..)` on the buffer), and the nearest such drain must
/// follow every earlier write of the body to a persisted (non-working)
/// region — an earlier fence does not cover writes issued after it. The
/// dynamic twin of this rule is the controller's `Error::UnfencedCommit`
/// audit; this static form catches the ordering bug before any crash test
/// has to.
fn rule_l10(files: &[FileIndex], graph: &CallGraph, facts: &[FnFacts], out: &mut Vec<Diagnostic>) {
    for (n, node) in graph.nodes.iter().enumerate() {
        let f = &files[node.file];
        if !l10_scope(&f.rel_path) {
            continue;
        }
        let fx = &facts[n];
        let name = &f.fns[node.item].name;
        for w in fx.writes.iter().filter(|w| w.region & L10_FENCED != 0) {
            let fence = fx.fences.iter().copied().filter(|&b| b < w.tok).max();
            let uncovered = fx.writes.iter().find(|e| {
                e.tok < w.tok && e.region != effects::WORKING && fence.is_some_and(|b| e.tok > b)
            });
            let why = match (fence, uncovered) {
                (None, _) => "unfenced".to_owned(),
                (Some(_), Some(e)) => format!(
                    "`{}` write at line {} sits between the nearest fence and the",
                    effects::region_name(e.region),
                    e.line
                ),
                (Some(_), None) => continue,
            };
            out.push(Diagnostic {
                rule: "L10",
                file: f.rel_path.clone(),
                line: w.line,
                msg: format!(
                    "{why} `{}` persist in `{name}` — drain the persist buffer (`wpq_fence`) \
                     after the last write the record covers and before the record lands",
                    effects::region_name(w.region)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, src: &str) -> Vec<Diagnostic> {
        check_all(&[FileIndex::parse(rel, src)])
    }

    #[test]
    fn l1_flags_rogue_store_write() {
        let diags = one(
            "crates/core/src/rogue.rs",
            "fn sneak(&mut self) { self.committed.write(a, b); }",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "L1");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn l1_allows_mem_crate_and_allowlist_and_tests() {
        assert!(one(
            "crates/mem/src/store.rs",
            "fn write_impl(&mut self) { self.committed.write(a, b); }"
        )
        .is_empty());
        assert!(one(
            "crates/core/src/controller.rs",
            "fn quarantine_rollback(&mut self) { self.visible.write(a, b); }"
        )
        .is_empty());
        // A checkpoint commit swaps in a captured image; it writes none.
        let diags = one(
            "crates/core/src/controller.rs",
            "fn commit_job(&mut self) { self.committed.write(a, b); }",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "L1");
        // A fallback pops a checkpoint record; it rewrites no record's image.
        let diags = one(
            "crates/core/src/controller.rs",
            "fn fall_back_to_penult(&mut self) { let last = x; last.store.write(a, b); }",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "L1");
        assert!(one(
            "crates/core/src/x.rs",
            "#[cfg(test)] mod t { fn f() { store.write(a, b); } }"
        )
        .is_empty());
    }

    #[test]
    fn l2_scopes_by_name_and_annotation() {
        let diags = one(
            "crates/core/src/r.rs",
            "fn recovery_step(&self) { x.unwrap(); }\nfn helper(&self) { y.unwrap(); }\n",
        );
        assert_eq!(diags.len(), 1, "only the recovery fn is in scope: {diags:?}");
        assert_eq!(diags[0].line, 1);

        let diags = one(
            "crates/core/src/r.rs",
            "// lint: recovery-path\nfn helper(&self) { y.unwrap(); }\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn l2_accepts_invariant_expect_only() {
        let src = concat!(
            "fn scrub_pass(&self) {\n",
            "    a.expect(\"invariant: scheduled earlier\");\n",
            "    b.expect(\"just because\");\n",
            "}\n",
        );
        let diags = one("crates/core/src/s.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn l2_flags_panics_and_literal_indexing() {
        let src = concat!(
            "fn redo_log(&self) {\n",
            "    if bad { panic!(\"no\"); }\n",
            "    let v = slots[0];\n",
            "    let w = slots[i];\n", // variable index: allowed
            "}\n",
        );
        let diags = one("crates/core/src/s.rs", src);
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 3]);
    }

    #[test]
    fn l2_panic_free_file_covers_tests_for_unwrap_only() {
        let src = concat!(
            "fn plain(&self) { x.unwrap(); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { assert_eq!(v[0], 1); y.unwrap(); }\n",
            "}\n",
        );
        let diags = check_all(&[FileIndex::parse("crates/core/src/table.rs", src)]);
        // Production unwrap at line 1, test unwrap at line 5; the test's
        // literal index is tolerated.
        let lines: Vec<u32> = diags.iter().filter(|d| d.rule == "L2").map(|d| d.line).collect();
        assert_eq!(lines, vec![1, 5]);
    }

    const STATS_SRC: &str = concat!(
        "pub struct MemStats {\n",
        "    pub reads: u64,\n",
        "    pub writes: u64,\n",
        "}\n",
        "impl MemStats {\n",
        "    pub fn reset(&mut self) { self.reads = 0; self.writes = 0; }\n",
        "}\n",
    );

    #[test]
    fn l3_flags_dead_and_unverified_counters() {
        let user = concat!(
            "fn work(&mut self) { self.stats.reads += 1; }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { assert_eq!(s.reads, 1); }\n",
            "}\n",
        );
        let files = [
            FileIndex::parse("crates/types/src/stats.rs", STATS_SRC),
            FileIndex::parse("crates/core/src/x.rs", user),
        ];
        let diags: Vec<_> =
            check_all(&files).into_iter().filter(|d| d.rule == "L3").collect();
        // `reads` is mutated + tested; `writes` is only touched by reset
        // (exempt) and never tested → two diagnostics, both at line 3.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.line == 3));
        assert!(diags.iter().any(|d| d.msg.contains("dead counter")));
        assert!(diags.iter().any(|d| d.msg.contains("unverified counter")));
    }

    const ERROR_SRC: &str = concat!(
        "pub enum Error {\n",
        "    NoCheckpoint,\n",
        "    TableFull { table: &'static str },\n",
        "}\n",
    );

    #[test]
    fn l4_flags_unconstructed_and_untested_variants() {
        let user = concat!(
            "fn f() -> Result<(), Error> { Err(Error::NoCheckpoint) }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { assert!(matches!(f(), Err(Error::NoCheckpoint))); }\n",
            "}\n",
        );
        let files = [
            FileIndex::parse("crates/types/src/error.rs", ERROR_SRC),
            FileIndex::parse("crates/core/src/x.rs", user),
        ];
        let diags: Vec<_> =
            check_all(&files).into_iter().filter(|d| d.rule == "L4").collect();
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.line == 3 && d.msg.contains("TableFull")));
    }

    #[test]
    fn l5_flags_unvalidated_numeric_fields_only() {
        let src = concat!(
            "pub struct MediaFaultConfig {\n",
            "    pub enabled: bool,\n",
            "    pub seed: u64,\n",
            "    pub max_read_retries: u32,\n",
            "}\n",
            "impl SystemConfig {\n",
            "    pub fn validate(&self) -> Result<()> {\n",
            "        if self.media.max_read_retries == 0 { return err(); }\n",
            "        Ok(())\n",
            "    }\n",
            "}\n",
        );
        let diags = one("crates/types/src/config.rs", src);
        let l5: Vec<_> = diags.iter().filter(|d| d.rule == "L5").collect();
        assert_eq!(l5.len(), 1, "{l5:?}");
        assert_eq!(l5[0].line, 3);
        assert!(l5[0].msg.contains("seed"));
    }

    #[test]
    fn l6_flags_manual_backoff_multiplication_both_sides() {
        let diags = one(
            "crates/core/src/x.rs",
            "fn spin(&self) { let wait = self.cfg.media.retry_backoff_ns * attempt; }",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L6");
        assert!(diags[0].msg.contains("retry_backoff_ns"));

        // Multiplier on the left of a field chain is the same hand-rolled loop.
        let diags = one(
            "crates/core/src/x.rs",
            "fn spin(&self) { let wait = attempt * self.cfg.dram_fault.refetch_backoff_ns; }",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L6");
        assert!(diags[0].msg.contains("refetch_backoff_ns"));
    }

    #[test]
    fn l7_flags_backup_effects_after_the_seal_directly_and_via_calls() {
        let src = concat!(
            "fn checkpoint_commit(&mut self, t: u64) {\n",
            "    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);\n",
            "    let t = self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t);\n",
            "    let t = self.nvm.access(self.space.backup(16384), AccessKind::Write, 64, t);\n",
            "    self.late_metadata(t);\n",
            "}\n",
            "fn late_metadata(&mut self, t: u64) {\n",
            "    self.nvm.access(self.space.security_root(), AccessKind::Write, 64, t);\n",
            "}\n",
        );
        let diags = one("crates/core/src/x.rs", src);
        let l7: Vec<_> = diags.iter().filter(|d| d.rule == "L7").collect();
        assert_eq!(l7.len(), 2, "{l7:?}");
        assert_eq!(l7[0].line, 4, "direct backup write after seal");
        assert_eq!(l7[1].line, 5, "call with security effects after seal");
        assert!(l7[1].msg.contains("late_metadata"));
    }

    #[test]
    fn l7_allows_wal_spare_and_store_work_after_the_seal() {
        let src = concat!(
            "fn checkpoint_commit(&mut self, t: u64) {\n",
            "    let t = self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t);\n",
            "    self.retire(t);\n",
            "}\n",
            "fn retire(&mut self, t: u64) {\n",
            "    let wal = self.space.backup_wal(self.wal_seq);\n",
            "    let t = self.nvm.access(wal, AccessKind::Write, 64, t);\n",
            "    let t = self.nvm.access(self.space.spare_block(1), AccessKind::Write, 64, t);\n",
            "    let t = self.nvm.access(wal, AccessKind::Write, 64, t);\n",
            "    self.stats.media.wal_seals += 1;\n",
            "    self.committed.write(a, b);\n",
            "}\n",
        );
        let diags = one("crates/core/src/controller.rs", src);
        assert!(
            diags.iter().all(|d| d.rule != "L7"),
            "wal/spare/store effects are post-commit-legal: {diags:?}"
        );
    }

    #[test]
    fn l8_flags_unbracketed_backup_write_reached_transitively() {
        let src = concat!(
            "fn recover_all(&mut self, t: u64) { self.restore_tables(t); }\n",
            "fn restore_tables(&mut self, t: u64) {\n",
            "    self.nvm.access(self.space.backup(16384), AccessKind::Write, 64, t);\n",
            "}\n",
        );
        let diags = one("crates/core/src/x.rs", src);
        let l8: Vec<_> = diags.iter().filter(|d| d.rule == "L8").collect();
        assert_eq!(l8.len(), 1, "{l8:?}");
        assert_eq!(l8[0].line, 3);
        assert!(l8[0].msg.contains("restore_tables"));
    }

    #[test]
    fn l8_accepts_bracketed_writes_and_ignores_non_recovery_paths() {
        // Properly WAL-bracketed recovery write: clean.
        let bracketed = concat!(
            "fn redo_pass(&mut self, t: u64) {\n",
            "    let wal = self.space.backup_wal(self.wal_seq);\n",
            "    let t = self.nvm.access(wal, AccessKind::Write, 64, t);\n",
            "    let t = self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);\n",
            "    let t = self.nvm.access(wal, AccessKind::Write, 64, t);\n",
            "    self.stats.media.wal_seals += 1;\n",
            "}\n",
        );
        assert!(one("crates/core/src/x.rs", bracketed).iter().all(|d| d.rule != "L8"));
        // The same unsealed write outside any recovery-reachable fn: L8 is
        // silent (L7/checkpoint rules own that space).
        let checkpoint_only = concat!(
            "fn persist_tables(&mut self, t: u64) {\n",
            "    self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);\n",
            "}\n",
        );
        assert!(one("crates/core/src/x.rs", checkpoint_only).iter().all(|d| d.rule != "L8"));
    }

    #[test]
    fn l9_flags_interior_mutability_in_scope_only() {
        let src = "use std::cell::Cell;\nfn f() { static mut X: u64 = 0; }\n";
        let diags = one("crates/mem/src/smuggle.rs", src);
        let l9: Vec<_> = diags.iter().filter(|d| d.rule == "L9").collect();
        assert_eq!(l9.len(), 2, "{l9:?}");
        assert_eq!(l9[0].line, 1);
        assert!(l9[0].msg.contains("Cell"));
        assert_eq!(l9[1].line, 2);
        assert!(l9[1].msg.contains("static mut"));
        // Same tokens outside the audited crates: silent.
        assert!(one("crates/bench/src/x.rs", src).iter().all(|d| d.rule != "L9"));
        // And in test code: silent.
        let test_src = "#[cfg(test)]\nmod t {\n    use std::cell::RefCell;\n}\n";
        assert!(one("crates/core/src/x.rs", test_src).iter().all(|d| d.rule != "L9"));
    }

    #[test]
    fn l9_flags_store_mutation_without_mut_self() {
        let src = "fn peek_write(&self) { self.committed.write(a, b); }\n";
        let diags = one("crates/mem/src/store.rs", src);
        let l9: Vec<_> = diags.iter().filter(|d| d.rule == "L9").collect();
        assert_eq!(l9.len(), 1, "{l9:?}");
        assert_eq!(l9[0].line, 1);
        assert!(l9[0].msg.contains("peek_write"));
        // `&mut self` confines the effect: clean.
        let ok = "fn do_write(&mut self) { self.committed.write(a, b); }\n";
        assert!(one("crates/mem/src/store.rs", ok).iter().all(|d| d.rule != "L9"));
    }

    #[test]
    fn l10_requires_a_fence_before_commit_and_root_persists_in_core_only() {
        let src = concat!(
            "fn seal_unfenced(&mut self, t: u64) {\n",
            "    self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t);\n",
            "}\n",
            "fn seal_fenced(&mut self, t: u64) {\n",
            "    let t = self.wpq_fence(t);\n",
            "    self.nvm.access(self.space.backup(0), AccessKind::Write, 64, t);\n",
            "}\n",
            "fn root_unfenced(&mut self, t: u64) {\n",
            "    self.nvm.access(self.space.security_root(), AccessKind::Write, 64, t);\n",
            "}\n",
            "fn metadata_needs_no_fence(&mut self, t: u64) {\n",
            "    self.nvm.access(self.space.backup(8192), AccessKind::Write, 64, t);\n",
            "}\n",
        );
        let diags = one("crates/core/src/x.rs", src);
        let l10: Vec<_> = diags.iter().filter(|d| d.rule == "L10").collect();
        assert_eq!(l10.len(), 2, "{l10:?}");
        assert_eq!(l10[0].line, 2);
        assert!(l10[0].msg.contains("commit_record"), "{}", l10[0].msg);
        assert_eq!(l10[1].line, 9);
        assert!(l10[1].msg.contains("security_root"), "{}", l10[1].msg);
        // Baselines persist their commit records without a WPQ: out of scope.
        assert!(one("crates/baselines/src/journal.rs", src).iter().all(|d| d.rule != "L10"));
    }

    #[test]
    fn l8_and_l10_see_writes_through_the_persist_record_primitive() {
        // A recovery-path health record with a WAL intent but no seal.
        let unsealed = concat!(
            "fn crash_and_recover(&mut self, t: u64) {\n",
            "    let wal = self.space.backup_wal(self.wal_seq);\n",
            "    let t = self.persist_record(wal, 64, t, NvmWriteClass::Migration);\n",
            "    let t = self.persist_record(self.space.health_record(), 64, t, NvmWriteClass::Checkpoint);\n",
            "    let t = self.wpq_fence(t);\n",
            "}\n",
        );
        let diags = one("crates/core/src/x.rs", unsealed);
        let l8: Vec<_> = diags.iter().filter(|d| d.rule == "L8").collect();
        assert_eq!(l8.len(), 1, "{l8:?}");
        assert_eq!(l8[0].line, 4);
        let sealed = unsealed.replace(
            "    let t = self.wpq_fence(t);\n",
            "    let t = self.wpq_fence(t);\n    self.nvm.access(wal, AccessKind::Write, 64, t);\n    self.stats.media.wal_seals += 1;\n",
        );
        assert!(one("crates/core/src/x.rs", &sealed).iter().all(|d| d.rule != "L8"));

        // An unfenced security-root record in the controller crate.
        let root = concat!(
            "fn persist_root(&mut self, t: u64) {\n",
            "    self.persist_record(self.space.security_root(), 64, t, NvmWriteClass::Checkpoint);\n",
            "}\n",
        );
        let diags = one("crates/core/src/x.rs", root);
        let l10: Vec<_> = diags.iter().filter(|d| d.rule == "L10").collect();
        assert_eq!(l10.len(), 1, "{l10:?}");
        assert_eq!(l10[0].line, 2);
        assert!(l10[0].msg.contains("security_root"), "{}", l10[0].msg);
    }

    #[test]
    fn l6_allows_policy_file_tests_and_plain_reads() {
        // The policy crate owns the one sanctioned multiplication.
        assert!(one(
            "crates/types/src/retry.rs",
            "fn backoff(&self, attempt: u32) { self.backoff_ns * u64::from(attempt); }"
        )
        .is_empty());
        // Test code may model schedules by hand to cross-check the policy.
        assert!(one(
            "crates/core/src/x.rs",
            "#[cfg(test)] mod t { fn t() { let w = backoff_ns * 3; } }"
        )
        .is_empty());
        // Passing the knob through (e.g. into RetryPolicy::new) is fine.
        assert!(one(
            "crates/core/src/x.rs",
            "fn mk(&self) { RetryPolicy::new(self.cfg.media.max_read_retries, self.cfg.media.retry_backoff_ns); }"
        )
        .is_empty());
    }
}
