//! Unit tests of the static lint pass.

use super::*;

/// The locks the test sources take, built the way `ddrs-shard`
/// builds them.
const DECLS: &str = "fn core() -> Inner { Inner { \
                     queue: TrackedMutex::new(\"sched.queue\", VecDeque::new()), \
                     stats: TrackedMutex::new(\"shard.stats\", Stats::default()), \
                     arrived: TrackedCondvar::new() } }";

/// Lint `src` with [`DECLS`] appended.
fn lints_of(src: &str) -> Vec<Lint> {
    lint_source("crates/shard/src/fixture.rs", &format!("{src}\n{DECLS}"), LintSet::all())
        .into_iter()
        .map(|d| d.lint)
        .collect()
}

#[test]
fn inverted_order_is_flagged() {
    let src = "fn f(&self) { let st = self.stats.lock(); let q = self.queue.lock(); }";
    assert_eq!(lints_of(src), vec![Lint::LockOrder]);
}

#[test]
fn canonical_order_is_clean() {
    let src = "fn f(&self) { let q = self.queue.lock(); let st = self.stats.lock(); }";
    assert!(lints_of(src).is_empty());
}

#[test]
fn guard_scope_ends_at_block_close() {
    let src = "fn f(&self) { { let st = self.stats.lock(); } let q = self.queue.lock(); }";
    assert!(lints_of(src).is_empty());
}

#[test]
fn explicit_drop_releases() {
    let src = "fn f(&self) { let st = self.stats.lock(); drop(st); let q = self.queue.lock(); }";
    assert!(lints_of(src).is_empty());
}

#[test]
fn recv_under_guard_is_flagged() {
    let src = "fn f(&self) { let st = self.stats.lock(); let x = rx.recv(); }";
    assert_eq!(lints_of(src), vec![Lint::BlockingWhileLocked]);
}

#[test]
fn recv_after_temp_statement_is_clean() {
    let src = "fn f(&self) { self.stats.lock().completed += 1; let x = rx.recv(); }";
    assert!(lints_of(src).is_empty());
}

#[test]
fn temp_guards_in_separate_args_do_not_overlap() {
    let src = "fn f(&self) { g(|| self.stats.lock().a += 1, || self.stats.lock().b += 1); }";
    assert!(lints_of(src).is_empty());
}

#[test]
fn condvar_wait_with_own_guard_is_legal() {
    let src = "fn f(&self) { let mut q = self.queue.lock(); q = self.arrived.wait(q); }";
    assert!(lints_of(src).is_empty());
}

#[test]
fn condvar_wait_with_extra_guard_is_flagged() {
    let src = "fn f(&self) { let st = self.stats.lock(); let mut q = self.queue.lock(); \
               q = self.arrived.wait(q); }";
    assert!(lints_of(src).contains(&Lint::BlockingWhileLocked));
}

#[test]
fn unwrap_and_expect_are_flagged_and_allowed() {
    assert_eq!(lints_of("fn f() { x.unwrap(); }"), vec![Lint::Unwrap]);
    assert_eq!(lints_of("fn f() { x.expect(\"m\"); }"), vec![Lint::Unwrap]);
    let allowed = "fn f() {\n // ddrs-check: allow(unwrap) — infallible\n x.unwrap(); }";
    assert!(lints_of(allowed).is_empty());
}

#[test]
fn relaxed_is_flagged_and_allowed() {
    assert_eq!(lints_of("fn f() { a.swap(true, Ordering::Relaxed); }"), vec![Lint::Relaxed]);
    let allowed =
        "fn f() { a.swap(true, Ordering::Relaxed); // ddrs-check: allow(relaxed) — tally\n }";
    assert!(lints_of(allowed).is_empty());
}

#[test]
fn cfg_test_items_are_skipped() {
    let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }\nfn g() {}";
    assert!(lints_of(src).is_empty());
}

#[test]
fn comments_and_strings_do_not_tokenize() {
    let src = "fn f() { let s = \".unwrap()\"; /* x.unwrap() */ // y.unwrap()\n }";
    assert!(lints_of(src).is_empty());
}

#[test]
fn helper_lock_form_is_tracked() {
    let src = "fn f(&self) { let st = lock(&self.stats); let q = lock(&self.queue); }";
    assert_eq!(lints_of(src), vec![Lint::LockOrder]);
}

#[test]
fn the_client_state_field_ranks_as_the_ticket_mutex() {
    let decls = "fn new() -> Ticket { Ticket { \
                 state: Arc::new(TrackedMutex::new(\"ticket.state\", State::Waiting)), \
                 registry: TrackedMutex::new(\"metrics.registry\", BTreeMap::new()) } }";
    let lint = |src| {
        lint_source("crates/client/src/ticket.rs", &format!("{src}\n{decls}"), LintSet::all())
    };
    let inverted = lint("fn f(&self) { let m = self.registry.lock(); let s = self.state.lock(); }");
    assert_eq!(inverted.len(), 1);
    assert_eq!(inverted[0].lint, Lint::LockOrder);
    assert!(inverted[0].message.contains("acquiring 'ticket.state'"), "{}", inverted[0]);
    let canonical = "fn f(&self) { let s = self.state.lock(); let m = self.registry.lock(); }";
    assert!(lint(canonical).is_empty());
}

#[test]
fn machine_run_under_guard_is_flagged() {
    let src = "fn f(&self) { let st = self.stats.lock(); Machine::run(&m, f); }";
    assert!(lints_of(src).contains(&Lint::BlockingWhileLocked));
}

#[test]
fn a_field_renamed_at_declaration_and_use_keeps_its_rank() {
    let decls = "fn new() -> Inner { Inner { \
                 telemetry: TrackedMutex::new(\"shard.stats\", Stats::default()) } }";
    let inverted = "fn f(&self) { let t = self.telemetry.lock(); let q = self.queue.lock(); }";
    assert_eq!(lints_of(&format!("{inverted}\n{decls}")), vec![Lint::LockOrder]);
    let canonical = "fn f(&self) { let q = self.queue.lock(); let t = self.telemetry.lock(); }";
    assert!(lints_of(&format!("{canonical}\n{decls}")).is_empty());
}

#[test]
fn a_misspelled_class_is_a_finding() {
    let src = "fn new() -> Core {\n Core { backlog: TrackedMutex::new(\"sched.qeue\", q) } }";
    let diags = lint_source("crates/shard/src/sched.rs", src, LintSet::all());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].lint, diags[0].line), (Lint::LockOrder, 2));
    assert!(diags[0].message.contains("'sched.qeue'"), "{}", diags[0]);
}

#[test]
fn one_name_for_a_tracked_and_a_plain_mutex_is_a_finding() {
    let src = "fn a() -> Ticket { Ticket { state: TrackedMutex::new(\"ticket.state\", s) } }\n\
               fn b() -> Store { Store { state: Mutex::new(t) } }";
    let diags = lint_source("crates/client/src/lib.rs", src, LintSet::all());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].lint, diags[0].line), (Lint::LockOrder, 2));
    assert!(diags[0].message.contains("crates/client/src/lib.rs:1"), "{}", diags[0]);
}

#[test]
fn static_and_let_bindings_are_ranked() {
    let decls = "static RINGS: TrackedMutex<Vec<Ring>> =\n\
                 TrackedMutex::new(\"trace.ring\", Vec::new());";
    let body = |first: &str, second: &str| {
        format!(
            "fn f() {{ let backlog = Arc::new(TrackedMutex::new(\"sched.queue\", q)); \
             let a = {first}.lock(); let b = {second}.lock(); }}\n{decls}"
        )
    };
    assert_eq!(lints_of(&body("RINGS", "backlog")), vec![Lint::LockOrder]);
    assert!(lints_of(&body("backlog", "RINGS")).is_empty());
}

/// `lint_workspace` over a scratch tree holding every workspace
/// crate's directory and `files`.
fn lint_tree(tag: &str, files: &[(&str, String)]) -> Vec<Diagnostic> {
    let root = std::env::temp_dir().join(format!("ddrs-check-{tag}-{}", std::process::id()));
    for (dir, _) in WORKSPACE_CRATES {
        std::fs::create_dir_all(root.join(dir)).unwrap();
    }
    for (file, src) in files {
        std::fs::write(root.join(file), src).unwrap();
    }
    let diags = lint_workspace(&root);
    std::fs::remove_dir_all(&root).unwrap();
    diags.unwrap()
}

/// One `static` per canonical class but `skip`.
fn statics_but(skip: &str) -> String {
    CANONICAL_LOCK_ORDER
        .iter()
        .enumerate()
        .filter(|(_, class)| **class != skip)
        .map(|(k, class)| {
            format!("static L{k}: TrackedMutex<()> = TrackedMutex::new({class:?}, ());\n")
        })
        .collect()
}

#[test]
fn an_order_entry_no_crate_builds_is_a_workspace_finding() {
    let diags = lint_tree("stale", &[("crates/shard/src/lib.rs", statics_but("wal.append"))]);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].lint, diags[0].line), (Lint::LockOrder, ORDER_LINE));
    assert!(diags[0].message.contains("'wal.append'"), "{}", diags[0]);
}

#[test]
fn a_binding_ranks_its_name_in_every_file_of_its_crate() {
    // `L0` is `sched.queue`, `L1` is `shard.stats`.
    let inverted = "fn f() { let s = L1.lock(); let q = L0.lock(); }".to_string();
    let diags = lint_tree(
        "crate",
        &[
            ("crates/shard/src/lib.rs", statics_but("")),
            ("crates/shard/src/a.rs", inverted.clone()),
        ],
    );
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].path.as_str(), diags[0].lint), ("crates/shard/src/a.rs", Lint::LockOrder));
    let other_crate = lint_tree(
        "other",
        &[("crates/shard/src/lib.rs", statics_but("")), ("crates/wal/src/a.rs", inverted)],
    );
    assert!(other_crate.is_empty(), "{other_crate:?}");
}
