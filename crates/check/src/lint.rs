//! The static lint pass: token-wise concurrency-discipline checks.
//!
//! The analysis is deliberately syntactic — a hand-rolled tokenizer
//! (comments, strings, raw strings, char literals and lifetimes are
//! handled; everything else becomes identifier/symbol tokens with line
//! numbers) plus a brace/paren-depth walker that tracks which lock
//! guards are live at each point of a function body. Four lints:
//!
//! * **`lock-order`** (L1) — tracked locks must be acquired in the
//!   canonical order [`CANONICAL_LOCK_ORDER`]; a nested acquisition at
//!   an equal-or-lower rank is flagged as a potential deadlock.
//! * **`blocking-while-locked`** (L2) — no `Machine::run`/`try_run`,
//!   condvar wait, `Ticket::wait*`, thread join or channel `recv` while
//!   a tracked guard is live in scheduler/worker code. (A condvar wait
//!   consuming its *own* guard is the one legal form.)
//! * **`unwrap`** (L3) — no `.unwrap()` / `.expect()` in non-test
//!   `shard` code: a panic there poisons a whole shard.
//! * **`relaxed`** (L4) — no `Ordering::Relaxed` in the scheduler
//!   stack, where atomics gate commit sequencing and consistency.
//!
//! Any finding can be waived with a `// ddrs-check: allow(<lint>)`
//! comment on the flagged line or the line directly above it — the
//! justification belongs in the same comment.
//!
//! Guard liveness is approximated conservatively: a `let`-bound guard
//! lives until its enclosing block closes or an explicit `drop(<var>)`;
//! an unbound (temporary) guard lives to the end of its statement or
//! argument position. `#[cfg(test)]` items are skipped entirely. The
//! pass sees nesting *within* one function body; nesting that spans
//! function calls is covered by the [`crate::lock`] runtime instead.
//!
//! `wal.append` is the per-shard write-ahead log's append mutex
//! (`ddrs-wal`): the router appends committed epochs while holding no
//! scheduler lock, so it ranks between the router's telemetry and the
//! cross-shard merge state, and — like everything else — above the
//! telemetry classes.
//!
//! `net.conn` covers every connection-scoped lock of the network
//! front-end (`ddrs-net`): the server's connection table and the remote
//! client's per-connection pending map and write half. They rank below
//! the serving locks (network threads never hold one while submitting
//! into a scheduler) and above `ticket.state`, because a demux thread
//! may resolve tickets from under its connection state.
//!
//! A lock's class is read where the lock is built, as in kernel lockdep:
//! a `TrackedMutex::new("class", ..)` bound by a struct-literal field, a
//! `let` or a `static` (bare or in `Arc::new(..)`) ranks every guard taken
//! through that name in the same crate, and a `TrackedCondvar::new()`
//! binding makes the name a condvar. A class missing from the order, or
//! one name bound to two different locks in a crate (a plain `Mutex`
//! counts), is itself a `lock-order` finding, so a typo or a collision is
//! loud. [`lint_source`] reads the declarations of the one file it gets.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The canonical acquisition order over the scheduler stack's named
/// lock classes, outermost first. `shard.stats` is the router's
/// telemetry; `shard.cross` is the per-`CrossOp` merge state;
/// `net.conn` is the network front-end's connection-scoped state
/// (server connection table, remote-client pending maps and write
/// halves); `ticket.state` is the ticket's one mutex (its outcome and
/// its one listener), innermost of the scheduling locks because
/// resolving a ticket is the last thing a completion path does. The two
/// telemetry classes sit below everything: `metrics.registry` is the
/// unified export registry, and `trace.ring` guards the per-thread span
/// ring-buffers — recording an event must be legal from under any
/// scheduler lock, so it ranks last.
pub const CANONICAL_LOCK_ORDER: &[&str] = &[
    "sched.queue",
    "shard.stats",
    "wal.append",
    "shard.cross",
    "net.conn",
    "ticket.state",
    "metrics.registry",
    "trace.ring",
];
const ORDER_LINE: usize = line!() as usize - 1; // `CANONICAL_LOCK_ORDER`'s last line

/// Method names that block the calling thread (L2).
const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "run",
    "try_run",
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_until",
    "join",
];

/// The four lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// L1: nested lock acquisition out of canonical order.
    LockOrder,
    /// L2: a blocking call while a tracked guard is live.
    BlockingWhileLocked,
    /// L3: `.unwrap()` / `.expect()` in non-test scheduler code.
    Unwrap,
    /// L4: `Ordering::Relaxed` in the scheduler stack.
    Relaxed,
}

impl Lint {
    /// The lint's name as used in `// ddrs-check: allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::LockOrder => "lock-order",
            Lint::BlockingWhileLocked => "blocking-while-locked",
            Lint::Unwrap => "unwrap",
            Lint::Relaxed => "relaxed",
        }
    }

    /// Parse an allow-annotation name.
    pub fn from_name(name: &str) -> Option<Lint> {
        [Lint::LockOrder, Lint::BlockingWhileLocked, Lint::Unwrap, Lint::Relaxed]
            .into_iter()
            .find(|l| l.name() == name)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, rendered as `path:line: [lint] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path of the offending file as given to the linter.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.lint, self.message)
    }
}

/// Which lints to run on a file: every one, or — the workspace policy
/// for every crate but `shard` — only `lock-order` and `relaxed`.
#[derive(Debug, Clone, Copy)]
pub struct LintSet {
    every: bool,
}

impl LintSet {
    /// Every lint on — used for explicit file arguments and fixtures.
    pub fn all() -> LintSet {
        LintSet { every: true }
    }

    fn enabled(self, lint: Lint) -> bool {
        self.every || matches!(lint, Lint::LockOrder | Lint::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Sym(char),
    /// A string literal's text, escapes left as written.
    Str(String),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

impl Token {
    fn is_sym(&self, c: char) -> bool {
        self.tok == Tok::Sym(c)
    }
    fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }
}

struct Scanned {
    /// Every token outside `#[cfg(test)]` items.
    tokens: Vec<Token>,
    /// Lines carrying at least one token (i.e. code, not comments).
    code_lines: HashSet<usize>,
    /// line → lints waived on that line. An allow annotation covers its
    /// own line and the next *code* line below it (intervening
    /// comment-only/blank lines are skipped, so multi-line
    /// justifications work).
    allows: HashMap<usize, Vec<Lint>>,
}

fn record_allow(comment: &str, line: usize, allows: &mut HashMap<usize, Vec<Lint>>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("ddrs-check: allow(") {
        rest = &rest[pos + "ddrs-check: allow(".len()..];
        let Some(end) = rest.find(')') else { return };
        if let Some(lint) = Lint::from_name(rest[..end].trim()) {
            allows.entry(line).or_default().push(lint);
        }
        rest = &rest[end..];
    }
}

fn scan(src: &str) -> Scanned {
    let b: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut tokens = Vec::new();
    let mut allows: HashMap<usize, Vec<Lint>> = HashMap::new();
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            let comment: String = b[start..i].iter().collect();
            record_allow(&comment, line, &mut allows);
        } else if c == '/' && b.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1;
            while i < b.len() && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if let Some((open, hashes)) = raw_string_hashes(&b, i) {
            // r"…", r#"…"#, br"…", … — up to the matching close quote.
            let open_line = line;
            i = open + 1;
            while i < b.len() && !(b[i] == '"' && closes_raw(&b, i, hashes)) {
                line += usize::from(b[i] == '\n');
                i += 1;
            }
            tokens.push(Token { tok: Tok::Str(b[open + 1..i].iter().collect()), line: open_line });
            i += 1 + hashes;
        } else if c == '"' || (c == 'b' && b.get(i + 1) == Some(&'"')) {
            let open = if c == 'b' { i + 1 } else { i };
            let open_line = line;
            i = skip_string(&b, open, &mut line);
            tokens.push(Token {
                tok: Tok::Str(b[open + 1..i - 1].iter().collect()),
                line: open_line,
            });
        } else if c == '\'' {
            // Char literal vs lifetime.
            if b.get(i + 1) == Some(&'\\') {
                i += 2; // skip the escape lead-in
                while i < b.len() && b[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if b.get(i + 2) == Some(&'\'') {
                i += 3;
            } else {
                // Lifetime: skip the quote, the ident is tokenized (and
                // ignored) normally.
                i += 1;
            }
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            tokens.push(Token { tok: Tok::Ident(b[start..i].iter().collect()), line });
        } else {
            tokens.push(Token { tok: Tok::Sym(c), line });
            i += 1;
        }
    }
    let code_lines = tokens.iter().map(|t| t.line).collect();
    Scanned { tokens: strip_cfg_test(tokens), code_lines, allows }
}

/// `tokens` without the items under `#[cfg(test)]`, which no lint and
/// no declaration reads.
fn strip_cfg_test(tokens: Vec<Token>) -> Vec<Token> {
    let mut kept = Vec::new();
    let mut i = 0;
    while let Some(t) = tokens.get(i) {
        if at_cfg_test(&tokens, i) {
            i = skip_cfg_test_item(&tokens, i);
        } else {
            kept.push(t.clone());
            i += 1;
        }
    }
    kept
}

/// Does `#[cfg(test)]` start at token `i`?
fn at_cfg_test(tokens: &[Token], i: usize) -> bool {
    let pat = ["#", "[", "cfg", "(", "test", ")", "]"];
    pat.iter().enumerate().all(|(k, want)| match tokens.get(i + k).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => s == want,
        Some(Tok::Sym(c)) => want.len() == 1 && want.starts_with(*c),
        _ => false,
    })
}

/// Skip the item following a `#[cfg(test)]` attribute at `i`: everything
/// up to the first `;`, or the matching `}` of the first `{`.
fn skip_cfg_test_item(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0;
    for (j, t) in tokens.iter().enumerate().skip(i + 7) {
        match t.tok {
            Tok::Sym(';') if depth == 0 => return j + 1,
            Tok::Sym('{') => depth += 1,
            Tok::Sym('}') if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// If position `i` starts a raw-string opener (`r`/`br` + hashes + `"`),
/// return (index of the opening quote, number of hashes).
fn raw_string_hashes(b: &[char], i: usize) -> Option<(usize, usize)> {
    // A preceding ident char means this `r` is inside an identifier.
    if i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
        return None;
    }
    let r = i + usize::from(b[i] == 'b');
    if b.get(r) != Some(&'r') {
        return None;
    }
    let hashes = b[r + 1..].iter().take_while(|&&c| c == '#').count();
    (b.get(r + 1 + hashes) == Some(&'"')).then_some((r + 1 + hashes, hashes))
}

fn closes_raw(b: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| b.get(i + k) == Some(&'#'))
}

/// The index past the string literal opening at `open`.
fn skip_string(b: &[char], open: usize, line: &mut usize) -> usize {
    let mut i = open + 1;
    while i < b.len() && b[i] != '"' {
        *line += usize::from(b[i] == '\n');
        i += if b[i] == '\\' { 2 } else { 1 };
    }
    i.min(b.len()) + 1
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

/// The lock a name is bound to where it is built.
#[derive(Debug, Clone, PartialEq)]
enum Lock {
    /// `TrackedMutex::new("class", ..)`.
    Tracked(String),
    /// `TrackedCondvar::new()`.
    Condvar,
    /// A plain `Mutex::new(..)`: legal, never ranked.
    Plain,
}

/// One name bound to a lock.
#[derive(Debug, Clone)]
struct Binding {
    name: String,
    lock: Lock,
    path: String,
    line: usize,
}

/// A crate's lock names, each with its first binding in path and line
/// order.
type Decls = HashMap<String, Binding>;

fn declare(bindings: &[Binding]) -> Decls {
    // Collected last to first, so a name's first binding is the one kept.
    bindings.iter().rev().map(|b| (b.name.clone(), b.clone())).collect()
}

/// Every lock built in `tokens` and bound to a name: the constructor,
/// bare or inside `Arc::new(..)`, is the whole value of a struct-literal
/// field, a `let` or a `static`.
fn bindings(path: &str, tokens: &[Token]) -> Vec<Binding> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let lock = match (t.ident(), tokens.get(i + 5).map(|t| &t.tok)) {
            _ if !calls(tokens, i, "new") => continue,
            (Some("TrackedMutex"), Some(Tok::Str(class))) => Lock::Tracked(class.clone()),
            (Some("TrackedCondvar"), _) => Lock::Condvar,
            (Some("Mutex"), _) => Lock::Plain,
            _ => continue,
        };
        // Back over the constructor's path and any `Arc::new(` around it.
        let mut s = path_start(tokens, i);
        while s >= 2 && tokens[s - 1].is_sym('(') && tokens[s - 2].ident() == Some("new") {
            s = path_start(tokens, s - 2);
        }
        let name = match tokens.get(s.wrapping_sub(1)) {
            Some(t) if t.is_sym(':') => tokens.get(s.wrapping_sub(2)).and_then(Token::ident),
            Some(t) if t.is_sym('=') => {
                let stmt = &tokens[..s - 1];
                let start =
                    stmt.iter().rposition(|t| t.is_sym(';') || t.is_sym('{') || t.is_sym('}'));
                bound_by(&stmt[start.map_or(0, |k| k + 1)..])
            }
            _ => None,
        };
        out.extend(name.map(|n| Binding { name: n.into(), lock, path: path.into(), line: t.line }));
    }
    out
}

/// Is the type name at `i` followed by `::<method>(`?
fn calls(tokens: &[Token], i: usize, method: &str) -> bool {
    let sym = |k: usize, c: char| tokens.get(i + k).is_some_and(|t| t.is_sym(c));
    sym(1, ':')
        && sym(2, ':')
        && tokens.get(i + 3).and_then(Token::ident) == Some(method)
        && sym(4, '(')
}

/// The first token of the path ending at identifier `i`
/// (`std::sync::Mutex` → `std`).
fn path_start(tokens: &[Token], mut i: usize) -> usize {
    while i >= 3
        && tokens[i - 1].is_sym(':')
        && tokens[i - 2].is_sym(':')
        && tokens[i - 3].ident().is_some()
    {
        i -= 3;
    }
    i
}

/// The name bound by the `let` or `static` that opens `stmt`, unless an
/// `=` comes first (a plain assignment binds nothing).
fn bound_by(stmt: &[Token]) -> Option<&str> {
    let at =
        stmt.iter().position(|t| matches!(t.ident(), Some("let" | "static")) || t.is_sym('='))?;
    stmt[at].ident()?;
    stmt[at + 1..].iter().filter_map(Token::ident).find(|&v| v != "mut")
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LiveGuard {
    rank: usize,
    name: &'static str,
    /// `Some` when `let`-bound; `None` for statement temporaries.
    var: Option<String>,
    brace: usize,
    paren: usize,
    temp: bool,
}

struct Analyzer<'a> {
    path: &'a str,
    tokens: &'a [Token],
    allows: &'a HashMap<usize, Vec<Lint>>,
    code_lines: &'a HashSet<usize>,
    decls: &'a Decls,
    set: LintSet,
    diags: Vec<Diagnostic>,
    guards: Vec<LiveGuard>,
    brace: usize,
    paren: usize,
    /// Token index where the current statement began (used for `let`
    /// binding detection).
    stmt_start: usize,
}

/// Lint one source file, ranking its guards by the locks it builds
/// itself. `path` is used for diagnostics only.
pub fn lint_source(path: &str, src: &str, set: LintSet) -> Vec<Diagnostic> {
    let scanned = scan(src);
    lint_scanned(path, &scanned, &declare(&bindings(path, &scanned.tokens)), set)
}

/// Lint one scanned file against its crate's declarations.
fn lint_scanned(path: &str, scanned: &Scanned, decls: &Decls, set: LintSet) -> Vec<Diagnostic> {
    let mut a = Analyzer {
        path,
        tokens: &scanned.tokens,
        allows: &scanned.allows,
        code_lines: &scanned.code_lines,
        decls,
        set,
        diags: Vec::new(),
        guards: Vec::new(),
        brace: 0,
        paren: 0,
        stmt_start: 0,
    };
    a.check_bindings();
    a.run();
    a.diags
}

impl Analyzer<'_> {
    fn allowed(&self, line: usize, lint: Lint) -> bool {
        // The flagged line and the comment block directly above it, up to
        // and including the first code line.
        let top = (1..line).rev().find(|l| self.code_lines.contains(l)).unwrap_or(1);
        (top..=line).any(|l| self.allows.get(&l).is_some_and(|v| v.contains(&lint)))
    }

    fn flag(&mut self, line: usize, lint: Lint, message: String) {
        if self.set.enabled(lint) && !self.allowed(line, lint) {
            self.diags.push(Diagnostic { path: self.path.to_string(), line, lint, message });
        }
    }

    /// Flag this file's bindings whose class is not in the canonical
    /// order, or whose name the crate first bound to another lock.
    fn check_bindings(&mut self) {
        for b in bindings(self.path, self.tokens) {
            let first = &self.decls[&b.name];
            let msg = match &b.lock {
                Lock::Tracked(class) if !CANONICAL_LOCK_ORDER.contains(&class.as_str()) => {
                    format!("lock class '{class}' is not in the canonical lock order")
                }
                lock if *lock != first.lock => format!(
                    "'{}' is bound to {lock:?} here and to {:?} at {}:{} — a name must \
                     build one lock per crate for its guards to be ranked",
                    b.name, first.lock, first.path, first.line
                ),
                _ => continue,
            };
            self.flag(b.line, Lint::LockOrder, msg);
        }
    }

    fn run(&mut self) {
        let mut i = 0;
        while i < self.tokens.len() {
            let t = self.tokens[i].clone();
            match &t.tok {
                Tok::Sym('{') => {
                    self.brace += 1;
                    self.stmt_start = i + 1;
                }
                Tok::Sym('}') => {
                    self.brace = self.brace.saturating_sub(1);
                    let depth = self.brace;
                    self.guards.retain(|g| g.brace <= depth);
                    self.stmt_start = i + 1;
                }
                Tok::Sym('(') => self.paren += 1,
                Tok::Sym(')') => {
                    self.paren = self.paren.saturating_sub(1);
                    let depth = self.paren;
                    self.guards.retain(|g| !(g.temp && g.paren > depth));
                }
                Tok::Sym(',') => {
                    let depth = self.paren;
                    self.guards.retain(|g| !(g.temp && g.paren >= depth));
                }
                Tok::Sym(';') => {
                    self.guards.retain(|g| !g.temp);
                    self.stmt_start = i + 1;
                }
                Tok::Sym('.') => {
                    i = self.method_call(i);
                    continue;
                }
                Tok::Ident(id) if id == "drop" => {
                    if let Some(next) = self.explicit_drop(i) {
                        i = next;
                        continue;
                    }
                }
                Tok::Ident(id) if id == "lock" => {
                    // Free-function form `lock(&self.field)`.
                    let is_method = i > 0 && self.tokens[i - 1].is_sym('.');
                    if !is_method && self.tokens.get(i + 1).is_some_and(|t| t.is_sym('(')) {
                        if let Some((ids, close)) = self.paren_group(i + 1) {
                            let terminal =
                                self.tokens.get(close + 1).is_some_and(|t| t.is_sym(';'));
                            if let Some(field) = ids.last() {
                                self.acquire(field, t.line, i, terminal);
                            }
                        }
                    }
                }
                Tok::Ident(id) if id == "Relaxed" => {
                    self.flag(
                        t.line,
                        Lint::Relaxed,
                        "Ordering::Relaxed in the scheduler stack — commit-seq and \
                         consistency-gating atomics need acquire/release (or stronger); \
                         annotate telemetry-only uses"
                            .to_string(),
                    );
                }
                Tok::Ident(id)
                    if id == "Machine"
                        && !self.guards.is_empty()
                        && (calls(self.tokens, i, "run") || calls(self.tokens, i, "try_run")) =>
                {
                    let held = self.held_names();
                    self.flag(
                        t.line,
                        Lint::BlockingWhileLocked,
                        format!(
                            "Machine::run while holding [{held}] — a machine run can \
                                 block on sibling processors; release tracked guards first"
                        ),
                    );
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn held_names(&self) -> String {
        self.guards.iter().map(|g| g.name).collect::<Vec<_>>().join(", ")
    }

    /// Handle `recv/run/wait/unwrap/…` at `self.tokens[i] == '.'`;
    /// returns the next index to resume from.
    fn method_call(&mut self, i: usize) -> usize {
        let Some(m) = self.tokens.get(i + 1).and_then(Token::ident).map(str::to_string) else {
            return i + 1;
        };
        let has_call = self.tokens.get(i + 2).is_some_and(|t| t.is_sym('('));
        let line = self.tokens[i + 1].line;
        let receiver = if i > 0 { self.tokens[i - 1].ident().map(str::to_string) } else { None };
        if !has_call {
            return i + 1;
        }
        if m == "lock" && self.tokens.get(i + 3).is_some_and(|t| t.is_sym(')')) {
            if let Some(field) = receiver {
                let terminal = self.tokens.get(i + 4).is_some_and(|t| t.is_sym(';'));
                self.acquire(&field, line, i, terminal);
            }
            return i + 1;
        }
        if (m == "wait" || m == "wait_timeout")
            && receiver.and_then(|r| self.decls.get(&r)).is_some_and(|b| b.lock == Lock::Condvar)
        {
            // Condvar wait: consuming its own guard is legal; any OTHER
            // live guard means we block while holding it.
            let own = self.tokens.get(i + 3).and_then(Token::ident);
            let others: Vec<&str> =
                self.guards.iter().filter(|g| g.var.as_deref() != own).map(|g| g.name).collect();
            if !others.is_empty() {
                self.flag(
                    line,
                    Lint::BlockingWhileLocked,
                    format!(
                        "condvar wait while still holding [{}] — only the guard handed to \
                         the wait is released",
                        others.join(", ")
                    ),
                );
            }
            return i + 1;
        }
        if m == "unwrap" || m == "expect" {
            self.flag(
                line,
                Lint::Unwrap,
                format!(
                    ".{m}() in scheduler-stack code — a panic here poisons a whole shard; \
                     return a ServiceError / take the poisoning path, or annotate why this \
                     is infallible"
                ),
            );
            return i + 1;
        }
        if BLOCKING_METHODS.contains(&m.as_str()) && !self.guards.is_empty() {
            let held = self.held_names();
            self.flag(
                line,
                Lint::BlockingWhileLocked,
                format!(
                    ".{m}() while holding [{held}] — blocking with a tracked guard live \
                         can deadlock the scheduler; release the guard first"
                ),
            );
        }
        i + 1
    }

    /// Record an acquisition of the lock behind `field` (if tracked).
    /// `terminal` means the lock call ends its statement (`…lock();`) —
    /// only then can a `let` bind the guard itself; a continued method
    /// chain consumes the guard as a statement temporary.
    fn acquire(&mut self, field: &str, line: usize, acq: usize, terminal: bool) {
        let Some(Lock::Tracked(class)) = self.decls.get(field).map(|b| &b.lock) else { return };
        let Some(rank) = CANONICAL_LOCK_ORDER.iter().position(|c| c == class) else { return };
        let name = CANONICAL_LOCK_ORDER[rank];
        let held: Vec<&str> =
            self.guards.iter().filter(|g| rank <= g.rank).map(|g| g.name).collect();
        for held in held {
            let msg = if held == name {
                format!(
                    "recursive acquisition of '{name}' — std::sync::Mutex self-deadlocks; \
                     restructure so one guard covers the whole critical section"
                )
            } else {
                format!(
                    "acquiring '{name}' while holding '{held}' inverts the canonical lock \
                     order [{}]",
                    CANONICAL_LOCK_ORDER.join(" < ")
                )
            };
            self.flag(line, Lint::LockOrder, msg);
        }
        let var = if terminal { self.let_binding_var(acq) } else { None };
        let temp = var.is_none();
        self.guards.push(LiveGuard { rank, name, var, brace: self.brace, paren: self.paren, temp });
    }

    /// If the statement containing token `acq` is a `let` binding, the
    /// bound variable.
    fn let_binding_var(&self, acq: usize) -> Option<String> {
        bound_by(&self.tokens[self.stmt_start..acq]).map(str::to_string)
    }

    /// Handle `drop(a)` / `drop((a, b))`: release the named guards.
    /// Returns the index after the closing paren, or `None` when this
    /// `drop` ident is not a call.
    fn explicit_drop(&mut self, i: usize) -> Option<usize> {
        if !self.tokens.get(i + 1).is_some_and(|t| t.is_sym('(')) {
            return None;
        }
        let (dropped, close) = self.paren_group(i + 1)?;
        self.guards.retain(|g| g.var.as_ref().is_none_or(|v| !dropped.contains(v)));
        Some(close + 1)
    }

    /// The identifiers inside the paren group opening at `open`, and the
    /// index of its closing paren.
    fn paren_group(&self, open: usize) -> Option<(Vec<String>, usize)> {
        let mut depth = 0usize;
        let mut ids = Vec::new();
        for (j, t) in self.tokens.iter().enumerate().skip(open) {
            match &t.tok {
                Tok::Sym('(') => depth += 1,
                Tok::Sym(')') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((ids, j));
                    }
                }
                Tok::Ident(id) => ids.push(id.clone()),
                _ => {}
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Workspace driver
// ---------------------------------------------------------------------------

/// The crates the workspace pass covers, each with whether every lint
/// runs on it. The scheduler crate (`shard`) gets every lint; the
/// others get `lock-order` and `relaxed` (the client's public API
/// legitimately exposes blocking waits, and `unwrap` is allowed outside
/// the serving hot path).
const WORKSPACE_CRATES: &[(&str, bool)] = &[
    ("crates/shard/src", true),
    ("crates/client/src", false),
    ("crates/trace/src", false),
    ("crates/wal/src", false),
    ("crates/net/src", false),
];

/// Lint the scheduler-stack sources under `root` (the workspace root)
/// with the per-crate policy of `WORKSPACE_CRATES`, each crate against
/// the locks it builds. A class of [`CANONICAL_LOCK_ORDER`] that no
/// crate builds is a finding too.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let mut built = Vec::new();
    for &(dir, every) in WORKSPACE_CRATES {
        let mut files = Vec::new();
        collect_rs(&root.join(dir), &mut files)?;
        files.sort();
        let mut scanned = Vec::new();
        let mut bound = Vec::new();
        for file in files {
            let src = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
            let s = scan(&src);
            bound.extend(bindings(&rel, &s.tokens));
            scanned.push((rel, s));
        }
        let decls = declare(&bound);
        for (rel, s) in &scanned {
            diags.extend(lint_scanned(rel, s, &decls, LintSet { every }));
        }
        built.extend(bound.into_iter().map(|b| b.lock));
    }
    for class in CANONICAL_LOCK_ORDER {
        if !built.contains(&Lock::Tracked(class.to_string())) {
            let message =
                format!("'{class}' is in the canonical lock order but no crate builds it");
            diags.push(Diagnostic {
                path: file!().into(),
                line: ORDER_LINE,
                lint: Lint::LockOrder,
                message,
            });
        }
    }
    Ok(diags)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        // `tests.rs` is the file form of a `#[cfg(test)] mod tests` item,
        // which `lint_source` skips wholesale, and a `tests/` directory
        // beside it holds that module's submodules.
        if path.file_name().is_some_and(|n| n == "tests.rs" || n == "tests") {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests;
