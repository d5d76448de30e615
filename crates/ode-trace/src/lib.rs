//! Hierarchical statement spans for the Ode reproduction.
//!
//! The paper's central implementation claim (§5–§6) is that a trigger
//! firing is a *causal cascade*: an event post advances trigger FSMs,
//! advances fire actions, coupling modes spill work into system
//! transactions, and a commit makes the whole thing durable. This crate
//! records that cascade as a tree of **spans** — one per statement,
//! parse, lock wait, event post, FSM advance, action, system
//! transaction, and WAL flush wait — so `SHOW TRACE` / `EXPLAIN` can
//! answer "why was this statement slow, and what did it set off?".
//!
//! ## Design
//!
//! * **Per-statement span list**: the thread-local context owns a
//!   bounded `VecDeque` of completed `Copy` [`SpanRecord`]s and the
//!   `Instant` they are timed from. [`install`] starts it empty and
//!   [`TraceGuard::finish`] hands it back sorted. Spans are written only
//!   on the installing thread — detached firings run on the committing
//!   thread (DESIGN.md, "Why dependent/!dependent firings nest for
//!   free") — so the list needs no synchronisation.
//! * **Thread-local ambient context**: a session *installs* a trace id
//!   at statement start ([`install`]); every layer below (storage locks,
//!   event posting, coupling-mode commits) opens spans with [`span`]
//!   without any plumbing through call signatures. When nothing is
//!   installed a span guard is a single thread-local flag read and two
//!   dead stores — the tracing-off overhead budget is the flight
//!   recorder's (≤5% on the post hot path).
//! * **Parent linkage by nesting**: opening a span makes it the current
//!   parent; dropping it restores the previous parent. Coupling-mode
//!   system transactions run on the posting thread between
//!   `commit_deferred` and `commit_wait`, so their spans nest under the
//!   statement span with no explicit propagation (see DESIGN.md).
//!
//! This crate is std-only and dependency-free: `ode-obs` links it to
//! stamp the (trace_id, span_id) pair onto flight records and to share
//! [`SmallStr`], so it must sit at the very bottom of the workspace
//! graph.

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------
// Span records
// ---------------------------------------------------------------------

/// What a span measures. The `a`/`b` payload fields of a [`SpanRecord`]
/// are interpreted per kind (documented on each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One `Session::execute` call. `name` = statement verb.
    Statement,
    /// Statement text → AST. No payload.
    Parse,
    /// A lock request that had to wait. `a` = waiting txn id,
    /// `b` = 1 for exclusive mode.
    LockWait,
    /// One basic-event post, end to end. `name` = event prototype,
    /// `a` = anchor oid, `b` = posting txn id.
    Post,
    /// One trigger-instance FSM advance. `name` = trigger,
    /// `a` = from-state, `b` = to-state.
    FsmAdvance,
    /// One trigger action execution. `name` = trigger.
    Action,
    /// A detached (dependent / !dependent) firing's system transaction.
    /// `name` = coupling label, `a` = system txn id, `b` = parent user
    /// txn id (0 for `!dependent`).
    SystemTxn,
    /// The WAL flush wait: commit issued → commit record durable.
    /// `a` = txn id, `b` = commit LSN.
    Commit,
}

impl SpanKind {
    /// Stable lower-snake label used by the span-tree renderer.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Statement => "statement",
            SpanKind::Parse => "parse",
            SpanKind::LockWait => "lock_wait",
            SpanKind::Post => "post",
            SpanKind::FsmAdvance => "fsm_advance",
            SpanKind::Action => "action",
            SpanKind::SystemTxn => "system_txn",
            SpanKind::Commit => "commit",
        }
    }
}

/// Maximum bytes of a name stored inline in a [`SmallStr`].
pub const SMALL_STR_CAP: usize = 23;

/// A fixed-capacity inline string, so [`SpanRecord`]s and `ode-obs`'s
/// flight records stay `Copy` and recording never allocates. Longer
/// names are truncated at a char boundary.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SmallStr {
    len: u8,
    bytes: [u8; SMALL_STR_CAP],
}

impl SmallStr {
    /// Store `s`, truncating to [`SMALL_STR_CAP`] bytes at a char
    /// boundary.
    pub fn new(s: &str) -> SmallStr {
        let mut n = s.len().min(SMALL_STR_CAP);
        while n > 0 && !s.is_char_boundary(n) {
            n -= 1;
        }
        let mut bytes = [0u8; SMALL_STR_CAP];
        bytes[..n].copy_from_slice(&s.as_bytes()[..n]);
        SmallStr {
            len: n as u8,
            bytes,
        }
    }

    /// The stored string.
    pub fn as_str(&self) -> &str {
        let n = (self.len as usize).min(SMALL_STR_CAP);
        std::str::from_utf8(&self.bytes[..n]).unwrap_or("")
    }
}

impl std::fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_str().fmt(f)
    }
}

impl std::fmt::Display for SmallStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One completed span: identity triple, kind, name, kind-specific
/// payload, and timing relative to the trace's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// The statement this span belongs to (session-unique, nonzero).
    pub trace_id: u64,
    /// This span's id, unique within its trace (statement span = 1).
    pub span_id: u64,
    /// The enclosing span's id; 0 marks the trace root.
    pub parent: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Kind-specific name (verb, event, trigger, coupling label).
    pub name: SmallStr,
    /// First kind-specific payload (see [`SpanKind`]).
    pub a: u64,
    /// Second kind-specific payload (see [`SpanKind`]).
    pub b: u64,
    /// Span open time, nanoseconds since the trace was installed.
    pub start_nanos: u64,
    /// Span duration in nanoseconds.
    pub dur_nanos: u64,
}

/// Spans kept per trace. A Figure-1 cascade is ~10 spans; 512 holds
/// even a statement that fires dozens of triggers through multi-step
/// FSMs. Past it the oldest completed spans are dropped; the statement
/// span completes last, so it is always kept.
pub const DEFAULT_TRACE_CAPACITY: usize = 512;

/// Allocate a process-unique, nonzero trace id. Sessions call this once
/// per traced statement; uniqueness across sessions keeps the stamps on
/// the engine-global flight log unambiguous.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Ambient thread-local context
// ---------------------------------------------------------------------

struct Ctx {
    trace_id: u64,
    /// Innermost open span (0 = at the root).
    parent: u64,
    next_span: u64,
    /// The time base of every span in `spans`.
    origin: Instant,
    /// Completed spans, oldest first, at most [`DEFAULT_TRACE_CAPACITY`].
    spans: VecDeque<SpanRecord>,
}

impl Ctx {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

thread_local! {
    /// Fast gate read by every `span()` call; true only between
    /// `install` and the guard's drop. Kept separate from CTX so the
    /// tracing-off path is a single Cell load.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Uninstalls the ambient trace context: [`TraceGuard::finish`] returns
/// its spans, a plain drop (an unwound statement) discards them.
#[must_use = "dropping the guard ends the trace"]
pub struct TraceGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Install an empty ambient trace context on this thread under
/// `trace_id`. Every [`span`] opened on this thread until the returned
/// guard ends is recorded as part of that trace. Installing over an
/// existing context replaces it (the displaced trace simply stops
/// recording — sessions are single-threaded, so this only happens if a
/// caller leaks a guard).
pub fn install(trace_id: u64) -> TraceGuard {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            trace_id,
            parent: 0,
            next_span: 1,
            origin: Instant::now(),
            spans: VecDeque::new(),
        });
    });
    ACTIVE.with(|a| a.set(true));
    TraceGuard {
        _not_send: std::marker::PhantomData,
    }
}

impl TraceGuard {
    /// End the trace and return its surviving spans sorted by start time
    /// (ties broken by span id, which increases in open order).
    pub fn finish(self) -> Vec<SpanRecord> {
        let spans = CTX.with(|c| c.borrow_mut().take().map(|ctx| ctx.spans));
        let mut spans = Vec::from(spans.unwrap_or_default());
        spans.sort_by_key(|s| (s.start_nanos, s.span_id));
        spans
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(false));
        CTX.with(|c| *c.borrow_mut() = None);
    }
}

/// The identity of the current trace position: `(trace_id,
/// innermost_open_span)`, or `(0, 0)` when no context is installed.
/// `ode-obs` stamps this pair (plus its own record identity) onto every
/// flight record so the engine-global flight log can be joined against
/// statement span trees.
#[inline]
pub fn current_ids() -> (u64, u64) {
    if !ACTIVE.with(|a| a.get()) {
        return (0, 0);
    }
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (ctx.trace_id, ctx.parent))
            .unwrap_or((0, 0))
    })
}

/// An RAII span guard: records a [`SpanRecord`] with its measured
/// duration when dropped. Inert (a no-op with no allocation) when no
/// ambient context is installed on this thread.
pub struct Span {
    /// The record being built; `dur_nanos` is filled in on drop.
    open: Option<SpanRecord>,
}

/// Open a span of `kind` under the current trace, making it the parent
/// of spans opened before it drops. Inert when tracing is not installed
/// on this thread — the off path is one thread-local flag read.
#[inline]
pub fn span(kind: SpanKind, name: &str) -> Span {
    if !ACTIVE.with(|a| a.get()) {
        return Span { open: None };
    }
    span_slow(kind, name)
}

#[cold]
fn span_slow(kind: SpanKind, name: &str) -> Span {
    let open = CTX.with(|c| {
        let mut guard = c.borrow_mut();
        let ctx = guard.as_mut()?;
        let span_id = ctx.next_span;
        ctx.next_span += 1;
        let parent = ctx.parent;
        ctx.parent = span_id;
        Some(SpanRecord {
            trace_id: ctx.trace_id,
            span_id,
            parent,
            kind,
            name: SmallStr::new(name),
            a: 0,
            b: 0,
            start_nanos: ctx.now_nanos(),
            dur_nanos: 0,
        })
    });
    Span { open }
}

impl Span {
    /// Whether this guard is actually recording (ambient context was
    /// installed when it was opened).
    pub fn is_recording(&self) -> bool {
        self.open.is_some()
    }

    /// Attach the kind-specific payload pair (see [`SpanKind`]). A no-op
    /// on an inert span.
    pub fn payload(&mut self, a: u64, b: u64) {
        if let Some(open) = &mut self.open {
            open.a = a;
            open.b = b;
        }
    }

    /// Replace the span's name. A no-op on an inert span — callers open
    /// the span with an empty name and rename under
    /// [`Span::is_recording`] when the name is expensive to compute
    /// (e.g. requires resolving an interned id to a string).
    pub fn rename(&mut self, name: &str) {
        if let Some(open) = &mut self.open {
            open.name = SmallStr::new(name);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut rec) = self.open.take() else {
            return;
        };
        CTX.with(|c| {
            let mut guard = c.borrow_mut();
            let Some(ctx) = guard.as_mut() else {
                return; // context torn down before the span closed
            };
            if ctx.trace_id != rec.trace_id {
                return; // a new trace was installed over this span
            }
            ctx.parent = rec.parent;
            rec.dur_nanos = ctx.now_nanos().saturating_sub(rec.start_nanos);
            if ctx.spans.len() == DEFAULT_TRACE_CAPACITY {
                ctx.spans.pop_front();
            }
            ctx.spans.push_back(rec);
        });
    }
}

// ---------------------------------------------------------------------
// Span-tree rendering
// ---------------------------------------------------------------------

/// Render a trace's spans (as returned by [`TraceGuard::finish`]) as an
/// indented tree, one line per span: kind label, name, kind-specific
/// payload fields, and duration in microseconds. Returns an explanatory
/// line when `spans` is empty.
pub fn render_tree(trace_id: u64, spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    if spans.is_empty() {
        return format!("trace {trace_id}: no spans recorded");
    }
    let mut out = String::new();
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.dur_nanos)
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "trace {trace_id} total={}µs spans={}",
        total / 1_000,
        spans.len()
    );
    // Children of each parent, in start order (spans is already sorted).
    let roots: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].parent == 0).collect();
    let mut stack: Vec<(usize, usize)> = roots.into_iter().rev().map(|i| (i, 0)).collect();
    let mut emitted = 0usize;
    while let Some((i, depth)) = stack.pop() {
        let s = &spans[i];
        emitted += 1;
        let _ = write!(out, "{:indent$}{}", "", s.kind.label(), indent = depth * 2);
        if !s.name.as_str().is_empty() {
            let _ = write!(out, " {}", s.name);
        }
        match s.kind {
            SpanKind::Statement | SpanKind::Parse => {}
            SpanKind::LockWait => {
                let _ = write!(
                    out,
                    " txn={} mode={}",
                    s.a,
                    if s.b == 1 { "exclusive" } else { "shared" }
                );
            }
            SpanKind::Post => {
                let _ = write!(out, " anchor={} txn={}", s.a, s.b);
            }
            SpanKind::FsmAdvance => {
                let _ = write!(out, " from={} to={}", s.a, s.b);
            }
            SpanKind::Action => {}
            SpanKind::SystemTxn => {
                let _ = write!(out, " txn={}", s.a);
                if s.b != 0 {
                    let _ = write!(out, " depends_on={}", s.b);
                }
            }
            SpanKind::Commit => {
                let _ = write!(out, " txn={} lsn={}", s.a, s.b);
            }
        }
        let _ = writeln!(out, " {}µs", s.dur_nanos / 1_000);
        for j in (0..spans.len()).rev() {
            if spans[j].parent == s.span_id {
                stack.push((j, depth + 1));
            }
        }
    }
    // Spans whose parent was dropped past the capacity never get
    // visited; say so instead of silently dropping them.
    if emitted < spans.len() {
        let _ = writeln!(
            out,
            "({} spans orphaned by ring wrap)",
            spans.len() - emitted
        );
    }
    out.truncate(out.trim_end().len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_str_truncates_at_char_boundary() {
        assert_eq!(SmallStr::new("Buy").as_str(), "Buy");
        let long = "a".repeat(40);
        assert_eq!(SmallStr::new(&long).as_str().len(), SMALL_STR_CAP);
        // 23 bytes falls mid-é (2-byte char) for this string: truncation
        // must back off to the previous boundary, never split a char.
        let multi = "ééééééééééééé"; // 13 chars, 26 bytes
        let s = SmallStr::new(multi);
        assert_eq!(s.as_str(), "ééééééééééé");
    }

    #[test]
    fn spans_are_inert_without_an_installed_context() {
        let mut s = span(SpanKind::Post, "Buy");
        assert!(!s.is_recording());
        s.payload(1, 2);
        drop(s);
        assert_eq!(current_ids(), (0, 0));
    }

    #[test]
    fn nesting_builds_a_parent_chain_and_restores_on_drop() {
        let id = next_trace_id();
        let guard = install(id);
        let root = span(SpanKind::Statement, "call");
        assert!(root.is_recording());
        assert_eq!(current_ids(), (id, 1));
        {
            let _post = span(SpanKind::Post, "Buy");
            assert_eq!(current_ids(), (id, 2));
            {
                let mut fsm = span(SpanKind::FsmAdvance, "AutoRaiseLimit");
                fsm.payload(0, 1);
                assert_eq!(current_ids(), (id, 3));
            }
            assert_eq!(current_ids(), (id, 2));
        }
        assert_eq!(current_ids(), (id, 1));
        drop(root);
        let spans = guard.finish();
        assert_eq!(current_ids(), (0, 0));

        assert_eq!(spans.len(), 3);
        let root = &spans[0];
        assert_eq!(
            (root.kind, root.parent, root.span_id),
            (SpanKind::Statement, 0, 1)
        );
        let post = &spans[1];
        assert_eq!((post.kind, post.parent), (SpanKind::Post, 1));
        let fsm = &spans[2];
        assert_eq!(
            (fsm.kind, fsm.parent, fsm.a, fsm.b),
            (SpanKind::FsmAdvance, 2, 0, 1)
        );
        assert_eq!(fsm.name.as_str(), "AutoRaiseLimit");
    }

    #[test]
    fn each_install_starts_empty_and_an_unfinished_guard_discards() {
        let (a, b) = (next_trace_id(), next_trace_id());
        {
            let _g = install(a);
            let _s = span(SpanKind::Statement, "abandoned");
        }
        assert_eq!(current_ids(), (0, 0), "a dropped guard uninstalls");
        let g = install(b);
        {
            let _s = span(SpanKind::Statement, "call");
            let _p = span(SpanKind::Post, "Buy");
        }
        let spans = g.finish();
        assert_eq!(spans.len(), 2, "nothing carried over: {spans:?}");
        assert!(spans.iter().all(|s| s.trace_id == b));
        assert_eq!(spans[0].name.as_str(), "call");
    }

    #[test]
    fn ring_wrap_keeps_only_the_newest_spans() {
        let g = install(next_trace_id());
        let root = span(SpanKind::Statement, "call");
        for i in 0..(DEFAULT_TRACE_CAPACITY as u64 + 8) {
            let mut s = span(SpanKind::Post, "E");
            s.payload(i, 0);
        }
        drop(root);
        let spans = g.finish();
        assert_eq!(spans.len(), DEFAULT_TRACE_CAPACITY);
        // The statement span completed last, so it survives the cap; the
        // nine oldest posts were dropped to make room.
        assert_eq!(spans[0].kind, SpanKind::Statement);
        let posts: Vec<u64> = spans[1..].iter().map(|s| s.a).collect();
        assert_eq!(
            posts,
            (9..DEFAULT_TRACE_CAPACITY as u64 + 8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn render_tree_shows_the_cascade_with_payloads() {
        let id = next_trace_id();
        let g = install(id);
        {
            let _root = span(SpanKind::Statement, "call");
            {
                let mut post = span(SpanKind::Post, "PayBill");
                post.payload(42, 7);
                let mut fsm = span(SpanKind::FsmAdvance, "AutoRaiseLimit");
                fsm.payload(1, 2);
            }
            let mut commit = span(SpanKind::Commit, "");
            commit.payload(7, 99);
        }
        let tree = render_tree(id, &g.finish());
        assert!(tree.contains("statement call"), "{tree}");
        assert!(tree.contains("  post PayBill anchor=42 txn=7"), "{tree}");
        assert!(
            tree.contains("    fsm_advance AutoRaiseLimit from=1 to=2"),
            "{tree}"
        );
        assert!(tree.contains("  commit txn=7 lsn=99"), "{tree}");
    }

    #[test]
    fn render_tree_reports_an_empty_trace() {
        assert!(render_tree(5, &[]).contains("no spans"));
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
