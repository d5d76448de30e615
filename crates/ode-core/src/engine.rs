//! The multi-database catalog: one [`Engine`] owns many named
//! [`Database`] instances.
//!
//! The paper's Ode is a single-database system; the engine layer is the
//! step from "embedded library" to "multi-tenant service": databases are
//! created, opened, and dropped by name under one root directory
//! (`<root>/<name>`), each with its own [`StorageOptions`], and the
//! per-database `ode-obs` registries are exposed on one Prometheus page
//! distinguished by a `db` label ([`Engine::render_prometheus`]).
//!
//! The embedded API is untouched: a [`Database`] handed out by
//! [`Engine::database`] is exactly the type applications already use, and
//! a standalone `Database::volatile()`/`Database::open()` keeps working
//! without any engine at all. Sessions ([`crate::session::Session`])
//! layer per-client state on top.

use crate::database::Database;
use crate::error::{OdeError, Result};
use crate::session::Session;
use ode_storage::StorageOptions;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A catalog of named databases under one root directory (or fully in
/// memory), sharing one metrics surface.
pub struct Engine {
    /// `None` for a volatile engine: every database is in-memory and
    /// nothing touches the filesystem.
    root: Option<PathBuf>,
    /// Options applied to databases created/opened without explicit
    /// options.
    default_options: StorageOptions,
    databases: RwLock<HashMap<String, Arc<Database>>>,
    stats: EngineStats,
}

/// Statement verbs the per-verb counter distinguishes; anything else
/// lands in `other`. Ordered as rendered on the Prometheus page.
const VERBS: &[&str] = &[
    "begin",
    "commit",
    "abort",
    "use",
    "create",
    "drop",
    "show",
    "new",
    "call",
    "get",
    "activate",
    "deactivate",
    "metrics",
    "checkpoint",
    "trace",
    "explain",
    "prepare",
    "execute",
    "other",
];

/// Engine-wide (cross-database) observability: session and transaction
/// gauges, statements by verb, and wire-layer counters. Everything a
/// scrape needs that is not attributable to a single database.
pub struct EngineStats {
    sessions_open: AtomicU64,
    txns_open: AtomicU64,
    /// Inbound wire frames rejected for exceeding the frame-size limit
    /// (bumped by `ode-server`).
    pub frames_oversized: AtomicU64,
    /// Inbound protocol-v2 batch frames accepted (bumped by
    /// `ode-server`); v1 single-statement frames are not counted here.
    pub frames_batched: AtomicU64,
    /// Statements carried per accepted batch frame (bumped by
    /// `ode-server`).
    pub stmts_per_frame: ode_obs::Histogram,
    prepared_hits: AtomicU64,
    prepared_misses: AtomicU64,
    verbs: [AtomicU64; VERBS.len()],
}

impl EngineStats {
    fn new() -> EngineStats {
        EngineStats {
            sessions_open: AtomicU64::new(0),
            txns_open: AtomicU64::new(0),
            frames_oversized: AtomicU64::new(0),
            frames_batched: AtomicU64::new(0),
            stmts_per_frame: ode_obs::Histogram::new(),
            prepared_hits: AtomicU64::new(0),
            prepared_misses: AtomicU64::new(0),
            verbs: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Count one statement served from a named `PREPARE`d statement
    /// (`EXECUTE` skips the parser).
    pub(crate) fn prepared_hit(&self) {
        self.prepared_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one statement that had to run the DDL parser.
    pub(crate) fn prepared_miss(&self) {
        self.prepared_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Statements served without re-parsing (see `prepared_hit`).
    pub fn prepared_hits(&self) -> u64 {
        self.prepared_hits.load(Ordering::Relaxed)
    }

    /// Statements that ran the DDL parser (see `prepared_miss`).
    pub fn prepared_misses(&self) -> u64 {
        self.prepared_misses.load(Ordering::Relaxed)
    }

    pub(crate) fn session_opened(&self) {
        self.sessions_open.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn session_closed(&self) {
        self.sessions_open.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn txn_opened(&self) {
        self.txns_open.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn txn_closed(&self) {
        self.txns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Count one executed statement under its leading verb
    /// (case-insensitive; unknown verbs count as `other`).
    pub(crate) fn record_statement(&self, verb: &str) {
        let idx = VERBS
            .iter()
            .position(|v| verb.eq_ignore_ascii_case(v))
            .unwrap_or(VERBS.len() - 1);
        self.verbs[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Sessions currently open.
    pub fn sessions_open(&self) -> u64 {
        self.sessions_open.load(Ordering::Relaxed)
    }

    /// Session transactions currently open.
    pub fn txns_open(&self) -> u64 {
        self.txns_open.load(Ordering::Relaxed)
    }

    /// Statements executed under `verb` (see `record_statement`).
    pub fn statements(&self, verb: &str) -> u64 {
        let idx = VERBS
            .iter()
            .position(|v| verb.eq_ignore_ascii_case(v))
            .unwrap_or(VERBS.len() - 1);
        self.verbs[idx].load(Ordering::Relaxed)
    }

    fn render_prometheus_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "# HELP ode_sessions_open Sessions currently open on this engine."
        );
        let _ = writeln!(out, "# TYPE ode_sessions_open gauge");
        let _ = writeln!(out, "ode_sessions_open {}", self.sessions_open());
        let _ = writeln!(
            out,
            "# HELP ode_txns_open Session transactions currently open."
        );
        let _ = writeln!(out, "# TYPE ode_txns_open gauge");
        let _ = writeln!(out, "ode_txns_open {}", self.txns_open());
        let _ = writeln!(
            out,
            "# HELP ode_frames_oversized Inbound wire frames rejected for exceeding the frame-size limit."
        );
        let _ = writeln!(out, "# TYPE ode_frames_oversized counter");
        let _ = writeln!(
            out,
            "ode_frames_oversized {}",
            self.frames_oversized.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP ode_frames_batched Inbound protocol-v2 batch frames accepted by the wire layer."
        );
        let _ = writeln!(out, "# TYPE ode_frames_batched counter");
        let _ = writeln!(
            out,
            "ode_frames_batched {}",
            self.frames_batched.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "# HELP ode_prepared_hits Statements served from a PREPAREd statement by EXECUTE."
        );
        let _ = writeln!(out, "# TYPE ode_prepared_hits counter");
        let _ = writeln!(out, "ode_prepared_hits {}", self.prepared_hits());
        let _ = writeln!(
            out,
            "# HELP ode_prepared_misses Statements that ran the DDL parser."
        );
        let _ = writeln!(out, "# TYPE ode_prepared_misses counter");
        let _ = writeln!(out, "ode_prepared_misses {}", self.prepared_misses());
        self.stmts_per_frame.snapshot().render_prometheus_into(
            out,
            "stmts_per_frame",
            "Statements carried per accepted protocol-v2 batch frame.",
        );
        let _ = writeln!(
            out,
            "# HELP ode_statements_total Statements executed through sessions, by leading verb."
        );
        let _ = writeln!(out, "# TYPE ode_statements_total counter");
        for (verb, count) in VERBS.iter().zip(&self.verbs) {
            let _ = writeln!(
                out,
                "ode_statements_total{{verb=\"{verb}\"}} {}",
                count.load(Ordering::Relaxed)
            );
        }
    }
}

/// Database names double as directory names; reject anything that could
/// escape the root or confuse the wire surface.
fn validate_name(name: &str) -> Result<()> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if ok_first && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') && name.len() <= 64 {
        Ok(())
    } else {
        Err(OdeError::Schema(format!(
            "invalid database name {name:?}: want [A-Za-z_][A-Za-z0-9_]*, at most 64 chars"
        )))
    }
}

impl Engine {
    /// A fully in-memory engine: every database it creates is volatile.
    pub fn volatile() -> Arc<Engine> {
        Engine::volatile_with(StorageOptions::memory())
    }

    /// [`Engine::volatile`] with explicit default storage options (the
    /// engine kind is forced to memory per database).
    pub fn volatile_with(default_options: StorageOptions) -> Arc<Engine> {
        Arc::new(Engine {
            root: None,
            default_options,
            databases: RwLock::new(HashMap::new()),
            stats: EngineStats::new(),
        })
    }

    /// Open (creating if needed) an engine rooted at `root`. Databases
    /// live in subdirectories named after them; existing subdirectories
    /// are opened lazily on first [`Engine::database`].
    pub fn open(root: impl Into<PathBuf>, default_options: StorageOptions) -> Result<Arc<Engine>> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| OdeError::Schema(format!("create engine root {root:?}: {e}")))?;
        Ok(Arc::new(Engine {
            root: Some(root),
            default_options,
            databases: RwLock::new(HashMap::new()),
            stats: EngineStats::new(),
        }))
    }

    /// Engine-wide session/statement/wire statistics (rendered on the
    /// Prometheus page alongside the per-database families).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The default storage options given to databases created without
    /// explicit options.
    pub fn default_options(&self) -> &StorageOptions {
        &self.default_options
    }

    /// Create a database with the engine's default options.
    pub fn create_database(&self, name: &str) -> Result<Arc<Database>> {
        self.create_database_with(name, self.default_options.clone())
    }

    /// Create a database with explicit per-database options. Errors if a
    /// database of that name already exists (in the catalog or on disk).
    pub fn create_database_with(
        &self,
        name: &str,
        options: StorageOptions,
    ) -> Result<Arc<Database>> {
        validate_name(name)?;
        let mut map = self.databases.write();
        if map.contains_key(name) {
            return Err(OdeError::Schema(format!(
                "database {name:?} already exists"
            )));
        }
        let db = match &self.root {
            None => Arc::new(Database::volatile_with(options)),
            Some(root) => {
                let dir = root.join(name);
                if dir.exists() {
                    return Err(OdeError::Schema(format!(
                        "database {name:?} already exists"
                    )));
                }
                Arc::new(Database::create(&dir, options)?)
            }
        };
        map.insert(name.to_string(), Arc::clone(&db));
        Ok(db)
    }

    /// Look up a database by name, opening it from disk (with the default
    /// options, running recovery when needed) on first touch.
    pub fn database(&self, name: &str) -> Result<Arc<Database>> {
        self.database_with(name, self.default_options.clone())
    }

    /// [`Engine::database`] with explicit options for the open-from-disk
    /// case (ignored when the database is already attached).
    pub fn database_with(&self, name: &str, options: StorageOptions) -> Result<Arc<Database>> {
        validate_name(name)?;
        if let Some(db) = self.databases.read().get(name) {
            return Ok(Arc::clone(db));
        }
        let mut map = self.databases.write();
        if let Some(db) = map.get(name) {
            return Ok(Arc::clone(db));
        }
        let Some(root) = &self.root else {
            return Err(OdeError::Schema(format!("unknown database {name:?}")));
        };
        let dir = root.join(name);
        if !dir.is_dir() {
            return Err(OdeError::Schema(format!("unknown database {name:?}")));
        }
        let db = Arc::new(Database::open(&dir, options)?);
        map.insert(name.to_string(), Arc::clone(&db));
        Ok(db)
    }

    /// Drop a database: detach it from the catalog and (for disk engines)
    /// close it and delete its directory. Refuses while other handles —
    /// sessions, servers — still hold the database.
    pub fn drop_database(&self, name: &str) -> Result<()> {
        validate_name(name)?;
        let mut map = self.databases.write();
        let attached = map.remove(name);
        match (attached, &self.root) {
            (Some(db), root) => match Arc::try_unwrap(db) {
                Ok(db) => {
                    db.close()?;
                    if let Some(root) = root {
                        std::fs::remove_dir_all(root.join(name)).map_err(|e| {
                            OdeError::Schema(format!("remove database {name:?}: {e}"))
                        })?;
                    }
                    Ok(())
                }
                Err(shared) => {
                    // Put it back; dropping a database out from under a
                    // live session would leave dangling storage handles.
                    map.insert(name.to_string(), shared);
                    Err(OdeError::Schema(format!(
                        "database {name:?} is busy (open sessions hold it)"
                    )))
                }
            },
            (None, Some(root)) => {
                let dir = root.join(name);
                if dir.is_dir() {
                    std::fs::remove_dir_all(&dir)
                        .map_err(|e| OdeError::Schema(format!("remove database {name:?}: {e}")))?;
                    Ok(())
                } else {
                    Err(OdeError::Schema(format!("unknown database {name:?}")))
                }
            }
            (None, None) => Err(OdeError::Schema(format!("unknown database {name:?}"))),
        }
    }

    /// Names of all databases: attached ones plus (for disk engines)
    /// not-yet-opened subdirectories of the root. Sorted.
    pub fn list_databases(&self) -> Vec<String> {
        let mut names: Vec<String> = self.databases.read().keys().cloned().collect();
        if let Some(root) = &self.root {
            if let Ok(entries) = std::fs::read_dir(root) {
                for entry in entries.flatten() {
                    if entry.path().is_dir() {
                        if let Some(name) = entry.file_name().to_str() {
                            if validate_name(name).is_ok() && !names.iter().any(|n| n == name) {
                                names.push(name.to_string());
                            }
                        }
                    }
                }
            }
        }
        names.sort();
        names
    }

    /// One Prometheus page covering every attached database plus the
    /// engine-wide families. Per-database samples carry a `db="<name>"`
    /// label; samples of the same family are merged under a single
    /// HELP/TYPE header, so the page stays exposition-conformant with
    /// any number of databases.
    pub fn render_prometheus(&self) -> String {
        let mut dbs: Vec<(String, Arc<Database>)> = self
            .databases
            .read()
            .iter()
            .map(|(n, d)| (n.clone(), Arc::clone(d)))
            .collect();
        dbs.sort_by(|a, b| a.0.cmp(&b.0));

        // Every page comes out of the same `metrics!` renderer, so the
        // family order is identical across databases; merge per family,
        // keeping the first page's HELP/TYPE header and interleaving
        // each later page's samples into its family block.
        let mut order: Vec<String> = Vec::new();
        let mut families: HashMap<String, (Vec<String>, Vec<String>)> = HashMap::new();
        for (name, db) in dbs {
            let page = db
                .stats()
                .render_prometheus_labeled(&format!("db=\"{name}\""));
            let mut current: Option<String> = None;
            for line in page.lines() {
                if let Some(rest) = line.strip_prefix("# HELP ") {
                    let fam = rest.split(' ').next().unwrap_or("").to_string();
                    let entry = families.entry(fam.clone()).or_default();
                    if entry.0.is_empty() {
                        order.push(fam.clone());
                        entry.0.push(line.to_string());
                    }
                    current = Some(fam);
                } else if line.starts_with("# TYPE ") {
                    if let Some(fam) = &current {
                        let entry = families.entry(fam.clone()).or_default();
                        if entry.0.len() == 1 {
                            entry.0.push(line.to_string());
                        }
                    }
                } else if let Some(fam) = &current {
                    families
                        .entry(fam.clone())
                        .or_default()
                        .1
                        .push(line.to_string());
                }
            }
        }
        let mut out = String::new();
        for fam in order {
            let (header, samples) = &families[&fam];
            for line in header.iter().chain(samples) {
                out.push_str(line);
                out.push('\n');
            }
        }
        self.stats.render_prometheus_into(&mut out);
        out
    }

    /// Start a session: per-client state (current database, open
    /// transaction, scratch buffers) layered over this engine.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volatile_engine_creates_and_lists_databases() {
        let engine = Engine::volatile();
        engine.create_database("alpha").unwrap();
        engine.create_database("beta").unwrap();
        assert_eq!(engine.list_databases(), vec!["alpha", "beta"]);
        assert!(engine.create_database("alpha").is_err(), "duplicate");
        assert!(engine.database("gamma").is_err(), "unknown");
        let db = engine.database("alpha").unwrap();
        db.with_txn(|_| Ok(())).unwrap();
    }

    #[test]
    fn names_that_escape_the_root_are_rejected() {
        let engine = Engine::volatile();
        for bad in ["../evil", "a/b", "", ".hidden", "name with spaces", "7up"] {
            assert!(engine.create_database(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn drop_refuses_while_handles_are_live() {
        let engine = Engine::volatile();
        let held = engine.create_database("held").unwrap();
        assert!(engine.drop_database("held").is_err());
        drop(held);
        engine.drop_database("held").unwrap();
        assert!(engine.list_databases().is_empty());
    }

    #[test]
    fn prometheus_page_labels_every_database() {
        let engine = Engine::volatile();
        engine.create_database("bank").unwrap();
        engine.create_database("shop").unwrap();
        let page = engine.render_prometheus();
        assert!(page.contains("ode_txn_commits{db=\"bank\"}"));
        assert!(page.contains("ode_txn_commits{db=\"shop\"}"));
    }
}
