//! Counter snapshots and the per-layer ledger.
//!
//! Everything here reads instrumentation the program already keeps
//! (`Database::stats()` and `Engine::stats()`) or times calls from the
//! outside; the benchmark adds no tracing inside the program.

use ode_core::{Database, Engine};
use ode_obs::{HistogramSnapshot, MetricsSnapshot};

/// One reading of every counter the ledger uses.
#[derive(Clone)]
pub struct Snap {
    pub db: MetricsSnapshot,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Snap {
    pub fn take(engine: &Engine, db: &Database) -> Snap {
        let stats = engine.stats();
        Snap {
            db: db.stats(),
            cache_hits: stats.prepared_hits(),
            cache_misses: stats.prepared_misses(),
        }
    }
}

/// The samples a histogram took between two snapshots. The maximum is
/// not subtractable; the later one stands in for the `+Inf` bucket.
pub fn hist_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = *after;
    for (b, a) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *b -= a;
    }
    d.sum -= before.sum;
    d.count -= before.count;
    d
}

/// `num / den`, or 0 when nothing happened.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank percentile of sorted samples (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// A process memory figure from `/proc/self/status`, in KiB (`VmRSS`,
/// `VmHWM`). 0 where the file does not exist.
pub fn proc_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Sheet(pub Vec<Metric>);

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
}

/// The counter-derived layer metrics of one measured phase of `stmts`
/// statements.
pub fn layer_counts(sheet: &mut Sheet, before: &Snap, after: &Snap, stmts: u64) {
    let (b, a) = (&before.db, &after.db);
    let per = |x: u64, y: u64| ratio(y - x, stmts);

    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    sheet.put(
        "ode_core.ddl.stmt_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );

    let firings = |s: &MetricsSnapshot| {
        s.firings_immediate + s.firings_end + s.firings_dependent + s.firings_independent
    };
    sheet.put(
        "ode_core.post.events_per_stmt",
        per(b.events_posted, a.events_posted),
        "count/stmt",
    );
    sheet.put(
        "ode_core.post.fsm_advances_per_stmt",
        per(b.fsm_advances, a.fsm_advances),
        "count/stmt",
    );
    sheet.put(
        "ode_core.post.mask_evals_per_stmt",
        per(b.mask_evaluations, a.mask_evaluations),
        "count/stmt",
    );
    sheet.put(
        "ode_core.post.firings_per_stmt",
        per(firings(b), firings(a)),
        "count/stmt",
    );
    let sc_hits = a.state_cache_hits - b.state_cache_hits;
    let sc_misses = a.state_cache_misses - b.state_cache_misses;
    sheet.put(
        "ode_core.post.state_cache_hit_ratio",
        ratio(sc_hits, sc_hits + sc_misses),
        "ratio",
    );
    let post = hist_delta(&b.post_micros, &a.post_micros);
    sheet.put("ode_core.post.post_us_p50", post.p50() as f64, "us");
    sheet.put("ode_core.post.post_us_p99", post.p99() as f64, "us");
    let action = hist_delta(&b.action_micros, &a.action_micros);
    sheet.put("ode_core.post.action_us_p99", action.p99() as f64, "us");

    let acquisitions =
        |s: &MetricsSnapshot| s.lock_shared_acquisitions + s.lock_exclusive_acquisitions;
    let waits = |s: &MetricsSnapshot| s.lock_shared_waits + s.lock_exclusive_waits;
    sheet.put(
        "ode_storage.lock.acq_per_stmt",
        per(acquisitions(b), acquisitions(a)),
        "count/stmt",
    );
    sheet.put(
        "ode_storage.lock.upgrades_per_stmt",
        per(b.lock_upgrades, a.lock_upgrades),
        "count/stmt",
    );
    sheet.put(
        "ode_storage.lock.waits",
        (waits(a) - waits(b)) as f64,
        "count",
    );
    let wait = hist_delta(&b.lock_wait_micros, &a.lock_wait_micros);
    sheet.put("ode_storage.lock.wait_us_p99", wait.p99() as f64, "us");
    sheet.put(
        "ode_storage.lock.deadlocks",
        (a.lock_deadlock_victims - b.lock_deadlock_victims) as f64,
        "count",
    );
    sheet.put(
        "ode_storage.txn.aborts_per_stmt",
        per(b.txn_aborts, a.txn_aborts),
        "count/stmt",
    );

    sheet.put(
        "ode_storage.wal.appends_per_stmt",
        per(b.wal_appends, a.wal_appends),
        "count/stmt",
    );
    sheet.put(
        "ode_storage.wal.bytes_per_stmt",
        per(b.wal_bytes, a.wal_bytes),
        "B/stmt",
    );
    sheet.put(
        "ode_storage.wal.checkpoints",
        (a.checkpoints - b.checkpoints) as f64,
        "count",
    );
    sheet.put(
        "ode_storage.wal.truncated_mb",
        (a.wal_truncated_bytes - b.wal_truncated_bytes) as f64 / (1024.0 * 1024.0),
        "MiB",
    );

    let buf_hits = a.buf_hits - b.buf_hits;
    let buf_misses = a.buf_misses - b.buf_misses;
    sheet.put(
        "ode_storage.buffer.hit_ratio",
        ratio(buf_hits, buf_hits + buf_misses),
        "ratio",
    );
    sheet.put(
        "ode_storage.buffer.misses_per_stmt",
        ratio(buf_misses, stmts),
        "count/stmt",
    );
    sheet.put(
        "ode_storage.buffer.evictions_per_stmt",
        per(b.buf_evictions, a.buf_evictions),
        "count/stmt",
    );
    sheet.put(
        "ode_storage.buffer.steals_per_stmt",
        per(b.pages_stolen, a.pages_stolen),
        "count/stmt",
    );
    let flush = hist_delta(&b.evict_flush_micros, &a.evict_flush_micros);
    sheet.put(
        "ode_storage.buffer.evict_flush_us_p99",
        flush.p99() as f64,
        "us",
    );

    sheet.put(
        "ode_storage.version.snapshot_reads_per_stmt",
        per(b.snapshot_reads, a.snapshot_reads),
        "count/stmt",
    );
    let chain = hist_delta(&b.version_chain_len, &a.version_chain_len);
    sheet.put(
        "ode_storage.version.chain_len_p99",
        chain.p99() as f64,
        "count",
    );
    sheet.put(
        "ode_storage.version.gced_per_stmt",
        per(b.versions_gced, a.versions_gced),
        "count/stmt",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn histogram_delta_keeps_only_new_samples() {
        let h = ode_obs::Histogram::new();
        h.record(3);
        let before = h.snapshot();
        h.record(1000);
        h.record(1000);
        let d = hist_delta(&before, &h.snapshot());
        assert_eq!(d.count, 2);
        assert!(d.p50() >= 1000);
    }
}
