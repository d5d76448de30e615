//! # ode-obs — engine-wide observability for the Ode reproduction
//!
//! One [`Metrics`] instance is shared (via `Arc`) by every layer of a
//! database: the storage substrate (locks, WAL, buffer pool, B-tree), the
//! event machinery (FSM compilation and run-time advances), and the
//! trigger run-time (postings, firings by coupling mode, queue depths).
//! All counters are relaxed atomics — incrementing one is lock-free and
//! never blocks the engine — and [`Metrics::snapshot`] returns a plain
//! [`MetricsSnapshot`] struct (no serde, no allocation beyond the struct
//! itself) that can be diffed, asserted on in tests, or rendered in the
//! Prometheus text exposition format.
//!
//! Latency-shaped signals (lock waits, commit flush waits, fsync
//! duration, post latency, trigger-action latency) are [`Histogram`]s
//! rather than bare sums: log-linear fixed buckets, relaxed atomics, and
//! p50/p99/max accessors, rendered as Prometheus `_bucket`/`_sum`/
//! `_count` series. A sum counter can say lock waits cost 40 ms total;
//! only the histogram can say whether that was 40 000 cheap waits or one
//! catastrophic one.
//!
//! The paper's own evaluation (§6) leans on exactly these signals: lock
//! waits and deadlock victims for the "triggers turn read access into
//! write access" observation, per-machine state counts for the sparse-vs-
//! dense transition-table decision, and mask/pseudo-event counts for the
//! quiescence behaviour of Figure 1 machines.
//!
//! ## Flight recorder
//!
//! Counters aggregate; they cannot explain any *single* firing. The
//! always-on [`FlightRecorder`] keeps the last N trace occurrences in a
//! fixed-capacity ring of compact owned records ([`FlightRecord`]),
//! written without locks by any number of concurrent threads and snapshotted
//! on demand ([`Metrics::flight_log`]). Each record carries a monotonic
//! timestamp and the causal ids (txn, trigger, FSM states, LSN) needed to
//! reconstruct the chain *posted event → FSM advances (incl. mask
//! pseudo-events) → firing → coupling-mode system transaction → durable
//! commit LSN*. On anomalies — deadlock victim selection, lock timeout,
//! WAL poisoning — the engine calls [`Metrics::dump_flight`], which
//! preserves a [`FlightDump`] for post-mortem inspection (and echoes it
//! to stderr when `ODE_LOCK_DEBUG` is set).
//!
//! [`FlightEvent`] is the engine's one event type: every layer builds it
//! inside the closure it passes to [`Metrics::emit`], which runs only
//! while the recorder is enabled. With the recorder disabled the hot
//! path pays one relaxed boolean load and no payload is constructed.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub use ode_trace::{SmallStr, SMALL_STR_CAP};

/// A single monotonically increasing, lock-free counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (benchmarks between phases).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// A lock-free instantaneous-level metric (resident pages, dirty pages,
/// dirty-page-table size): unlike a [`Counter`] it can go down, and it is
/// rendered as a Prometheus `gauge`. Writers publish the current level
/// with [`Gauge::set`].
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Publish the current level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Number of buckets in a [`Histogram`]: 62 finite buckets plus one
/// `+Inf` catch-all.
pub const HISTOGRAM_BUCKETS: usize = 63;

/// A lock-free log-linear histogram of `u64` samples (microseconds, by
/// convention, for every `*_micros` metric).
///
/// Bucket layout: values `0..=7` get exact singleton buckets (indices
/// `0..=7`); beyond that each power-of-two range `[2^m, 2^(m+1))` is
/// split into two sub-buckets (log-linear, ≤ 33% relative error), up to
/// `2^30 - 1`. Larger values land in the final `+Inf` bucket (index 62),
/// which is why [`HistogramSnapshot::max`] is tracked exactly. Recording
/// is three relaxed atomic RMWs plus one `fetch_max` — no locks, no
/// allocation, safe under any concurrency.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value < 8 {
            return value as usize;
        }
        let m = 63 - value.leading_zeros() as usize; // msb position, >= 3
        let half = (value >> (m - 1)) & 1; // upper or lower half of [2^m, 2^(m+1))
        let idx = 8 + (m - 3) * 2 + half as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `index`, or `None` for the final
    /// `+Inf` bucket.
    pub fn bucket_bound(index: usize) -> Option<u64> {
        if index < 8 {
            return Some(index as u64);
        }
        if index >= HISTOGRAM_BUCKETS - 1 {
            return None;
        }
        let j = index - 8;
        let m = 3 + j / 2;
        let half = (j % 2) as u64;
        Some((1u64 << m) + (half + 1) * (1u64 << (m - 1)) - 1)
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Reset every bucket, the sum, the count, and the max to zero
    /// (benchmarks between phases — the same affordance
    /// [`Counter::reset`] has).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Point-in-time copy. Individual loads are relaxed, so a snapshot
    /// taken while writers are active may be off by in-flight samples;
    /// quiescent snapshots are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Point-in-time copy of a [`Histogram`] — a plain `Copy` struct,
/// diffable and assertable like the counter snapshot fields.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`Histogram::bucket_bound`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
    /// Largest recorded value (exact, even for `+Inf`-bucket samples).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            count: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `p`-quantile (`0.0 < p <= 1.0`):
    /// walks the cumulative bucket counts and returns the inclusive
    /// upper bound of the bucket containing the rank, or [`Self::max`]
    /// for the `+Inf` bucket. Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Histogram::bucket_bound(i).unwrap_or(self.max);
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Render as a Prometheus histogram: cumulative `_bucket{le="..."}`
    /// series ending in `le="+Inf"`, then `_sum` and `_count`.
    pub fn render_prometheus_into(&self, out: &mut String, name: &str, help: &str) {
        self.render_prometheus_into_labeled(out, name, help, "");
    }

    /// [`HistogramSnapshot::render_prometheus_into`] with an extra label
    /// set (e.g. `db="bank"`, no braces) prepended to every sample's
    /// labels. An empty `labels` reproduces the unlabeled exposition
    /// byte-for-byte.
    pub fn render_prometheus_into_labeled(
        &self,
        out: &mut String,
        name: &str,
        help: &str,
        labels: &str,
    ) {
        use std::fmt::Write as _;
        let sep = if labels.is_empty() { "" } else { "," };
        let _ = writeln!(out, "# HELP ode_{name} {help}");
        let _ = writeln!(out, "# TYPE ode_{name} histogram");
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            match Histogram::bucket_bound(i) {
                // Empty exact buckets below 8 are elided to keep the
                // exposition small; cumulative counts are unaffected.
                Some(bound) => {
                    if n != 0 || i >= 8 {
                        let _ = writeln!(
                            out,
                            "ode_{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}"
                        );
                    }
                }
                None => {
                    let _ = writeln!(
                        out,
                        "ode_{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
                    );
                }
            }
        }
        if labels.is_empty() {
            let _ = writeln!(out, "ode_{name}_sum {}", self.sum);
            let _ = writeln!(out, "ode_{name}_count {}", self.count);
        } else {
            let _ = writeln!(out, "ode_{name}_sum{{{labels}}} {}", self.sum);
            let _ = writeln!(out, "ode_{name}_count{{{labels}}} {}", self.count);
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// A structured event, recorded by the flight recorder at the moment the
/// corresponding counter ticks. `Copy` and fixed-size: name fields are
/// inlined as [`SmallStr`]s, so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum FlightEvent {
    /// A lock request had to wait for an incompatible holder.
    LockWait { txn: u64, exclusive: bool },
    /// A waiting lock request was chosen as a deadlock victim.
    DeadlockVictim { txn: u64 },
    /// The WAL was fsynced.
    WalFsync { bytes_flushed: u64 },
    /// The buffer pool evicted a clean frame.
    BufferEviction { page: u32 },
    /// A B-tree node split (the root split grows the tree by one level).
    BtreeSplit { root: bool },
    /// A transaction committed.
    TxnCommit { txn: u64 },
    /// A transaction aborted.
    TxnAbort { txn: u64 },
    /// A trigger event expression was compiled to an FSM.
    FsmCompiled {
        trigger: SmallStr,
        nfa_states: u64,
        dfa_states: u64,
        nanos: u64,
    },
    /// A basic event was posted to an object.
    EventPosted { event: u32, anchor: u64 },
    /// A trigger action ran.
    TriggerFired {
        trigger: SmallStr,
        coupling: SmallStr,
    },
    /// A trigger FSM advanced from one state to another. `pseudo` is
    /// `None` for a real posted event, `Some(truth)` for a mask
    /// True/False pseudo-event consumed during quiescence (§5.4.5).
    FsmAdvanced {
        trigger: SmallStr,
        from_state: u32,
        to_state: u32,
        pseudo: Option<bool>,
    },
    /// A detached (dependent / !dependent) firing began its system
    /// transaction. `parent` is the user transaction it depends on
    /// (`None` for `!dependent`, which commits unconditionally).
    SystemTxnStarted {
        txn: u64,
        parent: Option<u64>,
        coupling: SmallStr,
    },
    /// A transaction's commit record became durable at `lsn` (after the
    /// group-commit flush it joined reached the disk).
    CommitDurable { txn: u64, lsn: u64 },
}

/// One entry in the flight recorder: a global sequence number, a
/// monotonic timestamp (nanoseconds since the recorder was created),
/// the compact event, and — when the emitting thread was inside a
/// traced statement — the ambient `ode-trace` identity, so the
/// engine-global flight log can be joined against statement span
/// trees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightRecord {
    /// Global record sequence number (dense, starts at 0).
    pub seq: u64,
    /// Nanoseconds since the recorder's creation (monotonic clock).
    pub nanos: u64,
    /// The traced statement this record occurred under (0 = untraced).
    pub trace_id: u64,
    /// The innermost open span at emission time (0 = untraced or at the
    /// trace root).
    pub span_id: u64,
    /// The recorded occurrence.
    pub event: FlightEvent,
}

const FLIGHT_INIT: FlightRecord = FlightRecord {
    seq: 0,
    nanos: 0,
    trace_id: 0,
    span_id: 0,
    event: FlightEvent::TxnCommit { txn: 0 },
};

/// Default ring capacity of the recorder embedded in [`Metrics`].
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

struct FlightSlot {
    /// Seqlock version: `2*seq + 1` while the record for `seq` is being
    /// written, `2*seq + 2` once complete. The initial 0 matches no
    /// record's completed version, so uninitialised slots are never
    /// surfaced.
    version: AtomicU64,
    data: UnsafeCell<FlightRecord>,
}

// SAFETY: concurrent access to `data` is mediated by the per-slot
// seqlock version — readers discard any record whose version is not the
// exact completed value both before and after the volatile read.
unsafe impl Sync for FlightSlot {}

/// A bounded, always-on ring buffer of [`FlightRecord`]s.
///
/// Writers claim a sequence number with one `fetch_add` and publish
/// through a per-slot seqlock (odd version while writing, even when
/// complete), so recording never allocates and blocks only in one rare
/// case: a writer whose slot is still being written by a writer a full lap
/// behind waits for it. [`snapshot`] returns the surviving window
/// oldest-first; records a lapping writer was mid-way through overwriting
/// are skipped rather than surfaced torn.
///
/// [`snapshot`]: FlightRecorder::snapshot
pub struct FlightRecorder {
    head: AtomicU64,
    slots: Box<[FlightSlot]>,
    mask: u64,
    origin: Instant,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` records (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Vec<FlightSlot> = (0..cap)
            .map(|_| FlightSlot {
                version: AtomicU64::new(0),
                data: UnsafeCell::new(FLIGHT_INIT),
            })
            .collect();
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            origin: Instant::now(),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (records older than
    /// `head() - capacity()` have been overwritten).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Append one record: one `fetch_add` to claim a sequence number, a
    /// compare-and-swap to claim its slot, then a seqlock-guarded plain
    /// write.
    pub fn record(&self, event: FlightEvent) {
        let nanos = self.origin.elapsed().as_nanos() as u64;
        let (trace_id, span_id) = ode_trace::current_ids();
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        let writing = 2 * seq + 1;
        // Claim the slot. Its version only grows: a writer that finds a
        // newer record's version has been lapped (its record already left
        // the window) and drops the record; one that finds an older record
        // still being written waits for it. So no two writers copy into a
        // slot at once, and a stalled writer can never overwrite — and lose
        // — a newer record once it resumes.
        let mut current = slot.version.load(Ordering::Relaxed);
        loop {
            if current > writing {
                return;
            }
            if current % 2 == 1 {
                std::thread::yield_now();
                current = slot.version.load(Ordering::Relaxed);
                continue;
            }
            // Acquire: the previous record's copy-in happens before ours.
            match slot.version.compare_exchange_weak(
                current,
                writing,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        fence(Ordering::Release);
        // SAFETY: this writer alone holds the slot (odd version, claimed
        // above); readers validate the version on both sides of their copy
        // and discard mismatches, so a torn value is never observed.
        unsafe {
            *slot.data.get() = FlightRecord {
                seq,
                nanos,
                trace_id,
                span_id,
                event,
            };
        }
        slot.version.store(2 * seq + 2, Ordering::Release);
    }

    /// Copy out the surviving window, oldest-first. Records currently
    /// being overwritten by a lapping writer are skipped.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            let complete = 2 * seq + 2;
            if slot.version.load(Ordering::Acquire) != complete {
                continue;
            }
            // SAFETY: the slot holds a valid (possibly concurrently
            // overwritten) FlightRecord; the volatile read plus version
            // re-check below rejects any copy that raced a writer.
            let rec = unsafe { std::ptr::read_volatile(slot.data.get()) };
            fence(Ordering::Acquire);
            if slot.version.load(Ordering::Relaxed) != complete {
                continue;
            }
            out.push(rec);
        }
        out
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("head", &self.head())
            .finish()
    }
}

/// A preserved flight-log snapshot taken at an anomaly (deadlock victim,
/// lock timeout, WAL poisoning). The reason string carries the anomaly's
/// own context — e.g. a lock-timeout dump names both the waiting and the
/// holding transactions.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the dump was taken (includes anomaly-specific ids).
    pub reason: String,
    /// The flight log at the moment of the dump, oldest-first.
    pub records: Vec<FlightRecord>,
}

/// How many [`FlightDump`]s [`Metrics`] retains (oldest evicted first).
pub const MAX_FLIGHT_DUMPS: usize = 16;

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

/// Declares every counter and histogram once; expands to the `Metrics`
/// registry, the plain [`MetricsSnapshot`] struct, and the Prometheus
/// renderer so the three can never drift apart.
macro_rules! metrics {
    (
        counters { $( $(#[doc = $cdoc:expr])+ $cname:ident, )+ }
        gauges { $( $(#[doc = $gdoc:expr])+ $gname:ident, )+ }
        histograms { $( $(#[doc = $hdoc:expr])+ $hname:ident, )+ }
    ) => {
        /// The engine-wide metrics registry. One instance per database,
        /// shared by all layers; counters, gauges, and histograms are
        /// relaxed atomics, and the embedded flight recorder takes no locks.
        pub struct Metrics {
            $( $(#[doc = $cdoc])+ pub $cname: Counter, )+
            $( $(#[doc = $gdoc])+ pub $gname: Gauge, )+
            $( $(#[doc = $hdoc])+ pub $hname: Histogram, )+
            flight_enabled: AtomicBool,
            flight: FlightRecorder,
            dumps: Mutex<Vec<FlightDump>>,
        }

        /// Point-in-time copy of every counter and histogram — a
        /// serde-free plain struct, cheap to copy and diff.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[doc = $cdoc])+ pub $cname: u64, )+
            $( $(#[doc = $gdoc])+ pub $gname: u64, )+
            $( $(#[doc = $hdoc])+ pub $hname: HistogramSnapshot, )+
        }

        impl Metrics {
            /// A fresh registry with all counters at zero and an empty
            /// flight recorder (enabled).
            pub fn new() -> Metrics {
                Metrics {
                    $( $cname: Counter::new(), )+
                    $( $gname: Gauge::new(), )+
                    $( $hname: Histogram::new(), )+
                    flight_enabled: AtomicBool::new(true),
                    flight: FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY),
                    dumps: Mutex::new(Vec::new()),
                }
            }

            /// Copy every counter and histogram.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $cname: self.$cname.get(), )+
                    $( $gname: self.$gname.get(), )+
                    $( $hname: self.$hname.snapshot(), )+
                }
            }

            /// Zero every counter and every histogram (benchmarks
            /// between phases). Gauges are levels mirrored from their
            /// owners' state, so they keep their values; the flight log
            /// is preserved.
            pub fn reset(&self) {
                $( self.$cname.reset(); )+
                $( self.$hname.reset(); )+
            }
        }

        impl MetricsSnapshot {
            /// Render in the Prometheus text exposition format:
            /// `ode_`-prefixed counters with HELP/TYPE headers, and
            /// histograms as cumulative `_bucket`/`_sum`/`_count`
            /// series.
            pub fn render_prometheus(&self) -> String {
                self.render_prometheus_labeled("")
            }

            /// [`MetricsSnapshot::render_prometheus`] with an extra label
            /// set (e.g. `db="bank"`, no braces) attached to every sample
            /// — the multi-database `Engine` renders one page per
            /// database and distinguishes them by label. An empty
            /// `labels` reproduces the unlabeled exposition
            /// byte-for-byte.
            pub fn render_prometheus_labeled(&self, labels: &str) -> String {
                use std::fmt::Write as _;
                let mut out = String::new();
                let braced = if labels.is_empty() {
                    String::new()
                } else {
                    format!("{{{labels}}}")
                };
                $(
                    let help: &str = concat!($($cdoc),+);
                    let _ = writeln!(out, "# HELP ode_{} {}", stringify!($cname), help.trim());
                    let _ = writeln!(out, "# TYPE ode_{} counter", stringify!($cname));
                    let _ = writeln!(out, "ode_{}{} {}", stringify!($cname), braced, self.$cname);
                )+
                $(
                    let help: &str = concat!($($gdoc),+);
                    let _ = writeln!(out, "# HELP ode_{} {}", stringify!($gname), help.trim());
                    let _ = writeln!(out, "# TYPE ode_{} gauge", stringify!($gname));
                    let _ = writeln!(out, "ode_{}{} {}", stringify!($gname), braced, self.$gname);
                )+
                $(
                    let help: &str = concat!($($hdoc),+);
                    self.$hname.render_prometheus_into_labeled(
                        &mut out,
                        stringify!($hname),
                        help.trim(),
                        labels,
                    );
                )+
                out
            }
        }
    };
}

metrics! {
    counters {
        // ---------------------------------------------------------------
        // ode-storage: lock manager
        // ---------------------------------------------------------------
        /// Shared-mode lock grants (immediate or after waiting).
        lock_shared_acquisitions,
        /// Exclusive-mode lock grants (immediate or after waiting).
        lock_exclusive_acquisitions,
        /// Shared-mode requests that had to wait at least once.
        lock_shared_waits,
        /// Exclusive-mode requests that had to wait at least once.
        lock_exclusive_waits,
        /// Shared-to-exclusive upgrades (§6: triggers turn reads into writes).
        lock_upgrades,
        /// Requests aborted as deadlock victims.
        lock_deadlock_victims,
        /// Lock requests granted without waiting.
        lock_immediate_grants,
        /// Lock-table stripe mutex acquisitions that found the stripe held
        /// by another thread (hot-path contention on the manager itself,
        /// as opposed to contention on the locks it hands out).
        lock_stripe_contention,
        // ---------------------------------------------------------------
        // ode-storage: WAL, buffer pool, B-tree, transactions
        // ---------------------------------------------------------------
        /// Log records appended to the WAL.
        wal_appends,
        /// Payload bytes appended to the WAL (including framing).
        wal_bytes,
        /// WAL fsync (sync_data) calls.
        wal_fsyncs,
        /// Group-commit flushes that made at least one commit record durable.
        wal_group_commits,
        /// Commit records made durable across all group-commit flushes
        /// (`wal_group_size_sum / wal_group_commits` = mean group size).
        wal_group_size_sum,
        /// Faults injected by an armed fault-injection plan (tests only).
        faults_injected,
        /// Buffer-pool page requests served from cache.
        buf_hits,
        /// Buffer-pool page requests that read the data file.
        buf_misses,
        /// Buffer-pool frames evicted (clean at eviction time).
        buf_evictions,
        /// Dirty buffer-pool frames stolen: flushed (WAL-first) and
        /// evicted to make room, bounding the pool at its capacity.
        pages_stolen,
        /// Buffer-pool mutex acquisitions that found the pool held by
        /// another thread.
        buf_pool_contention,
        /// Fuzzy and quiesced checkpoints completed.
        checkpoints,
        /// WAL bytes dropped by truncating behind the checkpoint horizon.
        wal_truncated_bytes,
        /// B-tree node splits (leaf, internal, and root).
        btree_splits,
        /// Transactions committed.
        txn_commits,
        /// Transactions aborted.
        txn_aborts,
        // ---------------------------------------------------------------
        // ode-events: FSM compilation and run-time
        // ---------------------------------------------------------------
        /// Trigger event expressions compiled to FSMs.
        fsm_compiles,
        /// Nanoseconds spent compiling trigger FSMs.
        fsm_compile_nanos,
        /// NFA states built across all compilations (Thompson construction).
        nfa_states,
        /// Optimised DFA states across all compilations.
        fsm_states,
        /// Real-event transitions taken by trigger FSMs at run time.
        fsm_transitions,
        /// Mask predicate evaluations performed by trigger FSMs.
        fsm_mask_evals,
        /// True pseudo-events consumed during mask quiescence (§5.4.5).
        fsm_true_events,
        /// False pseudo-events consumed during mask quiescence (§5.4.5).
        fsm_false_events,
        // ---------------------------------------------------------------
        // ode-core: trigger run-time
        // ---------------------------------------------------------------
        /// Basic events posted to objects.
        events_posted,
        /// Posts that stopped at a clear header has-triggers flag byte.
        index_skips,
        /// Per-trigger-instance FSM advances performed (persistent and local).
        fsm_advances,
        /// Mask predicate evaluations requested by the trigger run-time.
        mask_evaluations,
        /// Posting advances served from the per-transaction trigger-state
        /// cache (no storage read).
        state_cache_hits,
        /// Posting advances that read and decoded the stored TriggerState
        /// (first touch in the transaction).
        state_cache_misses,
        /// Trigger statenums written back to storage at commit: the FSM
        /// moved this transaction and ended in a state other than the
        /// stored one.
        state_writebacks,
        /// Trigger statenums settled at commit by the X lock alone: the FSM
        /// moved this transaction but ended in the stored state, so the
        /// identity write (WAL record, version, dirty page) was skipped.
        state_writes_skipped,
        /// Trigger activations.
        trigger_activations,
        /// Trigger deactivations (explicit, once-only, or dead instances).
        trigger_deactivations,
        /// Once-only triggers deactivated because they fired.
        once_only_deactivations,
        /// Immediate-coupled trigger actions executed.
        firings_immediate,
        /// End-coupled (deferred) trigger actions executed.
        firings_end,
        /// Dependent-coupled trigger actions executed.
        firings_dependent,
        /// !dependent-coupled trigger actions executed.
        firings_independent,
        /// Firings on the per-transaction lists when commit processing ran.
        commit_queue_depth,
        /// Firings on the per-transaction lists when abort processing ran.
        abort_queue_depth,
        /// Detached (dependent/!dependent) actions whose system transaction
        /// failed.
        detached_failures,
        /// Object reads served from an MVCC snapshot (no lock-manager
        /// locks taken).
        snapshot_reads,
        /// Armed objects skipped by a timer tick because their class does
        /// not declare the ticked timer event.
        tick_skips,
        /// Superseded object versions reclaimed by version-chain GC.
        versions_gced,
        /// Statements whose end-to-end latency exceeded the configured
        /// slow-statement threshold (their span trees went to the slow
        /// log).
        slow_statements,
        /// Commit tickets of a wire batch frame that were waited after an
        /// earlier ticket of the same frame and database, so the WAL
        /// flush that wait ran covered them (the wire layer's commit
        /// piggybacking).
        piggybacked_commits,
    }
    gauges {
        /// Pages currently resident in the buffer pool.
        buf_resident_pages,
        /// Dirty pages currently resident in the buffer pool.
        buf_dirty_pages,
        /// Dirty-page-table size recorded by the latest checkpoint.
        dpt_size,
    }
    histograms {
        /// Microseconds a blocked lock request spent waiting, one sample
        /// per request that waited.
        lock_wait_micros,
        /// Microseconds committers spent waiting for their commit LSN to
        /// become durable (leader write+fsync time included), one sample
        /// per durable commit.
        commit_flush_wait_micros,
        /// Microseconds per WAL fsync (sync_data) call.
        fsync_micros,
        /// Microseconds per basic-event post, end to end (FSM advances,
        /// mask quiescence, and immediate firings included).
        post_micros,
        /// Microseconds per trigger action execution.
        action_micros,
        /// Nanoseconds spent acquiring a *contended* concurrency-core
        /// mutex (lock stripes, the buffer pool); uncontended
        /// acquisitions are not sampled,
        /// so `_count` equals the sum of the `*_contention` counters.
        shard_acquire_nanos,
        /// Length of an object's version chain sampled each time a commit
        /// installs a new version (long tails mean a snapshot is pinning
        /// the GC horizon far in the past).
        version_chain_len,
        /// Microseconds spent flushing a dirty frame (WAL flush-through +
        /// in-place write) to steal it under memory pressure, one sample
        /// per stolen page.
        evict_flush_micros,
        /// Microseconds per session statement, end to end (parse, run,
        /// firings, and — under autocommit — the commit flush wait).
        statement_micros,
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Metrics").field(&self.snapshot()).finish()
    }
}

impl Metrics {
    /// Record an event in the flight recorder. The closure runs only
    /// while the recorder is enabled, so callers defer payload
    /// construction (and their [`SmallStr`] copies) to it.
    pub fn emit(&self, event: impl FnOnce() -> FlightEvent) {
        if self.flight_enabled.load(Ordering::Relaxed) {
            self.flight.record(event());
        }
    }

    /// Enable or disable the flight recorder. Enabled by default; the
    /// ring contents are preserved across a disable/enable cycle.
    pub fn set_flight_enabled(&self, enabled: bool) {
        self.flight_enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the flight recorder is currently recording.
    pub fn flight_enabled(&self) -> bool {
        self.flight_enabled.load(Ordering::Relaxed)
    }

    /// Snapshot the flight recorder's surviving window, oldest-first.
    pub fn flight_log(&self) -> Vec<FlightRecord> {
        self.flight.snapshot()
    }

    /// Preserve a flight-log dump for post-mortem inspection (bounded to
    /// the most recent [`MAX_FLIGHT_DUMPS`]). Called by the engine on
    /// deadlock victim selection, lock timeout, and WAL poisoning. When
    /// the `ODE_LOCK_DEBUG` environment variable is set the dump is also
    /// echoed to stderr.
    pub fn dump_flight(&self, reason: impl Into<String>) {
        let dump = FlightDump {
            reason: reason.into(),
            records: self.flight.snapshot(),
        };
        if std::env::var_os("ODE_LOCK_DEBUG").is_some() {
            eprintln!("=== ode flight dump: {} ===", dump.reason);
            for r in &dump.records {
                eprintln!("  [{:>12} ns] #{:<6} {:?}", r.nanos, r.seq, r.event);
            }
            eprintln!("=== end flight dump ({} records) ===", dump.records.len());
        }
        let mut dumps = self.dumps.lock().unwrap_or_else(|e| e.into_inner());
        if dumps.len() >= MAX_FLIGHT_DUMPS {
            dumps.remove(0);
        }
        dumps.push(dump);
    }

    /// The preserved anomaly dumps, oldest-first.
    pub fn flight_dumps(&self) -> Vec<FlightDump> {
        self.dumps.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Short label for a coupling mode, used in [`FlightEvent::TriggerFired`]
/// so ode-core does not need its own string table.
pub mod coupling_label {
    /// `immediate`.
    pub const IMMEDIATE: &str = "immediate";
    /// `end` (deferred to just before commit).
    pub const END: &str = "end";
    /// `dependent` (separate transaction, commit dependency).
    pub const DEPENDENT: &str = "dependent";
    /// `!dependent` (separate transaction, unconditional).
    pub const INDEPENDENT: &str = "!dependent";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_start_at_zero_and_accumulate() {
        let m = Metrics::new();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        m.events_posted.inc();
        m.events_posted.add(4);
        m.wal_bytes.add(100);
        let s = m.snapshot();
        assert_eq!(s.events_posted, 5);
        assert_eq!(s.wal_bytes, 100);
        assert_eq!(s.fsm_compiles, 0);
    }

    #[test]
    fn reset_zeroes_everything_including_histograms() {
        let m = Metrics::new();
        m.lock_upgrades.add(7);
        m.btree_splits.inc();
        m.lock_wait_micros.record(150);
        m.commit_flush_wait_micros.record(2_000);
        m.fsync_micros.record(90);
        m.post_micros.record(12);
        m.action_micros.record(3);
        m.buf_resident_pages.set(4);
        assert_ne!(m.snapshot(), MetricsSnapshot::default());
        m.reset();
        // Gauges are levels, not totals: reset leaves them alone.
        let kept = MetricsSnapshot {
            buf_resident_pages: 4,
            ..MetricsSnapshot::default()
        };
        assert_eq!(m.snapshot(), kept);
        let s = m.snapshot();
        assert_eq!(s.lock_wait_micros.count, 0);
        assert_eq!(s.lock_wait_micros.sum, 0);
        assert_eq!(s.lock_wait_micros.max, 0);
        assert_eq!(s.lock_wait_micros.p99(), 0);
    }

    #[test]
    fn snapshot_is_a_plain_copyable_struct() {
        let m = Metrics::new();
        m.txn_commits.add(3);
        let a = m.snapshot();
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(b.txn_commits, 3);
    }

    #[test]
    fn histogram_bucket_index_and_bounds_agree() {
        // Exact buckets below 8.
        for v in 0..8u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_bound(v as usize), Some(v));
        }
        // Every value's bucket bound is >= the value, and the previous
        // bucket's bound is < the value (log-linear containment).
        for shift in 3..40u32 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift) + off;
                let i = Histogram::bucket_index(v);
                if let Some(bound) = Histogram::bucket_bound(i) {
                    assert!(bound >= v, "v={v} idx={i} bound={bound}");
                    if i > 0 {
                        let prev = Histogram::bucket_bound(i - 1).unwrap();
                        assert!(prev < v, "v={v} idx={i} prev_bound={prev}");
                    }
                }
            }
        }
        // Bounds are strictly increasing across the finite buckets.
        let mut last = None;
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let b = Histogram::bucket_bound(i).unwrap();
            if let Some(l) = last {
                assert!(b > l, "bucket {i}: {b} <= {l}");
            }
            last = Some(b);
        }
        assert_eq!(Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1), None);
        // Huge values land in the +Inf bucket.
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_percentiles_and_max() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().p50(), 0);
        // 98 fast samples, 2 slow ones: p50 small, p99 large, max exact.
        for _ in 0..98 {
            h.record(10);
        }
        h.record(5_000);
        h.record(7_777);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 98 * 10 + 5_000 + 7_777);
        assert_eq!(s.max, 7_777);
        let p50 = s.p50();
        assert!(
            (10..16).contains(&(p50 as usize)),
            "p50 bound {p50} should be the bucket containing 10"
        );
        let p99 = s.p99();
        assert!(p99 >= 5_000, "p99 bound {p99} must cover the slow samples");
        assert!(
            s.percentile(1.0) >= s.max,
            "p100 bucket bound must cover the exact max"
        );
    }

    #[test]
    fn histogram_prometheus_exposition_is_conformant() {
        let h = Histogram::new();
        for v in [0u64, 1, 7, 8, 100, 1_000, u64::MAX] {
            h.record(v);
        }
        let mut out = String::new();
        h.snapshot()
            .render_prometheus_into(&mut out, "demo_micros", "demo help");
        assert!(out.contains("# HELP ode_demo_micros demo help"));
        assert!(out.contains("# TYPE ode_demo_micros histogram"));
        // Cumulative monotonicity and +Inf == count.
        let mut last = 0u64;
        let mut inf = None;
        for line in out.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
            if line.contains("le=\"+Inf\"") {
                inf = Some(v);
            }
        }
        assert_eq!(inf, Some(7), "+Inf bucket must equal _count");
        assert!(out.contains("ode_demo_micros_count 7"));
    }

    #[test]
    fn metrics_prometheus_rendering_has_help_type_and_value() {
        let m = Metrics::new();
        m.lock_upgrades.add(2);
        m.firings_immediate.add(9);
        m.lock_wait_micros.record(321);
        let text = m.snapshot().render_prometheus();
        assert!(text.contains("# HELP ode_lock_upgrades "));
        assert!(text.contains("# TYPE ode_lock_upgrades counter"));
        assert!(text.contains("\node_lock_upgrades 2\n"));
        assert!(text.contains("\node_firings_immediate 9\n"));
        assert!(text.contains("# TYPE ode_lock_wait_micros histogram"));
        assert!(text.contains("ode_lock_wait_micros_sum 321"));
        assert!(text.contains("ode_lock_wait_micros_count 1"));
        // Every line group is well-formed: value lines parse as u64.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.split_once(' ').expect("name value");
            assert!(name.starts_with("ode_"));
            value.parse::<u64>().expect("metric value");
        }
    }

    #[test]
    fn labeled_rendering_carries_the_label_set_on_every_sample() {
        let m = Metrics::new();
        m.firings_immediate.add(4);
        m.lock_wait_micros.record(321);
        let snap = m.snapshot();
        // Empty label set must reproduce the unlabeled exposition exactly
        // (the engine's single-database path and every existing scrape).
        assert_eq!(snap.render_prometheus(), snap.render_prometheus_labeled(""));
        let text = snap.render_prometheus_labeled("db=\"bank\"");
        assert!(text.contains("\node_firings_immediate{db=\"bank\"} 4\n"));
        assert!(text.contains("ode_lock_wait_micros_sum{db=\"bank\"} 321"));
        assert!(text.contains("ode_lock_wait_micros_count{db=\"bank\"} 1"));
        // Histogram buckets keep `le` as the last label.
        assert!(text.contains("ode_lock_wait_micros_bucket{db=\"bank\",le=\"+Inf\"} 1"));
        // Every non-comment sample carries the label set.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(
                line.contains("{db=\"bank\""),
                "unlabeled sample in labeled rendering: {line}"
            );
        }
    }

    #[test]
    fn commit_pipeline_counters_round_trip() {
        // The group-commit / fault-injection counters flow through the
        // snapshot and the Prometheus renderer like every other metric —
        // two snapshots taken around an idle period are equal, and a bump
        // to any of the four shows up in both representations.
        let m = Metrics::new();
        m.wal_group_commits.add(3);
        m.wal_group_size_sum.add(17);
        m.commit_flush_wait_micros.record(420);
        m.faults_injected.inc();
        let a = m.snapshot();
        let b = m.snapshot();
        assert_eq!(a, b, "idle snapshots must be equal");
        assert_eq!(a.wal_group_commits, 3);
        assert_eq!(a.wal_group_size_sum, 17);
        assert_eq!(a.commit_flush_wait_micros.sum, 420);
        assert_eq!(a.commit_flush_wait_micros.count, 1);
        assert_eq!(a.faults_injected, 1);
        let text = a.render_prometheus();
        for (name, value) in [("wal_group_commits", 3u64), ("wal_group_size_sum", 17)] {
            assert!(text.contains(&format!("# HELP ode_{name} ")), "{name} HELP");
            assert!(
                text.contains(&format!("\node_{name} {value}\n")),
                "{name} value"
            );
        }
        assert!(text.contains("ode_commit_flush_wait_micros_sum 420"));
    }

    #[test]
    fn flight_records_carry_the_ambient_trace_identity() {
        let m = Metrics::new();
        m.emit(|| FlightEvent::TxnCommit { txn: 1 });
        let trace = ode_trace::next_trace_id();
        {
            let _g = ode_trace::install(trace);
            let _root = ode_trace::span(ode_trace::SpanKind::Statement, "call");
            m.emit(|| FlightEvent::TxnCommit { txn: 2 });
        }
        m.emit(|| FlightEvent::TxnCommit { txn: 3 });
        let log = m.flight_log();
        assert_eq!(log.len(), 3);
        assert_eq!((log[0].trace_id, log[0].span_id), (0, 0), "untraced");
        assert_eq!(log[1].trace_id, trace, "stamped with the ambient trace");
        assert_eq!(log[1].span_id, 1, "statement span was innermost");
        assert_eq!((log[2].trace_id, log[2].span_id), (0, 0), "guard dropped");
    }

    #[test]
    fn disabled_recorder_never_runs_the_closure() {
        let m = Metrics::new();
        // With the recorder off the closure must not run (the hot path
        // defers payload construction entirely).
        m.set_flight_enabled(false);
        m.emit(|| panic!("recorder disabled"));
        assert!(m.flight_log().is_empty());
    }

    #[test]
    fn flight_recorder_is_on_by_default_and_captures_causal_fields() {
        let m = Metrics::new();
        assert!(m.flight_enabled());
        m.emit(|| FlightEvent::EventPosted {
            event: 3,
            anchor: 77,
        });
        m.emit(|| FlightEvent::FsmAdvanced {
            trigger: SmallStr::new("AutoRaiseLimit"),
            from_state: 1,
            to_state: 2,
            pseudo: Some(true),
        });
        m.emit(|| FlightEvent::SystemTxnStarted {
            txn: 9,
            parent: Some(4),
            coupling: SmallStr::new(coupling_label::DEPENDENT),
        });
        m.emit(|| FlightEvent::CommitDurable { txn: 9, lsn: 1234 });
        let log = m.flight_log();
        assert_eq!(log.len(), 4);
        // Sequence numbers are dense and timestamps monotone.
        for w in log.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
            assert!(w[1].nanos >= w[0].nanos);
        }
        match log[1].event {
            FlightEvent::FsmAdvanced {
                trigger,
                from_state,
                to_state,
                pseudo,
            } => {
                assert_eq!(trigger.as_str(), "AutoRaiseLimit");
                assert_eq!((from_state, to_state), (1, 2));
                assert_eq!(pseudo, Some(true));
            }
            other => panic!("expected FsmAdvanced, got {other:?}"),
        }
        match log[3].event {
            FlightEvent::CommitDurable { txn, lsn } => assert_eq!((txn, lsn), (9, 1234)),
            other => panic!("expected CommitDurable, got {other:?}"),
        }
    }

    #[test]
    fn flight_recorder_wraparound_keeps_the_most_recent_window() {
        let r = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            r.record(FlightEvent::TxnCommit { txn: i });
        }
        let log = r.snapshot();
        assert_eq!(log.len(), 8);
        let seqs: Vec<u64> = log.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        for w in log.windows(2) {
            assert!(w[1].nanos >= w[0].nanos, "timestamps must stay ordered");
        }
    }

    #[test]
    fn flight_dumps_are_preserved_and_bounded() {
        let m = Metrics::new();
        m.emit(|| FlightEvent::LockWait {
            txn: 7,
            exclusive: true,
        });
        for i in 0..(MAX_FLIGHT_DUMPS + 3) {
            m.dump_flight(format!("anomaly {i}"));
        }
        let dumps = m.flight_dumps();
        assert_eq!(dumps.len(), MAX_FLIGHT_DUMPS);
        assert_eq!(
            dumps.last().unwrap().reason,
            format!("anomaly {}", MAX_FLIGHT_DUMPS + 2)
        );
        assert!(dumps
            .last()
            .unwrap()
            .records
            .iter()
            .any(|r| matches!(r.event, FlightEvent::LockWait { txn: 7, .. })));
    }

    #[test]
    fn metrics_are_send_sync_and_thread_safe() {
        let m = Arc::new(Metrics::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.events_posted.inc();
                        m.post_micros.record(5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.events_posted.get(), 8000);
        let s = m.post_micros.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.sum, 40_000);
    }
}
