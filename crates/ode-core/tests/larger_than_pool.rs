//! A larger-than-RAM trigger workload: a YCSB-A-style 50/50 read/update
//! mix over ~1 KiB rows, each with an armed perpetual trigger, on a
//! working set four times the buffer pool, with the background fuzzy
//! checkpointer cycling. The steal path (dirty eviction behind the WAL
//! flush gate) and log truncation under traffic must both run, and the
//! pool and the log must both stay bounded.

use bytes::BytesMut;
use ode_core::{
    ClassBuilder, CouplingMode, Database, Decode, Encode, OdeObject, Perpetual, StorageOptions,
};
use ode_storage::codec::{decode_bytes, encode_bytes};
use ode_testutil::TempDir;
use std::time::Duration;

/// Buffer-pool capacity in pages.
const POOL: usize = 32;
/// Rows that share a 4 KiB page at ~1 KiB each, net of cell overhead.
const ROWS_PER_PAGE: usize = 3;
/// Operations in the measured mix.
const OPS: usize = 3_000;
/// Checkpoint cycles the mix waits for, evenly spaced.
const CYCLES: usize = 8;

#[derive(Debug, Clone)]
struct Row {
    pad: Vec<u8>,
    version: u64,
}
impl Encode for Row {
    fn encode(&self, buf: &mut BytesMut) {
        encode_bytes(&self.pad, buf);
        self.version.encode(buf);
    }
}
impl Decode for Row {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(Row {
            pad: decode_bytes(buf)?.to_vec(),
            version: u64::decode(buf)?,
        })
    }
}
impl OdeObject for Row {
    const CLASS: &'static str = "YcsbRow";
}

/// Deterministic MMIX LCG, so the key sequence is the same every run.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 17) % n
    }
}

#[test]
fn four_times_the_pool_steals_checkpoints_and_keeps_the_log_bounded() {
    let dir = TempDir::new("larger-than-pool");
    let db = Database::create(
        dir.path(),
        StorageOptions {
            buffer_pages: POOL,
            checkpoint_interval: Some(Duration::from_millis(20)),
            ..StorageOptions::default()
        },
    )
    .unwrap();
    let td = ClassBuilder::new("YcsbRow")
        .after_event("Update")
        .trigger(
            "OnUpdate",
            "after Update",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    let storage = db.storage();
    let cap = storage.pool_capacity().unwrap();
    let n_rows = 4 * cap * ROWS_PER_PAGE;
    let mut rows = Vec::with_capacity(n_rows);
    for chunk in 0..n_rows.div_ceil(64) {
        db.with_txn(|txn| {
            for i in chunk * 64..n_rows.min(chunk * 64 + 64) {
                let row = db.pnew(
                    txn,
                    &Row {
                        pad: vec![i as u8; 1024],
                        version: 0,
                    },
                )?;
                db.activate(txn, row, "OnUpdate", &0u32)?;
                rows.push(row);
            }
            Ok(())
        })
        .unwrap();
    }

    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    let wal_start = storage.wal_flushed_lsn().unwrap();
    let mut wal_max = 0u64;
    let mut updates = 0u64;
    for op in 0..OPS {
        let row = rows[rng.below(rows.len() as u64) as usize];
        if rng.below(2) == 0 {
            db.with_txn(|txn| db.read(txn, row).map(|_| ())).unwrap();
        } else {
            db.with_txn(|txn| {
                db.invoke(txn, row, "Update", |r: &mut Row| {
                    r.version += 1;
                    Ok(())
                })
            })
            .unwrap();
            updates += 1;
        }
        if op % 64 == 0 {
            wal_max = wal_max.max(storage.wal_file_len().unwrap());
        }
        // The checkpointer cycles on a timer, so a fast build could run
        // the whole mix inside two intervals. At eight points the mix
        // waits for the next cycle, so at any speed the log is recycled
        // under traffic at least that often.
        if (op + 1) % (OPS / CYCLES) == 0 {
            let seen = storage.metrics().snapshot().checkpoints;
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while storage.metrics().snapshot().checkpoints == seen {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the background checkpointer stopped cycling"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    wal_max = wal_max.max(storage.wal_file_len().unwrap());
    let wal_appended = storage.wal_flushed_lsn().unwrap() - wal_start;

    let pool = storage.pool_stats().unwrap();
    assert!(
        pool.resident <= cap,
        "resident pages {} exceed pool capacity {cap}",
        pool.resident
    );
    assert!(
        pool.steals > 0,
        "a 4x working set must overflow the pool through the steal path"
    );
    let snap = storage.metrics().snapshot();
    assert!(
        snap.checkpoints >= 2,
        "the background checkpointer should have cycled, got {}",
        snap.checkpoints
    );
    assert!(
        snap.wal_truncated_bytes > 0,
        "fuzzy checkpoints must truncate the WAL under traffic"
    );
    // Bounded log: the high-water mark stays well below the bytes
    // appended, so the log is being recycled, not accreted.
    assert!(
        wal_max < wal_appended / 2,
        "wal high-water {wal_max}B not bounded vs {wal_appended}B appended"
    );
    // Every update fired its armed trigger and committed its row.
    let versions: u64 = db
        .with_txn(|txn| {
            rows.iter()
                .map(|&row| db.read(txn, row).map(|r| r.version))
                .sum()
        })
        .unwrap();
    assert_eq!(versions, updates);
    db.close().unwrap();
}
