//! Crash-fault-injected recovery (§5.5 durability, §7 persistent
//! trigger state).
//!
//! The tentpole harness runs a trigger-heavy `CredCard` workload against
//! a disk database whose WAL and data files are wrapped in a
//! [`FaultInjector`], kills the "device" at a randomized byte offset (a
//! torn write, after which all I/O fails), crashes a second time inside
//! the reopen's own recovery (a fresh device dying at a seeded byte
//! offset), reopens the directory with a fresh un-injected engine, and
//! asserts the recovered database equals the state after the last
//! *acknowledged* commit — object payloads,
//! persistent trigger-FSM statenums, each card's active-trigger set (the
//! trigger refs in its header, churned by activation steps) and their
//! agreement with the state records (via `verify_integrity`) all
//! included.
//!
//! The workload is laced with MVCC snapshot readers (a long-lived
//! rotated reader pinning the GC horizon plus a per-step consistency
//! probe) and mid-script checkpoints — both quiesced and fuzzy — so
//! crash points also land with a populated version store, mid-GC,
//! mid-fuzzy-checkpoint, and mid-log-truncation; recovery is then
//! verified through both the locking and the snapshot read paths.
//!
//! Environment knobs (used by the CI crash matrix):
//!
//! * `ODE_CRASH_SEED`  — u64 seed for the crash-point PRNG (default 0).
//! * `ODE_CRASH_FSYNC` — `1` to fsync commits (CI); default off so the
//!   developer loop stays fast. Without fsync the harness crashes the
//!   *process*: every write that returned survives in the OS page cache.
//!   With fsync every crash point runs twice, once as a process crash and
//!   once as a *power loss* ([`FaultInjector::power_loss`]): each crash
//!   then also drops every write no completed `sync_data` covers and
//!   tears the last one, so a sync missing where the ordering needs it
//!   shows as a lost acknowledged commit or an unrepairable page. The torn
//!   write lands a subset of its 512-byte sectors below the cap, which
//!   the seed and the crash point pick, so a torn page can keep its old
//!   LSN.

mod common;

use common::{buy, cred_card_class, pay_bill, CredCard};
use ode_core::{Database, EngineKind, PersistentPtr, StorageOptions, TriggerId, TxnId};
use ode_storage::FaultInjector;
use ode_testutil::TempDir;
use std::sync::Arc;

const CARDS: usize = 3;
const STEPS: usize = 20;
const CRASH_POINTS: usize = 64;
/// Range of the byte cap for the second crash, inside `Database::open`.
/// Recovering this workload most often writes 16,416 bytes (four pages
/// in place, one header slot, the log reset), and up to about 21 KB when
/// a loser's rollback logs its records and a page image, so a cap drawn
/// below this nearly always dies inside recovery.
const REOPEN_CAP_SPAN: u64 = 16 * 1024;

/// Deterministic 64-bit LCG (Knuth's MMIX constants) so the harness
/// needs no external rand crate and every failure reproduces from
/// `ODE_CRASH_SEED` alone.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // The low bits of an LCG are weak; mix the high half down.
        self.0 >> 17
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn crash_seed() -> u64 {
    std::env::var("ODE_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn crash_fsync() -> bool {
    std::env::var("ODE_CRASH_FSYNC")
        .map(|s| s == "1")
        .unwrap_or(false)
}

/// How a crash point's device dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashModel {
    /// The process dies; the OS keeps every write that returned.
    Process,
    /// The power goes; only what was synced survives, and the last
    /// unsynced write lands torn.
    PowerLoss,
}

impl CrashModel {
    /// A fresh injector; `seed` picks which sectors a power cut's torn
    /// write lands.
    fn injector(self, seed: u64) -> Arc<FaultInjector> {
        Arc::new(match self {
            CrashModel::Process => FaultInjector::new(),
            CrashModel::PowerLoss => FaultInjector::power_loss(seed),
        })
    }
}

fn disk_options(fsync: bool, fault: Option<Arc<FaultInjector>>) -> StorageOptions {
    StorageOptions {
        engine: EngineKind::Disk,
        fsync,
        fault,
        ..StorageOptions::default()
    }
}

/// Everything recovery must reproduce: each card's payload, its
/// `AutoRaiseLimit` trigger's stored statenum (`None` once the
/// non-perpetual trigger has fired and deactivated itself), and the set of
/// its active triggers.
type Snapshot = Vec<(CredCard, Option<u32>, Vec<TriggerId>)>;

fn take_snapshot(
    db: &Database,
    cards: &[PersistentPtr<CredCard>],
    trigs: &[TriggerId],
) -> Snapshot {
    db.with_txn(|txn| snapshot_in(db, txn, cards, trigs))
        .unwrap()
}

/// The per-card state as seen from an already-open transaction — used
/// both by the locking [`take_snapshot`] and by the MVCC read-only
/// transactions the harness races against the crash.
fn snapshot_in(
    db: &Database,
    txn: TxnId,
    cards: &[PersistentPtr<CredCard>],
    trigs: &[TriggerId],
) -> ode_core::Result<Snapshot> {
    cards
        .iter()
        .zip(trigs)
        .map(|(&card, &trig)| {
            let payload = db.read(txn, card)?;
            let statenum = db.trigger_statenum(txn, trig).ok();
            let mut active = db.active_triggers(txn, card.oid())?;
            active.sort_unstable_by_key(|id| id.oid());
            Ok((payload, statenum, active))
        })
        .collect()
}

/// [`take_snapshot`] through a lock-free MVCC snapshot transaction.
fn take_snapshot_ro(
    db: &Database,
    cards: &[PersistentPtr<CredCard>],
    trigs: &[TriggerId],
) -> Snapshot {
    db.with_read_txn(|txn| snapshot_in(db, txn, cards, trigs))
        .unwrap()
}

/// Create the database, register the §4 class, mint `CARDS` cards and
/// activate `AutoRaiseLimit` and `DenyCredit` on each (so the first
/// activation step on a card deactivates) — all *before* the fault is
/// armed, mirroring an installation that was healthy until the crash
/// window.
fn setup(
    dir: &TempDir,
    fsync: bool,
    fault: Option<Arc<FaultInjector>>,
) -> (Database, Vec<PersistentPtr<CredCard>>, Vec<TriggerId>) {
    let db = Database::create(dir.path(), disk_options(fsync, fault)).unwrap();
    cred_card_class(&db);
    let (cards, trigs) = db
        .with_txn(|txn| {
            let mut cards = Vec::new();
            let mut trigs = Vec::new();
            for i in 0..CARDS {
                let card = db.pnew(txn, &CredCard::new(1000.0 + 100.0 * i as f32))?;
                trigs.push(db.activate(txn, card, "AutoRaiseLimit", &250.0f32)?);
                db.activate(txn, card, "DenyCredit", &())?;
                cards.push(card);
            }
            Ok((cards, trigs))
        })
        .unwrap();
    (db, cards, trigs)
}

/// One workload transaction, chosen by the (deterministic) step PRNG.
/// Arms `MoreCred` with big buys, fires `AutoRaiseLimit` with pay-bills,
/// toggles `DenyCredit` on and off or re-arms it in one transaction (so
/// crash points land inside header trigger-ref updates), and sprinkles
/// in `tabort`ed transactions so Abort records land in the log between
/// the commits recovery must replay.
fn apply_step(
    db: &Database,
    rng: &mut Lcg,
    cards: &[PersistentPtr<CredCard>],
    trigs: &[TriggerId],
) -> ode_core::Result<()> {
    let i = rng.below(cards.len() as u64) as usize;
    let card = cards[i];
    match rng.below(9) {
        0 => db.with_txn(|txn| buy(db, txn, card, 850.0)),
        1 => db.with_txn(|txn| buy(db, txn, card, 120.0)),
        2 | 3 => db.with_txn(|txn| pay_bill(db, txn, card, 400.0)),
        4 => db.with_txn(|txn| {
            buy(db, txn, card, 60.0)?;
            Err(ode_core::OdeError::tabort("crash-harness abort"))
        }),
        // Every trigger on a card other than its `AutoRaiseLimit` is a
        // `DenyCredit`: deactivate it if armed, activate it otherwise.
        // Every other time an armed one is re-armed in the same
        // transaction: its new state record must not reuse the Oid the
        // deactivation freed before that delete commits.
        5 => {
            let rearm = rng.below(2) == 0;
            db.with_txn(|txn| {
                let deny = db
                    .active_triggers(txn, card.oid())?
                    .into_iter()
                    .find(|id| *id != trigs[i]);
                match deny {
                    Some(id) if rearm => {
                        db.deactivate(txn, id)?;
                        let rearmed = db.activate(txn, card, "DenyCredit", &())?;
                        assert_ne!(rearmed.oid(), id.oid(), "a live delete's Oid was reissued");
                        Ok(())
                    }
                    Some(id) => db.deactivate(txn, id).map(|_| ()),
                    None => db.activate(txn, card, "DenyCredit", &()).map(|_| ()),
                }
            })
        }
        // A quiesced checkpoint mid-script: it vacuums the MVCC version
        // store and rewrites the page image, so crash points can land
        // mid-GC / mid-checkpoint, not just between commits. (While a
        // snapshot reader is open it refuses with `NotQuiesced` — treat
        // that like the historical no-op.)
        6 => match db.storage().checkpoint() {
            Ok(()) | Err(ode_storage::StorageError::NotQuiesced(_)) => Ok(()),
            Err(e) => Err(e.into()),
        },
        // A fuzzy checkpoint mid-script: flushes sampled dirty pages,
        // logs Begin/EndCheckpoint, and truncates the WAL prefix — so
        // crash points also land mid-fuzzy-checkpoint and mid-truncation,
        // and recovery must start from the checkpoint record.
        _ => db
            .storage()
            .checkpoint_fuzzy()
            .map(|_| ())
            .map_err(Into::into),
    }
}

/// Run the scripted workload with no fault armed and report how many WAL
/// bytes it appends past the setup prefix — the byte window inside which
/// the 64 crash points are then scattered.
fn rehearse(seed: u64, fsync: bool) -> u64 {
    let dir = TempDir::new("crash-rehearse");
    let (db, cards, trigs) = setup(&dir, fsync, None);
    let after_setup = db.storage().wal_flushed_lsn().unwrap();
    let mut rng = Lcg::new(seed);
    for _ in 0..STEPS {
        let _ = apply_step(&db, &mut rng, &cards, &trigs);
    }
    let after_workload = db.storage().wal_flushed_lsn().unwrap();
    db.close().unwrap();
    after_workload - after_setup
}

/// One crash point: run the workload with the device set to die after
/// `budget` more bytes, crash, crash again after `reopen_cap` bytes of
/// the reopen's recovery, recover, and check the committed prefix. Both
/// crashes follow `model`. Returns whether the second crash landed inside
/// `Database::open`.
fn run_crash_point(
    seed: u64,
    point: usize,
    budget: u64,
    reopen_cap: u64,
    fsync: bool,
    model: CrashModel,
) -> bool {
    let dir = TempDir::new("crash-point");
    let injector = model.injector(seed ^ point as u64);
    let (db, cards, trigs) = setup(&dir, fsync, Some(Arc::clone(&injector)));

    // State after the last acknowledged commit; starts at the setup state.
    let mut committed = take_snapshot(&db, &cards, &trigs);

    injector.arm_write_cap(budget);
    let mut rng = Lcg::new(seed);
    // A long-lived MVCC reader rotated through the script: open for the
    // first half of each 6-step window, closed for the second (so the
    // checkpoint steps in the closed half can actually quiesce and run
    // the version-store GC). While open it pins the GC horizon, so the
    // crash can land with a populated version store mid-trim.
    let mut reader: Option<(TxnId, Snapshot)> = None;
    for step in 0..STEPS {
        if step % 6 == 0 {
            if let Ok(txn) = db.begin_read_only() {
                reader = Some((txn, committed.clone()));
            }
        }
        if step % 6 == 3 {
            if let Some((txn, expect)) = reader.take() {
                match snapshot_in(&db, txn, &cards, &trigs) {
                    Ok(observed) => assert_eq!(
                        observed, expect,
                        "crash point {point}: a snapshot transaction drifted \
                         off the committed prefix it began at"
                    ),
                    // Reads fault the buffer pool, so the dying device can
                    // kill the probe itself — that *is* the crash.
                    Err(e) => assert!(
                        injector.tripped(),
                        "crash point {point}: long reader failed un-faulted: {e}"
                    ),
                }
                let _ = db.commit(txn);
            }
        }
        let result = apply_step(&db, &mut rng, &cards, &trigs);
        if injector.tripped() {
            // The device died somewhere inside this step: whatever the
            // step's outcome, its transaction was never acknowledged as
            // durable, so the committed prefix is unchanged.
            break;
        }
        if result.is_ok() {
            committed = take_snapshot(&db, &cards, &trigs);
        }
        // A fresh lock-free snapshot always agrees with the locking view
        // of the committed prefix, even with the long reader pinning
        // older versions. Its read-barrier commit may flush the WAL tail
        // and hit the byte cap — the device dying inside the probe is a
        // crash like any other.
        match db.with_read_txn(|txn| snapshot_in(&db, txn, &cards, &trigs)) {
            Ok(ro) => assert_eq!(
                ro, committed,
                "crash point {point}: snapshot read diverged from the committed prefix"
            ),
            Err(e) => {
                assert!(
                    injector.tripped(),
                    "crash point {point}: snapshot probe failed un-faulted: {e}"
                );
                break;
            }
        }
    }

    // Crash: the process holding the poisoned engine vanishes without
    // checkpoint or clean close (dropping would try to flush) — possibly
    // with the rotated reader's snapshot still registered.
    std::mem::forget(db);
    injector.disarm();

    // Crash again, inside recovery: a fresh device dies after
    // `reopen_cap` of the bytes `Database::open` writes (the losers'
    // rollback, the checkpoint's page flushes, the log reset), and the
    // half-recovered engine vanishes. Pages recovery repaired may now be
    // on disk with the log not yet reset.
    let reopen = model.injector(!seed ^ point as u64);
    reopen.arm_write_cap(reopen_cap);
    if let Ok(db) = Database::open(dir.path(), disk_options(fsync, Some(Arc::clone(&reopen)))) {
        std::mem::forget(db);
    }

    // Recover on pristine hardware.
    let db = Database::open(dir.path(), disk_options(fsync, None)).unwrap();
    cred_card_class(&db);
    let recovered = take_snapshot(&db, &cards, &trigs);
    assert_eq!(
        recovered, committed,
        "crash point {point} (seed {seed}, budget {budget} bytes, {model:?}): \
         recovered state is not the acknowledged-commit prefix"
    );
    // The freshly recovered engine serves the same prefix through the
    // MVCC read path (its version store restarts empty, so this
    // exercises the page-fallback protocol over recovered pages).
    assert_eq!(
        take_snapshot_ro(&db, &cards, &trigs),
        committed,
        "crash point {point} (seed {seed}, budget {budget} bytes, {model:?}): \
         post-recovery snapshot read diverged"
    );
    // The header trigger refs and the TriggerState records must agree
    // after replay, not just the payloads.
    db.with_txn(|txn| {
        let report = db.verify_integrity(txn)?;
        assert!(
            report.is_healthy(),
            "crash point {point} (seed {seed}, budget {budget} bytes, {model:?}): {:?}",
            report.issues
        );
        Ok(())
    })
    .unwrap();
    db.close().unwrap();
    reopen.tripped()
}

/// The tentpole acceptance test: ≥64 randomized crash points over a
/// trigger-heavy workload, every one recovering to a consistent
/// committed prefix.
#[test]
fn randomized_crash_points_recover_to_a_committed_prefix() {
    let seed = crash_seed();
    let fsync = crash_fsync();
    // Crash points are byte offsets into the workload's WAL window, plus
    // a little slack so some runs survive the whole script un-faulted.
    let span = rehearse(seed, fsync);
    assert!(span > 0, "workload must append WAL bytes");
    // A power loss drops what was never synced, so it only means
    // something when commits sync.
    let models: &[CrashModel] = if fsync {
        &[CrashModel::Process, CrashModel::PowerLoss]
    } else {
        &[CrashModel::Process]
    };
    for &model in models {
        let mut rng = Lcg::new(seed ^ 0xC0FF_EE00);
        // A stream of its own, so the first crash points stay those of
        // the seed.
        let mut reopen_rng = Lcg::new(seed ^ 0x0DE0_0DE0);
        let mut inside_recovery = 0;
        for point in 0..CRASH_POINTS {
            let budget = rng.below(span + 64);
            let reopen_cap = reopen_rng.below(REOPEN_CAP_SPAN);
            if run_crash_point(seed, point, budget, reopen_cap, fsync, model) {
                inside_recovery += 1;
            }
        }
        // Guards `REOPEN_CAP_SPAN` against drifting past what recovery
        // writes.
        assert!(
            inside_recovery >= CRASH_POINTS / 2,
            "{model:?}: only {inside_recovery} of {CRASH_POINTS} second crashes landed inside recovery"
        );
    }
}

/// A `dependent`-coupled firing runs in its own system transaction
/// *between* the parent's Commit record and the parent's durability
/// wait, so one group-commit flush covers both — with fsync on, the
/// whole cascade costs a single fsync and a single flush batch holding
/// both Commit records.
#[test]
fn dependent_firing_rides_the_parent_commit_flush() {
    use bytes::BytesMut;
    use ode_core::{ClassBuilder, CouplingMode, Decode, Encode, OdeObject, Perpetual};

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Audit {
        lines: Vec<String>,
    }
    impl Encode for Audit {
        fn encode(&self, buf: &mut BytesMut) {
            self.lines.encode(buf);
        }
    }
    impl Decode for Audit {
        fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
            Ok(Audit {
                lines: Vec::<String>::decode(buf)?,
            })
        }
    }
    impl OdeObject for Audit {
        const CLASS: &'static str = "Audit";
    }

    let dir = TempDir::new("crash-ride");
    let db = Database::create(dir.path(), disk_options(true, None)).unwrap();
    let audit_td = ClassBuilder::new("Audit").build(db.registry()).unwrap();
    db.register_class(&audit_td).unwrap();
    let card_td = ClassBuilder::new("CredCard")
        .after_event("Buy")
        .trigger(
            "LogDependent",
            "after Buy",
            CouplingMode::Dependent,
            Perpetual::Yes,
            |ctx| {
                let audit: PersistentPtr<Audit> = ctx.params()?;
                ctx.db()
                    .update_with(ctx.txn(), audit, |a| a.lines.push("fired".into()))
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&card_td).unwrap();

    let (card, audit) = db
        .with_txn(|txn| {
            let audit = db.pnew(txn, &Audit::default())?;
            let card = db.pnew(txn, &CredCard::new(1000.0))?;
            db.activate(txn, card, "LogDependent", &audit)?;
            Ok((card, audit))
        })
        .unwrap();

    let before = db.stats();
    db.with_txn(|txn| buy(&db, txn, card, 100.0)).unwrap();
    let after = db.stats();

    assert_eq!(
        after.wal_fsyncs - before.wal_fsyncs,
        1,
        "parent commit and dependent system transaction share one fsync"
    );
    assert_eq!(after.wal_group_commits - before.wal_group_commits, 1);
    assert_eq!(
        after.wal_group_size_sum - before.wal_group_size_sum,
        2,
        "one flush batch carries both Commit records"
    );
    // And the firing really committed.
    db.with_txn(|txn| {
        assert_eq!(db.read(txn, audit)?.lines, vec!["fired".to_string()]);
        Ok(())
    })
    .unwrap();
    db.close().unwrap();
}

/// Satellite: persistent trigger-FSM durability around a crash. Arming
/// `AutoRaiseLimit` (Figure 1) advances its stored statenum; if the
/// arming transaction never committed the advance must roll back, and if
/// it did commit the armed state must survive the crash *and still be
/// live* (a later PayBill fires the action).
#[test]
fn armed_trigger_statenum_rolls_back_uncommitted_and_survives_committed() {
    let dir = TempDir::new("crash-statenum");
    let injector = Arc::new(FaultInjector::new());
    let (db, cards, trigs) = {
        let db =
            Database::create(dir.path(), disk_options(true, Some(Arc::clone(&injector)))).unwrap();
        cred_card_class(&db);
        let (card, trig) = db
            .with_txn(|txn| {
                let card = db.pnew(txn, &CredCard::new(1000.0))?;
                let trig = db.activate(txn, card, "AutoRaiseLimit", &500.0f32)?;
                Ok((card, trig))
            })
            .unwrap();
        (db, vec![card], vec![trig])
    };
    let (card, trig) = (cards[0], trigs[0]);
    let unarmed = db.with_txn(|txn| db.trigger_statenum(txn, trig)).unwrap();

    // Crash *before* the arming Buy commits: the device dies at the first
    // flushed byte, so the commit is never acknowledged.
    injector.arm_write_cap(0);
    assert!(db.with_txn(|txn| buy(&db, txn, card, 900.0)).is_err());
    std::mem::forget(db);
    injector.disarm();

    let db = Database::open(dir.path(), disk_options(true, Some(Arc::clone(&injector)))).unwrap();
    cred_card_class(&db);
    db.with_txn(|txn| {
        assert_eq!(
            db.trigger_statenum(txn, trig)?,
            unarmed,
            "uncommitted statenum advance must roll back at recovery"
        );
        assert_eq!(db.read(txn, card)?.curr_bal, 0.0);
        Ok(())
    })
    .unwrap();

    // Commit the arming Buy for real, then crash.
    db.with_txn(|txn| buy(&db, txn, card, 900.0)).unwrap();
    let armed = db.with_txn(|txn| db.trigger_statenum(txn, trig)).unwrap();
    assert_ne!(armed, unarmed, "the committed Buy must advance the FSM");
    std::mem::forget(db);

    let db = Database::open(dir.path(), disk_options(true, None)).unwrap();
    cred_card_class(&db);
    db.with_txn(|txn| {
        assert_eq!(
            db.trigger_statenum(txn, trig)?,
            armed,
            "committed statenum advance must survive the crash"
        );
        Ok(())
    })
    .unwrap();
    // The recovered armed state is live, not just bytes: PayBill
    // completes the relative event and the trigger raises the limit.
    db.with_txn(|txn| pay_bill(&db, txn, card, 100.0)).unwrap();
    db.with_txn(|txn| {
        assert_eq!(db.read(txn, card)?.cred_lim, 1500.0);
        Ok(())
    })
    .unwrap();
    db.close().unwrap();
}
