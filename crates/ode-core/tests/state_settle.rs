//! Commit settles a trigger whose FSM moved but came back to its stored
//! state with the X lock alone: §6's read-becomes-write lock is still
//! taken, but the identity write — WAL record, version, dirty page — is
//! not. A changed statenum is still written back, and both kinds of
//! commit leave the stored statenums where the FSM says they are.

use bytes::BytesMut;
use ode_core::{
    ClassBuilder, CouplingMode, Database, Decode, Encode, EngineKind, OdeObject, Perpetual,
    StorageOptions, TypeDescriptor,
};
use ode_events::machine::Advance;
use ode_events::BasicEvent;
use ode_testutil::TempDir;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Lamp {
    lit: bool,
}
impl Encode for Lamp {
    fn encode(&self, buf: &mut BytesMut) {
        self.lit.encode(buf);
    }
}
impl Decode for Lamp {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(Lamp {
            lit: bool::decode(buf)?,
        })
    }
}
impl OdeObject for Lamp {
    const CLASS: &'static str = "Lamp";
}

/// `Lamp` with user events `On`/`Off` and two perpetual triggers: `Glow`
/// fires on every `On` (and rests in its accepting state), `Flicker` on
/// every `On` immediately followed by `Off`.
fn lamp_class(db: &Database) -> Arc<TypeDescriptor> {
    let td = ClassBuilder::new("Lamp")
        .user_event("On")
        .user_event("Off")
        .trigger(
            "Glow",
            "On",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .trigger(
            "Flicker",
            "On, Off",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    td
}

fn disk() -> StorageOptions {
    StorageOptions {
        engine: EngineKind::Disk,
        ..StorageOptions::default()
    }
}

#[test]
fn unchanged_statenum_takes_the_x_lock_but_writes_nothing() {
    let dir = TempDir::new("settle");
    let db = Arc::new(Database::create(dir.path(), disk()).unwrap());
    lamp_class(&db);
    let (lamp, glow) = db
        .with_txn(|txn| {
            let lamp = db.pnew(txn, &Lamp { lit: false })?;
            let glow = db.activate(txn, lamp, "Glow", &())?;
            Ok((lamp, glow))
        })
        .unwrap();
    // The first `On` moves Glow into its accepting state: a real write.
    db.metrics().reset();
    db.with_txn(|txn| db.post_user_event(txn, lamp, "On"))
        .unwrap();
    let snap = db.stats();
    assert_eq!(snap.state_writebacks, 1);
    assert_eq!(snap.state_writes_skipped, 0);
    let stored = db.with_txn(|txn| db.trigger_statenum(txn, glow)).unwrap();

    // A 2PL reader holds S on the state record while the next `On` is
    // posted and committed. Glow moves and lands back where it is stored.
    db.metrics().reset();
    let reader = db.begin().unwrap();
    db.storage().read(reader, glow.oid()).unwrap();
    let committed = Arc::new(AtomicBool::new(false));
    let writer = {
        let db = Arc::clone(&db);
        let committed = Arc::clone(&committed);
        std::thread::spawn(move || {
            db.with_txn(|txn| db.post_user_event(txn, lamp, "On"))
                .unwrap();
            committed.store(true, Ordering::SeqCst);
        })
    };
    // The commit owes §6's write lock, so it must queue behind the reader.
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.stats().lock_exclusive_waits == 0 {
        assert!(Instant::now() < deadline, "commit never asked for X");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(5));
    assert!(
        !committed.load(Ordering::SeqCst),
        "commit finished while a reader held S on the state record"
    );
    db.commit(reader).unwrap();
    writer.join().unwrap();
    assert!(committed.load(Ordering::SeqCst));

    let snap = db.stats();
    assert_eq!(snap.fsm_advances, 1);
    assert_eq!(snap.firings_immediate, 1);
    assert_eq!(snap.state_writes_skipped, 1, "settled by the lock alone");
    assert_eq!(snap.state_writebacks, 0, "nothing written back");
    assert_eq!(snap.lock_upgrades, 1, "the S→X upgrade still happened");
    assert_eq!(snap.wal_appends, 0, "no WAL record, not even Commit");
    assert_eq!(
        db.with_txn(|txn| db.trigger_statenum(txn, glow)).unwrap(),
        stored
    );
}

/// Step the compiled FSM of `trigger` over `events` from `state`, as the
/// run-time does (masks-free triggers, so every mask is irrelevant).
/// Returns the final state and whether any event moved the machine.
fn model(td: &TypeDescriptor, trigger: &str, mut state: u32, events: &[&str]) -> (u32, bool) {
    let fsm = &td.trigger(trigger).unwrap().1.fsm;
    let mut moved = false;
    for e in events {
        let id = td.event_id(&BasicEvent::user(e)).unwrap();
        let out = fsm.post(state, id, |_| true);
        assert_ne!(out.status, Advance::Dead, "{trigger} died on {e}");
        if out.status == Advance::Moved {
            moved = true;
            state = out.state;
        }
    }
    (state, moved)
}

#[test]
fn stored_statenums_follow_the_fsm_across_settles_and_a_crash() {
    let dir = TempDir::new("settle-crash");
    let script: &[&[&str]] = &[
        &["On"],
        &["On"],
        &["Off"],
        &["On", "Off"],
        &["On"],
        &["Off", "On"],
        &["On", "Off", "On"],
        &["Off"],
        &["Off"],
        &["On"],
        &["On", "On"],
        &["Off", "On", "Off"],
    ];
    let triggers = ["Glow", "Flicker"];
    let (lamp, ids, expected) = {
        let db = Database::create(dir.path(), disk()).unwrap();
        let td = lamp_class(&db);
        let (lamp, ids) = db
            .with_txn(|txn| {
                let lamp = db.pnew(txn, &Lamp { lit: false })?;
                let mut ids = Vec::new();
                for t in triggers {
                    ids.push(db.activate(txn, lamp, t, &())?);
                }
                Ok((lamp, ids))
            })
            .unwrap();
        let mut states: Vec<u32> = ids
            .iter()
            .map(|&id| db.with_txn(|txn| db.trigger_statenum(txn, id)).unwrap())
            .collect();
        let (mut written, mut settled) = (0, 0);
        for events in script {
            db.metrics().reset();
            db.with_txn(|txn| {
                for e in *events {
                    db.post_user_event(txn, lamp, e)?;
                }
                Ok(())
            })
            .unwrap();
            let (mut want_written, mut want_settled) = (0, 0);
            for (i, t) in triggers.iter().enumerate() {
                let (next, moved) = model(&td, t, states[i], events);
                if moved && next != states[i] {
                    want_written += 1;
                } else if moved {
                    want_settled += 1;
                }
                states[i] = next;
                let stored = db.with_txn(|txn| db.trigger_statenum(txn, ids[i]));
                assert_eq!(stored.unwrap(), next, "{t} after {events:?}");
            }
            let snap = db.stats();
            assert_eq!(snap.state_writebacks, want_written, "after {events:?}");
            assert_eq!(snap.state_writes_skipped, want_settled, "after {events:?}");
            written += want_written;
            settled += want_settled;
        }
        assert!(written > 0 && settled > 0, "the script alternates both");
        // Crash: no checkpoint, no clean close.
        std::mem::forget(db);
        (lamp, ids, states)
    };

    let db = Database::open(dir.path(), disk()).unwrap();
    let td = lamp_class(&db);
    for (i, t) in triggers.iter().enumerate() {
        let stored = db.with_txn(|txn| db.trigger_statenum(txn, ids[i]));
        assert_eq!(stored.unwrap(), expected[i], "{t} after recovery");
    }
    // And the recovered machines keep running from those states.
    db.with_txn(|txn| db.post_user_event(txn, lamp, "On"))
        .unwrap();
    for (i, t) in triggers.iter().enumerate() {
        let (next, _) = model(&td, t, expected[i], &["On"]);
        let stored = db.with_txn(|txn| db.trigger_statenum(txn, ids[i]));
        assert_eq!(stored.unwrap(), next, "{t} after recovery and one On");
    }
    assert!(db
        .with_txn(|txn| db.verify_integrity(txn))
        .unwrap()
        .is_healthy());
}
