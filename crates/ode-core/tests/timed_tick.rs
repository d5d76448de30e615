//! Regression coverage for the `Database::tick` hot path: tick cost must
//! scale with the objects *interested* in the timer, not with every
//! armed object.

use bytes::BytesMut;
use ode_core::{ClassBuilder, CouplingMode, Database, Decode, Encode, OdeObject, Perpetual};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq)]
struct Cell {
    value: f64,
}

impl Encode for Cell {
    fn encode(&self, buf: &mut BytesMut) {
        self.value.encode(buf);
    }
}

impl Decode for Cell {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(Cell {
            value: f64::decode(buf)?,
        })
    }
}

impl OdeObject for Cell {
    const CLASS: &'static str = "Cell";
}

#[derive(Debug, Clone, PartialEq)]
struct Brick {
    value: f64,
}

impl Encode for Brick {
    fn encode(&self, buf: &mut BytesMut) {
        self.value.encode(buf);
    }
}

impl Decode for Brick {
    fn decode(buf: &mut &[u8]) -> ode_storage::Result<Self> {
        Ok(Brick {
            value: f64::decode(buf)?,
        })
    }
}

impl OdeObject for Brick {
    const CLASS: &'static str = "Brick";
}

/// `Cell` declares `timer daily`; `Brick` has triggers but no timer
/// events at all.
fn setup(db: &Database, fired: &Arc<AtomicU32>) {
    let fired2 = Arc::clone(fired);
    let cell = ClassBuilder::new("Cell")
        .timer_event("daily")
        .trigger(
            "OnDaily",
            "timer daily",
            CouplingMode::Immediate,
            Perpetual::Yes,
            move |_| {
                fired2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&cell).unwrap();
    let brick = ClassBuilder::new("Brick")
        .user_event("Poke")
        .trigger(
            "OnPoke",
            "Poke",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&brick).unwrap();
}

#[test]
fn tick_posts_to_timer_classes_and_counts_skips_for_the_rest() {
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    setup(&db, &fired);

    const CELLS: usize = 3;
    const BRICKS: usize = 7;
    db.with_txn(|txn| {
        for _ in 0..CELLS {
            let p = db.pnew(txn, &Cell { value: 0.0 })?;
            db.activate(txn, p, "OnDaily", &())?;
        }
        for _ in 0..BRICKS {
            let p = db.pnew(txn, &Brick { value: 0.0 })?;
            db.activate(txn, p, "OnPoke", &())?;
        }
        Ok(())
    })
    .unwrap();

    let before = db.stats();
    db.with_txn(|txn| {
        let posted = db.tick(txn, "daily")?;
        assert_eq!(posted, CELLS, "tick reaches exactly the timer class");
        Ok(())
    })
    .unwrap();
    let after = db.stats();

    assert_eq!(fired.load(Ordering::SeqCst), CELLS as u32);
    // Every armed non-timer object is skipped (and counted), not posted.
    assert_eq!(
        after.tick_skips - before.tick_skips,
        BRICKS as u64,
        "armed objects of timer-less classes are skipped"
    );
    assert_eq!(
        after.events_posted - before.events_posted,
        CELLS as u64,
        "tick posts only to interested objects"
    );
    // No FSM is touched for the skipped class: advances happen only for
    // the Cell activations.
    assert_eq!(after.fsm_advances - before.fsm_advances, CELLS as u64);
}

#[test]
fn unknown_timer_posts_nothing_and_skips_everything_armed() {
    let db = Database::volatile();
    let fired = Arc::new(AtomicU32::new(0));
    setup(&db, &fired);
    db.with_txn(|txn| {
        let c = db.pnew(txn, &Cell { value: 0.0 })?;
        db.activate(txn, c, "OnDaily", &())?;
        let b = db.pnew(txn, &Brick { value: 0.0 })?;
        db.activate(txn, b, "OnPoke", &())?;
        Ok(())
    })
    .unwrap();
    let before = db.stats();
    db.with_txn(|txn| {
        assert_eq!(db.tick(txn, "weekly")?, 0);
        Ok(())
    })
    .unwrap();
    let after = db.stats();
    assert_eq!(fired.load(Ordering::SeqCst), 0);
    assert_eq!(after.events_posted, before.events_posted);
    assert_eq!(after.tick_skips - before.tick_skips, 2);
}
