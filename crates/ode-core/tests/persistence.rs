//! Persistence of trigger state: global composite events (§7 — "Ode
//! supports global composite events … Ode stores TriggerStates in the
//! database"), recovery, and the disk/MM engine pair.

mod common;

use common::{buy, cred_card_class, pay_bill, CredCard};
use ode_core::{Database, EngineKind, OdeError, StorageOptions};
use ode_testutil::TempDir;

fn options(engine: EngineKind) -> StorageOptions {
    StorageOptions {
        engine,
        ..StorageOptions::default()
    }
}

/// The E10 experiment: a composite event whose constituent basic events
/// span *separate application sessions* — impossible with transient
/// trigger state (Sentinel), natural with persistent TriggerStates.
fn global_composite_event_on(engine: EngineKind) {
    let dir = TempDir::new("global");
    let card_oid;
    {
        // Application 1: create the card, activate AutoRaiseLimit, and
        // make the qualifying purchase.
        let db = Database::create(dir.path(), options(engine)).unwrap();
        cred_card_class(&db);
        let card = db
            .with_txn(|txn| {
                let card = db.pnew(txn, &CredCard::new(1000.0))?;
                db.activate(txn, card, "AutoRaiseLimit", &1000.0f32)?;
                Ok(card)
            })
            .unwrap();
        db.with_txn(|txn| buy(&db, txn, card, 900.0)).unwrap();
        card_oid = card.oid();
        db.close().unwrap();
    }
    {
        // Application 2 (separate session): the PayBill completes the
        // composite event armed by application 1.
        let db = Database::open(dir.path(), options(engine)).unwrap();
        cred_card_class(&db);
        let card = ode_core::PersistentPtr::<CredCard>::from_oid(card_oid);
        db.with_txn(|txn| pay_bill(&db, txn, card, 100.0)).unwrap();
        db.with_txn(|txn| {
            let c = db.read(txn, card)?;
            assert_eq!(c.cred_lim, 2000.0, "composite event spanned sessions");
            Ok(())
        })
        .unwrap();
        db.close().unwrap();
    }
}

#[test]
fn global_composite_events_disk() {
    global_composite_event_on(EngineKind::Disk);
}

#[test]
fn global_composite_events_memory() {
    global_composite_event_on(EngineKind::Memory);
}

#[test]
fn trigger_state_survives_crash_recovery() {
    let dir = TempDir::new("crash");
    let card_oid;
    {
        let db = Database::create(dir.path(), options(EngineKind::Disk)).unwrap();
        cred_card_class(&db);
        let card = db
            .with_txn(|txn| {
                let card = db.pnew(txn, &CredCard::new(1000.0))?;
                db.activate(txn, card, "AutoRaiseLimit", &1000.0f32)?;
                Ok(card)
            })
            .unwrap();
        db.with_txn(|txn| buy(&db, txn, card, 900.0)).unwrap();
        card_oid = card.oid();
        // Crash: no checkpoint, no clean close.
        std::mem::forget(db);
    }
    {
        let db = Database::open(dir.path(), options(EngineKind::Disk)).unwrap();
        cred_card_class(&db);
        let card = ode_core::PersistentPtr::<CredCard>::from_oid(card_oid);
        db.with_txn(|txn| pay_bill(&db, txn, card, 100.0)).unwrap();
        db.with_txn(|txn| {
            assert_eq!(db.read(txn, card)?.cred_lim, 2000.0);
            Ok(())
        })
        .unwrap();
    }
}

#[test]
fn a_version_0_data_file_is_refused_by_name() {
    let dir = TempDir::new("format-v0");
    {
        let db = Database::create(dir.path(), options(EngineKind::Disk)).unwrap();
        cred_card_class(&db);
        db.with_txn(|txn| db.pnew(txn, &CredCard::new(1000.0)))
            .unwrap();
        std::mem::forget(db);
    }
    // Byte 20 of the header page is the format version. Version 0 files
    // kept torn-page repairs in a doublewrite journal beside the data
    // file, which this engine does not read, so the open must not go
    // ahead.
    let path = dir.path().join("data.odb");
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes[20], 1);
    bytes[20] = 0;
    std::fs::write(&path, &bytes).unwrap();
    match Database::open(dir.path(), options(EngineKind::Disk)) {
        Err(OdeError::UnsupportedFormat(why)) => {
            assert!(why.contains("full-page images"), "{why}")
        }
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a version-0 data file was opened"),
    }
}

#[test]
fn aborted_arming_is_rolled_back() {
    // "Since actions of aborted transactions are rolled back, so are
    // their associated events. Event roll-back is handled using standard
    // transaction roll-back of the triggers' states" (§5.5).
    let db = Database::volatile();
    cred_card_class(&db);
    let card = db
        .with_txn(|txn| {
            let card = db.pnew(txn, &CredCard::new(1000.0))?;
            db.activate(txn, card, "AutoRaiseLimit", &1000.0f32)?;
            Ok(card)
        })
        .unwrap();

    // Arm the trigger inside a transaction that then aborts.
    let _ = db
        .with_txn(|txn| {
            buy(&db, txn, card, 900.0)?;
            Err::<(), _>(ode_core::OdeError::tabort("changed my mind"))
        })
        .unwrap_err();

    // The FSM state was rolled back to "unarmed": PayBill alone must not
    // fire the trigger.
    db.with_txn(|txn| pay_bill(&db, txn, card, 10.0)).unwrap();
    db.with_txn(|txn| {
        assert_eq!(db.read(txn, card)?.cred_lim, 1000.0);
        Ok(())
    })
    .unwrap();

    // And the machinery still works after the rollback.
    db.with_txn(|txn| buy(&db, txn, card, 900.0)).unwrap();
    db.with_txn(|txn| pay_bill(&db, txn, card, 10.0)).unwrap();
    db.with_txn(|txn| {
        assert_eq!(db.read(txn, card)?.cred_lim, 2000.0);
        Ok(())
    })
    .unwrap();
}

#[test]
fn aborted_activation_is_rolled_back() {
    let db = Database::volatile();
    cred_card_class(&db);
    let card = db
        .with_txn(|txn| db.pnew(txn, &CredCard::new(100.0)))
        .unwrap();
    let _ = db
        .with_txn(|txn| {
            db.activate(txn, card, "DenyCredit", &())?;
            Err::<(), _>(ode_core::OdeError::tabort("no thanks"))
        })
        .unwrap_err();
    // The activation never happened: over-limit purchases sail through.
    db.with_txn(|txn| buy(&db, txn, card, 9999.0)).unwrap();
    db.with_txn(|txn| {
        assert!(db.active_triggers(txn, card.oid())?.is_empty());
        Ok(())
    })
    .unwrap();
}

#[test]
fn deactivation_rolls_back_with_abort() {
    let db = Database::volatile();
    cred_card_class(&db);
    let (card, deny) = db
        .with_txn(|txn| {
            let card = db.pnew(txn, &CredCard::new(1000.0))?;
            let id = db.activate(txn, card, "DenyCredit", &())?;
            Ok((card, id))
        })
        .unwrap();
    // Deactivate, then abort: the deactivation is undone.
    let _ = db
        .with_txn(|txn| {
            db.deactivate(txn, deny)?;
            Err::<(), _>(ode_core::OdeError::tabort("revert"))
        })
        .unwrap_err();
    let err = db.with_txn(|txn| buy(&db, txn, card, 5000.0)).unwrap_err();
    assert!(err.is_abort(), "DenyCredit still active after rollback");
}

#[test]
fn pdelete_removes_object_and_its_triggers() {
    let db = Database::volatile();
    cred_card_class(&db);
    let card = db
        .with_txn(|txn| {
            let card = db.pnew(txn, &CredCard::new(1000.0))?;
            db.activate(txn, card, "DenyCredit", &())?;
            db.activate(txn, card, "AutoRaiseLimit", &1.0f32)?;
            Ok(card)
        })
        .unwrap();
    db.with_txn(|txn| {
        assert_eq!(db.active_triggers(txn, card.oid())?.len(), 2);
        db.pdelete(txn, card)?;
        assert!(db.active_triggers(txn, card.oid())?.is_empty());
        Ok(())
    })
    .unwrap();
    db.with_txn(|txn| {
        assert!(db.read(txn, card).is_err());
        Ok(())
    })
    .unwrap();
}

#[test]
fn many_cards_many_triggers_scale() {
    // A smoke-scale test: hundreds of objects with active triggers, the
    // index resizing underneath.
    let db = Database::volatile();
    cred_card_class(&db);
    let cards = db
        .with_txn(|txn| {
            let mut cards = Vec::new();
            for _ in 0..200 {
                let card = db.pnew(txn, &CredCard::new(1000.0))?;
                db.activate(txn, card, "AutoRaiseLimit", &100.0f32)?;
                cards.push(card);
            }
            Ok(cards)
        })
        .unwrap();
    db.with_txn(|txn| {
        for &card in &cards {
            buy(&db, txn, card, 900.0)?;
            pay_bill(&db, txn, card, 10.0)?;
        }
        Ok(())
    })
    .unwrap();
    db.with_txn(|txn| {
        for &card in &cards {
            assert_eq!(db.read(txn, card)?.cred_lim, 1100.0);
            assert!(db.active_triggers(txn, card.oid())?.is_empty());
        }
        Ok(())
    })
    .unwrap();
}
