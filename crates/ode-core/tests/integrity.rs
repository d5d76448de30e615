//! Torture the activation/deactivation/deletion machinery and verify the
//! §5 invariants afterwards with `verify_integrity`.

mod common;

use common::{buy, cred_card_class, pay_bill, CredCard};
use ode_core::{Database, IntegrityIssue, TriggerId};

#[test]
fn healthy_after_activation_churn() {
    let db = Database::volatile();
    cred_card_class(&db);

    let cards = db
        .with_txn(|txn| {
            let mut cards = Vec::new();
            for _ in 0..20 {
                cards.push(db.pnew(txn, &CredCard::new(1000.0))?);
            }
            Ok(cards)
        })
        .unwrap();

    // Deterministic churn: activate, fire, deactivate, delete.
    let mut ids: Vec<(usize, TriggerId)> = Vec::new();
    db.with_txn(|txn| {
        for (i, &card) in cards.iter().enumerate() {
            let deny = db.activate(txn, card, "DenyCredit", &())?;
            let auto = db.activate(txn, card, "AutoRaiseLimit", &(i as f32))?;
            ids.push((i, deny));
            ids.push((i, auto));
        }
        Ok(())
    })
    .unwrap();

    // Fire AutoRaiseLimit (once-only) on every third card.
    db.with_txn(|txn| {
        for &card in cards.iter().step_by(3) {
            buy(&db, txn, card, 900.0)?;
            pay_bill(&db, txn, card, 100.0)?;
        }
        Ok(())
    })
    .unwrap();

    // Explicitly deactivate DenyCredit on every fourth card (some of the
    // ids were already consumed by once-only firings — deactivate must
    // tolerate that).
    db.with_txn(|txn| {
        for (i, id) in &ids {
            if i % 4 == 0 {
                db.deactivate(txn, *id)?;
            }
        }
        Ok(())
    })
    .unwrap();

    // Delete every fifth card entirely.
    db.with_txn(|txn| {
        for &card in cards.iter().step_by(5) {
            db.pdelete(txn, card)?;
        }
        Ok(())
    })
    .unwrap();

    db.with_txn(|txn| {
        let report = db.verify_integrity(txn)?;
        assert!(report.is_healthy(), "issues: {:#?}", report.issues);
        assert!(report.states_checked > 0, "something must remain active");
        Ok(())
    })
    .unwrap();
}

#[test]
fn healthy_after_aborted_churn() {
    let db = Database::volatile();
    cred_card_class(&db);
    let card = db
        .with_txn(|txn| {
            let card = db.pnew(txn, &CredCard::new(1000.0))?;
            db.activate(txn, card, "AutoRaiseLimit", &10.0f32)?;
            Ok(card)
        })
        .unwrap();

    // A transaction that activates, fires, deactivates — then aborts.
    let _ = db
        .with_txn(|txn| {
            let extra = db.activate(txn, card, "AutoRaiseLimit", &20.0f32)?;
            buy(&db, txn, card, 900.0)?;
            pay_bill(&db, txn, card, 1.0)?;
            db.deactivate(txn, extra)?;
            Err::<(), _>(ode_core::OdeError::tabort("churn rollback"))
        })
        .unwrap_err();

    db.with_txn(|txn| {
        let report = db.verify_integrity(txn)?;
        assert!(report.is_healthy(), "issues: {:#?}", report.issues);
        // The original activation survived the rollback.
        assert_eq!(db.active_triggers(txn, card.oid())?.len(), 1);
        Ok(())
    })
    .unwrap();
}

#[test]
fn detects_planted_corruption() {
    // Sanity-check the checker itself: plant an inconsistency of each
    // kind and make sure exactly those are reported.
    let db = Database::volatile();
    cred_card_class(&db);
    let armed: Vec<_> = db
        .with_txn(|txn| {
            (0..3)
                .map(|_| {
                    let card = db.pnew(txn, &CredCard::new(1000.0))?;
                    Ok((card.oid(), db.activate(txn, card, "DenyCredit", &())?.oid()))
                })
                .collect()
        })
        .unwrap();
    let [(a, a_state), (b, b_state), (c, c_state)] = armed[..] else {
        unreachable!()
    };
    db.with_txn(|txn| {
        let s = db.storage();
        // a's state record is freed behind its back: a's ref dangles.
        s.free(txn, a_state)?;
        // b's state record no longer decodes: b's ref dangles too.
        s.update(txn, b_state, b"junk")?;
        // c's header is stripped to a bare `[class_id][flags]`, payload
        // kept: its live state record is no longer listed.
        let record = s.read(txn, c)?;
        let bare = [&record[..4], &[0], &record[5 + 2 + 6..]].concat();
        s.update(txn, c, &bare)?;
        Ok(())
    })
    .unwrap();
    let mut issues = db
        .with_txn(|txn| Ok(db.verify_integrity(txn)?.issues))
        .unwrap();
    let mut expect = vec![
        IntegrityIssue::DanglingRef {
            anchor: a,
            state: a_state,
        },
        IntegrityIssue::UndecodableState { state: b_state },
        IntegrityIssue::DanglingRef {
            anchor: b,
            state: b_state,
        },
        IntegrityIssue::MissingRef {
            anchor: c,
            state: c_state,
        },
    ];
    let key = |i: &IntegrityIssue| format!("{i:?}");
    issues.sort_by_key(key);
    expect.sort_by_key(key);
    assert_eq!(issues, expect);
}
