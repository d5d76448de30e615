//! The flight recorder end to end: the golden causal-chain test
//! (ISSUE 4's acceptance criterion) reconstructs one Figure-1
//! `AutoRaiseLimit` firing from `Database::flight_log()` — posted
//! `after Buy` event, `MoreCred()` mask pseudo-event, FSM state numbers
//! before/after, the firing, its coupling-mode system transaction, and
//! the durable commit LSN — and the contention tests pin down the
//! lock-free ring's guarantees under concurrent writers.

use bytes::BytesMut;
use ode::core::ClassBuilder;
use ode::obs::{FlightEvent, FlightRecord, FlightRecorder, Metrics};
use ode::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq)]
struct CredCard {
    cred_lim: f32,
    curr_bal: f32,
}

impl Encode for CredCard {
    fn encode(&self, buf: &mut BytesMut) {
        self.cred_lim.encode(buf);
        self.curr_bal.encode(buf);
    }
}
impl Decode for CredCard {
    fn decode(buf: &mut &[u8]) -> ode::storage::Result<Self> {
        Ok(CredCard {
            cred_lim: f32::decode(buf)?,
            curr_bal: f32::decode(buf)?,
        })
    }
}
impl OdeObject for CredCard {
    const CLASS: &'static str = "CredCard";
}

/// A minimal Figure-1 world: just `AutoRaiseLimit`, dependent-coupled so
/// its firing spawns a system transaction with a commit dependency.
fn figure_1_world(db: &Database) -> PersistentPtr<CredCard> {
    let td = ClassBuilder::new("CredCard")
        .after_event("PayBill")
        .after_event("Buy")
        .mask("MoreCred", |ctx| {
            let card: CredCard = ctx.object()?;
            Ok(card.curr_bal > 0.8 * card.cred_lim)
        })
        .trigger(
            "AutoRaiseLimit",
            "relative((after Buy & MoreCred()), after PayBill)",
            CouplingMode::Dependent,
            Perpetual::No,
            |ctx| {
                let amount: f32 = ctx.params()?;
                ctx.update_object(|card: &mut CredCard| card.cred_lim += amount)
            },
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    db.with_txn(|txn| {
        let card = db.pnew(
            txn,
            &CredCard {
                cred_lim: 1000.0,
                curr_bal: 0.0,
            },
        )?;
        db.activate(txn, card, "AutoRaiseLimit", &100.0f32)?;
        Ok(card)
    })
    .unwrap()
}

/// Index of the first record at or after `from` matching `pred`.
fn find_from(
    log: &[FlightRecord],
    from: usize,
    pred: impl Fn(&FlightEvent) -> bool,
) -> Option<usize> {
    log[from..]
        .iter()
        .position(|r| pred(&r.event))
        .map(|i| from + i)
}

#[test]
fn golden_causal_chain_for_an_auto_raise_limit_firing() {
    let dir = ode_testutil::TempDir::new("flight-golden");
    let db = Database::create(dir.path(), StorageOptions::default()).unwrap();
    let card = figure_1_world(&db);

    // One billing cycle in one user transaction: the Buy arms the mask
    // path (900 > 80% of 1000), the PayBill completes the `relative`
    // expression; the dependent firing then runs in a system transaction
    // that commits against this transaction's durability.
    let user_txn = db.begin().unwrap();
    db.invoke(user_txn, card, "Buy", |c: &mut CredCard| {
        c.curr_bal += 900.0;
        Ok(())
    })
    .unwrap();
    db.invoke(user_txn, card, "PayBill", |c: &mut CredCard| {
        c.curr_bal -= 900.0;
        Ok(())
    })
    .unwrap();
    db.commit(user_txn).unwrap();

    let log = db.flight_log();

    // 1. The posted `after Buy` basic event.
    let posted = find_from(&log, 0, |e| matches!(e, FlightEvent::EventPosted { .. }))
        .expect("EventPosted in flight log");

    // 2. The real `after Buy` transition out of Figure 1's start state 0
    //    into the mask-pending state 1.
    let buy_adv = find_from(&log, posted, |e| {
        matches!(
            e,
            FlightEvent::FsmAdvanced {
                trigger,
                from_state: 0,
                pseudo: None,
                ..
            } if trigger.as_str() == "AutoRaiseLimit"
        )
    })
    .expect("real Buy advance from state 0");
    let FlightEvent::FsmAdvanced {
        to_state: mask_state,
        ..
    } = log[buy_adv].event
    else {
        unreachable!()
    };
    assert_eq!(mask_state, 1, "Buy lands in the mask-pending state");

    // 3. The MoreCred() mask quiesced as a True pseudo-event into the
    //    armed state 2 (§5.4.5).
    let mask_adv = find_from(&log, buy_adv + 1, |e| {
        matches!(
            e,
            FlightEvent::FsmAdvanced {
                pseudo: Some(true),
                ..
            }
        )
    })
    .expect("True(MoreCred) pseudo-event advance");
    let FlightEvent::FsmAdvanced {
        from_state,
        to_state: armed_state,
        ..
    } = log[mask_adv].event
    else {
        unreachable!()
    };
    assert_eq!(from_state, mask_state, "pseudo-event chains off the Buy");
    assert_eq!(armed_state, 2, "True(MoreCred) arms Figure 1's state 2");

    // 4. The `after PayBill` transition out of the armed state reaches
    //    the accept state and produces the firing.
    let paybill_adv = find_from(&log, mask_adv + 1, |e| {
        matches!(
            e,
            FlightEvent::FsmAdvanced {
                from_state: 2,
                pseudo: None,
                ..
            }
        )
    })
    .expect("PayBill advance out of the armed state");

    // 5. The dependent-coupled firing itself.
    let fired = find_from(&log, paybill_adv + 1, |e| {
        matches!(
            e,
            FlightEvent::TriggerFired { trigger, coupling }
                if trigger.as_str() == "AutoRaiseLimit" && coupling.as_str() == "dependent"
        )
    })
    .expect("dependent TriggerFired");

    // 6. The system transaction it ran in, with the commit dependency on
    //    the detecting user transaction. (The firing is scheduled at
    //    PayBill time but executes inside the system transaction, so
    //    SystemTxnStarted precedes TriggerFired in the log.)
    let stxn_started = find_from(&log, paybill_adv + 1, |e| {
        matches!(
            e,
            FlightEvent::SystemTxnStarted { parent: Some(p), coupling, .. }
                if *p == user_txn.0 && coupling.as_str() == "dependent"
        )
    })
    .expect("dependent SystemTxnStarted with the user txn as parent");
    assert!(
        stxn_started < fired,
        "the firing runs inside the system transaction"
    );
    let FlightEvent::SystemTxnStarted { txn: stxn, .. } = log[stxn_started].event else {
        unreachable!()
    };

    // 7. Both the user transaction and the system transaction became
    //    durable, at increasing LSNs (the system txn's Commit record is
    //    appended after its parent's).
    let user_durable = find_from(
        &log,
        0,
        |e| matches!(e, FlightEvent::CommitDurable { txn, .. } if *txn == user_txn.0),
    )
    .expect("user CommitDurable");
    let stxn_durable = find_from(
        &log,
        0,
        |e| matches!(e, FlightEvent::CommitDurable { txn, .. } if *txn == stxn),
    )
    .expect("system txn CommitDurable");
    let (
        FlightEvent::CommitDurable { lsn: user_lsn, .. },
        FlightEvent::CommitDurable { lsn: stxn_lsn, .. },
    ) = (log[user_durable].event, log[stxn_durable].event)
    else {
        unreachable!()
    };
    assert!(
        user_lsn > 0 && stxn_lsn > user_lsn,
        "{user_lsn} vs {stxn_lsn}"
    );

    // The whole chain is causally ordered in the log, with monotone
    // timestamps and dense sequence numbers.
    let chain = [posted, buy_adv, mask_adv, paybill_adv, stxn_started, fired];
    for pair in chain.windows(2) {
        assert!(pair[0] < pair[1]);
        assert!(log[pair[0]].nanos <= log[pair[1]].nanos);
        assert!(log[pair[0]].seq < log[pair[1]].seq);
    }

    // And the action really ran, dependently, after commit.
    db.with_txn(|txn| {
        assert_eq!(db.read(txn, card)?.cred_lim, 1100.0);
        Ok(())
    })
    .unwrap();
}

#[test]
fn recorder_can_be_disabled_and_reenabled() {
    let db = Database::volatile();
    let card = figure_1_world(&db);
    db.metrics().set_flight_enabled(false);
    let before = db.flight_log().len();
    db.with_txn(|txn| {
        db.invoke(txn, card, "Buy", |c: &mut CredCard| {
            c.curr_bal += 1.0;
            Ok(())
        })
    })
    .unwrap();
    assert_eq!(db.flight_log().len(), before, "disabled recorder is silent");
    db.metrics().set_flight_enabled(true);
    db.with_txn(|txn| {
        db.invoke(txn, card, "Buy", |c: &mut CredCard| {
            c.curr_bal += 1.0;
            Ok(())
        })
    })
    .unwrap();
    assert!(
        db.flight_log().len() > before,
        "re-enabled recorder records"
    );
}

/// N concurrent writers: after they all finish, the ring holds exactly
/// the most recent `capacity` records — none lost, none torn — and each
/// writer's surviving records keep its own program order (per-writer
/// timestamps and payload counters both increase with the global
/// sequence number, across wraparound).
#[test]
fn contention_never_loses_the_most_recent_window() {
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 4_000;
    const CAP: usize = 1024;
    let rec = Arc::new(FlightRecorder::with_capacity(CAP));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    // Payload encodes (writer, iteration) so a torn read
                    // would be detectable as an impossible pair.
                    rec.record(FlightEvent::TxnCommit {
                        txn: w * 1_000_000 + i,
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let head = rec.head();
    assert_eq!(head, WRITERS * PER_WRITER);
    let log = rec.snapshot();
    // Quiescent ring: the full window survives — the most recent CAP
    // records are all present, in order, with dense sequence numbers.
    assert_eq!(log.len(), CAP, "no records lost after writers quiesce");
    for (slot, r) in log.iter().enumerate() {
        assert_eq!(r.seq, head - CAP as u64 + slot as u64);
        let (w, i) = match r.event {
            FlightEvent::TxnCommit { txn } => (txn / 1_000_000, txn % 1_000_000),
            ref other => panic!("foreign record {other:?}"),
        };
        assert!(w < WRITERS && i < PER_WRITER, "torn payload: w={w} i={i}");
    }
    // Per-writer program order survives wraparound: for each writer, the
    // iteration counter and the timestamp both increase with seq.
    for w in 0..WRITERS {
        let mine: Vec<&FlightRecord> = log
            .iter()
            .filter(|r| matches!(r.event, FlightEvent::TxnCommit { txn } if txn / 1_000_000 == w))
            .collect();
        for pair in mine.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (ia, ib) = match (a.event, b.event) {
                (FlightEvent::TxnCommit { txn: ta }, FlightEvent::TxnCommit { txn: tb }) => {
                    (ta % 1_000_000, tb % 1_000_000)
                }
                _ => unreachable!(),
            };
            assert!(ib > ia, "writer {w} out of program order");
            assert!(
                b.nanos >= a.nanos,
                "writer {w} timestamps ran backwards across wraparound"
            );
        }
    }
}

/// Snapshots taken while writers are lapping the ring never surface torn
/// records: every record a concurrent reader sees carries a coherent
/// (writer, iteration) payload and a sequence number inside the live
/// window.
#[test]
fn concurrent_snapshots_are_never_torn() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 20_000;
    const CAP: usize = 64; // tiny ring: constant lapping
    let rec = Arc::new(FlightRecorder::with_capacity(CAP));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Set by the reader once it has taken a non-empty snapshot; writers
    // keep lapping the ring until then, however late the reader runs.
    let observed = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = Arc::clone(&rec);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let mut n = 0u64;
                while n < PER_WRITER || !observed.load(std::sync::atomic::Ordering::Acquire) {
                    rec.record(FlightEvent::TxnCommit {
                        txn: w * 1_000_000 + n % PER_WRITER,
                    });
                    n += 1;
                }
            })
        })
        .collect();
    let reader = {
        let rec = Arc::clone(&rec);
        let stop = Arc::clone(&stop);
        let observed = Arc::clone(&observed);
        std::thread::spawn(move || {
            let mut seen = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let snapshot = rec.snapshot();
                if !snapshot.is_empty() {
                    observed.store(true, std::sync::atomic::Ordering::Release);
                }
                for r in snapshot {
                    seen += 1;
                    let (w, i) = match r.event {
                        FlightEvent::TxnCommit { txn } => (txn / 1_000_000, txn % 1_000_000),
                        other => panic!("torn/foreign record {other:?}"),
                    };
                    assert!(w < WRITERS, "torn writer id {w}");
                    assert!(i < PER_WRITER, "torn iteration {i}");
                }
            }
            seen
        })
    };
    for h in writers {
        h.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let seen = reader.join().unwrap();
    assert!(seen > 0, "reader must observe records while lapped");
    // Final quiescent snapshot: full window, dense seqs.
    let log = rec.snapshot();
    assert_eq!(log.len(), CAP);
    for pair in log.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1);
    }
}

/// `Metrics::emit` feeds the same ring the engine dumps on anomalies.
#[test]
fn emit_and_dump_share_one_ring() {
    let m = Metrics::new();
    m.emit(|| TraceEvent::TxnCommit { txn: 77 });
    m.dump_flight("test anomaly");
    let dumps = m.flight_dumps();
    assert_eq!(dumps.len(), 1);
    assert_eq!(dumps[0].reason, "test anomaly");
    assert!(dumps[0]
        .records
        .iter()
        .any(|r| matches!(r.event, FlightEvent::TxnCommit { txn: 77 })));
}
