//! Acceptance test for the engine-wide observability layer: replay the
//! paper's §4 credit-card example and assert that `Database::stats()`
//! reports non-zero counters from every layer — lock manager (waits),
//! event machinery (FSM transitions, mask evaluations), and trigger
//! run-time (firings by coupling mode) — plus the Prometheus rendering
//! and the flight log.

use bytes::BytesMut;
use ode::core::ClassBuilder;
use ode::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

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

/// The §4 CredCard class: the paper's two triggers plus one audit trigger
/// per remaining coupling mode, so the replay exercises the whole
/// firings-by-mode family.
fn cred_card_world() -> (Database, PersistentPtr<CredCard>) {
    cred_card_world_on(Database::volatile())
}

fn cred_card_world_on(db: Database) -> (Database, PersistentPtr<CredCard>) {
    let td = ClassBuilder::new("CredCard")
        .user_event("BigBuy")
        .after_event("PayBill")
        .after_event("Buy")
        .mask("OverLimit", |ctx| {
            let card: CredCard = ctx.object()?;
            Ok(card.curr_bal > card.cred_lim)
        })
        .mask("MoreCred", |ctx| {
            let card: CredCard = ctx.object()?;
            Ok(card.curr_bal > 0.8 * card.cred_lim)
        })
        .trigger(
            "DenyCredit",
            "after Buy & OverLimit()",
            CouplingMode::Immediate,
            Perpetual::Yes,
            |ctx| Err(ctx.tabort("Over Limit")),
        )
        .trigger(
            "AutoRaiseLimit",
            "relative((after Buy & MoreCred()), after PayBill)",
            CouplingMode::Immediate,
            Perpetual::No,
            |ctx| {
                let amount: f32 = ctx.params()?;
                ctx.update_object(|card: &mut CredCard| card.cred_lim += amount)
            },
        )
        .trigger(
            "AuditAtEnd",
            "after Buy",
            CouplingMode::End,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .trigger(
            "SettleDependent",
            "after PayBill",
            CouplingMode::Dependent,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .trigger(
            "NotifyIndependent",
            "after PayBill",
            CouplingMode::Independent,
            Perpetual::Yes,
            |_| Ok(()),
        )
        .build(db.registry())
        .unwrap();
    db.register_class(&td).unwrap();
    let card = db
        .with_txn(|txn| {
            let card = db.pnew(
                txn,
                &CredCard {
                    cred_lim: 1000.0,
                    curr_bal: 0.0,
                },
            )?;
            db.activate(txn, card, "DenyCredit", &())?;
            db.activate(txn, card, "AutoRaiseLimit", &100.0f32)?;
            db.activate(txn, card, "AuditAtEnd", &())?;
            db.activate(txn, card, "SettleDependent", &())?;
            db.activate(txn, card, "NotifyIndependent", &())?;
            Ok(card)
        })
        .unwrap();
    (db, card)
}

/// One billing cycle: a big Buy that arms AutoRaiseLimit's mask path
/// (900 > 80% of 1000), then the PayBill that completes the `relative`
/// expression and raises the limit.
fn billing_cycle(db: &Database, card: PersistentPtr<CredCard>) {
    db.with_txn(|txn| {
        db.invoke(txn, card, "Buy", |c: &mut CredCard| {
            c.curr_bal += 900.0;
            Ok(())
        })?;
        db.invoke(txn, card, "PayBill", |c: &mut CredCard| {
            c.curr_bal -= 900.0;
            Ok(())
        })
    })
    .unwrap();
}

/// Force a deterministic shared-lock wait: the main thread holds the
/// card exclusively (an open update transaction) while a reader thread
/// blocks on it; once the wait counter proves the reader is queued, the
/// main thread keeps the lock for a measured 2 ms more, then commits, so
/// the wait the reader records is over a millisecond.
fn force_lock_wait(db: &Arc<Database>, card: PersistentPtr<CredCard>) {
    let waits_before = db.stats().lock_shared_waits;
    let txn = db.begin().unwrap();
    db.update_with(txn, card, |c: &mut CredCard| c.curr_bal += 0.0)
        .unwrap();
    let barrier = Arc::new(Barrier::new(2));
    let reader = {
        let db = Arc::clone(db);
        let barrier = Arc::clone(&barrier);
        std::thread::spawn(move || {
            barrier.wait();
            db.with_txn(|txn| {
                let _ = db.read(txn, card)?;
                Ok(())
            })
            .unwrap();
        })
    };
    barrier.wait();
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.stats().lock_shared_waits == waits_before {
        assert!(
            Instant::now() < deadline,
            "reader never blocked on the exclusively held card"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let observed = Instant::now();
    while observed.elapsed() < Duration::from_millis(2) {
        std::thread::sleep(Duration::from_millis(1));
    }
    db.commit(txn).unwrap();
    reader.join().unwrap();
}

#[test]
fn credit_card_replay_populates_every_counter_family() {
    let (db, card) = cred_card_world();
    let db = Arc::new(db);

    billing_cycle(&db, card);
    force_lock_wait(&db, card);

    let snap = db.stats();

    // Lock manager: the forced reader wait, plus ordinary acquisitions.
    assert!(snap.lock_shared_waits > 0, "lock waits: {snap:?}");
    assert!(snap.lock_shared_acquisitions > 0);
    assert!(snap.lock_exclusive_acquisitions > 0);

    // Event machinery: five triggers compiled at registration; the Buy and
    // PayBill postings advanced their machines; MoreCred() and OverLimit()
    // were evaluated as mask pseudo-events.
    assert_eq!(snap.fsm_compiles, 5);
    assert!(snap.fsm_states >= 5);
    assert!(snap.fsm_transitions > 0, "FSM transitions: {snap:?}");
    assert!(snap.fsm_mask_evals > 0, "mask evaluations: {snap:?}");
    assert_eq!(
        snap.fsm_mask_evals,
        snap.fsm_true_events + snap.fsm_false_events
    );

    // Trigger run-time: every coupling mode fired exactly once during the
    // billing cycle (AutoRaiseLimit immediate, AuditAtEnd end,
    // SettleDependent dependent, NotifyIndependent !dependent).
    assert_eq!(snap.firings_immediate, 1, "{snap:?}");
    assert_eq!(snap.firings_end, 1);
    assert_eq!(snap.firings_dependent, 1);
    assert_eq!(snap.firings_independent, 1);
    assert_eq!(snap.trigger_activations, 5);
    // AutoRaiseLimit is once-only and fired, so it was deactivated…
    assert_eq!(snap.once_only_deactivations, 1);
    // …and its action really ran: the limit went up by the parameter.
    db.with_txn(|txn| {
        assert_eq!(db.read(txn, card)?.cred_lim, 1100.0);
        Ok(())
    })
    .unwrap();

    // Postings and transactions were counted too.
    assert!(snap.events_posted >= 2);
    assert!(snap.txn_commits > 0);
    assert_eq!(snap.detached_failures, 0);
}

#[test]
fn stats_render_as_wellformed_prometheus_text() {
    let (db, card) = cred_card_world();
    billing_cycle(&db, card);
    let text = db.stats().render_prometheus();
    // Every metric appears with HELP/TYPE headers and a u64 value.
    let mut values = std::collections::HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.split_once(' ').expect("name value");
        assert!(name.starts_with("ode_"), "unprefixed metric {name}");
        values.insert(name.to_string(), value.parse::<u64>().unwrap());
    }
    assert!(text.contains("# TYPE ode_fsm_transitions counter"));
    assert!(text.contains("# HELP ode_lock_upgrades "));
    assert!(values["ode_fsm_transitions"] > 0);
    assert!(values["ode_fsm_mask_evals"] > 0);
    assert_eq!(values["ode_firings_immediate"], 1);
    assert_eq!(values["ode_firings_end"], 1);
    assert_eq!(values["ode_firings_dependent"], 1);
    assert_eq!(values["ode_firings_independent"], 1);
    // The latency histograms render as histogram series, not counters.
    assert!(text.contains("# TYPE ode_lock_wait_micros histogram"));
    assert!(text.contains("# TYPE ode_commit_flush_wait_micros histogram"));
    assert!(text.contains("ode_lock_wait_micros_bucket{le=\"+Inf\"}"));
    assert!(values.contains_key("ode_commit_flush_wait_micros_count"));
    // The billing cycle's postings landed in the post-latency histogram.
    assert!(values["ode_post_micros_count"] > 0);
    assert!(values["ode_action_micros_count"] > 0);
}

/// Acceptance: p50/p99 lock-wait and commit-flush-wait histograms carry
/// real samples on a durable database and appear in the Prometheus
/// exposition.
#[test]
fn latency_histograms_expose_percentiles() {
    let dir = ode_testutil::TempDir::new("obs-histograms");
    let opts = StorageOptions {
        fsync: true, // so fsync_micros sees real syncs
        ..StorageOptions::default()
    };
    let (db, card) = cred_card_world_on(Database::create(dir.path(), opts).unwrap());
    let db = Arc::new(db);
    billing_cycle(&db, card);
    force_lock_wait(&db, card);

    let snap = db.stats();
    // The forced reader wait was at least a millisecond: the histogram
    // saw it, and its percentiles reflect it.
    let lw = snap.lock_wait_micros;
    assert!(lw.count >= 1, "{lw:?}");
    assert!(lw.max >= 1_000, "forced wait under 1ms? {lw:?}");
    // Percentiles are bucket upper bounds; system transactions may add
    // shorter waits, so only order them rather than pin p50 itself.
    assert!(lw.p99() >= lw.p50());
    assert!(lw.percentile(1.0) >= lw.max, "p100 bound covers the max");

    // Durable commits waited on the WAL flush; fsyncs were timed.
    let cf = snap.commit_flush_wait_micros;
    assert!(cf.count >= 1, "durable commits must record flush waits");
    assert!(cf.sum > 0);
    assert!(snap.fsync_micros.count >= 1, "fsyncs must be timed");

    // Post and action latency histograms saw the billing cycle.
    assert!(snap.post_micros.count >= 2);
    assert!(snap.action_micros.count >= 1);

    let text = snap.render_prometheus();
    assert!(text.contains("ode_lock_wait_micros_bucket{le=\"+Inf\"}"));
    assert!(text.contains("ode_commit_flush_wait_micros_sum "));
    assert!(text.contains("# TYPE ode_fsync_micros histogram"));
}

/// Prometheus exposition conformance: every metric has HELP/TYPE
/// headers, histogram bucket series are cumulative-monotone, and the
/// `+Inf` bucket equals `_count`.
#[test]
fn prometheus_exposition_is_conformant() {
    let (db, card) = cred_card_world();
    billing_cycle(&db, card);
    let text = db.stats().render_prometheus();

    let mut helps = std::collections::HashSet::new();
    let mut types = std::collections::HashSet::new();
    for line in text.lines().filter(|l| l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let kind = parts.nth(1).unwrap();
        let name = parts.next().unwrap().to_string();
        match kind {
            "HELP" => assert!(helps.insert(name), "duplicate HELP in {line}"),
            "TYPE" => assert!(types.insert(name), "duplicate TYPE in {line}"),
            other => panic!("unexpected comment kind {other}"),
        }
    }

    let mut inf: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut counts: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    let mut last_bucket: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.split_once(' ').expect("name value");
        let value: u64 = value.parse().expect("u64 value");
        // Every sample's family must have HELP and TYPE headers. A name
        // with its own headers is a plain counter (even if it happens to
        // end in `_sum`, like `wal_group_size_sum`); otherwise it must be
        // a histogram series sample.
        let base = name.split('{').next().unwrap();
        let family = if helps.contains(base) {
            base.to_string()
        } else if let Some(b) = base.strip_suffix("_bucket") {
            b.to_string()
        } else if let Some(b) = base.strip_suffix("_sum") {
            b.to_string()
        } else if let Some(b) = base.strip_suffix("_count") {
            counts.insert(b.to_string(), value);
            b.to_string()
        } else {
            name.to_string()
        };
        assert!(helps.contains(&family), "no HELP for {name} ({family})");
        assert!(types.contains(&family), "no TYPE for {name} ({family})");
        if name.contains("_bucket{") {
            let prev = last_bucket.entry(family.clone()).or_insert(0);
            assert!(
                value >= *prev,
                "bucket series for {family} not cumulative at {line}"
            );
            *prev = value;
            if name.contains("le=\"+Inf\"") {
                inf.insert(family, value);
            }
        }
    }
    assert!(!inf.is_empty(), "histogram series must be present");
    for (family, inf_count) in inf {
        assert_eq!(
            counts.get(&family),
            Some(&inf_count),
            "+Inf bucket of {family} must equal its _count"
        );
    }
}

#[test]
fn flight_log_observes_the_replay() {
    let (db, card) = cred_card_world();
    let head = db.flight_log().last().map_or(0, |r| r.seq + 1);
    billing_cycle(&db, card);

    let seen = db
        .flight_log()
        .iter()
        .filter(|r| r.seq >= head)
        .map(|r| format!("{:?}", r.event))
        .collect::<Vec<_>>()
        .join("\n");
    assert!(seen.contains("EventPosted"), "postings traced: {seen}");
    assert!(
        seen.contains("TriggerFired") && seen.contains("AutoRaiseLimit"),
        "firings traced with trigger names: {seen}"
    );
    assert!(
        seen.contains("\"immediate\"") && seen.contains("\"!dependent\""),
        "couplings labelled: {seen}"
    );
    assert!(seen.contains("TxnCommit"), "commits traced: {seen}");
}
