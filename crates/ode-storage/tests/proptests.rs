//! Property-based tests for the storage substrate: the page, index, and
//! recovery layers are compared against in-memory reference models under
//! random operation sequences.

use ode_storage::btree::{u64_key, BTree};
use ode_storage::oid::Oid;
use ode_storage::page::{Page, PAGE_SIZE};
use ode_storage::storage::{Storage, StorageOptions};
use ode_testutil::TempDir;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------------
// Slotted pages vs a HashMap model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PageOp {
    Insert(Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
}

fn page_ops() -> impl Strategy<Value = Vec<PageOp>> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..300).prop_map(PageOp::Insert),
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..300))
                .prop_map(|(s, d)| PageOp::Update(s, d)),
            any::<u8>().prop_map(PageOp::Delete),
        ],
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn page_matches_model(ops in page_ops()) {
        let mut page = Page::new();
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                PageOp::Insert(data) => {
                    match page.insert(&data) {
                        Ok(slot) => {
                            prop_assert!(!model.contains_key(&slot), "slot reuse while occupied");
                            model.insert(slot, data);
                        }
                        Err(_) => {
                            // Full is only acceptable when the page really
                            // can't hold the record.
                            prop_assert!(!page.can_insert(data.len()));
                        }
                    }
                }
                PageOp::Update(slot, data) => {
                    let slot = slot as u16 % 40;
                    let r = page.update(slot, &data);
                    if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(slot) {
                        if r.is_ok() {
                            e.insert(data);
                        }
                        // Err(Full) acceptable; contents must be unchanged.
                    } else {
                        prop_assert!(r.is_err(), "update of free slot must fail");
                    }
                }
                PageOp::Delete(slot) => {
                    let slot = slot as u16 % 40;
                    let r = page.delete(slot);
                    prop_assert_eq!(r.is_ok(), model.remove(&slot).is_some());
                }
            }
            // Full consistency check after every op.
            for (slot, data) in &model {
                prop_assert_eq!(page.read(*slot), Some(data.as_slice()));
            }
            let live: usize = model.len();
            prop_assert_eq!(page.occupied_slots().len(), live);
            prop_assert!(page.usable_free() <= PAGE_SIZE);
        }
        // Round-trip the final image through bytes.
        let reloaded = Page::from_bytes(page.as_bytes());
        for (slot, data) in &model {
            prop_assert_eq!(reloaded.read(*slot), Some(data.as_slice()));
        }
    }
}

// ---------------------------------------------------------------------
// Transactional heap + recovery vs a model of committed effects
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TxnScriptOp {
    Allocate(Vec<u8>),
    Update(u8, Vec<u8>),
    Free(u8),
}

fn txn_scripts() -> impl Strategy<Value = Vec<(bool, Vec<TxnScriptOp>)>> {
    // Sizes up to 6000 bytes exercise in-page records, forwarding
    // relocations, and multi-page overflow chains.
    let op = prop_oneof![
        prop::collection::vec(any::<u8>(), 0..6000).prop_map(TxnScriptOp::Allocate),
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..6000))
            .prop_map(|(i, d)| TxnScriptOp::Update(i, d)),
        any::<u8>().prop_map(TxnScriptOp::Free),
    ];
    prop::collection::vec((any::<bool>(), prop::collection::vec(op, 1..8)), 1..10)
}

/// Run the scripts against a storage; returns the surviving (oid -> bytes)
/// model of committed state.
fn run_scripts(storage: &Storage, scripts: &[(bool, Vec<TxnScriptOp>)]) -> HashMap<Oid, Vec<u8>> {
    let mut committed: HashMap<Oid, Vec<u8>> = HashMap::new();
    let cluster = {
        let t = storage.begin().unwrap();
        let c = storage.create_cluster(t).unwrap();
        storage.commit(t).unwrap();
        c
    };
    for (commit, ops) in scripts {
        let txn = storage.begin().unwrap();
        let mut view = committed.clone();
        for op in ops {
            match op {
                TxnScriptOp::Allocate(data) => {
                    let oid = storage.allocate(txn, cluster, data).unwrap();
                    view.insert(oid, data.clone());
                }
                TxnScriptOp::Update(i, data) => {
                    let mut oids: Vec<&Oid> = view.keys().collect();
                    oids.sort();
                    if oids.is_empty() {
                        continue;
                    }
                    let oid = *oids[*i as usize % oids.len()];
                    storage.update(txn, oid, data).unwrap();
                    view.insert(oid, data.clone());
                }
                TxnScriptOp::Free(i) => {
                    let mut oids: Vec<&Oid> = view.keys().collect();
                    oids.sort();
                    if oids.is_empty() {
                        continue;
                    }
                    let oid = *oids[*i as usize % oids.len()];
                    storage.free(txn, oid).unwrap();
                    view.remove(&oid);
                }
            }
        }
        if *commit {
            storage.commit(txn).unwrap();
            committed = view;
        } else {
            storage.abort(txn).unwrap();
        }
    }
    committed
}

fn check_state(storage: &Storage, model: &HashMap<Oid, Vec<u8>>) {
    let txn = storage.begin().unwrap();
    for (oid, data) in model {
        assert_eq!(&storage.read(txn, *oid).unwrap(), data, "object {oid}");
    }
    storage.commit(txn).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn aborts_roll_back_to_committed_state(scripts in txn_scripts()) {
        let storage = Storage::volatile();
        let model = run_scripts(&storage, &scripts);
        check_state(&storage, &model);
    }

    #[test]
    fn crash_recovery_reproduces_committed_state(scripts in txn_scripts()) {
        let dir = TempDir::new("prop-recovery");
        let model;
        {
            let storage = Storage::create(dir.path(), StorageOptions::default()).unwrap();
            model = run_scripts(&storage, &scripts);
            // Crash: no checkpoint, no close.
            std::mem::forget(storage);
        }
        {
            let storage = Storage::open(dir.path(), StorageOptions::default()).unwrap();
            check_state(&storage, &model);
        }
    }

    #[test]
    fn clean_reopen_reproduces_committed_state(scripts in txn_scripts()) {
        let dir = TempDir::new("prop-reopen");
        let model;
        {
            let storage = Storage::create(dir.path(), StorageOptions::memory()).unwrap();
            model = run_scripts(&storage, &scripts);
            storage.close().unwrap();
        }
        {
            let storage = Storage::open(dir.path(), StorageOptions::memory()).unwrap();
            check_state(&storage, &model);
        }
    }
}

// ---------------------------------------------------------------------
// Interleaved transactions vs the committed model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum StepOp {
    Allocate(usize),
    Update(u8, usize),
    Free(u8),
}

/// One interleaved history on one cluster.
#[derive(Debug, Clone)]
struct Interleaving {
    /// Lengths of the committed objects the history starts from, and the
    /// lengths a second committed transaction resizes them to (so some
    /// have moved off their page before the history begins).
    base: Vec<(usize, usize)>,
    /// How many transactions are open at once (2 or 3).
    txns: usize,
    /// Each step: which open transaction acts, and what it does.
    steps: Vec<(u8, StepOp)>,
    /// Per transaction: a key ordering the ends, and commit (or abort).
    ends: Vec<(u8, bool)>,
}

/// Small cells, cells a page holds two or three of, and overflow chains.
fn cell_len() -> impl Strategy<Value = usize> {
    prop_oneof![4 => 1usize..40, 5 => 900usize..1700, 1 => 3000usize..6000]
}

fn interleavings() -> impl Strategy<Value = Interleaving> {
    let op = prop_oneof![
        2 => cell_len().prop_map(StepOp::Allocate),
        3 => (any::<u8>(), cell_len()).prop_map(|(i, n)| StepOp::Update(i, n)),
        1 => any::<u8>().prop_map(StepOp::Free),
    ];
    (
        prop::collection::vec((cell_len(), cell_len()), 3..10),
        2usize..4,
        prop::collection::vec((any::<u8>(), op), 6..32),
        prop::collection::vec((any::<u8>(), any::<bool>()), 3..4),
    )
        .prop_map(|(base, txns, steps, ends)| Interleaving {
            base,
            txns,
            steps,
            ends,
        })
}

/// Run `plan` with its transactions open at once. Each transaction
/// touches only objects it owns (base object `i` belongs to transaction
/// `i % txns`, and each owns what it allocates), so no step waits on a
/// lock, but they all share the cluster's pages. With `crash`, the last
/// transaction to end is left in flight. Returns the committed model.
fn run_interleaved(
    storage: &Storage,
    plan: &Interleaving,
    crash: bool,
) -> Result<HashMap<Oid, Vec<u8>>, TestCaseError> {
    let fill = |n: usize, byte: usize| vec![byte as u8; n];
    let t = storage.begin().unwrap();
    let cluster = storage.create_cluster(t).unwrap();
    let mut base = Vec::new();
    for (i, &(len, _)) in plan.base.iter().enumerate() {
        base.push(storage.allocate(t, cluster, &fill(len, i)).unwrap());
    }
    storage.commit(t).unwrap();
    let t = storage.begin().unwrap();
    let mut committed = HashMap::new();
    for (i, (&oid, &(_, len))) in base.iter().zip(&plan.base).enumerate() {
        storage.update(t, oid, &fill(len, 100 + i)).unwrap();
        committed.insert(oid, fill(len, 100 + i));
    }
    storage.commit(t).unwrap();

    let txns: Vec<_> = (0..plan.txns).map(|_| storage.begin().unwrap()).collect();
    // Each transaction's view of the objects it owns.
    let mut views: Vec<BTreeMap<Oid, Vec<u8>>> = vec![BTreeMap::new(); plan.txns];
    for (i, &oid) in base.iter().enumerate() {
        views[i % plan.txns].insert(oid, committed[&oid].clone());
    }
    let mut owned: Vec<Vec<Oid>> = views.iter().map(|v| v.keys().copied().collect()).collect();
    for (step, (who, op)) in plan.steps.iter().enumerate() {
        let k = *who as usize % plan.txns;
        let (txn, view) = (txns[k], &mut views[k]);
        let pick = |i: u8| view.keys().nth(i as usize % view.len().max(1)).copied();
        match *op {
            StepOp::Allocate(len) => {
                let oid = storage.allocate(txn, cluster, &fill(len, step)).unwrap();
                view.insert(oid, fill(len, step));
                owned[k].push(oid);
            }
            StepOp::Update(i, len) => {
                if let Some(oid) = pick(i) {
                    storage.update(txn, oid, &fill(len, step)).unwrap();
                    view.insert(oid, fill(len, step));
                }
            }
            StepOp::Free(i) => {
                if let Some(oid) = pick(i) {
                    storage.free(txn, oid).unwrap();
                    view.remove(&oid);
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..plan.txns).collect();
    order.sort_by_key(|&k| (plan.ends[k].0, k));
    if crash {
        order.pop();
    }
    for k in order {
        if plan.ends[k].1 {
            storage.commit(txns[k]).unwrap();
            for oid in &owned[k] {
                match views[k].get(oid) {
                    Some(data) => committed.insert(*oid, data.clone()),
                    None => committed.remove(oid),
                };
            }
        } else {
            let aborted = storage.abort(txns[k]);
            prop_assert!(
                aborted.is_ok(),
                "abort of transaction {k} failed: {aborted:?}"
            );
        }
    }
    Ok(committed)
}

fn check_model(storage: &Storage, model: &HashMap<Oid, Vec<u8>>) -> Result<(), TestCaseError> {
    let txn = storage.begin().unwrap();
    for (oid, data) in model {
        let read = storage.read(txn, *oid);
        prop_assert!(
            read.as_ref().is_ok_and(|r| r == data),
            "object {oid}: read {:?} bytes, model has {}",
            read.map(|r| r.len()),
            data.len()
        );
    }
    storage.commit(txn).unwrap();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_transactions_abort_and_commit_to_the_model(plan in interleavings()) {
        let storage = Storage::volatile();
        let model = run_interleaved(&storage, &plan, false)?;
        check_model(&storage, &model)?;
    }

    #[test]
    fn interleaved_transactions_recover_from_a_crash_with_one_in_flight(plan in interleavings()) {
        let dir = TempDir::new("prop-interleaved");
        let model;
        {
            let storage = Storage::create(dir.path(), StorageOptions::default()).unwrap();
            model = run_interleaved(&storage, &plan, true)?;
            std::mem::forget(storage); // crash
        }
        let storage = Storage::open(dir.path(), StorageOptions::default());
        prop_assert!(storage.is_ok(), "open failed: {:?}", storage.err());
        check_model(&storage.unwrap(), &model)?;
    }
}

// ---------------------------------------------------------------------
// MVCC snapshot isolation vs the committed-prefix history
// ---------------------------------------------------------------------

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// `run_scripts` with concurrent snapshot readers racing the writer.
///
/// Every state a reader observes through `begin_read_only` must be
/// *exactly* one of the committed prefixes — never a torn mid-transaction
/// mixture, never an uncommitted write, never a state that was later
/// aborted. The writer publishes each about-to-commit state into the
/// shared history *before* its commit installs the versions, so at any
/// instant every installed state is present in the vector (possibly
/// alongside not-yet-visible future ones, which simply fail to match).
fn snapshot_readers_see_committed_prefixes(
    shards: usize,
    scripts: &[(bool, Vec<TxnScriptOp>)],
) -> Result<(), TestCaseError> {
    let storage = Arc::new(Storage::volatile_with(StorageOptions {
        shards,
        ..StorageOptions::memory()
    }));
    let cluster = {
        let t = storage.begin().unwrap();
        let c = storage.create_cluster(t).unwrap();
        storage.commit(t).unwrap();
        c
    };
    type History = Arc<Mutex<Vec<HashMap<Oid, Vec<u8>>>>>;
    let history: History = Arc::new(Mutex::new(vec![HashMap::new()]));
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let storage = Arc::clone(&storage);
            let history = Arc::clone(&history);
            let done = Arc::clone(&done);
            std::thread::spawn(move || -> Result<usize, String> {
                let mut checks = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let txn = storage.begin_read_only().map_err(|e| e.to_string())?;
                    let mut observed: HashMap<Oid, Vec<u8>> = HashMap::new();
                    // Scan and per-object reads share one snapshot, so
                    // every scanned oid must still be readable.
                    for oid in storage
                        .scan_cluster(txn, cluster)
                        .map_err(|e| e.to_string())?
                    {
                        let data = storage.read(txn, oid).map_err(|e| e.to_string())?;
                        observed.insert(oid, data);
                    }
                    storage.commit(txn).map_err(|e| e.to_string())?;
                    {
                        let hist = history.lock().unwrap();
                        if !hist.contains(&observed) {
                            return Err(format!(
                                "snapshot of {} objects matches none of the {} committed prefixes",
                                observed.len(),
                                hist.len()
                            ));
                        }
                    }
                    checks += 1;
                    if finished {
                        return Ok(checks);
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // The writer: `run_scripts` inlined, publishing each committed state.
    let mut committed: HashMap<Oid, Vec<u8>> = HashMap::new();
    for (commit, ops) in scripts {
        let txn = storage.begin().unwrap();
        let mut view = committed.clone();
        for op in ops {
            match op {
                TxnScriptOp::Allocate(data) => {
                    let oid = storage.allocate(txn, cluster, data).unwrap();
                    view.insert(oid, data.clone());
                }
                TxnScriptOp::Update(i, data) => {
                    let mut oids: Vec<&Oid> = view.keys().collect();
                    oids.sort();
                    if oids.is_empty() {
                        continue;
                    }
                    let oid = *oids[*i as usize % oids.len()];
                    storage.update(txn, oid, data).unwrap();
                    view.insert(oid, data.clone());
                }
                TxnScriptOp::Free(i) => {
                    let mut oids: Vec<&Oid> = view.keys().collect();
                    oids.sort();
                    if oids.is_empty() {
                        continue;
                    }
                    let oid = *oids[*i as usize % oids.len()];
                    storage.free(txn, oid).unwrap();
                    view.remove(&oid);
                }
            }
        }
        if *commit {
            history.lock().unwrap().push(view.clone());
            storage.commit(txn).unwrap();
            committed = view;
        } else {
            storage.abort(txn).unwrap();
        }
    }
    done.store(true, Ordering::Release);
    for r in readers {
        let checks = r.join().unwrap().map_err(TestCaseError::fail)?;
        prop_assert!(checks > 0);
    }

    // A snapshot taken after the writer finished sees the final state,
    // exactly — no leaked versions, no resurrected deletes.
    let txn = storage.begin_read_only().unwrap();
    let mut last: HashMap<Oid, Vec<u8>> = HashMap::new();
    for oid in storage.scan_cluster(txn, cluster).unwrap() {
        last.insert(oid, storage.read(txn, oid).unwrap());
    }
    storage.commit(txn).unwrap();
    prop_assert_eq!(&last, &committed);
    // With no snapshot registered and no writer active, the version store
    // must have drained back to empty (the GC horizon regression class).
    prop_assert_eq!(storage.version_stats().entries, 0);
    Ok(())
}

// `StorageOptions::shards` is ignored by the engine; the pair checks that
// neither setting changes behaviour until the field is deleted.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn snapshot_isolation_holds_single_shard(scripts in txn_scripts()) {
        snapshot_readers_see_committed_prefixes(1, &scripts)?;
    }

    #[test]
    fn snapshot_isolation_holds_eight_shards(scripts in txn_scripts()) {
        snapshot_readers_see_committed_prefixes(8, &scripts)?;
    }
}

// ---------------------------------------------------------------------
// B-tree vs std collections
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn btree_matches_model(ops in prop::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| (0u8, k % 256, v)),
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| (1u8, k % 256, v)),
        ],
        0..200,
    )) {
        let storage = Storage::volatile();
        let txn = storage.begin().unwrap();
        let cluster = storage.create_cluster(txn).unwrap();
        let tree = BTree::create(&storage, txn, cluster).unwrap();
        let mut model: BTreeMap<u64, Oid> = BTreeMap::new();
        for (kind, k, v) in ops {
            let key = k as u64;
            match kind {
                0 => {
                    let value = Oid::from_u64(v as u64);
                    let prev = tree.insert(&storage, txn, &u64_key(key), value).unwrap();
                    prop_assert_eq!(prev, model.insert(key, value));
                }
                _ => {
                    let removed = tree.remove(&storage, txn, &u64_key(key)).unwrap();
                    prop_assert_eq!(removed, model.remove(&key));
                }
            }
        }
        prop_assert_eq!(tree.len(&storage, txn).unwrap(), model.len() as u64);
        let scanned = tree.scan_all(&storage, txn).unwrap();
        let expected: Vec<(Vec<u8>, Oid)> = model
            .iter()
            .map(|(k, v)| (u64_key(*k).to_vec(), *v))
            .collect();
        prop_assert_eq!(scanned, expected);
        storage.commit(txn).unwrap();
    }
}
