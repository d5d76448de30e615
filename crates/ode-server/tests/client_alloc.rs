//! A [`WireClient`]'s steady state allocates nothing on the client
//! thread: single-statement (`exec_into`) and protocol-v2 batch round
//! trips reuse the client's scratch buffers and the caller's reply
//! buffers. The in-process server threads allocate freely; only the
//! test thread's allocations are counted.

use ode_core::Engine;
use ode_server::Server;
use ode_testutil::WireClient;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A `System` wrapper that counts allocations (and reallocations) per
/// thread.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's. The counter is a
// `const`-initialised thread-local `Cell`, which never allocates, and
// `try_with` skips it during thread teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`; the caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Statements per measured run, and per batch frame.
const BATCH: usize = 64;

const TOKEN: &str = "t";

#[test]
fn steady_state_client_round_trips_allocate_nothing() {
    let server = Server::start(Engine::volatile(), "127.0.0.1:0", TOKEN).unwrap();
    let mut client = WireClient::connect(&server.addr().to_string(), TOKEN).unwrap();
    for stmt in [
        "CREATE DATABASE bank",
        "USE bank",
        "CREATE CLASS CredCard { \
            FIELD cred_lim = 1000000; FIELD curr_bal = 0; \
            EVENT AFTER Buy; MASK OverLimit WHEN curr_bal > cred_lim; }",
        "CREATE TRIGGER DenyCredit ON CredCard PERPETUAL \
            WHEN after Buy & OverLimit() COUPLING immediate DO ABORT 'Over Limit'",
    ] {
        client.exec(stmt);
    }
    let card = client.exec("NEW CredCard");
    client.exec(&format!("ACTIVATE DenyCredit ON {card}"));
    let stmt = format!("CALL {card} Buy SET curr_bal = curr_bal + 1");
    let mut out = String::new();

    // Warm the scratch buffers (the first frames grow them), then count.
    for _ in 0..8 {
        client.exec_into(&stmt, &mut out).unwrap();
    }
    let before = thread_allocs();
    for _ in 0..BATCH {
        client.exec_into(&stmt, &mut out).unwrap();
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "steady-state exec_into must reuse the client scratch buffers"
    );

    let stmts = vec![stmt.as_str(); BATCH];
    let mut replies = Vec::new();
    for _ in 0..4 {
        client.send_batch(&stmts, false).unwrap();
        client.read_batch_reply_into(&mut replies).unwrap();
    }
    let before = thread_allocs();
    for _ in 0..4 {
        client.send_batch(&stmts, false).unwrap();
        client.read_batch_reply_into(&mut replies).unwrap();
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "steady-state batch round trips must reuse scratch and reply buffers"
    );
    assert_eq!(replies.len(), BATCH);
    assert!(replies.iter().all(|r| r == "OK"), "{replies:?}");
    assert_eq!(
        client.exec(&format!("GET {card} curr_bal")),
        (8 + BATCH + 8 * BATCH).to_string()
    );
    server.shutdown();
}
