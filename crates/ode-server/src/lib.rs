//! The wire layer: Ode as a standalone server.
//!
//! The paper's Ode is an embedded library (an O++ program links the
//! object manager directly). This crate is the step to a served system:
//! a thread-per-connection TCP front end where each connection owns one
//! [`ode_core::Session`] — current database, at most one open transaction, DDL
//! execution — over a shared [`Engine`]. Statement execution, trigger
//! firing, and coupling semantics are entirely the embedded machinery;
//! the server only moves text.
//!
//! ## Protocol v1 (single statement per frame)
//!
//! Frames are length-prefixed UTF-8: a little-endian `u32` byte count
//! followed by that many bytes. The client's first frame must be
//! `AUTH <token>`; the server answers `OK` or `ERR bad token` (and
//! closes on failure). After that, each client frame is one statement
//! (see [`ode_core::ddl`]) and each reply frame is:
//!
//! * `OK` — statement succeeded, no payload
//! * `OK <payload>` — single-line payload (an oid, a count, a field)
//! * `OK\n<payload>` — multi-line payload (`SHOW DATABASES`, `METRICS`)
//! * `ERR <message>` — statement failed; an open transaction has been
//!   aborted (tabort semantics), the connection stays usable
//!
//! `QUIT` closes the connection. A dropped connection aborts its open
//! transaction ([`ode_core::Session`]'s `Drop`), so a dying client never leaks
//! locks.
//!
//! ## Protocol v2 (pipelined batch frames)
//!
//! A frame whose payload starts with the [`BATCH_MAGIC`] byte (`0x02`,
//! ASCII STX — no v1 statement can begin with a control byte) is a
//! *batch frame* carrying N statements:
//!
//! ```text
//! request  = 0x02, mode u8, count u32-LE, count × (len u32-LE, stmt UTF-8)
//! response = 0x02,          count u32-LE, count × (len u32-LE, reply UTF-8)
//! ```
//!
//! The N replies are in statement order and use the v1 reply grammar.
//! `mode` selects the first-error semantics: [`BATCH_CONTINUE`] keeps
//! executing after a failed statement, [`BATCH_ABORT`] fails every
//! remaining statement with `ERR batch aborted`. Either way, an error
//! *inside an explicitly opened transaction* has already taken that
//! transaction down (the session's tabort rule), so the remaining batch
//! statements — written assuming that transaction — are always failed.
//! The two protocols interleave freely on one connection; v1 clients
//! never see a v2 frame.
//!
//! No reply leaves before what it acknowledges is durable. A batch
//! frame defers its statements' commit durability waits and waits the
//! parked [`ode_core::PendingCommit`] tickets once, at the frame's end,
//! highest LSN first, so one WAL flush covers the frame's commits.
//! Across connections the WAL's own leader/follower group commit shares
//! flushes (see `DESIGN.md`, "Wire batching & commit piggybacking").
//!
//! ## Frame I/O
//!
//! Each connection owns two buffers. Inbound, a [`BufReader`] over the
//! socket feeds one reused payload buffer: a request that arrived in one
//! segment is one `recv`, its length prefix is checked against
//! [`MAX_FRAME`] before the payload buffer may grow, its UTF-8 is
//! validated in place, and the statements of a batch frame are borrowed
//! as `&str` slices of that buffer. Outbound, every reply — the `AUTH`
//! answer, a v1 reply, a batch reply, the oversized-frame `ERR` — is
//! encoded behind a 4-byte length placeholder that is patched in place,
//! and the whole frame leaves with one `write_all`: one `send`, one TCP
//! segment. A steady-state v1 round trip therefore costs the server one
//! `recv` and one `send`. Both buffers are reused from frame to frame; a
//! frame larger than 64 KiB gives its memory back once it is done with,
//! so an idle connection does not pin its largest frame.
//!
//! No async runtime: blocking std sockets and one OS thread per
//! connection, which matches the engine's thread-per-transaction
//! concurrency model (striped 2PL underneath).

use ode_core::{Database, Engine, PendingCommit, Session};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Largest accepted frame (defensive bound; statements are small).
pub const MAX_FRAME: u32 = 1 << 20;

/// First payload byte of a protocol-v2 batch frame, both directions
/// (ASCII STX; no v1 statement starts with a control byte).
pub const BATCH_MAGIC: u8 = 0x02;

/// Batch error mode: keep executing the remaining statements after one
/// fails (outside an explicit transaction).
pub const BATCH_CONTINUE: u8 = 0;

/// Batch error mode: fail every statement after the first error with
/// `ERR batch aborted`.
pub const BATCH_ABORT: u8 = 1;

/// One inbound frame, as the server's read loop sees it. Text borrows
/// the connection's payload buffer.
#[derive(Debug)]
enum Frame<'a> {
    /// A complete v1 single-statement frame.
    Msg(&'a str),
    /// A complete v2 batch frame.
    Batch {
        /// [`BATCH_ABORT`] was requested.
        abort_on_error: bool,
        /// The statements, in execution order.
        stmts: Vec<&'a str>,
    },
    /// The length prefix exceeded [`MAX_FRAME`] — nothing was allocated
    /// and the payload was not read, so the stream cannot be resynced.
    Oversized(u32),
    /// Clean EOF at a frame boundary.
    Eof,
}

/// Payload capacity a connection keeps between frames: a one-off large
/// frame gives its memory back instead of pinning it while the
/// connection idles.
const SPARE_CAPACITY: usize = 64 << 10;

/// Read one frame into `payload` without trusting its length prefix: an
/// oversized claim is reported before `payload` can grow, so a hostile
/// 4 GiB prefix costs four bytes of reading, not an OOM. The server's
/// buffered connection reader and [`read_frame`] both read through here.
fn read_frame_bounded<'a>(
    stream: &mut impl Read,
    payload: &'a mut Vec<u8>,
) -> std::io::Result<Frame<'a>> {
    payload.clear();
    payload.shrink_to(SPARE_CAPACITY);
    let mut prefix = [0u8; 4];
    match stream.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(Frame::Eof),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Ok(Frame::Oversized(len));
    }
    // Exact growth, so the capacity never exceeds MAX_FRAME. Reading into
    // the whole payload at once lets a buffered reader hand a frame larger
    // than its own buffer straight to one `read` of the stream.
    payload.reserve_exact(len as usize);
    payload.resize(len as usize, 0);
    stream.read_exact(payload)?;
    if payload.first() == Some(&BATCH_MAGIC) {
        return decode_batch(payload);
    }
    std::str::from_utf8(payload)
        .map(Frame::Msg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Decode a v2 batch payload (`buf[0]` is already known to be
/// [`BATCH_MAGIC`]). Every length inside the frame is re-checked against
/// the actual byte count — the outer [`MAX_FRAME`] bound caps total
/// allocation, and a hostile inner count cannot over-allocate past it.
fn decode_batch(buf: &[u8]) -> std::io::Result<Frame<'_>> {
    let bad = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed batch frame: {what}"),
        )
    };
    let mode = *buf.get(1).ok_or_else(|| bad("missing mode byte"))?;
    let abort_on_error = match mode {
        BATCH_CONTINUE => false,
        BATCH_ABORT => true,
        _ => return Err(bad("unknown error mode")),
    };
    let count_bytes: [u8; 4] = buf
        .get(2..6)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| bad("missing statement count"))?;
    let count = u32::from_le_bytes(count_bytes) as usize;
    let mut rest = &buf[6..];
    // Each statement costs at least its 4-byte length prefix.
    if count > rest.len() / 4 {
        return Err(bad("statement count exceeds frame size"));
    }
    let mut stmts = Vec::with_capacity(count);
    for _ in 0..count {
        if rest.len() < 4 {
            return Err(bad("truncated statement length"));
        }
        let n = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        rest = &rest[4..];
        if rest.len() < n {
            return Err(bad("truncated statement"));
        }
        let stmt = std::str::from_utf8(&rest[..n]).map_err(|_| bad("statement is not UTF-8"))?;
        stmts.push(stmt);
        rest = &rest[n..];
    }
    if !rest.is_empty() {
        return Err(bad("trailing bytes after last statement"));
    }
    Ok(Frame::Batch {
        abort_on_error,
        stmts,
    })
}

/// Encode a v2 batch *reply* payload into `out`.
fn encode_batch_reply(replies: &[String], out: &mut Vec<u8>) {
    out.push(BATCH_MAGIC);
    out.extend_from_slice(&(replies.len() as u32).to_le_bytes());
    for reply in replies {
        out.extend_from_slice(&(reply.len() as u32).to_le_bytes());
        out.extend_from_slice(reply.as_bytes());
    }
}

/// The outbound half of a connection: one reused buffer holding a length
/// placeholder and the payload encoded behind it, sent with one
/// `write_all` — one `send`, one TCP segment.
#[derive(Default)]
struct FrameWriter {
    buf: Vec<u8>,
}

impl FrameWriter {
    /// Start a new frame; the payload is appended to the returned buffer.
    fn begin(&mut self) -> &mut Vec<u8> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
        &mut self.buf
    }

    /// Patch the length prefix and write the whole frame. A reply larger
    /// than [`SPARE_CAPACITY`] gives its memory back once it is sent.
    fn send(&mut self, stream: &mut impl Write) -> std::io::Result<()> {
        let len = (self.buf.len() - 4) as u32;
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        let sent = stream.write_all(&self.buf).and_then(|()| stream.flush());
        self.buf.clear();
        self.buf.shrink_to(SPARE_CAPACITY);
        sent
    }

    /// Write one text frame.
    fn send_text(&mut self, stream: &mut impl Write, text: &str) -> std::io::Result<()> {
        self.begin().extend_from_slice(text.as_bytes());
        self.send(stream)
    }
}

/// Read one length-prefixed text frame from a stream the caller owns,
/// consuming exactly that frame's bytes. `Ok(None)` on clean EOF at a
/// frame boundary.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut payload = Vec::new();
    match read_frame_bounded(stream, &mut payload)? {
        Frame::Msg(s) => Ok(Some(s.to_string())),
        Frame::Eof => Ok(None),
        Frame::Oversized(len) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME} byte limit"),
        )),
        Frame::Batch { .. } => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "unexpected protocol-v2 batch frame on a text-frame reader",
        )),
    }
}

/// Write one length-prefixed text frame with one `write_all`.
pub fn write_frame(stream: &mut impl Write, payload: &str) -> std::io::Result<()> {
    FrameWriter::default().send_text(stream, payload)
}

/// Compare a presented auth token against the expected one in time
/// independent of *where* they differ: the loop always walks the full
/// expected token, folding each byte difference (and the length
/// difference) into one accumulator, so a byte-at-a-time guesser learns
/// nothing from response timing.
fn token_eq(presented: &str, expected: &str) -> bool {
    let a = presented.as_bytes();
    let b = expected.as_bytes();
    let mut diff = a.len() ^ b.len();
    for (i, &eb) in b.iter().enumerate() {
        diff |= usize::from(a.get(i).copied().unwrap_or(0) ^ eb);
    }
    diff == 0
}

/// Wire-layer options (the `ode-server` binary exposes
/// `--no-piggyback`).
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Defer each statement's commit durability wait to the end of its
    /// frame: a batch frame's commits are waited together, highest LSN
    /// first, so one WAL flush covers them all. Off: every statement's
    /// `commit_wait` runs inline before the next statement starts. Either
    /// way a reply leaves only once what it acknowledges is durable.
    pub piggyback: bool,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions { piggyback: true }
    }
}

/// A running Ode server: an accept thread plus one thread per live
/// connection.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `engine` with default [`ServerOptions`]. Clients must
    /// authenticate with `token`.
    pub fn start(engine: Arc<Engine>, addr: &str, token: &str) -> std::io::Result<Server> {
        Server::start_with(engine, addr, token, ServerOptions::default())
    }

    /// [`Server::start`] with explicit feature toggles.
    pub fn start_with(
        engine: Arc<Engine>,
        addr: &str,
        token: &str,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let token = token.to_string();
        let accept_thread = std::thread::Builder::new()
            .name("ode-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    stream.set_nodelay(true).ok();
                    let engine = Arc::clone(&engine);
                    let token = token.clone();
                    // Detached: a connection thread ends when its client
                    // disconnects (or sends QUIT), and Session::drop
                    // aborts any transaction it left open.
                    let _ = std::thread::Builder::new()
                        .name("ode-conn".into())
                        .spawn(move || {
                            let _ = serve_connection(stream, engine, &token, options);
                        });
                }
            })?;
        Ok(Server {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread. Live
    /// connections finish on their own.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Drive one connection: auth handshake, then statement frames until QUIT
/// or EOF.
fn serve_connection<S: Read + Write>(
    stream: S,
    engine: Arc<Engine>,
    token: &str,
    options: ServerOptions,
) -> std::io::Result<()> {
    // Requests are read through a buffer, so pipelined frames that arrive
    // together cost one `read`; replies go to the stream itself.
    let mut stream = BufReader::new(stream);
    let mut payload = Vec::new();
    let mut out = FrameWriter::default();
    match read_frame_bounded(&mut stream, &mut payload)? {
        Frame::Msg(frame)
            if frame
                .strip_prefix("AUTH ")
                .is_some_and(|t| token_eq(t, token)) =>
        {
            out.send_text(stream.get_mut(), "OK")?;
        }
        Frame::Oversized(len) => {
            reject_oversized(&mut out, stream.get_mut(), &engine, len);
            return Ok(());
        }
        Frame::Msg(_) | Frame::Batch { .. } | Frame::Eof => {
            let _ = out.send_text(stream.get_mut(), "ERR bad token");
            return Ok(());
        }
    }
    let mut session = engine.session();
    session.set_defer_commits(options.piggyback);
    loop {
        match read_frame_bounded(&mut stream, &mut payload)? {
            Frame::Msg(frame) => {
                let stmt = frame.trim();
                if stmt.eq_ignore_ascii_case("quit") {
                    out.send_text(stream.get_mut(), "OK")?;
                    break;
                }
                if stmt.is_empty() || stmt.starts_with("--") {
                    out.send_text(stream.get_mut(), "OK")?;
                    continue;
                }
                let mut reply = run_statement(&mut session, stmt);
                if let Some(pending) = session.take_pending_commit() {
                    if let Err(e) = pending.db.commit_wait(pending.ticket) {
                        reply = format!("ERR commit durability failed: {e}");
                    }
                }
                out.send_text(stream.get_mut(), &reply)?;
            }
            Frame::Batch {
                abort_on_error,
                stmts,
            } => {
                let replies = run_batch(&mut session, &engine, abort_on_error, &stmts);
                encode_batch_reply(&replies, out.begin());
                out.send(stream.get_mut())?;
            }
            Frame::Eof => break,
            Frame::Oversized(len) => {
                // The payload was never read, so the framing cannot be
                // resynced: report and close rather than allocate.
                reject_oversized(&mut out, stream.get_mut(), &engine, len);
                break;
            }
        }
    }
    drop(session); // aborts any open transaction
    Ok(())
}

/// Execute one statement and format its v1-grammar reply.
fn run_statement(session: &mut Session, stmt: &str) -> String {
    match session.execute(stmt) {
        Ok(payload) if payload.is_empty() => "OK".to_string(),
        Ok(payload) if payload.contains('\n') => format!("OK\n{payload}"),
        Ok(payload) => format!("OK {payload}"),
        Err(e) => format!("ERR {e}"),
    }
}

/// Execute a batch frame: per-statement replies in order, first-error
/// semantics per `abort_on_error`, and every deferred commit made durable
/// before any reply is released. Every statement runs through
/// [`Session::execute`], so tracing, per-verb counters, and the
/// statement-latency histogram see batched statements exactly like
/// single-frame ones.
fn run_batch(
    session: &mut Session,
    engine: &Engine,
    abort_on_error: bool,
    stmts: &[&str],
) -> Vec<String> {
    engine
        .stats()
        .frames_batched
        .fetch_add(1, Ordering::Relaxed);
    engine.stats().stmts_per_frame.record(stmts.len() as u64);
    let mut replies = Vec::with_capacity(stmts.len());
    let mut deferred: Vec<(usize, PendingCommit)> = Vec::new();
    let mut failed = false;
    for (i, raw) in stmts.iter().enumerate() {
        if failed {
            replies.push("ERR batch aborted".to_string());
            continue;
        }
        let stmt = raw.trim();
        if stmt.is_empty() || stmt.starts_with("--") {
            replies.push("OK".to_string());
            continue;
        }
        let reply = if stmt.eq_ignore_ascii_case("quit") {
            // Mid-batch QUIT would strand the remaining statements the
            // client already sent; make it an ordinary statement error.
            "ERR QUIT is not allowed inside a batch".to_string()
        } else {
            let was_in_txn = session.txn().is_some();
            let reply = run_statement(session, stmt);
            if let Some(pending) = session.take_pending_commit() {
                deferred.push((i, pending));
            }
            // An error while an explicit transaction was open has taken
            // it down (tabort); the rest of the batch was written for
            // that transaction, so it always fails — CONTINUE only
            // applies outside transactions.
            if reply.starts_with("ERR") && was_in_txn {
                failed = true;
            }
            reply
        };
        if reply.starts_with("ERR") && abort_on_error {
            failed = true;
        }
        replies.push(reply);
    }
    // Highest LSN first: that wait leads (or joins) the WAL group-commit
    // flush that covers every lower LSN, so the rest find their records
    // durable. A ticket with no WAL position has no flush to share.
    deferred.sort_by_key(|(_, pending)| std::cmp::Reverse(pending.ticket.lsn()));
    let mut flushed_dbs: Vec<*const Database> = Vec::new();
    for (i, pending) in deferred {
        if pending.ticket.lsn().is_some() {
            let db = Arc::as_ptr(&pending.db);
            if flushed_dbs.contains(&db) {
                pending.db.metrics().piggybacked_commits.inc();
            } else {
                flushed_dbs.push(db);
            }
        }
        if let Err(e) = pending.db.commit_wait(pending.ticket) {
            replies[i] = format!("ERR commit durability failed: {e}");
        }
    }
    replies
}

/// Count and report an oversized inbound frame, then let the caller
/// close the connection.
fn reject_oversized(out: &mut FrameWriter, stream: &mut impl Write, engine: &Engine, len: u32) {
    engine
        .stats()
        .frames_oversized
        .fetch_add(1, Ordering::Relaxed);
    let _ = out.send_text(
        stream,
        &format!("ERR frame of {len} bytes exceeds the {MAX_FRAME} byte limit"),
    );
}

// ---------------------------------------------------------------------
// HTTP metrics endpoint
// ---------------------------------------------------------------------

/// A minimal std-only HTTP/1.1 listener serving the engine's merged
/// Prometheus page at `GET /metrics` and a liveness probe at
/// `GET /healthz`. One short-lived connection per request
/// (`Connection: close`), which is exactly how a scraper behaves; no
/// async runtime, matching the wire layer's thread-per-connection
/// model.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and serve `engine`'s metrics until shutdown.
    pub fn start(engine: Arc<Engine>, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("ode-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    // Scrapes are cheap (render + one write): serve them
                    // on the accept thread rather than spawning.
                    let _ = serve_http_request(&mut stream, &engine);
                }
            })?;
        Ok(MetricsServer {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting scrapes and join the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serve one HTTP request on `stream` and close it.
fn serve_http_request(stream: &mut TcpStream, engine: &Engine) -> std::io::Result<()> {
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .ok();
    // Read the request head (bounded — a scraper's GET is tiny).
    let mut head = Vec::new();
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 8 * 1024 {
            return Ok(()); // not a scraper; drop it
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                // The Prometheus text exposition format version.
                "text/plain; version=0.0.4; charset=utf-8",
                engine.render_prometheus(),
            ),
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connect(server: &Server, token: &str) -> TcpStream {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut s, &format!("AUTH {token}")).unwrap();
        assert_eq!(read_frame(&mut s).unwrap().unwrap(), "OK");
        s
    }

    fn exec(s: &mut TcpStream, stmt: &str) -> String {
        write_frame(s, stmt).unwrap();
        read_frame(s).unwrap().unwrap()
    }

    #[test]
    fn auth_handshake_gates_the_session() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "sesame").unwrap();
        let mut bad = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut bad, "AUTH wrong").unwrap();
        assert_eq!(read_frame(&mut bad).unwrap().unwrap(), "ERR bad token");
        assert!(
            read_frame(&mut bad).unwrap().is_none(),
            "closed after bad auth"
        );
        let mut ok = connect(&server, "sesame");
        assert_eq!(exec(&mut ok, "SHOW DATABASES"), "OK");
        server.shutdown();
    }

    #[test]
    fn statements_round_trip_and_errors_keep_the_connection() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut c = connect(&server, "t");
        assert_eq!(exec(&mut c, "CREATE DATABASE bank"), "OK");
        assert_eq!(exec(&mut c, "USE bank"), "OK");
        let reply = exec(&mut c, "GARBAGE");
        assert!(reply.starts_with("ERR at byte 0"), "{reply}");
        assert_eq!(exec(&mut c, "CREATE CLASS A { FIELD x = 3; }"), "OK");
        let oid = exec(&mut c, "NEW A");
        let oid = oid.strip_prefix("OK ").expect("oid reply");
        assert_eq!(exec(&mut c, &format!("GET {oid} x")), "OK 3");
        assert_eq!(exec(&mut c, "QUIT"), "OK");
        server.shutdown();
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let engine = Engine::volatile();
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", "t").unwrap();
        let mut c = connect(&server, "t");
        // A hostile length prefix claiming ~3.5 GiB: the server must
        // answer ERR (having read only the prefix) and close, not
        // allocate the claimed buffer.
        c.write_all(&0xdead_beef_u32.to_le_bytes()).unwrap();
        c.flush().unwrap();
        let reply = read_frame(&mut c).unwrap().unwrap();
        assert!(
            reply.starts_with("ERR frame of 3735928559 bytes"),
            "{reply}"
        );
        assert!(read_frame(&mut c).unwrap().is_none(), "connection closed");
        assert_eq!(
            engine
                .stats()
                .frames_oversized
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        server.shutdown();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_and_healthz() {
        let engine = Engine::volatile();
        engine.create_database("bank").unwrap();
        let metrics = MetricsServer::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();

        let get = |path: &str| -> (String, String) {
            let mut s = TcpStream::connect(metrics.addr()).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            s.read_to_string(&mut response).unwrap();
            let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
            (head.to_string(), body.to_string())
        };

        let (head, body) = get("/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("ode_sessions_open"), "{body}");
        assert!(body.contains("db=\"bank\""), "{body}");
        let content_length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(content_length, body.len());

        let (head, body) = get("/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, _) = get("/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        metrics.shutdown();
    }

    #[test]
    fn token_comparison_rejects_wrong_length_and_wrong_byte() {
        assert!(token_eq("sesame", "sesame"));
        assert!(!token_eq("sesamE", "sesame"), "wrong byte");
        assert!(!token_eq("sesam", "sesame"), "too short");
        assert!(!token_eq("sesame!", "sesame"), "too long");
        assert!(!token_eq("", "sesame"), "empty presented");
        assert!(token_eq("", ""));
        assert!(!token_eq("x", ""), "empty expected rejects non-empty");
    }

    /// Authenticate a [`WireClient`] against `server` (protocol-v2 tests
    /// drive the real client rather than raw frames).
    fn client(server: &Server, token: &str) -> ode_testutil::WireClient {
        ode_testutil::WireClient::connect(&server.addr().to_string(), token).unwrap()
    }

    #[test]
    fn batch_frames_round_trip_and_interleave_with_v1() {
        let engine = Engine::volatile();
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        // v1 single-statement frames first…
        c.exec("CREATE DATABASE d");
        c.exec("USE d");
        // …then a v2 batch on the same connection…
        let replies = c
            .exec_batch(
                &["CREATE CLASS A { FIELD x = 2; }", "NEW A", "", "-- note"],
                false,
            )
            .unwrap();
        assert_eq!(replies.len(), 4);
        assert_eq!(replies[0], "OK");
        let oid = replies[1].strip_prefix("OK ").expect("oid reply");
        assert_eq!(replies[2], "OK");
        assert_eq!(replies[3], "OK");
        // …then v1 again, reading state the batch created.
        assert_eq!(c.exec(&format!("GET {oid} x")), "2");
        assert_eq!(engine.stats().frames_batched.load(Ordering::Relaxed), 1);
        assert_eq!(engine.stats().stmts_per_frame.snapshot().count, 1);
        server.shutdown();
    }

    #[test]
    fn batch_parse_error_inside_txn_aborts_it_and_fails_the_rest() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        c.exec("CREATE DATABASE d");
        c.exec("USE d");
        c.exec("CREATE CLASS C { FIELD v; }");
        let oid = c.exec("NEW C");
        let replies = c
            .exec_batch(
                &[
                    "BEGIN",
                    &format!("CALL {oid} Touch SET v = 7"),
                    "THIS IS NOT A STATEMENT",
                    &format!("CALL {oid} Touch SET v = 9"),
                    "COMMIT",
                ],
                false, // CONTINUE mode — the open txn must still doom the rest
            )
            .unwrap();
        assert_eq!(replies[0], "OK");
        assert_eq!(replies[1], "OK");
        assert!(replies[2].starts_with("ERR"), "{}", replies[2]);
        assert_eq!(replies[3], "ERR batch aborted");
        assert_eq!(replies[4], "ERR batch aborted");
        // The parse error tore the transaction down: the write rolled
        // back and the session has nothing open.
        assert_eq!(c.exec(&format!("GET {oid} v")), "0");
        let err = c.try_exec("COMMIT").unwrap_err();
        assert!(
            err.contains("no open transaction"),
            "tabort closed the session transaction: {err}"
        );
        server.shutdown();
    }

    #[test]
    fn batch_continue_mode_outside_a_txn_executes_the_rest() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        c.exec("CREATE DATABASE d");
        c.exec("USE d");
        let replies = c
            .exec_batch(
                &["GARBAGE", "CREATE CLASS A { FIELD x = 5; }", "NEW A"],
                false,
            )
            .unwrap();
        assert!(replies[0].starts_with("ERR"), "{}", replies[0]);
        assert_eq!(
            replies[1], "OK",
            "autocommit statements after the error ran"
        );
        assert!(replies[2].starts_with("OK "), "{}", replies[2]);
        server.shutdown();
    }

    #[test]
    fn batch_abort_mode_fails_everything_after_the_first_error() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        c.exec("CREATE DATABASE d");
        c.exec("USE d");
        let replies = c
            .exec_batch(&["GARBAGE", "CREATE CLASS A { FIELD x; }", "QUIT"], true)
            .unwrap();
        assert!(replies[0].starts_with("ERR"), "{}", replies[0]);
        assert_eq!(replies[1], "ERR batch aborted");
        assert_eq!(replies[2], "ERR batch aborted");
        // ABORT_BATCH only fails the remainder of the frame; the
        // connection (and session) live on.
        assert_eq!(c.exec("SHOW DATABASES"), "d");
        server.shutdown();
    }

    #[test]
    fn quit_mid_batch_is_a_statement_error_not_a_disconnect() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        let replies = c.exec_batch(&["QUIT", "SHOW DATABASES"], false).unwrap();
        assert_eq!(replies[0], "ERR QUIT is not allowed inside a batch");
        assert_eq!(replies[1], "OK");
        server.shutdown();
    }

    #[test]
    fn dropped_connection_mid_batch_releases_all_locks() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut a = client(&server, "t");
        a.exec("CREATE DATABASE d");
        a.exec("USE d");
        a.exec("CREATE CLASS C { FIELD v; }");
        let oid = a.exec("NEW C");
        // A batch that leaves an explicit transaction open (write lock
        // held), whose reply the client never reads: drop the socket.
        a.send_batch(&["BEGIN", &format!("CALL {oid} Touch SET v = 1")], false)
            .unwrap();
        drop(a);
        let mut b = client(&server, "t");
        b.exec("USE d");
        let mut last = String::new();
        for _ in 0..50 {
            last = b.exec(&format!("GET {oid} v"));
            if last == "0" {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(last, "0", "uncommitted batch write was rolled back");
        server.shutdown();
    }

    #[test]
    fn batched_autocommits_share_one_flush_round() {
        // A WAL-backed engine: only tickets with a WAL position share a
        // flush (no-WAL tickets have none to share).
        let dir = ode_testutil::TempDir::new("piggyback");
        let engine = Engine::open(dir.path(), Default::default()).unwrap();
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        c.exec("CREATE DATABASE d");
        c.exec("USE d");
        c.exec("CREATE CLASS C { FIELD v; }");
        let oid = c.exec("NEW C");
        let db = engine.database("d").unwrap();
        let before = db.metrics().piggybacked_commits.get();
        let flushes_before = db.metrics().snapshot().wal_group_commits;
        // Four autocommitting writes in one frame: their tickets are
        // waited together at the frame's end, so three of them piggyback.
        // (Each must actually change state — a no-op write commits
        // without a WAL record and has no flush to share.)
        let set = format!("CALL {oid} Touch SET v = v + 1");
        let replies = c.exec_batch(&[&set, &set, &set, &set], false).unwrap();
        assert!(replies.iter().all(|r| r == "OK"), "{replies:?}");
        assert_eq!(db.metrics().piggybacked_commits.get() - before, 3);
        // ...and the four commits shared WAL flushes rather than each
        // leading its own.
        let flushes = db.metrics().snapshot().wal_group_commits - flushes_before;
        assert!(flushes < 4, "{flushes} WAL flush rounds for 4 commits");
        server.shutdown();
    }

    #[test]
    fn prepared_statements_round_trip_over_the_wire() {
        let engine = Engine::volatile();
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        c.exec("CREATE DATABASE d");
        c.exec("USE d");
        c.exec("CREATE CLASS C { FIELD v; }");
        let oid = c.exec("NEW C");
        c.exec(&format!("PREPARE bump AS CALL {oid} Touch SET v = v + $1"));
        c.exec("EXECUTE bump WITH 5");
        c.exec("EXECUTE bump WITH 2.5");
        assert_eq!(c.exec(&format!("GET {oid} v")), "7.5");
        let err = c.try_exec("EXECUTE bump").unwrap_err();
        assert!(err.contains("has no argument"), "{err}");
        let err = c.try_exec("EXECUTE nope WITH 1").unwrap_err();
        assert!(err.contains("unknown prepared statement"), "{err}");
        // Prepared statements are per-session: a second connection
        // doesn't see them.
        let mut other = client(&server, "t");
        other.exec("USE d");
        assert!(other.try_exec("EXECUTE bump WITH 1").is_err());
        server.shutdown();
    }

    #[test]
    fn explain_traces_statements_inside_a_batch() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        c.exec("CREATE DATABASE d");
        c.exec("USE d");
        c.exec("CREATE CLASS A { FIELD x = 1; }");
        let replies = c
            .exec_batch(&["EXPLAIN NEW A", "SHOW TRACE"], false)
            .unwrap();
        // Both the inline EXPLAIN tree and the retained SHOW TRACE tree
        // are per-statement span trees, batched or not.
        for reply in &replies {
            let tree = reply.strip_prefix("OK\n").unwrap_or(reply);
            assert!(tree.contains("statement"), "{reply}");
            assert!(tree.contains("parse"), "{reply}");
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_send_ahead_keeps_frames_in_flight() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut c = client(&server, "t");
        c.exec("CREATE DATABASE d");
        c.exec("USE d");
        c.exec("CREATE CLASS C { FIELD v; }");
        let oid = c.exec("NEW C");
        let set = format!("CALL {oid} Touch SET v = v + 1");
        let frame: Vec<&str> = vec![&set; 8];
        let frames: Vec<&[&str]> = vec![frame.as_slice(); 5];
        let mut seen = 0usize;
        c.pipeline_batches(frames.iter().copied(), 4, false, |replies| {
            assert!(replies.iter().all(|r| r == "OK"), "{replies:?}");
            seen += replies.len();
        })
        .unwrap();
        assert_eq!(seen, 40);
        assert_eq!(c.exec(&format!("GET {oid} v")), "40");
        server.shutdown();
    }

    /// `payload` behind its little-endian `u32` length prefix.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    /// A v2 batch request payload.
    fn batch_payload(stmts: &[&str], abort_on_error: bool) -> Vec<u8> {
        let mut out = vec![BATCH_MAGIC, u8::from(abort_on_error)];
        out.extend_from_slice(&(stmts.len() as u32).to_le_bytes());
        for stmt in stmts {
            out.extend_from_slice(&(stmt.len() as u32).to_le_bytes());
            out.extend_from_slice(stmt.as_bytes());
        }
        out
    }

    /// A client scripted in memory: reads come from `input`, and every
    /// `write` call the server makes is recorded whole.
    struct Scripted {
        input: std::io::Cursor<Vec<u8>>,
        writes: Vec<Vec<u8>>,
        /// When set, every write also samples this database's WAL
        /// flushed LSN and the transactions its flight log shows committed
        /// so far, into `samples`.
        watch: Option<Arc<Database>>,
        samples: Vec<(u64, Vec<u64>)>,
    }

    impl Scripted {
        fn new(frames: &[Vec<u8>]) -> Scripted {
            Scripted {
                input: std::io::Cursor::new(frames.concat()),
                writes: Vec::new(),
                watch: None,
                samples: Vec::new(),
            }
        }

        /// Serve the script on one connection with default options.
        fn serve(mut self, engine: &Arc<Engine>) -> Vec<Vec<u8>> {
            self.run(engine, ServerOptions::default())
        }

        /// Serve the script on one connection; returns each write's
        /// payload after checking that the write is exactly one frame.
        fn run(&mut self, engine: &Arc<Engine>, options: ServerOptions) -> Vec<Vec<u8>> {
            serve_connection(&mut *self, Arc::clone(engine), "t", options).unwrap();
            std::mem::take(&mut self.writes)
                .into_iter()
                .map(|w| {
                    assert!(w.len() >= 4, "a bare fragment: {w:?}");
                    let len = u32::from_le_bytes(w[..4].try_into().unwrap()) as usize;
                    assert_eq!(w.len(), 4 + len, "one write is one whole frame");
                    w[4..].to_vec()
                })
                .collect()
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if let Some(db) = &self.watch {
                let committed = db
                    .flight_log()
                    .iter()
                    .filter_map(|r| match r.event {
                        ode_obs::FlightEvent::TxnCommit { txn } => Some(txn),
                        _ => None,
                    })
                    .collect();
                let flushed = db.storage().wal_flushed_lsn().expect("a WAL");
                self.samples.push((flushed, committed));
            }
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_kind_is_one_write_of_one_whole_frame() {
        let engine = Engine::volatile();
        let text = |s: &str| framed(s.as_bytes());
        let script = [
            text("AUTH t"),
            text("CREATE DATABASE d"),
            text("CREATE DATABASE e"),
            text("USE d"),
            text("CREATE CLASS A { FIELD x = 3; }"),
            text("NEW A"),
            text("SHOW DATABASES"),
            text("GARBAGE"),
            text("-- a comment"),
            framed(&batch_payload(&["NEW A", "GARBAGE", "QUIT"], false)),
            0xFFFF_FFFF_u32.to_le_bytes().to_vec(),
        ];
        let replies = Scripted::new(&script).serve(&engine);
        let replies: Vec<String> = replies
            .iter()
            .map(|r| String::from_utf8_lossy(r).into_owned())
            .collect();
        assert_eq!(replies.len(), 11, "{replies:?}");
        assert_eq!(replies[..5], ["OK", "OK", "OK", "OK", "OK"]);
        assert!(replies[5].starts_with("OK "), "single-line payload");
        assert_eq!(replies[6], "OK\nd\ne", "multi-line payload");
        assert!(replies[7].starts_with("ERR at byte 0"), "{}", replies[7]);
        assert_eq!(replies[8], "OK");
        assert_eq!(replies[9].as_bytes()[0], BATCH_MAGIC, "batch reply");
        assert!(replies[9].contains("ERR QUIT is not allowed inside a batch"));
        assert_eq!(
            replies[10],
            "ERR frame of 4294967295 bytes exceeds the 1048576 byte limit"
        );

        let replies = Scripted::new(&[text("AUTH t"), text("QUIT")]).serve(&engine);
        assert_eq!(replies, [b"OK".to_vec(), b"OK".to_vec()]);
        let replies = Scripted::new(&[text("AUTH wrong")]).serve(&engine);
        assert_eq!(replies, [b"ERR bad token".to_vec()]);
        let replies = Scripted::new(&[0xdead_beef_u32.to_le_bytes().to_vec()]).serve(&engine);
        assert_eq!(replies.len(), 1);
        assert!(replies[0].starts_with(b"ERR frame of 3735928559 bytes"));
    }

    #[test]
    fn replies_leave_only_after_their_commits_are_durable() {
        // DESIGN.md "Wire batching": a reply is written only once the
        // WAL's flushed LSN covers the Commit record of every statement
        // it acknowledges — v1 and batch frames, sharing on and off.
        for piggyback in [true, false] {
            let dir = ode_testutil::TempDir::new("durable-replies");
            let engine = Engine::open(dir.path(), Default::default()).unwrap();
            let db = engine.create_database("d").unwrap();
            let mut setup = engine.session();
            setup.execute("USE d").unwrap();
            setup.execute("CREATE CLASS C { FIELD v; }").unwrap();
            let oid = setup.execute("NEW C").unwrap();
            drop(setup);
            let set = format!("CALL {oid} Touch SET v = v + 1");
            let text = |s: &str| framed(s.as_bytes());
            let script = [
                text("AUTH t"),
                text("USE d"),
                text(&set),
                text("NEW C"),
                text(&set),
                framed(&batch_payload(&[&set, "NEW C", &set, &set], false)),
                framed(&batch_payload(
                    &["BEGIN", &set, &set, "COMMIT", &set],
                    false,
                )),
                text(&format!("GET {oid} v")),
            ];
            let mut client = Scripted::new(&script);
            client.watch = Some(Arc::clone(&db));
            let replies = client.run(&engine, ServerOptions { piggyback });
            assert_eq!(replies.len(), script.len());
            for reply in &replies {
                let reply = String::from_utf8_lossy(reply);
                assert!(!reply.contains("ERR"), "{reply}");
            }
            assert_eq!(replies[7], b"OK 8", "every write committed");

            let commits: std::collections::HashMap<u64, u64> =
                ode_storage::wal::Wal::read_all(&dir.path().join("d").join("wal.log"))
                    .unwrap()
                    .into_iter()
                    .filter_map(|(lsn, rec)| match rec {
                        ode_storage::wal::LogRecord::Commit { txn } => Some((txn, lsn)),
                        _ => None,
                    })
                    .collect();
            for (i, (flushed, committed)) in client.samples.iter().enumerate() {
                for txn in committed {
                    if let Some(&lsn) = commits.get(txn) {
                        assert!(
                            lsn <= *flushed,
                            "piggyback={piggyback}: reply {i} left with txn {txn}'s \
                             Commit at LSN {lsn} beyond the flushed LSN {flushed}"
                        );
                    }
                }
            }
            // Every logged commit — the script's ten committing
            // transactions among them — was checked by the last reply.
            let (_, last) = client.samples.last().unwrap();
            let checked = last.iter().filter(|t| commits.contains_key(t)).count();
            assert_eq!(checked, commits.len(), "piggyback={piggyback}");
            assert!(checked >= 10, "piggyback={piggyback}: {checked} commits");
        }
    }

    /// A reader that counts its `read` calls.
    struct CountingReader {
        input: std::io::Cursor<Vec<u8>>,
        reads: usize,
    }

    impl Read for CountingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.input.read(buf)
        }
    }

    #[test]
    fn pipelined_frames_are_decoded_from_one_read() {
        let input = [
            framed(b"GET 1 x"),
            framed(b"NEW A"),
            framed(&batch_payload(&["BEGIN", "COMMIT"], true)),
        ]
        .concat();
        let mut counting = CountingReader {
            input: std::io::Cursor::new(input),
            reads: 0,
        };
        let mut reader = BufReader::new(&mut counting);
        let mut payload = Vec::new();
        assert!(matches!(
            read_frame_bounded(&mut reader, &mut payload).unwrap(),
            Frame::Msg("GET 1 x")
        ));
        assert!(matches!(
            read_frame_bounded(&mut reader, &mut payload).unwrap(),
            Frame::Msg("NEW A")
        ));
        match read_frame_bounded(&mut reader, &mut payload).unwrap() {
            Frame::Batch {
                abort_on_error,
                stmts,
            } => {
                assert!(abort_on_error);
                assert_eq!(stmts, ["BEGIN", "COMMIT"]);
            }
            other => panic!("expected a batch, got {other:?}"),
        }
        drop(reader);
        assert_eq!(counting.reads, 1);

        // A frame larger than the 8 KiB read buffer: one read fills the
        // buffer with the prefix and the payload's head, and the rest of
        // the payload arrives with one read straight into the payload.
        let big = "x".repeat(3 << 13);
        let mut counting = CountingReader {
            input: std::io::Cursor::new(framed(big.as_bytes())),
            reads: 0,
        };
        let mut reader = BufReader::new(&mut counting);
        let mut payload = Vec::new();
        assert!(
            matches!(read_frame_bounded(&mut reader, &mut payload).unwrap(), Frame::Msg(s) if s == big)
        );
        drop(reader);
        assert_eq!(counting.reads, 2);
    }

    #[test]
    fn a_large_frame_gives_its_memory_back() {
        let big = "x".repeat(4 * SPARE_CAPACITY);
        let input = [framed(big.as_bytes()), framed(b"NEW A")].concat();
        let mut reader = BufReader::new(std::io::Cursor::new(input));
        let mut payload = Vec::new();
        assert!(
            matches!(read_frame_bounded(&mut reader, &mut payload).unwrap(), Frame::Msg(s) if s.len() == big.len())
        );
        assert!(matches!(
            read_frame_bounded(&mut reader, &mut payload).unwrap(),
            Frame::Msg("NEW A")
        ));
        assert!(payload.capacity() <= SPARE_CAPACITY);

        let mut out = FrameWriter::default();
        let mut sink = Vec::new();
        out.send_text(&mut sink, &big).unwrap();
        assert_eq!(sink.len(), 4 + big.len());
        assert!(out.buf.capacity() <= SPARE_CAPACITY);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A reader that hands its input out in chunks of the given
        /// sizes, cycling through them.
        struct Chunked {
            input: Vec<u8>,
            at: usize,
            sizes: Vec<usize>,
            next: usize,
        }

        impl Chunked {
            fn new(input: Vec<u8>, sizes: Vec<usize>) -> Chunked {
                Chunked {
                    input,
                    at: 0,
                    sizes,
                    next: 0,
                }
            }
        }

        impl Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let size = self.sizes[self.next % self.sizes.len()];
                self.next += 1;
                let n = size.min(buf.len()).min(self.input.len() - self.at);
                buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            }
        }

        /// An owned copy of a decoded frame.
        #[derive(Debug, Clone, PartialEq)]
        enum Owned {
            Msg(String),
            Batch(bool, Vec<String>),
        }

        impl Owned {
            fn encode(&self) -> Vec<u8> {
                match self {
                    Owned::Msg(s) => framed(s.as_bytes()),
                    Owned::Batch(abort, stmts) => {
                        let stmts: Vec<&str> = stmts.iter().map(String::as_str).collect();
                        framed(&batch_payload(&stmts, *abort))
                    }
                }
            }
        }

        /// Statement text over an alphabet with one-, two-, three- and
        /// four-byte UTF-8 characters and no STX byte, so a v1 frame
        /// never reads as a batch.
        fn text() -> impl Strategy<Value = String> {
            const ALPHABET: [char; 8] = ['a', 'Z', ' ', '\n', '0', 'é', '€', '😀'];
            prop::collection::vec(0..ALPHABET.len(), 0..24)
                .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
        }

        fn frame() -> impl Strategy<Value = Owned> {
            prop_oneof![
                text().prop_map(Owned::Msg),
                (any::<bool>(), prop::collection::vec(text(), 0..5))
                    .prop_map(|(abort, stmts)| Owned::Batch(abort, stmts)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any sequence of v1 and v2 frames, delivered in arbitrary
            /// chunks, decodes back to the same frames.
            #[test]
            fn frames_survive_any_chunking(
                frames in prop::collection::vec(frame(), 0..8),
                sizes in prop::collection::vec(1..16usize, 1..8),
            ) {
                let input: Vec<u8> = frames.iter().flat_map(Owned::encode).collect();
                let mut reader = BufReader::new(Chunked::new(input, sizes));
                let mut payload = Vec::new();
                let mut decoded = Vec::new();
                loop {
                    match read_frame_bounded(&mut reader, &mut payload).unwrap() {
                        Frame::Msg(s) => decoded.push(Owned::Msg(s.to_string())),
                        Frame::Batch { abort_on_error, stmts } => decoded.push(Owned::Batch(
                            abort_on_error,
                            stmts.iter().map(|s| s.to_string()).collect(),
                        )),
                        Frame::Eof => break,
                        Frame::Oversized(len) => prop_assert!(false, "oversized {len}"),
                    }
                }
                prop_assert_eq!(decoded, frames);
            }

            /// Arbitrary bytes behind an arbitrary length prefix never
            /// panic the decoder and never grow its payload buffer past
            /// MAX_FRAME; a prefix above MAX_FRAME is `Oversized` before
            /// anything is allocated.
            #[test]
            fn hostile_bytes_never_panic_or_overgrow(
                prefix in prop_oneof![
                    Just(0xFFFF_FFFF_u32),
                    Just(MAX_FRAME),
                    Just(MAX_FRAME + 1),
                    0..48u32,
                    any::<u32>(),
                ],
                magic in any::<bool>(),
                tail in prop::collection::vec(any::<u8>(), 0..64),
                sizes in prop::collection::vec(1..16usize, 1..4),
            ) {
                let mut input = prefix.to_le_bytes().to_vec();
                if magic {
                    input.push(BATCH_MAGIC);
                }
                input.extend_from_slice(&tail);
                let mut reader = BufReader::new(Chunked::new(input, sizes));
                let mut payload = Vec::new();
                for step in 0.. {
                    let outcome = read_frame_bounded(&mut reader, &mut payload);
                    if step == 0 && prefix > MAX_FRAME {
                        prop_assert!(
                            matches!(outcome, Ok(Frame::Oversized(len)) if len == prefix),
                            "{outcome:?}"
                        );
                    }
                    let done = !matches!(outcome, Ok(Frame::Msg(_) | Frame::Batch { .. }));
                    prop_assert!(payload.capacity() <= MAX_FRAME as usize);
                    if step == 0 && prefix > MAX_FRAME {
                        prop_assert_eq!(payload.capacity(), 0);
                    }
                    if done {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn dropped_connections_release_their_locks() {
        let server = Server::start(Engine::volatile(), "127.0.0.1:0", "t").unwrap();
        let mut a = connect(&server, "t");
        assert_eq!(exec(&mut a, "CREATE DATABASE d"), "OK");
        assert_eq!(exec(&mut a, "USE d"), "OK");
        assert_eq!(exec(&mut a, "CREATE CLASS C { FIELD v; }"), "OK");
        let oid = exec(&mut a, "NEW C");
        let oid = oid.strip_prefix("OK ").unwrap().to_string();
        assert_eq!(exec(&mut a, "BEGIN"), "OK");
        assert_eq!(exec(&mut a, &format!("CALL {oid} Touch SET v = 1")), "OK");
        drop(a); // connection dies with the write lock held
        let mut b = connect(&server, "t");
        assert_eq!(exec(&mut b, "USE d"), "OK");
        // The abort-on-drop must release the lock; retry while the server
        // notices the dead socket.
        let mut last = String::new();
        for _ in 0..50 {
            last = exec(&mut b, &format!("GET {oid} v"));
            if last == "OK 0" {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(last, "OK 0", "uncommitted write was rolled back");
        server.shutdown();
    }
}
