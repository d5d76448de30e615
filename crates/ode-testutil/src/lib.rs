//! Minimal test support utilities (kept dependency-free).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A temporary directory that is removed on drop.
///
/// Each instance gets a unique path under the system temp dir, namespaced by
/// process id so parallel test binaries never collide.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh empty directory with `prefix` in its name.
    pub fn new(prefix: &str) -> TempDir {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ode-{}-{}-{}", prefix, std::process::id(), n));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// First payload byte of an `ode-server` protocol-v2 batch frame
/// (mirrored here because this crate is intentionally dependency-free).
pub const BATCH_MAGIC: u8 = 0x02;

/// A blocking client for the `ode-server` wire protocol: length-prefixed
/// (`u32` little-endian) frames, `AUTH <token>` handshake, `OK`/`ERR`
/// replies. Protocol v1 sends one statement per frame
/// ([`WireClient::exec`]); protocol v2 sends N statements per frame
/// ([`WireClient::exec_batch`]) and can keep several frames in flight
/// ([`WireClient::pipeline_batches`]).
///
/// Lives here (std-only, no dependency on the server crate) so tests,
/// examples, and benches across the workspace can all drive a server.
/// Frame encode and decode go through per-client scratch buffers, so
/// steady-state round trips allocate nothing inside the client.
pub struct WireClient {
    stream: std::net::TcpStream,
    /// Outbound frame scratch: length prefix + payload, one `write_all`.
    wbuf: Vec<u8>,
    /// Inbound payload scratch.
    rbuf: Vec<u8>,
}

impl WireClient {
    /// Connect and authenticate. Errors on refused connection or bad
    /// token.
    pub fn connect(addr: &str, token: &str) -> std::io::Result<WireClient> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = WireClient {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
        };
        let reply = client.send(&format!("AUTH {token}"))?;
        if reply != "OK" {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                reply,
            ));
        }
        Ok(client)
    }

    /// Write one length-prefixed text frame from the encode scratch.
    fn write_text_frame(&mut self, payload: &str) -> std::io::Result<()> {
        use std::io::Write;
        self.wbuf.clear();
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload.as_bytes());
        self.stream.write_all(&self.wbuf)?;
        self.stream.flush()
    }

    /// Read one length-prefixed frame payload into the decode scratch.
    fn read_frame_into_scratch(&mut self) -> std::io::Result<()> {
        use std::io::Read;
        let mut len = [0u8; 4];
        self.stream.read_exact(&mut len)?;
        self.rbuf.resize(u32::from_le_bytes(len) as usize, 0);
        self.stream.read_exact(&mut self.rbuf)?;
        Ok(())
    }

    /// The decode scratch as UTF-8 (replies are text in both protocols'
    /// per-statement grammar).
    fn scratch_str(&self) -> std::io::Result<&str> {
        std::str::from_utf8(&self.rbuf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Send one frame and read the reply frame.
    pub fn send(&mut self, payload: &str) -> std::io::Result<String> {
        self.write_text_frame(payload)?;
        self.read_frame_into_scratch()?;
        self.scratch_str().map(str::to_string)
    }

    /// Execute a statement, panicking on an `ERR` reply; returns the
    /// payload (empty for plain `OK`).
    pub fn exec(&mut self, stmt: &str) -> String {
        let reply = self.send(stmt).expect("wire I/O");
        match reply.as_str() {
            "OK" => String::new(),
            _ => match reply
                .strip_prefix("OK ")
                .or_else(|| reply.strip_prefix("OK\n"))
            {
                Some(payload) => payload.to_string(),
                None => panic!("statement {stmt:?} failed: {reply}"),
            },
        }
    }

    /// Execute a statement, returning `Err(message)` on an `ERR` reply.
    pub fn try_exec(&mut self, stmt: &str) -> Result<String, String> {
        let reply = self.send(stmt).expect("wire I/O");
        match reply.as_str() {
            "OK" => Ok(String::new()),
            _ => match reply
                .strip_prefix("OK ")
                .or_else(|| reply.strip_prefix("OK\n"))
            {
                Some(payload) => Ok(payload.to_string()),
                None => Err(reply
                    .strip_prefix("ERR ")
                    .unwrap_or(reply.as_str())
                    .to_string()),
            },
        }
    }

    /// [`WireClient::exec`] without the per-call allocations: the reply
    /// payload is written into `out` (cleared first), so steady-state
    /// round trips reuse the client scratch buffers and `out`'s capacity.
    pub fn exec_into(&mut self, stmt: &str, out: &mut String) -> Result<(), String> {
        out.clear();
        self.write_text_frame(stmt).map_err(|e| e.to_string())?;
        self.read_frame_into_scratch().map_err(|e| e.to_string())?;
        let reply = self.scratch_str().map_err(|e| e.to_string())?;
        if reply == "OK" {
            return Ok(());
        }
        match reply
            .strip_prefix("OK ")
            .or_else(|| reply.strip_prefix("OK\n"))
        {
            Some(payload) => {
                out.push_str(payload);
                Ok(())
            }
            None => Err(reply.strip_prefix("ERR ").unwrap_or(reply).to_string()),
        }
    }

    /// Send `stmts` as one protocol-v2 batch frame without reading the
    /// reply — the send half of pipelining. Pair each call with one
    /// [`WireClient::read_batch_reply_into`].
    pub fn send_batch(&mut self, stmts: &[&str], abort_on_error: bool) -> std::io::Result<()> {
        use std::io::Write;
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&[0, 0, 0, 0]); // frame length, patched below
        self.wbuf.push(BATCH_MAGIC);
        self.wbuf.push(u8::from(abort_on_error));
        self.wbuf
            .extend_from_slice(&(stmts.len() as u32).to_le_bytes());
        for stmt in stmts {
            self.wbuf
                .extend_from_slice(&(stmt.len() as u32).to_le_bytes());
            self.wbuf.extend_from_slice(stmt.as_bytes());
        }
        let payload_len = (self.wbuf.len() - 4) as u32;
        self.wbuf[..4].copy_from_slice(&payload_len.to_le_bytes());
        self.stream.write_all(&self.wbuf)?;
        self.stream.flush()
    }

    /// Read one batch reply frame, decoding the per-statement replies
    /// into `replies` (reusing its `String`s' capacity). Returns the
    /// number of replies.
    pub fn read_batch_reply_into(&mut self, replies: &mut Vec<String>) -> std::io::Result<usize> {
        fn bad(msg: String) -> std::io::Error {
            std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
        }
        self.read_frame_into_scratch()?;
        let buf = &self.rbuf;
        if buf.first() != Some(&BATCH_MAGIC) {
            // A plain-text reply to a batch frame (a server that predates
            // protocol v2). Surface the message.
            return Err(bad(format!(
                "expected batch reply, got: {}",
                String::from_utf8_lossy(buf)
            )));
        }
        if buf.len() < 5 {
            return Err(bad("batch reply header truncated".into()));
        }
        let count = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
        while replies.len() < count {
            replies.push(String::new());
        }
        replies.truncate(count);
        let mut rest = &buf[5..];
        for reply in replies.iter_mut() {
            if rest.len() < 4 {
                return Err(bad("batch reply entry truncated".into()));
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            rest = &rest[4..];
            if rest.len() < len {
                return Err(bad("batch reply entry truncated".into()));
            }
            let text = std::str::from_utf8(&rest[..len]).map_err(|e| bad(e.to_string()))?;
            reply.clear();
            reply.push_str(text);
            rest = &rest[len..];
        }
        if !rest.is_empty() {
            return Err(bad("trailing bytes after batch reply".into()));
        }
        Ok(count)
    }

    /// Send `stmts` in one batch frame and return the per-statement
    /// replies (raw `OK …`/`ERR …` lines, in statement order).
    pub fn exec_batch(
        &mut self,
        stmts: &[&str],
        abort_on_error: bool,
    ) -> std::io::Result<Vec<String>> {
        let mut replies = Vec::new();
        self.send_batch(stmts, abort_on_error)?;
        self.read_batch_reply_into(&mut replies)?;
        Ok(replies)
    }

    /// Pipelined send-ahead: stream `frames` keeping up to `window`
    /// batch frames in flight, invoking `on_replies` with each frame's
    /// replies in order. `window == 1` degenerates to [`Self::exec_batch`]
    /// in a loop.
    pub fn pipeline_batches<'a, I>(
        &mut self,
        frames: I,
        window: usize,
        abort_on_error: bool,
        mut on_replies: impl FnMut(&[String]),
    ) -> std::io::Result<()>
    where
        I: IntoIterator<Item = &'a [&'a str]>,
    {
        let window = window.max(1);
        let mut in_flight = 0usize;
        let mut replies = Vec::new();
        for frame in frames {
            self.send_batch(frame, abort_on_error)?;
            in_flight += 1;
            if in_flight == window {
                self.read_batch_reply_into(&mut replies)?;
                on_replies(&replies);
                in_flight -= 1;
            }
        }
        while in_flight > 0 {
            self.read_batch_reply_into(&mut replies)?;
            on_replies(&replies);
            in_flight -= 1;
        }
        Ok(())
    }

    /// Run `body` as a transaction, retrying the whole block when it is
    /// torn down by a deadlock or lock timeout — the client-side analogue
    /// of `Database::with_txn_retry`. `body` returns `Ok(Some(value))` to
    /// commit, `Ok(None)` to abort cleanly, `Err` to bubble a real error.
    pub fn with_txn_retry<R>(
        &mut self,
        max_attempts: usize,
        mut body: impl FnMut(&mut WireClient) -> Result<Option<R>, String>,
    ) -> Result<Option<R>, String> {
        for attempt in 0.. {
            self.try_exec("BEGIN")?;
            match body(self) {
                Ok(Some(value)) => match self.try_exec("COMMIT") {
                    Ok(_) => return Ok(Some(value)),
                    Err(e) if retryable(&e) && attempt + 1 < max_attempts => continue,
                    Err(e) => return Err(e),
                },
                Ok(None) => {
                    self.try_exec("ABORT").ok();
                    return Ok(None);
                }
                // A failed statement already aborted the transaction.
                Err(e) if retryable(&e) && attempt + 1 < max_attempts => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!()
    }
}

/// Whether a wire error message names a transient conflict worth
/// retrying.
fn retryable(message: &str) -> bool {
    message.contains("deadlock") || message.contains("lock timeout")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdir_creates_and_removes() {
        let kept;
        {
            let d = TempDir::new("t");
            kept = d.path().to_path_buf();
            assert!(kept.is_dir());
            std::fs::write(d.file("x"), b"y").unwrap();
        }
        assert!(!kept.exists());
    }

    #[test]
    fn tempdirs_are_distinct() {
        let a = TempDir::new("t");
        let b = TempDir::new("t");
        assert_ne!(a.path(), b.path());
    }
}
