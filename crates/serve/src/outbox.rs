//! Bounded per-connection send queues: the backpressure boundary
//! between job execution and client sockets.
//!
//! Submission handling and job execution must never perform socket I/O
//! themselves — the `ack`/`reject` frame is emitted under the
//! [`crate::queue::JobQueue`] state lock (to pin its ordering before
//! the job becomes claimable), and a blocking write there would let one
//! stalled client freeze every tenant's admission path; a blocking
//! write from a worker thread would pin the worker for as long as the
//! client dawdles. Instead every frame producer pushes into the
//! connection's [`Outbox`] — a bounded in-memory queue drained by a
//! dedicated writer thread that owns all socket writes for that
//! connection.
//!
//! Overload policy: a client that stops reading fills first its socket
//! buffers (the writer blocks, bounded by the configured write
//! timeout), then the outbox. On overflow — or on any write error or
//! timeout — the connection is *condemned*: the socket is shut down,
//! queued frames are dropped, and every later push becomes a no-op.
//! The jobs themselves still run to completion and feed the admission
//! accounting; only their frames vanish, exactly like writing to a
//! disconnected client before this layer existed. Memory per
//! connection is bounded by `cap` frames — which must exceed the
//! largest single-job frame burst, because a completed job's whole
//! transcript is enqueued faster than the writer can drain it and
//! overflow condemns reading clients just the same.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

#[derive(Default)]
struct OutboxState {
    /// Queued frames, each already terminated by `\n`.
    frames: VecDeque<String>,
    /// The writer has popped a frame and is writing it to the socket.
    writing: bool,
    /// No further pushes will arrive; the writer drains and exits.
    closed: bool,
    /// Connection condemned (overflow / write failure): drop
    /// everything, every push is a no-op, the writer exits.
    dead: bool,
}

/// One connection's bounded send queue plus the socket its writer
/// thread drains into. Shared (`Arc`) between the connection handler,
/// the job sinks and the writer thread.
pub struct Outbox {
    cap: usize,
    stream: TcpStream,
    state: Mutex<OutboxState>,
    cvar: Condvar,
}

impl Outbox {
    /// Wraps `stream` in an outbox holding at most `cap` frames, sets
    /// the socket write timeout to `send_timeout_s`, and spawns the
    /// writer thread. Frames pushed before the writer is condemned are
    /// written in push order, one line each.
    pub fn spawn(stream: TcpStream, cap: usize, send_timeout_s: f64) -> Arc<Outbox> {
        // A zero timeout would disable the guard entirely; clamp into a
        // sane floor instead (config validates this upstream too).
        let timeout = Duration::from_secs_f64(send_timeout_s.max(0.01));
        let _ = stream.set_write_timeout(Some(timeout));
        let outbox = Arc::new(Outbox {
            cap: cap.max(1),
            stream,
            state: Mutex::new(OutboxState::default()),
            cvar: Condvar::new(),
        });
        let writer = Arc::clone(&outbox);
        let _ = std::thread::Builder::new()
            .name("serve-outbox".to_string())
            .spawn(move || writer.run_writer());
        outbox
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutboxState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one frame. Never blocks beyond the brief state mutex —
    /// safe to call under the queue lock. Pushing past `cap` condemns
    /// the connection (the client has demonstrably stopped reading).
    pub fn push(&self, frame: &str) {
        let mut line = String::with_capacity(frame.len() + 1);
        line.push_str(frame);
        line.push('\n');
        let mut g = self.lock();
        if g.dead || g.closed {
            return;
        }
        if g.frames.len() >= self.cap {
            Self::condemn_locked(&mut g, &self.stream);
        } else {
            g.frames.push_back(line);
        }
        drop(g);
        self.cvar.notify_all();
    }

    /// Announces that no further frames will be pushed: the writer
    /// drains what is queued and exits. Called when the last sink
    /// handle for the connection drops.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cvar.notify_all();
    }

    /// `true` once the connection has been condemned (overflow, write
    /// error or timeout).
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// Blocks until every queued frame has been written to the socket,
    /// the connection is condemned, or `timeout` elapses. The one
    /// caller that needs a delivery guarantee is the `shutdown`
    /// request's `bye` frame: the process exits right after, which
    /// would race the writer thread.
    pub fn drain(&self, timeout: Duration) {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.lock();
        while !g.dead && (!g.frames.is_empty() || g.writing) {
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return;
            };
            g = self
                .cvar
                .wait_timeout(g, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Marks the connection dead, drops queued frames and shuts the
    /// socket down (which also pops the connection's reader out of its
    /// blocking read).
    fn condemn_locked(g: &mut OutboxState, stream: &TcpStream) {
        g.dead = true;
        g.frames.clear();
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// The writer thread: pops frames in order and performs the only
    /// socket writes for this connection. Exits when the outbox is
    /// closed and drained, or as soon as it is condemned.
    fn run_writer(&self) {
        loop {
            let frame = {
                let mut g = self.lock();
                loop {
                    if g.dead {
                        return;
                    }
                    if let Some(frame) = g.frames.pop_front() {
                        g.writing = true;
                        break frame;
                    }
                    if g.closed {
                        return;
                    }
                    g = self.cvar.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Write outside the state lock: pushes stay non-blocking
            // while the socket dawdles. A failed or timed-out write
            // condemns the connection; remaining frames are dropped.
            // One write per line: a separate newline write would be a
            // second small segment, held back until the client ACKs.
            let mut sock = &self.stream;
            let written = sock
                .write_all(frame.as_bytes())
                .and_then(|()| sock.flush())
                .is_ok();
            let mut g = self.lock();
            g.writing = false;
            if !written {
                Self::condemn_locked(&mut g, &self.stream);
            }
            drop(g);
            self.cvar.notify_all();
            if !written {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpListener;

    /// A connected localhost socket pair.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (server, client)
    }

    #[test]
    fn frames_arrive_in_push_order_and_close_drains() {
        let (server, client) = pair();
        let outbox = Outbox::spawn(server, 64, 5.0);
        for i in 0..10 {
            outbox.push(&format!("frame-{i}"));
        }
        outbox.close();
        let mut reader = BufReader::new(client);
        for i in 0..10 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim_end(), format!("frame-{i}"));
        }
        assert!(!outbox.is_dead(), "a clean drain is not a condemnation");
        // The stream lives as long as the outbox: once the writer has
        // exited and the last handle drops, the client sees EOF.
        drop(outbox);
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);
    }

    /// Regression: the `bye` frame used to race process exit once
    /// writes moved onto the writer thread — `drain` must not return
    /// before queued frames are on the wire.
    #[test]
    fn drain_blocks_until_frames_hit_the_wire() {
        let (server, client) = pair();
        let outbox = Outbox::spawn(server, 64, 5.0);
        for i in 0..5 {
            outbox.push(&format!("d-{i}"));
        }
        outbox.drain(Duration::from_secs(10));
        // Every frame is in the kernel buffer already: reads complete
        // even though the outbox is still open.
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(client);
        for i in 0..5 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim_end(), format!("d-{i}"));
        }
    }

    /// Regression (review): a client that bursts submits without
    /// draining responses used to block the ack write — while the
    /// global queue lock was held. Now the stall is absorbed by the
    /// bounded outbox: pushes stay non-blocking, the connection is
    /// condemned on overflow, and memory stays bounded.
    #[test]
    fn stalled_client_overflows_and_is_condemned_without_blocking() {
        let (server, client) = pair();
        // Tiny queue, short write timeout, and a payload large enough
        // to fill the kernel socket buffers quickly.
        let outbox = Outbox::spawn(server, 4, 0.2);
        let big = "x".repeat(1 << 20);
        let start = std::time::Instant::now();
        for _ in 0..64 {
            outbox.push(&big); // never blocks, whatever the socket does
            if outbox.is_dead() {
                break;
            }
        }
        // The writer hits the send timeout (or the queue overflows)
        // and condemns the connection promptly.
        while !outbox.is_dead() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "condemnation must arrive in bounded time"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "pushes must not block on a stalled client"
        );
        // Pushes after death are silent no-ops.
        outbox.push("late");
        outbox.close();
        // The client side sees the connection shut down.
        let mut sink = Vec::new();
        let mut client = client;
        let _ = client.read_to_end(&mut sink);
        drop(client);
    }
}
