//! Byte-stream transports for the framed protocol.
//!
//! [`Server::serve_connection`] runs one connection over any
//! `(Read, Write)` pair: the reader loop (on the calling thread)
//! decodes [`Request`] frames and pushes them through admission, a
//! spawned writer thread streams [`Response`] frames back as tasks
//! complete — so a connection can pipeline submissions and receives
//! completions in completion order. Works unchanged over an OS socket
//! (pass the two halves of a `UnixStream`/`TcpStream` via `try_clone`)
//! or fully in-process over the [`pipe`] transport, which is what the
//! tests and the demo use.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use crate::admission::AdmissionError;
use crate::server::{Completed, Delivery, Reply, ServeError, Server, TenantClient};
use crate::wire::{read_frame, write_frame, Request, Response, WireOutcome, WIRE_VERSION};

impl From<Delivery> for WireOutcome {
    fn from(delivery: Delivery) -> WireOutcome {
        match delivery {
            Ok(Completed {
                value,
                stats,
                attempts,
                ..
            }) => WireOutcome::Ok {
                value,
                cycles: stats.cycles,
                attempts,
            },
            // A deadline expiry is a rejection with a stable code, not
            // a device failure: the task never (usefully) ran.
            Err(e @ ServeError::DeadlineExceeded) => WireOutcome::Rejected {
                code: e.code().into(),
                detail: e.to_string(),
            },
            Err(e) => WireOutcome::Failed {
                detail: e.to_string(),
            },
        }
    }
}

fn rejection(id: u64, code: &str, detail: String) -> Response {
    Response {
        id,
        outcome: WireOutcome::Rejected {
            code: code.into(),
            detail,
        },
    }
}

impl Server {
    /// Serves one framed-protocol connection until the peer closes its
    /// write side, then drains every in-flight response and returns.
    /// The reader loop runs on the calling thread; responses are
    /// written by a spawned writer thread sharing the (mutexed) write
    /// half, so completions flow back while the reader is blocked.
    ///
    /// # Errors
    ///
    /// I/O errors from either stream half, and protocol errors
    /// (malformed frames) as `InvalidData`.
    pub fn serve_connection<R, W>(&self, mut reader: R, writer: W) -> io::Result<()>
    where
        R: Read,
        W: Write + Send + 'static,
    {
        let writer = Arc::new(Mutex::new(writer));
        let (tx, rx) = mpsc::channel::<(u64, Delivery)>();
        let writer_half = Arc::clone(&writer);
        let writer_thread = thread::Builder::new()
            .name("gendp-serve-conn-writer".into())
            .spawn(move || {
                while let Ok((id, delivery)) = rx.recv() {
                    let response = Response {
                        id,
                        outcome: delivery.into(),
                    };
                    let mut w = writer_half.lock().expect("writer lock");
                    if write_frame(&mut *w, &response.encode()).is_err() || w.flush().is_err() {
                        break;
                    }
                }
            })?;

        let mut clients: HashMap<String, Option<TenantClient>> = HashMap::new();
        let respond_now = |response: Response| -> io::Result<()> {
            let mut w = writer.lock().expect("writer lock");
            write_frame(&mut *w, &response.encode())?;
            w.flush()
        };

        let served = loop {
            let (version, payload) = match read_frame(&mut reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            };
            // Unknown versions and undecodable payloads get a
            // structured error frame and keep the connection open: the
            // frame layout (length prefix) is version-invariant, so we
            // can always resynchronize at the next frame boundary.
            if version != WIRE_VERSION {
                respond_now(Response {
                    id: 0,
                    outcome: WireOutcome::Error {
                        code: "unsupported-version".into(),
                        detail: format!(
                            "frame version {version}, this server speaks {WIRE_VERSION}"
                        ),
                    },
                })?;
                continue;
            }
            let request = match Request::decode(&payload) {
                Ok(request) => request,
                Err(e) => {
                    respond_now(Response {
                        id: 0,
                        outcome: WireOutcome::Error {
                            code: "bad-frame".into(),
                            detail: e.to_string(),
                        },
                    })?;
                    continue;
                }
            };
            match request {
                Request::Ping { id } => respond_now(Response {
                    id,
                    outcome: WireOutcome::Pong,
                })?,
                Request::ShardStatus { id } => respond_now(Response {
                    id,
                    outcome: WireOutcome::ShardStatus(self.shard_status()),
                })?,
                Request::Submit { id, tenant, task } => {
                    // Resolve each tenant name once per connection;
                    // remember misses too so a bad name stays cheap.
                    let client = clients
                        .entry(tenant.clone())
                        .or_insert_with_key(|name| self.client(name));
                    let outcome = match client {
                        None => Err(AdmissionError::UnknownTenant(tenant)),
                        Some(client) => client.submit_with_reply(
                            task,
                            Reply::Tagged {
                                tx: tx.clone(),
                                tag: id,
                            },
                        ),
                    };
                    if let Err(e) = outcome {
                        respond_now(rejection(id, e.code(), e.to_string()))?;
                    }
                }
            }
        };

        // Dropping our sender ends the writer thread once every
        // outstanding submission has delivered its tagged reply (each
        // in-flight request holds a clone).
        drop(tx);
        drop(writer_thread.join());
        served
    }
}

/// One direction of an in-process byte stream: a bounded buffer with
/// blocking reads and writes, mirroring a socket's semantics (EOF when
/// the writer drops, `BrokenPipe` when the reader drops).
struct PipeShared {
    state: Mutex<PipeState>,
    cond: Condvar,
}

struct PipeState {
    buf: VecDeque<u8>,
    writer_closed: bool,
    reader_closed: bool,
}

/// Capacity before writes block — small enough to exercise real
/// backpressure in tests.
const PIPE_CAPACITY: usize = 1 << 16;

/// Read half of an in-process [`pipe`].
pub struct PipeReader {
    shared: Arc<PipeShared>,
}

/// Write half of an in-process [`pipe`].
pub struct PipeWriter {
    shared: Arc<PipeShared>,
}

/// Creates an in-process unidirectional byte pipe. Use two, crossed,
/// for a full duplex connection (see [`duplex`]).
pub fn pipe() -> (PipeWriter, PipeReader) {
    let shared = Arc::new(PipeShared {
        state: Mutex::new(PipeState {
            buf: VecDeque::new(),
            writer_closed: false,
            reader_closed: false,
        }),
        cond: Condvar::new(),
    });
    (
        PipeWriter {
            shared: Arc::clone(&shared),
        },
        PipeReader { shared },
    )
}

/// Creates a pair of connected in-process duplex endpoints — the
/// channel transport. Hand one end to [`Server::serve_connection`] and
/// drive the other from a client.
pub fn duplex() -> ((PipeReader, PipeWriter), (PipeReader, PipeWriter)) {
    let (a_writer, b_reader) = pipe();
    let (b_writer, a_reader) = pipe();
    ((a_reader, a_writer), (b_reader, b_writer))
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut state = self.shared.state.lock().expect("pipe lock");
        loop {
            if !state.buf.is_empty() {
                let n = out.len().min(state.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = state.buf.pop_front().expect("non-empty");
                }
                // Wake a writer blocked on capacity.
                self.shared.cond.notify_all();
                return Ok(n);
            }
            if state.writer_closed {
                return Ok(0);
            }
            state = self.shared.cond.wait(state).expect("pipe lock");
        }
    }
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let mut state = self.shared.state.lock().expect("pipe lock");
        loop {
            if state.reader_closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "reader closed"));
            }
            let room = PIPE_CAPACITY.saturating_sub(state.buf.len());
            if room > 0 {
                let n = room.min(data.len());
                state.buf.extend(&data[..n]);
                self.shared.cond.notify_all();
                return Ok(n);
            }
            state = self.shared.cond.wait(state).expect("pipe lock");
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pipe lock").reader_closed = true;
        self.shared.cond.notify_all();
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pipe lock").writer_closed = true;
        self.shared.cond.notify_all();
    }
}

/// A minimal synchronous client for the framed protocol, generic over
/// the stream halves.
pub struct WireClient<R: Read, W: Write> {
    reader: R,
    writer: W,
    next_id: u64,
}

impl<R: Read, W: Write> WireClient<R, W> {
    /// Wraps a connected stream pair.
    pub fn new(reader: R, writer: W) -> WireClient<R, W> {
        WireClient {
            reader,
            writer,
            next_id: 1,
        }
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.writer, &request.encode())?;
        self.writer.flush()
    }

    /// Sends one submission without waiting; returns its correlation
    /// id. Pair with [`WireClient::recv`] to pipeline.
    ///
    /// # Errors
    ///
    /// I/O errors on the write half.
    pub fn submit(&mut self, tenant: &str, task: gendp_runtime::Task) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::Submit {
            id,
            tenant: tenant.into(),
            task,
        })?;
        Ok(id)
    }

    /// Receives the next response, in completion order. `Ok(None)` on a
    /// cleanly closed connection.
    ///
    /// # Errors
    ///
    /// I/O errors, and protocol errors (malformed frames or a frame
    /// version this client does not speak) as `InvalidData`.
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        match read_frame(&mut self.reader)? {
            None => Ok(None),
            Some((version, payload)) => {
                if version != WIRE_VERSION {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame version {version}, this client speaks {WIRE_VERSION}"),
                    ));
                }
                Ok(Some(Response::decode(&payload)?))
            }
        }
    }

    /// Round-trips a shard-status probe.
    ///
    /// # Errors
    ///
    /// I/O and protocol errors, including an unexpected response type.
    pub fn shard_status(&mut self) -> io::Result<Vec<crate::wire::ShardStatusFrame>> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::ShardStatus { id })?;
        match self.recv()? {
            Some(Response {
                id: got,
                outcome: WireOutcome::ShardStatus(shards),
            }) if got == id => Ok(shards),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected shard status for {id}, got {other:?}"),
            )),
        }
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// I/O and protocol errors, including an unexpected response type.
    pub fn ping(&mut self) -> io::Result<()> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Request::Ping { id })?;
        match self.recv()? {
            Some(Response {
                id: got,
                outcome: WireOutcome::Pong,
            }) if got == id => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected pong for {id}, got {other:?}"),
            )),
        }
    }
}

#[cfg(unix)]
impl Server {
    /// Serves one Unix-domain stream (both halves via `try_clone`).
    ///
    /// # Errors
    ///
    /// `try_clone` failures and any [`Server::serve_connection`] error.
    pub fn serve_unix_stream(&self, stream: std::os::unix::net::UnixStream) -> io::Result<()> {
        let writer = stream.try_clone()?;
        self.serve_connection(stream, writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_moves_bytes_and_signals_eof() {
        let (mut writer, mut reader) = pipe();
        writer.write_all(b"abcdef").unwrap();
        let mut buf = [0u8; 4];
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
        drop(writer);
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"ef");
    }

    #[test]
    fn pipe_write_after_reader_drop_is_broken_pipe() {
        let (mut writer, reader) = pipe();
        drop(reader);
        let err = writer.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn pipe_blocks_and_resumes_across_threads() {
        let (mut writer, mut reader) = pipe();
        let producer = thread::spawn(move || {
            // Larger than PIPE_CAPACITY: forces the writer to block on
            // backpressure until the reader drains.
            let data: Vec<u8> = (0..(PIPE_CAPACITY * 3)).map(|i| i as u8).collect();
            writer.write_all(&data).unwrap();
            data
        });
        let mut got = Vec::new();
        reader.read_to_end(&mut got).unwrap();
        let sent = producer.join().unwrap();
        assert_eq!(got, sent);
    }
}
