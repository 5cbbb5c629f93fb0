//! A frame-counting loopback relay for traced serve runs: clients connect
//! to the relay, which forwards bytes both ways to the real endpoint and
//! logs every frame it sees — when, which way, what kind, for which job,
//! and how many bytes. This is the client-side view of the serve layer
//! (admission, settle, polls, busy retries, wire bytes) without touching
//! the client or the server.

use fd_droidsim::proto::{decode_payload, FrameBuffer};
use fragdroid::{ListenAddr, ServeRequest, ServeResponse};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The frame kinds the waterfall needs; everything else is `Other`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Client → server `Submit`.
    Submit,
    /// Client → server `Poll`.
    Poll,
    /// Server → client `Accepted`.
    Accepted,
    /// Server → client `Busy`.
    Busy,
    /// Server → client `Report` or `Rejected` (the job settled).
    Settled,
    /// Anything else (`Pending`, `Status`, ...).
    Other,
}

/// One frame seen on the relay.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// Relay connection number.
    pub conn: u64,
    /// When the frame was complete on the relay.
    pub at: Instant,
    /// What it was.
    pub kind: Kind,
    /// The job it names, if any.
    pub job: Option<u64>,
    /// Its size on the wire, including the length prefix.
    pub bytes: usize,
}

/// A running relay. [`Relay::stop`] joins every thread it started.
pub struct Relay {
    /// Where clients connect.
    pub addr: ListenAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<Vec<JoinHandle<()>>>,
    log: Arc<Mutex<Vec<Frame>>>,
}

impl Relay {
    /// Starts a relay in front of the TCP endpoint `upstream`.
    pub fn start(upstream: &ListenAddr) -> Result<Relay, String> {
        let ListenAddr::Tcp(upstream) = upstream.clone() else {
            return Err("the relay forwards to TCP endpoints only".to_string());
        };
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind relay: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let (stop, log) = (stop.clone(), log.clone());
            std::thread::spawn(move || {
                let conns = AtomicU64::new(0);
                let mut pumps = Vec::new();
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = client else { continue };
                    let Ok(server) = TcpStream::connect(&upstream) else { continue };
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    let conn = conns.fetch_add(1, Ordering::Relaxed);
                    let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone())
                    else {
                        continue;
                    };
                    let up_log = log.clone();
                    pumps.push(std::thread::spawn(move || {
                        pump::<ServeRequest>(client, server, conn, &up_log)
                    }));
                    let down_log = log.clone();
                    pumps.push(std::thread::spawn(move || {
                        pump::<ServeResponse>(server2, client2, conn, &down_log)
                    }));
                }
                pumps
            })
        };
        Ok(Relay { addr: ListenAddr::Tcp(addr), stop, accept, log })
    }

    /// Stops accepting, waits for every forwarded connection to close, and
    /// returns the frame log in arrival order.
    pub fn stop(self) -> Vec<Frame> {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with one throwaway connection.
        if let ListenAddr::Tcp(addr) = &self.addr {
            let _ = TcpStream::connect(addr);
        }
        let pumps = self.accept.join().unwrap_or_default();
        for pump in pumps {
            let _ = pump.join();
        }
        let mut log = std::mem::take(&mut *self.log.lock().expect("relay log poisoned"));
        log.sort_by_key(|f| f.at);
        log
    }
}

/// Classifies one decoded frame.
trait Classify: serde::Deserialize {
    fn classify(&self) -> (Kind, Option<u64>);
}

impl Classify for ServeRequest {
    fn classify(&self) -> (Kind, Option<u64>) {
        match self {
            ServeRequest::Submit { job, .. } => (Kind::Submit, Some(*job)),
            ServeRequest::Poll { job } => (Kind::Poll, Some(*job)),
            _ => (Kind::Other, None),
        }
    }
}

impl Classify for ServeResponse {
    fn classify(&self) -> (Kind, Option<u64>) {
        match self {
            ServeResponse::Accepted { job } => (Kind::Accepted, Some(*job)),
            ServeResponse::Busy { job, .. } => (Kind::Busy, Some(*job)),
            ServeResponse::Report { job, .. } | ServeResponse::Rejected { job, .. } => {
                (Kind::Settled, Some(*job))
            }
            ServeResponse::Pending { job } => (Kind::Other, Some(*job)),
            _ => (Kind::Other, None),
        }
    }
}

/// Copies `from` → `to` until either side closes, logging each complete
/// frame; then half-closes `to` so the peer sees the end too.
fn pump<T: Classify>(mut from: TcpStream, mut to: TcpStream, conn: u64, log: &Mutex<Vec<Frame>>) {
    let mut frames = FrameBuffer::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        let n = match from.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if to.write_all(&chunk[..n]).is_err() {
            break;
        }
        let at = Instant::now();
        frames.push(&chunk[..n]);
        while let Ok(Some(payload)) = frames.next_frame() {
            // A frame is `LEN SP payload LF`.
            let bytes = payload.len() + payload.len().to_string().len() + 2;
            let (kind, job) = match decode_payload::<T>(&payload) {
                Ok(envelope) => envelope.body.classify(),
                Err(_) => (Kind::Other, None),
            };
            log.lock().expect("relay log poisoned").push(Frame { conn, at, kind, job, bytes });
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}
