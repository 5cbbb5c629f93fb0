//! In-process `serve` endpoints for the socket workloads: spawn one on a
//! loopback port, send it single frames (`Status`, `Shutdown`), and stop
//! it, joining its thread.

use fd_droidsim::proto::{decode_payload, encode_frame, Envelope, FrameBuffer};
use fragdroid::{
    serve_listener, AnyStream, ListenAddr, ServeListener, ServeOptions, ServeRequest,
    ServeResponse, ServeSummary,
};
use std::io::{Read, Write};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running endpoint and the thread that serves it.
pub struct Endpoint {
    /// Where it listens.
    pub addr: ListenAddr,
    handle: JoinHandle<Result<ServeSummary, String>>,
}

/// Binds a loopback port and serves it on a new thread.
pub fn spawn(options: ServeOptions) -> Result<Endpoint, String> {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string()))
        .map_err(|e| format!("bind a loopback endpoint: {e}"))?;
    let addr = listener.local_addr().clone();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off()).map_err(|e| e.to_string())
    });
    Ok(Endpoint { addr, handle })
}

/// Sends one request on a fresh connection and reads its one reply.
pub fn call(addr: &ListenAddr, body: ServeRequest) -> Result<ServeResponse, String> {
    let mut stream = AnyStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    stream
        .write_all(&encode_frame(&Envelope { id: 1, body }))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut frames = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(payload) = frames.next_frame().map_err(|e| format!("bad frame: {e}"))? {
            let reply: Envelope<ServeResponse> =
                decode_payload(&payload).map_err(|e| format!("bad reply: {e}"))?;
            return Ok(reply.body);
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("endpoint hung up before replying".to_string());
        }
        frames.push(&chunk[..n]);
    }
}

/// `(completed, rejected, queued + running)` from a `Status` frame.
pub fn status(addr: &ListenAddr) -> Result<(u64, u64, u64), String> {
    match call(addr, ServeRequest::Status)? {
        ServeResponse::Status { queued, running, completed, rejected, .. } => {
            Ok((completed, rejected, queued + running))
        }
        other => Err(format!("unexpected Status reply {other:?}")),
    }
}

/// Polls `Status` until `completed` reaches `want` (or 60 s pass).
pub fn wait_completed(addr: &ListenAddr, want: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (completed, rejected, _) = status(addr)?;
        if rejected > 0 {
            return Err(format!("{rejected} jobs rejected"));
        }
        if completed >= want {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("only {completed} of {want} jobs completed within 60 s"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

impl Endpoint {
    /// Orderly shutdown: `Shutdown` frame, wait for `Bye`, join the thread.
    pub fn stop(self) -> Result<ServeSummary, String> {
        match call(&self.addr, ServeRequest::Shutdown)? {
            ServeResponse::Bye => {}
            other => return Err(format!("unexpected Shutdown reply {other:?}")),
        }
        self.handle.join().map_err(|_| "endpoint thread panicked".to_string())?
    }
}
