//! Tests for the serve state machine, the socket front end, the
//! crash-safe job journal, and the retrying client.

use super::*;
use fd_droidsim::proto::to_hex;
use journal::JobJournal;
use std::os::unix::net::UnixStream;
use std::path::Path;

fn request(id: u64, body: ServeRequest) -> Vec<u8> {
    encode_frame(&Envelope { id, body })
}

/// Reads exactly one reply frame off the stream.
fn read_reply<R: Read>(stream: &mut R) -> Envelope<ServeResponse> {
    read_replies(stream, 1).remove(0)
}

/// Reads exactly `n` reply frames off the stream, however the server's
/// writes coalesce.
fn read_replies<R: Read>(stream: &mut R, n: usize) -> Vec<Envelope<ServeResponse>> {
    let mut frames = FrameBuffer::new();
    let mut replies = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    while replies.len() < n {
        match frames.next_frame().expect("server frames are well-formed") {
            Some(payload) => replies.push(decode_payload(&payload).expect("server replies decode")),
            None => {
                let read = stream.read(&mut chunk).expect("read reply");
                assert_ne!(read, 0, "server hung up mid-conversation");
                frames.push(&chunk[..read]);
            }
        }
    }
    replies
}

/// The quickstart app as (hex container, known inputs).
fn quickstart() -> (String, BTreeMap<String, String>) {
    let generated = fd_appgen::templates::quickstart();
    (to_hex(&fd_apk::pack(&generated.app)), generated.known_inputs)
}

fn quickstart_submission(job: u64) -> ServeRequest {
    let (container_hex, inputs) = quickstart();
    ServeRequest::Submit { job, container_hex, inputs }
}

/// Spawns a stdio serve loop on a thread over a socketpair, returning
/// the client end and the join handle.
fn spawn_server(
    options: ServeOptions,
) -> (UnixStream, std::thread::JoinHandle<Result<fd_trace::Trace, ServeError>>) {
    let (client, server) = UnixStream::pair().expect("socketpair");
    let handle = std::thread::spawn(move || {
        let reader = server.try_clone().expect("clone server end");
        serve(reader, server, &options, &fd_trace::TraceConfig::on())
    });
    (client, handle)
}

/// A fresh path under the system temp dir.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fd-serve-test-{}-{name}", std::process::id()))
}

/// Polls `job` on a raw stream until it settles into a `Report`.
fn poll_for_report(client: &mut UnixStream, job: u64) -> String {
    let mut poll_id = 1000 + job * 100;
    loop {
        client.write_all(&request(poll_id, ServeRequest::Poll { job })).expect("poll");
        let reply = read_reply(client);
        assert_eq!(reply.id, poll_id);
        poll_id += 1;
        match reply.body {
            ServeResponse::Pending { .. } => std::thread::sleep(Duration::from_millis(5)),
            ServeResponse::Report { job: done, json } => {
                assert_eq!(done, job);
                return json;
            }
            other => panic!("expected Pending/Report, got {other:?}"),
        }
    }
}

/// Connects to a socket server and performs an orderly shutdown.
fn shutdown_socket(addr: &ListenAddr) {
    let mut stream = AnyStream::connect(addr).expect("connect for shutdown");
    stream.write_all(&request(9999, ServeRequest::Shutdown)).expect("send shutdown");
    stream.flush().expect("flush shutdown");
    assert_eq!(read_reply(&mut stream).body, ServeResponse::Bye);
}

#[test]
fn submit_poll_status_shutdown_round_trip() {
    let (mut client, handle) = spawn_server(ServeOptions::default());
    client.write_all(&request(1, quickstart_submission(7))).expect("submit");
    let accepted = read_reply(&mut client);
    assert_eq!(accepted.id, 1);
    assert_eq!(accepted.body, ServeResponse::Accepted { job: 7 }, "client-assigned id echoes");

    let json = poll_for_report(&mut client, 7);
    let report: crate::report::RunReport =
        serde_json::from_str(&json).expect("served report parses");
    assert_eq!(report.activity_coverage().visited, 3, "quickstart visits 3 activities");

    client.write_all(&request(50, ServeRequest::Status)).expect("status");
    match read_reply(&mut client).body {
        ServeResponse::Status { completed, rejected, .. } => {
            assert_eq!((completed, rejected), (1, 0));
        }
        other => panic!("expected Status, got {other:?}"),
    }

    client.write_all(&request(99, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    let trace = handle.join().expect("no panic").expect("no serve error");
    let summary = fd_trace::TraceSummary::compute(&trace);
    let submitted = trace
        .records
        .iter()
        .filter(|r| match r {
            fd_trace::TraceRecord::Event(e) => {
                matches!(e.event, fd_trace::TraceEvent::JobSubmitted { .. })
            }
            _ => false,
        })
        .count();
    assert_eq!(submitted, 1, "one submission traced");
    assert!(summary.records > 0);
    assert_eq!(summary.drains, 1, "orderly shutdown traced as a drain");
}

#[test]
fn bad_hex_and_rejected_containers_are_pollable_refusals() {
    let (mut client, handle) = spawn_server(ServeOptions::default());
    client
        .write_all(&request(
            1,
            ServeRequest::Submit {
                job: 1,
                container_hex: "zz".to_string(),
                inputs: BTreeMap::new(),
            },
        ))
        .expect("submit bad hex");
    assert_eq!(
        read_reply(&mut client).body,
        ServeResponse::Accepted { job: 1 },
        "bad hex is still accepted; the refusal is pollable"
    );
    client
        .write_all(&request(
            2,
            ServeRequest::Submit {
                job: 2,
                container_hex: to_hex(b"not a container"),
                inputs: BTreeMap::new(),
            },
        ))
        .expect("submit bad container");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Accepted { job: 2 });

    for job in [1u64, 2] {
        loop {
            client.write_all(&request(10 + job, ServeRequest::Poll { job })).expect("poll");
            match read_reply(&mut client).body {
                ServeResponse::Pending { .. } => std::thread::sleep(Duration::from_millis(5)),
                ServeResponse::Rejected { reason, .. } => {
                    assert!(!reason.is_empty());
                    break;
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
    }

    client.write_all(&request(30, ServeRequest::Poll { job: 999 })).expect("poll unknown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::UnknownJob { job: 999 });

    client.write_all(&request(31, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");
}

#[test]
fn corrupt_frames_end_the_session_quietly() {
    let mut output = Vec::new();
    let trace = serve(
        &b"not a frame at all"[..],
        &mut output,
        &ServeOptions::default(),
        &fd_trace::TraceConfig::off(),
    )
    .expect("no serve error");
    assert!(output.is_empty(), "corrupt stream gets no reply");
    assert!(trace.records.is_empty());
}

#[test]
fn many_jobs_drain_across_workers() {
    let (mut client, handle) = spawn_server(ServeOptions { workers: 3, ..ServeOptions::default() });
    let jobs: Vec<u64> = (0..6)
        .map(|i| {
            client.write_all(&request(i, quickstart_submission(100 + i))).expect("submit");
            match read_reply(&mut client).body {
                ServeResponse::Accepted { job } => job,
                other => panic!("expected Accepted, got {other:?}"),
            }
        })
        .collect();
    assert_eq!(jobs, (100..106).collect::<Vec<u64>>(), "client-assigned ids echo back");
    let reports: Vec<String> = jobs.iter().map(|&job| poll_for_report(&mut client, job)).collect();
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "identical submissions produce byte-identical reports"
    );
    client.write_all(&request(999, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");
}

/// Admission control, exercised directly against the state machine with
/// no workers draining the queue (so the queue length is deterministic).
#[test]
fn admission_control_is_typed_and_idempotent() {
    let options = ServeOptions { queue_cap: 1, ..ServeOptions::default() };
    let trace_config = fd_trace::TraceConfig::off();
    let core = Core::new(&options, &trace_config).expect("no journal configured");
    let tracer = fd_trace::Tracer::new(&trace_config, core.clock, 0);
    let hex = to_hex(b"job one");
    let submit = |job: u64, hex: &str| ServeRequest::Submit {
        job,
        container_hex: hex.to_string(),
        inputs: BTreeMap::new(),
    };

    // First submission fills the only queue slot.
    let (reply, end) = handle_request(&core, &tracer, submit(1, &hex), 1);
    assert_eq!((reply, end), (ServeResponse::Accepted { job: 1 }, false));

    // A different id bounces off the full queue with a retry hint.
    let (reply, _) = handle_request(&core, &tracer, submit(2, &hex), 1);
    let ServeResponse::Busy { job: 2, retry_after_ms } = reply else {
        panic!("expected Busy, got {reply:?}");
    };
    assert!(retry_after_ms >= 10, "the hint scales from a 10ms floor");

    // Resubmitting a known id with identical content is absorbed
    // without touching the (full) queue.
    let (reply, _) = handle_request(&core, &tracer, submit(1, &hex), 1);
    assert_eq!(reply, ServeResponse::Accepted { job: 1 });
    assert_eq!(lock(&core.state).queue.len(), 1, "dedup does not re-queue");

    // The same id with different content is a permanent conflict.
    let (reply, _) = handle_request(&core, &tracer, submit(1, &to_hex(b"other")), 1);
    assert!(
        matches!(reply, ServeResponse::Conflict { job: 1, .. }),
        "expected Conflict, got {reply:?}"
    );

    // A draining server refuses fresh ids but still dedups known ones.
    core.begin_drain();
    let (reply, _) = handle_request(&core, &tracer, submit(3, &hex), 1);
    assert!(
        matches!(reply, ServeResponse::Draining { job: 3, .. }),
        "expected Draining, got {reply:?}"
    );
    let (reply, _) = handle_request(&core, &tracer, submit(1, &hex), 1);
    assert_eq!(reply, ServeResponse::Accepted { job: 1 }, "dedup still answers while draining");

    let incidents = lock(&core.incidents).clone();
    assert_eq!(incidents.busy_rejections, 1);
    assert_eq!(incidents.conflicts, 1);
    assert_eq!(incidents.draining_rejections, 1);
    assert_eq!(incidents.resubmits_deduped, 2);
}

#[test]
fn listen_addr_parses_unix_and_tcp() {
    assert_eq!(
        ListenAddr::parse("unix:/tmp/fd.sock").expect("unix parses"),
        ListenAddr::Unix(PathBuf::from("/tmp/fd.sock"))
    );
    assert_eq!(
        ListenAddr::parse("127.0.0.1:7788").expect("tcp parses"),
        ListenAddr::Tcp("127.0.0.1:7788".to_string())
    );
    assert!(ListenAddr::parse("unix:").is_err(), "empty unix path refused");
    assert!(ListenAddr::parse("no-colon").is_err(), "bare host refused");
    assert_eq!(ListenAddr::parse("unix:/tmp/x").unwrap().to_string(), "unix:/tmp/x");
    assert_eq!(ListenAddr::parse("[::1]:9").unwrap().to_string(), "[::1]:9");
}

#[test]
fn busy_hint_grows_with_backlog() {
    assert_eq!(busy_retry_after_ms(0, 1), 10);
    assert!(busy_retry_after_ms(100, 1) > busy_retry_after_ms(10, 1));
    assert!(
        busy_retry_after_ms(100, 8) < busy_retry_after_ms(100, 1),
        "more workers drain faster, so the hint shrinks"
    );
}

/// The socket front end end-to-end: a retrying client submits over TCP,
/// resubmits idempotently, conflicts on content mismatch, and the
/// server's drain returns its incident counters.
#[test]
fn socket_round_trip_with_client() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { workers: 2, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::on())
    });

    let (hex, inputs) = quickstart();
    let mut client = SubmitClient::new(addr.clone());
    let JobOutcome::Report { json } = client.submit(7, &hex, &inputs).expect("job settles") else {
        panic!("quickstart is not rejected");
    };
    let report: crate::report::RunReport =
        serde_json::from_str(&json).expect("served report parses");
    assert_eq!(report.activity_coverage().visited, 3);

    // Idempotent resubmission: same id + same content serves the same
    // bytes without a second run.
    let again = client.submit(7, &hex, &inputs).expect("resubmit settles");
    assert_eq!(again, JobOutcome::Report { json });

    // Same id, different content: a permanent typed conflict.
    let err = client
        .submit(7, &to_hex(b"different"), &BTreeMap::new())
        .expect_err("conflicts are permanent");
    assert!(matches!(err, ClientError::Conflict { job: 7, .. }), "got {err:?}");

    shutdown_socket(&addr);
    let summary = handle.join().expect("no panic").expect("no serve error");
    assert_eq!(summary.incidents.jobs_completed, 1, "dedup prevented a second run");
    assert_eq!(summary.incidents.resubmits_deduped, 1);
    assert_eq!(summary.incidents.conflicts, 1);
    assert!(summary.incidents.connections_opened >= 2);
    assert_eq!(
        summary.incidents.connections_opened, summary.incidents.connections_closed,
        "no leaked connection slots"
    );
}

/// A chaos-wrapped client (torn frames, stalls, duplicated requests)
/// still lands the byte-identical report.
#[test]
fn chaos_client_lands_the_identical_report() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions::default();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    let (hex, inputs) = quickstart();
    let mut clean = SubmitClient::new(addr.clone());
    let baseline = clean.submit(1, &hex, &inputs).expect("clean run settles");

    let mut chaotic = SubmitClient::new(addr.clone())
        .with_chaos(ChaosConfig::from_seed(42))
        .with_max_attempts(64)
        .with_deadline(Duration::from_secs(120));
    let outcome = chaotic.submit(2, &hex, &inputs).expect("chaos run settles");
    assert_eq!(outcome, baseline, "chaos transport does not change the report bytes");

    shutdown_socket(&addr);
    handle.join().expect("no panic").expect("no serve error");
}

/// Connections past the cap get one typed `Overloaded` frame (id 0)
/// and are closed; the slot frees when the first session ends.
#[test]
fn connection_cap_answers_overloaded() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { max_connections: 1, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    // Occupy the only slot and prove the session is live.
    let mut first = AnyStream::connect(&addr).expect("connect first");
    first.write_all(&request(1, ServeRequest::Status)).expect("status");
    first.flush().expect("flush");
    assert!(matches!(read_reply(&mut first).body, ServeResponse::Status { .. }));

    // The second connection is rejected with the id-0 overload frame.
    let mut second = AnyStream::connect(&addr).expect("connect second");
    let reply = read_reply(&mut second);
    assert_eq!(reply.id, 0);
    assert!(
        matches!(reply.body, ServeResponse::Overloaded { retry_after_ms } if retry_after_ms > 0),
        "got {:?}",
        reply.body
    );
    drop(second);

    first.write_all(&request(2, ServeRequest::Shutdown)).expect("shutdown");
    first.flush().expect("flush");
    assert_eq!(read_reply(&mut first).body, ServeResponse::Bye);
    let summary = handle.join().expect("no panic").expect("no serve error");
    assert_eq!(summary.incidents.overloaded_rejections, 1);
    assert_eq!(summary.incidents.connections_opened, 1);
}

/// The slow-loris guard: a session that completes no frame inside the
/// idle window is dropped, without touching other sessions.
#[test]
fn idle_sessions_are_dropped() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { idle_timeout_ms: 100, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    let mut loris = AnyStream::connect(&addr).expect("connect");
    // Send half a frame and go quiet; the server must hang up on us.
    loris.write_all(b"999 ").expect("half a frame");
    loris.flush().expect("flush");
    let mut buf = [0u8; 16];
    let n = loris.read(&mut buf).expect("server closes, not errors");
    assert_eq!(n, 0, "idle session gets EOF");

    shutdown_socket(&addr);
    let summary = handle.join().expect("no panic").expect("no serve error");
    assert_eq!(summary.incidents.idle_timeouts, 1);
}

/// Unix-socket front end: bind, serve, and remove the socket file on
/// the way out.
#[test]
fn unix_socket_serves_and_cleans_up() {
    let path = temp_path("unix.sock");
    let _ = std::fs::remove_file(&path);
    let addr = ListenAddr::Unix(path.clone());
    let listener = ServeListener::bind(&addr).expect("bind unix");
    let options = ServeOptions::default();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    let mut stream = AnyStream::connect(&addr).expect("connect unix");
    stream.write_all(&request(1, ServeRequest::Status)).expect("status");
    stream.flush().expect("flush");
    assert!(matches!(read_reply(&mut stream).body, ServeResponse::Status { .. }));
    stream.write_all(&request(2, ServeRequest::Shutdown)).expect("shutdown");
    stream.flush().expect("flush");
    assert_eq!(read_reply(&mut stream).body, ServeResponse::Bye);

    handle.join().expect("no panic").expect("no serve error");
    assert!(!path.exists(), "socket file removed after drain");
}

/// Crash-safe recovery end to end: a restarted server serves finished
/// jobs byte-identically from the journal and re-queues (then runs)
/// jobs that were accepted but never finished.
#[test]
fn journal_recovery_serves_completed_and_requeues_pending() {
    let path = temp_path("recovery.journal");
    let _ = std::fs::remove_file(&path);
    let options = ServeOptions { journal: Some(path.clone()), ..ServeOptions::default() };
    let (hex, inputs) = quickstart();

    // Life one: submit job 1, wait for its report, orderly shutdown.
    let (mut client, handle) = spawn_server(options.clone());
    client
        .write_all(&request(
            1,
            ServeRequest::Submit { job: 1, container_hex: hex.clone(), inputs: inputs.clone() },
        ))
        .expect("submit");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Accepted { job: 1 });
    let first_json = poll_for_report(&mut client, 1);
    client.write_all(&request(99, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");

    // Between lives: append a Submitted record for job 2 with no
    // Completed — exactly what a crash after durable admission leaves.
    {
        let (mut j, _recovery) = JobJournal::open_or_create(&path, config_digest(&options.config))
            .expect("reopen journal");
        j.append_submitted(2, submission_digest(&hex, &inputs), &hex, &inputs)
            .expect("append pending job");
    }

    // Life two: job 1 is served byte-identically without resubmission;
    // job 2 is re-queued and runs to the same report.
    let (mut client, handle) = spawn_server(options);
    client.write_all(&request(1, ServeRequest::Poll { job: 1 })).expect("poll recovered");
    assert_eq!(
        read_reply(&mut client).body,
        ServeResponse::Report { job: 1, json: first_json.clone() },
        "completed job is recovered byte-identically"
    );
    let second_json = poll_for_report(&mut client, 2);
    assert_eq!(second_json, first_json, "re-queued job reruns deterministically");

    // Resubmitting a recovered id is still idempotent.
    client
        .write_all(&request(
            40,
            ServeRequest::Submit { job: 1, container_hex: hex.clone(), inputs: inputs.clone() },
        ))
        .expect("resubmit recovered");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Accepted { job: 1 });

    client.write_all(&request(99, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    let trace = handle.join().expect("no panic").expect("no serve error");
    let recovered = trace.records.iter().any(|r| match r {
        fd_trace::TraceRecord::Event(e) => {
            matches!(e.event, fd_trace::TraceEvent::JournalRecovered { jobs: 2 })
        }
        _ => false,
    });
    assert!(recovered, "recovery is traced");
    let _ = std::fs::remove_file(&path);
}

/// A journal written under one configuration refuses to serve another.
#[test]
fn journal_refuses_a_different_config() {
    let path = temp_path("config-mismatch.journal");
    let _ = std::fs::remove_file(&path);
    let options = ServeOptions { journal: Some(path.clone()), ..ServeOptions::default() };
    {
        let (_j, _recovery) = JobJournal::open_or_create(&path, config_digest(&options.config) ^ 1)
            .expect("seed journal under a different digest");
    }
    let err = serve(&b""[..], Vec::new(), &options, &fd_trace::TraceConfig::off())
        .expect_err("config mismatch is refused");
    assert!(
        matches!(err, ServeError::Journal(JournalError::FingerprintMismatch { .. })),
        "got {err:?}"
    );
    let _ = std::fs::remove_file(&path);
}

/// A server core with no workers or sessions: tests set job states by
/// hand.
fn idle_core<'a>(options: &'a ServeOptions, off: &'a fd_trace::TraceConfig) -> Core<'a> {
    Core::new(options, off).expect("core")
}

/// Runs one `Wait` against `core`, returning the reply and how long it
/// blocked.
fn timed_wait(core: &Core<'_>, job: u64, timeout_ms: u64) -> (ServeResponse, Duration) {
    let tracer = fd_trace::Tracer::new(core.trace_config, core.clock, 0);
    let started = Instant::now();
    let (reply, end) = handle_request(core, &tracer, ServeRequest::Wait { job, timeout_ms }, 1);
    assert!(!end, "Wait never ends the session");
    (reply, started.elapsed())
}

/// `Wait` on a queued job answers with the report as soon as a worker
/// settles it: no client sleep, and far inside the timeout.
#[test]
fn wait_returns_the_report_as_soon_as_the_job_settles() {
    let (mut client, handle) = spawn_server(ServeOptions::default());
    client.write_all(&request(1, quickstart_submission(3))).expect("submit");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Accepted { job: 3 });
    let started = Instant::now();
    client.write_all(&request(2, ServeRequest::Wait { job: 3, timeout_ms: 20_000 })).expect("wait");
    let reply = read_reply(&mut client);
    assert_eq!(reply.id, 2);
    let ServeResponse::Report { job: 3, json } = reply.body else {
        panic!("expected the report, got {:?}", reply.body);
    };
    assert!(started.elapsed() < Duration::from_secs(10), "woken by the worker, not the timeout");

    // A settled job answers at once, exactly as `Poll` does.
    client.write_all(&request(3, ServeRequest::Poll { job: 3 })).expect("poll");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Report { job: 3, json });

    client.write_all(&request(4, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");
}

/// `Wait` on an id the server never accepted answers `UnknownJob` at
/// once instead of blocking out its timeout.
#[test]
fn wait_on_an_unknown_job_answers_at_once() {
    let (options, off) = (ServeOptions::default(), fd_trace::TraceConfig::off());
    let core = idle_core(&options, &off);
    let (reply, took) = timed_wait(&core, 999, 20_000);
    assert_eq!(reply, ServeResponse::UnknownJob { job: 999 });
    assert!(took < Duration::from_secs(1), "took {took:?}");
}

/// `Wait` on a job that stays running answers `Pending` once its
/// timeout runs out, and the server caps the timeout: at the idle
/// window, or at `MAX_WAIT` with the idle guard off.
#[test]
fn wait_on_a_long_job_times_out_pending_and_is_capped() {
    let off = fd_trace::TraceConfig::off();
    let options = ServeOptions { idle_timeout_ms: 300, ..ServeOptions::default() };
    let core = idle_core(&options, &off);
    {
        let mut st = lock(&core.state);
        st.jobs.insert(5, JobEntry { digest: 0, state: JobState::Running });
        st.running = 1;
    }
    let (reply, took) = timed_wait(&core, 5, 100);
    assert_eq!(reply, ServeResponse::Pending { job: 5 });
    assert!(took >= Duration::from_millis(100) && took < Duration::from_secs(2), "took {took:?}");

    let (reply, took) = timed_wait(&core, 5, u64::MAX);
    assert_eq!(reply, ServeResponse::Pending { job: 5 });
    assert!(took >= Duration::from_millis(300) && took < Duration::from_secs(3), "took {took:?}");

    let unguarded = ServeOptions { idle_timeout_ms: 0, ..ServeOptions::default() };
    assert_eq!(idle_core(&unguarded, &off).wait_cap(), MAX_WAIT);
}

/// A `Shutdown` from one session while another blocks in `Wait`: the
/// drain finishes every job, the waiter gets its report, and the
/// server returns.
#[test]
fn shutdown_while_a_session_waits_drains_and_returns() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions { workers: 1, ..ServeOptions::default() };
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });

    let mut waiter = AnyStream::connect(&addr).expect("connect");
    for job in 1..=6 {
        waiter.write_all(&request(job, quickstart_submission(job))).expect("submit");
    }
    waiter.flush().expect("flush");
    let accepted = read_replies(&mut waiter, 6);
    assert!(accepted.iter().all(|r| matches!(r.body, ServeResponse::Accepted { .. })));
    // Six jobs queue behind one worker; block on the last while another
    // session starts the drain.
    waiter.write_all(&request(7, ServeRequest::Wait { job: 6, timeout_ms: 20_000 })).expect("wait");
    waiter.flush().expect("flush");
    shutdown_socket(&addr);
    let reply = read_reply(&mut waiter);
    assert!(matches!(reply.body, ServeResponse::Report { job: 6, .. }), "{reply:?}");
    let summary = handle.join().expect("no panic").expect("no serve error");
    assert_eq!(summary.incidents.jobs_completed, 6, "the drain finished every job");
}

/// A duplicated `Wait` frame (what the chaos transport injects) gets
/// its own reply and the conversation stays in step; a client that
/// duplicates every frame still converges to the same report.
#[test]
fn a_duplicated_wait_frame_still_converges() {
    let listener = ServeListener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_string())).expect("bind");
    let addr = listener.local_addr().clone();
    let options = ServeOptions::default();
    let handle = std::thread::spawn(move || {
        serve_listener(listener, &options, &fd_trace::TraceConfig::off())
    });
    let (hex, inputs) = quickstart();
    let baseline = SubmitClient::new(addr.clone()).submit(1, &hex, &inputs).expect("settles");

    let mut stream = AnyStream::connect(&addr).expect("connect");
    let wait = request(5, ServeRequest::Wait { job: 1, timeout_ms: 20_000 });
    stream.write_all(&wait).expect("wait");
    stream.write_all(&wait).expect("duplicate wait");
    stream.write_all(&request(6, ServeRequest::Status)).expect("status");
    stream.flush().expect("flush");
    let replies = read_replies(&mut stream, 3);
    let JobOutcome::Report { json } = &baseline else { panic!("quickstart is not rejected") };
    let report = ServeResponse::Report { job: 1, json: json.clone() };
    assert_eq!((replies[0].id, &replies[0].body), (5, &report));
    assert_eq!((replies[1].id, &replies[1].body), (5, &report));
    assert!(matches!((replies[2].id, &replies[2].body), (6, ServeResponse::Status { .. })));
    drop(stream);

    let always_duplicate =
        ChaosConfig { seed: 9, max_chunk: 64, stall_ms: 0, tear_per_mille: 0, dup_per_mille: 1000 };
    let outcome = SubmitClient::new(addr.clone())
        .with_chaos(always_duplicate)
        .submit(2, &hex, &inputs)
        .expect("duplicated frames settle");
    assert_eq!(outcome, baseline);

    shutdown_socket(&addr);
    handle.join().expect("no panic").expect("no serve error");
}

/// What a restarted server answers over `journal`: `Status`, a dedup
/// resubmission, the stored report and refusal, and a `Conflict`.
fn restart_answers(
    journal: &Path,
    hex: &str,
    inputs: &BTreeMap<String, String>,
) -> Vec<ServeResponse> {
    let options = ServeOptions { journal: Some(journal.to_path_buf()), ..ServeOptions::default() };
    let (mut client, handle) = spawn_server(options);
    let asks = [
        ServeRequest::Status,
        ServeRequest::Submit { job: 1, container_hex: hex.to_string(), inputs: inputs.clone() },
        ServeRequest::Poll { job: 1 },
        ServeRequest::Wait { job: 2, timeout_ms: 1_000 },
        ServeRequest::Submit { job: 1, container_hex: "00".to_string(), inputs: BTreeMap::new() },
        ServeRequest::Status,
    ];
    let answers = asks
        .into_iter()
        .enumerate()
        .map(|(id, ask)| {
            client.write_all(&request(id as u64, ask)).expect("request");
            read_reply(&mut client).body
        })
        .collect();
    client.write_all(&request(99, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");
    answers
}

/// A clean drain compacts the journal to one `Settled` record per job,
/// and a server restarted on it answers exactly as one restarted on the
/// original journal.
#[test]
fn a_compacting_restart_answers_like_the_original_journal() {
    let path = temp_path("compacting.journal");
    let _ = std::fs::remove_file(&path);
    let options = ServeOptions { journal: Some(path.clone()), ..ServeOptions::default() };
    let (hex, inputs) = quickstart();
    let (mut client, handle) = spawn_server(options);
    let submissions = [
        ServeRequest::Submit { job: 1, container_hex: hex.clone(), inputs: inputs.clone() },
        ServeRequest::Submit { job: 2, container_hex: "zz".to_string(), inputs: BTreeMap::new() },
        ServeRequest::Submit { job: 3, container_hex: hex.clone(), inputs: BTreeMap::new() },
    ];
    for (id, submission) in submissions.into_iter().enumerate() {
        client.write_all(&request(id as u64, submission)).expect("submit");
        assert!(matches!(read_reply(&mut client).body, ServeResponse::Accepted { .. }));
    }
    for job in 1..=3 {
        client
            .write_all(&request(10 + job, ServeRequest::Wait { job, timeout_ms: 20_000 }))
            .expect("wait");
        assert!(!matches!(read_reply(&mut client).body, ServeResponse::Pending { .. }));
    }
    // Every record is durable once its job settled: this is the journal
    // a crash right now would leave.
    let original = std::fs::read(&path).expect("read journal");
    client.write_all(&request(99, ServeRequest::Shutdown)).expect("shutdown");
    assert_eq!(read_reply(&mut client).body, ServeResponse::Bye);
    handle.join().expect("no panic").expect("no serve error");

    let compacted = std::fs::read(&path).expect("read compacted");
    let text = String::from_utf8(compacted.clone()).expect("journal is text");
    assert_eq!(text.lines().count(), 4, "header plus one record per job");
    assert!(text.lines().skip(1).all(|l| l.contains("\"Settled\"")));
    assert!(compacted.len() < original.len());

    let original_path = temp_path("compacting-original.journal");
    std::fs::write(&original_path, &original).expect("copy original");
    // The job table a restart builds: ids, digests, settled results.
    type Row = (u64, u64, Option<Result<String, String>>);
    let table = |path: &Path| -> Vec<Row> {
        let options = ServeOptions { journal: Some(path.to_path_buf()), ..ServeOptions::default() };
        let off = fd_trace::TraceConfig::off();
        let core = idle_core(&options, &off);
        let st = lock(&core.state);
        let settled = |state: &JobState| match state {
            JobState::Done(result) => Some(result.clone()),
            JobState::Queued | JobState::Running => None,
        };
        st.jobs.iter().map(|(&job, e)| (job, e.digest, settled(&e.state))).collect()
    };
    let restored = table(&path);
    assert_eq!(restored, table(&original_path));
    assert!(restored.iter().all(|(_, _, result)| result.is_some()), "every job settled");

    let from_original = restart_answers(&original_path, &hex, &inputs);
    let from_compacted = restart_answers(&path, &hex, &inputs);
    assert_eq!(from_compacted, from_original);
    assert!(matches!(from_compacted[0], ServeResponse::Status { completed: 2, rejected: 1, .. }));
    assert!(matches!(from_compacted[3], ServeResponse::Rejected { job: 2, .. }));
    assert!(matches!(from_compacted[4], ServeResponse::Conflict { job: 1, .. }));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&original_path);
}

/// Compaction only runs on a settled, healthy journal: a queued or
/// running job, or a latched journal failure, leaves the file as it is.
#[test]
fn compaction_is_skipped_while_jobs_are_live_or_the_journal_failed() {
    let path = temp_path("compact-skip.journal");
    let _ = std::fs::remove_file(&path);
    let options = ServeOptions { journal: Some(path.clone()), ..ServeOptions::default() };
    {
        let digest = config_digest(&options.config);
        let (mut j, _) = JobJournal::open_or_create(&path, digest).expect("create");
        j.append_submitted(1, 10, "aa", &BTreeMap::new()).expect("submit");
        j.append_completed(1, false, "refused").expect("complete");
    }
    let bytes = std::fs::read(&path).expect("read");
    let off = fd_trace::TraceConfig::off();
    let core = idle_core(&options, &off);
    let untouched = |core: &Core<'_>, why: &str| {
        assert_eq!(core.compact_journal(), Ok(false), "{why}");
        assert_eq!(std::fs::read(&path).expect("read"), bytes, "{why}");
    };

    {
        let mut st = lock(&core.state);
        st.queue.push_back(Job { id: 2, container: Vec::new(), inputs: BTreeMap::new() });
        st.jobs.insert(2, JobEntry { digest: 20, state: JobState::Queued });
    }
    untouched(&core, "a queued job");
    {
        let mut st = lock(&core.state);
        st.queue.clear();
        st.jobs.insert(2, JobEntry { digest: 20, state: JobState::Running });
        st.running = 1;
    }
    untouched(&core, "a running job");
    {
        let mut st = lock(&core.state);
        st.jobs.remove(&2);
        st.running = 0;
    }
    let read_only = std::fs::File::open(&path).expect("read-only handle");
    let mut failed = JobJournal::over(read_only, &path, 1);
    failed.append_completed(3, false, "lost").expect_err("a read-only journal fails");
    *lock(&core.journal) = Some(failed);
    untouched(&core, "a latched journal failure");

    let healthy = idle_core(&options, &off);
    assert_eq!(healthy.compact_journal(), Ok(true));
    assert_ne!(std::fs::read(&path).expect("read"), bytes);
    let _ = std::fs::remove_file(&path);
}
