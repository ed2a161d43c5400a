//! Integration suite for the job service: determinism across
//! submission orderings and worker counts (the ISSUE's acceptance
//! property), bounded-queue overload behaviour, per-tenant breaker
//! isolation, and the TCP protocol end to end.

use aivril_bench::Flow;
use aivril_llm::FaultConfig;
use aivril_serve::{Admission, FrameSink, ServeConfig, Server, SubmitRequest};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

fn small_config() -> ServeConfig {
    let (mut config, warnings) = ServeConfig::from_vars_checked(|_| None);
    assert!(warnings.is_empty(), "{warnings:?}");
    config.harness.task_limit = 4;
    config
}

fn collect_sink() -> (FrameSink, Arc<Mutex<Vec<String>>>) {
    let frames = Arc::new(Mutex::new(Vec::new()));
    let sink_frames = Arc::clone(&frames);
    let sink: FrameSink = Arc::new(move |f: &str| {
        sink_frames
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(f.to_string());
    });
    (sink, frames)
}

fn spec(tenant: &str, job: &str, task: &str) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_string(),
        job: job.to_string(),
        task: task.to_string(),
        verilog: true,
        flow: Flow::Aivril2,
    }
}

/// The fixed job mix the determinism property permutes: two tenants,
/// three jobs each, over the first four suite problems.
fn job_mix() -> Vec<SubmitRequest> {
    vec![
        spec("acme", "a1", "prob000_and2"),
        spec("acme", "a2", "prob001_or2"),
        spec("acme", "a3", "prob002_xor2"),
        spec("globex", "g1", "prob000_and2"),
        spec("globex", "g2", "prob003_nand2"),
        spec("globex", "g3", "prob001_or2"),
    ]
}

/// Submits `order`-permuted jobs to a fresh server, executes them on
/// `workers` threads (0 = drain serially on this thread), and returns
/// each job's frame stream keyed by `tenant/job`.
fn run_mix(order: &[usize], workers: usize) -> BTreeMap<String, Vec<String>> {
    let mix = job_mix();
    let server = Arc::new(Server::new(small_config()));
    let mut collectors = Vec::new();
    for &i in order {
        let (sink, frames) = collect_sink();
        let s = mix[i].clone();
        let key = format!("{}/{}", s.tenant, s.job);
        let verdict = server.submit(s, sink).expect("known task");
        assert!(
            matches!(verdict, Admission::Accepted { .. }),
            "mix fits default capacity: {verdict:?}"
        );
        collectors.push((key, frames));
    }
    if workers == 0 {
        server.drain();
    } else {
        let handles = server.spawn_workers(workers);
        server.finish();
        for h in handles {
            h.join().expect("worker thread");
        }
    }
    collectors
        .into_iter()
        .map(|(key, frames)| {
            let g = frames.lock().unwrap_or_else(PoisonError::into_inner);
            (key, g.clone())
        })
        .collect()
}

/// Serial single-threaded reference streams, computed once.
fn baseline() -> &'static BTreeMap<String, Vec<String>> {
    static BASELINE: OnceLock<BTreeMap<String, Vec<String>>> = OnceLock::new();
    BASELINE.get_or_init(|| run_mix(&[0, 1, 2, 3, 4, 5], 0))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]
    #[test]
    fn frames_are_byte_identical_across_interleavings(
        priorities in proptest::collection::vec(0u64..1_000_000, 6),
        workers in 1usize..=3,
    ) {
        // Order the six jobs by random priority: a submission-order
        // permutation, executed on 1..=3 workers.
        let mut order: Vec<usize> = (0..6).collect();
        order.sort_by_key(|&i| priorities[i]);
        let got = run_mix(&order, workers);
        let want = baseline();
        prop_assert_eq!(got.len(), want.len());
        for (key, frames) in &got {
            let reference = &want[key];
            prop_assert!(
                frames == reference,
                "job {} diverged under order {:?} x {} workers:\n got: {:#?}\nwant: {:#?}",
                key, order, workers, frames, reference
            );
        }
    }
}

#[test]
fn overload_rejects_structurally_and_never_queues_unbounded() {
    let mut config = small_config();
    config.max_inflight = 1;
    config.max_queue = 1;
    let server = Server::new(config);
    let mut accepted = 0;
    let mut reject_frames = Vec::new();
    for i in 0..4 {
        let (sink, frames) = collect_sink();
        let verdict = server
            .submit(spec("storm", &format!("s{i}"), "prob000_and2"), sink)
            .expect("known task");
        match verdict {
            Admission::Accepted { .. } => accepted += 1,
            Admission::Attached { .. } => panic!("distinct job ids never attach"),
            Admission::Rejected {
                reason,
                retry_after_s,
            } => {
                assert_eq!(reason, "queue_full");
                assert!(retry_after_s > 0.0, "retry hint must be positive");
                let g = frames.lock().unwrap();
                assert_eq!(g.len(), 1, "a rejected job gets exactly its reject frame");
                assert!(g[0].contains("\"type\":\"reject\""), "{}", g[0]);
                assert!(g[0].contains("\"retry_after_s\":"), "{}", g[0]);
                reject_frames.push(g[0].clone());
            }
        }
    }
    assert_eq!(accepted, 2, "capacity = max_inflight + max_queue = 2");
    assert_eq!(reject_frames.len(), 2);
    let stats = server.queue().stats();
    assert_eq!(stats.queued, 2, "queue is bounded at capacity");
    assert_eq!(stats.rejected, 2);
    // The admitted jobs still complete normally after the storm.
    server.drain();
    assert_eq!(server.queue().stats().completed, 2);
}

#[test]
fn fault_storms_open_only_the_noisy_tenants_breaker() {
    let mut config = small_config();
    config.harness.faults = FaultConfig::parse("timeout=1.0").expect("valid plan");
    config.harness.pipeline.resilience.breaker_threshold = 2;
    let server = Server::new(config);
    // Two noisy jobs fail (every LLM call faults -> degraded runs) and
    // feed the tenant's admission breaker past its threshold.
    for id in ["n1", "n2"] {
        let (sink, _frames) = collect_sink();
        let verdict = server
            .submit(spec("noisy", id, "prob000_and2"), sink)
            .expect("known task");
        assert!(matches!(verdict, Admission::Accepted { .. }));
        server.drain();
    }
    assert!(
        server.queue().breaker_opens("noisy") >= 1,
        "two degraded completions open the tenant breaker"
    );
    let (sink, frames) = collect_sink();
    match server
        .submit(spec("noisy", "n3", "prob000_and2"), sink)
        .expect("known task")
    {
        Admission::Rejected {
            reason,
            retry_after_s,
        } => {
            assert_eq!(reason, "breaker_open");
            assert!(retry_after_s > 0.0);
            let g = frames.lock().unwrap();
            assert!(g[0].contains("breaker_open"), "{:?}", *g);
        }
        other => panic!("noisy tenant should be refused, got {other:?}"),
    }
    // The quiet tenant is admitted as if nothing happened.
    let (sink, _frames) = collect_sink();
    let verdict = server
        .submit(spec("quiet", "q1", "prob000_and2"), sink)
        .expect("known task");
    assert!(
        matches!(verdict, Admission::Accepted { .. }),
        "one tenant's storm must not trip another's breaker: {verdict:?}"
    );
    assert_eq!(server.queue().breaker_opens("quiet"), 0);
}

/// Drives one connection: submits `job` and returns the transcript
/// (ack/progress/result lines) once the terminal frame arrives.
fn submit_over_tcp(addr: std::net::SocketAddr, tenant: &str, job: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("hello");
    assert!(line.contains("\"type\":\"hello\""), "{line}");
    writeln!(
        stream,
        "{{\"type\":\"submit\",\"tenant\":\"{tenant}\",\"job\":\"{job}\",\
         \"task\":\"prob001_or2\"}}"
    )
    .expect("submit");
    let mut transcript = Vec::new();
    loop {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).expect("frame"), 0, "early EOF");
        let line = line.trim_end().to_string();
        assert!(
            !line.contains("\"type\":\"error\""),
            "unexpected error frame: {line}"
        );
        let terminal = line.contains("\"type\":\"result\"");
        transcript.push(line);
        if terminal {
            return transcript;
        }
    }
}

#[test]
fn tcp_end_to_end_with_byte_identical_replay() {
    let mut config = small_config();
    config.addr = "127.0.0.1:0".to_string();
    let listener = TcpListener::bind(&config.addr).expect("bind ephemeral");
    let addr = listener.local_addr().expect("bound");
    let server = Arc::new(Server::new(config));
    let workers = server.spawn_workers(2);
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(&listener))
    };

    // Liveness.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("hello");
        writeln!(stream, "{{\"type\":\"ping\"}}").expect("ping");
        line.clear();
        reader.read_line(&mut line).expect("pong");
        assert!(line.contains("\"type\":\"pong\""), "{line}");
        writeln!(stream, "not json").expect("garbage");
        line.clear();
        reader.read_line(&mut line).expect("error");
        assert!(line.contains("\"type\":\"error\""), "{line}");
    }

    // A job over TCP, then the same job replayed on a new connection:
    // the transcripts must match byte for byte.
    let first = submit_over_tcp(addr, "acme", "replay-1");
    assert!(first[0].contains("\"type\":\"ack\""), "{}", first[0]);
    assert!(first.len() > 2, "expected progress frames: {first:?}");
    let second = submit_over_tcp(addr, "acme", "replay-1");
    assert_eq!(first, second, "replay over TCP must be byte-identical");

    // Stats then protocol-level shutdown.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("hello");
        writeln!(stream, "{{\"type\":\"stats\"}}").expect("stats");
        line.clear();
        reader.read_line(&mut line).expect("stats frame");
        assert!(line.contains("\"type\":\"stats\""), "{line}");
        assert!(line.contains("\"completed\":2"), "{line}");
        writeln!(stream, "{{\"type\":\"shutdown\"}}").expect("shutdown");
        line.clear();
        reader.read_line(&mut line).expect("bye");
        assert!(line.contains("\"type\":\"bye\""), "{line}");
    }

    accept.join().expect("accept loop exits after shutdown");
    for h in workers {
        h.join().expect("workers exit after drain");
    }
    assert!(server.queue().is_shutdown());
}

/// Reads server frames from `reader` until the predicate matches,
/// returning every line read (trimmed).
fn read_until(reader: &mut BufReader<TcpStream>, stop: impl Fn(&str) -> bool) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert_ne!(reader.read_line(&mut line).expect("frame"), 0, "early EOF");
        let line = line.trim_end().to_string();
        let done = stop(&line);
        lines.push(line);
        if done {
            return lines;
        }
    }
}

/// A client that submits, loses its connection, reconnects and
/// resubmits the same job id must end up with one execution and the
/// same bytes an uninterrupted client would have seen.
#[test]
fn reconnected_client_resubmits_into_one_execution() {
    // Uninterrupted reference transcript for the same identity.
    let reference = {
        let mut config = small_config();
        config.addr = "127.0.0.1:0".to_string();
        let listener = TcpListener::bind(&config.addr).expect("bind ephemeral");
        let addr = listener.local_addr().expect("bound");
        let server = Arc::new(Server::new(config));
        let workers = server.spawn_workers(1);
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve(&listener))
        };
        let transcript = submit_over_tcp(addr, "acme", "rc-1");
        server.finish();
        server.request_stop();
        accept.join().expect("accept loop");
        for h in workers {
            h.join().expect("worker");
        }
        transcript
    };

    // The interrupted scenario: no workers yet, so the job is still
    // admitted-but-unfinished when the first connection dies.
    let mut config = small_config();
    config.addr = "127.0.0.1:0".to_string();
    let listener = TcpListener::bind(&config.addr).expect("bind ephemeral");
    let addr = listener.local_addr().expect("bound");
    let server = Arc::new(Server::new(config));
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(&listener))
    };
    let submit_line = "{\"type\":\"submit\",\"tenant\":\"acme\",\"job\":\"rc-1\",\
         \"task\":\"prob001_or2\"}";
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        read_until(&mut reader, |l| l.contains("\"type\":\"hello\""));
        writeln!(stream, "{submit_line}").expect("submit");
        let ack = read_until(&mut reader, |l| l.contains("\"type\":\"ack\""));
        assert_eq!(ack.last().unwrap(), &reference[0], "same ack bytes");
        // Connection drops here with the job still queued.
    }
    assert_eq!(server.queue().active_jobs(), 1, "job survives the drop");

    // Reconnect and resubmit the same id: the submission attaches to
    // the queued job instead of admitting a second execution.
    let mut stream = TcpStream::connect(addr).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    read_until(&mut reader, |l| l.contains("\"type\":\"hello\""));
    writeln!(stream, "{submit_line}").expect("resubmit");
    let ack = read_until(&mut reader, |l| l.contains("\"type\":\"ack\""));
    // Now let the job run; its frames land on the new connection.
    server.drain();
    let frames = read_until(&mut reader, |l| l.contains("\"type\":\"result\""));
    let mut transcript = vec![ack.last().unwrap().clone()];
    transcript.extend(frames);
    assert_eq!(transcript, reference, "reconnected transcript matches");
    assert_eq!(server.executions(), 1, "exactly one execution");

    server.finish();
    server.request_stop();
    accept.join().expect("accept loop");
}

/// Killing a journaled server with admitted-but-unfinished jobs and
/// restarting over the same journal directory completes those jobs
/// with frames byte-identical to an uninterrupted run.
#[test]
fn killed_journaled_server_recovers_jobs_byte_identically() {
    let dir = std::env::temp_dir().join(format!("aivril-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Uninterrupted reference (journal-free server, same identity).
    let reference = {
        let mut config = small_config();
        config.addr = "127.0.0.1:0".to_string();
        let listener = TcpListener::bind(&config.addr).expect("bind ephemeral");
        let addr = listener.local_addr().expect("bound");
        let server = Arc::new(Server::new(config));
        let workers = server.spawn_workers(1);
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve(&listener))
        };
        let transcript = submit_over_tcp(addr, "acme", "crashy-1");
        server.finish();
        server.request_stop();
        accept.join().expect("accept loop");
        for h in workers {
            h.join().expect("worker");
        }
        transcript
    };

    let journal_config = |dir: &std::path::Path| {
        let mut config = small_config();
        config.addr = "127.0.0.1:0".to_string();
        config.journal_dir = Some(dir.display().to_string());
        config
    };

    // Phase 1: admit over a real socket, then die without executing —
    // no workers ever run, so the admitted job is unfinished when the
    // process state is dropped. Only the journal survives.
    {
        let config = journal_config(&dir);
        let listener = TcpListener::bind(&config.addr).expect("bind ephemeral");
        let addr = listener.local_addr().expect("bound");
        let server = Arc::new(Server::new(config));
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve(&listener))
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        read_until(&mut reader, |l| l.contains("\"type\":\"hello\""));
        writeln!(
            stream,
            "{{\"type\":\"submit\",\"tenant\":\"acme\",\"job\":\"crashy-1\",\
             \"task\":\"prob001_or2\"}}"
        )
        .expect("submit");
        read_until(&mut reader, |l| l.contains("\"type\":\"ack\""));
        assert_eq!(server.executions(), 0, "no worker ran the job");
        server.request_stop();
        accept.join().expect("accept loop");
    }

    // Phase 2: a fresh server over the same journal recovers the job,
    // completes it, and serves the reconnecting client the full
    // transcript from the replay memo.
    let config = journal_config(&dir);
    let listener = TcpListener::bind(&config.addr).expect("bind ephemeral");
    let addr = listener.local_addr().expect("bound");
    let server = Arc::new(Server::new(config));
    assert_eq!(server.recover(), 1, "one journaled job re-admitted");
    let workers = server.spawn_workers(1);
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(&listener))
    };
    // Wait for the recovered job to finish before the client returns.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while server.queue().stats().completed < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "recovered job never completed: {:?}",
            server.queue().stats()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let replayed = submit_over_tcp(addr, "acme", "crashy-1");
    assert_eq!(replayed, reference, "recovered run is byte-identical");
    assert_eq!(server.executions(), 1, "recovery executed the job once");

    server.finish();
    server.request_stop();
    accept.join().expect("accept loop");
    for h in workers {
        h.join().expect("worker");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_client_does_not_block_other_tenants() {
    let mut config = small_config();
    config.addr = "127.0.0.1:0".to_string();
    // Short write timeout so a genuinely wedged socket is condemned
    // quickly; the outbox cap stays at its default — it must exceed a
    // single job's frame burst, since a whole transcript is pushed at
    // completion faster than the writer can drain it.
    config.send_timeout_s = 0.5;
    let listener = TcpListener::bind(&config.addr).expect("bind ephemeral");
    let addr = listener.local_addr().expect("bound");
    let server = Arc::new(Server::new(config));
    let workers = server.spawn_workers(2);
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(&listener))
    };

    // Client A submits a job and then never reads a byte — not even
    // the hello. Its frames pile into the outbox and kernel buffers;
    // no admission or worker thread may block on its socket.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    writeln!(
        stalled,
        "{{\"type\":\"submit\",\"tenant\":\"stall\",\"job\":\"s1\",\
         \"task\":\"prob000_and2\"}}"
    )
    .expect("submit");

    // Client B is served a complete transcript while A stalls.
    let transcript = submit_over_tcp(addr, "brisk", "b1");
    assert!(
        transcript[0].contains("\"type\":\"ack\""),
        "{}",
        transcript[0]
    );

    // A's job runs to completion even though nobody reads its frames.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while server.queue().stats().completed < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "stalled client's job never completed: {:?}",
            server.queue().stats()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The stalled socket must not wedge shutdown either.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("hello");
        writeln!(stream, "{{\"type\":\"shutdown\"}}").expect("shutdown");
        line.clear();
        reader.read_line(&mut line).expect("bye");
        assert!(line.contains("\"type\":\"bye\""), "{line}");
    }
    drop(stalled);
    accept.join().expect("accept loop exits after shutdown");
    for h in workers {
        h.join().expect("workers exit after drain");
    }
}

/// A request line longer than `MAX_REQUEST_LINE` is answered with an
/// `error` frame and its connection is closed, after reading no more
/// than the cap; a connection opened beside it is still served.
#[test]
fn over_long_request_line_closes_only_its_connection() {
    let mut config = small_config();
    config.addr = "127.0.0.1:0".to_string();
    let listener = TcpListener::bind(&config.addr).expect("bind ephemeral");
    let addr = listener.local_addr().expect("bound");
    let server = Arc::new(Server::new(config));
    let workers = server.spawn_workers(1);
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(&listener))
    };

    let mut other = TcpStream::connect(addr).expect("connect");
    let mut other_reader = BufReader::new(other.try_clone().expect("clone"));
    let mut line = String::new();
    other_reader.read_line(&mut line).expect("hello");

    // Exactly one byte past the cap and no newline: the server has read
    // everything sent when it closes, so the close is an orderly one.
    let mut flood = TcpStream::connect(addr).expect("connect");
    let mut flood_reader = BufReader::new(flood.try_clone().expect("clone"));
    line.clear();
    flood_reader.read_line(&mut line).expect("hello");
    flood
        .write_all(&vec![b'x'; aivril_serve::MAX_REQUEST_LINE + 1])
        .expect("flood");
    line.clear();
    flood_reader.read_line(&mut line).expect("error frame");
    assert!(line.contains("\"type\":\"error\""), "{line}");
    assert!(line.contains("request line exceeds 4096 bytes"), "{line}");
    line.clear();
    assert_eq!(
        flood_reader.read_line(&mut line).expect("eof"),
        0,
        "connection must be closed after the error, got {line:?}"
    );

    // The neighbour is untouched, and new connections are served.
    writeln!(other, "{{\"type\":\"ping\"}}").expect("ping");
    line.clear();
    other_reader.read_line(&mut line).expect("pong");
    assert!(line.contains("\"type\":\"pong\""), "{line}");
    let transcript = submit_over_tcp(addr, "brisk", "b1");
    assert!(
        transcript[0].contains("\"type\":\"ack\""),
        "{}",
        transcript[0]
    );

    writeln!(other, "{{\"type\":\"shutdown\"}}").expect("shutdown");
    line.clear();
    other_reader.read_line(&mut line).expect("bye");
    assert!(line.contains("\"type\":\"bye\""), "{line}");
    accept.join().expect("accept loop exits after shutdown");
    for h in workers {
        h.join().expect("workers exit after drain");
    }
}
