//! The `serve_open` workload: a seeded open-loop arrival schedule sent
//! to a fresh `aivril-serve` child over two client connections.

use aivril_bench::Flow;
use aivril_serve::protocol::{render_request, Request, SubmitRequest};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load in jobs per second, a small fraction of what two
/// workers complete on two cores, so the run measures latency under
/// light queueing rather than saturation. At 20 seconds a run sends
/// 1,200 of the 1,248 pool jobs, so seeds change the order, tenant
/// interleaving and arrival times far more than the job mix.
pub const RATE_PER_S: f64 = 60.0;
/// Tenants the jobs are spread over.
pub const TENANTS: usize = 4;
/// Client connections the generator sends on.
pub const CONNECTIONS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Per-tenant admission queue of the server (`AIVRIL_SERVE_MAX_QUEUE`,
/// default 8). At the default, a host stall of about 0.7 s at this
/// rate overflows a tenant's queue and the open loop sees `queue_full`
/// rejects; 64 absorbs stalls of several seconds, so the workload
/// measures latency rather than the overload policy. Rejects still
/// count as failed jobs.
pub const MAX_QUEUE: usize = 64;
/// How long after the last scheduled send the generator waits for
/// outstanding results before counting them failed.
const GRACE: Duration = Duration::from_secs(30);
/// How long a spawned server may take to print its `listening` line.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(30);

/// One job of the pool: a tenant, a suite problem and a language. Its
/// job id is derived from the problem and language, so `(tenant, job)`
/// — which fixes the server's seed and hence the `result` frame — is a
/// pure function of the pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolJob {
    pub tenant: usize,
    pub problem: usize,
    pub verilog: bool,
}

impl PoolJob {
    /// The `index`-th job of a pool over `problems` suite problems.
    #[must_use]
    pub fn from_index(index: usize, problems: usize) -> PoolJob {
        let per_tenant = problems * 2;
        let rem = index % per_tenant;
        PoolJob {
            tenant: index / per_tenant,
            problem: rem / 2,
            verilog: rem.is_multiple_of(2),
        }
    }

    pub fn tenant_name(&self) -> String {
        format!("tenant{}", self.tenant)
    }

    pub fn job_id(&self, task: &str) -> String {
        format!("{task}.{}", if self.verilog { "verilog" } else { "vhdl" })
    }

    /// The `submit` request for this job.
    pub fn request(&self, task: &str) -> SubmitRequest {
        SubmitRequest {
            tenant: self.tenant_name(),
            job: self.job_id(task),
            task: task.to_string(),
            verilog: self.verilog,
            flow: Flow::Aivril2,
        }
    }
}

/// Number of distinct jobs in the pool.
#[must_use]
pub fn pool_size(problems: usize) -> usize {
    TENANTS * problems * 2
}

/// One scheduled send: when (seconds after the run starts) and which
/// pool job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub at_s: f64,
    pub job: PoolJob,
}

/// The open-loop schedule of `seed`: `rate × seconds` distinct pool
/// jobs (capped at the pool), sent at Poisson arrival times over
/// `[0, seconds)`. Conditioned on the count, Poisson arrivals are
/// uniform order statistics, which keeps the offered rate exact.
#[must_use]
pub fn plan(seed: u64, rate: f64, seconds: f64, problems: usize) -> Vec<Planned> {
    let pool = pool_size(problems);
    let n = ((rate * seconds).round() as usize).min(pool);
    let mut rng = crate::rng::SplitMix64::new(seed);
    let jobs = rng.permutation(pool);
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
        .into_iter()
        .zip(&jobs)
        .map(|(at_s, &index)| Planned {
            at_s,
            job: PoolJob::from_index(index, problems),
        })
        .collect()
}

/// A running `aivril-serve` child. Dropping it kills and reaps the
/// process if it is still running.
pub struct ServerChild {
    child: Child,
    pub addr: String,
    pub pid: u32,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerChild {
    /// Spawns `bin` with two workers, an ephemeral port and the job
    /// journal in `journal_dir`, and waits until it prints `listening`.
    /// Returns the child and the seconds from spawn to that line.
    ///
    /// # Errors
    ///
    /// Returns an error when the process cannot start or exits before
    /// listening.
    pub fn spawn(bin: &Path, journal_dir: &Path) -> Result<(ServerChild, f64), String> {
        let mut cmd = Command::new(bin);
        for (key, _) in std::env::vars() {
            if key.starts_with("AIVRIL_") {
                cmd.env_remove(key);
            }
        }
        let t = Instant::now();
        let mut child = cmd
            .env("AIVRIL_SERVE_ADDR", "127.0.0.1:0")
            .env("AIVRIL_SERVE_WORKERS", WORKERS.to_string())
            .env("AIVRIL_SERVE_MAX_QUEUE", MAX_QUEUE.to_string())
            .env("AIVRIL_SERVE_JOURNAL_DIR", journal_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pid = child.id();
        let out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // The reader hands over the listening address, then keeps
        // draining so the server's final summary never meets a closed
        // pipe.
        let (tx, rx) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in out.lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                }
            }
        });
        let addr = match rx.recv_timeout(LISTEN_TIMEOUT) {
            Ok(addr) => addr,
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = drain.join();
                return Err("aivril-serve did not start listening".to_string());
            }
        };
        let setup_s = t.elapsed().as_secs_f64();
        Ok((
            ServerChild {
                child,
                addr,
                pid,
                drain: Some(drain),
            },
            setup_s,
        ))
    }

    /// Sends `request` on a fresh control connection and returns the
    /// first reply frame after the greeting.
    ///
    /// # Errors
    ///
    /// Returns an error on any transport failure.
    pub fn control(&self, request: &Request) -> Result<String, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        writeln!(writer, "{}", render_request(request)).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Err("server closed the control connection".to_string()),
                Ok(_) if line.contains("\"type\":\"hello\"") => continue,
                Ok(_) => return Ok(line.trim_end().to_string()),
                Err(e) => return Err(format!("control read: {e}")),
            }
        }
    }

    /// Asks the server to shut down and reaps it, killing it if it has
    /// not exited within ten seconds.
    pub fn shutdown(mut self) {
        let _ = self.control(&Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Terminal state of one job, as the client saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminal {
    /// No terminal frame arrived within the grace period.
    Missing,
    /// A `result` frame; `true` when it matched the expected digest.
    Result(bool),
    /// A `reject` frame with its reason.
    Rejected(String),
    /// An `expired` frame.
    Expired,
}

/// Client-side timestamps (seconds since the run started) and frame
/// accounting of one job.
#[derive(Debug, Clone)]
pub struct JobTrace {
    pub scheduled_s: f64,
    pub sent_s: Option<f64>,
    pub ack_s: Option<f64>,
    pub first_progress_s: Option<f64>,
    pub result_s: Option<f64>,
    pub frames: u64,
    pub bytes: u64,
    pub terminal: Terminal,
}

/// What the open loop observed.
pub struct OpenLoop {
    pub jobs: Vec<JobTrace>,
    /// `error` frames, which name no job.
    pub errors: u64,
    /// Seconds from the run start to the last terminal frame.
    pub last_terminal_s: f64,
}

/// Sends `schedule` to the server at `addr` over [`CONNECTIONS`]
/// connections (tenant parity picks the connection) and collects every
/// job's frames. `expected` maps `tenant/job` to the FNV-64 of its
/// `result` frame.
///
/// Each connection has a sender thread, which sleeps until each job is
/// due, and a reader thread; they share nothing, so a reader busy with
/// a large frame never delays a send.
///
/// # Errors
///
/// Returns an error when a connection cannot be opened.
pub fn open_loop(
    addr: &str,
    schedule: &[Planned],
    task_names: &[String],
    expected: &HashMap<String, String>,
) -> Result<OpenLoop, String> {
    let requests: Vec<SubmitRequest> = schedule
        .iter()
        .map(|p| p.job.request(&task_names[p.job.problem]))
        .collect();
    let index: HashMap<(String, String), usize> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| ((r.tenant.clone(), r.job.clone()), i))
        .collect();
    let mut streams = Vec::new();
    for _ in 0..CONNECTIONS {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        streams.push((s, writer));
    }
    let mut jobs: Vec<JobTrace> = schedule
        .iter()
        .map(|p| JobTrace {
            scheduled_s: p.at_s,
            sent_s: None,
            ack_s: None,
            first_progress_s: None,
            result_s: None,
            frames: 0,
            bytes: 0,
            terminal: Terminal::Missing,
        })
        .collect();
    // Start a little in the future so both senders are parked on
    // their first deadline when the clock starts.
    let t0 = Instant::now() + Duration::from_millis(50);
    let since = move || {
        let now = Instant::now();
        if now > t0 {
            (now - t0).as_secs_f64()
        } else {
            -(t0 - now).as_secs_f64()
        }
    };
    let stop_at = schedule.last().map_or(0.0, |p| p.at_s) + GRACE.as_secs_f64();
    let (sent, frames) = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for (conn, (stream, mut writer)) in streams.into_iter().enumerate() {
            let mine: Vec<usize> = (0..schedule.len())
                .filter(|&i| schedule[i].job.tenant % CONNECTIONS == conn)
                .collect();
            let pending = mine.len();
            let requests = &requests;
            senders.push(scope.spawn(move || {
                let mut sent = Vec::with_capacity(mine.len());
                for i in mine {
                    let due = t0 + Duration::from_secs_f64(schedule[i].at_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let line = format!(
                        "{}\n",
                        render_request(&Request::Submit(requests[i].clone()))
                    );
                    sent.push((i, since()));
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                }
                sent
            }));
            readers.push(scope.spawn(move || read_frames(stream, pending, stop_at, since)));
        }
        let sent: Vec<(usize, f64)> = senders
            .into_iter()
            .flat_map(|h| h.join().expect("client sender panicked"))
            .collect();
        let frames: Vec<(f64, String)> = readers
            .into_iter()
            .flat_map(|h| h.join().expect("client reader panicked"))
            .collect();
        (sent, frames)
    });
    for (i, at) in sent {
        jobs[i].sent_s = Some(at);
    }
    let mut errors = 0;
    let mut last_terminal_s = 0.0f64;
    for (at, frame) in &frames {
        match account_frame(frame, *at, &index, expected, &mut jobs) {
            Some(FrameKind::Terminal) => last_terminal_s = last_terminal_s.max(*at),
            Some(FrameKind::Error) => errors += 1,
            _ => {}
        }
    }
    Ok(OpenLoop {
        jobs,
        errors,
        last_terminal_s,
    })
}

/// Reads frames from one connection, each stamped with its arrival
/// time, until `terminals` jobs have ended or `stop_at` passes.
fn read_frames(
    stream: TcpStream,
    mut terminals: usize,
    stop_at: f64,
    since: impl Fn() -> f64,
) -> Vec<(f64, String)> {
    let mut reader = BufReader::new(stream);
    let mut frames = Vec::new();
    let mut line = Vec::new();
    while terminals > 0 && since() < stop_at {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.last() == Some(&b'\n') => {}
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // `read_until` keeps the bytes read before the timeout
                // in `line`; keep appending.
                continue;
            }
            Err(_) => break,
        }
        let at = since();
        let frame = String::from_utf8_lossy(&line).trim_end().to_string();
        line.clear();
        if matches!(
            field(&frame, "type"),
            Some("result" | "reject" | "expired" | "error")
        ) {
            terminals -= 1;
        }
        frames.push((at, frame));
    }
    frames
}

/// The string value of the first `"key":"..."` pair of a frame. Frames
/// are rendered in fixed field order with the identity fields first,
/// and names never contain quotes, so this reads a frame's header
/// without parsing its (possibly large) body.
fn field<'f>(frame: &'f str, key: &str) -> Option<&'f str> {
    let pat = format!("\"{key}\":\"");
    let start = frame.find(&pat)? + pat.len();
    let len = frame[start..].find('"')?;
    Some(&frame[start..start + len])
}

enum FrameKind {
    Progress,
    Terminal,
    Error,
}

/// Accounts one received frame to its job; `None` for frames that name
/// no known job (the greeting).
fn account_frame(
    frame: &str,
    at: f64,
    index: &HashMap<(String, String), usize>,
    expected: &HashMap<String, String>,
    jobs: &mut [JobTrace],
) -> Option<FrameKind> {
    let typ = field(frame, "type")?;
    if typ == "error" {
        return Some(FrameKind::Error);
    }
    let (tenant, job_id) = (field(frame, "tenant")?, field(frame, "job")?);
    let &i = index.get(&(tenant.to_string(), job_id.to_string()))?;
    let job = &mut jobs[i];
    job.frames += 1;
    job.bytes += frame.len() as u64 + 1;
    let terminal = match typ {
        "ack" => {
            job.ack_s = Some(at);
            None
        }
        "progress" => {
            job.first_progress_s.get_or_insert(at);
            None
        }
        "result" => {
            job.result_s = Some(at);
            let want = expected.get(&format!("{tenant}/{job_id}"));
            Some(Terminal::Result(want == Some(&crate::digest(frame))))
        }
        "reject" => Some(Terminal::Rejected(
            field(frame, "reason").unwrap_or("unknown").to_string(),
        )),
        "expired" => Some(Terminal::Expired),
        _ => None,
    };
    match terminal {
        Some(t) => {
            job.terminal = t;
            Some(FrameKind::Terminal)
        }
        None => Some(FrameKind::Progress),
    }
}

/// A fresh, empty journal directory `scratch/name`.
///
/// # Errors
///
/// Returns an error when an old directory of that name cannot be
/// removed.
pub fn fresh_dir(scratch: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = scratch.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule_and_jobs() {
        let a = plan(7, RATE_PER_S, 10.0, 156);
        let b = plan(7, RATE_PER_S, 10.0, 156);
        assert_eq!(a, b);
        assert_eq!(a.len(), 600);
    }

    #[test]
    fn another_seed_changes_the_schedule_and_jobs() {
        let a = plan(7, RATE_PER_S, 10.0, 156);
        let b = plan(8, RATE_PER_S, 10.0, 156);
        assert!(a.iter().zip(&b).any(|(x, y)| x.at_s != y.at_s));
        assert_ne!(
            a.iter().map(|p| p.job).collect::<Vec<_>>(),
            b.iter().map(|p| p.job).collect::<Vec<_>>()
        );
    }

    #[test]
    fn schedule_is_sorted_distinct_and_inside_the_window() {
        let jobs = plan(3, RATE_PER_S, 5.0, 156);
        assert!(jobs.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(jobs.iter().all(|p| (0.0..5.0).contains(&p.at_s)));
        let mut ids: Vec<(usize, usize, bool)> = jobs
            .iter()
            .map(|p| (p.job.tenant, p.job.problem, p.job.verilog))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
        assert!(jobs
            .iter()
            .all(|p| p.job.tenant < TENANTS && p.job.problem < 156));
    }

    #[test]
    fn pool_indices_map_to_distinct_jobs() {
        let n = pool_size(156);
        let mut seen: Vec<(usize, usize, bool)> = (0..n)
            .map(|i| {
                let j = PoolJob::from_index(i, 156);
                (j.tenant, j.problem, j.verilog)
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n);
    }
}
