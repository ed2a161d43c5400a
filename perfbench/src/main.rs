//! End-to-end benchmark of the AIVRIL2 reproduction, with an
//! outside-in per-layer trace. See `README.md` beside this package for
//! the workloads and every metric.
//!
//! ```text
//! perfbench --workload <grid_cold|grid_cached|serve_open> --seed <n>
//!           --seconds <n> --trace <0|1> [--serve-bin <path>]
//! perfbench --bless
//! ```
//!
//! Run from the repository root (through `run.sh`, which builds the
//! program first). The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, with the
//! end-to-end metrics for `--trace 0` and the per-layer metrics for
//! `--trace 1`. The line before it is the run's stamp. Outputs that do
//! not match the digests in `expected.json` count as failed operations
//! and make the exit code non-zero. `--bless` rewrites `expected.json`
//! from the current program.

mod grid;
mod metrics;
mod rng;
mod serve;
mod spans;
mod sys;
mod traced;

use aivril_bench::{Flow, Harness, JobRun};
use aivril_eda::{EdaCache, XsimToolSuite};
use aivril_llm::profiles;
use aivril_obs::{json, Recorder};
use aivril_serve::protocol::{result_frame, SubmitRequest};
use aivril_serve::{job_seed, ServeConfig};
use grid::GridKind;
use metrics::{median, percentile, ratio, Metrics, END_TO_END, PER_LAYER, REJECT_REASONS};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use traced::{TracedCell, TracedPass};

/// Where runs leave checkpoints, journals, spans and records (relative
/// to the repository root the benchmark runs from).
const OUT_DIR: &str = ".bench_out";
/// Repetitions of each set-up measurement whose median is reported.
const SETUP_REPEATS: usize = 9;

/// FNV-64 of an output, as `expected.json` stores it.
fn digest(text: &str) -> String {
    format!("0x{:016x}", aivril_obs::codec::fnv64(text.as_bytes()))
}

/// The expected output digests (see [`bless`]).
const EXPECTED: &str = include_str!("../expected.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    GridCold,
    GridCached,
    ServeOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "grid_cold" => Some(Workload::GridCold),
            "grid_cached" => Some(Workload::GridCached),
            "serve_open" => Some(Workload::ServeOpen),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid_cold",
            Workload::GridCached => "grid_cached",
            Workload::ServeOpen => "serve_open",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a whole number".to_string())?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed wants a non-negative integer".to_string())?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other}")),
        },
        serve_bin: PathBuf::from(value("--serve-bin").unwrap_or("target/release/aivril-serve")),
    })
}

/// The expected digests: canonical results JSON per grid section, and
/// the `result` frame of every serve pool job, keyed `tenant/job`.
struct Expected {
    grid: HashMap<String, String>,
    serve: HashMap<String, String>,
}

fn load_expected() -> Result<Expected, String> {
    let doc = json::parse(EXPECTED).ok_or("expected.json does not parse")?;
    let table = |key: &str| -> Result<HashMap<String, String>, String> {
        match doc.get(key) {
            Some(json::Value::Obj(pairs)) => Ok(pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.str()?.to_string())))
                .collect()),
            _ => Err(format!("expected.json lacks the {key} table")),
        }
    };
    Ok(Expected {
        grid: table("grid")?,
        serve: table("serve")?,
    })
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--bless") {
        return match bless() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("[perfbench] bless failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            eprintln!(
                "usage: perfbench --workload <grid_cold|grid_cached|serve_open> --seed <n> \
                 --seconds <n> --trace <0|1> [--serve-bin <path>]"
            );
            return ExitCode::from(2);
        }
    };
    let steal_before = sys::host_steal_ticks();
    match run(&args) {
        Ok(outcome) => {
            let correct = outcome.failed == 0;
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            let result = format!(
                "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                outcome.attempted,
                outcome.failed,
                outcome.metrics.render(table)
            );
            let steal = sys::host_steal_ticks().saturating_sub(steal_before);
            let stamp = stamp(&args, sys::ticks_to_seconds(steal));
            println!("{{\"stamp\":{stamp}}}");
            println!("{result}");
            append_record(&stamp, &result);
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "[perfbench] {} of {} operations failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("[perfbench] {e}");
            ExitCode::FAILURE
        }
    }
}

/// Identifies what a result was measured on, so runs on different
/// machines or code are never compared silently. `steal_s` is the CPU
/// time the hypervisor took from this machine during the run.
fn stamp(args: &Args, steal_s: f64) -> String {
    let root = Path::new(".");
    json::object(&[
        ("commit", json::string(&sys::git_commit(root))),
        ("source_fnv64", json::string(&sys::source_digest(root))),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        (
            "profile",
            json::string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("workload", json::string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("serve_rate_per_s", serve::RATE_PER_S.to_string()),
        ("host_steal_s", steal_s.to_string()),
    ])
}

fn append_record(stamp: &str, result: &str) {
    use std::io::Write;
    let path = Path::new(OUT_DIR).join("records.jsonl");
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(f, "{{\"stamp\":{stamp},\"result\":{result}}}")
    });
    if let Err(e) = written {
        eprintln!("[perfbench] cannot append {}: {e}", path.display());
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let expected = load_expected()?;
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let scratch = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating scratch: {e}"))?;
    let result = match (args.workload, args.trace) {
        (Workload::GridCold, false) => grid_e2e(GridKind::Cold, args, &expected, &scratch),
        (Workload::GridCached, false) => grid_e2e(GridKind::Cached, args, &expected, &scratch),
        (Workload::GridCold, true) => grid_traced(GridKind::Cold, args, &expected, &scratch),
        (Workload::GridCached, true) => grid_traced(GridKind::Cached, args, &expected, &scratch),
        (Workload::ServeOpen, trace) => serve_run(args, trace, &expected, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// Grid cells of `pass` whose section digest differs from the expected
/// one (a crashed cell changes its section's digest too).
fn grid_failures(pass: &grid::Pass, expected: &Expected) -> Result<u64, String> {
    let sections = grid::sections(&profiles::all());
    let mut failed = 0;
    for (section, digest) in sections.iter().zip(&pass.digests) {
        let want = expected
            .grid
            .get(&section.label)
            .ok_or_else(|| format!("no expected digest for section {}", section.label))?;
        if want != digest {
            eprintln!(
                "[perfbench] section {} digest {digest} != expected {want}",
                section.label
            );
            failed += pass.cells_per_section as u64;
        }
    }
    Ok(failed)
}

/// `grid_cold` / `grid_cached` with tracing off: whole grid passes,
/// each on a fresh harness, until `--seconds` have elapsed.
///
/// A job of a grid is one section (one `evaluate_with_stats` call, as
/// `table1` issues them); its latency is the median of that section's
/// wall time over the passes, and the percentiles run over the twelve
/// sections. Peak memory is read after the first pass, so it is the
/// footprint of one grid in a fresh process, not of the allocator
/// state several harness lifetimes leave behind.
fn grid_e2e(
    kind: GridKind,
    args: &Args,
    expected: &Expected,
    scratch: &Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut passes = vec![grid::run_pass(kind, scratch, "0")?];
    let peak_rss_mb = sys::peak_rss_mb("self")?;
    while start.elapsed().as_secs_f64() < args.seconds {
        passes.push(grid::run_pass(kind, scratch, &passes.len().to_string())?);
    }
    let mut failed = 0;
    let mut attempted = 0;
    for pass in &passes {
        failed += grid_failures(pass, expected)?;
        attempted += (pass.cells_per_section * pass.digests.len()) as u64;
    }
    eprintln!(
        "[perfbench] {} passes, evaluation seconds: {:?}",
        passes.len(),
        passes
            .iter()
            .map(|p| (p.eval_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let section_ms: Vec<f64> = (0..passes[0].section_s.len())
        .map(|i| {
            median(
                &passes
                    .iter()
                    .map(|p| p.section_s[i] * 1e3)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let per_pass =
        |f: &dyn Fn(&grid::Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let cells = |p: &grid::Pass| (p.cells_per_section * p.digests.len()) as f64;
    let mut m = Metrics::default();
    m.set("setup_s", per_pass(&|p| p.setup_s));
    m.set("runs_per_s", per_pass(&|p| cells(p) / p.eval_s));
    m.set("cpu_ms_per_run", per_pass(&|p| p.cpu_s * 1e3 / cells(p)));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("job_p50_ms", percentile(&section_ms, 50.0));
    m.set("job_p99_ms", percentile(&section_ms, 99.0));
    m.set(
        "jobs_per_s",
        per_pass(&|p| p.digests.len() as f64 / p.eval_s),
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// The set-up layers, timed apart: suite generation and the simulated
/// models' task library.
fn setup_layers(m: &mut Metrics) {
    let mut suite_s = Vec::new();
    let mut library_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let problems = aivril_verilogeval::suite();
        suite_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(aivril_bench::build_library(&problems));
        library_s.push(t.elapsed().as_secs_f64());
    }
    m.set("verilogeval.suite_s", median(&suite_s));
    m.set("bench.library_s", median(&library_s));
}

/// The per-layer metrics a traced pass and its replay give.
fn traced_layers(m: &mut Metrics, pass: &TracedPass, replay: &traced::ReplayStats) {
    let by_name = spans::self_seconds_by_name(&pass.logs);
    let s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let runs = pass.runs.len() as f64;
    m.set("llm.chat_s", s("llm.chat"));
    m.set("llm.chat_calls", pass.chat_calls as f64);
    m.set("llm.completion_tokens", pass.completion_tokens as f64);
    m.set("eda.analyze_s", s("eda.analyze"));
    m.set("eda.compile_s", s("eda.compile"));
    m.set("eda.simulate_s", s("eda.simulate"));
    m.set("eda.calls", pass.eda_calls as f64);
    let eda_s = s("eda.analyze") + s("eda.compile") + s("eda.simulate");
    m.set("eda.self_s", eda_s - replay.total_s());
    m.set("core.flow_self_s", s("core.flow"));
    m.set("bench.score_s", s("bench.score"));
    let iters =
        |f: &dyn Fn(&JobRun) -> u32| pass.runs.iter().map(|r| f(r) as f64).sum::<f64>() / runs;
    m.set(
        "core.syntax_iters_per_run",
        iters(&|r| r.record.outcome.syntax_iters),
    );
    m.set(
        "core.functional_iters_per_run",
        iters(&|r| r.record.outcome.functional_iters),
    );
    let wall_ns = (pass.wall_s * 1e9) as u64;
    m.set("trace.span_coverage", spans::coverage(&pass.logs, wall_ns));
    for (lang, front) in [("verilog", &replay.verilog), ("vhdl", &replay.vhdl)] {
        let lex_s = front.lex_ns as f64 * 1e-9;
        let set = |m: &mut Metrics, suffix: &str, v: f64| m.set(&format!("{lang}.{suffix}"), v);
        set(m, "lex_s", lex_s);
        set(m, "parse_s", front.parse_ns as f64 * 1e-9);
        set(m, "elab_s", front.elab_ns as f64 * 1e-9);
        set(m, "bytes", front.bytes as f64);
        set(m, "tokens", front.tokens as f64);
        set(m, "lex_mb_per_s", ratio(front.bytes as f64 / 1e6, lex_s));
    }
    let run_s = replay.run_ns as f64 * 1e-9;
    m.set("sim.lower_s", replay.lower_ns as f64 * 1e-9);
    m.set("sim.run_s", run_s);
    m.set("sim.instructions", replay.instructions as f64);
    m.set("sim.eval_allocs", replay.eval_allocs as f64);
    m.set(
        "sim.minstrs_per_s",
        ratio(replay.instructions as f64 / 1e6, run_s),
    );
}

/// Cache ratios from a harness's lifetime cache counters.
fn cache_layers(m: &mut Metrics, cache: Option<aivril_eda::CacheStats>) {
    let c = cache.unwrap_or_default();
    m.set(
        "eda.cache_hit_ratio",
        ratio(c.hits as f64, (c.hits + c.misses) as f64),
    );
    m.set(
        "eda.parse_memo_hit_ratio",
        ratio(c.parse_hits as f64, (c.parse_hits + c.parse_misses) as f64),
    );
    m.set(
        "eda.elab_memo_hit_ratio",
        ratio(c.elab_hits as f64, (c.elab_hits + c.elab_misses) as f64),
    );
    m.set("eda.cache_entries", c.entries as f64);
}

/// The pipeline tools of a traced pass, configured as the harness
/// configures its own for the workload.
fn pipeline_tools(cached: bool) -> XsimToolSuite {
    let tools = XsimToolSuite::new();
    if cached {
        tools.with_cache(EdaCache::new()).with_incremental(true)
    } else {
        tools
    }
}

/// `grid_cold` / `grid_cached` with tracing on: one untraced pass (the
/// digests and cache counters the e2e run sees), one traced pass over
/// the same cells in seeded order, and the replay of the EDA inputs
/// that missed the cache.
fn grid_traced(
    kind: GridKind,
    args: &Args,
    expected: &Expected,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    setup_layers(&mut m);
    let untraced = grid::run_pass(kind, scratch, "untraced")?;
    let mut failed = grid_failures(&untraced, expected)?;
    cache_layers(&mut m, untraced.cache);
    m.set("bench.checkpoint_bytes", untraced.checkpoint_bytes as f64);
    m.zero_layer("serve.");

    let profiles = profiles::all();
    let sections = grid::sections(&profiles);
    let harness = Harness::new(grid::harness_config(kind, None));
    let problems = harness.problems().len();
    let cells: Vec<TracedCell> = sections
        .iter()
        .flat_map(|s| {
            (0..problems).map(move |pi| TracedCell {
                profile: s.profile,
                problem: pi,
                verilog: s.verilog,
                flow: s.flow,
                seed: aivril_bench::run_seed(pi, 0),
            })
        })
        .collect();
    let tools = pipeline_tools(kind == GridKind::Cached);
    let order = rng::SplitMix64::new(args.seed).permutation(cells.len());
    let mut pass = traced::run_traced(&harness, &tools, &profiles, &cells, &order, grid::THREADS);

    // The trace measures the same work only if its outcomes are the
    // untraced ones.
    let names: Vec<&str> = harness.problems().iter().map(|p| p.name.as_str()).collect();
    for (si, section) in sections.iter().enumerate() {
        let records: Vec<_> = pass.runs[si * problems..(si + 1) * problems]
            .iter()
            .map(|r| &r.record)
            .collect();
        let digest = grid::digest_from_records(&section.label, &names, &records);
        if expected.grid.get(&section.label) != Some(&digest) {
            eprintln!(
                "[perfbench] traced section {} digest {digest} differs",
                section.label
            );
            failed += problems as u64;
        }
    }
    m.set("trace.overhead_s", pass.wall_s - untraced.eval_s);

    let calls = std::mem::take(&mut pass.calls);
    let calls = if kind == GridKind::Cached {
        traced::cache_misses(calls)
    } else {
        calls
    };
    let replay = traced::replay(&calls, grid::THREADS);
    traced_layers(&mut m, &pass, &replay);
    write_spans(args, &pass);
    Ok(Outcome {
        attempted: 2 * cells.len() as u64,
        failed,
        metrics: m,
    })
}

fn write_spans(args: &Args, pass: &TracedPass) {
    let path = Path::new(OUT_DIR).join(format!("{}.spans.jsonl", args.workload.name()));
    if let Err(e) = spans::write_jsonl(&path, &pass.logs) {
        eprintln!("[perfbench] cannot write {}: {e}", path.display());
    }
}

/// Writes each job's client-side timestamps (seconds since the run
/// started) and frame counts as one JSON line.
fn write_jobs(args: &Args, jobs: &[serve::JobTrace]) {
    use std::io::Write;
    let path = Path::new(OUT_DIR).join(format!("{}.jobs.jsonl", args.workload.name()));
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| v.to_string());
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        for j in jobs {
            writeln!(
                out,
                "{{\"scheduled_s\":{},\"sent_s\":{},\"ack_s\":{},\"first_progress_s\":{},\
                 \"result_s\":{},\"frames\":{},\"bytes\":{},\"terminal\":{}}}",
                j.scheduled_s,
                opt(j.sent_s),
                opt(j.ack_s),
                opt(j.first_progress_s),
                opt(j.result_s),
                j.frames,
                j.bytes,
                json::string(&format!("{:?}", j.terminal)),
            )?;
        }
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("[perfbench] cannot write {}: {e}", path.display());
    }
}

/// `serve_open`: set-up timed over several fresh servers, then the
/// open loop against the last one. With tracing on, also the per-job
/// phases, the `stats` frame, and an in-process traced run of the same
/// jobs.
fn serve_run(
    args: &Args,
    trace: bool,
    expected: &Expected,
    scratch: &Path,
) -> Result<Outcome, String> {
    let config = ServeConfig::from_vars_checked(|_| None).0;
    let harness = Harness::new(config.harness.clone());
    let problems = harness.problems();
    let task_names: Vec<String> = problems.iter().map(|p| p.name.clone()).collect();
    let schedule = serve::plan(args.seed, serve::RATE_PER_S, args.seconds, problems.len());

    let mut setup_s = Vec::new();
    let mut server = None;
    for i in 0..SETUP_REPEATS {
        let journal = serve::fresh_dir(scratch, &format!("journal-{i}"))?;
        let (child, s) = serve::ServerChild::spawn(&args.serve_bin, &journal)?;
        setup_s.push(s);
        if i + 1 < SETUP_REPEATS {
            child.shutdown();
        } else {
            server = Some((child, journal));
        }
    }
    let (server, journal) = server.expect("at least one server spawned");
    let pid = server.pid.to_string();
    let cpu0 = sys::cpu_seconds(&pid)?;
    let observed = serve::open_loop(&server.addr, &schedule, &task_names, &expected.serve)?;
    let cpu_s = sys::cpu_seconds(&pid)? - cpu0;
    let rss_mb = sys::peak_rss_mb(&pid)?;
    let journal_bytes = sys::dir_bytes(&journal);
    let stats = if trace {
        Some(server.control(&aivril_serve::protocol::Request::Stats)?)
    } else {
        None
    };
    server.shutdown();

    let mut failed = observed.errors;
    let mut latency_ms = Vec::new();
    let mut rejects: HashMap<String, u64> = HashMap::new();
    for job in &observed.jobs {
        match &job.terminal {
            serve::Terminal::Result(true) => {
                latency_ms.push((job.result_s.unwrap_or(0.0) - job.scheduled_s) * 1e3);
            }
            serve::Terminal::Rejected(reason) => {
                *rejects.entry(reason.clone()).or_default() += 1;
                failed += 1;
            }
            other => {
                eprintln!(
                    "[perfbench] job scheduled at {:.3}s failed: {other:?}",
                    job.scheduled_s
                );
                failed += 1;
            }
        }
    }
    if !rejects.is_empty() {
        eprintln!("[perfbench] rejected jobs by reason: {rejects:?}");
    }
    let completed = latency_ms.len() as f64;
    let window = args.seconds.max(observed.last_terminal_s);
    let mut m = Metrics::default();
    if !trace {
        m.set("setup_s", median(&setup_s));
        m.set("runs_per_s", completed / window);
        m.set("cpu_ms_per_run", ratio(cpu_s * 1e3, completed));
        m.set("peak_rss_mb", rss_mb);
        m.set("job_p50_ms", percentile(&latency_ms, 50.0));
        m.set("job_p99_ms", percentile(&latency_ms, 99.0));
        m.set("jobs_per_s", completed / window);
        return Ok(Outcome {
            attempted: schedule.len() as u64,
            failed,
            metrics: m,
        });
    }

    write_jobs(args, &observed.jobs);
    // Client-side phases of each job.
    let phase = |from: fn(&serve::JobTrace) -> Option<f64>,
                 to: fn(&serve::JobTrace) -> Option<f64>| {
        observed
            .jobs
            .iter()
            .filter_map(|j| Some((to(j)? - from(j)?) * 1e3))
            .collect::<Vec<f64>>()
    };
    let admit = phase(|j| j.sent_s, |j| j.ack_s);
    let execute = phase(|j| j.ack_s, |j| j.first_progress_s);
    let stream = phase(|j| j.first_progress_s, |j| j.result_s);
    let lag = observed
        .jobs
        .iter()
        .filter_map(|j| Some((j.sent_s? - j.scheduled_s) * 1e3))
        .collect::<Vec<f64>>();
    let jobs = observed.jobs.len() as f64;
    m.set("serve.admit_ms_p50", percentile(&admit, 50.0));
    m.set("serve.execute_ms_p50", percentile(&execute, 50.0));
    m.set("serve.execute_ms_p99", percentile(&execute, 99.0));
    m.set("serve.stream_ms_p50", percentile(&stream, 50.0));
    m.set(
        "serve.frames_per_job",
        observed.jobs.iter().map(|j| j.frames as f64).sum::<f64>() / jobs,
    );
    m.set(
        "serve.bytes_per_job",
        observed.jobs.iter().map(|j| j.bytes as f64).sum::<f64>() / jobs,
    );
    m.set("serve.cpu_ms_per_job", ratio(cpu_s * 1e3, completed));
    m.set("serve.journal_bytes", journal_bytes as f64);
    m.set("serve.generator_lag_ms_p99", percentile(&lag, 99.0));
    for reason in REJECT_REASONS {
        m.set(
            &format!("serve.rejects_{reason}"),
            rejects.get(*reason).copied().unwrap_or(0) as f64,
        );
    }
    m.set("bench.checkpoint_bytes", 0.0);
    setup_layers(&mut m);

    // The same jobs in process: untraced through `Harness::run_job`
    // (the server's execution path), then traced.
    let profile = config.profile();
    let jobs: Vec<serve::PoolJob> = schedule.iter().map(|p| p.job).collect();
    let (requests, cells) = serve_cells(&jobs, &task_names);
    let t = Instant::now();
    let runs = run_jobs(&harness, &profile, &cells);
    let untraced_s = t.elapsed().as_secs_f64();
    eprintln!(
        "[perfbench] in process, {} workers ran {} jobs at {:.0} jobs/s",
        serve::WORKERS,
        cells.len(),
        cells.len() as f64 / untraced_s
    );
    // Memo ratios from the in-process run; the live server's cache hit
    // ratio and size from its final `stats` frame.
    cache_layers(&mut m, harness.cache_stats());
    let stats = stats
        .and_then(|s| json::parse(&s))
        .ok_or("no stats frame")?;
    let cache = stats
        .get("eda_cache")
        .ok_or("stats frame lacks eda_cache")?;
    let count = |k: &str| cache.get(k).and_then(json::Value::num).unwrap_or(0.0);
    m.set(
        "eda.cache_hit_ratio",
        ratio(count("hits"), count("hits") + count("misses")),
    );
    m.set("eda.cache_entries", count("entries"));
    let traced_harness = Harness::new(config.harness.clone());
    let tools = pipeline_tools(true);
    let order = rng::SplitMix64::new(args.seed).permutation(cells.len());
    let mut pass = traced::run_traced(
        &traced_harness,
        &tools,
        std::slice::from_ref(&profile),
        &cells,
        &order,
        serve::WORKERS,
    );
    for (runs, what) in [(&runs, "in-process"), (&pass.runs, "traced")] {
        for (run, (cell, request)) in runs.iter().zip(cells.iter().zip(&requests)) {
            let got = digest(&result_frame(request, cell.seed, run));
            if expected
                .serve
                .get(&format!("{}/{}", request.tenant, request.job))
                != Some(&got)
            {
                eprintln!(
                    "[perfbench] {what} job {}/{} differs",
                    request.tenant, request.job
                );
                failed += 1;
            }
        }
    }
    m.set("trace.overhead_s", pass.wall_s - untraced_s);
    let calls = traced::cache_misses(std::mem::take(&mut pass.calls));
    let replay = traced::replay(&calls, serve::WORKERS);
    traced_layers(&mut m, &pass, &replay);
    write_spans(args, &pass);
    Ok(Outcome {
        attempted: 3 * schedule.len() as u64,
        failed,
        metrics: m,
    })
}

/// The `submit` request of each serve job, and the same job as a cell
/// for in-process runs: the server's model, AIVRIL2, and the seed the
/// server derives from `(tenant, job)`.
fn serve_cells(
    jobs: &[serve::PoolJob],
    task_names: &[String],
) -> (Vec<SubmitRequest>, Vec<TracedCell>) {
    jobs.iter()
        .map(|j| {
            let request = j.request(&task_names[j.problem]);
            let cell = TracedCell {
                profile: 0,
                problem: j.problem,
                verilog: j.verilog,
                flow: Flow::Aivril2,
                seed: job_seed(&request.tenant, &request.job),
            };
            (request, cell)
        })
        .unzip()
}

/// Runs `cells` through `Harness::run_job` on [`serve::WORKERS`]
/// threads, as the server's workers do; results in cell order.
fn run_jobs(
    harness: &Harness,
    profile: &aivril_llm::ModelProfile,
    cells: &[TracedCell],
) -> Vec<JobRun> {
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::OnceLock<JobRun>> =
        cells.iter().map(|_| std::sync::OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..serve::WORKERS {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(c) = cells.get(i) else { break };
                let run = harness.run_job(
                    profile,
                    c.problem,
                    c.seed,
                    c.verilog,
                    c.flow,
                    &Recorder::disabled(),
                );
                let _ = slots[i].set(run);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every job ran"))
        .collect()
}

/// Rewrites `expected.json` from the current program: the canonical
/// digest of every grid section (checked equal between the cold and
/// the cached configuration) and the `result` frame digest of every
/// serve pool job, rendered in process as the server renders it.
fn bless() -> Result<(), String> {
    let scratch = Path::new(OUT_DIR).join("bless");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let sections = grid::sections(&profiles::all());
    let cold = grid::run_pass(GridKind::Cold, &scratch, "cold")?;
    let cached = grid::run_pass(GridKind::Cached, &scratch, "cached")?;
    if cold.digests != cached.digests {
        return Err("cold and cached grid digests differ".into());
    }
    let grid: Vec<(String, String)> = sections
        .iter()
        .zip(&cold.digests)
        .map(|(s, d)| (s.label.clone(), json::string(d)))
        .collect();

    let config = ServeConfig::from_vars_checked(|_| None).0;
    let harness = Harness::new(config.harness.clone());
    let profile = config.profile();
    let problems = harness.problems();
    let pool: Vec<serve::PoolJob> = (0..serve::pool_size(problems.len()))
        .map(|i| serve::PoolJob::from_index(i, problems.len()))
        .collect();
    let requests: Vec<_> = pool
        .iter()
        .map(|j| j.request(&problems[j.problem].name))
        .collect();
    let cells: Vec<TracedCell> = pool
        .iter()
        .zip(&requests)
        .map(|(j, r)| TracedCell {
            profile: 0,
            problem: j.problem,
            verilog: j.verilog,
            flow: Flow::Aivril2,
            seed: job_seed(&r.tenant, &r.job),
        })
        .collect();
    let runs = run_jobs(&harness, &profile, &cells);
    let mut serve: Vec<(String, String)> = requests
        .iter()
        .zip(cells.iter().zip(&runs))
        .map(|(r, (c, run))| {
            let frame = result_frame(r, c.seed, run);
            (
                format!("{}/{}", r.tenant, r.job),
                json::string(&format!(
                    "0x{:016x}",
                    aivril_obs::codec::fnv64(frame.as_bytes())
                )),
            )
        })
        .collect();
    serve.sort();
    let render = |pairs: &[(String, String)]| {
        let fields: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("\n    {}: {v}", json::string(k)))
            .collect();
        format!("{{{}\n  }}", fields.join(","))
    };
    let doc = format!(
        "{{\n  \"grid\": {},\n  \"serve\": {}\n}}\n",
        render(&grid),
        render(&serve)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!(
        "[perfbench] wrote {} ({} grid sections, {} serve jobs); rebuild to embed it",
        path.display(),
        grid.len(),
        serve.len()
    );
    Ok(())
}
