//! The traced pass: the same pipeline runs the harness makes, driven
//! from here through timing decorators, then a replay of the EDA inputs
//! they saw through the frontends and the simulator.
//!
//! Nothing here changes program code. The decorators wrap the public
//! [`ToolSuite`] and [`LanguageModel`] traits; the traced pass calls
//! [`Aivril2`]/[`BaselineFlow`], [`SimLlm`] and
//! [`Harness::score_with_latency`] exactly as the harness's own grid
//! worker does, so its outcomes must equal the untraced digests.

use crate::spans::{Span, SpanLog};
use aivril_bench::{Flow, Harness, JobRun, RunRecord};
use aivril_core::{Aivril2, Aivril2Config, BaselineFlow, Stage, TaskInput};
use aivril_eda::{CompileReport, HdlFile, Language, SimReport, ToolSuite, XsimToolSuite};
use aivril_hdl::diag::Diagnostics;
use aivril_hdl::source::SourceMap;
use aivril_llm::{ChatRequest, ChatResponse, LanguageModel, LlmError, ModelProfile, SimLlm};
use aivril_metrics::SampleOutcome;
use aivril_sim::{SimConfig, Simulator};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which tool entry point an EDA call used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdaKind {
    Analyze,
    Compile,
    Simulate,
}

/// One captured EDA invocation, kept for the replay.
#[derive(Debug, Clone)]
pub struct EdaCall {
    pub kind: EdaKind,
    pub files: Vec<HdlFile>,
    pub top: Option<String>,
}

impl EdaCall {
    /// Content key: equal keys are the same invocation, which a
    /// content-addressed cache executes once.
    fn key(&self) -> u64 {
        let mut w = aivril_obs::codec::Writer::new();
        w.str(match self.kind {
            EdaKind::Analyze => "analyze",
            EdaKind::Compile => "compile",
            EdaKind::Simulate => "simulate",
        });
        w.str(self.top.as_deref().unwrap_or(""));
        for f in &self.files {
            w.str(&f.name);
            w.str(&f.text);
        }
        aivril_obs::codec::fnv64(w.payload().as_bytes())
    }
}

/// Per-thread counters the decorators keep beside their spans.
#[derive(Debug, Default)]
struct Counters {
    chat_calls: Cell<u64>,
    completion_tokens: Cell<u64>,
    eda_calls: Cell<u64>,
}

/// A [`ToolSuite`] that times every call into the wrapped suite and
/// captures its inputs.
struct TimedTools<'a> {
    inner: &'a XsimToolSuite,
    log: &'a SpanLog,
    counters: &'a Counters,
    capture: &'a RefCell<Vec<EdaCall>>,
}

impl TimedTools<'_> {
    fn record(&self, kind: EdaKind, files: &[HdlFile], top: Option<&str>) {
        self.counters
            .eda_calls
            .set(self.counters.eda_calls.get() + 1);
        // Copying the inputs is tracing cost, not flow work: its own
        // span keeps it out of the flow's self time.
        self.log.time("trace.capture", || {
            self.capture.borrow_mut().push(EdaCall {
                kind,
                files: files.to_vec(),
                top: top.map(String::from),
            });
        });
    }
}

impl ToolSuite for TimedTools<'_> {
    fn analyze(&self, files: &[HdlFile]) -> CompileReport {
        self.record(EdaKind::Analyze, files, None);
        self.log.time("eda.analyze", || self.inner.analyze(files))
    }

    fn compile(&self, files: &[HdlFile]) -> CompileReport {
        self.record(EdaKind::Compile, files, None);
        self.log.time("eda.compile", || self.inner.compile(files))
    }

    fn simulate(&self, files: &[HdlFile], top: Option<&str>) -> SimReport {
        self.record(EdaKind::Simulate, files, top);
        self.log
            .time("eda.simulate", || self.inner.simulate(files, top))
    }
}

/// A [`LanguageModel`] that times every chat call into the wrapped
/// model and counts the tokens it generates.
struct TimedLlm<'a> {
    inner: SimLlm,
    log: &'a SpanLog,
    counters: &'a Counters,
}

impl LanguageModel for TimedLlm<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn chat(&mut self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let response = self.log.time("llm.chat", || self.inner.chat(request));
        let c = self.counters;
        c.chat_calls.set(c.chat_calls.get() + 1);
        if let Ok(r) = &response {
            c.completion_tokens
                .set(c.completion_tokens.get() + r.usage.completion_tokens);
        }
        response
    }
}

/// One pipeline run to drive: a grid cell or a serve job.
#[derive(Debug, Clone, Copy)]
pub struct TracedCell {
    pub profile: usize,
    pub problem: usize,
    pub verilog: bool,
    pub flow: Flow,
    pub seed: u64,
}

/// Everything one traced pass produced.
pub struct TracedPass {
    /// One run per cell, in cell order.
    pub runs: Vec<JobRun>,
    /// Per-thread span logs.
    pub logs: Vec<Vec<Span>>,
    /// Every captured EDA call, in no particular order.
    pub calls: Vec<EdaCall>,
    pub wall_s: f64,
    pub chat_calls: u64,
    pub completion_tokens: u64,
    pub eda_calls: u64,
}

/// Drives `cells` in `order` over `threads` workers. Pipeline tool
/// calls go through `tools` (wrapped in [`TimedTools`]); scoring goes
/// through `harness` as in the grid worker.
pub fn run_traced(
    harness: &Harness,
    tools: &XsimToolSuite,
    profiles: &[ModelProfile],
    cells: &[TracedCell],
    order: &[usize],
    threads: usize,
) -> TracedPass {
    let library = harness.library();
    let problems = harness.problems();
    let pipeline_config = Aivril2Config::default();
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, JobRun)>> = Mutex::new(Vec::with_capacity(cells.len()));
    let epoch = Instant::now();
    let per_thread: Vec<(Vec<Span>, Vec<EdaCall>, [u64; 3])> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (library, cursor, done) = (&library, &cursor, &done);
                scope.spawn(move || {
                    let log = SpanLog::new(epoch);
                    let counters = Counters::default();
                    let capture = RefCell::new(Vec::new());
                    let timed = TimedTools {
                        inner: tools,
                        log: &log,
                        counters: &counters,
                        capture: &capture,
                    };
                    let mut local = Vec::new();
                    loop {
                        let next = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&index) = order.get(next) else {
                            break;
                        };
                        let cell = cells[index];
                        let problem = &problems[cell.problem];
                        log.set_cell(u32::try_from(index).expect("cell index fits u32"));
                        let mut model = TimedLlm {
                            inner: SimLlm::new(profiles[cell.profile].clone(), library.clone()),
                            log: &log,
                            counters: &counters,
                        };
                        let task = TaskInput {
                            name: problem.name.clone(),
                            module_name: problem.module_name.clone(),
                            spec: problem.spec.clone(),
                            verilog: cell.verilog,
                            seed: cell.seed,
                        };
                        let result = log.time("core.flow", || match cell.flow {
                            Flow::Baseline => {
                                BaselineFlow::new().run(&mut model, &task, &pipeline_config)
                            }
                            Flow::Aivril2 => {
                                Aivril2::new(&timed, pipeline_config).run(&mut model, &task)
                            }
                        });
                        let ((syntax, functional), score_latency) = log.time("bench.score", || {
                            harness.score_with_latency(problem, &result.final_rtl, cell.verilog)
                        });
                        // The harness's own assembly of a run's record:
                        // the baseline's latency includes its scoring
                        // pass, AIVRIL2's tool time is already traced.
                        let extra = if cell.flow == Flow::Baseline {
                            score_latency
                        } else {
                            0.0
                        };
                        let trace = &result.trace;
                        let outcome = SampleOutcome {
                            syntax,
                            functional,
                            total_latency: trace.total_latency() + extra,
                            syntax_phase_latency: trace.syntax_phase_latency(),
                            functional_phase_latency: trace.functional_phase_latency(),
                            syntax_iters: trace.iterations(Stage::TbSyntaxLoop)
                                + trace.iterations(Stage::RtlSyntaxLoop),
                            functional_iters: trace.iterations(Stage::FunctionalLoop),
                            crashed: false,
                        };
                        local.push((
                            index,
                            JobRun {
                                record: RunRecord {
                                    outcome,
                                    llm_seconds: trace.llm_latency(),
                                    tool_seconds: trace.tool_latency() + extra,
                                    resilience: result.resilience,
                                },
                                rtl: result.final_rtl,
                                tb: result.final_tb,
                            },
                        ));
                    }
                    done.lock().expect("no worker panicked").extend(local);
                    let counts = [
                        counters.chat_calls.get(),
                        counters.completion_tokens.get(),
                        counters.eda_calls.get(),
                    ];
                    (log.into_spans(), capture.into_inner(), counts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut slots: Vec<Option<JobRun>> = (0..cells.len()).map(|_| None).collect();
    for (index, run) in done.into_inner().expect("no worker panicked") {
        slots[index] = Some(run);
    }
    let mut pass = TracedPass {
        runs: slots
            .into_iter()
            .map(|r| r.expect("every cell driven"))
            .collect(),
        logs: Vec::new(),
        calls: Vec::new(),
        wall_s,
        chat_calls: 0,
        completion_tokens: 0,
        eda_calls: 0,
    };
    for (spans, calls, [chats, tokens, eda]) in per_thread {
        pass.logs.push(spans);
        pass.calls.extend(calls);
        pass.chat_calls += chats;
        pass.completion_tokens += tokens;
        pass.eda_calls += eda;
    }
    pass
}

/// Keeps the first call of each distinct input: the ones a
/// content-addressed cache misses and executes.
#[must_use]
pub fn cache_misses(calls: Vec<EdaCall>) -> Vec<EdaCall> {
    let mut seen = std::collections::HashSet::new();
    calls.into_iter().filter(|c| seen.insert(c.key())).collect()
}

/// Time and work of one frontend over the replayed inputs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontStats {
    pub lex_ns: u64,
    pub parse_ns: u64,
    pub elab_ns: u64,
    pub bytes: u64,
    pub tokens: u64,
}

impl FrontStats {
    fn add(&mut self, o: &FrontStats) {
        self.lex_ns += o.lex_ns;
        self.parse_ns += o.parse_ns;
        self.elab_ns += o.elab_ns;
        self.bytes += o.bytes;
        self.tokens += o.tokens;
    }
}

/// What the replay measured, summed over its threads.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayStats {
    pub verilog: FrontStats,
    pub vhdl: FrontStats,
    pub lower_ns: u64,
    pub run_ns: u64,
    pub instructions: u64,
    pub eval_allocs: u64,
}

impl ReplayStats {
    fn add(&mut self, o: &ReplayStats) {
        self.verilog.add(&o.verilog);
        self.vhdl.add(&o.vhdl);
        self.lower_ns += o.lower_ns;
        self.run_ns += o.run_ns;
        self.instructions += o.instructions;
        self.eval_allocs += o.eval_allocs;
    }

    /// Seconds the replay spent in the frontends and the kernel.
    pub fn total_s(&self) -> f64 {
        let ns = [&self.verilog, &self.vhdl]
            .iter()
            .map(|f| f.lex_ns + f.parse_ns + f.elab_ns)
            .sum::<u64>()
            + self.lower_ns
            + self.run_ns;
        ns as f64 * 1e-9
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays `calls` through the public frontend and simulator entry
/// points, the sequence `XsimToolSuite` runs for each tool: lex and
/// parse every file; for compile and simulate, stop on syntax errors,
/// elaborate the top; for simulate, lower (`Simulator::new`) and run.
#[must_use]
pub fn replay(calls: &[EdaCall], threads: usize) -> ReplayStats {
    let cursor = AtomicUsize::new(0);
    let parts: Vec<ReplayStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut stats = ReplayStats::default();
                    while let Some(call) = calls.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        replay_one(call, &mut stats);
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    let mut total = ReplayStats::default();
    for p in &parts {
        total.add(p);
    }
    total
}

fn replay_one(call: &EdaCall, stats: &mut ReplayStats) {
    let mut sources = SourceMap::new();
    for f in &call.files {
        sources.add_file(f.name.clone(), f.text.clone());
    }
    if call.kind == EdaKind::Analyze {
        for (id, source) in sources.iter() {
            let mut diags = Diagnostics::new();
            match Language::from_file_name(source.name()) {
                Language::Verilog => {
                    let tokens = timed_lex(&mut stats.verilog, source.text(), || {
                        aivril_verilog::lex(id, source.text(), &mut diags)
                    });
                    let t = Instant::now();
                    std::hint::black_box(aivril_verilog::parse(tokens, &mut diags));
                    stats.verilog.parse_ns += elapsed_ns(t);
                }
                Language::Vhdl => {
                    let tokens = timed_lex(&mut stats.vhdl, source.text(), || {
                        aivril_vhdl::lex(id, source.text(), &mut diags)
                    });
                    let t = Instant::now();
                    std::hint::black_box(aivril_vhdl::parse(tokens, &mut diags));
                    stats.vhdl.parse_ns += elapsed_ns(t);
                }
            }
        }
        return;
    }
    let language = call.files.first().map_or(Language::Verilog, |f| f.language);
    if call.files.iter().any(|f| f.language != language) {
        // Mixed-language sets are refused before any frontend runs.
        return;
    }
    let simulate = call.kind == EdaKind::Simulate;
    let mut diags = Diagnostics::new();
    let design = match language {
        Language::Verilog => {
            let front = &mut stats.verilog;
            let mut unit = aivril_verilog::ast::SourceUnit::default();
            for (id, source) in sources.iter() {
                let tokens = timed_lex(front, source.text(), || {
                    aivril_verilog::lex(id, source.text(), &mut diags)
                });
                let t = Instant::now();
                let mut part = aivril_verilog::parse(tokens, &mut diags);
                front.parse_ns += elapsed_ns(t);
                unit.modules.append(&mut part.modules);
            }
            if diags.has_errors() {
                return;
            }
            let Some(top) = call.top.clone().or_else(|| aivril_verilog::find_top(&unit)) else {
                return;
            };
            let t = Instant::now();
            let design = aivril_verilog::elaborate(&unit, &top, &mut diags);
            front.elab_ns += elapsed_ns(t);
            design
        }
        Language::Vhdl => {
            let front = &mut stats.vhdl;
            let mut file = aivril_vhdl::ast::DesignFile::default();
            for (id, source) in sources.iter() {
                let tokens = timed_lex(front, source.text(), || {
                    aivril_vhdl::lex(id, source.text(), &mut diags)
                });
                let t = Instant::now();
                let mut part = aivril_vhdl::parse(tokens, &mut diags);
                front.parse_ns += elapsed_ns(t);
                file.entities.append(&mut part.entities);
                file.architectures.append(&mut part.architectures);
            }
            if diags.has_errors() {
                return;
            }
            let Some(top) = call.top.clone().or_else(|| aivril_vhdl::find_top(&file)) else {
                return;
            };
            let t = Instant::now();
            let design = aivril_vhdl::elaborate(&file, &top, &mut diags);
            front.elab_ns += elapsed_ns(t);
            design
        }
    };
    let Some(design) = design.filter(|_| simulate && !diags.has_errors()) else {
        return;
    };
    let t = Instant::now();
    let mut sim = Simulator::new(&design, SimConfig::default());
    stats.lower_ns += elapsed_ns(t);
    let t = Instant::now();
    std::hint::black_box(sim.run());
    stats.run_ns += elapsed_ns(t);
    let perf = sim.perf();
    stats.instructions += perf.instructions;
    stats.eval_allocs += perf.eval_allocs;
}

fn timed_lex<T>(front: &mut FrontStats, text: &str, lex: impl FnOnce() -> Vec<T>) -> Vec<T> {
    let t = Instant::now();
    let tokens = lex();
    front.lex_ns += elapsed_ns(t);
    front.bytes += text.len() as u64;
    front.tokens += tokens.len() as u64;
    tokens
}
