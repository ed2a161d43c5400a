//! The elaborated design of one clean compile, kept for the next
//! simulate of the same candidate (`xelab`'s snapshot, run by `xsim`),
//! together with the clean result of simulating it once.

use std::sync::Arc;

use aivril_hdl::ir::Design;
use aivril_sim::{KernelPerf, KernelTelemetry, SimConfig};

use crate::cache::EdaCache;
use crate::latency::ToolLatencyModel;
use crate::report::{CompileReport, SimReport};
use crate::source::HdlFile;

/// A clean compile: its exact input files, its unshaped report and the
/// design it elaborated, plus the clean result of simulating that
/// design once it has been simulated. Produced by
/// [`ToolSuite::compile_snapshot`](crate::ToolSuite::compile_snapshot)
/// and [`ToolSuite::simulate_snapshot`](crate::ToolSuite::simulate_snapshot);
/// a failed compile yields none.
#[derive(Debug)]
pub struct Snapshot {
    pub(crate) files: Vec<HdlFile>,
    /// The compile's report before any injected log fault shaped it.
    pub(crate) report: CompileReport,
    pub(crate) design: Arc<Design>,
    /// Whether `design` is what a compile with no requested top
    /// elaborates (the auto-detected top).
    pub(crate) auto_top: bool,
    /// The clean result of simulating `design`, once a simulate with
    /// no fault-gate failure has run it.
    pub(crate) sim: Option<Arc<SimMemo>>,
}

impl Snapshot {
    /// Whether compiling `files` for `top` would elaborate this very
    /// design: the files are byte-equal (names, texts and languages,
    /// compared directly) and `top` is the top the design was
    /// elaborated for.
    pub(crate) fn matches(&self, files: &[HdlFile], top: Option<&str>) -> bool {
        let same_top = match top {
            Some(top) => top == self.design.top,
            None => self.auto_top,
        };
        same_top && self.files == files
    }
}

/// The clean result of one simulation of a snapshot's design: what the
/// kernel run (or the sim-cache lookup standing in for it) handed the
/// fault gate, and what it fed the suite's counters and recorder.
#[derive(Debug)]
pub(crate) struct SimMemo {
    /// The report before any injected log fault shaped it.
    pub(crate) report: SimReport,
    /// The sim phase's share of the modeled latency.
    pub(crate) sim_latency: f64,
    /// The counters the run folded into the suite's kernel totals.
    pub(crate) perf: KernelPerf,
    /// The kernel series the run fed the recorder; `None` when nothing
    /// was recorded (a disabled recorder).
    pub(crate) telemetry: Option<KernelTelemetry>,
    /// The rest of the sim-cache key besides the files: the requested
    /// top and the suite's limits and latency model.
    pub(crate) top: Option<Box<str>>,
    pub(crate) sim_config: SimConfig,
    pub(crate) latency: ToolLatencyModel,
    /// The cache the result was read from or written to, if any.
    pub(crate) cache: Option<EdaCache>,
}
