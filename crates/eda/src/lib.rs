//! EDA tool facade: the "Vivado" of the AIVRIL2 reproduction.
//!
//! The paper's agents never call compiler internals — they launch EDA
//! tools and read back *logs*. This crate packages the from-scratch
//! Verilog/VHDL frontends and the event-driven simulator behind exactly
//! that interface: a [`ToolSuite`] with `compile` (≈ `xvlog`/`xvhdl`)
//! and `simulate` (≈ `xelab` + `xsim`) operations that return textual
//! Vivado-style logs plus structured reports and a modeled wall-clock
//! latency (used to reproduce the paper's Figure 3 latency breakdown).
//!
//! # Example
//!
//! ```
//! use aivril_eda::{HdlFile, Language, ToolSuite, XsimToolSuite};
//!
//! let tools = XsimToolSuite::new();
//! let file = HdlFile::new("inv.v", "module inv(input a, output y);\nassign y = ~a;\nendmodule\n");
//! assert_eq!(file.language, Language::Verilog);
//! let report = tools.compile(&[file]);
//! assert!(report.success);
//! ```

#![warn(missing_docs)]

mod cache;
mod disk;
pub mod faults;
mod latency;
mod report;
mod snapshot;
mod source;
mod xsim;

pub use cache::{CacheStats, EdaCache};
pub use disk::DiskStats;
pub use faults::EdaFaultPlan;
pub use latency::ToolLatencyModel;
pub use report::{CompileReport, SimDiverged, SimReport, TestFailure, ToolMessage};
pub use snapshot::Snapshot;
pub use source::{HdlFile, Language};
pub use xsim::{XsimToolSuite, PASS_MARKER};

/// An EDA tool suite the agents can drive: a compiler and a simulator,
/// both reporting through logs.
///
/// Implementations must be deterministic: the agent loops rely on
/// replayable behaviour for calibration and testing.
pub trait ToolSuite {
    /// Analyses `files` only (lexing/parsing — the `xvlog`/`xvhdl` step
    /// without elaboration), so a testbench can be syntax-checked before
    /// the unit it instantiates exists.
    fn analyze(&self, files: &[HdlFile]) -> CompileReport;

    /// Analyses and elaborates `files` (syntax + semantic checks),
    /// producing a Vivado-style log. All files must be one language.
    fn compile(&self, files: &[HdlFile]) -> CompileReport;

    /// Compiles and simulates `files` with `top` as the root unit
    /// (auto-detected when `None`: the unit nothing else instantiates).
    fn simulate(&self, files: &[HdlFile], top: Option<&str>) -> SimReport;

    /// [`Self::compile`], also returning a [`Snapshot`] of the
    /// elaborated design when the compile is clean, so a later
    /// [`Self::simulate_snapshot`] of the same files can skip
    /// recompiling. The default keeps no snapshot.
    fn compile_snapshot(&self, files: Vec<HdlFile>) -> (CompileReport, Option<Snapshot>) {
        (self.compile(&files), None)
    }

    /// [`Self::simulate`], simulating `snapshot`'s design instead of
    /// recompiling when it was built from byte-equal `files` for the
    /// same `top`. Returns the snapshot of the design it simulated, to
    /// hand to the next call. The default ignores `snapshot` and keeps
    /// none.
    fn simulate_snapshot(
        &self,
        files: Vec<HdlFile>,
        top: Option<&str>,
        snapshot: Option<&Snapshot>,
    ) -> (SimReport, Option<Snapshot>) {
        let _ = snapshot;
        (self.simulate(&files, top), None)
    }
}
