//! Interpreter for the autocheck mini-IR — the LLVM-Tracer substitute.
//!
//! The paper obtains its input by *executing* the application under an LLVM
//! instrumentation pass (LLVM-Tracer) that prints one block per dynamic
//! instruction, with concrete register values and memory addresses. We
//! reproduce that by interpreting the IR directly: the interpreter maintains
//! a concrete memory (globals + stack, real numeric addresses), executes
//! instruction by instruction, and emits [`autocheck_trace::Record`]s
//! through a pluggable [`sink::TraceSink`].
//!
//! Beyond tracing, the interpreter provides the two capabilities the
//! checkpoint/restart experiments need:
//!
//! * **line hooks** ([`hooks::ExecHook`]) — called whenever control reaches a
//!   new source line, with mutable access to memory and the symbol tables.
//!   The FTI-style driver uses a hook on the main loop's header line to
//!   write checkpoints each iteration and to restore state on restart
//!   (paper §II-B "C/R insertion");
//! * **failure injection** ([`machine::ExecOptions`]) — aborts
//!   execution at a chosen dynamic instruction, our deterministic stand-in
//!   for the paper's `raise(SIGTERM)` fail-stop (§VI-B).

#![forbid(unsafe_code)]

pub mod emit;
pub mod error;
pub mod hooks;
pub mod machine;
pub mod memory;
pub mod rtvalue;
pub mod sink;

pub use error::ExecError;
pub use hooks::{ExecHook, HookAction, HookCtx, NoHook};
pub use machine::{ExecOptions, ExecOutcome, Machine};
pub use memory::{Memory, MemoryImage, SymbolInfo, SymbolScope};
pub use rtvalue::RtValue;
pub use sink::{BinarySink, CountSink, FnSink, NullSink, TraceSink, VecSink, WriterSink};
