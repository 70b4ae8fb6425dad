//! A small LLVM-3.4-flavoured intermediate representation.
//!
//! This crate is the substrate that replaces LLVM/Clang 3.4 in the AutoCheck
//! reproduction. It deliberately models the *exact* instruction families the
//! AutoCheck analysis consumes (paper Table I) — `Alloca`, `Load`, `Store`,
//! `GetElementPtr`, `BitCast`, the arithmetic family `Add`..`FDiv`, and
//! `Call` — plus the control-flow instructions (`Br`, `ICmp`/`FCmp`, `Ret`)
//! needed to run real programs, and it reuses LLVM 3.4's *numeric opcode
//! values* so the emitted traces line up with the figures in the paper
//! (`Load` = 27, `Alloca` = 26, `Call` = 49, ...).
//!
//! The IR is *memory-based*, like Clang's `-O0` output: every source-level
//! variable becomes an [`InstKind::Alloca`] (or a module [`Global`]) and is
//! accessed through `Load`/`Store`. That shape is what LLVM-Tracer traces and
//! what AutoCheck's reg-var map is designed around, so we keep it rather than
//! running mem2reg.
//!
//! Structure:
//!
//! * [`types`] — the tiny type system (`i1`, `i64`, `f64`, pointers, arrays);
//! * [`value`] — SSA values: instruction results, parameters, globals,
//!   constants;
//! * [`inst`] — instructions and their LLVM-3.4 opcode numbers;
//! * [`module`] — functions, basic blocks, globals, and the [`Module`]
//!   container;
//! * [`builder`] — a cursor-style construction API used by the MiniLang
//!   lowering;
//! * [`mod@cfg`] — successor/predecessor computation;
//! * [`dom`] — dominator tree (Cooper–Harvey–Kennedy);
//! * [`loops`] — natural-loop detection and induction/control-variable
//!   analysis, our stand-in for the paper's "llvm-pass-loop API";
//! * [`verify`] — a structural and type verifier;
//! * [`printer`] — a human-readable textual dump.

#![forbid(unsafe_code)]

pub mod builder;
pub mod cfg;
pub mod dom;
pub mod inst;
pub mod loops;
pub mod module;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use cfg::Cfg;
pub use dom::DomTree;
pub use inst::{BinOp, Builtin, Callee, CastOp, CmpPred, Inst, InstKind, Opcode, RegName, SrcLoc};
pub use loops::{ControlVar, Loop, LoopForest};
pub use module::{
    Block, BlockId, FuncId, Function, Global, GlobalId, GlobalInit, InstId, Module, Param,
};
pub use types::Type;
pub use value::Value;
pub use verify::{verify_function, verify_module, VerifyError};
