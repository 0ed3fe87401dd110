//! # capi-objmodel — compiler and binary-image substrate
//!
//! The paper's toolchain operates on *compiled artifacts*: a main
//! executable plus dynamic shared objects, each with symbol tables,
//! page-mapped code and (after the XRay pass) sled tables. This crate
//! provides the simulated equivalent:
//!
//! * [`compiler`] — lowers a [`capi_appmodel::SourceProgram`] into a
//!   [`Binary`]. Crucially, it makes **inlining decisions** the way a real
//!   compiler does: based on final size heuristics, *not* on the `inline`
//!   keyword alone. The whole-program call graph (built from source) does
//!   not see these decisions — exactly the mismatch that motivates CaPI's
//!   inlining compensation (paper §V-E).
//! * [`object`] — compiled objects: functions with offsets/sizes, symbol
//!   tables with ELF-style visibility (hidden symbols are the §VI-B
//!   resolution limitation), post-inlining call sites.
//! * [`memory`] — a paged address space with `mprotect` semantics; XRay
//!   patching must flip code pages writable exactly like the real
//!   runtime does.
//! * [`loader`] — a simulated process: loads the executable, `dlopen`s
//!   DSOs at relocated base addresses, binds symbols, and answers
//!   `/proc/<pid>/maps`-style queries used for symbol injection.
//! * [`bindings`] — every call site of the loaded functions bound to its
//!   callee, once per load state; the process caches it and every loader
//!   mutation drops it.

pub mod bindings;
pub mod compiler;
pub mod fault;
pub mod loader;
pub mod memory;
pub mod object;
pub mod symbols;

pub use bindings::{Bindings, BoundFunc, BoundObject, FuncKey};
pub use compiler::{compile, estimate_compile_time, CompileError, CompileOptions, OptLevel};
pub use fault::{FaultKind, FaultPlan, FiredFault, ScriptedFault};
pub use loader::{CloseOutcome, FuncAddr, LoadError, LoadedObject, MapEntry, Process};
pub use memory::{AddressSpace, MemError, PagePerms, PAGE_SIZE};
pub use object::{Binary, CompiledCallSite, CompiledFunction, DispatchKind, Object, ObjectKind};
pub use symbols::{SymKind, Symbol, SymbolTable};
