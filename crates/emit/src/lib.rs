//! # njc-emit — native x86-64 emission and binary verification
//!
//! The rest of the workspace stops at the linear virtual ISA of
//! [`njc_codegen::isa`]. This crate completes the paper's story at the
//! byte level:
//!
//! * [`encode`] lowers each [`njc_codegen::MachineFunction`] to real
//!   x86-64 machine bytes. Implicit null checks still emit **no code**;
//!   what they leave behind is a *byte offset* of the faulting memory
//!   access, carried into the binary exception-site table with its
//!   [`njc_codegen::SiteInfo`] provenance (check id, access kind, static
//!   offset). Emission fans out per function with `std::thread::scope`
//!   and merges in function order, so the bytes are identical at any
//!   thread count.
//! * [`elf`] wraps the text in a minimal ELF64 relocatable with the
//!   exception-site table and handler ranges as first-class binary
//!   sections (`.njc.exctab`, `.njc.handlers`) — the artifact a real
//!   runtime would map and consult from its `SIGSEGV` handler.
//! * [`decode`] is a decoder for exactly the subset the encoder emits,
//!   shared by the verifier and the byte-level interpreter, with one
//!   linear [`decode::sweep`] over a function's bytes.
//! * [`verify`] is the parallel binary verifier: it re-derives the
//!   instruction stream from the bytes and proves, per function, that
//!   (a) every exception-site entry points at a memory access that can
//!   genuinely fault on the null page under the platform trap model,
//!   (b) no eliminated check left a residual compare-and-branch guarding
//!   its access, and (c) handler ranges are well-formed and nest.
//! * [`interp`] executes the emitted bytes directly over the guarded
//!   memory — the encoder-faithful referee the difftest harness replays
//!   fixtures through against the costed machine simulator.

pub mod abi;
pub mod decode;
pub mod elf;
pub mod encode;
pub mod interp;
pub mod verify;

pub use decode::{decode_one, sweep, Dec, DecodeError};
pub use elf::{parse_elf, write_elf};
pub use encode::{emit_module, BinHandler, BinSite, EmittedClass, EmittedFunction, EmittedModule};
pub use interp::{ByteMachine, TrapOutcome, TrapSnapshot};
pub use verify::{check_explicit_census, verify_module, FindingKind, VerifyFinding, VerifyReport};
