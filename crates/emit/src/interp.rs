//! The byte-level interpreter: executes emitted x86-64 bytes directly
//! over the guarded memory.
//!
//! This is the encoder-faithful referee: it knows nothing about the
//! virtual ISA — it decodes the actual bytes ([`crate::decode`]), keeps
//! frame slots in an upward-growing stack addressed by `rbp`, and
//! resolves hardware traps by **binary** exception-site lookup (the
//! function-relative byte offset of the faulting instruction against
//! `.njc.exctab`). Observable behaviour — result, escaped exception,
//! observation trace, trap/check counters, heap digest — must match the
//! costed machine simulator instruction for instruction; the difftest
//! harness holds it to that.
//!
//! Each run decodes the text once: a linear [`sweep`] of every function
//! fills a byte-offset → instruction table, and the dispatch loop reads
//! the table instead of re-decoding every retired instruction. The table
//! is only a cache of [`decode_one`] over the whole text: a sweep stops
//! at its function's first undecodable byte, and at any offset the table
//! does not cover (a jump into the middle of an instruction, an
//! instruction cut off at a function's end, padding) the run decodes in
//! place exactly as without the table. The pc stays a byte offset, so
//! sites, handlers, frames and snapshots keep their byte-offset keys.

use njc_arch::Platform;
use njc_codegen::{MValue, MachineFault, MachineOutcome, MachineStats};
use njc_ir::{CheckId, ExceptionKind, Type};
use njc_trap::{GuardedMemory, MemoryError};

use crate::abi;
use crate::decode::{decode_one, sweep, Dec, Imm32Reg, Scratch};
use crate::encode::{BinSite, EmittedFunction, EmittedModule};

/// Call depth limit, matching the simulator's.
const MAX_DEPTH: usize = 256;

/// The machine state captured at a registered-site hardware trap, in the
/// form the recovery subsystem needs to deoptimize the frame: the
/// trapping function, the site's static provenance (check id, access
/// kind, displacement), and the raw frame slots. Under the frame-slot
/// ABI slot `i` holds virtual register `r{i}` at every
/// virtual-instruction boundary, so `frame` **is** the interpreter
/// locals array for the tier-0 body of the same function — deoptimizing
/// is a copy, not a reconstruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TrapSnapshot {
    /// Name of the trapping function.
    pub function: String,
    /// Function-relative byte offset of the faulting instruction.
    pub byte_off: u32,
    /// The check the site discharges.
    pub check: CheckId,
    /// Read or write.
    pub kind: njc_ir::AccessKind,
    /// Static displacement of the access (`None` when index-scaled).
    pub offset: Option<u64>,
    /// Frame slots `r0..r{num_regs}` at the trapping pc, raw bits.
    pub frame: Vec<u64>,
}

/// What [`ByteMachine::run_until_site_trap`] observed: either the entry
/// ran to completion (possibly unwinding an exception) without any
/// registered site trapping, or execution stopped at the first
/// registered-site trap with the frame captured for deoptimization.
#[derive(Clone, PartialEq, Debug)]
pub enum TrapOutcome {
    /// No registered site trapped; the normal outcome.
    Completed(MachineOutcome),
    /// A registered site trapped; execution stopped there.
    Trapped(TrapSnapshot),
}

/// Executes an [`EmittedModule`]'s bytes.
pub struct ByteMachine<'m> {
    em: &'m EmittedModule,
    platform: Platform,
    fuel: u64,
}

/// One run's decode of the text, keyed by absolute byte offset.
struct Decoded {
    /// Byte offset → index into `ops`, [`Decoded::NONE`] where no swept
    /// instruction starts.
    index: Vec<u32>,
    /// Decoded instructions with their byte lengths.
    ops: Vec<(Dec, usize)>,
}

impl Decoded {
    const NONE: u32 = u32::MAX;

    /// Sweeps every function's bytes once. Never panics: a sweep stops at
    /// its first undecodable byte, and a function whose range lies
    /// outside the text is left to in-place decoding.
    fn new(em: &EmittedModule) -> Self {
        let mut index = vec![Self::NONE; em.text.len()];
        let mut ops = Vec::new();
        for f in &em.functions {
            let off = f.text_off as usize;
            let Some(code) = em.text.get(off..off + f.text_len as usize) else {
                continue;
            };
            // A decode that succeeds inside the function's slice reads
            // only that instruction's bytes, so it equals the whole-text
            // decode at the same offset.
            for (at, dec, len) in sweep(code).map_while(Result::ok) {
                index[off + at] = ops.len() as u32;
                ops.push((dec, len));
            }
        }
        Decoded { index, ops }
    }

    /// `decode_one(text, pc)`, from the table where it covers `pc`.
    fn at(&self, text: &[u8], pc: usize) -> (Dec, usize) {
        match self.index.get(pc) {
            Some(&i) if i != Self::NONE => self.ops[i as usize],
            _ => decode_one(text, pc).unwrap_or_else(|e| panic!("emitted bytes must decode: {e}")),
        }
    }
}

struct Frame {
    ret_addr: usize,
    caller: usize,
    rbp_restore: u64,
}

struct Exec<'m> {
    em: &'m EmittedModule,
    decoded: Decoded,
    mem: GuardedMemory,
    stats: MachineStats,
    trace: Vec<MValue>,
    fuel: u64,
    stack: Vec<u64>,
    frames: Vec<Frame>,
    rax: u64,
    rcx: u64,
    rdx: u64,
    xmm0: u64,
    xmm1: u64,
    eax: u32,
    edi: u32,
    esi: u32,
    rbp: u64,
    pc: usize,
    fidx: usize,
    /// Snapshot mode: stop at the first registered-site trap and capture
    /// the frame instead of unwinding.
    deopt: bool,
    /// The captured frame, when a registered site trapped in snapshot
    /// mode.
    snapshot: Option<TrapSnapshot>,
    /// Last compare/test operand pair, signed semantics decided by the
    /// consuming jump.
    cmp: (u64, u64),
}

fn from_bits(bits: u64, ty: Type) -> MValue {
    match ty {
        Type::Int => MValue::Int(bits as i64),
        Type::Float => MValue::Float(f64::from_bits(bits)),
        Type::Ref => MValue::Ref(bits),
    }
}

impl<'m> ByteMachine<'m> {
    /// Creates a byte machine for `em` under `platform`'s trap model.
    pub fn new(em: &'m EmittedModule, platform: Platform) -> Self {
        // The simulator budgets 200M virtual instructions; each expands to
        // a bounded handful of x86 instructions.
        ByteMachine {
            em,
            platform,
            fuel: 4_000_000_000,
        }
    }

    /// Overrides the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Runs `entry` (no arguments) to completion.
    ///
    /// # Errors
    /// [`MachineFault`] on compiler bugs or resource exhaustion, exactly
    /// like the costed simulator.
    pub fn run(self, entry: &str) -> Result<MachineOutcome, MachineFault> {
        let (exec, outcome, ret_ty) = self.exec(entry, false)?;
        Ok(Self::outcome(exec, outcome, ret_ty))
    }

    /// Runs `entry` until the first registered-site hardware trap, whose
    /// frame is captured as a [`TrapSnapshot`] for deoptimization, or to
    /// completion when no registered site traps. Unregistered traps are
    /// still [`MachineFault::UnexpectedTrap`] — snapshot mode changes
    /// what happens at *marked* sites only.
    ///
    /// # Errors
    /// [`MachineFault`] on compiler bugs or resource exhaustion.
    pub fn run_until_site_trap(self, entry: &str) -> Result<TrapOutcome, MachineFault> {
        let (exec, outcome, ret_ty) = self.exec(entry, true)?;
        if let Some(snap) = exec.snapshot {
            return Ok(TrapOutcome::Trapped(snap));
        }
        Ok(TrapOutcome::Completed(Self::outcome(exec, outcome, ret_ty)))
    }

    fn outcome(
        exec: Exec<'_>,
        outcome: Option<ExceptionKind>,
        ret_ty: Option<Type>,
    ) -> MachineOutcome {
        let (result, exception) = match outcome {
            None => (ret_ty.map(|t| from_bits(exec.rax, t)), None),
            Some(kind) => (None, Some(kind)),
        };
        MachineOutcome {
            result,
            exception,
            trace: exec.trace,
            stats: exec.stats,
        }
    }

    fn exec(
        self,
        entry: &str,
        deopt: bool,
    ) -> Result<(Exec<'m>, Option<ExceptionKind>, Option<Type>), MachineFault> {
        let fidx = self
            .em
            .function_by_name(entry)
            .ok_or_else(|| MachineFault::NoSuchFunction(entry.to_string()))?;
        let f = &self.em.functions[fidx];
        let mut exec = Exec {
            em: self.em,
            decoded: Decoded::new(self.em),
            mem: GuardedMemory::new(self.platform.trap),
            stats: MachineStats::default(),
            trace: Vec::new(),
            fuel: self.fuel,
            stack: Vec::new(),
            frames: Vec::new(),
            rax: 0,
            rcx: 0,
            rdx: 0,
            xmm0: 0,
            xmm1: 0,
            eax: 0,
            edi: 0,
            esi: 0,
            rbp: 0,
            pc: f.text_off as usize,
            fidx,
            deopt,
            snapshot: None,
            cmp: (0, 0),
        };
        let ret_ty = f.ret;
        let outcome = exec.run()?;
        Ok((exec, outcome, ret_ty))
    }
}

impl Exec<'_> {
    fn func(&self) -> &EmittedFunction {
        &self.em.functions[self.fidx]
    }

    fn slot_index(&self, slot: u32) -> usize {
        (self.rbp / 8) as usize + slot as usize
    }

    fn read_slot(&mut self, slot: u32) -> u64 {
        let i = self.slot_index(slot);
        self.stack.get(i).copied().unwrap_or(0)
    }

    fn write_slot(&mut self, slot: u32, value: u64) {
        let i = self.slot_index(slot);
        if self.stack.len() <= i {
            self.stack.resize(i + 1, 0);
        }
        self.stack[i] = value;
    }

    fn scratch(&mut self, reg: Scratch) -> &mut u64 {
        match reg {
            Scratch::Rax => &mut self.rax,
            Scratch::Rcx => &mut self.rcx,
            Scratch::Rdx => &mut self.rdx,
        }
    }

    /// The site entry covering the current instruction, if any.
    fn site(&self) -> Option<&BinSite> {
        let f = self.func();
        let rel = (self.pc - f.text_off as usize) as u32;
        f.sites
            .binary_search_by_key(&rel, |s| s.byte_off)
            .ok()
            .map(|i| &f.sites[i])
    }

    /// Captures the trapping frame for deoptimization: frame slots are
    /// virtual registers under the frame-slot ABI, so the copy *is* the
    /// interpreter locals array.
    fn capture(&self, site: BinSite) -> TrapSnapshot {
        let f = self.func();
        let base = (self.rbp / 8) as usize;
        let frame = (0..f.num_regs as usize)
            .map(|i| self.stack.get(base + i).copied().unwrap_or(0))
            .collect();
        TrapSnapshot {
            function: f.name.clone(),
            byte_off: (self.pc - f.text_off as usize) as u32,
            check: site.check,
            kind: site.kind,
            offset: site.offset,
            frame,
        }
    }

    fn unexpected_trap(&self, kind: njc_ir::AccessKind, offset: Option<u64>) -> MachineFault {
        let f = self.func();
        let rel = self.pc - f.text_off as usize;
        let nearest: Option<(usize, CheckId)> = f
            .sites
            .iter()
            .min_by_key(|s| (s.byte_off as i64 - rel as i64).abs())
            .map(|s| (s.byte_off as usize, s.check));
        MachineFault::UnexpectedTrap {
            function: f.name.clone(),
            pc: rel,
            kind,
            offset,
            nearest_site: nearest,
        }
    }

    /// Unwinds `kind` from the current pc. Returns the kind if it escapes
    /// the entry frame; otherwise control is at the handler.
    fn unwind(&mut self, kind: ExceptionKind) -> Option<ExceptionKind> {
        loop {
            let f = &self.em.functions[self.fidx];
            let rel = (self.pc - f.text_off as usize) as u32;
            let hit = f
                .handlers
                .iter()
                .find(|h| h.start <= rel && rel < h.end && h.catch.catches(kind));
            if let Some(h) = hit {
                let (handler, code_slot) = (h.handler, h.code_slot);
                if let Some(slot) = code_slot {
                    self.write_slot(slot, kind.code() as u64);
                }
                self.pc = f.text_off as usize + handler as usize;
                return None;
            }
            match self.frames.pop() {
                Some(frame) => {
                    self.pc = frame.ret_addr;
                    self.fidx = frame.caller;
                    self.rbp = frame.rbp_restore;
                }
                None => return Some(kind),
            }
        }
    }

    /// Pushes an activation and transfers to `callee`'s entry.
    fn enter(&mut self, callee: usize, ret_addr: usize) -> Result<(), MachineFault> {
        if self.frames.len() + 1 > MAX_DEPTH {
            return Err(MachineFault::StackOverflow);
        }
        let caller_regs = u64::from(self.func().num_regs);
        self.frames.push(Frame {
            ret_addr,
            caller: self.fidx,
            rbp_restore: self.rbp - caller_regs * 8,
        });
        self.fidx = callee;
        self.pc = self.em.functions[callee].text_off as usize;
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn run(&mut self) -> Result<Option<ExceptionKind>, MachineFault> {
        loop {
            self.stats.insts += 1;
            if self.stats.insts > self.fuel {
                return Err(MachineFault::OutOfFuel);
            }
            let (dec, len) = self.decoded.at(&self.em.text, self.pc);
            let next = self.pc + len;
            // Shorthand: raise an exception at the *current* pc, returning
            // whether it escaped.
            macro_rules! raise {
                ($kind:expr) => {{
                    if let Some(k) = self.unwind($kind) {
                        return Ok(Some(k));
                    }
                    continue;
                }};
            }
            match dec {
                Dec::Pad => panic!("execution ran into inter-function padding"),
                Dec::LoadSlot { reg, slot } => {
                    let v = self.read_slot(slot);
                    *self.scratch(reg) = v;
                }
                Dec::StoreSlot { slot, reg } => {
                    let v = *self.scratch(reg);
                    self.write_slot(slot, v);
                }
                Dec::LoadMem { disp, indexed } => {
                    let mut addr = self.rax.wrapping_add(u64::from(disp));
                    if indexed {
                        addr = addr.wrapping_add(self.rcx.wrapping_mul(8));
                    }
                    match self.mem.read_u64(addr) {
                        Ok(out) => {
                            if out.from_guard && self.site().is_some() {
                                self.stats.missed_npes += 1;
                            }
                            self.rdx = out.value;
                        }
                        Err(MemoryError::Trap(_)) => {
                            if let Some(&site) = self.site() {
                                self.stats.traps_taken += 1;
                                if self.deopt {
                                    self.snapshot = Some(self.capture(site));
                                    return Ok(None);
                                }
                                raise!(ExceptionKind::NullPointer);
                            }
                            return Err(self.unexpected_trap(
                                njc_ir::AccessKind::Read,
                                (!indexed).then_some(u64::from(disp)),
                            ));
                        }
                        Err(MemoryError::WildAccess { address, .. }) => {
                            return Err(MachineFault::WildAccess {
                                function: self.func().name.clone(),
                                address,
                            })
                        }
                    }
                }
                Dec::StoreMem { disp, indexed } => {
                    let mut addr = self.rax.wrapping_add(u64::from(disp));
                    if indexed {
                        addr = addr.wrapping_add(self.rcx.wrapping_mul(8));
                    }
                    match self.mem.write_u64(addr, self.rdx) {
                        Ok(()) => {}
                        Err(MemoryError::Trap(_)) => {
                            if let Some(&site) = self.site() {
                                self.stats.traps_taken += 1;
                                if self.deopt {
                                    self.snapshot = Some(self.capture(site));
                                    return Ok(None);
                                }
                                raise!(ExceptionKind::NullPointer);
                            }
                            return Err(self.unexpected_trap(
                                njc_ir::AccessKind::Write,
                                (!indexed).then_some(u64::from(disp)),
                            ));
                        }
                        Err(MemoryError::WildAccess { address, .. }) => {
                            return Err(MachineFault::WildAccess {
                                function: self.func().name.clone(),
                                address,
                            })
                        }
                    }
                }
                Dec::MovAbs { reg, imm } => *self.scratch(reg) = imm,
                Dec::MovImm32 { reg, imm } => match reg {
                    Imm32Reg::Eax => self.eax = imm,
                    Imm32Reg::Edi => self.edi = imm,
                    Imm32Reg::Esi => self.esi = imm,
                },
                Dec::AddRcx => self.rax = self.rax.wrapping_add(self.rcx),
                Dec::AddRdx => self.rax = self.rax.wrapping_add(self.rdx),
                Dec::SubRcx => self.rax = self.rax.wrapping_sub(self.rcx),
                Dec::MulRcx => self.rax = self.rax.wrapping_mul(self.rcx),
                Dec::AndRcx => self.rax &= self.rcx,
                Dec::OrRcx => self.rax |= self.rcx,
                Dec::XorRcx => self.rax ^= self.rcx,
                Dec::XorSelf => self.rax = 0,
                Dec::XorRdx => self.rax ^= self.rdx,
                Dec::ShlCl => {
                    self.rax = (self.rax as i64).wrapping_shl(self.rcx as u32 & 63) as u64;
                }
                Dec::SarCl => {
                    self.rax = (self.rax as i64).wrapping_shr(self.rcx as u32 & 63) as u64;
                }
                Dec::ShrCl => self.rax = self.rax.wrapping_shr(self.rcx as u32 & 63),
                Dec::NegRax => self.rax = (self.rax as i64).wrapping_neg() as u64,
                Dec::Cqo => self.rdx = ((self.rax as i64) >> 63) as u64,
                Dec::IdivRcx => {
                    // The encoder guards zero and MIN/-1 before `idiv`.
                    let a = self.rax as i64;
                    let b = self.rcx as i64;
                    self.rax = (a / b) as u64;
                    self.rdx = (a % b) as u64;
                }
                Dec::MovRaxRdx => self.rax = self.rdx,
                Dec::TestRax => {
                    // `test rax, rax` exists only in the explicit null
                    // check expansion — the census fingerprint.
                    self.stats.explicit_null_checks += 1;
                    self.cmp = (self.rax, 0);
                }
                Dec::TestRcx => self.cmp = (self.rcx, 0),
                Dec::CmpRaxRcx => self.cmp = (self.rax, self.rcx),
                Dec::CmpRaxRdx => self.cmp = (self.rax, self.rdx),
                Dec::CmpRcxM1 => self.cmp = (self.rcx, u64::MAX),
                Dec::AndRax1 => self.rax &= 1,
                Dec::LeaRbp { disp } => self.rbp = self.rbp.wrapping_add(disp as i64 as u64),
                Dec::MovsdLoad { xmm, slot } => {
                    let v = self.read_slot(slot);
                    if xmm == 0 {
                        self.xmm0 = v;
                    } else {
                        self.xmm1 = v;
                    }
                }
                Dec::MovsdStore { slot } => {
                    let v = self.xmm0;
                    self.write_slot(slot, v);
                }
                Dec::Addsd => self.fop(|x, y| x + y),
                Dec::Subsd => self.fop(|x, y| x - y),
                Dec::Mulsd => self.fop(|x, y| x * y),
                Dec::Divsd => self.fop(|x, y| x / y),
                Dec::Cmpsd { pred } => {
                    let x = f64::from_bits(self.xmm0);
                    let y = f64::from_bits(self.xmm1);
                    let r = match pred {
                        0 => x == y,
                        1 => x < y,
                        2 => x <= y,
                        4 => x != y,
                        p => panic!("unemitted cmpsd predicate {p}"),
                    };
                    self.xmm0 = if r { u64::MAX } else { 0 };
                }
                Dec::Cvtsi2sd => self.xmm0 = ((self.rax as i64) as f64).to_bits(),
                Dec::MovqRaxXmm0 => self.rax = self.xmm0,
                Dec::Jcc { cc, rel } => {
                    let (a, b) = (self.cmp.0 as i64, self.cmp.1 as i64);
                    let taken = match cc {
                        0x84 => a == b,
                        0x85 => a != b,
                        0x8C => a < b,
                        0x8E => a <= b,
                        0x8F => a > b,
                        0x8D => a >= b,
                        c => panic!("unemitted jcc {c:#x}"),
                    };
                    if taken {
                        self.pc = (next as i64 + i64::from(rel)) as usize;
                        continue;
                    }
                }
                Dec::Jmp8 { opcode, rel } => {
                    let taken = match opcode {
                        0x75 => self.cmp.0 != self.cmp.1,
                        0x72 => self.cmp.0 < self.cmp.1,
                        0xEB => true,
                        c => panic!("unemitted short jump {c:#x}"),
                    };
                    if taken {
                        self.pc = (next as i64 + i64::from(rel)) as usize;
                        continue;
                    }
                }
                Dec::Jmp { rel } => {
                    self.pc = (next as i64 + i64::from(rel)) as usize;
                    continue;
                }
                Dec::Call { rel } => {
                    let target = (next as i64 + i64::from(rel)) as usize;
                    let callee = self
                        .em
                        .function_at(target as u32)
                        .unwrap_or_else(|| panic!("call into padding at {target:#x}"));
                    self.enter(callee, next)?;
                    continue;
                }
                Dec::Ret => match self.frames.pop() {
                    Some(frame) => {
                        self.pc = frame.ret_addr;
                        self.fidx = frame.caller;
                        // rbp is restored by the caller's `lea` epilogue.
                        continue;
                    }
                    None => return Ok(None),
                },
                Dec::Syscall => match self.eax {
                    abi::SVC_RAISE => {
                        let kind = abi::exception_from_tag(self.edi, self.rdx as i64)
                            .expect("emitted raise tag");
                        raise!(kind);
                    }
                    abi::SVC_NEWOBJ => {
                        let class = &self.em.classes[self.edi as usize];
                        let addr = self.mem.alloc(class.size.max(8));
                        self.mem
                            .write_u64(addr, u64::from(self.edi) + 1)
                            .expect("fresh allocation");
                        self.rax = addr;
                    }
                    abi::SVC_NEWARR => {
                        let l = self.read_slot(self.esi) as i64;
                        if l < 0 {
                            raise!(ExceptionKind::NegativeArraySize);
                        }
                        let addr = self.mem.alloc(16 + l as u64 * 8);
                        self.mem
                            .write_u64(addr, l as u64)
                            .expect("fresh allocation");
                        self.mem
                            .write_u64(addr + 8, u64::from(self.edi))
                            .expect("fresh allocation");
                        self.rax = addr;
                    }
                    abi::SVC_OBSERVE => {
                        let ty = abi::type_from_tag(self.edi).expect("emitted type tag");
                        let bits = self.read_slot(self.esi);
                        self.trace.push(from_bits(bits, ty));
                    }
                    abi::SVC_MATH => {
                        let op = abi::intrinsic_from_tag(self.edi).expect("emitted intrinsic");
                        let x = f64::from_bits(self.read_slot(self.esi));
                        self.rax = op.apply(x).to_bits();
                    }
                    abi::SVC_CVT_TO_INT => {
                        let x = f64::from_bits(self.read_slot(self.esi));
                        self.rax = (x as i64) as u64;
                    }
                    abi::SVC_FREM => {
                        let x = f64::from_bits(self.read_slot(self.edi));
                        let y = f64::from_bits(self.read_slot(self.esi));
                        self.rax = (x % y).to_bits();
                    }
                    abi::SVC_CALLV => {
                        let method = &self.em.method_names[self.edi as usize];
                        let tag = self.rdx;
                        let class = match tag {
                            0 => None,
                            t => self.em.classes.get((t - 1) as usize),
                        };
                        let callee = class.and_then(|c| {
                            c.methods
                                .binary_search_by_key(&self.edi, |(mid, _)| *mid)
                                .ok()
                                .map(|i| c.methods[i].1 as usize)
                        });
                        match callee {
                            Some(callee) => {
                                self.enter(callee, next)?;
                                continue;
                            }
                            None => {
                                return Err(MachineFault::BadDispatch {
                                    method: method.clone(),
                                })
                            }
                        }
                    }
                    id => panic!("unemitted service id {id}"),
                },
            }
            self.pc = next;
        }
    }

    fn fop(&mut self, f: impl Fn(f64, f64) -> f64) {
        self.xmm0 = f(f64::from_bits(self.xmm0), f64::from_bits(self.xmm1)).to_bits();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::emit_module;
    use njc_codegen::{lower_module, Machine};
    use njc_ir::{parse_function, Module};

    #[test]
    fn byte_machine_matches_simulator_on_demo() {
        let mut m = Module::new("demo");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = new class0\n  v1 = const 21\n  putfield v0, field0, v1\n  v2 = getfield v0, field0 [site]\n  v2 = add.int v2, v2\n  return v2\n}",
            )
            .unwrap(),
        );
        let mm = lower_module(&m);
        let platform = Platform::windows_ia32();
        let sim = Machine::new(&mm, platform).run("main").unwrap();
        let em = emit_module(&mm, 1);
        let out = ByteMachine::new(&em, platform).run("main").unwrap();
        assert_eq!(out.result, sim.result);
        assert_eq!(out.exception, sim.exception);
        assert_eq!(out.trace, sim.trace);
        assert_eq!(out.stats.traps_taken, sim.stats.traps_taken);
        assert_eq!(
            out.stats.explicit_null_checks,
            sim.stats.explicit_null_checks
        );
    }

    #[test]
    fn snapshot_mode_captures_frame_at_site_trap() {
        let mut m = Module::new("snapdemo");
        m.add_class("C", &[("x", Type::Int), ("y", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int v2: int\nbb0:\n  v0 = const null\n  v1 = const 41\n  v2 = getfield v0, field1 [site]\n  return v2\n}",
            )
            .unwrap(),
        );
        let mm = lower_module(&m);
        let em = emit_module(&mm, 1);
        let out = ByteMachine::new(&em, Platform::windows_ia32())
            .run_until_site_trap("main")
            .unwrap();
        let TrapOutcome::Trapped(snap) = out else {
            panic!("expected a site trap, got {out:?}");
        };
        assert_eq!(snap.function, "main");
        assert_eq!(snap.kind, njc_ir::AccessKind::Read);
        assert_eq!(snap.offset, Some(16), "field1 lives at byte offset 16");
        // Frame slot 1 holds r1 = 41; slot 0 holds the null base.
        assert_eq!(snap.frame[0], 0);
        assert_eq!(snap.frame[1], 41);
        // A program with no trapping site completes with the same outcome
        // run() produces.
        let mut m2 = Module::new("clean");
        m2.add_class("C", &[("x", Type::Int)]);
        m2.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = new class0\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
            )
            .unwrap(),
        );
        let mm2 = lower_module(&m2);
        let em2 = emit_module(&mm2, 1);
        let done = ByteMachine::new(&em2, Platform::windows_ia32())
            .run_until_site_trap("main")
            .unwrap();
        let reference = ByteMachine::new(&em2, Platform::windows_ia32())
            .run("main")
            .unwrap();
        assert_eq!(done, TrapOutcome::Completed(reference));
    }

    /// A one-function module whose `main` is the last function in the
    /// text, so bytes can be appended to it without moving anything.
    fn single_main() -> EmittedModule {
        let mut m = Module::new("tail");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = new class0\n  v1 = const 7\n  putfield v0, field0, v1 [site]\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
            )
            .unwrap(),
        );
        let em = emit_module(&lower_module(&m), 1);
        let f = &em.functions[0];
        assert_eq!((f.text_off + f.text_len) as usize, em.text.len());
        assert_eq!(em.text.last(), Some(&0xC3), "main ends in its ret");
        em
    }

    #[test]
    fn predecode_is_a_cache_of_decode_one() {
        let em = single_main();
        let table = Decoded::new(&em);
        let covered: Vec<usize> = (0..em.text.len())
            .filter(|&pc| table.index[pc] != Decoded::NONE)
            .collect();
        assert_eq!(covered.len(), table.ops.len());
        for pc in covered {
            assert_eq!(
                Ok(table.at(&em.text, pc)),
                decode_one(&em.text, pc),
                "pc {pc}"
            );
        }
    }

    #[test]
    fn undecodable_byte_after_final_ret_never_executes() {
        let em = single_main();
        let platform = Platform::windows_ia32();
        let clean = ByteMachine::new(&em, platform).run("main").unwrap();
        let mut tail = em.clone();
        tail.text.push(0x90); // `nop`: outside the emitted subset
        tail.functions[0].text_len += 1;
        let report = crate::verify::verify_module(&tail, &platform, 1);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == crate::verify::FindingKind::Undecodable));
        // The pre-decode stops at the byte instead of panicking, and the
        // run never reaches it.
        assert_eq!(
            ByteMachine::new(&tail, platform).run("main").unwrap(),
            clean
        );
    }

    #[test]
    #[should_panic(expected = "execution ran into inter-function padding")]
    fn falling_off_a_function_into_padding_panics() {
        let mut em = single_main();
        // Turn the final ret into padding outside the function: the table
        // does not cover it, so the run decodes it in place.
        *em.text.last_mut().unwrap() = 0xCC;
        em.functions[0].text_len -= 1;
        let _ = ByteMachine::new(&em, Platform::windows_ia32()).run("main");
    }

    #[test]
    #[should_panic(expected = "execution ran into inter-function padding")]
    fn padding_inside_a_function_panics() {
        let mut em = single_main();
        // The same byte inside the function: the table holds the pad.
        *em.text.last_mut().unwrap() = 0xCC;
        let _ = ByteMachine::new(&em, Platform::windows_ia32()).run("main");
    }

    #[test]
    fn trap_at_site_raises_npe_through_bytes() {
        let mut m = Module::new("trapdemo");
        m.add_class("C", &[("x", Type::Int)]);
        m.add_function(
            parse_function(
                "func main() -> int {\n  locals v0: ref v1: int\nbb0:\n  v0 = const null\n  v1 = getfield v0, field0 [site]\n  return v1\n}",
            )
            .unwrap(),
        );
        let mm = lower_module(&m);
        let em = emit_module(&mm, 1);
        let out = ByteMachine::new(&em, Platform::windows_ia32())
            .run("main")
            .unwrap();
        assert_eq!(out.exception, Some(ExceptionKind::NullPointer));
        assert_eq!(out.stats.traps_taken, 1);
    }
}
