//! Pieces the workloads share: the seeded generator, observable outcomes
//! normalized across engines, and the engines themselves behind one call.

use njc_arch::Platform;
use njc_codegen::{MValue, Machine, MachineModule};
use njc_emit::{ByteMachine, EmittedModule};
use njc_ir::{ExceptionKind, Module};
use njc_recover::RecoveryPolicy;
use njc_vm::{Value, Vm};
pub use njc_workloads::gen::Rng;

use crate::trace::Rec;

/// A value as every engine can report it: references compare only by
/// nullness (the engines lay out their heaps differently) and floats by
/// their bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Obs {
    Int(i64),
    Float(u64),
    Ref(bool),
}

impl From<&Value> for Obs {
    fn from(v: &Value) -> Obs {
        match *v {
            Value::Int(i) => Obs::Int(i),
            Value::Float(f) => Obs::Float(f.to_bits()),
            Value::Ref(a) => Obs::Ref(a != 0),
        }
    }
}

impl From<&MValue> for Obs {
    fn from(v: &MValue) -> Obs {
        match *v {
            MValue::Int(i) => Obs::Int(i),
            MValue::Float(f) => Obs::Float(f.to_bits()),
            MValue::Ref(a) => Obs::Ref(a != 0),
        }
    }
}

/// The observable behaviour of one run: result, escaped exception and the
/// observation trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Observed {
    pub result: Option<Obs>,
    pub exception: Option<ExceptionKind>,
    pub trace: Vec<Obs>,
}

impl Observed {
    /// A short description of the first difference from `reference`.
    pub fn diff(&self, reference: &Observed) -> Option<String> {
        if self.exception != reference.exception {
            return Some(format!(
                "exception {:?}, reference {:?}",
                self.exception, reference.exception
            ));
        }
        if self.result != reference.result {
            return Some(format!(
                "result {:?}, reference {:?}",
                self.result, reference.result
            ));
        }
        if self.trace != reference.trace {
            let i = self
                .trace
                .iter()
                .zip(&reference.trace)
                .position(|(a, b)| a != b)
                .unwrap_or(self.trace.len().min(reference.trace.len()));
            return Some(format!(
                "trace differs at {i} (lengths {} and {})",
                self.trace.len(),
                reference.trace.len()
            ));
        }
        None
    }

    /// Corrupts the observation so that a correct run no longer matches it
    /// (the planted-reference self-test).
    pub fn plant_wrong(&mut self) {
        self.trace.push(Obs::Int(0x5eed));
    }
}

pub fn observed_vm(out: &njc_vm::Outcome) -> Observed {
    Observed {
        result: out.result.as_ref().map(Obs::from),
        exception: out.exception,
        trace: out.trace.iter().map(Obs::from).collect(),
    }
}

pub fn observed_machine(out: &njc_codegen::MachineOutcome) -> Observed {
    Observed {
        result: out.result.as_ref().map(Obs::from),
        exception: out.exception,
        trace: out.trace.iter().map(Obs::from).collect(),
    }
}

/// The three engines that run a compiled program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    Vm,
    Machine,
    Bytes,
}

impl Engine {
    pub const ALL: [Engine; 3] = [Engine::Vm, Engine::Machine, Engine::Bytes];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Vm => "vm",
            Engine::Machine => "machine",
            Engine::Bytes => "bytes",
        }
    }

    /// The span a run on this engine is recorded under.
    pub fn span(self) -> &'static str {
        match self {
            Engine::Vm => "vm.run",
            Engine::Machine => "codegen.machine",
            Engine::Bytes => "emit.bytes",
        }
    }

    /// The counter its retired instructions are added to.
    pub fn insts_counter(self) -> &'static str {
        match self {
            Engine::Vm => "vm.insts",
            Engine::Machine => "codegen.machine.insts",
            Engine::Bytes => "emit.bytes.insts",
        }
    }
}

/// One program compiled for every engine: the optimized IR, its lowering
/// and its emitted bytes.
pub struct Program {
    pub module: Module,
    pub machine: MachineModule,
    pub emitted: EmittedModule,
}

impl Program {
    pub fn new(module: Module) -> Self {
        let machine = njc_codegen::lower_module(&module);
        let emitted = njc_emit::emit_module(&machine, 1);
        Program {
            module,
            machine,
            emitted,
        }
    }
}

/// What a run retired, for the counters.
#[derive(Clone, Copy, Default)]
pub struct RunStats {
    pub insts: u64,
    pub cycles: u64,
    pub traps: u64,
    pub recoveries: u64,
}

/// Runs `entry` of `program` on `engine`, inside the engine's span, and
/// returns what it observed. `args` and `policy` apply to the VM only;
/// the machine engines run argument-less entries under abort semantics.
pub fn run_engine(
    rec: &mut Rec,
    engine: Engine,
    program: &Program,
    platform: Platform,
    entry: &str,
    args: &[Value],
    policy: &RecoveryPolicy,
) -> Result<(Observed, RunStats), String> {
    match engine {
        Engine::Vm => {
            let out = rec
                .span(engine.span(), || {
                    Vm::new(&program.module, platform)
                        .with_recovery(policy)
                        .run(entry, args)
                })
                .map_err(|f| format!("vm fault: {f}"))?;
            Ok((
                observed_vm(&out),
                RunStats {
                    insts: out.stats.insts,
                    cycles: out.stats.cycles,
                    traps: out.stats.traps_taken,
                    recoveries: out.stats.recoveries.total(),
                },
            ))
        }
        Engine::Machine | Engine::Bytes => {
            let out = rec
                .span(engine.span(), || {
                    if engine == Engine::Machine {
                        Machine::new(&program.machine, platform).run(entry)
                    } else {
                        ByteMachine::new(&program.emitted, platform).run(entry)
                    }
                })
                .map_err(|f| format!("{} fault: {f}", engine.name()))?;
            Ok((
                observed_machine(&out),
                RunStats {
                    insts: out.stats.insts,
                    cycles: out.stats.cycles,
                    traps: out.stats.traps_taken,
                    recoveries: 0,
                },
            ))
        }
    }
}

/// Records a run's counters: instructions per engine, cycles, traps and
/// recoveries.
pub fn count_run(rec: &mut Rec, engine: Engine, s: &RunStats) {
    rec.add(engine.insts_counter(), s.insts as f64);
    rec.add("bench.guest_insts", s.insts as f64);
    rec.add("bench.model_cycles", s.cycles as f64);
    rec.add("bench.traps", s.traps as f64);
    if engine == Engine::Vm {
        rec.add("vm.traps", s.traps as f64);
        rec.add("recover.recoveries", s.recoveries as f64);
    }
}

/// The unoptimized-VM reference for `entry` of `module`: what every
/// optimized run must observe.
pub fn reference(
    module: &Module,
    platform: Platform,
    entry: &str,
    args: &[Value],
) -> Result<Observed, String> {
    Vm::new(module, platform)
        .run(entry, args)
        .map(|o| observed_vm(&o))
        .map_err(|f| format!("reference run of {} faulted: {f}", module.name()))
}

/// Fisher–Yates shuffle driven by the workload seed.
pub fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i + 1);
        xs.swap(i, j);
    }
}
