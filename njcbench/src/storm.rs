//! `trap_storm`: the engines on trap-dense programs, each compiled twice —
//! with implicit checks (Full) and as its explicit-check twin
//! (NoNullOptNoTrap) — on both trap models, and on the VM under three
//! recovery strategies. The twins give the cost of a trap over the check it
//! replaced.

use std::collections::BTreeMap;
use std::time::Instant;

use njc_arch::Platform;
use njc_ir::{FuncBuilder, Module, Op, Type};
use njc_opt::ConfigKind;
use njc_recover::{RecoveryPolicy, RecoveryStrategy};
use njc_vm::Value;
use njc_workloads::gen::{build_module, Action};

use crate::common::{count_run, reference, run_engine, shuffle, Engine, Observed, Program, Rng};
use crate::trace::Rec;
use crate::Workload;

/// Seeded null-seeded-loop programs.
const SEEDED_PROGRAMS: usize = 8;
/// Calls of a seeded program's `main` per run: one NPE each.
const STORM_CALLS: i64 = 64;
/// Iterations of a seeded program's loop, and the one whose receiver is null.
const LOOP_ITERS: u8 = 10;
const NULL_AT: u8 = 5;

/// A source program: module, entry and arguments.
struct Source {
    module: Module,
    entry: &'static str,
    args: Vec<Value>,
    /// Whether the machine engines can run it (they take no arguments).
    machines: bool,
}

/// The cell a unit runs in: everything but the twin.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cell {
    source: usize,
    platform: usize,
    engine: usize,
    strategy: RecoveryStrategy,
}

struct Unit {
    cell: Cell,
    implicit: bool,
    program: usize,
    /// Index of the observation this unit must reproduce.
    want: usize,
}

pub struct TrapStorm {
    platforms: [Platform; 2],
    sources: Vec<Source>,
    programs: Vec<Program>,
    wants: Vec<Observed>,
    units: Vec<Unit>,
    /// Per unit: total run time and runs, for the twin comparison.
    timing: Vec<(u64, u64)>,
    /// Per unit: traps in one run (deterministic).
    traps: Vec<u64>,
}

/// Wraps a generated module so each run takes many traps: `storm` calls the
/// module's `main` (whose body catches its own NPE) `calls` times.
fn storm_module(mut m: Module, calls: i64) -> Module {
    let main = m
        .function_by_name("main")
        .expect("generated module has main");
    let mut b = FuncBuilder::new("storm", &[], Type::Int);
    let acc = b.iconst(0);
    let zero = b.iconst(0);
    let end = b.iconst(calls);
    b.for_loop(zero, end, 1, |b, _| {
        let r = b
            .call_static(main, &[], Some(Type::Int))
            .expect("main returns int");
        b.binop_into(acc, Op::Add, acc, r);
    });
    b.observe(acc);
    b.ret(Some(acc));
    m.add_function(b.finish());
    m
}

/// A seeded null-seeded loop: the receiver turns null at iteration
/// [`NULL_AT`] of [`LOOP_ITERS`], so the deref there throws mid-loop with
/// loop-carried state live. The seed draws the loop body from shapes that
/// cannot throw; the loop bounds are fixed, since the work of a run scales
/// with them and every seed should do about the same work per op.
fn seeded_loop(rng: &mut Rng) -> Module {
    let body = (0..2)
        .map(|_| match rng.below(4) {
            0 => Action::IntOp(rng.below(4) as u8, rng.below(8), rng.below(8)),
            1 => Action::ArrLoad(rng.below(8)),
            2 => Action::ArrStore(rng.below(8), rng.below(8)),
            _ => Action::Observe(rng.below(8)),
        })
        .collect();
    storm_module(
        build_module(&[Action::NullSeededLoop(LOOP_ITERS, NULL_AT, body)]),
        STORM_CALLS,
    )
}

impl TrapStorm {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0x7_4a95);
        let platforms = [Platform::windows_ia32(), Platform::aix_ppc()];
        let hot_iters = rng.range(1150, 1250) as i64;
        let mut sources = vec![
            Source {
                module: njc_runtime::hot_field_workload(),
                entry: "main",
                args: vec![Value::Int(hot_iters), Value::Ref(0)],
                machines: false,
            },
            Source {
                module: njc_workloads::micro::null_seeded(),
                entry: "main",
                args: Vec::new(),
                machines: true,
            },
            Source {
                module: njc_workloads::micro::recovery_sweep(),
                entry: "main",
                args: Vec::new(),
                machines: true,
            },
        ];
        for _ in 0..SEEDED_PROGRAMS {
            sources.push(Source {
                module: seeded_loop(&mut rng),
                entry: "storm",
                args: Vec::new(),
                machines: true,
            });
        }

        let strategies = [
            RecoveryStrategy::Abort,
            RecoveryStrategy::Strict,
            RecoveryStrategy::NullObject,
        ];
        let mut programs = Vec::new();
        let mut wants = Vec::new();
        let mut units = Vec::new();
        for (s, src) in sources.iter().enumerate() {
            for (p, platform) in platforms.iter().enumerate() {
                let reference_idx = wants.len();
                wants.push(reference(&src.module, *platform, src.entry, &src.args)?);
                for implicit in [true, false] {
                    let kind = if implicit {
                        ConfigKind::Full
                    } else {
                        ConfigKind::NoNullOptNoTrap
                    };
                    let mut m = src.module.clone();
                    njc_opt::optimize_module(&mut m, platform, &kind.to_config(platform));
                    let program = programs.len();
                    programs.push(Program::new(m));
                    for (e, engine) in Engine::ALL.iter().enumerate() {
                        if *engine != Engine::Vm && !src.machines {
                            continue;
                        }
                        // Recovery acts only where an implicit check traps:
                        // the explicit twin and the machine engines run
                        // under Abort alone.
                        let strats: &[RecoveryStrategy] = if *engine == Engine::Vm && implicit {
                            &strategies
                        } else {
                            &strategies[..1]
                        };
                        for &strategy in strats {
                            // NullObject changes what the program observes:
                            // its expectation is the same cell's own output
                            // from set-up, which later runs must repeat.
                            let want = if strategy == RecoveryStrategy::NullObject {
                                let policy = RecoveryPolicy::uniform(strategy);
                                let mut scratch = Rec::new(false);
                                let (seen, _) = run_engine(
                                    &mut scratch,
                                    Engine::Vm,
                                    &programs[program],
                                    *platform,
                                    src.entry,
                                    &src.args,
                                    &policy,
                                )?;
                                wants.push(seen);
                                wants.len() - 1
                            } else {
                                reference_idx
                            };
                            units.push(Unit {
                                cell: Cell {
                                    source: s,
                                    platform: p,
                                    engine: e,
                                    strategy,
                                },
                                implicit,
                                program,
                                want,
                            });
                        }
                    }
                }
            }
        }
        shuffle(&mut rng, &mut units);
        let n = units.len();
        Ok(TrapStorm {
            platforms,
            sources,
            programs,
            wants,
            units,
            timing: vec![(0, 0); n],
            traps: vec![0; n],
        })
    }

    /// Σ(implicit − explicit mean run time) / Σ implicit traps per run, over
    /// the abort-policy cells of `engine` whose implicit twin traps.
    fn trap_overhead_ns(&self, engine: Engine) -> f64 {
        let mut pairs: BTreeMap<Cell, [Option<(f64, u64)>; 2]> = BTreeMap::new();
        for (u, unit) in self.units.iter().enumerate() {
            let (ns, runs) = self.timing[u];
            if Engine::ALL[unit.cell.engine] != engine
                || unit.cell.strategy != RecoveryStrategy::Abort
                || runs == 0
            {
                continue;
            }
            pairs.entry(unit.cell).or_default()[usize::from(!unit.implicit)] =
                Some((ns as f64 / runs as f64, self.traps[u]));
        }
        let (mut extra_ns, mut traps) = (0.0, 0u64);
        for pair in pairs.values() {
            if let [Some((imp_ns, imp_traps)), Some((exp_ns, _))] = pair {
                if *imp_traps > 0 {
                    extra_ns += imp_ns - exp_ns;
                    traps += imp_traps;
                }
            }
        }
        if traps == 0 {
            0.0
        } else {
            extra_ns / traps as f64
        }
    }
}

impl Workload for TrapStorm {
    fn pass_len(&self) -> usize {
        self.units.len()
    }

    fn plant_wrong_reference(&mut self) {
        self.wants[self.units[0].want].plant_wrong();
    }

    fn op(&mut self, i: usize, rec: &mut Rec) -> Result<(), String> {
        let unit = &self.units[i];
        let src = &self.sources[unit.cell.source];
        let engine = Engine::ALL[unit.cell.engine];
        let platform = self.platforms[unit.cell.platform];
        let policy = RecoveryPolicy::uniform(unit.cell.strategy);
        let t = Instant::now();
        let (seen, stats) = run_engine(
            rec,
            engine,
            &self.programs[unit.program],
            platform,
            src.entry,
            &src.args,
            &policy,
        )?;
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.timing[i].0 += ns;
        self.timing[i].1 += 1;
        self.traps[i] = stats.traps;
        count_run(rec, engine, &stats);
        let want = &self.wants[unit.want];
        match rec.span("bench.check", || seen.diff(want)) {
            None => Ok(()),
            Some(d) => Err(format!(
                "{} on {} / {} / {}: {d}",
                src.module.name(),
                engine.name(),
                platform.name,
                unit.cell.strategy
            )),
        }
    }

    fn layer_metrics(&self, _rec: &Rec) -> Vec<(&'static str, f64)> {
        vec![
            ("vm.trap_overhead_ns", self.trap_overhead_ns(Engine::Vm)),
            (
                "emit.bytes.trap_overhead_ns",
                self.trap_overhead_ns(Engine::Bytes),
            ),
        ]
    }
}
