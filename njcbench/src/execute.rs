//! `execute_corpus`: one op runs one pre-compiled corpus program to
//! completion on one engine and checks what it observed against the
//! unoptimized VM reference.

use njc_arch::Platform;
use njc_opt::ConfigKind;
use njc_recover::RecoveryPolicy;
use njc_vm::Vm;
use njc_workloads::gen::{build_module, gen_actions};

use crate::common::{count_run, reference, run_engine, shuffle, Engine, Observed, Program, Rng};
use crate::trace::Rec;
use crate::Workload;

/// Micros whose null dereferences run inside try regions and so trap: they
/// belong to `trap_storm`, and here would move the trap path's cost into
/// this workload.
const TRAPPING_MICROS: [&str; 2] = ["null_seeded", "recovery_sweep"];

/// Seeded straight-line programs added to the suites and micros. They are
/// kept loop-free, so every one is shorter than the median op and a seed
/// cannot move `op_ms_p50` by changing how many ops sit below it.
const SEEDED_PROGRAMS: usize = 6;
/// Draws per seeded program before set-up gives up.
const MAX_DRAWS: usize = 1000;

struct Unit {
    program: usize,
    engine: Engine,
}

pub struct ExecuteCorpus {
    platform: Platform,
    programs: Vec<Program>,
    /// Reference observation per program (shared by both configs).
    references: Vec<Observed>,
    /// Which reference each compiled program answers to.
    reference_of: Vec<usize>,
    units: Vec<Unit>,
    abort: RecoveryPolicy,
}

impl ExecuteCorpus {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0xe8ec);
        let platform = Platform::windows_ia32();
        let mut sources: Vec<njc_ir::Module> =
            njc_workloads::all().into_iter().map(|w| w.module).collect();
        sources.extend(
            njc_workloads::micro::all_micro()
                .into_iter()
                .filter(|(name, _)| !TRAPPING_MICROS.contains(name))
                .map(|(_, m)| m),
        );
        for _ in 0..SEEDED_PROGRAMS {
            sources.push(exception_free_program(&mut rng, platform)?);
        }
        let mut references = Vec::new();
        let mut programs = Vec::new();
        let mut reference_of = Vec::new();
        for (r, src) in sources.iter().enumerate() {
            references.push(reference(src, platform, "main", &[])?);
            for kind in [ConfigKind::Full, ConfigKind::NoNullOptNoTrap] {
                let mut m = src.clone();
                njc_opt::optimize_module(&mut m, &platform, &kind.to_config(&platform));
                programs.push(Program::new(m));
                reference_of.push(r);
            }
        }
        let mut units: Vec<Unit> = (0..programs.len())
            .flat_map(|program| Engine::ALL.map(|engine| Unit { program, engine }))
            .collect();
        shuffle(&mut rng, &mut units);
        Ok(ExecuteCorpus {
            platform,
            programs,
            references,
            reference_of,
            units,
            abort: RecoveryPolicy::abort(),
        })
    }
}

/// Draws seeded programs until one raises no exception. The generator hands
/// each program a null it may dereference; a program that does would take
/// the trap path, which `trap_storm` measures and this workload leaves out.
fn exception_free_program(rng: &mut Rng, platform: Platform) -> Result<njc_ir::Module, String> {
    for _ in 0..MAX_DRAWS {
        let len = rng.range(8, 14);
        let m = build_module(&gen_actions(rng, len, 0));
        let out = Vm::new(&m, platform)
            .run("main", &[])
            .map_err(|f| format!("seeded program faulted: {f}"))?;
        if out.events.is_empty() {
            return Ok(m);
        }
    }
    Err(format!("no exception-free program in {MAX_DRAWS} draws"))
}

impl Workload for ExecuteCorpus {
    fn pass_len(&self) -> usize {
        self.units.len()
    }

    fn plant_wrong_reference(&mut self) {
        let r = self.reference_of[self.units[0].program];
        self.references[r].plant_wrong();
    }

    fn op(&mut self, i: usize, rec: &mut Rec) -> Result<(), String> {
        let unit = &self.units[i];
        let program = &self.programs[unit.program];
        let (seen, stats) = run_engine(
            rec,
            unit.engine,
            program,
            self.platform,
            "main",
            &[],
            &self.abort,
        )?;
        count_run(rec, unit.engine, &stats);
        let want = &self.references[self.reference_of[unit.program]];
        match rec.span("bench.check", || seen.diff(want)) {
            None => Ok(()),
            Some(d) => Err(format!(
                "{} on {}: {d}",
                program.module.name(),
                unit.engine.name()
            )),
        }
    }
}
