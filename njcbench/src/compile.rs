//! `compile_corpus`: one op compiles one (module, config, platform) from
//! printed text to a verified, ELF-round-tripped binary — what a JIT pays
//! per method.

use std::collections::BTreeMap;

use njc_arch::Platform;
use njc_core::EntryAssumptions;
use njc_ir::Module;
use njc_opt::{ConfigKind, OptConfig};
use njc_workloads::gen::{build_call_module, gen_call_actions};

use crate::common::{shuffle, Rng};
use crate::trace::Rec;
use crate::Workload;

/// Seeded call-heavy programs added to the 17 suite modules.
const SEEDED_MODULES: usize = 6;

/// One module as the compiler receives it: its functions as printed text,
/// and the class table they refer to.
struct Source {
    /// Each function's printed text, in function order.
    functions: Vec<String>,
    /// The module's class table with one-instruction stub functions:
    /// parsed functions replace the stubs in a copy.
    shell: Module,
    /// What the reassembled module must equal: the reference for the
    /// print/parse round trip.
    expected: Module,
    bytes: usize,
}

struct Unit {
    source: usize,
    config: OptConfig,
    platform: Platform,
    /// The interprocedural facts the optimizer may rely on, inferred in
    /// set-up from the prepared module; the validator must assume them too.
    assumptions: Option<EntryAssumptions>,
    /// Explicit checks the optimizer leaves per function, from the
    /// provenance ledger of a traced compile in set-up. The traced and
    /// untraced pipelines emit identical IR, so the op compiles untraced,
    /// as a JIT does, and checks the binary against this census.
    census: BTreeMap<String, u64>,
}

pub struct CompileCorpus {
    sources: Vec<Source>,
    units: Vec<Unit>,
    /// Emitted bytes per unit from the first pass: later passes must match.
    first_code_bytes: Vec<Option<usize>>,
}

/// The three configuration presets: the paper's full algorithm, Whaley's
/// baseline, and the full algorithm with interprocedural facts and GVN.
fn configs(platform: &Platform) -> [OptConfig; 3] {
    let full = ConfigKind::Full.to_config(platform);
    [
        full,
        ConfigKind::OldNullCheck.to_config(platform),
        OptConfig {
            name: "Full+interproc+gvn",
            interproc: true,
            gvn: true,
            ..full
        },
    ]
}

impl CompileCorpus {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed ^ 0xc0_4b11e);
        let mut modules: Vec<Module> = njc_workloads::all().into_iter().map(|w| w.module).collect();
        for _ in 0..SEEDED_MODULES {
            let len = rng.range(6, 10);
            modules.push(build_call_module(&gen_call_actions(&mut rng, len, 2)));
        }
        let sources: Vec<Source> = modules
            .into_iter()
            .map(|m| {
                let functions: Vec<String> = m.functions().iter().map(|f| f.to_string()).collect();
                let bytes = functions.iter().map(String::len).sum();
                let mut shell = m.clone();
                for id in m.function_ids() {
                    *shell.function_mut(id) = stub(m.function(id).name());
                }
                Source {
                    functions,
                    shell,
                    expected: m,
                    bytes,
                }
            })
            .collect();
        let mut units = Vec::new();
        for platform in [Platform::windows_ia32(), Platform::aix_ppc()] {
            for config in configs(&platform) {
                for (source, s) in sources.iter().enumerate() {
                    let assumptions = config.interproc.then(|| {
                        let mut prepared = s.expected.clone();
                        njc_opt::prepare_module(&mut prepared, &platform, &config);
                        njc_interproc::infer(&prepared)
                    });
                    let mut traced = s.expected.clone();
                    let (_, trace) =
                        njc_opt::optimize_module_traced(&mut traced, &platform, &config);
                    let census = trace
                        .functions
                        .iter()
                        .map(|f| (f.function.clone(), f.ledger.explicit_final))
                        .collect();
                    units.push(Unit {
                        source,
                        config,
                        platform,
                        assumptions: assumptions.filter(|a| !a.is_empty()),
                        census,
                    });
                }
            }
        }
        shuffle(&mut rng, &mut units);
        let n = units.len();
        Ok(CompileCorpus {
            sources,
            units,
            first_code_bytes: vec![None; n],
        })
    }
}

impl Workload for CompileCorpus {
    fn pass_len(&self) -> usize {
        self.units.len()
    }

    fn plant_wrong_reference(&mut self) {
        let expected = &mut self.sources[self.units[0].source].expected;
        expected
            .function_mut(njc_ir::FunctionId::new(0))
            .set_name("planted".to_string());
    }

    fn op(&mut self, i: usize, rec: &mut Rec) -> Result<(), String> {
        let unit = &self.units[i];
        let src = &self.sources[unit.source];
        let platform = unit.platform;

        let parsed = rec.span("ir.parse", || {
            let mut m = src.shell.clone();
            for (k, text) in src.functions.iter().enumerate() {
                let f = njc_ir::parse_function(text).map_err(|e| e.to_string())?;
                *m.function_mut(njc_ir::FunctionId::new(k)) = f;
            }
            Ok::<Module, String>(m)
        });
        rec.add("ir.parse.bytes", src.bytes as f64);
        let mut module = parsed.map_err(|e| format!("parse: {e}"))?;
        if !rec.span("bench.check", || module == src.expected) {
            return Err("printed text does not parse back to its module".into());
        }

        rec.span("ir.verify", || njc_ir::verify_module(&module))
            .map_err(|e| format!("IR verify: {} errors", e.len()))?;

        let stats = rec.span("opt.optimize", || {
            njc_opt::optimize_module(&mut module, &platform, &unit.config)
        });
        for (pass, d) in &stats.timings {
            rec.add(pass_counter(pass), d.as_secs_f64() * 1000.0);
        }
        let nc = &stats.null_checks;
        rec.add("opt.ir_insts_out", module.num_insts() as f64);
        rec.add(
            "opt.checks_eliminated",
            (nc.phase1.eliminated + nc.whaley.eliminated) as f64,
        );
        rec.add(
            "opt.implicit_converted",
            (nc.phase2.converted_implicit + nc.trivial.converted) as f64,
        );

        let report = rec.span("analysis.validate", || {
            njc_analysis::validate_module_assumed(&module, platform.trap, unit.assumptions.as_ref())
        });

        let machine = rec.span("codegen.lower", || njc_codegen::lower_module(&module));
        let minsts: usize = machine.functions.iter().map(|f| f.code.len()).sum();
        rec.add("codegen.minsts_out", minsts as f64);

        let emitted = rec.span("emit.emit", || njc_emit::emit_module(&machine, 1));
        rec.add("bench.code_bytes", emitted.text.len() as f64);
        rec.add("emit.sites", emitted.total_sites() as f64);

        let findings = rec.span("emit.verify", || {
            let report = njc_emit::verify_module(&emitted, &platform, 1);
            let mut findings = report.findings.clone();
            findings.extend(njc_emit::check_explicit_census(&report, &unit.census));
            findings
        });
        rec.add("emit.verify.findings", findings.len() as f64);

        let reparsed = rec.span("emit.elf", || {
            njc_emit::parse_elf(&njc_emit::write_elf(&emitted))
        });

        let first = &mut self.first_code_bytes[i];
        rec.span("bench.check", || {
            if !report.is_sound() {
                return Err(format!(
                    "validator: {} violations ({} on {})",
                    report.violations.len(),
                    unit.config.name,
                    platform.name
                ));
            }
            if let Some(f) = findings.first() {
                return Err(format!(
                    "binary verifier: {} findings, first: {}",
                    findings.len(),
                    f.detail
                ));
            }
            match &reparsed {
                Ok(m) if *m == emitted => {}
                Ok(_) => return Err("ELF round trip altered the module".into()),
                Err(e) => return Err(format!("ELF does not parse back: {e}")),
            }
            match *first {
                None => *first = Some(emitted.text.len()),
                Some(b) if b != emitted.text.len() => {
                    return Err(format!(
                        "emitted {} bytes, earlier pass {b}",
                        emitted.text.len()
                    ))
                }
                Some(_) => {}
            }
            Ok(())
        })
    }
}

/// A placeholder body that keeps the function table's shape until the
/// parsed function replaces it.
fn stub(name: &str) -> njc_ir::Function {
    let mut b = njc_ir::FuncBuilder::new(name, &[], njc_ir::Type::Int);
    let z = b.iconst(0);
    b.ret(Some(z));
    b.finish()
}

fn pass_counter(pass: &str) -> &'static str {
    match pass {
        "inline" => "opt.pass.inline.cpu_ms",
        "intrinsics" => "opt.pass.intrinsics.cpu_ms",
        "nullcheck" => "opt.pass.nullcheck.cpu_ms",
        "boundcheck" => "opt.pass.boundcheck.cpu_ms",
        "scalar" => "opt.pass.scalar.cpu_ms",
        "cleanup" => "opt.pass.cleanup.cpu_ms",
        "interproc" => "opt.pass.interproc.cpu_ms",
        _ => "opt.pass.other.cpu_ms",
    }
}
