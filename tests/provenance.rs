//! Provenance and conservation properties of the traced optimizer.
//!
//! Every null check the optimizer touches leaves a structured event trail
//! (see `njc-observe`), and the per-function ledger must balance for any
//! program, configuration, and trap model:
//!
//! ```text
//! inserted = implicit + explicit + removed + substituted
//! ```
//!
//! These tests drive the law over the random program generator (the same
//! corpus the behavioral property tests use), reconcile dynamic VM
//! counters back to provenance records, and pin the cross-platform story
//! of the committed guard-wrap fixture: the same check converts to an
//! implicit trap where reads fault and stays explicit where reads are
//! silent.

use njc::prop::run_cases;
use njc_arch::Platform;
use njc_ir::{BlockId, CheckId, FunctionId, Module, Type};
use njc_observe::{reconcile, CheckEvent, FunctionTrace, ModuleTrace};
use njc_opt::{optimize_module, optimize_module_traced, ConfigKind};
use njc_vm::{SiteCounters, Vm, VmConfig};
use njc_workloads::gen::{build_module, gen_actions};

const ALL_KINDS: [ConfigKind; 8] = [
    ConfigKind::NoNullOptNoTrap,
    ConfigKind::NoNullOptTrap,
    ConfigKind::OldNullCheck,
    ConfigKind::Phase1Only,
    ConfigKind::Full,
    ConfigKind::AixSpeculation,
    ConfigKind::AixNoSpeculation,
    ConfigKind::AixIllegalImplicit,
];

fn platforms() -> [Platform; 3] {
    [
        Platform::windows_ia32(),
        Platform::aix_ppc(),
        Platform::linux_s390(),
    ]
}

/// Conservation law over the generated corpus, every configuration ×
/// every trap model. Also asserts the tracing itself is an observer:
/// the traced pipeline must produce the identical module.
#[test]
fn conservation_law_holds_on_generated_programs() {
    run_cases("conservation_law_on_generated_programs", 60, |rng| {
        let actions = gen_actions(rng, 12, 2);
        let module = build_module(&actions);
        for platform in platforms() {
            for kind in ALL_KINDS {
                let config = kind.to_config(&platform);
                let mut plain = module.clone();
                optimize_module(&mut plain, &platform, &config);
                let mut traced = module.clone();
                let (_, trace) = optimize_module_traced(&mut traced, &platform, &config);
                if traced != plain {
                    return Err(format!(
                        "{kind:?} on {}: tracing changed the optimized module",
                        platform.name
                    ));
                }
                trace.check_conservation().map_err(|e| {
                    format!("{kind:?} on {}: ledger unbalanced: {e}", platform.name)
                })?;
            }
        }
        Ok(())
    });
}

/// Conservation with the interprocedural inference on, over the call-heavy
/// corpus: interproc-justified kills enter the ledger as phase 1
/// eliminations, the law must still balance, tracing must still be an
/// observer, and at least one kill must actually be attributed to an
/// interprocedural fact (otherwise the test is vacuous).
#[test]
fn conservation_law_holds_with_interproc_on_call_corpus() {
    use njc_observe::Redundancy;
    use njc_opt::OptConfig;
    use njc_workloads::gen::{build_call_module, gen_call_actions, Rng};

    let mut attributed = 0usize;
    for seed in 0..8u64 {
        let mut rng = Rng::new(seed ^ 0xca11);
        let len = rng.range(1, 10);
        let module = build_call_module(&gen_call_actions(&mut rng, len, 2));
        for platform in platforms() {
            for kind in [ConfigKind::Full, ConfigKind::Phase1Only] {
                let config = OptConfig {
                    interproc: true,
                    gvn: false,
                    ..kind.to_config(&platform)
                };
                let mut plain = module.clone();
                optimize_module(&mut plain, &platform, &config);
                let mut traced = module.clone();
                let (_, trace) = optimize_module_traced(&mut traced, &platform, &config);
                assert_eq!(
                    traced, plain,
                    "seed {seed} {kind:?}+interproc on {}: tracing changed the module",
                    platform.name
                );
                trace.check_conservation().unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} {kind:?}+interproc on {}: ledger unbalanced: {e}",
                        platform.name
                    )
                });
                attributed += trace
                    .functions
                    .iter()
                    .flat_map(|ft| &ft.events)
                    .filter(|e| {
                        matches!(
                            e,
                            CheckEvent::Phase1Eliminated {
                                why: Redundancy::Interproc(_),
                                ..
                            }
                        )
                    })
                    .count();
            }
        }
    }
    assert!(
        attributed > 0,
        "no elimination was ever attributed to an interprocedural fact"
    );
}

/// Reconciles a finished run's per-site counters against the trace: every
/// dynamic hardware trap must resolve to a marked exception site and every
/// executed explicit check to a materialization event.
fn reconcile_counts(module: &Module, trace: &ModuleTrace, counts: &SiteCounters) -> Vec<String> {
    let mut failures = Vec::new();
    for fi in 0..module.num_functions() {
        let name = module.function(FunctionId::new(fi)).name();
        let Some(ft) = trace.function(name) else {
            failures.push(format!("{name}: no function trace"));
            continue;
        };
        let traps: Vec<(BlockId, usize)> = counts
            .traps
            .keys()
            .filter(|(f, _, _)| *f as usize == fi)
            .map(|&(_, b, i)| (BlockId::new(b as usize), i as usize))
            .collect();
        let checks: Vec<CheckId> = counts
            .explicit_checks
            .keys()
            .filter(|(f, _)| *f as usize == fi)
            .map(|&(_, id)| CheckId(id))
            .collect();
        if let Err(missing) = reconcile(&[ft], &traps, &checks) {
            failures.extend(missing);
        }
    }
    failures
}

/// Dynamic counters of generated programs reconcile to provenance records
/// under every sound configuration on its home platform.
#[test]
fn generated_programs_reconcile_dynamic_counters() {
    let cells = [
        (ConfigKind::Full, Platform::windows_ia32()),
        (ConfigKind::NoNullOptTrap, Platform::windows_ia32()),
        (ConfigKind::OldNullCheck, Platform::linux_s390()),
        (ConfigKind::AixNoSpeculation, Platform::aix_ppc()),
    ];
    run_cases("generated_programs_reconcile_counters", 40, |rng| {
        let actions = gen_actions(rng, 12, 2);
        let module = build_module(&actions);
        for (kind, platform) in &cells {
            let config = kind.to_config(platform);
            let mut optimized = module.clone();
            let (_, trace) = optimize_module_traced(&mut optimized, platform, &config);
            let vm = Vm::new(&optimized, *platform).with_config(VmConfig {
                count_sites: true,
                ..VmConfig::default()
            });
            let outcome = vm
                .run("main", &[])
                .map_err(|f| format!("{kind:?} on {}: fault: {f}", platform.name))?;
            let failures = reconcile_counts(&optimized, &trace, &outcome.site_counts);
            if !failures.is_empty() {
                return Err(format!(
                    "{kind:?} on {}: unreconciled counters:\n  {}",
                    platform.name,
                    failures.join("\n  ")
                ));
            }
        }
        Ok(())
    });
}

/// Replicates the CLI's `.njc` loader (same as tests/difftest.rs):
/// synthesized classes `C0..C7` with eight int fields each, functions
/// split on `func ` lines.
fn load_fixture(path: &str) -> Module {
    let source = std::fs::read_to_string(path).unwrap();
    let mut module = Module::new("fixture");
    for c in 0..8 {
        let fields: Vec<(String, Type)> = (0..8).map(|f| (format!("f{f}"), Type::Int)).collect();
        let refs: Vec<(&str, Type)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        module.add_class(format!("C{c}"), &refs);
    }
    let mut chunks: Vec<String> = Vec::new();
    for line in source.lines() {
        if line.trim_start().starts_with("func ") {
            chunks.push(String::new());
        }
        if let Some(cur) = chunks.last_mut() {
            cur.push_str(line);
            cur.push('\n');
        }
    }
    for chunk in &chunks {
        module.add_function(njc_ir::parse_function(chunk).unwrap());
    }
    njc_ir::verify_module(&module).unwrap();
    module
}

/// How a check ended up, according to its event trail.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Fate {
    Implicit,
    Removed,
    Explicit,
}

fn fate(ft: &FunctionTrace, id: CheckId) -> Fate {
    let mut fate = Fate::Explicit;
    for e in ft.events_for(id) {
        match e {
            CheckEvent::Phase2Converted { .. } | CheckEvent::TrivialConverted { .. } => {
                fate = Fate::Implicit;
            }
            CheckEvent::Phase1Eliminated { .. }
            | CheckEvent::WhaleyEliminated { .. }
            | CheckEvent::Phase2Merged { .. }
            | CheckEvent::Phase2Substituted { .. } => fate = Fate::Removed,
            _ => {}
        }
    }
    fate
}

/// The committed guard-wrap fixture carries exactly one check whose
/// conversion differs across platforms — `work`'s check #0 guards a field
/// *read*, implicit where reads trap (ia32-winnt, s390-linux), explicit
/// where the first page reads silently (ppc-aix) — and `njc explain`'s
/// rendering names it with the distinguishing story line.
#[test]
fn explain_names_the_platform_divergent_check_in_the_guard_wrap_fixture() {
    let module = load_fixture("tests/fixtures/guard_wrap_minimized.njc");
    let kind = ConfigKind::Full;
    let mut traces = Vec::new();
    for platform in platforms() {
        let config = kind.to_config(&platform);
        let mut m = module.clone();
        let (_, trace) = optimize_module_traced(&mut m, &platform, &config);
        trace.check_conservation().unwrap();
        traces.push((platform, trace));
    }

    // Find every (function, check) whose fate is not uniform across the
    // three platforms: it must be exactly `work`'s check #0.
    let mut divergent = Vec::new();
    let (_, first) = &traces[0];
    for ft in &first.functions {
        for id in ft.check_ids() {
            let fates: Vec<Fate> = traces
                .iter()
                .map(|(_, t)| fate(t.function(&ft.function).unwrap(), id))
                .collect();
            if fates.windows(2).any(|w| w[0] != w[1]) {
                divergent.push((ft.function.clone(), id, fates));
            }
        }
    }
    assert_eq!(
        divergent.len(),
        1,
        "expected exactly one platform-divergent check, got {divergent:?}"
    );
    let (func, id, fates) = &divergent[0];
    assert_eq!(func, "work");
    assert_eq!(*id, CheckId(0));
    // ia32 and s390 convert, AIX stays explicit.
    assert_eq!(*fates, vec![Fate::Implicit, Fate::Explicit, Fate::Implicit]);

    // The rendered explanation names the check and tells the divergent
    // story in so many words.
    let ia32 = traces[0].1.function("work").unwrap().explain(Some(*id));
    let aix = traces[1].1.function("work").unwrap().explain(Some(*id));
    assert!(ia32.contains("check #0"), "{ia32}");
    assert!(
        ia32.contains("converted to an implicit hardware trap"),
        "{ia32}"
    );
    assert!(aix.contains("check #0"), "{aix}");
    assert!(aix.contains("materialized as an explicit check"), "{aix}");
}
