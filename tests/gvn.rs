//! Integration tests for the value-numbered forward non-nullness
//! (`OptConfig::gvn`): congruence classes must kill checks the
//! per-variable analysis cannot, stay behaviorally invisible on every
//! trap model, and vanish without a trace when the feature is off.

use njc_arch::Platform;
use njc_ir::{CheckId, FuncBuilder, Module, Type};
use njc_observe::{CheckEvent, ModuleTrace, Redundancy};
use njc_opt::{optimize_module, optimize_module_traced, ConfigKind, OptConfig};
use njc_vm::run_module;
use njc_workloads::gen::{build_call_module, gen_call_actions, Rng};

/// Eliminations justified by a congruence class rather than a
/// per-variable fact — the provenance-true count of "checks only the
/// value numbering killed" (phase 1 and the Whaley baseline alike).
fn gvn_kills(trace: &ModuleTrace) -> usize {
    trace
        .functions
        .iter()
        .flat_map(|ft| &ft.events)
        .filter(|e| {
            matches!(
                e,
                CheckEvent::Phase1Eliminated {
                    why: Redundancy::Gvn { .. },
                    ..
                } | CheckEvent::WhaleyEliminated {
                    why: Redundancy::Gvn { .. },
                    ..
                }
            )
        })
        .count()
}

/// Explicit checks left in `name` after optimizing.
fn explicit_in(m: &Module, name: &str) -> usize {
    m.functions()
        .iter()
        .filter(|f| f.name() == name)
        .map(njc_core::phase2::count_explicit)
        .sum()
}

/// A bare config: one phase-1 pass, no inlining, no phase 2 — the IR
/// after optimization shows exactly which explicit checks phase 1 kept.
fn bare(p: &Platform) -> OptConfig {
    OptConfig {
        inline: false,
        phase2: false,
        trivial_trap: false,
        iterations: 1,
        ..ConfigKind::Full.to_config(p)
    }
}

/// A module whose final check only dies in value-number space: the two
/// branches prove non-nullness of the *same value* under different
/// names (`v0` directly vs. its copy), so the per-variable intersection
/// at the join is empty while the congruence class keeps the fact.
fn merge_module() -> Module {
    let mut m = Module::new("gvn-merge");
    let c = m.add_class("C", &[("f", Type::Int)]);
    let f = m.field(c, "f").unwrap();

    let helper = {
        let mut b = FuncBuilder::new("helper", &[Type::Ref, Type::Int], Type::Int);
        let p = b.param(0);
        let sel = b.param(1);
        let zero = b.iconst(0);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let join = b.new_block();
        b.br_if(njc_ir::Cond::Lt, sel, zero, then_bb, else_bb);
        b.switch_to(then_bb);
        b.null_check(p);
        b.goto(join);
        b.switch_to(else_bb);
        let copy = b.var(Type::Ref);
        b.assign(copy, p);
        b.null_check(copy);
        b.goto(join);
        b.switch_to(join);
        let v = b.get_field(p, f); // nullcheck p — dead only via the class
        b.ret(Some(v));
        m.add_function(b.finish())
    };

    let mut b = FuncBuilder::new("main", &[], Type::Int);
    let o = b.new_object(c);
    let k = b.iconst(7);
    b.put_field(o, f, k);
    let one = b.iconst(1);
    let a = b.call_static(helper, &[o, one], Some(Type::Int)).unwrap();
    let neg = b.iconst(-1);
    let c2 = b.call_static(helper, &[o, neg], Some(Type::Int)).unwrap();
    let s = b.add(a, c2);
    b.observe(s);
    b.ret(Some(s));
    m.add_function(b.finish());
    m
}

/// A module whose final check only dies through re-load congruence: the
/// same field of the same object is loaded twice with no intervening
/// store or call, so the second load shares the first's value number —
/// and the first load's target was checked.
fn reload_module() -> Module {
    reload_module_with(false)
}

/// [`reload_module`], optionally with a function that stores null into
/// `C.g` — which poisons the interprocedural *field* fact while leaving
/// the parameter facts intact, so the re-load congruence stays the only
/// justification for the second check even under `interproc: true`.
fn reload_module_with(spoil_field: bool) -> Module {
    let mut m = Module::new("gvn-reload");
    let d = m.add_class("D", &[("x", Type::Int)]);
    let c = m.add_class("C", &[("g", Type::Ref)]);
    let g = m.field(c, "g").unwrap();
    let x = m.field(d, "x").unwrap();

    let helper = {
        let mut b = FuncBuilder::new("helper", &[Type::Ref], Type::Int);
        let p = b.param(0);
        let v1 = b.get_field_typed(p, g, Type::Ref);
        let a = b.get_field(v1, x); // nullcheck v1: the first load's fact
        let v3 = b.get_field_typed(p, g, Type::Ref); // congruent re-load
        let bv = b.get_field(v3, x); // nullcheck v3 — dead only via the class
        let s = b.add(a, bv);
        b.ret(Some(s));
        m.add_function(b.finish())
    };

    let spoil = spoil_field.then(|| {
        let mut b = FuncBuilder::new_void("spoil", &[Type::Ref]);
        let p = b.param(0);
        let n = b.null_ref();
        b.put_field(p, g, n);
        b.ret(None);
        m.add_function(b.finish())
    });

    let mut b = FuncBuilder::new("main", &[], Type::Int);
    let inner = b.new_object(d);
    let k = b.iconst(5);
    b.put_field(inner, x, k);
    let o = b.new_object(c);
    b.put_field(o, g, inner);
    let r = b.call_static(helper, &[o], Some(Type::Int)).unwrap();
    b.observe(r);
    if let Some(spoil) = spoil {
        b.call_static(spoil, &[o], None);
    }
    b.ret(Some(r));
    m.add_function(b.finish());
    m
}

#[test]
fn gvn_kills_phi_merged_fact_on_every_trap_model() {
    // Under the Whaley baseline (pure forward dataflow, no motion) the
    // join check is exactly the fact-loss bug: each branch proves the
    // same value non-null under a different name, the per-variable
    // intersection drops it, and only the congruence class keeps it.
    // (Phase 1 instead *hoists* the obligation — backward motion plus
    // insertion covers this shape without needing the class.)
    let m = merge_module();
    for p in [
        Platform::windows_ia32(),
        Platform::aix_ppc(),
        Platform::linux_s390(),
    ] {
        let base = OptConfig {
            inline: false,
            phase2: false,
            trivial_trap: false,
            iterations: 1,
            ..ConfigKind::OldNullCheck.to_config(&p)
        };
        let mut off = m.clone();
        let stats_off = optimize_module(&mut off, &p, &base);
        let mut on = m.clone();
        let (stats_on, trace) =
            optimize_module_traced(&mut on, &p, &OptConfig { gvn: true, ..base });
        assert!(
            gvn_kills(&trace) >= 1,
            "{}: the merged fact must kill the join check",
            p.name
        );
        assert_eq!(
            stats_on.null_checks.whaley.gvn_eliminated,
            gvn_kills(&trace),
            "{}: stats and provenance must agree",
            p.name
        );
        assert!(
            stats_on.null_checks.whaley.eliminated > stats_off.null_checks.whaley.eliminated,
            "{}: GVN-on must eliminate strictly more (off {}, on {})",
            p.name,
            stats_off.null_checks.whaley.eliminated,
            stats_on.null_checks.whaley.eliminated
        );
        assert_eq!(
            explicit_in(&off, "helper"),
            explicit_in(&on, "helper") + 1,
            "{}: exactly the join check must die in the IR",
            p.name
        );

        // And the optimized modules behave identically.
        let a = run_module(&off, p, "main", &[]).unwrap();
        let b = run_module(&on, p, "main", &[]).unwrap();
        a.assert_equivalent(&b).unwrap();
    }
}

#[test]
fn gvn_kills_reloaded_field_check_on_every_trap_model() {
    let m = reload_module();
    for p in [
        Platform::windows_ia32(),
        Platform::aix_ppc(),
        Platform::linux_s390(),
    ] {
        let base = bare(&p);
        let mut off = m.clone();
        let stats_off = optimize_module(&mut off, &p, &base);
        let mut on = m.clone();
        let (stats_on, trace) =
            optimize_module_traced(&mut on, &p, &OptConfig { gvn: true, ..base });
        assert!(
            gvn_kills(&trace) >= 1,
            "{}: the re-load's check must die via congruence",
            p.name
        );
        assert!(
            stats_on.null_checks.phase1.eliminated > stats_off.null_checks.phase1.eliminated,
            "{}: GVN-on must eliminate strictly more (off {}, on {})",
            p.name,
            stats_off.null_checks.phase1.eliminated,
            stats_on.null_checks.phase1.eliminated
        );

        let a = run_module(&off, p, "main", &[]).unwrap();
        let b = run_module(&on, p, "main", &[]).unwrap();
        a.assert_equivalent(&b).unwrap();
    }
}

#[test]
fn store_kills_reload_congruence_in_the_pipeline() {
    // The negative control for re-load congruence: a store to the same
    // field between the two loads bumps the memory epoch, so the second
    // load is *not* congruent and its check must survive even with GVN on.
    let mut m = Module::new("gvn-store-kill");
    let d = m.add_class("D", &[("x", Type::Int)]);
    let c = m.add_class("C", &[("g", Type::Ref)]);
    let g = m.field(c, "g").unwrap();
    let x = m.field(d, "x").unwrap();

    {
        let mut b = FuncBuilder::new("helper", &[Type::Ref, Type::Ref], Type::Int);
        let p = b.param(0);
        let q = b.param(1);
        let v1 = b.get_field_typed(p, g, Type::Ref);
        let a = b.get_field(v1, x);
        b.put_field(p, g, q); // epoch bump: v3 below is a different value
        let v3 = b.get_field_typed(p, g, Type::Ref);
        let bv = b.get_field(v3, x);
        let s = b.add(a, bv);
        b.ret(Some(s));
        m.add_function(b.finish());
    }

    let p = Platform::windows_ia32();
    let base = bare(&p);
    let mut off = m.clone();
    optimize_module(&mut off, &p, &base);
    let mut on = m.clone();
    let (_, trace) = optimize_module_traced(&mut on, &p, &OptConfig { gvn: true, ..base });
    assert_eq!(
        gvn_kills(&trace),
        0,
        "no congruence survives the intervening store"
    );
    assert_eq!(
        explicit_in(&off, "helper"),
        explicit_in(&on, "helper"),
        "GVN must not remove the re-load's check across the store"
    );
}

#[test]
fn disabled_gvn_is_byte_identical() {
    // `gvn: false` must produce the same module as every preset (all of
    // which leave the flag off) — the feature leaves no residue.
    let p = Platform::windows_ia32();
    for seed in 0..4u64 {
        let mut rng = Rng::new(seed ^ 0x6716);
        let len = rng.range(1, 10);
        let actions = gen_call_actions(&mut rng, len, 2);
        let m = build_call_module(&actions);
        let mut flag_off = m.clone();
        optimize_module(
            &mut flag_off,
            &p,
            &OptConfig {
                gvn: false,
                ..ConfigKind::Full.to_config(&p)
            },
        );
        let mut plain = m.clone();
        optimize_module(&mut plain, &p, &ConfigKind::Full.to_config(&p));
        assert_eq!(flag_off, plain, "seed {seed}");
    }
}

#[test]
fn gvn_composes_with_interproc_facts() {
    // Interprocedural facts seed the congruence classes: with both on,
    // everything the two features kill separately dies together, the
    // ledgers still reconcile, and behavior is unchanged. (The spoiler
    // keeps the field fact away so the re-load's check stays a
    // congruence-only kill even with the inference running.)
    let m = reload_module_with(true);
    let p = Platform::windows_ia32();
    let base = bare(&p);
    let mut both = m.clone();
    let (stats, trace) = optimize_module_traced(
        &mut both,
        &p,
        &OptConfig {
            interproc: true,
            gvn: true,
            ..base
        },
    );
    trace.check_conservation().unwrap();
    assert!(
        stats.null_checks.phase1.gvn_eliminated >= 1,
        "congruence kills must survive the interprocedural seeding"
    );
    let mut off = m.clone();
    optimize_module(&mut off, &p, &base);
    let a = run_module(&off, p, "main", &[]).unwrap();
    let b = run_module(&both, p, "main", &[]).unwrap();
    a.assert_equivalent(&b).unwrap();
}

#[test]
fn gvn_conservation_ledger_balances() {
    // Every GVN-attributed elimination must enter the conservation ledger
    // like any other: origins − eliminations − conversions = survivors.
    for m in [merge_module(), reload_module()] {
        let p = Platform::windows_ia32();
        let mut on = m.clone();
        let (_, trace) = optimize_module_traced(
            &mut on,
            &p,
            &OptConfig {
                gvn: true,
                ..ConfigKind::Full.to_config(&p)
            },
        );
        trace.check_conservation().unwrap();
    }
}

/// Each phase 1 / Whaley elimination of `trace`, keyed by (function, check
/// id), with the fact that justified it.
fn eliminations(trace: &ModuleTrace) -> Vec<((String, CheckId), Redundancy)> {
    let mut out = Vec::new();
    for ft in &trace.functions {
        for e in &ft.events {
            if let CheckEvent::Phase1Eliminated { id, why, .. }
            | CheckEvent::WhaleyEliminated { id, why, .. } = e
            {
                out.push(((ft.function.clone(), *id), *why));
            }
        }
    }
    out
}

#[test]
fn gvn_keeps_every_legacy_kill_and_its_why() {
    // Legacy-first precedence, per check: with one null-check pass the
    // value numbering sees the same check ids as the per-variable run,
    // so every check the gvn-off run eliminates must die with gvn on too,
    // justified by the identical fact; `gvn_eliminated` counts exactly
    // the class-attributed kills.
    let mut modules: Vec<(String, Module)> = njc_workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.module))
        .collect();
    modules.extend(
        njc_workloads::micro::all_micro()
            .into_iter()
            .map(|(n, m)| (n.to_string(), m)),
    );
    let mut gvn_total = 0;
    for (name, m) in &modules {
        for kind in [ConfigKind::OldNullCheck, ConfigKind::Phase1Only] {
            for p in [Platform::windows_ia32(), Platform::aix_ppc()] {
                for interproc in [false, true] {
                    let cell = format!("{name} {kind:?} {} interproc={interproc}", p.name);
                    let config = |gvn| OptConfig {
                        iterations: 1,
                        interproc,
                        gvn,
                        ..kind.to_config(&p)
                    };
                    let (_, off) = optimize_module_traced(&mut m.clone(), &p, &config(false));
                    let (stats, on) = optimize_module_traced(&mut m.clone(), &p, &config(true));
                    let on_kills = eliminations(&on);
                    for (key, why) in eliminations(&off) {
                        let found = on_kills.iter().find(|(k, _)| *k == key).map(|(_, w)| w);
                        assert_eq!(found, Some(&why), "{cell}: check {key:?}");
                    }
                    let s = &stats.null_checks;
                    let counted = s.phase1.gvn_eliminated + s.whaley.gvn_eliminated;
                    assert_eq!(counted, gvn_kills(&on), "{cell}");
                    gvn_total += counted;
                }
            }
        }
    }
    assert!(gvn_total > 0, "the corpus must exercise the class replay");
}
