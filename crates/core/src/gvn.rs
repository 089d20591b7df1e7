//! Global value numbering for the forward non-nullness analysis.
//!
//! The paper's phase 1 (§4.1.2) tracks non-nullness per *variable slot*, so
//! a check on `v` proves nothing about a copy `w = v`, a re-loaded field, or
//! a phi-merged pointer — every overwrite is a pure kill. Das & Lal
//! ("Precise Null Pointer Analysis Through Global Value Numbering") close
//! the gap: run the same must-analysis over *value numbers*, so one
//! member's check covers its whole congruence class.
//!
//! This module builds a per-function value numbering and a VN-indexed
//! variant of the non-nullness problem:
//!
//! * [`ValueNumbering`] assigns every variable, at every block boundary and
//!   instruction, a value number. Copies share their source's number; field
//!   loads of the same (object VN, field) pair are congruent until a
//!   potentially-aliasing store or call bumps the *memory epoch*; values
//!   that merge differently at a join get a fresh phi number per
//!   (block, variable).
//! * [`GvnNonNullSets`]/[`GvnNonNullProblem`] re-derive the transfer
//!   functions per class. Value numbers are immutable values, so there are
//!   **no kills** — a redefinition of `v` simply rebinds `v` to another
//!   number. Facts cross CFG edges by *translation*: a fact survives an
//!   edge exactly when some variable carries it across (which also keeps a
//!   phi number from leaking between loop iterations, where it denotes a
//!   different value). `exc_mask` semantics fall out per class: a copy
//!   doesn't throw, so copy-propagated facts survive to the handler; only
//!   gens at or after the block's first throw point are masked off.
//!
//! Neither is a pass of its own. Phase 1 and the Whaley baseline solve
//! [`GvnNonNullProblem`] next to their per-variable problem when
//! `OptConfig::gvn` is on, and hand the numbering and its solution to
//! their one elimination replay ([`nonnull::eliminate_redundant`]) as an
//! optional finer index: GVN-on removes a strict superset of checks,
//! every legacy-provable kill keeps its legacy provenance, and each
//! GVN-only kill is attributed `Redundancy::Gvn { representative,
//! class_size }` for the conservation ledger.
//!
//! The numbering is also the precision backbone of the static coverage
//! validator (`njc-analysis`): a sound validator may use any sound
//! precision, and per-variable coverage proofs do not survive passes that
//! move copies (a hoisted `w = v` is justified by `w ≅ v`, not by a check
//! of `w` on every path).

use std::collections::{HashMap, HashSet};

use njc_dataflow::{solve_cached, BitSet, Direction, Meet, Problem, Solution};
use njc_ir::{BlockId, CfgCache, Function, Inst, Terminator};

use crate::ctx::AnalysisCtx;
use crate::nonnull::{self, is_exceptional_edge};

/// Sentinel for "this instruction defines nothing" in [`ValueNumbering::def_vn`].
pub const NO_VN: u32 = u32::MAX;

/// The default throw-point predicate for optimizer clients: the points from
/// which control can transfer to the block's handler (explicit null checks,
/// non-NPE throwers, and marked implicit-check sites — model-independent,
/// a conservative superset). The coverage validator passes its own
/// model-dependent predicate instead.
pub fn default_throw_point(inst: &Inst) -> bool {
    nonnull::is_throw_point(inst)
}

/// The interned shape of a value number. Structural keys make congruence
/// syntactic: two expressions get the same number iff their keys collide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Key {
    /// Variable `v`'s value on function entry.
    Entry(u32),
    /// The opaque value defined by instruction `(block, index)` — consts,
    /// calls, allocations, array loads, arithmetic.
    Def(u32, u32),
    /// Phi: variable `v` merges distinct values at the head of `block`.
    Merge(u32, u32),
    /// Phi on the exceptional edge: `v` held distinct values at two throw
    /// points of `block`.
    ExcMerge(u32, u32),
    /// `getfield obj, field` under memory epoch `ep`: congruent re-load.
    Load(u32, u32, u32),
    /// The memory epoch on function entry.
    EntryMem,
    /// The epoch after the potentially-aliasing write at `(block, index)`
    /// (putfield / array store / call).
    Store(u32, u32),
    /// Phi over memory epochs at the head of `block`.
    MemMerge(u32),
    /// Phi over memory epochs on `block`'s exceptional edge.
    ExcMemMerge(u32),
}

#[derive(Default)]
struct Interner {
    map: HashMap<Key, u32>,
}

impl Interner {
    fn id(&mut self, k: Key) -> u32 {
        let next = u32::try_from(self.map.len()).expect("value number overflow");
        *self.map.entry(k).or_insert(next)
    }
}

/// A per-function value numbering: the variable→VN binding at every block
/// boundary, the VN defined by every instruction, and the folded bindings
/// on each block's exceptional edge.
pub struct ValueNumbering {
    /// Per block: variable → VN at block entry.
    pub entry_vn: Vec<Vec<u32>>,
    /// Per block: variable → VN at block exit (after every instruction).
    pub exit_vn: Vec<Vec<u32>>,
    /// Per block, per instruction: the VN the instruction's destination is
    /// bound to afterwards ([`NO_VN`] for instructions without a def).
    pub def_vn: Vec<Vec<u32>>,
    /// Per block: variable → VN folded over every throw point (the binding
    /// the handler observes). `None` when the block has no throw point —
    /// its exceptional edge is never taken, a ⊤ contribution.
    pub exc_vn: Vec<Option<Vec<u32>>>,
    /// Per block: instruction index of the first throw point
    /// (`insts.len()` when only the terminator throws, `usize::MAX` when
    /// nothing does). Gens strictly before this index reach the handler.
    pub exc_cut: Vec<usize>,
    /// Total distinct value numbers (the fact-space size).
    pub num_vns: usize,
}

/// Folds one throw-point snapshot into the exceptional-edge accumulator:
/// positions that disagree become sticky per-(block, var) phi numbers.
fn fold_exc(
    itn: &mut Interner,
    bi: usize,
    acc: &mut Option<Vec<u32>>,
    acc_ep: &mut Option<u32>,
    state: &[u32],
    ep: u32,
) {
    match acc {
        None => {
            *acc = Some(state.to_vec());
            *acc_ep = Some(ep);
        }
        Some(av) => {
            for (v, a) in av.iter_mut().enumerate() {
                if *a != state[v] {
                    *a = itn.id(Key::ExcMerge(bi as u32, v as u32));
                }
            }
            if *acc_ep != Some(ep) {
                *acc_ep = Some(itn.id(Key::ExcMemMerge(bi as u32)));
            }
        }
    }
}

impl ValueNumbering {
    /// Computes the numbering. `is_throw_point` decides which instructions
    /// can transfer control to the handler (clients differ: the optimizer
    /// uses the model-independent superset [`default_throw_point`], the
    /// coverage validator its model-dependent predicate; a superset here
    /// costs the *client's* exceptional-edge precision, so each passes its
    /// own). `Terminator::Throw` is always a throw point.
    pub fn compute(func: &Function, is_throw_point: &dyn Fn(&Inst) -> bool) -> ValueNumbering {
        let nb = func.num_blocks();
        let nv = func.num_vars();
        let mut itn = Interner::default();

        // Predecessor edges, handler edges included and tagged.
        let mut preds: Vec<Vec<(usize, bool)>> = vec![Vec::new(); nb];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for b in func.blocks() {
            let bi = b.id.index();
            for s in b.term.successors() {
                preds[s.index()].push((bi, false));
                succs[bi].push(s.index());
            }
            if let Some(tr) = b.try_region {
                let h = func.try_region(tr).handler;
                preds[h.index()].push((bi, true));
                succs[bi].push(h.index());
            }
        }

        // Reverse postorder from the entry (unreachable blocks appended —
        // they still get frames, seeded from their own entry bindings).
        let entry_idx = func.entry().index();
        let mut order: Vec<usize> = {
            let mut post = Vec::with_capacity(nb);
            let mut seen = vec![false; nb];
            let mut stack: Vec<(usize, usize)> = vec![(entry_idx, 0)];
            seen[entry_idx] = true;
            while let Some((n, i)) = stack.last_mut() {
                if let Some(&s) = succs[*n].get(*i) {
                    *i += 1;
                    if !seen[s] {
                        seen[s] = true;
                        stack.push((s, 0));
                    }
                } else {
                    post.push(*n);
                    stack.pop();
                }
            }
            let mut order: Vec<usize> = post.into_iter().rev().collect();
            for (b, vis) in seen.iter().enumerate() {
                if !vis {
                    order.push(b);
                }
            }
            order
        };
        if order.is_empty() {
            order.push(entry_idx);
        }

        let mut entry_vn: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut entry_ep: Vec<u32> = vec![0; nb];
        let mut exit_vn: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut exit_ep: Vec<u32> = vec![0; nb];
        let mut def_vn: Vec<Vec<u32>> = vec![Vec::new(); nb];
        let mut exc_vn: Vec<Option<Vec<u32>>> = vec![None; nb];
        let mut exc_ep: Vec<Option<u32>> = vec![None; nb];
        let mut exc_cut: Vec<usize> = vec![usize::MAX; nb];
        let mut computed = vec![false; nb];
        // Sticky merge decisions: once a join observes disagreement for a
        // (block, var) — or for a block's epoch — it stays a phi. This is
        // what makes the fixpoint monotone (each decision flips at most
        // once), so the pass bound below is generous, not load-bearing.
        let mut merged_var: HashSet<(usize, usize)> = HashSet::new();
        let mut merged_mem: HashSet<usize> = HashSet::new();

        let entry_frame = |itn: &mut Interner| -> (Vec<u32>, u32) {
            (
                (0..nv).map(|v| itn.id(Key::Entry(v as u32))).collect(),
                itn.id(Key::EntryMem),
            )
        };

        let limit = (nb + 2) * (nv + 2) + 16;
        let mut passes = 0;
        loop {
            let mut changed = false;
            for &bi in &order {
                // Block entry frame: agree → inherit, disagree → phi.
                let (ev, eep) = if bi == entry_idx {
                    entry_frame(&mut itn)
                } else {
                    let mut contribs: Vec<(Vec<u32>, u32)> = Vec::new();
                    for &(p, exc) in &preds[bi] {
                        if !computed[p] {
                            continue; // optimistic: not yet visited
                        }
                        if exc {
                            if let Some(bind) = &exc_vn[p] {
                                contribs.push((bind.clone(), exc_ep[p].expect("exc epoch")));
                            }
                        } else {
                            contribs.push((exit_vn[p].clone(), exit_ep[p]));
                        }
                    }
                    if contribs.is_empty() {
                        entry_frame(&mut itn)
                    } else {
                        let mut ev = vec![0u32; nv];
                        for (v, slot) in ev.iter_mut().enumerate() {
                            let first = contribs[0].0[v];
                            let agree = contribs.iter().all(|c| c.0[v] == first);
                            *slot = if !agree || merged_var.contains(&(bi, v)) {
                                merged_var.insert((bi, v));
                                itn.id(Key::Merge(bi as u32, v as u32))
                            } else {
                                first
                            };
                        }
                        let first_ep = contribs[0].1;
                        let ep_agree = contribs.iter().all(|c| c.1 == first_ep);
                        let eep = if !ep_agree || merged_mem.contains(&bi) {
                            merged_mem.insert(bi);
                            itn.id(Key::MemMerge(bi as u32))
                        } else {
                            first_ep
                        };
                        (ev, eep)
                    }
                };

                // Straight-line walk of the block.
                let block = func.block(BlockId::new(bi));
                let mut state = ev.clone();
                let mut ep = eep;
                let mut dvs: Vec<u32> = Vec::with_capacity(block.insts.len());
                let mut exc_acc: Option<Vec<u32>> = None;
                let mut exc_e: Option<u32> = None;
                let mut cut = usize::MAX;
                for (i, inst) in block.insts.iter().enumerate() {
                    if is_throw_point(inst) {
                        // The handler observes the state *before* the
                        // throwing instruction executes.
                        if cut == usize::MAX {
                            cut = i;
                        }
                        fold_exc(&mut itn, bi, &mut exc_acc, &mut exc_e, &state, ep);
                    }
                    let dv = match inst {
                        Inst::Move { dst, src } => {
                            let x = state[src.index()];
                            state[dst.index()] = x;
                            x
                        }
                        Inst::GetField {
                            dst, obj, field, ..
                        } => {
                            let x = itn.id(Key::Load(state[obj.index()], field.0, ep));
                            state[dst.index()] = x;
                            x
                        }
                        _ => {
                            let dv = match inst.def() {
                                Some(d) => {
                                    let x = itn.id(Key::Def(bi as u32, i as u32));
                                    state[d.index()] = x;
                                    x
                                }
                                None => NO_VN,
                            };
                            if inst.writes_memory() {
                                ep = itn.id(Key::Store(bi as u32, i as u32));
                            }
                            dv
                        }
                    };
                    dvs.push(dv);
                }
                if matches!(block.term, Terminator::Throw(_)) {
                    if cut == usize::MAX {
                        cut = block.insts.len();
                    }
                    fold_exc(&mut itn, bi, &mut exc_acc, &mut exc_e, &state, ep);
                }

                if !computed[bi]
                    || entry_vn[bi] != ev
                    || entry_ep[bi] != eep
                    || exit_vn[bi] != state
                    || exit_ep[bi] != ep
                    || def_vn[bi] != dvs
                    || exc_vn[bi] != exc_acc
                    || exc_ep[bi] != exc_e
                    || exc_cut[bi] != cut
                {
                    changed = true;
                }
                entry_vn[bi] = ev;
                entry_ep[bi] = eep;
                exit_vn[bi] = state;
                exit_ep[bi] = ep;
                def_vn[bi] = dvs;
                exc_vn[bi] = exc_acc;
                exc_ep[bi] = exc_e;
                exc_cut[bi] = cut;
                computed[bi] = true;
            }
            if !changed {
                break;
            }
            passes += 1;
            assert!(passes <= limit, "value numbering failed to converge");
        }

        ValueNumbering {
            entry_vn,
            exit_vn,
            def_vn,
            exc_vn,
            exc_cut,
            num_vns: itn.map.len(),
        }
    }

    /// Advances a replay state (variable → VN) across one instruction at
    /// its *original* index `idx` in `block`.
    pub fn step(&self, block: usize, idx: usize, inst: &Inst, state: &mut [u32]) {
        if let Inst::Move { dst, src } = inst {
            state[dst.index()] = state[src.index()];
        } else if let Some(d) = inst.def() {
            state[d.index()] = self.def_vn[block][idx];
        }
    }

    /// Translates a VN fact set across an edge: a fact survives exactly
    /// when a variable carries it — `from_frame[v]` holds in `facts` —
    /// in which case the target-side binding `to_frame[v]` is set.
    pub fn translate(from_frame: &[u32], to_frame: &[u32], facts: &BitSet, out: &mut BitSet) {
        for (v, &fvn) in from_frame.iter().enumerate() {
            if facts.contains(fvn as usize) {
                out.insert(to_frame[v] as usize);
            }
        }
    }
}

/// Per-block transfer sets of the VN-indexed non-nullness problem. Value
/// numbers are immutable, so there is no kill set: `out = in ∪ gen`.
pub struct GvnNonNullSets {
    /// VNs proven non-null by the block (checks, allocations, assumed
    /// interprocedural gens — a fact on one class member is a fact on all).
    pub gen: Vec<BitSet>,
    /// The subset of `gen` established strictly before the block's first
    /// throw point: the only gens the handler observes. Non-throwing
    /// copies never mask — a copy gens nothing, its source's fact simply
    /// stays attached to the shared value number.
    pub exc_gen: Vec<BitSet>,
}

/// Computes the gen sets. With a context, interprocedurally assumed defs
/// (non-null-returning calls, always-initialized field loads) gen their
/// destination's VN — for a field load that is the *Load class* itself, so
/// every congruent re-load inherits the call-site fact.
pub fn compute_gvn_sets(
    ctx: Option<&AnalysisCtx<'_>>,
    func: &Function,
    vn: &ValueNumbering,
) -> GvnNonNullSets {
    let nf = vn.num_vns;
    let nb = func.num_blocks();
    let mut gen = Vec::with_capacity(nb);
    let mut exc_gen = Vec::with_capacity(nb);
    for b in func.blocks() {
        let bi = b.id.index();
        let mut state = vn.entry_vn[bi].clone();
        let mut g = BitSet::new(nf);
        let mut eg = BitSet::new(nf);
        for (i, inst) in b.insts.iter().enumerate() {
            let gvn = if ctx.and_then(|c| c.assumed_nonnull_def(inst)).is_some() {
                Some(vn.def_vn[bi][i])
            } else {
                match inst {
                    Inst::NullCheck { var, .. } => Some(state[var.index()]),
                    Inst::New { .. } | Inst::NewArray { .. } => Some(vn.def_vn[bi][i]),
                    _ => None,
                }
            };
            vn.step(bi, i, inst, &mut state);
            if let Some(x) = gvn {
                g.insert(x as usize);
                if i < vn.exc_cut[bi] {
                    eg.insert(x as usize);
                }
            }
        }
        gen.push(g);
        exc_gen.push(eg);
    }
    GvnNonNullSets { gen, exc_gen }
}

/// The non-nullness dataflow problem over value numbers. Mirrors
/// [`nonnull::NonNullProblem`] — same meet, same boundary seeds, same
/// `Earliest` insertion-point modeling, same `IfNull` edge gen — but facts
/// are VN-indexed and cross every edge by translation.
pub struct GvnNonNullProblem<'a> {
    /// The function under analysis.
    pub func: &'a Function,
    /// Its value numbering (computed with [`default_throw_point`]).
    pub vn: &'a ValueNumbering,
    /// Per-block transfer sets from [`compute_gvn_sets`].
    pub sets: GvnNonNullSets,
    /// Phase 1 insertion points (variable-indexed), or `None` for Whaley.
    pub earliest: Option<&'a [BitSet]>,
    /// Interprocedurally proven non-null parameters (variable-indexed),
    /// seeded onto their entry VNs.
    pub entry: Option<BitSet>,
}

impl Problem for GvnNonNullProblem<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn meet(&self) -> Meet {
        Meet::Intersect
    }
    fn num_facts(&self) -> usize {
        self.vn.num_vns
    }
    fn boundary(&self) -> BitSet {
        let mut b = BitSet::new(self.vn.num_vns);
        let frame = &self.vn.entry_vn[self.func.entry().index()];
        if self.func.is_instance() {
            b.insert(frame[0] as usize);
        }
        if let Some(entry) = &self.entry {
            for v in entry.iter() {
                b.insert(frame[v] as usize);
            }
        }
        b
    }
    fn transfer(&self, block: BlockId, input: &BitSet, output: &mut BitSet) {
        output.union_from(input, &self.sets.gen[block.index()]);
    }
    fn edge_uses_input(&self, from: BlockId, to: BlockId) -> bool {
        is_exceptional_edge(self.func, from, to)
    }
    fn edge_transfer(&self, from: BlockId, to: BlockId, set: &mut BitSet) {
        let fi = from.index();
        let ti = to.index();
        let mut out = BitSet::new(self.vn.num_vns);
        if is_exceptional_edge(self.func, from, to) {
            // `set` holds the block's entry facts (edge_uses_input). The
            // handler observes in-facts plus pre-first-throw-point gens,
            // through the folded exceptional bindings.
            match &self.vn.exc_vn[fi] {
                // No throw point: the edge is never taken — ⊤.
                None => out.set_all(),
                Some(bind) => {
                    let mut facts = set.clone();
                    facts.union_with(&self.sets.exc_gen[fi]);
                    ValueNumbering::translate(bind, &self.vn.entry_vn[ti], &facts, &mut out);
                }
            }
        } else {
            // Normal edge: translate exit bindings to entry bindings. A
            // fact without a carrying variable dies here — deliberately,
            // since a phi number denotes a different value once control
            // re-enters its block (§4.1.2's Edge function, per class).
            let exit = &self.vn.exit_vn[fi];
            let ent = &self.vn.entry_vn[ti];
            for (v, &xvn) in exit.iter().enumerate() {
                let covered =
                    set.contains(xvn as usize) || self.earliest.is_some_and(|e| e[fi].contains(v));
                if covered {
                    out.insert(ent[v] as usize);
                }
            }
            if let Terminator::IfNull {
                var,
                on_null,
                on_nonnull,
            } = self.func.block(from).term
            {
                if to == on_nonnull && to != on_null {
                    out.insert(ent[var.index()] as usize);
                }
            }
        }
        *set = out;
    }
}

/// Builds `func`'s numbering and solves [`GvnNonNullProblem`] over it: the
/// optional input phase 1 and the Whaley baseline hand their elimination
/// replay under `OptConfig::gvn`. `ctx` supplies the interprocedural
/// seeds (entry facts, assumed gens); `earliest` the phase 1 insertion
/// points.
pub(crate) fn solve_classes(
    ctx: Option<&AnalysisCtx<'_>>,
    func: &Function,
    cfg: &CfgCache,
    earliest: Option<&[BitSet]>,
) -> (ValueNumbering, Solution) {
    let vn = ValueNumbering::compute(func, &default_throw_point);
    let problem = GvnNonNullProblem {
        func,
        vn: &vn,
        sets: compute_gvn_sets(ctx, func, &vn),
        earliest,
        entry: ctx.and_then(|c| c.entry_facts(func, func.num_vars())),
    };
    let sol = solve_cached(func, cfg, &problem);
    (vn, sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonnull::{compute_sets, eliminate_redundant, Elimination, NonNullProblem};
    use njc_dataflow::solve;
    use njc_ir::{parse_function, VarId};
    use njc_observe::{CheckEvent, Recorder, Redundancy};

    fn solve_both(f: &Function) -> (Vec<BitSet>, ValueNumbering, Vec<BitSet>) {
        let legacy = NonNullProblem {
            func: f,
            sets: compute_sets(f),
            earliest: None,
            entry: None,
            num_facts: f.num_vars(),
        };
        let lsol = solve(f, &legacy);
        let vn = ValueNumbering::compute(f, &default_throw_point);
        let sets = compute_gvn_sets(None, f, &vn);
        let gp = GvnNonNullProblem {
            func: f,
            vn: &vn,
            sets,
            earliest: None,
            entry: None,
        };
        let gsol = solve(f, &gp);
        (lsol.ins, vn, gsol.ins)
    }

    fn run_gvn(src: &str) -> (Function, Elimination) {
        let mut f = parse_function(src).unwrap();
        let (lins, vn, gins) = solve_both(&f);
        let r = eliminate_redundant(
            None,
            &mut f,
            &lins,
            None,
            Some((&vn, &gins)),
            &mut Recorder::disabled(),
            false,
        );
        (f, r)
    }

    fn checks(f: &Function) -> usize {
        f.blocks()
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::NullCheck { .. }))
            .count()
    }

    #[test]
    fn check_on_copy_covers_the_original() {
        // `nullcheck v1` where `v1 = move v0`: the per-variable analysis
        // cannot transfer the fact *backward* to v0, the class can.
        let (f, r) = run_gvn(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int\nbb0:\n  v1 = move v0\n  nullcheck v1\n  v2 = getfield v1, field0\n  goto bb1\nbb1:\n  nullcheck v0\n  v2 = getfield v0, field0\n  return v2\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(r.gvn_only, 1, "{f}");
        assert_eq!(checks(&f), 1);
    }

    #[test]
    fn phi_merged_pointer_shares_facts() {
        // Both predecessors check the same incoming value under different
        // names; the merged variable inherits the class fact. The legacy
        // analysis also proves this one (same slot on both sides) — the
        // point is the *copies into* v2 don't lose it on either solution.
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: ref, v3: int) -> int {\n  locals v2: ref v4: int\nbb0:\n  if eq v3, v3 then bb1 else bb2\nbb1:\n  nullcheck v0\n  v2 = move v0\n  goto bb3\nbb2:\n  nullcheck v1\n  v2 = move v1\n  goto bb3\nbb3:\n  nullcheck v2\n  v4 = getfield v2, field0\n  return v4\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn phi_merge_requires_both_predecessors() {
        // Only one predecessor establishes the fact: the phi class must
        // NOT be non-null at the join.
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: ref, v3: int) -> int {\n  locals v2: ref v4: int\nbb0:\n  if eq v3, v3 then bb1 else bb2\nbb1:\n  nullcheck v0\n  v2 = move v0\n  goto bb3\nbb2:\n  v2 = move v1\n  goto bb3\nbb3:\n  nullcheck v2\n  v4 = getfield v2, field0\n  return v4\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn reloaded_field_is_congruent() {
        // Two loads of v0.field0 with no intervening store or call: the
        // second load re-observes the checked value.
        let (f, r) = run_gvn(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: ref v3: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v1\n  v3 = getfield v1, field1\n  v2 = getfield v0, field0\n  nullcheck v2\n  v3 = getfield v2, field1\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(r.gvn_only, 1, "{f}");
    }

    #[test]
    fn store_kills_load_congruence() {
        // A putfield between the loads bumps the memory epoch: the
        // re-load is a different value, its check must stay.
        let (f, r) = run_gvn(
            "func f(v0: ref, v4: ref) -> int {\n  locals v1: ref v2: ref v3: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v1\n  v3 = getfield v1, field1\n  putfield v0, field0, v4\n  v2 = getfield v0, field0\n  nullcheck v2\n  v3 = getfield v2, field1\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 3);
    }

    #[test]
    fn call_kills_load_congruence() {
        let (f, r) = run_gvn(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: ref v3: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  nullcheck v1\n  v3 = call fn0(v0)\n  v2 = getfield v0, field0\n  nullcheck v2\n  v3 = getfield v2, field1\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 3);
    }

    #[test]
    fn loop_carried_phi_is_not_self_justifying() {
        // v1 is overwritten with an unchecked load each iteration; the
        // header check must survive (a phi fact may not leak around the
        // back edge via its own number).
        let (f, r) = run_gvn(
            "func f(v0: ref, v2: int) -> int {\n  locals v1: ref v3: int\nbb0:\n  nullcheck v0\n  v1 = getfield v0, field0\n  goto bb1\nbb1:\n  nullcheck v1\n  v3 = getfield v1, field1\n  v1 = getfield v0, field1\n  if lt v3, v2 then bb1 else bb2\nbb2:\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn loop_invariant_copy_covers_across_back_edge() {
        // The copy target is loop-invariant: once checked before the
        // loop, the in-loop check of the copy dies on every iteration.
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: int) -> int {\n  locals v2: ref v3: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  v2 = move v0\n  goto bb1\nbb1:\n  nullcheck v2\n  v3 = getfield v2, field0\n  if lt v3, v1 then bb1 else bb2\nbb2:\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(checks(&f), 1);
    }

    #[test]
    fn congruent_reload_fact_survives_to_handler() {
        // bb1 re-loads the field checked in bb0 (same object VN, same
        // epoch) and then hits a throw point. The per-variable analysis
        // kills v2 at its def; the class fact (the Load VN) rides into
        // the handler, so the handler's check of v2 is GVN-only dead.
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: int, v2: int) -> int {\n  locals v3: ref v4: ref v5: int\n  try0: handler bb3 catch any -> v5\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  nullcheck v3\n  goto bb1\nbb1: [try0]\n  v4 = getfield v0, field0\n  v1 = div.int v1, v2\n  goto bb2\nbb2:\n  return v1\nbb3:\n  nullcheck v4\n  v5 = getfield v4, field1\n  return v5\n}",
        );
        assert_eq!(r.eliminated, 1, "{f}");
        assert_eq!(r.gvn_only, 1, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn own_check_gen_does_not_reach_handler() {
        // The in-try check is itself the first throw point: when it
        // throws, its variable IS null in the handler — the class fact
        // must not leak across the exceptional edge.
        let (f, r) = run_gvn(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int v3: int\n  try0: handler bb2 catch any -> v3\nbb0: [try0]\n  v1 = move v0\n  nullcheck v1\n  v2 = getfield v1, field0\n  goto bb1\nbb1:\n  return v2\nbb2:\n  nullcheck v0\n  v2 = getfield v0, field0\n  return v2\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn fact_after_throw_point_does_not_reach_handler() {
        let (f, r) = run_gvn(
            "func f(v0: ref, v1: int, v2: int) -> int {\n  locals v3: ref v4: int\n  try0: handler bb2 catch any -> v4\nbb0: [try0]\n  v1 = div.int v1, v2\n  v3 = move v0\n  nullcheck v3\n  goto bb1\nbb1:\n  return v1\nbb2:\n  nullcheck v0\n  v3 = getfield v0, field0\n  return v3\n}",
        );
        assert_eq!(r.eliminated, 0, "{f}");
        assert_eq!(checks(&f), 2);
    }

    #[test]
    fn gvn_solution_dominates_legacy() {
        // On every block of several shapes, the VN in-set translated back
        // to variables must contain the legacy in-set (the dual replay
        // then guarantees a strict superset of kills).
        let srcs = [
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int\nbb0:\n  nullcheck v0\n  v2 = getfield v0, field0\n  v1 = move v0\n  goto bb1\nbb1:\n  nullcheck v1\n  v2 = getfield v1, field0\n  return v2\n}",
            "func f(v0: ref) -> int {\n  locals v1: int\nbb0:\n  ifnull v0 then bb1 else bb2\nbb1:\n  v1 = const 0\n  return v1\nbb2:\n  nullcheck v0\n  v1 = getfield v0, field0\n  return v1\n}",
            "func f(v0: ref, v2: int) -> int {\n  locals v1: ref v3: int\nbb0:\n  nullcheck v0\n  v3 = getfield v0, field0\n  v1 = move v0\n  goto bb1\nbb1:\n  nullcheck v1\n  v3 = getfield v1, field0\n  if lt v3, v2 then bb1 else bb2\nbb2:\n  return v3\n}",
        ];
        for src in srcs {
            let f = parse_function(src).unwrap();
            let (lins, vn, gins) = solve_both(&f);
            for bi in 0..f.num_blocks() {
                for v in lins[bi].iter() {
                    assert!(
                        gins[bi].contains(vn.entry_vn[bi][v] as usize),
                        "block {bi}: legacy fact v{v} missing from VN solution\n{f}"
                    );
                }
            }
        }
    }

    #[test]
    fn gvn_kill_attributed_to_class() {
        let mut f = parse_function(
            "func f(v0: ref) -> int {\n  locals v1: ref v2: int\nbb0:\n  v1 = move v0\n  nullcheck v1\n  v2 = getfield v1, field0\n  goto bb1\nbb1:\n  nullcheck v0\n  v2 = getfield v0, field0\n  return v2\n}",
        )
        .unwrap();
        let (lins, vn, gins) = solve_both(&f);
        let mut rec = Recorder::new(true);
        rec.assign_origins(&mut f);
        let r = eliminate_redundant(
            None,
            &mut f,
            &lins,
            None,
            Some((&vn, &gins)),
            &mut rec,
            false,
        );
        assert_eq!(r.gvn_only, 1);
        let gvn_kill = rec.events.iter().find_map(|e| match e {
            CheckEvent::WhaleyEliminated {
                why:
                    Redundancy::Gvn {
                        representative,
                        class_size,
                    },
                var,
                ..
            } => Some((*var, *representative, *class_size)),
            _ => None,
        });
        let (var, rep, size) = gvn_kill.expect("a GVN-attributed kill event");
        assert_eq!(var, VarId::new(0));
        assert_eq!(rep, VarId::new(1), "justified by the copy v1");
        assert_eq!(size, 2, "v0 and v1 share the class at the kill point");
    }
}
