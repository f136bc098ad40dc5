//! The mutation engine, factored as in the paper's Figure 1.
//!
//! Three policy decisions shape every mutation:
//!
//! 1. **type selection** ([`Selector`]): what kind of mutation — argument
//!    mutation, call insertion, or call removal;
//! 2. **localization** ([`ArgLocalizer`]): *where* to apply an argument
//!    mutation. This is the decision Snowplow learns; the default
//!    [`RandomLocalizer`] reproduces Syzkaller's semi-random policy
//!    (weight calls by arity, then pick a uniformly random mutable site);
//! 3. **instantiation** ([`Instantiator`]): *how* to rewrite the chosen
//!    value.
//!
//! All mutations preserve program validity: resource references stay
//! backward-pointing, and length fields are recomputed.

use rand::prelude::*;
use snowplow_syslang::{
    ArgPath, IntFormat, PathSegment, Registry, ResourceId, SyscallId, Type, TypeId,
};

use crate::arg::{Arg, ResSource};
use crate::enumerate::{call_mutable_sites, mutable_site_count, mutable_sites};
use crate::gen::{gen_buffer, gen_flags, gen_int};
use crate::prog::{Call, Prog};

/// High-level mutation kinds (the paper's `m_type`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationType {
    /// Rewrite one or more argument values of existing calls.
    ArgumentMutation,
    /// Insert a new call.
    CallInsertion,
    /// Remove an existing call.
    CallRemoval,
}

/// The location of one argument mutation: a call index plus a path into
/// its argument tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArgLoc {
    /// Call index within the program.
    pub call: usize,
    /// Path of the value within the call.
    pub path: ArgPath,
}

impl ArgLoc {
    /// Convenience constructor.
    pub fn new(call: usize, path: ArgPath) -> Self {
        ArgLoc { call, path }
    }
}

/// Chooses the mutation type for the next mutation.
pub trait Selector {
    /// Picks a mutation type for `prog`.
    fn select(&mut self, rng: &mut StdRng, prog: &Prog) -> MutationType;
}

/// Syzkaller-style fixed-probability type selection.
#[derive(Debug, Clone, Copy)]
pub struct WeightedSelector {
    /// Probability of argument mutation.
    pub argument: f64,
    /// Probability of call insertion (removal gets the remainder).
    pub insertion: f64,
}

impl Default for WeightedSelector {
    fn default() -> Self {
        // Syzkaller heavily favors argument mutation for existing corpus
        // programs; these defaults mirror that bias.
        WeightedSelector {
            argument: 0.65,
            insertion: 0.25,
        }
    }
}

impl Selector for WeightedSelector {
    fn select(&mut self, rng: &mut StdRng, prog: &Prog) -> MutationType {
        let roll: f64 = rng.random();
        if roll < self.argument || prog.len() <= 1 {
            MutationType::ArgumentMutation
        } else if roll < self.argument + self.insertion {
            MutationType::CallInsertion
        } else {
            MutationType::CallRemoval
        }
    }
}

/// Chooses which argument(s) to mutate.
///
/// This is the paper's intervention point: Snowplow replaces the default
/// implementation with the learned PMM localizer.
pub trait ArgLocalizer {
    /// Returns candidate locations, most-preferred first. An empty result
    /// means "no opinion" and the caller falls back to random choice.
    fn localize(&mut self, reg: &Registry, prog: &Prog, rng: &mut StdRng) -> Vec<ArgLoc>;
}

/// Syzkaller's default policy: weight calls by arity, then pick a uniform
/// random mutable site of the chosen call. `count` sites are drawn without
/// replacement (the paper's Rand.K baseline uses `count = 8`).
#[derive(Debug, Clone, Copy)]
pub struct RandomLocalizer {
    /// How many distinct locations to return.
    pub count: usize,
}

impl Default for RandomLocalizer {
    fn default() -> Self {
        RandomLocalizer { count: 1 }
    }
}

impl ArgLocalizer for RandomLocalizer {
    fn localize(&mut self, reg: &Registry, prog: &Prog, rng: &mut StdRng) -> Vec<ArgLoc> {
        // Weight the *first* draw toward calls with the most mutable
        // sites, mirroring Syzkaller's arity weighting; subsequent draws
        // are uniform over the remaining sites. Counting builds no paths.
        let counts: Vec<usize> = prog
            .calls
            .iter()
            .map(|c| mutable_site_count(reg, c))
            .collect();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return Vec::new();
        }
        // Invariant: `pick < total` and the counts sum to `total`, so the
        // cumulative scan always lands on some call index.
        let mut pick = rng.random_range(0..total);
        let call = counts
            .iter()
            .position(|&w| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("counts sum to total");
        // Only the chosen call's sites are materialized for this draw.
        // Invariant: the chosen call has a nonzero count.
        let first = call_mutable_sites(reg, prog, call)
            .choose(rng)
            .expect("nonempty")
            .path
            .clone();
        let mut out = vec![ArgLoc::new(call, first)];
        if self.count > 1 {
            // Rand.K: the later draws range over every remaining site.
            let mut sites = mutable_sites(reg, prog);
            sites.retain(|s| !(s.call == call && s.path == out[0].path));
            while out.len() < self.count && !sites.is_empty() {
                let i = rng.random_range(0..sites.len());
                let s = sites.swap_remove(i);
                out.push(ArgLoc::new(s.call, s.path));
            }
        }
        out
    }
}

/// Rewrites argument values in place, preserving validity.
#[derive(Debug, Clone, Copy)]
pub struct Instantiator<'r> {
    reg: &'r Registry,
}

impl<'r> Instantiator<'r> {
    /// Creates an instantiator over `reg`.
    pub fn new(reg: &'r Registry) -> Self {
        Instantiator { reg }
    }

    /// Mutates the value at `loc`. Returns `false` when the location does
    /// not resolve (e.g. a union switched away underneath it) or the type
    /// is not mutable.
    pub fn mutate_at(&self, rng: &mut StdRng, prog: &mut Prog, loc: &ArgLoc) -> bool {
        let Some(ty) = site_type(self.reg, prog, loc) else {
            return false;
        };
        if !self.reg.ty(ty).is_mutable() {
            return false;
        }
        let call_idx = loc.call;
        let new_value = {
            let Some(cur) = prog.calls[call_idx].arg_at(&loc.path) else {
                return false;
            };
            self.mutated_value(rng, ty, cur, call_idx, prog)
        };
        let Some(slot) = prog.calls[call_idx].arg_at_mut(&loc.path) else {
            return false;
        };
        *slot = new_value;
        // Only this call changed, and `Len` fields are call-local.
        prog.finalize_call(self.reg, call_idx);
        true
    }

    /// Produces a fresh value of type `ty` for an argument of call
    /// `call_idx`, wiring any resources to producers *earlier* than that
    /// call (or special values), so validity is preserved.
    pub fn regen_value(&self, rng: &mut StdRng, ty: TypeId, call_idx: usize, prog: &Prog) -> Arg {
        match self.reg.ty(ty) {
            Type::Int { bits, format } => Arg::int(gen_int(rng, *bits, format)),
            Type::Flags { values, bits, .. } => Arg::int(gen_flags(rng, values, *bits)),
            Type::Const { value, .. } => Arg::int(*value),
            Type::Len { .. } => Arg::int(0),
            Type::Ptr { elem, optional, .. } => {
                if *optional && rng.random_bool(0.2) {
                    Arg::null()
                } else {
                    Arg::ptr(
                        0x2000_0000 + rng.random_range(0..0x100u64) * 0x100,
                        self.regen_value(rng, *elem, call_idx, prog),
                    )
                }
            }
            Type::Buffer { kind } => Arg::Data {
                bytes: gen_buffer(rng, kind),
            },
            Type::Array {
                elem,
                min_len,
                max_len,
            } => {
                let n = rng.random_range(*min_len..=(*max_len).min(min_len + 4));
                Arg::Group {
                    inner: (0..n)
                        .map(|_| self.regen_value(rng, *elem, call_idx, prog))
                        .collect(),
                }
            }
            Type::Struct { fields, .. } => Arg::Group {
                inner: fields
                    .iter()
                    .map(|f| self.regen_value(rng, f.ty, call_idx, prog))
                    .collect(),
            },
            Type::Union { variants, .. } => {
                let variant = rng.random_range(0..variants.len()) as u16;
                Arg::Union {
                    variant,
                    inner: Box::new(self.regen_value(
                        rng,
                        variants[variant as usize].ty,
                        call_idx,
                        prog,
                    )),
                }
            }
            Type::Resource { kind, .. } => Arg::Res {
                source: self.pick_resource(rng, *kind, call_idx, prog),
            },
        }
    }

    fn pick_resource(
        &self,
        rng: &mut StdRng,
        kind: ResourceId,
        call_idx: usize,
        prog: &Prog,
    ) -> ResSource {
        let producers: Vec<usize> = prog.calls[..call_idx.min(prog.len())]
            .iter()
            .enumerate()
            .filter(|(_, c)| self.reg.syscall(c.def).ret == Some(kind))
            .map(|(i, _)| i)
            .collect();
        if !producers.is_empty() && rng.random_bool(0.85) {
            // Invariant: non-emptiness is checked in this branch's guard.
            ResSource::Ref(*producers.choose(rng).expect("nonempty"))
        } else {
            let specials = &self.reg.resource(kind).special_values;
            ResSource::Special(specials.first().copied().unwrap_or(u64::MAX))
        }
    }

    /// Produces a mutated version of `cur` (type-aware small steps most of
    /// the time, full regeneration sometimes).
    fn mutated_value(
        &self,
        rng: &mut StdRng,
        ty: TypeId,
        cur: &Arg,
        call_idx: usize,
        prog: &Prog,
    ) -> Arg {
        match (self.reg.ty(ty), cur) {
            (Type::Int { bits, format }, Arg::Int { value }) => {
                let v = match rng.random_range(0..4u32) {
                    0 => gen_int(rng, *bits, format),
                    1 => value.wrapping_add(rng.random_range(1..9)),
                    2 => value.wrapping_sub(rng.random_range(1..9)),
                    _ => value ^ (1 << rng.random_range(0..u32::from((*bits).max(1)))),
                };
                let v = match format {
                    IntFormat::Range { lo, hi } => v.clamp(*lo, *hi),
                    _ => v & mask(*bits),
                };
                Arg::int(v)
            }
            (Type::Flags { values, bits, .. }, Arg::Int { value }) => {
                let v = if !values.is_empty() && rng.random_bool(0.6) {
                    // Invariant: non-emptiness is checked in the guard.
                    value ^ values.choose(rng).expect("nonempty")
                } else {
                    gen_flags(rng, values, *bits)
                };
                Arg::int(v & mask(*bits))
            }
            (Type::Buffer { kind }, Arg::Data { bytes }) => {
                let mut b = bytes.clone();
                match rng.random_range(0..3u32) {
                    0 => {
                        return Arg::Data {
                            bytes: gen_buffer(rng, kind),
                        }
                    }
                    1 if !b.is_empty() => {
                        let i = rng.random_range(0..b.len());
                        b[i] = rng.random();
                    }
                    _ => b.push(rng.random()),
                }
                Arg::Data { bytes: b }
            }
            (Type::Ptr { elem, optional, .. }, Arg::Ptr { addr, inner }) => match inner {
                None => Arg::ptr(0x2000_0000, self.regen_value(rng, *elem, call_idx, prog)),
                Some(inner_arg) => {
                    if *optional && rng.random_bool(0.15) {
                        Arg::null()
                    } else {
                        Arg::Ptr {
                            addr: *addr,
                            inner: Some(Box::new(
                                self.mutated_value(rng, *elem, inner_arg, call_idx, prog),
                            )),
                        }
                    }
                }
            },
            (
                Type::Array {
                    elem,
                    min_len,
                    max_len,
                },
                Arg::Group { inner },
            ) => {
                let mut inner = inner.clone();
                let can_grow = inner.len() < *max_len;
                let can_shrink = inner.len() > *min_len;
                match rng.random_range(0..3u32) {
                    0 if can_grow => inner.push(self.regen_value(rng, *elem, call_idx, prog)),
                    1 if can_shrink => {
                        let i = rng.random_range(0..inner.len());
                        inner.remove(i);
                    }
                    _ if !inner.is_empty() => {
                        let i = rng.random_range(0..inner.len());
                        let nv = self.mutated_value(rng, *elem, &inner[i], call_idx, prog);
                        inner[i] = nv;
                    }
                    _ => {}
                }
                Arg::Group { inner }
            }
            (Type::Struct { fields, .. }, Arg::Group { inner }) => {
                // Mutating a struct site mutates one random field.
                let mut inner = inner.clone();
                if !fields.is_empty() && !inner.is_empty() {
                    let i = rng.random_range(0..fields.len().min(inner.len()));
                    let nv = self.mutated_value(rng, fields[i].ty, &inner[i], call_idx, prog);
                    inner[i] = nv;
                }
                Arg::Group { inner }
            }
            (Type::Union { variants, .. }, Arg::Union { variant, inner }) => {
                if variants.len() > 1 && rng.random_bool(0.5) {
                    // Switch variant.
                    let mut nv = rng.random_range(0..variants.len()) as u16;
                    if nv == *variant {
                        nv = (nv + 1) % variants.len() as u16;
                    }
                    Arg::Union {
                        variant: nv,
                        inner: Box::new(self.regen_value(
                            rng,
                            variants[nv as usize].ty,
                            call_idx,
                            prog,
                        )),
                    }
                } else {
                    Arg::Union {
                        variant: *variant,
                        inner: Box::new(self.mutated_value(
                            rng,
                            variants[*variant as usize].ty,
                            inner,
                            call_idx,
                            prog,
                        )),
                    }
                }
            }
            (Type::Resource { kind, .. }, Arg::Res { .. }) => Arg::Res {
                source: self.pick_resource(rng, *kind, call_idx, prog),
            },
            // Shape drifted (shouldn't happen for validated programs):
            // regenerate wholesale.
            _ => self.regen_value(rng, ty, call_idx, prog),
        }
    }
}

/// Resolves the description type at a program location, honoring the
/// program's actual structure (active union variants, array arity).
pub fn site_type(reg: &Registry, prog: &Prog, loc: &ArgLoc) -> Option<TypeId> {
    let call = prog.calls.get(loc.call)?;
    let def = reg.syscall(call.def);
    let mut segs = loc.path.segments().iter();
    let mut ty = match segs.next()? {
        PathSegment::Arg(i) => def.args.get(*i as usize)?.ty,
        _ => return None,
    };
    for seg in segs {
        ty = match (seg, reg.ty(ty)) {
            (PathSegment::Deref, Type::Ptr { elem, .. }) => *elem,
            (PathSegment::Field(i), Type::Struct { fields, .. }) => fields.get(*i as usize)?.ty,
            (PathSegment::Elem(_), Type::Array { elem, .. }) => *elem,
            (PathSegment::Variant(i), Type::Union { variants, .. }) => {
                variants.get(*i as usize)?.ty
            }
            _ => return None,
        };
    }
    Some(ty)
}

/// Configuration of the full mutation engine.
#[derive(Debug, Clone, Copy)]
pub struct MutatorConfig {
    /// Type-selection weights.
    pub selector: WeightedSelector,
    /// Maximum program length; insertions beyond this are skipped.
    pub max_calls: usize,
}

impl Default for MutatorConfig {
    fn default() -> Self {
        MutatorConfig {
            selector: WeightedSelector::default(),
            max_calls: 16,
        }
    }
}

/// The complete mutation engine (selector + localizer + instantiator).
#[derive(Debug)]
pub struct Mutator<'r> {
    reg: &'r Registry,
    config: MutatorConfig,
    selector: WeightedSelector,
    localizer: RandomLocalizer,
}

/// The outcome of one mutation, for dataset collection and debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationOutcome {
    /// What kind of mutation was applied.
    pub ty: MutationType,
    /// Argument locations rewritten (empty for call-level mutations).
    pub locs: Vec<ArgLoc>,
}

impl<'r> Mutator<'r> {
    /// Creates a mutation engine with default configuration.
    pub fn new(reg: &'r Registry) -> Self {
        Mutator::with_config(reg, MutatorConfig::default())
    }

    /// Creates a mutation engine with explicit configuration.
    pub fn with_config(reg: &'r Registry, config: MutatorConfig) -> Self {
        Mutator {
            reg,
            config,
            selector: config.selector,
            localizer: RandomLocalizer::default(),
        }
    }

    /// The registry this engine mutates over.
    pub fn registry(&self) -> &'r Registry {
        self.reg
    }

    /// Applies one full mutation (select, localize, instantiate).
    pub fn mutate(&mut self, rng: &mut StdRng, prog: &Prog) -> (Prog, MutationOutcome) {
        let ty = self.selector.select(rng, prog);
        match ty {
            MutationType::ArgumentMutation => {
                let (p, locs) = self.mutate_arguments(rng, prog, None);
                (
                    p,
                    MutationOutcome {
                        ty: MutationType::ArgumentMutation,
                        locs,
                    },
                )
            }
            MutationType::CallInsertion => (
                self.insert_call(rng, prog),
                MutationOutcome {
                    ty: MutationType::CallInsertion,
                    locs: Vec::new(),
                },
            ),
            MutationType::CallRemoval => (
                self.remove_call(rng, prog),
                MutationOutcome {
                    ty: MutationType::CallRemoval,
                    locs: Vec::new(),
                },
            ),
        }
    }

    /// Applies an argument mutation. When `locs` is `Some`, those locations
    /// are used (this is how PMM-predicted localizations are applied);
    /// otherwise the default random localizer picks one.
    pub fn mutate_arguments(
        &mut self,
        rng: &mut StdRng,
        prog: &Prog,
        locs: Option<&[ArgLoc]>,
    ) -> (Prog, Vec<ArgLoc>) {
        let mut p = prog.clone();
        let inst = Instantiator::new(self.reg);
        let chosen: Vec<ArgLoc> = match locs {
            Some(l) => l.to_vec(),
            None => self.localizer.localize(self.reg, prog, rng),
        };
        let mut applied = Vec::new();
        for loc in &chosen {
            if inst.mutate_at(rng, &mut p, loc) {
                applied.push(loc.clone());
            }
        }
        crate::validator::debug_validate(self.reg, &p);
        (p, applied)
    }

    /// Inserts one call at a random position, biased toward calls that
    /// interact with resource kinds the program already uses.
    pub fn insert_call(&self, rng: &mut StdRng, prog: &Prog) -> Prog {
        if prog.len() >= self.config.max_calls {
            return prog.clone();
        }
        let mut p = prog.clone();
        let pos = rng.random_range(0..=p.len());
        // Shift references at or past the insertion point.
        for call in &mut p.calls[pos..] {
            for arg in &mut call.args {
                arg.remap_refs(&|i| Some(if i >= pos { i + 1 } else { i }), u64::MAX);
            }
        }
        let def = self.pick_insertion_def(rng, prog);
        let inst = Instantiator::new(self.reg);
        // Build args wired only to producers before `pos`: `pick_resource`
        // reads only `p.calls[..pos]`, which the shift above left as is.
        let args = self
            .reg
            .syscall(def)
            .args
            .iter()
            .map(|f| inst.regen_value(rng, f.ty, pos, &p))
            .collect();
        p.calls.insert(pos, Call { def, args });
        // The shift rewired references only, so no other length changed.
        p.finalize_call(self.reg, pos);
        crate::validator::debug_validate(self.reg, &p);
        p
    }

    fn pick_insertion_def(&self, rng: &mut StdRng, prog: &Prog) -> SyscallId {
        // Resource kinds live in the program: kinds produced by its calls.
        let produced: Vec<ResourceId> = prog
            .calls
            .iter()
            .filter_map(|c| self.reg.syscall(c.def).ret)
            .collect();
        if !produced.is_empty() && rng.random_bool(0.6) {
            // Prefer a call that consumes one of those kinds.
            // Invariant: non-emptiness is checked in this branch's guard.
            let kind = *produced.choose(rng).expect("nonempty");
            if let Some(&id) = self.reg.consumers_of(kind).choose(rng) {
                return id;
            }
        }
        SyscallId(rng.random_range(0..self.reg.syscall_count() as u32))
    }

    /// Removes one random call, degrading dangling references to special
    /// values.
    pub fn remove_call(&self, rng: &mut StdRng, prog: &Prog) -> Prog {
        if prog.len() <= 1 {
            return prog.clone();
        }
        let mut p = prog.clone();
        let idx = rng.random_range(0..p.len());
        p.calls.remove(idx);
        for call in &mut p.calls {
            for arg in &mut call.args {
                arg.remap_refs(
                    &|i| {
                        if i == idx {
                            None
                        } else if i > idx {
                            Some(i - 1)
                        } else {
                            Some(i)
                        }
                    },
                    u64::MAX,
                );
            }
        }
        p.finalize(self.reg);
        crate::validator::debug_validate(self.reg, &p);
        p
    }
}

fn mask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use snowplow_syslang::builtin;

    use super::*;
    use crate::gen::Generator;

    fn setup() -> (snowplow_syslang::Registry, StdRng) {
        (builtin::linux_sim(), StdRng::seed_from_u64(77))
    }

    #[test]
    fn mutations_preserve_validity() {
        let (reg, mut rng) = setup();
        let generator = Generator::new(&reg);
        let mut mutator = Mutator::new(&reg);
        for i in 0..300 {
            let base = generator.generate(&mut rng, 6);
            let (mutant, outcome) = mutator.mutate(&mut rng, &base);
            mutant
                .validate(&reg)
                .unwrap_or_else(|e| panic!("iter {i} ({outcome:?}): {e}"));
        }
    }

    #[test]
    fn argument_mutation_changes_something_usually() {
        let (reg, mut rng) = setup();
        let generator = Generator::new(&reg);
        let mut mutator = Mutator::new(&reg);
        let mut changed = 0;
        let n = 200;
        for _ in 0..n {
            let base = generator.generate(&mut rng, 6);
            let (mutant, applied) = mutator.mutate_arguments(&mut rng, &base, None);
            if mutant != base {
                changed += 1;
            }
            assert!(applied.len() <= 1);
        }
        assert!(
            changed > n / 2,
            "only {changed}/{n} mutations changed the program"
        );
    }

    #[test]
    fn removal_fixes_references() {
        let (reg, mut rng) = setup();
        let generator = Generator::new(&reg);
        let mutator = Mutator::new(&reg);
        for _ in 0..200 {
            let base = generator.generate(&mut rng, 8);
            let p = mutator.remove_call(&mut rng, &base);
            p.validate(&reg).expect("removal must preserve validity");
        }
    }

    #[test]
    fn insertion_fixes_references() {
        let (reg, mut rng) = setup();
        let generator = Generator::new(&reg);
        let mutator = Mutator::new(&reg);
        for _ in 0..200 {
            let base = generator.generate(&mut rng, 8);
            let p = mutator.insert_call(&mut rng, &base);
            p.validate(&reg).expect("insertion must preserve validity");
            if base.len() < 16 {
                assert_eq!(p.len(), base.len() + 1);
            }
        }
    }

    #[test]
    fn explicit_locations_are_honored() {
        let (reg, mut rng) = setup();
        let generator = Generator::new(&reg);
        let mut mutator = Mutator::new(&reg);
        let base = generator.generate(&mut rng, 4);
        let sites = crate::enumerate::mutable_sites(&reg, &base);
        let loc = ArgLoc::new(sites[0].call, sites[0].path.clone());
        let (_, applied) =
            mutator.mutate_arguments(&mut rng, &base, Some(std::slice::from_ref(&loc)));
        assert_eq!(applied, vec![loc]);
    }

    #[test]
    fn random_localizer_returns_distinct_sites() {
        let (reg, mut rng) = setup();
        let generator = Generator::new(&reg);
        let base = generator.generate(&mut rng, 8);
        let mut loc8 = RandomLocalizer { count: 8 };
        let locs = loc8.localize(&reg, &base, &mut rng);
        let mut dedup = locs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), locs.len(), "locations must be distinct");
    }
}
