//! Enumeration of a program's argument sites.
//!
//! The mutation search space of a test is the set of all (call, path)
//! pairs naming a mutable value — the quantity the paper measures at >60
//! per test on average (§5.1). Enumeration walks the argument tree and the
//! description type tree in lock-step, so array elements get `Elem(i)`
//! segments and unions only expose their *active* variant.

use snowplow_syslang::{ArgPath, PathSegment, Registry, Type, TypeId};

use crate::arg::Arg;
use crate::prog::{Call, Prog};

/// One addressable argument site within a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgSite {
    /// Index of the call within the program.
    pub call: usize,
    /// Path of the value within that call.
    pub path: ArgPath,
    /// Description type of the value.
    pub ty: TypeId,
    /// Whether the mutation engine may rewrite this value (constants and
    /// computed lengths are excluded, as in Syzkaller).
    pub mutable: bool,
}

/// Enumerates every argument site of `prog`, in deterministic
/// (call-then-path) order.
pub fn enumerate_sites(reg: &Registry, prog: &Prog) -> Vec<ArgSite> {
    let mut out = Vec::new();
    for ci in 0..prog.len() {
        push_call_sites(reg, prog, ci, &mut out);
    }
    out
}

/// Enumerates only the mutable sites of `prog`.
pub fn mutable_sites(reg: &Registry, prog: &Prog) -> Vec<ArgSite> {
    enumerate_sites(reg, prog)
        .into_iter()
        .filter(|s| s.mutable)
        .collect()
}

/// The mutable sites of call `ci` alone, in the order [`mutable_sites`]
/// lists them.
pub(crate) fn call_mutable_sites(reg: &Registry, prog: &Prog, ci: usize) -> Vec<ArgSite> {
    let mut out = Vec::new();
    push_call_sites(reg, prog, ci, &mut out);
    out.retain(|s| s.mutable);
    out
}

/// Number of mutable sites of `call`, counted by the same walk as
/// [`enumerate_sites`] without building any path.
pub(crate) fn mutable_site_count(reg: &Registry, call: &Call) -> usize {
    reg.syscall(call.def)
        .args
        .iter()
        .zip(&call.args)
        .map(|(field, arg)| count_mutable(reg, field.ty, arg))
        .sum()
}

fn push_call_sites(reg: &Registry, prog: &Prog, ci: usize, out: &mut Vec<ArgSite>) {
    let call = &prog.calls[ci];
    let def = reg.syscall(call.def);
    for (ai, (field, arg)) in def.args.iter().zip(&call.args).enumerate() {
        walk(reg, ci, field.ty, arg, ArgPath::arg(ai), out);
    }
}

fn count_mutable(reg: &Registry, ty: TypeId, arg: &Arg) -> usize {
    let t = reg.ty(ty);
    let here = usize::from(t.is_mutable());
    here + match (t, arg) {
        (Type::Ptr { elem, .. }, Arg::Ptr { inner: Some(a), .. }) => count_mutable(reg, *elem, a),
        (Type::Struct { fields, .. }, Arg::Group { inner }) => fields
            .iter()
            .zip(inner)
            .map(|(f, a)| count_mutable(reg, f.ty, a))
            .sum(),
        (Type::Array { elem, .. }, Arg::Group { inner }) => {
            inner.iter().map(|a| count_mutable(reg, *elem, a)).sum()
        }
        (Type::Union { variants, .. }, Arg::Union { variant, inner }) => variants
            .get(*variant as usize)
            .map_or(0, |v| count_mutable(reg, v.ty, inner)),
        _ => 0,
    }
}

fn walk(reg: &Registry, call: usize, ty: TypeId, arg: &Arg, path: ArgPath, out: &mut Vec<ArgSite>) {
    let t = reg.ty(ty);
    out.push(ArgSite {
        call,
        path: path.clone(),
        ty,
        mutable: t.is_mutable(),
    });
    match (t, arg) {
        (Type::Ptr { elem, .. }, Arg::Ptr { inner: Some(a), .. }) => {
            walk(reg, call, *elem, a, path.child(PathSegment::Deref), out);
        }
        (Type::Struct { fields, .. }, Arg::Group { inner }) => {
            for (i, (f, a)) in fields.iter().zip(inner).enumerate() {
                walk(
                    reg,
                    call,
                    f.ty,
                    a,
                    path.child(PathSegment::Field(i as u16)),
                    out,
                );
            }
        }
        (Type::Array { elem, .. }, Arg::Group { inner }) => {
            for (i, a) in inner.iter().enumerate() {
                walk(
                    reg,
                    call,
                    *elem,
                    a,
                    path.child(PathSegment::Elem(i as u16)),
                    out,
                );
            }
        }
        (Type::Union { variants, .. }, Arg::Union { variant, inner }) => {
            if let Some(v) = variants.get(*variant as usize) {
                walk(
                    reg,
                    call,
                    v.ty,
                    inner,
                    path.child(PathSegment::Variant(*variant)),
                    out,
                );
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snowplow_syslang::builtin;

    use super::*;
    use crate::gen::Generator;

    #[test]
    fn sites_resolve_back_to_arguments() {
        let reg = builtin::linux_sim();
        let generator = Generator::new(&reg);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let p = generator.generate(&mut rng, 6);
            for site in enumerate_sites(&reg, &p) {
                let arg = p.calls[site.call].arg_at(&site.path);
                assert!(arg.is_some(), "site {} does not resolve", site.path);
            }
        }
    }

    #[test]
    fn average_site_count_matches_paper_scale() {
        // §5.1: tests average >60 argument nodes. Our programs are a bit
        // smaller by default; check we are in the tens.
        let reg = builtin::linux_sim();
        let generator = Generator::new(&reg);
        let mut rng = StdRng::seed_from_u64(4);
        let mut total = 0usize;
        let n = 200;
        for _ in 0..n {
            let p = generator.generate(&mut rng, 8);
            total += enumerate_sites(&reg, &p).len();
        }
        let avg = total / n;
        assert!(avg >= 20, "average sites {avg} too small");
    }

    #[test]
    fn mutable_excludes_consts_and_lens() {
        let reg = builtin::linux_sim();
        let generator = Generator::new(&reg);
        let mut rng = StdRng::seed_from_u64(9);
        let p = generator.generate(&mut rng, 8);
        for site in mutable_sites(&reg, &p) {
            let t = reg.ty(site.ty);
            assert!(t.is_mutable());
        }
    }
}
