//! Programs and calls.

use snowplow_syslang::{ArgPath, Field, Registry, SyscallId, Type};

use crate::arg::{Arg, ArgView};

/// One syscall invocation: a definition plus concrete top-level arguments
/// (whose trees parallel the definition's field types).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Call {
    /// Which syscall variant this invokes.
    pub def: SyscallId,
    /// Concrete top-level arguments, one per description field.
    pub args: Vec<Arg>,
}

impl Call {
    /// Resolves an argument path within this call.
    pub fn arg_at(&self, path: &ArgPath) -> Option<&Arg> {
        let top = path.top_arg()?;
        self.args.get(top)?.descend(&path.segments()[1..])
    }

    /// Mutable variant of [`Call::arg_at`].
    pub fn arg_at_mut(&mut self, path: &ArgPath) -> Option<&mut Arg> {
        let top = path.top_arg()?;
        self.args.get_mut(top)?.descend_mut(&path.segments()[1..])
    }

    /// A predicate-friendly view of the value at `path`, if present in
    /// this call's actual structure.
    pub fn view_at(&self, path: &ArgPath) -> Option<ArgView<'_>> {
        self.arg_at(path).map(Arg::view)
    }
}

/// A kernel test: an ordered sequence of calls with resource wiring.
///
/// Invariants maintained by every constructor and mutation in this crate
/// (checked by [`Prog::validate`]):
///
/// 1. every [`ResSource::Ref`](crate::arg::ResSource::Ref) points at an *earlier* call,
/// 2. the referenced call produces a resource (its def has `ret`),
/// 3. argument trees are structurally compatible with their description
///    types.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Prog {
    /// The calls, in execution order.
    pub calls: Vec<Call>,
}

impl Prog {
    /// Creates an empty program.
    pub fn new() -> Self {
        Prog::default()
    }

    /// Number of calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether the program has no calls.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Checks the program's structural invariants against `reg`.
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, reg: &Registry) -> Result<(), String> {
        for (ci, call) in self.calls.iter().enumerate() {
            let def = reg.syscall(call.def);
            if call.args.len() != def.args.len() {
                return Err(format!(
                    "call {ci} ({}): {} args, description wants {}",
                    def.name,
                    call.args.len(),
                    def.args.len()
                ));
            }
            for (ai, arg) in call.args.iter().enumerate() {
                check_shape(reg, def.args[ai].ty, arg)
                    .map_err(|e| format!("call {ci} ({}) arg {ai}: {e}", def.name))?;
            }
            let mut refs = Vec::new();
            for arg in &call.args {
                arg.collect_refs(&mut refs);
            }
            for r in refs {
                if r >= ci {
                    return Err(format!(
                        "call {ci} ({}) references call {r}, which does not precede it",
                        def.name
                    ));
                }
                if reg.syscall(self.calls[r].def).ret.is_none() {
                    return Err(format!(
                        "call {ci} ({}) references call {r}, which produces no resource",
                        def.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Recomputes every `Len` field from its sibling's current payload.
    /// Must be called after any structural mutation; all generators and
    /// mutators in this crate do so.
    pub fn finalize(&mut self, reg: &Registry) {
        for ci in 0..self.calls.len() {
            self.finalize_call(reg, ci);
        }
    }

    /// Recomputes the `Len` fields of call `ci` alone. A length field only
    /// reads a sibling inside its own call, so after rewriting values of
    /// one call of an already finalized program this restores the same
    /// state as a full [`Prog::finalize`].
    ///
    /// # Panics
    /// Panics if `ci` is out of range.
    pub fn finalize_call(&mut self, reg: &Registry, ci: usize) {
        let call = &mut self.calls[ci];
        let def = reg.syscall(call.def);
        // Top-level length fields read sibling top-level args.
        set_lens(reg, &def.args, &mut call.args);
        // Nested length fields inside structs.
        for (field, arg) in def.args.iter().zip(&mut call.args) {
            finalize_rec(reg, field.ty, arg);
        }
    }

    /// Renders the program in the syz-like text format.
    pub fn display<'a>(&'a self, reg: &'a Registry) -> crate::serialize::ProgDisplay<'a> {
        crate::serialize::ProgDisplay { prog: self, reg }
    }

    /// Parses a program from the syz-like text format.
    pub fn parse(reg: &Registry, text: &str) -> Result<Prog, crate::parse::ParseError> {
        crate::parse::parse_prog(reg, text)
    }
}

/// Sets every `Len` field among `fields` to its target sibling's payload
/// length.
fn set_lens(reg: &Registry, fields: &[Field], values: &mut [Arg]) {
    for (i, f) in fields.iter().enumerate() {
        if let Type::Len { target, .. } = reg.ty(f.ty) {
            let v = values.get(*target).map_or(0, Arg::payload_len);
            if let Some(Arg::Int { value }) = values.get_mut(i) {
                *value = v;
            }
        }
    }
}

fn finalize_rec(reg: &Registry, ty: snowplow_syslang::TypeId, arg: &mut Arg) {
    match (reg.ty(ty), arg) {
        (Type::Ptr { elem, .. }, Arg::Ptr { inner: Some(a), .. }) => {
            finalize_rec(reg, *elem, a);
        }
        (Type::Struct { fields, .. }, Arg::Group { inner }) => {
            set_lens(reg, fields, inner);
            for (f, a) in fields.iter().zip(inner) {
                finalize_rec(reg, f.ty, a);
            }
        }
        (Type::Array { elem, .. }, Arg::Group { inner }) => {
            for a in inner {
                finalize_rec(reg, *elem, a);
            }
        }
        (Type::Union { variants, .. }, Arg::Union { variant, inner }) => {
            if let Some(v) = variants.get(*variant as usize) {
                finalize_rec(reg, v.ty, inner);
            }
        }
        _ => {}
    }
}

/// Checks that `arg`'s shape matches description type `ty`.
fn check_shape(reg: &Registry, ty: snowplow_syslang::TypeId, arg: &Arg) -> Result<(), String> {
    match (reg.ty(ty), arg) {
        (Type::Int { .. }, Arg::Int { .. })
        | (Type::Flags { .. }, Arg::Int { .. })
        | (Type::Const { .. }, Arg::Int { .. })
        | (Type::Len { .. }, Arg::Int { .. })
        | (Type::Buffer { .. }, Arg::Data { .. })
        | (Type::Resource { .. }, Arg::Res { .. }) => Ok(()),
        (Type::Ptr { elem, .. }, Arg::Ptr { inner, .. }) => match inner {
            Some(a) => check_shape(reg, *elem, a),
            None => Ok(()),
        },
        (Type::Struct { fields, name }, Arg::Group { inner }) => {
            if fields.len() != inner.len() {
                return Err(format!(
                    "struct {name}: {} fields, value has {}",
                    fields.len(),
                    inner.len()
                ));
            }
            for (f, a) in fields.iter().zip(inner) {
                check_shape(reg, f.ty, a)?;
            }
            Ok(())
        }
        (
            Type::Array {
                elem,
                min_len,
                max_len,
            },
            Arg::Group { inner },
        ) => {
            if inner.len() < *min_len || inner.len() > *max_len {
                return Err(format!(
                    "array length {} outside [{min_len}, {max_len}]",
                    inner.len()
                ));
            }
            for a in inner {
                check_shape(reg, *elem, a)?;
            }
            Ok(())
        }
        (Type::Union { variants, name }, Arg::Union { variant, inner }) => {
            let v = variants
                .get(*variant as usize)
                .ok_or_else(|| format!("union {name}: variant {variant} out of range"))?;
            check_shape(reg, v.ty, inner)
        }
        (ty, arg) => Err(format!(
            "type {} incompatible with value {arg:?}",
            ty.kind_name()
        )),
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
    fn generated_programs_validate() {
        let reg = builtin::linux_sim();
        let generator = Generator::new(&reg);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let p = generator.generate(&mut rng, 6);
            p.validate(&reg).expect("generated program must validate");
        }
    }

    #[test]
    fn finalize_computes_len_fields() {
        let reg = builtin::linux_sim();
        let generator = Generator::new(&reg);
        let mut rng = StdRng::seed_from_u64(3);
        // Find a program with a sendmsg (has nested Len fields).
        let sendmsg = reg.syscall_by_name("sendmsg$inet").unwrap();
        for _ in 0..500 {
            let p = generator.generate(&mut rng, 8);
            if let Some(call) = p.calls.iter().find(|c| c.def == sendmsg) {
                // namelen field (index 1 of msghdr) must equal payload of name.
                use snowplow_syslang::PathSegment as S;
                let msg = ArgPath::arg(1).child(S::Deref);
                let name = call.arg_at(&msg.child(S::Field(0)));
                let namelen = call.arg_at(&msg.child(S::Field(1)));
                if let (Some(name), Some(Arg::Int { value })) = (name, namelen) {
                    assert_eq!(*value, name.payload_len());
                    return;
                }
            }
        }
        panic!("no sendmsg generated in 500 tries");
    }

    #[test]
    fn validate_rejects_forward_refs() {
        let reg = builtin::linux_sim();
        let read = reg.syscall_by_name("read").unwrap();
        let p = Prog {
            calls: vec![Call {
                def: read,
                args: vec![
                    Arg::Res {
                        source: crate::arg::ResSource::Ref(0),
                    },
                    Arg::null(),
                    Arg::int(0),
                ],
            }],
        };
        assert!(p.validate(&reg).is_err());
    }
}
