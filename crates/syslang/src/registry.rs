//! The description registry: an arena of types plus the set of syscall
//! variants and resource kinds that make up a kernel's user-space interface.

use std::collections::HashMap;

use crate::path::{ArgPath, PathSegment};
use crate::types::{Field, Type, TypeId};

/// Index of a syscall variant in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SyscallId(pub u32);

impl SyscallId {
    /// Returns the registry index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a resource kind (e.g. `fd`, `sock`) in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// Returns the registry index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A kernel resource kind. Resources connect calls: a call with an `Out`
/// resource produces a value that later calls with matching `In` resources
/// consume (Syzkaller's `r0 = open(...); read(r0, ...)` pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceDef {
    /// Resource kind name (`fd`, `sock`, ...).
    pub name: &'static str,
    /// Values that may be used when no producer is available (Syzkaller's
    /// special values, e.g. `-1` or `AT_FDCWD`).
    pub special_values: Vec<u64>,
}

/// One syscall variant (Syzlang's `call$variant`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallDef {
    /// Full variant name, e.g. `ioctl$scsi_send_command`.
    pub name: &'static str,
    /// Base call group, e.g. `ioctl`. Variants of one group share a kernel
    /// entry point.
    pub group: &'static str,
    /// Syscall number used by the simulated kernel's dispatch table.
    pub nr: u32,
    /// Top-level arguments.
    pub args: Vec<Field>,
    /// Resource kind produced by the call's return value, if any.
    pub ret: Option<ResourceId>,
}

/// The full description set for one kernel interface.
///
/// Built once via [`RegistryBuilder`](crate::RegistryBuilder) and then
/// shared immutably by the program generator, the mutation engine, the
/// simulated kernel, and the model's graph builder.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) types: Vec<Type>,
    pub(crate) type_dedup: HashMap<Type, TypeId>,
    pub(crate) syscalls: Vec<SyscallDef>,
    pub(crate) resources: Vec<ResourceDef>,
    pub(crate) by_name: HashMap<&'static str, SyscallId>,
    /// Per resource kind, the syscalls whose return value produces it, in
    /// syscall-id order. Derived by [`RegistryBuilder::build`](crate::RegistryBuilder::build).
    pub(crate) producers: Vec<Vec<SyscallId>>,
    /// Per resource kind, the syscalls with an `in` resource argument of
    /// that kind anywhere in their description tree, in syscall-id order.
    pub(crate) consumers: Vec<Vec<SyscallId>>,
}

impl Registry {
    /// Looks up a type by id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this registry.
    #[inline]
    pub fn ty(&self, id: TypeId) -> &Type {
        &self.types[id.index()]
    }

    /// Looks up a syscall definition by id.
    #[inline]
    pub fn syscall(&self, id: SyscallId) -> &SyscallDef {
        &self.syscalls[id.index()]
    }

    /// Looks up a resource definition by id.
    #[inline]
    pub fn resource(&self, id: ResourceId) -> &ResourceDef {
        &self.resources[id.index()]
    }

    /// Number of syscall variants described.
    pub fn syscall_count(&self) -> usize {
        self.syscalls.len()
    }

    /// Number of resource kinds described.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Number of distinct types in the arena.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Iterates over all syscall ids in definition order.
    pub fn syscall_ids(&self) -> impl Iterator<Item = SyscallId> + '_ {
        (0..self.syscalls.len() as u32).map(SyscallId)
    }

    /// Finds a syscall variant by its full name.
    pub fn syscall_by_name(&self, name: &str) -> Option<SyscallId> {
        self.by_name.get(name).copied()
    }

    /// All syscall variants that produce resource `kind`, in syscall-id
    /// order.
    pub fn producers_of(&self, kind: ResourceId) -> &[SyscallId] {
        self.producers.get(kind.index()).map_or(&[], Vec::as_slice)
    }

    /// All syscall variants that consume resource `kind` (an `in`
    /// resource argument of that kind at any depth of the description),
    /// in syscall-id order.
    pub fn consumers_of(&self, kind: ResourceId) -> &[SyscallId] {
        self.consumers.get(kind.index()).map_or(&[], Vec::as_slice)
    }

    /// Resolves a description-level path to the type it names.
    ///
    /// Array elements resolve through any `Elem(_)` index (all elements
    /// share a type); union segments resolve through the recorded variant.
    pub fn type_at(&self, call: SyscallId, path: &ArgPath) -> Option<TypeId> {
        let def = self.syscall(call);
        let mut segs = path.segments().iter();
        let first = segs.next()?;
        let mut cur = match first {
            PathSegment::Arg(i) => def.args.get(*i as usize)?.ty,
            _ => return None,
        };
        for seg in segs {
            cur = match (seg, self.ty(cur)) {
                (PathSegment::Deref, Type::Ptr { elem, .. }) => *elem,
                (PathSegment::Field(i), Type::Struct { fields, .. }) => fields.get(*i as usize)?.ty,
                (PathSegment::Elem(_), Type::Array { elem, .. }) => *elem,
                (PathSegment::Variant(i), Type::Union { variants, .. }) => {
                    variants.get(*i as usize)?.ty
                }
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Enumerates every description-level path of a call, outermost-first,
    /// pairing each with its type. Arrays contribute a single canonical
    /// `Elem(0)` path; unions contribute one path per variant.
    ///
    /// This is the *description* search space; the per-program search space
    /// (which expands actual array lengths and picks actual union variants)
    /// is enumerated by `snowplow-prog`.
    pub fn enumerate_paths(&self, call: SyscallId) -> Vec<(ArgPath, TypeId)> {
        let def = self.syscall(call);
        let mut out = Vec::new();
        for (i, field) in def.args.iter().enumerate() {
            self.walk(field.ty, ArgPath::arg(i), &mut out, 0);
        }
        out
    }

    fn walk(&self, ty: TypeId, path: ArgPath, out: &mut Vec<(ArgPath, TypeId)>, depth: u32) {
        // Descriptions are finite trees, but guard against pathological
        // nesting all the same.
        if depth > 16 {
            return;
        }
        out.push((path.clone(), ty));
        match self.ty(ty) {
            Type::Ptr { elem, .. } => {
                self.walk(*elem, path.child(PathSegment::Deref), out, depth + 1);
            }
            Type::Struct { fields, .. } => {
                for (i, f) in fields.iter().enumerate() {
                    self.walk(
                        f.ty,
                        path.child(PathSegment::Field(i as u16)),
                        out,
                        depth + 1,
                    );
                }
            }
            Type::Array { elem, .. } => {
                self.walk(*elem, path.child(PathSegment::Elem(0)), out, depth + 1);
            }
            Type::Union { variants, .. } => {
                for (i, v) in variants.iter().enumerate() {
                    self.walk(
                        v.ty,
                        path.child(PathSegment::Variant(i as u16)),
                        out,
                        depth + 1,
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::RegistryBuilder;
    use crate::types::{Dir, Field, IntFormat};

    use super::*;

    fn tiny() -> Registry {
        let mut b = RegistryBuilder::new();
        let fd = b.resource("fd", &[u64::MAX]);
        let flags = b.flags("open_flags", &[0x1, 0x2, 0x40], 32);
        let fname = b.filename();
        let fname_ptr = b.ptr_in(fname);
        let mode = b.int_range(0, 0o777, 16);
        b.syscall(
            "open",
            "open",
            &[
                Field::new("file", fname_ptr),
                Field::new("flags", flags),
                Field::new("mode", mode),
            ],
            Some(fd),
        );
        let fd_in = b.res_in(fd);
        let buf = b.blob(1, 64);
        let buf_ptr = b.ptr_out(buf);
        let len = b.int(32, IntFormat::Any);
        b.syscall(
            "read",
            "read",
            &[
                Field::new("fd", fd_in),
                Field {
                    name: "buf",
                    ty: buf_ptr,
                    dir: Dir::Out,
                },
                Field::new("count", len),
            ],
            None,
        );
        b.build()
    }

    #[test]
    fn lookup_by_name_and_producers() {
        let reg = tiny();
        let open = reg.syscall_by_name("open").unwrap();
        assert_eq!(reg.syscall(open).name, "open");
        let fd = ResourceId(0);
        assert_eq!(reg.producers_of(fd), [open]);
        let read = reg.syscall_by_name("read").unwrap();
        assert_eq!(reg.consumers_of(fd), [read]);
        assert!(reg.producers_of(ResourceId(7)).is_empty());
    }

    /// `tiny` plus a call whose nested struct holds an `in` and an `out`
    /// resource: only the `in` one makes the call a consumer.
    fn nested_resources() -> Registry {
        let mut b = RegistryBuilder::new();
        let fd = b.resource("fd", &[u64::MAX]);
        let sock = b.resource("sock", &[u64::MAX]);
        let fd_in = b.res_in(fd);
        let sock_out = b.intern(Type::Resource {
            kind: sock,
            dir: Dir::Out,
        });
        let pair = b.strukt(
            "pair",
            vec![Field::new("fd", fd_in), Field::out("sock", sock_out)],
        );
        let pair_ptr = b.ptr_in(pair);
        b.syscall("open", "open", &[], Some(fd));
        b.syscall("accept", "accept", &[Field::new("p", pair_ptr)], Some(sock));
        b.build()
    }

    /// The derived indexes equal a brute-force scan of every syscall's
    /// description paths (consumers) and return kinds (producers).
    #[test]
    fn resource_indexes_match_brute_force_scan() {
        let nested = nested_resources();
        let accept = nested.syscall_by_name("accept").unwrap();
        assert_eq!(nested.consumers_of(ResourceId(0)), [accept]);
        assert!(nested.consumers_of(ResourceId(1)).is_empty());
        for reg in [tiny(), nested, crate::builtin::linux_sim()] {
            for k in 0..reg.resource_count() as u32 {
                let kind = ResourceId(k);
                let producers: Vec<SyscallId> = reg
                    .syscall_ids()
                    .filter(|&id| reg.syscall(id).ret == Some(kind))
                    .collect();
                let consumers: Vec<SyscallId> = reg
                    .syscall_ids()
                    .filter(|&id| {
                        reg.enumerate_paths(id).iter().any(|(_, t)| {
                            matches!(
                                reg.ty(*t),
                                Type::Resource { kind: c, dir } if *c == kind && dir.is_in()
                            )
                        })
                    })
                    .collect();
                assert_eq!(reg.producers_of(kind), producers, "producers of {k}");
                assert_eq!(reg.consumers_of(kind), consumers, "consumers of {k}");
            }
        }
    }

    #[test]
    fn enumerate_paths_includes_nested() {
        let reg = tiny();
        let open = reg.syscall_by_name("open").unwrap();
        let paths = reg.enumerate_paths(open);
        // 3 top-level args + the filename behind the pointer.
        assert_eq!(paths.len(), 4);
        let rendered: Vec<String> = paths.iter().map(|(p, _)| p.to_string()).collect();
        assert!(rendered.contains(&"a0.*".to_string()), "{rendered:?}");
    }

    #[test]
    fn type_at_resolves_paths() {
        let reg = tiny();
        let open = reg.syscall_by_name("open").unwrap();
        for (path, ty) in reg.enumerate_paths(open) {
            assert_eq!(reg.type_at(open, &path), Some(ty), "path {path}");
        }
        assert_eq!(reg.type_at(open, &ArgPath::arg(9)), None);
    }

    #[test]
    fn type_arena_dedups() {
        let mut b = RegistryBuilder::new();
        let a = b.int(32, IntFormat::Any);
        let c = b.int(32, IntFormat::Any);
        assert_eq!(a, c);
        let d = b.int(64, IntFormat::Any);
        assert_ne!(a, d);
    }
}
