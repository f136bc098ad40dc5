//! Fluent construction of a [`Registry`].
//!
//! The builder interns types (structurally identical descriptions share one
//! [`TypeId`]) and assigns syscall numbers in definition order.

use crate::registry::{Registry, ResourceDef, ResourceId, SyscallDef, SyscallId};
use crate::types::{BufferKind, Dir, Field, IntFormat, Type, TypeId};

/// Builds a [`Registry`] incrementally.
///
/// ```
/// use snowplow_syslang::{RegistryBuilder, Field};
///
/// let mut b = RegistryBuilder::new();
/// let fd = b.resource("fd", &[u64::MAX]);
/// let flags = b.flags("oflags", &[0x1, 0x2], 32);
/// b.syscall("open", "open", &[Field::new("flags", flags)], Some(fd));
/// let reg = b.build();
/// assert_eq!(reg.syscall_count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct RegistryBuilder {
    reg: Registry,
}

impl RegistryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        RegistryBuilder::default()
    }

    /// Interns `ty`, returning its id (existing id if structurally equal).
    pub fn intern(&mut self, ty: Type) -> TypeId {
        if let Some(&id) = self.reg.type_dedup.get(&ty) {
            return id;
        }
        let id = TypeId(self.reg.types.len() as u32);
        self.reg.type_dedup.insert(ty.clone(), id);
        self.reg.types.push(ty);
        id
    }

    /// An integer of `bits` width with the given format.
    pub fn int(&mut self, bits: u8, format: IntFormat) -> TypeId {
        self.intern(Type::Int { bits, format })
    }

    /// An integer constrained to `[lo, hi]`.
    pub fn int_range(&mut self, lo: u64, hi: u64, bits: u8) -> TypeId {
        self.int(bits, IntFormat::Range { lo, hi })
    }

    /// An integer drawn from an explicit value list (enum-like).
    pub fn int_enum(&mut self, values: &[u64], bits: u8) -> TypeId {
        self.int(
            bits,
            IntFormat::Enum {
                values: values.to_vec(),
            },
        )
    }

    /// A named flag word.
    pub fn flags(&mut self, name: &'static str, values: &[u64], bits: u8) -> TypeId {
        self.intern(Type::Flags {
            name,
            values: values.to_vec(),
            bits,
        })
    }

    /// A fixed constant.
    pub fn constant(&mut self, value: u64, bits: u8) -> TypeId {
        self.intern(Type::Const { value, bits })
    }

    /// An `in` pointer to `elem`.
    pub fn ptr_in(&mut self, elem: TypeId) -> TypeId {
        self.intern(Type::Ptr {
            dir: Dir::In,
            elem,
            optional: false,
        })
    }

    /// An `out` pointer to `elem`.
    pub fn ptr_out(&mut self, elem: TypeId) -> TypeId {
        self.intern(Type::Ptr {
            dir: Dir::Out,
            elem,
            optional: false,
        })
    }

    /// An optional (possibly NULL) `in` pointer to `elem`.
    pub fn ptr_opt(&mut self, elem: TypeId) -> TypeId {
        self.intern(Type::Ptr {
            dir: Dir::In,
            elem,
            optional: true,
        })
    }

    /// An opaque byte blob with an inclusive size range.
    pub fn blob(&mut self, min_len: usize, max_len: usize) -> TypeId {
        self.intern(Type::Buffer {
            kind: BufferKind::Blob { min_len, max_len },
        })
    }

    /// A string drawn from a fixed dictionary.
    pub fn string(&mut self, values: &[&'static str]) -> TypeId {
        self.intern(Type::Buffer {
            kind: BufferKind::String {
                values: values.to_vec(),
            },
        })
    }

    /// A filename in the test working directory.
    pub fn filename(&mut self) -> TypeId {
        self.intern(Type::Buffer {
            kind: BufferKind::Filename,
        })
    }

    /// A variable-length array.
    pub fn array(&mut self, elem: TypeId, min_len: usize, max_len: usize) -> TypeId {
        self.intern(Type::Array {
            elem,
            min_len,
            max_len,
        })
    }

    /// A struct with the given fields.
    pub fn strukt(&mut self, name: &'static str, fields: Vec<Field>) -> TypeId {
        self.intern(Type::Struct { name, fields })
    }

    /// A union with the given variants.
    pub fn union(&mut self, name: &'static str, variants: Vec<Field>) -> TypeId {
        self.intern(Type::Union { name, variants })
    }

    /// The byte length of the sibling field at index `target`.
    pub fn len_of(&mut self, target: usize, bits: u8) -> TypeId {
        self.intern(Type::Len { target, bits })
    }

    /// Declares a resource kind.
    pub fn resource(&mut self, name: &'static str, special_values: &[u64]) -> ResourceId {
        let id = ResourceId(self.reg.resources.len() as u32);
        self.reg.resources.push(ResourceDef {
            name,
            special_values: special_values.to_vec(),
        });
        id
    }

    /// An `in` resource argument of the given kind.
    pub fn res_in(&mut self, kind: ResourceId) -> TypeId {
        self.intern(Type::Resource { kind, dir: Dir::In })
    }

    /// Declares a syscall variant. `name` must be unique; `group` is the
    /// base call name shared by variants (e.g. `ioctl`).
    ///
    /// # Panics
    /// Panics if `name` was already declared.
    pub fn syscall(
        &mut self,
        name: &'static str,
        group: &'static str,
        args: &[Field],
        ret: Option<ResourceId>,
    ) -> SyscallId {
        assert!(
            !self.reg.by_name.contains_key(name),
            "duplicate syscall variant {name}"
        );
        let id = SyscallId(self.reg.syscalls.len() as u32);
        self.reg.syscalls.push(SyscallDef {
            name,
            group,
            nr: id.0,
            args: args.to_vec(),
            ret,
        });
        self.reg.by_name.insert(name, id);
        id
    }

    /// Finalizes the registry, deriving the per-resource producer and
    /// consumer indexes in one pass over the syscalls (in id order, so
    /// every list is sorted by [`SyscallId`]).
    pub fn build(mut self) -> Registry {
        let kinds = self.reg.resources.len();
        let mut producers = vec![Vec::new(); kinds];
        let mut consumers: Vec<Vec<SyscallId>> = vec![Vec::new(); kinds];
        for id in self.reg.syscall_ids() {
            if let Some(kind) = self.reg.syscall(id).ret {
                producers[kind.index()].push(id);
            }
            for (_, ty) in self.reg.enumerate_paths(id) {
                if let Type::Resource { kind, dir } = self.reg.ty(ty) {
                    let list = &mut consumers[kind.index()];
                    if dir.is_in() && list.last() != Some(&id) {
                        list.push(id);
                    }
                }
            }
        }
        self.reg.producers = producers;
        self.reg.consumers = consumers;
        self.reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "duplicate syscall variant")]
    fn duplicate_names_rejected() {
        let mut b = RegistryBuilder::new();
        b.syscall("close", "close", &[], None);
        b.syscall("close", "close", &[], None);
    }

    #[test]
    fn syscall_numbers_follow_definition_order() {
        let mut b = RegistryBuilder::new();
        let a = b.syscall("a", "a", &[], None);
        let c = b.syscall("b", "b", &[], None);
        assert_eq!(a, SyscallId(0));
        assert_eq!(c, SyscallId(1));
        let reg = b.build();
        assert_eq!(reg.syscall(a).nr, 0);
        assert_eq!(reg.syscall(c).nr, 1);
    }
}
