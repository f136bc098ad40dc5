//! Random program generation.
//!
//! Generation follows Syzkaller's discipline: values are biased toward
//! interesting boundaries, `in` resources are wired to producing calls
//! (inserting producer calls on demand), and every generated program
//! satisfies [`Prog::validate`](crate::Prog::validate).

use rand::prelude::*;
use snowplow_syslang::{BufferKind, Dir, IntFormat, Registry, ResourceId, SyscallId, Type, TypeId};

use crate::arg::{Arg, ResSource};
use crate::prog::{Call, Prog};

/// Base fake address for pointer payloads (mirrors Syzkaller's data area).
const DATA_AREA: u64 = 0x2000_0000;
/// Maximum producer-chain depth when wiring resources.
const MAX_RESOURCE_DEPTH: u32 = 4;
/// Filenames available in the test working directory.
const FILENAMES: &[&str] = &["./file0", "./file1", "./file2", "./file3"];

/// Generates random, valid test programs over a registry.
#[derive(Debug, Clone, Copy)]
pub struct Generator<'r> {
    reg: &'r Registry,
}

impl<'r> Generator<'r> {
    /// Creates a generator for `reg`.
    pub fn new(reg: &'r Registry) -> Self {
        Generator { reg }
    }

    /// Generates a program with up to `max_calls` *requested* calls.
    /// Resource wiring may add producer calls, so the result can be a few
    /// calls longer; it is never empty.
    pub fn generate(&self, rng: &mut StdRng, max_calls: usize) -> Prog {
        let mut prog = Prog::new();
        let n = rng.random_range(1..=max_calls.max(1));
        for _ in 0..n {
            let def = SyscallId(rng.random_range(0..self.reg.syscall_count() as u32));
            self.append_call(rng, &mut prog, def, 0);
            if prog.len() >= max_calls + 4 {
                break;
            }
        }
        prog.finalize(self.reg);
        prog
    }

    /// Appends a call to `def` (plus any producer calls its resources
    /// need) to `prog`. Returns the index of the appended call.
    pub fn append_call(
        &self,
        rng: &mut StdRng,
        prog: &mut Prog,
        def: SyscallId,
        depth: u32,
    ) -> usize {
        let mut addr = DATA_AREA + (prog.len() as u64) * 0x1000;
        let args = self
            .reg
            .syscall(def)
            .args
            .iter()
            .map(|f| self.gen_arg(rng, prog, f.ty, &mut addr, depth))
            .collect();
        prog.calls.push(Call { def, args });
        prog.len() - 1
    }

    /// Generates one argument value for description type `ty`. May append
    /// producer calls to `prog` when wiring `in` resources.
    pub fn gen_arg(
        &self,
        rng: &mut StdRng,
        prog: &mut Prog,
        ty: TypeId,
        addr: &mut u64,
        depth: u32,
    ) -> Arg {
        match self.reg.ty(ty) {
            Type::Int { bits, format } => Arg::int(gen_int(rng, *bits, format)),
            Type::Flags { values, bits, .. } => Arg::int(gen_flags(rng, values, *bits)),
            Type::Const { value, .. } => Arg::int(*value),
            Type::Len { .. } => Arg::int(0), // computed by finalize
            Type::Ptr { elem, optional, .. } => {
                if *optional && rng.random_bool(0.25) {
                    Arg::null()
                } else {
                    let a = *addr;
                    *addr += 0x100;
                    let inner = self.gen_arg(rng, prog, *elem, addr, depth);
                    Arg::ptr(a, inner)
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
                let inner = (0..n)
                    .map(|_| self.gen_arg(rng, prog, *elem, addr, depth))
                    .collect();
                Arg::Group { inner }
            }
            Type::Struct { fields, .. } => {
                let inner = fields
                    .iter()
                    .map(|f| self.gen_arg(rng, prog, f.ty, addr, depth))
                    .collect();
                Arg::Group { inner }
            }
            Type::Union { variants, .. } => {
                let variant = rng.random_range(0..variants.len()) as u16;
                let inner = self.gen_arg(rng, prog, variants[variant as usize].ty, addr, depth);
                Arg::Union {
                    variant,
                    inner: Box::new(inner),
                }
            }
            Type::Resource { kind, dir } => {
                if *dir == Dir::In || *dir == Dir::InOut {
                    Arg::Res {
                        source: self.wire_resource(rng, prog, *kind, depth),
                    }
                } else {
                    Arg::Res {
                        source: ResSource::Special(0),
                    }
                }
            }
        }
    }

    /// Finds or creates a producer for resource `kind`.
    fn wire_resource(
        &self,
        rng: &mut StdRng,
        prog: &mut Prog,
        kind: ResourceId,
        depth: u32,
    ) -> ResSource {
        // Prefer an existing producer in the program.
        let existing: Vec<usize> = prog
            .calls
            .iter()
            .enumerate()
            .filter(|(_, c)| self.reg.syscall(c.def).ret == Some(kind))
            .map(|(i, _)| i)
            .collect();
        if !existing.is_empty() && rng.random_bool(0.8) {
            // Invariant: `existing` is nonempty on this branch.
            return ResSource::Ref(*existing.choose(rng).expect("nonempty"));
        }
        // Otherwise insert a producer chain, unless too deep.
        let producers = self.reg.producers_of(kind);
        if depth < MAX_RESOURCE_DEPTH && !producers.is_empty() && rng.random_bool(0.92) {
            // Invariant: `producers` is nonempty on this branch.
            let def = *producers.choose(rng).expect("nonempty");
            let idx = self.append_call(rng, prog, def, depth + 1);
            return ResSource::Ref(idx);
        }
        let specials = &self.reg.resource(kind).special_values;
        ResSource::Special(specials.first().copied().unwrap_or(u64::MAX))
    }
}

/// Generates a biased integer for the given format.
pub fn gen_int(rng: &mut StdRng, bits: u8, format: &IntFormat) -> u64 {
    let mask = width_mask(bits);
    match format {
        IntFormat::Any => {
            let v = match rng.random_range(0..8u32) {
                0 => 0,
                1 => 1,
                2 => rng.random_range(0..16),
                3 => 1u64 << rng.random_range(0..u32::from(bits)),
                4 => (1u64 << rng.random_range(0..u32::from(bits))).wrapping_sub(1),
                5 => u64::MAX,
                6 => rng.random_range(0..4096),
                _ => rng.random(),
            };
            v & mask
        }
        IntFormat::Range { lo, hi } => {
            if rng.random_bool(0.2) {
                // Invariant: a two-element array is never empty.
                *[*lo, *hi].choose(rng).expect("nonempty")
            } else {
                rng.random_range(*lo..=*hi)
            }
        }
        IntFormat::Enum { values } => {
            if values.is_empty() || rng.random_bool(0.05) {
                rng.random::<u64>() & mask
            } else {
                // Invariant: the empty case was handled above.
                *values.choose(rng).expect("nonempty") & mask
            }
        }
    }
}

/// Generates a flag word: usually one flag, sometimes a union of a few,
/// occasionally zero or random bits (Syzkaller's discipline).
pub fn gen_flags(rng: &mut StdRng, values: &[u64], bits: u8) -> u64 {
    let mask = width_mask(bits);
    if values.is_empty() {
        return rng.random::<u64>() & mask;
    }
    let roll = rng.random_range(0..100u32);
    // Invariant: the empty `values` case returned above.
    let v = if roll < 55 {
        *values.choose(rng).expect("nonempty")
    } else if roll < 80 {
        let a = *values.choose(rng).expect("nonempty");
        let b = *values.choose(rng).expect("nonempty");
        a | b
    } else if roll < 92 {
        0
    } else {
        rng.random::<u64>()
    };
    v & mask
}

/// Generates buffer payload bytes.
pub fn gen_buffer(rng: &mut StdRng, kind: &BufferKind) -> Vec<u8> {
    match kind {
        BufferKind::Blob { min_len, max_len } => {
            let n = rng.random_range(*min_len..=(*max_len).min(min_len + 32));
            (0..n).map(|_| rng.random()).collect()
        }
        BufferKind::String { values } => {
            if values.is_empty() {
                b"syz".to_vec()
            } else {
                // Invariant: the empty case was handled above.
                let mut v = values.choose(rng).expect("nonempty").as_bytes().to_vec();
                v.push(0);
                v
            }
        }
        BufferKind::Filename => {
            // Invariant: FILENAMES is a nonempty constant.
            let mut v = FILENAMES.choose(rng).expect("nonempty").as_bytes().to_vec();
            v.push(0);
            v
        }
    }
}

fn width_mask(bits: u8) -> u64 {
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

    #[test]
    fn programs_are_reproducible_per_seed() {
        let reg = builtin::linux_sim();
        let generator = Generator::new(&reg);
        let a = generator.generate(&mut StdRng::seed_from_u64(11), 5);
        let b = generator.generate(&mut StdRng::seed_from_u64(11), 5);
        assert_eq!(a, b);
        let c = generator.generate(&mut StdRng::seed_from_u64(12), 5);
        assert_ne!(a, c, "different seeds should give different programs");
    }

    #[test]
    fn resources_are_wired_to_producers() {
        let reg = builtin::linux_sim();
        let generator = Generator::new(&reg);
        let mut rng = StdRng::seed_from_u64(5);
        let mut wired = 0;
        for _ in 0..100 {
            let p = generator.generate(&mut rng, 6);
            for call in &p.calls {
                let mut refs = Vec::new();
                for a in &call.args {
                    a.collect_refs(&mut refs);
                }
                wired += refs.len();
            }
        }
        assert!(
            wired > 50,
            "expected plenty of resource wiring, got {wired}"
        );
    }

    #[test]
    fn int_respects_width_mask() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            let v = gen_int(&mut rng, 8, &IntFormat::Any);
            assert!(v <= 0xff);
            let f = gen_flags(&mut rng, &[0x1, 0x80], 8);
            assert!(f <= 0xff);
        }
    }

    #[test]
    fn range_format_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            let v = gen_int(&mut rng, 32, &IntFormat::Range { lo: 10, hi: 20 });
            assert!((10..=20).contains(&v), "{v}");
        }
    }
}
