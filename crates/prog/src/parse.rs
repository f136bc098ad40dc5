//! Parsing of the syz-like text format back into [`Prog`]s.
//!
//! The parser is type-directed: the registry's description of each call
//! tells it whether to expect a struct, array, union, buffer, resource, or
//! scalar at every position, so the text format needs no type annotations
//! beyond union variant names.

use std::fmt;

use snowplow_syslang::{Registry, Type, TypeId};

use crate::arg::{Arg, ResSource};
use crate::prog::{Call, Prog};

/// Error produced when parsing program text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Byte offset within the line.
    pub col: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a full program.
pub fn parse_prog(reg: &Registry, text: &str) -> Result<Prog, ParseError> {
    let mut prog = Prog::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut p = Parser {
            reg,
            line,
            lineno: lineno + 1,
            pos: 0,
        };
        let call = p.parse_call(prog.len())?;
        prog.calls.push(call);
    }
    Ok(prog)
}

struct Parser<'a> {
    reg: &'a Registry,
    line: &'a str,
    lineno: usize,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.lineno,
            col: self.pos + 1,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.line[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected '{c}', found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '$') {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(&self.line[start..self.pos])
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        if let Some(hex) = rest.strip_prefix("0x") {
            let digits: String = hex.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
            if digits.is_empty() {
                return Err(self.err("expected hex digits after 0x"));
            }
            self.pos += 2 + digits.len();
            u64::from_str_radix(&digits, 16).map_err(|e| self.err(format!("bad number: {e}")))
        } else {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            if digits.is_empty() {
                return Err(self.err("expected number"));
            }
            self.pos += digits.len();
            digits
                .parse()
                .map_err(|e| self.err(format!("bad number: {e}")))
        }
    }

    fn parse_call(&mut self, index: usize) -> Result<Call, ParseError> {
        self.skip_ws();
        // Optional `rN = ` binding.
        let save = self.pos;
        let mut name = self.ident()?;
        self.skip_ws();
        if name.starts_with('r')
            && name[1..].chars().all(|c| c.is_ascii_digit())
            && !name[1..].is_empty()
            && self.peek() == Some('=')
        {
            let bound: usize = name[1..].parse().map_err(|_| self.err("bad binding"))?;
            if bound != index {
                return Err(self.err(format!(
                    "binding r{bound} does not match call index {index}"
                )));
            }
            self.bump(); // '='
            name = self.ident()?;
        } else if self.peek() == Some('=') {
            return Err(self.err("unexpected '='"));
        } else {
            // Not a binding: rewind not needed, `name` is the call name.
            let _ = save;
        }
        let def = self
            .reg
            .syscall_by_name(name)
            .ok_or_else(|| self.err(format!("unknown syscall {name}")))?;
        self.expect('(')?;
        let fields = &self.reg.syscall(def).args;
        let mut args = Vec::with_capacity(fields.len());
        for (i, field) in fields.iter().enumerate() {
            if i > 0 {
                self.expect(',')?;
            }
            args.push(self.parse_arg(field.ty)?);
        }
        self.expect(')')?;
        self.skip_ws();
        if !self.rest().is_empty() {
            return Err(self.err(format!("trailing input: {:?}", self.rest())));
        }
        Ok(Call { def, args })
    }

    fn parse_arg(&mut self, ty: TypeId) -> Result<Arg, ParseError> {
        self.skip_ws();
        match self.reg.ty(ty) {
            Type::Int { .. } | Type::Flags { .. } | Type::Const { .. } | Type::Len { .. } => {
                Ok(Arg::int(self.number()?))
            }
            Type::Ptr { elem, .. } => {
                if self.rest().starts_with("nil") {
                    self.pos += 3;
                    return Ok(Arg::null());
                }
                self.expect('&')?;
                self.expect('(')?;
                let addr = self.number()?;
                self.expect(')')?;
                self.expect('=')?;
                let inner = self.parse_arg(*elem)?;
                Ok(Arg::ptr(addr, inner))
            }
            Type::Buffer { .. } => {
                self.expect('"')?;
                let hex: String = self
                    .rest()
                    .chars()
                    .take_while(|c| c.is_ascii_hexdigit())
                    .collect();
                self.pos += hex.len();
                self.expect('"')?;
                if !hex.len().is_multiple_of(2) {
                    return Err(self.err("odd-length hex buffer"));
                }
                let bytes = (0..hex.len())
                    .step_by(2)
                    .map(|i| {
                        u8::from_str_radix(&hex[i..i + 2], 16)
                            .map_err(|e| self.err(format!("bad hex byte: {e}")))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(Arg::Data { bytes })
            }
            Type::Struct { fields, .. } => {
                self.expect('{')?;
                let mut inner = Vec::with_capacity(fields.len());
                for (i, f) in fields.iter().enumerate() {
                    if i > 0 {
                        self.expect(',')?;
                    }
                    inner.push(self.parse_arg(f.ty)?);
                }
                self.expect('}')?;
                Ok(Arg::Group { inner })
            }
            Type::Array { elem, .. } => {
                self.expect('[')?;
                let mut inner = Vec::new();
                self.skip_ws();
                if self.peek() != Some(']') {
                    loop {
                        inner.push(self.parse_arg(*elem)?);
                        self.skip_ws();
                        if self.peek() == Some(',') {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(']')?;
                Ok(Arg::Group { inner })
            }
            Type::Union { variants, name } => {
                self.expect('@')?;
                let vname = self.ident()?;
                let (vi, field) = variants
                    .iter()
                    .enumerate()
                    .find(|(_, f)| f.name == vname)
                    .ok_or_else(|| self.err(format!("union {name} has no variant {vname}")))?;
                self.expect('=')?;
                let inner = self.parse_arg(field.ty)?;
                Ok(Arg::Union {
                    variant: vi as u16,
                    inner: Box::new(inner),
                })
            }
            Type::Resource { .. } => {
                self.skip_ws();
                if self.peek() == Some('r') && !self.rest().starts_with("r0x") {
                    // `rN` reference.
                    self.bump();
                    let idx = self.number()? as usize;
                    Ok(Arg::Res {
                        source: ResSource::Ref(idx),
                    })
                } else {
                    Ok(Arg::Res {
                        source: ResSource::Special(self.number()?),
                    })
                }
            }
        }
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
    fn round_trip_many_programs() {
        let reg = builtin::linux_sim();
        let generator = Generator::new(&reg);
        let mut rng = StdRng::seed_from_u64(21);
        for i in 0..300 {
            let p = generator.generate(&mut rng, 8);
            let text = p.display(&reg).to_string();
            let back = parse_prog(&reg, &text).unwrap_or_else(|e| panic!("iter {i}: {e}\n{text}"));
            assert_eq!(p, back, "round-trip mismatch at iter {i}\n{text}");
        }
    }

    #[test]
    fn parse_handles_comments_and_blanks() {
        let reg = builtin::linux_sim();
        let text = "# a comment\n\nr0 = open(&(0x20000000)=\"2e2f66696c653000\", 0x1, 0x1ff)\n";
        let p = parse_prog(&reg, text).expect("parses");
        assert_eq!(p.len(), 1);
        assert!(p.validate(&reg).is_ok());
    }

    #[test]
    fn error_reports_position() {
        let reg = builtin::linux_sim();
        let err = parse_prog(&reg, "bogus_call()").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown syscall"));
    }

    #[test]
    fn binding_index_is_checked() {
        let reg = builtin::linux_sim();
        let text = "r5 = open(&(0x0)=\"2e2f6600\", 0x1, 0x0)";
        let err = parse_prog(&reg, text).unwrap_err();
        assert!(err.message.contains("does not match"), "{err}");
    }
}
