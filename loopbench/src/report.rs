//! The result line: metric-name validation and JSON rendering.
//!
//! The last line of standard output is one JSON object,
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name:
//! {"value": …, "unit": …}}}`. It is rendered by hand (the workspace has
//! no JSON dependency); the tests parse it back.

use std::fmt::Write as _;

/// Whether `name` is a valid metric name: 1–64 characters of ASCII
/// letters, digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters of ASCII letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One named measurement.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every report matched its pinned and in-run fingerprints and
    /// passed the structural checks.
    pub correct: bool,
    /// Operations attempted: prediction calls plus campaign reports.
    pub attempted: u64,
    /// Failed operations: serve errors plus mismatching reports.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Renders the result line, or explains why it cannot be rendered
    /// (an invalid or repeated name, an invalid unit, a non-finite
    /// value).
    pub fn render(&self) -> Result<String, String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints every digit an f64 carries (shortest
            // round-trip form), never in a notation JSON rejects.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader for exactly the result-line shape: enough
    /// to prove the rendering parses and round-trips.
    struct Reader<'a> {
        s: &'a [u8],
        i: usize,
    }

    #[derive(Debug, PartialEq)]
    enum Json {
        Bool(bool),
        Num(f64),
        Str(String),
        Obj(Vec<(String, Json)>),
    }

    impl Reader<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
            self.i += 1;
        }
        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    loop {
                        let Json::Str(k) = self.value() else {
                            panic!("object key must be a string")
                        };
                        self.eat(b':');
                        fields.push((k, self.value()));
                        self.ws();
                        self.i += 1;
                        if self.s[self.i - 1] == b'}' {
                            return Json::Obj(fields);
                        }
                        assert_eq!(self.s[self.i - 1], b',');
                    }
                }
                b'"' => {
                    let start = self.i + 1;
                    let end = start + self.s[start..].iter().position(|&c| c == b'"').unwrap();
                    self.i = end + 1;
                    Json::Str(String::from_utf8(self.s[start..end].to_vec()).unwrap())
                }
                b't' | b'f' => {
                    let t = self.s[self.i..].starts_with(b"true");
                    self.i += if t { 4 } else { 5 };
                    Json::Bool(t)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                    Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
                }
            }
        }
    }

    fn parse(line: &str) -> Json {
        let mut r = Reader {
            s: line.as_bytes(),
            i: 0,
        };
        let v = r.value();
        r.ws();
        assert_eq!(r.i, line.len(), "trailing bytes");
        v
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(fields) = obj else {
            panic!("not an object")
        };
        &fields.iter().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in [
            "execs_per_s",
            "pmm.graph.build_us_p99",
            "a",
            "9-x",
            "setup_s",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "x y", "x/y", "ü", long.as_str(), "x\"y"] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seventeen-letters", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn rendered_line_parses_and_round_trips() {
        let mut r = RunResult {
            correct: true,
            attempted: 1234,
            failed: 1,
            metrics: Vec::new(),
        };
        r.push("execs_per_s", 61_234.567_890_123_45, "1/s");
        r.push("setup_s", 0.000_012_5, "s");
        r.push("unique_crashes", 68.0, "count");
        r.push("fuzzer.unattributed_pct", -3.25, "%");
        r.push("tiny", 1e-300, "s");
        let line = r.render().unwrap();
        assert!(!line.contains('\n'));
        let v = parse(&line);
        assert_eq!(field(&v, "correct"), &Json::Bool(true));
        assert_eq!(field(&v, "attempted"), &Json::Num(1234.0));
        assert_eq!(field(&v, "failed"), &Json::Num(1.0));
        let metrics = field(&v, "metrics");
        let Json::Obj(entries) = metrics else {
            panic!("metrics must be an object")
        };
        assert_eq!(entries.len(), r.metrics.len());
        for m in &r.metrics {
            let got = field(metrics, &m.name);
            assert_eq!(field(got, "value"), &Json::Num(m.value), "{}", m.name);
            assert_eq!(field(got, "unit"), &Json::Str(m.unit.to_owned()));
        }
    }

    #[test]
    fn render_rejects_bad_metrics() {
        let mut r = RunResult::default();
        r.push("ok", 1.0, "s");
        r.push("ok", 2.0, "s");
        assert!(r.render().unwrap_err().contains("twice"));

        let mut r = RunResult::default();
        r.push("bad name", 1.0, "s");
        assert!(r.render().unwrap_err().contains("invalid metric name"));

        let mut r = RunResult::default();
        r.push("x", f64::NAN, "s");
        assert!(r.render().unwrap_err().contains("not finite"));

        let mut r = RunResult::default();
        r.push("x", 1.0, "m s");
        assert!(r.render().unwrap_err().contains("invalid unit"));
    }
}
