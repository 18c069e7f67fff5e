//! A minimal JSON object writer (the workspace has no serializer).

use std::fmt::Write as _;

/// Builds one JSON object, key by key.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "{}: ", quote(k));
    }

    /// A number; non-finite values become `null`.
    pub fn num(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.body.push_str(&num(v));
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn boolean(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.body.push_str(&quote(v));
        self
    }

    /// A value that is already JSON text.
    pub fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.body.push_str(json);
        self
    }

    pub fn nums(self, k: &str, vs: &[f64]) -> Self {
        let list = vs.iter().map(|&v| num(v)).collect::<Vec<_>>().join(", ");
        self.raw(k, &format!("[{list}]"))
    }

    pub fn strs(self, k: &str, vs: &[String]) -> Self {
        let list = vs.iter().map(|v| quote(v)).collect::<Vec<_>>().join(", ");
        self.raw(k, &format!("[{list}]"))
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
