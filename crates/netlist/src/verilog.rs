//! Structural-Verilog subset writer and parser.
//!
//! The paper's flow consumes a post-synthesis gate-level netlist (`.v`).
//! This module emits and re-reads the flat structural subset used by
//! `xbound`: one `module`, `input`/`output`/`wire` declarations, and
//! standard-cell instances with named pin connections. Hierarchy membership
//! is preserved through `(* module = "name" *)` attributes on instances.
//!
//! ```text
//! module cpu (rstn, ...);
//!   input rstn;
//!   wire \frontend/pc_q[0] ;
//!   (* module = "frontend" *)
//!   NAND2 g12_nand2 (.A(n1), .B(n2), .Y(n3));
//! endmodule
//! ```
//!
//! # Example
//!
//! ```
//! use xbound_netlist::{CellKind, Netlist, verilog};
//!
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a");
//! let y = nl.add_net("y");
//! nl.add_gate(CellKind::Inv, "u1", &[a], y).unwrap();
//! nl.add_output("y", y);
//! let nl = nl.finalize().unwrap();
//! let text = verilog::write(&nl);
//! let back = verilog::parse(&text).unwrap();
//! assert_eq!(back.gate_count(), 1);
//! ```

use crate::{CellKind, Netlist, NetlistError};
use std::collections::HashMap;
use std::fmt;

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerilogError {
    /// Lexical or syntactic problem at a line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A cell name is not part of the supported vocabulary.
    UnknownCell {
        /// The unresolved cell name.
        cell: String,
    },
    /// A pin name does not belong to the cell.
    UnknownPin {
        /// Cell kind.
        cell: String,
        /// Offending pin.
        pin: String,
    },
    /// Netlist-level validation failed after parsing.
    Netlist(NetlistError),
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerilogError::Syntax { line, message } => {
                write!(f, "syntax error at line {line}: {message}")
            }
            VerilogError::UnknownCell { cell } => write!(f, "unknown cell `{cell}`"),
            VerilogError::UnknownPin { cell, pin } => {
                write!(f, "unknown pin `{pin}` on cell `{cell}`")
            }
            VerilogError::Netlist(e) => write!(f, "netlist validation: {e}"),
        }
    }
}

impl std::error::Error for VerilogError {}

impl From<NetlistError> for VerilogError {
    fn from(e: NetlistError) -> VerilogError {
        VerilogError::Netlist(e)
    }
}

fn ident_needs_escape(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return true,
    }
    !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
}

fn emit_ident(name: &str) -> String {
    if ident_needs_escape(name) {
        format!("\\{name} ")
    } else {
        name.to_string()
    }
}

/// Serializes a netlist to the structural-Verilog subset.
pub fn write(nl: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "// xbound structural netlist\nmodule {} (",
        nl.name()
    ));
    // Output ports are emitted under their *net* names; alias names used at
    // the API level (`add_output`) are recorded as comments. Round-tripping
    // therefore preserves structure and hierarchy, not output aliases.
    let mut ports: Vec<String> = nl
        .inputs()
        .iter()
        .map(|&n| emit_ident(nl.net_name(n)))
        .collect();
    let mut seen_out = std::collections::HashSet::new();
    for (_, net) in nl.outputs() {
        if seen_out.insert(*net) {
            ports.push(emit_ident(nl.net_name(*net)));
        }
    }
    out.push_str(&ports.join(", "));
    out.push_str(");\n");
    for &n in nl.inputs() {
        out.push_str(&format!("  input {};\n", emit_ident(nl.net_name(n))));
    }
    for (name, net) in nl.outputs() {
        out.push_str(&format!(
            "  output {};{}\n",
            emit_ident(nl.net_name(*net)),
            if name != nl.net_name(*net) {
                format!(" // alias: {name}")
            } else {
                String::new()
            }
        ));
    }
    // Wires: every net that is not a primary input or an output port.
    let input_set: std::collections::HashSet<_> = nl.inputs().iter().copied().collect();
    for i in 0..nl.net_count() {
        let id = crate::NetId(i as u32);
        if !input_set.contains(&id) && !seen_out.contains(&id) {
            out.push_str(&format!("  wire {};\n", emit_ident(nl.net_name(id))));
        }
    }
    for (gi, g) in nl.gates().iter().enumerate() {
        let module = nl.module_name(g.module());
        if module != "top" {
            out.push_str(&format!("  (* module = \"{module}\" *)\n"));
        }
        let mut pins: Vec<String> = g
            .kind()
            .pin_names()
            .iter()
            .zip(g.inputs())
            .map(|(pin, &net)| format!(".{pin}({})", emit_ident(nl.net_name(net))))
            .collect();
        pins.push(format!(
            ".{}({})",
            g.kind().output_pin(),
            emit_ident(nl.net_name(g.output()))
        ));
        out.push_str(&format!(
            "  {} {} ({});\n",
            g.kind().name(),
            emit_ident(nl.gate_name(crate::GateId(gi as u32))),
            pins.join(", ")
        ));
    }
    out.push_str("endmodule\n");
    out
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Sym(char),
    Str(String),
    AttrStart, // (*
    AttrEnd,   // *)
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> VerilogError {
        VerilogError::Syntax {
            line: self.line,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn next_tok(&mut self) -> Result<Option<(Tok, usize)>, VerilogError> {
        loop {
            // Skip whitespace and comments.
            match self.peek() {
                None => return Ok(None),
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.src[self.pos..].starts_with("//") => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
        let line = self.line;
        let c = self.peek().expect("non-empty");
        if self.src[self.pos..].starts_with("(*") {
            self.bump();
            self.bump();
            return Ok(Some((Tok::AttrStart, line)));
        }
        if self.src[self.pos..].starts_with("*)") {
            self.bump();
            self.bump();
            return Ok(Some((Tok::AttrEnd, line)));
        }
        match c {
            '\\' => {
                self.bump();
                let mut s = String::new();
                while let Some(c) = self.peek() {
                    if c.is_whitespace() {
                        break;
                    }
                    s.push(c);
                    self.bump();
                }
                if s.is_empty() {
                    return Err(self.error("empty escaped identifier"));
                }
                Ok(Some((Tok::Ident(s), line)))
            }
            '"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.error("unterminated string")),
                        Some('"') => break,
                        Some(c) => s.push(c),
                    }
                }
                Ok(Some((Tok::Str(s), line)))
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == '$' => {
                let mut s = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '$' || c == '[' || c == ']' {
                        s.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(Some((Tok::Ident(s), line)))
            }
            '(' | ')' | ';' | ',' | '.' | '=' => {
                self.bump();
                Ok(Some((Tok::Sym(c), line)))
            }
            other => Err(self.error(format!("unexpected character `{other}`"))),
        }
    }
}

/// Parses the structural-Verilog subset emitted by [`write()`].
///
/// # Errors
///
/// Returns [`VerilogError`] on lexical/syntactic problems, unknown cells or
/// pins, and netlist validation failures (the result is finalized).
pub fn parse(src: &str) -> Result<Netlist, VerilogError> {
    let mut lx = Lexer::new(src);
    let mut toks: Vec<(Tok, usize)> = Vec::new();
    while let Some(t) = lx.next_tok()? {
        toks.push(t);
    }
    let mut i = 0usize;
    let err_at = |i: usize, toks: &[(Tok, usize)], msg: &str| -> VerilogError {
        let line = toks.get(i).map(|t| t.1).unwrap_or(0);
        VerilogError::Syntax {
            line,
            message: msg.to_string(),
        }
    };
    macro_rules! expect_sym {
        ($c:expr, $msg:expr) => {{
            match toks.get(i) {
                Some((Tok::Sym(c), _)) if *c == $c => i += 1,
                _ => return Err(err_at(i, &toks, $msg)),
            }
        }};
    }
    macro_rules! ident {
        ($msg:expr) => {{
            match toks.get(i) {
                Some((Tok::Ident(s), _)) => {
                    i += 1;
                    s.clone()
                }
                _ => return Err(err_at(i, &toks, $msg)),
            }
        }};
    }

    let kw = ident!("expected `module`");
    if kw != "module" {
        return Err(err_at(i - 1, &toks, "expected `module`"));
    }
    let name = ident!("expected module name");
    let mut nl = Netlist::new(name);
    expect_sym!('(', "expected `(` after module name");
    // Port list (names only).
    let mut port_order: Vec<String> = Vec::new();
    loop {
        match toks.get(i) {
            Some((Tok::Sym(')'), _)) => {
                i += 1;
                break;
            }
            Some((Tok::Ident(s), _)) => {
                port_order.push(s.clone());
                i += 1;
                if let Some((Tok::Sym(','), _)) = toks.get(i) {
                    i += 1;
                }
            }
            _ => return Err(err_at(i, &toks, "malformed port list")),
        }
    }
    expect_sym!(';', "expected `;` after port list");

    let mut nets: HashMap<String, crate::NetId> = HashMap::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut pending_module: Option<String> = None;
    loop {
        match toks.get(i) {
            None => return Err(err_at(i, &toks, "missing `endmodule`")),
            Some((Tok::Ident(s), _)) if s == "endmodule" => break,
            Some((Tok::AttrStart, _)) => {
                i += 1;
                let key = ident!("expected attribute name");
                expect_sym!('=', "expected `=` in attribute");
                let val = match toks.get(i) {
                    Some((Tok::Str(s), _)) => {
                        i += 1;
                        s.clone()
                    }
                    _ => return Err(err_at(i, &toks, "expected attribute string value")),
                };
                match toks.get(i) {
                    Some((Tok::AttrEnd, _)) => i += 1,
                    _ => return Err(err_at(i, &toks, "expected `*)`")),
                }
                if key == "module" {
                    pending_module = Some(val);
                }
            }
            Some((Tok::Ident(s), _)) if s == "input" || s == "output" || s == "wire" => {
                let decl = s.clone();
                i += 1;
                loop {
                    let n = ident!("expected net name");
                    match decl.as_str() {
                        "input" => {
                            let id = nl.add_input(n.clone());
                            nets.insert(n, id);
                        }
                        "output" => outputs.push(n),
                        _ => {
                            let id = nl.add_net(n.clone());
                            nets.insert(n, id);
                        }
                    }
                    match toks.get(i) {
                        Some((Tok::Sym(','), _)) => i += 1,
                        Some((Tok::Sym(';'), _)) => {
                            i += 1;
                            break;
                        }
                        _ => return Err(err_at(i, &toks, "expected `,` or `;` in declaration")),
                    }
                }
            }
            Some((Tok::Ident(cell), _)) => {
                let cell = cell.clone();
                i += 1;
                let kind = CellKind::from_name(&cell)
                    .ok_or_else(|| VerilogError::UnknownCell { cell: cell.clone() })?;
                let inst = ident!("expected instance name");
                expect_sym!('(', "expected `(` after instance name");
                let mut conns: HashMap<String, String> = HashMap::new();
                loop {
                    match toks.get(i) {
                        Some((Tok::Sym(')'), _)) => {
                            i += 1;
                            break;
                        }
                        Some((Tok::Sym('.'), _)) => {
                            i += 1;
                            let pin = ident!("expected pin name");
                            expect_sym!('(', "expected `(` after pin name");
                            let net = ident!("expected net in pin connection");
                            expect_sym!(')', "expected `)` after net");
                            conns.insert(pin, net);
                            if let Some((Tok::Sym(','), _)) = toks.get(i) {
                                i += 1;
                            }
                        }
                        _ => return Err(err_at(i, &toks, "malformed pin connection")),
                    }
                }
                expect_sym!(';', "expected `;` after instance");
                let module = match pending_module.take() {
                    Some(m) => nl.add_module(m),
                    None => crate::ModuleId(0),
                };
                let mut inputs = Vec::with_capacity(kind.input_count());
                for pin in kind.pin_names() {
                    let net_name = conns.remove(*pin).ok_or_else(|| VerilogError::UnknownPin {
                        cell: cell.clone(),
                        pin: format!("{pin} (missing)"),
                    })?;
                    let id = *nets
                        .entry(net_name.clone())
                        .or_insert_with(|| nl.add_net(net_name.clone()));
                    inputs.push(id);
                }
                let out_name =
                    conns
                        .remove(kind.output_pin())
                        .ok_or_else(|| VerilogError::UnknownPin {
                            cell: cell.clone(),
                            pin: format!("{} (missing)", kind.output_pin()),
                        })?;
                if let Some((pin, _)) = conns.into_iter().next() {
                    return Err(VerilogError::UnknownPin { cell, pin });
                }
                let out_id = *nets
                    .entry(out_name.clone())
                    .or_insert_with(|| nl.add_net(out_name.clone()));
                nl.add_gate_in(kind, inst, &inputs, out_id, module)?;
            }
            _ => return Err(err_at(i, &toks, "unexpected token")),
        }
    }
    for name in outputs {
        let id = *nets
            .entry(name.clone())
            .or_insert_with(|| nl.add_net(name.clone()));
        nl.add_output(name, id);
    }
    Ok(nl.finalize()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtl::Rtl;

    #[test]
    fn round_trip_tiny() {
        let mut nl = Netlist::new("toy");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let m = nl.add_module("alu");
        let y = nl.add_net("alu/y");
        nl.add_gate_in(CellKind::Nand2, "u1", &[a, b], y, m)
            .unwrap();
        nl.add_output("alu/y", y);
        let nl = nl.finalize().unwrap();
        let text = write(&nl);
        let back = parse(&text).unwrap();
        assert_eq!(back.gate_count(), 1);
        assert_eq!(back.inputs().len(), 2);
        assert_eq!(back.gates()[0].kind(), CellKind::Nand2);
        assert_eq!(back.module_name(back.gates()[0].module()), "alu");
    }

    #[test]
    fn round_trip_rtl_design() {
        let mut r = Rtl::new("cnt");
        let en = r.input_bit("en");
        r.set_module("datapath");
        let (h, q) = r.reg("c", 6);
        let one = r.one();
        let (nx, _) = r.inc(&q, one);
        r.reg_next_en(h, &nx, en);
        r.output("q", &q);
        let nl = r.finish().unwrap();
        let text = write(&nl);
        let back = parse(&text).unwrap();
        assert_eq!(back.gate_count(), nl.gate_count());
        assert_eq!(back.sequential_gates().len(), 6);
        // Hierarchy preserved.
        let counts = back.module_gate_counts();
        assert!(counts.iter().sum::<usize>() == back.gate_count());
    }

    #[test]
    fn escaped_identifiers_survive() {
        let mut nl = Netlist::new("esc");
        let a = nl.add_input("weird/name[3]");
        let y = nl.add_net("out.net");
        nl.add_gate(CellKind::Buf, "u1", &[a], y).unwrap();
        nl.add_output("out.net", y);
        let nl = nl.finalize().unwrap();
        let text = write(&nl);
        let back = parse(&text).unwrap();
        assert!(back.find_net("weird/name[3]").is_some());
        assert!(back.find_net("out.net").is_some());
    }

    #[test]
    fn unknown_cell_rejected() {
        let src = "module m (a, y);\n input a;\n wire y;\n BOGUS u1 (.A(a), .Y(y));\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, VerilogError::UnknownCell { .. }));
    }

    #[test]
    fn unknown_pin_rejected() {
        let src = "module m (a, y);\n input a;\n wire y;\n INV u1 (.Q(a), .Y(y));\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, VerilogError::UnknownPin { .. }));
    }

    #[test]
    fn syntax_error_has_line() {
        let src = "module m (a;\nendmodule\n";
        match parse(src).unwrap_err() {
            VerilogError::Syntax { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undriven_wire_fails_validation() {
        let src =
            "module m (a, y);\n input a;\n wire y;\n wire fl;\n AND2 u1 (.A(a), .B(fl), .Y(y));\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(matches!(
            err,
            VerilogError::Netlist(NetlistError::Undriven { .. })
        ));
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let src = "// header\nmodule m (a, y); // ports\n input a;\n wire y;\n INV u1 (.A(a), .Y(y));\nendmodule\n";
        let nl = parse(src).unwrap();
        assert_eq!(nl.gate_count(), 1);
    }
}
