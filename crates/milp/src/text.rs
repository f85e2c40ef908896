//! Bit-exact textual model serialisation for solver fixtures.
//!
//! The differential solver-oracle suite replays MILP models dumped from
//! corpus seed runs. The milp crate is a zero-dependency leaf (layering
//! lint), so the format is hand-rolled: line-oriented ASCII with every
//! `f64` spelled as its 16-hex-digit IEEE bit pattern, making a
//! `to_text → from_text` round trip lossless down to `-0.0` and NaN
//! payloads.
//!
//! ```text
//! milp v1
//! vars 2
//! b 0000000000000000 3ff0000000000000 4024000000000000
//! c 0000000000000000 4008000000000000 3ff0000000000000
//! rows 1
//! le 4000000000000000 2 0:3ff0000000000000 1:3ff0000000000000
//! sos1 0
//! end
//! ```

use std::fmt::Write as _;

use crate::model::{Cmp, Model, VarKind, Variable};

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn unhex(s: &str) -> Result<f64, String> {
    let bits = u64::from_str_radix(s, 16).map_err(|e| format!("bad f64 hex {s:?}: {e}"))?;
    Ok(f64::from_bits(bits))
}

impl Model {
    /// Serialises the model to the fixture text format (bit-exact).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("milp v1\n");
        let _ = writeln!(out, "vars {}", self.vars.len());
        for v in &self.vars {
            let kind = match v.kind {
                VarKind::Binary => 'b',
                VarKind::Continuous => 'c',
            };
            let _ = writeln!(
                out,
                "{kind} {} {} {}",
                hex(v.lower),
                hex(v.upper),
                hex(v.objective)
            );
        }
        let _ = writeln!(out, "rows {}", self.num_constraints());
        for (r, (cmp, rhs)) in self.cmp.iter().zip(&self.rhs).enumerate() {
            let cmp = match cmp {
                Cmp::Le => "le",
                Cmp::Ge => "ge",
                Cmp::Eq => "eq",
            };
            let terms = self.row(r);
            let _ = write!(out, "{cmp} {} {}", hex(*rhs), terms.len());
            for (j, coef) in terms {
                let _ = write!(out, " {j}:{}", hex(*coef));
            }
            out.push('\n');
        }
        let _ = writeln!(out, "sos1 {}", self.sos1_start.len() - 1);
        for group in self.sos1_groups() {
            let members: Vec<String> = group.iter().map(|j| j.to_string()).collect();
            let _ = writeln!(out, "{}", members.join(" "));
        }
        out.push_str("end\n");
        out
    }

    /// Parses a model from the fixture text format.
    pub fn from_text(text: &str) -> Result<Model, String> {
        let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty());
        let mut next = |what: &str| lines.next().ok_or_else(|| format!("missing {what}"));
        if next("header")? != "milp v1" {
            return Err("expected `milp v1` header".into());
        }
        let count = |line: &str, tag: &str| -> Result<usize, String> {
            let rest = line
                .strip_prefix(tag)
                .ok_or_else(|| format!("expected `{tag} N`, got {line:?}"))?;
            rest.trim()
                .parse()
                .map_err(|e| format!("bad {tag} count: {e}"))
        };
        let n = count(next("vars")?, "vars")?;
        let mut model = Model::new();
        for _ in 0..n {
            let line = next("variable line")?;
            let mut parts = line.split_whitespace();
            let kind = parts.next().ok_or("empty variable line")?;
            let lower = unhex(parts.next().ok_or("missing lower")?)?;
            let upper = unhex(parts.next().ok_or("missing upper")?)?;
            let objective = unhex(parts.next().ok_or("missing objective")?)?;
            let kind = match kind {
                "b" => VarKind::Binary,
                "c" => VarKind::Continuous,
                other => return Err(format!("unknown var kind {other:?}")),
            };
            // Push raw to preserve exact bounds (the builder methods
            // normalise/validate, which would reject e.g. presolve-tightened
            // binaries dumped mid-pipeline).
            model.vars.push(Variable {
                kind,
                lower,
                upper,
                objective,
                name: None,
            });
        }
        let m = count(next("rows")?, "rows")?;
        for _ in 0..m {
            let line = next("row line")?;
            let mut parts = line.split_whitespace();
            let cmp = match parts.next().ok_or("empty row line")? {
                "le" => Cmp::Le,
                "ge" => Cmp::Ge,
                "eq" => Cmp::Eq,
                other => return Err(format!("unknown cmp {other:?}")),
            };
            let rhs = unhex(parts.next().ok_or("missing rhs")?)?;
            let terms_len: usize = parts
                .next()
                .ok_or("missing term count")?
                .parse()
                .map_err(|e| format!("bad term count: {e}"))?;
            // Pushed raw (unsorted, zeros kept), so a fixture replays
            // exactly the rows it was dumped with.
            for _ in 0..terms_len {
                let term = parts.next().ok_or("missing term")?;
                let (j, coef) = term.split_once(':').ok_or("term missing `:`")?;
                let j: usize = j.parse().map_err(|e| format!("bad term index: {e}"))?;
                if j >= model.vars.len() {
                    return Err(format!("term index {j} out of range"));
                }
                model.entries.push((j, unhex(coef)?));
            }
            model.push_row(cmp, rhs);
        }
        let g = count(next("sos1")?, "sos1")?;
        for _ in 0..g {
            let line = next("sos1 group")?;
            for part in line.split_whitespace() {
                let j: usize = part.parse().map_err(|e| format!("bad sos1 index: {e}"))?;
                if j >= model.vars.len() {
                    return Err(format!("sos1 index {j} out of range"));
                }
                model.sos1.push(j);
            }
            model.sos1_start.push(model.sos1.len());
        }
        if next("end")? != "end" {
            return Err("expected `end` terminator".into());
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Model {
        let mut m = Model::new();
        let a = m.add_binary(10.0);
        let b = m.add_binary(6.0);
        let y = m.add_continuous(0.0, 3.5, -0.0);
        m.add_constraint(&[(a, 5.0), (b, 4.0)], Cmp::Le, 10.0);
        m.add_constraint(&[(y, 1.0), (a, -4.0)], Cmp::Ge, -0.5);
        m.add_constraint(&[(y, 2.0)], Cmp::Eq, 7.0);
        m.add_sos1(&[a, b]);
        m
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let m = sample();
        let text = m.to_text();
        let back = Model::from_text(&text).unwrap();
        assert_eq!(m.to_text(), back.to_text());
        assert_eq!(m.num_vars(), back.num_vars());
        assert_eq!(m.num_constraints(), back.num_constraints());
        for (a, b) in m.vars.iter().zip(&back.vars) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.lower.to_bits(), b.lower.to_bits());
            assert_eq!(a.upper.to_bits(), b.upper.to_bits());
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
    }

    #[test]
    fn negative_zero_and_infinities_survive() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -0.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, f64::INFINITY);
        let back = Model::from_text(&m.to_text()).unwrap();
        assert_eq!(back.vars[0].upper.to_bits(), f64::INFINITY.to_bits());
        assert_eq!(back.vars[0].objective.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.rhs[0].to_bits(), f64::INFINITY.to_bits());
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "milp v2\n",
            "milp v1\nvars x\n",
            "milp v1\nvars 1\nq 0 0 0\nrows 0\nsos1 0\nend\n",
            "milp v1\nvars 0\nrows 1\nle 0000000000000000 1 5:0000000000000000\nsos1 0\nend\n",
            "milp v1\nvars 0\nrows 0\nsos1 0\n",
        ] {
            assert!(Model::from_text(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parsed_model_solves_identically() {
        use crate::branch::BranchAndBound;
        let m = sample();
        let back = Model::from_text(&m.to_text()).unwrap();
        let a = BranchAndBound::new().solve(&m);
        let b = BranchAndBound::new().solve(&back);
        assert_eq!(a.status, b.status);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values));
    }
}
