//! Shared by the integration-test targets, and by the solver's own
//! exactness tests: the checked-in fixture corpus, and a seeded stream of
//! node bound sets over it.

// Not every target uses every helper.
#![allow(dead_code)]

use std::path::PathBuf;

use threesigma_milp::Model;

/// Every `tests/fixtures/*.milp` model, by file name, in name order.
pub fn fixtures() -> Vec<(String, Model)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixture dir exists; regenerate with `cargo run --example dump_milp_fixtures`")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "milp"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 16,
        "fixture corpus suspiciously small ({} files)",
        names.len()
    );
    names
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("read fixture");
            let model = Model::from_text(&text)
                .unwrap_or_else(|e| panic!("fixture {name} failed to parse: {e}"));
            // The corpus must round-trip bit-exactly, or the fixture on
            // disk is not the model we are testing.
            assert_eq!(model.to_text(), text, "fixture {name} round-trip drift");
            (name, model)
        })
        .collect()
}

/// Deterministic xorshift stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One seeded bound set: usually random binary fixings over the model's own
/// bounds, sometimes the model's bounds untouched (`None`), a crossed
/// `lo > hi` pair, or everything fixed to its upper bound (infeasible on
/// any contended fixture).
pub fn bound_set(rng: &mut Rng, own: &[(f64, f64)], binaries: &[usize]) -> Option<Vec<(f64, f64)>> {
    let mut b = own.to_vec();
    match rng.below(10) {
        0 => return None,
        1 => {
            let j = rng.below(b.len());
            b[j] = (1.0, 0.0);
        }
        2 => {
            for &j in binaries {
                b[j] = (1.0, 1.0);
            }
        }
        _ => {
            let one_in = 2 + rng.below(6);
            for &j in binaries {
                if rng.below(one_in) == 0 {
                    let v = rng.below(2) as f64;
                    b[j] = (v, v);
                }
            }
        }
    }
    Some(b)
}
