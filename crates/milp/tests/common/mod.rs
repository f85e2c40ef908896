//! Shared by the integration-test targets: the checked-in fixture corpus.

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
