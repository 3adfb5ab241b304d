//! The artifact registry's contract at the repro seed: every artifact
//! has one renderer, its bytes do not depend on the thread count or on
//! which other artifacts were rendered in the same run, and an unknown
//! name is an error rather than a panic.

use booters_bench::{repro_config, REPRO_SEED};
use booting_the_booters::core::artifacts::{lookup, render, RunContext, REGISTRY};
use booting_the_booters::core::runreport::Artifact;
use booting_the_booters::core::scenario::Scenario;
use booting_the_booters::par::with_threads;
use std::collections::HashSet;

const SCALE: f64 = 0.05;

fn repro_scenario() -> Scenario {
    let config = repro_config(SCALE);
    assert_eq!(config.market.seed, REPRO_SEED);
    Scenario::run(config)
}

fn all_at(threads: usize) -> Vec<Artifact> {
    with_threads(threads, || {
        let scenario = repro_scenario();
        render(&RunContext::new(&scenario, SCALE), REGISTRY).expect("every artifact renders")
    })
}

#[test]
fn every_artifact_is_byte_identical_at_one_and_four_threads() {
    let one = all_at(1);
    let four = all_at(4);
    assert_eq!(one.len(), REGISTRY.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.name, b.name);
        assert!(a.body == b.body, "{} differs between 1 and 4 threads", a.name);
    }
}

#[test]
fn registry_names_are_unique() {
    let mut seen = HashSet::new();
    for spec in REGISTRY {
        assert!(seen.insert(spec.key), "key {} listed twice", spec.key);
        assert!(seen.insert(spec.file), "file {} listed twice", spec.file);
        assert_eq!(lookup(spec.file).unwrap().key, spec.key);
    }
}

#[test]
fn one_name_alone_renders_the_bytes_of_its_entry_in_all() {
    let scenario = repro_scenario();
    let all = render(&RunContext::new(&scenario, SCALE), REGISTRY).unwrap();
    for (spec, full) in REGISTRY.iter().zip(&all) {
        let alone = render(&RunContext::new(&scenario, SCALE), [lookup(spec.key).unwrap()]).unwrap();
        assert_eq!(alone.len(), 1);
        assert_eq!(alone[0].name, full.name);
        assert!(alone[0].body == full.body, "{} alone differs from all", spec.file);
    }
}

#[test]
fn an_unknown_name_is_an_error() {
    let err = lookup("fig9").err().expect("fig9 is not an artifact");
    assert!(err.to_string().contains("fig9"), "{err}");
}
