//! The workspace fuzz-target registry.
//!
//! Every parser-shaped surface in the workspace registers one
//! [`FuzzTarget`] here: the entry function, a mutation dictionary of
//! syntax tokens, and a handful of seed documents. The `repro fuzz`
//! subcommand, the corpus-replay integration test, and the CI smoke
//! gate all iterate this same list, so adding a target in one place
//! wires it into all three.

use appvsweb_testkit::FuzzTarget;

/// All registered fuzz targets, in a fixed, documented order.
pub fn all() -> Vec<FuzzTarget> {
    vec![
        FuzzTarget {
            name: "json",
            run: appvsweb_json::fuzz::run,
            dict: appvsweb_json::fuzz::DICT,
            seeds: appvsweb_json::fuzz::SEEDS,
            max_len: 512,
        },
        FuzzTarget {
            name: "httpsim_codec",
            run: appvsweb_httpsim::fuzz::run_codec,
            dict: appvsweb_httpsim::fuzz::CODEC_DICT,
            seeds: appvsweb_httpsim::fuzz::CODEC_SEEDS,
            max_len: 256,
        },
        FuzzTarget {
            name: "httpsim_gzip",
            run: appvsweb_httpsim::fuzz::run_gzip,
            dict: appvsweb_httpsim::fuzz::GZIP_DICT,
            seeds: appvsweb_httpsim::fuzz::GZIP_SEEDS,
            max_len: 512,
        },
        FuzzTarget {
            name: "httpsim_wire",
            run: appvsweb_httpsim::fuzz::run_wire,
            dict: appvsweb_httpsim::fuzz::WIRE_DICT,
            seeds: appvsweb_httpsim::fuzz::WIRE_SEEDS,
            // Large enough to keep the 1024-byte chunk-boundary pins
            // inside the mutable range.
            max_len: 2048,
        },
        FuzzTarget {
            name: "pii_tokenize",
            run: appvsweb_pii::fuzz::run,
            dict: appvsweb_pii::fuzz::DICT,
            seeds: appvsweb_pii::fuzz::SEEDS,
            max_len: 512,
        },
        FuzzTarget {
            name: "pii_aho",
            run: appvsweb_pii::fuzz::run_aho,
            dict: appvsweb_pii::fuzz::AHO_DICT,
            seeds: appvsweb_pii::fuzz::AHO_SEEDS,
            max_len: 512,
        },
        FuzzTarget {
            name: "lint_lexer",
            run: appvsweb_lint::fuzz::run,
            dict: appvsweb_lint::fuzz::DICT,
            seeds: appvsweb_lint::fuzz::SEEDS,
            max_len: 512,
        },
        FuzzTarget {
            name: "lint_parse",
            run: appvsweb_lint::fuzz::run_parse,
            dict: appvsweb_lint::fuzz::PARSE_DICT,
            seeds: appvsweb_lint::fuzz::PARSE_SEEDS,
            max_len: 1024,
        },
        FuzzTarget {
            name: "tlssim_record",
            run: appvsweb_tlssim::fuzz::run,
            dict: appvsweb_tlssim::fuzz::DICT,
            seeds: appvsweb_tlssim::fuzz::SEEDS,
            max_len: 128,
        },
        FuzzTarget {
            name: "adblock_filter",
            run: appvsweb_adblock::fuzz::run,
            dict: appvsweb_adblock::fuzz::DICT,
            seeds: appvsweb_adblock::fuzz::SEEDS,
            max_len: 256,
        },
        FuzzTarget {
            name: "netsim_dns",
            run: appvsweb_netsim::fuzz::run,
            dict: appvsweb_netsim::fuzz::DICT,
            seeds: appvsweb_netsim::fuzz::SEEDS,
            max_len: 128,
        },
        FuzzTarget {
            name: "trace",
            run: appvsweb_obs::fuzz::run,
            dict: appvsweb_obs::fuzz::DICT,
            seeds: appvsweb_obs::fuzz::SEEDS,
            max_len: 1024,
        },
        FuzzTarget {
            name: "population",
            run: appvsweb_population::fuzz::run,
            dict: appvsweb_population::fuzz::DICT,
            seeds: appvsweb_population::fuzz::SEEDS,
            max_len: 1024,
        },
        FuzzTarget {
            name: "serve",
            run: appvsweb_serve::fuzz::run,
            dict: appvsweb_serve::fuzz::DICT,
            seeds: appvsweb_serve::fuzz::SEEDS,
            max_len: 1024,
        },
    ]
}

/// Look a target up by name.
pub fn find(name: &str) -> Option<FuzzTarget> {
    all().into_iter().find(|t| t.name == name)
}

/// The committed regression corpus directory for a target.
pub fn corpus_dir(name: &str) -> std::path::PathBuf {
    crate::repo_root().join("tests").join("corpus").join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_sorted_sets() {
        let names: Vec<&str> = all().iter().map(|t| t.name).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate target name");
        assert_eq!(names.len(), 14);
    }

    #[test]
    fn every_target_survives_its_own_seeds_and_dict() {
        for target in all() {
            for seed in target.seeds {
                (target.run)(seed);
            }
            for token in target.dict {
                assert!(token.len() <= target.max_len);
                (target.run)(token);
            }
        }
    }
}
