//! The combined detection pipeline.
//!
//! §3.2, verbatim: "First, we use the automated ReCon tool, which uses
//! machine learning to detect likely PII in network traffic without
//! needing to know the precise PII values. Second, to minimize the risk
//! of ReCon missing PII, we augment its results with PII found via direct
//! string matching on known PII. Finally, we manually verify ReCon
//! predictions and excluded false positives based on our ground-truth
//! information."
//!
//! [`CombinedDetector`] runs those three steps in order. The "manual"
//! verification step is mechanized: a ReCon prediction survives only if
//! the ground truth corroborates it — either the matcher found the same
//! type in the flow, or the value ReCon extracts from key/value context
//! equals a known ground-truth value under some encoding.

use crate::matcher::{GroundTruthMatcher, PiiFinding};
use crate::profile::GroundTruth;
use crate::recon::ReconClassifier;
use crate::types::PiiType;
use std::sync::Arc;

/// Which stage(s) of the pipeline produced a detection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Source {
    /// Only the ground-truth matcher found it.
    Matcher,
    /// Only ReCon flagged it (and verification corroborated it).
    Recon,
    /// Both stages agree.
    Both,
}

/// One verified PII detection in a flow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Detection {
    /// The PII class.
    pub pii_type: PiiType,
    /// Stage attribution.
    pub source: Source,
    /// Matcher-level findings backing this detection (empty for
    /// ReCon-only detections).
    pub findings: Vec<PiiFinding>,
}

/// Report for one scanned flow.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectorReport {
    /// Verified detections, sorted by type.
    pub detections: Vec<Detection>,
    /// ReCon predictions rejected during verification (the pipeline's
    /// false-positive count — reported in the ablation benches).
    pub rejected_predictions: Vec<PiiType>,
}

impl DetectorReport {
    /// The distinct verified PII types.
    pub fn types(&self) -> Vec<PiiType> {
        self.detections.iter().map(|d| d.pii_type).collect()
    }

    /// Whether any PII was found.
    pub fn any(&self) -> bool {
        !self.detections.is_empty()
    }
}

/// The three-step detection pipeline.
pub struct CombinedDetector {
    matcher: Arc<GroundTruthMatcher>,
    recon: Option<ReconClassifier>,
}

impl CombinedDetector {
    /// Build the pipeline for one session identity. Pass `None` for
    /// `recon` to run matcher-only (one arm of the ablation). The
    /// compiled matcher (automata and candidates) comes from the
    /// process-wide [`crate::cache`], so repeated
    /// constructions over the same identity share one compilation.
    pub fn new(truth: &GroundTruth, recon: Option<ReconClassifier>) -> Self {
        CombinedDetector {
            matcher: crate::cache::compiled(truth),
            recon,
        }
    }

    /// Access the underlying matcher (for matcher-only pipelines).
    pub fn matcher(&self) -> &GroundTruthMatcher {
        &self.matcher
    }

    /// Scan one flow to `domain` whose raw text is `text`.
    pub fn scan(&self, domain: &str, text: &str) -> DetectorReport {
        // Step 2 (run first because it is exact): string matching.
        let findings = self.matcher.scan(text);
        let mut matched_types: Vec<PiiType> = findings.iter().map(|f| f.pii_type).collect();
        matched_types.sort();
        matched_types.dedup();

        // Step 1: ReCon predictions.
        let predictions: Vec<PiiType> = match &self.recon {
            Some(clf) => clf.predict(domain, text),
            None => vec![],
        };

        // Step 3: verification — keep predictions corroborated by ground
        // truth, reject the rest.
        let mut rejected = Vec::new();
        let mut verified_recon = Vec::new();
        for t in predictions {
            if matched_types.contains(&t) {
                verified_recon.push(t); // corroborated by the matcher
            } else if self.kv_value_matches_truth(t, text) {
                verified_recon.push(t); // value checks out under some encoding
            } else {
                rejected.push(t);
            }
        }

        let mut detections = Vec::new();
        for t in PiiType::ALL {
            let in_match = matched_types.contains(&t);
            let in_recon = verified_recon.contains(&t);
            if !in_match && !in_recon {
                continue;
            }
            // (false, false) was filtered out by the `continue` above.
            let source = match (in_match, in_recon) {
                (true, true) => Source::Both,
                (true, false) => Source::Matcher,
                _ => Source::Recon,
            };
            detections.push(Detection {
                pii_type: t,
                source,
                findings: findings
                    .iter()
                    .filter(|f| f.pii_type == t)
                    .cloned()
                    .collect(),
            });
        }

        DetectorReport {
            detections,
            rejected_predictions: rejected,
        }
    }

    /// Does any k/v value under a `t`-hinted key equal a ground-truth
    /// variant of `t`?
    fn kv_value_matches_truth(&self, t: PiiType, text: &str) -> bool {
        let kv = crate::tokenize::extract_kv(text);
        for (k, v) in kv {
            if !t.key_hints().iter().any(|h| k == *h || k.contains(h)) {
                continue;
            }
            if self.matcher.encodes_value(t, &v.to_ascii_lowercase()) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recon::{ReconTrainer, TrainingFlow, TreeConfig};
    use std::collections::BTreeSet;

    fn truth() -> GroundTruth {
        GroundTruth::synthetic(99).with_device(
            "iPhone 5",
            &[("idfa", "AAAABBBB-CCCC-DDDD-EEEE-FFFF00001111")],
            Some((42.35, -71.06)),
        )
    }

    fn trained_recon() -> ReconClassifier {
        let mut trainer = ReconTrainer::new();
        for i in 0..16 {
            let has = i % 2 == 0;
            trainer.add(TrainingFlow {
                domain: "ads.tracker.com".into(),
                text: if has {
                    format!("email=user{i}@x.com&v={i}")
                } else {
                    format!("v={i}&page=home")
                },
                labels: if has {
                    [PiiType::Email].into_iter().collect()
                } else {
                    BTreeSet::new()
                },
            });
        }
        trainer.train(&TreeConfig::default())
    }

    #[test]
    fn matcher_only_detection() {
        let t = truth();
        let det = CombinedDetector::new(&t, None);
        let report = det.scan("ads.tracker.com", &format!("uid=1&email={}", t.email));
        assert_eq!(report.types(), vec![PiiType::Email]);
        assert_eq!(report.detections[0].source, Source::Matcher);
        assert!(!report.detections[0].findings.is_empty());
    }

    #[test]
    fn recon_and_matcher_agree() {
        let t = truth();
        let det = CombinedDetector::new(&t, Some(trained_recon()));
        let report = det.scan("ads.tracker.com", &format!("email={}&v=1", t.email));
        assert_eq!(report.detections[0].source, Source::Both);
        assert!(report.rejected_predictions.is_empty());
    }

    #[test]
    fn recon_prediction_verified_by_kv_value() {
        let t = truth();
        let det = CombinedDetector::new(&t, Some(trained_recon()));
        // The flow carries the REAL email but uppercased in a way the
        // structural model recognizes by the "email" key. The matcher's
        // lowercase candidate also finds it, so craft a harder case:
        // matcher disabled by scanning with recon only on structure.
        // Here we verify the kv-verification path directly.
        assert!(det.kv_value_matches_truth(
            PiiType::Email,
            &format!("email={}", t.email.to_ascii_uppercase())
        ));
        assert!(!det.kv_value_matches_truth(PiiType::Email, "email=notme@else.org"));
    }

    #[test]
    fn unverifiable_recon_prediction_is_rejected() {
        let t = truth();
        let det = CombinedDetector::new(&t, Some(trained_recon()));
        // Flow matches ReCon's structural signature ("email" token) but
        // carries somebody else's address — the controlled experiment
        // knows it is not our PII, so the prediction must be rejected.
        let report = det.scan("ads.tracker.com", "email=stranger@other.org&v=1");
        assert!(report.detections.is_empty());
        assert_eq!(report.rejected_predictions, vec![PiiType::Email]);
    }

    #[test]
    fn clean_flow_clean_report() {
        let det = CombinedDetector::new(&truth(), Some(trained_recon()));
        let report = det.scan("cdn.static.com", "GET /app.css HTTP/1.1");
        assert!(!report.any());
        assert!(report.rejected_predictions.is_empty());
    }

    #[test]
    fn multiple_types_in_one_flow() {
        let t = truth();
        let det = CombinedDetector::new(&t, None);
        let text = format!(
            "POST /collect email={}&lat=42.35&lon=-71.06&idfa={}",
            t.email, t.device_ids[0].1
        );
        let report = det.scan("x.com", &text);
        let types = report.types();
        assert!(types.contains(&PiiType::Email));
        assert!(types.contains(&PiiType::Location));
        assert!(types.contains(&PiiType::UniqueId));
    }
}

appvsweb_json::impl_json!(
    enum Source {
        Matcher,
        Recon,
        Both,
    }
);
appvsweb_json::impl_json!(struct Detection { pii_type, source, findings });
appvsweb_json::impl_json!(struct DetectorReport { detections, rejected_predictions });
