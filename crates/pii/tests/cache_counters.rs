//! Pins the compiled-dictionary cache's build/hit counters for one
//! identity. The counters are process-wide, so this lives in a test
//! binary of its own: unit tests compiling other dictionaries in
//! parallel would bump them.

use appvsweb_pii::cache::{compiled, stats};
use appvsweb_pii::GroundTruth;
use std::sync::{Arc, Barrier};

#[test]
fn same_truth_compiles_once() {
    let truth = GroundTruth::synthetic(0xCAC4E).with_device(
        "Nexus 5",
        &[("imei", "354436069633711")],
        Some((42.361145, -71.057083)),
    );
    let before = stats();
    let a = compiled(&truth);
    let b = compiled(&truth.clone());
    let after = stats();
    assert!(
        Arc::ptr_eq(&a, &b),
        "equal truths must share one dictionary"
    );
    assert_eq!(after.builds - before.builds, 1);
    assert!(after.hits > before.hits);

    // Workers racing on a cold identity wait for its single build.
    let racing = GroundTruth::synthetic(0xCAC4F);
    let start = Barrier::new(4);
    let before = stats();
    let dicts: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    compiled(&racing)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = stats();
    assert!(dicts.iter().all(|d| Arc::ptr_eq(d, &dicts[0])));
    assert_eq!(after.builds - before.builds, 1);
    assert_eq!(after.hits - before.hits, 3);
}
