//! Trust stores.
//!
//! A device's trust store is the set of root keys it accepts as chain
//! anchors. The study's methodology installs the Meddle/mitmproxy CA on
//! each test phone; in the simulation that is literally
//! [`TrustStore::add_root`] with the proxy CA's root certificate.

use crate::cert::{Certificate, CertificateChain, KeyId};
use std::collections::BTreeSet;

/// A set of trusted root keys.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrustStore {
    roots: BTreeSet<KeyId>,
}

impl TrustStore {
    /// An empty trust store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trust a new root (e.g. installing the interception proxy's CA).
    pub fn add_root(&mut self, root: &Certificate) {
        self.roots.insert(root.key);
    }

    /// Remove a root.
    pub fn remove_root(&mut self, root: &Certificate) {
        self.roots.remove(&root.key);
    }

    /// Whether `key` is a trusted anchor.
    pub fn trusts_key(&self, key: KeyId) -> bool {
        self.roots.contains(&key)
    }

    /// Full chain verification: structure, validity at `now`, host name
    /// match on the leaf, and anchoring in this store.
    pub fn verify(&self, chain: &CertificateChain, host: &str, now: u64) -> bool {
        if !chain.structurally_valid(now) {
            return false;
        }
        let Some(leaf) = chain.leaf() else {
            return false;
        };
        if !leaf.matches_host(host) {
            return false;
        }
        chain.anchor_key().is_some_and(|k| self.trusts_key(k))
    }

    /// Number of trusted roots.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;

    #[test]
    fn verify_accepts_trusted_chain() {
        let ca = CertificateAuthority::new("PublicRoot");
        let mut store = TrustStore::new();
        store.add_root(&ca.root);
        let chain = ca.chain_for("api.yelp.com");
        assert!(store.verify(&chain, "api.yelp.com", 50));
        assert!(store.verify(&chain, "m.api.yelp.com", 50)); // wildcard SAN
    }

    #[test]
    fn verify_rejects_untrusted_anchor() {
        let ca = CertificateAuthority::new("RogueRoot");
        let store = TrustStore::new();
        assert!(!store.verify(&ca.chain_for("x.com"), "x.com", 0));
    }

    #[test]
    fn verify_rejects_wrong_host() {
        let ca = CertificateAuthority::new("Root");
        let mut store = TrustStore::new();
        store.add_root(&ca.root);
        assert!(!store.verify(&ca.chain_for("a.com"), "b.com", 0));
    }

    #[test]
    fn adding_proxy_ca_enables_interception_trust() {
        let public = CertificateAuthority::new("PublicRoot");
        let proxy = CertificateAuthority::new("MeddleProxyCA");
        let mut device = TrustStore::new();
        device.add_root(&public.root);
        // Before installing the proxy CA, forged chains fail.
        assert!(!device.verify(&proxy.chain_for("bank.com"), "bank.com", 0));
        device.add_root(&proxy.root);
        assert!(device.verify(&proxy.chain_for("bank.com"), "bank.com", 0));
        device.remove_root(&proxy.root);
        assert!(!device.verify(&proxy.chain_for("bank.com"), "bank.com", 0));
    }
}

appvsweb_json::impl_json!(struct TrustStore { roots });
