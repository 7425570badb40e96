//! The per-query measurement record and the three metrics of §6:
//!
//! 1. **Hit ratio** — fraction of queries served from the P2P system;
//! 2. **Lookup latency** — time to resolve a query and reach the node that
//!    will provide the object;
//! 3. **Transfer distance** — network latency from the querying peer to the
//!    provider.

/// Who ended up providing the requested object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// A content peer of the querier's own petal (Flower-CDN) or a listed
    /// previous downloader (Squirrel). Counts as a hit.
    ContentPeer,
    /// A directory/home peer served it from its own store. Counts as a hit.
    DirectoryPeer,
    /// The origin web server — the P2P system missed.
    OriginServer,
}

impl Provider {
    /// Stable lowercase tag (the `provider` field of `query_complete`
    /// trace events).
    pub fn label(self) -> &'static str {
        match self {
            Provider::ContentPeer => "content_peer",
            Provider::DirectoryPeer => "directory_peer",
            Provider::OriginServer => "origin",
        }
    }
}

/// How the provider was found (diagnostic breakdown; not a paper metric but
/// invaluable when validating the simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolvedVia {
    /// The querier's own gossip view / content summaries (petal-local).
    LocalView,
    /// The querier asked its directory (or Squirrel home node) directly.
    Directory,
    /// Routed over the DHT (new client in Flower-CDN; every Squirrel query).
    DhtRoute,
    /// Fallback to the origin server without any P2P resolution.
    DirectOrigin,
}

/// One completed query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Virtual time the query was issued, ms.
    pub issued_at_ms: u64,
    /// Lookup latency, ms.
    pub lookup_ms: u64,
    /// Transfer distance, ms.
    pub transfer_ms: u64,
    /// DHT hops taken, if routed.
    pub dht_hops: u32,
    pub provider: Provider,
    pub via: ResolvedVia,
}

impl QueryRecord {
    /// A query counts as a *hit* when the P2P system served it.
    pub fn is_hit(&self) -> bool {
        self.provider != Provider::OriginServer
    }
}

/// Streaming aggregate over query records.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    pub queries: u64,
    pub hits: u64,
    lookup_sum: u64,
    transfer_sum: u64,
    hop_sum: u64,
    routed: u64,
}

impl QueryStats {
    pub fn record(&mut self, q: &QueryRecord) {
        self.queries += 1;
        if q.is_hit() {
            self.hits += 1;
        }
        self.lookup_sum += q.lookup_ms;
        self.transfer_sum += q.transfer_ms;
        if q.via == ResolvedVia::DhtRoute {
            self.routed += 1;
            self.hop_sum += u64::from(q.dht_hops);
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.hits as f64 / self.queries as f64
        }
    }

    pub fn mean_lookup_ms(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.lookup_sum as f64 / self.queries as f64
        }
    }

    pub fn mean_transfer_ms(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.transfer_sum as f64 / self.queries as f64
        }
    }

    /// Mean DHT hops over routed queries only.
    pub fn mean_dht_hops(&self) -> f64 {
        if self.routed == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.routed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(hit: bool, lookup: u64, transfer: u64) -> QueryRecord {
        QueryRecord {
            issued_at_ms: 0,
            lookup_ms: lookup,
            transfer_ms: transfer,
            dht_hops: 3,
            provider: if hit {
                Provider::ContentPeer
            } else {
                Provider::OriginServer
            },
            via: ResolvedVia::DhtRoute,
        }
    }

    #[test]
    fn hit_definition_is_p2p_served() {
        assert!(q(true, 0, 0).is_hit());
        assert!(!q(false, 0, 0).is_hit());
        let dir = QueryRecord {
            provider: Provider::DirectoryPeer,
            ..q(false, 0, 0)
        };
        assert!(dir.is_hit());
    }

    #[test]
    fn stats_aggregate_correctly() {
        let mut s = QueryStats::default();
        s.record(&q(true, 100, 20));
        s.record(&q(false, 1_500, 300));
        s.record(&q(true, 200, 40));
        assert_eq!(s.queries, 3);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_lookup_ms() - 600.0).abs() < 1e-12);
        assert!((s.mean_transfer_ms() - 120.0).abs() < 1e-12);
        assert!((s.mean_dht_hops() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = QueryStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.mean_lookup_ms(), 0.0);
        assert_eq!(s.mean_dht_hops(), 0.0);
    }

    #[test]
    fn local_queries_do_not_skew_hop_mean() {
        let mut s = QueryStats::default();
        let mut local = q(true, 30, 10);
        local.via = ResolvedVia::LocalView;
        local.dht_hops = 0;
        s.record(&local);
        s.record(&q(true, 100, 10)); // routed, 3 hops
        assert!((s.mean_dht_hops() - 3.0).abs() < 1e-12);
    }
}
