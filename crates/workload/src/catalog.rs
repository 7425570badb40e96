//! The website/object catalog.
//!
//! The paper's workload (§6.1): `|W| = 100` websites, each providing 500
//! requestable, cacheable objects; object popularity within a website is
//! Zipf; query generation is restricted to 6 *active* websites while all
//! 100 participate in churn and overlay maintenance.

use rand::Rng;

use crate::dist::Zipf;

/// A website identifier in `0..|W|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WebsiteId(pub u16);

/// One cacheable object, identified by its website and its popularity rank
/// within that website (rank 0 = most popular).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId {
    pub website: WebsiteId,
    pub rank: u16,
}

impl ObjectId {
    /// Stable 64-bit key for hashing (DHT keys, Bloom summaries).
    pub fn as_u64(self) -> u64 {
        (u64::from(self.website.0) << 32) | u64::from(self.rank)
    }

    /// Inverse of [`ObjectId::as_u64`].
    pub fn from_u64(key: u64) -> ObjectId {
        ObjectId {
            website: WebsiteId((key >> 32) as u16),
            rank: key as u16,
        }
    }
}

/// Catalog configuration.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Number of websites `|W|` (paper: 100).
    pub websites: u16,
    /// Objects per website (paper: 500).
    pub objects_per_site: u16,
    /// Number of websites whose clients actually issue queries (paper: 6).
    pub active_websites: u16,
    /// Zipf exponent for object popularity (Breslau et al.: 0.64–0.83).
    pub zipf_alpha: f64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            websites: 100,
            objects_per_site: 500,
            active_websites: 6,
            zipf_alpha: 0.8,
        }
    }
}

/// The full catalog: all websites share one popularity profile (the paper
/// applies the same Zipf to each website's 500 objects).
#[derive(Debug, Clone)]
pub struct Catalog {
    cfg: CatalogConfig,
    zipf: Zipf,
}

impl Catalog {
    pub fn new(cfg: CatalogConfig) -> Catalog {
        assert!(cfg.websites >= 1);
        assert!(cfg.active_websites <= cfg.websites);
        let zipf = Zipf::new(cfg.objects_per_site as usize, cfg.zipf_alpha);
        Catalog { cfg, zipf }
    }

    pub fn config(&self) -> &CatalogConfig {
        &self.cfg
    }

    /// Objects per website.
    pub fn objects_per_site(&self) -> u16 {
        self.cfg.objects_per_site
    }

    /// Whether clients of `ws` issue queries. Active websites are the first
    /// `active_websites` ids — which ones are active is immaterial to the
    /// metrics, only how many.
    pub fn is_active(&self, ws: WebsiteId) -> bool {
        ws.0 < self.cfg.active_websites
    }

    /// Assign an interest to a fresh peer: uniform over all websites
    /// ("each peer is randomly assigned a website from |W| to which it has
    /// interest throughout the experiment", §6.1).
    pub fn assign_interest(&self, rng: &mut impl Rng) -> WebsiteId {
        WebsiteId(rng.gen_range(0..self.cfg.websites))
    }

    /// Draw one Zipf-popular object of website `ws`.
    pub fn sample_object(&self, ws: WebsiteId, rng: &mut impl Rng) -> ObjectId {
        ObjectId {
            website: ws,
            rank: self.zipf.sample(rng) as u16,
        }
    }

    /// Draw an object of `ws` that fails `already_has` (the paper's client
    /// "only poses queries for objects unavailable in its local storage").
    /// Falls back to a uniform scan if rejection sampling runs long (the
    /// peer has collected nearly everything popular).
    pub fn sample_new_object(
        &self,
        ws: WebsiteId,
        rng: &mut impl Rng,
        mut already_has: impl FnMut(ObjectId) -> bool,
    ) -> Option<ObjectId> {
        for _ in 0..64 {
            let o = self.sample_object(ws, rng);
            if !already_has(o) {
                return Some(o);
            }
        }
        // Rejection failing 64 times means the local store covers nearly
        // all of the popular mass; pick uniformly among the missing ranks.
        let missing: Vec<u16> = (0..self.cfg.objects_per_site)
            .filter(|&r| {
                !already_has(ObjectId {
                    website: ws,
                    rank: r,
                })
            })
            .collect();
        if missing.is_empty() {
            return None;
        }
        let rank = missing[rng.gen_range(0..missing.len())];
        Some(ObjectId { website: ws, rank })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn object_key_round_trips() {
        for site in [0u16, 1, 99, u16::MAX] {
            for rank in [0u16, 7, 499, u16::MAX] {
                let o = ObjectId {
                    website: WebsiteId(site),
                    rank,
                };
                assert_eq!(ObjectId::from_u64(o.as_u64()), o);
            }
        }
    }

    #[test]
    fn object_keys_are_distinct_across_catalog() {
        let mut seen = std::collections::HashSet::new();
        for site in 0..100u16 {
            for rank in 0..500u16 {
                assert!(seen.insert(
                    ObjectId {
                        website: WebsiteId(site),
                        rank
                    }
                    .as_u64()
                ));
            }
        }
    }

    #[test]
    fn active_websites_are_exactly_the_configured_count() {
        let c = Catalog::new(CatalogConfig::default());
        let active = (0..c.config().websites)
            .filter(|&w| c.is_active(WebsiteId(w)))
            .count();
        assert_eq!(active, 6);
    }

    #[test]
    fn interest_assignment_is_roughly_uniform() {
        let c = Catalog::new(CatalogConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[c.assign_interest(&mut rng).0 as usize] += 1;
        }
        for &n in counts.iter() {
            assert!((700..1_300).contains(&n), "website got {n} of 100k");
        }
    }

    #[test]
    fn sample_new_object_respects_local_store() {
        let c = Catalog::new(CatalogConfig {
            objects_per_site: 10,
            ..CatalogConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(6);
        let ws = WebsiteId(0);
        let mut have = std::collections::HashSet::new();
        // Fill the store one object at a time; each draw must be new.
        for _ in 0..10 {
            let o = c
                .sample_new_object(ws, &mut rng, |o| have.contains(&o))
                .unwrap();
            assert!(have.insert(o));
        }
        // Store is complete: nothing left to ask for.
        assert_eq!(
            c.sample_new_object(ws, &mut rng, |o| have.contains(&o)),
            None
        );
    }

    #[test]
    fn popular_objects_dominate_requests() {
        let c = Catalog::new(CatalogConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let ws = WebsiteId(3);
        let n = 50_000;
        let top10 = (0..n)
            .filter(|_| c.sample_object(ws, &mut rng).rank < 10)
            .count();
        let share = top10 as f64 / n as f64;
        // With alpha=0.8 over 500 objects the top-10 carry ~25% of mass.
        assert!((0.2..0.35).contains(&share), "top-10 share {share}");
    }
}
