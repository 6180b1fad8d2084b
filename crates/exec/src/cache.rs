//! The in-memory artifact cache.
//!
//! Three artifact kinds are memoized: assembled kernel images, profiled
//! baseline runs, and protected binaries. Keys are canonical renderings of
//! every input that determines the artifact (the workload name, the full
//! `Debug` form of the protection config, the simulator config that
//! provenance-determines a profile), so two cells asking for the same
//! thing always share one `Arc`.
//!
//! Hit/miss accounting is deterministic under any thread count: each slot
//! is claimed under the map lock (the claimer counts the miss, everyone
//! else a hit) and built exactly once behind a `OnceLock`, so for a fixed
//! job set `misses == distinct keys` and `hits == lookups − misses`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use flexprot_core::{protect, Profile, Protected, ProtectionConfig};
use flexprot_isa::Image;
use flexprot_sim::{Outcome, RunResult, SimConfig};
use flexprot_workloads::Workload;

/// A workload's baseline artifacts: the unprotected image, its clean
/// profiled run, and the execution profile — shared by every cell that
/// compares against or optimizes for the baseline.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// The unprotected image.
    pub image: Arc<Image>,
    /// Its clean run under the keyed [`SimConfig`].
    pub run: RunResult,
    /// Its execution profile.
    pub profile: Profile,
}

/// Cache hit/miss totals, surfaced as `exec_cache_hits` /
/// `exec_cache_misses` trace counters by [`crate::Engine::metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an already-claimed slot.
    pub hits: u64,
    /// Lookups that claimed (and built) a new slot.
    pub misses: u64,
}

type Slot<V> = Arc<OnceLock<V>>;
type SlotMap<V> = Mutex<HashMap<String, Slot<V>>>;

/// The shared artifact store. Cloneable values live behind `Arc`s; build
/// errors are stored too, so a failing protect is reported (not retried)
/// for every cell that asks for it.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    images: SlotMap<Arc<Image>>,
    baselines: SlotMap<Arc<Baseline>>,
    protecteds: SlotMap<Result<Arc<Protected>, String>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// Claims the slot for `key`, counting a miss for the claimer and a
    /// hit for everyone after.
    fn slot<V>(&self, map: &Mutex<HashMap<String, Slot<V>>>, key: &str) -> Slot<V> {
        let mut map = map.lock().expect("artifact cache map");
        if let Some(slot) = map.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Arc::clone(slot)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let slot = Slot::default();
            map.insert(key.to_owned(), Arc::clone(&slot));
            slot
        }
    }

    /// The workload's assembled image, compiled at most once.
    pub fn image(&self, workload: &Workload) -> Arc<Image> {
        let slot = self.slot(&self.images, workload.name);
        Arc::clone(slot.get_or_init(|| Arc::new(workload.image())))
    }

    /// The workload's baseline under `sim`: one profiled clean run, shared
    /// by every cell keyed on the same (workload, sim) pair.
    ///
    /// # Panics
    ///
    /// Panics when the workload does not exit cleanly with its reference
    /// output — the substrate would be broken.
    pub fn baseline(&self, workload: &Workload, sim: &SimConfig) -> Arc<Baseline> {
        let key = format!("{}|{sim:?}", workload.name);
        let slot = self.slot(&self.baselines, &key);
        Arc::clone(slot.get_or_init(|| {
            let image = self.image(workload);
            let (profile, run) = Profile::collect(&image, sim);
            assert_eq!(run.outcome, Outcome::Exit(0), "{} crashed", workload.name);
            assert_eq!(
                run.output,
                workload.expected_output(),
                "{} output mismatch",
                workload.name
            );
            Arc::new(Baseline {
                image,
                run,
                profile,
            })
        }))
    }

    /// The workload protected under `config`, built at most once per
    /// (workload, config, profile provenance) triple.
    ///
    /// `profile_sim` selects profile-guided protection: the profile is the
    /// baseline profile collected under that simulator config (profiles
    /// are a deterministic function of image and sim, so the sim config is
    /// the profile's provenance key).
    ///
    /// # Errors
    ///
    /// Returns the stringified pipeline error; the same error is returned
    /// for every cell sharing the key, without re-running the pipeline.
    pub fn protected(
        &self,
        workload: &Workload,
        config: &ProtectionConfig,
        profile_sim: Option<&SimConfig>,
    ) -> Result<Arc<Protected>, String> {
        let provenance = match profile_sim {
            Some(sim) => format!("profile@{sim:?}"),
            None => "unprofiled".to_owned(),
        };
        let key = format!("{}|{config:?}|{provenance}", workload.name);
        let slot = self.slot(&self.protecteds, &key);
        slot.get_or_init(|| {
            let image = self.image(workload);
            let profile = profile_sim.map(|sim| self.baseline(workload, sim));
            protect(&image, config, profile.as_deref().map(|b| &b.profile))
                .map(Arc::new)
                .map_err(|e| e.to_string())
        })
        .clone()
    }

    /// Hit/miss totals so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexprot_core::GuardConfig;

    fn rle() -> Workload {
        flexprot_workloads::by_name("rle").expect("rle kernel")
    }

    #[test]
    fn repeated_lookups_share_artifacts_and_count_hits() {
        let cache = ArtifactCache::new();
        let a = cache.image(&rle());
        let b = cache.image(&rle());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });

        let sim = SimConfig::default();
        let b1 = cache.baseline(&rle(), &sim);
        let b2 = cache.baseline(&rle(), &sim);
        assert!(Arc::ptr_eq(&b1, &b2));
        // baseline build did one nested image lookup (hit).
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 2 });
    }

    #[test]
    fn protected_is_keyed_on_config_and_provenance() {
        let cache = ArtifactCache::new();
        let plain = ProtectionConfig::new();
        let guarded = ProtectionConfig::new().with_guards(GuardConfig::with_density(1.0));
        let p1 = cache.protected(&rle(), &plain, None).unwrap();
        let p2 = cache.protected(&rle(), &plain, None).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        let g = cache.protected(&rle(), &guarded, None).unwrap();
        assert!(!Arc::ptr_eq(&p1, &g));
        let sim = SimConfig::default();
        let g_prof = cache.protected(&rle(), &guarded, Some(&sim)).unwrap();
        assert!(
            !Arc::ptr_eq(&g, &g_prof),
            "profile provenance is part of the key"
        );
    }

    #[test]
    fn repeated_protected_lookups_count_one_hit_each() {
        let cache = ArtifactCache::new();
        let config = ProtectionConfig::new();
        cache.protected(&rle(), &config, None).unwrap();
        // The build looked up the image: two misses, no hit.
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        cache.protected(&rle(), &config, None).unwrap();
        // The repeat finds the protected slot and builds nothing.
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn protect_errors_are_cached_and_reported() {
        let cache = ArtifactCache::new();
        // Watermark without guards is a config error the pipeline rejects.
        let bad = ProtectionConfig::new().with_watermark(*b"X");
        let e1 = cache.protected(&rle(), &bad, None).unwrap_err();
        let e2 = cache.protected(&rle(), &bad, None).unwrap_err();
        assert_eq!(e1, e2);
        let misses_before = cache.stats().misses;
        cache.protected(&rle(), &bad, None).unwrap_err();
        assert_eq!(cache.stats().misses, misses_before, "error came from cache");
    }
}
