//! The per-tenant session cache gluing the Session API to the
//! [`smartpaf_heinfer::serve`] front end.
//!
//! Planning and keygen are the expensive per-tenant steps (a trace
//! search plus a full CKKS key chain); [`SessionCache`] pays them once
//! per tenant — the first request builds the [`CompiledSession`]
//! through a caller-supplied factory, every later request reuses it.
//! The cache implements [`BatchService`], so
//! [`serve_sessions`] is all it takes to stand up a serving front end
//! over compiled sessions.

use crate::registry::{PlanRegistry, RegistryError};
use crate::session::{CompiledSession, SessionBuilder, SessionError};
use smartpaf_heinfer::serve::{BatchService, ServeConfig, Server, TenantId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Lazily built, cached `CompiledSession` per tenant.
///
/// The factory maps a [`TenantId`] to a compiled session — typically
/// `Session::builder(...).seed(tenant).plan()?.compile()` — and runs
/// once per tenant while the session stays healthy. A serving failure
/// that poisons the session
/// ([`SessionError::poisons_session`]) evicts the entry, so the next
/// request rebuilds instead of reusing a broken worker pool; all other
/// errors (bad inputs above all) keep the session cached.
pub struct SessionCache<F> {
    build: F,
    sessions: HashMap<TenantId, CompiledSession>,
    hits: usize,
    misses: usize,
    packed: bool,
}

impl<F> SessionCache<F>
where
    F: FnMut(TenantId) -> Result<CompiledSession, SessionError>,
{
    /// Creates an empty cache around the session factory.
    pub fn new(build: F) -> Self {
        SessionCache {
            build,
            sessions: HashMap::new(),
            hits: 0,
            misses: 0,
            packed: false,
        }
    }

    /// Switches batches onto the slot-packing path:
    /// [`BatchService::run_batch`] multiplexes each lane-group of
    /// inputs into one ciphertext
    /// ([`CompiledSession::infer_batch_packed`]), and
    /// [`BatchService::lane_capacity`] reports each tenant's real
    /// capacity so a packing-aware batcher
    /// (`ServeConfig::pack_lanes`) fills slot lanes before growing
    /// worker batches.
    pub fn with_packing(mut self, packed: bool) -> Self {
        self.packed = packed;
        self
    }

    /// True when batches run slot-packed.
    pub fn packing(&self) -> bool {
        self.packed
    }

    /// The tenant's session, building (plan + compile + keygen) on
    /// first use.
    pub fn session(&mut self, tenant: TenantId) -> Result<&mut CompiledSession, SessionError> {
        match self.sessions.entry(tenant) {
            Entry::Occupied(e) => {
                self.hits += 1;
                Ok(e.into_mut())
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                Ok(v.insert((self.build)(tenant)?))
            }
        }
    }

    /// Pre-builds a tenant's session so its first request skips the
    /// compile hit.
    pub fn warm(&mut self, tenant: TenantId) -> Result<(), SessionError> {
        self.session(tenant).map(|_| ())
    }

    /// Cache lookups answered by an already-built session.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache lookups that built a session (once per healthy tenant; a
    /// failed build counts and retries on the next lookup, and an
    /// evicted session rebuilds).
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Applies the poisoning policy to a serving failure: when `err`
    /// [poisons the session](SessionError::poisons_session), the
    /// tenant's entry is dropped (returning `true`) so the next
    /// request rebuilds; otherwise the cached session stays. Callers
    /// running sessions outside [`BatchService::run_batch`] — which
    /// applies this automatically — should report failures here.
    pub fn evict_if_poisoned(&mut self, tenant: TenantId, err: &SessionError) -> bool {
        err.poisons_session() && self.sessions.remove(&tenant).is_some()
    }

    /// Tenants with a built session.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True before any session was built.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

impl<F> BatchService for SessionCache<F>
where
    F: FnMut(TenantId) -> Result<CompiledSession, SessionError> + Send,
{
    type Error = SessionError;

    fn run_batch(
        &mut self,
        tenant: TenantId,
        inputs: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, SessionError> {
        let packed = self.packed;
        let result = self.session(tenant).and_then(|session| {
            let run = if packed {
                session.infer_batch_packed(inputs)?
            } else {
                session.infer_batch(inputs)?
            };
            Ok(run.outputs)
        });
        if let Err(e) = &result {
            self.evict_if_poisoned(tenant, e);
        }
        result
    }

    fn lane_capacity(&mut self, tenant: TenantId) -> usize {
        if !self.packed {
            return 1;
        }
        // The capacity is a property of the tenant's compiled session;
        // a failed build reports 1 (the error itself surfaces on the
        // actual batch).
        self.session(tenant)
            .map(|session| session.lane_capacity())
            .unwrap_or(1)
    }
}

/// Stands up a serving front end over a session factory: the batcher
/// thread owns a fresh [`SessionCache`] around `build`.
pub fn serve_sessions<F>(build: F, config: ServeConfig) -> Server<SessionCache<F>>
where
    F: FnMut(TenantId) -> Result<CompiledSession, SessionError> + Send + 'static,
{
    Server::start(SessionCache::new(build), config)
}

/// [`serve_sessions`] with slot packing on end to end: the batcher
/// fills each tenant's slot lanes before growing worker batches
/// (`config.pack_lanes` is forced on) and the cache multiplexes every
/// lane-group into one ciphertext
/// ([`CompiledSession::infer_batch_packed`]). The final
/// [`ServeStats`](smartpaf_heinfer::ServeStats) then carry the
/// slot-occupancy histogram next to the request batch-fill one.
pub fn serve_sessions_packed<F>(build: F, mut config: ServeConfig) -> Server<SessionCache<F>>
where
    F: FnMut(TenantId) -> Result<CompiledSession, SessionError> + Send + 'static,
{
    config.pack_lanes = true;
    Server::start(SessionCache::new(build).with_packing(true), config)
}

/// A session factory backed by a [`PlanRegistry`]: a tenant's first
/// request compiles straight from a shipped plan artifact when one
/// matches the tenant's model (no planner run at all, see
/// [`PlanRegistry::load_plan`]); otherwise it plans and publishes the
/// fresh plan back, so the next process serving this tenant skips the
/// search. Wrap the result in [`SessionCache::new`] or hand it to
/// [`serve_sessions`].
///
/// `builder_for` must produce a fresh [`SessionBuilder`] for the same
/// tenant on every call (it is called again when no exact artifact
/// matches).
///
/// # Example
///
/// ```
/// use smartpaf::{serve::registry_factory, PlanRegistry, Session, SessionCache};
/// use smartpaf_ckks::CkksParams;
/// use smartpaf_nn::Linear;
/// use smartpaf_tensor::Rng64;
///
/// let dir = std::env::temp_dir().join("smartpaf-registry-factory-doc");
/// let registry = PlanRegistry::open(&dir).unwrap();
/// let mut cache = SessionCache::new(registry_factory(registry, |tenant| {
///     let mut rng = Rng64::new(tenant);
///     Session::builder(&[4])
///         .affine(Linear::new(4, 4, &mut rng))
///         .relu(2.0)
///         .params(CkksParams::toy())
///         .seed(tenant)
/// }));
/// cache.warm(1).unwrap(); // plans (or loads) + compiles + publishes
/// ```
pub fn registry_factory<B>(
    registry: PlanRegistry,
    mut builder_for: B,
) -> impl FnMut(TenantId) -> Result<CompiledSession, SessionError>
where
    B: FnMut(TenantId) -> SessionBuilder,
{
    move |tenant| match registry.load_plan(builder_for(tenant)) {
        Ok(plan) => plan.compile(),
        Err(RegistryError::Session(e)) => Err(e),
        Err(_) => {
            // No (usable) artifact: plan fresh and publish best-effort
            // (a read-only registry still serves).
            let plan = builder_for(tenant).plan()?;
            let _ = registry.save_plan(&plan);
            plan.compile()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use smartpaf_ckks::CkksParams;
    use smartpaf_heinfer::RunError;
    use smartpaf_nn::Linear;
    use smartpaf_tensor::Rng64;

    fn toy_session(tenant: TenantId) -> Result<CompiledSession, SessionError> {
        let mut rng = Rng64::new(tenant);
        Session::builder(&[4])
            .affine(Linear::new(4, 4, &mut rng))
            .relu(2.0)
            .params(CkksParams::toy())
            .seed(tenant)
            .plan()?
            .compile()
    }

    #[test]
    fn cache_builds_once_per_tenant() {
        let mut cache = SessionCache::new(toy_session);
        assert!(cache.is_empty());
        let x = [0.4, -0.2, 0.8, -0.6];
        let a = cache.run_batch(1, &[x.to_vec()]).unwrap();
        let b = cache.run_batch(1, &[x.to_vec()]).unwrap();
        let c = cache.run_batch(2, &[x.to_vec()]).unwrap();
        assert_eq!(cache.misses(), 2, "two tenants, one build each");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 2);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        // Different tenants hold different keys and weights.
        assert_ne!(a[0], c[0]);
    }

    #[test]
    fn warm_prepays_the_compile() {
        let mut cache = SessionCache::new(toy_session);
        cache.warm(9).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (1, 0));
        cache.run_batch(9, &[vec![0.1, 0.2, 0.3, 0.4]]).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn factory_errors_surface_as_session_errors() {
        let mut cache = SessionCache::new(|_t| {
            Session::builder(&[4])
                .relu(1.0)
                .params(CkksParams {
                    depth: 3, // nothing fits 3 levels
                    ..CkksParams::toy()
                })
                .plan()?
                .compile()
        });
        let err = cache.run_batch(0, &[vec![0.0; 4]]).unwrap_err();
        assert!(
            matches!(err, SessionError::NoFeasibleForm { .. }),
            "got {err:?}"
        );
        // The failed build is not cached; the next lookup retries.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn input_errors_keep_the_session_cached() {
        // A bad request is the client's fault, not the session's: the
        // expensive plan + keygen must survive it (evicting here would
        // hand one misbehaving client a rebuild-per-request DoS lever).
        let mut cache = SessionCache::new(toy_session);
        cache.warm(3).unwrap();
        let err = cache.run_batch(3, &[vec![0.0; 9]]).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Run(RunError::InputTooLong { len: 9, max: 4 })
        ));
        assert_eq!(cache.len(), 1, "input errors must not evict");
        cache.run_batch(3, &[vec![0.1, 0.2, 0.3, 0.4]]).unwrap();
        assert_eq!((cache.misses(), cache.hits()), (1, 2), "no rebuild");
    }

    #[test]
    fn poisoned_sessions_are_evicted_and_rebuilt() {
        let mut cache = SessionCache::new(toy_session);
        cache.warm(5).unwrap();
        let x = [0.4, -0.2, 0.8, -0.6];
        let before = cache.run_batch(5, &[x.to_vec()]).unwrap();

        // A non-poisoning failure leaves the entry alone…
        let benign = SessionError::Run(RunError::InputTooLong { len: 9, max: 4 });
        assert!(!cache.evict_if_poisoned(5, &benign));
        assert_eq!(cache.len(), 1);

        // …a poisoning one drops it, and the next request rebuilds a
        // session that serves identically (same tenant seed).
        let poison = SessionError::Run(RunError::WorkerPanicked);
        assert!(cache.evict_if_poisoned(5, &poison));
        assert_eq!(cache.len(), 0);
        // Evicting an already-absent tenant is a no-op.
        assert!(!cache.evict_if_poisoned(5, &poison));

        let after = cache.run_batch(5, &[x.to_vec()]).unwrap();
        assert_eq!(cache.misses(), 2, "the poisoned entry was rebuilt");
        assert_eq!(before, after, "rebuild is deterministic per tenant");
    }

    #[test]
    fn packed_cache_serves_within_noise_of_the_unpacked_path() {
        let mut plain = SessionCache::new(toy_session);
        let mut packed = SessionCache::new(toy_session).with_packing(true);
        assert!(!plain.packing());
        assert!(packed.packing());
        // Packing off never builds a session just to report capacity.
        assert_eq!(plain.lane_capacity(1), 1);
        assert!(plain.is_empty());
        // Packing on reports the tenant's real capacity (toy ring: 128
        // slots over a dim-4 pipeline).
        assert_eq!(packed.lane_capacity(1), 32);
        assert_eq!(packed.len(), 1);

        let inputs: Vec<Vec<f64>> = (0..6)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 - 12.0) / 12.0).collect())
            .collect();
        let a = plain.run_batch(1, &inputs).unwrap();
        let b = packed.run_batch(1, &inputs).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(b.len(), 6);
        for (ya, yb) in a.iter().zip(&b) {
            for (va, vb) in ya.iter().zip(yb) {
                assert!((va - vb).abs() < 0.1, "{va} vs {vb}");
            }
        }
    }

    #[test]
    fn registry_factory_ships_plans_across_caches() {
        use crate::registry::PlanRegistry;

        let dir =
            std::env::temp_dir().join(format!("smartpaf-serve-registry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = PlanRegistry::open(&dir).unwrap();
        let builder_for = |tenant: TenantId| {
            let mut rng = Rng64::new(tenant);
            crate::session::Session::builder(&[4])
                .affine(Linear::new(4, 4, &mut rng))
                .relu(2.0)
                .params(CkksParams::toy())
                .seed(tenant)
        };

        // First cache: no artifact yet → plans and publishes.
        let mut first = SessionCache::new(registry_factory(registry.clone(), builder_for));
        let x = [0.4, -0.2, 0.8, -0.6];
        let a = first.run_batch(1, &[x.to_vec()]).unwrap();
        assert_eq!(registry.list().unwrap().len(), 1, "plan published");

        // Second cache (a fresh process in spirit): compiles from the
        // artifact without planning, and serves bit-identically.
        let mut second = SessionCache::new(registry_factory(registry.clone(), builder_for));
        let b = second.run_batch(1, &[x.to_vec()]).unwrap();
        assert_eq!(a, b, "shipped plan serves bit-identically");
        let report = second.session(1).unwrap().plan_report().to_string();
        assert!(
            report.contains("0 dry run(s)"),
            "loaded plan ran no search: {report}"
        );
    }
}
