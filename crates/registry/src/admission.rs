//! Per-tenant admission control with backpressure instead of queuing.

use atena_telemetry::{Counter, Gauge, MetricsRegistry};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

/// Per-tenant concurrency knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLimits {
    /// Maximum requests a single tenant may have in flight at once.
    pub max_inflight: usize,
    /// Seconds advertised in `Retry-After` on rejection.
    pub retry_after_secs: u64,
}

impl Default for TenantLimits {
    fn default() -> Self {
        TenantLimits {
            max_inflight: 8,
            retry_after_secs: 1,
        }
    }
}

/// Why a request was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionRejection {
    /// The tenant that hit its limit.
    pub tenant: String,
    /// The configured per-tenant inflight cap.
    pub limit: usize,
    /// Suggested `Retry-After` seconds.
    pub retry_after_secs: u64,
}

impl fmt::Display for AdmissionRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant {} at inflight limit {}", self.tenant, self.limit)
    }
}

struct AdmissionTelemetry {
    accepted: Counter,
    rejected: Counter,
    inflight: Gauge,
}

impl AdmissionTelemetry {
    fn from_registry(reg: &MetricsRegistry) -> Self {
        Self {
            accepted: reg.counter("admission.accepted"),
            rejected: reg.counter("admission.rejected"),
            inflight: reg.gauge("admission.inflight"),
        }
    }
}

struct AdmissionInner {
    per_tenant: BTreeMap<String, usize>,
    total: usize,
}

/// Grants bounded per-tenant concurrency: a request either gets a
/// [`Permit`] immediately or is rejected — nothing ever queues, so one
/// hot tenant cannot build an unbounded backlog that starves the rest.
pub struct AdmissionController {
    limits: TenantLimits,
    inner: Mutex<AdmissionInner>,
    telemetry: RwLock<AdmissionTelemetry>,
}

impl fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionController")
            .field("max_inflight", &self.limits.max_inflight)
            .finish()
    }
}

impl AdmissionController {
    /// Create a controller reporting `admission.*` to the global registry.
    pub fn new(limits: TenantLimits) -> Self {
        AdmissionController {
            limits,
            inner: Mutex::new(AdmissionInner {
                per_tenant: BTreeMap::new(),
                total: 0,
            }),
            telemetry: RwLock::new(AdmissionTelemetry::from_registry(atena_telemetry::global())),
        }
    }

    /// Re-point telemetry at a private registry (tests, embedded servers).
    pub fn reroute_telemetry(&self, reg: &MetricsRegistry) {
        let mut t = self.telemetry.write().expect("telemetry lock poisoned");
        *t = AdmissionTelemetry::from_registry(reg);
    }

    /// The configured limits.
    pub fn limits(&self) -> TenantLimits {
        self.limits
    }

    /// Try to admit one request for `tenant`. The returned [`Permit`]
    /// releases the slot on drop (success and error paths alike).
    pub fn try_acquire(self: &Arc<Self>, tenant: &str) -> Result<Permit, AdmissionRejection> {
        let admitted = {
            let mut inner = self.inner.lock().expect("admission lock poisoned");
            let count = inner.per_tenant.entry(tenant.to_string()).or_insert(0);
            if *count >= self.limits.max_inflight {
                false
            } else {
                *count += 1;
                inner.total += 1;
                true
            }
        };
        let t = self.telemetry.read().expect("telemetry lock poisoned");
        if admitted {
            t.accepted.inc();
            t.inflight
                .set(self.inner.lock().expect("admission lock poisoned").total as f64);
            drop(t);
            Ok(Permit {
                controller: Arc::clone(self),
                tenant: tenant.to_string(),
            })
        } else {
            t.rejected.inc();
            Err(AdmissionRejection {
                tenant: tenant.to_string(),
                limit: self.limits.max_inflight,
                retry_after_secs: self.limits.retry_after_secs,
            })
        }
    }

    /// Requests currently in flight for `tenant`.
    pub fn inflight(&self, tenant: &str) -> usize {
        let inner = self.inner.lock().expect("admission lock poisoned");
        inner.per_tenant.get(tenant).copied().unwrap_or(0)
    }

    /// Requests currently in flight across all tenants.
    pub fn total_inflight(&self) -> usize {
        self.inner.lock().expect("admission lock poisoned").total
    }

    fn release(&self, tenant: &str) {
        let total = {
            let mut inner = self.inner.lock().expect("admission lock poisoned");
            if let Some(count) = inner.per_tenant.get_mut(tenant) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    inner.per_tenant.remove(tenant);
                }
            }
            inner.total = inner.total.saturating_sub(1);
            inner.total
        };
        let t = self.telemetry.read().expect("telemetry lock poisoned");
        t.inflight.set(total as f64);
    }
}

/// RAII admission slot; dropping it frees the tenant's inflight slot.
pub struct Permit {
    controller: Arc<AdmissionController>,
    tenant: String,
}

impl fmt::Debug for Permit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Permit")
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.controller.release(&self.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(max_inflight: usize) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(TenantLimits {
            max_inflight,
            retry_after_secs: 2,
        }))
    }

    #[test]
    fn permits_bound_per_tenant_concurrency() {
        let c = controller(2);
        let p1 = c.try_acquire("t").unwrap();
        let _p2 = c.try_acquire("t").unwrap();
        let err = c.try_acquire("t").unwrap_err();
        assert_eq!(err.limit, 2);
        assert_eq!(err.retry_after_secs, 2);
        // Other tenants are isolated.
        let _other = c.try_acquire("u").unwrap();
        assert_eq!(c.inflight("t"), 2);
        assert_eq!(c.total_inflight(), 3);
        drop(p1);
        assert_eq!(c.inflight("t"), 1);
        c.try_acquire("t").unwrap();
        assert_eq!(c.inflight("t"), 1, "permit dropped immediately");
    }

    #[test]
    fn rejection_then_release_then_accept() {
        let c = controller(1);
        let p = c.try_acquire("t").unwrap();
        assert!(c.try_acquire("t").is_err());
        drop(p);
        assert!(c.try_acquire("t").is_ok());
    }

    #[test]
    fn telemetry_counts_accepts_and_rejects() {
        let metrics = MetricsRegistry::new();
        let c = controller(1);
        c.reroute_telemetry(&metrics);
        let p = c.try_acquire("t").unwrap();
        let _ = c.try_acquire("t");
        let _ = c.try_acquire("t");
        drop(p);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("admission.accepted"), Some(1));
        assert_eq!(snap.counter("admission.rejected"), Some(2));
    }
}
