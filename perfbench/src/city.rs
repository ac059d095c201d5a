//! The `city_sweep` workload: `choir-city`'s closed-form capacity sweep.

use choir_city::model::Scheme;
use choir_city::sim::{run_city, CityConfig, CityStats};
use choir_pool::ThreadPool;

use crate::clock::Stamp;

/// Gateways in the simulated city.
pub const GATEWAYS: u32 = 100;
/// Clients per gateway (10⁶ clients in all).
pub const CLIENTS_PER_GW: u32 = 10_000;
/// Simulated slots per run.
pub const SLOTS: u32 = 400;
/// Offered load points, frames per slot per gateway (the committed
/// `city_capacity` bench's points).
pub const LOADS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];

/// The configuration of one load point; the run seed seeds the city.
pub fn config(seed: u64, load: f64) -> CityConfig {
    let mut cfg = CityConfig::new(seed, GATEWAYS, CLIENTS_PER_GW, SLOTS);
    cfg.client.period_slots = ((f64::from(CLIENTS_PER_GW) / load).round() as u32).max(1);
    cfg.iq_slots_per_gw = 0;
    cfg
}

/// One timed `run_city` call of a sweep.
pub struct Point {
    /// Offered load of the call.
    pub load: f64,
    /// Scheme simulated.
    pub scheme: Scheme,
    /// Wall seconds of the call.
    pub wall_s: f64,
    /// Program CPU interval of the call.
    pub cpu: (f64, f64),
    /// Simulated seconds of air (slots × slot length).
    pub air_s: f64,
    /// The simulator's result.
    pub stats: CityStats,
}

/// One sweep: every scheme at every load point, on `pool`; `after_call`
/// runs between the timed calls.
pub fn sweep(seed: u64, pool: &ThreadPool, mut after_call: impl FnMut()) -> Vec<Point> {
    let mut points = Vec::new();
    for &load in &LOADS {
        let cfg = config(seed, load);
        for &scheme in &Scheme::ALL {
            let t0 = Stamp::now();
            let stats = run_city(&cfg, scheme, pool);
            let t1 = Stamp::now();
            points.push(Point {
                load,
                scheme,
                wall_s: t0.wall_to(&t1),
                cpu: (t0.cpu, t1.cpu),
                air_s: f64::from(cfg.slots) * cfg.slot_s(scheme),
                stats,
            });
            after_call();
        }
    }
    points
}

/// Simulated client-slots of one call (every client of every slot).
pub fn client_slots() -> f64 {
    f64::from(GATEWAYS) * f64::from(CLIENTS_PER_GW) * f64::from(SLOTS)
}

/// Checks one sweep's outputs: delivered ≤ offered in every scheme and
/// load, and Choir delivering at least slotted ALOHA's rate at the top
/// load.
pub fn check_sweep(points: &[Point]) -> Vec<String> {
    let mut errors = Vec::new();
    for p in points {
        let t = &p.stats.totals;
        if t.delivered > t.offered {
            errors.push(format!(
                "{} at load {}: delivered {} > offered {}",
                p.scheme.tag(),
                p.load,
                t.delivered,
                t.offered
            ));
        }
    }
    // Points run load-major, so a scheme's last point is its top load.
    let fps = |s: Scheme| {
        points
            .iter()
            .rev()
            .find(|p| p.scheme == s)
            .map_or(0.0, |p| p.stats.delivered_fps)
    };
    if fps(Scheme::Choir) < fps(Scheme::Slotted) {
        errors.push(format!(
            "Choir delivers {} fps under slotted ALOHA's {} fps at load {}",
            fps(Scheme::Choir),
            fps(Scheme::Slotted),
            LOADS[LOADS.len() - 1]
        ));
    }
    errors
}

/// The transcript digests of a sweep, in call order.
pub fn digests(points: &[Point]) -> Vec<u64> {
    points.iter().map(|p| p.stats.digest).collect()
}
