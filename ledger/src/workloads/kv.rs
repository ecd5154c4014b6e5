//! `serve-kv`: the multi-tenant KV service on the 4-node software DSM,
//! open loop in virtual time.
//!
//! The same `swdsm` layer as `kernels-swdsm`, used differently: 64-byte
//! gets beside puts, sparse one-slot diffs instead of SOR's dense rows,
//! a telemetry record and a sketch update on every request, and under
//! `chaos` the retry and de-duplication path. Three legs:
//!
//! * `hot`: a store small enough to stay cached, at a high rate;
//! * `wide`: sixteen times the keys at a fifth of the rate, so gets keep
//!   fetching pages and puts keep shipping one-slot diffs;
//! * `chaos`: `wide` under a seeded drop/duplicate/delay/reorder plan.
//!
//! The op streams are generated inside `apps::kv` from the seed the
//! configuration carries. Each leg's checksum is compared with that of an
//! SMP run of the same configuration made during set-up: faults may cost
//! time, never writes.

use super::kernels::{count_run, module_counters, run_on_hamster, RankBody, NODES};
use super::{pinned_cost, RepOut, Workload};
use crate::json::Json;
use crate::span::Lane;
use apps::kv::{serve, KvConfig, LoadGen};
use apps::{BenchResult, World};
use hamster_core::{ClusterConfig, Hamster, PlatformKind, Telemetry};
use interconnect::fault::{FaultPlan, LinkFaults};
use std::time::Instant;

/// Width of the telemetry's virtual-time windows (1 ms).
const WINDOW_NS: u64 = 1_000_000;

/// The tenant whose latency is reported: the read-heavy,
/// latency-sensitive profile, half of all requests.
const TENANT: usize = 0;

struct Leg {
    name: &'static str,
    kv: KvConfig,
    faults: Option<FaultPlan>,
    /// The SMP run's checksum for this configuration.
    want: u64,
    rate_metric: &'static str,
    p99_metric: &'static str,
    getpages_metric: Option<&'static str>,
}

impl Leg {
    fn requests(&self) -> u64 {
        (NODES * self.kv.rounds * self.kv.batch) as u64
    }
}

/// The fault plan of the `chaos` leg: every link drops, duplicates,
/// delays and reorders with the given seed; no node crashes.
pub fn chaos_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed);
    plan.default_link = LinkFaults {
        drop_ppm: 30_000,
        dup_ppm: 20_000,
        delay_ppm: 50_000,
        delay_ns: 200_000,
        reorder_ppm: 20_000,
        reorder_window_ns: 100_000,
    };
    plan
}

fn kv_config(seed: u64, keys_per_part: usize, batch: usize, arrival_ns: u64) -> KvConfig {
    KvConfig {
        keys_per_part,
        rounds: 10,
        batch,
        clients: 2000,
        tenants: 3,
        seed,
        load: LoadGen::OpenLoop,
        arrival_ns,
        think_ns: 200_000,
        service_ns: 2_000,
    }
}

fn config(platform: PlatformKind, faults: Option<FaultPlan>) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(NODES, platform);
    cfg.cost = pinned_cost();
    cfg.faults = faults;
    cfg
}

struct ServeBody<'a> {
    kv: &'a KvConfig,
    tel: &'a Telemetry,
}

impl RankBody for ServeBody<'_> {
    type Out = (BenchResult, [u64; 5]);
    fn run<W: World>(&self, w: &W, ham: &Hamster) -> Self::Out {
        let result = serve(w, self.kv, self.tel);
        (result, module_counters(ham))
    }
}

/// The workload, set up.
pub struct ServeKv {
    legs: Vec<Leg>,
}

/// The checksum an SMP run of `kv` produces.
fn smp_reference(kv: &KvConfig) -> u64 {
    let tel = Telemetry::new(kv.tenants, WINDOW_NS);
    let run = run_on_hamster(
        &config(PlatformKind::Smp, None),
        &mut Lane::off(),
        0,
        &ServeBody { kv, tel: &tel },
    );
    let results: Vec<BenchResult> = run.ranks.into_iter().map(|(r, _)| r).collect();
    BenchResult::merge(&results).checksum
}

impl ServeKv {
    pub fn new(seed: u64) -> Self {
        let hot = kv_config(seed, 1024, 10_000, 20_000);
        let wide = kv_config(seed, 16_384, 1_500, 100_000);
        let hot_want = smp_reference(&hot);
        let wide_want = smp_reference(&wide);
        Self {
            legs: vec![
                Leg {
                    name: "hot",
                    kv: hot,
                    faults: None,
                    want: hot_want,
                    rate_metric: "apps.kv.hot_req_per_s",
                    p99_metric: "apps.kv.hot_p99_us",
                    getpages_metric: Some("apps.kv.hot_getpages_per_req"),
                },
                Leg {
                    name: "wide",
                    kv: wide.clone(),
                    faults: None,
                    want: wide_want,
                    rate_metric: "apps.kv.wide_req_per_s",
                    p99_metric: "apps.kv.wide_p99_us",
                    getpages_metric: Some("apps.kv.wide_getpages_per_req"),
                },
                Leg {
                    name: "chaos",
                    kv: wide,
                    faults: Some(chaos_plan(seed)),
                    want: wide_want,
                    rate_metric: "apps.kv.chaos_req_per_s",
                    p99_metric: "apps.kv.chaos_p99_us",
                    getpages_metric: None,
                },
            ],
        }
    }
}

impl Workload for ServeKv {
    fn sizes(&self) -> Json {
        Json::obj([
            ("nodes", Json::from(NODES as u64)),
            ("ethernet_bytes_per_sec", Json::from(super::PINNED_ETHERNET_BPS)),
            (
                "legs",
                Json::Arr(
                    self.legs
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("name", Json::from(l.name)),
                                ("keys_per_part", Json::from(l.kv.keys_per_part as u64)),
                                ("arrival_ns", Json::from(l.kv.arrival_ns)),
                                ("requests", Json::from(l.requests())),
                                ("faults", Json::from(l.faults.is_some())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn rep(&self, lane: &mut Lane<'_>, parent: u64) -> RepOut {
        let mut out = RepOut::default();
        for leg in &self.legs {
            let started = Instant::now();
            let tel = Telemetry::new(leg.kv.tenants, WINDOW_NS);
            let cfg = config(PlatformKind::SwDsm, leg.faults.clone());
            let run = lane.scope(parent, &format!("leg:{}", leg.name), |lane, leg_id| {
                run_on_hamster(&cfg, lane, leg_id, &ServeBody { kv: &leg.kv, tel: &tel })
            });
            let wall_s = started.elapsed().as_secs_f64();
            count_run(&mut out, PlatformKind::SwDsm, &run);

            let results: Vec<&BenchResult> = run.ranks.iter().map(|(r, _)| r).collect();
            let agreed = results.iter().all(|r| r.checksum == results[0].checksum);
            let wrong = !agreed || results[0].checksum != leg.want;
            out.check(leg.requests(), if wrong { leg.requests() } else { 0 }, || {
                format!(
                    "kv {}: checksum {:#018x}, SMP reference {:#018x}",
                    leg.name, results[0].checksum, leg.want
                )
            });
            out.sim_ns += results.iter().map(|r| r.total_ns).max().unwrap_or(0);
            out.work += leg.requests();

            let q = tel.tenant_quantiles(TENANT);
            out.values.insert(leg.rate_metric, leg.requests() as f64 / wall_s);
            out.values.insert(leg.p99_metric, q.p99 as f64 / 1e3);
            if leg.name == "wide" {
                out.values.insert("apps.kv.wide_p50_us", q.p50 as f64 / 1e3);
            }
            if let Some(metric) = leg.getpages_metric {
                let getpages = run.platform.get("getpages").copied().unwrap_or(0);
                out.values.insert(metric, getpages as f64 / leg.requests() as f64);
            }
            for (_, modules) in &run.ranks {
                for (metric, v) in super::kernels::MODULE_METRICS.iter().zip(modules) {
                    out.count(metric, *v);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_follows_the_seed() {
        assert_eq!(chaos_plan(42), chaos_plan(42));
        assert_ne!(chaos_plan(42), chaos_plan(43));
        let d = |seed| (0..64).map(|i| chaos_plan(seed).decide(0, 1, 7, i)).collect::<Vec<_>>();
        assert_eq!(d(42), d(42));
        assert_ne!(d(42), d(43));
    }

    #[test]
    fn op_stream_follows_the_seed() {
        // The stream is generated inside `apps::kv`; what it decides is
        // visible in the checksum of the gets it issued.
        let sum = |seed| smp_reference(&kv_config(seed, 64, 50, 20_000));
        assert_eq!(sum(42), sum(42));
        assert_ne!(sum(42), sum(43));
    }
}
