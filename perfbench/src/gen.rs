//! Seeded model documents for every workload.
//!
//! Each document is a pure function of `(seed, stream, index)`, so the
//! same `--seed` always hands the program the same inputs. The program
//! only ever sees the JSON text these functions return.

use std::fmt::Write as _;

/// Counter-based splitmix64: one independent stream per
/// `(seed, stream, index)` triple.
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Rng {
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        Rng(mix(seed.wrapping_add(GOLDEN)) ^ mix(stream.wrapping_mul(GOLDEN) ^ mix(index)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A fresh name prefix, so re-drawn documents share no structure.
    pub fn tag(&mut self) -> String {
        format!("{:08x}", self.next_u64() >> 32)
    }
}

/// One generated document plus what the benchmark needs to know about
/// it to count inner solves.
#[derive(Clone)]
pub struct Doc {
    pub text: String,
    /// `(import-free, importing)` submodel counts of a hierarchy: the
    /// first are solved once, the second once per fixed-point sweep.
    pub hierarchy: Option<(u64, u64)>,
}

impl Doc {
    fn plain(text: String) -> Doc {
        Doc {
            text,
            hierarchy: None,
        }
    }
}

fn join<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> String) -> String {
    items.into_iter().map(f).collect::<Vec<_>>().join(",")
}

// ---------------------------------------------------------------------
// serve_keepalive: small documents from the cheap model classes.

/// Model classes the serve workload cycles through.
pub const SERVE_CLASSES: [&str; 6] = [
    "rbd",
    "fault_tree",
    "rel_graph",
    "bounds",
    "ctmc",
    "hierarchy",
];

/// Distinct documents the serve workload repeats; well below the
/// daemon's 1,024-entry memo cache.
pub const SERVE_POOL: u64 = 48;

const STREAM_POOL: u64 = 1;
const STREAM_FILL: u64 = 4;
const STREAM_CLIENT: u64 = 16;

/// The pool document `p`.
pub fn serve_pool_doc(seed: u64, p: u64) -> Doc {
    small_doc(&mut Rng::new(seed, STREAM_POOL, p), p as usize)
}

/// Filler document `k`, one of those that fill the memo cache before
/// the run, as a long-running daemon's cache is full.
pub fn serve_filler_doc(seed: u64, k: u64) -> Doc {
    small_doc(&mut Rng::new(seed, STREAM_FILL, k), k as usize)
}

/// Request `j` of client `client`: odd requests repeat a pool document
/// (`Some(pool index)`), even ones are fresh.
pub fn serve_request(seed: u64, client: u64, j: u64) -> (Doc, Option<u64>) {
    let mut rng = Rng::new(seed, STREAM_CLIENT + client, j);
    if j % 2 == 1 {
        let p = rng.below(SERVE_POOL);
        (serve_pool_doc(seed, p), Some(p))
    } else {
        (small_doc(&mut rng, (j / 2 + client) as usize), None)
    }
}

fn small_doc(rng: &mut Rng, class: usize) -> Doc {
    match class % SERVE_CLASSES.len() {
        0 => {
            let a: Vec<f64> = (0..3).map(|_| rng.uniform(0.99, 0.9999)).collect();
            Doc::plain(format!(
                r#"{{"rbd":{{"components":[{{"name":"a","availability":{}}},{{"name":"b","availability":{}}},{{"name":"c","availability":{}}}],"structure":{{"series":[{{"parallel":["a","b"]}},"c"]}}}}}}"#,
                a[0], a[1], a[2]
            ))
        }
        1 => {
            let p: Vec<f64> = (0..6).map(|_| rng.uniform(1e-3, 5e-2)).collect();
            Doc::plain(format!(
                r#"{{"fault_tree":{{"events":[{{"name":"p0","probability":{}}},{{"name":"p1","probability":{}}},{{"name":"m0","probability":{}}},{{"name":"m1","probability":{}}},{{"name":"m2","probability":{}}},{{"name":"bus","probability":{}}}],"top":{{"or":[{{"and":["p0","p1"]}},{{"k_of_n":{{"k":2,"of":["m0","m1","m2"]}}}},"bus"]}}}}}}"#,
                p[0], p[1], p[2], p[3], p[4], p[5]
            ))
        }
        2 => {
            let r: Vec<f64> = (0..5).map(|_| rng.uniform(0.9, 0.999)).collect();
            Doc::plain(format!(
                r#"{{"rel_graph":{{"nodes":["s","a","c","t"],"edges":[{{"name":"sa","from":"s","to":"a","reliability":{}}},{{"name":"sc","from":"s","to":"c","reliability":{}}},{{"name":"bridge","from":"a","to":"c","reliability":{}}},{{"name":"at","from":"a","to":"t","reliability":{}}},{{"name":"ct","from":"c","to":"t","reliability":{}}}],"source":"s","sink":"t"}}}}"#,
                r[0], r[1], r[2], r[3], r[4]
            ))
        }
        3 => {
            let p: Vec<f64> = (0..4).map(|_| rng.uniform(1e-4, 1e-2)).collect();
            Doc::plain(format!(
                r#"{{"bounds":{{"events":[{{"name":"g1","probability":{}}},{{"name":"g2","probability":{}}},{{"name":"apu","probability":{}}},{{"name":"bat","probability":{}}}],"cut_sets":[["g1","g2"],["g1","apu","bat"],["g2","apu","bat"]],"path_sets":[["g1","g2"],["g1","apu"],["g1","bat"],["g2","apu"],["g2","bat"]],"truncation_order":2}}}}"#,
                p[0], p[1], p[2], p[3]
            ))
        }
        4 => {
            let (f1, f2) = (rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05));
            let (r1, r2) = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0));
            Doc::plain(format!(
                r#"{{"ctmc":{{"states":["both","one","none"],"transitions":[{{"from":"both","to":"one","rate":{f1}}},{{"from":"one","to":"both","rate":{r1}}},{{"from":"one","to":"none","rate":{f2}}},{{"from":"none","to":"one","rate":{r2}}}],"initial":"both","up_states":["both","one"],"at_times":[10,100]}}}}"#
            ))
        }
        _ => {
            let (f1, r1) = (rng.uniform(0.001, 0.01), rng.uniform(0.2, 1.0));
            let (f2, r2, f3, r3) = (
                rng.uniform(0.005, 0.02),
                rng.uniform(0.5, 2.0),
                rng.uniform(0.01, 0.05),
                rng.uniform(0.1, 0.5),
            );
            let dns = rng.uniform(0.9999, 0.99999);
            Doc {
                text: format!(
                    r#"{{"hierarchy":{{"submodels":[{{"name":"proxy","model":{{"ctmc":{{"states":["up","down"],"transitions":[{{"from":"up","to":"down","rate":{f1}}},{{"from":"down","to":"up","rate":{r1}}}],"up_states":["up"]}}}},"measure":"availability"}},{{"name":"registrar","model":{{"ctmc":{{"states":["up","degraded","down"],"transitions":[{{"from":"up","to":"degraded","rate":{f2}}},{{"from":"degraded","to":"up","rate":{r2}}},{{"from":"degraded","to":"down","rate":{f3}}},{{"from":"down","to":"up","rate":{r3}}}],"up_states":["up","degraded"]}}}},"measure":"availability"}},{{"name":"service","model":{{"rbd":{{"components":[{{"name":"proxy","availability":1}},{{"name":"registrar","availability":1}},{{"name":"dns","availability":{dns}}}],"structure":{{"series":["proxy","registrar","dns"]}}}}}},"measure":"availability","imports":[{{"from":"proxy","path":"rbd.components.0.availability"}},{{"from":"registrar","path":"rbd.components.1.availability"}}]}}],"output":"service","tolerance":1e-12,"jobs":1}}}}"#
                ),
                hierarchy: Some((2, 1)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Op sizes of the library workloads.

/// Smallest and largest per-op size factor. Each op of scenario_sweep
/// and kernel_mix draws its factor uniformly from this range and scales
/// every model in it, so op costs spread evenly over about ±40% of the
/// mean. The spread is there because of the host, not the program: on
/// a shared 2-vCPU KVM host (Xeon, 2.0 GHz) each CPU switched between a
/// fast and a slow state about 1.65x apart, each lasting seconds, so
/// ops of one fixed cost formed two latency bands and the median jumped
/// between them with the share of the run spent slow. A spread of costs wider than the gap fills the
/// space between the bands, and the median then moves with that share
/// no more than the mean does.
pub const SIZE_RANGE: (f64, f64) = (0.6, 1.4);

/// Op index of the warm-up op, outside the timed ops' range. Its size
/// factor is exactly 1, so set-up time does not depend on the seed.
pub const WARMUP_OP: u64 = u64::MAX;

fn size_factor(rng: &mut Rng, index: u64) -> f64 {
    let drawn = rng.uniform(SIZE_RANGE.0, SIZE_RANGE.1);
    if index == WARMUP_OP {
        1.0
    } else {
        drawn
    }
}

fn scaled(nominal: usize, factor: f64) -> usize {
    (nominal as f64 * factor).round() as usize
}

// ---------------------------------------------------------------------
// scenario_sweep: an uncertainty sweep and a cyclic hierarchy.

/// States of the birth–death chain inside the uncertainty document.
pub const SWEEP_STATES: usize = 96;
/// Monte-Carlo samples per uncertainty document at size factor 1.
pub const SWEEP_SAMPLES: usize = 128;
/// CTMC submodels in the cyclic hierarchy at size factor 1, each
/// importing the availability of the previous one.
pub const RING_SUBMODELS: usize = 16;
/// States of each hierarchy submodel chain.
pub const RING_STATES: usize = 96;

const STREAM_SWEEP: u64 = 2;
const STREAM_KERNEL: u64 = 3;

/// The sizes of a scenario_sweep op with size factor `size`.
pub struct SweepSizes {
    pub samples: usize,
    pub submodels: usize,
}

impl SweepSizes {
    pub fn at(size: f64) -> SweepSizes {
        SweepSizes {
            samples: scaled(SWEEP_SAMPLES, size),
            submodels: scaled(RING_SUBMODELS, size),
        }
    }
}

/// The two documents of scenario_sweep op `index`.
pub fn sweep_op(seed: u64, index: u64) -> Vec<Doc> {
    let mut rng = Rng::new(seed, STREAM_SWEEP, index);
    let sizes = SweepSizes::at(size_factor(&mut rng, index));
    vec![
        uncertainty_doc(&mut rng, sizes.samples),
        ring_doc(&mut rng, sizes.submodels),
    ]
}

/// Birth–death availability chain: `s0..s{n-1}`, failure `lambda`
/// forward, repair `mu` back, the lower half of the states up.
fn birth_death(prefix: &str, n: usize, lambda: f64, mu: f64) -> String {
    let mut transitions = String::new();
    for i in 0..n - 1 {
        if i > 0 {
            transitions.push(',');
        }
        let _ = write!(
            transitions,
            r#"{{"from":"{prefix}{i}","to":"{prefix}{}","rate":{lambda}}},{{"from":"{prefix}{}","to":"{prefix}{i}","rate":{mu}}}"#,
            i + 1,
            i + 1
        );
    }
    format!(
        r#"{{"ctmc":{{"states":[{}],"transitions":[{transitions}],"up_states":[{}]}}}}"#,
        join(0..n, |i| format!("\"{prefix}{i}\"")),
        join(0..n / 2, |i| format!("\"{prefix}{i}\"")),
    )
}

fn uncertainty_doc(rng: &mut Rng, samples: usize) -> Doc {
    let tag = rng.tag();
    let lambda = rng.uniform(0.43, 0.47);
    let mu = rng.uniform(0.49, 0.51);
    let (shape_f, shape_r) = (rng.uniform(8.0, 10.0), rng.uniform(9.0, 11.0));
    let seed = rng.below(1 << 31);
    Doc::plain(format!(
        r#"{{"uncertainty":{{"model":{},"parameters":[{{"path":"ctmc.transitions.0.rate","prior":{{"gamma":{{"shape":{shape_f},"rate":20}}}}}},{{"path":"ctmc.transitions.1.rate","prior":{{"gamma":{{"shape":{shape_r},"rate":20}}}}}}],"measure":"availability","samples":{samples},"seed":{seed},"jobs":1,"latin_hypercube":true}}}}"#,
        birth_death(&format!("{tag}-s"), SWEEP_STATES, lambda, mu)
    ))
}

fn ring_doc(rng: &mut Rng, submodels: usize) -> Doc {
    let tag = rng.tag();
    let subs = join(0..submodels, |i| {
        // Rates move by only ±0.4%: wider draws change how many
        // fixed-point sweeps the ring needs, and ops would fall into
        // two cost bands.
        let lambda = rng.uniform(0.448, 0.452);
        let mu = rng.uniform(0.498, 0.502);
        let prev = (i + submodels - 1) % submodels;
        format!(
            r#"{{"name":"{tag}-m{i}","model":{},"measure":"availability","imports":[{{"from":"{tag}-m{prev}","path":"ctmc.transitions.1.rate"}}]}}"#,
            birth_death(&format!("{tag}-m{i}s"), RING_STATES, lambda, mu)
        )
    });
    Doc {
        text: format!(
            r#"{{"hierarchy":{{"submodels":[{subs}],"output":"{tag}-m0","tolerance":1e-12,"jobs":1}}}}"#
        ),
        hierarchy: Some((0, submodels as u64)),
    }
}

// ---------------------------------------------------------------------
// kernel_mix: one document per numerical kernel, names re-drawn per op.

/// Units in the fault tree's 2-of-n vote at size factor 1; a second
/// vote over two more units follows, and each unit has 12 basic events.
pub const FT_VOTERS: usize = 10;
/// Per-stage capacity of the tandem net at size factor 1:
/// `(capacity + 1)^3` markings.
pub const SPN_CAPACITY: usize = 15;
/// Interval-availability horizon of the semi-Markov document at size
/// factor 1, hours.
pub const SMP_HORIZON: f64 = 1000.0;
/// Replications of the simulated RBD (adaptive stopping off) at size
/// factor 1.
pub const SIM_REPLICATIONS: usize = 256;
/// Trajectory length of each simulated replication, hours.
pub const SIM_HORIZON: f64 = 40000.0;

/// The sizes of a kernel_mix op with size factor `size`. Each is chosen
/// so that its solve time grows about linearly with the factor.
pub struct KernelSizes {
    /// MOCUS time grows about as the fourth power of the voters.
    pub voters: usize,
    /// Markings grow as the cube of the capacity plus one.
    pub spn_capacity: usize,
    pub smp_horizon: f64,
    pub sim_replications: usize,
}

impl KernelSizes {
    pub fn at(size: f64) -> KernelSizes {
        KernelSizes {
            voters: scaled(FT_VOTERS, size.powf(0.25)),
            spn_capacity: scaled(SPN_CAPACITY + 1, size.cbrt()) - 1,
            smp_horizon: SMP_HORIZON * size,
            sim_replications: scaled(SIM_REPLICATIONS, size),
        }
    }

    pub fn fault_tree_events(&self) -> usize {
        (self.voters + 2) * 12
    }
}

/// The documents of kernel_mix op `index`: fault tree, the tandem net
/// materialized and streamed, semi-Markov, simulated RBD.
pub fn kernel_op(seed: u64, index: u64) -> Vec<Doc> {
    let mut rng = Rng::new(seed, STREAM_KERNEL, index);
    let sizes = KernelSizes::at(size_factor(&mut rng, index));
    let spn = tandem_net(&mut rng, sizes.spn_capacity);
    vec![
        Doc::plain(fault_tree(&mut rng, sizes.voters)),
        Doc::plain(format!(r#"{{"spn":{{{spn}}}}}"#)),
        Doc::plain(format!(r#"{{"spn":{{{spn},"solver":"stream"}}}}"#)),
        Doc::plain(semi_markov(&mut rng, sizes.smp_horizon)),
        Doc::plain(sim_rbd(&mut rng, sizes.sim_replications)),
    ]
}

/// Aircraft-class fault tree: each unit is the OR of five redundant
/// pairs (AND) and two simplex parts; `voters` units vote 2-of-n into
/// one subsystem and two more units 2-of-2 into another, and the top
/// event is the OR of the subsystems.
fn fault_tree(rng: &mut Rng, voters: usize) -> String {
    let tag = rng.tag();
    let unit_count = voters + 2;
    let mut events = Vec::with_capacity(unit_count * 12);
    let mut units = Vec::with_capacity(unit_count);
    for u in 0..unit_count {
        let mut inputs = Vec::with_capacity(7);
        for i in 0..5 {
            let (a, b) = (format!("{tag}u{u}p{i}a"), format!("{tag}u{u}p{i}b"));
            inputs.push(format!(r#"{{"and":["{a}","{b}"]}}"#));
            events.push(a);
            events.push(b);
        }
        for s in 0..2 {
            let e = format!("{tag}u{u}s{s}");
            inputs.push(format!("\"{e}\""));
            events.push(e);
        }
        units.push(format!(r#"{{"or":[{}]}}"#, inputs.join(",")));
    }
    let subsystems = join([&units[..voters], &units[voters..]], |chunk| {
        format!(r#"{{"k_of_n":{{"k":2,"of":[{}]}}}}"#, chunk.join(","))
    });
    let events = join(&events, |name| {
        format!(
            r#"{{"name":"{name}","probability":{}}}"#,
            rng.uniform(1e-4, 1.1e-3)
        )
    });
    format!(r#"{{"fault_tree":{{"events":[{events}],"top":{{"or":[{subsystems}]}}}}}}"#)
}

/// Body of a three-stage tandem SRN with a vanishing 0.7/0.3
/// forward/rework split; every stage holds at most `capacity`.
fn tandem_net(rng: &mut Rng, capacity: usize) -> String {
    let t = rng.tag();
    let c = capacity;
    // Fixed rates keep the SOR iteration count, and so the solve's
    // cost, a function of the capacity alone; the names make each net
    // new.
    let (arrive, s1, s2, s3, forward) = (1.0, 2.0, 3.0, 4.0, 0.7);
    format!(
        r#""places":[{{"name":"{t}q1","tokens":0}},{{"name":"{t}q2","tokens":0}},{{"name":"{t}q3","tokens":0}},{{"name":"{t}route","tokens":0}}],"transitions":[{{"name":"{t}arrive","rate":{arrive},"outputs":[{{"place":"{t}q1"}}],"inhibitors":[{{"place":"{t}q1","count":{c}}}]}},{{"name":"{t}serve1","rate":{s1},"inputs":[{{"place":"{t}q1"}}],"outputs":[{{"place":"{t}q2"}}],"inhibitors":[{{"place":"{t}q2","count":{c}}}]}},{{"name":"{t}serve2","rate":{s2},"inputs":[{{"place":"{t}q2"}}],"outputs":[{{"place":"{t}route"}}]}},{{"name":"{t}forward","weight":{forward},"inputs":[{{"place":"{t}route"}}],"outputs":[{{"place":"{t}q3"}}],"inhibitors":[{{"place":"{t}q3","count":{c}}}]}},{{"name":"{t}rework","weight":{},"inputs":[{{"place":"{t}route"}}],"outputs":[{{"place":"{t}q2"}}]}},{{"name":"{t}serve3","rate":{s3},"inputs":[{{"place":"{t}q3"}}]}}],"max_markings":1000000,"reach_jobs":1,"expected_tokens":["{t}q1","{t}q2","{t}q3"],"throughput":["{t}serve3"]"#,
        1.0 - forward
    )
}

/// Software-rejuvenation semi-Markov process with general sojourns.
fn semi_markov(rng: &mut Rng, horizon: f64) -> String {
    let t = rng.tag();
    // The sojourn shapes set the phase-type expansion and its
    // uniformization rate, hence the cost per hour of horizon: they
    // stay fixed, and only the exponential mean and the branching vary.
    // A 4 h rejuvenation keeps the 10^3 h horizon near 12 ms per solve.
    let robust = rng.uniform(216.0, 264.0);
    let (scale, rejuv, repair) = (2160.0, 4.0, 2.0);
    let p_rejuv = rng.uniform(0.85, 0.95);
    format!(
        r#"{{"semi_markov":{{"states":[{{"name":"{t}robust","sojourn":{{"exponential":{{"mean":{robust}}}}}}},{{"name":"{t}probable","sojourn":{{"weibull":{{"shape":2,"scale":{scale}}}}}}},{{"name":"{t}rejuv","sojourn":{{"deterministic":{{"value":{rejuv}}}}}}},{{"name":"{t}failed","sojourn":{{"lognormal":{{"mean":{repair},"cv2":1}}}}}}],"transitions":[{{"from":"{t}robust","to":"{t}probable","probability":1}},{{"from":"{t}probable","to":"{t}rejuv","probability":{p_rejuv}}},{{"from":"{t}probable","to":"{t}failed","probability":{}}},{{"from":"{t}rejuv","to":"{t}robust","probability":1}},{{"from":"{t}failed","to":"{t}robust","probability":1}}],"initial":"{t}robust","up_states":["{t}robust","{t}probable"],"targets":["{t}failed"],"interval_times":[{horizon}]}}}}"#,
        1.0 - p_rejuv
    )
}

/// Workstation/file-server RBD with lognormal repairs, estimated by
/// simulation over a fixed replication budget.
fn sim_rbd(rng: &mut Rng, replications: usize) -> String {
    let t = rng.tag();
    let (ws, fs) = (5000.0, 2000.0);
    let seed = rng.below(1 << 31);
    format!(
        r#"{{"rbd":{{"components":[{{"name":"{t}ws1","ttf_dist":{{"exponential":{{"mean":{ws}}}}},"ttr_dist":{{"lognormal":{{"mean":4,"cv2":4}}}}}},{{"name":"{t}ws2","ttf_dist":{{"exponential":{{"mean":{ws}}}}},"ttr_dist":{{"lognormal":{{"mean":4,"cv2":4}}}}}},{{"name":"{t}fs","ttf_dist":{{"exponential":{{"mean":{fs}}}}},"ttr_dist":{{"lognormal":{{"mean":2,"cv2":4}}}}}}],"structure":{{"series":[{{"parallel":["{t}ws1","{t}ws2"]}},"{t}fs"]}},"sim":{{"measure":"availability","horizon":{SIM_HORIZON},"seed":{seed},"jobs":1,"max_replications":{replications},"rel_precision":0,"confidence":0.99}}}}}}"#
    )
}
