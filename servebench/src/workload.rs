//! The three workloads: their fixed inputs, and the seeded request streams
//! the clients send.
//!
//! Every stream is made of whole *rounds*. A round leaves the EDB exactly as
//! it found it (each retract is re-inserted, each inserted edge retracted),
//! so every run serves the same model sizes whatever its length, and the
//! share of each request kind is the same in every run.

use crate::oracle::DistOracle;
use inflog_core::graphs::DiGraph;
use inflog_core::{Database, Universe};
use inflog_eval::materialize::Engine;
use inflog_syntax::{parse_program, Program};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

/// Core graph of both TC workloads: `G(160, 0.08)` drawn with seed 23.
pub const TC_CORE: usize = 160;
pub const TC_P: f64 = 0.08;
pub const TC_GRAPH_SEED: u64 = 23;
/// Bridge chain `v0 -> b0 -> b1 -> ... -> b7` hanging off the core.
pub const BRIDGES: usize = 8;
/// Leaf vertices `l0..l7`: in the universe, on no edge of the base EDB.
pub const LEAVES: usize = 8;
/// Requests per `tc_point` round: 36 queries and 4 writes.
pub const TC_POINT_ROUND: usize = 40;
/// Graph of `dist_infl`: `G(14, 0.2)` drawn with seed 1.
pub const DIST_N: usize = 14;
pub const DIST_P: f64 = 0.2;
pub const DIST_GRAPH_SEED: u64 = 1;

/// Seed of the recovery tail (see [`Workload::tail`]).
const TAIL_SEED: u64 = 0x7A11;

/// Left-linear transitive closure.
pub const TC_PROGRAM: &str = "S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TcPoint,
    TcRetract,
    DistInfl,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::TcPoint, Kind::TcRetract, Kind::DistInfl];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TcPoint => "tc_point",
            Kind::TcRetract => "tc_retract",
            Kind::DistInfl => "dist_infl",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

pub type Edge = (u32, u32);

/// One request a client sends. Queries bind a prefix of the goal's
/// arguments (the source for `S`, the pair `x, y` for `S3`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Query(Vec<u32>),
    Insert(Edge),
    Retract(Edge),
    Compact,
}

/// Request kinds, in the order every per-kind table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    Query = 0,
    Insert = 1,
    Retract = 2,
    Compact = 3,
}

impl ReqKind {
    pub const ALL: [ReqKind; 4] = [
        ReqKind::Query,
        ReqKind::Insert,
        ReqKind::Retract,
        ReqKind::Compact,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ReqKind::Query => "query",
            ReqKind::Insert => "insert",
            ReqKind::Retract => "retract",
            ReqKind::Compact => "compact",
        }
    }
}

impl Op {
    pub fn kind(&self) -> ReqKind {
        match self {
            Op::Query(_) => ReqKind::Query,
            Op::Insert(_) => ReqKind::Insert,
            Op::Retract(_) => ReqKind::Retract,
            Op::Compact => ReqKind::Compact,
        }
    }
}

/// A workload: program, engine, base EDB, and the seeded request streams.
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub program: Program,
    pub engine: Engine,
    /// The goal predicate queries ask for (`S` or `S3`) and its arity.
    pub goal: &'static str,
    pub goal_arity: usize,
    /// Base EDB, as served at epoch 0.
    pub db: Database,
    /// Constant names in universe order: constant `i` is vertex `i`.
    pub names: Vec<String>,
    pub ids: HashMap<String, u32>,
    /// Base edge set and its adjacency lists (vertex ids).
    pub base: BTreeSet<Edge>,
    pub adj: Vec<Vec<u32>>,
    /// Edges between core vertices (retract candidates of `tc_retract`).
    pub core_edges: Vec<Edge>,
    /// The bridge chain, hub edge first.
    pub bridges: Vec<Edge>,
    /// `dist_infl`: each writer client's own half of `E`.
    pub halves: Vec<Vec<Edge>>,
    /// `dist_infl`: source pairs `(x, y)` with `x` reaching `y`.
    pub reach_pairs: Vec<Edge>,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// `dist_infl`: the distance query's answer for every EDB state the
    /// streams can reach, computed on first use (see
    /// [`Workload::dist_oracle`]).
    dist: OnceLock<DistOracle>,
}

/// The seeded request generator of one client.
#[derive(Debug)]
pub struct Stream {
    round: u64,
    rng: StdRng,
    /// `dist_infl`: the order this client cycles through its half.
    order: Vec<Edge>,
}

impl Workload {
    pub fn build(kind: Kind, seed: u64) -> Workload {
        match kind {
            Kind::TcPoint | Kind::TcRetract => Workload::tc(kind, seed),
            Kind::DistInfl => Workload::dist(seed),
        }
    }

    fn tc(kind: Kind, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(TC_GRAPH_SEED);
        let core = DiGraph::random_gnp(TC_CORE, TC_P, &mut rng);
        let mut names: Vec<String> = (0..TC_CORE).map(|i| format!("v{i}")).collect();
        names.extend((0..BRIDGES).map(|i| format!("b{i}")));
        names.extend((0..LEAVES).map(|i| format!("l{i}")));
        let core_edges: Vec<Edge> = core.edges().collect();
        let b = |i: usize| (TC_CORE + i) as u32;
        let mut bridges = vec![(0, b(0))];
        bridges.extend((1..BRIDGES).map(|i| (b(i - 1), b(i))));
        let base: BTreeSet<Edge> = core_edges.iter().chain(&bridges).copied().collect();
        let program = parse_program(TC_PROGRAM).expect("TC program parses");
        Workload::assemble(
            kind,
            seed,
            program,
            Engine::Stratified,
            ("S", 2),
            names,
            base,
            core_edges,
            bridges,
            1,
        )
    }

    fn dist(seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(DIST_GRAPH_SEED);
        let g = DiGraph::random_gnp(DIST_N, DIST_P, &mut rng);
        let names = (0..DIST_N).map(|i| format!("v{i}")).collect();
        let base: BTreeSet<Edge> = g.edges().collect();
        let edges: Vec<Edge> = base.iter().copied().collect();
        let mut wl = Workload::assemble(
            Kind::DistInfl,
            seed,
            inflog_reductions::programs::distance_program(),
            Engine::Inflationary,
            ("S3", 4),
            names,
            base,
            edges.clone(),
            Vec::new(),
            2,
        );
        // Alternate edges between the two writers: disjoint halves.
        wl.halves = (0..2)
            .map(|c| edges.iter().skip(c).step_by(2).copied().collect())
            .collect();
        wl.reach_pairs = g.transitive_closure().into_iter().collect();
        wl
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        kind: Kind,
        seed: u64,
        program: Program,
        engine: Engine,
        (goal, goal_arity): (&'static str, usize),
        names: Vec<String>,
        base: BTreeSet<Edge>,
        core_edges: Vec<Edge>,
        bridges: Vec<Edge>,
        clients: usize,
    ) -> Workload {
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut db = Database::with_universe(Universe::range_named(&name_refs));
        db.declare_relation("E", 2).expect("fresh database");
        let mut adj = vec![Vec::new(); names.len()];
        for &(u, v) in &base {
            db.insert_named_fact("E", &[&names[u as usize], &names[v as usize]])
                .expect("interned vertices");
            adj[u as usize].push(v);
        }
        let ids = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        Workload {
            kind,
            seed,
            program,
            engine,
            goal,
            goal_arity,
            db,
            names,
            ids,
            base,
            adj,
            core_edges,
            bridges,
            halves: Vec::new(),
            reach_pairs: Vec::new(),
            clients,
            dist: OnceLock::new(),
        }
    }

    /// The distance oracle of `dist_infl` (`None` on the TC workloads).
    /// Computing it takes most of a second, so runs ask for it before they
    /// start timing.
    pub fn dist_oracle(&self) -> Option<&DistOracle> {
        (self.kind == Kind::DistInfl)
            .then(|| self.dist.get_or_init(|| DistOracle::precompute(self)))
    }

    /// Number of constants (= vertices).
    pub fn vertices(&self) -> usize {
        self.names.len()
    }

    /// The protocol line for `op`.
    pub fn line(&self, op: &Op) -> String {
        let name = |v: u32| &self.names[v as usize];
        match op {
            Op::Query(bound) => {
                let mut args: Vec<String> =
                    bound.iter().map(|&v| format!("'{}'", name(v))).collect();
                args.extend((bound.len()..self.goal_arity).map(|i| format!("q{i}")));
                format!("QUERY {}({})", self.goal, args.join(", "))
            }
            Op::Insert((u, v)) => format!("INSERT E('{}', '{}')", name(*u), name(*v)),
            Op::Retract((u, v)) => format!("RETRACT E('{}', '{}')", name(*u), name(*v)),
            Op::Compact => "COMPACT".to_string(),
        }
    }

    /// Client `client`'s request stream for this run's seed.
    pub fn stream(&self, client: usize) -> Stream {
        self.stream_with(client, self.seed)
    }

    fn stream_with(&self, client: usize, seed: u64) -> Stream {
        let mix = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(mix);
        let mut order = self.halves.get(client).cloned().unwrap_or_default();
        order.shuffle(&mut rng);
        Stream {
            round: 0,
            rng,
            order,
        }
    }

    /// The next round of `stream`.
    pub fn round(&self, s: &mut Stream) -> Vec<Op> {
        s.round += 1;
        match self.kind {
            Kind::TcPoint => self.tc_point_round(s),
            Kind::TcRetract => {
                let e = self.random_core_edge(s);
                let q1 = self.random_source(s);
                let q2 = self.random_source(s);
                vec![Op::Retract(e), q1, Op::Insert(e), q2]
            }
            Kind::DistInfl => {
                let e = s.order[(s.round - 1) as usize % s.order.len()];
                let q1 = self.random_pair(s);
                let q2 = self.random_pair(s);
                vec![Op::Retract(e), q1, Op::Insert(e), q2]
            }
        }
    }

    /// 36 bound-source queries with, at seeded positions, an insert of a
    /// core-to-leaf edge and its retract, and a bridge retract and its
    /// re-insert.
    fn tc_point_round(&self, s: &mut Stream) -> Vec<Op> {
        let (leaf_in, leaf_out, bridge_out, bridge_in) = self.tc_point_writes(s);
        let mut slots: Vec<usize> = (0..TC_POINT_ROUND).collect();
        slots.shuffle(&mut s.rng);
        let mut slots = slots[..4].to_vec();
        slots.sort_unstable();
        // Which two of the four write slots carry the leaf pair; each pair
        // keeps its own order, so the EDB holds at most one extra leaf edge
        // and lacks at most one bridge at any time.
        let pairs = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]];
        let leaf_slots = pairs[s.rng.gen_range(0..pairs.len())];
        let (mut leaf, mut bridge) = (vec![leaf_in, leaf_out], vec![bridge_out, bridge_in]);
        leaf.reverse();
        bridge.reverse();
        let mut ops = Vec::with_capacity(TC_POINT_ROUND);
        for i in 0..TC_POINT_ROUND {
            match slots.iter().position(|&p| p == i) {
                Some(k) if leaf_slots.contains(&k) => ops.push(leaf.pop().expect("two leaf ops")),
                Some(_) => ops.push(bridge.pop().expect("two bridge ops")),
                None => ops.push(self.random_source(s)),
            }
        }
        ops
    }

    fn tc_point_writes(&self, s: &mut Stream) -> (Op, Op, Op, Op) {
        let from = s.rng.gen_range(0..TC_CORE as u32);
        let leaf = (TC_CORE + BRIDGES) as u32 + s.rng.gen_range(0..LEAVES as u32);
        let bridge = self.bridges[s.rng.gen_range(0..self.bridges.len())];
        (
            Op::Insert((from, leaf)),
            Op::Retract((from, leaf)),
            Op::Retract(bridge),
            Op::Insert(bridge),
        )
    }

    fn random_core_edge(&self, s: &mut Stream) -> Edge {
        self.core_edges[s.rng.gen_range(0..self.core_edges.len())]
    }

    fn random_source(&self, s: &mut Stream) -> Op {
        Op::Query(vec![s.rng.gen_range(0..TC_CORE as u32)])
    }

    fn random_pair(&self, s: &mut Stream) -> Op {
        let (x, y) = self.reach_pairs[s.rng.gen_range(0..self.reach_pairs.len())];
        Op::Query(vec![x, y])
    }

    /// Writes sent after the load and its `COMPACT`, so that recovery
    /// replays the same WAL records in every run, whatever the seed and the
    /// run length: one round's writes on `tc_point`, four core
    /// retract/re-insert pairs on `tc_retract`, two retract/re-insert pairs
    /// per half on `dist_infl`. (The cost of a DRed retract depends on the
    /// edge, so a seeded tail would make `recover_s` depend on the seed.)
    pub fn tail(&self) -> Vec<Op> {
        let mut s = self.stream_with(self.clients, TAIL_SEED);
        match self.kind {
            Kind::TcPoint => {
                let (a, b, c, d) = self.tc_point_writes(&mut s);
                vec![a, b, c, d]
            }
            Kind::TcRetract => (0..4)
                .flat_map(|_| {
                    let e = self.random_core_edge(&mut s);
                    [Op::Retract(e), Op::Insert(e)]
                })
                .collect(),
            Kind::DistInfl => self
                .halves
                .iter()
                .flat_map(|half| {
                    let mut half = half.clone();
                    half.shuffle(&mut s.rng);
                    half.truncate(2);
                    half.into_iter()
                        .flat_map(|e| [Op::Retract(e), Op::Insert(e)])
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tc_inputs_match_the_documented_make_up() {
        let wl = Workload::build(Kind::TcPoint, 1);
        assert_eq!(wl.vertices(), TC_CORE + BRIDGES + LEAVES);
        assert_eq!(wl.core_edges.len(), 2013);
        assert_eq!(wl.base.len(), 2013 + BRIDGES);
        assert_eq!(wl.bridges[0], (0, TC_CORE as u32));
    }

    #[test]
    fn dist_inputs_match_the_documented_make_up() {
        let wl = Workload::build(Kind::DistInfl, 1);
        assert_eq!(wl.vertices(), DIST_N);
        assert_eq!(wl.base.len(), 32);
        assert_eq!((wl.halves[0].len(), wl.halves[1].len()), (16, 16));
        assert_eq!(wl.reach_pairs.len(), 113);
        let g = DiGraph::from_edges(DIST_N, wl.base.iter().copied());
        let s3 = inflog_reductions::distance::distance_query_baseline(&g);
        assert_eq!(s3.len(), 17_361);
    }

    #[test]
    fn rounds_restore_the_base_edb_and_keep_their_mix() {
        for kind in Kind::ALL {
            let wl = Workload::build(kind, 7);
            for c in 0..wl.clients {
                let mut s = wl.stream(c);
                let mut first_mix = None;
                for _ in 0..50 {
                    let ops = wl.round(&mut s);
                    let mut edges = wl.base.clone();
                    let mut mix = [0usize; 4];
                    for op in &ops {
                        mix[op.kind() as usize] += 1;
                        match op {
                            Op::Insert(e) => assert!(edges.insert(*e), "{op:?} not absent"),
                            Op::Retract(e) => assert!(edges.remove(e), "{op:?} not present"),
                            _ => {}
                        }
                    }
                    assert_eq!(edges, wl.base, "{kind:?} round must restore the EDB");
                    assert_eq!(*first_mix.get_or_insert(mix), mix);
                }
            }
            let mut edges = wl.base.clone();
            for op in wl.tail() {
                match op {
                    Op::Insert(e) => assert!(edges.insert(e)),
                    Op::Retract(e) => assert!(edges.remove(&e)),
                    _ => unreachable!("the tail holds writes only"),
                }
            }
            assert_eq!(edges, wl.base);
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let wl = Workload::build(Kind::TcPoint, 3);
        let (mut a, mut b) = (wl.stream(0), wl.stream(0));
        for _ in 0..5 {
            assert_eq!(wl.round(&mut a), wl.round(&mut b));
        }
        let mut c = Workload::build(Kind::TcPoint, 4).stream(0);
        assert_ne!(wl.round(&mut wl.stream(0)), wl.round(&mut c));
    }
}
