//! Correctness oracles computed apart from the engine.
//!
//! Every semantics inflog serves is a deterministic function of its EDB, so
//! each reply can be checked against the EDB of the reply's own epoch,
//! rebuilt from the acknowledged writes:
//!
//! - a TC reply `S('vK', y)` against BFS reachability over that EDB;
//! - a distance reply `S3('vX', 'vY', u, w)` against
//!   [`distance_query_baseline`] over that epoch's graph;
//! - every acknowledgement must carry an epoch above the client's previous
//!   one, and a reply may not come from an epoch older than the client's
//!   last acknowledged write.

use crate::workload::{Edge, Op, Workload};
use inflog_core::graphs::DiGraph;
use inflog_eval::Epoch;
use inflog_reductions::distance::distance_query_baseline;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// An EDB state as its difference from the base EDB: `(edge, present)` for
/// every edge whose presence differs, sorted.
pub type StateKey = Vec<(Edge, bool)>;

/// Applies one acknowledged write to a state key.
pub fn apply(wl: &Workload, key: &mut StateKey, op: &Op) {
    let (edge, present) = match op {
        Op::Insert(e) => (*e, true),
        Op::Retract(e) => (*e, false),
        Op::Query(_) | Op::Compact => return,
    };
    key.retain(|(e, _)| *e != edge);
    if wl.base.contains(&edge) != present {
        key.push((edge, present));
        key.sort_unstable();
    }
}

/// The acknowledged writes of every client, by epoch. The EDB of epoch `n`
/// is the base EDB with the writes of epochs `1..=n` applied; epoch 0 is
/// the base.
#[derive(Debug, Default)]
pub struct Ledger {
    inner: Mutex<LedgerInner>,
    grown: Condvar,
}

#[derive(Debug, Default)]
struct LedgerInner {
    /// Acknowledged writes not yet folded into `keys` (a gap below them).
    pending: BTreeMap<u64, Op>,
    /// `keys[n]` is the state key of epoch `n`, for a gap-free prefix.
    keys: Vec<StateKey>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            inner: Mutex::new(LedgerInner {
                pending: BTreeMap::new(),
                keys: vec![StateKey::new()],
            }),
            grown: Condvar::new(),
        }
    }

    /// Records that `op` was acknowledged as epoch `epoch`.
    ///
    /// # Errors
    /// When another write was already acknowledged with the same epoch.
    pub fn record(&self, wl: &Workload, epoch: u64, op: &Op) -> Result<(), String> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if (epoch as usize) < inner.keys.len() || inner.pending.contains_key(&epoch) {
            return Err(format!("epoch {epoch} acknowledged twice"));
        }
        inner.pending.insert(epoch, op.clone());
        loop {
            let next = inner.keys.len() as u64;
            let Some(op) = inner.pending.remove(&next) else {
                break;
            };
            let mut key = inner.keys.last().expect("epoch 0 is recorded").clone();
            apply(wl, &mut key, &op);
            inner.keys.push(key);
        }
        self.grown.notify_all();
        Ok(())
    }

    /// Highest epoch of the gap-free prefix.
    pub fn head(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.keys.len() as u64 - 1
    }

    /// The state key of `epoch`, waiting up to `wait` for a concurrent
    /// client to record the write that produced it.
    pub fn key_at(&self, epoch: u64, wait: Duration) -> Option<StateKey> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let (inner, _) = self
            .grown
            .wait_timeout_while(inner, wait, |i| i.keys.len() as u64 <= epoch)
            .unwrap_or_else(PoisonError::into_inner);
        inner.keys.get(epoch as usize).cloned()
    }
}

/// How long a reader waits for another client's acknowledgement to land in
/// the ledger. The other client records it right after its reply arrives,
/// so this only runs out when the epoch was never acknowledged.
pub const LEDGER_WAIT: Duration = Duration::from_secs(10);

/// The distance query over every EDB state `dist_infl` can reach: the base
/// graph less at most one edge from each writer's half. Each state's
/// [`distance_query_baseline`] is kept as a bitset over `n^4` quadruples.
#[derive(Debug)]
pub struct DistOracle {
    n: usize,
    states: HashMap<StateKey, Arc<Vec<u64>>>,
}

impl DistOracle {
    pub fn precompute(wl: &Workload) -> DistOracle {
        let n = wl.vertices();
        let choices = |half: &[Edge]| -> Vec<Option<Edge>> {
            std::iter::once(None)
                .chain(half.iter().copied().map(Some))
                .collect()
        };
        let mut states = HashMap::new();
        for a in choices(&wl.halves[0]) {
            for b in choices(&wl.halves[1]) {
                let mut key: StateKey = a.into_iter().chain(b).map(|e| (e, false)).collect();
                key.sort_unstable();
                let g = DiGraph::from_edges(n, edges_of(wl, &key));
                let mut bits = vec![0u64; (n.pow(4)).div_ceil(64)];
                for (x, y, u, w) in distance_query_baseline(&g) {
                    let i = quad_code(n, [x, y, u, w]) as usize;
                    bits[i / 64] |= 1 << (i % 64);
                }
                states.insert(key, Arc::new(bits));
            }
        }
        DistOracle { n, states }
    }

    fn bits(&self, key: &StateKey) -> Option<&Arc<Vec<u64>>> {
        self.states.get(key)
    }
}

fn quad_code(n: usize, q: [u32; 4]) -> u64 {
    q.iter().fold(0u64, |acc, &v| acc * n as u64 + u64::from(v))
}

/// The edges of a state.
fn edges_of(wl: &Workload, key: &StateKey) -> Vec<Edge> {
    let mut edges: Vec<Edge> = wl
        .base
        .iter()
        .copied()
        .filter(|e| !key.contains(&(*e, false)))
        .collect();
    edges.extend(key.iter().filter(|(_, p)| *p).map(|(e, _)| *e));
    edges
}

/// Vertices reachable from `src` by a nonempty path in the given state.
fn reachable(wl: &Workload, key: &StateKey, src: u32) -> Vec<u32> {
    let n = wl.vertices();
    let succ = |v: u32| {
        let removed = move |w: &u32| key.contains(&((v, *w), false));
        let added = key
            .iter()
            .filter(move |((a, _), p)| *p && *a == v)
            .map(|((_, b), _)| *b);
        wl.adj[v as usize]
            .iter()
            .copied()
            .filter(move |w| !removed(w))
            .chain(added)
    };
    let mut seen = vec![false; n];
    let mut queue: Vec<u32> = Vec::new();
    for w in succ(src) {
        if !seen[w as usize] {
            seen[w as usize] = true;
            queue.push(w);
        }
    }
    let mut i = 0;
    while i < queue.len() {
        let v = queue[i];
        i += 1;
        for w in succ(v) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                queue.push(w);
            }
        }
    }
    queue.sort_unstable();
    queue
}

/// The expected answer of a query with bound arguments `bound`, as sorted
/// codes of its free arguments.
///
/// # Errors
/// When the distance oracle has no entry for the state (a state the
/// streams cannot reach).
pub fn expected(wl: &Workload, key: &StateKey, bound: &[u32]) -> Result<Vec<u64>, String> {
    match wl.dist_oracle() {
        None => Ok(reachable(wl, key, bound[0])
            .into_iter()
            .map(u64::from)
            .collect()),
        Some(d) => {
            let bits = d
                .bits(key)
                .ok_or_else(|| format!("no distance oracle for state {key:?}"))?;
            let n = d.n as u64;
            let prefix = quad_code(d.n, [bound[0], bound[1], 0, 0]);
            Ok((0..n * n)
                .filter(|free| {
                    let i = (prefix + free) as usize;
                    bits[i / 64] >> (i % 64) & 1 == 1
                })
                .collect())
        }
    }
}

/// The whole expected model of the goal predicate, as sorted codes of all
/// its arguments.
fn expected_model(wl: &Workload, key: &StateKey) -> Result<Vec<u64>, String> {
    let n = wl.vertices() as u64;
    match wl.dist_oracle() {
        None => Ok((0..n as u32)
            .flat_map(|x| {
                reachable(wl, key, x)
                    .into_iter()
                    .map(move |y| u64::from(x) * n + u64::from(y))
            })
            .collect()),
        Some(d) => {
            let bits = d
                .bits(key)
                .ok_or_else(|| format!("no distance oracle for state {key:?}"))?;
            Ok((0..n.pow(4))
                .filter(|&i| bits[i as usize / 64] >> (i % 64) & 1 == 1)
                .collect())
        }
    }
}

/// Checks a served epoch's whole model — the goal relation and an empty
/// undefined set — against the oracle for `key`.
///
/// # Errors
/// A description of the first difference.
pub fn check_model(wl: &Workload, epoch: &Epoch, key: &StateKey) -> Result<(), String> {
    let idb = epoch
        .compiled()
        .idb_id(wl.goal)
        .ok_or_else(|| format!("{} is not an IDB predicate", wl.goal))?;
    let n = wl.vertices() as u64;
    let mut got: Vec<u64> = epoch
        .interp()
        .get(idb)
        .iter()
        .map(|t| {
            t.items()
                .iter()
                .fold(0u64, |acc, c| acc * n + u64::from(c.id()))
        })
        .collect();
    got.sort_unstable();
    let want = expected_model(wl, key)?;
    if got != want {
        return Err(format!(
            "epoch {} model of {} has {} tuples, the oracle {}",
            epoch.number(),
            wl.goal,
            got.len(),
            want.len()
        ));
    }
    let undefined = epoch.undefined().total_tuples();
    if undefined != 0 {
        return Err(format!(
            "epoch {} has {undefined} undefined tuples",
            epoch.number()
        ));
    }
    Ok(())
}

/// How a reply was judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Served and correct.
    Ok,
    /// `ERR` or `OVERLOADED`: the server refused or failed the request.
    Refused(String),
    /// The reply is wrong: the oracle rejects it.
    Wrong(String),
}

/// One client's view: the ledger it shares with the other clients and the
/// epoch of its own last acknowledged write.
#[derive(Debug)]
pub struct Checker<'a> {
    pub wl: &'a Workload,
    pub ledger: &'a Ledger,
    pub last_ack: u64,
}

impl<'a> Checker<'a> {
    pub fn new(wl: &'a Workload, ledger: &'a Ledger) -> Checker<'a> {
        Checker {
            wl,
            ledger,
            last_ack: ledger.head(),
        }
    }

    /// Judges the complete reply `text` to `op`, recording acknowledged
    /// writes in the ledger.
    pub fn judge(&mut self, op: &Op, text: &str) -> Verdict {
        let last = text.lines().last().unwrap_or("");
        if last.starts_with("ERR") || last.starts_with("OVERLOADED") {
            return Verdict::Refused(last.to_string());
        }
        let judged = match op {
            Op::Query(bound) => self.query(bound, text),
            Op::Insert(_) | Op::Retract(_) => self.write(op, text),
            Op::Compact => self.compact(text),
        };
        match judged {
            Ok(()) => Verdict::Ok,
            Err(e) => Verdict::Wrong(format!("{}: {e}", self.wl.line(op))),
        }
    }

    fn query(&self, bound: &[u32], text: &str) -> Result<(), String> {
        let mut lines = text.lines();
        let epoch: u64 = lines
            .next()
            .and_then(|l| l.strip_prefix("EPOCH "))
            .and_then(|n| n.parse().ok())
            .ok_or("reply does not open with EPOCH <n>")?;
        if epoch < self.last_ack {
            return Err(format!(
                "stale epoch {epoch}: this client's last write was acknowledged at {}",
                self.last_ack
            ));
        }
        let key = self
            .ledger
            .key_at(epoch, LEDGER_WAIT)
            .ok_or_else(|| format!("epoch {epoch} was never acknowledged"))?;
        let n = self.wl.vertices() as u64;
        let mut got = Vec::new();
        let mut trailer = None;
        for line in lines {
            if let Some(atom) = line.strip_prefix("TRUE ") {
                let args = self.parse_atom(atom)?;
                if args[..bound.len()] != *bound {
                    return Err(format!("tuple {atom} does not match the goal"));
                }
                got.push(
                    args[bound.len()..]
                        .iter()
                        .fold(0u64, |acc, &v| acc * n + u64::from(v)),
                );
            } else if trailer.is_none() && line.starts_with("OK ") {
                trailer = Some(line);
            } else {
                return Err(format!("unexpected reply line {line:?}"));
            }
        }
        let want_trailer = format!("OK true={} undef=0", got.len());
        if trailer != Some(want_trailer.as_str()) {
            return Err(format!("trailer {trailer:?}, expected {want_trailer:?}"));
        }
        got.sort_unstable();
        let want = expected(self.wl, &key, bound)?;
        if got != want {
            return Err(format!(
                "epoch {epoch}: {} tuples served, {} expected, sets differ",
                got.len(),
                want.len()
            ));
        }
        Ok(())
    }

    fn parse_atom(&self, atom: &str) -> Result<Vec<u32>, String> {
        let inner = atom
            .strip_prefix(self.wl.goal)
            .and_then(|a| a.strip_prefix('('))
            .and_then(|a| a.strip_suffix(')'))
            .ok_or_else(|| format!("tuple {atom} is not a {} atom", self.wl.goal))?;
        let args: Vec<u32> = inner
            .split(", ")
            .map(|name| {
                self.wl
                    .ids
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("unknown constant {name:?}"))
            })
            .collect::<Result<_, _>>()?;
        if args.len() != self.wl.goal_arity {
            return Err(format!("tuple {atom} has the wrong arity"));
        }
        Ok(args)
    }

    fn ack(text: &str) -> Result<(u64, u64), String> {
        let line = text.trim_end();
        let parsed = line.strip_prefix("OK epoch=").and_then(|rest| {
            let (epoch, changed) = rest.split_once(" changed=")?;
            Some((epoch.parse().ok()?, changed.parse().ok()?))
        });
        parsed.ok_or_else(|| format!("malformed acknowledgement {line:?}"))
    }

    fn write(&mut self, op: &Op, text: &str) -> Result<(), String> {
        let (epoch, changed) = Self::ack(text)?;
        if epoch <= self.last_ack {
            return Err(format!(
                "acknowledged at epoch {epoch}, not after the previous {}",
                self.last_ack
            ));
        }
        // The streams only insert absent edges and retract present ones.
        if changed != 1 {
            return Err(format!("changed={changed}, expected 1"));
        }
        self.ledger.record(self.wl, epoch, op)?;
        self.last_ack = epoch;
        Ok(())
    }

    fn compact(&self, text: &str) -> Result<(), String> {
        let (epoch, changed) = Self::ack(text)?;
        let head = self.ledger.head();
        if epoch != head || changed != 0 {
            return Err(format!(
                "compacted at epoch {epoch} changed={changed}, expected {head} changed=0"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, TC_CORE};

    /// A correct reply to `bound` at `epoch` in state `key`, rendered the
    /// way the protocol renders it.
    fn reply(wl: &Workload, epoch: u64, key: &StateKey, bound: &[u32]) -> Vec<String> {
        let n = wl.vertices() as u64;
        let free = wl.goal_arity - bound.len();
        let mut lines = vec![format!("EPOCH {epoch}")];
        for code in expected(wl, key, bound).unwrap() {
            let mut args: Vec<u32> = bound.to_vec();
            let mut rest = Vec::new();
            let mut c = code;
            for _ in 0..free {
                rest.push((c % n) as u32);
                c /= n;
            }
            args.extend(rest.into_iter().rev());
            let names: Vec<&str> = args
                .iter()
                .map(|&v| wl.names[v as usize].as_str())
                .collect();
            lines.push(format!("TRUE {}({})", wl.goal, names.join(", ")));
        }
        lines.push(format!("OK true={} undef=0", lines.len() - 1));
        lines
    }

    fn text(lines: &[String]) -> String {
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    /// Each oracle accepts the correct reply and rejects one with a tuple
    /// removed, one with a tuple added, and one from a stale epoch.
    fn rejects_tampered_replies(kind: Kind, write: Op, bound: Vec<u32>) {
        let wl = Workload::build(kind, 1);
        let ledger = Ledger::new();
        let mut c = Checker::new(&wl, &ledger);
        assert_eq!(c.judge(&write, "OK epoch=1 changed=1\n"), Verdict::Ok);
        let key = ledger.key_at(1, Duration::ZERO).unwrap();
        let query = Op::Query(bound.clone());
        let good = reply(&wl, 1, &key, &bound);
        assert!(good.len() > 3, "the probe query needs a non-trivial answer");
        assert_eq!(c.judge(&query, &text(&good)), Verdict::Ok);

        let mut removed = good.clone();
        removed.remove(1);
        let n = removed.len();
        removed[n - 1] = format!("OK true={} undef=0", n - 2);
        assert!(matches!(
            c.judge(&query, &text(&removed)),
            Verdict::Wrong(_)
        ));

        // Added: a tuple of the goal that the epoch's model lacks.
        let n = wl.vertices() as u32;
        let extra = (0..n.pow((wl.goal_arity - bound.len()) as u32))
            .find(|&code| {
                !expected(&wl, &key, &bound)
                    .unwrap()
                    .contains(&u64::from(code))
            })
            .expect("some tuple is absent");
        let mut args = bound.clone();
        let free: Vec<u32> = if wl.goal_arity - bound.len() == 1 {
            vec![extra]
        } else {
            vec![extra / n, extra % n]
        };
        args.extend(free);
        let names: Vec<&str> = args
            .iter()
            .map(|&v| wl.names[v as usize].as_str())
            .collect();
        let mut added = good.clone();
        added.insert(1, format!("TRUE {}({})", wl.goal, names.join(", ")));
        let n = added.len();
        added[n - 1] = format!("OK true={} undef=0", n - 2);
        assert!(matches!(c.judge(&query, &text(&added)), Verdict::Wrong(_)));

        // Stale: epoch 0's own correct answer, after the write at epoch 1.
        let stale = reply(&wl, 0, &StateKey::new(), &bound);
        assert_ne!(stale, good, "the write must change the probe answer");
        assert!(matches!(c.judge(&query, &text(&stale)), Verdict::Wrong(_)));

        // Refusals are failures of their own kind.
        assert!(matches!(
            c.judge(&query, "OVERLOADED readers\n"),
            Verdict::Refused(_)
        ));
    }

    #[test]
    fn tc_oracle_rejects_tampered_replies() {
        // Retracting the hub's bridge cuts b0..b7 off every core source.
        let wl = Workload::build(Kind::TcPoint, 1);
        let hub_bridge = wl.bridges[0];
        rejects_tampered_replies(Kind::TcPoint, Op::Retract(hub_bridge), vec![5]);
    }

    #[test]
    fn distance_oracle_rejects_tampered_replies() {
        let wl = Workload::build(Kind::DistInfl, 1);
        // A retract that changes the answer of some reachable pair.
        for &e in &wl.halves[0] {
            let key = vec![(e, false)];
            for &(x, y) in &wl.reach_pairs {
                let after = expected(&wl, &key, &[x, y]).unwrap();
                let before = expected(&wl, &StateKey::new(), &[x, y]).unwrap();
                if after != before && after.len() > 2 {
                    rejects_tampered_replies(Kind::DistInfl, Op::Retract(e), vec![x, y]);
                    return;
                }
            }
        }
        panic!("no retract changes a distance answer");
    }

    #[test]
    fn acks_must_advance_and_writes_must_change() {
        let wl = Workload::build(Kind::TcRetract, 1);
        let ledger = Ledger::new();
        let mut c = Checker::new(&wl, &ledger);
        let e = wl.core_edges[0];
        assert_eq!(
            c.judge(&Op::Retract(e), "OK epoch=1 changed=1\n"),
            Verdict::Ok
        );
        assert!(matches!(
            c.judge(&Op::Insert(e), "OK epoch=1 changed=1\n"),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            c.judge(&Op::Insert(e), "OK epoch=2 changed=0\n"),
            Verdict::Wrong(_)
        ));
        assert!(matches!(
            c.judge(&Op::Insert(e), "ERR writer-down: gone\n"),
            Verdict::Refused(_)
        ));
    }

    #[test]
    fn ledger_folds_out_of_order_acks() {
        let wl = Workload::build(Kind::DistInfl, 1);
        let ledger = Ledger::new();
        let (a, b) = (wl.halves[0][0], wl.halves[1][0]);
        ledger.record(&wl, 2, &Op::Retract(b)).unwrap();
        assert_eq!(ledger.head(), 0);
        assert_eq!(ledger.key_at(2, Duration::ZERO), None);
        ledger.record(&wl, 1, &Op::Retract(a)).unwrap();
        assert_eq!(ledger.head(), 2);
        let mut want = vec![(a, false), (b, false)];
        want.sort_unstable();
        assert_eq!(ledger.key_at(2, Duration::ZERO), Some(want));
        assert!(ledger.record(&wl, 2, &Op::Insert(b)).is_err());
    }

    #[test]
    fn tc_oracle_matches_the_complete_closure() {
        let wl = Workload::build(Kind::TcPoint, 1);
        // The core's closure is complete and the chain hangs off it.
        let got = expected(&wl, &StateKey::new(), &[7]).unwrap();
        assert_eq!(got.len(), TC_CORE + crate::workload::BRIDGES);
    }
}
