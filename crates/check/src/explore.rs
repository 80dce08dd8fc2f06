//! Exhaustive breadth-first exploration of the abstract state space.
//!
//! States are stored under a **canonical byte encoding**. With symmetry
//! reduction on (the default), the canonical form is the minimum encoding
//! over all ring rotations: the model's topology (`next = (r + 1) % N`) and
//! transition rules are invariant under relabelling `r -> (r + k) % N`, so
//! two states that differ only by such a rotation have identical futures
//! and only one representative needs exploring. Reflections are *not*
//! symmetries — mirroring the ring reverses the hop direction — so the
//! orbit is exactly the `N` rotations, never the full permutation group.
//!
//! Deduplication is keyed on the exact canonical bytes; a 64-bit FNV-1a
//! fingerprint of the same bytes is tracked alongside purely as telemetry
//! (`fingerprint_collisions` reports how often a lossy hash-only store
//! would have *wrongly merged* two distinct states — it must be possible
//! to audit that the answer does not rest on 64-bit luck).

use std::collections::HashMap;

use crate::model::{ModelCfg, Mutation, State, Transition};
pub use upp_noc::fnv1a64;

/// Exploration statistics, surfaced by `upp-check explore --stats`.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Distinct (canonical) states reached.
    pub states: usize,
    /// Edges in the reduced state graph.
    pub transitions: usize,
    /// Longest shortest-path distance from the initial state.
    pub max_depth: usize,
    /// Successor states that deduplicated onto an already-seen state.
    pub dedup_hits: usize,
    /// Times a new exact state collided with an existing 64-bit
    /// fingerprint (0 means a hash-only store would have been safe).
    pub fingerprint_collisions: usize,
    /// Transitions suppressed *only* by a signal-channel capacity bound.
    /// Non-zero means the bound clipped the space and "exhaustive" holds
    /// only up to that bound; the flagship configurations report 0.
    pub bound_hits: usize,
    /// Reachable raw-deadlock configurations (packets wedged, no popup
    /// under way yet).
    pub deadlock_states: usize,
    /// Reachable fully-drained states.
    pub drained_states: usize,
}

impl ExploreStats {
    /// Fraction of generated successors that deduplicated onto known
    /// states (`hits / (hits + states)`).
    pub fn dedup_ratio(&self) -> f64 {
        let total = self.dedup_hits + self.states;
        if total == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / total as f64
        }
    }
}

/// The fully-explored reduced state graph.
pub struct Exploration {
    /// Model configuration explored.
    pub cfg: ModelCfg,
    /// Whether rotation symmetry reduction was applied.
    pub symmetry: bool,
    /// Canonical representative of every reachable state; index = state id.
    pub states: Vec<State>,
    /// Outgoing edges per state id.
    pub edges: Vec<Vec<(u32, Transition)>>,
    /// BFS tree parent of each state (`None` for the initial state).
    pub parent: Vec<Option<(u32, Transition)>>,
    /// BFS depth of each state.
    pub depth: Vec<u32>,
    /// Aggregate statistics.
    pub stats: ExploreStats,
}

/// Relabels every router index in the state by `r -> (r + k) % n`,
/// preserving ring direction and all FIFO orders.
pub fn rotate(state: &State, k: u8, n: u8) -> State {
    let map = |r: u8| (r + k) % n;
    let mut routers: Vec<_> = state.routers.clone();
    let mut nis: Vec<_> = state.nis.clone();
    for r in 0..n as usize {
        let to = map(r as u8) as usize;
        routers[to] = state.routers[r].clone();
        routers[to].queue = state.routers[r].queue.iter().map(|&d| map(d)).collect();
        routers[to].popup_dest = state.routers[r].popup_dest.map(map);
        nis[to] = state.nis[r].clone();
        nis[to].reservations = state.nis[r].reservations.iter().map(|&x| map(x)).collect();
        nis[to].reservations.sort_unstable();
    }
    State {
        routers,
        nis,
        circuits: state.circuits.iter().map(|&d| map(d)).collect(),
        reqs: state.reqs.iter().map(|&(f, d)| (map(f), map(d))).collect(),
        acks: state.acks.iter().map(|&t| map(t)).collect(),
    }
}

/// Relabels the router indices a transition mentions by `r -> (r + k) % n`.
pub fn rotate_transition(t: Transition, k: u8, n: u8) -> Transition {
    let map = |r: u8| (r + k) % n;
    match t {
        Transition::Inject(r, d) => Transition::Inject(map(r), map(d)),
        Transition::Hop(r) => Transition::Hop(map(r)),
        Transition::Eject(r) => Transition::Eject(map(r)),
        Transition::Consume(ni) => Transition::Consume(map(ni)),
        Transition::WatchdogExpire(r) => Transition::WatchdogExpire(map(r)),
        Transition::AdvanceStop(r) => Transition::AdvanceStop(map(r)),
        Transition::Pop(r) => Transition::Pop(map(r)),
        Transition::TickAll | Transition::ServeReq | Transition::DeliverAck => t,
    }
}

/// Flat byte encoding of a state. Injective: every variable-length field
/// is length-prefixed, so distinct states always encode to distinct bytes.
pub fn encode(state: &State) -> Vec<u8> {
    let mut b = Vec::with_capacity(64);
    b.push(state.routers.len() as u8);
    for r in &state.routers {
        b.push(r.queue.len() as u8);
        b.extend_from_slice(&r.queue);
        b.push(match r.stage {
            s if s.is_idle() => 0,
            upp_core::protocol::PopupStage::WaitAck => 1,
            upp_core::protocol::PopupStage::PopInterposer => 2,
            upp_core::protocol::PopupStage::LocateHead => 3,
            upp_core::protocol::PopupStage::PopChiplet => 4,
            _ => unreachable!(),
        });
        b.push(r.popup_dest.map_or(0xff, |d| d));
        b.push(r.counter);
        b.push(r.budget);
    }
    for ni in &state.nis {
        b.push(ni.reservations.len() as u8);
        b.extend_from_slice(&ni.reservations);
        b.push(ni.queued);
    }
    b.push(state.circuits.len() as u8);
    b.extend_from_slice(&state.circuits);
    b.push(state.reqs.len() as u8);
    for &(f, d) in &state.reqs {
        b.push(f);
        b.push(d);
    }
    b.push(state.acks.len() as u8);
    b.extend_from_slice(&state.acks);
    b
}

/// Canonicalizes a state: with symmetry, the rotation with the minimum
/// encoding; without, the state itself. Returns the representative and
/// its encoding.
pub fn canonicalize(state: &State, n: u8, symmetry: bool) -> (State, Vec<u8>) {
    if !symmetry {
        let bytes = encode(state);
        return (state.clone(), bytes);
    }
    let mut best_state = state.clone();
    let mut best_bytes = encode(state);
    for k in 1..n {
        let rotated = rotate(state, k, n);
        let bytes = encode(&rotated);
        if bytes < best_bytes {
            best_bytes = bytes;
            best_state = rotated;
        }
    }
    (best_state, best_bytes)
}

/// Counts transitions disabled in `state` *solely* by a signal-channel
/// capacity bound (everything else about them was enabled).
fn bound_suppressed(state: &State, cfg: &ModelCfg) -> usize {
    let mut n = 0;
    let reqs_full = state.reqs.len() >= cfg.chan_cap as usize;
    let acks_full = state.acks.len() >= cfg.chan_cap as usize;
    if reqs_full && cfg.mutation != Some(Mutation::NeverExpireWatchdog) {
        n += state
            .routers
            .iter()
            .filter(|r| r.stage.is_idle() && r.counter >= cfg.threshold && !r.queue.is_empty())
            .count();
    }
    if let Some(&(from, dest)) = state.reqs.first() {
        let already = state.nis[dest as usize].reservations.contains(&from);
        if acks_full && (already || state.ni_free(cfg, dest as usize) > 0) {
            n += 1;
        }
    }
    if cfg.mutation == Some(Mutation::BounceAck) && reqs_full {
        if let Some(&to) = state.acks.first() {
            if state.routers[to as usize].stage == upp_core::protocol::PopupStage::WaitAck {
                n += 1;
            }
        }
    }
    n
}

/// Exhaustively explores the reachable state space by BFS.
///
/// # Errors
///
/// Returns `Err` if the configuration is invalid or the state count
/// exceeds `max_states`.
pub fn explore(cfg: &ModelCfg, symmetry: bool, max_states: usize) -> Result<Exploration, String> {
    cfg.validate()?;
    let n = cfg.routers;

    let mut states: Vec<State> = Vec::new();
    let mut edges: Vec<Vec<(u32, Transition)>> = Vec::new();
    let mut parent: Vec<Option<(u32, Transition)>> = Vec::new();
    let mut depth: Vec<u32> = Vec::new();
    let mut index: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut fingerprints: HashMap<u64, u32> = HashMap::new();
    let mut stats = ExploreStats::default();

    let (init, init_bytes) = canonicalize(&State::initial(cfg), n, symmetry);
    index.insert(init_bytes.clone(), 0);
    fingerprints.insert(fnv1a64(&init_bytes), 1);
    states.push(init);
    edges.push(Vec::new());
    parent.push(None);
    depth.push(0);

    let mut frontier = 0usize;
    while frontier < states.len() {
        let id = frontier as u32;
        frontier += 1;
        let state = states[id as usize].clone();
        stats.bound_hits += bound_suppressed(&state, cfg);
        if state.is_drained() {
            stats.drained_states += 1;
        }
        if state.is_deadlocked(cfg) {
            stats.deadlock_states += 1;
        }
        for (t, succ) in state.successors(cfg) {
            let (canon, bytes) = canonicalize(&succ, n, symmetry);
            let next_id = match index.get(&bytes) {
                Some(&existing) => {
                    stats.dedup_hits += 1;
                    existing
                }
                None => {
                    let new_id = states.len() as u32;
                    if states.len() >= max_states {
                        return Err(format!(
                            "state space exceeds --max-states {max_states}; raise the cap or shrink the model"
                        ));
                    }
                    let fp = fnv1a64(&bytes);
                    if let Some(count) = fingerprints.get_mut(&fp) {
                        stats.fingerprint_collisions += 1;
                        *count += 1;
                    } else {
                        fingerprints.insert(fp, 1);
                    }
                    index.insert(bytes, new_id);
                    states.push(canon);
                    edges.push(Vec::new());
                    parent.push(Some((id, t)));
                    depth.push(depth[id as usize] + 1);
                    stats.max_depth = stats.max_depth.max(depth[new_id as usize] as usize);
                    new_id
                }
            };
            edges[id as usize].push((next_id, t));
            stats.transitions += 1;
        }
    }
    stats.states = states.len();

    Ok(Exploration {
        cfg: cfg.clone(),
        symmetry,
        states,
        edges,
        parent,
        depth,
        stats,
    })
}

impl Exploration {
    /// The BFS-tree path from the initial state to `id`, as
    /// `(transition, post-state id)` pairs.
    pub fn trace_to(&self, id: u32) -> Vec<(Transition, u32)> {
        let mut steps = Vec::new();
        let mut cur = id;
        while let Some((prev, t)) = self.parent[cur as usize] {
            steps.push((t, cur));
            cur = prev;
        }
        steps.reverse();
        steps
    }

    /// Re-expresses a path over canonical representatives as one coherent
    /// concrete run.
    ///
    /// Symmetry reduction rotates each stored state into its canonical
    /// frame, so consecutive edge labels on a stored path can refer to
    /// differently-relabelled routers. This walks the path from `start`,
    /// re-deriving each raw successor and tracking the cumulative rotation
    /// `rho` between the canonical chain and a single fixed concrete
    /// frame; the returned `(transition, post-state)` steps all live in
    /// that one frame and replay literally. Returns the steps and the
    /// final `rho` (so a livelock cycle can be concretized as a
    /// continuation of its entry path).
    pub fn concretize_steps(
        &self,
        start: u32,
        rho0: u8,
        steps: &[(Transition, u32)],
    ) -> (Vec<(Transition, State)>, u8) {
        let n = self.cfg.routers;
        let mut rho = rho0;
        let mut parent = start;
        let mut out = Vec::with_capacity(steps.len());
        for &(t, child) in steps {
            let p_rep = &self.states[parent as usize];
            let (_, raw) = p_rep
                .successors(&self.cfg)
                .into_iter()
                .find(|(tt, _)| *tt == t)
                .expect("stored edges re-derive from their source state");
            let c_rep = &self.states[child as usize];
            let k = (0..n)
                .find(|&k| rotate(&raw, k, n) == *c_rep)
                .expect("a stored child is a rotation of the raw successor");
            out.push((rotate_transition(t, rho, n), rotate(&raw, rho, n)));
            rho = (rho + n - k) % n;
            parent = child;
        }
        (out, rho)
    }

    /// Compact single-line rendering of a state, for traces and DOT dumps.
    pub fn render_state(&self, id: u32) -> String {
        render_state(&self.states[id as usize])
    }

    /// DOT digraph of the full reduced state graph. Deadlocked states are
    /// drawn red, drained states green.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph upp_check {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        for (id, s) in self.states.iter().enumerate() {
            let color = if s.is_deadlocked(&self.cfg) {
                ", color=red"
            } else if s.is_drained() {
                ", color=green"
            } else {
                ""
            };
            out.push_str(&format!(
                "  s{id} [label=\"#{id} {}\"{color}];\n",
                render_state(s).replace('"', "'")
            ));
        }
        for (id, outs) in self.edges.iter().enumerate() {
            for (to, t) in outs {
                out.push_str(&format!(
                    "  s{id} -> s{to} [label=\"{}\", fontsize=8];\n",
                    t.label()
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Compact single-line rendering of a state.
pub fn render_state(s: &State) -> String {
    let mut parts = Vec::new();
    for (r, router) in s.routers.iter().enumerate() {
        let q: Vec<String> = router.queue.iter().map(|d| format!("d{d}")).collect();
        let mut piece = format!("r{r}[{}]", q.join(","));
        if !router.stage.is_idle() {
            piece.push_str(&format!(
                ":{}{}",
                router.stage.name(),
                router
                    .popup_dest
                    .map_or(String::new(), |d| format!("->d{d}"))
            ));
        }
        if router.counter > 0 {
            piece.push_str(&format!(" w{}", router.counter));
        }
        if router.budget > 0 {
            piece.push_str(&format!(" b{}", router.budget));
        }
        parts.push(piece);
    }
    for (n, ni) in s.nis.iter().enumerate() {
        if ni.queued > 0 || !ni.reservations.is_empty() {
            let res: Vec<String> = ni.reservations.iter().map(|r| format!("r{r}")).collect();
            parts.push(format!("ni{n}{{q{} res[{}]}}", ni.queued, res.join(",")));
        }
    }
    if !s.circuits.is_empty() {
        let c: Vec<String> = s.circuits.iter().map(|d| format!("d{d}")).collect();
        parts.push(format!("circ[{}]", c.join(",")));
    }
    if !s.reqs.is_empty() {
        let q: Vec<String> = s.reqs.iter().map(|(f, d)| format!("r{f}->d{d}")).collect();
        parts.push(format!("req[{}]", q.join(",")));
    }
    if !s.acks.is_empty() {
        let a: Vec<String> = s.acks.iter().map(|t| format!("r{t}")).collect();
        parts.push(format!("ack[{}]", a.join(",")));
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_preserves_encoding_shape_and_identity_rotation_is_identity() {
        let cfg = ModelCfg::flagship(3);
        let mut s = State::initial(&cfg);
        s.routers[0].queue = vec![1, 2];
        s.routers[2].queue = vec![0];
        s.circuits = vec![1];
        s.reqs = vec![(2, 0)];
        assert_eq!(rotate(&s, 0, 3), s);
        let r1 = rotate(&s, 1, 3);
        assert_eq!(r1.routers[1].queue, vec![2, 0]);
        assert_eq!(r1.circuits, vec![2]);
        assert_eq!(r1.reqs, vec![(0, 1)]);
        // Rotating N times composes to the identity.
        let back = rotate(&rotate(&r1, 1, 3), 1, 3);
        assert_eq!(back, s);
    }

    #[test]
    fn encoding_is_injective_on_a_tricky_pair() {
        // Same multiset of bytes, different structure: the length
        // prefixes must keep these apart.
        let cfg = ModelCfg::flagship(2);
        let mut a = State::initial(&cfg);
        let mut b = State::initial(&cfg);
        a.routers[0].queue = vec![1, 1];
        b.routers[0].queue = vec![1];
        b.routers[1].queue = vec![1];
        assert_ne!(encode(&a), encode(&b));
    }

    #[test]
    fn flagship_two_router_space_is_nontrivial_and_bound_clean() {
        let cfg = ModelCfg::flagship(2);
        let ex = explore(&cfg, true, 2_000_000).expect("explores");
        assert!(
            ex.stats.states > 100,
            "flagship space must be non-trivial, got {}",
            ex.stats.states
        );
        assert_eq!(
            ex.stats.bound_hits, 0,
            "flagship exploration must not clip on channel bounds"
        );
        assert!(ex.stats.deadlock_states > 0, "deadlock must be reachable");
        assert!(ex.stats.drained_states > 0, "drain must be reachable");
        assert_eq!(ex.stats.fingerprint_collisions, 0);
    }

    #[test]
    fn symmetry_reduction_shrinks_but_preserves_structure_counts() {
        let cfg = ModelCfg::flagship(2);
        let full = explore(&cfg, false, 2_000_000).expect("explores");
        let reduced = explore(&cfg, true, 2_000_000).expect("explores");
        assert!(reduced.stats.states <= full.stats.states);
        assert!(
            reduced.stats.states > full.stats.states / 2 - 1,
            "a 2-rotation orbit can at most halve the space"
        );
        assert_eq!(
            full.stats.deadlock_states > 0,
            reduced.stats.deadlock_states > 0
        );
    }
}
