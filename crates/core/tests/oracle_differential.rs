//! Differential tests for the shared-Oracle prover paths: every
//! Oracle-routed entry point (depends, maximal solutions, cover proofs,
//! induction corollaries) must be observationally identical — same
//! verdicts, same witnesses, same certificates down to the recorded
//! facts — to a sequential per-call sweep over the interpreted engine.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_core::certificate::{Certificate, Fact, ProofOutcome};
use sd_core::cover::{self, PieceStrategy};
use sd_core::induction;
use sd_core::reach::DependsWitness;
use sd_core::{
    classify, solve, Cmd, CompileBudget, Domain, Engine, Expr, ObjId, ObjSet, Op, Oracle, Phi,
    Query, State, StateSet, System, Universe,
};

const BUDGET: CompileBudget = CompileBudget {
    max_dense_entries: 1 << 24,
    max_dense_pair_bits: 1 << 28,
};

/// Reference verdict: a fresh interpreted-engine search through the
/// `Query` one-shot path, pinned to the shared test budget.
fn interp_depends(sys: &System, phi: &Phi, a: &ObjSet, beta: ObjId) -> Option<DependsWitness> {
    Query::new(phi.clone(), a.clone())
        .beta(beta)
        .engine(Engine::Interpreted)
        .budget(BUDGET)
        .run_on(sys)
        .unwrap()
        .into_witness()
}

/// A random valid system: `n` objects over a common `k`-valued domain,
/// with guarded copy/constant operations (always in-domain and total, so
/// no operation errors).
fn random_system(seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..=4);
    let k = rng.gen_range(2i64..=3);
    let objects = (0..n)
        .map(|i| (format!("x{i}"), Domain::int_range(0, k - 1).unwrap()))
        .collect();
    let u = Universe::new(objects).unwrap();
    let ids: Vec<_> = u.objects().collect();
    let num_ops = rng.gen_range(2usize..=4);
    let ops = (0..num_ops)
        .map(|i| {
            let guard = Expr::var(ids[rng.gen_range(0..n)]).lt(Expr::int(rng.gen_range(1..=k)));
            let mut body = Vec::new();
            for _ in 0..rng.gen_range(1usize..=2) {
                let dst = ids[rng.gen_range(0..n)];
                let rhs = if rng.gen_bool(0.7) {
                    Expr::var(ids[rng.gen_range(0..n)])
                } else {
                    Expr::int(rng.gen_range(0..k))
                };
                body.push(Cmd::assign(dst, rhs));
            }
            Op::from_cmd(format!("o{i}"), Cmd::when(guard, Cmd::Seq(body)))
        })
        .collect();
    System::new(u, ops)
}

fn random_phi(sys: &System, rng: &mut StdRng) -> Phi {
    let u = sys.universe();
    let ids: Vec<_> = u.objects().collect();
    let obj = ids[rng.gen_range(0..ids.len())];
    let bound = u.domain(obj).size() as i64;
    let expr = Phi::expr(Expr::var(obj).lt(Expr::int(rng.gen_range(1..=bound))));
    match rng.gen_range(0u32..3) {
        0 => Phi::True,
        1 => expr,
        _ => Phi::from_set(expr.sat(sys).unwrap()),
    }
}

fn witness_fields(w: Option<DependsWitness>) -> Option<(usize, State, State)> {
    w.map(|w| (w.history.len(), w.sigma1, w.sigma2))
}

fn render_objset(sys: &System, a: &ObjSet) -> String {
    let names: Vec<&str> = a.iter().map(|o| sys.universe().name(o)).collect();
    format!("{{{}}}", names.join(", "))
}

/// Interpreted invariance reference: ∀σ ∈ Sat(φ), δ: φ(δσ).
fn ref_is_invariant(sys: &System, phi: &Phi) -> bool {
    for sigma in sys.states().unwrap() {
        if phi.holds(sys, &sigma).unwrap() {
            for op in sys.op_ids() {
                let next = sys.apply(op, &sigma).unwrap();
                if !phi.holds(sys, &next).unwrap() {
                    return false;
                }
            }
        }
    }
    true
}

/// Interpreted image-set enumeration (the pre-Oracle `reachable_images`).
fn ref_reachable_images(sys: &System, phi: &Phi) -> Vec<StateSet> {
    let start = phi.sat(sys).unwrap();
    let mut seen: HashSet<StateSet> = HashSet::new();
    let mut queue: VecDeque<StateSet> = VecDeque::new();
    let mut out = Vec::new();
    seen.insert(start.clone());
    queue.push_back(start);
    while let Some(cur) = queue.pop_front() {
        out.push(cur.clone());
        for op in sys.op_ids() {
            let next = sd_core::after::image_op(sys, &cur, op).unwrap();
            if seen.insert(next.clone()) {
                queue.push_back(next);
            }
        }
    }
    out
}

/// The sequential disjunction sweep exactly as the pre-Oracle provers ran
/// it, composed from the public per-call (AST-interpreting) kernels.
fn ref_disjunction(
    sys: &System,
    sats: &[StateSet],
    a: &ObjSet,
    beta: ObjId,
    cert: &mut Certificate,
) -> Result<(), String> {
    let mut checks = 0;
    let mut branch1 = true;
    'b1: for sat in sats {
        for op in sys.op_ids() {
            checks += 1;
            if !induction::op_confines_diffs(sys, sat, a, op).unwrap() {
                branch1 = false;
                break 'b1;
            }
        }
    }
    if branch1 {
        cert.record(Fact::NoSpreadFrom {
            sources: render_objset(sys, a),
            checks,
        });
        return Ok(());
    }
    let mut checks = 0;
    for sat in sats {
        for op in sys.op_ids() {
            checks += 1;
            if !induction::op_no_new_diff_at(sys, sat, beta, op).unwrap() {
                return Err(format!(
                    "both disjuncts fail: some operation spreads differences out of A \
                     and some operation writes β under {} constraint sets",
                    sats.len()
                ));
            }
        }
    }
    cert.record(Fact::NoNewDifferenceAt {
        sink: sys.universe().name(beta).to_string(),
        checks,
    });
    Ok(())
}

/// Sequential interpreted Corollary 5-6 reference.
fn ref_cor_5_6(sys: &System, phi: &Phi, a: &ObjSet, beta: ObjId) -> ProofOutcome {
    if a.contains(beta) {
        return ProofOutcome::Inapplicable("β ∈ A".into());
    }
    if !ref_is_invariant(sys, phi) {
        return ProofOutcome::Inapplicable("φ is not invariant".into());
    }
    let sat = phi.sat(sys).unwrap();
    let mut cert = Certificate::new(
        "Corollary 5-6",
        format!(
            "¬ {} ▷φ {}",
            render_objset(sys, a),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::Invariant);
    match ref_disjunction(sys, &[sat], a, beta, &mut cert) {
        Ok(()) => ProofOutcome::Proved(cert),
        Err(reason) => ProofOutcome::Inapplicable(reason),
    }
}

/// Sequential interpreted Corollary 6-5 reference.
fn ref_cor_6_5(sys: &System, phi: &Phi, a: &ObjSet, beta: ObjId) -> ProofOutcome {
    if a.contains(beta) {
        return ProofOutcome::Inapplicable("β ∈ A".into());
    }
    let images = ref_reachable_images(sys, phi);
    let mut cert = Certificate::new(
        "Corollary 6-5",
        format!(
            "¬ {} ▷φ {}",
            render_objset(sys, a),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::Note(format!(
        "{} reachable [H]φ constraint sets enumerated",
        images.len()
    )));
    match ref_disjunction(sys, &images, a, beta, &mut cert) {
        Ok(()) => ProofOutcome::Proved(cert),
        Err(reason) => ProofOutcome::Inapplicable(reason),
    }
}

/// Sequential interpreted Corollary 4-2 reference.
fn ref_cor_4_2(sys: &System, phi: &Phi, alpha: ObjId, beta: ObjId) -> ProofOutcome {
    if alpha == beta {
        return ProofOutcome::Inapplicable("α = β".into());
    }
    if !classify::is_autonomous(sys, phi).unwrap() {
        return ProofOutcome::Inapplicable("φ is not autonomous".into());
    }
    if !ref_is_invariant(sys, phi) {
        return ProofOutcome::Inapplicable("φ is not invariant".into());
    }
    let sat = phi.sat(sys).unwrap();
    let mut cert = Certificate::new(
        "Corollary 4-2",
        format!(
            "¬ {} ▷φ {}",
            sys.universe().name(alpha),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::Autonomous);
    cert.record(Fact::Invariant);
    match ref_disjunction(sys, &[sat], &ObjSet::singleton(alpha), beta, &mut cert) {
        Ok(()) => ProofOutcome::Proved(cert),
        Err(reason) => ProofOutcome::Inapplicable(reason),
    }
}

/// Sequential interpreted Corollary 4-3 reference, with single-history
/// sink sets computed by the per-call `sinks_after`.
fn ref_cor_4_3(
    sys: &System,
    phi: &Phi,
    q: &dyn Fn(ObjId, ObjId) -> bool,
    q_name: &str,
) -> ProofOutcome {
    if !classify::is_autonomous(sys, phi).unwrap() {
        return ProofOutcome::Inapplicable("φ is not autonomous".into());
    }
    if !ref_is_invariant(sys, phi) {
        return ProofOutcome::Inapplicable("φ is not invariant".into());
    }
    let objs: Vec<ObjId> = sys.universe().objects().collect();
    for &x in &objs {
        if !q(x, x) {
            return ProofOutcome::Inapplicable(format!(
                "{q_name} is not reflexive at {}",
                sys.universe().name(x)
            ));
        }
    }
    for &x in &objs {
        for &y in &objs {
            for &z in &objs {
                if q(x, y) && q(y, z) && !q(x, z) {
                    return ProofOutcome::Inapplicable(format!(
                        "{q_name} is not transitive at ({}, {}, {})",
                        sys.universe().name(x),
                        sys.universe().name(y),
                        sys.universe().name(z)
                    ));
                }
            }
        }
    }
    let mut checks = 0;
    for op in sys.op_ids() {
        let h = sd_core::History::single(op);
        for &x in &objs {
            checks += 1;
            let sinks = sd_core::depend::sinks_after(sys, phi, &ObjSet::singleton(x), &h).unwrap();
            for y in sinks.iter() {
                if !q(x, y) {
                    return ProofOutcome::Inapplicable(format!(
                        "operation δ{} transmits {} ▷ {} violating {q_name}",
                        op.0,
                        sys.universe().name(x),
                        sys.universe().name(y)
                    ));
                }
            }
        }
    }
    let mut cert = Certificate::new("Corollary 4-3", format!("∀x, y: x ▷φ y ⊃ {q_name}(x, y)"));
    cert.record(Fact::Autonomous);
    cert.record(Fact::Invariant);
    cert.record(Fact::ReflexiveTransitive(q_name.to_string()));
    cert.record(Fact::RelationRespected {
        relation: q_name.to_string(),
        checks,
    });
    ProofOutcome::Proved(cert)
}

/// Sequential interpreted Separation-of-Variety reference (Thm 4-5).
fn ref_separation(
    sys: &System,
    phi: &Phi,
    cover: &[Phi],
    a: &ObjSet,
    beta: ObjId,
    strategy: PieceStrategy,
) -> ProofOutcome {
    if cover.is_empty() {
        return ProofOutcome::Inapplicable("empty cover".into());
    }
    for (i, piece) in cover.iter().enumerate() {
        if !classify::is_independent(sys, piece, a).unwrap() {
            return ProofOutcome::Inapplicable(format!("cover element {i} is not A-independent"));
        }
    }
    let n = sys.state_count().unwrap();
    let mut union = StateSet::new(n);
    for piece in cover {
        union.union_with(&piece.sat(sys).unwrap());
    }
    if union.count() != n {
        return ProofOutcome::Inapplicable("cover does not cover the state space".into());
    }
    let a_names: Vec<&str> = a.iter().map(|o| sys.universe().name(o)).collect();
    let mut cert = Certificate::new(
        "Theorem 4-5 (Separation of Variety)",
        format!(
            "¬ {{{}}} ▷φ {}",
            a_names.join(", "),
            sys.universe().name(beta)
        ),
    );
    cert.record(Fact::Independent(format!("{{{}}}", a_names.join(", "))));
    cert.record(Fact::CoversStateSpace(cover.len()));
    for (i, piece) in cover.iter().enumerate() {
        let conj = phi.clone().and(piece.clone());
        let sub = match strategy {
            PieceStrategy::ExactBfs => {
                if interp_depends(sys, &conj, a, beta).is_some() {
                    return ProofOutcome::Inapplicable(format!(
                        "piece {i}: A ▷(φ∧φ{i}) β holds — no proof possible"
                    ));
                }
                let mut c = Certificate::new("exact pair reachability", format!("¬ A ▷(φ∧φ{i}) β"));
                c.record(Fact::Note("pair-BFS exhausted with no β-difference".into()));
                c
            }
            PieceStrategy::Cor56 => match ref_cor_5_6(sys, &conj, a, beta) {
                ProofOutcome::Proved(c) => c,
                ProofOutcome::Inapplicable(r) => {
                    return ProofOutcome::Inapplicable(format!(
                        "piece {i}: Corollary 5-6 failed: {r}"
                    ))
                }
            },
            PieceStrategy::Cor65 => match ref_cor_6_5(sys, &conj, a, beta) {
                ProofOutcome::Proved(c) => c,
                ProofOutcome::Inapplicable(r) => {
                    return ProofOutcome::Inapplicable(format!(
                        "piece {i}: Corollary 6-5 failed: {r}"
                    ))
                }
            },
        };
        cert.record(Fact::SubProof(Box::new(sub)));
    }
    ProofOutcome::Proved(cert)
}

/// Asserts two proof outcomes are identical including certificates.
fn assert_outcomes_equal(got: &ProofOutcome, reference: &ProofOutcome, label: &str) {
    match (got, reference) {
        (ProofOutcome::Proved(c1), ProofOutcome::Proved(c2)) => {
            assert_eq!(c1, c2, "{label}: certificates differ");
        }
        (ProofOutcome::Inapplicable(r1), ProofOutcome::Inapplicable(r2)) => {
            assert_eq!(r1, r2, "{label}: failure reasons differ");
        }
        _ => panic!(
            "{label}: verdicts differ: got proved = {}, reference proved = {}",
            got.is_proved(),
            reference.is_proved()
        ),
    }
}

#[test]
fn oracle_depends_matches_interpreted() {
    for seed in 0..80u64 {
        let sys = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD5_EED5);
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, &mut rng);
        let mut a = ObjSet::singleton(ids[rng.gen_range(0..ids.len())]);
        if rng.gen_bool(0.3) {
            a.insert(ids[rng.gen_range(0..ids.len())]);
        }
        let oracle = Oracle::new(&sys).unwrap();
        for &beta in &ids {
            let reference = witness_fields(interp_depends(&sys, &phi, &a, beta));
            let got = Query::new(phi.clone(), a.clone())
                .beta(beta)
                .run(&oracle)
                .unwrap();
            let got = witness_fields(got.into_witness());
            assert_eq!(got, reference, "oracle depends mismatch at seed {seed}");
        }
        let b: ObjSet = ids.iter().take(2).copied().collect();
        let reference = witness_fields(
            Query::new(phi.clone(), a.clone())
                .set(b.clone())
                .engine(Engine::Interpreted)
                .budget(BUDGET)
                .run_on(&sys)
                .unwrap()
                .into_witness(),
        );
        let got = Query::new(phi.clone(), a.clone())
            .set(b)
            .run(&oracle)
            .unwrap();
        let got = witness_fields(got.into_witness());
        assert_eq!(got, reference, "oracle set-target mismatch at seed {seed}");
        let reference = Query::new(phi.clone(), a.clone())
            .engine(Engine::Interpreted)
            .budget(BUDGET)
            .run_on(&sys)
            .unwrap()
            .into_sinks()
            .expect("a sinks query returns a sink set");
        let got = Query::new(phi.clone(), a.clone())
            .run(&oracle)
            .unwrap()
            .into_sinks()
            .expect("a sinks query returns a sink set");
        assert_eq!(got, reference, "oracle sinks mismatch at seed {seed}");
        // One compile serves every query above.
        assert!(oracle.stats().compiles <= 1);
    }
}

#[test]
fn maximal_solution_matches_interpreted_cylinder_sweep() {
    for seed in 0..60u64 {
        let sys = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50_1Eu64);
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let sources = ObjSet::singleton(ids[rng.gen_range(0..ids.len())]);
        let sink = ids[rng.gen_range(0..ids.len())];

        // Reference: enumerate the `=A=` cylinder classes by complement
        // projection and decide each with a fresh interpreted search.
        let n = sys.state_count().unwrap();
        let mut classes: HashMap<Vec<u32>, Vec<u64>> = HashMap::new();
        for sigma in sys.states().unwrap() {
            classes
                .entry(sigma.project_complement(&sources))
                .or_default()
                .push(sigma.encode(u));
        }
        let mut reference = StateSet::new(n);
        for codes in classes.values() {
            let mut cyl = StateSet::new(n);
            for &code in codes {
                cyl.insert(code);
            }
            let phi_c = Phi::from_set(cyl.clone());
            if interp_depends(&sys, &phi_c, &sources, sink).is_none() {
                reference.union_with(&cyl);
            }
        }

        let (got, stats) =
            solve::unique_maximal_independent_solution_stats(&sys, &sources, sink).unwrap();
        assert_eq!(
            got.sat(&sys).unwrap(),
            reference,
            "maximal solution mismatch at seed {seed}"
        );
        assert_eq!(stats.compiles, 1, "solve must compile exactly once");
    }
}

#[test]
fn induction_provers_match_interpreted_references() {
    for seed in 0..60u64 {
        let sys = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1D_DCu64);
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, &mut rng);
        let a = ObjSet::singleton(ids[rng.gen_range(0..ids.len())]);
        for &beta in &ids {
            let got = induction::prove_cor_5_6(&sys, &phi, &a, beta).unwrap();
            let reference = ref_cor_5_6(&sys, &phi, &a, beta);
            assert_outcomes_equal(&got, &reference, &format!("cor 5-6, seed {seed}"));

            let got = induction::prove_cor_6_5(&sys, &phi, &a, beta).unwrap();
            let reference = ref_cor_6_5(&sys, &phi, &a, beta);
            assert_outcomes_equal(&got, &reference, &format!("cor 6-5, seed {seed}"));

            let alpha = a.iter().next().unwrap();
            let got = induction::prove_cor_4_2(&sys, &phi, alpha, beta).unwrap();
            let reference = ref_cor_4_2(&sys, &phi, alpha, beta);
            assert_outcomes_equal(&got, &reference, &format!("cor 4-2, seed {seed}"));
        }
        // Cor 4-3 under a random preorder: q(x, y) ≡ rank(x) ≤ rank(y).
        let ranks: Vec<u32> = ids.iter().map(|_| rng.gen_range(0..3)).collect();
        let q = |x: ObjId, y: ObjId| ranks[x.index()] <= ranks[y.index()];
        let got = induction::prove_cor_4_3(&sys, &phi, &q, "rank-leq").unwrap();
        let reference = ref_cor_4_3(&sys, &phi, &q, "rank-leq");
        assert_outcomes_equal(&got, &reference, &format!("cor 4-3, seed {seed}"));
    }
}

#[test]
fn separation_of_variety_matches_interpreted_reference() {
    for seed in 0..40u64 {
        let sys = random_system(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x000C_07EE_u64);
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, &mut rng);
        let a = ObjSet::singleton(ids[0]);
        // Split on another object's value: each piece {xj = v} is
        // A-independent and together they cover Σ.
        let j = rng.gen_range(1..ids.len());
        let splitter = ids[j];
        let k = u.domain(splitter).size() as i64;
        let cover: Vec<Phi> = (0..k)
            .map(|v| Phi::expr(Expr::var(splitter).eq(Expr::int(v))))
            .collect();
        let beta = ids[rng.gen_range(1..ids.len())];
        for strategy in [
            PieceStrategy::ExactBfs,
            PieceStrategy::Cor56,
            PieceStrategy::Cor65,
        ] {
            let got =
                cover::prove_separation_of_variety(&sys, &phi, &cover, &a, beta, strategy).unwrap();
            let reference = ref_separation(&sys, &phi, &cover, &a, beta, strategy);
            assert_outcomes_equal(&got, &reference, &format!("SoV {strategy:?}, seed {seed}"));
        }
    }
}
