//! Differential tests: the compiled pair-search engines must be
//! observationally identical to the interpreted reference on valid
//! systems — same verdicts, same (minimal-length) witnesses — across
//! random systems and every example system from the paper.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sd_core::reach::DependsWitness;
use sd_core::{
    examples, Cmd, CompileBudget, Domain, Engine, Expr, ObjId, ObjSet, Op, Phi, Query, State,
    System, Universe,
};

const BUDGET: CompileBudget = CompileBudget {
    max_dense_entries: 1 << 24,
    max_dense_pair_bits: 1 << 28,
};

const COMPILED: [Engine; 3] = [Engine::Auto, Engine::CompiledDense, Engine::CompiledSparse];

/// A random valid system: `n` objects over a common `k`-valued domain,
/// with guarded copy/constant operations (always in-domain, so
/// `System::validate` holds by construction).
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

/// A φ drawn from a small pool, including a materialised `Phi::Set` so
/// the extensional fast path is exercised too.
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

/// `q` under `engine` and the suite's budget, run one-shot on `sys`.
fn run(q: Query, engine: Engine, sys: &System) -> sd_core::QueryOutcome {
    q.engine(engine).budget(BUDGET).run_on(sys).unwrap()
}

fn depends(
    sys: &System,
    phi: &Phi,
    a: &ObjSet,
    beta: ObjId,
    engine: Engine,
) -> Option<DependsWitness> {
    run(Query::new(phi.clone(), a.clone()).beta(beta), engine, sys).into_witness()
}

fn set_target(
    sys: &System,
    phi: &Phi,
    a: &ObjSet,
    b: &ObjSet,
    engine: Engine,
) -> Option<DependsWitness> {
    let q = Query::new(phi.clone(), a.clone()).set(b.clone());
    run(q, engine, sys).into_witness()
}

fn sinks(sys: &System, phi: &Phi, a: &ObjSet, engine: Engine) -> ObjSet {
    run(Query::new(phi.clone(), a.clone()), engine, sys)
        .into_sinks()
        .unwrap()
}

fn witness_fields(w: Option<DependsWitness>) -> Option<(usize, State, State)> {
    w.map(|w| (w.history.len(), w.sigma1, w.sigma2))
}

/// Replays a witness: both states satisfy φ, differ only at A, and the
/// history drives them to different β values.
fn assert_witness_valid(sys: &System, phi: &Phi, a: &ObjSet, beta: ObjId, w: &DependsWitness) {
    assert!(phi.holds(sys, &w.sigma1).unwrap());
    assert!(phi.holds(sys, &w.sigma2).unwrap());
    assert!(w.sigma1.eq_except(&w.sigma2, a));
    assert_ne!(w.sigma1, w.sigma2);
    let o1 = sys.run(&w.sigma1, &w.history).unwrap();
    let o2 = sys.run(&w.sigma2, &w.history).unwrap();
    assert_ne!(o1.index(beta), o2.index(beta), "witness does not reach β");
}

/// Checks all engines against the interpreted reference for one
/// (system, φ, A) configuration, over every β and a set target.
fn check_configuration(sys: &System, phi: &Phi, a: &ObjSet) {
    let u = sys.universe();
    let objects: Vec<_> = u.objects().collect();
    for &beta in &objects {
        let reference = depends(sys, phi, a, beta, Engine::Interpreted);
        if let Some(w) = &reference {
            assert_witness_valid(sys, phi, a, beta, w);
        }
        let reference = witness_fields(reference);
        for engine in COMPILED {
            let got = depends(sys, phi, a, beta, engine);
            if let Some(w) = &got {
                assert_witness_valid(sys, phi, a, beta, w);
            }
            assert_eq!(
                witness_fields(got),
                reference,
                "depends mismatch: {engine:?}, beta {beta:?}"
            );
        }
    }
    // Set target: the first two objects simultaneously.
    let b: ObjSet = objects.iter().take(2).copied().collect();
    let reference = witness_fields(set_target(sys, phi, a, &b, Engine::Interpreted));
    for engine in COMPILED {
        let got = witness_fields(set_target(sys, phi, a, &b, engine));
        assert_eq!(got, reference, "set-target mismatch: {engine:?}");
    }
    // Sinks row.
    let reference = sinks(sys, phi, a, Engine::Interpreted);
    for engine in COMPILED {
        let got = sinks(sys, phi, a, engine);
        assert_eq!(got, reference, "sinks mismatch: {engine:?}");
    }
}

#[test]
fn engines_agree_on_random_systems() {
    // ≥ 100 random systems, each exercised across every β under a random
    // φ and source set.
    for seed in 0..120u64 {
        let sys = random_system(seed);
        sys.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_A5A5);
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let phi = random_phi(&sys, &mut rng);
        let mut a = ObjSet::singleton(ids[rng.gen_range(0..ids.len())]);
        if rng.gen_bool(0.3) {
            a.insert(ids[rng.gen_range(0..ids.len())]);
        }
        check_configuration(&sys, &phi, &a);
    }
}

#[test]
fn exact_search_agrees_with_bounded_enumeration() {
    // depends_bounded enumerates histories by ascending length, so when
    // the exact witness fits the bound both must find one of the same
    // minimal length; when the exact search finds nothing, neither can
    // the bounded one.
    const BOUND: usize = 3;
    for seed in 0..40u64 {
        let sys = random_system(seed);
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let mut rng = StdRng::seed_from_u64(!seed);
        let phi = random_phi(&sys, &mut rng);
        let a = ObjSet::singleton(ids[rng.gen_range(0..ids.len())]);
        for &beta in &ids {
            let q = Query::new(phi.clone(), a.clone()).beta(beta);
            let exact = q.clone().run_on(&sys).unwrap().into_witness();
            let bounded = q.bounded(BOUND).engine(Engine::Interpreted).run_on(&sys);
            let bounded = bounded.unwrap().into_witness();
            match (&exact, &bounded) {
                (None, None) => {}
                (None, Some(w)) => panic!(
                    "bounded found a length-{} witness the exact search missed",
                    w.history.len()
                ),
                (Some(e), None) => assert!(
                    e.history.len() > BOUND,
                    "exact witness of length {} not found by bound {BOUND}",
                    e.history.len()
                ),
                (Some(e), Some(b)) => {
                    assert_eq!(
                        e.history.len(),
                        b.history.len(),
                        "witness lengths disagree (both must be minimal)"
                    );
                    assert_witness_valid(&sys, &phi, &a, beta, b);
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_paper_examples() {
    let systems = [
        examples::copy_system(4).unwrap(),
        examples::threshold_system(15).unwrap(),
        examples::guarded_copy_system(3).unwrap(),
        examples::flag_copy_system(3).unwrap(),
        examples::nontransitive_system(2).unwrap(),
        examples::pointer_chain_system(3, 2).unwrap(),
        examples::left_right_system(3).unwrap(),
        examples::alpha12_copy_system(3).unwrap(),
        examples::alpha12_sub_system(3).unwrap(),
        examples::m1m2_system(2).unwrap(),
        examples::oscillator_system(5).unwrap(),
        examples::floyd_flowchart_system(2).unwrap(),
        examples::pc_branch_system().unwrap(),
        examples::mod_adder_system(2).unwrap(),
        examples::two_op_rights_system().unwrap(),
    ];
    for sys in &systems {
        let u = sys.universe();
        // Cap the source sweep on the larger universes; every object is
        // still covered as a β via the sinks-row comparison.
        let sources: Vec<ObjSet> = u.objects().take(4).map(ObjSet::singleton).collect();
        for a in &sources {
            check_configuration(sys, &Phi::True, a);
        }
        // The batched matrix agrees with interpreted row-by-row sinks.
        for engine in COMPILED {
            let rows = run(Query::matrix(Phi::True, sources.clone()), engine, sys)
                .into_rows()
                .unwrap();
            for (a, row) in sources.iter().zip(&rows) {
                let reference = sinks(sys, &Phi::True, a, Engine::Interpreted);
                assert_eq!(*row, reference, "sinks_matrix row mismatch for {a:?}");
            }
        }
    }
}
