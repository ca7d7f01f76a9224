//! Experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! Each section corresponds to one experiment id from DESIGN.md §4 and
//! reproduces one worked example, theorem or claim from the paper. Run
//! with `cargo run -p sd-bench --bin experiments --release`.
//!
//! `--telemetry OUT.jsonl` instead runs a short instrumented workload
//! (cold + warm matrix-query sweeps and a witness query against a
//! shared Oracle) and writes every [`sd_core::QueryEvent`] as one JSON
//! object per line — the raw material for cache-attribution analysis.

use std::time::Instant;

use sd_bench::Table;
use sd_core::{examples, Expr, History, ObjSet, OpId, Phi, Rights};
use sd_info::Dist;

fn yes(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An optional argument re-runs just one performance section (p2, p3
    // or p5) instead of the whole harness; `--telemetry OUT.jsonl` runs
    // the instrumented workload and writes an event log.
    if let Some(section) = std::env::args().nth(1) {
        match section.as_str() {
            "p2" => p2_pair_bfs()?,
            "p3" => p3_static_vs_semantic()?,
            "p5" => p5_provers()?,
            "--telemetry" => {
                let out = std::env::args()
                    .nth(2)
                    .ok_or("--telemetry requires an output path (e.g. out.jsonl)")?;
                telemetry_log(&out)?;
            }
            other => {
                return Err(
                    format!("unknown section {other:?} (try p2, p3, p5, --telemetry)").into(),
                )
            }
        }
        return Ok(());
    }
    let started = Instant::now();
    e1_variety()?;
    e2_reflexivity()?;
    e3_maximal_solutions()?;
    e4_unique_maximal()?;
    e5_worth()?;
    e6_pointer_chains()?;
    e7_nontransitivity()?;
    e8_relative_autonomy()?;
    e9_set_intermediate()?;
    e10_oscillator()?;
    e11_floyd()?;
    e12_observers()?;
    e13_confinement()?;
    e14_security()?;
    e15_bits()?;
    e16_channel()?;
    e17_set_sources()?;
    e18_inferential()?;
    e19_mechanisms()?;
    p2_pair_bfs()?;
    p3_static_vs_semantic()?;
    p5_provers()?;
    println!("\ntotal harness time: {:.2?}", started.elapsed());
    Ok(())
}

/// `--telemetry OUT.jsonl`: run an instrumented workload and dump every
/// query event as JSON Lines. The workload exercises the paths a serving
/// layer cares about: one compile, a cold matrix sweep (partition
/// miss), a warm repeat (partition hit), and a per-query witness search.
fn telemetry_log(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    use std::io::BufWriter;
    use std::sync::Arc;

    use sd_core::{CompileBudget, Engine, JsonLinesSink, Oracle, Query, Sink};

    let sys = examples::flag_copy_system(3)?;
    let file = std::fs::File::create(path)?;
    let sink: Arc<JsonLinesSink<BufWriter<std::fs::File>>> =
        Arc::new(JsonLinesSink::new(BufWriter::new(file)));
    let oracle = Oracle::with_engine(
        &sys,
        Engine::Auto,
        &CompileBudget::default(),
        Some(sink.clone() as Arc<dyn Sink>),
    )?;

    let u = sys.universe();
    let sweep = Query::matrix(Phi::True, u.objects().map(ObjSet::singleton).collect());
    let cold = sweep.run(&oracle)?.into_rows();
    let warm = sweep.run(&oracle)?.into_rows();
    assert_eq!(cold, warm, "warm sweep must agree with the cold one");

    let alpha = u.obj("alpha")?;
    let beta = u.obj("beta")?;
    let out = Query::new(Phi::True, ObjSet::singleton(alpha))
        .beta(beta)
        .run(&oracle)?;
    println!(
        "telemetry: α ▷ β = {}; engine = {}, {} pair expansions, partition cached = {}",
        yes(out.holds()),
        out.report.engine,
        out.report.pair_expansions,
        out.report.partition_cached,
    );

    drop(oracle);
    let writer = Arc::into_inner(sink).expect("oracle dropped, sink unshared");
    writer
        .into_inner()
        .into_inner()
        .map_err(|e| std::io::Error::from(e.error().kind()))?;
    println!("telemetry: events written to {path}");
    Ok(())
}

/// E1 (§2.2): copying conveys variety; constraints remove it.
fn e1_variety() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E1 (§2.2): variety and its elimination ==");
    let mut t = Table::new(&["system", "constraint φ", "α ▷φ β", "paper"]);
    for k in [4i64, 16, 64] {
        let sys = examples::copy_system(k)?;
        let u = sys.universe();
        let a = u.obj("alpha")?;
        let b = u.obj("beta")?;
        let free = sd_core::Query::new(Phi::True, ObjSet::singleton(a).clone())
            .beta(b)
            .run_on(&sys)?
            .into_witness();
        t.row(&[
            format!("β ← α ({k} values)"),
            "tt".into(),
            yes(free.is_some()),
            "yes".into(),
        ]);
        let constant = Phi::expr(Expr::var(a).eq(Expr::int(k / 2)));
        let blocked = sd_core::Query::new(constant.clone(), ObjSet::singleton(a).clone())
            .beta(b)
            .run_on(&sys)?
            .into_witness();
        t.row(&[
            format!("β ← α ({k} values)"),
            format!("α = {}", k / 2),
            yes(blocked.is_some()),
            "no".into(),
        ]);
    }
    let sys = examples::threshold_system(15)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let free = sd_core::Query::new(Phi::True, ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "if α<10 then β←0 else β←1".into(),
        "tt".into(),
        yes(free.is_some()),
        "yes (1 bit)".into(),
    ]);
    let lt10 = Phi::expr(Expr::var(a).lt(Expr::int(10)));
    let blocked = sd_core::Query::new(lt10.clone(), ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "if α<10 then β←0 else β←1".into(),
        "α < 10".into(),
        yes(blocked.is_some()),
        "no".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E2 (§2.5, Thms 2-4/2-5): reflexivity over λ.
fn e2_reflexivity() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E2 (§2.5): reflexivity and the empty history ==");
    let sys = examples::copy_system(4)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let lambda = History::empty();
    let mut t = Table::new(&["claim", "checked", "paper"]);
    let refl = sd_core::depend::strongly_depends_after(
        &sys,
        &Phi::True,
        &ObjSet::singleton(a),
        a,
        &lambda,
    )?;
    t.row(&[
        "α ▷λ α (variety present)".into(),
        yes(refl.is_some()),
        "yes".into(),
    ]);
    let constant = Phi::expr(Expr::var(a).eq(Expr::int(1)));
    let none = sd_core::depend::strongly_depends_after(
        &sys,
        &constant,
        &ObjSet::singleton(a),
        a,
        &lambda,
    )?;
    t.row(&[
        "α ▷φλ α with φ: α const (Thm 2-4)".into(),
        yes(none.is_some()),
        "no".into(),
    ]);
    let cross = sd_core::depend::strongly_depends_after(
        &sys,
        &Phi::True,
        &ObjSet::singleton(a),
        b,
        &lambda,
    )?;
    t.row(&[
        "α ▷λ β for β ∉ A (Thm 2-5)".into(),
        yes(cross.is_some()),
        "no".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E3 (§3.5): maximal solutions are not unique; the join property fails.
fn e3_maximal_solutions() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E3 (§3.5): non-unique maximal solutions, join failure ==");
    let sys = examples::threshold_system(12)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let maximal = sd_core::solve::maximal_value_constraints(&sys, a, b)?;
    let mut t = Table::new(&["maximal solution (allowed α values)", "size"]);
    for m in &maximal {
        let vals: Vec<String> = m.allowed.iter().map(|v| v.to_string()).collect();
        t.row(&[vals.join(","), m.allowed.len().to_string()]);
    }
    print!("{}", t.render());
    println!(
        "maximal solutions found: {} (paper: 2 — α ≤ 10 and α > 10)",
        maximal.len()
    );

    let sys2 = examples::guarded_copy_system(2)?;
    let u2 = sys2.universe();
    let a2 = u2.obj("alpha")?;
    let b2 = u2.obj("beta")?;
    let problem = sd_core::problem::Problem::no_flow(ObjSet::singleton(a2), b2, false);
    let phi1 = Phi::expr(Expr::var(a2).eq(Expr::int(0)));
    let phi2 = Phi::expr(Expr::var(a2).eq(Expr::int(1)));
    let join_ok = sd_core::solve::join_property_instance(&sys2, &problem, &phi1, &phi2)?;
    println!(
        "join property for α=0 / α=1 in `if m then β←α`: {} (paper: fails)",
        if join_ok { "holds" } else { "fails" }
    );
    Ok(())
}

/// E4 (Thm 3-1): unique maximal independent solution, constructed.
fn e4_unique_maximal() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E4 (Thm 3-1, §3.5): unique maximal α-independent solution ==");
    let sys = examples::two_op_rights_system()?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let computed =
        sd_core::solve::unique_maximal_independent_solution(&sys, &ObjSet::singleton(a), b)?;
    let expected = Phi::expr(
        Expr::var(u.obj("xx")?)
            .has_rights(Rights::S)
            .not()
            .or(Expr::var(u.obj("xa")?).has_rights(Rights::R).not())
            .or(Expr::var(u.obj("xb")?).has_rights(Rights::W).not()),
    );
    let same = computed.sat(&sys)? == expected.sat(&sys)?;
    println!(
        "computed φmax = (s∉<x,x> ∨ r∉<x,α> ∨ w∉<x,β>): {} (paper: the single maximal solution)",
        yes(same)
    );
    println!(
        "|Sat(φmax)| = {} of {} states",
        computed.sat(&sys)?.count(),
        sys.state_count()?
    );
    Ok(())
}

/// E5 (§3.6): worth comparison of φmax, φ1, φ2.
fn e5_worth() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E5 (§3.6): the worth measure ==");
    let sys = examples::two_op_rights_system()?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let m = u.obj("m")?;
    let phi_max = Phi::expr(
        Expr::var(u.obj("xx")?)
            .has_rights(Rights::S)
            .not()
            .or(Expr::var(u.obj("xa")?).has_rights(Rights::R).not())
            .or(Expr::var(u.obj("xb")?).has_rights(Rights::W).not()),
    );
    let phi_1 = Phi::expr(Expr::var(u.obj("xa")?).has_rights(Rights::R).not());
    let phi_2 = Phi::expr(
        Expr::var(u.obj("xx")?)
            .has_rights(Rights::S)
            .not()
            .or(Expr::var(u.obj("xb")?).has_rights(Rights::W).not()),
    );
    let w_max = sd_core::worth::worth(&sys, &phi_max)?;
    let w_1 = sd_core::worth::worth(&sys, &phi_1)?;
    let w_2 = sd_core::worth::worth(&sys, &phi_2)?;
    let mut t = Table::new(&["solution", "α ▷ β", "m ▷ β", "|worth|", "vs φmax"]);
    for (name, w) in [
        ("φmax", &w_max),
        ("φ1: r∉<x,α>", &w_1),
        ("φ2: s∉ ∨ w∉", &w_2),
    ] {
        let cmp = match w.partial_cmp(&w_max) {
            Some(core::cmp::Ordering::Equal) => "equal",
            Some(core::cmp::Ordering::Less) => "strictly less",
            Some(core::cmp::Ordering::Greater) => "greater",
            None => "incomparable",
        };
        t.row(&[
            name.into(),
            yes(w.permits(a, b)),
            yes(w.permits(m, b)),
            w.len().to_string(),
            cmp.into(),
        ]);
    }
    print!("{}", t.render());
    println!("paper: φ1 as worthy as φmax; φ2 strictly less worthy");
    Ok(())
}

/// E6 (§4.3): the pointer-chain induction proof, with scaling.
fn e6_pointer_chains() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E6 (§4.3): pointer chains — Strong Dependency Induction vs exact ==");
    let mut t = Table::new(&[
        "n objects",
        "states",
        "ops",
        "induction proves ¬α▷φβ",
        "induction ms",
        "exact agrees",
        "exact ms",
    ]);
    for n in [3usize, 4] {
        let sys = examples::pointer_chain_system(n, 2)?;
        let u = sys.universe();
        let alpha = u.obj("o0")?;
        let beta = u.obj(&format!("o{}", n - 1))?;
        // Chain = {o0}: φ says nothing outside the chain points into it.
        let chain = ObjSet::singleton(alpha);
        let chain_phi = chain.clone();
        let phi = Phi::pred("chain-closed", move |sys, sigma| {
            let u = sys.universe();
            for y in u.objects() {
                let target = match sigma.value(u, y) {
                    sd_core::Value::Record(fields) => {
                        fields[1].as_name().expect("ptr field is a name")
                    }
                    _ => unreachable!("pointer objects are records"),
                };
                if chain_phi.contains(target) && !chain_phi.contains(y) {
                    return Ok(false);
                }
            }
            Ok(true)
        });
        let chain_q = chain.clone();
        let q = move |x: sd_core::ObjId, y: sd_core::ObjId| {
            // q(x, y) = Chain(x) ⊃ Chain(y).
            !chain_q.contains(x) || chain_q.contains(y)
        };
        let t0 = Instant::now();
        let proof = sd_core::induction::prove_cor_4_3(&sys, &phi, &q, "Chain(x) ⊃ Chain(y)")?;
        let ind_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let exact = sd_core::Query::new(phi.clone(), ObjSet::singleton(alpha).clone())
            .beta(beta)
            .run_on(&sys)?
            .into_witness();
        let exact_ms = t1.elapsed().as_secs_f64() * 1e3;
        t.row(&[
            n.to_string(),
            sys.state_count()?.to_string(),
            sys.num_ops().to_string(),
            yes(proof.is_proved()),
            format!("{ind_ms:.1}"),
            yes(exact.is_none()),
            format!("{exact_ms:.1}"),
        ]);
    }
    print!("{}", t.render());
    println!("paper: no chain of pointers from β to α ⇒ ¬α ▷φ β (proved by Cor 4-3)");
    Ok(())
}

/// E7 (§4.4–4.6): non-transitivity and Separation of Variety.
fn e7_nontransitivity() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E7 (§4.4–4.6): non-transitivity and Separation of Variety ==");
    let sys = examples::nontransitive_system(2)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let m = u.obj("m")?;
    let q_obj = u.obj("q")?;
    let h1 = History::single(OpId(0));
    let h2 = History::single(OpId(1));
    let h12 = h1.concat(&h2);
    let mut t = Table::new(&["relation", "holds", "paper"]);
    let am =
        sd_core::depend::strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), m, &h1)?;
    t.row(&["α ▷δ1 m".into(), yes(am.is_some()), "yes".into()]);
    let mb =
        sd_core::depend::strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(m), b, &h2)?;
    t.row(&["m ▷δ2 β".into(), yes(mb.is_some()), "yes".into()]);
    let ab =
        sd_core::depend::strongly_depends_after(&sys, &Phi::True, &ObjSet::singleton(a), b, &h12)?;
    t.row(&[
        "α ▷δ1δ2 β".into(),
        yes(ab.is_some()),
        "no (non-transitive!)".into(),
    ]);
    let ab_any = sd_core::Query::new(Phi::True, ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "α ▷ β (any history)".into(),
        yes(ab_any.is_some()),
        "no".into(),
    ]);
    print!("{}", t.render());

    let cover = vec![
        Phi::expr(Expr::var(q_obj)),
        Phi::expr(Expr::var(q_obj).not()),
    ];
    let out = sd_core::cover::prove_separation_of_variety(
        &sys,
        &Phi::True,
        &cover,
        &ObjSet::singleton(a),
        b,
        sd_core::cover::PieceStrategy::ExactBfs,
    )?;
    println!(
        "Separation of Variety over {{q, ¬q}} proves ¬α ▷ β: {}",
        yes(out.is_proved())
    );

    let stat = sd_flow::transitive_flows(&sys)?;
    println!(
        "transitive flow baseline reports α → β: {} (false positive, as §4.4 predicts)",
        yes(stat.contains(&(a, b)))
    );
    Ok(())
}

/// E8 (§5.2–5.4): non-autonomous constraints and relative autonomy.
fn e8_relative_autonomy() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E8 (§5.2–5.4): relative autonomy ==");
    let sys = examples::alpha12_copy_system(4)?;
    let u = sys.universe();
    let a1 = u.obj("a1")?;
    let a2 = u.obj("a2")?;
    let b = u.obj("beta")?;
    let phi = Phi::expr(Expr::var(a1).eq(Expr::var(a2)));
    let mut t = Table::new(&["claim", "checked", "paper"]);
    t.row(&[
        "φ: α1 = α2 autonomous".into(),
        yes(sd_core::classify::is_autonomous(&sys, &phi)?),
        "no".into(),
    ]);
    t.row(&[
        "φ {α1,α2}-autonomous".into(),
        yes(sd_core::classify::is_autonomous_relative(
            &sys,
            &phi,
            &ObjSet::from_iter([a1, a2]),
        )?),
        "yes".into(),
    ]);
    let single = sd_core::Query::new(phi.clone(), ObjSet::singleton(a1).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "α1 ▷φ β (β ← α1)".into(),
        yes(single.is_some()),
        "no — yet info IS transmitted".into(),
    ]);
    let pair = sd_core::Query::new(phi.clone(), ObjSet::from_iter([a1, a2]).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "{α1,α2} ▷φ β".into(),
        yes(pair.is_some()),
        "yes (clump as one source)".into(),
    ]);
    print!("{}", t.render());

    let sub = examples::alpha12_sub_system(4)?;
    let su = sub.universe();
    let sa1 = su.obj("a1")?;
    let sa2 = su.obj("a2")?;
    let sb = su.obj("beta")?;
    let sphi = Phi::expr(Expr::var(sa1).eq(Expr::var(sa2)));
    let sub_pair = sd_core::Query::new(sphi.clone(), ObjSet::from_iter([sa1, sa2]).clone())
        .beta(sb)
        .run_on(&sub)?
        .into_witness();
    println!(
        "β ← α1 − α2 with φ: α1 = α2: {{α1,α2}} ▷φ β = {} (paper: no — β always 0)",
        yes(sub_pair.is_some())
    );
    Ok(())
}

/// E9 (§5.5): set-valued intermediate objects.
fn e9_set_intermediate() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E9 (§5.5): set-valued intermediates under non-autonomous φ ==");
    let sys = examples::m1m2_system(2)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let m1 = u.obj("m1")?;
    let m2 = u.obj("m2")?;
    let phi = Phi::expr(Expr::var(m1).eq(Expr::var(m2)));
    let h1 = History::single(OpId(0));
    let h2 = History::single(OpId(1));
    let mut t = Table::new(&["relation", "holds", "paper"]);
    for (label, m) in [("m1", m1), ("m2", m2)] {
        let r = sd_core::depend::strongly_depends_after(&sys, &phi, &ObjSet::singleton(m), b, &h2)?;
        t.row(&[format!("{label} ▷φδ2 β"), yes(r.is_some()), "no".into()]);
    }
    let set =
        sd_core::depend::strongly_depends_after(&sys, &phi, &ObjSet::from_iter([m1, m2]), b, &h2)?;
    t.row(&["{m1,m2} ▷φδ2 β".into(), yes(set.is_some()), "yes".into()]);
    let fan = sd_core::depend::strongly_depends_set_after(
        &sys,
        &phi,
        &ObjSet::singleton(a),
        &ObjSet::from_iter([m1, m2]),
        &h1,
    )?;
    t.row(&[
        "α ▷φδ1 {m1,m2} (Def 5-6)".into(),
        yes(fan.is_some()),
        "yes".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E10 (§6.4): the oscillating system and inductive covers.
fn e10_oscillator() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E10 (§6.4): oscillating system, inductive covers ==");
    let sys = examples::oscillator_system(37)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let phi = Phi::expr(Expr::var(a).eq(Expr::int(37)));
    let phi_star = Phi::expr(
        Expr::var(a)
            .eq(Expr::int(37))
            .or(Expr::var(a).eq(Expr::int(-37))),
    );
    let mut t = Table::new(&["step", "result", "paper"]);
    t.row(&[
        "φ: α = 37 invariant".into(),
        yes(sd_core::classify::is_invariant(&sys, &phi)?),
        "no".into(),
    ]);
    let relax = sd_core::Query::new(phi_star.clone(), ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&[
        "relaxation φ*: α = ±37 — α ▷φ* β".into(),
        yes(relax.is_some()),
        "yes (retreat to invariance fails)".into(),
    ]);
    let cover = vec![
        Phi::expr(Expr::var(a).eq(Expr::int(37))),
        Phi::expr(Expr::var(a).eq(Expr::int(-37))),
    ];
    t.row(&[
        "{α = 37, α = -37} inductive cover for φ".into(),
        yes(sd_core::cover::is_inductive_cover(&sys, &phi, &cover)?),
        "yes".into(),
    ]);
    let proof =
        sd_core::cover::prove_inductive_cover(&sys, &phi, &cover, &ObjSet::singleton(a), b)?;
    t.row(&[
        "Thm 6-7 proves ¬α ▷φ β".into(),
        yes(proof.is_proved()),
        "yes".into(),
    ]);
    let exact = sd_core::Query::new(phi.clone(), ObjSet::singleton(a).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    t.row(&["exact: α ▷φ β".into(), yes(exact.is_some()), "no".into()]);
    print!("{}", t.render());
    Ok(())
}

/// E11 (§6.5): Floyd assertions on the flowchart program.
fn e11_floyd() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E11 (§6.5): Floyd assertions as inductive covers ==");
    let src = "\
var alpha: int 0..1;
var beta: int 0..1;
var q: int 0..15;
var t: bool;
if q > 10 { t := true; } else { t := false; }
if t { beta := alpha; }
";
    let program = sd_lang::parse(src)?;
    let c = sd_lang::compile(&program)?;
    let ann = sd_lang::Assertions::new()
        .with_entry("q < 10")?
        .with_at(2, "!t")?;
    let mut t = Table::new(&["step", "result", "paper"]);
    t.row(&[
        "assertions form an inductive cover".into(),
        yes(sd_lang::verify_assertions(&c, &ann)?),
        "yes".into(),
    ]);
    let proof = sd_lang::prove_no_flow(&c, &ann, "alpha", "beta")?;
    t.row(&[
        "Thm 6-7 proves ¬α ▷φ β".into(),
        yes(proof.is_proved()),
        "yes".into(),
    ]);
    let exact = sd_lang::floyd::depends_exact(&c, &ann, "alpha", "beta")?;
    t.row(&["exact: α ▷φ β".into(), yes(exact), "no".into()]);
    let unconstrained =
        sd_lang::floyd::depends_exact(&c, &sd_lang::Assertions::new(), "alpha", "beta")?;
    t.row(&[
        "without entry assertion: α ▷ β".into(),
        yes(unconstrained),
        "yes".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E12 (§6.5 end): the pc paradox under different observers.
fn e12_observers() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E12 (§6.5 end, §7.3): observation power ==");
    let sys = examples::pc_branch_system()?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let pc = u.obj("pc")?;
    let phi = Phi::expr(Expr::var(pc).eq(Expr::int(1)));
    let known = sd_core::observe::depends_observed(
        &sys,
        &phi,
        &ObjSet::singleton(a),
        b,
        sd_core::observe::Observer::KnownHistory,
    )?;
    let timed = sd_core::observe::depends_observed(
        &sys,
        &phi,
        &ObjSet::singleton(a),
        b,
        sd_core::observe::Observer::TimeOnly,
    )?;
    let mut t = Table::new(&["observer", "α ▷φ β", "paper"]);
    t.row(&["knows the history".into(), yes(known), "yes".into()]);
    t.row(&["sees only time + β".into(), yes(timed), "no".into()]);
    print!("{}", t.render());
    Ok(())
}

/// E13 (§3.4, §7.5): confinement and declassification.
fn e13_confinement() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E13 (§3.4, §7.5): the Confinement Problem ==");
    let m = sd_matrix::MatrixBuilder::new()
        .subject("u")
        .file("secret", 2)
        .file("scratch", 2)
        .file("spy", 2)
        .build()?;
    let c = sd_matrix::Confinement::new(&m, &["secret"], &["spy"])?;
    let mut t = Table::new(&["constraint φ", "solves confinement", "expected"]);
    t.row(&[
        "tt".into(),
        yes(c.is_solution(&m, &Phi::True)?),
        "no".into(),
    ]);
    let phi_r = sd_matrix::no_reads_of_confined(&m, &["secret"])?;
    t.row(&[
        "no reads of secret".into(),
        yes(c.is_solution(&m, &phi_r)?),
        "yes".into(),
    ]);
    let phi_w = sd_matrix::no_writes_to_spies(&m, &["spy"])?;
    t.row(&[
        "no writes to spy".into(),
        yes(c.is_solution(&m, &phi_w)?),
        "yes".into(),
    ]);
    let weak =
        sd_matrix::Confinement::new(&m, &["secret"], &["spy"])?.declassify(&m, &["secret"])?;
    t.row(&[
        "tt, secret declassified (§7.5)".into(),
        yes(weak.is_solution(&m, &Phi::True)?),
        "yes".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E14 (§3.4, §4.2, §7.3): the Security Problem.
fn e14_security() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E14 (§3.4, §4.2, §7.3): the Security Problem ==");
    let m = sd_matrix::MatrixBuilder::new()
        .subject("u")
        .file("low", 2)
        .file("high", 2)
        .build()?;
    let p = sd_matrix::SecurityPolicy::new(&m, &[("low", 0), ("high", 1)], 0)?;
    let phi = p.secure_configuration(&m)?;
    let mut t = Table::new(&[
        "configuration",
        "secure (exact)",
        "Cor 4-3 proof",
        "expected",
    ]);
    t.row(&[
        "unconstrained".into(),
        yes(p.holds(&m, &Phi::True)?),
        "-".into(),
        "no".into(),
    ]);
    let proof = p.prove(&m, &phi)?;
    t.row(&[
        "fixed secure rights".into(),
        yes(p.holds(&m, &phi)?),
        yes(proof.is_proved()),
        "yes".into(),
    ]);
    let leaky = sd_matrix::MatrixBuilder::new()
        .subject("u")
        .file("low", 2)
        .file("high", 2)
        .with_dynamic_classification("high", 1)
        .build()?;
    let lp = sd_matrix::SecurityPolicy::new(&leaky, &[("low", 0), ("high", 1)], 0)?;
    let lphi = lp.secure_configuration(&leaky)?;
    let lproof = lp.prove(&leaky, &lphi)?;
    t.row(&[
        "varying classification (§7.3)".into(),
        yes(lp.holds(&leaky, &lphi)?),
        yes(lproof.is_proved()),
        "no (covert path)".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E15 (§7.4): quantitative measures on the mod adder.
fn e15_bits() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E15 (§7.4): bits transmitted by β ← (α1 + α2) mod 2^k ==");
    let mut t = Table::new(&[
        "k",
        "b({α1,α2}→β) equivoc.",
        "b(α1→β) equivoc.",
        "b(α1→β) held-const",
        "interference",
    ]);
    for k in [3u32, 5, 7] {
        let sys = examples::mod_adder_system(k)?;
        let u = sys.universe();
        let a1 = u.obj("a1")?;
        let a2 = u.obj("a2")?;
        let b = u.obj("beta")?;
        let d = Dist::uniform(&sys, &Phi::True)?;
        let h = History::single(OpId(0));
        let pair = ObjSet::from_iter([a1, a2]);
        let both = sd_info::bits_equivocation(&sys, &d, &pair, b, &h)?;
        let single = sd_info::bits_equivocation(&sys, &d, &ObjSet::singleton(a1), b, &h)?;
        let held = sd_info::bits_held_constant(&sys, &d, a1, b, &h)?;
        let interf = sd_info::interference(
            &sys,
            &d,
            &ObjSet::singleton(a1),
            &ObjSet::singleton(a2),
            b,
            &h,
        )?;
        t.row(&[
            k.to_string(),
            format!("{both:.3}"),
            format!("{single:.3}"),
            format!("{held:.3}"),
            format!("{interf:.3}"),
        ]);
    }
    print!("{}", t.render());
    println!(
        "paper (k=7): 7 bits from the pair; 0 bits (equivocation) / 7 bits (held-constant) from α1"
    );
    Ok(())
}

/// E16 (§1.8): noise lowers covert-channel bandwidth.
fn e16_channel() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E16 (§1.8): covert-channel capacity under noise (Blahut–Arimoto) ==");
    let mut t = Table::new(&["crossover ε", "capacity (bits/use)", "closed form 1 − H(ε)"]);
    for eps in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let ch = sd_info::Channel::bsc(eps)?;
        let (cap, _iters, _) = ch.capacity(1e-9, 10_000)?;
        let closed = 1.0 - sd_info::binary_entropy(eps);
        t.row(&[
            format!("{eps:.2}"),
            format!("{cap:.6}"),
            format!("{closed:.6}"),
        ]);
    }
    print!("{}", t.render());
    println!("paper: enough noise makes the user→disk bandwidth \"sufficiently low\"");
    Ok(())
}

/// E17 (Thms 2-1/2-6): set sources decompose under autonomous φ.
fn e17_set_sources() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E17 (Thm 2-1/2-6): set sources have individual members ==");
    let sys = examples::mod_adder_system(2)?;
    let u = sys.universe();
    let a1 = u.obj("a1")?;
    let a2 = u.obj("a2")?;
    let b = u.obj("beta")?;
    let pair = ObjSet::from_iter([a1, a2]);
    let set_dep = sd_core::Query::new(Phi::True, pair.clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    let single1 = sd_core::Query::new(Phi::True, ObjSet::singleton(a1).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    let single2 = sd_core::Query::new(Phi::True, ObjSet::singleton(a2).clone())
        .beta(b)
        .run_on(&sys)?
        .into_witness();
    println!(
        "{{α1,α2}} ▷ β: {}; α1 ▷ β: {}; α2 ▷ β: {} (Thm 2-1: at least one member transmits)",
        yes(set_dep.is_some()),
        yes(single1.is_some()),
        yes(single2.is_some()),
    );
    Ok(())
}

/// E18 (§7.2): Inferential and Direct Dependency.
fn e18_inferential() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E18 (§7.2): Inferential and Direct Dependency ==");
    use sd_core::inferential;
    let mut t = Table::new(&[
        "system / φ",
        "source",
        "SD",
        "inferential",
        "direct",
        "paper",
    ]);
    // β ← α1 under φ: α1 = α2 — the §5.2 example.
    let sys = examples::alpha12_copy_system(3)?;
    let u = sys.universe();
    let a1 = u.obj("a1")?;
    let a2 = u.obj("a2")?;
    let b = u.obj("beta")?;
    let phi = Phi::expr(Expr::var(a1).eq(Expr::var(a2)));
    let h = History::single(OpId(0));
    for (name, src) in [("α1", a1), ("α2", a2)] {
        let s = ObjSet::singleton(src);
        let sd = sd_core::depend::strongly_depends_after(&sys, &phi, &s, b, &h)?.is_some();
        let inf = inferential::inferentially_depends(&sys, &phi, &s, b, &h)?.is_some();
        let dir = inferential::directly_depends_after(&sys, &phi, &s, b, &h)?.is_some();
        let expect = if src == a1 {
            "SD blind; inf+dir see it"
        } else {
            "only inferential (via φ)"
        };
        t.row(&[
            "β←α1, φ: α1=α2".into(),
            name.into(),
            yes(sd),
            yes(inf),
            yes(dir),
            expect.into(),
        ]);
    }
    // The adder: contingent transmission.
    let adder = examples::mod_adder_system(2)?;
    let au = adder.universe();
    let aa1 = au.obj("a1")?;
    let ab = au.obj("beta")?;
    let s = ObjSet::singleton(aa1);
    let sd = sd_core::depend::strongly_depends_after(&adder, &Phi::True, &s, ab, &h)?.is_some();
    let inf = inferential::inferentially_depends(&adder, &Phi::True, &s, ab, &h)?.is_some();
    let dir = inferential::directly_depends_after(&adder, &Phi::True, &s, ab, &h)?.is_some();
    t.row(&[
        "β←(α1+α2) mod 4, tt".into(),
        "α1".into(),
        yes(sd),
        yes(inf),
        yes(dir),
        "SD sees contingent; inf does not".into(),
    ]);
    print!("{}", t.render());
    Ok(())
}

/// E19 (§7.3): mechanism audit.
fn e19_mechanisms() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== E19 (§7.3): mechanisms and covert paths ==");
    use sd_core::mechanism::{added_paths, Mechanism};
    use std::sync::Arc;
    let mk = || {
        sd_core::Universe::new(vec![
            ("alpha".into(), sd_core::Domain::int_range(0, 1).unwrap()),
            ("beta".into(), sd_core::Domain::int_range(0, 1).unwrap()),
            ("tmp".into(), sd_core::Domain::int_range(0, 1).unwrap()),
        ])
        .unwrap()
    };
    let ub = mk();
    let (a, b, tmp) = (ub.obj("alpha")?, ub.obj("beta")?, ub.obj("tmp")?);
    let base = sd_core::System::new(
        ub,
        vec![
            sd_core::Op::from_cmd("copy", sd_core::Cmd::assign(b, Expr::var(a))),
            sd_core::Op::from_cmd("reset", sd_core::Cmd::assign(tmp, Expr::int(0))),
        ],
    );
    let ua = mk();
    let (aa, ab2, atmp) = (ua.obj("alpha")?, ua.obj("beta")?, ua.obj("tmp")?);
    let augmented = sd_core::System::new(
        ua,
        vec![
            sd_core::Op::from_cmd(
                "copy_cached",
                sd_core::Cmd::Seq(vec![
                    sd_core::Cmd::assign(ab2, Expr::var(aa)),
                    sd_core::Cmd::If(
                        Expr::var(aa).eq(Expr::int(1)),
                        Box::new(sd_core::Cmd::assign(atmp, Expr::int(1))),
                        Box::new(sd_core::Cmd::assign(atmp, Expr::int(0))),
                    ),
                ]),
            ),
            sd_core::Op::from_cmd("reset", sd_core::Cmd::assign(atmp, Expr::int(0))),
        ],
    );
    let m = Mechanism {
        augmented,
        base,
        project: Arc::new(|_a, _b, s| Ok(s.clone())),
        realize: vec![History::single(OpId(0)), History::single(OpId(1))],
        visible: vec![(aa, a), (ab2, b), (atmp, tmp)],
    };
    let sim = m.check_simulation();
    let added = added_paths(&m, &Phi::True, &Phi::True)?;
    println!(
        "caching mechanism: simulation {} (expected: fails); covert paths added: {} (expected: α → tmp)",
        if sim.is_ok() { "passes" } else { "fails" },
        added.len()
    );
    Ok(())
}

/// P3: static Denning baseline vs exact semantics, precision sweep.
/// P2: interpreted vs compiled pair-BFS engines. Prints the comparison
/// table and emits `BENCH_pair_bfs.json` (workload parameters, wall
/// times, visited-pair counts) for the committed record.
fn p2_pair_bfs() -> Result<(), Box<dyn std::error::Error>> {
    use sd_core::{CompileBudget, Engine};

    println!("\n== P2: pair-BFS engines — interpreted vs compiled tables ==");
    let budget = CompileBudget::default();

    // (family, system, φ) — the same workloads as benches/pair_bfs.rs.
    let mut cases: Vec<(String, sd_core::System, Phi, &str, &str)> = Vec::new();
    for (n, k) in [(4usize, 2i64), (5, 3)] {
        cases.push((
            format!("random n={n} k={k}"),
            sd_bench::workloads::random_system(n, k, 4, 7)?,
            Phi::True,
            "x0",
            "last",
        ));
    }
    for (n, d) in [(4usize, 2i64), (5, 2), (6, 2), (6, 3)] {
        let (sys, phi) = sd_bench::workloads::pointer_chain_pinned(n, d)?;
        cases.push((format!("pointer-chain n={n} d={d}"), sys, phi, "o0", "last"));
    }

    // Wall time for one β-target query: median of `reps`
    // runs, where `reps` adapts so fast cases are measured stably and
    // slow ones are not run to death.
    let time_one = |sys: &sd_core::System,
                    phi: &Phi,
                    a: &ObjSet,
                    beta: sd_core::ObjId,
                    engine: Engine,
                    budget: &CompileBudget|
     -> Result<(f64, sd_core::QueryReport, bool), sd_core::Error> {
        let mut samples = Vec::new();
        let (report, witness) = loop {
            let t = Instant::now();
            let out = sd_core::Query::new(phi.clone(), a.clone())
                .beta(beta)
                .engine(engine)
                .budget(*budget)
                .run_on(sys)?;
            let report = out.report;
            let w = out.into_witness();
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            let done = samples.len() >= 5 || (samples.len() >= 2 && samples[0] > 200.0);
            if done {
                break (report, w.is_some());
            }
        };
        samples.sort_by(|a, b| a.total_cmp(b));
        Ok((samples[samples.len() / 2], report, witness))
    };

    let mut t = Table::new(&[
        "workload",
        "states",
        "ops",
        "engine",
        "visited pairs",
        "wall ms",
        "speedup",
    ]);
    let mut json_rows = Vec::new();
    for (name, sys, phi, src, _beta) in &cases {
        let u = sys.universe();
        let a = ObjSet::singleton(u.obj(src)?);
        let beta = u.objects().last().expect("non-empty universe");
        let states = sys.state_count()?;
        let ops = sys.num_ops();
        let mut interp_ms = None;
        for engine in [Engine::Interpreted, Engine::Auto] {
            let (ms, report, witness) = time_one(sys, phi, &a, beta, engine, &budget)?;
            let speedup = match (engine, interp_ms) {
                (Engine::Interpreted, _) => {
                    interp_ms = Some(ms);
                    "1.00x (ref)".into()
                }
                (_, Some(reference)) => format!("{:.2}x", reference / ms),
                _ => "-".into(),
            };
            t.row(&[
                name.clone(),
                states.to_string(),
                ops.to_string(),
                report.engine.into(),
                report.visited_pairs.to_string(),
                format!("{ms:.3}"),
                speedup,
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": {:?}, \"states\": {}, \"ops\": {}, ",
                    "\"engine\": {:?}, \"visited_pairs\": {}, \"levels\": {}, ",
                    "\"wall_ms\": {:.3}, \"witness\": {}}}"
                ),
                name, states, ops, report.engine, report.visited_pairs, report.levels, ms, witness
            ));
        }
    }
    print!("{}", t.render());
    println!("expected: compiled ≥10x faster on the pointer-chain family at n ≥ 6");

    let json = format!(
        "{{\n  \"benchmark\": \"pair_bfs\",\n  \"unit\": \"wall_ms\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_pair_bfs.json", json)?;
    println!("wrote BENCH_pair_bfs.json");
    Ok(())
}

/// P5: prover workloads — the pre-Oracle sequential sweeps (one fresh
/// compile-and-search per cylinder class / cover piece) vs the shared
/// compiled Oracle with parallel kernels. Prints the comparison table and
/// emits `BENCH_provers.json` for the committed record.
fn p5_provers() -> Result<(), Box<dyn std::error::Error>> {
    use sd_core::cover::PieceStrategy;
    use sd_core::{solve, CompileBudget, Engine, StateSet};

    println!("\n== P5: prover engines — sequential per-call vs shared Oracle ==");
    let budget = CompileBudget::default();
    let median = |mut samples: Vec<f64>| -> f64 {
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    };
    // Adaptive repetition: fast configurations get 5 samples, slow ones
    // are not run to death.
    let enough = |samples: &[f64]| samples.len() >= 5 || (samples.len() >= 2 && samples[0] > 500.0);

    let mut t = Table::new(&[
        "workload",
        "states",
        "units",
        "sequential ms",
        "oracle ms",
        "speedup",
        "agree",
    ]);
    let mut json_rows = Vec::new();

    // Maximal-solution sweep: every `=A=` cylinder class must be decided.
    // Two-object source sets keep the per-class pair searches non-trivial.
    // Guarded-copy rows show the gain on thin operation bodies; mixing
    // rows (wide modular-sum bodies, isolated sink, exhaustive "no" per
    // class) show the regime the Oracle exists for — per-call row
    // re-interpretation dominates the sequential path there.
    let solve_configs: Vec<(String, sd_core::System)> = vec![
        (
            "maximal solution guarded n=7 k=3".into(),
            sd_bench::workloads::random_system(7, 3, 6, 11)?,
        ),
        (
            "maximal solution mixing n=7 k=3".into(),
            sd_bench::workloads::mixing_system(7, 3, 4)?,
        ),
        (
            "maximal solution mixing n=6 k=4".into(),
            sd_bench::workloads::mixing_system(6, 4, 4)?,
        ),
    ];
    for (name, sys) in solve_configs {
        let u = sys.universe();
        let mut sources = ObjSet::singleton(u.obj("x0")?);
        sources.insert(u.obj("x1")?);
        let sink = u.objects().last().expect("non-empty universe");
        let ns = sys.state_count()?;
        let n_classes = sd_core::depend::classes(&sys, &Phi::True, &sources)?.len();

        // Pre-Oracle sequential path, exactly as the seed implemented it:
        // enumerate the `=A=` classes as decoded states, then one full
        // `depends` call — fresh compile, fresh search state — per class.
        let mut samples = Vec::new();
        let seq_solution = loop {
            let t0 = Instant::now();
            let mut sol = StateSet::new(ns);
            for class in sd_core::depend::classes(&sys, &Phi::True, &sources)? {
                let mut cyl = StateSet::new(ns);
                for s in &class {
                    cyl.insert(s.encode(u));
                }
                let phi_c = Phi::from_set(cyl.clone());
                if sd_core::Query::new(phi_c.clone(), sources.clone())
                    .beta(sink)
                    .engine(Engine::Auto)
                    .budget(budget)
                    .run_on(&sys)?
                    .into_witness()
                    .is_none()
                {
                    sol.union_with(&cyl);
                }
            }
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            if enough(&samples) {
                break sol;
            }
        };
        let seq_ms = median(samples);

        let mut samples = Vec::new();
        let (oracle_solution, compiles) = loop {
            let t0 = Instant::now();
            let (phi_max, stats) =
                solve::unique_maximal_independent_solution_stats(&sys, &sources, sink)?;
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            if enough(&samples) {
                break (phi_max, stats.compiles);
            }
        };
        let oracle_ms = median(samples);
        let agree = oracle_solution.sat(&sys)? == seq_solution && compiles == 1;

        t.row(&[
            name.clone(),
            ns.to_string(),
            format!("{n_classes} classes"),
            format!("{seq_ms:.3}"),
            format!("{oracle_ms:.3}"),
            format!("{:.2}x", seq_ms / oracle_ms),
            yes(agree),
        ]);
        json_rows.push(format!(
            concat!(
                "    {{\"workload\": {:?}, \"states\": {}, \"classes\": {}, ",
                "\"sequential_ms\": {:.3}, \"oracle_ms\": {:.3}, ",
                "\"speedup\": {:.2}, \"agree\": {}}}"
            ),
            name,
            ns,
            n_classes,
            seq_ms,
            oracle_ms,
            seq_ms / oracle_ms,
            agree
        ));
    }

    // Separation-of-Variety sweep: one piece proof per cover element.
    let sov_configs: Vec<(String, i64, sd_core::System)> = vec![
        (
            "separation of variety guarded n=6 k=3".into(),
            3,
            sd_bench::workloads::random_system(6, 3, 5, 11)?,
        ),
        (
            "separation of variety mixing n=7 k=3".into(),
            3,
            sd_bench::workloads::mixing_system(7, 3, 4)?,
        ),
    ];
    for (name, k, sys) in sov_configs {
        let u = sys.universe();
        let ids: Vec<_> = u.objects().collect();
        let a = ObjSet::singleton(ids[0]);
        let beta = *ids.last().expect("non-empty universe");
        let ns = sys.state_count()?;
        // Split on x1 ∧ x2 jointly so the cover has k² pieces, each
        // A-independent, together covering Σ.
        let (x1, x2) = (ids[1], ids[2]);
        let cover: Vec<Phi> = (0..k)
            .flat_map(|v1| {
                (0..k).map(move |v2| {
                    Phi::expr(
                        Expr::var(x1)
                            .eq(Expr::int(v1))
                            .and(Expr::var(x2).eq(Expr::int(v2))),
                    )
                })
            })
            .collect();

        // Pre-Oracle sequential path, as the seed implemented Thm 4-5:
        // per-piece independence checks, the coverage check, then one
        // fresh exact search per piece.
        let mut samples = Vec::new();
        let seq_proved = loop {
            let t0 = Instant::now();
            let mut proved = true;
            'seq: {
                for piece in &cover {
                    if !sd_core::classify::is_independent(&sys, piece, &a)? {
                        proved = false;
                        break 'seq;
                    }
                }
                let mut union = StateSet::new(ns);
                for piece in &cover {
                    union.union_with(&piece.sat(&sys)?);
                }
                if union.count() != ns {
                    proved = false;
                    break 'seq;
                }
                for piece in &cover {
                    let conj = Phi::True.and(piece.clone());
                    if sd_core::Query::new(conj.clone(), a.clone())
                        .beta(beta)
                        .engine(Engine::Auto)
                        .budget(budget)
                        .run_on(&sys)?
                        .into_witness()
                        .is_some()
                    {
                        proved = false;
                        break 'seq;
                    }
                }
            }
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            if enough(&samples) {
                break proved;
            }
        };
        let seq_ms = median(samples);

        let mut samples = Vec::new();
        let oracle_proved = loop {
            let t0 = Instant::now();
            let out = sd_core::cover::prove_separation_of_variety(
                &sys,
                &Phi::True,
                &cover,
                &a,
                beta,
                PieceStrategy::ExactBfs,
            )?;
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
            if enough(&samples) {
                break out.is_proved();
            }
        };
        let oracle_ms = median(samples);
        let agree = seq_proved == oracle_proved;

        t.row(&[
            name.clone(),
            ns.to_string(),
            format!("{} pieces", cover.len()),
            format!("{seq_ms:.3}"),
            format!("{oracle_ms:.3}"),
            format!("{:.2}x", seq_ms / oracle_ms),
            yes(agree),
        ]);
        json_rows.push(format!(
            concat!(
                "    {{\"workload\": {:?}, \"states\": {}, \"pieces\": {}, ",
                "\"sequential_ms\": {:.3}, \"oracle_ms\": {:.3}, ",
                "\"speedup\": {:.2}, \"agree\": {}}}"
            ),
            name,
            ns,
            cover.len(),
            seq_ms,
            oracle_ms,
            seq_ms / oracle_ms,
            agree
        ));
    }

    print!("{}", t.render());
    println!("expected: oracle ≥5x on the maximal-solution workloads with ≥64 classes");

    let json = format!(
        "{{\n  \"benchmark\": \"provers\",\n  \"unit\": \"wall_ms\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_provers.json", json)?;
    println!("wrote BENCH_provers.json");
    Ok(())
}

fn p3_static_vs_semantic() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n== P3: static transitive baseline vs exact strong dependency ==");
    let mut t = Table::new(&[
        "system",
        "static flows",
        "semantic flows",
        "false+",
        "precision",
        "sound",
    ]);
    let cases: Vec<(&str, sd_core::System)> = vec![
        ("copy", examples::copy_system(3)?),
        ("guarded copy", examples::guarded_copy_system(2)?),
        ("non-transitive (§4.4)", examples::nontransitive_system(2)?),
        ("flag copy (§3.3)", examples::flag_copy_system(2)?),
        ("m1/m2 (§5.5)", examples::m1m2_system(2)?),
    ];
    for (name, sys) in cases {
        let r = sd_flow::compare(&sys, &Phi::True)?;
        t.row(&[
            name.into(),
            r.static_flows.len().to_string(),
            r.semantic_flows.len().to_string(),
            r.false_positives.len().to_string(),
            format!("{:.2}", r.precision()),
            yes(r.sound()),
        ]);
    }
    print!("{}", t.render());
    println!("expected: soundness everywhere; precision < 1 exactly where the paper predicts");

    // The Millen-style constraint-aware refinement (§1.5) on the
    // non-transitive system: the {q, ¬q} cover removes the false α → β
    // path that the plain baseline cannot.
    let sys = examples::nontransitive_system(2)?;
    let u = sys.universe();
    let a = u.obj("alpha")?;
    let b = u.obj("beta")?;
    let q = u.obj("q")?;
    let cover = vec![Phi::expr(Expr::var(q)), Phi::expr(Expr::var(q).not())];
    let refined = sd_flow::cover_sensitive_flows(&sys, &Phi::True, &cover)?;
    let baseline = sd_flow::transitive_flows(&sys)?;
    println!(
        "Millen refinement over {{q, ¬q}}: α → β reported = {} (baseline: {}; exact: no)",
        yes(refined.contains(&(a, b))),
        yes(baseline.contains(&(a, b))),
    );
    Ok(())
}
