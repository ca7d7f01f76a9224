//! Independent reference answers: each query is run one-shot with
//! `Query::run_on` on a system built here — a fresh compile, with no
//! shared Oracle, registry or result cache.

use std::time::Duration;

use sd_core::{examples, ObjSet, Phi, Query, System};
use sd_server::proto::encode_answer;
use sd_server::{QueryKind, QueryReq, SystemDesc};

/// Builds the system a registration describes.
pub fn build_system(desc: &SystemDesc) -> Result<System, String> {
    let built = match desc {
        SystemDesc::Program { source } => {
            let prog = sd_lang::parse(source).map_err(|e| e.to_string())?;
            return Ok(sd_lang::compile(&prog).map_err(|e| e.to_string())?.system);
        }
        SystemDesc::Example { name, params } => match (name.as_str(), params.as_slice()) {
            ("guarded_copy", [k]) => examples::guarded_copy_system(*k),
            ("flag_copy", [k]) => examples::flag_copy_system(*k),
            ("nontransitive", [k]) => examples::nontransitive_system(*k),
            ("mod_adder", [bits]) => examples::mod_adder_system(*bits as u32),
            ("pointer_chain", [n, d]) => examples::pointer_chain_system(*n as usize, *d),
            _ => return Err(format!("no reference builder for {}", desc.describe())),
        },
    };
    built.map_err(|e| e.to_string())
}

fn resolve(sys: &System, names: &[String]) -> Result<ObjSet, String> {
    let mut set = ObjSet::empty();
    for name in names {
        set.insert(sys.universe().obj(name).map_err(|e| e.to_string())?);
    }
    Ok(set)
}

/// Lowers a request's φ against `sys` (absent φ is tt).
pub fn lower(sys: &System, req: &QueryReq) -> Result<Phi, String> {
    match req.phi.as_deref() {
        None | Some("") => Ok(Phi::True),
        Some(src) => sd_lang::lower_phi(sys.universe(), src).map_err(|e| e.to_string()),
    }
}

/// The [`Query`] a request denotes under an already lowered φ, with the
/// server's default 30 s deadline.
pub fn build_query(sys: &System, req: &QueryReq, phi: Phi) -> Result<Query, String> {
    let q = match req.kind {
        QueryKind::SinksMatrix => Query::matrix(
            phi,
            req.sources
                .iter()
                .map(|row| resolve(sys, row))
                .collect::<Result<_, _>>()?,
        ),
        QueryKind::Sinks => Query::new(phi, resolve(sys, &req.a)?),
        QueryKind::Depends => {
            let q = Query::new(phi, resolve(sys, &req.a)?);
            match &req.beta {
                Some(beta) => q.beta(sys.universe().obj(beta).map_err(|e| e.to_string())?),
                None => q.set(resolve(sys, &req.set)?),
            }
        }
    };
    Ok(q.timeout(Duration::from_secs(30)))
}

/// The canonical answer bytes a correct server must send for `req`.
pub fn reference_answer(sys: &System, req: &QueryReq) -> Result<String, String> {
    let q = build_query(sys, req, lower(sys, req)?)?;
    let out = q.run_on(sys).map_err(|e| e.to_string())?;
    Ok(encode_answer(sys, &out))
}
