//! Computational systems <Σ, Δ> (§1.2).

use std::fmt;

use crate::error::{Error, Result};
use crate::history::{History, OpId};
use crate::op::Op;
use crate::state::{State, StateIter};
use crate::universe::{Universe, DEFAULT_ENUM_LIMIT};

/// A computational system: a universe of objects together with a finite set
/// of operations.
///
/// A behaviour (computation) is a pair `<σ, H>`; [`System::run`] executes
/// one. All the decision procedures in this crate take a `&System`.
#[derive(Debug, Clone)]
pub struct System {
    universe: Universe,
    ops: Vec<Op>,
}

impl System {
    /// Creates a system from a universe and operations.
    pub fn new(universe: Universe, ops: Vec<Op>) -> System {
        System { universe, ops }
    }

    /// The object universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Number of operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// All operation ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Looks up an operation by id.
    pub fn op(&self, id: OpId) -> Result<&Op> {
        self.ops
            .get(id.index())
            .ok_or_else(|| Error::UnknownOp(format!("δ{}", id.0)))
    }

    /// Looks up an operation id by name.
    pub fn op_by_name(&self, name: &str) -> Result<OpId> {
        self.ops
            .iter()
            .position(|o| o.name() == name)
            .map(|i| OpId(i as u32))
            .ok_or_else(|| Error::UnknownOp(name.to_string()))
    }

    /// Applies a single operation: `δ(σ)`.
    pub fn apply(&self, op: OpId, sigma: &State) -> Result<State> {
        self.op(op)?.apply(&self.universe, sigma)
    }

    /// Runs a behaviour `<σ, H>`: `H(σ)` per Def 1-3.
    pub fn run(&self, sigma: &State, h: &History) -> Result<State> {
        let mut cur = sigma.clone();
        for &op in h.ops() {
            cur = self.apply(op, &cur)?;
        }
        Ok(cur)
    }

    /// Iterates every state, after checking the enumeration limit
    /// ([`DEFAULT_ENUM_LIMIT`]).
    pub fn states(&self) -> Result<StateIter<'_>> {
        self.state_count()?;
        Ok(StateIter::new(&self.universe))
    }

    /// Number of states, checked against the enumeration limit
    /// ([`DEFAULT_ENUM_LIMIT`]).
    pub fn state_count(&self) -> Result<u64> {
        self.universe.checked_state_count(DEFAULT_ENUM_LIMIT)
    }

    /// Checks that every operation is total on the state space: applying any
    /// operation to any state stays within the declared domains.
    ///
    /// Returns the number of `(state, op)` pairs checked. A system that
    /// fails validation has a bug in its description (an operation escapes a
    /// domain), and the decision procedures may report errors on it.
    pub fn validate(&self) -> Result<u64> {
        let mut checked = 0;
        for sigma in self.states()? {
            for op in self.op_ids() {
                self.apply(op, &sigma)?;
                checked += 1;
            }
        }
        Ok(checked)
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.universe)?;
        writeln!(f, "operations:")?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "  δ{}: {}", i, op.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::op::Cmd;
    use crate::universe::Domain;

    fn copy_system() -> System {
        let u = Universe::new(vec![
            ("alpha".into(), Domain::int_range(0, 3).unwrap()),
            ("beta".into(), Domain::int_range(0, 3).unwrap()),
        ])
        .unwrap();
        let a = u.obj("alpha").unwrap();
        let b = u.obj("beta").unwrap();
        System::new(u, vec![Op::from_cmd("copy", Cmd::assign(b, Expr::var(a)))])
    }

    #[test]
    fn run_executes_histories() {
        let sys = copy_system();
        let u = sys.universe();
        let b = u.obj("beta").unwrap();
        let s = State::from_indices(vec![2, 0]);
        let h = History::from_ops(vec![OpId(0), OpId(0)]);
        let out = sys.run(&s, &h).unwrap();
        assert_eq!(out.index(b), 2);
        // λ leaves the state unchanged.
        assert_eq!(sys.run(&s, &History::empty()).unwrap(), s);
    }

    #[test]
    fn op_lookup() {
        let sys = copy_system();
        assert_eq!(sys.op_by_name("copy").unwrap(), OpId(0));
        assert!(sys.op_by_name("zap").is_err());
        assert!(sys.op(OpId(5)).is_err());
        assert_eq!(sys.op(OpId(0)).unwrap().name(), "copy");
    }

    #[test]
    fn validate_accepts_closed_system() {
        let sys = copy_system();
        assert_eq!(sys.validate().unwrap(), 16);
    }

    #[test]
    fn validate_rejects_escaping_op() {
        let u = Universe::new(vec![("x".into(), Domain::int_range(0, 1).unwrap())]).unwrap();
        let x = u.obj("x").unwrap();
        let sys = System::new(
            u,
            vec![Op::from_cmd(
                "inc",
                Cmd::assign(x, Expr::var(x).add(Expr::int(1))),
            )],
        );
        assert!(sys.validate().is_err());
    }

    #[test]
    fn enum_limit_is_enforced() {
        // 1000 · 1000 · 2 · 1000 = 2·10⁹ states, above the 2²⁶ limit.
        let sys = crate::examples::flag_copy_system(1000).unwrap();
        assert!(sys.states().is_err());
        assert!(matches!(
            sys.state_count(),
            Err(Error::StateSpaceTooLarge { .. })
        ));
    }
}
