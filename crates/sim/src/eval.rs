//! Tree-walking expression evaluation against current net values.
//!
//! Compiled for tests only. The simulator evaluates through
//! [`crate::bytecode`]; this walker is the straightforward reading of
//! the IEEE 1364 rules that the bytecode's differential proptests
//! compare against.

use aivril_hdl::ir::{BinaryOp, Expr, NetId, UnaryOp};
use aivril_hdl::logic::Logic;
use aivril_hdl::vec::LogicVec;

/// Read-only view the evaluator needs: current net values and time.
pub(crate) struct EvalCtx<'a> {
    pub values: &'a [LogicVec],
    pub time: u64,
    /// The net whose change resumed the executing process, when known.
    pub last_wake: Option<NetId>,
}

impl EvalCtx<'_> {
    fn net(&self, id: NetId) -> &LogicVec {
        &self.values[id.0 as usize]
    }

    /// Evaluates `expr` with Verilog four-state semantics.
    pub(crate) fn eval(&self, expr: &Expr) -> LogicVec {
        match expr {
            Expr::Const(v) => v.clone(),
            Expr::Net(id) => self.net(*id).clone(),
            Expr::Index { net, index } => {
                let value = self.net(*net);
                let idx = self.eval(index);
                match idx.to_u64() {
                    Some(i) if i < u64::from(value.width()) => {
                        LogicVec::from_logic(value.get(i as u32))
                    }
                    _ => LogicVec::from_logic(Logic::X),
                }
            }
            Expr::Range { net, msb, lsb } => self.net(*net).slice(*msb, *lsb),
            Expr::Unary { op, operand } => self.eval_unary(*op, operand),
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            Expr::Ternary { cond, then, els } => {
                let c = self.eval(cond);
                match c.to_bool() {
                    Some(true) => self.eval(then),
                    Some(false) => self.eval(els),
                    None => {
                        // IEEE 1364: merge both arms; disagreeing bits go X.
                        let t = self.eval(then);
                        let e = self.eval(els);
                        let width = t.width().max(e.width());
                        let t = t.resize(width);
                        let e = e.resize(width);
                        let mut out = LogicVec::zeros(width);
                        for i in 0..width {
                            let (a, b) = (t.get(i), e.get(i));
                            out.set(
                                i,
                                if a == b && !a.is_unknown() {
                                    a
                                } else {
                                    Logic::X
                                },
                            );
                        }
                        out
                    }
                }
            }
            Expr::Concat(parts) => {
                let mut it = parts.iter();
                let first = it
                    .next()
                    .map(|p| self.eval(p))
                    .unwrap_or_else(|| LogicVec::zeros(1));
                it.fold(first, |acc, p| acc.concat(&self.eval(p)))
            }
            Expr::Repeat { count, operand } => self.eval(operand).replicate((*count).max(1)),
            Expr::Time => LogicVec::from_u64(64, self.time),
            Expr::EdgeFlag { net, rising } => {
                let fired = self.last_wake == Some(*net) && {
                    let bit = self.net(*net).get(0);
                    if *rising {
                        bit == Logic::One
                    } else {
                        bit == Logic::Zero
                    }
                };
                LogicVec::from_logic(Logic::from_bool(fired))
            }
        }
    }

    fn eval_unary(&self, op: UnaryOp, operand: &Expr) -> LogicVec {
        let v = self.eval(operand);
        match op {
            UnaryOp::Not => v.not(),
            UnaryOp::LogicalNot => {
                let b = match v.to_bool() {
                    Some(b) => Logic::from_bool(!b),
                    None => Logic::X,
                };
                LogicVec::from_logic(b)
            }
            UnaryOp::Negate => v.negate(),
            UnaryOp::ReduceAnd => LogicVec::from_logic(v.reduce_and()),
            UnaryOp::ReduceOr => LogicVec::from_logic(v.reduce_or()),
            UnaryOp::ReduceXor => LogicVec::from_logic(v.reduce_xor()),
            UnaryOp::ReduceNand => LogicVec::from_logic(v.reduce_and().not()),
            UnaryOp::ReduceNor => LogicVec::from_logic(v.reduce_or().not()),
            UnaryOp::ReduceXnor => LogicVec::from_logic(v.reduce_xor().not()),
        }
    }

    fn eval_binary(&self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> LogicVec {
        // Logical && / || short-circuit on known operands.
        if matches!(op, BinaryOp::LogicalAnd | BinaryOp::LogicalOr) {
            let a = self.eval(lhs).to_bool();
            let b = self.eval(rhs).to_bool();
            let r = match (op, a, b) {
                (BinaryOp::LogicalAnd, Some(false), _) | (BinaryOp::LogicalAnd, _, Some(false)) => {
                    Logic::Zero
                }
                (BinaryOp::LogicalAnd, Some(true), Some(true)) => Logic::One,
                (BinaryOp::LogicalOr, Some(true), _) | (BinaryOp::LogicalOr, _, Some(true)) => {
                    Logic::One
                }
                (BinaryOp::LogicalOr, Some(false), Some(false)) => Logic::Zero,
                _ => Logic::X,
            };
            return LogicVec::from_logic(r);
        }
        let a = self.eval(lhs);
        let b = self.eval(rhs);
        match op {
            BinaryOp::And => a.and(&b),
            BinaryOp::Or => a.or(&b),
            BinaryOp::Xor => a.xor(&b),
            BinaryOp::Xnor => a.xnor(&b),
            BinaryOp::Add => a.add(&b),
            BinaryOp::Sub => a.sub(&b),
            BinaryOp::Mul => a.mul(&b),
            BinaryOp::Div => a.div(&b),
            BinaryOp::Rem => a.rem(&b),
            BinaryOp::Shl => a.shl(&b),
            BinaryOp::Shr => a.shr(&b),
            BinaryOp::Eq => LogicVec::from_logic(a.logic_eq(&b)),
            BinaryOp::Ne => LogicVec::from_logic(a.logic_eq(&b).not()),
            BinaryOp::CaseEq => LogicVec::from_logic(Logic::from_bool(a.case_eq(&b))),
            BinaryOp::CaseNe => LogicVec::from_logic(Logic::from_bool(!a.case_eq(&b))),
            BinaryOp::Lt => LogicVec::from_logic(a.lt(&b)),
            BinaryOp::Le => LogicVec::from_logic(a.le(&b)),
            BinaryOp::Gt => LogicVec::from_logic(a.gt(&b)),
            BinaryOp::Ge => LogicVec::from_logic(a.ge(&b)),
            BinaryOp::LogicalAnd | BinaryOp::LogicalOr => unreachable!("handled above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(values: &[LogicVec]) -> EvalCtx<'_> {
        EvalCtx {
            values,
            time: 42,
            last_wake: None,
        }
    }

    #[test]
    fn eval_net_and_const() {
        let values = vec![LogicVec::from_u64(8, 0x3C)];
        let c = ctx(&values);
        assert_eq!(c.eval(&Expr::Net(NetId(0))).to_u64(), Some(0x3C));
        assert_eq!(c.eval(&Expr::constant(4, 9)).to_u64(), Some(9));
    }

    #[test]
    fn eval_index_in_and_out_of_range() {
        let values = vec![LogicVec::from_u64(4, 0b1010)];
        let c = ctx(&values);
        let bit = |i: u64| Expr::Index {
            net: NetId(0),
            index: Box::new(Expr::constant(8, i)),
        };
        assert_eq!(c.eval(&bit(1)).get(0), Logic::One);
        assert_eq!(c.eval(&bit(0)).get(0), Logic::Zero);
        assert_eq!(c.eval(&bit(9)).get(0), Logic::X);
    }

    #[test]
    fn eval_ternary_merges_on_x() {
        let values = vec![LogicVec::xes(1)];
        let c = ctx(&values);
        let e = Expr::Ternary {
            cond: Box::new(Expr::Net(NetId(0))),
            then: Box::new(Expr::constant(2, 0b01)),
            els: Box::new(Expr::constant(2, 0b11)),
        };
        let v = c.eval(&e);
        assert_eq!(v.get(0), Logic::One, "both arms agree on bit 0");
        assert_eq!(v.get(1), Logic::X, "arms disagree on bit 1");
    }

    #[test]
    fn short_circuit_logical_ops() {
        let values = vec![LogicVec::xes(1)];
        let c = ctx(&values);
        let x = Expr::Net(NetId(0));
        let and_false = Expr::Binary {
            op: BinaryOp::LogicalAnd,
            lhs: Box::new(x.clone()),
            rhs: Box::new(Expr::constant(1, 0)),
        };
        assert_eq!(c.eval(&and_false).get(0), Logic::Zero);
        let or_true = Expr::Binary {
            op: BinaryOp::LogicalOr,
            lhs: Box::new(x.clone()),
            rhs: Box::new(Expr::constant(1, 1)),
        };
        assert_eq!(c.eval(&or_true).get(0), Logic::One);
        let and_x = Expr::Binary {
            op: BinaryOp::LogicalAnd,
            lhs: Box::new(x),
            rhs: Box::new(Expr::constant(1, 1)),
        };
        assert_eq!(c.eval(&and_x).get(0), Logic::X);
    }

    #[test]
    fn eval_time() {
        let values = vec![];
        let c = ctx(&values);
        assert_eq!(c.eval(&Expr::Time).to_u64(), Some(42));
    }

    #[test]
    fn eval_concat_order() {
        let values = vec![LogicVec::from_u64(4, 0xA), LogicVec::from_u64(4, 0x5)];
        let c = ctx(&values);
        let e = Expr::Concat(vec![Expr::Net(NetId(0)), Expr::Net(NetId(1))]);
        assert_eq!(c.eval(&e).to_u64(), Some(0xA5));
    }

    #[test]
    fn case_eq_with_x_operands() {
        let values = vec![LogicVec::xes(2), LogicVec::xes(2)];
        let c = ctx(&values);
        let e = Expr::Binary {
            op: BinaryOp::CaseEq,
            lhs: Box::new(Expr::Net(NetId(0))),
            rhs: Box::new(Expr::Net(NetId(1))),
        };
        assert_eq!(c.eval(&e).get(0), Logic::One);
        let e = Expr::Binary {
            op: BinaryOp::Eq,
            lhs: Box::new(Expr::Net(NetId(0))),
            rhs: Box::new(Expr::Net(NetId(1))),
        };
        assert_eq!(c.eval(&e).get(0), Logic::X);
    }
}
