//! Bound (resolved) expressions.
//!
//! A [`BoundExpr`] is the output of the binder: every column reference has
//! been resolved to an ordinal into its input's schema, every function name
//! to a concrete scalar function, and literals to storage [`Value`]s. The
//! executor never performs name lookups.

use crate::plan::logical::PlanSchema;
use gsql_storage::{DataType, Value};
use std::fmt;

/// Unary operators (mirrors the AST but resolved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT (three-valued).
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||`
    Concat,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND` (three-valued)
    And,
    /// `OR` (three-valued)
    Or,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `UPPER(varchar)`
    Upper,
    /// `LOWER(varchar)`
    Lower,
    /// `LENGTH(varchar)`
    Length,
    /// `ABS(numeric)`
    Abs,
    /// `ROUND(numeric)`
    Round,
    /// `FLOOR(numeric)`
    Floor,
    /// `CEIL(numeric)`
    Ceil,
    /// `SQRT(numeric)`
    Sqrt,
    /// `COALESCE(a, b, …)`
    Coalesce,
    /// `NULLIF(a, b)`
    Nullif,
}

impl ScalarFunc {
    /// Resolve a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "upper" => ScalarFunc::Upper,
            "lower" => ScalarFunc::Lower,
            "length" => ScalarFunc::Length,
            "abs" => ScalarFunc::Abs,
            "round" => ScalarFunc::Round,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "sqrt" => ScalarFunc::Sqrt,
            "coalesce" => ScalarFunc::Coalesce,
            "nullif" => ScalarFunc::Nullif,
            _ => return None,
        })
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` — non-NULL count.
    Count,
    /// `SUM(expr)`
    Sum,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `AVG(expr)`
    Avg,
}

impl AggFunc {
    /// Resolve an aggregate name (case-insensitive). `COUNT` resolves to
    /// [`AggFunc::Count`]; the binder turns the zero-argument form into
    /// [`AggFunc::CountStar`].
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// One aggregate call inside an `Aggregate` plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression over the aggregate input (absent for `COUNT(*)`).
    pub arg: Option<BoundExpr>,
    /// True for `agg(DISTINCT x)`.
    pub distinct: bool,
    /// Result type.
    pub out_ty: DataType,
}

/// A fully resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// A constant value.
    Literal(Value),
    /// Reference to input column `index` of type `ty`.
    Column {
        /// Ordinal into the input schema.
        index: usize,
        /// The column's type.
        ty: DataType,
    },
    /// `?` host parameter (value substituted at execution).
    Param(usize),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<BoundExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// `IS [NOT] NULL`
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `[NOT] IN (list)`
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `[NOT] BETWEEN`
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Inclusive lower bound.
        low: Box<BoundExpr>,
        /// Inclusive upper bound.
        high: Box<BoundExpr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `[NOT] LIKE`
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Pattern.
        pattern: Box<BoundExpr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// `CASE`
    Case {
        /// Optional comparand.
        operand: Option<Box<BoundExpr>>,
        /// `(when, then)` pairs.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// `ELSE`.
        else_expr: Option<Box<BoundExpr>>,
    },
    /// `CAST(expr AS ty)`
    Cast {
        /// Source.
        expr: Box<BoundExpr>,
        /// Target type.
        ty: DataType,
    },
    /// Scalar function call.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
}

impl BoundExpr {
    /// Static result type, when derivable. `None` means "unknown until
    /// runtime" (NULL literals and parameters).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            BoundExpr::Literal(v) => v.data_type(),
            BoundExpr::Column { ty, .. } => Some(*ty),
            BoundExpr::Param(_) => None,
            BoundExpr::Unary { op: UnaryOp::Neg, expr } => expr.data_type(),
            BoundExpr::Unary { op: UnaryOp::Not, .. } => Some(DataType::Bool),
            BoundExpr::Binary { left, op, right } => match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Mod => {
                    match (left.data_type(), right.data_type()) {
                        (Some(l), Some(r)) => DataType::numeric_supertype(l, r),
                        _ => None,
                    }
                }
                // Division always yields double (SQL-ish; avoids surprising
                // integer truncation in weight expressions).
                BinaryOp::Div => Some(DataType::Double),
                BinaryOp::Concat => Some(DataType::Varchar),
                BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
                | BinaryOp::And
                | BinaryOp::Or => Some(DataType::Bool),
            },
            BoundExpr::IsNull { .. } => Some(DataType::Bool),
            BoundExpr::InList { .. } => Some(DataType::Bool),
            BoundExpr::Between { .. } => Some(DataType::Bool),
            BoundExpr::Like { .. } => Some(DataType::Bool),
            BoundExpr::Case { branches, else_expr, .. } => {
                for (_, then) in branches {
                    if let Some(t) = then.data_type() {
                        return Some(t);
                    }
                }
                else_expr.as_ref().and_then(|e| e.data_type())
            }
            BoundExpr::Cast { ty, .. } => Some(*ty),
            BoundExpr::Func { func, args } => match func {
                ScalarFunc::Upper | ScalarFunc::Lower => Some(DataType::Varchar),
                ScalarFunc::Length => Some(DataType::Int),
                ScalarFunc::Abs | ScalarFunc::Round | ScalarFunc::Floor | ScalarFunc::Ceil => {
                    args.first().and_then(|a| a.data_type())
                }
                ScalarFunc::Sqrt => Some(DataType::Double),
                ScalarFunc::Coalesce | ScalarFunc::Nullif => {
                    args.iter().find_map(|a| a.data_type())
                }
            },
        }
    }

    /// True when the expression references no columns (constant modulo
    /// parameters).
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.visit(&mut |e| {
            if matches!(e, BoundExpr::Column { .. }) {
                constant = false;
            }
        });
        constant
    }

    /// Collect the set of column ordinals referenced.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.visit(&mut |e| {
            if let BoundExpr::Column { index, .. } = e {
                cols.push(*index);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// The conjuncts of an `AND` tree, left to right.
    pub(crate) fn conjuncts(&self) -> Vec<BoundExpr> {
        fn flatten(e: &BoundExpr, out: &mut Vec<BoundExpr>) {
            if let BoundExpr::Binary { left, op: BinaryOp::And, right } = e {
                flatten(left, out);
                flatten(right, out);
            } else {
                out.push(e.clone());
            }
        }
        let mut out = Vec::new();
        flatten(self, &mut out);
        out
    }

    /// Pre-order traversal. The nodes handed to `f` borrow from `self`, so
    /// a visitor may keep them.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column { .. } | BoundExpr::Param(_) => {}
            BoundExpr::Unary { expr, .. } => expr.visit(f),
            BoundExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            BoundExpr::IsNull { expr, .. } => expr.visit(f),
            BoundExpr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            BoundExpr::Between { expr, low, high, .. } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            BoundExpr::Case { operand, branches, else_expr } => {
                if let Some(o) = operand {
                    o.visit(f);
                }
                for (w, t) in branches {
                    w.visit(f);
                    t.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
            BoundExpr::Cast { expr, .. } => expr.visit(f),
            BoundExpr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
        }
    }

    /// Rewrite every column ordinal through `map` (used when an expression
    /// is transplanted onto a different input schema).
    pub fn remap_columns(&self, map: &impl Fn(usize) -> usize) -> BoundExpr {
        let remap_box = |e: &BoundExpr| -> Box<BoundExpr> { Box::new(e.remap_columns(map)) };
        match self {
            BoundExpr::Literal(v) => BoundExpr::Literal(v.clone()),
            BoundExpr::Column { index, ty } => BoundExpr::Column { index: map(*index), ty: *ty },
            BoundExpr::Param(i) => BoundExpr::Param(*i),
            BoundExpr::Unary { op, expr } => BoundExpr::Unary { op: *op, expr: remap_box(expr) },
            BoundExpr::Binary { left, op, right } => {
                BoundExpr::Binary { left: remap_box(left), op: *op, right: remap_box(right) }
            }
            BoundExpr::IsNull { expr, negated } => {
                BoundExpr::IsNull { expr: remap_box(expr), negated: *negated }
            }
            BoundExpr::InList { expr, list, negated } => BoundExpr::InList {
                expr: remap_box(expr),
                list: list.iter().map(|e| e.remap_columns(map)).collect(),
                negated: *negated,
            },
            BoundExpr::Between { expr, low, high, negated } => BoundExpr::Between {
                expr: remap_box(expr),
                low: remap_box(low),
                high: remap_box(high),
                negated: *negated,
            },
            BoundExpr::Like { expr, pattern, negated } => BoundExpr::Like {
                expr: remap_box(expr),
                pattern: remap_box(pattern),
                negated: *negated,
            },
            BoundExpr::Case { operand, branches, else_expr } => BoundExpr::Case {
                operand: operand.as_ref().map(|o| remap_box(o)),
                branches: branches
                    .iter()
                    .map(|(w, t)| (w.remap_columns(map), t.remap_columns(map)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| remap_box(e)),
            },
            BoundExpr::Cast { expr, ty } => BoundExpr::Cast { expr: remap_box(expr), ty: *ty },
            BoundExpr::Func { func, args } => BoundExpr::Func {
                func: *func,
                args: args.iter().map(|a| a.remap_columns(map)).collect(),
            },
        }
    }

    /// Render with column names from `schema` (used by EXPLAIN).
    pub fn display<'a>(&'a self, schema: &'a PlanSchema) -> DisplayExpr<'a> {
        DisplayExpr { expr: self, schema }
    }
}

/// Helper rendering a [`BoundExpr`] against a schema.
pub struct DisplayExpr<'a> {
    expr: &'a BoundExpr,
    schema: &'a PlanSchema,
}

impl fmt::Display for DisplayExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = |e: &'_ BoundExpr| DisplayExpr { expr: e, schema: self.schema }.to_string();
        match self.expr {
            BoundExpr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            BoundExpr::Column { index, .. } => match self.schema.columns().get(*index) {
                Some(c) => write!(f, "{}", c.name),
                None => write!(f, "#{index}"),
            },
            BoundExpr::Param(i) => write!(f, "?{i}"),
            BoundExpr::Unary { op: UnaryOp::Neg, expr } => write!(f, "(-{})", d(expr)),
            BoundExpr::Unary { op: UnaryOp::Not, expr } => write!(f, "(NOT {})", d(expr)),
            BoundExpr::Binary { left, op, right } => {
                let sym = match op {
                    BinaryOp::Add => "+",
                    BinaryOp::Sub => "-",
                    BinaryOp::Mul => "*",
                    BinaryOp::Div => "/",
                    BinaryOp::Mod => "%",
                    BinaryOp::Concat => "||",
                    BinaryOp::Eq => "=",
                    BinaryOp::NotEq => "<>",
                    BinaryOp::Lt => "<",
                    BinaryOp::LtEq => "<=",
                    BinaryOp::Gt => ">",
                    BinaryOp::GtEq => ">=",
                    BinaryOp::And => "AND",
                    BinaryOp::Or => "OR",
                };
                write!(f, "({} {} {})", d(left), sym, d(right))
            }
            BoundExpr::IsNull { expr, negated } => {
                write!(f, "({} IS {}NULL)", d(expr), if *negated { "NOT " } else { "" })
            }
            BoundExpr::InList { expr, list, negated } => {
                let items: Vec<String> = list.iter().map(d).collect();
                write!(
                    f,
                    "({} {}IN ({}))",
                    d(expr),
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            BoundExpr::Between { expr, low, high, negated } => write!(
                f,
                "({} {}BETWEEN {} AND {})",
                d(expr),
                if *negated { "NOT " } else { "" },
                d(low),
                d(high)
            ),
            BoundExpr::Like { expr, pattern, negated } => {
                write!(f, "({} {}LIKE {})", d(expr), if *negated { "NOT " } else { "" }, d(pattern))
            }
            BoundExpr::Case { operand, branches, else_expr } => {
                write!(f, "CASE")?;
                if let Some(o) = operand {
                    write!(f, " {}", d(o))?;
                }
                for (w, t) in branches {
                    write!(f, " WHEN {} THEN {}", d(w), d(t))?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {}", d(e))?;
                }
                write!(f, " END")
            }
            BoundExpr::Cast { expr, ty } => write!(f, "CAST({} AS {ty})", d(expr)),
            BoundExpr::Func { func, args } => {
                let items: Vec<String> = args.iter().map(d).collect();
                write!(f, "{func:?}({})", items.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize, ty: DataType) -> BoundExpr {
        BoundExpr::Column { index: i, ty }
    }

    #[test]
    fn type_inference_numeric() {
        let add = BoundExpr::Binary {
            left: Box::new(col(0, DataType::Int)),
            op: BinaryOp::Add,
            right: Box::new(BoundExpr::Literal(Value::Double(1.0))),
        };
        assert_eq!(add.data_type(), Some(DataType::Double));
        let div = BoundExpr::Binary {
            left: Box::new(col(0, DataType::Int)),
            op: BinaryOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int(2))),
        };
        assert_eq!(div.data_type(), Some(DataType::Double));
    }

    #[test]
    fn params_have_unknown_type() {
        assert_eq!(BoundExpr::Param(0).data_type(), None);
        let cast = BoundExpr::Cast { expr: Box::new(BoundExpr::Param(0)), ty: DataType::Int };
        assert_eq!(cast.data_type(), Some(DataType::Int));
    }

    #[test]
    fn constant_detection() {
        assert!(BoundExpr::Literal(Value::Int(1)).is_constant());
        assert!(BoundExpr::Param(0).is_constant());
        assert!(!col(0, DataType::Int).is_constant());
    }

    #[test]
    fn referenced_columns_dedup_sorted() {
        let e = BoundExpr::Binary {
            left: Box::new(col(3, DataType::Int)),
            op: BinaryOp::Add,
            right: Box::new(BoundExpr::Binary {
                left: Box::new(col(1, DataType::Int)),
                op: BinaryOp::Mul,
                right: Box::new(col(3, DataType::Int)),
            }),
        };
        assert_eq!(e.referenced_columns(), vec![1, 3]);
    }

    #[test]
    fn remap_columns_applies_mapping() {
        let e = col(2, DataType::Int);
        let remapped = e.remap_columns(&|i| i + 10);
        assert!(matches!(remapped, BoundExpr::Column { index: 12, .. }));
    }

    #[test]
    fn function_name_resolution() {
        assert_eq!(ScalarFunc::from_name("UPPER"), Some(ScalarFunc::Upper));
        assert_eq!(ScalarFunc::from_name("ceiling"), Some(ScalarFunc::Ceil));
        assert_eq!(ScalarFunc::from_name("nope"), None);
        assert_eq!(AggFunc::from_name("Count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
