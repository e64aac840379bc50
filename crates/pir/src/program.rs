//! Programs: arrays, statements, iteration domains and initial schedules.

use std::sync::{Arc, OnceLock};

use crate::deps::Dependence;
use crate::error::{Error, Result};
use crate::expr::{ArrayId, Body, IdxExpr};
use tilefuse_presburger::{AffExpr, Map, Set, Space, Tuple};

/// Identifies a statement within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub usize);

/// How an array participates in the program's dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// Read-only program input.
    Input,
    /// Intermediate values, dead after the program.
    Temp,
    /// Live-out: referenced after the program finishes.
    Output,
}

/// A symbolic array extent: `Σ c_p · param + c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    terms: Vec<(String, i64)>,
    constant: i64,
}

impl Extent {
    /// A constant extent.
    pub fn fixed(c: i64) -> Self {
        Extent {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// The extent `param + offset`.
    pub fn param(name: &str, offset: i64) -> Self {
        Extent {
            terms: vec![(name.to_owned(), 1)],
            constant: offset,
        }
    }

    /// Evaluates with concrete parameter values.
    pub fn eval(&self, params: &dyn Fn(&str) -> i64) -> i64 {
        self.terms.iter().map(|(n, c)| c * params(n)).sum::<i64>() + self.constant
    }

    /// The symbolic terms `(parameter name, coefficient)`.
    pub fn terms(&self) -> &[(String, i64)] {
        &self.terms
    }
}

impl From<i64> for Extent {
    fn from(c: i64) -> Self {
        Extent::fixed(c)
    }
}

impl From<&str> for Extent {
    fn from(name: &str) -> Self {
        Extent::param(name, 0)
    }
}

impl From<(&str, i64)> for Extent {
    fn from((name, offset): (&str, i64)) -> Self {
        Extent::param(name, offset)
    }
}

/// An array declaration.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    id: ArrayId,
    name: String,
    extents: Vec<Extent>,
    kind: ArrayKind,
    elem_bytes: u32,
}

impl ArrayDecl {
    /// The array's id.
    pub fn id(&self) -> ArrayId {
        self.id
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dimensions.
    pub fn n_dims(&self) -> usize {
        self.extents.len()
    }

    /// The symbolic extents.
    pub fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// The dataflow kind.
    pub fn kind(&self) -> ArrayKind {
        self.kind
    }

    /// Element size in bytes (default 4, i.e. `f32`).
    pub fn elem_bytes(&self) -> u32 {
        self.elem_bytes
    }

    /// Concrete shape under `params`.
    pub fn shape(&self, params: &dyn Fn(&str) -> i64) -> Vec<i64> {
        self.extents.iter().map(|e| e.eval(params)).collect()
    }

    /// Total element count under `params`.
    pub fn len(&self, params: &dyn Fn(&str) -> i64) -> i64 {
        self.shape(params).iter().product()
    }

    /// Whether the array has zero elements under `params`.
    pub fn is_empty(&self, params: &dyn Fn(&str) -> i64) -> bool {
        self.len(params) == 0
    }
}

/// One term of a multi-dimensional initial schedule: a scalar level or an
/// iteration variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedTerm {
    /// A constant (sequence) dimension.
    Cst(i64),
    /// Iteration dimension `d` of the statement.
    Var(usize),
}

/// A statement: iteration domain, initial schedule position, and body.
#[derive(Debug, Clone)]
pub struct Statement {
    id: StmtId,
    name: String,
    domain: Set,
    sched: Vec<SchedTerm>,
    body: Body,
    dynamic: bool,
    work_scale: f64,
}

impl Statement {
    /// The statement's id.
    pub fn id(&self) -> StmtId {
        self.id
    }

    /// The statement's name (its domain tuple name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The iteration domain.
    pub fn domain(&self) -> &Set {
        &self.domain
    }

    /// Number of iteration dimensions.
    pub fn n_dims(&self) -> usize {
        self.domain.space().n_dim()
    }

    /// The initial multi-dimensional schedule (unpadded).
    pub fn sched(&self) -> &[SchedTerm] {
        &self.sched
    }

    /// The executable body.
    pub fn body(&self) -> &Body {
        &self.body
    }

    /// Whether the statement contains dynamic control flow (e.g. a `while`
    /// loop) that restricts what baseline schedulers may do with it.
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// Average dynamic work multiplier (models data-dependent trip counts;
    /// 1.0 for static statements).
    pub fn work_scale(&self) -> f64 {
        self.work_scale
    }
}

/// A static-control program: parameters, arrays and statements in their
/// original (pre-optimization) execution order.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    params: Vec<(String, i64)>,
    arrays: Vec<ArrayDecl>,
    stmts: Vec<Statement>,
    /// Memoized result of [`crate::compute_dependences`]: the analysis is
    /// pure in the program structure, so it is computed once and shared by
    /// every schedule version derived from this program. Invalidated by
    /// every `&mut self` method; clones inherit the memo (same structure).
    deps_memo: OnceLock<Arc<Vec<Dependence>>>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: &str) -> Self {
        Program {
            name: name.to_owned(),
            params: Vec::new(),
            arrays: Vec::new(),
            stmts: Vec::new(),
            deps_memo: OnceLock::new(),
        }
    }

    pub(crate) fn deps_memo(&self) -> Option<&Arc<Vec<Dependence>>> {
        self.deps_memo.get()
    }

    pub(crate) fn set_deps_memo(&self, deps: Arc<Vec<Dependence>>) {
        let _ = self.deps_memo.set(deps);
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a parameter with a default value; returns `self` for
    /// chaining.
    #[must_use]
    pub fn with_param(mut self, name: &str, default: i64) -> Self {
        self.params.push((name.to_owned(), default));
        self.deps_memo = OnceLock::new();
        self
    }

    /// The parameters and their default values.
    pub fn params(&self) -> &[(String, i64)] {
        &self.params
    }

    /// Default value of parameter `name`.
    ///
    /// # Errors
    /// Returns an error if the parameter is not declared.
    pub fn param_default(&self, name: &str) -> Result<i64> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| Error::Build(format!("unknown parameter {name}")))
    }

    /// A resolver closure over the default parameter values.
    ///
    /// Undeclared names resolve to 0. They cannot occur for programs built
    /// through [`Program::add_array`] / [`Program::add_stmt`], which reject
    /// references to undeclared parameters at construction time; use
    /// [`Program::param_default`] directly when a typed error is needed.
    pub fn default_binding(&self) -> impl Fn(&str) -> i64 + '_ {
        move |name| self.param_default(name).unwrap_or(0)
    }

    /// Parameter values in declaration order (defaults overridden by
    /// `overrides`).
    pub fn param_values(&self, overrides: &[(&str, i64)]) -> Vec<i64> {
        self.params
            .iter()
            .map(|(n, v)| {
                overrides
                    .iter()
                    .find(|(on, _)| on == n)
                    .map(|(_, ov)| *ov)
                    .unwrap_or(*v)
            })
            .collect()
    }

    /// Declares an array.
    pub fn add_array(&mut self, name: &str, extents: Vec<Extent>, kind: ArrayKind) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        self.arrays.push(ArrayDecl {
            id,
            name: name.to_owned(),
            extents,
            kind,
            elem_bytes: 4,
        });
        self.deps_memo = OnceLock::new();
        id
    }

    /// The array declarations.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Looks up an array by id.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// Looks up an array by name.
    pub fn array_named(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Adds a statement.
    ///
    /// `domain` is parsed with the program's parameter list prepended, so
    /// write it without a `[..] ->` prefix, e.g.
    /// `"{ S0[h,w] : 0 <= h < H and 0 <= w < W }"`. The tuple name becomes
    /// the statement name. `sched` is the initial multi-dimensional affine
    /// schedule (see the running example: `S1(h,w) -> (1,h,w,0,0,0)` is
    /// `[Cst(1), Var(0), Var(1), Cst(0), Cst(0), Cst(0)]`).
    ///
    /// # Errors
    /// Returns an error if the domain fails to parse, the tuple is
    /// anonymous, a schedule term references a missing dimension, or the
    /// body indices have the wrong arity.
    pub fn add_stmt(&mut self, domain: &str, sched: Vec<SchedTerm>, body: Body) -> Result<StmtId> {
        self.add_stmt_full(domain, sched, body, false, 1.0)
    }

    /// [`Program::add_stmt`] with dynamic-control-flow attributes.
    ///
    /// # Errors
    /// See [`Program::add_stmt`].
    pub fn add_stmt_full(
        &mut self,
        domain: &str,
        sched: Vec<SchedTerm>,
        body: Body,
        dynamic: bool,
        work_scale: f64,
    ) -> Result<StmtId> {
        self.deps_memo = OnceLock::new();
        let text = if self.params.is_empty() {
            domain.to_owned()
        } else {
            let names: Vec<&str> = self.params.iter().map(|(n, _)| n.as_str()).collect();
            format!("[{}] -> {}", names.join(", "), domain)
        };
        let domain: Set = text.parse()?;
        let name = domain
            .space()
            .tuple()
            .name()
            .ok_or(Error::Build(
                "statement domains must have a named tuple".into(),
            ))?
            .to_owned();
        if self.stmts.iter().any(|s| s.name == name) {
            return Err(Error::Build(format!("duplicate statement name {name}")));
        }
        let n_dims = domain.space().n_dim();
        for t in &sched {
            if let SchedTerm::Var(d) = t {
                if *d >= n_dims {
                    return Err(Error::Build(format!(
                        "schedule references dim {d} but {name} has {n_dims} dims"
                    )));
                }
            }
        }
        let check_idx = |arr: ArrayId, idx: &[IdxExpr]| -> Result<()> {
            let decl = &self.arrays[arr.0];
            if idx.len() != decl.n_dims() {
                return Err(Error::Build(format!(
                    "access to {} has {} indices, array has {} dims",
                    decl.name,
                    idx.len(),
                    decl.n_dims()
                )));
            }
            for e in idx {
                if e.n_dims() != n_dims {
                    return Err(Error::Build(format!(
                        "index expression over {} dims used in statement {name} with {n_dims} dims",
                        e.n_dims()
                    )));
                }
                for (pname, _) in e.param_terms() {
                    if !self.params.iter().any(|(n, _)| n == pname) {
                        return Err(Error::Build(format!(
                            "unknown parameter {pname} in index of statement {name}"
                        )));
                    }
                }
            }
            Ok(())
        };
        check_idx(body.target, &body.target_idx)?;
        for (arr, idx) in body.rhs.loads() {
            check_idx(arr, idx)?;
        }
        let id = StmtId(self.stmts.len());
        self.stmts.push(Statement {
            id,
            name,
            domain,
            sched,
            body,
            dynamic,
            work_scale,
        });
        Ok(id)
    }

    /// Checks that every symbolic parameter referenced anywhere in the
    /// program — array extents and statement-body index expressions — is
    /// declared, so downstream consumers (the interpreter, cost models)
    /// can resolve parameter names without aborting.
    ///
    /// Statement bodies are already validated by [`Program::add_stmt`];
    /// this additionally covers array extents, which are accepted
    /// unchecked by [`Program::add_array`].
    ///
    /// # Errors
    /// Returns a [`Error::Build`] naming the first undeclared parameter.
    pub fn validate_params(&self) -> Result<()> {
        let declared = |name: &str| self.params.iter().any(|(n, _)| n == name);
        for a in &self.arrays {
            for e in &a.extents {
                for (pname, _) in e.terms() {
                    if !declared(pname) {
                        return Err(Error::Build(format!(
                            "unknown parameter {pname} in extent of array {}",
                            a.name
                        )));
                    }
                }
            }
        }
        for s in &self.stmts {
            let check = |idx: &[IdxExpr]| -> Result<()> {
                for e in idx {
                    for (pname, _) in e.param_terms() {
                        if !declared(pname) {
                            return Err(Error::Build(format!(
                                "unknown parameter {pname} in index of statement {}",
                                s.name
                            )));
                        }
                    }
                }
                Ok(())
            };
            check(&s.body.target_idx)?;
            for (_, idx) in s.body.rhs.loads() {
                check(idx)?;
            }
        }
        Ok(())
    }

    /// The statements in original order.
    pub fn stmts(&self) -> &[Statement] {
        &self.stmts
    }

    /// Looks up a statement by id.
    pub fn stmt(&self, id: StmtId) -> &Statement {
        &self.stmts[id.0]
    }

    /// Looks up a statement by name.
    pub fn stmt_named(&self, name: &str) -> Option<&Statement> {
        self.stmts.iter().find(|s| s.name == name)
    }

    /// Whether `stmt` is live-out: it writes an [`ArrayKind::Output`] array.
    pub fn is_live_out(&self, stmt: StmtId) -> bool {
        let s = &self.stmts[stmt.0];
        self.arrays[s.body.target.0].kind == ArrayKind::Output
    }

    /// Length all initial schedules are padded to for comparisons.
    pub fn sched_len(&self) -> usize {
        self.stmts.iter().map(|s| s.sched.len()).max().unwrap_or(0)
    }

    /// The set space of an array (`[params] -> { A[d0, ..] }`).
    pub fn array_space(&self, arr: ArrayId) -> Space {
        let decl = &self.arrays[arr.0];
        let names: Vec<&str> = self.params.iter().map(|(n, _)| n.as_str()).collect();
        Space::set(&names, Tuple::named(&decl.name, decl.n_dims()))
    }

    /// The single write access relation of a statement, restricted to its
    /// domain: `{ S[i] -> A[f(i)] : i ∈ domain }`.
    ///
    /// # Errors
    /// Returns an error on overflow during construction.
    pub fn write_access(&self, stmt: StmtId) -> Result<Map> {
        let s = &self.stmts[stmt.0];
        self.access_map(s, s.body.target, &s.body.target_idx)
    }

    /// All read access relations of a statement (one per load), restricted
    /// to its domain.
    ///
    /// # Errors
    /// Returns an error on overflow during construction.
    pub fn read_accesses(&self, stmt: StmtId) -> Result<Vec<(ArrayId, Map)>> {
        let s = &self.stmts[stmt.0];
        s.body
            .rhs
            .loads()
            .into_iter()
            .map(|(arr, idx)| Ok((arr, self.access_map(s, arr, idx)?)))
            .collect()
    }

    /// The union of a statement's reads of one array. Only the loads of
    /// `arr` are turned into relations; `None` if the statement never
    /// reads it.
    ///
    /// # Errors
    /// Returns an error on overflow during construction.
    pub fn read_access_to(&self, stmt: StmtId, arr: ArrayId) -> Result<Option<Map>> {
        let s = &self.stmts[stmt.0];
        let mut acc: Option<Map> = None;
        for (a, idx) in s.body.rhs.loads() {
            if a == arr {
                let m = self.access_map(s, arr, idx)?;
                acc = Some(match acc {
                    None => m,
                    Some(prev) => prev.union(&m)?,
                });
            }
        }
        Ok(acc)
    }

    fn access_map(&self, s: &Statement, arr: ArrayId, idx: &[IdxExpr]) -> Result<Map> {
        let space = s.domain.space().join_map(&self.array_space(arr))?;
        let n_in = space.n_in();
        let exprs: Vec<AffExpr> =
            idx.iter()
                .map(|ix| {
                    let mut e = AffExpr::constant(&space, ix.constant_term());
                    for d in 0..n_in {
                        let c = ix.dim_coeff(d);
                        if c != 0 {
                            e = e.with_dim_coeff(d, c);
                        }
                    }
                    for (pname, c) in ix.param_terms() {
                        let p =
                            self.params.iter().position(|(n, _)| n == pname).ok_or(
                                Error::Build(format!("unknown parameter {pname} in index")),
                            )?;
                        e = e.with_param_coeff(p, *c);
                    }
                    Ok(e)
                })
                .collect::<Result<_>>()?;
        Ok(Map::from_affine(space, &exprs)?.intersect_domain(&s.domain)?)
    }

    /// The strict precedence relation between two statements under the
    /// *initial* schedule: `{ s[i] -> t[j] : sched_s(i) ≺ sched_t(j) }`.
    ///
    /// # Errors
    /// Returns an error on overflow during construction.
    pub fn prec_map(&self, src: StmtId, dst: StmtId) -> Result<Map> {
        let s = &self.stmts[src.0];
        let t = &self.stmts[dst.0];
        let space = s.domain.space().join_map(t.domain.space())?;
        let n_in = space.n_in();
        let len = self.sched_len();
        let term_expr = |term: Option<&SchedTerm>, in_side: bool| -> Result<AffExpr> {
            Ok(match term {
                None | Some(SchedTerm::Cst(_)) => {
                    let c = match term {
                        Some(SchedTerm::Cst(v)) => *v,
                        _ => 0,
                    };
                    AffExpr::constant(&space, c)
                }
                Some(SchedTerm::Var(d)) => {
                    AffExpr::dim(&space, if in_side { *d } else { n_in + d })?
                }
            })
        };
        let mut out = Map::empty(space.clone())?;
        for level in 0..len {
            let mut b = tilefuse_presburger::BasicSet::universe(space.clone());
            for k in 0..level {
                let a = term_expr(s.sched.get(k), true)?;
                let c = term_expr(t.sched.get(k), false)?;
                b.add_constraint(&a.eq(&c)?)?;
            }
            let a = term_expr(s.sched.get(level), true)?;
            let c = term_expr(t.sched.get(level), false)?;
            b.add_constraint(&a.lt(&c)?)?;
            out = out.union(&Map::from_basic(b)?)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    /// A two-statement producer/consumer program:
    ///   S0: A[i] = i          for 0 <= i < N
    ///   S1: B[i] = A[i] + A[i+1]   for 0 <= i < N-1
    fn sample() -> (Program, ArrayId, ArrayId, StmtId, StmtId) {
        let mut p = Program::new("sample").with_param("N", 10);
        let a = p.add_array("A", vec!["N".into()], ArrayKind::Temp);
        let b = p.add_array("B", vec![("N", -1).into()], ArrayKind::Output);
        let s0 = p
            .add_stmt(
                "{ S0[i] : 0 <= i < N }",
                vec![SchedTerm::Cst(0), SchedTerm::Var(0)],
                Body {
                    target: a,
                    target_idx: vec![IdxExpr::dim(1, 0)],
                    rhs: Expr::Iter(0),
                },
            )
            .unwrap();
        let s1 = p
            .add_stmt(
                "{ S1[i] : 0 <= i < N - 1 }",
                vec![SchedTerm::Cst(1), SchedTerm::Var(0)],
                Body {
                    target: b,
                    target_idx: vec![IdxExpr::dim(1, 0)],
                    rhs: Expr::add(
                        Expr::load(a, vec![IdxExpr::dim(1, 0)]),
                        Expr::load(a, vec![IdxExpr::dim(1, 0).offset(1)]),
                    ),
                },
            )
            .unwrap();
        (p, a, b, s0, s1)
    }

    #[test]
    fn build_and_lookup() {
        let (p, a, b, s0, s1) = sample();
        assert_eq!(p.stmts().len(), 2);
        assert_eq!(p.stmt(s0).name(), "S0");
        assert_eq!(p.stmt_named("S1").unwrap().id(), s1);
        assert_eq!(p.array(a).name(), "A");
        assert_eq!(p.array_named("B").unwrap().id(), b);
        assert!(p.stmt_named("S9").is_none());
        assert!(p.array_named("Z").is_none());
    }

    #[test]
    fn live_out_classification() {
        let (p, _, _, s0, s1) = sample();
        assert!(!p.is_live_out(s0));
        assert!(p.is_live_out(s1));
    }

    #[test]
    fn array_shape_and_len() {
        let (p, a, b, ..) = sample();
        let bind = p.default_binding();
        assert_eq!(p.array(a).shape(&bind), vec![10]);
        assert_eq!(p.array(b).shape(&bind), vec![9]);
        assert_eq!(p.array(a).len(&bind), 10);
        assert!(!p.array(a).is_empty(&bind));
    }

    #[test]
    fn write_access_is_restricted_to_domain() {
        let (p, _, _, s0, _) = sample();
        let w = p.write_access(s0).unwrap();
        // S0[i] -> A[i], 0 <= i < N. With N=10: pair (i=3 -> a=3) in.
        assert!(w.contains_pair(&[10, 3, 3]).unwrap());
        assert!(!w.contains_pair(&[10, 3, 4]).unwrap());
        assert!(!w.contains_pair(&[10, 10, 10]).unwrap()); // outside domain
    }

    #[test]
    fn read_accesses_derived_from_body() {
        let (p, a, _, _, s1) = sample();
        let reads = p.read_accesses(s1).unwrap();
        assert_eq!(reads.len(), 2);
        assert!(reads.iter().all(|(arr, _)| *arr == a));
        let union = p.read_access_to(s1, a).unwrap().unwrap();
        // S1[0] reads A[0] and A[1].
        assert!(union.contains_pair(&[10, 0, 0]).unwrap());
        assert!(union.contains_pair(&[10, 0, 1]).unwrap());
        assert!(!union.contains_pair(&[10, 0, 2]).unwrap());
    }

    #[test]
    fn read_access_to_is_the_filtered_union_of_read_accesses() {
        let (mut p, a, b, s0, _) = sample();
        let c = p.add_array("C", vec![("N", -1).into()], ArrayKind::Output);
        // S2: C[i] = A[i] + B[i] * A[i+1] — two arrays, interleaved loads.
        let s2 = p
            .add_stmt(
                "{ S2[i] : 0 <= i < N - 1 }",
                vec![SchedTerm::Cst(2), SchedTerm::Var(0)],
                Body {
                    target: c,
                    target_idx: vec![IdxExpr::dim(1, 0)],
                    rhs: Expr::add(
                        Expr::load(a, vec![IdxExpr::dim(1, 0)]),
                        Expr::mul(
                            Expr::load(b, vec![IdxExpr::dim(1, 0)]),
                            Expr::load(a, vec![IdxExpr::dim(1, 0).offset(1)]),
                        ),
                    ),
                },
            )
            .unwrap();
        let reads = p.read_accesses(s2).unwrap();
        for arr in [a, b] {
            let expected = reads
                .iter()
                .filter(|(x, _)| *x == arr)
                .map(|(_, m)| m.clone())
                .reduce(|acc, m| acc.union(&m).unwrap())
                .unwrap();
            let got = p.read_access_to(s2, arr).unwrap().unwrap();
            assert!(got.is_equal(&expected).unwrap(), "{got} vs {expected}");
        }
        // Unread arrays: the statement's own target, and any array of a
        // statement that loads nothing.
        assert!(p.read_access_to(s2, c).unwrap().is_none());
        assert!(p.read_access_to(s0, a).unwrap().is_none());
    }

    #[test]
    fn prec_map_orders_statements() {
        let (p, _, _, s0, s1) = sample();
        let prec = p.prec_map(s0, s1).unwrap();
        // All of S0 precedes all of S1 (different scalar level).
        assert!(prec.contains_pair(&[10, 9, 0]).unwrap());
        assert!(prec.contains_pair(&[10, 0, 8]).unwrap());
        // Reverse direction is empty.
        let rev = p.prec_map(s1, s0).unwrap();
        assert!(rev.is_empty().unwrap());
    }

    #[test]
    fn prec_map_within_statement_level() {
        let (p, _, _, s0, _) = sample();
        let prec = p.prec_map(s0, s0).unwrap();
        assert!(prec.contains_pair(&[10, 2, 3]).unwrap());
        assert!(!prec.contains_pair(&[10, 3, 3]).unwrap());
        assert!(!prec.contains_pair(&[10, 4, 3]).unwrap());
    }

    #[test]
    fn duplicate_statement_name_rejected() {
        let (mut p, a, ..) = sample();
        let r = p.add_stmt(
            "{ S0[i] : 0 <= i < N }",
            vec![SchedTerm::Cst(2), SchedTerm::Var(0)],
            Body {
                target: a,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::Const(0.0),
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn bad_schedule_dim_rejected() {
        let (mut p, a, ..) = sample();
        let r = p.add_stmt(
            "{ S9[i] : 0 <= i < N }",
            vec![SchedTerm::Var(3)],
            Body {
                target: a,
                target_idx: vec![IdxExpr::dim(1, 0)],
                rhs: Expr::Const(0.0),
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn bad_access_arity_rejected() {
        let (mut p, a, ..) = sample();
        let r = p.add_stmt(
            "{ S9[i] : 0 <= i < N }",
            vec![SchedTerm::Cst(2), SchedTerm::Var(0)],
            Body {
                target: a,
                target_idx: vec![IdxExpr::dim(1, 0), IdxExpr::dim(1, 0)],
                rhs: Expr::Const(0.0),
            },
        );
        assert!(r.is_err());
    }

    #[test]
    fn param_values_with_overrides() {
        let (p, ..) = sample();
        assert_eq!(p.param_values(&[]), vec![10]);
        assert_eq!(p.param_values(&[("N", 32)]), vec![32]);
    }

    #[test]
    fn sched_len_is_padded_max() {
        let (p, ..) = sample();
        assert_eq!(p.sched_len(), 2);
    }

    #[test]
    fn param_default_is_typed() {
        let (p, ..) = sample();
        assert_eq!(p.param_default("N").unwrap(), 10);
        let err = p.param_default("Z").unwrap_err();
        assert!(err.to_string().contains("unknown parameter Z"));
        // The binding closure resolves declared names and never aborts.
        let bind = p.default_binding();
        assert_eq!(bind("N"), 10);
        assert_eq!(bind("Z"), 0);
    }

    #[test]
    fn unknown_param_in_index_rejected_at_build() {
        let (mut p, a, ..) = sample();
        let r = p.add_stmt(
            "{ S9[i] : 0 <= i < N }",
            vec![SchedTerm::Cst(2), SchedTerm::Var(0)],
            Body {
                target: a,
                target_idx: vec![IdxExpr::param(1, "Q", 0)],
                rhs: Expr::Const(0.0),
            },
        );
        let err = r.unwrap_err();
        assert!(err.to_string().contains("unknown parameter Q"), "{err}");
    }

    #[test]
    fn validate_params_catches_undeclared_extent() {
        let (mut p, ..) = sample();
        p.add_array("Bad", vec!["M".into()], ArrayKind::Temp);
        let err = p.validate_params().unwrap_err();
        assert!(err.to_string().contains("unknown parameter M"), "{err}");
        let (q, ..) = sample();
        q.validate_params().unwrap();
    }

    #[test]
    fn extent_conversions() {
        let e: Extent = 5i64.into();
        assert_eq!(e.eval(&|_| 0), 5);
        let e: Extent = "N".into();
        assert_eq!(e.eval(&|_| 7), 7);
        let e: Extent = ("N", -2).into();
        assert_eq!(e.eval(&|_| 7), 5);
    }
}
