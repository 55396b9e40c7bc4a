//! Parse -> pretty -> parse round-trip property tests, and — over the same
//! generated trees — the properties every structural pass leans on: the two
//! statements of an `Expr`'s children agree, the two statements of scope
//! (`free_vars` and the analyzer) agree, and `strip_spans` normalizes.
//!
//! [`matryoshka_ir::pretty::to_source`] promises that its output re-parses
//! to the same AST (modulo spans). The unit tests in `pretty.rs` check a
//! handful of hand-written programs; here we generate a few thousand random
//! expression trees with a seeded PRNG and check the property over the
//! whole surface grammar: literals, tuples, projections, operators, `let`,
//! `if`, `loop`, lambdas, two-argument combiners, and every bag builtin.
//!
//! The generator only produces trees that *have* surface syntax: no
//! `Const(Tuple)`/`Const(Unit)` (no literal form), no negative longs (they
//! would re-parse as `Un(Neg, ..)`), no one-element tuples (parentheses are
//! grouping), and no post-parsing-phase primitives.

use matryoshka_ir::analyze::{codes, source_names};
use matryoshka_ir::ast::{BinOp, Expr, Lambda, Lambda2, Slot, UnOp};
use matryoshka_ir::pretty::to_source;
use matryoshka_ir::{analyze, parse_program, Dialect, Value};

/// splitmix64: tiny, seedable, and good enough to shake the grammar.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generator state: variables currently in scope (for `Var` leaves) and a
/// counter for fresh binder names, so shadowing never collides with a
/// binder the same subtree still needs.
struct Gen {
    rng: Rng,
    scope: Vec<String>,
    fresh: u32,
}

impl Gen {
    fn fresh_name(&mut self) -> String {
        self.fresh += 1;
        format!("v{}", self.fresh)
    }

    fn leaf(&mut self) -> Expr {
        match self.rng.below(7) {
            0 => Expr::long(self.rng.below(1000) as i64),
            1 => Expr::Const(Value::Bool(self.rng.below(2) == 0)),
            2 => Expr::Const(Value::Double([0.5, 1.25, 2.0, 10.75][self.rng.below(4) as usize])),
            3 => Expr::Const(Value::Str(["day", "ip", "k1"][self.rng.below(3) as usize].into())),
            4 => Expr::Source(["xs", "ys", "visits"][self.rng.below(3) as usize].into()),
            // Any binder name issued so far, or the next one: in scope or not.
            5 => Expr::var(&format!("v{}", 1 + self.rng.below(u64::from(self.fresh) + 1))),
            _ => match self.scope.is_empty() {
                true => Expr::long(self.rng.below(10) as i64),
                false => Expr::var(&self.scope[self.rng.below(self.scope.len() as u64) as usize]),
            },
        }
    }

    fn lambda(&mut self, depth: u32) -> Lambda {
        let p = self.fresh_name();
        self.scope.push(p.clone());
        let body = self.expr(depth);
        self.scope.pop();
        Lambda::new(&p, body)
    }

    fn lambda2(&mut self, depth: u32) -> Lambda2 {
        let a = self.fresh_name();
        let b = self.fresh_name();
        self.scope.push(a.clone());
        self.scope.push(b.clone());
        let body = self.expr(depth);
        self.scope.pop();
        self.scope.pop();
        Lambda2::new(&a, &b, body)
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        let d = depth - 1;
        match self.rng.below(19) {
            0 | 1 => self.leaf(),
            2 => {
                // Two- or three-element tuple (one element would re-parse
                // as a grouping parenthesis).
                let n = 2 + self.rng.below(2);
                Expr::Tuple((0..n).map(|_| self.expr(d)).collect())
            }
            3 => Expr::proj(self.expr(d), self.rng.below(3) as usize),
            4 => {
                const OPS: [BinOp; 9] = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Eq,
                    BinOp::Lt,
                    BinOp::Gt,
                    BinOp::And,
                    BinOp::Or,
                ];
                let op = OPS[self.rng.below(9) as usize];
                Expr::bin(op, self.expr(d), self.expr(d))
            }
            5 => {
                let op = [UnOp::Not, UnOp::Neg, UnOp::ToDouble][self.rng.below(3) as usize];
                Expr::Un(op, Box::new(self.expr(d)))
            }
            6 => {
                let n = self.fresh_name();
                let v = self.expr(d);
                self.scope.push(n.clone());
                let b = self.expr(d);
                self.scope.pop();
                Expr::Let(n, Box::new(v), Box::new(b))
            }
            7 => Expr::If(Box::new(self.expr(d)), Box::new(self.expr(d)), Box::new(self.expr(d))),
            8 => {
                // Each initializer sees the loop variables declared before it.
                let n = 1 + self.rng.below(3);
                let names: Vec<String> = (0..n).map(|_| self.fresh_name()).collect();
                let mut init = Vec::new();
                for nm in &names {
                    init.push((nm.clone(), self.expr(d)));
                    self.scope.push(nm.clone());
                }
                let cond = self.expr(d);
                let step: Vec<Expr> = names.iter().map(|_| self.expr(d)).collect();
                let result = self.expr(d);
                for _ in &names {
                    self.scope.pop();
                }
                Expr::Loop { init, cond: Box::new(cond), step, result: Box::new(result) }
            }
            9 => {
                let x = self.expr(d);
                let l = self.lambda(d);
                Expr::Map(Box::new(x), l)
            }
            10 => {
                let x = self.expr(d);
                let l = self.lambda(d);
                Expr::Filter(Box::new(x), l)
            }
            11 => {
                let x = self.expr(d);
                let l = self.lambda(d);
                Expr::FlatMapTuple(Box::new(x), l)
            }
            12 => Expr::GroupByKey(Box::new(self.expr(d))),
            13 => Expr::Distinct(Box::new(self.expr(d))),
            14 => Expr::Count(Box::new(self.expr(d))),
            15 => {
                let x = self.expr(d);
                let l2 = self.lambda2(d);
                Expr::ReduceByKey(Box::new(x), l2)
            }
            16 => {
                let x = self.expr(d);
                let z = self.expr(d);
                let l2 = self.lambda2(d);
                Expr::Fold(Box::new(x), Box::new(z), l2)
            }
            17 => {
                // A map over the (nested) result of a bag-valued lifted map.
                let g = self.fresh_name();
                let inner = Expr::Filter(Box::new(Expr::proj(Expr::var(&g), 1)), self.lambda(d));
                let nested = Expr::Map(
                    Box::new(Expr::GroupByKey(Box::new(self.expr(d)))),
                    Lambda::new(&g, inner),
                );
                let l = self.lambda(d);
                Expr::Map(Box::new(nested), l)
            }
            _ => {
                let a = self.expr(d);
                let b = self.expr(d);
                match self.rng.below(2) {
                    0 => Expr::Join(Box::new(a), Box::new(b)),
                    _ => Expr::Union(Box::new(a), Box::new(b)),
                }
            }
        }
    }
}

fn check_roundtrip(e: &Expr) {
    let rendered = to_source(e);
    let reparsed = parse_program(&rendered)
        .unwrap_or_else(|err| panic!("`{rendered}` failed to re-parse: {err}"))
        .strip_spans();
    assert_eq!(&reparsed, e, "round-trip changed the tree for `{rendered}`");
}

fn random_tree(seed: u64) -> Expr {
    let rng = Rng(seed.wrapping_mul(0x9e37) ^ xmatry_seed());
    Gen { rng, scope: vec![], fresh: 0 }.expr(4)
}

#[test]
fn random_trees_round_trip_through_source() {
    for seed in 0..2000u64 {
        check_roundtrip(&random_tree(seed));
    }
}

/// `for_each_child` and `map_children` enumerate the same children, in the
/// same order, under the same binders and slots — at every node — and
/// mapping with the identity rebuilds the node.
#[test]
fn the_two_child_enumerations_agree() {
    type Seen<'a> = Vec<(*const Expr, Vec<&'a str>, Slot)>;
    for seed in 0..500u64 {
        random_tree(seed).visit(&mut |node| {
            let mut listed: Seen = Vec::new();
            node.for_each_child(|c, binds, slot| listed.push((c, binds.iter().collect(), slot)));
            let mut mapped: Seen = Vec::new();
            let rebuilt = node.map_children(|c, binds, slot| {
                mapped.push((c, binds.iter().collect(), slot));
                c.clone()
            });
            assert_eq!(listed, mapped, "children of `{}`", to_source(node));
            assert_eq!(&rebuilt, node);
        });
    }
}

/// Two independent statements of scope agree: with every source declared,
/// the analyzer reports an unbound variable (MAT001) exactly when
/// `free_vars` is non-empty. Both outcomes must occur for the test to mean
/// anything. The analyzer also meets every `map` exactly once.
#[test]
fn free_vars_and_the_analyzer_agree_on_scope() {
    let (mut closed, mut open) = (0, 0);
    for seed in 0..2000u64 {
        let e = random_tree(seed);
        let sources = source_names(&e);
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let analysis = analyze(&e, &refs, Dialect::Matryoshka);
        let unbound = analysis.diagnostics.iter().any(|d| d.code == codes::UNBOUND_VAR);
        let free = e.free_vars();
        assert_eq!(unbound, !free.is_empty(), "free {free:?} in `{}`", to_source(&e));
        *(if unbound { &mut open } else { &mut closed }) += 1;

        let mut maps = 0;
        e.visit(&mut |n| maps += usize::from(matches!(n, Expr::Map(..))));
        assert_eq!(analysis.lifts.len(), maps, "`{}`", to_source(&e));
    }
    assert!(closed > 100 && open > 100, "{closed} closed, {open} open programs");
}

/// `strip_spans` leaves no span behind and is idempotent.
#[test]
fn strip_spans_is_idempotent_and_span_free() {
    for seed in 0..500u64 {
        let spanned = parse_program(&to_source(&random_tree(seed))).expect("re-parses");
        assert!(matches!(spanned, Expr::Spanned(..)), "the parser attaches spans");
        let stripped = spanned.strip_spans();
        stripped.visit(&mut |n| assert!(!matches!(n, Expr::Spanned(..))));
        assert_eq!(stripped.strip_spans(), stripped);
    }
}

const fn xmatry_seed() -> u64 {
    0x6d61_7472_796f_7368 // "matryosh"
}

#[test]
fn deep_trees_round_trip() {
    // A few deliberately deep trees: depth 7 exercises operator nesting and
    // parenthesisation well past anything the unit tests cover.
    for seed in [1u64, 7, 42, 1913, 65537] {
        let mut g = Gen { rng: Rng(seed), scope: vec![], fresh: 0 };
        let e = g.expr(7);
        check_roundtrip(&e);
    }
}

#[test]
fn parsed_programs_round_trip_with_spans_stripped() {
    // Sources written by hand (with comments-free surface syntax the
    // generator cannot produce, e.g. chained postfix projection and unary
    // minus) still round-trip once parsed.
    let cases = [
        "map(source(visits), v => (v.0, v.1))",
        "let two = 1 + 1 in two * -3",
        "filter(source(xs), x => !(x == 2) && x < 10 || x > 100)",
        "fold(map(source(xs), x => (x.1).0), 0, (a, b) => a + b)",
        "loop (n = 0) while n < 3 do (n + 1) yield (n, \"done\")",
    ];
    for case in cases {
        let ast = parse_program(case).unwrap().strip_spans();
        check_roundtrip(&ast);
    }
}
