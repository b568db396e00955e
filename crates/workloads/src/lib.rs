//! Seeded synthetic SPECint92 workloads.
//!
//! The paper evaluates on the six SPECint92 C programs — compress,
//! eqntott, xlisp, sc, espresso and cc1 — compiled by GCC. Register
//! allocation consumes only the intermediate representation, liveness and
//! profile weights of each function, so this crate substitutes a seeded
//! generator that reproduces the *distributions* that matter to an
//! allocator:
//!
//! * the per-benchmark function counts of the paper's Table 2, including
//!   the functions that manipulate 64-bit values and are therefore not
//!   attempted (`sc` 8, `cc1` 29);
//! * per-benchmark function-size profiles (hundreds of small Lisp-ish
//!   functions in xlisp, a long tail of large functions in cc1);
//! * structured, reducible control flow: nested counted loops (bounded so
//!   the interpreter can execute every generated function), diamonds and
//!   straight-line regions;
//! * realistic operand mixes: two-address-friendly arithmetic, copies,
//!   immediate operands (exercising the §5.4.1 short forms), shifts
//!   (implicit CL counts), loads/stores through x86 addressing modes,
//!   parameter loads (predefined memory values, §5.5), aliased globals
//!   and calls, and a sprinkling of 8-/16-bit values to engage the
//!   overlapping-register constraints (§5.3).
//!
//! Every generated function passes [`verify_function`] and terminates
//! under the interpreter (loops are counter-bounded by construction).
//!
//! [`verify_function`]: regalloc_ir::verify_function

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regalloc_ir::{
    Address, BinOp, Cond, Function, FunctionBuilder, GlobalId, Inst, Operand, Scale, SymId, UnOp,
    Width,
};

/// One SPECint92 benchmark identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Benchmark {
    /// `compress` — 16 functions, medium sizes.
    Compress,
    /// `eqntott` — 62 functions.
    Eqntott,
    /// `xlisp` — 357 small Lisp-interpreter functions.
    Xlisp,
    /// `sc` — 154 functions, 8 using 64-bit values.
    Sc,
    /// `espresso` — 361 functions.
    Espresso,
    /// `cc1` — 1450 functions with a heavy size tail, 29 using 64-bit
    /// values.
    Cc1,
}

impl Benchmark {
    /// All six benchmarks, in the paper's Table 2 order.
    pub fn all() -> [Benchmark; 6] {
        [
            Benchmark::Compress,
            Benchmark::Eqntott,
            Benchmark::Xlisp,
            Benchmark::Sc,
            Benchmark::Espresso,
            Benchmark::Cc1,
        ]
    }

    /// The benchmark's name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Compress => "compress",
            Benchmark::Eqntott => "eqntott",
            Benchmark::Xlisp => "xlisp",
            Benchmark::Sc => "sc",
            Benchmark::Espresso => "espresso",
            Benchmark::Cc1 => "cc1",
        }
    }

    /// Function counts from Table 2: `(total, using 64-bit values)`.
    pub fn function_counts(self) -> (usize, usize) {
        match self {
            Benchmark::Compress => (16, 0),
            Benchmark::Eqntott => (62, 0),
            Benchmark::Xlisp => (357, 0),
            Benchmark::Sc => (154, 8),
            Benchmark::Espresso => (361, 0),
            Benchmark::Cc1 => (1450, 29),
        }
    }

    /// Size profile: `(min, median-ish, max)` instruction targets.
    fn size_profile(self) -> (usize, usize, usize) {
        match self {
            Benchmark::Compress => (10, 30, 70),
            Benchmark::Eqntott => (8, 25, 60),
            Benchmark::Xlisp => (5, 14, 40),
            Benchmark::Sc => (8, 26, 70),
            Benchmark::Espresso => (8, 28, 75),
            Benchmark::Cc1 => (5, 22, 90),
        }
    }

    /// Distinct seeds per benchmark keep suites independent.
    fn seed_salt(self) -> u64 {
        match self {
            Benchmark::Compress => 0x10,
            Benchmark::Eqntott => 0x20,
            Benchmark::Xlisp => 0x30,
            Benchmark::Sc => 0x40,
            Benchmark::Espresso => 0x50,
            Benchmark::Cc1 => 0x60,
        }
    }
}

/// Tuning knobs for one generated function.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Rough instruction-count target.
    pub target_insts: usize,
    /// Maximum loop-nesting depth.
    pub max_loop_depth: u32,
    /// Probability (percent) of a call statement.
    pub call_pct: u32,
    /// Probability (percent) of a memory statement.
    pub mem_pct: u32,
    /// Probability (percent) of generating in a narrow (8-/16-bit) width.
    pub narrow_pct: u32,
    /// Emit a 64-bit value so the allocators refuse the function.
    pub make_64bit: bool,
    /// Probability (percent) that an immediate is drawn from the full
    /// 32-bit range — and, in `make_64bit` functions, that the 64-bit
    /// value is loaded with a full-range `i64` immediate — instead of the
    /// small windows the classic suite uses. `0` reproduces the classic
    /// streams bit for bit.
    pub wide_imm_pct: u32,
    /// Probability (percent) that a memory statement uses an addressing
    /// shape the classic suite never emits: absolute (displacement-only),
    /// scaled index without a base register, or displacements far outside
    /// the §5.4.1 short forms. `0` reproduces the classic streams bit for
    /// bit.
    pub exotic_addr_pct: u32,
    /// The machine word: the width of "ordinary" values — parameters,
    /// globals, loop counters, the bulk arithmetic. [`Width::B32`] (the
    /// default) reproduces the classic streams bit for bit; [`Width::B16`]
    /// generates *portable* functions whose every value and displacement
    /// fits the narrowest registered target (the paired-register MCU), so
    /// the same function can be allocated — and its outputs compared —
    /// on every machine model.
    pub word_width: Width,
    /// Whether memory statements may compute addresses in registers
    /// (base/index addressing). `true` (the default) is the classic
    /// behaviour. `false` restricts memory traffic to globals and
    /// absolute (displacement-only) addresses, which every target's
    /// pointer width covers — the x86 models address through 32-bit
    /// registers, the MCU through 16-bit pairs, so a function meant to
    /// allocate on *both* must not take addresses from registers.
    pub symbolic_addresses: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            target_insts: 30,
            max_loop_depth: 2,
            call_pct: 8,
            mem_pct: 18,
            narrow_pct: 8,
            make_64bit: false,
            wide_imm_pct: 0,
            exotic_addr_pct: 0,
            word_width: Width::B32,
            symbolic_addresses: true,
        }
    }
}

impl GenConfig {
    /// The differential-fuzzing preset: the classic statement mix plus
    /// the shapes the synthetic suites never emit (wide immediates and
    /// exotic addressing), at a size small enough that the IP solver
    /// finishes quickly on every case.
    pub fn fuzz() -> GenConfig {
        GenConfig {
            target_insts: 18,
            wide_imm_pct: 25,
            exotic_addr_pct: 40,
            ..GenConfig::default()
        }
    }

    /// The portable preset: the fuzz mix restricted to a 16-bit word, so
    /// every generated function is accepted by *all* registered targets
    /// (the MCU refuses anything wider). Used by the fuzzer's MCU
    /// campaign and its cross-target agreement oracle.
    pub fn portable16() -> GenConfig {
        GenConfig {
            word_width: Width::B16,
            symbolic_addresses: false,
            ..GenConfig::fuzz()
        }
    }
}

/// A generated benchmark: its functions in definition order.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Which benchmark this models.
    pub benchmark: Benchmark,
    /// The functions.
    pub functions: Vec<Function>,
}

impl Suite {
    /// Generate the full-size suite for `benchmark`.
    pub fn generate(benchmark: Benchmark, seed: u64) -> Suite {
        Suite::generate_scaled(benchmark, seed, 1.0)
    }

    /// Generate with the function count scaled by `scale` (0 < scale ≤ 1);
    /// used for quick experiment runs. At least one function of each kind
    /// (ordinary and 64-bit) survives scaling when the original count was
    /// non-zero.
    pub fn generate_scaled(benchmark: Benchmark, seed: u64, scale: f64) -> Suite {
        let (total, n64) = benchmark.function_counts();
        let scaled_total = ((total as f64 * scale).round() as usize).max(1);
        let scaled_64 = if n64 == 0 {
            0
        } else {
            ((n64 as f64 * scale).round() as usize).max(1)
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ benchmark.seed_salt());
        let (lo, med, hi) = benchmark.size_profile();
        let mut functions = Vec::with_capacity(scaled_total);
        for i in 0..scaled_total {
            // Two-sided size draw around the median with a tail to `hi`.
            let target = if rng.gen_ratio(1, 6) {
                rng.gen_range(med..=hi)
            } else {
                rng.gen_range(lo..=med)
            };
            let cfg = GenConfig {
                target_insts: target,
                make_64bit: i < scaled_64,
                ..Default::default()
            };
            let name = format!("{}_{i:04}", benchmark.name());
            functions.push(generate_function(&name, &mut rng, &cfg));
        }
        Suite {
            benchmark,
            functions,
        }
    }

    /// Total instruction count over the suite.
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(Function::num_insts).sum()
    }
}

struct Gen<'r> {
    rng: &'r mut SmallRng,
    b: FunctionBuilder,
    avail32: Vec<SymId>,
    avail8: Vec<SymId>,
    avail16: Vec<SymId>,
    protected: Vec<SymId>,
    globals: Vec<GlobalId>,
    budget: isize,
    cfg: GenConfig,
    callee_counter: u32,
}

impl<'r> Gen<'r> {
    fn word(&self) -> Width {
        self.cfg.word_width
    }

    fn pick32(&mut self) -> SymId {
        // Bias towards recent definitions, with occasional long-range
        // reuse to stretch live ranges.
        let n = self.avail32.len();
        if n == 0 {
            let s = self.b.new_sym(self.word());
            self.b.load_imm(s, self.rng.gen_range(-100..100));
            self.budget -= 1;
            self.avail32.push(s);
            return s;
        }
        if n > 6 && self.rng.gen_ratio(3, 4) {
            self.avail32[self.rng.gen_range(n - 6..n)]
        } else {
            self.avail32[self.rng.gen_range(0..n)]
        }
    }

    fn pick_narrow(&mut self, w: Width) -> SymId {
        let pool = match w {
            Width::B8 => &mut self.avail8,
            _ => &mut self.avail16,
        };
        if pool.is_empty() {
            let s = self.b.new_sym(w);
            pool.push(s);
            let imm = self.rng.gen_range(0..=w.mask().min(255) as i64);
            self.b.load_imm(s, imm);
            self.budget -= 1;
            return s;
        }
        pool[self.rng.gen_range(0..pool.len())]
    }

    /// Destination: usually a fresh symbolic (three-address style),
    /// sometimes a redefinition of an existing one.
    fn dest32(&mut self) -> SymId {
        if !self.avail32.is_empty() && self.rng.gen_ratio(1, 4) {
            let n = self.avail32.len();
            let s = self.avail32[self.rng.gen_range(0..n)];
            if !self.protected.contains(&s) {
                return s;
            }
        }
        let s = self.b.new_sym(self.word());
        self.avail32.push(s);
        s
    }

    fn operand32(&mut self) -> Operand {
        if self.rng.gen_ratio(3, 10) {
            Operand::Imm(self.imm32())
        } else {
            Operand::sym(self.pick32())
        }
    }

    /// A data immediate: the classic small window, or — under
    /// `wide_imm_pct` — anywhere in the signed 32-bit range. The guard
    /// consumes no randomness when the knob is off, keeping the classic
    /// streams bit-identical.
    fn imm32(&mut self) -> i64 {
        if self.cfg.wide_imm_pct > 0 && self.rng.gen_range(0..100u32) < self.cfg.wide_imm_pct {
            match self.word() {
                Width::B16 => self.rng.gen_range(i16::MIN as i64..=i16::MAX as i64),
                _ => self.rng.gen_range(i32::MIN as i64..=i32::MAX as i64),
            }
        } else {
            self.rng.gen_range(-512..512)
        }
    }

    /// An addressing shape the classic generator never produces. Far
    /// displacements stay inside the 16-bit address space under the
    /// portable word so the narrow targets' addressing is exercised
    /// without wrapping.
    fn exotic_address(&mut self) -> Address {
        let far_hi: i32 = if self.word() == Width::B16 {
            1 << 14
        } else {
            1 << 20
        };
        match self.rng.gen_range(0..4u32) {
            // Absolute: displacement only, no registers at all.
            0 => Address::Indirect {
                base: None,
                index: None,
                disp: self.rng.gen_range(0..4096),
            },
            // Scaled index without a base register.
            1 => {
                let i = self.pick32();
                let scale = match self.rng.gen_range(0..3u32) {
                    0 => Scale::S2,
                    1 => Scale::S4,
                    _ => Scale::S8,
                };
                Address::Indirect {
                    base: None,
                    index: Some((regalloc_ir::Loc::Sym(i), scale)),
                    disp: self.rng.gen_range(-128..128),
                }
            }
            // Base with a displacement far outside the short forms.
            2 => Address::Indirect {
                base: Some(regalloc_ir::Loc::Sym(self.pick32())),
                index: None,
                disp: self.rng.gen_range(4096..far_hi),
            },
            // Base + scaled index with a large negative displacement.
            _ => {
                let b = self.pick32();
                let i = self.pick32();
                Address::Indirect {
                    base: Some(regalloc_ir::Loc::Sym(b)),
                    index: Some((regalloc_ir::Loc::Sym(i), Scale::S4)),
                    disp: -self.rng.gen_range(4096i32..far_hi.min(1 << 16)),
                }
            }
        }
    }

    fn binop(&mut self) -> BinOp {
        match self.rng.gen_range(0..12u32) {
            0..=3 => BinOp::Add,
            4..=5 => BinOp::Sub,
            6 => BinOp::And,
            7 => BinOp::Or,
            8 => BinOp::Xor,
            9 => BinOp::Mul,
            10 => BinOp::Shl,
            _ => BinOp::Shr,
        }
    }

    fn stmt(&mut self) {
        let roll = self.rng.gen_range(0..100u32);
        self.budget -= 1;
        if roll < self.cfg.call_pct {
            // A call with up to three arguments.
            let nargs = self.rng.gen_range(0..=3usize);
            let args = (0..nargs).map(|_| self.operand32()).collect();
            let ret = self.rng.gen_bool(0.8).then(|| {
                let s = self.b.new_sym(self.word());
                self.avail32.push(s);
                s
            });
            self.callee_counter += 1;
            self.b.call(self.callee_counter, ret, args);
            // Occasionally let the callee see a global (aliasing, §5.5
            // condition 3).
            if !self.globals.is_empty() && self.rng.gen_ratio(1, 8) {
                let g = self.globals[self.rng.gen_range(0..self.globals.len())];
                self.b.mark_aliased(g);
            }
        } else if roll < self.cfg.call_pct + self.cfg.mem_pct {
            // Memory traffic: globals or computed addresses.
            let use_global = !self.globals.is_empty() && self.rng.gen_bool(0.5);
            if use_global {
                let g = self.globals[self.rng.gen_range(0..self.globals.len())];
                if self.rng.gen_bool(0.5) {
                    let d = self.dest32();
                    self.b.load_global(d, g);
                } else {
                    let v = self.operand32();
                    self.b.store_global(g, v);
                }
            } else {
                let addr = if !self.cfg.symbolic_addresses {
                    // Absolute only: no pointer ever touches a register.
                    Address::Indirect {
                        base: None,
                        index: None,
                        disp: self.rng.gen_range(0..4096),
                    }
                } else if self.cfg.exotic_addr_pct > 0
                    && self.rng.gen_range(0..100u32) < self.cfg.exotic_addr_pct
                {
                    self.exotic_address()
                } else {
                    let base = self.pick32();
                    let index = self.rng.gen_bool(0.4).then(|| {
                        let i = self.pick32();
                        let scale = match self.rng.gen_range(0..4u32) {
                            0 => Scale::S1,
                            1 => Scale::S2,
                            2 => Scale::S4,
                            _ => Scale::S8,
                        };
                        (regalloc_ir::Loc::Sym(i), scale)
                    });
                    Address::Indirect {
                        base: Some(regalloc_ir::Loc::Sym(base)),
                        index,
                        disp: self.rng.gen_range(-64..256),
                    }
                };
                if self.rng.gen_bool(0.55) {
                    let d = self.dest32();
                    self.b.load(d, addr);
                } else {
                    let v = self.operand32();
                    let w = self.word();
                    self.b.store(addr, v, w);
                }
            }
        } else if roll < self.cfg.call_pct + self.cfg.mem_pct + self.cfg.narrow_pct {
            // Narrow-width arithmetic (engages §5.3 overlap). Under the
            // portable 16-bit word the only narrower width is 8 bits.
            let w = if self.word() == Width::B16 {
                Width::B8
            } else {
                // Classic path: same RNG consumption as ever.
                match self.rng.gen_bool(0.6) {
                    true => Width::B8,
                    false => Width::B16,
                }
            };
            let a = self.pick_narrow(w);
            if self.rng.gen_bool(0.3) {
                let d = self.b.new_sym(w);
                self.b.un(UnOp::Not, d, Operand::sym(a));
                match w {
                    Width::B8 => self.avail8.push(d),
                    _ => self.avail16.push(d),
                }
            } else {
                let b2 = self.pick_narrow(w);
                let d = self.b.new_sym(w);
                let op = match self.rng.gen_range(0..4u32) {
                    0 => BinOp::Add,
                    1 => BinOp::And,
                    2 => BinOp::Xor,
                    _ => BinOp::Or,
                };
                self.b.bin(op, d, Operand::sym(a), Operand::sym(b2));
                match w {
                    Width::B8 => self.avail8.push(d),
                    _ => self.avail16.push(d),
                }
            }
        } else if roll < 95 {
            // 32-bit arithmetic, the bulk.
            let op = self.binop();
            let lhs = if op.is_commutative() {
                self.operand32()
            } else {
                Operand::sym(self.pick32())
            };
            let rhs = if op.is_shift() {
                if self.rng.gen_bool(0.5) {
                    Operand::Imm(self.rng.gen_range(0..self.word().bits() as i64 - 1))
                } else {
                    Operand::sym(self.pick32())
                }
            } else {
                self.operand32()
            };
            let d = self.dest32();
            // `d = x op d` with a non-commutative op is awkward on a
            // two-address machine; regenerate the destination.
            let d = if !op.is_commutative() && rhs == Operand::sym(d) {
                let f = self.b.new_sym(self.word());
                self.avail32.push(f);
                f
            } else {
                d
            };
            self.b.bin(op, d, lhs, rhs);
        } else if roll < 98 {
            let s = self.pick32();
            let d = self.dest32();
            if d != s {
                self.b.copy(d, s);
            } else {
                self.b.load_imm(d, self.rng.gen_range(-100..100));
            }
        } else {
            let s = self.pick32();
            let d = self.dest32();
            if d != s {
                self.b.un(UnOp::Neg, d, Operand::sym(s));
            } else {
                self.b.load_imm(d, 0);
            }
        }
    }

    fn region(&mut self, depth: u32) {
        while self.budget > 0 {
            let roll = self.rng.gen_range(0..100u32);
            if roll < 6 && depth < self.cfg.max_loop_depth {
                self.counted_loop(depth);
            } else if roll < 14 && depth < 4 {
                self.diamond(depth);
            } else {
                self.stmt();
            }
            // Occasionally end the region early to vary block shapes.
            if self.rng.gen_ratio(1, 24) {
                break;
            }
        }
    }

    fn counted_loop(&mut self, depth: u32) {
        let i = self.b.new_sym(self.word());
        self.protected.push(i);
        let trip = self.rng.gen_range(2..=6i64);
        self.b.load_imm(i, 0);
        self.budget -= 3;
        let head = self.b.block();
        let body = self.b.block();
        let exit = self.b.block();
        self.b.jump(head);
        self.b.switch_to(head);
        let w = self.word();
        self.b
            .branch(Cond::Lt, Operand::sym(i), Operand::Imm(trip), w, body, exit);
        self.b.switch_to(body);
        // Values defined inside the body do not dominate the exit: they
        // must not be available afterwards.
        let save32 = self.avail32.clone();
        let save8 = self.avail8.clone();
        let save16 = self.avail16.clone();
        let inner_budget = (self.budget / 2).max(2);
        let saved = self.budget;
        self.budget = inner_budget;
        self.region(depth + 1);
        let used = inner_budget - self.budget;
        self.budget = saved - used;
        self.b.bin(BinOp::Add, i, Operand::sym(i), Operand::Imm(1));
        self.b.jump(head);
        self.b.switch_to(exit);
        self.avail32 = save32;
        self.avail8 = save8;
        self.avail16 = save16;
        self.protected.pop();
        self.avail32.push(i); // the final counter value is usable
    }

    fn diamond(&mut self, depth: u32) {
        let c = self.pick32();
        let cond = match self.rng.gen_range(0..4u32) {
            0 => Cond::Eq,
            1 => Cond::Lt,
            2 => Cond::Ge,
            _ => Cond::Ne,
        };
        let then_b = self.b.block();
        let else_b = self.b.block();
        let join = self.b.block();
        let k = self.rng.gen_range(-8..8);
        let w = self.word();
        self.b
            .branch(cond, Operand::sym(c), Operand::Imm(k), w, then_b, else_b);
        self.budget -= 1;

        // Values defined inside an arm are not available at the join
        // (they would be use-before-def on the other path).
        let save32 = self.avail32.clone();
        let save8 = self.avail8.clone();
        let save16 = self.avail16.clone();
        self.b.switch_to(then_b);
        let arm_budget = (self.budget / 3).max(1);
        let saved = self.budget;
        self.budget = arm_budget;
        self.region(depth + 1);
        let used_then = arm_budget - self.budget;
        self.b.jump(join);

        self.avail32 = save32.clone();
        self.avail8 = save8.clone();
        self.avail16 = save16.clone();
        self.b.switch_to(else_b);
        self.budget = arm_budget;
        if self.rng.gen_bool(0.7) {
            self.region(depth + 1);
        }
        let used_else = arm_budget - self.budget;
        self.b.jump(join);

        self.avail32 = save32;
        self.avail8 = save8;
        self.avail16 = save16;
        self.budget = saved - used_then - used_else;
        self.b.switch_to(join);
    }
}

/// Generate one function.
pub fn generate_function(name: &str, rng: &mut SmallRng, cfg: &GenConfig) -> Function {
    let mut b = FunctionBuilder::new(name);
    let nparams = rng.gen_range(0..=3usize);
    let nglobals = rng.gen_range(0..=2usize);
    let mut globals = Vec::new();
    let mut avail32 = Vec::new();
    for p in 0..nparams {
        let g = b.new_param(&format!("p{p}"), cfg.word_width);
        let s = b.new_sym(cfg.word_width);
        b.load_global(s, g);
        avail32.push(s);
    }
    for gi in 0..nglobals {
        globals.push(b.new_global(&format!("G{gi}"), cfg.word_width, rng.gen_range(-50..50)));
    }
    if avail32.is_empty() {
        let s = b.new_sym(cfg.word_width);
        b.load_imm(s, rng.gen_range(1..64));
        avail32.push(s);
    }
    let mut g = Gen {
        rng,
        b,
        avail32,
        avail8: Vec::new(),
        avail16: Vec::new(),
        protected: Vec::new(),
        globals,
        budget: cfg.target_insts as isize,
        cfg: cfg.clone(),
        callee_counter: 0,
    };
    g.region(0);
    if cfg.make_64bit {
        // One 64-bit value makes the function "not attempted" (Table 2).
        // Under `wide_imm_pct` the value is a genuine 64-bit immediate
        // (the classic suite only ever loads 1 here).
        let imm = if cfg.wide_imm_pct > 0 && g.rng.gen_range(0..100u32) < cfg.wide_imm_pct {
            g.rng.gen_range(i64::MIN..=i64::MAX)
        } else {
            1
        };
        let w = g.b.new_sym(Width::B64);
        g.b.load_imm(w, imm);
    }
    let ret = (!g.rng.gen_ratio(1, 10)).then(|| g.pick32());
    g.b.ret(ret);
    g.b.finish()
}

/// Generate one function deterministically from a bare seed — the public
/// seeded entry point used by the differential fuzzer (`regalloc-fuzz`)
/// and anything else that wants reproducible single functions without
/// managing an RNG. The same `(name, seed, cfg)` triple always yields the
/// same function.
pub fn fuzz_function(name: &str, seed: u64, cfg: &GenConfig) -> Function {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x000f_0220_5eed);
    generate_function(name, &mut rng, cfg)
}

/// Deterministically perturb the *data* immediates of `f`: non-zero
/// `LoadImm` constants and immediate operands of stores, calls and
/// returns are replaced with fresh small values.
///
/// The result has the same instruction/block/symbolic shape as `f` (its
/// [`shape_vector`](regalloc_ir::shape_vector) is identical) but a
/// different body [`fingerprint`](regalloc_ir::fingerprint()) — the
/// workload for exercising cross-function warm starts, where a cached
/// solution must *project* rather than hit. Control flow is untouched:
/// branch comparisons, arithmetic immediates and zero loop-counter
/// initialisers keep their values, so counted loops stay bounded and the
/// perturbed function still terminates under the interpreter.
pub fn perturb_immediates(f: &Function, seed: u64) -> Function {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut fresh = |v: &mut i64| {
        let n = rng.gen_range(1..=100i64);
        *v = if n == *v { (n % 100) + 1 } else { n };
    };
    let mut out = f.clone();
    let blocks: Vec<_> = out.block_ids().collect();
    for bid in blocks {
        for inst in &mut out.block_mut(bid).insts {
            match inst {
                Inst::LoadImm { imm, .. } if *imm != 0 => fresh(imm),
                Inst::Store {
                    src: Operand::Imm(v),
                    ..
                } => fresh(v),
                Inst::Ret {
                    val: Some(Operand::Imm(v)),
                } => fresh(v),
                Inst::Call { args, .. } => {
                    for a in args {
                        if let Operand::Imm(v) = a {
                            fresh(v);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use regalloc_ir::{verify_function, Cfg, ExecStatus, Interp, InterpConfig, SymRegFile};

    #[test]
    fn table2_function_counts() {
        let counts: Vec<_> = Benchmark::all()
            .iter()
            .map(|b| b.function_counts())
            .collect();
        assert_eq!(
            counts,
            vec![(16, 0), (62, 0), (357, 0), (154, 8), (361, 0), (1450, 29)]
        );
        let total: usize = counts.iter().map(|(t, _)| t).sum();
        let attempted: usize = counts.iter().map(|(t, s)| t - s).sum();
        assert_eq!(total, 2400);
        assert_eq!(attempted, 2363);
    }

    #[test]
    fn generated_functions_verify() {
        let mut rng = SmallRng::seed_from_u64(1);
        for i in 0..200 {
            let cfg = GenConfig {
                target_insts: 5 + (i % 60),
                ..Default::default()
            };
            let f = generate_function(&format!("t{i}"), &mut rng, &cfg);
            verify_function(&f).unwrap_or_else(|e| panic!("function {i}: {e:?}\n{f}"));
        }
    }

    #[test]
    fn generated_functions_terminate() {
        let mut rng = SmallRng::seed_from_u64(2);
        for i in 0..100 {
            let cfg = GenConfig {
                target_insts: 10 + (i % 50),
                ..Default::default()
            };
            let f = generate_function(&format!("t{i}"), &mut rng, &cfg);
            let out = Interp::new(&f, SymRegFile, InterpConfig::default(), &[1, 2, 3]).run();
            assert_eq!(
                out.status,
                ExecStatus::Returned,
                "function {i} must terminate (counted loops)\n{f}"
            );
        }
    }

    #[test]
    fn perturbation_changes_bodies_but_not_shapes() {
        use regalloc_ir::{fingerprint, shape_vector};
        let s = Suite::generate_scaled(Benchmark::Xlisp, 42, 0.05);
        let mut changed = 0;
        for (i, f) in s.functions.iter().enumerate() {
            let p = perturb_immediates(f, 7 + i as u64);
            verify_function(&p).unwrap_or_else(|e| panic!("function {i}: {e:?}\n{p}"));
            assert_eq!(shape_vector(&p), shape_vector(f), "shape drifted: {i}");
            if fingerprint(&p) != fingerprint(f) {
                changed += 1;
            }
            // Same seed, same perturbation; different seed, different one.
            assert_eq!(perturb_immediates(f, 7 + i as u64), p);
            let out = Interp::new(&p, SymRegFile, InterpConfig::default(), &[1, 2, 3]).run();
            assert_eq!(out.status, ExecStatus::Returned, "perturbed {i} must halt");
        }
        assert!(
            changed * 2 >= s.functions.len(),
            "too few bodies changed: {changed}/{}",
            s.functions.len()
        );
    }

    #[test]
    fn suites_match_scaled_counts() {
        let s = Suite::generate_scaled(Benchmark::Sc, 7, 0.5);
        assert_eq!(s.functions.len(), 77);
        let n64 = s.functions.iter().filter(|f| f.uses_64bit()).count();
        assert_eq!(n64, 4);
        let full = Suite::generate(Benchmark::Compress, 7);
        assert_eq!(full.functions.len(), 16);
        assert!(full.total_insts() > 16 * 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Suite::generate_scaled(Benchmark::Eqntott, 42, 0.2);
        let b = Suite::generate_scaled(Benchmark::Eqntott, 42, 0.2);
        assert_eq!(a.functions, b.functions);
        let c = Suite::generate_scaled(Benchmark::Eqntott, 43, 0.2);
        assert_ne!(a.functions, c.functions);
    }

    #[test]
    fn functions_have_control_flow_and_loops() {
        let s = Suite::generate_scaled(Benchmark::Cc1, 3, 0.05);
        let mut with_blocks = 0;
        let mut with_loops = 0;
        for f in &s.functions {
            if f.num_blocks() > 1 {
                with_blocks += 1;
            }
            let cfg = Cfg::new(f);
            let loops = regalloc_ir::LoopInfo::new(f, &cfg);
            if loops.max_depth() > 0 {
                with_loops += 1;
            }
        }
        assert!(with_blocks >= s.functions.len() / 3, "CFGs too flat");
        assert!(with_loops >= 2, "loops too rare: {with_loops}");
    }

    #[test]
    fn fuzz_api_is_seeded_and_deterministic() {
        let cfg = GenConfig::fuzz();
        let a = fuzz_function("fz", 7, &cfg);
        let b = fuzz_function("fz", 7, &cfg);
        assert_eq!(a, b);
        let c = fuzz_function("fz", 8, &cfg);
        assert_ne!(a, c);
        verify_function(&a).unwrap();
    }

    #[test]
    fn fuzz_preset_emits_wide_imms_and_exotic_addresses() {
        let cfg = GenConfig::fuzz();
        let (mut wide, mut baseless, mut far_disp) = (0usize, 0usize, 0usize);
        for seed in 0..120u64 {
            let f = fuzz_function(&format!("fz{seed}"), seed, &cfg);
            verify_function(&f).unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{f}"));
            let out = Interp::new(&f, SymRegFile, InterpConfig::default(), &[1, 2, 3]).run();
            assert_eq!(out.status, ExecStatus::Returned, "seed {seed} must halt");
            for (_, _, inst) in f.insts() {
                let imm = match inst {
                    Inst::LoadImm { imm, .. } => Some(*imm),
                    Inst::Bin {
                        rhs: Operand::Imm(v),
                        ..
                    } => Some(*v),
                    _ => None,
                };
                if imm.is_some_and(|v| !(-512..512).contains(&v)) {
                    wide += 1;
                }
                let addr = match inst {
                    Inst::Load { addr, .. } | Inst::Store { addr, .. } => Some(addr),
                    _ => None,
                };
                if let Some(Address::Indirect { base, disp, .. }) = addr {
                    if base.is_none() {
                        baseless += 1;
                    }
                    if *disp >= 4096 || *disp <= -4096 {
                        far_disp += 1;
                    }
                }
            }
        }
        assert!(wide > 0, "wide immediates never appeared");
        assert!(baseless > 0, "base-less addresses never appeared");
        assert!(far_disp > 0, "large displacements never appeared");
    }

    #[test]
    fn classic_streams_are_unaffected_by_new_knobs() {
        // The new knobs only consume randomness when enabled, so a
        // default config must generate exactly what it always did from
        // the same RNG state.
        let mut r1 = SmallRng::seed_from_u64(99);
        let mut r2 = SmallRng::seed_from_u64(99);
        let classic = GenConfig::default();
        let zeroed = GenConfig {
            wide_imm_pct: 0,
            exotic_addr_pct: 0,
            ..GenConfig::default()
        };
        for i in 0..40 {
            let a = generate_function(&format!("s{i}"), &mut r1, &classic);
            let b = generate_function(&format!("s{i}"), &mut r2, &zeroed);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn portable16_preset_fits_narrow_targets() {
        // Every portable function must be made only of widths the MCU's
        // register classes accept (8- and 16-bit), verify, and terminate.
        let cfg = GenConfig::portable16();
        for seed in 0..60u64 {
            let f = fuzz_function(&format!("p{seed}"), seed, &cfg);
            verify_function(&f).unwrap_or_else(|e| panic!("seed {seed}: {e:?}\n{f}"));
            for s in f.sym_ids() {
                assert!(
                    matches!(f.sym_width(s), Width::B8 | Width::B16),
                    "seed {seed}: {s} is {:?}",
                    f.sym_width(s)
                );
            }
            for g in f.globals() {
                assert!(matches!(g.width, Width::B8 | Width::B16), "seed {seed}");
            }
            let out = Interp::new(&f, SymRegFile, InterpConfig::default(), &[1, 2, 3]).run();
            assert_eq!(out.status, ExecStatus::Returned, "seed {seed} must halt");
        }
    }

    #[test]
    fn widths_appear() {
        let s = Suite::generate_scaled(Benchmark::Espresso, 5, 0.2);
        let narrow = s
            .functions
            .iter()
            .flat_map(|f| f.sym_ids().map(move |s| f.sym_width(s)))
            .filter(|w| matches!(w, Width::B8 | Width::B16))
            .count();
        assert!(narrow > 0, "narrow widths should occur");
    }
}
