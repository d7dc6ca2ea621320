//! The lint engine: walks abstract-domain results over a scheduled program
//! and emits [`Finding`]s.
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `F001` | error   | possible overflow: the static magnitude bound times the scale may exceed the level's modulus budget (`m·x_max < Q` unprovable) |
//! | `F002` | warning | dead rescale/modswitch: the result of a level-dropping op is never used |
//! | `F003` | warning | redundant upscale: dead, or immediately re-upscaled (mergeable) |
//! | `F004` | warning | level imbalance: a multiplication's operand scales differ by a whole rescale factor, pinning the smaller operand a level too high |
//! | `F005` | warning | over-provisioned modulus: every live ciphertext keeps ≥ R bits of slack, so the whole schedule provably fits one level lower |
//! | `F006` | warning | over-provisioned keys: rotation keys were requested for steps the schedule never rotates by |
//! | `F007` | warning | serialized critical path: an associative add/mul chain whose balanced reassociation provably cuts the span by ≥ 2× |
//! | `F008` | error   | premature free: the last-use table frees a value a later scheduled op still reads — a static use-after-free |
//! | `F009` | warning | unfusable mul chain: a cipher×cipher product escapes its rescale (extra consumer or intervening op), forfeiting the fused mul·relin·rescale kernel |
//!
//! `F001` is the static form of the fuzz oracle's `schedule_fits_backend`
//! gate: a lint-clean schedule under true input ranges cannot wrap in the
//! encrypted backend. `F005` is a proof, not a heuristic: slack ≥ R on
//! every live cipher value implies dropping every level by one preserves
//! every validator constraint. `F006` only runs when the caller supplies
//! the deployment's requested key set
//! ([`LintOptions::requested_rotation_steps`]); steps are compared modulo
//! the slot count, since steps in the same residue class share one Galois
//! key. `F007` reads the schedule through the dependence-DAG lens
//! (`fhe_ir::depgraph`): a left-leaning spine of `n` single-use associative
//! ops is a depth-`n` critical path that a balanced tree replaces with
//! depth `⌈log₂(n+1)⌉`. `F008` is the static form of a use-after-free: the
//! runtime recycles a ciphertext's buffer at its last *live* use, so a
//! later scheduled reader (necessarily dead code) would observe a recycled
//! buffer if executed. `F009` reads the schedule through the fusion
//! planner's lens (`fhe_ir::fusion`): a mul→rescale pair fuses into one
//! pass over the limbs only when the rescale is the product's sole
//! consumer; every blocked pair materializes a full-level intermediate the
//! fused kernel would have skipped.
//!
//! The machine-readable face of the table above is [`registry`]; the `lint`
//! CLI's `--explain` flag is backed by it, and a test asserts the two stay
//! in sync.
//!
//! These F-codes cover the *sequential* semantics of a schedule. The
//! *concurrent* face of the toolchain — the serve layer's queue/shutdown
//! and single-flight protocols and the DAG walker's runner loop — is
//! checked by the `fhe-conc` interleaving model checker instead, over the
//! models in `tests/conc_models.rs`; a failing model writes its numbered
//! counterexample schedule to `FHE_CONC_TRACE_DIR`. See the `fhe_conc`
//! crate docs and `DESIGN.md` §13 for that side of the story.

use fhe_ir::diag::{Finding, Severity};
use fhe_ir::semantics::rotation_class;
use fhe_ir::{analysis, Op, ScaleMap, ScheduleError, ScheduledProgram};

use crate::domain::{analyze, AnalysisCx};
use crate::interval::IntervalDomain;

/// One registry entry: everything the `lint` CLI needs to list and explain
/// a lint code.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// The lint code (`"F001"` … `"F009"`).
    pub code: &'static str,
    /// The severity the lint fires at.
    pub severity: Severity,
    /// One-line summary — kept in sync with the doc table at the top of
    /// this file (asserted by a test).
    pub summary: &'static str,
    /// Longer `--explain` text: what the lint proves, why it matters, and
    /// how to fix a finding.
    pub explanation: &'static str,
}

/// The lint registry, in code order. The doc table at the top of this file
/// is the human-readable face of this slice; a test asserts they agree.
pub fn registry() -> &'static [LintInfo] {
    &[
        LintInfo {
            code: "F001",
            severity: Severity::Error,
            summary: "possible overflow: the static magnitude bound times the scale may exceed \
                      the level's modulus budget (`m·x_max < Q` unprovable)",
            explanation: "The RNS-CKKS soundness hypothesis is m·x_max < Q: the slot magnitude \
                          times the encoding scale must fit the coefficient modulus. The \
                          interval analysis bounds every op's slot magnitude from the declared \
                          input ranges; F001 fires where bound·2^scale exceeds the level's \
                          modulus budget (minus one bit of margin), i.e. where encrypted \
                          evaluation may silently wrap. Fix: raise the level, lower the scale, \
                          rescale earlier, or tighten the declared input ranges.",
        },
        LintInfo {
            code: "F002",
            severity: Severity::Warning,
            summary: "dead rescale/modswitch: the result of a level-dropping op is never used",
            explanation: "A rescale or modswitch whose result has no users burns a level-N NTT \
                          pass (Table 3's most expensive rows after keyed ops) for nothing. \
                          These typically survive from a scale-management plan that was later \
                          rewritten. Fix: delete the op, or re-point consumers at its result.",
        },
        LintInfo {
            code: "F003",
            severity: Severity::Warning,
            summary: "redundant upscale: dead, or immediately re-upscaled (mergeable)",
            explanation: "An upscale multiplies by an encoded identity, so a dead upscale is a \
                          wasted cipher×plain multiply, and an upscale consumed only by another \
                          upscale is two multiplies where one (with the summed scale delta) \
                          suffices. Fix: delete or merge the upscales.",
        },
        LintInfo {
            code: "F004",
            severity: Severity::Warning,
            summary: "level imbalance: a multiplication's operand scales differ by a whole \
                      rescale factor, pinning the smaller operand a level too high",
            explanation: "The level-match rule forces both multiplication operands to the same \
                          level. When their scales differ by ≥ R bits, the smaller-scale \
                          operand is held a whole level above what its own scale needs, which \
                          inflates every op on its def-use chain (cost grows with level). Fix: \
                          rescale the larger operand before the multiply, or rebalance the \
                          producing expressions.",
        },
        LintInfo {
            code: "F005",
            severity: Severity::Warning,
            summary: "over-provisioned modulus: every live ciphertext keeps ≥ R bits of slack, \
                      so the whole schedule provably fits one level lower",
            explanation: "If every live ciphertext keeps at least one whole rescale factor of \
                          slack between its scale and its level's modulus budget, shifting all \
                          levels down by one preserves every validator constraint — a proof, \
                          not a heuristic. One level less means smaller keys, cheaper ops, and \
                          a smaller working set. Fix: compile with max_level − 1 or drop the \
                          fresh-encryption level by one.",
        },
        LintInfo {
            code: "F006",
            severity: Severity::Warning,
            summary: "over-provisioned keys: rotation keys were requested for steps the \
                      schedule never rotates by",
            explanation: "Each requested rotation step costs a full Galois key of key-switch \
                          material (⌈L/α⌉·(L+α) limbs), the dominant per-step memory term. F006 \
                          compares the requested step set against the schedule's rotations \
                          modulo the slot count (a residue class shares one key; class 0 is \
                          the identity and needs none) and warns on surplus keys. Fix: prune \
                          the requested key set to the steps actually used.",
        },
        LintInfo {
            code: "F007",
            severity: Severity::Warning,
            summary: "serialized critical path: an associative add/mul chain whose balanced \
                      reassociation provably cuts the span by ≥ 2×",
            explanation: "A left-leaning spine of n single-use cipher adds (or muls) is a \
                          depth-n critical path: no DAG-parallel runtime can finish it in \
                          fewer than n dependent steps. Reassociating the same combine into a \
                          balanced tree has depth ⌈log₂(n+1)⌉ over the identical leaves, so \
                          when n ≥ 2·⌈log₂(n+1)⌉ the rewrite provably at least halves the \
                          chain's span without changing the result (the work is unchanged). \
                          Fix: rewrite the reduction as a balanced tree, e.g. \
                          ((t₀+t₁)+(t₂+t₃))+… instead of (((t₀+t₁)+t₂)+t₃)+… .",
        },
        LintInfo {
            code: "F008",
            severity: Severity::Error,
            summary: "premature free: the last-use table frees a value a later scheduled op \
                      still reads — a static use-after-free",
            explanation: "The runtime recycles a ciphertext's buffer into the pool at its \
                          last *live* use (the discipline the static memory model and the \
                          dependence DAG encode). A schedule in which a later op still reads \
                          that value — necessarily dead code, since a live reader would have \
                          moved the free point — would observe a recycled buffer if executed: \
                          a use-after-free caught statically instead of at runtime. Fix: \
                          delete the dead reader, or add its result to the outputs so \
                          liveness keeps the operand alive.",
        },
        LintInfo {
            code: "F009",
            severity: Severity::Warning,
            summary: "unfusable mul chain: a cipher×cipher product escapes its rescale (extra \
                      consumer or intervening op), forfeiting the fused mul·relin·rescale \
                      kernel",
            explanation: "The parallel runtime executes a cipher×cipher multiply whose rescale \
                          is the product's *sole* consumer as one fused mul·relin·rescale pass \
                          over the limbs, never materializing the full-level relinearized \
                          intermediate. A product that is also read by another op (or is \
                          itself a program output), or whose rescale applies only after an \
                          intervening unary op, blocks the fusion: the intermediate must be \
                          materialized and the rescale runs as a separate level-N pass. Fix: \
                          re-point the extra consumers at the rescaled value (dividing their \
                          plaintext operands by the rescale factor if scales must match), or \
                          move the intervening op below the rescale — neg, modswitch and \
                          upscale all commute with it.",
        },
    ]
}

/// Looks up a lint code (`"F001"` … `"F009"`) in the [`registry`].
pub fn explain(code: &str) -> Option<&'static LintInfo> {
    registry().iter().find(|info| info.code == code)
}

/// Knobs for the lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Input ranges assumed by the magnitude analysis (default `[-1, 1]`
    /// for every input).
    pub intervals: IntervalDomain,
    /// Rotation steps the deployment provisions Galois keys for. When set,
    /// `F006` warns if the schedule's rotation steps are a strict subset —
    /// the surplus keys are pure key-switch-material waste. `None` (the
    /// default) disables the check.
    pub requested_rotation_steps: Option<Vec<i64>>,
}

/// Lints a scheduled program; returns all findings (empty = clean).
///
/// # Errors
///
/// Returns the validator's errors when the schedule is illegal — linting
/// presupposes a well-typed schedule.
pub fn lint_scheduled(
    scheduled: &ScheduledProgram,
    options: &LintOptions,
) -> Result<Vec<Finding>, Vec<ScheduleError>> {
    Ok(lint_validated(scheduled, &scheduled.validate()?, options))
}

/// [`lint_scheduled`] over a schedule whose validation `map` the caller
/// holds.
pub fn lint_validated(
    scheduled: &ScheduledProgram,
    map: &ScaleMap,
    options: &LintOptions,
) -> Vec<Finding> {
    let program = &scheduled.program;
    let cx = AnalysisCx::scheduled(program, map);
    let intervals = analyze(&options.intervals, &cx);
    let live = analysis::live(program);
    let readers = analysis::readers(program, &live);
    // Every op reading an upscale, live or not, for F003.
    let mut upscale_reads = Vec::new();
    for id in program.ids() {
        for a in program.op(id).operands() {
            if matches!(program.op(a), Op::Upscale(..)) {
                upscale_reads.push((a.index(), id));
            }
        }
    }
    let users = analysis::Lists::group(program.num_ops(), &upscale_reads);
    let rescale = f64::from(scheduled.params.rescale_bits);

    let mut findings = Vec::new();
    let mut min_slack: Option<(fhe_ir::ValueId, f64)> = None;

    for id in program.ids() {
        let is_live = live[id.index()];

        // F002 / F003(dead): scale management whose result is never used.
        if !is_live {
            match program.op(id) {
                Op::Rescale(_) | Op::ModSwitch(_) => {
                    findings.push(
                        Finding::new(
                            "F002",
                            Severity::Warning,
                            format!(
                                "dead {}: the result of {id} is never used",
                                program.op(id).mnemonic()
                            ),
                        )
                        .at(id),
                    );
                }
                Op::Upscale(..) => {
                    findings.push(
                        Finding::new(
                            "F003",
                            Severity::Warning,
                            format!("redundant upscale: the result of {id} is never used"),
                        )
                        .at(id),
                    );
                }
                _ => {}
            }
            continue;
        }

        // F003 (mergeable): an upscale consumed only by another upscale.
        if let Op::Upscale(..) = program.op(id) {
            let us = users.get(id.index());
            if !us.is_empty()
                && !program.outputs().contains(&id)
                && us.iter().all(|&u| matches!(program.op(u), Op::Upscale(..)))
            {
                findings.push(
                    Finding::new(
                        "F003",
                        Severity::Warning,
                        format!(
                            "redundant upscale: {id} is only consumed by another upscale \
                             ({}); merge the two",
                            us.iter()
                                .map(|u| u.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                    .at(id),
                );
            }
        }

        if !program.is_cipher(id) {
            continue;
        }
        let scale = map.scale_bits(id).to_f64();
        let level = map.level(id);
        let budget = f64::from(level) * rescale;

        // F001: the soundness hypothesis m·x_max < Q. One bit of margin
        // covers the `< Q/2` half-range plus chain primes sitting
        // fractionally below 2^rescale (same margin as the fuzz oracle's
        // backend-fit gate).
        let magnitude = intervals[id.index()].magnitude();
        if magnitude > 0.0 && (!magnitude.is_finite() || magnitude.log2() + scale > budget - 1.0) {
            findings.push(
                Finding::new(
                    "F001",
                    Severity::Error,
                    format!(
                        "possible overflow at {id} ({}): slot magnitude may reach {magnitude:.3e}, \
                         and {magnitude:.3e}·2^{scale:.0} exceeds the level-{level} modulus \
                         budget 2^{:.0}",
                        program.op(id).mnemonic(),
                        budget - 1.0
                    ),
                )
                .at(id),
            );
        }

        // F004: a multiplication whose operand scales differ by ≥ R pins
        // the lower-scale operand a whole level above what its own scale
        // needs (the level-match rule forces it up).
        if let Op::Mul(a, b) = program.op(id) {
            if program.is_cipher(*a) && program.is_cipher(*b) {
                let (sa, sb) = (map.scale_bits(*a).to_f64(), map.scale_bits(*b).to_f64());
                if (sa - sb).abs() >= rescale {
                    let poor = if sa < sb { *a } else { *b };
                    findings.push(
                        Finding::new(
                            "F004",
                            Severity::Warning,
                            format!(
                                "level imbalance at {id}: operand scales 2^{sa:.0} vs 2^{sb:.0} \
                                 differ by a full rescale factor; {poor} is held a level higher \
                                 than its scale needs"
                            ),
                        )
                        .at(id),
                    );
                }
            }
        }

        // Track the tightest slack for F005.
        let slack = budget - scale;
        if min_slack.is_none_or(|(_, s)| slack < s) {
            min_slack = Some((id, slack));
        }
    }

    // F005: if every live ciphertext keeps at least one whole limb of
    // slack, shifting all levels down by one preserves every constraint
    // (scale ≤ (l−1)·R follows from slack ≥ R; rescale/modswitch operands
    // stay ≥ level 2 because their results' slack pins them ≥ 3).
    if let Some((id, slack)) = min_slack {
        if slack >= rescale {
            findings.push(
                Finding::new(
                    "F005",
                    Severity::Warning,
                    format!(
                        "over-provisioned modulus: every live ciphertext keeps ≥ {rescale:.0} \
                         bits of slack (minimum {slack:.0} bits at {id}); the schedule fits \
                         one level lower"
                    ),
                )
                .at(id),
            );
        }
    }

    // F006: requested rotation-key steps the schedule never uses. A Galois
    // key is the dominant per-step memory term (⌈L/α⌉·(L+α) limbs of
    // key-switch material), so provisioning keys for steps the schedule
    // cannot rotate by is pure working-set waste. Steps are compared by
    // `rotation_class`: a class shares one key, and the identity needs no
    // key at all.
    if let Some(requested) = &options.requested_rotation_steps {
        let class = |k: i64| rotation_class(k, program.slots());
        let mut used = std::collections::BTreeSet::new();
        let mut anchor = None;
        for id in program.ids() {
            if let Op::Rotate(_, k) = program.op(id) {
                if live[id.index()] && program.is_cipher(id) {
                    if let Some(c) = class(*k) {
                        used.insert(c);
                        anchor.get_or_insert(id);
                    }
                }
            }
        }
        let requested_classes: std::collections::BTreeSet<i64> =
            requested.iter().filter_map(|&k| class(k)).collect();
        let unused: Vec<i64> = requested
            .iter()
            .copied()
            .filter(|&k| class(k).is_some_and(|c| !used.contains(&c)))
            .collect();
        if !unused.is_empty() && used.is_subset(&requested_classes) {
            let list = |steps: &mut dyn Iterator<Item = i64>| {
                steps.map(|k| k.to_string()).collect::<Vec<_>>().join(", ")
            };
            let detail = if used.is_empty() {
                "the schedule performs no rotations".to_string()
            } else {
                format!(
                    "the schedule only rotates by steps {{{}}}",
                    list(&mut used.iter().copied())
                )
            };
            let mut f = Finding::new(
                "F006",
                Severity::Warning,
                format!(
                    "over-provisioned keys: rotation steps {{{}}} have keys requested but \
                     are never used ({detail}); each unused step costs a full Galois key \
                     of key-switch material",
                    list(&mut unused.iter().copied())
                ),
            );
            if let Some(id) = anchor {
                f = f.at(id);
            }
            findings.push(f);
        }
    }

    // F007: serialized associative chains. A spine op extends a chain when
    // one operand is a live, single-use, non-output cipher op of the same
    // associative kind — exactly the shape a balanced-tree reassociation
    // can rewrite without changing the result or the work.
    {
        let n = program.num_ops();
        let mut live_uses = vec![0usize; n];
        for id in program.ids() {
            if live[id.index()] {
                for a in program.op(id).operands() {
                    live_uses[a.index()] += 1;
                }
            }
        }
        let chain_kind = |id: fhe_ir::ValueId| -> Option<u8> {
            if !live[id.index()] || !program.is_cipher(id) {
                return None;
            }
            match program.op(id) {
                Op::Add(..) => Some(0),
                Op::Mul(..) => Some(1),
                _ => None,
            }
        };
        let (mut chain, mut consumed) = (vec![0usize; n], vec![false; n]);
        for id in program.ids() {
            let Some(kind) = chain_kind(id) else { continue };
            let mut best: Option<fhe_ir::ValueId> = None;
            for a in program.op(id).operands() {
                if chain_kind(a) == Some(kind)
                    && live_uses[a.index()] == 1
                    && !program.outputs().contains(&a)
                    && chain[a.index()] > best.map_or(0, |b| chain[b.index()])
                {
                    best = Some(a);
                }
            }
            chain[id.index()] = 1 + best.map_or(0, |b| chain[b.index()]);
            if let Some(b) = best {
                consumed[b.index()] = true;
            }
        }
        for id in program.ids() {
            let len = chain[id.index()];
            if consumed[id.index()] || len < 2 {
                continue;
            }
            // len ops combine len + 1 leaves; a balanced tree over the same
            // leaves has depth ⌈log₂(len + 1)⌉.
            let leaves = len + 1;
            let depth = (usize::BITS - (leaves - 1).leading_zeros()) as usize;
            if len >= 2 * depth {
                let op_name = match program.op(id) {
                    Op::Mul(..) => "mul",
                    _ => "add",
                };
                findings.push(
                    Finding::new(
                        "F007",
                        Severity::Warning,
                        format!(
                            "serialized critical path: {len} chained cipher {op_name}s end at \
                             {id}, a depth-{len} spine; a balanced reassociation tree over the \
                             same {leaves} leaves has depth {depth}, cutting this chain's span \
                             {:.1}× — rewrite as ((t0 {s} t1) {s} (t2 {s} t3)) {s} …",
                            len as f64 / depth as f64,
                            s = if op_name == "mul" { "*" } else { "+" },
                        ),
                    )
                    .at(id),
                );
            }
        }
    }

    // F008: premature free. The runtime returns a ciphertext's buffer to
    // the pool at its last live use (`analysis::free_points`, the rule the
    // dependence graph and the memory model share); a later scheduled
    // reader (necessarily dead code — a live reader would be the last use)
    // would read a recycled buffer if executed. Outputs are pinned and
    // never freed; any other value is freed by its last live reader.
    {
        let freed_at = |a: fhe_ir::ValueId| {
            (!program.outputs().contains(&a))
                .then(|| readers.get(a.index()).last().copied())
                .flatten()
        };
        for id in program.ids() {
            if live[id.index()] {
                continue;
            }
            let mut prev = None;
            for a in program.op(id).operands() {
                if prev == Some(a) || !program.is_cipher(a) {
                    continue;
                }
                prev = Some(a);
                if let Some(f) = freed_at(a) {
                    if id.index() > f.index() {
                        findings.push(
                            Finding::new(
                                "F008",
                                Severity::Error,
                                format!(
                                    "premature free: {id} reads {a}, but the last-use table \
                                     frees {a} at {f}; executing {id} would read a recycled \
                                     buffer (static use-after-free) — delete the dead op or \
                                     keep {a} live by making {id} reachable from an output"
                                ),
                            )
                            .at(id),
                        );
                    }
                }
            }
        }
    }

    // F009: mul→rescale pairs the fusion planner had to reject. Each
    // blocked pair materializes the full-level relinearized product the
    // fused mul·relin·rescale kernel would have skipped, plus a separate
    // level-N rescale pass.
    for b in fhe_ir::fusion::FusionPlan::plan_read(program, &live, &readers).blocked() {
        let message = match &b.blocker {
            fhe_ir::Blocker::ExtraConsumers { others, is_output } => {
                let mut pins = others
                    .iter()
                    .map(|o| o.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                if *is_output {
                    if !pins.is_empty() {
                        pins.push_str(" and ");
                    }
                    pins.push_str("the program outputs");
                }
                format!(
                    "unfusable mul chain: the product {} is rescaled at {} but also read by \
                     {pins}, so the full-level intermediate must be materialized instead of \
                     executing the fused mul·relin·rescale kernel — re-point the extra \
                     consumers at the rescaled value",
                    b.mul, b.rescale
                )
            }
            fhe_ir::Blocker::Intervening { via } => format!(
                "unfusable mul chain: {via} ({}) sits between the product {} and its rescale \
                 {}, blocking the fused mul·relin·rescale kernel — rescale the product \
                 directly and apply {via} afterwards (it commutes with the rescale)",
                scheduled.program.op(*via).mnemonic(),
                b.mul,
                b.rescale
            ),
        };
        findings.push(Finding::new("F009", Severity::Warning, message).at(b.mul));
    }

    findings.sort_by_key(|f| (f.op, std::cmp::Reverse(f.severity)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ir::{CompileParams, Frac, InputSpec, Program, ValueId};

    fn spec(scale: u32, level: u32) -> InputSpec {
        InputSpec {
            scale_bits: Frac::from(scale),
            level,
        }
    }

    fn lint(s: &ScheduledProgram) -> Vec<Finding> {
        lint_scheduled(s, &LintOptions::default()).expect("valid schedule")
    }

    fn codes(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    #[test]
    fn clean_single_input_is_finding_free() {
        let mut p = Program::new("ok", 4);
        let x = p.push(Op::Input { name: "x".into() });
        p.set_outputs(vec![x]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1)],
        };
        assert!(lint(&s).is_empty());
    }

    #[test]
    fn dead_rescale_fires_f002() {
        let mut p = Program::new("dead", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let _dead = p.push(Op::Rescale(x));
        p.set_outputs(vec![x]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(95, 2)],
        };
        let f = lint(&s);
        assert_eq!(codes(&f), vec!["F002"]);
        assert_eq!(f[0].op, Some(ValueId(1)));
    }

    #[test]
    fn stacked_upscales_fire_f003() {
        let mut p = Program::new("up", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let u1 = p.push(Op::Upscale(x, Frac::from(5)));
        let u2 = p.push(Op::Upscale(u1, Frac::from(5)));
        p.set_outputs(vec![u2]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1)],
        };
        let f = lint(&s);
        assert_eq!(codes(&f), vec!["F003"]);
        assert_eq!(f[0].op, Some(ValueId(1)));
    }

    #[test]
    fn overflow_risk_fires_f001() {
        // x·100 at scale 55, level 1: 100·2^55 > 2^59.
        let mut p = Program::new("ovf", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let c = p.push(Op::Const {
            value: 100.0.into(),
        });
        let m = p.push(Op::Mul(x, c));
        p.set_outputs(vec![m]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(20),
            inputs: vec![spec(35, 1)],
        };
        let f = lint(&s);
        assert_eq!(codes(&f), vec!["F001"]);
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f[0].op, Some(ValueId(2)));
    }

    #[test]
    fn scale_imbalanced_mul_fires_f004() {
        // x at 100 bits, y at 35 bits, both level 2: diff 65 ≥ R = 60.
        let mut p = Program::new("imb", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let m = p.push(Op::Mul(x, y));
        p.set_outputs(vec![m]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(100, 3), spec(35, 3)],
        };
        let f = lint(&s);
        assert!(codes(&f).contains(&"F004"), "{f:?}");
    }

    #[test]
    fn uniform_slack_fires_f005() {
        // A single input at scale 35, level 2: slack 85 ≥ 60 everywhere.
        let mut p = Program::new("slack", 4);
        let x = p.push(Op::Input { name: "x".into() });
        p.set_outputs(vec![x]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 2)],
        };
        let f = lint(&s);
        assert_eq!(codes(&f), vec!["F005"]);
    }

    #[test]
    fn unused_requested_keys_fire_f006() {
        let mut p = Program::new("keys", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let r = p.push(Op::Rotate(x, 1));
        p.set_outputs(vec![r]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1)],
        };
        let opts = LintOptions {
            requested_rotation_steps: Some(vec![1, 2, 4]),
            ..LintOptions::default()
        };
        let f = lint_scheduled(&s, &opts).expect("valid schedule");
        assert_eq!(codes(&f), vec!["F006"]);
        assert_eq!(f[0].op, Some(r), "anchored at the first live rotate");
        assert!(f[0].message.contains("{2, 4}"), "{}", f[0].message);
    }

    #[test]
    fn f006_respects_step_residue_classes_and_stays_inert() {
        let mut p = Program::new("keys", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let r = p.push(Op::Rotate(x, 1));
        p.set_outputs(vec![r]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1)],
        };
        // No requested set: the check never runs.
        assert!(lint(&s).is_empty());
        // 9 ≡ 1 and −7 ≡ 1 (mod 8): same Galois key, so nothing is unused.
        let opts = LintOptions {
            requested_rotation_steps: Some(vec![1, 9, -7]),
            ..LintOptions::default()
        };
        assert!(lint_scheduled(&s, &opts).expect("valid").is_empty());
        // Identity steps (0 mod slots) need no key and are never "unused".
        let opts = LintOptions {
            requested_rotation_steps: Some(vec![1, 0, 8]),
            ..LintOptions::default()
        };
        assert!(lint_scheduled(&s, &opts).expect("valid").is_empty());
        // A schedule rotating outside the requested set is a missing-key
        // problem for the runtime, not over-provisioning: stay quiet.
        let opts = LintOptions {
            requested_rotation_steps: Some(vec![2]),
            ..LintOptions::default()
        };
        assert!(lint_scheduled(&s, &opts).expect("valid").is_empty());
    }

    #[test]
    fn serialized_reduction_fires_f007_with_rewrite_hint() {
        // acc = ((((((x+x1)+x2)+x3)+x4)+x5)+x6): a 6-op spine; a balanced
        // tree over the 7 leaves has depth 3 → 2× span cut.
        let mut p = Program::new("serial", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let mut acc = x;
        let mut head = x;
        for i in 0..6 {
            let xi = p.push(Op::Input {
                name: format!("x{i}"),
            });
            head = p.push(Op::Add(acc, xi));
            acc = head;
        }
        p.set_outputs(vec![head]);
        let inputs = vec![spec(35, 1); 7];
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs,
        };
        let f = lint(&s);
        assert_eq!(codes(&f), vec!["F007"]);
        assert_eq!(f[0].op, Some(head));
        assert!(
            f[0].message.contains("balanced reassociation"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("2.0×"), "{}", f[0].message);
    }

    #[test]
    fn balanced_and_short_reductions_stay_quiet() {
        // Balanced 8-leaf tree: longest same-kind spine is 3 < 2·depth.
        let mut p = Program::new("tree", 8);
        let leaves: Vec<_> = (0..8)
            .map(|i| {
                p.push(Op::Input {
                    name: format!("x{i}"),
                })
            })
            .collect();
        let mut layer = leaves;
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| p.push(Op::Add(pair[0], pair[1])))
                .collect();
        }
        let root = layer[0];
        p.set_outputs(vec![root]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1); 8],
        };
        assert!(lint(&s).is_empty(), "{:?}", lint(&s));

        // A 5-op spine cuts span only 5/3 < 2×: stays quiet.
        let mut p = Program::new("short", 8);
        let x = p.push(Op::Input { name: "x".into() });
        let mut acc = x;
        for i in 0..5 {
            let xi = p.push(Op::Input {
                name: format!("x{i}"),
            });
            acc = p.push(Op::Add(acc, xi));
        }
        p.set_outputs(vec![acc]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1); 6],
        };
        assert!(lint(&s).is_empty(), "{:?}", lint(&s));
    }

    #[test]
    fn premature_free_fires_f008() {
        // a = x + y is x's and y's last live use; the dead sub scheduled
        // after it reads both after their free points.
        let mut p = Program::new("uaf", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let a = p.push(Op::Add(x, y));
        let dead = p.push(Op::Sub(x, y));
        p.set_outputs(vec![a]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1), spec(35, 1)],
        };
        let f = lint(&s);
        assert_eq!(codes(&f), vec!["F008", "F008"]);
        assert!(f.iter().all(|f| f.severity == Severity::Error));
        assert_eq!(f[0].op, Some(dead));
        assert!(f[0].message.contains("use-after-free"), "{}", f[0].message);
    }

    #[test]
    fn f008_spares_pinned_outputs_and_reads_before_the_free() {
        // x is an output: pinned, never freed, so the dead reader is safe.
        let mut p = Program::new("pinned", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let a = p.push(Op::Add(x, y));
        let _dead = p.push(Op::Neg(x));
        p.set_outputs(vec![a, x]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1), spec(35, 1)],
        };
        assert!(lint(&s).is_empty(), "{:?}", lint(&s));

        // The dead reader runs before y's last live use: no hazard.
        let mut p = Program::new("before", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let _dead = p.push(Op::Neg(y));
        let a = p.push(Op::Add(x, y));
        p.set_outputs(vec![a, x]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(35, 1), spec(35, 1)],
        };
        assert!(lint(&s).is_empty(), "{:?}", lint(&s));
    }

    #[test]
    fn escaping_product_fires_f009() {
        // The product %2 is rescaled at %3 but also read by %4: the
        // fusion planner must reject the pair and the lint must say why.
        let mut p = Program::new("escape", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let y = p.push(Op::Input { name: "y".into() });
        let m = p.push(Op::Mul(x, y));
        let r = p.push(Op::Rescale(m));
        let extra = p.push(Op::Add(m, m));
        p.set_outputs(vec![r, extra]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(50, 2), spec(50, 2)],
        };
        let f = lint(&s);
        assert_eq!(codes(&f), vec!["F009"]);
        assert_eq!(f[0].op, Some(m));
        assert!(
            f[0].message.contains(&extra.to_string()),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn intervening_op_fires_f009_and_fusable_pairs_stay_quiet() {
        // mul → neg → rescale: the rescale exists but an op intervenes.
        let mut p = Program::new("between", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let m = p.push(Op::Mul(x, x));
        let n = p.push(Op::Neg(m));
        let r = p.push(Op::Rescale(n));
        p.set_outputs(vec![r]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(50, 2)],
        };
        let f = lint(&s);
        assert_eq!(codes(&f), vec!["F009"]);
        assert_eq!(f[0].op, Some(m));
        assert!(f[0].message.contains("neg"), "{}", f[0].message);

        // The canonical fusable shape — the rescale is the product's sole
        // consumer — must not warn.
        let mut p = Program::new("fused", 4);
        let x = p.push(Op::Input { name: "x".into() });
        let m = p.push(Op::Mul(x, x));
        let r = p.push(Op::Rescale(m));
        p.set_outputs(vec![r]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(50, 2)],
        };
        assert!(lint(&s).is_empty(), "{:?}", lint(&s));
    }

    #[test]
    fn registry_matches_the_doc_table() {
        // The doc table at the top of this file is the human-readable face
        // of `registry()`: same codes, same severities, same summaries.
        let source = include_str!("lint.rs");
        let mut table = Vec::new();
        for line in source.lines() {
            let line = line.trim_start();
            let Some(rest) = line.strip_prefix("//! | `F") else {
                continue;
            };
            let mut cells = rest.split('|').map(str::trim);
            let code = format!("F{}", cells.next().unwrap().trim_end_matches('`').trim());
            let severity = cells.next().unwrap().to_string();
            let meaning = cells.next().unwrap().to_string();
            table.push((code, severity, meaning));
        }
        let registry = super::registry();
        assert_eq!(
            table.len(),
            registry.len(),
            "doc table rows vs registry entries"
        );
        for ((code, severity, meaning), info) in table.iter().zip(registry) {
            assert_eq!(code, info.code);
            assert_eq!(severity, info.severity.label(), "{code} severity");
            let collapse = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
            assert_eq!(collapse(meaning), collapse(info.summary), "{code} summary");
        }
        assert!(super::explain("F007").is_some());
        assert!(super::explain("F999").is_none());
    }

    #[test]
    fn invalid_schedule_is_an_error_not_findings() {
        let mut p = Program::new("bad", 4);
        let x = p.push(Op::Input { name: "x".into() });
        p.set_outputs(vec![x]);
        let s = ScheduledProgram {
            program: p,
            params: CompileParams::new(35),
            inputs: vec![spec(10, 1)], // below waterline
        };
        assert!(lint_scheduled(&s, &LintOptions::default()).is_err());
    }
}
