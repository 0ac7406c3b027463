"""What the traced run wraps, and the per-layer metrics it reports.

Each metric names the end-to-end metric it should move and on which
workload; BASELINE.md holds the same map with the first measured values.
Counts come from call arguments (for example 2^dim words per
``LinearCode.codewords`` call), never from iterating a generator.
"""

from __future__ import annotations

from tracer import Target


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _codewords(counts, args, kwargs):
    counts["gf2.codewords.words"] += 1 << args[0].dim


def _cosets(counts, args, kwargs):
    c1, c2 = _arg(args, kwargs, 0, "c1"), _arg(args, kwargs, 1, "c2")
    counts["gf2.cosets.reps"] += 1 << max(c1.dim - c2.dim, 0)


def _apply_hash(counts, args, kwargs):
    counts["hashfam.apply_hash.bits"] += _arg(args, kwargs, 0, "h").n


def _from_hash_family(counts, args, kwargs):
    counts["universality.from_hash_family.members"] += _arg(args, kwargs, 1, "hf").index_space


def _epsilon_universal(counts, args, kwargs):
    codes = _arg(args, kwargs, 0, "family").codes
    counts["universality.members"] += len(codes)
    counts["universality.distinct_members"] += len(set(codes))


def _exact_error_prob(counts, args, kwargs):
    code = _arg(args, kwargs, 0, "code")
    n = code.n if hasattr(code, "n") else code[0].n
    counts["simulator.exact_error_prob.patterns"] += 1 << n


# acceptance.criterion_k and the CLI verbs get spans from the workloads;
# criteria are wrapped here because run_criteria calls them.
TARGETS = [
    Target(f"dualhash.acceptance:criterion_{k}", f"acceptance.criterion_{k}")
    for k in range(1, 10)
] + [
    Target("dualhash.gf2:rref", "gf2.rref"),
    Target("dualhash.gf2:kernel", "gf2.kernel"),
    Target("dualhash.gf2:dual", "gf2.dual"),
    Target("dualhash.gf2:rank", "gf2.rank"),
    Target("dualhash.gf2:LinearCode.codewords", "gf2.codewords", span=False,
           count=_codewords),
    Target("dualhash.gf2:cosets", "gf2.cosets", count=_cosets),
    Target("dualhash.gf2:BinaryMatrix.mul_vector", "gf2.mul_vector"),
    Target("dualhash.hashfam:HashFamily.__getitem__", "hashfam.member"),
    Target("dualhash.hashfam:toeplitz_matrix", "hashfam.toeplitz_matrix"),
    Target("dualhash.hashfam:apply_hash", "hashfam.apply_hash", count=_apply_hash),
    Target("dualhash.hashfam:kernel_code", "hashfam.kernel_code"),
    Target("dualhash.universality:CodeFamily.from_hash_family",
           "universality.from_hash_family", count=_from_hash_family),
    Target("dualhash.universality:epsilon_universal", "universality.epsilon_universal",
           count=_epsilon_universal),
    Target("dualhash.universality:epsilon_dual_universal",
           "universality.epsilon_dual_universal"),
    Target("dualhash.universality:tight_family", "universality.tight_family"),
    Target("dualhash.universality:counterexample_family",
           "universality.counterexample_family"),
    Target("dualhash.universality:random_code", "universality.random_code"),
    Target("dualhash.universality:search_permuted_code",
           "universality.search_permuted_code"),
    Target("dualhash.bounds:reliability_e", "bounds.reliability_e"),
    Target("dualhash.bounds:gallager_family_bound", "bounds.gallager_family_bound"),
    Target("dualhash.bounds:maximize_scalar", "bounds.maximize_scalar"),
    Target("dualhash.bounds:qkd_bounds", "bounds.qkd_bounds"),
    Target("dualhash.cqstate:h2_d2_hmin", "cqstate.h2_d2_hmin"),
    Target("dualhash.cqstate:verify_pa", "cqstate.verify_pa"),
    Target("dualhash.cqstate:hash_marginal", "cqstate.hash_marginal"),
    Target("dualhash.cqstate:pauli_wiretap_state", "cqstate.pauli_wiretap_state"),
    Target("dualhash.cqstate:holevo", "cqstate.holevo"),
    Target("dualhash.cqstate:d1_distance", "cqstate.d1_distance"),
    Target("dualhash.cqstate:walsh_transform", "cqstate.walsh_transform"),
    Target("dualhash.cqstate:code_bias", "cqstate.code_bias"),
    Target("dualhash.simulator:exact_error_prob", "simulator.exact_error_prob",
           count=_exact_error_prob),
    Target("dualhash.simulator:decode", "simulator.decode"),
    Target("dualhash.simulator:family_average_error", "simulator.family_average_error"),
    Target("dualhash.simulator:counterexample_leakage",
           "simulator.counterexample_leakage"),
    Target("dualhash.simulator:wiretap_eval", "simulator.wiretap_eval"),
]

S, COUNT = "s", "count"

# (metric, unit).  Every metric is printed on every workload; a layer the
# workload never reaches reads 0.
PER_LAYER = [
    # -> pass_ref on verify
    *[(f"acceptance.criterion_{k}.s", S) for k in range(1, 10)],
    # -> pass_ref on measure
    ("cli.analyze.s", S), ("cli.simulate.s", S), ("cli.sweep.s", S),
    # -> pass_ref on pa_stream, one span per phase
    ("pa.fresh.s", S), ("pa.reuse.s", S), ("pa.narrow.s", S),
    # gf2: rref/kernel/dual/rank -> measure (large share) and verify;
    # codewords -> measure and verify; cosets -> verify; mul_vector -> pa_stream
    ("gf2.rref.calls", COUNT), ("gf2.rref.self_s", S),
    ("gf2.kernel.calls", COUNT), ("gf2.kernel.self_s", S),
    ("gf2.dual.calls", COUNT),
    ("gf2.rank.calls", COUNT), ("gf2.rank.self_s", S),
    ("gf2.codewords.calls", COUNT), ("gf2.codewords.words", COUNT),
    ("gf2.cosets.reps", COUNT),
    ("gf2.mul_vector.calls", COUNT), ("gf2.mul_vector.self_s", S),
    # hashfam: member/toeplitz_matrix -> pa_stream fresh and narrow phases;
    # apply_hash -> pa_stream reuse phase (zero on verify and measure);
    # kernel_code -> measure
    ("hashfam.member.calls", COUNT), ("hashfam.member.self_s", S),
    ("hashfam.toeplitz_matrix.self_s", S),
    ("hashfam.apply_hash.calls", COUNT), ("hashfam.apply_hash.self_s", S),
    ("hashfam.apply_hash.bits", "bit"),
    ("hashfam.kernel_code.calls", COUNT), ("hashfam.kernel_code.self_s", S),
    # universality -> measure and verify; members/distinct_members is the
    # useful-work ratio for merging equal members
    ("universality.from_hash_family.self_s", S),
    ("universality.from_hash_family.members", COUNT),
    ("universality.epsilon_universal.calls", COUNT),
    ("universality.epsilon_universal.self_s", S),
    ("universality.epsilon_dual_universal.self_s", S),
    ("universality.members", COUNT), ("universality.distinct_members", COUNT),
    ("universality.tight_family.self_s", S),
    ("universality.counterexample_family.self_s", S),
    ("universality.random_code.calls", COUNT),
    ("universality.search_permuted_code.self_s", S),
    # bounds: reliability/gallager/maximize -> verify; qkd_bounds -> measure
    # (sweep) and verify (criterion 9)
    ("bounds.reliability_e.calls", COUNT), ("bounds.reliability_e.self_s", S),
    ("bounds.gallager_family_bound.self_s", S),
    ("bounds.maximize_scalar.calls", COUNT),
    ("bounds.qkd_bounds.calls", COUNT), ("bounds.qkd_bounds.self_s", S),
    # cqstate -> verify only
    ("cqstate.h2_d2_hmin.calls", COUNT), ("cqstate.h2_d2_hmin.self_s", S),
    ("cqstate.verify_pa.self_s", S), ("cqstate.hash_marginal.self_s", S),
    ("cqstate.pauli_wiretap_state.self_s", S), ("cqstate.holevo.self_s", S),
    ("cqstate.d1_distance.self_s", S),
    ("cqstate.walsh_transform.calls", COUNT), ("cqstate.walsh_transform.self_s", S),
    ("cqstate.code_bias.self_s", S),
    # simulator: exact_error_prob/wiretap -> verify; decode -> measure (--mc);
    # family_average_error -> verify and measure; counterexample_leakage ->
    # measure (large share) and verify (criterion 7)
    ("simulator.exact_error_prob.calls", COUNT),
    ("simulator.exact_error_prob.self_s", S),
    ("simulator.exact_error_prob.patterns", COUNT),
    ("simulator.decode.calls", COUNT), ("simulator.decode.self_s", S),
    ("simulator.family_average_error.self_s", S),
    ("simulator.counterexample_leakage.self_s", S),
    ("simulator.wiretap_eval.self_s", S),
    # traced pass seconds; over the untraced ones it is the tracing overhead
    ("trace.pass.s", S),
]
