"""Operations of the benchmark workloads and the answers each must give.

An operation is one call into a public chiralring function that returns a
checkable answer: a verdict, a rank, a term count with a digest of the exact
element, or a slice size.  Operations receive the freshly imported API, the
pass's workspaces and the field mode, so every pass runs on a cold package.

EXPECTED holds the paper's verdicts (S^g in I, S^(g-1) not in I, invariant
dimensions, the c2/c3 and sl(n) checks) and the exact ranks, term counts and
slice sizes the exact-arithmetic code produces.  Exact answers do not depend
on the order of operations (the RREF is canonical), and modular-mode
S-power operations are checked against the same entries as the exact ones,
so a modular rank that differs from the exact rank is a failure.
"""

import hashlib
from collections import namedtuple
from fractions import Fraction

# name: shown in reports; key: entry of EXPECTED; algebra: workspace key
# such as "B2" (None when the function builds its own); modular: the call
# receives the run's two-prime field mode instead of exact mode.
Op = namedtuple("Op", "name key algebra modular call")


def element_answer(elem):
    """[term count, digest of the exact terms] of an ExtElement."""
    return [len(elem.terms), _digest([elem])]


def _digest(elems):
    text = "|".join(
        ";".join("%d:%s" % (m, Fraction(c)) for m, c in sorted(e.terms.items()))
        for e in elems)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hat_ops(alg, k):
    """hat(Tr w^k), Tr(z^k) and dF(z) on X and Y for one algebra and degree."""
    tag = "%s/k%d" % (alg, k)
    calls = [
        ("hat_trace", lambda api, ws, mode: element_answer(
            api.hat_trace(ws, k).value)),
        ("trace_z_power", lambda api, ws, mode: element_answer(
            api.trace_z_power(ws, k))),
        ("d_trace_X", lambda api, ws, mode: element_answer(
            api.d_trace(ws, k, "X"))),
        ("d_trace_Y", lambda api, ws, mode: element_answer(
            api.d_trace(ws, k, "Y"))),
    ]
    return [Op(f + "/" + tag, f + "/" + tag, alg, False, c) for f, c in calls]


def s_power_op(alg, k, modular=False):
    key = "check_S_power/%s/k%d" % (alg, k)

    def call(api, ws, mode):
        r = api.check_S_power(ws, k, mode)
        return [r["contained"], r["ideal_rank"]]
    return Op(key + ("/modular" if modular else "/exact"), key, alg, modular,
              call)


def part_i_op(alg, up_to_k):
    key = "check_part_i/%s/k%d" % (alg, up_to_k)

    def call(api, ws, mode):
        r = api.check_part_i(ws, up_to_k)
        return [r["pass"], [d["dim"] for d in r["diagonal"]],
                [o["dim"] for o in r["offdiagonal"]]]
    return Op(key, key, alg, False, call)


def c2_c3_op(alg):
    key = "check_conj_c2_c3/%s" % alg

    def call(api, ws, mode):
        r = api.check_conj_c2_c3(ws)
        return [r["pass"], [[d["d"], d["dim_L"], d["dim_hat_ideal"]]
                            for d in r["per_degree"]]]
    return Op(key, key, alg, False, call)


def sln_remark_op(n):
    key = "check_sln_remark/n%d" % n

    def call(api, ws, mode):
        r = api.check_sln_remark(n)
        return [r["pass"], r["trxy_coefficient"]]
    return Op(key, key, None, False, call)


def slice_op(alg, d):
    key = "weight_zero_slice/%s/%d,%d" % (alg, d, d)

    def call(api, ws, mode):
        return len(ws.action.weight_masks(d, d, ws.action.zero_weight))
    return Op(key, key, alg, False, call)


def invariants_op(alg, d):
    key = "invariant_basis_elements/%s/%d,%d" % (alg, d, d)

    def call(api, ws, mode):
        basis = api.invariant_basis_elements(ws.action, d, d)
        return [len(basis), _digest(basis)]
    return Op(key, key, alg, False, call)


# The smallest verdict that crosses every layer (Grassmann matrices, ideal
# rows, echelon forms, invariants and kernels).  It ends every workload so
# that each per-layer timer of the traced run measures real work on every
# workload; it costs a few milliseconds.
CANARY = c2_c3_op("A1")


def _hat_expansion(degrees):
    return [op for alg, ks in degrees for k in ks for op in hat_ops(alg, k)]


WORKLOADS = {
    "hat-expansion": (
        _hat_expansion((("B2", (2, 4)), ("C2", (2, 4)), ("A2", (2, 3, 4))))
        + [sln_remark_op(3), CANARY]),
    "ideal-exact": (
        [s_power_op(a, k) for a, g in (("A2", 3), ("B2", 3), ("C2", 3))
         for k in (g - 1, g)]
        + [s_power_op("G2", 2), part_i_op("B2", 3), c2_c3_op("C2"), CANARY]),
    "ideal-modular": (
        [s_power_op(a, 2, modular=True) for a in ("A3", "B3", "C3", "G2")]
        + [s_power_op("B2", 3, modular=True), s_power_op("B2", 2, modular=True),
           CANARY]),
    "weight-slices": (
        [slice_op("A3", 3), slice_op("G2", 3), slice_op("B3", 2),
         slice_op("C3", 2), slice_op("D4", 2),
         invariants_op("A3", 2), invariants_op("G2", 2), CANARY]),
}

# A1/A2 versions of each workload, for the benchmark's own tests.
TINY = {
    "hat-expansion": (_hat_expansion((("A1", (2, 3)), ("A2", (2, 3))))
                      + [sln_remark_op(2), CANARY]),
    "ideal-exact": ([s_power_op("A1", 1), s_power_op("A1", 2),
                     s_power_op("A2", 2), part_i_op("A1", 2), CANARY]),
    "ideal-modular": ([s_power_op("A1", 1, modular=True),
                       s_power_op("A1", 2, modular=True),
                       s_power_op("A2", 2, modular=True), CANARY]),
    "weight-slices": ([slice_op("A1", 2), slice_op("A2", 2), slice_op("A2", 3),
                       invariants_op("A1", 1), invariants_op("A2", 2),
                       CANARY]),
}


def algebras(ops):
    """(key, type, rank) of the workspaces the operations need, in a fixed
    order; a key is the type letter followed by the rank, as in "B2"."""
    keys = sorted({op.algebra for op in ops if op.algebra is not None})
    return [(key, key[0], int(key[1:])) for key in keys]


# Exact answers of the exact-arithmetic code.  The S-power verdicts are the
# paper's (contained exactly when k >= g, the dual Coxeter number), as are
# the passes of check_part_i, check_conj_c2_c3 and check_sln_remark; the
# element digests, ranks and slice sizes pin the rest of each answer.
EXPECTED = {
    'check_S_power/A1/k1': [False, 1],
    'check_S_power/A1/k2': [True, 3],
    'check_S_power/A2/k2': [False, 66],
    'check_S_power/A2/k3': [True, 244],
    'check_S_power/A3/k2': [False, 283],
    'check_S_power/B2/k2': [False, 109],
    'check_S_power/B2/k3': [True, 752],
    'check_S_power/B3/k2': [False, 514],
    'check_S_power/C2/k2': [False, 109],
    'check_S_power/C2/k3': [True, 752],
    'check_S_power/C3/k2': [False, 514],
    'check_S_power/G2/k2': [False, 220],
    'check_conj_c2_c3/A1': [True, [[0, 0, 0], [1, 0, 0]]],
    'check_conj_c2_c3/C2': [True, [[0, 0, 0], [1, 0, 0], [2, 0, 0]]],
    'check_part_i/A1/k2': [True, [1, 1, 0], [0, 0, 0]],
    'check_part_i/B2/k3': [True, [1, 1, 1, 0], [0, 0, 0]],
    'check_sln_remark/n2': [True, '-3'],
    'check_sln_remark/n3': [True, '2'],
    'd_trace_X/A1/k2': [3, 'a6633be38fb5fce8'],
    'd_trace_X/A1/k3': [0, 'e3b0c44298fc1c14'],
    'd_trace_X/A2/k2': [18, '9fab89a3fc62b193'],
    'd_trace_X/A2/k3': [114, 'a2819c104377734f'],
    'd_trace_X/A2/k4': [206, 'bee2401ee06a4d8f'],
    'd_trace_X/B2/k2': [30, 'cdee861e90dcc788'],
    'd_trace_X/B2/k4': [1098, '6a6d526010b6a873'],
    'd_trace_X/C2/k2': [30, '685708a84632d1c1'],
    'd_trace_X/C2/k4': [1027, '73e8c04582024527'],
    'd_trace_Y/A1/k2': [3, '8837b32955c2fe11'],
    'd_trace_Y/A1/k3': [0, 'e3b0c44298fc1c14'],
    'd_trace_Y/A2/k2': [18, 'f617835662de96f1'],
    'd_trace_Y/A2/k3': [114, 'be784d4090a3b959'],
    'd_trace_Y/A2/k4': [206, 'ee0db86967b242ff'],
    'd_trace_Y/B2/k2': [30, '2478d1a0c9861041'],
    'd_trace_Y/B2/k4': [1098, '2bf32ef41af6dbf6'],
    'd_trace_Y/C2/k2': [30, '461647756079ccae'],
    'd_trace_Y/C2/k4': [1027, '56649a9d6aa284aa'],
    'hat_trace/A1/k2': [3, 'd96112e45c825b8d'],
    'hat_trace/A1/k3': [0, 'e3b0c44298fc1c14'],
    'hat_trace/A2/k2': [10, 'b2c116e38afb6031'],
    'hat_trace/A2/k3': [52, 'c3670581ad75d859'],
    'hat_trace/A2/k4': [236, '56c140958e6f8ebf'],
    'hat_trace/B2/k2': [12, 'bd6c2dd360df339d'],
    'hat_trace/B2/k4': [693, '999bb3c0350421ed'],
    'hat_trace/C2/k2': [12, '4ac010b0c9554ed0'],
    'hat_trace/C2/k4': [671, '3be0492cd48eb5db'],
    'invariant_basis_elements/A1/1,1': [1, '6e6e0f84e51b5153'],
    'invariant_basis_elements/A2/2,2': [3, 'abedfe2ef8c0158c'],
    'invariant_basis_elements/A3/2,2': [3, 'e5f362aa7ca36051'],
    'invariant_basis_elements/G2/2,2': [2, '6715ebb48a9bb9a4'],
    'trace_z_power/A1/k2': [3, '24e6b5e149c6d7b8'],
    'trace_z_power/A1/k3': [0, 'e3b0c44298fc1c14'],
    'trace_z_power/A2/k2': [43, '55908dcc24859f70'],
    'trace_z_power/A2/k3': [164, 'd25b62cfa5953dd6'],
    'trace_z_power/A2/k4': [233, '981311a057d157b6'],
    'trace_z_power/B2/k2': [88, 'bec17280099f8aaf'],
    'trace_z_power/B2/k4': [1638, 'a2a83bffac9db922'],
    'trace_z_power/C2/k2': [88, '5e96d0043da4f02e'],
    'trace_z_power/C2/k4': [1517, 'fec9da2fdee12b3e'],
    'weight_zero_slice/A1/2,2': 3,
    'weight_zero_slice/A2/2,2': 76,
    'weight_zero_slice/A2/3,3': 244,
    'weight_zero_slice/A3/3,3': 5081,
    'weight_zero_slice/B3/2,2': 1014,
    'weight_zero_slice/C3/2,2': 1014,
    'weight_zero_slice/D4/2,2': 2172,
    'weight_zero_slice/G2/3,3': 3922,
}
