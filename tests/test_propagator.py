"""The propagation kernel: per-piece caches, cos_sinc and the step ladder.

A sampled piece builds its cubic spline once, and the Magnus kernel keeps
the potential at its Gauss nodes on the piece per (x0, x1, n_steps). These
tests pin that the caches are built once, stay invisible to equality,
hashing and serialization, and give the same bits as a fresh evaluation.
They also pin that cos_sinc gives the same bits, in arrays of its input's
shape, whether a branch runs on the whole array or on a masked part, that
NaN in gives NaN out, that a ladder started from a piece's last settled
step count returns the cold ladder's pass, that a ladder which cannot
settle says where and at which lambda, and that the ladder's fallback to
its closest pair carries a variable-q problem to n = 100.

The Magnus kernel runs lambda-major, in one array of step matrices. A
step-major copy of the kernel as it was before that layout lives here, and
only here, so the tests can pin that the layout moved no bit; they compare
on the machine they run on, since numpy's SIMD sin and cos may round
differently on another CPU. Each lambda also has the same bits alone as in
a batch at a fixed step count, which is what makes any layout, and the
row blocks a wide batch runs in, safe. Those blocks bound the memory of a
wide omega or eigenvalue count.

A block of the endpoint pass runs in place in a per-thread workspace. The
pass as it was before, on fresh arrays, lives here as the reference it
must match bit for bit, through odd tree levels, a block that fills the
workspace, partial blocks and every cos_sinc branch. Two threads keep
their own workspaces, and a warm pass allocates almost nothing.
"""

import importlib.util
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import sltrans as st
from sltrans import eigensolve, problem, propagator
from sltrans.characteristic import _NODE_WEIGHT, eigenvalue_count, omega, omega_derivative
from sltrans.eigensolve import find_eigenvalues
from sltrans.problem import PotentialPiece, load_problem, problem_to_json, save_problem
from sltrans.propagator import (_GAUSS_OFFSETS, _SLOPE_SERIES, BLOCK_ENTRIES,
                                StepSizeUnderflow, _magnus_pass, _piece_node_q,
                                _tangent_pass, cos_sinc, magnus_exponent, magnus_ladder,
                                magnus_nodes, propagate_piece, row_blocks)


def _sampled_spec() -> st.ProblemSpec:
    pieces = []
    for a, b, n_pts in ((-1.0, 0.1, 23), (0.1, 1.0, 31)):
        xs = np.linspace(a, b, n_pts)
        vals = 1.5 * np.cos(3.0 * xs) - xs * xs + 0.4
        pieces.append(PotentialPiece("sampled", x=tuple(xs), values=tuple(vals)))
    return st.ProblemSpec(st.PiecewisePotential.from_pieces(pieces), (0.1,), (1.5,),
                          alpha=(1.0, 0.5), beta=(0.0, 1.0), beta_prime=(1.0, 0.0))


@pytest.fixture(scope="module")
def problem_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sampled") / "sampled.json"
    save_problem(_sampled_spec(), path)
    return path


def _fresh(path):
    return st.validate_problem(load_problem(path))


@pytest.fixture(scope="module")
def warm(problem_file):
    """A problem after one solve, and the eigenvalues of that cold solve."""
    vp = _fresh(problem_file)
    return vp, [e.lam for e in find_eigenvalues(vp, 3)]


def test_fresh_problem_starts_with_empty_caches(problem_file):
    vp = _fresh(problem_file)
    assert vp.memo == {}
    for piece in vp.pieces:
        assert "_spline" not in vars(piece)
        assert piece.memo == {}
        assert piece.settled == {}


def test_one_spline_per_sampled_piece(problem_file, monkeypatch):
    built = []

    class CountingSpline(problem.CubicSpline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    # _spline reads the module's CubicSpline when it runs, so it finds this one.
    monkeypatch.setattr(problem, "CubicSpline", CountingSpline)
    vp = _fresh(problem_file)
    find_eigenvalues(vp, 3)
    assert len(built) == len(vp.pieces) == 2


def test_warm_piece_equals_its_cold_twin(problem_file, warm):
    vp = warm[0]
    cold = _fresh(problem_file)
    for w, c in zip(vp.pieces, cold.pieces):
        assert w.memo and not c.memo
        assert w == c
        assert hash(w) == hash(c)
    assert problem_to_json(vp.spec) == problem_to_json(cold.spec)
    assert vp.memo and not cold.memo
    assert vp == cold


def test_memoised_nodes_are_read_only_and_exact(warm):
    piece = warm[0].pieces[0]
    assert piece.memo
    for (x0, x1, n_steps), (qvals, h) in piece.memo.items():
        with pytest.raises(ValueError):
            qvals[0, 0] = 0.0
        assert _piece_node_q(piece, x0, x1, n_steps)[0] is qvals
        starts = x0 + h * np.arange(n_steps)
        xs = starts[:, None] + h * np.asarray(_GAUSS_OFFSETS)[None, :]
        assert qvals.tobytes() == piece.evaluate(xs).tobytes()


def test_warm_solve_repeats_cold_solve(warm):
    vp, cold = warm
    assert [e.lam for e in find_eigenvalues(vp, 3)] == cold


# ----------------------------------------------------------------------
# cos_sinc
# ----------------------------------------------------------------------

REAL_BRANCHES = {
    "hyperbolic": np.geomspace(1e-8, 700.0, 40),
    "trigonometric": -np.geomspace(1e-8, 1e7, 40),
    "taylor": np.linspace(-9.9e-9, 9.9e-9, 21),
}
# S'(z) takes its series on |z| < 1 and the quotient (C - S) / (2 z) from
# |z| = 1 on, so both sets hold the values at and next to the switch.
_BELOW_ONE = np.nextafter(1.0, 0.0)
SLOPE_BRANCHES = {
    "series": np.concatenate([np.geomspace(1e-12, _BELOW_ONE, 20),
                              -np.geomspace(1e-12, _BELOW_ONE, 20), [0.0]]),
    "quotient": np.concatenate([np.geomspace(1.0, 700.0, 20), -np.geomspace(1.0, 1e7, 20)]),
}


def _slope(z):
    """(S'(z),) as the kernel forms it from cos_sinc's C and S."""
    z = np.asarray(z, dtype=float)
    C, S = cos_sinc(z)
    out = np.empty_like(z)
    propagator._slope_into(z, C, S, out)
    return (out,)


BRANCH_CASES = {"real": (cos_sinc, REAL_BRANCHES), "slope": (_slope, SLOPE_BRANCHES)}


def _bits(pair):
    return [np.asarray(v).tobytes() for v in pair]


@pytest.mark.parametrize("case", list(BRANCH_CASES))
def test_whole_array_branch_matches_masked_branch(case):
    f, branches = BRANCH_CASES[case]
    for name, z in branches.items():
        others = [v for k, v in branches.items() if k != name]
        mixed = f(np.concatenate([z, *others]))
        assert _bits(f(z)) == _bits(v[:len(z)] for v in mixed)
        # Magnus batches are 2-D: (lambdas, steps)
        z4 = z[:len(z) // 4 * 4]
        grid = f(z4.reshape(4, -1))
        assert all(v.shape == (4, len(z) // 4) for v in grid)
        assert _bits(grid) == _bits(v.reshape(4, -1) for v in f(z4))
        if f is cos_sinc:
            # A scalar takes cos_sinc's Python branch, with the masked bits.
            for k, zk in enumerate(z):
                assert _bits(cos_sinc(zk)) == _bits((mixed[0][k], mixed[1][k]))


@pytest.mark.parametrize("case", list(BRANCH_CASES))
def test_mixed_array_matches_one_call_per_element(case):
    f, branches = BRANCH_CASES[case]
    z = np.concatenate(list(branches.values()))
    z = z[np.random.default_rng(3).permutation(len(z))]
    together = f(z)
    for k, zk in enumerate(z):
        alone = f(zk if f is cos_sinc else z[k:k + 1])
        assert _bits(v[k] for v in together) == _bits(np.ravel(v)[0] for v in alone)


@pytest.mark.parametrize("case", ["float", "slope"])
def test_cos_sinc_nan_in_gives_nan_out(case):
    f = cos_sinc if case == "float" else _slope
    # Leave freed buffers of the outputs' size holding finite junk, so an
    # output slot no branch writes would show it.
    for _ in range(50):
        junk = np.full((3, 4), 5.8e252)
        del junk
    z = np.array([np.nan, -1.0, np.nan, 2.0])
    out = f(z)
    assert all(np.all(np.isnan(v[[0, 2]])) and np.all(np.isfinite(v[[1, 3]])) for v in out)
    assert all(np.all(np.isnan(v)) for v in f(np.full(3, np.nan)))
    if f is cos_sinc:
        C, S = out
        r = np.sqrt(2.0)
        assert [C[1], S[1]] == pytest.approx([np.cos(1.0), np.sin(1.0)], rel=1e-15)
        assert [C[3], S[3]] == pytest.approx([np.cosh(r), np.sinh(r) / r], rel=1e-15)
        assert all(np.isnan(v) for v in cos_sinc(np.nan))


# ----------------------------------------------------------------------
# Magnus ladder
# ----------------------------------------------------------------------

def test_ladder_that_cannot_settle_reports_its_evidence():
    piece = PotentialPiece("polynomial", coeffs=(1.0, 1.0))
    lam = np.array([-3.0, 40.0, 900.0])
    with pytest.raises(StepSizeUnderflow) as info:
        propagate_piece(piece, -1.0, 0.2, lam, np.ones(3), np.zeros(3), rtol=1e-20)
    err = info.value
    assert err.interval == (-1.0, 0.2)
    assert err.n_steps == 20 * 2 ** 9
    assert err.lam in lam.tolist()
    assert err.scale >= 1.0
    assert 1e-20 * err.scale < err.gap < 1e-6 * err.scale
    assert f"{err.n_steps} Magnus steps" in str(err)


def _cubic_piece():
    return PotentialPiece("polynomial", coeffs=(1.0, 1.0, -2.0, 0.5))


def _ladder_bytes(piece, lam):
    qv, h, (u1, du1) = magnus_ladder(piece, -1.0, 0.2, lam, np.ones_like(lam),
                                     np.zeros_like(lam))
    return [qv.tobytes(), float(h).hex(), u1.tobytes(), du1.tobytes()]


def test_warm_ladder_returns_the_cold_pass(monkeypatch):
    # On [-1, 0.2] the cold ladder starts at 20 steps and settles on 5120
    # for lambda from 1e4 to 1e5, 10240 at 1e6 and 1280-2560 below 1e4.
    counts = []
    kernel = propagator._magnus_pass

    def counting(qvals, *args):
        counts.append(len(qvals))
        return kernel(qvals, *args)

    monkeypatch.setattr(propagator, "_magnus_pass", counting)
    warm = _cubic_piece()
    for lam in ([1e4, 1e5], [1e5]):  # warm both keys high
        _ladder_bytes(warm, np.array(lam))
    branches = set()
    for lam in ([-3.0, 40.0, 900.0], [-3.0], [5.0], [1e4, 1e5], [1e6], [40.0, 900.0]):
        lam = np.array(lam)
        start = warm.settled[(-1.0, 0.2, lam.size > 1)] // 4
        del counts[:]
        got = _ladder_bytes(warm, lam)
        runs = counts[:]
        assert got == _ladder_bytes(_cubic_piece(), lam)
        # Passes at M/4 and M/2 that agree send the ladder back to n0;
        # otherwise it keeps doubling from M/2.
        branches.add("restart" if min(runs) < start else "resume")
        assert runs[:2] == [max(start, 20), 2 * max(start, 20)]
        assert len(runs) == len(set(runs))  # no pass runs twice
    assert branches == {"restart", "resume"}


def _baselines_spec() -> st.ProblemSpec:
    """perfbench/baselines.py's two-piece linear problem."""
    return st.ProblemSpec(
        st.PiecewisePotential.from_pieces([PotentialPiece("polynomial", coeffs=(1.0, 1.0)),
                                           PotentialPiece("polynomial", coeffs=(2.0, -0.5))]),
        (0.2,), (1.5,), (1.0, 1.0), (0.0, 1.0), (1.0, 0.3))


def test_ladder_falls_back_to_its_closest_pair_at_high_index():
    # Near lambda = 9178 the pass gaps on [0.2, 1] flatten at round-off
    # just above 1e-12, so without the fallback n = 95 raises
    # StepSizeUnderflow.
    spec = _baselines_spec()
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    bounds = workloads.RESIDUAL_TOL
    eigs = find_eigenvalues(st.validate_problem(spec), 100)
    assert len(eigs) == 100
    assert np.all(np.diff([e.lam for e in eigs]) > 0)
    for key, bound in bounds.items():
        assert max(e.residuals[key] for e in eigs) <= bound, key


@pytest.mark.xfail(strict=True, reason="known defect: on variable q the ladder "
                   "picks one step count for the whole lambda batch, so the "
                   "eigenvalues depend on n_max")
def test_shared_eigenvalues_do_not_depend_on_n_max():
    # lambda_0 reads -0x1.01b9d625a8543p+4 at n_max = 3 and
    # -0x1.01b9d625a85c0p+4 at n_max = 20.
    few = find_eigenvalues(st.validate_problem(_baselines_spec()), 3)
    many = find_eigenvalues(st.validate_problem(_baselines_spec()), 20)
    assert [e.lam.hex() for e in few] == [e.lam.hex() for e in many[:3]]


# ----------------------------------------------------------------------
# Magnus kernel layout
# ----------------------------------------------------------------------

def _step_major_steps(qvals, h, lam_f):
    """The four step-matrix entries, each (n_steps, n_lam), with h a scalar
    or an (n_steps, 1) column and lam_f a (1, n_lam) row."""
    q1 = qvals[:, 0][:, None]
    q2 = qvals[:, 1][:, None]
    wbar = 0.5 * (q1 + q2) - lam_f
    d = (-(np.sqrt(3.0) * h * h / 12.0)) * (q2 - q1)
    z = d * d + (h * h) * wbar
    C, S = cos_sinc(z)
    return C + S * d, S * h + np.zeros_like(C), S * h * wbar, C - S * d


def _step_major_pass(qvals, h, lam, u, du):
    target = np.broadcast_shapes(np.shape(lam), np.shape(u), np.shape(du))
    lam_f = np.reshape(np.broadcast_to(np.asarray(lam), target), (1, -1))
    u0 = np.reshape(np.broadcast_to(np.asarray(u), target), (-1,))
    du0 = np.reshape(np.broadcast_to(np.asarray(du), target), (-1,))
    e11, e12, e21, e22 = _step_major_steps(qvals, h, lam_f)
    while e11.shape[0] > 1:
        m = e11.shape[0]
        even = (m // 2) * 2
        a11, a12 = e11[1:even:2], e12[1:even:2]
        a21, a22 = e21[1:even:2], e22[1:even:2]
        b11, b12 = e11[0:even:2], e12[0:even:2]
        b21, b22 = e21[0:even:2], e22[0:even:2]
        c11 = a11 * b11 + a12 * b21
        c12 = a11 * b12 + a12 * b22
        c21 = a21 * b11 + a22 * b21
        c22 = a21 * b12 + a22 * b22
        if m % 2:
            c11 = np.concatenate([c11, e11[-1:]])
            c12 = np.concatenate([c12, e12[-1:]])
            c21 = np.concatenate([c21, e21[-1:]])
            c22 = np.concatenate([c22, e22[-1:]])
        e11, e12, e21, e22 = c11, c12, c21, c22
    u_new = e11[0] * u0 + e12[0] * du0
    du_new = e21[0] * u0 + e22[0] * du0
    return u_new.reshape(target), du_new.reshape(target)


def _step_major_slope(z, C, S):
    """S'(z) on fresh arrays: the Horner series on |z| < 1, else
    (C - S) / z / 2, picked per element."""
    series = z * _SLOPE_SERIES[0]
    for c in _SLOPE_SERIES[1:-1]:
        series = (series + c) * z
    series = series + _SLOPE_SERIES[-1]
    with np.errstate(all="ignore"):
        quotient = (C - S) / z * 0.5
    return np.where(np.abs(z) < 1.0, series, quotient)


def _step_major_tangent_pass(qvals, h, lam, u, du):
    """_step_major_pass with lambda-derivatives, on fresh arrays: lam is
    1-D, u and du are (2, n_lam) stacks of states and their derivatives.
    The tree carries (E, E') pairs: a later B and an earlier A give
    (B A, B' A + B A'), each entry summed left to right."""
    q1, q2 = qvals[:, 0][:, None], qvals[:, 1][:, None]
    wbar = 0.5 * (q1 + q2) - np.reshape(lam, (1, -1))
    d = (-(np.sqrt(3.0) * h * h / 12.0)) * (q2 - q1)
    z = d * d + (h * h) * wbar
    C, S = cos_sinc(z)
    dS = _step_major_slope(z, C, S) * (-(h * h))
    dC = S * (-0.5 * h * h)
    e = [C + S * d, S * h, S * h * wbar, C - S * d]
    de = [dC + dS * d, dS * h, dS * h * wbar - S * h, dC - dS * d]
    while e[0].shape[0] > 1:
        m = e[0].shape[0]
        even = m - m % 2
        a11, a12, a21, a22 = (x[1:even:2] for x in e)
        b11, b12, b21, b22 = (x[0:even:2] for x in e)
        f11, f12, f21, f22 = (x[1:even:2] for x in de)
        g11, g12, g21, g22 = (x[0:even:2] for x in de)
        c = [a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
             a21 * b11 + a22 * b21, a21 * b12 + a22 * b22]
        dc = [f11 * b11 + f12 * b21 + a11 * g11 + a12 * g21,
              f11 * b12 + f12 * b22 + a11 * g12 + a12 * g22,
              f21 * b11 + f22 * b21 + a21 * g11 + a22 * g21,
              f21 * b12 + f22 * b22 + a21 * g12 + a22 * g22]
        e = [np.concatenate([y, x[even:]]) for x, y in zip(e, c)]
        de = [np.concatenate([y, x[even:]]) for x, y in zip(de, dc)]
    (e11, e12, e21, e22), (f11, f12, f21, f22) = [x[0] for x in e], [x[0] for x in de]
    u_end = [e11 * u[0] + e12 * du[0], f11 * u[0] + f12 * du[0] + (e11 * u[1] + e12 * du[1])]
    du_end = [e21 * u[0] + e22 * du[0], f21 * u[0] + f22 * du[0] + (e21 * u[1] + e22 * du[1])]
    return np.stack(u_end), np.stack(du_end)


def _step_major_nodes(qvals, h, lam, u, du):
    e = list(_step_major_steps(qvals, h, np.reshape(lam, (1, -1))))
    span = 1
    while span < e[0].shape[0]:
        a11, a12, a21, a22 = (x[span:] for x in e)
        b11, b12, b21, b22 = (x[:-span] for x in e)
        c = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
             a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
        scale = np.max(np.abs(np.stack(c)), axis=0)
        e = [np.concatenate([x[:span], y / scale]) for x, y in zip(e, c)]
        span *= 2
    e11, e12, e21, e22 = e
    u_nodes = np.concatenate([u[None, :], e11 * u + e12 * du])
    du_nodes = np.concatenate([du[None, :], e21 * u + e22 * du])
    return u_nodes, du_nodes


def _hex(*arrays):
    """Shape and float.hex of every entry."""
    return [(a.shape, [float(x).hex() for x in a.ravel()]) for a in map(np.asarray, arrays)]


# 20 steps pair down through odd levels: 20 -> 10 -> 5 -> 3 -> 2 -> 1.
# "tangent" runs the pass with lambda-derivatives on a batch.
KERNEL_CASES = [(n_steps, sign, batch, kind)
                for n_steps in (1, 20, 3840) for sign in (1.0, -1.0)
                for batch, kind in ((None, "float"), (1, "float"), (20, "float"), (244, "float"),
                                    (1, "tangent"), (20, "tangent"))]


def _kernel_case(seed, n_steps, sign, batch, kind):
    """Node potentials, step, lambda and start state of one kernel case.

    q and lambda share a range, so z lands on both sides of 0 in one call
    and cos_sinc takes its masked branch. One step has q1 = q2 = lambda_0,
    so z = 0 there (the Taylor branch), and with more than one step the
    first and last steps put z near 2 and -2, past S'(z)'s series switch
    at |z| = 1 on both sides. batch None is a scalar lambda; a tangent
    case starts from (2, batch) stacks of states and their derivatives.
    """
    rng = np.random.default_rng([11, seed])
    size = 1 if batch is None else batch
    lam = rng.uniform(-30.0, 30.0, size)
    qvals = rng.uniform(-30.0, 30.0, (n_steps, 2))
    u, du = rng.uniform(-1.0, 1.0, (2, 2, size) if kind == "tangent" else (2, size))
    h = sign * rng.uniform(0.5, 2.0) / n_steps
    qvals[0] = lam[0] + 2.0 / (h * h)
    qvals[-1] = lam[0] - 2.0 / (h * h)
    qvals[n_steps // 2] = lam[0]
    if batch is None:
        return qvals, h, lam[0], u[0], du[0]
    return qvals, h, lam, u, du


@pytest.mark.parametrize("seed", range(len(KERNEL_CASES)), ids=[
    f"{n}-steps-h{'+' if sign > 0 else '-'}-{'scalar' if b is None else b}-{kind}"
    for n, sign, b, kind in KERNEL_CASES])
def test_kernel_matches_its_step_major_copy(seed):
    kind = KERNEL_CASES[seed][3]
    args = _kernel_case(seed, *KERNEL_CASES[seed])
    if kind == "tangent":
        assert _hex(*_tangent_pass(*args)) == _hex(*_step_major_tangent_pass(*args))
        return
    assert _hex(*_magnus_pass(*args)) == _hex(*_step_major_pass(*args))
    if np.ndim(args[2]):
        # Byte equality implies float.hex equality and is cheaper on the
        # 2 x 244 x 3841 node states.
        nodes, reference = magnus_nodes(*args), [x.T for x in _step_major_nodes(*args)]
        assert [x.shape for x in nodes] == [x.shape for x in reference]
        assert _bits(nodes) == _bits(reference)


def _spans_row_blocks(n_rows, n_steps):
    """True when a batch of n_rows over n_steps runs in three or more row
    blocks and the last one holds fewer rows than a full block."""
    blocks = row_blocks(n_rows, n_steps)
    last = blocks[-1].stop - blocks[-1].start
    return len(blocks) >= 3 and last < BLOCK_ENTRIES // n_steps


@pytest.mark.parametrize("kind, wide", [("float", False), ("tangent", False),
                                        ("float", True), ("tangent", True)],
                         ids=["float", "tangent", "float-wide", "tangent-wide"])
def test_each_lambda_has_its_own_bits_in_a_batch(kind, wide):
    n_steps = 2560 if wide else 640
    qvals, h = _piece_node_q(_cubic_piece(), -1.0, 0.2, n_steps)
    size = 5 * (BLOCK_ENTRIES // n_steps) // 2 if wide else 20
    # A block of the tangent pass holds half as many lambda.
    width = 2 if kind == "tangent" else 1
    assert _spans_row_blocks(size, width * n_steps) == wide
    rng = np.random.default_rng(5)
    # From below q (every z > 0) to far above it, so the batch mixes
    # cos_sinc branches while each lambda alone takes one.
    lam = np.sort(rng.uniform(-5.0, 3000.0, size))
    if kind == "tangent":
        u, du = rng.uniform(-1.0, 1.0, (2, 2, size))
        batch = _tangent_pass(qvals, h, lam, u, du)
        for k in range(size):
            alone = _tangent_pass(qvals, h, lam[k:k + 1], u[:, k:k + 1], du[:, k:k + 1])
            assert _hex(*alone) == _hex(*(x[:, k:k + 1] for x in batch))
        return
    u, du = rng.uniform(-1.0, 1.0, (2, size))
    batch = _magnus_pass(qvals, h, lam, u, du)
    for k in range(size):
        alone = _magnus_pass(qvals, h, lam[k], u[k], du[k])
        assert _hex(*alone) == _hex(*(x[k] for x in batch))


def test_eigenvalue_count_is_the_same_alone_and_in_a_batch():
    vp = st.validate_problem(_sampled_spec())
    eigs = np.array([e.lam for e in find_eigenvalues(vp, 8)])
    gap = 1e-6 * np.maximum(1.0, np.abs(eigs))
    below, above = eigs - gap, eigs + gap
    # The longest piece settles at 2304 steps, so a node-sweep block of
    # 2**14 lambda-steps holds 7 lambda: the narrow batch runs in one
    # block, the wide one in four.
    narrow = np.concatenate([below[:3], above[:3], [-40.0]])
    wide = np.concatenate([below, above, [-40.0], np.linspace(-40.0, 150.0, 6)])
    for batch_lam, counts, blocked in ((narrow, [0, 1, 2, 1, 2, 3, 0], False),
                                       (wide, [*range(8), *range(1, 9), 0], True)):
        batch = eigenvalue_count(vp, batch_lam)
        assert batch[:len(counts)].tolist() == counts
        n_steps = max(piece.settled[(a, b, True)]
                      for piece, (a, b) in zip(vp.pieces, vp.subintervals()))
        blocks = row_blocks(batch_lam.size, _NODE_WEIGHT * n_steps)
        assert (len(blocks) == 1) != blocked
        assert _spans_row_blocks(batch_lam.size, _NODE_WEIGHT * n_steps) == blocked
        assert [int(eigenvalue_count(vp, x)) for x in batch_lam] == batch.tolist()


def _wide_batch_problem():
    return st.validate_problem(st.ProblemSpec(
        st.PiecewisePotential.from_pieces([_cubic_piece(),
                                           PotentialPiece("polynomial", coeffs=(2.0, -0.5))]),
        (0.2,), (1.5,), (1.0, 1.0), (0.0, 1.0), (1.0, 0.3)))


def test_a_wide_batch_has_a_bounded_working_set():
    # 400 lambda settle at 2560 steps on [-1, 0.2]: about 1e6 lambda-steps,
    # 8 MB an array, of which an unblocked sweep holds a dozen at once. A
    # block of 2**16 lambda-steps runs in a 4 MiB workspace, made on a
    # thread's first pass, and a count's node-sweep block of 2**14 peaks
    # near 3 MiB.
    vp = _wide_batch_problem()
    lam = np.linspace(-5.0, 100.0, 400)
    for f in (omega, eigenvalue_count, omega_derivative):
        tracemalloc.start()
        try:
            f(vp, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vp.pieces[0].settled[(-1.0, 0.2, True)] >= 1280
        assert peak < 6 * 2 ** 20, (f.__name__, peak)


# ----------------------------------------------------------------------
# Magnus workspace
# ----------------------------------------------------------------------

def _allocating_cos_sinc(z):
    """cos_sinc by its three formulas on fresh arrays, picked per element."""
    with np.errstate(all="ignore"):
        r = np.sqrt(z)
        hyp = np.cosh(r), np.sinh(r) / r
        taylor = 1.0 + z / 2.0 + z * z / 24.0, 1.0 + z / 6.0 + z * z / 120.0
        r = np.sqrt(-z)
        trig = np.cos(r), np.sin(r) / r
    return tuple(np.where(z <= -1e-8, a, np.where(z >= 1e-8, b, t))
                 for a, b, t in zip(trig, hyp, taylor))


def _allocating_pass(qvals, h, lam, u, du):
    """The Magnus pass as it was before it ran in a workspace: fresh arrays
    for every step-matrix entry and tree level, the whole batch at once."""
    lam, u, du = np.broadcast_arrays(lam, u, du)
    q1, q2 = qvals.T
    wbar = 0.5 * (q1 + q2) - lam.reshape(-1, 1)
    d = (-(np.sqrt(3.0) * h * h / 12.0)) * (q2 - q1)
    z = d * d + (h * h) * wbar
    C, S = _allocating_cos_sinc(z)
    e = [np.stack([C + S * d, S * h]), np.stack([S * h * wbar, C - S * d])]
    while e[0].shape[-1] > 1:
        m = e[0].shape[-1]
        even = m - m % 2
        a = [x[..., 1:even:2] for x in e]
        b = [x[..., 0:even:2] for x in e]
        c = [row[0] * b[0] + row[1] * b[1] for row in a]
        e = [np.concatenate([y, x[..., even:]], axis=-1) for x, y in zip(e, c)]
    return tuple((row[0, :, 0] * u.ravel() + row[1, :, 0] * du.ravel()).reshape(lam.shape)
                 for row in e)


# Step counts with an odd level: 11 -> 6 -> 3 -> 2 -> 1 and
# 21 -> 11 -> 6 -> 3 -> 2 -> 1. A block of BLOCK_ENTRIES // 3 or // 7
# rows (half that with derivatives, "tangent") is within one row of a full
# block, so its first level, ceil(m / 2) columns and a scratch for the
# second product terms, reaches into the workspace's last arrays. The
# tangent pass has no scalar form; its 21-step batch spans three blocks.
WORKSPACE_CASES = [(n_steps, batch, kind)
                   for kind, entries in (("float", BLOCK_ENTRIES), ("tangent", BLOCK_ENTRIES // 2))
                   for n_steps, batch in ((11, None), (11, 1), (3, entries // 3),
                                          (7, entries // 7),
                                          (21, 5 * (entries // 21) // 2))
                   if batch is not None or kind == "float"]


@pytest.mark.parametrize("case", range(len(WORKSPACE_CASES)), ids=[
    f"{n}-steps-{'scalar' if b is None else b}-{kind}"
    for n, b, kind in WORKSPACE_CASES])
def test_workspace_pass_matches_the_allocating_pass(case):
    n_steps, batch, kind = WORKSPACE_CASES[case]
    width = 2 if kind == "tangent" else 1
    args = _kernel_case(100 + case, n_steps, (-1.0) ** case, batch, kind)
    if batch is not None and batch > 1:
        blocks = row_blocks(batch, width * n_steps)
        assert len(blocks) == 1 or _spans_row_blocks(batch, width * n_steps)
        assert len(blocks) > 1 or batch * width * n_steps > BLOCK_ENTRIES - width * n_steps
    if batch is not None:
        z = magnus_exponent(args[0], args[1], args[2][:, None])[2]
        branches = [np.abs(z) < 1e-8, z <= -1e-8, z >= 1e-8, np.abs(z) >= 1.0]
        assert all(b.any() for b in branches)
    if kind == "tangent":
        got, want = _tangent_pass(*args), _step_major_tangent_pass(*args)
    else:
        got, want = _magnus_pass(*args), _allocating_pass(*args)
    assert _hex(*got) == _hex(*want)
    assert not any(np.shares_memory(x, propagator._WORKSPACE.array) for x in got)


def test_threads_keep_their_own_workspace():
    lams = [np.linspace(-5.0, 100.0, 400), np.linspace(-3.0, 2000.0, 300)]

    def run(lam):  # a fresh problem, so no ladder starts warm
        return omega(_wide_batch_problem(), lam)

    alone = [run(lam) for lam in lams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between most ufunc calls
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            together = list(pool.map(run, lams, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert [x.tobytes() for x in together] == [x.tobytes() for x in alone]


def test_a_warm_wide_omega_allocates_less_than_a_workspace_row():
    vp = _wide_batch_problem()
    lam = np.linspace(-5.0, 100.0, 400)
    for f in (omega, omega_derivative):
        f(vp, lam)
        tracemalloc.start()
        try:
            f(vp, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < BLOCK_ENTRIES * np.dtype(float).itemsize, (f.__name__, peak)


def test_find_eigenvalues_takes_omega_prime_from_one_batch(problem_file, monkeypatch):
    vp = _fresh(problem_file)
    sizes = []
    batched = eigensolve.omega_derivative

    def counting(problem, lam, **kwargs):
        sizes.append(np.size(lam))
        return batched(problem, lam, **kwargs)

    monkeypatch.setattr(eigensolve, "omega_derivative", counting)
    eigs = find_eigenvalues(vp, 6)
    assert sizes == [6]
    roots = np.array([e.lam for e in eigs])
    assert [e.omega_prime for e in eigs] == omega_derivative(vp, roots).tolist()
    # A scalar lambda is a batch of one.
    assert omega_derivative(vp, roots[2]) == omega_derivative(vp, roots[2:3])[0]
