"""The propagation kernel: per-piece caches, cos_sinc and the step ladder.

A sampled piece builds its cubic spline once, and the Magnus kernel keeps
the potential at its Gauss nodes on the piece per (x0, x1, n_steps). These
tests pin that the caches are built once, stay invisible to equality,
hashing and serialization, and give the same bits as a fresh evaluation.
They also pin that cos_sinc gives the same bits whether a branch runs on
the whole array or on a masked part, that NaN in gives NaN out, and that a
ladder which cannot settle says where and at which lambda.
"""

import numpy as np
import pytest

import sltrans as st
import sltrans.problem
from sltrans.eigensolve import find_eigenvalues
from sltrans.problem import PotentialPiece, load_problem, problem_to_json, save_problem
from sltrans.propagator import (_GAUSS_OFFSETS, StepSizeUnderflow, _piece_node_q,
                                cos_sinc, propagate_piece)


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
    for piece in _fresh(problem_file).pieces:
        assert "_spline" not in vars(piece)
        assert piece.memo == {}


def test_one_spline_per_sampled_piece(problem_file, monkeypatch):
    built = []

    class CountingSpline(sltrans.problem.CubicSpline):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sltrans.problem, "CubicSpline", CountingSpline)
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
_ANGLES = np.linspace(-np.pi, np.pi, 40)
COMPLEX_BRANCHES = {
    "hyperbolic": np.geomspace(1e-8, 400.0, 40) * np.exp(1j * _ANGLES),
    "taylor": np.geomspace(1e-12, 9.9e-9, 40) * np.exp(1j * _ANGLES[::-1]),
}


def _bits(pair):
    return [np.asarray(v).tobytes() for v in pair]


@pytest.mark.parametrize("branches", [REAL_BRANCHES, COMPLEX_BRANCHES],
                         ids=["real", "complex"])
def test_whole_array_branch_matches_masked_branch(branches):
    for name, z in branches.items():
        if name == "taylor":
            continue
        others = [v for k, v in branches.items() if k != name]
        mixed = cos_sinc(np.concatenate([z, *others]))
        assert _bits(cos_sinc(z)) == _bits(v[:len(z)] for v in mixed)
        # Magnus batches are 2-D: (steps, lambdas)
        grid = cos_sinc(z.reshape(4, -1))
        assert _bits(grid) == _bits(v.reshape(4, -1) for v in cos_sinc(z))


@pytest.mark.parametrize("branches", [REAL_BRANCHES, COMPLEX_BRANCHES],
                         ids=["real", "complex"])
def test_mixed_array_matches_one_call_per_element(branches):
    z = np.concatenate(list(branches.values()))
    z = z[np.random.default_rng(3).permutation(len(z))]
    C, S = cos_sinc(z)
    for k, zk in enumerate(z):
        Ck, Sk = cos_sinc(zk)
        assert _bits((C[k], S[k])) == _bits((Ck, Sk))


@pytest.mark.parametrize("dtype", [float, complex])
def test_cos_sinc_nan_in_gives_nan_out(dtype):
    # Leave freed buffers of the output's size holding finite junk, so an
    # output slot no branch writes would show it.
    for _ in range(50):
        junk = np.full(4, 5.8e252, dtype=dtype)
        del junk
    z = np.array([np.nan, -1.0, np.nan, 2.0], dtype=dtype)
    with np.errstate(invalid="ignore"):  # complex NaN division warns
        C, S = cos_sinc(z)
        C_all, S_all = cos_sinc(np.full(3, np.nan, dtype=dtype))
    assert np.all(np.isnan(C[[0, 2]])) and np.all(np.isnan(S[[0, 2]]))
    r = np.sqrt(2.0)
    assert [C[1], S[1]] == pytest.approx([np.cos(1.0), np.sin(1.0)], rel=1e-15)
    assert [C[3], S[3]] == pytest.approx([np.cosh(r), np.sinh(r) / r], rel=1e-15)
    assert np.all(np.isnan(C_all)) and np.all(np.isnan(S_all))


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
