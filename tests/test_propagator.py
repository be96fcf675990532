"""Per-piece caches of lambda-independent potential data.

A sampled piece builds its cubic spline once, and the Magnus kernel keeps
the potential at its Gauss nodes on the piece per (x0, x1, n_steps). These
tests pin that the caches are built once, stay invisible to equality,
hashing and serialization, and give the same bits as a fresh evaluation.
"""

import numpy as np
import pytest

import sltrans as st
import sltrans.problem
from sltrans.eigensolve import find_eigenvalues
from sltrans.problem import PotentialPiece, load_problem, problem_to_json, save_problem
from sltrans.propagator import _GAUSS_OFFSETS, _piece_node_q


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
