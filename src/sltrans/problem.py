"""Problem definition, validation, and classification.

A problem on [-1, 1] consists of a piecewise potential q, interior
interface points h_1 < ... < h_m where the solution jumps by fixed
factors delta_i, a left boundary condition alpha_1*u(-1) + alpha_2*u'(-1) = 0,
and a right boundary condition whose coefficients are affine in the
spectral parameter:

    (lambda*beta_1' + beta_1) u(1) - (lambda*beta_2' + beta_2) u'(1) = 0.

The admissibility constant rho = beta_1'*beta_2 - beta_1*beta_2' must be
positive; it is what makes the lambda-dependent condition compatible with a
symmetric operator formulation (see :mod:`sltrans.hilbert`).

Everything downstream consumes a :class:`ValidatedProblem`, which caches the
derived quantities (rho, the subinterval weight chain, breakpoints).

Each :class:`PotentialPiece` also keeps data it derives from its fields
and its use: a sampled piece builds its cubic spline
(:class:`sltrans.spline.CubicSpline`, numpy only) once, on first use;
:attr:`PotentialPiece.memo` holds the potential at the Magnus nodes of each
step count the propagator has used, and the propagator reads its Magnus
warm start off the largest of those counts. :attr:`ValidatedProblem.memo`
keeps the sample points of eigenpair assembly. All of them live in the
instance and die with it; they are not fields, so equality, hashing and
the JSON form ignore them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .spline import CubicSpline


class ProblemError(ValueError):
    """Base class for problem definition errors."""


class RhoNotPositive(ProblemError):
    """beta_1'*beta_2 - beta_1*beta_2' must be strictly positive."""


class ZeroJumpFactor(ProblemError):
    """Every interface jump factor delta_i must be nonzero."""


class DegenerateLeftBC(ProblemError):
    """alpha_1 and alpha_2 must not both vanish."""


class UnorderedInterfaces(ProblemError):
    """Interfaces must satisfy -1 < h_1 < ... < h_m < 1."""


class OutOfDomain(ProblemError):
    """Evaluation point lies outside [-1, 1]."""


class AsymptoticCase(Enum):
    """Structural case of the eigenvalue asymptotics.

    The value is the flag pair (beta_2' != 0, alpha_2 != 0). beta_2'
    decides whether the right boundary form keeps its lambda*u'(1) term,
    alpha_2 whether the left-shot solution is cosine-like or sine-like;
    :mod:`sltrans.asymptotics` derives every case formula from the pair.
    """

    CASE1 = (True, True)    # beta_2' != 0, alpha_2 != 0
    CASE2 = (True, False)   # beta_2' != 0, alpha_2 == 0
    CASE3 = (False, True)   # beta_2' == 0, alpha_2 != 0
    CASE4 = (False, False)  # beta_2' == 0, alpha_2 == 0


# ----------------------------------------------------------------------
# Potential representation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialPiece:
    """Potential descriptor on one subinterval.

    kind 'constant' uses `value`; 'polynomial' uses `coeffs` (ascending
    powers of x, global coordinate); 'sampled' uses the grid `x`/`values`
    with the not-a-knot cubic spline of :mod:`sltrans.spline`, which gives
    SciPy's ``CubicSpline`` bits without SciPy. The sample grid must cover
    the subinterval the piece serves (:func:`validate_problem` checks it).

    The spline is built on first use and kept. :attr:`memo` keeps the
    potential at the Magnus nodes per (x0, x1, n_steps); the largest
    n_steps on (x0, x1) is where the propagator's next ladder there starts
    (:func:`sltrans.propagator.memo_steps`). Both are per-instance caches
    outside the fields, so ``==``, ``hash`` and :func:`problem_to_json` do
    not see them.
    """

    kind: str
    value: float = 0.0
    coeffs: tuple = ()
    x: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "polynomial", "sampled"):
            raise ProblemError(f"unknown potential piece kind {self.kind!r}")
        if self.kind == "polynomial" and len(self.coeffs) == 0:
            object.__setattr__(self, "coeffs", (0.0,))
        if self.kind == "constant" and not np.isfinite(float(self.value)):
            raise ProblemError("constant piece value must be finite")
        if self.kind == "polynomial" and not np.all(np.isfinite(np.asarray(self.coeffs, float))):
            raise ProblemError("polynomial piece coefficients must be finite")
        if self.kind == "sampled":
            xs = np.asarray(self.x, dtype=float)
            vs = np.asarray(self.values, dtype=float)
            if xs.size < 2 or xs.size != vs.size:
                raise ProblemError("sampled piece needs matching x/values grids (>= 2 points)")
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
                raise ProblemError("sampled piece grid and values must be finite")
            if np.any(np.diff(xs) <= 0):
                raise ProblemError("sampled piece grid must be strictly increasing")

    @cached_property
    def _spline(self) -> CubicSpline:
        # Kept per piece: a solve evaluates q many times, and each build
        # is a tridiagonal solve over the knots.
        return CubicSpline(self.x, self.values)

    @cached_property
    def memo(self) -> dict:
        """Magnus node potentials of this piece, filled by the propagator."""
        return {}

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant" or (
            self.kind == "polynomial" and len(self.coeffs) == 1
        )

    @property
    def constant_value(self) -> float:
        if self.kind == "constant":
            return float(self.value)
        if self.kind == "polynomial" and len(self.coeffs) == 1:
            return float(self.coeffs[0])
        raise ProblemError("piece is not constant")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, float(self.value))
        if self.kind == "polynomial":
            return npoly.polyval(x, np.asarray(self.coeffs, float))
        return self._spline(x)

    def integral(self, a: float, b: float) -> float:
        """Integral over [a, b]: exact for constant and polynomial pieces,
        and the spline's exact integral for sampled ones."""
        if self.kind == "constant":
            return float(self.value) * (b - a)
        if self.kind == "polynomial":
            anti = npoly.polyint(np.asarray(self.coeffs, float))
            return float(npoly.polyval(b, anti) - npoly.polyval(a, anti))
        return self._spline.integrate(a, b)

    def magnitude_bound(self, a: float, b: float) -> float:
        """Upper bound for max |q| on [a, b].

        Exact for constant and polynomial pieces (endpoints plus interior
        critical points); sampled pieces are scanned on a fine grid with a
        5% safety factor for between-sample spline wiggle.
        """
        if self.kind == "constant":
            return abs(float(self.value))
        if self.kind == "polynomial":
            coeffs = np.asarray(self.coeffs, float)
            candidates = [a, b]
            deriv = np.trim_zeros(npoly.polyder(coeffs), "b")
            if len(deriv) >= 2:
                for r in npoly.polyroots(deriv):
                    if abs(r.imag) < 1e-12 and a <= r.real <= b:
                        candidates.append(float(r.real))
            return float(np.max(np.abs(npoly.polyval(np.asarray(candidates),
                                                     coeffs))))
        xs = np.linspace(a, b, 129)
        return 1.05 * float(np.max(np.abs(self.evaluate(xs))))


@dataclass(frozen=True)
class PiecewisePotential:
    """Potential on [-1, 1] given piece-by-piece.

    `pieces` may hold a single descriptor (replicated over every
    subinterval) or exactly one descriptor per subinterval.
    """

    pieces: tuple[PotentialPiece, ...]

    @classmethod
    def constant(cls, value: float) -> "PiecewisePotential":
        return cls((PotentialPiece("constant", value=float(value)),))

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "PiecewisePotential":
        return cls((PotentialPiece("polynomial", coeffs=tuple(float(c) for c in coeffs)),))

    @classmethod
    def from_pieces(cls, pieces: Sequence[PotentialPiece]) -> "PiecewisePotential":
        return cls(tuple(pieces))

    def resolve(self, n_subintervals: int) -> tuple[PotentialPiece, ...]:
        if len(self.pieces) == 1:
            return self.pieces * n_subintervals
        if len(self.pieces) != n_subintervals:
            raise ProblemError(
                f"potential has {len(self.pieces)} pieces but the problem has "
                f"{n_subintervals} subintervals"
            )
        return self.pieces


# ----------------------------------------------------------------------
# Problem spec and validation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Raw problem parameters as entered by the user."""

    potential: PiecewisePotential
    interfaces: tuple[float, ...] = ()
    jumps: tuple[float, ...] = ()
    alpha: tuple[float, float] = (1.0, 0.0)
    beta: tuple[float, float] = (0.0, 1.0)
    beta_prime: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "interfaces", tuple(float(h) for h in self.interfaces))
        object.__setattr__(self, "jumps", tuple(float(d) for d in self.jumps))
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "beta_prime", tuple(float(b) for b in self.beta_prime))


@dataclass(frozen=True)
class ValidatedProblem:
    """A checked problem with derived quantities cached.

    weights[j] is the inner-product weight of subinterval j:
    w_0 = 1, w_{j+1} = w_j * delta_{j+1}^2. Immutable; safe to share.
    """

    spec: ProblemSpec
    rho: float
    weights: tuple[float, ...]
    breakpoints: tuple[float, ...]
    pieces: tuple[PotentialPiece, ...]

    @cached_property
    def memo(self) -> dict:
        """Lambda-independent points of eigenpair assembly, filled by
        :mod:`sltrans.eigensolve`; outside the fields, like
        :attr:`PotentialPiece.memo`."""
        return {}

    # -- convenience accessors -------------------------------------------
    @property
    def m(self) -> int:
        return len(self.spec.interfaces)

    @property
    def interfaces(self) -> tuple[float, ...]:
        return self.spec.interfaces

    @property
    def jumps(self) -> tuple[float, ...]:
        return self.spec.jumps

    @property
    def alpha1(self) -> float:
        return self.spec.alpha[0]

    @property
    def alpha2(self) -> float:
        return self.spec.alpha[1]

    @property
    def beta1(self) -> float:
        return self.spec.beta[0]

    @property
    def beta2(self) -> float:
        return self.spec.beta[1]

    @property
    def beta1p(self) -> float:
        return self.spec.beta_prime[0]

    @property
    def beta2p(self) -> float:
        return self.spec.beta_prime[1]

    @property
    def delta_prod(self) -> float:
        out = 1.0
        for d in self.spec.jumps:
            out *= d
        return out

    @property
    def delta_sq_prod(self) -> float:
        return self.weights[-1]

    def subintervals(self) -> list[tuple[float, float]]:
        bp = self.breakpoints
        return [(bp[j], bp[j + 1]) for j in range(len(bp) - 1)]

    def max_potential_bound(self) -> float:
        out = 0.0
        for (a, b), piece in zip(self.subintervals(), self.pieces):
            out = max(out, piece.magnitude_bound(a, b))
        return out


def validate_problem(spec: ProblemSpec) -> ValidatedProblem:
    """Check all structural assumptions and cache derived quantities.

    Raises the error naming the violated assumption: RhoNotPositive,
    ZeroJumpFactor, DegenerateLeftBC, or UnorderedInterfaces; and
    ProblemError for jump factors whose weights w_j overflow or underflow,
    and for a sampled piece whose grid does not cover its subinterval,
    where the spline would extrapolate.
    """
    a1, a2 = spec.alpha
    if a1 == 0.0 and a2 == 0.0:
        raise DegenerateLeftBC("alpha_1 and alpha_2 are both zero")
    for v in (*spec.alpha, *spec.beta, *spec.beta_prime, *spec.interfaces, *spec.jumps):
        if not np.isfinite(v):
            raise ProblemError("all problem parameters must be finite")

    if len(spec.jumps) != len(spec.interfaces):
        raise ProblemError(
            f"{len(spec.interfaces)} interfaces but {len(spec.jumps)} jump factors"
        )
    for d in spec.jumps:
        if d == 0.0:
            raise ZeroJumpFactor("every jump factor delta_i must be nonzero")

    hs = spec.interfaces
    if any(not (-1.0 < h < 1.0) for h in hs):
        raise UnorderedInterfaces("interfaces must lie strictly inside (-1, 1)")
    if any(hs[i] >= hs[i + 1] for i in range(len(hs) - 1)):
        raise UnorderedInterfaces("interfaces must be strictly increasing")

    b1, b2 = spec.beta
    b1p, b2p = spec.beta_prime
    rho = b1p * b2 - b1 * b2p
    if not rho > 0.0:
        raise RhoNotPositive(f"beta_1'*beta_2 - beta_1*beta_2' = {rho} must be > 0")

    weights = [1.0]
    for d in spec.jumps:
        weights.append(weights[-1] * d * d)
    if not all(0.0 < w < np.inf for w in weights):
        raise ProblemError(f"jump factors {spec.jumps} give an interval weight "
                           "that is not a finite nonzero double")

    breakpoints = (-1.0, *hs, 1.0)
    pieces = spec.potential.resolve(len(hs) + 1)
    for a, b, piece in zip(breakpoints[:-1], breakpoints[1:], pieces):
        if piece.kind == "sampled" and (piece.x[0] > a or piece.x[-1] < b):
            raise ProblemError(f"sampled piece grid [{piece.x[0]}, {piece.x[-1]}] "
                               f"does not cover its subinterval [{a}, {b}]")
    return ValidatedProblem(
        spec=spec,
        rho=float(rho),
        weights=tuple(weights),
        breakpoints=breakpoints,
        pieces=pieces,
    )


def as_validated(problem) -> ValidatedProblem:
    """Accept either a raw ProblemSpec or an already validated problem."""
    if isinstance(problem, ValidatedProblem):
        return problem
    return validate_problem(problem)


def classify_case(problem) -> AsymptoticCase:
    """Classify the asymptotic case from (beta_2' != 0, alpha_2 != 0).

    The comparison is exact: the case is structural and the coefficients
    are user inputs, not computed quantities.
    """
    vp = as_validated(problem)
    return AsymptoticCase((vp.beta2p != 0.0, vp.alpha2 != 0.0))


def potential_moments(problem) -> dict:
    """{"I0": the integral of q over [-1, 1]}, piece by piece
    (:meth:`PotentialPiece.integral`)."""
    vp = as_validated(problem)
    total = 0.0
    for (a, b), piece in zip(vp.subintervals(), vp.pieces):
        total += piece.integral(a, b)
    return {"I0": total}


# ----------------------------------------------------------------------
# JSON serialization
# ----------------------------------------------------------------------
#
# Numbers are written as repr() decimal strings so that a dump/load cycle
# reproduces every float bit-exactly. The loader also accepts plain JSON
# numbers.

def _num_out(v: float) -> str:
    return repr(float(v))


def _num_in(v) -> float:
    if isinstance(v, (str, int, float)):
        try:
            return float(v)
        except ValueError:
            pass
    raise ProblemError(f"expected a number or decimal string, got {v!r}")


def _key(obj: dict, key: str, where: str):
    if key not in obj:
        raise ProblemError(f"{where} is missing key {key!r}")
    return obj[key]


def _list(obj: dict, key: str, where: str) -> list:
    values = _key(obj, key, where)
    if not isinstance(values, list):
        raise ProblemError(f"key {key!r} must hold a list, got {values!r}")
    return values


def _nums_in(obj: dict, key: str, where: str) -> tuple:
    return tuple(_num_in(v) for v in _list(obj, key, where))


def _piece_to_json(piece: PotentialPiece) -> dict:
    if piece.kind == "constant":
        return {"kind": "constant", "value": _num_out(piece.value)}
    if piece.kind == "polynomial":
        return {"kind": "polynomial", "coeffs": [_num_out(c) for c in piece.coeffs]}
    return {
        "kind": "sampled",
        "x": [_num_out(v) for v in piece.x],
        "values": [_num_out(v) for v in piece.values],
    }


def _piece_from_json(obj: dict) -> PotentialPiece:
    if not isinstance(obj, dict):
        raise ProblemError(f"a potential piece must be an object, got {obj!r}")
    kind = obj.get("kind")
    where = f"{kind} piece"
    if kind == "constant":
        return PotentialPiece("constant", value=_num_in(_key(obj, "value", where)))
    if kind == "polynomial":
        return PotentialPiece("polynomial", coeffs=_nums_in(obj, "coeffs", where))
    if kind == "sampled":
        return PotentialPiece("sampled", x=_nums_in(obj, "x", where),
                              values=_nums_in(obj, "values", where))
    raise ProblemError(f"unknown potential kind {kind!r}")


def problem_to_json(spec: ProblemSpec) -> dict:
    pot = spec.potential
    if len(pot.pieces) == 1:
        potential = _piece_to_json(pot.pieces[0])
    else:
        potential = {"kind": "piecewise", "pieces": [_piece_to_json(p) for p in pot.pieces]}
    return {
        "potential": potential,
        "interfaces": [_num_out(h) for h in spec.interfaces],
        "jumps": [_num_out(d) for d in spec.jumps],
        "alpha": [_num_out(a) for a in spec.alpha],
        "beta": [_num_out(b) for b in spec.beta],
        "beta_prime": [_num_out(b) for b in spec.beta_prime],
    }


def problem_from_json(obj: dict) -> ProblemSpec:
    if not isinstance(obj, dict):
        raise ProblemError(f"a problem must be a JSON object, got {obj!r}")
    for key in ("potential", "interfaces", "jumps", "alpha", "beta", "beta_prime"):
        _key(obj, key, "problem file")
    pot_obj = obj["potential"]
    if not isinstance(pot_obj, dict) or "kind" not in pot_obj:
        raise ProblemError("key 'potential' must be a tagged object with a 'kind'")
    if pot_obj["kind"] == "piecewise":
        pieces = _list(pot_obj, "pieces", "piecewise potential")
        potential = PiecewisePotential.from_pieces([_piece_from_json(p) for p in pieces])
    else:
        potential = PiecewisePotential((_piece_from_json(pot_obj),))
    alpha = _nums_in(obj, "alpha", "problem file")
    beta = _nums_in(obj, "beta", "problem file")
    beta_prime = _nums_in(obj, "beta_prime", "problem file")
    if len(alpha) != 2 or len(beta) != 2 or len(beta_prime) != 2:
        raise ProblemError("keys 'alpha', 'beta', 'beta_prime' must each hold two numbers")
    return ProblemSpec(
        potential=potential,
        interfaces=_nums_in(obj, "interfaces", "problem file"),
        jumps=_nums_in(obj, "jumps", "problem file"),
        alpha=alpha,
        beta=beta,
        beta_prime=beta_prime,
    )


def save_problem(spec: ProblemSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_json(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemError(f"malformed problem JSON: {exc}") from exc
    return problem_from_json(obj)
