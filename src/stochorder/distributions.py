"""Finite-support distributions on the line and the plane.

Univariate and bivariate distributions are stored as sorted atom grids with
nonnegative masses.  All values are immutable after construction and every
operation is pure, so shared instances are safe under concurrent use.

Two numeric regimes coexist:

* float mode (default): masses are float64, totals are accepted within
  ``MASS_TOL`` of 1;
* exact mode: an optional tuple of integer weights accompanies the float
  masses.  Order and TP2 verdicts can then be computed with exact integer
  cross products (no rounding, no division).

The mode picks the numbers a verdict reads (``UnivariateDist.masses`` and
``BivariateDist.cells``); the verdict code itself is shared by both modes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from .errors import DomainError, InvalidDistributionError

#: Allowed deviation of a probability total from 1.
MASS_TOL = 1e-9

#: Absolute slack when testing "G(y) >= alpha" inside quantile lookups.
QUANTILE_ATOL = 1e-12

NEG_INF = float("-inf")
POS_INF = float("inf")

MODE_FLOAT = "float"
MODE_EXACT = "exact"


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Real interval with independently open or closed endpoints.

    Infinite endpoints are permitted only on open sides.
    """

    left: float
    right: float
    left_closed: bool
    right_closed: bool

    def __post_init__(self):
        left = float(self.left)
        right = float(self.right)
        if math.isnan(left) or math.isnan(right):
            raise DomainError("interval endpoints must not be NaN")
        if left > right:
            raise DomainError(f"interval endpoints out of order: {left} > {right}")
        if math.isinf(left) and self.left_closed:
            raise DomainError("-inf endpoint must be open")
        if math.isinf(right) and self.right_closed:
            raise DomainError("+inf endpoint must be open")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    # The four constructors named after their bracket shapes.
    @classmethod
    def open_closed(cls, a, b) -> "Interval":
        """(a, b]"""
        return cls(a, b, False, True)

    @classmethod
    def closed(cls, a, b) -> "Interval":
        """[a, b]"""
        return cls(a, b, True, True)

    @classmethod
    def open(cls, a, b) -> "Interval":
        """(a, b)"""
        return cls(a, b, False, False)

    @classmethod
    def closed_open(cls, a, b) -> "Interval":
        """[a, b)"""
        return cls(a, b, True, False)

    def contains(self, x: float) -> bool:
        lo_ok = x >= self.left if self.left_closed else x > self.left
        hi_ok = x <= self.right if self.right_closed else x < self.right
        return bool(lo_ok and hi_ok)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _merge_pairs(values, masses):
    """Sort atoms and merge duplicates by summing their masses."""
    values = np.asarray(values, dtype=np.float64)
    if len(masses) != values.size:
        raise InvalidDistributionError("support and masses must have equal length")
    order = np.argsort(values, kind="stable")
    values = values[order]
    merged_v: list[float] = []
    merged_m: list = []
    for v, m in zip(values.tolist(), (masses[i] for i in order.tolist())):
        if merged_v and v == merged_v[-1]:
            merged_m[-1] = merged_m[-1] + m
        else:
            merged_v.append(v)
            merged_m.append(m)
    return merged_v, merged_m


def _require_keys(payload, what: str, required: tuple[str, ...], masses: tuple[str, str],
                  rows: bool = False) -> None:
    """Reject a JSON payload that lacks a required key or both mass keys, or
    whose values are not arrays (masses: equal-length arrays of arrays when
    ``rows``)."""
    if not isinstance(payload, dict):
        raise InvalidDistributionError(f"{what} JSON must be an object")
    for key in required:
        if not isinstance(payload.get(key), list):
            raise InvalidDistributionError(f"{what} JSON needs a {key!r} array")
    if all(payload.get(key) is None for key in masses):
        raise InvalidDistributionError(f"{what} JSON needs a {masses[0]!r} or {masses[1]!r} key")
    for key in masses:
        value = payload.get(key)
        if value is not None and not (
            isinstance(value, list) and (not rows or value and all(isinstance(r, list) for r in value)
                                         and len({len(r) for r in value}) == 1)
        ):
            shape = "a nonempty array of equal-length arrays" if rows else "an array"
            raise InvalidDistributionError(f"{what} JSON {key!r} must be {shape}")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def prefix_table(t: np.ndarray) -> np.ndarray:
    """Zero-padded 2-D prefix sums in ``t``'s dtype: entry [i, j] sums t[:i, :j].

    Object arrays of Python ints or Fractions stay exact.
    """
    out = np.zeros((t.shape[0] + 1, t.shape[1] + 1), dtype=t.dtype)
    np.cumsum(np.cumsum(t, axis=0), axis=1, out=out[1:, 1:])
    return out


def _validate_support(values: np.ndarray, what: str) -> None:
    if values.ndim != 1 or values.size == 0:
        raise InvalidDistributionError(f"{what} must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise InvalidDistributionError(f"{what} must be finite")
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise InvalidDistributionError(f"{what} must be strictly increasing")


def _int_weights(weights) -> list[int]:
    """Weights as Python ints; booleans and values that are not integral
    numbers are rejected instead of truncated."""
    weights = list(weights)
    types = set(map(type, weights))
    if types <= {int}:
        return weights
    if bool in types or not all(
        isinstance(w, (int, np.integer)) or isinstance(w, float) and w.is_integer() for w in weights
    ):
        raise InvalidDistributionError("weights must be integers")
    return [int(w) for w in weights]


def _float_masses(values) -> list[float]:
    """Masses as floats; booleans, arrays and non-numeric text are rejected."""
    values = list(values)
    if not {bool, np.bool_} & set(map(type, values)):
        try:
            return [float(v) for v in values]
        except (TypeError, ValueError):
            pass
    raise InvalidDistributionError("masses must be numbers")


def _validate_weights(weights, n: int):
    weights = tuple(_int_weights(weights))
    if len(weights) != n:
        raise InvalidDistributionError("weights length does not match support")
    if any(w < 0 for w in weights):
        raise InvalidDistributionError("weights must be nonnegative integers")
    if sum(weights) <= 0:
        raise InvalidDistributionError("weights must have positive total")
    return weights


# ---------------------------------------------------------------------------
# Univariate distributions / finite measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnivariateDist:
    """Finite-support distribution (or plain finite measure) on the real line.

    ``support`` is strictly increasing; ``probs`` are nonnegative masses.  When
    ``is_probability`` is true the total mass must be 1 within ``MASS_TOL``.
    ``weights`` optionally carries exact integer masses (same atoms, any
    positive total); they feed the exact comparison mode.
    """

    support: np.ndarray
    probs: np.ndarray
    weights: tuple[int, ...] | None = None
    is_probability: bool = True

    # cached cumulative arrays, filled in __post_init__
    _cum: np.ndarray = field(init=False, repr=False)
    _suffix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.float64).copy()
        probs = np.asarray(self.probs, dtype=np.float64).copy()
        _validate_support(support, "support")
        if probs.shape != support.shape:
            raise InvalidDistributionError("support and probs must have equal length")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise InvalidDistributionError("probs must be finite and >= 0")
        total = float(probs.sum())
        if self.is_probability and abs(total - 1.0) > MASS_TOL:
            raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
        weights = self.weights
        if weights is not None:
            weights = _validate_weights(weights, support.size)
            wt = sum(weights)
            if any(abs(w / wt - p) > MASS_TOL for w, p in zip(weights, probs.tolist())):
                raise InvalidDistributionError("weights do not match probs")
        object.__setattr__(self, "support", _freeze(support))
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_cum", _freeze(np.cumsum(probs)))
        object.__setattr__(self, "_suffix", _freeze(np.cumsum(probs[::-1])[::-1].copy()))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_pairs(cls, values, probs, *, is_probability: bool = True) -> "UnivariateDist":
        """Build from unsorted (value, mass) data; duplicates are merged."""
        vals, masses = _merge_pairs(values, _float_masses(probs))
        return cls(np.array(vals), np.array(masses), None, is_probability)

    @classmethod
    def from_weights(cls, values, weights, *, is_probability: bool = True) -> "UnivariateDist":
        """Build from integer weights; float probs are the normalized weights."""
        vals, ws = _merge_pairs(values, _int_weights(weights))
        ws = _validate_weights(ws, len(vals))
        total = sum(ws)
        probs = np.array([w / total for w in ws], dtype=np.float64)
        return cls(np.array(vals), probs, ws, is_probability)

    @classmethod
    def delta(cls, x: float) -> "UnivariateDist":
        return cls(np.array([float(x)]), np.array([1.0]), (1,))

    @classmethod
    def from_dict(cls, payload: dict, *, exact: bool = False) -> "UnivariateDist":
        _require_keys(payload, "univariate", ("support",), ("probs", "weights"))
        if "weights" in payload and payload["weights"] is not None:
            return cls.from_weights(payload["support"], payload["weights"])
        if exact:
            ws = _weights_from_decimal_strings(payload["probs"])
            return cls.from_weights(payload["support"], ws)
        return cls.from_pairs(payload["support"], payload["probs"])

    def to_dict(self) -> dict:
        payload = {"support": self.support.tolist(), "probs": self.probs.tolist()}
        if self.weights is not None:
            payload["weights"] = list(self.weights)
        return payload

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.support.size)

    @property
    def total_mass(self) -> float:
        return float(self._cum[-1])

    @property
    def total_weight(self) -> int:
        if self.weights is None:
            raise DomainError("distribution carries no integer weights")
        return sum(self.weights)

    def canonical(self) -> "UnivariateDist":
        """Drop zero-mass atoms (duplicates are already merged on construction)."""
        if self.weights is not None:
            keep = [i for i, w in enumerate(self.weights) if w > 0]
            if len(keep) == len(self.weights):
                return self
            return UnivariateDist(
                self.support[keep],
                self.probs[keep],
                tuple(self.weights[i] for i in keep),
                self.is_probability,
            )
        keep = self.probs > 0
        if bool(keep.all()):
            return self
        if not keep.any():
            raise InvalidDistributionError("no positive mass left after canonicalization")
        return UnivariateDist(self.support[keep], self.probs[keep], None, self.is_probability)

    def atom_prob(self, x: float) -> float:
        i = np.searchsorted(self.support, x)
        if i < len(self) and self.support[i] == x:
            return float(self.probs[i])
        return 0.0

    def masses(self, mode: str) -> list:
        """Atom masses in the numbers of the comparison mode: the integer
        weights in exact mode, the float probs otherwise."""
        if mode != MODE_EXACT:
            return self.probs.tolist()
        if self.weights is None:
            raise DomainError("exact mode requires integer weights")
        return list(self.weights)

    def fractions(self) -> list[Fraction]:
        """Exact normalized masses; requires integer weights."""
        total = self.total_weight
        return [Fraction(w, total) for w in self.weights]

    # -- distribution function machinery ------------------------------------

    def cdf(self, y: float) -> float:
        """Mass of (-inf, y]; right-continuous step function."""
        i = int(np.searchsorted(self.support, y, side="right"))
        return 0.0 if i == 0 else float(self._cum[i - 1])

    def survival(self, y: float) -> float:
        """Mass of (y, inf), accumulated from the top for tail accuracy."""
        i = int(np.searchsorted(self.support, y, side="right"))
        return 0.0 if i == len(self) else float(self._suffix[i])

    def quantile(self, alpha: float) -> float:
        """min{y in [-inf, inf] : cdf(y) >= alpha}.

        alpha = 0 yields -inf.  The ">=" is taken with absolute slack
        ``QUANTILE_ATOL``; a total mass short of ``alpha`` by more than
        ``MASS_TOL`` yields +inf.
        """
        alpha = float(alpha)
        if math.isnan(alpha) or alpha < 0.0 or alpha > 1.0:
            raise DomainError(f"quantile level must lie in [0, 1], got {alpha!r}")
        if alpha <= 0.0:
            return NEG_INF
        i = int(np.searchsorted(self._cum, alpha - QUANTILE_ATOL, side="left"))
        if i < len(self):
            return float(self.support[i])
        if alpha - self.total_mass <= MASS_TOL:
            return float(self.support[-1])
        return POS_INF

    def max_quantile(self, alpha: float) -> float:
        """max{y : mass strictly below y <= alpha} (for alpha in (0, 1))."""
        alpha = float(alpha)
        if math.isnan(alpha) or alpha < 0.0 or alpha > 1.0:
            raise DomainError(f"quantile level must lie in [0, 1], got {alpha!r}")
        i = int(np.searchsorted(self._cum, alpha + QUANTILE_ATOL, side="right"))
        if i < len(self):
            return float(self.support[i])
        return float(self.support[-1])

    # -- interval masses ----------------------------------------------------

    def _interval_slice(self, iv: Interval) -> tuple[int, int]:
        lo = int(np.searchsorted(self.support, iv.left, side="left" if iv.left_closed else "right"))
        hi = int(np.searchsorted(self.support, iv.right, side="right" if iv.right_closed else "left"))
        return lo, max(lo, hi)

    def interval_mass(self, iv: Interval) -> float:
        lo, hi = self._interval_slice(iv)
        if lo == hi:
            return 0.0
        base = 0.0 if lo == 0 else float(self._cum[lo - 1])
        return float(self._cum[hi - 1]) - base

    def interval_weight(self, iv: Interval) -> int:
        if self.weights is None:
            raise DomainError("distribution carries no integer weights")
        lo, hi = self._interval_slice(iv)
        return sum(self.weights[lo:hi])

    def normalized(self) -> "UnivariateDist":
        """Renormalize a positive finite measure into a probability."""
        total = self.total_mass
        if total <= 0:
            raise DomainError("cannot normalize a zero measure")
        return UnivariateDist(self.support, self.probs / total, self.weights, True)


def left_support(q: UnivariateDist) -> tuple[float, ...]:
    """Atoms carrying positive mass; for finite support these exhaust the mass."""
    return tuple(q.canonical().support.tolist())


# ---------------------------------------------------------------------------
# Bivariate distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BivariateDist:
    """Finite-support distribution on the plane as an atom-grid pmf matrix."""

    x_support: np.ndarray
    y_support: np.ndarray
    pmf: np.ndarray
    weights: tuple[tuple[int, ...], ...] | None = None
    is_probability: bool = True

    def __post_init__(self):
        xs = np.asarray(self.x_support, dtype=np.float64).copy()
        ys = np.asarray(self.y_support, dtype=np.float64).copy()
        pmf = np.asarray(self.pmf, dtype=np.float64).copy()
        _validate_support(xs, "x_support")
        _validate_support(ys, "y_support")
        if pmf.shape != (xs.size, ys.size):
            raise InvalidDistributionError(
                f"pmf shape {pmf.shape} does not match supports ({xs.size}, {ys.size})"
            )
        if not np.all(np.isfinite(pmf)) or np.any(pmf < 0):
            raise InvalidDistributionError("pmf entries must be finite and >= 0")
        total = float(pmf.sum())
        if self.is_probability and abs(total - 1.0) > MASS_TOL:
            raise InvalidDistributionError(f"pmf sums to {total!r}, not 1")
        weights = self.weights
        if weights is not None:
            weights = tuple(tuple(_int_weights(row)) for row in weights)
            if len(weights) != xs.size or any(len(r) != ys.size for r in weights):
                raise InvalidDistributionError("weights shape does not match supports")
            if any(w < 0 for row in weights for w in row):
                raise InvalidDistributionError("weights must be nonnegative integers")
            wt = sum(w for row in weights for w in row)
            if wt <= 0:
                raise InvalidDistributionError("weights must have positive total")
            if any(
                abs(w / wt - p) > MASS_TOL
                for row, prow in zip(weights, pmf.tolist())
                for w, p in zip(row, prow)
            ):
                raise InvalidDistributionError("weights do not match pmf")
        object.__setattr__(self, "x_support", _freeze(xs))
        object.__setattr__(self, "y_support", _freeze(ys))
        object.__setattr__(self, "pmf", _freeze(pmf))
        object.__setattr__(self, "weights", weights)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(cls, xs, ys, masses, *, is_probability: bool = True) -> "BivariateDist":
        """Build from long-form (x, y, mass) triples; duplicate cells are summed."""
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        masses = _float_masses(masses)
        if not (len(xs) == len(ys) == len(masses)):
            raise InvalidDistributionError("x, y and mass columns must have equal length")
        gx = sorted(set(xs))
        gy = sorted(set(ys))
        ix = {v: i for i, v in enumerate(gx)}
        iy = {v: j for j, v in enumerate(gy)}
        pmf = np.zeros((len(gx), len(gy)))
        for x, y, m in zip(xs, ys, masses):
            pmf[ix[x], iy[y]] += m
        return cls(np.array(gx), np.array(gy), pmf, None, is_probability)

    @classmethod
    def from_weights(cls, x_support, y_support, weights, *, is_probability: bool = True) -> "BivariateDist":
        rows = [_int_weights(row) for row in weights]
        total = sum(sum(row) for row in rows)
        if total <= 0:
            raise InvalidDistributionError("weights must have positive total")
        pmf = np.array([[w / total for w in row] for row in rows], dtype=np.float64)
        return cls(
            np.asarray(x_support, dtype=np.float64),
            np.asarray(y_support, dtype=np.float64),
            pmf,
            tuple(tuple(row) for row in rows),
            is_probability,
        )

    @classmethod
    def from_dict(cls, payload: dict, *, exact: bool = False) -> "BivariateDist":
        _require_keys(payload, "bivariate", ("x_support", "y_support"), ("pmf", "weights"), rows=True)
        if "weights" in payload and payload["weights"] is not None:
            return cls.from_weights(payload["x_support"], payload["y_support"], payload["weights"])
        pmf = payload["pmf"]
        if exact:
            flat = [v for row in pmf for v in row]
            ws = _weights_from_decimal_strings(flat)
            m = len(pmf[0])
            rows = [ws[i * m : (i + 1) * m] for i in range(len(pmf))]
            return cls.from_weights(payload["x_support"], payload["y_support"], rows)
        pmf = np.array([_float_masses(row) for row in pmf])
        return cls(payload["x_support"], payload["y_support"], pmf)

    def to_dict(self) -> dict:
        payload = {
            "x_support": self.x_support.tolist(),
            "y_support": self.y_support.tolist(),
            "pmf": self.pmf.tolist(),
        }
        if self.weights is not None:
            payload["weights"] = [list(r) for r in self.weights]
        return payload

    # -- structure ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.x_support.size), int(self.y_support.size))

    @property
    def total_mass(self) -> float:
        return float(self.pmf.sum())

    @property
    def total_weight(self) -> int:
        if self.weights is None:
            raise DomainError("distribution carries no integer weights")
        return sum(w for row in self.weights for w in row)

    def cells(self, mode: str) -> np.ndarray:
        """Cell masses in the numbers of the comparison mode: an object array
        of the integer weights in exact mode, the float pmf otherwise."""
        if mode != MODE_EXACT:
            return self.pmf
        if self.weights is None:
            raise DomainError("exact mode requires integer weights")
        return np.array(self.weights, dtype=object)

    def canonical(self) -> "BivariateDist":
        """Drop x-atoms with zero row mass and y-atoms with zero column mass."""
        if self.weights is not None:
            rows = [i for i, r in enumerate(self.weights) if sum(r) > 0]
            cols = [j for j in range(self.shape[1]) if sum(r[j] for r in self.weights) > 0]
            if len(rows) == self.shape[0] and len(cols) == self.shape[1]:
                return self
            ws = tuple(tuple(self.weights[i][j] for j in cols) for i in rows)
            return BivariateDist(
                self.x_support[rows], self.y_support[cols],
                self.pmf[np.ix_(rows, cols)], ws, self.is_probability,
            )
        rows = self.pmf.sum(axis=1) > 0
        cols = self.pmf.sum(axis=0) > 0
        if bool(rows.all()) and bool(cols.all()):
            return self
        if not rows.any():
            raise InvalidDistributionError("no positive mass left after canonicalization")
        return BivariateDist(
            self.x_support[rows], self.y_support[cols],
            self.pmf[np.ix_(np.flatnonzero(rows), np.flatnonzero(cols))],
            None, self.is_probability,
        )

    # -- marginals, conditionals, range --------------------------------------

    def marginal_x(self) -> UnivariateDist:
        if self.weights is not None:
            return UnivariateDist.from_weights(
                self.x_support, [sum(r) for r in self.weights],
                is_probability=self.is_probability,
            ).canonical()
        return UnivariateDist.from_pairs(
            self.x_support, self.pmf.sum(axis=1), is_probability=self.is_probability
        ).canonical()

    def marginal_y(self) -> UnivariateDist:
        if self.weights is not None:
            cols = [sum(r[j] for r in self.weights) for j in range(self.shape[1])]
            return UnivariateDist.from_weights(
                self.y_support, cols, is_probability=self.is_probability
            ).canonical()
        return UnivariateDist.from_pairs(
            self.y_support, self.pmf.sum(axis=0), is_probability=self.is_probability
        ).canonical()

    def conditional_row(self, x: float) -> UnivariateDist:
        """Conditional distribution of the second coordinate given the first equals x."""
        i = int(np.searchsorted(self.x_support, x))
        if i == self.shape[0] or self.x_support[i] != x:
            raise DomainError(f"{x!r} is not an atom of the first marginal")
        row = self.pmf[i]
        mass = float(row.sum())
        if mass <= 0.0:
            raise DomainError(f"first-marginal atom {x!r} has zero mass")
        if self.weights is not None:
            return UnivariateDist.from_weights(self.y_support, self.weights[i]).canonical()
        return UnivariateDist.from_pairs(self.y_support, row / mass).canonical()

    def range_x(self) -> Interval:
        """Smallest closed interval carrying all first-marginal mass."""
        rows = np.flatnonzero(self.pmf.sum(axis=1) > 0)
        if rows.size == 0:
            raise InvalidDistributionError("all first-marginal mass is zero")
        return Interval.closed(float(self.x_support[rows[0]]), float(self.x_support[rows[-1]]))

    # -- rectangle masses -----------------------------------------------------

    def rect_prob(self, ix: Interval, iy: Interval) -> float:
        """Mass of the rectangle, summed over its cell block (an empty block is 0.0)."""
        lo_i = int(np.searchsorted(self.x_support, ix.left, side="left" if ix.left_closed else "right"))
        hi_i = int(np.searchsorted(self.x_support, ix.right, side="right" if ix.right_closed else "left"))
        lo_j = int(np.searchsorted(self.y_support, iy.left, side="left" if iy.left_closed else "right"))
        hi_j = int(np.searchsorted(self.y_support, iy.right, side="right" if iy.right_closed else "left"))
        return float(self.pmf[lo_i:hi_i, lo_j:hi_j].sum())


def marginals(r: BivariateDist) -> tuple[UnivariateDist, UnivariateDist]:
    return r.marginal_x(), r.marginal_y()


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _weights_from_decimal_strings(values) -> list[int]:
    """Exact integer weights from decimal text (used by the CLI exact mode)."""
    try:
        fracs = [Fraction(Decimal(str(v))) for v in values]
    except (InvalidOperation, OverflowError, ValueError):
        raise InvalidDistributionError("masses must be finite decimal numbers") from None
    if any(f < 0 for f in fracs):
        raise InvalidDistributionError("masses must be nonnegative")
    denom = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [int(f * denom) for f in fracs]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_univariate_csv(q: UnivariateDist, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "prob"])
        for v, p in zip(q.support.tolist(), q.probs.tolist()):
            writer.writerow([_fmt(v), _fmt(p)])


def _csv_columns(path, header: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The text columns of a CSV file with the given header (names compared
    stripped).  Blank lines are skipped; a row with missing or extra fields
    is rejected."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows or [f.strip() for f in rows[0]] != list(header):
        raise InvalidDistributionError(f"{path}: expected header {','.join(header)!r}")
    if any(len(row) != len(header) for row in rows[1:]):
        raise InvalidDistributionError(f"{path}: every row needs {len(header)} fields")
    return list(zip(*rows[1:])) or [()] * len(header)


def read_univariate_csv(path, *, exact: bool = False) -> UnivariateDist:
    values, probs = _csv_columns(path, ("value", "prob"))
    values = [float(v) for v in values]
    if exact:
        return UnivariateDist.from_weights(values, _weights_from_decimal_strings(probs))
    return UnivariateDist.from_pairs(values, probs)


def write_bivariate_csv(r: BivariateDist, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "prob"])
        for i, x in enumerate(r.x_support.tolist()):
            for j, y in enumerate(r.y_support.tolist()):
                p = float(r.pmf[i, j])
                if p > 0.0:
                    writer.writerow([_fmt(x), _fmt(y), _fmt(p)])


def read_bivariate_csv(path, *, exact: bool = False) -> BivariateDist:
    xs, ys, probs = _csv_columns(path, ("x", "y", "prob"))
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if exact:
        ws = _weights_from_decimal_strings(probs)
        gx = sorted(set(xs))
        gy = sorted(set(ys))
        ix = {v: i for i, v in enumerate(gx)}
        iy = {v: j for j, v in enumerate(gy)}
        rows = [[0] * len(gy) for _ in gx]
        for x, y, w in zip(xs, ys, ws):
            rows[ix[x]][iy[y]] += w
        return BivariateDist.from_weights(gx, gy, rows)
    return BivariateDist.from_pairs(xs, ys, probs)


def write_univariate_json(q: UnivariateDist, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(q.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_bivariate_json(r: BivariateDist, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(r.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_univariate(path, *, exact: bool = False) -> UnivariateDist:
    path = str(path)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return UnivariateDist.from_dict(json.load(fh), exact=exact)
    return read_univariate_csv(path, exact=exact)


def load_bivariate(path, *, exact: bool = False) -> BivariateDist:
    path = str(path)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return BivariateDist.from_dict(json.load(fh), exact=exact)
    return read_bivariate_csv(path, exact=exact)
