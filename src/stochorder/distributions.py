"""Finite-support distributions on the line and the plane.

Univariate and bivariate distributions are stored as sorted atom grids with
nonnegative masses.  All values are immutable after construction and every
operation is pure, so shared instances are safe under concurrent use.

Two numeric regimes coexist:

* float mode (default): masses are float64, totals are accepted within
  ``MASS_TOL`` of 1;
* exact mode: integer weights accompany the float masses, stored as one
  read-only object array of Python ints shaped like them (``to_dict`` writes
  them as lists).  Order and TP2 verdicts can then be computed with exact
  integer cross products (no rounding, no division).

Each distribution knows its ``mode``: ``MODE_EXACT`` when it carries integer
weights, ``MODE_FLOAT`` otherwise.  The mode picks the numbers a verdict reads
(``UnivariateDist.masses`` and ``BivariateDist.cells`` return the stored
array, not a copy); the verdict code itself is shared by both modes.

Input is checked once, where it enters the package.  The class constructors
and the ``from_*`` builders (and so the file readers) check every support
and mass: given integer weights and no float masses, they check the weights
once and derive the floats w / total from the weights alone.  What the
package derives from a checked distribution is trusted: ``canonical``, the
marginals, conditional rows, ``orders.truncate``, ``kuiper.refine_grid`` and
the kernel rows build through ``_derived``, which sets the fields without
running the constructor's checks.  It checks only what the source does not
decide (the float total again); where that fails, the constructor decides.
Dropping zero atoms or embedding in a larger grid keeps the total, so the
floats are the stored ones, sliced; other exact builds divide their weights
by their total.  ``orders.truncate`` keeps its renormalized floats with the
weights.

Constructors from unsorted (value, mass) or (x, y, mass) data sort the atoms
and sum the masses of duplicate atoms or cells, in input order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property

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

    # The two constructors named after their bracket shapes.
    @classmethod
    def open_closed(cls, a, b) -> "Interval":
        """(a, b]"""
        return cls(a, b, False, True)

    @classmethod
    def closed(cls, a, b) -> "Interval":
        """[a, b]"""
        return cls(a, b, True, True)

    def contains(self, x: float) -> bool:
        lo_ok = x >= self.left if self.left_closed else x > self.left
        hi_ok = x <= self.right if self.right_closed else x < self.right
        return bool(lo_ok and hi_ok)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------
# Every constructor from unsorted data (``from_pairs``, ``from_weights``, the
# CSV readers and ``estimation.empirical``) builds its atoms with
# ``_atom_grid``; the class constructors take supports that are already
# sorted and distinct, and validate them.


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``values`` as an array of ``dtype`` (inferred when
    None); the caller's own array stays writeable."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _float_array(values, what: str) -> np.ndarray:
    """A read-only float64 copy of ``values``; entries that are not real
    numbers (text, containers, ragged rows, ints beyond the float range) are
    rejected."""
    try:
        return _frozen(values)
    except (TypeError, ValueError, OverflowError):
        raise InvalidDistributionError(f"{what} values must be numbers") from None


def _atom_grid(coords, masses, dtype=np.float64):
    """The sorted atom grid of (coordinate, ..., mass) data.

    Returns one strictly increasing float64 support per coordinate column
    and an array of ``dtype`` indexed by those supports, holding the masses
    summed per cell in input order onto zeros; duplicate atoms or cells are
    therefore merged.  Every column must be 1-D and as long as ``masses``,
    and no mass may be negative (not even one that a duplicate would offset).
    ``dtype=object`` keeps Python-int masses exact at any size.
    """
    masses = np.asarray(masses, dtype=dtype)
    if (masses < 0).any():
        raise InvalidDistributionError("masses must be nonnegative")
    axes = [_float_array(c, "support") for c in coords]
    if any(a.ndim != 1 or a.size != masses.size for a in axes):
        raise InvalidDistributionError("supports and masses must be 1-D and of equal length")
    supports, index = zip(*(np.unique(a, return_inverse=True) for a in axes))
    shape = tuple(s.size for s in supports)
    grid = np.zeros(shape, dtype=dtype)
    np.add.at(grid.reshape(-1), np.ravel_multi_index(index, shape), masses)
    return supports, grid


def _interval_slice(support: np.ndarray, iv: Interval) -> tuple[int, int]:
    """Index range [lo, hi) of the atoms of a sorted support inside ``iv``."""
    lo = int(np.searchsorted(support, iv.left, side="left" if iv.left_closed else "right"))
    hi = int(np.searchsorted(support, iv.right, side="right" if iv.right_closed else "left"))
    return lo, max(lo, hi)


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


def prefix_table(t: np.ndarray) -> np.ndarray:
    """Zero-padded 2-D prefix sums over the last two axes, in ``t``'s dtype:
    entry [..., i, j] sums t[..., :i, :j].

    Each slice of a stack gets the same adds as the 2-D call on it.  Object
    arrays of Python ints or Fractions stay exact.
    """
    out = np.zeros((*t.shape[:-2], t.shape[-2] + 1, t.shape[-1] + 1), dtype=t.dtype)
    np.cumsum(np.cumsum(t, axis=-2), axis=-1, out=out[..., 1:, 1:])
    return out


def _validate_support(values: np.ndarray, what: str) -> None:
    if values.ndim != 1 or values.size == 0:
        raise InvalidDistributionError(f"{what} must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(values)):
        raise InvalidDistributionError(f"{what} must be finite")
    if values.size > 1 and not np.all(values[1:] > values[:-1]):
        raise InvalidDistributionError(f"{what} must be strictly increasing")


def _int_array(weights, ndim: int = 1) -> np.ndarray:
    """Weights as a new object array of Python ints with ``ndim`` axes (ragged
    rows and numbers are shape errors); booleans and values that are not
    integral numbers are rejected instead of truncated."""
    try:
        arr = np.array(weights, dtype=object)
    except ValueError:  # nesting that numpy cannot lay out
        arr = None
    if arr is None or arr.ndim != ndim:
        raise InvalidDistributionError("weights shape does not match the support")
    flat = arr.ravel().tolist()
    if set(map(type, flat)) <= {int}:
        return arr
    if not all(type(w) is not bool and isinstance(w, (int, np.integer))
               or isinstance(w, float) and w.is_integer() for w in flat):
        raise InvalidDistributionError("weights must be integers")
    return np.array(list(map(int, flat)), dtype=object).reshape(arr.shape)


def _float_masses(values) -> list[float]:
    """Masses as floats; booleans, arrays and non-numeric text are rejected."""
    values = list(values)
    if not {bool, np.bool_} & set(map(type, values)):
        try:
            return [float(v) for v in values]
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidDistributionError("masses must be numbers")


def _checked_weights(weights, shape: tuple[int, ...]):
    """Integer weights as a read-only object array of Python ints of
    ``shape``, and their float masses w / total, correctly rounded.  They
    must give one weight per atom or cell, none negative, with a positive
    total."""
    weights = _int_array(weights, len(shape))
    if weights.shape != shape:
        raise InvalidDistributionError("weights shape does not match the support")
    if (weights < 0).any():
        raise InvalidDistributionError("weights must be nonnegative integers")
    total = weights.sum()
    if total <= 0:
        raise InvalidDistributionError("weights must have positive total")
    weights.flags.writeable = False
    return weights, (weights / total).astype(np.float64)


def _checked_masses(floats, weights, shape: tuple[int, ...], what: str, is_probability: bool):
    """The one mass check of both classes: the float masses ``floats`` (named
    ``what``) as a read-only float64 array of ``shape``, finite and
    nonnegative, summing to 1 within ``MASS_TOL`` for a probability, and the
    integer weights, if any, as ``_checked_weights`` returns them.  Without
    float masses the floats are w / total; given both, each w / total must
    lie within ``MASS_TOL`` of its float mass."""
    derived = None
    if weights is not None:
        weights, derived = _checked_weights(weights, shape)
        if floats is None:
            floats, derived = derived, None
    floats = _float_array(floats, what)
    if floats.shape != shape:
        raise InvalidDistributionError(f"{what} shape {floats.shape} does not match the support {shape}")
    if not np.isfinite(floats).all() or (floats < 0).any():
        raise InvalidDistributionError(f"{what} must be finite and >= 0")
    total = float(floats.sum())
    if is_probability and abs(total - 1.0) > MASS_TOL:
        raise InvalidDistributionError(f"{what} sum to {total!r}, not 1")
    if derived is not None and (np.abs(derived - floats) > MASS_TOL).any():
        raise InvalidDistributionError("weights do not match the float masses")
    return floats, weights


def _trusted(cls, *values):
    """A ``cls`` dataclass instance holding ``values``, one per field in
    order, set as they are: its ``__post_init__`` checks do not run."""
    obj = object.__new__(cls)
    vars(obj).update(zip(cls.__dataclass_fields__, values))
    return obj


def _derived(cls, supports, floats, weights=None, is_probability: bool = True):
    """A ``cls`` distribution built from arrays that the package derived
    from a checked distribution, trusted as the class constructor would
    find them: ``supports`` sorted, distinct and finite float64 arrays of the
    masses' shape, ``weights`` (exact mode) Python ints, none negative, of
    positive total, and ``floats`` nonnegative: w / total of the weights
    (slices of a source's floats keep its total), or None to divide them
    here.  The arrays are made read-only, so they must be fresh or views of
    read-only arrays.  Summing finite masses can overflow, and dropping zeros
    can move a float total across 1 +- ``MASS_TOL``, so the float total is
    checked again; where that check fails, the class constructor decides."""
    if floats is None:
        floats = (weights / weights.sum()).astype(np.float64)
    total = float(floats.sum())
    if not math.isfinite(total) or is_probability and abs(total - 1.0) > MASS_TOL:
        return cls(*supports, floats, weights, is_probability)
    for a in (*supports, floats, weights):
        if a is not None:
            a.flags.writeable = False
    return _trusted(cls, *supports, floats, weights, is_probability)


def _quantile_index(cum: np.ndarray, alpha: float, largest: bool = False) -> np.ndarray:
    """Along the last axis of the nondecreasing cumulative masses ``cum``,
    the number of entries below alpha - ``QUANTILE_ATOL`` or, for the
    ``largest`` quantile, at most alpha + ``QUANTILE_ATOL``: the index of the
    quantile's atom, as ``np.searchsorted`` (side "left" or "right") gives it
    on one row.  The one quantile rule of the package."""
    if largest:
        return np.count_nonzero(cum <= alpha + QUANTILE_ATOL, axis=-1)
    return np.count_nonzero(cum < alpha - QUANTILE_ATOL, axis=-1)


def _on_positive_atoms(support: np.ndarray, masses, mode: str, is_probability: bool = True,
                       floats=None) -> "UnivariateDist":
    """A derived ``UnivariateDist`` on the atoms of a checked support whose
    masses, an array in the numbers of ``mode``, are positive; in exact mode
    ``floats``, if given, are the float masses of all atoms."""
    keep = masses > 0
    support = support[keep]
    if not support.size:
        raise InvalidDistributionError("no positive mass left after canonicalization")
    if mode != MODE_EXACT:
        return _derived(UnivariateDist, (support,), masses[keep], None, is_probability)
    return _derived(UnivariateDist, (support,), None if floats is None else floats[keep],
                    masses[keep], is_probability)


# ---------------------------------------------------------------------------
# Univariate distributions / finite measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UnivariateDist:
    """Finite-support distribution (or plain finite measure) on the real line.

    ``support`` is strictly increasing; ``probs`` are nonnegative masses.  When
    ``is_probability`` is true the total mass must be 1 within ``MASS_TOL``.
    ``weights`` optionally carries exact integer masses (same atoms, any
    positive total), stored as a read-only object array of Python ints; they
    feed the exact comparison mode.  Given ``weights`` with ``probs=None``,
    the probs are derived from the weights alone as w / total.

    The constructor and ``from_pairs`` / ``from_weights`` / ``from_dict`` /
    ``delta`` check their input; ``canonical``, ``orders.truncate`` and the
    rows and marginals of a ``BivariateDist`` trust the checked distribution
    they come from (see ``_derived``).
    """

    support: np.ndarray
    probs: np.ndarray | None
    weights: np.ndarray | None = None
    is_probability: bool = True

    def __post_init__(self):
        support = _float_array(self.support, "support")
        _validate_support(support, "support")
        probs, weights = _checked_masses(self.probs, self.weights, support.shape, "probs",
                                         self.is_probability)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "weights", weights)

    # Cumulative masses from the bottom and from the top (for tail
    # accuracy), computed on first use: a row that is only written out
    # never needs them.
    @cached_property
    def _cum(self) -> np.ndarray:
        return _frozen(np.cumsum(self.probs))

    @cached_property
    def _suffix(self) -> np.ndarray:
        return _frozen(np.cumsum(self.probs[::-1])[::-1])

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_pairs(cls, values, probs, *, is_probability: bool = True) -> "UnivariateDist":
        """Build from unsorted (value, mass) data; duplicates are merged."""
        (support,), masses = _atom_grid([values], _float_masses(probs))
        return cls(support, masses, None, is_probability)

    @classmethod
    def from_weights(cls, values, weights, *, is_probability: bool = True) -> "UnivariateDist":
        """Build from unsorted (value, integer weight) data; duplicates are
        merged, and float probs are the normalized weights."""
        (support,), ws = _atom_grid([values], _int_array(weights), object)
        return cls(support, None, ws, is_probability)

    @classmethod
    def delta(cls, x: float) -> "UnivariateDist":
        return cls([float(x)], None, (1,))

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
            payload["weights"] = self.weights.tolist()
        return payload

    # -- basic structure ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.support.size)

    @property
    def total_mass(self) -> float:
        return float(self._cum[-1])

    @property
    def mode(self) -> str:
        """``MODE_EXACT`` when integer weights are carried, else ``MODE_FLOAT``."""
        return MODE_FLOAT if self.weights is None else MODE_EXACT

    def canonical(self) -> "UnivariateDist":
        """Drop zero-mass atoms (duplicates are already merged on construction)."""
        masses = self.masses(self.mode)
        if masses.min() > 0:
            return self
        return _on_positive_atoms(self.support, masses, self.mode, self.is_probability, self.probs)

    def atom_prob(self, x: float) -> float:
        i = np.searchsorted(self.support, x)
        if i < len(self) and self.support[i] == x:
            return float(self.probs[i])
        return 0.0

    def masses(self, mode: str) -> np.ndarray:
        """Atom masses in the numbers of the comparison mode: the integer
        weights in exact mode, the float probs otherwise."""
        if mode != MODE_EXACT:
            return self.probs
        if self.weights is None:
            raise DomainError("exact mode requires integer weights")
        return self.weights

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
        i = int(_quantile_index(self._cum, alpha))
        if i < len(self):
            return float(self.support[i])
        if alpha - self.total_mass <= MASS_TOL:
            return float(self.support[-1])
        return POS_INF

    # -- interval masses ----------------------------------------------------

    def interval_mass(self, iv: Interval) -> float:
        lo, hi = _interval_slice(self.support, iv)
        if lo == hi:
            return 0.0
        base = 0.0 if lo == 0 else float(self._cum[lo - 1])
        return float(self._cum[hi - 1]) - base



# ---------------------------------------------------------------------------
# Bivariate distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BivariateDist:
    """Finite-support distribution on the plane as an atom-grid pmf matrix.

    ``weights`` optionally carries exact integer cell masses, stored like
    ``pmf`` as a read-only object array of Python ints; given ``weights``
    with ``pmf=None``, the pmf is derived from the weights alone as
    w / total.

    The constructor and ``from_pairs`` / ``from_weights`` / ``from_dict``
    check their input; ``canonical`` and ``kuiper.refine_grid`` trust the
    checked distribution they come from (see ``_derived``).
    """

    x_support: np.ndarray
    y_support: np.ndarray
    pmf: np.ndarray | None
    weights: np.ndarray | None = None
    is_probability: bool = True

    def __post_init__(self):
        xs = _float_array(self.x_support, "x_support")
        ys = _float_array(self.y_support, "y_support")
        _validate_support(xs, "x_support")
        _validate_support(ys, "y_support")
        pmf, weights = _checked_masses(self.pmf, self.weights, (xs.size, ys.size), "pmf",
                                       self.is_probability)
        object.__setattr__(self, "x_support", xs)
        object.__setattr__(self, "y_support", ys)
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "weights", weights)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_pairs(cls, xs, ys, masses, *, is_probability: bool = True) -> "BivariateDist":
        """Build from long-form (x, y, mass) triples; duplicate cells are summed."""
        (gx, gy), pmf = _atom_grid((xs, ys), _float_masses(masses))
        return cls(gx, gy, pmf, None, is_probability)

    @classmethod
    def from_weights(cls, x_support, y_support, weights, *, is_probability: bool = True) -> "BivariateDist":
        return cls(x_support, y_support, None, weights, is_probability)

    @classmethod
    def from_dict(cls, payload: dict, *, exact: bool = False) -> "BivariateDist":
        _require_keys(payload, "bivariate", ("x_support", "y_support"), ("pmf", "weights"), rows=True)
        if "weights" in payload and payload["weights"] is not None:
            return cls.from_weights(payload["x_support"], payload["y_support"], payload["weights"])
        pmf = payload["pmf"]
        if exact:
            ws = _weights_from_decimal_strings([v for row in pmf for v in row])
            rows = np.array(ws, dtype=object).reshape(len(pmf), -1)
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
            payload["weights"] = self.weights.tolist()
        return payload

    # -- structure ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.x_support.size), int(self.y_support.size))

    @property
    def mode(self) -> str:
        """``MODE_EXACT`` when integer weights are carried, else ``MODE_FLOAT``."""
        return MODE_FLOAT if self.weights is None else MODE_EXACT

    def cells(self, mode: str) -> np.ndarray:
        """Cell masses in the numbers of the comparison mode: the integer
        weights in exact mode, the float pmf otherwise."""
        if mode != MODE_EXACT:
            return self.pmf
        if self.weights is None:
            raise DomainError("exact mode requires integer weights")
        return self.weights

    def canonical(self) -> "BivariateDist":
        """Drop x-atoms with zero row mass and y-atoms with zero column mass.

        Computed once per instance: the result is memoized, and it is marked
        as its own canonical form (a flag rather than a self-reference, so no
        reference cycle keeps it alive).
        """
        memo = getattr(self, "_canonical", None)
        if memo is True:
            return self
        if memo is None:
            memo = self._drop_empty_atoms()
            object.__setattr__(memo, "_canonical", True)
            if memo is not self:
                object.__setattr__(self, "_canonical", memo)
        return memo

    def _drop_empty_atoms(self) -> "BivariateDist":
        cells = self.cells(self.mode)
        rows = np.flatnonzero(cells.sum(axis=1) > 0)
        cols = np.flatnonzero(cells.sum(axis=0) > 0)
        if (rows.size, cols.size) == self.shape:
            return self
        if not rows.size:
            raise InvalidDistributionError("no positive mass left after canonicalization")
        block = np.ix_(rows, cols)
        # the total is kept, so the floats w / total are the stored ones
        return _derived(BivariateDist, (self.x_support[rows], self.y_support[cols]), self.pmf[block],
                        None if self.weights is None else self.weights[block], self.is_probability)

    # -- marginals and conditionals -------------------------------------------

    # The supports are already sorted and distinct, so the marginals and
    # conditional rows are built once on their positive-mass atoms.

    def marginal_x(self) -> UnivariateDist:
        masses = self.cells(self.mode).sum(axis=1)
        return _on_positive_atoms(self.x_support, masses, self.mode, self.is_probability)

    def marginal_y(self) -> UnivariateDist:
        masses = self.cells(self.mode).sum(axis=0)
        return _on_positive_atoms(self.y_support, masses, self.mode, self.is_probability)

    def conditional_row(self, x: float) -> UnivariateDist:
        """Conditional distribution of the second coordinate given the first
        equals x: integer weights as they are, float masses over their sum.
        Only row x of the grid is read."""
        i = int(np.searchsorted(self.x_support, x))
        if i == self.shape[0] or self.x_support[i] != x:
            raise DomainError(f"{x!r} is not an atom of the first marginal")
        row = self.cells(self.mode)[i]
        mass = row.sum()
        if not mass > 0:
            raise DomainError(f"first-marginal atom {x!r} has zero mass")
        return _on_positive_atoms(self.y_support, row if self.mode == MODE_EXACT else row / mass,
                                  self.mode)


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


def _write_csv(path, header, rows) -> None:
    """A CSV file: booleans as 0/1, every other field as ``repr(float(v))``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([int(v) if isinstance(v, bool) else repr(float(v)) for v in row]
                         for row in rows)


def write_univariate_csv(q: UnivariateDist, path) -> None:
    _write_csv(path, ("value", "prob"), zip(q.support.tolist(), q.probs.tolist()))


def _read_text(path, digest, newline: str | None) -> str:
    """The UTF-8 text of the file at ``path``, read with one binary read
    whose bytes are fed to ``digest`` (a ``hashlib`` object, if given)
    before they are decoded, so an undecodable file is hashed whole.
    ``newline`` is as for ``open``: ``""`` keeps the line ends (CSV),
    ``None`` translates them to ``\\n`` (JSON, whose messages quote line
    and column)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if digest is not None:
        digest.update(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        # Decoded again as the file's text is read by a parse: a CSV line by
        # line, in 8192-byte chunks, so the message names the position in the
        # chunk, as a streamed parse reports it; JSON in one read.
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=newline) as fh:
            fh.readlines() if newline == "" else fh.read()
        raise
    return text if newline == "" else text.replace("\r\n", "\n").replace("\r", "\n")


#: Characters that numpy's float parser skips around a number and
#: ``float()`` rejects; a body that holds one is left to the ``csv`` module.
_NUMPY_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _float_columns(text: str, header: tuple[str, ...]) -> np.ndarray | None:
    """The float64 columns of a CSV's text as numpy's C reader parses it, or
    None where that parse could differ from the ``csv`` module's: the first
    line must be exactly the plain header, the rest must hold more than
    blank lines, no ``"`` (numpy runs without a quote character, so it can
    never read a quoted field) and none of ``_NUMPY_ONLY_SPACES``, and numpy
    must read every line as ``len(header)`` numbers.  Without quote or
    comment characters numpy then accepts the fields that ``float()``
    accepts, with the same values, and skips the blank lines that the
    ``csv`` path skips; it rejects the underscores, non-ASCII digits, lone
    ``\\r`` line ends and whitespace-only lines that are left to that path."""
    head, _, body = text.partition("\n")
    if (head.removesuffix("\r") != ",".join(header) or not body or body.isspace()
            or any(c in body for c in _NUMPY_ONLY_SPACES + '"')):
        return None
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    return table.T if table.shape[1] == len(header) else None


def _csv_columns(text: str, path, header: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The text columns of a CSV's text with the given header (names
    compared stripped), split by the ``csv`` module.  Blank lines are
    skipped; a row with missing or extra fields, or a field beyond the
    module's size limit, is rejected."""
    try:
        rows = list(filter(None, csv.reader(io.StringIO(text, newline=""))))
    except csv.Error as exc:
        raise InvalidDistributionError(f"{path}: {exc}") from None
    if not rows or list(map(str.strip, rows[0])) != list(header):
        raise InvalidDistributionError(f"{path}: expected header {','.join(header)!r}")
    if set(map(len, rows[1:])) - {len(header)}:
        raise InvalidDistributionError(f"{path}: every row needs {len(header)} fields")
    return list(zip(*rows[1:])) or [()] * len(header)


def _read_csv(cls, path, header: tuple[str, ...], axes: tuple[str, ...], exact: bool, digest):
    """The ``cls`` distribution in the CSV file at ``path``, read once.  In
    float mode numpy parses the text where ``_float_columns`` can; otherwise,
    and always in exact mode, the ``csv`` module splits it, the coordinate
    columns are converted as the supports named ``axes`` (so a bad entry gets
    the message it gets in JSON) and the masses as floats or decimal text."""
    text = _read_text(path, digest, newline="")
    columns = None if exact else _float_columns(text, header)
    if columns is not None:
        *coords, masses = columns
    else:
        *coords, masses = _csv_columns(text, path, header)
        coords = [_float_array(c, name) for c, name in zip(coords, axes)]
        masses = _weights_from_decimal_strings(masses) if exact else _float_masses(masses)
    supports, grid = _atom_grid(coords, masses, object if exact else np.float64)
    return cls(*supports, None, grid) if exact else cls(*supports, grid)


def read_univariate_csv(path, *, exact: bool = False, digest=None) -> UnivariateDist:
    return _read_csv(UnivariateDist, path, ("value", "prob"), ("support",), exact, digest)


def write_bivariate_csv(r: BivariateDist, path) -> None:
    """The long-form CSV of the positive cells, rows outer."""
    i, j = np.nonzero(r.pmf > 0)
    _write_csv(path, ("x", "y", "prob"),
               zip(r.x_support[i].tolist(), r.y_support[j].tolist(), r.pmf[i, j].tolist()))


def read_bivariate_csv(path, *, exact: bool = False, digest=None) -> BivariateDist:
    return _read_csv(BivariateDist, path, ("x", "y", "prob"), ("x_support", "y_support"), exact,
                     digest)


def load_univariate(path, *, exact: bool = False, digest=None) -> UnivariateDist:
    """The distribution in the JSON or CSV file at ``path``, read once and
    hashed into ``digest`` (a ``hashlib`` object) when one is given."""
    path = str(path)
    if path.endswith(".json"):
        return UnivariateDist.from_dict(json.loads(_read_text(path, digest, None)), exact=exact)
    return read_univariate_csv(path, exact=exact, digest=digest)


def load_bivariate(path, *, exact: bool = False, digest=None) -> BivariateDist:
    """The distribution in the JSON or CSV file at ``path``, read once and
    hashed into ``digest`` (a ``hashlib`` object) when one is given."""
    path = str(path)
    if path.endswith(".json"):
        return BivariateDist.from_dict(json.loads(_read_text(path, digest, None)), exact=exact)
    return read_bivariate_csv(path, exact=exact, digest=digest)
