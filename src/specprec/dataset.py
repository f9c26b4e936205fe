"""Variables-by-samples data container with centering, standardization and splits.

The in-memory layout is variable-major (one row per variable), so all
per-variable statistics are contiguous scans.  The covariance convention is
divide-by-T throughout: Sigma = (1/T) X X^T, and standardization divides by
sqrt((1/T) sum x^2) so that standardized data has unit diagonal covariance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError

__all__ = ["DataMatrix", "load_csv", "write_csv", "center", "row_scale", "standardize",
           "split"]

_FLOAT_FMT = "%.17g"
# the characters of a finite value formatted with _FLOAT_FMT and of csv
# quoting; load_csv and write_csv refuse them as delimiters
_FIELD_CHARS = frozenset("0123456789+-.e\"\r\n")
_WRITE_BLOCK = 1 << 16  # values formatted per write


@dataclass(frozen=True)
class DataMatrix:
    """Immutable N x T matrix (variables as rows) plus centering metadata.

    ``mean`` is present iff the rows have been centered: the subtracted mean
    after ``center``, zeros after ``standardize``.
    """

    values: np.ndarray
    mean: np.ndarray | None = None
    variable_names: tuple[str, ...] | None = None

    def __post_init__(self):
        self._validate(copy=True)

    def _validate(self, copy: bool):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError("values must be a 2-d matrix with at least one row and column",
                            shape=tuple(np.shape(self.values)))
        # a finite row sum proves every entry finite; the N x T mask is built
        # only to locate a bad entry (finite values may overflow a sum)
        row_sums = values.sum(axis=1)
        bad = () if np.isfinite(row_sums).all() else np.argwhere(~np.isfinite(values))
        if len(bad):
            raise DataError("non-finite value in data", row=int(bad[0, 0]), col=int(bad[0, 1]))
        if copy:
            values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.mean is not None:
            mean = np.asarray(self.mean, dtype=np.float64)
            if mean.shape != (values.shape[0],):
                raise DataError("mean length must equal the number of variables",
                                expected=values.shape[0], got=mean.shape)
            row_sums = np.abs(row_sums)
            # every row's tolerance is at least 1e-9 T, so |values| is read
            # only when some sum exceeds that
            tol = 1e-9 * values.shape[1]
            if np.any(row_sums > tol):
                tol = tol * (np.abs(values).max(axis=1) + 1.0)
                if np.any(row_sums > tol):
                    raise DataError("centered rows must sum to zero",
                                    worst_row=int(np.argmax(row_sums - tol)))
            mean = mean.copy()
            mean.setflags(write=False)
            object.__setattr__(self, "mean", mean)
        if self.variable_names is not None:
            names = tuple(self.variable_names)
            if len(names) != values.shape[0]:
                raise DataError("variable_names length must equal the number of variables",
                                expected=values.shape[0], got=len(names))
            object.__setattr__(self, "variable_names", names)

    @property
    def n_vars(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


def load_csv(path, delimiter: str = ",", has_header: bool = False,
             orientation: str = "variables-as-rows") -> DataMatrix:
    """Read a rectangular numeric CSV/TSV into a variable-major DataMatrix.

    ``orientation`` selects whether file rows are variables or samples; the
    result is always variable-major.  With ``samples-as-rows`` a header row
    supplies the variable names.  The delimiter rule is ``write_csv``'s, and a
    file that is not UTF-8 text is a DataError.
    """
    _check_io_flags(delimiter, orientation)
    rows = []
    names = None
    # utf-8-sig reads the byte-order mark that spreadsheet programs write
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            for i, record in enumerate(reader):
                if i == 0 and has_header:
                    if orientation == "samples-as-rows":
                        names = tuple(record)
                    continue
                parsed = []
                for j, cell in enumerate(record):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise DataError("cell does not parse as a number",
                                        row=i, col=j, cell=cell) from None
                    if not np.isfinite(v):
                        raise DataError("non-finite value in data", row=i, col=j, cell=cell)
                    parsed.append(v)
                rows.append(parsed)
        except UnicodeDecodeError as exc:
            raise DataError("file is not UTF-8 text", path=str(path), detail=str(exc)) from None
    while rows and not rows[-1]:  # blank lines at the end of the file
        rows.pop()
    if not rows:
        raise DataError("empty file", path=str(path))
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise DataError("ragged row", row=i + int(has_header),
                            expected=width, got=len(r))
    mat = np.array(rows, dtype=np.float64)
    if orientation == "samples-as-rows":
        mat = np.ascontiguousarray(mat.T)
    return _adopt(values=mat, variable_names=names)


def write_csv(data: DataMatrix, path, delimiter: str = ",",
              orientation: str = "variables-as-rows") -> None:
    """Write values with 17-significant-digit decimals for round-trip fidelity.

    The delimiter must be one character that no formatted value contains,
    so no field ever needs quoting: a digit, ``+ - . e``, a quote or a line
    break is refused.  Rows are formatted a block at a time with one line
    template; only the header goes through ``csv.writer``.
    """
    _check_io_flags(delimiter, orientation)
    mat = data.values if orientation == "variables-as-rows" else data.values.T
    line = delimiter.replace("%", "%%").join([_FLOAT_FMT] * mat.shape[1]) + "\r\n"
    step = max(1, _WRITE_BLOCK // mat.shape[1])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if orientation == "samples-as-rows" and data.variable_names is not None:
            csv.writer(fh, delimiter=delimiter).writerow(data.variable_names)
        for lo in range(0, mat.shape[0], step):
            fh.write("".join([line % tuple(row) for row in mat[lo:lo + step].tolist()]))


def _check_io_flags(delimiter, orientation) -> None:
    if orientation not in ("variables-as-rows", "samples-as-rows"):
        raise UsageError("unknown orientation", orientation=orientation)
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in _FIELD_CHARS:
        raise UsageError("delimiter must be one character that cannot occur in a "
                         "formatted value", delimiter=delimiter)


def _adopt(**fields) -> DataMatrix:
    """DataMatrix over a float64 ``values`` array that its caller has just
    made and shares with no one: checked like any other, but made read-only
    in place instead of copied."""
    data = object.__new__(DataMatrix)
    for name, value in fields.items():
        object.__setattr__(data, name, value)
    data._validate(copy=False)
    return data


def center(data: DataMatrix) -> DataMatrix:
    """Subtract each variable's empirical mean, in one pass into a C-ordered
    array; the mean is kept on the result."""
    mu = data.values.mean(axis=1)
    return _adopt(values=np.subtract(data.values, mu[:, None], order="C"),
                  mean=mu,
                  variable_names=data.variable_names)


def row_scale(data: DataMatrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """The divisors ``standardize`` applies to centered rows, sqrt((1/T) sum x^2),
    and the zero-variance rows, whose divisor is 1: those whose RMS is at most
    T eps |mean|, the rounding error of their mean (a constant row of 0.3 over
    10 samples centres to noise of that size, not to zeros)."""
    if data.mean is None:
        raise UsageError("standardizing requires centered data")
    t = data.n_samples
    rms = np.sqrt(np.einsum("ij,ij->i", data.values, data.values) / t)
    flagged = rms <= t * np.finfo(np.float64).eps * np.abs(data.mean)
    return np.where(flagged, 1.0, rms), tuple(int(i) for i in np.flatnonzero(flagged))


def standardize(data: DataMatrix) -> DataMatrix:
    """Scale centered rows to unit variance (divide-by-T convention), ready for
    ``thin_svd``: the result's ``mean`` is zero, the mean of the scaled rows.
    Zero-variance rows are left unscaled; ``row_scale`` names them.
    """
    return _scaled(data, row_scale(data)[0])


def _scaled(data: DataMatrix, scale: np.ndarray) -> DataMatrix:
    """Centered rows divided by ``scale``, in one copy, with a zero mean."""
    return _adopt(values=data.values / scale[:, None], mean=np.zeros(data.n_vars),
                  variable_names=data.variable_names)


def split(data: DataMatrix, fractions: tuple[float, float, float],
          seed: int) -> tuple[DataMatrix, DataMatrix, DataMatrix]:
    """Seeded column split into train/val/test.

    Sizes are floors of the fractions; leftover columns go to train, then val.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise UsageError("fractions must be three positive numbers", fractions=fractions)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise UsageError("fractions must sum to 1", total=sum(fractions))
    t = data.n_samples
    if t < 3:
        raise UsageError("need at least 3 samples to split", n_samples=t)
    sizes = [int(np.floor(f * t)) for f in fractions]
    leftover = t - sum(sizes)
    for i in range(leftover):
        sizes[i % 2] += 1  # train first, then val
    if any(s == 0 for s in sizes):
        raise UsageError("too few samples for a non-empty split",
                         sizes=tuple(sizes), n_samples=t)
    perm = np.random.default_rng(seed).permutation(t)
    parts = []
    start = 0
    for s in sizes:
        cols = np.sort(perm[start:start + s])
        parts.append(_adopt(values=data.values[:, cols],
                            variable_names=data.variable_names))
        start += s
    return tuple(parts)
