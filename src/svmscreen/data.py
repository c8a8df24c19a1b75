"""Sparse classification data: container, text parser, and what the data
alone decides (lambda_max, column norms, feature statistics), each stored once.

The on-disk format is the usual sparse text layout, one sample per line::

    <label> <index>:<value> <index>:<value> ...

with 1-based, strictly increasing indices and labels mapped to +/-1
(positive values to +1, everything else to -1).  Lines starting with ``#``
are comments.  All pairs are read in one strict numpy record read; a
per-line scan only names a bad line.  The design matrix is stored by
columns (CSC arrays) because every downstream computation is feature-wise.
"""

import io
import math
import os
import re
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels


class DataFormatError(ValueError):
    """Input text cannot be parsed into a dataset."""


# Largest feature index the text format accepts.
MAX_INDEX = 2**31 - 1

# Sparse data with at least this many stored entries takes a product X v
# with few nonzeros in v from their columns alone.  Gathering them costs
# about as much as a product over 4,000 entries, and about five times as
# much per entry, so on smaller data the full product is faster.
SPARSE_MATVEC_FROM = 1 << 14

# Token grammar: an index of ASCII digits with an optional sign, ``:``, and
# a decimal float in Python's syntax without ``_`` separators.  np.loadtxt
# reads exactly these tokens, each value to the double float() gives.
_INDEX = r"[+-]?[0-9]+"
_DECIMAL = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# inf and nan are not in the grammar; _PAIR reads them to say why.
_PAIR = re.compile(rf"({_INDEX}):({_DECIMAL}|[+-]?(?i:infinity|inf|nan))")
# The ASCII bytes str.split() separates tokens at become line breaks, one
# pair per line of the record read; then valid pairs hold only _PAIR_BYTES.
_SPACES_TO_NEWLINES = bytes.maketrans(b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f", b"\n" * 10)
_PAIR_BYTES = b"0123456789+-.eE:\n"
_PAIR_RECORD = np.dtype([("index", np.int64), ("value", np.float64)])


@dataclass(frozen=True)
class Dataset:
    """Immutable n_samples x n_features design matrix with +/-1 labels.

    Columns are stored in CSC form: column j occupies the half-open slice
    ``col_ptr[j]:col_ptr[j+1]`` of ``row_idx``/``values``, with row indices
    strictly increasing inside each column.  What the data alone decides
    is a cached property built on first use, each by one formula and held
    by no other name: the class counts, ``lambda_max`` (one product), the
    column norms ``sq_norm`` of the solver's step and the bound, the
    per-feature ``stats`` of the bound (an O(nnz) pass that the first
    ``screen_all`` or screened path on the Dataset makes), and the form of
    the products, ``dense_block`` for dense data or ``column_index`` for
    sparse data.
    """

    n_samples: int
    n_features: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "col_ptr", np.ascontiguousarray(self.col_ptr, dtype=np.int64))
        object.__setattr__(self, "row_idx", np.ascontiguousarray(self.row_idx, dtype=np.int64))
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        object.__setattr__(self, "labels", np.ascontiguousarray(self.labels, dtype=np.float64))
        self._validate()

    def _validate(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.n_features < 1:
            raise ValueError("need at least one feature")
        if self.labels.shape != (self.n_samples,):
            raise ValueError("labels length does not match n_samples")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")
        if self.col_ptr.shape != (self.n_features + 1,):
            raise ValueError("col_ptr length must be n_features + 1")
        if self.col_ptr[0] != 0 or self.col_ptr[-1] != self.row_idx.shape[0]:
            raise ValueError("col_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.col_ptr) < 0):
            raise ValueError("col_ptr must be nondecreasing")
        if self.values.shape != self.row_idx.shape:
            raise ValueError("row_idx and values must have equal length")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")
        nnz = self.row_idx.shape[0]
        if nnz:
            if self.row_idx.min() < 0 or self.row_idx.max() >= self.n_samples:
                raise ValueError("row indices out of range")
            # Strictly increasing inside each column: a non-positive step is
            # only allowed where a new column starts.
            col_start = np.zeros(nnz, dtype=bool)
            starts = self.col_ptr[1:-1]
            col_start[starts[starts < nnz]] = True
            bad = (np.diff(self.row_idx) <= 0) & ~col_start[1:]
            if np.any(bad):
                raise ValueError("row indices must be strictly increasing within a column")

    @classmethod
    def from_columns(cls, columns, labels, n_samples=None):
        """Build from a sequence of (row_indices, values) pairs, one per feature."""
        labels = np.asarray(labels, dtype=np.float64)
        if n_samples is None:
            n_samples = labels.shape[0]
        idx_parts = [np.asarray(idx, dtype=np.int64) for idx, _ in columns]
        val_parts = [np.asarray(vals, dtype=np.float64) for _, vals in columns]
        col_ptr = np.cumsum([0, *map(len, idx_parts)], dtype=np.int64)
        row_idx = np.concatenate([np.zeros(0, dtype=np.int64), *idx_parts])
        values = np.concatenate([np.zeros(0), *val_parts])
        return cls(n_samples, len(columns), col_ptr, row_idx, values, labels)

    @classmethod
    def from_dense(cls, matrix, labels):
        """Build from a 2-d n x m array (ValueError otherwise), keeping exact nonzeros as entries.

        Labels are mapped like the text parser: positive to +1, the rest
        to -1.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-d, not {matrix.ndim}-d")
        labels = np.where(np.asarray(labels, dtype=np.float64) > 0, 1.0, -1.0)
        cols = [(np.flatnonzero(column), column[column != 0.0]) for column in matrix.T]
        return cls.from_columns(cols, labels, n_samples=matrix.shape[0])

    @cached_property
    def n_pos(self):
        """Number of +1 labels."""
        return int((self.labels > 0).sum())

    @cached_property
    def n_neg(self):
        """Number of -1 labels."""
        return self.n_samples - self.n_pos

    @cached_property
    def lambda_max(self):
        """(lambda_max, bias, direction) of the zero model, from one product:
        its optimal bias (n_pos - n_neg) / n, the correlations X'(y - bias),
        read-only since they are shared, and their largest magnitude, the
        smallest penalty at which w = 0 is optimal."""
        bias = (self.n_pos - self.n_neg) / self.n_samples
        direction = self.rmatvec(self.labels - bias)
        direction.flags.writeable = False
        return float(np.max(np.abs(direction))), float(bias), direction

    @cached_property
    def stats(self):
        """(3, m) array of what the screening bound reads of fhat_j =
        labels * f_j, from one O(nnz) pass on first use, so that the bound
        gathers the features it screens in one indexing.  Its rows are
        ``dot_y`` = fhat_j' y, ``dot_one`` = fhat_j' 1 and ``proj_y_norm``
        = ||P_y(fhat_j)||, as ``kernels.feature_stats`` returns them;
        ||fhat_j||^2 is ``sq_norm``, stored apart."""
        rows = kernels.feature_stats(
            self.col_ptr, self.row_idx, self.values, self.labels, cols=self.column_index
        )
        return np.array(rows)

    @cached_property
    def sq_norm(self):
        """||f_j||^2 = ||fhat_j||^2 of every feature: the solver's step
        metric and the bound's ||fhat||^2."""
        return kernels.column_sq_norms(self.col_ptr, self.values, cols=self.column_index)

    @cached_property
    def dense_block(self):
        """Fortran-ordered n x m copy of X when at least half its cells are
        stored, else None; built on first use.

        From that density on the block takes no more memory than the
        ``row_idx`` and ``values`` arrays it mirrors (8 bytes per cell
        against 16 per stored entry), and its products run as BLAS gemv.
        """
        if 2 * self.values.shape[0] < self.n_samples * self.n_features:
            return None
        return self.to_dense()

    @cached_property
    def column_index(self):
        """Column of every stored entry (8 bytes each) when the products
        run on the CSC arrays, else None; built on first use.

        The sparse products and the feature statistics sum per column
        through it, instead of rebuilding it on every call.
        """
        if self.dense_block is not None:
            return None
        return kernels.column_index(self.col_ptr)

    @cached_property
    def gram(self):
        """Gram matrix B'B of B = [X, 1, y] when X has a dense block at most
        as wide as it is tall (m <= n), else None; built on first use.

        Rows and columns 0..m-1 belong to the features, m to the ones
        column and m + 1 to the labels, so any [X_S, 1]'[X_S, 1] and
        [X_S, 1]'y is a principal submatrix.  Its (m + 2)^2 cells take no
        more memory than the n x m block plus 4n + 4 cells, which is why
        wider data gets none.
        """
        block = self.dense_block
        m = self.n_features
        if block is None or m > self.n_samples:
            return None
        ends = np.vstack((np.ones(self.n_samples), self.labels))
        out = np.empty((m + 2, m + 2))
        out[:m, :m] = block.T @ block
        out[m:, :m] = ends @ block
        out[:m, m:] = out[m:, :m].T
        out[m:, m:] = ends @ ends.T
        return out

    def matvec(self, v):
        """X @ v for a weight vector v of length n_features (ValueError otherwise).

        Sparse data with at least SPARSE_MATVEC_FROM stored entries and
        fewer than an eighth of v nonzero reads the stored entries of those
        columns alone.  The products it skips are exact zeros and the rest
        are summed per row in the same order, so the result is equal bit
        for bit.
        """
        _check_length(v, self.n_features, "weights")
        if self.column_index is not None and self.values.size >= SPARSE_MATVEC_FROM:
            nonzero = np.flatnonzero(v)
            if 8 * nonzero.size < self.n_features:
                return kernels.csc_matvec(*self._columns(nonzero), v[nonzero], self.n_samples)
        return kernels.csc_matvec(
            self.col_ptr, self.row_idx, self.values, v, self.n_samples,
            block=self.dense_block, cols=self.column_index,
        )

    def rmatvec(self, u, cols=None):
        """X.T @ u for a sample vector u of length n_samples (ValueError otherwise).

        With ``cols``, a 1-d sequence of integer feature indices in
        [0, n_features), in any order (ValueError otherwise), only
        X[:, cols].T @ u, equal bit for bit to those rows of the full
        product.  Dense data takes the full BLAS product, whose sum for a
        column depends on the columns beside it in the call, and so does
        sparse data when ``cols`` holds at least half the features: a
        gather of that many columns costs more than the product it saves.
        Sparse data reads the stored entries of fewer columns alone, summed
        per column in the same order as the full product sums them.
        """
        _check_length(u, self.n_samples, "sample vector")
        if cols is not None:
            cols = np.asarray(cols)
            if cols.size == 0:  # np.asarray of an empty list or tuple is float64
                cols = cols.astype(np.int64)
            self._check_features(cols)
            if self.dense_block is None and 2 * cols.size < self.n_features:
                return kernels.csc_rmatvec(*self._columns(cols), u)
        full = kernels.csc_rmatvec(
            self.col_ptr, self.row_idx, self.values, u,
            block=self.dense_block, cols=self.column_index,
        )
        return full if cols is None else full[cols]

    def _check_features(self, cols):
        """Raise ValueError unless cols is a 1-d integer array of indices in
        [0, n_features); a boolean mask or float indices do not pass."""
        if not np.issubdtype(cols.dtype, np.integer):
            raise ValueError("feature indices must be integers")
        if cols.ndim != 1:
            raise ValueError("feature indices must form a 1-d array")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_features):
            raise ValueError(f"feature indices must lie in [0, {self.n_features})")

    def _columns(self, cols):
        """CSC arrays (col_ptr, row_idx, values) of the columns cols alone."""
        entries, counts = kernels.column_entries(self.col_ptr, cols)
        col_ptr = np.zeros(cols.size + 1, dtype=np.int64)
        np.cumsum(counts, out=col_ptr[1:])
        return col_ptr, self.row_idx[entries], self.values[entries]

    def block(self, rows, cols):
        """Dense X[rows][:, cols] for arrays of distinct indices; only that
        block is materialised, gathered from the stored columns cols."""
        if self.dense_block is not None:
            return self.dense_block[np.ix_(rows, cols)]
        entries, counts = kernels.column_entries(self.col_ptr, cols)
        position = np.full(self.n_samples, -1)
        position[rows] = np.arange(rows.size)
        r = position[self.row_idx[entries]]
        hit = r >= 0
        out = np.zeros((rows.size, cols.size))
        out[r[hit], np.repeat(np.arange(cols.size), counts)[hit]] = self.values[entries[hit]]
        return out

    def column(self, j):
        """Row indices and values of feature j, an integer in
        [0, n_features), as array views (ValueError otherwise)."""
        self._check_features(np.array([j]))
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_idx[lo:hi], self.values[lo:hi]

    def subset(self, feature_indices):
        """New Dataset restricted to the given features, order preserved.

        The indices must be a nonempty 1-d sequence of integers in
        [0, n_features), checked by one min and max (ValueError otherwise;
        a negative index does not count from the end).  The columns of a
        valid Dataset make a valid one, so the child is built without
        ``_validate``.  Once this Dataset has built its ``sq_norm``, the
        child gets it indexed by the kept columns, bit for bit the sum it
        would make: each column's sum reads the same entries in the same
        order.  That is the one per-feature array a path reads on a
        subset, which it solves but never screens; anything else the child
        builds itself.
        """
        cols = np.asarray(feature_indices)
        if cols.size == 0:
            raise ValueError("need at least one feature")
        self._check_features(cols)
        cols = cols.astype(np.int64, copy=False)
        col_ptr, row_idx, values = self._columns(cols)
        child = object.__new__(Dataset)
        child.__dict__.update(
            n_samples=self.n_samples, n_features=cols.size, col_ptr=col_ptr,
            row_idx=row_idx, values=values, labels=self.labels,
        )
        if "sq_norm" in self.__dict__:
            child.__dict__["sq_norm"] = self.sq_norm[cols]
        return child

    def to_dense(self):
        """Fortran-ordered dense copy of X, scattered from the stored entries."""
        out = np.zeros((self.n_samples, self.n_features), order="F")
        out[self.row_idx, kernels.column_index(self.col_ptr)] = self.values
        return out


def _check_length(vector, length, name):
    """Raise ValueError unless vector has shape (length,)."""
    if np.shape(vector) != (length,):
        raise ValueError(f"{name} must have shape ({length},), not {np.shape(vector)}")


def parse_sparse_text(text):
    """Parse sparse classification text into a Dataset.

    Parameters
    ----------
    text : str
        One ``<label> <idx>:<val> ...`` record per line; ``#`` lines and
        blank lines are skipped; both LF and CRLF line ends are accepted.
        An index is an optional sign and ASCII digits, at most 2**31 - 1; a
        value is a finite decimal float without ``_`` digit separators.

    Returns
    -------
    Dataset with n_features equal to the largest index seen.

    Raises
    ------
    DataFormatError
        Naming the first bad line in file order and its first bad token,
        found by a per-line scan that runs only once the strict record
        read of all pairs has rejected the file.
    """
    lines = text.splitlines()
    labels, rests, line_of_row = [], [], []
    for lineno, raw in enumerate(lines, start=1):
        head = raw.split(None, 1)
        if not head or head[0].startswith("#"):
            continue
        try:
            label = float(head[0])
        except ValueError:
            raise _first_fault(text) from None
        labels.append(1.0 if label > 0 else -1.0)
        rests.append(head[1] if len(head) == 2 else "")
        line_of_row.append(lineno)
    del lines
    if not labels:
        raise DataFormatError("no data lines found")
    if not any(rests):  # every data line is a label alone
        raise DataFormatError("no features present in any line")

    # Every pair at once, one per line of an ASCII body.  Dropping each stage
    # before the next keeps the peak within about three times the text.
    counts = np.array([rest.count(":") for rest in rests], dtype=np.int64)
    body = "\n".join(filter(None, rests))
    del rests
    if not body.isascii():
        body = "\n".join(body.split())  # str.split() knows Unicode whitespace
    body = body.encode("ascii", "replace")  # '?' for the rest, which no pair holds
    body = body.translate(_SPACES_TO_NEWLINES)
    if body.translate(None, _PAIR_BYTES):  # a byte no valid pair holds
        raise _first_fault(text)
    try:
        with warnings.catch_warnings():
            # Some numpy releases only warn when they read 1.0 into an integer.
            warnings.simplefilter("error")
            pairs = np.loadtxt(
                io.BytesIO(body), dtype=_PAIR_RECORD, delimiter=":", comments=None, ndmin=1
            )
    except (ValueError, Warning):
        raise _first_fault(text) from None
    del body
    # Each pair read is one token with one ':', so line i holds counts[i].
    index, values = pairs["index"], pairs["value"]
    ends = np.cumsum(counts)
    rises = np.diff(index) > 0
    rises[ends[(ends > 0) & (ends < index.size)] - 1] = True  # into the next line
    bad = index.min() < 1 or index.max() > MAX_INDEX or not np.isfinite(values).all()
    if bad or not rises.all():
        raise _first_fault(text)
    n, m = len(labels), int(index.max())
    # col_ptr and the bincount it is summed from hold 8 bytes per feature
    # each: a valid file with one large index could ask for gigabytes.
    needed, physical = 16 * (m + 1), _physical_memory()
    if physical is not None and needed > physical:
        lineno = line_of_row[np.searchsorted(ends, np.argmax(index), side="right")]
        raise DataFormatError(
            f"line {lineno}: index {m} needs {needed} bytes of column pointers, "
            f"more than the {physical} bytes of physical memory"
        )
    col, vals = index - 1, values.copy()
    del pairs, index, values
    col_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=m), out=col_ptr[1:])
    # Stable sort by column as two stable sorts of its 16-bit digits
    # (indices are below 2**31), which numpy runs as radix sorts: ~4x
    # faster than one stable sort of int64.
    low, high = (col & 0xFFFF).astype(np.uint16), (col >> 16).astype(np.uint16)
    del col
    order = np.argsort(low, kind="stable")
    del low
    order = order[np.argsort(high[order], kind="stable")]
    del high
    vals = vals[order]
    row_idx = np.repeat(np.arange(n, dtype=np.int64), counts)[order]
    return Dataset(n, m, col_ptr, row_idx, vals, np.array(labels))


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _first_fault(text):
    """The DataFormatError of the first bad line of a text known to be bad."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fault = _line_fault(raw, lineno)
        if fault is not None:
            return fault
    raise AssertionError("the text was rejected but has no bad line")


def _line_fault(raw, lineno):
    """The DataFormatError for the first bad token of a line; None if it has none."""
    tokens = raw.split()
    if not tokens or tokens[0].startswith("#"):
        return None
    try:
        float(tokens[0])
    except ValueError:
        return DataFormatError(f"line {lineno}: bad label token {tokens[0]!r}")
    previous = 0
    for token in tokens[1:]:
        pair = _PAIR.fullmatch(token)
        try:
            index = int(pair[1])
        except (TypeError, ValueError):  # no match, or more digits than int() reads
            return DataFormatError(f"line {lineno}: expected index:value, got {token!r}")
        if index < 1:
            return DataFormatError(f"line {lineno}: indices are 1-based, got {index}")
        if index > MAX_INDEX:
            return DataFormatError(
                f"line {lineno}: index {index} exceeds the largest allowed index {MAX_INDEX}"
            )
        if index <= previous:
            return DataFormatError(f"line {lineno}: index {index} is not increasing")
        if not math.isfinite(float(pair[2])):
            return DataFormatError(f"line {lineno}: feature values must be finite, got {token!r}")
        previous = index
    return None


def serialize_sparse_text(dataset):
    """Render a Dataset back to canonical sparse text.

    Values are written with shortest round-trip formatting, so
    parse(serialize(d)) reproduces d's labels and entries exactly.  The
    text holds no feature count: trailing all-zero columns are dropped,
    and a 2 x 3 Dataset whose third column is empty parses back 2 x 2.
    """
    rows = [["+1" if label > 0 else "-1"] for label in dataset.labels.tolist()]
    features = kernels.column_index(dataset.col_ptr) + 1
    for i, j, v in zip(dataset.row_idx.tolist(), features.tolist(), dataset.values.tolist()):
        rows[i].append(f"{j}:{v!r}")
    return "".join(" ".join(row) + "\n" for row in rows)


def read_sparse_file(path):
    """Parse a sparse text file from disk (UTF-8, a byte-order mark skipped)."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_sparse_text(handle.read())
