"""Datasets, CSV ingestion, standardization, and interaction expansion."""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """A CSV cell could not be parsed as a number.

    Carries the 1-based data row and the column name of the offending cell.
    """

    def __init__(self, message: str, row: int, column: str):
        super().__init__(message)
        self.row = row
        self.column = column


class MissingColumnError(KeyError):
    """The requested response column is absent from the file header."""


class ZeroVarianceError(ValueError):
    """A column cannot be standardized because its sample variance is zero."""

    def __init__(self, column: str):
        super().__init__(f"column {column!r} has zero variance")
        self.column = column


@dataclass(frozen=True)
class Dataset:
    """A regression problem: design matrix, response vector, column labels.

    No intercept column is implied; callers that want one must add it
    explicitly as a regular column.
    """

    design: np.ndarray
    response: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        design = np.asarray(self.design, dtype=np.float64)
        response = np.asarray(self.response, dtype=np.float64)
        labels = tuple(self.labels)
        if design.ndim != 2:
            raise ValueError("design must be a 2-d array")
        n, p = design.shape
        if n < 1 or p < 1:
            raise ValueError("design must have at least one row and one column")
        if response.shape != (n,):
            raise ValueError(f"response must have shape ({n},), got {response.shape}")
        if not np.all(np.isfinite(design)):
            raise ValueError("design contains non-finite entries")
        if not np.all(np.isfinite(response)):
            raise ValueError("response contains non-finite entries")
        if len(labels) != p:
            raise ValueError(f"expected {p} labels, got {len(labels)}")
        if len(set(labels)) != p:
            raise ValueError("labels must be unique")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "labels", labels)

    @property
    def n_obs(self) -> int:
        return self.design.shape[0]

    @property
    def n_features(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class StandardizationRecord:
    """Centering/scaling constants applied by :func:`standardize`."""

    means: tuple[float, ...]
    scales: tuple[float, ...]
    response_mean: float | None = None
    response_scale: float | None = None

    def __post_init__(self):
        if any(s <= 0 for s in self.scales):
            raise ValueError("scales must be strictly positive")
        if self.response_scale is not None and self.response_scale <= 0:
            raise ValueError("response scale must be strictly positive")

    @property
    def response_standardized(self) -> bool:
        return self.response_scale is not None


@dataclass(frozen=True)
class InteractionMap:
    """Column provenance after pairwise-interaction expansion.

    ``sources[j]`` is an original column index for retained columns, or an
    ``(i, j)`` pair for product columns.
    """

    sources: tuple[int | tuple[int, int], ...]

    def __post_init__(self):
        p0 = sum(1 for s in self.sources if isinstance(s, int))
        expected = p0 + p0 * (p0 - 1) // 2
        if len(self.sources) != expected:
            raise ValueError(
                f"expanded width {len(self.sources)} does not match "
                f"{p0} originals plus {p0 * (p0 - 1) // 2} products"
            )

    @property
    def original_p(self) -> int:
        return sum(1 for s in self.sources if isinstance(s, int))

    @property
    def expanded_p(self) -> int:
        return len(self.sources)


def load_csv(path: str | Path, response_column: str) -> Dataset:
    """Read a headered, all-numeric CSV into a :class:`Dataset`.

    The response is extracted by column name; the remaining columns become
    the design matrix in file order. Data rows are numbered from 1 in error
    messages.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty, header row required", 0, "") from None
        header = [h.strip() for h in header]
        if response_column not in header:
            raise MissingColumnError(
                f"response column {response_column!r} not in header {header}"
            )
        # One flat buffer of doubles keeps peak memory near the table's own
        # size; a list of Python floats per row takes several times that.
        cells = array("d")
        n_rows = 0
        for i, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if len(raw) != len(header):
                raise ParseError(
                    f"row {i} has {len(raw)} cells, expected {len(header)}", i, ""
                )
            for name, cell in zip(header, raw):
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"row {i}, column {name!r}: could not parse {cell!r}",
                        i,
                        name,
                    ) from None
            n_rows += 1
    if not n_rows:
        raise ParseError("file has a header but no data rows", 0, "")
    table = np.frombuffer(cells, dtype=np.float64).reshape(n_rows, len(header))
    ri = header.index(response_column)
    keep = [j for j in range(len(header)) if j != ri]
    return Dataset(
        design=table[:, keep],
        response=table[:, ri],
        labels=tuple(header[j] for j in keep),
    )


def write_csv(data: Dataset, path: str | Path, response_label: str = "response") -> None:
    """Write a dataset back to CSV at full precision (repr round-trips floats)."""
    if response_label in data.labels:
        raise ValueError(f"response label {response_label!r} collides with a column")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.labels) + [response_label])
        for i in range(data.n_obs):
            writer.writerow(
                [repr(float(v)) for v in data.design[i]]
                + [repr(float(data.response[i]))]
            )


def standardize(
    data: Dataset, include_response: bool = False
) -> tuple[Dataset, StandardizationRecord]:
    """Center each covariate to mean 0 and scale to sample sd 1 (divisor n-1).

    With ``include_response`` the response is transformed the same way.
    Raises :class:`ZeroVarianceError` on any constant column.
    """
    if data.n_obs < 2:
        raise ValueError("standardization needs at least two observations")
    means = data.design.mean(axis=0)
    scales = data.design.std(axis=0, ddof=1)
    for j, s in enumerate(scales):
        if s == 0.0:
            raise ZeroVarianceError(data.labels[j])
    design = (data.design - means) / scales
    r_mean = r_scale = None
    response = data.response
    if include_response:
        r_mean = float(response.mean())
        r_scale = float(response.std(ddof=1))
        if r_scale == 0.0:
            raise ZeroVarianceError("<response>")
        response = (response - r_mean) / r_scale
    record = StandardizationRecord(
        means=tuple(float(m) for m in means),
        scales=tuple(float(s) for s in scales),
        response_mean=r_mean,
        response_scale=r_scale,
    )
    return Dataset(design, response, data.labels), record


def interaction_expand(data: Dataset) -> tuple[Dataset, InteractionMap]:
    """Append all pairwise products ``X_i * X_j`` (i < j) as new columns.

    Original columns come first in their original order; products are labeled
    ``"<a>:<b>"`` from the source labels.
    """
    p = data.n_features
    if p < 2:
        raise ValueError("interaction expansion needs at least two columns")
    columns = [data.design]
    labels = list(data.labels)
    sources: list[int | tuple[int, int]] = list(range(p))
    products = []
    for i in range(p):
        for j in range(i + 1, p):
            products.append(data.design[:, i] * data.design[:, j])
            labels.append(f"{data.labels[i]}:{data.labels[j]}")
            sources.append((i, j))
    columns.append(np.column_stack(products))
    expanded = Dataset(np.hstack(columns), data.response, tuple(labels))
    return expanded, InteractionMap(tuple(sources))
