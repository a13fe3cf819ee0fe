"""Survey ingestion, empirical-logit transform, and design-matrix assembly.

This module owns every input format: the survey CSV, the covariate stack
manifest with its grid files (``save_stack_manifest`` writes what
``load_stack_manifest`` reads) and the prediction lattice's point order.

File formats
------------
Survey CSV: header ``lon,lat,t,n_tested,n_positive``, UTF-8, ``.`` decimal
separator, one record per line. The response is recomputed on load, so
``load_surveys(save_surveys(records))`` is the identity.

Covariate stack manifest (YAML)::

    covariates:
      - name: elevation
        kind: static                 # static | synoptic | dynamic-monthly | dynamic-annual
        grid: {lon0: 30.0, lat0: -1.0, d_lon: 0.05, d_lat: 0.05, n_lon: 24, n_lat: 24}
        path: grids/elevation.csv
      - name: evi
        kind: dynamic-monthly
        grid: {...}
        t_start: 0
        t_end: 23                    # inclusive month index range
        path_template: grids/evi_{t}.csv

Grid file: plain CSV of n_lat rows x n_lon columns of reals, row 0 being the
northernmost row; ``lon0``/``lat0`` are the centre of the north-west cell.
A grid file with no rows is a data error. Paths are resolved relative to the
manifest file. Dynamic-annual covariates store one slice per 12-month block
from ``t_start``; ``{t}`` in their ``path_template`` is the block index.

Assembly (``KINDS``) expands every dynamic-monthly covariate into lagged
columns at 0, 2, 4 and 6 months; static, synoptic and dynamic-annual
covariates contribute one column each. Lookups are nearest-cell (round-half-even on the fractional cell
coordinate), no interpolation.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .config import YamlLoader, check_values, finite_real, int_at_least, positive_real, text
from .errors import DataError, SchemaError

EMPIRICAL_LOGIT_C = 0.5
# covariate kind -> (months per slice, or None for one slice; the month lags of its columns)
KINDS = {
    "static": (None, (0,)),
    "synoptic": (None, (0,)),
    "dynamic-monthly": (1, (0, 2, 4, 6)),
    "dynamic-annual": (12, (0,)),
}
SURVEY_HEADER = ["lon", "lat", "t", "n_tested", "n_positive"]


def empirical_logit(n_positive: int, n_tested: int) -> float:
    """log((k + c) / (n - k + c)) with continuity correction c = 0.5.

    Finite for all legal counts, including k = 0 and k = n.
    """
    if n_tested < 1:
        raise DataError(f"n_tested must be >= 1, got {n_tested}")
    if not 0 <= n_positive <= n_tested:
        raise DataError(f"n_positive must be in [0, n_tested], got {n_positive} of {n_tested}")
    c = EMPIRICAL_LOGIT_C
    return math.log((n_positive + c) / (n_tested - n_positive + c))


@dataclass(frozen=True)
class SurveyRecord:
    """One prevalence observation with its empirical-logit response."""

    lon: float
    lat: float
    t: int
    n_tested: int
    n_positive: int
    y: float

    @classmethod
    def from_counts(cls, lon: float, lat: float, t: int, n_tested: int, n_positive: int) -> "SurveyRecord":
        if t < 0:
            raise DataError(f"month index must be >= 0, got {t}")
        return cls(float(lon), float(lat), int(t), int(n_tested), int(n_positive),
                   empirical_logit(n_positive, n_tested))


def load_surveys(path) -> list[SurveyRecord]:
    """Read a survey CSV; errors cite the 1-based line number."""
    path = Path(path)
    records: list[SurveyRecord] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected header {','.join(SURVEY_HEADER)}")
        if [h.strip() for h in header] != SURVEY_HEADER:
            raise SchemaError(f"{path}: bad header {header!r}, expected {SURVEY_HEADER}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                lon, lat = float(row[0]), float(row[1])
                t, n_tested, n_positive = int(row[2]), int(row[3]), int(row[4])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            try:
                records.append(SurveyRecord.from_counts(lon, lat, t, n_tested, n_positive))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return records


def save_surveys(records, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SURVEY_HEADER)
        for r in records:
            writer.writerow([repr(r.lon), repr(r.lat), r.t, r.n_tested, r.n_positive])


class PointError(DataError):
    """A DataError about one of an array of points; index is its position."""

    def __init__(self, index, message: str):
        super().__init__(message)
        self.index = int(index)


# GridGeometry field -> (check, description); a synth scenario checks its grid by it too
GRID_FIELDS = {
    "n_lon": (int_at_least(1), "an integer >= 1"), "n_lat": (int_at_least(1), "an integer >= 1"),
    "lon0": (finite_real, "a finite real"), "lat0": (finite_real, "a finite real"),
    "d_lon": (positive_real, "a finite real > 0"), "d_lat": (positive_real, "a finite real > 0"),
}


@dataclass(frozen=True)
class GridGeometry:
    """Regular lon/lat lattice; (lon0, lat0) is the north-west cell centre."""

    lon0: float
    lat0: float
    d_lon: float
    d_lat: float
    n_lon: int
    n_lat: int

    def __post_init__(self):
        check_values("", vars(self), GRID_FIELDS, DataError)

    def cell_index(self, lon, lat):
        """Nearest cell (row, col) of each point; raises PointError for the first outside the extent."""
        col = np.rint((np.asarray(lon, dtype=float) - self.lon0) / self.d_lon)
        row = np.rint((self.lat0 - np.asarray(lat, dtype=float)) / self.d_lat)
        outside = np.flatnonzero(~((0 <= col) & (col < self.n_lon) & (0 <= row) & (row < self.n_lat)))
        if outside.size:
            i = outside[0]
            raise PointError(i, f"point ({np.ravel(lon)[i]}, {np.ravel(lat)[i]}) outside grid extent")
        return row.astype(np.intp), col.astype(np.intp)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """All centres, row-major (north to south, west to east)."""
        lons = self.lon0 + np.arange(self.n_lon) * self.d_lon
        lats = self.lat0 - np.arange(self.n_lat) * self.d_lat
        glon, glat = np.meshgrid(lons, lats)
        return glon.ravel(), glat.ravel()


def load_grid_csv(path, geometry: GridGeometry) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # "no data": refused below
            values = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:       # a cell that is not a number, or a ragged row
        raise DataError(f"{path}: {str(exc).partition('; use `usecols`')[0]}") from exc
    if values.size == 0:
        raise DataError(f"{path}: no grid rows")
    if values.shape != (geometry.n_lat, geometry.n_lon):
        raise SchemaError(f"{path}: grid shape {values.shape} does not match geometry "
                          f"({geometry.n_lat}, {geometry.n_lon})")
    if not np.all(np.isfinite(values)):
        raise DataError(f"{path}: grid contains non-finite values")
    return values


def save_grid_csv(values: np.ndarray, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in np.asarray(values, dtype=float).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


@dataclass(frozen=True)
class Covariate:
    """One covariate source: geometry plus per-time-slice grids."""

    name: str
    kind: str
    geometry: GridGeometry
    slices: np.ndarray = field(repr=False)   # (n_slices, n_lat, n_lon); static has one slice
    t_start: int = 0
    t_end: int = 0

    def values_at(self, lon, lat, t) -> np.ndarray:
        """Nearest-cell values at points (lon[i], lat[i]) in months t[i].

        Raises PointError for the first point outside the extent, else for the
        first month outside [t_start, t_end].
        """
        row, col = self.geometry.cell_index(lon, lat)
        if (per := KINDS[self.kind][0]) is None:
            return self.slices[0, row, col]
        t = np.asarray(t)
        outside = np.flatnonzero((t < self.t_start) | (t > self.t_end))
        if outside.size:
            i = outside[0]
            raise PointError(i, f"month {t[i]} outside [{self.t_start}, {self.t_end}]")
        return self.slices[(t - self.t_start) // per, row, col]


def _path_template(v) -> bool:
    """A non-empty string whose only replacement field is {t}."""
    try:
        return text(v) and isinstance(v.format(t=0), str)
    except (KeyError, IndexError, ValueError, AttributeError, TypeError):
        return False


# covariate entry key -> (check, description); a missing key is checked as None
_ENTRY_FIELDS = {
    "path": (text, "a path string"),
    "t_start": (int_at_least(0), "a non-negative integer"),
    "t_end": (int_at_least(0), "a non-negative integer"),
    "path_template": (_path_template, "a path template string whose only field is {t}"),
}


def load_stack_manifest(path, months=None) -> list[Covariate]:
    """Load every covariate referenced by a stack manifest; fails loudly on gaps.

    months, if given, are the months a prediction grid will be assembled at:
    a dynamic covariate then reads only the slices that those months minus
    its lags reach inside [t_start, t_end], and its other slices hold NaN,
    which the design matrix refuses if a point ever reads one. Months outside
    the range are left for assemble_at to refuse with its usual message.
    """
    path = Path(path)
    try:
        spec = yaml.load(path.read_text(encoding="utf-8"), Loader=YamlLoader)
    except yaml.YAMLError as exc:
        raise DataError(f"{path}: cannot parse manifest: {exc}") from exc
    if not isinstance(spec, dict) or "covariates" not in spec:
        raise SchemaError(f"{path}: manifest must be a mapping with a 'covariates' list")
    if not isinstance(spec["covariates"], list):
        raise SchemaError(f"{path}: 'covariates' must be a list, got {spec['covariates']!r}")
    base = path.parent
    covariates = []
    seen = set()
    for i, entry in enumerate(spec["covariates"]):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: covariate entry {i} must be a mapping, got {entry!r}")
        name = entry.get("name")
        kind = entry.get("kind")
        if not text(name) or not isinstance(kind, str) or kind not in KINDS:
            raise SchemaError(f"{path}: covariate entry needs a name and kind in "
                              f"{tuple(KINDS)}, got {entry!r}")
        if name in seen:
            raise SchemaError(f"{path}: duplicate covariate name '{name}'")
        seen.add(name)
        try:
            geometry = GridGeometry(**entry["grid"])
        except (KeyError, TypeError, DataError) as exc:
            raise SchemaError(f"{path}: covariate '{name}': bad grid geometry: {exc}") from exc
        per, lags = KINDS[kind]
        keys = ("path",) if per is None else ("t_start", "t_end", "path_template")
        found = check_values(f"{path}: covariate '{name}': ", {key: entry.get(key) for key in keys},
                             _ENTRY_FIELDS, SchemaError)
        if "path" in found:
            slices = load_grid_csv(base / found["path"], geometry)[None]
            covariates.append(Covariate(name, kind, geometry, slices))
            continue
        t_start, t_end, template = found.values()
        if t_end < t_start:
            raise SchemaError(f"{path}: covariate '{name}': t_end < t_start")
        n_slices = (t_end - t_start) // per + 1
        if months is None:
            wanted = range(n_slices)
        else:
            reached = [m - lag for m in np.atleast_1d(months).tolist() for lag in lags]
            wanted = sorted({(t - t_start) // per for t in reached if t_start <= t <= t_end})
        slices = np.full((n_slices, geometry.n_lat, geometry.n_lon), np.nan)
        for s in wanted:
            slices[s] = load_grid_csv(base / template.format(t=s), geometry)
        covariates.append(Covariate(name, kind, geometry, slices, t_start, t_end))
    if not covariates:
        raise SchemaError(f"{path}: manifest lists no covariates")
    return covariates


def save_stack_manifest(covariates, outdir) -> Path:
    """Write covariates as outdir/stack.yaml plus their grids/*.csv; returns the manifest path."""
    outdir = Path(outdir)
    (outdir / "grids").mkdir(parents=True, exist_ok=True)
    entries = []
    for cov in covariates:
        entry = {"name": cov.name, "kind": cov.kind, "grid": dict(vars(cov.geometry))}
        if KINDS[cov.kind][0] is None:
            entry["path"] = f"grids/{cov.name}.csv"
            save_grid_csv(cov.slices[0], outdir / entry["path"])
        else:
            entry.update(t_start=cov.t_start, t_end=cov.t_end,
                         path_template=f"grids/{cov.name}_{{t}}.csv")
            for s, values in enumerate(cov.slices):
                save_grid_csv(values, outdir / f"grids/{cov.name}_{s}.csv")
        entries.append(entry)
    path = outdir / "stack.yaml"
    path.write_text(yaml.safe_dump({"covariates": entries}, sort_keys=False), encoding="utf-8")
    return path


@dataclass(frozen=True)
class ColumnInfo:
    name: str
    lag_months: int
    kind: str

    @property
    def label(self) -> str:
        return self.name if self.lag_months == 0 else f"{self.name}_lag{self.lag_months}"


@dataclass(frozen=True)
class CovariateMatrix:
    """Aligned n x m design matrix; row i corresponds to observation i."""

    values: np.ndarray
    columns: tuple[ColumnInfo, ...]

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.ndim != 2 or v.shape[1] != len(self.columns):
            raise DataError(f"design matrix shape {v.shape} does not match {len(self.columns)} columns")
        if not np.all(np.isfinite(v)):
            raise DataError("design matrix contains non-finite values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "columns", tuple(self.columns))

    def check_layout(self, fitted: tuple) -> None:
        """Raise SchemaError, listing the missing and extra columns, unless this
        design's columns are exactly fitted, the layout a model was fitted on."""
        if self.columns == fitted:
            return
        mine = {c.label for c in self.columns}
        theirs = {c.label for c in fitted}
        missing = sorted(theirs - mine)
        extra = sorted(mine - theirs)
        if missing or extra:
            raise SchemaError(f"column layout mismatch: missing {missing}, extra {extra}")
        raise SchemaError("column layout mismatch: same labels, different order or metadata")


def design_columns(covariates) -> list[tuple[ColumnInfo, "Covariate"]]:
    return [(ColumnInfo(cov.name, lag, cov.kind), cov) for cov in covariates
            for lag in KINDS[cov.kind][1]]


def assemble_at(points, covariates) -> CovariateMatrix:
    """Assemble the design at points, an (n, 3) array or a sequence of (lon, lat, t).

    Each column checks months >= 0, the extent, then the covariate's months;
    an error names the column and the first row failing the check.
    """
    points = np.asarray(points, dtype=float).reshape(len(points), 3)
    lon, lat, t = points[:, 0], points[:, 1], points[:, 2].astype(int)
    cols = design_columns(covariates)
    values = np.empty((len(points), len(cols)))
    for j, (info, cov) in enumerate(cols):
        t_eff = t - info.lag_months
        early = np.flatnonzero(t_eff < 0)
        if early.size:
            i = early[0]
            raise DataError(f"row {i}: covariate '{info.label}' needs month {t_eff[i]} < 0")
        try:
            values[:, j] = cov.values_at(lon, lat, t_eff)
        except PointError as exc:
            raise DataError(f"row {exc.index}: covariate '{info.label}': {exc}") from exc
    return CovariateMatrix(values=values, columns=tuple(info for info, _ in cols))


def assemble_design(surveys, covariates) -> CovariateMatrix:
    """Assemble the survey design matrix, one row per survey."""
    return assemble_at([(r.lon, r.lat, r.t) for r in surveys], covariates)


@dataclass(frozen=True)
class PredictionGrid:
    """Prediction lattice over one or more months: (lon, lat, t) cell points and their design.

    The points run month by month in the order the months were given, each
    month's cells row-major, so one GP conditioning can cover every month.
    """

    points: np.ndarray
    design: CovariateMatrix


def build_prediction_grid(geometry: GridGeometry, months, covariates) -> PredictionGrid:
    """The lattice at months, one month index or a sequence of them."""
    lons, lats = geometry.cell_centers()
    months = np.atleast_1d(months)
    points = np.column_stack([np.tile(lons, months.size), np.tile(lats, months.size),
                              np.repeat(months, lons.size)])
    return PredictionGrid(points=points, design=assemble_at(points, covariates))
