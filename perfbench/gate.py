"""Correctness gate: every benchmark run is checked before its metrics count.

``check`` reads the files one ``rgld run`` command wrote and raises
``GateError`` unless

* the directory holds exactly the expected files;
* each chain and aggregate CSV has one row per step after its header,
  with steps numbered ``0 .. steps-1``;
* every value parses and is finite;
* the bytes hash to the same sha256 as the first repeat of the same
  workload, seed and code;
* rgld never fell back to projection;
* the last total-variation row is at most the workload's bound.

The digests are compared within one benchmark run and never pinned here:
pinned output digests belong to the test suite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHAIN_HEADER = "step,f,cummin,reflected,fallback"
AGGREGATE_HEADER = "step,q25,q50,q75"
TV_HEADER = "prefix,tv"


class GateError(Exception):
    """An output failed a correctness check."""


@dataclass(frozen=True)
class Expected:
    """What one ``rgld run`` command must write: chain and aggregate CSVs
    and, with ``tv_max``, total-variation CSVs."""

    name: str
    methods: tuple[str, ...]
    seeds: tuple[int, ...] = ()
    steps: int = 0
    tv_max: float | None = None

    def files(self) -> set[str]:
        names = set()
        for m in self.methods:
            names.add(f"{self.name}_{m}_aggregate.csv")
            for s in self.seeds:
                names.add(f"{self.name}_{m}_seed{s}.csv")
                if self.tv_max is not None:
                    names.add(f"{self.name}_{m}_tv_seed{s}.csv")
        return names


def read_csv(path: Path, header: str) -> np.ndarray:
    """Rows of a numeric CSV as a float array; every value finite."""
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        raise GateError(f"{path.name}: last line is not terminated")
    first, _, body = text.partition("\n")
    if first != header:
        raise GateError(f"{path.name}: header is not {header!r}")
    ncols = header.count(",") + 1
    rows = body.count("\n")
    if not rows:
        return np.empty((0, ncols))
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2)
    except ValueError as exc:
        raise GateError(f"{path.name}: unparsable row ({exc})") from None
    if values.shape != (rows, ncols):
        raise GateError(f"{path.name}: {values.shape} values, expected {(rows, ncols)}")
    bad = ~np.isfinite(values)
    if bad.any():
        row = int(np.argwhere(bad)[0][0])
        raise GateError(f"{path.name}: non-finite value in data row {row}")
    return values


def _check_steps(path: Path, data: np.ndarray, steps: int) -> None:
    if data.shape[0] != steps:
        raise GateError(f"{path.name}: {data.shape[0]} rows, expected {steps}")
    if not np.array_equal(data[:, 0], np.arange(steps)):
        raise GateError(f"{path.name}: step column is not 0..{steps - 1}")


def digest(out_dir: Path, names) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        data = (out_dir / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def check(out_dir: Path, e: Expected, reference_digest: str | None) -> dict:
    """Gate one command's outputs; returns the facts the metrics use."""
    out_dir = Path(out_dir)
    want = e.files()
    have = {p.name for p in out_dir.iterdir()}
    if have != want:
        raise GateError(
            f"file set differs: missing {sorted(want - have)[:3]}, "
            f"unexpected {sorted(have - want)[:3]}"
        )
    facts = {
        "digest": digest(out_dir, want),
        "bytes": sum((out_dir / n).stat().st_size for n in want),
        "rows": 0,
    }
    if reference_digest is not None and facts["digest"] != reference_digest:
        raise GateError("output bytes differ from the first repeat")
    for m in e.methods:
        for s in e.seeds:
            path = out_dir / f"{e.name}_{m}_seed{s}.csv"
            data = read_csv(path, CHAIN_HEADER)
            _check_steps(path, data, e.steps)
            if m == "rgld" and data[:, 4].any():
                raise GateError(f"{path.name}: {int(data[:, 4].sum())} steps fell "
                                "back to projection")
            facts["rows"] += e.steps
        path = out_dir / f"{e.name}_{m}_aggregate.csv"
        data = read_csv(path, AGGREGATE_HEADER)
        _check_steps(path, data, e.steps)
        facts["rows"] += e.steps
        if m == "rgld":
            facts["err_q50"] = float(data[-1, 2])
        if e.tv_max is None:
            continue
        for s in e.seeds:
            path = out_dir / f"{e.name}_{m}_tv_seed{s}.csv"
            data = read_csv(path, TV_HEADER)
            if data.shape[0] == 0 or data[-1, 0] != e.steps:
                raise GateError(f"{path.name}: last prefix is not {e.steps}")
            if not np.all(np.diff(data[:, 0]) > 0):
                raise GateError(f"{path.name}: prefixes do not increase")
            tv = float(data[-1, 1])
            if not tv <= e.tv_max:
                raise GateError(f"{path.name}: final TV {tv:.4g} > {e.tv_max}")
            facts["tv_final"] = tv
            facts["rows"] += data.shape[0]
    return facts
