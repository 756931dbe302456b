"""Operator-facing result reporting (Bokeh-HTML stand-in).

The paper's deployment renders interactive Bokeh scatter plots of the
2-D embedding.  Offline, the equivalent evidence is quantitative:

- :func:`embedding_axis_correlations` — how strongly each embedding
  axis tracks a physical image statistic (the Fig. 5 claim is exactly
  "X-axis ↔ weight asymmetry, Y-axis ↔ circularity");
- :func:`knn_decodability` — how well a statistic is read off each
  point's embedding neighbours, for factors laid out along a curve;
- :func:`ascii_density_map` — a terminal-renderable 2-D histogram of
  the embedding, optionally per-cluster;
- :func:`export_embedding_csv` — dump coordinates + labels + any truth
  columns for external plotting.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

__all__ = [
    "embedding_axis_correlations",
    "knn_decodability",
    "ascii_density_map",
    "export_embedding_csv",
]


def embedding_axis_correlations(
    embedding: np.ndarray,
    statistics: dict[str, np.ndarray],
    mask: np.ndarray | None = None,
    align: bool = True,
) -> dict[str, tuple[float, float]]:
    """Pearson correlation of each embedding axis with image statistics.

    Parameters
    ----------
    embedding:
        ``(n, 2)`` UMAP coordinates.
    statistics:
        Name → length-``n`` physical statistic (e.g. measured asymmetry
        and circularity from :mod:`repro.data.beam`).
    mask:
        Optional boolean filter (e.g. exclude exotic shots).
    align:
        UMAP axes carry no intrinsic orientation, so by default each
        statistic reports against its best-matching axis first:
        the returned tuple is ``(|corr| with best axis, |corr| with
        other axis)``.  With ``align=False`` the tuple is the signed
        ``(corr_x, corr_y)``.

    Returns
    -------
    dict
        statistic name → correlation tuple.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] != 2:
        raise ValueError("embedding must be (n, 2)")
    n = embedding.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    out: dict[str, tuple[float, float]] = {}
    for name, stat in statistics.items():
        stat = np.asarray(stat, dtype=np.float64)
        if stat.shape != (n,):
            raise ValueError(f"statistic {name!r} has shape {stat.shape}, expected ({n},)")
        cx = _pearson(embedding[mask, 0], stat[mask])
        cy = _pearson(embedding[mask, 1], stat[mask])
        if align:
            a, b = sorted((abs(cx), abs(cy)), reverse=True)
            out[name] = (a, b)
        else:
            out[name] = (cx, cy)
    return out


def knn_decodability(embedding: np.ndarray, target: np.ndarray, k: int = 10) -> float:
    """R² of predicting a statistic from each point's ``k`` embedding
    neighbours — "can an operator read the factor off the map?".

    UMAP preserves neighbourhoods, not linear axes; a factor the map
    organizes along a *curved* direction scores low on Pearson axis
    correlation (:func:`embedding_axis_correlations`) but high here.
    """
    from repro.embed.knn import knn_brute

    idx, _ = knn_brute(embedding, k)
    pred = target[idx].mean(axis=1)
    ss_res = float(np.sum((target - pred) ** 2))
    ss_tot = float(np.sum((target - target.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def ascii_density_map(
    embedding: np.ndarray,
    labels: np.ndarray | None = None,
    width: int = 60,
    height: int = 24,
) -> str:
    """Render the embedding as a terminal density map.

    Without labels, cells show density shades (`` .:+*#@``); with
    labels, each cell shows the majority cluster's letter (``a``-``z``,
    ``.`` for noise-dominated cells).
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] != 2:
        raise ValueError("embedding must be (n, 2)")
    x, y = embedding[:, 0], embedding[:, 1]
    xedges = np.linspace(x.min(), x.max() + 1e-9, width + 1)
    yedges = np.linspace(y.min(), y.max() + 1e-9, height + 1)
    xi = np.clip(np.searchsorted(xedges, x, side="right") - 1, 0, width - 1)
    yi = np.clip(np.searchsorted(yedges, y, side="right") - 1, 0, height - 1)
    lines: list[str] = []
    if labels is None:
        counts = np.zeros((height, width), dtype=np.int64)
        np.add.at(counts, (yi, xi), 1)
        shades = " .:+*#@"
        peak = counts.max() if counts.max() > 0 else 1
        for row in range(height - 1, -1, -1):
            line = "".join(
                shades[min(int(c / peak * (len(shades) - 1) + 0.999), len(shades) - 1)]
                if c > 0
                else " "
                for c in counts[row]
            )
            lines.append(line)
    else:
        labels = np.asarray(labels)
        grid: list[list[dict[int, int]]] = [
            [dict() for _ in range(width)] for _ in range(height)
        ]
        for px, py, lab in zip(xi, yi, labels):
            cell = grid[py][px]
            cell[int(lab)] = cell.get(int(lab), 0) + 1
        for row in range(height - 1, -1, -1):
            chars = []
            for col in range(width):
                cell = grid[row][col]
                if not cell:
                    chars.append(" ")
                    continue
                major = max(cell, key=cell.get)  # type: ignore[arg-type]
                chars.append("." if major == -1 else chr(ord("a") + major % 26))
            lines.append("".join(chars))
    return "\n".join(lines)


def export_embedding_csv(
    path: str | Path,
    embedding: np.ndarray,
    labels: np.ndarray | None = None,
    extra: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write embedding coordinates (+labels, +extra columns) to CSV.

    Returns the written path.  Columns: ``x, y[, label][, extras...]``.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    n = embedding.shape[0]
    path = Path(path)
    header = ["x", "y"]
    columns: list[np.ndarray] = [embedding[:, 0], embedding[:, 1]]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != n:
            raise ValueError("labels length mismatch")
        header.append("label")
        columns.append(labels)
    for name, col in (extra or {}).items():
        col = np.asarray(col)
        if col.shape[0] != n:
            raise ValueError(f"extra column {name!r} length mismatch")
        header.append(name)
        columns.append(col)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            writer.writerow([c[i] for c in columns])
    return path
