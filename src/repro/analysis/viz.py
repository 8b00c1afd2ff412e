"""Text-mode field rendering and CSV dumps (figures without matplotlib).

The paper's Figs. 3-5 are colour maps of temperature fields.  Offline we
render the same data as (a) unicode heat maps for the console and (b) CSV
dumps that plot directly in any tool, so every figure remains inspectable.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

_SHADES = " .:-=+*#%@"


def ascii_heatmap(
    field: np.ndarray,
    title: str = "",
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
    max_width: int = 64,
) -> str:
    """Render a 2-D array as an ASCII shade map (row 0 at the top).

    Values map linearly onto ten shade characters; a constant field renders
    as mid-grey.  A span within ``1e-9`` of the values' magnitude counts as
    constant, so solver round-off never draws as structure.  Arrays wider
    than ``max_width`` are decimated.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError(f"need a 2-D field, got shape {field.shape}")
    step = max(1, int(np.ceil(field.shape[1] / max_width)))
    view = field[::step, ::step]
    lo = vmin if vmin is not None else float(view.min())
    hi = vmax if vmax is not None else float(view.max())
    if hi - lo <= 1e-9 * max(abs(lo), abs(hi)):
        normalized = np.full_like(view, 0.5)
    else:
        normalized = np.clip((view - lo) / (hi - lo), 0.0, 1.0)
    indices = np.minimum((normalized * len(_SHADES)).astype(int), len(_SHADES) - 1)
    out = io.StringIO()
    if title:
        out.write(f"{title}  [min {lo:.3f}, max {hi:.3f}]\n")
    for row in indices:
        out.write("".join(_SHADES[i] for i in row) + "\n")
    return out.getvalue()


def field_slice(field_3d: np.ndarray, axis: int = 2, index: int = -1) -> np.ndarray:
    """Extract a 2-D slice from an (nx, ny, nz) field (default: top surface)."""
    field_3d = np.asarray(field_3d)
    if field_3d.ndim != 3:
        raise ValueError(f"need a 3-D field, got shape {field_3d.shape}")
    return np.take(field_3d, index, axis=axis)


def side_by_side(left: str, right: str, gap: int = 4) -> str:
    """Join two multi-line blocks horizontally (prediction | reference)."""
    left_lines = left.rstrip("\n").split("\n")
    right_lines = right.rstrip("\n").split("\n")
    height = max(len(left_lines), len(right_lines))
    width = max(len(line) for line in left_lines)
    left_lines += [""] * (height - len(left_lines))
    right_lines += [""] * (height - len(right_lines))
    return "\n".join(
        f"{left:<{width}}{' ' * gap}{right}"
        for left, right in zip(left_lines, right_lines)
    )


def write_field_csv(
    path: Union[str, Path],
    points: np.ndarray,
    values: Sequence[np.ndarray],
    value_names: Sequence[str],
) -> Path:
    """Dump (x, y, z, col1, col2, ...) rows for external plotting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    columns = [np.asarray(v, dtype=np.float64).ravel() for v in values]
    if len(columns) != len(value_names):
        raise ValueError("one name per value column required")
    for column in columns:
        if column.shape[0] != points.shape[0]:
            raise ValueError("value column length does not match points")
    header = ",".join(["x", "y", "z", *value_names])
    table = np.column_stack([points, *columns])
    np.savetxt(path, table, delimiter=",", header=header, comments="")
    return path


def compare_fields_text(
    predicted: np.ndarray,
    reference: np.ndarray,
    title: str = "top-surface temperature",
) -> str:
    """Fig. 3-style panel: prediction next to reference on a shared scale."""
    lo = float(min(predicted.min(), reference.min()))
    hi = float(max(predicted.max(), reference.max()))
    left = ascii_heatmap(predicted, f"DeepOHeat {title}", vmin=lo, vmax=hi)
    right = ascii_heatmap(reference, f"Reference {title}", vmin=lo, vmax=hi)
    return side_by_side(left, right)


_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 60, logscale: bool = True) -> str:
    """Render a sequence (e.g. a loss history) as a one-line unicode chart.

    With ``logscale`` (the default) values are log-compressed first, which
    suits loss curves spanning decades.
    """
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("nothing to plot")
    if values.size > width:
        # Decimate by averaging consecutive chunks.
        edges = np.linspace(0, values.size, width + 1).astype(int)
        values = np.array(
            [values[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a]
        )
    plot = values.copy()
    if logscale:
        plot = np.log10(np.maximum(plot, 1e-300))
    lo, hi = float(plot.min()), float(plot.max())
    if hi <= lo:
        return _SPARK_LEVELS[0] * plot.size
    normalized = (plot - lo) / (hi - lo)
    indices = np.minimum(
        (normalized * len(_SPARK_LEVELS)).astype(int), len(_SPARK_LEVELS) - 1
    )
    return "".join(_SPARK_LEVELS[i] for i in indices)


def history_chart(history, width: int = 60) -> str:
    """Sparkline plus endpoints for a :class:`TrainingHistory`-like object."""
    losses = history.total_loss
    line = sparkline(losses, width=width)
    return (
        f"loss {line}  [{losses[0]:.3e} -> {losses[-1]:.3e}, "
        f"{len(history.iterations)} logged points]"
    )
