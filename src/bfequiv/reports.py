"""Output artifacts: CSV tables, minimal SVG line plots, text reports.

All writes are atomic (temp file in the destination directory, then
rename) so interrupted runs never leave half-written artifacts.  Floats
are serialized with 12 significant digits, which round-trips the values
the calibration pipeline promises.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

__all__ = ["format_float", "write_text", "write_csv", "write_svg_lines"]

SIG_DIGITS = 12


def format_float(x) -> str:
    """12-significant-digit representation; integers stay integral."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return f"{float(x):.{SIG_DIGITS}g}"


def write_text(path: str, content: str) -> None:
    """Atomically write a text file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Atomically write a CSV table with formatted numeric cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(v) if isinstance(v, (int, float, np.floating, np.integer)) else str(v) for v in row]
        )
    write_text(path, buf.getvalue())


def write_svg_lines(
    path: str,
    x: np.ndarray,
    series: dict,
    title: str = "",
) -> None:
    """Minimal 640 x 420 SVG polyline chart: one line per named series.

    Deterministic output for identical inputs; no external plotting
    dependency.
    """
    x = np.asarray(x, dtype=float)
    width, height, margin = 640, 420, 50
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    all_y = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(all_y)), float(np.max(all_y))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 18}" font-size="11">{format_float(x_lo)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 18}" text-anchor="end" '
        f'font-size="11">{format_float(x_hi)}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{format_float(y_lo)}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-size="11">{format_float(y_hi)}</text>',
    ]
    for i, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, ys))
        color = colors[i % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 4}" y="{margin + 16 * (i + 1)}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    write_text(path, "\n".join(parts) + "\n")
