"""Markdown/terminal table formatting for experiment output."""

from __future__ import annotations

from typing import Dict, Mapping, Sequence

__all__ = ["format_metric_table", "format_run_header"]


def format_metric_table(
    rows: Mapping[str, Mapping[str, float]],
    metrics: Sequence[str] | None = None,
    highlight_best: bool = True,
    precision: int = 4,
) -> str:
    """Render ``{row_name: {metric: value}}`` as a markdown table.

    When ``highlight_best`` is set, the best value in each metric
    column is wrapped in ``**bold**`` (the paper's Table II convention).
    """
    if not rows:
        return "(empty)"
    if metrics is None:
        first = next(iter(rows.values()))
        metrics = sorted(first)
    best: Dict[str, float] = {}
    if highlight_best:
        for metric in metrics:
            values = [r[metric] for r in rows.values() if metric in r]
            if values:
                best[metric] = max(values)

    name_width = max(len(str(k)) for k in rows)
    header = f"| {'model':<{name_width}} | " + " | ".join(metrics) + " |"
    divider = f"|{'-' * (name_width + 2)}|" + "|".join("-" * (len(m) + 2) for m in metrics) + "|"
    lines = [header, divider]
    for name, metric_map in rows.items():
        cells = []
        for metric in metrics:
            if metric not in metric_map:
                cells.append("-")
                continue
            value = metric_map[metric]
            text = f"{value:.{precision}f}"
            if highlight_best and metric in best and value == best[metric]:
                text = f"**{text}**"
            cells.append(text)
        lines.append(f"| {str(name):<{name_width}} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def format_run_header(title: str, **context) -> str:
    """One-line experiment banner: ``=== title (k=v, ...) ===``."""
    extras = ", ".join(f"{k}={v}" for k, v in context.items())
    suffix = f" ({extras})" if extras else ""
    return f"=== {title}{suffix} ==="
