"""ASCII bar charts approximating the paper's figures in a terminal.

These complement the tabular renderers in :mod:`repro.analysis.reporting`:
the same data, drawn as horizontal bars so orderings and ratios are
visible at a glance (`python -m repro fig9 --chart`).
"""

from __future__ import annotations

from typing import Mapping

_BAR = "█"
_WHISKER = "─"


def hbar_chart(rows: list[tuple[str, float]], width: int = 50,
               unit: str = "", title: str = "") -> str:
    """Render labelled horizontal bars scaled to the maximum value."""
    if not rows:
        return "(no data)"
    label_width = max(len(label) for label, _ in rows)
    peak = max(value for _, value in rows) or 1.0
    lines = [title] if title else []
    for label, value in rows:
        bar = _BAR * max(1, round(value / peak * width)) if value > 0 else ""
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)}| "
                     f"{value:.1f}{unit}")
    return "\n".join(lines)


def latency_chart(results: Mapping, core: str, width: int = 44) -> str:
    """Figure 9 as bars: mean with a min–max whisker per configuration."""
    rows = [(config, suite.stats)
            for (c, config), suite in results.items() if c == core]
    if not rows:
        return f"(no data for {core})"
    label_width = max(len(config) for config, _ in rows)
    peak = max(stats.maximum for _, stats in rows) or 1
    scale = width / peak
    lines = [f"{core}: context-switch latency (█ mean, ─ min..max)"]
    for config, stats in rows:
        mean_cells = max(1, round(stats.mean * scale))
        max_cells = max(mean_cells, round(stats.maximum * scale))
        bar = _BAR * mean_cells + _WHISKER * (max_cells - mean_cells)
        lines.append(
            f"{config.ljust(label_width)} |{bar.ljust(width)}| "
            f"mu={stats.mean:7.1f}  delta={stats.jitter}")
    return "\n".join(lines)


def area_chart(reports: Mapping, core: str, width: int = 44) -> str:
    """Figure 10 as bars: normalized area per configuration."""
    rows = [(config, report.normalized)
            for (c, config), report in reports.items() if c == core]
    if not rows:
        return f"(no data for {core})"
    return hbar_chart(rows, width=width, unit="x",
                      title=f"{core}: normalized ASIC area")
